//! Linear-system solvers used inside the OSQP/RSQP iteration.
//!
//! OSQP solves the KKT system (Eq. 2 of the RSQP paper) either *directly*
//! with a sparse quasi-definite LDLᵀ factorization (the CPU default,
//! mirroring QDLDL) or *indirectly* by reducing it to
//! `(P + σI + Aᵀ diag(ρ) A) x = b` (Eq. 3) and applying the Preconditioned
//! Conjugate Gradient method (Algorithm 2) — the path taken by cuOSQP and by
//! RSQP's FPGA accelerator.
//!
//! This crate provides both:
//!
//! * [`Ldlt`] — symbolic + numeric LDLᵀ of an upper-triangular CSC matrix
//!   with quasi-definite pivots, plus triangular solves,
//! * [`KktMatrix`] — assembly of the (permuted) KKT matrix from `P`, `A`,
//!   `σ`, `ρ`, with cheap ρ updates that reuse the symbolic factorization,
//! * [`ReducedKktOp`] — the matrix-free reduced-KKT operator,
//! * [`pcg`] — Algorithm 2 with a Jacobi (diagonal) preconditioner,
//! * [`min_degree_ordering`] (the default) and [`rcm_ordering`] —
//!   fill-reducing orderings (our substitution for SuiteSparse AMD; see
//!   `DESIGN.md`).
//!
//! # Example: solving a tiny KKT system both ways
//!
//! ```
//! use rsqp_sparse::CsrMatrix;
//! use rsqp_linsys::{KktMatrix, Ldlt, ReducedKktOp, pcg, PcgSettings};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = CsrMatrix::from_diag(&[2.0, 2.0]);
//! let a = CsrMatrix::from_dense(&[vec![1.0, 1.0]]);
//! let rho = vec![0.1];
//! let kkt = KktMatrix::assemble(&p, &a, 1e-6, &rho)?;
//! let mut ldlt = Ldlt::factor(kkt.matrix())?;
//! let mut rhs = vec![1.0, 1.0, 0.0];
//! ldlt.solve_in_place(&mut rhs)?;
//!
//! let mut op = ReducedKktOp::new(&p, &a, 1e-6, &rho)?;
//! let b = vec![1.0, 1.0];
//! let sol = pcg(&mut op, &b, &vec![0.0; 2], &PcgSettings::default())?;
//! assert!((sol.x[0] - rhs[0]).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod kkt;
mod ldlt;
mod ordering;
mod pcg;

pub use error::LinsysError;
pub use kkt::{KktMatrix, ReducedKktOp};
pub use ldlt::Ldlt;
pub use ordering::{inverse_permutation, min_degree_ordering, rcm_ordering, SymmetricPermutation};
pub use pcg::{pcg, pcg_with, LinearOperator, PcgError, PcgResult, PcgSettings};
pub use pcg::{PcgSummary, PcgWorkspace};
