//! Pluggable KKT-system backends.
//!
//! One ADMM iteration needs the solution `(x̃, z̃)` of Eq. (2). How that
//! system is solved is the entire difference between the CPU, GPU, and FPGA
//! incarnations of OSQP, so it is abstracted behind [`KktBackend`]:
//!
//! * [`DirectLdltBackend`] factors the quasi-definite KKT matrix once and
//!   reuses the numeric factorization until ρ changes;
//! * [`CpuPcgBackend`] solves the reduced system (Eq. 3) iteratively with
//!   warm-started PCG — the same computation RSQP maps onto the FPGA;
//! * `rsqp-core` provides a third implementation that runs the PCG
//!   instruction stream through the cycle-level architecture simulator.

use std::sync::Arc;

use rsqp_linsys::{
    min_degree_ordering, pcg_with, rcm_ordering, KktMatrix, Ldlt, PcgSettings, PcgWorkspace,
    ReducedKktOp, SymmetricPermutation,
};
use rsqp_par::ThreadPool;
use rsqp_sparse::CsrMatrix;

use crate::settings::KktOrdering;
use crate::SolverError;

/// Cumulative work counters reported by a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Number of KKT solves (one per ADMM iteration).
    pub kkt_solves: usize,
    /// Numeric factorizations performed (direct method only).
    pub factorizations: usize,
    /// Total inner PCG iterations (indirect methods only).
    pub cg_iterations: usize,
    /// Total sparse matrix-vector products evaluated.
    pub spmv_evals: usize,
}

impl BackendStats {
    /// Field-wise sum, used to combine counters across a backend retired by
    /// the recovery ladder and its replacement.
    pub fn merged(self, other: BackendStats) -> BackendStats {
        BackendStats {
            kkt_solves: self.kkt_solves + other.kkt_solves,
            factorizations: self.factorizations + other.factorizations,
            cg_iterations: self.cg_iterations + other.cg_iterations,
            spmv_evals: self.spmv_evals + other.spmv_evals,
        }
    }
}

/// A solver for the ADMM KKT system of Eq. (2).
///
/// Implementations receive the **scaled** problem data at construction and
/// the current scaled iterates at every call.
pub trait KktBackend {
    /// Short identifier used in reports (e.g. `"ldlt"`, `"cpu-pcg"`).
    fn name(&self) -> &str;

    /// Informs the backend that the ρ vector changed. Direct methods must
    /// refactorize; indirect methods just swap the diagonal.
    ///
    /// # Errors
    ///
    /// Returns an error if the refactorization fails.
    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError>;

    /// Sets the inner-solver relative tolerance (no-op for direct methods).
    fn set_cg_tolerance(&mut self, _eps: f64) {}

    /// Solves Eq. (2) for the current iterates, writing `x̃^{k+1}` and
    /// `z̃^{k+1}`.
    ///
    /// # Errors
    ///
    /// Returns an error on numerical failure.
    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError>;

    /// Replaces the matrix *values* (same structure) after a
    /// [`crate::QpProblem::update_matrices`]-style parametric update.
    ///
    /// # Errors
    ///
    /// Returns an error if the backend cannot apply the update (structure
    /// changed, refactorization failed) — the caller should then rebuild
    /// the backend from scratch.
    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError>;

    /// Cumulative work counters.
    fn stats(&self) -> BackendStats;
}

/// Computes the fill-reducing ordering [`DirectLdltBackend`] would use for
/// the KKT pattern of `(P, A)` under `ordering`, without factorizing.
/// [`KktOrdering::Natural`] gives the identity.
///
/// The result depends only on the sparsity structure — the KKT values are
/// assembled with placeholder σ/ρ — so it can be computed once per pattern,
/// cached, and replayed through [`DirectLdltBackend::with_permutation`] for
/// every value instance of the structure (this is the symbolic half of the
/// factorization that `rsqp-core`'s customization cache amortizes).
///
/// # Errors
///
/// Returns [`SolverError::Linsys`] if the KKT assembly or the ordering
/// computation fails (inconsistent shapes).
pub fn kkt_ordering(
    p: &CsrMatrix,
    a: &CsrMatrix,
    ordering: KktOrdering,
) -> Result<Vec<usize>, SolverError> {
    let rho = vec![1.0; a.nrows()];
    let kkt = KktMatrix::assemble(p, a, 1.0, &rho)?;
    order(&kkt, ordering)
}

/// The permutation (new → old) of `kkt` under `ordering`.
fn order(kkt: &KktMatrix, ordering: KktOrdering) -> Result<Vec<usize>, SolverError> {
    Ok(match ordering {
        KktOrdering::Natural => (0..kkt.matrix().ncols()).collect(),
        KktOrdering::Rcm => rcm_ordering(kkt.matrix())?,
        KktOrdering::MinDegree => min_degree_ordering(kkt.matrix())?,
    })
}

/// Direct LDLᵀ backend (OSQP's CPU default).
#[derive(Debug)]
pub struct DirectLdltBackend {
    n: usize,
    m: usize,
    sigma: f64,
    kkt: KktMatrix,
    factor: Ldlt,
    /// The factored matrix is always the permuted one; under
    /// [`KktOrdering::Natural`] the permutation is the identity.
    permutation: SymmetricPermutation,
    rho_inv: Vec<f64>,
    rhs: Vec<f64>,
    scratch: Vec<f64>,
    stats: BackendStats,
}

impl DirectLdltBackend {
    /// Assembles and factorizes the KKT matrix with the default
    /// (minimum-degree) fill-reducing ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] if the assembly or factorization
    /// fails (e.g. `P` not PSD enough for quasi-definiteness).
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Result<Self, SolverError> {
        Self::with_ordering(p, a, sigma, rho, KktOrdering::MinDegree)
    }

    /// Assembles and factorizes the KKT matrix under a chosen ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] on assembly/factorization failure.
    pub fn with_ordering(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        ordering: KktOrdering,
    ) -> Result<Self, SolverError> {
        let kkt = KktMatrix::assemble(p, a, sigma, rho)?;
        let perm = order(&kkt, ordering)?;
        Self::from_parts(p, a, sigma, rho, kkt, perm)
    }

    /// Assembles and factorizes under a caller-provided fill-reducing
    /// permutation, skipping the symbolic ordering search. The ordering of
    /// the KKT pattern depends only on the *structure* of `P` and `A`, so a
    /// permutation computed once (see [`kkt_ordering`]) transfers to every
    /// problem with the same sparsity pattern — including the re-equilibrated
    /// matrices a parametric session produces.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] if `perm` is not a permutation of the
    /// KKT dimension `n + m` or the factorization fails.
    pub fn with_permutation(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        perm: Vec<usize>,
    ) -> Result<Self, SolverError> {
        let kkt = KktMatrix::assemble(p, a, sigma, rho)?;
        Self::from_parts(p, a, sigma, rho, kkt, perm)
    }

    fn from_parts(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        kkt: KktMatrix,
        perm: Vec<usize>,
    ) -> Result<Self, SolverError> {
        let permutation = SymmetricPermutation::new(kkt.matrix(), perm)?;
        let factor = Ldlt::factor(permutation.matrix())?;
        let dim = p.nrows() + a.nrows();
        Ok(DirectLdltBackend {
            n: p.nrows(),
            m: a.nrows(),
            sigma,
            kkt,
            factor,
            permutation,
            rho_inv: rho.iter().map(|&r| 1.0 / r).collect(),
            rhs: vec![0.0; dim],
            scratch: vec![0.0; dim],
            stats: BackendStats { factorizations: 1, ..Default::default() },
        })
    }

    /// Number of stored entries in the `L` factor — a proxy for the
    /// fill-in / memory cost of the direct method.
    pub fn l_nnz(&self) -> usize {
        self.factor.l_nnz()
    }

    /// Refactors after `self.kkt` took new values (same structure).
    fn refactor(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.permutation.refresh_values(self.kkt.matrix())?;
        self.factor.refactor(self.permutation.matrix())?;
        self.rho_inv = rho.iter().map(|&r| 1.0 / r).collect();
        self.stats.factorizations += 1;
        Ok(())
    }
}

impl KktBackend for DirectLdltBackend {
    fn name(&self) -> &str {
        "ldlt"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.kkt.update_rho(rho)?;
        self.refactor(rho)
    }

    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
        // rhs = [σx − q; z − ρ⁻¹y]
        for j in 0..self.n {
            self.rhs[j] = self.sigma * x[j] - q[j];
        }
        for i in 0..self.m {
            self.rhs[self.n + i] = z[i] - self.rho_inv[i] * y[i];
        }
        self.permutation.permute_into(&self.rhs, &mut self.scratch);
        self.factor.solve_in_place(&mut self.scratch)?;
        self.permutation.unpermute_into(&self.scratch, &mut self.rhs);
        xtilde.copy_from_slice(&self.rhs[..self.n]);
        // z̃ = z + ρ⁻¹(ν − y)
        for i in 0..self.m {
            let nu = self.rhs[self.n + i];
            ztilde[i] = z[i] + self.rho_inv[i] * (nu - y[i]);
        }
        self.stats.kkt_solves += 1;
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        // Reassemble (same structure by contract) and refactor.
        self.kkt = KktMatrix::assemble(p, a, self.sigma, rho)?;
        self.refactor(rho)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

/// Matrix-free PCG backend on the reduced KKT system (Eq. 3).
///
/// The backend owns its [`ReducedKktOp`] (with the cached gather transpose
/// `Aᵀ`), a [`PcgWorkspace`], and the right-hand-side buffers for the whole
/// solver lifetime, so steady-state ADMM iterations perform **zero heap
/// allocations**. All SpMVs and the PCG reductions dispatch on the backend's
/// thread pool; results are bit-identical for any pool size.
#[derive(Debug)]
pub struct CpuPcgBackend {
    op: ReducedKktOp,
    pool: Arc<ThreadPool>,
    sigma: f64,
    eps: f64,
    max_iter: usize,
    tmp_m: Vec<f64>,
    rhs: Vec<f64>,
    ws: PcgWorkspace,
    stats: BackendStats,
}

impl CpuPcgBackend {
    /// Creates a strictly serial backend, cloning the (scaled) problem
    /// matrices — the indirect method stores `P`, `A`, and `Aᵀ` separately,
    /// exactly as the paper's accelerator does (§2.2).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes and ρ length are inconsistent (callers
    /// construct it from an already-validated [`crate::QpProblem`]).
    pub fn new(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        eps: f64,
        max_iter: usize,
    ) -> Self {
        Self::with_threads(p, a, sigma, rho, eps, max_iter, 1)
    }

    /// Like [`CpuPcgBackend::new`], but dispatching all kernels on a pool of
    /// `threads` worker threads (`1` = serial, no pool spawned).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes and ρ length are inconsistent.
    pub fn with_threads(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        eps: f64,
        max_iter: usize,
        threads: usize,
    ) -> Self {
        let pool = Arc::new(ThreadPool::new(threads));
        let op = ReducedKktOp::with_pool(
            Arc::new(p.clone()),
            Arc::new(a.clone()),
            sigma,
            rho,
            Arc::clone(&pool),
        )
        .expect("consistent problem shapes");
        CpuPcgBackend {
            op,
            pool,
            sigma,
            eps,
            max_iter,
            tmp_m: vec![0.0; a.nrows()],
            rhs: vec![0.0; p.nrows()],
            ws: PcgWorkspace::new(p.nrows()),
            stats: BackendStats::default(),
        }
    }

    /// Current inner tolerance.
    pub fn cg_tolerance(&self) -> f64 {
        self.eps
    }

    /// Worker threads the backend's kernels dispatch on.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl KktBackend for CpuPcgBackend {
    fn name(&self) -> &str {
        "cpu-pcg"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        if rho.len() != self.op.rho().len() {
            return Err(SolverError::Backend("rho length changed".into()));
        }
        self.op.update_rho(rho).map_err(SolverError::Linsys)
    }

    fn set_cg_tolerance(&mut self, eps: f64) {
        self.eps = eps;
    }

    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
        let count0 = self.op.spmv_count();
        // rhs = σx − q + Aᵀ(ρ∘z − y)
        let rho = self.op.rho();
        for i in 0..self.tmp_m.len() {
            self.tmp_m[i] = rho[i] * z[i] - y[i];
        }
        for j in 0..self.rhs.len() {
            self.rhs[j] = self.sigma * x[j] - q[j];
        }
        self.op.at_spmv_acc(1.0, &self.tmp_m, &mut self.rhs)?;

        let settings = PcgSettings { eps: self.eps, eps_abs: 1e-15, max_iter: self.max_iter };
        xtilde.copy_from_slice(x);
        let summary =
            pcg_with(&mut self.op, &self.rhs, xtilde, &settings, &mut self.ws, Some(&self.pool));
        match summary {
            Ok(s) => {
                self.stats.cg_iterations += s.iterations;
                // z̃ = A x̃
                self.op.a_spmv(xtilde, ztilde)?;
                self.stats.spmv_evals += self.op.spmv_count() - count0;
                self.stats.kkt_solves += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.spmv_evals += self.op.spmv_count() - count0;
                Err(e.into())
            }
        }
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.op.update_values(p, a, rho).map_err(SolverError::Linsys)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (CsrMatrix, CsrMatrix, Vec<f64>) {
        let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0]]);
        (p, a, vec![0.5, 0.25])
    }

    #[test]
    fn direct_and_pcg_backends_agree() {
        let (p, a, rho) = data();
        let sigma = 1e-6;
        let mut direct = DirectLdltBackend::new(&p, &a, sigma, &rho).unwrap();
        let mut iterative = CpuPcgBackend::new(&p, &a, sigma, &rho, 1e-12, 1000);
        let x = vec![0.1, -0.2];
        let z = vec![0.3, 0.4];
        let y = vec![-0.1, 0.2];
        let q = vec![1.0, -1.0];
        let (mut xt1, mut zt1) = (vec![0.0; 2], vec![0.0; 2]);
        let (mut xt2, mut zt2) = (vec![0.0; 2], vec![0.0; 2]);
        direct.solve_kkt(&x, &z, &y, &q, &mut xt1, &mut zt1).unwrap();
        iterative.solve_kkt(&x, &z, &y, &q, &mut xt2, &mut zt2).unwrap();
        for i in 0..2 {
            assert!((xt1[i] - xt2[i]).abs() < 1e-7, "x {} vs {}", xt1[i], xt2[i]);
            assert!((zt1[i] - zt2[i]).abs() < 1e-6, "z {} vs {}", zt1[i], zt2[i]);
        }
    }

    #[test]
    fn cached_permutation_matches_fresh_ordering() {
        let (p, a, rho) = data();
        let sigma = 1e-6;
        let perm = kkt_ordering(&p, &a, KktOrdering::MinDegree).unwrap();
        let mut fresh =
            DirectLdltBackend::with_ordering(&p, &a, sigma, &rho, KktOrdering::MinDegree).unwrap();
        let mut cached = DirectLdltBackend::with_permutation(&p, &a, sigma, &rho, perm).unwrap();
        let x = vec![0.1, -0.2];
        let z = vec![0.3, 0.4];
        let y = vec![-0.1, 0.2];
        let q = vec![1.0, -1.0];
        let (mut xt1, mut zt1) = (vec![0.0; 2], vec![0.0; 2]);
        let (mut xt2, mut zt2) = (vec![0.0; 2], vec![0.0; 2]);
        fresh.solve_kkt(&x, &z, &y, &q, &mut xt1, &mut zt1).unwrap();
        cached.solve_kkt(&x, &z, &y, &q, &mut xt2, &mut zt2).unwrap();
        assert_eq!(xt1, xt2, "replayed ordering must reproduce the fresh factorization");
        assert_eq!(zt1, zt2);
    }

    #[test]
    fn with_permutation_rejects_invalid_perm() {
        let (p, a, rho) = data();
        assert!(DirectLdltBackend::with_permutation(&p, &a, 1e-6, &rho, vec![0, 0, 1, 2]).is_err());
        assert!(DirectLdltBackend::with_permutation(&p, &a, 1e-6, &rho, vec![0, 1]).is_err());
    }

    #[test]
    fn natural_ordering_is_the_identity() {
        let (p, a, _) = data();
        assert_eq!(kkt_ordering(&p, &a, KktOrdering::Natural).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn direct_backend_counts_factorizations() {
        let (p, a, rho) = data();
        let mut b = DirectLdltBackend::new(&p, &a, 1e-6, &rho).unwrap();
        assert_eq!(b.stats().factorizations, 1);
        b.update_rho(&[1.0, 1.0]).unwrap();
        assert_eq!(b.stats().factorizations, 2);
        assert!(b.l_nnz() > 0);
    }

    #[test]
    fn pcg_backend_tracks_cg_iterations() {
        let (p, a, rho) = data();
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-10, 1000);
        let (mut xt, mut zt) = (vec![0.0; 2], vec![0.0; 2]);
        b.solve_kkt(&[0.0; 2], &[0.0; 2], &[0.0; 2], &[1.0, 1.0], &mut xt, &mut zt).unwrap();
        assert!(b.stats().cg_iterations > 0);
        assert!(b.stats().spmv_evals > 0);
        assert_eq!(b.stats().kkt_solves, 1);
    }

    #[test]
    fn pcg_update_rho_validates_length() {
        let (p, a, rho) = data();
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-8, 100);
        assert!(b.update_rho(&[1.0]).is_err());
        assert!(b.update_rho(&[1.0, 1.0]).is_ok());
    }

    #[test]
    fn backend_names_are_distinct() {
        let (p, a, rho) = data();
        let d = DirectLdltBackend::new(&p, &a, 1e-6, &rho).unwrap();
        let c = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-8, 100);
        assert_ne!(d.name(), c.name());
    }

    #[test]
    fn set_cg_tolerance_applies_to_pcg() {
        let (p, a, rho) = data();
        let mut c = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-8, 100);
        c.set_cg_tolerance(1e-3);
        assert_eq!(c.cg_tolerance(), 1e-3);
    }
}
