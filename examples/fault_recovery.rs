//! Fault-tolerant solving: input validation, fault injection on the
//! cycle-level machine, and the numerical guard's recovery ladder.
//!
//! Three scenarios:
//! 1. malformed problem data is rejected at construction with typed errors,
//! 2. a clean solve on the simulated FPGA backend runs without guard activity,
//! 3. the same solve with every MAC output bit-flipped is detected and
//!    recovered by degrading from the on-device PCG to the direct LDLᵀ
//!    backend (or diagnosed as a numerical error — never a bogus `Solved`).
//!
//! Run with: `cargo run --release --example fault_recovery`

use rsqp::arch::{ArchConfig, FaultConfig};
use rsqp::core::FpgaSolver;
use rsqp::problems::{generate, Domain};
use rsqp::solver::{QpProblem, Settings};
use rsqp::sparse::CsrMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Validation at the boundary -----------------------------------
    println!("== 1. problem validation ==");
    let p = CsrMatrix::identity(2);
    let a = CsrMatrix::identity(2);
    let bad_q =
        QpProblem::new(p.clone(), vec![1.0, f64::NAN], a.clone(), vec![0.0; 2], vec![1.0; 2]);
    println!("NaN in q     -> {}", bad_q.unwrap_err());
    let bad_bounds = QpProblem::new(p, vec![0.0; 2], a, vec![2.0, 0.0], vec![1.0; 2]);
    println!("l[0] > u[0]  -> {}", bad_bounds.unwrap_err());

    // --- 2. Clean solve on the simulated FPGA ----------------------------
    let qp = generate(Domain::Control, 3, 11);
    println!("\n== 2. clean solve (control benchmark, {} vars) ==", qp.num_vars());
    let (clean, faults, backend) = solve_on_fpga(&qp, FaultConfig::new(7))?;
    println!(
        "status {:?} after {} iters, machine faults {}, final backend {}",
        clean.status, clean.iterations, faults, backend
    );
    println!("guard intervened: {}", clean.guard.intervened());

    // --- 3. Heavy fault injection ----------------------------------------
    println!("\n== 3. every MAC output corrupted (seed 2024) ==");
    let fault = FaultConfig::new(2024).with_mac_output_flips(1.0);
    let (hit, faults, backend) = solve_on_fpga(&qp, fault)?;
    println!("status {:?} after {} iters, machine faults {}", hit.status, hit.iterations, faults);
    println!(
        "guard report: {} faults detected, {} iterate resets, {} CG tightenings, {} backend fallbacks",
        hit.guard.faults_detected,
        hit.guard.iterate_resets,
        hit.guard.cg_tightenings,
        hit.guard.backend_fallbacks
    );
    println!("final backend: {backend}");
    assert!(hit.x.iter().all(|v| v.is_finite()), "solution must be finite whatever the outcome");
    Ok(())
}

/// Solves `qp` through the simulated-FPGA PCG backend with `fault` armed,
/// returning the result, the machine's fault count, and the name of the
/// backend that produced the final iterate.
fn solve_on_fpga(
    qp: &QpProblem,
    fault: FaultConfig,
) -> Result<(rsqp::solver::SolveResult, u64, String), Box<dyn std::error::Error>> {
    let config = ArchConfig::baseline(16).with_fault_injection(Some(fault));
    let settings = Settings { eps_abs: 1e-4, eps_rel: 1e-4, ..Default::default() };
    let mut fpga = FpgaSolver::new(qp, settings, &config)?;
    let result = fpga.solver.solve()?;
    Ok((result, fpga.stats().faults, fpga.solver.backend_name().to_string()))
}
