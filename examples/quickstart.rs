//! Quickstart: solve one QP on all three backends (direct LDLᵀ, CPU PCG,
//! simulated FPGA) and print what the paper's Figure 1 pipeline produces
//! for it.
//!
//! Run with `cargo run --release --example quickstart`.

use rsqp::core::perf::fpga::FpgaPerfModel;
use rsqp::core::{customize, FpgaSolver};
use rsqp::solver::{LinSysKind, QpProblem, Settings, Solver};
use rsqp::sparse::CsrMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small portfolio-style QP:
    //   minimize (1/2) xᵀPx − μᵀx   s.t.  1ᵀx = 1, 0 ≤ x ≤ 0.6
    let p = CsrMatrix::from_dense(&[
        vec![0.20, 0.02, 0.00],
        vec![0.02, 0.10, 0.03],
        vec![0.00, 0.03, 0.15],
    ]);
    let q = vec![-0.10, -0.08, -0.12];
    let a = CsrMatrix::from_dense(&[
        vec![1.0, 1.0, 1.0],
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
        vec![0.0, 0.0, 1.0],
    ]);
    let l = vec![1.0, 0.0, 0.0, 0.0];
    let u = vec![1.0, 0.6, 0.6, 0.6];
    let qp = QpProblem::new(p, q, a, l, u)?.with_name("quickstart");

    println!(
        "problem: n = {}, m = {}, nnz(P)+nnz(A) = {}",
        qp.num_vars(),
        qp.num_constraints(),
        qp.total_nnz()
    );

    // 1. Direct LDLT (OSQP CPU default).
    let mut direct =
        Solver::new(&qp, Settings { linsys: LinSysKind::DirectLdlt, ..Default::default() })?;
    let rd = direct.solve()?;
    println!(
        "\n[ldlt]     {} in {} iters, objective {:.6}",
        rd.status, rd.iterations, rd.objective
    );
    println!(
        "           x = {:?}",
        rd.x.iter().map(|v| (v * 1e4).round() / 1e4).collect::<Vec<_>>()
    );

    // 2. CPU PCG (the algorithm cuOSQP/RSQP run).
    let mut pcg = Solver::new(&qp, Settings { linsys: LinSysKind::CpuPcg, ..Default::default() })?;
    let rp = pcg.solve()?;
    println!(
        "[cpu-pcg]  {} in {} iters, {} total CG iterations",
        rp.status, rp.iterations, rp.backend.cg_iterations
    );

    // 3. Simulated FPGA with a problem-customized architecture.
    let custom = customize(&qp, 16, 4);
    println!(
        "\n[customize] structure set {}  (baseline η = {:.3} → customized η = {:.3})",
        custom.notation(),
        custom.eta_baseline,
        custom.eta_custom
    );
    let mut fpga = FpgaSolver::new(&qp, Settings::default(), &custom.config)?;
    let rf = fpga.solver.solve()?;
    let stats = fpga.stats();
    let t = fpga.device_time(stats, rf.iterations);
    println!(
        "[fpga-sim] {} in {} iters, {} device cycles -> {:.1} µs at {:.0} MHz",
        rf.status,
        rf.iterations,
        stats.cycles,
        t.as_secs_f64() * 1e6,
        FpgaPerfModel::from_config(&custom.config).fmax_hz / 1e6
    );
    println!("           objective {:.6} (vs ldlt {:.6})", rf.objective, rd.objective);
    Ok(())
}
