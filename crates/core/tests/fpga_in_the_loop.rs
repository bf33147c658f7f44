//! End-to-end: the OSQP ADMM loop converging with the KKT system solved on
//! the simulated RSQP accelerator, with cycle accounting.

use std::time::Duration;

use rsqp_arch::ArchConfig;
use rsqp_core::{customize, FpgaSolver};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{LinSysKind, QpProblem, Settings, Solver, Status};

fn settings() -> Settings {
    Settings { eps_abs: 1e-4, eps_rel: 1e-4, max_iter: 10_000, ..Default::default() }
}

fn solve_on_fpga(
    problem: &QpProblem,
    config: ArchConfig,
) -> (rsqp_solver::SolveResult, rsqp_arch::RunStats, Duration) {
    let mut fpga = FpgaSolver::new(problem, settings(), &config).expect("setup succeeds");
    let result = fpga.solver.solve().expect("solve succeeds");
    let time = fpga.device_time(fpga.stats(), result.iterations);
    (result, fpga.stats(), time)
}

#[test]
fn fpga_backend_converges_and_matches_cpu() {
    for (domain, size) in [(Domain::Control, 3), (Domain::Svm, 3), (Domain::Portfolio, 1)] {
        let qp = generate(domain, size, 11);
        // Reference CPU solve (direct LDLT).
        let mut cpu =
            Solver::new(&qp, Settings { linsys: LinSysKind::DirectLdlt, ..settings() }).unwrap();
        let cpu_result = cpu.solve().unwrap();
        assert_eq!(cpu_result.status, Status::Solved);

        // Simulated-FPGA solve with a customized architecture.
        let custom = customize(&qp, 16, 4);
        let (fpga_result, stats, _) = solve_on_fpga(&qp, custom.config.clone());
        assert_eq!(fpga_result.status, Status::Solved, "{domain}");
        assert!(
            (fpga_result.objective - cpu_result.objective).abs()
                < 1e-2 * (1.0 + cpu_result.objective.abs()),
            "{domain}: objectives {} vs {}",
            fpga_result.objective,
            cpu_result.objective
        );
        assert!(stats.cycles > 0, "cycles must accumulate");
        assert!(stats.breakdown.spmv > 0);
    }
}

#[test]
fn customized_architecture_needs_fewer_cycles_than_baseline() {
    let qp = generate(Domain::Svm, 3, 5);
    let custom = customize(&qp, 16, 4);

    let (r_base, _, t_base) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    let (r_custom, _, t_custom) = solve_on_fpga(&qp, custom.config.clone());
    assert_eq!(r_base.status, Status::Solved);
    assert_eq!(r_custom.status, Status::Solved);

    // Same algorithm; cycle counts should favor the customized design
    // (Figure 10's customization speedup).
    assert!(t_custom < t_base, "customized {:?} should beat baseline {:?}", t_custom, t_base);
}

#[test]
fn fpga_backend_survives_rho_updates() {
    // An equality-heavy problem triggers rho boosting and adaptive updates.
    let qp = generate(Domain::Eqqp, 16, 3);
    let (result, _, _) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    assert_eq!(result.status, Status::Solved);
}

#[test]
fn backend_reports_cg_iterations() {
    let qp = generate(Domain::Lasso, 4, 2);
    let (result, _, _) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    assert_eq!(result.status, Status::Solved);
    assert!(result.backend.cg_iterations > 0);
    assert_eq!(result.backend.kkt_solves, result.iterations);
}

#[test]
fn matrix_value_update_reuses_the_architecture() {
    // Two numeric instances of the same structure: solve the first, swap in
    // the second instance's values through update_matrices, and re-solve on
    // the *same* simulated accelerator (HBM values refreshed, schedules and
    // CVB layouts untouched).
    let qp1 = generate(Domain::Control, 3, 1);
    let qp2 = generate(Domain::Control, 3, 2);
    let custom = customize(&qp1, 16, 4);
    let mut solver = FpgaSolver::new(&qp1, settings(), &custom.config).unwrap().solver;
    let r1 = solver.solve().unwrap();
    assert_eq!(r1.status, Status::Solved);

    solver.update_matrices(Some(qp2.p().clone()), Some(qp2.a().clone())).unwrap();
    solver.update_q(qp2.q().to_vec()).unwrap();
    solver.update_bounds(qp2.l().to_vec(), qp2.u().to_vec()).unwrap();
    let r2 = solver.solve().unwrap();
    assert_eq!(r2.status, Status::Solved);

    // Reference: a fresh CPU solve of instance 2.
    let mut cpu = Solver::new(&qp2, settings()).unwrap();
    let want = cpu.solve().unwrap();
    assert!(
        (r2.objective - want.objective).abs() < 1e-2 * (1.0 + want.objective.abs()),
        "updated-solve objective {} vs fresh {}",
        r2.objective,
        want.objective
    );
}
