//! Cross-backend differential test suite.
//!
//! Every benchmark family is solved at its two smallest suite sizes with
//! four independent KKT paths:
//!
//! 1. sparse LDLᵀ direct factorization,
//! 2. matrix-free CPU PCG, serial,
//! 3. matrix-free CPU PCG on a 4-thread pool,
//! 4. the cycle-level simulated-FPGA machine (`rsqp-arch`).
//!
//! The paths share no linear-algebra code below the solver loop — the
//! direct backend factorizes the full KKT system, the PCG backends iterate
//! on the reduced operator, and the machine executes the PCG kernel
//! instruction by instruction on simulated hardware. Agreement between
//! them is therefore strong evidence that each is computing the right
//! thing: identical termination status, objectives matching to 1e-6, and
//! final residuals within the termination tolerance. The two PCG thread
//! counts must additionally agree **bit for bit** (the PR 3 determinism
//! contract).

use rsqp::arch::ArchConfig;
use rsqp::core::FpgaSolver;
use rsqp::problems::{generate, Domain};
use rsqp::solver::{CgTolerance, LinSysKind, QpProblem, Settings, SolveResult, Solver, Status};

/// Relative objective agreement demanded across backends.
const OBJ_TOL: f64 = 1e-6;
/// Unscaled residual bound every converged solve must meet.
const RES_TOL: f64 = 1e-5;
/// Termination tolerance (tight, so the objectives have converged well
/// past `OBJ_TOL` by the time the solver stops).
const EPS: f64 = 1e-8;

fn settings(kind: LinSysKind, threads: usize) -> Settings {
    Settings {
        linsys: kind,
        threads,
        eps_abs: EPS,
        eps_rel: EPS,
        max_iter: 200_000,
        cg_tolerance: CgTolerance::Fixed(1e-12),
        ..Default::default()
    }
}

fn solve_direct(problem: &QpProblem) -> SolveResult {
    let mut solver = Solver::new(problem, settings(LinSysKind::DirectLdlt, 1)).unwrap();
    solver.solve().unwrap()
}

fn solve_pcg(problem: &QpProblem, threads: usize) -> SolveResult {
    let mut solver = Solver::new(problem, settings(LinSysKind::CpuPcg, threads)).unwrap();
    solver.solve().unwrap()
}

fn solve_machine(problem: &QpProblem) -> SolveResult {
    let mut fpga =
        FpgaSolver::new(problem, settings(LinSysKind::CpuPcg, 1), &ArchConfig::baseline(16))
            .unwrap();
    fpga.solver.solve().unwrap()
}

fn assert_agreement(problem: &QpProblem, results: &[(&str, SolveResult)]) {
    let name = problem.name();
    for (backend, r) in results {
        assert_eq!(
            r.status,
            Status::Solved,
            "{name} via {backend}: expected Solved, got {:?} after {} iterations",
            r.status,
            r.iterations
        );
        assert!(
            r.prim_res <= RES_TOL && r.dual_res <= RES_TOL,
            "{name} via {backend}: residuals ({:.3e}, {:.3e}) exceed {RES_TOL:.0e}",
            r.prim_res,
            r.dual_res
        );
        assert!(r.objective.is_finite(), "{name} via {backend}: non-finite objective");
    }
    let (ref_backend, reference) = &results[0];
    let scale = 1.0 + reference.objective.abs();
    for (backend, r) in &results[1..] {
        assert_eq!(
            r.status, reference.status,
            "{name}: {backend} and {ref_backend} disagree on termination status"
        );
        assert!(
            (r.objective - reference.objective).abs() <= OBJ_TOL * scale,
            "{name}: objective via {backend} ({:.12e}) differs from {ref_backend} \
             ({:.12e}) by more than {OBJ_TOL:.0e} relative",
            r.objective,
            reference.objective
        );
    }
}

fn differential(domain: Domain) {
    let sizes = domain.size_schedule(20);
    for (index, &size) in sizes[..2].iter().enumerate() {
        let problem = generate(domain, size, 1000 + index as u64);
        let direct = solve_direct(&problem);
        let pcg_t1 = solve_pcg(&problem, 1);
        let pcg_t4 = solve_pcg(&problem, 4);
        let machine = solve_machine(&problem);

        // The two pool sizes run the same reduction tree: bit-identical.
        assert_eq!(pcg_t1.iterations, pcg_t4.iterations, "{}", problem.name());
        for (i, (a, b)) in pcg_t1.x.iter().zip(&pcg_t4.x).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{}: x[{i}] differs between 1 and 4 threads: {a:?} vs {b:?}",
                problem.name()
            );
        }

        assert_agreement(
            &problem,
            &[
                ("direct-ldlt", direct),
                ("cpu-pcg/t1", pcg_t1),
                ("cpu-pcg/t4", pcg_t4),
                ("machine", machine),
            ],
        );
    }
}

#[test]
fn control_backends_agree() {
    differential(Domain::Control);
}

#[test]
fn portfolio_backends_agree() {
    differential(Domain::Portfolio);
}

#[test]
fn lasso_backends_agree() {
    differential(Domain::Lasso);
}

#[test]
fn huber_backends_agree() {
    differential(Domain::Huber);
}

#[test]
fn svm_backends_agree() {
    differential(Domain::Svm);
}

#[test]
fn eqqp_backends_agree() {
    differential(Domain::Eqqp);
}
