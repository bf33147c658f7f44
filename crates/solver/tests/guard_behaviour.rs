//! End-to-end tests of the numerical guard and recovery ladder, using a
//! sabotage backend that corrupts KKT solves on demand.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rsqp_solver::{
    BackendStats, CgTolerance, CpuPcgBackend, DirectLdltBackend, GuardSettings, KktBackend,
    QpProblem, Settings, Solver, SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

fn small_qp() -> QpProblem {
    let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
    let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
    QpProblem::new(p, vec![1.0, 1.0], a, vec![1.0, 0.0, 0.0], vec![1.0, 0.7, 0.7]).unwrap()
}

fn guarded_settings() -> Settings {
    Settings {
        check_termination: 5,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        ..Settings::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sabotage {
    PoisonNan,
    PoisonInf,
    Error,
}

/// Wraps a real backend and corrupts `solve_kkt` output from call
/// `fire_at` on (one-shot unless `persistent`).
struct SabotageBackend {
    inner: Box<dyn KktBackend>,
    name: String,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    calls: usize,
}

impl SabotageBackend {
    fn should_fire(&mut self) -> bool {
        self.calls += 1;
        self.calls == self.fire_at || (self.persistent && self.calls >= self.fire_at)
    }
}

impl KktBackend for SabotageBackend {
    fn name(&self) -> &str {
        &self.name
    }
    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.inner.update_rho(rho)
    }
    fn set_cg_tolerance(&mut self, eps: f64) {
        self.inner.set_cg_tolerance(eps);
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
        let fire = self.should_fire();
        if fire && self.mode == Sabotage::Error {
            return Err(SolverError::Backend("injected device fault".into()));
        }
        self.inner.solve_kkt(x, z, y, q, xtilde, ztilde)?;
        if fire {
            xtilde[0] = match self.mode {
                Sabotage::PoisonNan => f64::NAN,
                Sabotage::PoisonInf => f64::INFINITY,
                Sabotage::Error => unreachable!(),
            };
        }
        Ok(())
    }
    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.inner.update_matrices(p, a, rho)
    }
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

fn sabotaged_solver(
    settings: Settings,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    direct: bool,
) -> Solver {
    let problem = small_qp();
    Solver::with_backend(&problem, settings, &mut |p, a, sigma, rho, s| {
        let (inner, name): (Box<dyn KktBackend>, &str) = if direct {
            (Box::new(DirectLdltBackend::with_ordering(p, a, sigma, rho, s.ordering)?), "ldlt")
        } else {
            (Box::new(CpuPcgBackend::new(p, a, sigma, rho, 1e-10, s.cg_max_iter)), "cpu-pcg")
        };
        Ok(Box::new(SabotageBackend {
            inner,
            name: name.to_string(),
            mode,
            fire_at,
            persistent,
            calls: 0,
        }))
    })
    .unwrap()
}

#[test]
fn one_shot_nan_is_absorbed_by_iterate_reset() {
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::PoisonNan, 3, false, false);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(r.x.iter().all(|v| v.is_finite()));
    assert!(r.guard.faults_detected >= 1, "guard never noticed the NaN");
    assert!(r.guard.iterate_resets >= 1);
    assert!((r.x[0] + r.x[1] - 1.0).abs() < 1e-2);
}

#[test]
fn persistent_backend_errors_degrade_to_direct_ldlt() {
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::Error, 2, true, false);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert_eq!(r.guard.backend_fallbacks, 1, "expected exactly one fallback: {:?}", r.guard);
    assert_eq!(s.backend_name(), "ldlt");
    assert!((r.x[0] + r.x[1] - 1.0).abs() < 1e-2);
}

#[test]
fn persistent_corruption_on_direct_backend_reports_numerical_error() {
    // The backend claims to be the direct solver, so the fallback rung is
    // unavailable and the ladder must exhaust into NumericalError.
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::PoisonNan, 1, true, true);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::NumericalError);
    assert!(r.guard.faults_detected >= 2);
}

#[test]
fn disabled_guard_propagates_backend_errors() {
    let settings = Settings {
        guard: GuardSettings { enabled: false, ..GuardSettings::default() },
        ..guarded_settings()
    };
    let mut s = sabotaged_solver(settings, Sabotage::Error, 2, true, false);
    let err = s.solve().unwrap_err();
    assert!(matches!(err, SolverError::Backend(_)), "{err:?}");
}

#[test]
fn disabled_guard_still_never_reports_solved_with_non_finite_x() {
    // Poison on the exact call whose result feeds the final termination
    // check; without the guard the residual math sees NaN (never converges),
    // and the final screen must keep Solved off the table.
    let settings = Settings {
        max_iter: 40,
        guard: GuardSettings { enabled: false, ..GuardSettings::default() },
        ..guarded_settings()
    };
    let mut s = sabotaged_solver(settings, Sabotage::PoisonNan, 1, true, false);
    match s.solve() {
        // Propagating a typed error is fine; claiming Solved is not.
        Ok(r) => assert_ne!(r.status, Status::Solved),
        Err(e) => assert!(matches!(e, SolverError::Pcg(_) | SolverError::Numerical(_)), "{e:?}"),
    }
}

#[test]
fn clean_solves_report_no_interventions() {
    let problem = small_qp();
    let mut s = Solver::new(&problem, guarded_settings()).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(!r.guard.intervened(), "spurious guard activity: {:?}", r.guard);
}

/// Logs the inner tolerance every KKT solve runs at, and fails the first
/// one so that the guard tightens the tolerance.
struct ToleranceSpy {
    inner: CpuPcgBackend,
    eps: f64,
    log: Rc<RefCell<Vec<f64>>>,
}

impl KktBackend for ToleranceSpy {
    fn name(&self) -> &str {
        "cpu-pcg"
    }
    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.inner.update_rho(rho)
    }
    fn set_cg_tolerance(&mut self, eps: f64) {
        self.eps = eps;
        self.inner.set_cg_tolerance(eps);
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
        let mut log = self.log.borrow_mut();
        log.push(self.eps);
        if log.len() == 1 {
            return Err(SolverError::Backend("injected device fault".into()));
        }
        self.inner.solve_kkt(x, z, y, q, xtilde, ztilde)
    }
    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.inner.update_matrices(p, a, rho)
    }
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

#[test]
fn guard_tightening_does_not_leak_into_the_next_solve() {
    // Solve 1 tightens the fixed tolerance after its first KKT solve fails;
    // solve 2 must start again from the fixed value.
    let fixed = 1e-6;
    let log = Rc::new(RefCell::new(Vec::new()));
    let settings = Settings { cg_tolerance: CgTolerance::Fixed(fixed), ..guarded_settings() };
    let mut s = Solver::with_backend(&small_qp(), settings, &mut |p, a, sigma, rho, st| {
        let eps = st.cg_tolerance.initial();
        let inner = CpuPcgBackend::new(p, a, sigma, rho, eps, st.cg_max_iter);
        Ok(Box::new(ToleranceSpy { inner, eps, log: Rc::clone(&log) }))
    })
    .unwrap();
    let first = s.solve().unwrap();
    assert_eq!(first.status, Status::Solved);
    assert_eq!(first.guard.cg_tightenings, 1);
    let calls = log.borrow().len();
    assert_eq!(log.borrow()[0], fixed);
    assert!(log.borrow()[calls - 1] < fixed, "the guard did not tighten: {:?}", log.borrow());

    let second = s.solve().unwrap();
    assert_eq!(second.status, Status::Solved);
    assert_eq!(log.borrow()[calls], fixed, "solve 2 started from solve 1's tightened tolerance");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Whatever corruption is injected, wherever: the solver must return a
    // diagnosable status without panicking, and a `Solved` status implies
    // an entirely finite solution.
    #[test]
    fn corrupted_solves_always_terminate_diagnosably(
        fire_at in 1usize..40,
        mode in prop::sample::select(vec![
            Sabotage::PoisonNan,
            Sabotage::PoisonInf,
            Sabotage::Error,
        ]),
        persistent in any::<bool>(),
        direct in any::<bool>(),
    ) {
        let mut s = sabotaged_solver(guarded_settings(), mode, fire_at, persistent, direct);
        let r = s.solve().unwrap();
        prop_assert!(
            matches!(
                r.status,
                Status::Solved
                    | Status::MaxIterationsReached
                    | Status::NumericalError
            ),
            "unexpected status {:?}",
            r.status
        );
        if r.status == Status::Solved {
            prop_assert!(r.x.iter().all(|v| v.is_finite()), "Solved with non-finite x");
            prop_assert!(r.y.iter().all(|v| v.is_finite()), "Solved with non-finite y");
            prop_assert!(r.z.iter().all(|v| v.is_finite()), "Solved with non-finite z");
        }
    }
}
