//! Behavioural tests for [`SolveSession`]: the 40-step MPC ledger the
//! customization cache exists for (one miss, then hits forever), equivalence
//! of warm session steps against cold solves, budget/cancellation statuses,
//! recovery from rejected updates, and the attempt ladder a step shares
//! with service jobs (panics and backend errors become typed outcomes).

use std::sync::{Arc, Once};
use std::time::Duration;

use rsqp_problems::control;
use rsqp_runtime::{
    BackendFactory, ChaosPlan, CustomizationCache, JobBudget, JobError, JobSpec, RetryPolicy,
    ServiceConfig, SessionConfig, SolveService, SolveSession, StepUpdate,
};
use rsqp_solver::{CpuPcgBackend, QpProblem, Settings, Solver, SolverError, Status};
use rsqp_sparse::CsrMatrix;

/// Silences the default "thread panicked" spew for *injected* panics, which
/// are expected by design in these tests; everything else still prints.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(|m| m.contains("chaos:")) {
                eprintln!("{info}");
            }
        }));
    });
}

/// A CPU-PCG backend whose every KKT solve panics.
fn panicking_factory() -> BackendFactory {
    Box::new(|p, a, sigma, rho, s| {
        let inner = Box::new(CpuPcgBackend::new(p, a, sigma, rho, 1e-7, s.cg_max_iter));
        Ok(ChaosPlan::new(11).with_panics(1.0).wrap(inner))
    })
}

fn tight() -> Settings {
    Settings { eps_abs: 1e-8, eps_rel: 1e-8, ..Settings::default() }
}

/// The MPC step: seed `k`'s bounds carry a new initial state (first `nx`
/// rows); dynamics and box rows are unchanged.
fn mpc_bounds(size: usize, seed: u64) -> StepUpdate {
    let target = control::generate(size, seed);
    StepUpdate::Bounds { l: target.l().to_vec(), u: target.u().to_vec() }
}

#[test]
fn forty_step_mpc_sequence_customizes_once() {
    let cache = Arc::new(CustomizationCache::new(4));
    let base = control::generate(3, 1);
    let config =
        SessionConfig::default().with_settings(Settings::default()).with_cache(Arc::clone(&cache));
    let mut session = SolveSession::new(base, config);

    let first = session.step(Vec::new()).unwrap();
    assert!(!first.cache_hit, "the first sight of a pattern must miss");
    assert_eq!(first.result.status, Status::Solved);

    for seed in 2..=40u64 {
        let report = session.step(vec![mpc_bounds(3, seed)]).unwrap();
        assert!(report.cache_hit, "step {seed} re-customized a cached pattern");
        assert_eq!(report.result.status, Status::Solved, "step {seed}");
    }

    assert_eq!(session.steps_taken(), 40);
    let snap = session.metrics().snapshot();
    assert_eq!(snap.counter("session_steps"), 40);
    assert_eq!(snap.counter("cache_misses"), 1, "customization must run exactly once");
    assert_eq!(snap.counter("cache_hits"), 39);
    let hist = snap.histograms.get("session_step_us").expect("latency histogram registered");
    assert_eq!(hist.count(), 40);
    assert!(hist.mean() > 0.0);

    // The cache's own ledger agrees with the session metrics.
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 39);
    assert_eq!(cache.len(), 1);
    assert!(session.cached_artifacts().is_some());
}

#[test]
fn cache_is_shared_across_sessions() {
    let cache = Arc::new(CustomizationCache::new(4));
    let mut first = SolveSession::new(
        control::generate(3, 1),
        SessionConfig::default().with_cache(Arc::clone(&cache)),
    );
    assert!(!first.step(Vec::new()).unwrap().cache_hit);

    // A different numeric instance of the same structure: the second
    // session's very first step hits the shared cache.
    let mut second = SolveSession::new(
        control::generate(3, 99),
        SessionConfig::default().with_cache(Arc::clone(&cache)),
    );
    assert!(second.step(Vec::new()).unwrap().cache_hit);

    // A different structure misses independently.
    let mut third = SolveSession::new(
        control::generate(4, 1),
        SessionConfig::default().with_cache(Arc::clone(&cache)),
    );
    assert!(!third.step(Vec::new()).unwrap().cache_hit);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 1);
}

#[test]
fn session_steps_match_cold_solves() {
    let base = control::generate(3, 1);
    let cache = Arc::new(CustomizationCache::new(2));
    let config = SessionConfig::default().with_settings(tight()).with_cache(cache);
    let mut session = SolveSession::new(base.clone(), config);
    session.step(Vec::new()).unwrap();

    let mut reference = base;
    for seed in 2..=6u64 {
        let target = control::generate(3, seed);
        let report = session.step(vec![mpc_bounds(3, seed)]).unwrap();

        reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
        let mut cold = Solver::new(&reference, tight()).unwrap();
        let cold_result = cold.solve().unwrap();

        assert_eq!(report.result.status, cold_result.status, "seed {seed}");
        assert_eq!(report.result.status, Status::Solved);
        let tol = 1e-6 * (1.0 + cold_result.objective.abs());
        assert!(
            (report.result.objective - cold_result.objective).abs() <= tol,
            "seed {seed}: session objective {} vs cold {}",
            report.result.objective,
            cold_result.objective
        );
        assert!(
            report.result.iterations <= cold_result.iterations,
            "seed {seed}: warm session step took {} iterations vs {} cold",
            report.result.iterations,
            cold_result.iterations
        );
    }
}

#[test]
fn all_update_kinds_flow_through_a_session() {
    let base = control::generate(3, 5);
    let target = control::generate(3, 6);
    let n = base.num_vars();
    let mut session =
        SolveSession::new(base.clone(), SessionConfig::default().with_settings(tight()));
    session.step(Vec::new()).unwrap();

    let new_q: Vec<f64> = (0..n).map(|i| 0.05 * ((i as f64) * 0.61).cos()).collect();
    let report = session
        .step(vec![
            StepUpdate::LinearCost(new_q.clone()),
            StepUpdate::Bounds { l: target.l().to_vec(), u: target.u().to_vec() },
            StepUpdate::Matrices { p: Some(target.p().clone()), a: Some(target.a().clone()) },
            StepUpdate::Rho(0.5),
        ])
        .unwrap();
    assert_eq!(report.result.status, Status::Solved);

    // Cold reference with the same batch applied to a fresh problem.
    let mut reference = base;
    reference.update_q(new_q).unwrap();
    reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
    reference.update_matrices(Some(target.p().clone()), Some(target.a().clone())).unwrap();
    let mut cold = Solver::new(&reference, Settings { rho: 0.5, ..tight() }).unwrap();
    let cold_result = cold.solve().unwrap();
    assert_eq!(cold_result.status, Status::Solved);
    let tol = 1e-6 * (1.0 + cold_result.objective.abs());
    assert!((report.result.objective - cold_result.objective).abs() <= tol);
}

#[test]
fn pre_first_step_updates_mutate_the_problem() {
    let base = control::generate(3, 1);
    let target = control::generate(3, 2);
    let mut session =
        SolveSession::new(base.clone(), SessionConfig::default().with_settings(tight()));
    // Updates queued before the solver exists are applied to the problem
    // itself; the first step then solves the updated instance.
    let report = session.step(vec![mpc_bounds(3, 2)]).unwrap();

    let mut reference = base;
    reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
    let mut cold = Solver::new(&reference, tight()).unwrap();
    let cold_result = cold.solve().unwrap();
    assert_eq!(report.result.status, Status::Solved);
    let tol = 1e-6 * (1.0 + cold_result.objective.abs());
    assert!((report.result.objective - cold_result.objective).abs() <= tol);
}

#[test]
fn budget_iter_cap_yields_definite_status() {
    let config = SessionConfig::default()
        .with_settings(tight())
        .with_budget(JobBudget::unbounded().with_iter_cap(3));
    let mut session = SolveSession::new(control::generate(3, 1), config);
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::MaxIterationsReached);
    assert!(report.result.iterations <= 3);
    // The capped step still counts: budgets end steps, they don't void them.
    assert_eq!(session.steps_taken(), 1);
}

#[test]
fn expired_deadline_yields_time_limit_status() {
    let config =
        SessionConfig::default().with_budget(JobBudget::unbounded().with_timeout(Duration::ZERO));
    let mut session = SolveSession::new(control::generate(3, 1), config);
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::TimeLimitReached);
}

#[test]
fn cancellation_yields_cancelled_status() {
    let mut session = SolveSession::new(control::generate(3, 1), SessionConfig::default());
    session.cancel_token().cancel();
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::Cancelled);
}

#[test]
fn structure_change_is_rejected_and_session_survives() {
    let base = control::generate(3, 1);
    let (m, n) = (base.num_constraints(), base.num_vars());
    let mut session = SolveSession::new(base, SessionConfig::default().with_settings(tight()));
    session.step(Vec::new()).unwrap();

    // Same shape, different sparsity pattern: a dense first column.
    let mut dense = vec![vec![0.0; n]; m];
    for row in dense.iter_mut() {
        row[0] = 1.0;
    }
    let bad = CsrMatrix::from_dense(&dense);
    let err = session.step(vec![StepUpdate::Matrices { p: None, a: Some(bad) }]);
    assert!(err.is_err(), "a structure change must be rejected");
    assert_eq!(session.steps_taken(), 1, "a rejected update must not consume a step");

    // The session remains usable afterwards.
    let report = session.step(vec![mpc_bounds(3, 2)]).unwrap();
    assert_eq!(report.result.status, Status::Solved);
    assert_eq!(session.steps_taken(), 2);
}

#[test]
fn service_sessions_share_the_service_registry() {
    let service = SolveService::new(ServiceConfig { workers: 1, ..Default::default() });
    let cache = Arc::new(CustomizationCache::new(2));
    let mut session =
        service.open_session(control::generate(3, 1), SessionConfig::default().with_cache(cache));
    session.step(Vec::new()).unwrap();
    session.step(vec![mpc_bounds(3, 2)]).unwrap();
    drop(session);

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("session_steps"), 2);
    assert_eq!(snap.counter("cache_misses"), 1);
    assert_eq!(snap.counter("cache_hits"), 1);
}

#[test]
fn cold_step_sessions_disable_warm_starting() {
    // A cold-stepping session is the baseline the bench compares against:
    // it must take as many iterations on step 2 as a fresh solver would.
    let base = control::generate(3, 1);
    let mut cold_session = SolveSession::new(
        base.clone(),
        SessionConfig::default().with_settings(tight()).with_cold_steps(),
    );
    cold_session.step(Vec::new()).unwrap();
    let cold_step = cold_session.step(vec![mpc_bounds(3, 2)]).unwrap();

    let mut reference: QpProblem = base;
    let target = control::generate(3, 2);
    reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
    let mut fresh = Solver::new(&reference, tight()).unwrap();
    let fresh_result = fresh.solve().unwrap();
    assert_eq!(cold_step.result.iterations, fresh_result.iterations);
}

#[test]
fn panicking_step_returns_a_typed_error() {
    quiet_injected_panics();
    let config = SessionConfig::default().with_retry(RetryPolicy::no_retries());
    let mut session = SolveSession::new(control::generate(3, 1), config)
        .with_backend_factory(panicking_factory());
    // The failed step clears the solver; the second step rebuilds it with
    // the same factory and must return again rather than unwind.
    for panics in 1..=2u64 {
        match session.step(Vec::new()) {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("chaos"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(session.steps_taken(), 0, "a failed step is not a step");
        let snap = session.metrics().snapshot();
        assert_eq!(snap.counter("panics"), panics);
        assert_eq!(snap.counter("retries"), 0);
    }
}

#[test]
fn panicking_step_recovers_on_direct_ldlt() {
    quiet_injected_panics();
    let mut session = SolveSession::new(control::generate(3, 1), SessionConfig::default())
        .with_backend_factory(panicking_factory());
    let report = session.step(Vec::new()).expect("the direct-LDLT rung solves");
    assert_eq!(report.result.status, Status::Solved);
    assert_eq!(report.attempts.len(), 2, "panic, then direct fallback");
    assert!(report.attempts[0].error.as_deref().is_some_and(|e| e.starts_with("panic:")));
    let snap = session.metrics().snapshot();
    assert_eq!(snap.counter("panics"), 1);
    assert_eq!(snap.counter("retries"), 1);
}

#[test]
fn factory_errors_ride_the_same_ladder_for_jobs_and_steps() {
    fn failing_factory() -> BackendFactory {
        Box::new(|_, _, _, _, _| Err(SolverError::Backend("device unavailable".into())))
    }
    let service = SolveService::new(ServiceConfig { workers: 1, ..Default::default() });
    let job = service
        .submit(JobSpec::new(control::generate(3, 1)).with_backend_factory(failing_factory()))
        .expect("queue has room")
        .wait();
    let mut session = SolveSession::new(control::generate(3, 1), SessionConfig::default())
        .with_backend_factory(failing_factory());
    let step = session.step(Vec::new()).expect("the direct-LDLT rung solves");

    for (status, attempts) in
        [(job.status(), &job.attempts), (Some(step.result.status), &step.attempts)]
    {
        assert_eq!(status, Some(Status::Solved));
        assert_eq!(attempts.len(), 2, "backend error, then direct fallback");
        let error = attempts[0].error.as_deref().unwrap_or_default();
        assert!(error.contains("backend error: device unavailable"), "{error}");
    }
}
