//! The attempt ladder shared by service jobs and session steps.
//!
//! Every attempt — building the solver, restoring a checkpoint, solving —
//! runs under one `catch_unwind`, so a backend fault comes back as a
//! recorded attempt, never as an unwinding panic. An attempt that ends in
//! [`Status::NumericalError`], a recoverable [`SolverError`], or a caught
//! panic is retried with *degraded* settings. The in-solve guard ladder
//! (`rsqp_solver::guard`) already tightens the CG tolerance and falls back
//! to LDLᵀ mid-solve, so the runtime keeps only the rungs it cannot run:
//!
//! | retry # | degradation |
//! |---|---|
//! | 1 | drop any custom backend factory and rebuild on direct LDLᵀ |
//! | ≥2 | halve `max_iter`, floor 10 (bound the cost of an attempt that will not converge) |
//!
//! Rungs are cumulative, and every retry rebuilds the solver and resumes
//! from the last valid checkpoint, so work already done is not thrown away
//! and a solver a panic may have poisoned is never reused.
//!
//! [`Status::NumericalError`]: rsqp_solver::Status::NumericalError

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rsqp_core::PatternArtifacts;
use rsqp_obs::{Counter, MetricsRegistry};
use rsqp_solver::{
    Checkpoint, DirectLdltBackend, KktBackend, LinSysKind, QpProblem, Settings, SolveControl,
    SolveResult, Solver, SolverError, Status,
};

use crate::job::{AttemptSummary, BackendFactory, JobError};

/// Floor for the halved iteration cap.
const RETRY_MIN_ITER: usize = 10;

/// How many times a job may be attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` disables retries).
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // First attempt + one rung of each degradation kind.
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// A policy with `max_attempts` total attempts (clamped to ≥ 1).
    pub fn with_max_attempts(max_attempts: usize) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1) }
    }
}

/// Applies the degradation rung for retry number `retry` (1-based) in
/// place. Also called for `retry > 2`, where it keeps halving `max_iter`.
fn degrade(settings: &mut Settings, factory: &mut Option<BackendFactory>, retry: usize) {
    match retry {
        1 => {
            *factory = None;
            settings.linsys = LinSysKind::DirectLdlt;
        }
        _ => {
            settings.max_iter = (settings.max_iter / 2).max(RETRY_MIN_ITER);
        }
    }
}

/// The `retries` and `panics` counters every ladder run folds into.
pub(crate) struct LadderMetrics {
    retries: Counter,
    panics: Counter,
}

impl LadderMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        LadderMetrics { retries: registry.counter("retries"), panics: registry.counter("panics") }
    }

    fn record(&self, attempts: &[AttemptSummary]) {
        self.retries.add(attempts.len().saturating_sub(1) as u64);
        self.panics.add(
            attempts
                .iter()
                .filter(|a| a.error.as_deref().is_some_and(|e| e.starts_with("panic:")))
                .count() as u64,
        );
    }
}

/// One run of the ladder. Settings and factory are borrowed so the
/// degradations land where the caller keeps them: a job's die with the
/// job, a session's stick for its later steps.
pub(crate) struct Ladder<'a> {
    pub(crate) problem: &'a Arc<QpProblem>,
    pub(crate) settings: &'a mut Settings,
    pub(crate) factory: &'a mut Option<BackendFactory>,
    /// Per-pattern artifacts whose cached LDLᵀ ordering a build replays.
    pub(crate) artifacts: Option<&'a PatternArtifacts>,
    pub(crate) retry: RetryPolicy,
    /// `false` cold-starts the solver before every attempt.
    pub(crate) warm_start: bool,
    pub(crate) metrics: &'a LadderMetrics,
}

impl Ladder<'_> {
    /// Runs attempts against `slot` until one is final: attempt 0 solves
    /// with the slot's solver (building one if it is empty), every retry
    /// rebuilds. Each attempt restores the latest valid checkpoint, starting
    /// with `resume_from`. The slot is left empty after an error or panic,
    /// and holds the last attempt's solver otherwise.
    pub(crate) fn run(
        self,
        slot: &mut Option<Solver>,
        resume_from: Option<Checkpoint>,
        control: &SolveControl,
    ) -> (Vec<AttemptSummary>, Result<SolveResult, JobError>) {
        let Ladder { problem, settings, factory, artifacts, retry, warm_start, metrics } = self;
        let (n, m) = (problem.num_vars(), problem.num_constraints());
        let max_attempts = retry.max_attempts.max(1);
        let mut ckpt = resume_from;
        let mut attempts = Vec::new();

        let outcome = loop {
            let index = attempts.len();
            let last = index + 1 == max_attempts;
            if index > 0 {
                // Every retry rebuilds, so a solver a panic may have
                // poisoned is never reused.
                degrade(settings, factory, index);
                *slot = None;
            }
            let resumed_from = ckpt.as_ref().map(|c| c.iterations);
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if slot.is_none() {
                    *slot = Some(build_solver(problem, settings, factory, artifacts)?);
                }
                let solver = slot.as_mut().expect("slot filled above");
                if let Some(c) = &ckpt {
                    solver.restore(c)?;
                }
                if !warm_start {
                    solver.cold_start();
                }
                solver.solve_with_control(control)
            }));
            let mut summary = AttemptSummary { index, status: None, error: None, resumed_from };
            match attempt {
                Ok(Ok(result)) => {
                    summary.status = Some(result.status);
                    attempts.push(summary);
                    // Only a numerical failure is worth a degraded retry;
                    // every other status (solved, infeasible,
                    // budget-driven) is final.
                    if result.status != Status::NumericalError || last {
                        break Ok(result);
                    }
                    // Resume the retry from this attempt's endpoint when it
                    // is usable; otherwise keep the previous checkpoint.
                    let end = slot.as_ref().map(Solver::checkpoint);
                    if let Some(end) = end.filter(|c| c.validate(n, m).is_ok()) {
                        ckpt = Some(end);
                    }
                }
                Ok(Err(e)) => {
                    summary.error = Some(e.to_string());
                    attempts.push(summary);
                    if !e.is_recoverable() || last {
                        break Err(JobError::Solver(e));
                    }
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    summary.error = Some(format!("panic: {msg}"));
                    attempts.push(summary);
                    if last {
                        break Err(JobError::Panicked(msg));
                    }
                }
            }
        };
        if outcome.is_err() {
            // An error or an unwind may have left the solver half-updated;
            // the caller's next run rebuilds it.
            *slot = None;
        }
        metrics.record(&attempts);
        (attempts, outcome)
    }
}

/// Builds a solver: through the custom factory when there is one, else on
/// `settings.linsys`, replaying the cached symbolic LDLᵀ ordering when one
/// is available and applicable.
fn build_solver(
    problem: &Arc<QpProblem>,
    settings: &Settings,
    factory: &mut Option<BackendFactory>,
    artifacts: Option<&PatternArtifacts>,
) -> Result<Solver, SolverError> {
    if let Some(f) = factory.as_mut() {
        return Solver::with_backend_shared(Arc::clone(problem), settings.clone(), f);
    }
    if settings.linsys == LinSysKind::DirectLdlt {
        let cached_perm = artifacts
            .filter(|a| a.params.ordering == settings.ordering)
            .and_then(|a| a.kkt_perm.clone());
        if let Some(perm) = cached_perm {
            return Solver::with_backend_shared(
                Arc::clone(problem),
                settings.clone(),
                &mut |p, a, sigma, rho, _s| {
                    Ok(Box::new(DirectLdltBackend::with_permutation(
                        p,
                        a,
                        sigma,
                        rho,
                        perm.clone(),
                    )?) as Box<dyn KktBackend>)
                },
            );
        }
    }
    Solver::new_shared(Arc::clone(problem), settings.clone())
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_degrade_cumulatively() {
        let mut s = Settings { max_iter: 4000, linsys: LinSysKind::CpuPcg, ..Default::default() };
        let mut f: Option<BackendFactory> = None;

        degrade(&mut s, &mut f, 1);
        assert_eq!(s.linsys, LinSysKind::DirectLdlt);
        assert_eq!(s.max_iter, 4000, "rung 1 keeps the iteration cap");

        degrade(&mut s, &mut f, 2);
        assert_eq!(s.max_iter, 2000);
        assert_eq!(s.linsys, LinSysKind::DirectLdlt, "rung 1 survives rung 2");
        degrade(&mut s, &mut f, 3);
        assert_eq!(s.max_iter, 1000);
    }

    #[test]
    fn iteration_halving_has_a_floor() {
        let mut s = Settings { max_iter: 11, ..Default::default() };
        let mut f: Option<BackendFactory> = None;
        degrade(&mut s, &mut f, 2);
        assert_eq!(s.max_iter, RETRY_MIN_ITER);
        degrade(&mut s, &mut f, 3);
        assert_eq!(s.max_iter, RETRY_MIN_ITER);
    }

    #[test]
    fn policy_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::with_max_attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::no_retries().max_attempts, 1);
    }
}
