//! Numerical guards and the bounded recovery ladder.
//!
//! Iterative inner solvers (PCG on the reduced KKT system) and accelerator
//! datapaths fail in ways the direct LDLᵀ path does not: breakdown,
//! stagnation, and silent NaN/Inf propagation from corrupted memory. The
//! guard layer watches the ADMM iterates at every termination check and, on
//! an anomaly, walks a **bounded recovery ladder**:
//!
//! 1. reset to the last known-good iterate,
//! 2. reset and tighten the inner CG tolerance,
//! 3. reset and degrade from the PCG backend to the direct LDLᵀ backend
//!    (the reverse of the paper's substitution, used as a safety net),
//! 4. abort with [`crate::Status::NumericalError`].
//!
//! The ladder never revisits a rung, so a solve gets at most three
//! recoveries and a persistently faulty backend cannot loop forever. Every
//! event is counted in [`GuardReport`], surfaced in
//! [`crate::SolveResult::guard`].

use crate::SolverError;

/// Configuration of the guard layer (part of [`crate::Settings`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardSettings {
    /// Enables iterate checking and recovery. When `false`, backend errors
    /// propagate immediately and iterates are never inspected (the final
    /// result is still screened: `Solved` is never reported with a
    /// non-finite solution).
    pub enabled: bool,
    /// Infinity-norm bound on the scaled iterates; exceeding it counts as
    /// divergence even while every entry is still finite.
    pub divergence_threshold: f64,
}

impl Default for GuardSettings {
    fn default() -> Self {
        GuardSettings { enabled: true, divergence_threshold: 1e12 }
    }
}

/// What the guard detected at a checkpoint.
#[derive(Debug, Clone)]
pub enum Anomaly {
    /// An iterate or residual contains NaN or ±Inf; `what` names it.
    NonFinite {
        /// Which quantity was non-finite (e.g. `"iterate x"`).
        what: &'static str,
    },
    /// An iterate grew past [`GuardSettings::divergence_threshold`].
    Divergence {
        /// The offending infinity norm.
        norm: f64,
    },
    /// The KKT backend returned a recoverable error.
    BackendFault {
        /// The underlying error.
        error: SolverError,
    },
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anomaly::NonFinite { what } => write!(f, "non-finite {what}"),
            Anomaly::Divergence { norm } => write!(f, "iterate diverged (inf-norm {norm:e})"),
            Anomaly::BackendFault { error } => write!(f, "backend fault: {error}"),
        }
    }
}

/// The action the ladder prescribes for an anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restore `x`, `z`, `y` from the last known-good snapshot.
    ResetIterates,
    /// Restore the snapshot and tighten the inner CG tolerance.
    TightenCgTolerance,
    /// Restore the snapshot and replace the backend with direct LDLᵀ.
    FallbackToDirect,
    /// Give up: report [`crate::Status::NumericalError`].
    Abort,
}

/// Counters for every guard intervention during one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardReport {
    /// Anomalies detected (including the one that may have aborted).
    pub faults_detected: usize,
    /// Times the iterates were reset to the last good snapshot.
    pub iterate_resets: usize,
    /// Times the inner CG tolerance was tightened.
    pub cg_tightenings: usize,
    /// Times the backend was degraded to direct LDLᵀ.
    pub backend_fallbacks: usize,
}

impl GuardReport {
    /// Whether the guard intervened at all.
    pub fn intervened(&self) -> bool {
        self.faults_detected > 0
    }
}

/// Watches iterates and drives the recovery ladder for one solve.
#[derive(Debug)]
pub struct Guard {
    settings: GuardSettings,
    good_x: Vec<f64>,
    good_z: Vec<f64>,
    good_y: Vec<f64>,
    stage: usize,
    report: GuardReport,
}

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()))
}

impl Guard {
    /// Creates a guard whose initial known-good snapshot is the current
    /// (scaled) iterate triple.
    pub fn new(settings: GuardSettings, x: &[f64], z: &[f64], y: &[f64]) -> Self {
        Guard {
            settings,
            good_x: x.to_vec(),
            good_z: z.to_vec(),
            good_y: y.to_vec(),
            stage: 0,
            report: GuardReport::default(),
        }
    }

    /// Inspects the iterate triple and the residual pair; returns the first
    /// anomaly found, or `None` when the state is healthy.
    pub fn inspect(
        &self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        prim_res: f64,
        dual_res: f64,
    ) -> Option<Anomaly> {
        if !all_finite(x) {
            return Some(Anomaly::NonFinite { what: "iterate x" });
        }
        if !all_finite(z) {
            return Some(Anomaly::NonFinite { what: "iterate z" });
        }
        if !all_finite(y) {
            return Some(Anomaly::NonFinite { what: "iterate y" });
        }
        if !prim_res.is_finite() {
            return Some(Anomaly::NonFinite { what: "primal residual" });
        }
        if !dual_res.is_finite() {
            return Some(Anomaly::NonFinite { what: "dual residual" });
        }
        let norm = inf_norm(x).max(inf_norm(y));
        if norm > self.settings.divergence_threshold {
            return Some(Anomaly::Divergence { norm });
        }
        None
    }

    /// Records the current iterates as the known-good snapshot. Call after
    /// [`Self::inspect`] returns `None`.
    pub fn record_good(&mut self, x: &[f64], z: &[f64], y: &[f64]) {
        self.good_x.copy_from_slice(x);
        self.good_z.copy_from_slice(z);
        self.good_y.copy_from_slice(y);
    }

    /// Restores the known-good snapshot into the iterate buffers.
    pub fn restore(&self, x: &mut [f64], z: &mut [f64], y: &mut [f64]) {
        x.copy_from_slice(&self.good_x);
        z.copy_from_slice(&self.good_z);
        y.copy_from_slice(&self.good_y);
    }

    /// Advances the ladder in response to `anomaly` and returns the action
    /// to apply. `can_fallback` is `false` when the active backend is
    /// already the direct LDLᵀ solver (that rung is then skipped).
    ///
    /// Each rung is used at most once; past the last one the action is
    /// [`RecoveryAction::Abort`].
    pub fn recover(&mut self, anomaly: &Anomaly, can_fallback: bool) -> RecoveryAction {
        self.report.faults_detected += 1;
        // A backend fault means the KKT solve itself is unreliable —
        // resetting iterates alone cannot help, so enter the ladder at the
        // tolerance-tightening rung.
        if matches!(anomaly, Anomaly::BackendFault { .. }) && self.stage == 0 {
            self.stage = 1;
        }
        let action = match self.stage {
            0 => RecoveryAction::ResetIterates,
            1 => RecoveryAction::TightenCgTolerance,
            2 if can_fallback => RecoveryAction::FallbackToDirect,
            2 => RecoveryAction::Abort,
            _ => RecoveryAction::Abort,
        };
        self.stage += 1;
        match action {
            RecoveryAction::ResetIterates => self.report.iterate_resets += 1,
            RecoveryAction::TightenCgTolerance => {
                self.report.iterate_resets += 1;
                self.report.cg_tightenings += 1;
            }
            RecoveryAction::FallbackToDirect => {
                self.report.iterate_resets += 1;
                self.report.backend_fallbacks += 1;
            }
            RecoveryAction::Abort => {}
        }
        action
    }

    /// The intervention counters accumulated so far.
    pub fn report(&self) -> GuardReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_guard() -> Guard {
        Guard::new(GuardSettings::default(), &[1.0, 2.0], &[0.5], &[0.0])
    }

    #[test]
    fn healthy_state_passes_inspection() {
        let g = mk_guard();
        assert!(g.inspect(&[1.0, 2.0], &[0.5], &[0.0], 1e-3, 1e-4).is_none());
    }

    #[test]
    fn detects_non_finite_iterates_and_residuals() {
        let g = mk_guard();
        assert!(matches!(
            g.inspect(&[f64::NAN, 0.0], &[0.0], &[0.0], 0.0, 0.0),
            Some(Anomaly::NonFinite { what: "iterate x" })
        ));
        assert!(matches!(
            g.inspect(&[0.0, 0.0], &[f64::INFINITY], &[0.0], 0.0, 0.0),
            Some(Anomaly::NonFinite { what: "iterate z" })
        ));
        assert!(matches!(
            g.inspect(&[0.0, 0.0], &[0.0], &[0.0], f64::NAN, 0.0),
            Some(Anomaly::NonFinite { what: "primal residual" })
        ));
    }

    #[test]
    fn detects_divergence_past_threshold() {
        let g = Guard::new(
            GuardSettings { divergence_threshold: 100.0, ..Default::default() },
            &[0.0],
            &[0.0],
            &[0.0],
        );
        assert!(matches!(
            g.inspect(&[101.0], &[0.0], &[0.0], 0.0, 0.0),
            Some(Anomaly::Divergence { .. })
        ));
        assert!(g.inspect(&[99.0], &[0.0], &[0.0], 0.0, 0.0).is_none());
    }

    #[test]
    fn ladder_escalates_and_never_revisits_a_rung() {
        let mut g = mk_guard();
        let a = Anomaly::NonFinite { what: "iterate x" };
        assert_eq!(g.recover(&a, true), RecoveryAction::ResetIterates);
        assert_eq!(g.recover(&a, true), RecoveryAction::TightenCgTolerance);
        assert_eq!(g.recover(&a, true), RecoveryAction::FallbackToDirect);
        assert_eq!(g.recover(&a, true), RecoveryAction::Abort);
        let r = g.report();
        assert_eq!(r.faults_detected, 4);
        assert_eq!(r.iterate_resets, 3);
        assert_eq!(r.cg_tightenings, 1);
        assert_eq!(r.backend_fallbacks, 1);
    }

    #[test]
    fn direct_backend_skips_the_fallback_rung() {
        let mut g = mk_guard();
        let a = Anomaly::Divergence { norm: 1e30 };
        assert_eq!(g.recover(&a, false), RecoveryAction::ResetIterates);
        assert_eq!(g.recover(&a, false), RecoveryAction::TightenCgTolerance);
        assert_eq!(g.recover(&a, false), RecoveryAction::Abort);
    }

    #[test]
    fn backend_fault_enters_at_the_tightening_rung() {
        let mut g = mk_guard();
        let a = Anomaly::BackendFault { error: SolverError::Backend("device fault".into()) };
        assert_eq!(g.recover(&a, true), RecoveryAction::TightenCgTolerance);
        assert_eq!(g.recover(&a, true), RecoveryAction::FallbackToDirect);
        assert_eq!(g.recover(&a, true), RecoveryAction::Abort);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut g = mk_guard();
        g.record_good(&[3.0, 4.0], &[5.0], &[6.0]);
        let (mut x, mut z, mut y) = (vec![0.0; 2], vec![0.0], vec![0.0]);
        g.restore(&mut x, &mut z, &mut y);
        assert_eq!(x, vec![3.0, 4.0]);
        assert_eq!(z, vec![5.0]);
        assert_eq!(y, vec![6.0]);
    }
}
