use crate::guard::GuardSettings;
use crate::SolverError;

/// Which KKT backend [`crate::Solver::new`] constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinSysKind {
    /// Sparse quasi-definite LDLᵀ (OSQP CPU default).
    #[default]
    DirectLdlt,
    /// Matrix-free PCG on the reduced KKT system (cuOSQP / RSQP path).
    CpuPcg,
}

/// Fill-reducing ordering applied to the KKT matrix by the direct backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KktOrdering {
    /// No reordering.
    Natural,
    /// Reverse-Cuthill-McKee (bandwidth reduction).
    Rcm,
    /// Classical minimum degree with dense-row deferral (AMD stand-in,
    /// OSQP's default pairing with QDLDL).
    #[default]
    MinDegree,
}

/// Tolerance policy for the inner PCG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CgTolerance {
    /// Fixed relative tolerance `‖r‖ < eps·‖b‖` every ADMM iteration.
    Fixed(f64),
    /// Adaptive tolerance tied to the outer residuals (the cuOSQP scheme):
    /// `eps_k = clamp(fraction · √(r_prim · r_dual), min, start)`, updated at
    /// every termination check.
    Adaptive {
        /// Multiplier on the geometric mean of the ADMM residuals.
        fraction: f64,
        /// Tolerance floor.
        min: f64,
        /// Tolerance before the first termination check.
        start: f64,
    },
}

impl Default for CgTolerance {
    fn default() -> Self {
        CgTolerance::Adaptive { fraction: 0.15, min: 1e-10, start: 1e-5 }
    }
}

impl CgTolerance {
    /// The inner tolerance every solve starts from: the fixed value, or the
    /// adaptive policy's `start`.
    pub fn initial(self) -> f64 {
        match self {
            CgTolerance::Fixed(eps) => eps,
            CgTolerance::Adaptive { start, .. } => start,
        }
    }
}

/// Solver settings (defaults follow OSQP).
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Initial ADMM step size ρ.
    pub rho: f64,
    /// Regularization σ added to `P` in the KKT matrix.
    pub sigma: f64,
    /// Relaxation parameter α ∈ (0, 2).
    pub alpha: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Absolute termination tolerance.
    pub eps_abs: f64,
    /// Relative termination tolerance.
    pub eps_rel: f64,
    /// Primal-infeasibility certificate tolerance.
    pub eps_prim_inf: f64,
    /// Dual-infeasibility certificate tolerance.
    pub eps_dual_inf: f64,
    /// Number of Ruiz equilibration iterations (0 disables scaling).
    pub scaling_iters: usize,
    /// Enables adaptive ρ updates.
    pub adaptive_rho: bool,
    /// Iterations between ρ-update evaluations.
    pub adaptive_rho_interval: usize,
    /// ρ changes only when the proposed value differs by more than this
    /// multiplicative factor.
    pub adaptive_rho_tolerance: f64,
    /// Iterations between termination checks.
    pub check_termination: usize,
    /// Which linear-system backend to build.
    pub linsys: LinSysKind,
    /// Fill-reducing ordering for the direct backend.
    pub ordering: KktOrdering,
    /// Inner-PCG tolerance policy (only used by PCG-style backends).
    pub cg_tolerance: CgTolerance,
    /// Inner-PCG iteration cap per ADMM iteration.
    pub cg_max_iter: usize,
    /// Runs solution polishing after a successful solve.
    pub polish: bool,
    /// Regularization δ used by the polishing KKT system.
    pub polish_delta: f64,
    /// Iterative-refinement sweeps during polishing.
    pub polish_refine_iters: usize,
    /// Optional wall-clock budget for `solve` (checked at termination
    /// checks; `None` disables the limit).
    pub time_limit: Option<std::time::Duration>,
    /// Numerical-guard and recovery-ladder configuration.
    pub guard: GuardSettings,
    /// Worker threads for the parallel CPU kernels used by PCG-style
    /// backends (`0` = auto-detect from the host, capped at 8; `1` =
    /// strictly serial). Results are bit-identical regardless of the value —
    /// see the determinism contract in `rsqp-par`.
    pub threads: usize,
    /// Collects a full [`rsqp_obs::SolveTrace`] (phase spans, per-iteration
    /// residuals and PCG counts, ρ-update and guard events) on the returned
    /// `SolveResult`. Off by default: when disabled the solve allocates
    /// nothing for telemetry and the hot path is unchanged (the zero-alloc
    /// proof in `tests/zero_alloc.rs` runs with this setting off).
    pub trace: bool,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            rho: 0.1,
            sigma: 1e-6,
            alpha: 1.6,
            max_iter: 4000,
            eps_abs: 1e-3,
            eps_rel: 1e-3,
            eps_prim_inf: 1e-4,
            eps_dual_inf: 1e-4,
            scaling_iters: 10,
            adaptive_rho: true,
            adaptive_rho_interval: 50,
            adaptive_rho_tolerance: 5.0,
            check_termination: 25,
            linsys: LinSysKind::DirectLdlt,
            ordering: KktOrdering::default(),
            cg_tolerance: CgTolerance::default(),
            cg_max_iter: 2000,
            polish: false,
            polish_delta: 1e-6,
            polish_refine_iters: 3,
            time_limit: None,
            guard: GuardSettings::default(),
            threads: 1,
            trace: false,
        }
    }
}

impl Settings {
    /// Resolves [`Settings::threads`] to a concrete pool size: `0` means
    /// "one per available core, capped at 8"; any other value is taken
    /// verbatim.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => rsqp_par::available_threads().min(8),
            t => t,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidSetting`] for out-of-range values
    /// (`rho ≤ 0`, `sigma ≤ 0`, `alpha ∉ (0, 2)`, zero intervals, negative
    /// tolerances).
    pub fn validate(&self) -> Result<(), SolverError> {
        if self.rho <= 0.0 {
            return Err(SolverError::InvalidSetting("rho must be positive".into()));
        }
        if self.sigma <= 0.0 {
            return Err(SolverError::InvalidSetting("sigma must be positive".into()));
        }
        if !(self.alpha > 0.0 && self.alpha < 2.0) {
            return Err(SolverError::InvalidSetting("alpha must lie in (0, 2)".into()));
        }
        if self.max_iter == 0 {
            return Err(SolverError::InvalidSetting("max_iter must be positive".into()));
        }
        if self.eps_abs < 0.0 || self.eps_rel < 0.0 || (self.eps_abs == 0.0 && self.eps_rel == 0.0)
        {
            return Err(SolverError::InvalidSetting(
                "eps_abs/eps_rel must be non-negative and not both zero".into(),
            ));
        }
        if self.check_termination == 0 {
            return Err(SolverError::InvalidSetting("check_termination must be positive".into()));
        }
        if self.adaptive_rho_interval == 0 {
            return Err(SolverError::InvalidSetting(
                "adaptive_rho_interval must be positive".into(),
            ));
        }
        if self.adaptive_rho_tolerance < 1.0 {
            return Err(SolverError::InvalidSetting("adaptive_rho_tolerance must be >= 1".into()));
        }
        if self.polish_delta <= 0.0 {
            return Err(SolverError::InvalidSetting("polish_delta must be positive".into()));
        }
        match self.cg_tolerance {
            CgTolerance::Fixed(eps) if eps <= 0.0 => {
                return Err(SolverError::InvalidSetting(
                    "fixed CG tolerance must be positive".into(),
                ))
            }
            CgTolerance::Adaptive { fraction, min, start }
                if fraction <= 0.0 || min <= 0.0 || start < min =>
            {
                return Err(SolverError::InvalidSetting(
                    "adaptive CG tolerance parameters out of range".into(),
                ))
            }
            _ => {}
        }
        let thr = self.guard.divergence_threshold;
        if !thr.is_finite() || thr <= 0.0 {
            return Err(SolverError::InvalidSetting(
                "guard divergence_threshold must be positive and finite".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        Settings::default().validate().unwrap();
    }

    #[test]
    fn initial_cg_tolerance_follows_the_policy() {
        assert_eq!(CgTolerance::Fixed(1e-7).initial(), 1e-7);
        assert_eq!(CgTolerance::default().initial(), 1e-5);
    }

    #[test]
    fn rejects_bad_alpha() {
        let s = Settings { alpha: 2.0, ..Default::default() };
        assert!(s.validate().is_err());
        let s = Settings { alpha: 0.0, ..Default::default() };
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_bad_rho_sigma() {
        assert!(Settings { rho: 0.0, ..Default::default() }.validate().is_err());
        assert!(Settings { sigma: -1.0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn rejects_zero_intervals() {
        assert!(Settings { check_termination: 0, ..Default::default() }.validate().is_err());
        assert!(Settings { adaptive_rho_interval: 0, ..Default::default() }.validate().is_err());
        assert!(Settings { max_iter: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn rejects_bad_tolerances() {
        assert!(Settings { eps_abs: 0.0, eps_rel: 0.0, ..Default::default() }.validate().is_err());
        assert!(Settings { cg_tolerance: CgTolerance::Fixed(0.0), ..Default::default() }
            .validate()
            .is_err());
        assert!(Settings {
            cg_tolerance: CgTolerance::Adaptive { fraction: 0.1, min: 1e-3, start: 1e-5 },
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn rejects_bad_guard_threshold() {
        use crate::guard::GuardSettings;
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let s = Settings {
                guard: GuardSettings { divergence_threshold: bad, ..Default::default() },
                ..Default::default()
            };
            assert!(s.validate().is_err(), "threshold {bad} accepted");
        }
    }
}
