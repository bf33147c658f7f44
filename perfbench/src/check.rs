//! Correctness checks: answers recomputed from the problem data, and
//! exact counts that must repeat identically.

use std::collections::BTreeMap;

use rsqp_solver::{QpProblem, SolveResult, Status};

/// Tolerances an answer is held to (the solver's own defaults).
pub const EPS_ABS: f64 = 1e-3;
/// Relative tolerance, see [`EPS_ABS`].
pub const EPS_REL: f64 = 1e-3;

/// Relative allowance for floating-point round-off between the solver's
/// scaled-space residuals and the unscaled recomputation here. It is far
/// below any tolerance a solve is held to.
const ROUND_OFF: f64 = 1e-9;

/// Checks a result against the problem data, independently of the
/// solver's own residuals:
///
/// * the status is [`Status::Solved`] and every value is finite;
/// * primal: `‖Ax − z‖∞ ≤ eps_abs + eps_rel·max(‖Ax‖∞, ‖z‖∞)` with `z` the
///   projection of `Ax` onto `[l, u]`;
/// * dual: `‖Px + q + Aᵀy‖∞ ≤ eps_abs + eps_rel·max(‖Px‖∞, ‖Aᵀy‖∞, ‖q‖∞)`
///   with `P` in full symmetric storage.
pub fn check_answer(problem: &QpProblem, r: &SolveResult) -> Result<(), String> {
    if r.status != Status::Solved {
        return Err(format!("status {:?}", r.status));
    }
    let (n, m) = (problem.num_vars(), problem.num_constraints());
    if r.x.len() != n || r.y.len() != m {
        return Err(format!(
            "answer has shape ({}, {}), expected ({n}, {m})",
            r.x.len(),
            r.y.len()
        ));
    }
    if !r.x.iter().chain(&r.y).all(|v| v.is_finite()) {
        return Err("non-finite answer".into());
    }
    let mut ax = vec![0.0; m];
    problem.a().spmv(&r.x, &mut ax).map_err(|e| e.to_string())?;
    let (l, u) = (problem.l(), problem.u());
    let (mut prim, mut norm_ax, mut norm_z) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..m {
        let z = ax[i].clamp(l[i], u[i]);
        prim = prim.max((ax[i] - z).abs());
        norm_ax = norm_ax.max(ax[i].abs());
        norm_z = norm_z.max(z.abs());
    }
    let mut px = vec![0.0; n];
    problem.p().spmv(&r.x, &mut px).map_err(|e| e.to_string())?;
    let mut aty = vec![0.0; n];
    problem.a().spmv_transpose(&r.y, &mut aty).map_err(|e| e.to_string())?;
    let q = problem.q();
    let (mut dual, mut norm_px, mut norm_aty, mut norm_q) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for j in 0..n {
        dual = dual.max((px[j] + q[j] + aty[j]).abs());
        norm_px = norm_px.max(px[j].abs());
        norm_aty = norm_aty.max(aty[j].abs());
        norm_q = norm_q.max(q[j].abs());
    }
    let eps_prim = (EPS_ABS + EPS_REL * norm_ax.max(norm_z)) * (1.0 + ROUND_OFF);
    let eps_dual = (EPS_ABS + EPS_REL * norm_px.max(norm_aty).max(norm_q)) * (1.0 + ROUND_OFF);
    if prim > eps_prim {
        return Err(format!("primal residual {prim:.3e} > {eps_prim:.3e}"));
    }
    if dual > eps_dual {
        return Err(format!("dual residual {dual:.3e} > {eps_dual:.3e}"));
    }
    Ok(())
}

/// Exact, host-independent counts keyed by `"<problem or episode>.<count>"`.
///
/// Every pass of a workload repeats the same operations on the same
/// inputs, so a count recorded twice under one key must read the same
/// both times; a mismatch is kept and fails the run.
#[derive(Debug, Default)]
pub struct Ledger {
    counts: BTreeMap<String, u64>,
    mismatches: Vec<String>,
}

impl Ledger {
    /// Records `value` under `key`, or compares it with the earlier record.
    pub fn record(&mut self, key: String, value: u64) {
        match self.counts.get(&key) {
            Some(&old) if old != value => {
                self.mismatches.push(format!("{key}: {old} then {value}"));
            }
            Some(_) => {}
            None => {
                self.counts.insert(key, value);
            }
        }
    }

    /// Compares against a ledger of the same operations run another way
    /// (e.g. on another pool size); every shared key must agree.
    pub fn compare(&mut self, other: &Ledger, what: &str) {
        for (k, v) in &other.counts {
            match self.counts.get(k) {
                Some(mine) if mine != v => {
                    self.mismatches.push(format!("{k}: {mine} vs {v} {what}"));
                }
                Some(_) => {}
                None => self.mismatches.push(format!("{k}: missing, {v} {what}")),
            }
        }
    }

    /// Records a failed check that is not a count.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// The disagreements found so far.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_solver::{Settings, Solver};
    use rsqp_sparse::CsrMatrix;

    fn tiny() -> QpProblem {
        QpProblem::new(
            CsrMatrix::identity(2),
            vec![-1.0, -1.0],
            CsrMatrix::identity(2),
            vec![0.0, 0.0],
            vec![0.5, 2.0],
        )
        .expect("valid problem")
    }

    #[test]
    fn solved_answers_pass_and_perturbed_ones_fail() {
        let problem = tiny();
        let mut solver = Solver::new(&problem, Settings::default()).expect("solver");
        let mut r = solver.solve().expect("solve");
        assert_eq!(check_answer(&problem, &r), Ok(()));
        r.x[0] += 0.1;
        assert!(check_answer(&problem, &r).unwrap_err().contains("residual"));
        r.status = Status::MaxIterationsReached;
        assert!(check_answer(&problem, &r).unwrap_err().contains("status"));
    }

    #[test]
    fn ledger_flags_a_count_that_changes() {
        let mut a = Ledger::default();
        a.record("p.iters".into(), 5);
        a.record("p.iters".into(), 5);
        assert!(a.mismatches().is_empty());
        a.record("p.iters".into(), 6);
        assert_eq!(a.mismatches().len(), 1);
        let mut b = Ledger::default();
        b.record("p.iters".into(), 7);
        let mut c = Ledger::default();
        c.record("p.iters".into(), 5);
        c.compare(&b, "on one thread");
        assert_eq!(c.mismatches().len(), 1);
    }
}
