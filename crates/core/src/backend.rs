//! The simulated-FPGA KKT backend and the solver built on it.
//!
//! [`FpgaPcgBackend`] implements [`rsqp_solver::KktBackend`] by executing
//! the PCG kernel of Algorithm 2 on the cycle-level machine of `rsqp-arch`.
//! The numerical results flowing back into the ADMM loop are the machine's —
//! so the solver genuinely converges on simulated-accelerator arithmetic —
//! and every solve advances the machine's cycle counters, which the
//! performance model converts to seconds via the f_max estimate.
//! [`FpgaSolver`] wires the two together: it is the one way to solve on a
//! (customized) architecture and price the solve in device time.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rsqp_arch::kernels::{admm_outer_cycles, build_pcg, PcgKernel};
use rsqp_arch::{ArchConfig, Machine, MatrixId, RunStats};
use rsqp_solver::{BackendStats, KktBackend, QpProblem, Settings, Solver, SolverError};
use rsqp_sparse::CsrMatrix;

use crate::perf::fpga::FpgaPerfModel;

/// A [`Solver`] whose KKT systems run on the simulated accelerator — the
/// paper's flow of Fig. 6 after customization: solve on the architecture
/// `config` describes, then convert the machine's cycles to device time.
pub struct FpgaSolver {
    /// The ADMM solver, driving an [`FpgaPcgBackend`] (until the guard's
    /// recovery ladder falls back to direct LDLᵀ).
    pub solver: Solver,
    machine: Rc<RefCell<Machine>>,
    model: FpgaPerfModel,
    outer_cycles_per_iter: u64,
}

impl std::fmt::Debug for FpgaSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpgaSolver")
            .field("solver", &self.solver)
            .field("fmax_hz", &self.model.fmax_hz)
            .finish_non_exhaustive()
    }
}

impl FpgaSolver {
    /// Sets up `problem` on a machine configured by `config`, with the
    /// inner PCG starting from [`rsqp_solver::CgTolerance::initial`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid settings.
    pub fn new(
        problem: &QpProblem,
        settings: Settings,
        config: &ArchConfig,
    ) -> Result<Self, SolverError> {
        let mut built = None;
        let solver = Solver::with_backend(problem, settings, &mut |p, a, sigma, rho, s| {
            let (backend, machine) = FpgaPcgBackend::new(
                p,
                a,
                sigma,
                rho,
                config.clone(),
                s.cg_tolerance.initial(),
                s.cg_max_iter,
            );
            built = Some((machine, backend.outer_cycles_per_iteration()));
            Ok(Box::new(backend))
        })?;
        let (machine, outer_cycles_per_iter) = built.expect("the factory ran");
        Ok(FpgaSolver {
            solver,
            machine,
            model: FpgaPerfModel::from_config(config),
            outer_cycles_per_iter,
        })
    }

    /// Cumulative machine statistics over every solve so far.
    pub fn stats(&self) -> RunStats {
        self.machine.borrow().stats()
    }

    /// Modelled end-to-end device time of a solve that ran `iterations`
    /// ADMM iterations and took `stats` on the machine
    /// ([`FpgaPerfModel::solve_time`] with this design's f_max and outer
    /// cycles).
    pub fn device_time(&self, stats: RunStats, iterations: usize) -> Duration {
        let problem = self.solver.problem();
        self.model.solve_time(
            stats,
            iterations,
            self.outer_cycles_per_iter,
            problem.num_vars(),
            problem.num_constraints(),
        )
    }
}

/// A [`KktBackend`] backed by the simulated RSQP accelerator.
pub struct FpgaPcgBackend {
    machine: Rc<RefCell<Machine>>,
    kernel: PcgKernel,
    matrix_ids: (MatrixId, MatrixId, MatrixId),
    a: CsrMatrix,
    p_diag: Vec<f64>,
    rho: Vec<f64>,
    sigma: f64,
    eps: f64,
    stats: BackendStats,
    outer_cycles_per_iter: u64,
}

impl std::fmt::Debug for FpgaPcgBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpgaPcgBackend")
            .field("c", &self.machine.borrow().config().c())
            .finish_non_exhaustive()
    }
}

impl FpgaPcgBackend {
    /// Builds the backend for the (scaled) problem matrices under the given
    /// architecture configuration.
    ///
    /// Returns the backend plus a shared handle to the machine so harnesses
    /// can read cycle statistics after the solve.
    pub fn new(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        config: ArchConfig,
        cg_eps: f64,
        cg_max_iter: usize,
    ) -> (Self, Rc<RefCell<Machine>>) {
        let n = p.nrows();
        let m = a.nrows();
        let at = a.transpose();
        let outer_cycles_per_iter = admm_outer_cycles(&config, n, m);
        let mut machine = Machine::new(config);
        let pid = machine.add_matrix(p);
        let aid = machine.add_matrix(a);
        let atid = machine.add_matrix(&at);
        let matrix_ids = (pid, aid, atid);
        let kernel = build_pcg(&mut machine, pid, aid, atid, n, m, cg_max_iter.max(1));
        let mut backend = FpgaPcgBackend {
            machine: Rc::new(RefCell::new(machine)),
            kernel,
            matrix_ids,
            a: a.clone(),
            p_diag: p.diagonal(),
            rho: rho.to_vec(),
            sigma,
            eps: cg_eps,
            stats: BackendStats::default(),
            outer_cycles_per_iter,
        };
        backend.refresh_device_constants();
        let handle = Rc::clone(&backend.machine);
        (backend, handle)
    }

    /// Analytic cycles per ADMM iteration spent in the outer vector updates
    /// (Algorithm 1, lines 4–7) — added to the measured PCG cycles by the
    /// performance model.
    pub fn outer_cycles_per_iteration(&self) -> u64 {
        self.outer_cycles_per_iter
    }

    fn refresh_device_constants(&mut self) {
        // Jacobi inverse diagonal: diag(P) + σ + Σ ρ_i A_{i,·}².
        let n = self.p_diag.len();
        let mut diag = self.p_diag.clone();
        for d in &mut diag {
            *d += self.sigma;
        }
        for i in 0..self.a.nrows() {
            let (cols, vals) = self.a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                diag[j] += self.rho[i] * v * v;
            }
        }
        let minv: Vec<f64> = diag.iter().map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 }).collect();
        debug_assert_eq!(minv.len(), n);
        let mut machine = self.machine.borrow_mut();
        machine.write_vec(self.kernel.minv, &minv);
        machine.write_vec(self.kernel.rho_vec, &self.rho);
        machine.write_scalar(self.kernel.sigma, self.sigma);
        machine.write_scalar(self.kernel.eps, self.eps);
        machine.write_scalar(self.kernel.eps_abs_sq, 1e-28);
    }
}

impl KktBackend for FpgaPcgBackend {
    fn name(&self) -> &str {
        "fpga-pcg"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        if rho.len() != self.rho.len() {
            return Err(SolverError::Backend("rho length changed".into()));
        }
        self.rho.copy_from_slice(rho);
        // Rebuild the device preconditioner and the device ρ vector from
        // the cached diag(P) and A (no structural work — the indirect
        // method's cheap ρ update, §2.2).
        self.refresh_device_constants();
        Ok(())
    }

    fn set_cg_tolerance(&mut self, eps: f64) {
        self.eps = eps;
        self.machine.borrow_mut().write_scalar(self.kernel.eps, eps);
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
        let mut machine = self.machine.borrow_mut();
        machine.write_vec(self.kernel.x, x);
        machine.write_vec(self.kernel.z, z);
        machine.write_vec(self.kernel.y, y);
        machine.write_vec(self.kernel.q, q);
        // `run` reports this solve's stats alone (cumulative counters live
        // on the machine for the perf model).
        let run = machine
            .run(&self.kernel.program)
            .map_err(|e| SolverError::Backend(format!("machine error: {e}")))?;
        xtilde.copy_from_slice(machine.read_vec(self.kernel.x));
        ztilde.copy_from_slice(machine.read_vec(self.kernel.ztilde));
        self.stats.kkt_solves += 1;
        let trips = run.loop_trips as usize;
        self.stats.cg_iterations += trips;
        self.stats.spmv_evals += 3 * (trips + 1) + 2;
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        {
            let mut machine = self.machine.borrow_mut();
            let (pid, aid, atid) = self.matrix_ids;
            machine.update_matrix_values(pid, p);
            machine.update_matrix_values(aid, a);
            machine.update_matrix_values(atid, &a.transpose());
        }
        self.a = a.clone();
        self.p_diag = p.diagonal();
        self.rho.copy_from_slice(rho);
        self.refresh_device_constants();
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::customize;
    use rsqp_problems::{generate, Domain};

    /// The hand-wired construction `FpgaSolver` replaces (and the one the
    /// benchmark harness keeps): a factory closure that smuggles the
    /// machine handle and the outer-cycle count out of the solver.
    fn hand_wired(
        problem: &QpProblem,
        settings: &Settings,
        config: &ArchConfig,
    ) -> (rsqp_solver::SolveResult, RunStats, Duration) {
        let mut handle = None;
        let mut outer = 0u64;
        let mut solver =
            Solver::with_backend(problem, settings.clone(), &mut |p, a, sigma, rho, s| {
                let (b, h) = FpgaPcgBackend::new(
                    p,
                    a,
                    sigma,
                    rho,
                    config.clone(),
                    s.cg_tolerance.initial(),
                    s.cg_max_iter,
                );
                outer = b.outer_cycles_per_iteration();
                handle = Some(h);
                Ok(Box::new(b))
            })
            .unwrap();
        let result = solver.solve().unwrap();
        let stats = handle.expect("the factory ran").borrow().stats();
        let time = FpgaPerfModel::from_config(config).solve_time(
            stats,
            result.iterations,
            outer,
            problem.num_vars(),
            problem.num_constraints(),
        );
        (result, stats, time)
    }

    #[test]
    fn fpga_solver_matches_the_hand_wired_factory() {
        let settings = Settings::default();
        for domain in [Domain::Control, Domain::Svm] {
            let qp = generate(domain, 2, 3);
            let custom = customize(&qp, 16, 4);
            for config in [custom.config.clone(), ArchConfig::baseline(16)] {
                let (want, want_stats, want_time) = hand_wired(&qp, &settings, &config);
                let mut fpga = FpgaSolver::new(&qp, settings.clone(), &config).unwrap();
                let got = fpga.solver.solve().unwrap();
                assert_eq!(got.status, want.status, "{domain}");
                assert_eq!(got.iterations, want.iterations, "{domain}");
                assert_eq!(got.x, want.x, "{domain}: x must be bit-identical");
                assert_eq!(got.y, want.y, "{domain}: y must be bit-identical");
                assert_eq!(fpga.stats(), want_stats, "{domain}: machine statistics");
                assert_eq!(fpga.device_time(fpga.stats(), got.iterations), want_time, "{domain}");
            }
        }
    }
}
