//! Shared measurement runner for the figure/table harnesses.
//!
//! Every evaluation figure of the paper compares, per benchmark problem,
//! some subset of:
//!
//! * the **CPU** solve (measured wall-clock of our Rust OSQP, PCG backend —
//!   the stand-in for OSQP+MKL, see `DESIGN.md`),
//! * the **GPU** solve (analytic cuOSQP model fed with the observed
//!   iteration counts),
//! * the **FPGA baseline** solve (simulated machine, uncustomized
//!   architecture),
//! * the **FPGA customized** solve (simulated machine, architecture from
//!   the §4 pipeline).
//!
//! [`measure_problem`] produces all four plus the η scores; the binaries
//! format different projections of the same record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use rsqp_arch::ArchConfig;
use rsqp_core::perf::gpu::GpuPerfModel;
use rsqp_core::{customize, CustomizationResult, FpgaSolver};
use rsqp_problems::BenchmarkProblem;
use rsqp_solver::{LinSysKind, QpProblem, Settings, SolveResult, Solver};

/// All measurements for one benchmark problem.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Domain name (paper legend label).
    pub domain: &'static str,
    /// Problem name.
    pub name: String,
    /// `nnz(P) + nnz(A)` (the x-axis of every figure).
    pub nnz: usize,
    /// Decision variables.
    pub n: usize,
    /// Constraints.
    pub m: usize,
    /// Measured CPU solve time (PCG backend).
    pub cpu_time: Duration,
    /// Fraction of CPU solve time inside the KKT solve (Figure 8).
    pub cpu_kkt_fraction: f64,
    /// ADMM iterations of the CPU solve.
    pub admm_iters: usize,
    /// Total inner CG iterations of the CPU solve.
    pub cg_iters: usize,
    /// Modeled GPU solve time.
    pub gpu_time: Duration,
    /// Modeled GPU power (W).
    pub gpu_power_w: f64,
    /// Simulated FPGA time, baseline architecture.
    pub fpga_base_time: Duration,
    /// Simulated FPGA time, customized architecture.
    pub fpga_custom_time: Duration,
    /// Customization report (η, resources, structure set).
    pub customization: CustomizationResult,
}

impl Measurement {
    /// Customization speedup (Figure 10): baseline / customized FPGA time.
    pub fn customization_speedup(&self) -> f64 {
        self.fpga_base_time.as_secs_f64() / self.fpga_custom_time.as_secs_f64()
    }

    /// Speedup of platform time `t` over the CPU baseline (Figure 11).
    pub fn speedup_over_cpu(&self, t: Duration) -> f64 {
        self.cpu_time.as_secs_f64() / t.as_secs_f64()
    }
}

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Benchmark sizes per domain (paper: 20; harness default lower so the
    /// simulated runs finish quickly — pass `--points 20` for the full
    /// sweep).
    pub points: usize,
    /// Datapath width `C` for the FPGA designs.
    pub c: usize,
    /// Structure budget `|S|_target`.
    pub s_target: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions { points: 6, c: 32, s_target: 4, seed: 42 }
    }
}

impl HarnessOptions {
    /// Parses `--points N`, `--c N`, `--starget N`, `--seed N` from argv.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--points" => opts.points = args[i + 1].parse().expect("--points takes an integer"),
                "--c" => opts.c = args[i + 1].parse().expect("--c takes an integer"),
                "--starget" => {
                    opts.s_target = args[i + 1].parse().expect("--starget takes an integer")
                }
                "--seed" => opts.seed = args[i + 1].parse().expect("--seed takes an integer"),
                other => panic!("unknown option {other}"),
            }
            i += 2;
        }
        opts
    }
}

fn solver_settings() -> Settings {
    Settings { eps_abs: 1e-3, eps_rel: 1e-3, max_iter: 4000, ..Default::default() }
}

/// Runs the CPU (measured) solve with the PCG backend.
pub fn solve_cpu(problem: &QpProblem) -> SolveResult {
    let mut solver =
        Solver::new(problem, Settings { linsys: LinSysKind::CpuPcg, ..solver_settings() })
            .expect("benchmark problems are valid");
    solver.solve().expect("CPU PCG backend does not fail")
}

/// Runs a simulated-FPGA solve under `config`, returning the solver result
/// and the modeled end-to-end time.
pub fn solve_fpga(problem: &QpProblem, config: &ArchConfig) -> (SolveResult, Duration) {
    let mut fpga =
        FpgaSolver::new(problem, solver_settings(), config).expect("benchmark problems are valid");
    let result = fpga.solver.solve().expect("FPGA backend does not fail");
    let time = fpga.device_time(fpga.stats(), result.iterations);
    (result, time)
}

/// Produces the full [`Measurement`] for one benchmark problem.
pub fn measure_problem(bp: &BenchmarkProblem, opts: &HarnessOptions) -> Measurement {
    let problem = &bp.problem;
    let cpu = solve_cpu(problem);
    let gpu_model = GpuPerfModel::rtx3070();
    let gpu_time = gpu_model.solve_time(
        cpu.iterations,
        cpu.backend.cg_iterations,
        problem.num_vars(),
        problem.num_constraints(),
        problem.total_nnz(),
    );

    let customization = customize(problem, opts.c, opts.s_target);
    let (_, fpga_custom_time) = solve_fpga(problem, &customization.config);
    let (_, fpga_base_time) = solve_fpga(problem, &customization.baseline);

    Measurement {
        domain: bp.domain.name(),
        name: problem.name().to_string(),
        nnz: problem.total_nnz(),
        n: problem.num_vars(),
        m: problem.num_constraints(),
        cpu_time: cpu.timings.solve,
        cpu_kkt_fraction: cpu.timings.kkt_fraction(),
        admm_iters: cpu.iterations,
        cg_iters: cpu.backend.cg_iterations,
        gpu_time,
        gpu_power_w: gpu_model.power_w(problem.total_nnz()),
        fpga_base_time,
        fpga_custom_time,
        customization,
    }
}

/// Figure/table builders.
pub mod figures;

/// Ensures the `results/` output directory exists and returns the path of
/// `results/<name>`.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("can create results directory");
    dir.join(name)
}
