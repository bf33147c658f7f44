//! The four workloads. Each runs whole passes over its inputs until the
//! measured duration has elapsed, checks every answer, and records exact
//! counts in a [`Ledger`] so repeated passes must agree.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rsqp_arch::{ArchConfig, RunStats};
use rsqp_core::perf::fpga::FpgaPerfModel;
use rsqp_core::{customize, FpgaPcgBackend};
use rsqp_problems::control;
use rsqp_runtime::{
    CustomizationCache, JobSpec, ServiceConfig, SessionConfig, SolveService, SolveSession,
    StepUpdate,
};
use rsqp_solver::{
    BackendStats, CgTolerance, LinSysKind, QpProblem, Settings, SolveResult, SolveTrace, Solver,
    SolverError,
};
use rsqp_sparse::CsrMatrix;

use crate::affinity::PassPin;
use crate::check::{check_answer, Ledger};
use crate::inputs::{mix, Instance};
use crate::spans::Spans;

/// Datapath width `C` of the customized FPGA designs.
pub const FPGA_C: usize = 32;
/// Structure budget `|S|_target` of the customized FPGA designs.
pub const FPGA_S_TARGET: usize = 4;
/// States of the `control` problem the MPC session runs.
pub const MPC_SIZE: usize = 20;
/// Steps per MPC episode: the measured window is steps 1..=400 of a fresh
/// session, before cumulative ρ updates start to add refactorizations.
pub const MPC_WINDOW: usize = 400;
/// Every `MPC_MATRIX_EVERY`-th step also carries new `P`/`A` values.
pub const MPC_MATRIX_EVERY: usize = 10;
/// Set-up samples taken before each MPC episode (their median is the
/// episode's sample).
pub const MPC_SETUP_PER_EPISODE: usize = 3;
/// Instance id of the MPC session's problem.
pub const MPC_ID: &str = "control_mpc";

/// Named sums accumulated over a phase.
#[derive(Debug, Default)]
pub struct Sums(pub BTreeMap<&'static str, f64>);

impl Sums {
    /// Adds `v` to the sum named `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_default() += v;
    }

    /// The sum named `k` (0 when never added to).
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every completed operation, in µs.
    pub op_us: Vec<f64>,
    /// Which operation of the pass each `op_us` entry is (its problem's
    /// position, or its step number in the episode).
    pub op_key: Vec<usize>,
    /// Latency of MPC steps that carried a `Matrices` update, in µs.
    pub matrix_step_us: Vec<f64>,
    /// Set-up time samples, in seconds, one per pass.
    pub setup_s: Vec<f64>,
    /// The CPU each pass was pinned to (`None` when unpinned).
    pub pass_cpu: Vec<Option<usize>>,
    /// Whole passes (or episodes) completed.
    pub passes: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, did not solve, or failed
    /// the answer check.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Per-layer sums.
    pub sums: Sums,
    /// Spans, when the phase is traced.
    pub spans: Option<Spans>,
    /// Baseline / customized modelled device time of each problem of the
    /// first pass (FPGA workload).
    pub speedups: Vec<f64>,
    /// Runtime metrics reported by the service or session.
    pub runtime: Option<rsqp_runtime::MetricsSnapshot>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Checks one answer, counting a failure against `id` if it is wrong.
    fn check(&mut self, id: &str, problem: &QpProblem, r: &SolveResult) {
        if let Err(why) = check_answer(problem, r) {
            self.fail(format!("{id}: {why}"));
        }
    }
}

/// Work counters of one operation (deltas, for a persistent solver).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    iters: u64,
    rho: u64,
    backend: BackendStats,
}

impl Counts {
    fn of(r: &SolveResult) -> Self {
        Counts { iters: r.iterations as u64, rho: r.rho_updates as u64, backend: r.backend }
    }

    /// This step's share of cumulative counters. A counter below the
    /// previous reading means the solver was rebuilt, so it counts from 0.
    fn since(self, prev: Counts) -> Counts {
        let d = |now: usize, before: usize| if now >= before { now - before } else { now };
        Counts {
            iters: self.iters,
            rho: if self.rho >= prev.rho { self.rho - prev.rho } else { self.rho },
            backend: BackendStats {
                kkt_solves: d(self.backend.kkt_solves, prev.backend.kkt_solves),
                factorizations: d(self.backend.factorizations, prev.backend.factorizations),
                cg_iterations: d(self.backend.cg_iterations, prev.backend.cg_iterations),
                spmv_evals: d(self.backend.spmv_evals, prev.backend.spmv_evals),
            },
        }
    }

    fn record(&self, ledger: &mut Ledger, key: &str) {
        ledger.record(format!("{key}.admm_iters"), self.iters);
        ledger.record(format!("{key}.rho_updates"), self.rho);
        ledger.record(format!("{key}.factorizations"), self.backend.factorizations as u64);
        ledger.record(format!("{key}.cg_iters"), self.backend.cg_iterations as u64);
        ledger.record(format!("{key}.spmv_evals"), self.backend.spmv_evals as u64);
        ledger.record(format!("{key}.kkt_solves"), self.backend.kkt_solves as u64);
    }
}

/// Adds a solve's reported timings to the phase sums; `built` says whether
/// this solve's solver was constructed for it (its set-up counts).
fn add_timings(sums: &mut Sums, r: &SolveResult, built: bool) {
    sums.add("solves", 1.0);
    if built {
        sums.add("solver.builds", 1.0);
        sums.add("solver.setup_ns", r.timings.setup.as_nanos() as f64);
    }
    sums.add("solver.solve_ns", r.timings.solve.as_nanos() as f64);
    sums.add("solver.kkt_ns", r.timings.kkt_solve.as_nanos() as f64);
    sums.add("solver.iters", r.iterations as f64);
}

/// Places a solve's own trace spans under `parent`, nested by their
/// depth and aligned so the trace ends where the parent ends, and adds the
/// KKT time the per-iteration records report as a child of the ADMM loop.
fn import_trace(spans: &mut Spans, parent: usize, trace: Option<&SolveTrace>) {
    let Some(trace) = trace else { return };
    let end = trace.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let (parent_start, parent_end, op) = {
        let p = &spans.all()[parent];
        (p.start_ns, p.end_ns, p.op)
    };
    let mut ordered: Vec<_> = trace.spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.depth));
    // Index of the latest span seen at each depth.
    let mut open: Vec<usize> = Vec::new();
    for s in ordered {
        let name = match s.name.as_str() {
            "setup" => "solver.setup",
            "scaling" => "solver.scaling",
            "solve" => "solver.solve",
            "admm_loop" => "solver.admm_loop",
            "polish" => "solver.polish",
            _ => "solver.other",
        };
        let depth = s.depth as usize;
        let up = if depth == 0 { parent } else { open.get(depth - 1).copied().unwrap_or(parent) };
        let shift = |t: u64| (parent_end + t).saturating_sub(end).max(parent_start);
        let idx = spans.push(crate::spans::Span {
            name,
            start_ns: shift(s.start_ns),
            end_ns: shift(s.end_ns),
            parent: Some(up),
            op,
        });
        open.truncate(depth);
        open.push(idx);
        if name == "solver.admm_loop" {
            let kkt: u64 = trace.records.iter().map(|r| r.kkt_ns).sum();
            spans.push_tail("linsys.kkt", idx, kkt);
        }
    }
}

/// Runs `job(i)` for i = 0, 1, 2, … from `clients` threads, each waiting
/// for its job before taking the next, until `min` has elapsed and a
/// whole number of passes of `pass_len` jobs has been issued. Returns the
/// results in index order and the most jobs ever in flight at once.
pub fn closed_loop<R: Send>(
    clients: usize,
    pass_len: usize,
    min: Duration,
    job: impl Fn(usize) -> R + Sync,
) -> (Vec<R>, usize) {
    let deadline = Instant::now() + min;
    // (next index, stop index): a pass boundary after the deadline stops
    // the issue of new jobs for every client at once.
    let issue = Mutex::new((0usize, usize::MAX));
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let idx = {
                    let mut g = issue.lock().expect("issue lock is never poisoned");
                    if g.0 >= g.1 {
                        break;
                    }
                    if g.0 > 0 && g.0 % pass_len == 0 && Instant::now() >= deadline {
                        g.1 = g.0;
                        break;
                    }
                    g.0 += 1;
                    g.0 - 1
                };
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                max_in_flight.fetch_max(now, Ordering::SeqCst);
                let r = job(idx);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                results.lock().expect("results lock is never poisoned").push((idx, r));
            });
        }
    });
    let mut results = results.into_inner().expect("results lock is never poisoned");
    results.sort_by_key(|(i, _)| *i);
    (results.into_iter().map(|(_, r)| r).collect(), max_in_flight.into_inner())
}

fn default_settings(traced: bool) -> Settings {
    Settings { trace: traced, ..Settings::default() }
}

/// One job's outcome as seen by the closed-loop client.
struct JobOutcome {
    submit: Instant,
    submitted: Instant,
    done: Instant,
    result: Result<SolveResult, String>,
    attempts: usize,
}

/// `oneshot_service`: cold one-shot jobs through a [`SolveService`] with
/// `workers` workers, one kernel thread each, `workers` jobs in flight.
pub fn oneshot(
    set: &[Instance],
    min: Duration,
    workers: usize,
    traced: bool,
    origin: Instant,
    ledger: &mut Ledger,
) -> Phase {
    let mut phase = Phase::default();
    let t = Instant::now();
    let service = SolveService::new(ServiceConfig {
        workers,
        queue_capacity: 2 * workers,
        kernel_threads: Some(1),
    });
    let service_new_s = t.elapsed().as_secs_f64();
    let settings = default_settings(traced);
    let (outcomes, max_in_flight) = closed_loop(workers, set.len(), min, |i| {
        let problem = Arc::clone(&set[i % set.len()].problem);
        let spec = JobSpec::new(problem).with_settings(settings.clone());
        let submit = Instant::now();
        let handle = service.submit(spec);
        let submitted = Instant::now();
        let (result, attempts) = match handle {
            Ok(h) => {
                let report = h.wait();
                let attempts = report.attempts_used();
                (report.outcome.map_err(|e| e.to_string()), attempts)
            }
            Err(e) => (Err(format!("refused: {e}")), 0),
        };
        let done = Instant::now();
        // Check here and drop the solution vectors, so memory does not
        // grow with the number of jobs a run completes.
        let result = result.and_then(|mut r| {
            check_answer(&set[i % set.len()].problem, &r)?;
            (r.x, r.y, r.z) = (Vec::new(), Vec::new(), Vec::new());
            Ok(r)
        });
        JobOutcome { submit, submitted, done, result, attempts }
    });
    phase.runtime = Some(service.metrics_snapshot());
    service.shutdown();
    if max_in_flight > workers {
        ledger.mismatch(format!("{max_in_flight} jobs in flight with {workers} clients"));
    }

    phase.passes = outcomes.len() / set.len();
    let mut spans = traced.then(|| Spans::new(origin));
    let mut pass_setup = vec![service_new_s; phase.passes];
    for (i, o) in outcomes.iter().enumerate() {
        let inst = &set[i % set.len()];
        phase.attempted += 1;
        phase.op_us.push(o.done.duration_since(o.submit).as_secs_f64() * 1e6);
        phase.op_key.push(i % set.len());
        phase.sums.add("attempts", o.attempts as f64);
        let r = match &o.result {
            Ok(r) => r,
            Err(e) => {
                phase.fail(format!("{}: {e}", inst.id));
                continue;
            }
        };
        pass_setup[i / set.len()] += r.timings.setup.as_secs_f64();
        add_timings(&mut phase.sums, r, true);
        Counts::of(r).record(ledger, &inst.id);
        if let Some(sp) = spans.as_mut() {
            let op = sp.record("service.job", o.submit, o.done, None, i as u64);
            sp.record("runtime.submit", o.submit, o.submitted, Some(op), i as u64);
            let wait = sp.record("runtime.wait", o.submitted, o.done, Some(op), i as u64);
            import_trace(sp, wait, r.trace.as_ref());
        }
    }
    phase.setup_s = pass_setup;
    phase.pass_cpu = vec![None; phase.passes];
    phase.spans = spans;
    phase
}

fn pcg_settings(threads: usize, traced: bool) -> Settings {
    Settings { linsys: LinSysKind::CpuPcg, threads, trace: traced, ..Settings::default() }
}

/// `pcg_cold`: sequential cold `Solver::new` + `solve` with the CPU PCG
/// backend on `threads` kernel threads (0 = one per core).
pub fn pcg_cold(
    set: &[Instance],
    min: Duration,
    threads: usize,
    traced: bool,
    origin: Instant,
    ledger: &mut Ledger,
) -> Phase {
    let mut phase = Phase::default();
    let mut spans = traced.then(|| Spans::new(origin));
    let settings = pcg_settings(threads, traced);
    let started = Instant::now();
    loop {
        let mut setup = 0.0;
        for (key, inst) in set.iter().enumerate() {
            let op = phase.op_us.len() as u64;
            phase.attempted += 1;
            let t0 = Instant::now();
            let solver = Solver::new(&inst.problem, settings.clone());
            let t1 = Instant::now();
            let result = solver.and_then(|mut s| s.solve());
            let t2 = Instant::now();
            phase.op_us.push(t2.duration_since(t0).as_secs_f64() * 1e6);
            phase.op_key.push(key);
            setup += t1.duration_since(t0).as_secs_f64();
            phase.sums.add("attempts", 1.0);
            match result {
                Ok(r) => {
                    phase.check(&inst.id, &inst.problem, &r);
                    add_timings(&mut phase.sums, &r, true);
                    Counts::of(&r).record(ledger, &inst.id);
                    if let Some(sp) = spans.as_mut() {
                        let root = sp.record("op", t0, t2, None, op);
                        sp.record("solver.new", t0, t1, Some(root), op);
                        sp.record("solver.solve_call", t1, t2, Some(root), op);
                        // The trace covers construction and solve, so it
                        // sits under the whole operation.
                        import_trace(sp, root, r.trace.as_ref());
                    }
                }
                Err(e) => phase.fail(format!("{}: {e}", inst.id)),
            }
        }
        phase.setup_s.push(setup);
        phase.pass_cpu.push(None);
        phase.passes += 1;
        if started.elapsed() >= min {
            break;
        }
    }
    phase.spans = spans;
    phase
}

/// The MPC step inputs: one initial state per step, and the matrix values
/// the `Matrices` steps cycle through.
pub struct MpcStream {
    /// The session's first problem.
    pub base: Arc<QpProblem>,
    bounds: Vec<(Vec<f64>, Vec<f64>)>,
    matrices: Vec<(CsrMatrix, CsrMatrix)>,
}

impl MpcStream {
    /// Generates the stream: the dynamics come from `instance_seed` (the
    /// base problem and the matrix values the `Matrices` steps cycle
    /// through), the initial state of every step from `seed`.
    pub fn new(seed: u64, instance_seed: u64) -> Self {
        let base = control::generate(MPC_SIZE, mix(instance_seed, 100, 0));
        let nx = MPC_SIZE;
        let bounds = (0..MPC_WINDOW)
            .map(|k| {
                let (mut l, mut u) = (base.l().to_vec(), base.u().to_vec());
                for i in 0..nx {
                    let x0 = 0.5 * normal(mix(seed, 101 + k as u64, i as u64));
                    l[i] = x0;
                    u[i] = x0;
                }
                (l, u)
            })
            .collect();
        let matrices = (0..MPC_WINDOW / MPC_MATRIX_EVERY)
            .map(|j| {
                let other = control::generate(MPC_SIZE, mix(instance_seed, 200, j as u64));
                (other.p().clone(), other.a().clone())
            })
            .collect();
        MpcStream { base: Arc::new(base), bounds, matrices }
    }

    /// The updates carried by step `k` (0-based) of an episode.
    fn updates(&self, k: usize) -> (Vec<StepUpdate>, bool) {
        let (l, u) = self.bounds[k].clone();
        let mut updates = vec![StepUpdate::Bounds { l, u }];
        let matrix_step = k % MPC_MATRIX_EVERY == MPC_MATRIX_EVERY - 1;
        if matrix_step {
            let (p, a) = self.matrices[k / MPC_MATRIX_EVERY].clone();
            updates.push(StepUpdate::Matrices { p: Some(p), a: Some(a) });
        }
        (updates, matrix_step)
    }

    /// Applies step `k`'s updates to `problem`, as the session applies
    /// them to the instance it holds.
    fn apply(&self, k: usize, problem: &mut QpProblem) {
        if k % MPC_MATRIX_EVERY == MPC_MATRIX_EVERY - 1 {
            let (p, a) = self.matrices[k / MPC_MATRIX_EVERY].clone();
            problem.update_matrices(Some(p), Some(a)).expect("stream matrices share the pattern");
        }
        let (l, u) = self.bounds[k].clone();
        problem.update_bounds(l, u).expect("stream bounds are valid");
    }
}

/// A standard normal deviate from one 64-bit seed (Box–Muller).
fn normal(bits: u64) -> f64 {
    let u1 = ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let u2 = ((mix(bits, 1, 1) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn session(stream: &MpcStream, cache: &Arc<CustomizationCache>, traced: bool) -> SolveSession {
    let config = SessionConfig::default()
        .with_settings(default_settings(traced))
        .with_cache(Arc::clone(cache));
    SolveSession::new(Arc::clone(&stream.base), config)
}

/// `mpc_session`: episodes of [`MPC_WINDOW`] steps. Before each episode a
/// set-up sample opens a session on a fresh cache and takes its first,
/// cache-missing step on the base problem; the episode then runs a new
/// session on that (now warm) cache.
pub fn mpc(
    stream: &MpcStream,
    min: Duration,
    traced: bool,
    origin: Instant,
    ledger: &mut Ledger,
) -> Phase {
    let mut phase = Phase::default();
    let mut spans = traced.then(|| Spans::new(origin));
    let started = Instant::now();
    while phase.passes == 0 || started.elapsed() < min {
        let pin = PassPin::new(phase.passes);
        phase.pass_cpu.push(pin.cpu);
        let mut setup = Vec::new();
        let mut cache = Arc::new(CustomizationCache::new(4));
        for _ in 0..MPC_SETUP_PER_EPISODE {
            cache = Arc::new(CustomizationCache::new(4));
            phase.attempted += 1;
            let t0 = Instant::now();
            let mut s = session(stream, &cache, traced);
            let step = s.step(Vec::new());
            setup.push(t0.elapsed().as_secs_f64());
            match step {
                Ok(rep) => phase.check("set-up step", &stream.base, &rep.result),
                Err(e) => phase.fail(format!("set-up step: {e}")),
            }
            ledger.record("setup.cache_misses".into(), cache.misses());
        }
        phase.setup_s.push(crate::stats::median(&setup));

        let (hits0, misses0) = (cache.hits(), cache.misses());
        let mut s = session(stream, &cache, traced);
        let (mut prev, mut total) = (Counts::default(), Counts::default());
        // The instance the session holds, updated alongside it for the
        // answer check.
        let mut answer = (*stream.base).clone();
        for k in 0..MPC_WINDOW {
            let op = phase.op_us.len() as u64;
            let (updates, matrix_step) = stream.updates(k);
            phase.attempted += 1;
            let t0 = Instant::now();
            let step = s.step(updates);
            let t1 = Instant::now();
            let us = t1.duration_since(t0).as_secs_f64() * 1e6;
            phase.op_us.push(us);
            phase.op_key.push(k);
            if matrix_step {
                phase.matrix_step_us.push(us);
            }
            stream.apply(k, &mut answer);
            let rep = match step {
                Ok(rep) => rep,
                Err(e) => {
                    phase.fail(format!("step {}: {e}", k + 1));
                    continue;
                }
            };
            let r = &rep.result;
            phase.check(&format!("step {}", k + 1), &answer, r);
            phase.sums.add("attempts", rep.attempts.len() as f64);
            phase.sums.add("session.overhead_ns", (us * 1e3) - r.timings.solve.as_nanos() as f64);
            add_timings(&mut phase.sums, r, k == 0);
            let now = Counts::of(r);
            let d = now.since(prev);
            prev = now;
            total.iters += d.iters;
            total.rho += d.rho;
            total.backend = total.backend.merged(d.backend);
            if let Some(sp) = spans.as_mut() {
                let root = sp.record("session.step", t0, t1, None, op);
                import_trace(sp, root, r.trace.as_ref());
            }
        }
        total.record(ledger, MPC_ID);
        ledger.record(format!("{MPC_ID}.cache_hits"), cache.hits() - hits0);
        ledger.record(format!("{MPC_ID}.cache_misses"), cache.misses() - misses0);
        phase.runtime = Some(s.metrics().snapshot());
        phase.passes += 1;
    }
    phase.spans = spans;
    phase
}

/// A simulated-FPGA solve: the result, the machine's run statistics, the
/// modelled device time, and the host time the simulation took.
pub struct FpgaSolve {
    /// The solver's result.
    pub result: Result<SolveResult, SolverError>,
    /// Machine statistics of the whole solve.
    pub stats: RunStats,
    /// Modelled end-to-end device time, in seconds.
    pub device_s: f64,
}

/// Solves `problem` on the cycle-level machine configured by `config`.
pub fn solve_fpga(problem: &QpProblem, config: &ArchConfig, settings: &Settings) -> FpgaSolve {
    let mut handle = None;
    let mut outer = 0u64;
    let solver = Solver::with_backend(problem, settings.clone(), &mut |p, a, sigma, rho, s| {
        let eps = match s.cg_tolerance {
            CgTolerance::Fixed(e) => e,
            CgTolerance::Adaptive { start, .. } => start,
        };
        let (b, h) = FpgaPcgBackend::new(p, a, sigma, rho, config.clone(), eps, s.cg_max_iter);
        outer = b.outer_cycles_per_iteration();
        handle = Some(h);
        Ok(Box::new(b))
    });
    let result = solver.and_then(|mut s| s.solve());
    let stats = handle.map(|h| h.borrow().stats()).unwrap_or_default();
    let device_s = match &result {
        Ok(r) => FpgaPerfModel::from_config(config)
            .solve_time(stats, r.iterations, outer, problem.num_vars(), problem.num_constraints())
            .as_secs_f64(),
        Err(_) => 0.0,
    };
    FpgaSolve { result, stats, device_s }
}

/// `fpga_custom`: per problem, `customize(C, S_target)`, then a simulated
/// solve on the customized and on the baseline architecture.
pub fn fpga(
    set: &[Instance],
    min: Duration,
    traced: bool,
    origin: Instant,
    ledger: &mut Ledger,
) -> Phase {
    let mut phase = Phase::default();
    let mut spans = traced.then(|| Spans::new(origin));
    let settings = default_settings(traced);
    let started = Instant::now();
    loop {
        let pin = PassPin::new(phase.passes);
        phase.pass_cpu.push(pin.cpu);
        let mut setup = 0.0;
        for (key, inst) in set.iter().enumerate() {
            let op = phase.op_us.len() as u64;
            phase.attempted += 1;
            let t0 = Instant::now();
            let cust = customize(&inst.problem, FPGA_C, FPGA_S_TARGET);
            let t1 = Instant::now();
            let custom = solve_fpga(&inst.problem, &cust.config, &settings);
            let t2 = Instant::now();
            let base = solve_fpga(&inst.problem, &cust.baseline, &settings);
            let t3 = Instant::now();
            phase.op_us.push(t3.duration_since(t0).as_secs_f64() * 1e6);
            phase.op_key.push(key);
            setup += t1.duration_since(t0).as_secs_f64();
            phase.sums.add("attempts", 2.0);
            phase.sums.add("sim.host_ns", t3.duration_since(t1).as_nanos() as f64);
            phase.sums.add("sim.custom_host_ns", t2.duration_since(t1).as_nanos() as f64);
            let (rc, rb) = match (&custom.result, &base.result) {
                (Ok(rc), Ok(rb)) => (rc, rb),
                (Err(e), _) | (_, Err(e)) => {
                    phase.fail(format!("{}: {e}", inst.id));
                    continue;
                }
            };
            let checked =
                check_answer(&inst.problem, rc).map_err(|why| format!("custom: {why}")).and_then(
                    |()| check_answer(&inst.problem, rb).map_err(|why| format!("baseline: {why}")),
                );
            if let Err(why) = checked {
                phase.fail(format!("{}: {why}", inst.id));
            }
            add_timings(&mut phase.sums, rc, true);
            Counts::of(rc).record(ledger, &inst.id);
            let s = custom.stats;
            let b = &s.breakdown;
            for (k, v) in [
                ("sim_cycles", s.cycles),
                ("baseline_cycles", base.stats.cycles),
                ("cycles_spmv", b.spmv),
                ("cycles_vector", b.vector),
                ("cycles_duplication", b.duplication),
                ("cycles_scalar", b.scalar),
                ("cycles_transfer", b.transfer),
                ("cycles_control", b.control),
                ("hbm_bytes", s.hbm_bytes),
                ("instructions", s.instructions),
            ] {
                ledger.record(format!("{}.{k}", inst.id), v);
            }
            // Device times are exact functions of the counts above; keep
            // their bits so a change in the time model shows too.
            ledger.record(format!("{}.custom_device_s_bits", inst.id), custom.device_s.to_bits());
            ledger.record(format!("{}.baseline_device_s_bits", inst.id), base.device_s.to_bits());
            if phase.passes == 0 {
                phase.speedups.push(base.device_s / custom.device_s);
            }
            if let Some(sp) = spans.as_mut() {
                let root = sp.record("op", t0, t3, None, op);
                sp.record("core.customize", t0, t1, Some(root), op);
                let c = sp.record("arch.solve_custom", t1, t2, Some(root), op);
                import_trace(sp, c, rc.trace.as_ref());
                let b = sp.record("arch.solve_baseline", t2, t3, Some(root), op);
                import_trace(sp, b, rb.trace.as_ref());
            }
        }
        phase.setup_s.push(setup);
        phase.passes += 1;
        if started.elapsed() >= min {
            break;
        }
    }
    phase.spans = spans;
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_never_exceeds_its_clients_and_issues_whole_passes() {
        let live = AtomicUsize::new(0);
        let seen_max = AtomicUsize::new(0);
        let (out, max_in_flight) = closed_loop(3, 5, Duration::from_millis(30), |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            seen_max.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200 + 300 * (i as u64 % 3)));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(max_in_flight <= 3, "{max_in_flight} in flight");
        assert!(seen_max.load(Ordering::SeqCst) <= 3);
        assert!(max_in_flight >= 2, "the clients never overlapped");
        assert!(!out.is_empty() && out.len() % 5 == 0, "{} jobs", out.len());
        assert_eq!(out, (0..out.len()).collect::<Vec<_>>());
    }

    #[test]
    fn a_rebuilt_solver_counts_from_zero() {
        let before = Counts {
            iters: 9,
            rho: 5,
            backend: BackendStats { factorizations: 4, ..Default::default() },
        };
        let after = Counts {
            iters: 7,
            rho: 1,
            backend: BackendStats { factorizations: 6, ..Default::default() },
        };
        let d = after.since(before);
        assert_eq!((d.iters, d.rho, d.backend.factorizations), (7, 1, 2));
    }

    #[test]
    fn mpc_stream_steps_carry_matrices_every_tenth_step() {
        let stream = MpcStream::new(3, 4);
        let (u0, m0) = stream.updates(0);
        assert_eq!((u0.len(), m0), (1, false));
        let (u9, m9) = stream.updates(MPC_MATRIX_EVERY - 1);
        assert_eq!((u9.len(), m9), (2, true));
        let mut p = (*stream.base).clone();
        for k in 0..MPC_MATRIX_EVERY {
            stream.apply(k, &mut p);
        }
        assert_eq!(p.l()[0], stream.bounds[MPC_MATRIX_EVERY - 1].0[0]);
        assert_ne!(p.a().data(), stream.base.a().data());
        assert_eq!(p.a().indices(), stream.base.a().indices());
    }
}
