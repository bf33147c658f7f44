//! The repository's benchmark: four workloads over the RSQP workspace,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `perfbench/README.md` for the workloads, the metrics
//! and what each per-layer metric is predicted to move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <record.tsv> <record.tsv>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A full record
//! (fingerprint, exact counts, metrics and, when traced, every span) is
//! written under `.bench_out/perfbench/`.

mod affinity;
mod check;
mod inputs;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rsqp_core::customize;
use rsqp_solver::{CgTolerance, LinSysKind, QpProblem, Settings, Solver};

use check::Ledger;
use inputs::{check_held_out, family_set, held_out, Fingerprint, Instance, SUITE_SEED};
use stats::{bucket_percentile, geomean, median, percentile, tail_percentile};
use workloads::{MpcStream, Phase, FPGA_C, FPGA_S_TARGET};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["oneshot_service", "pcg_cold", "mpc_session", "fpga_custom"];

/// Where run records are written, relative to the directory the
/// benchmark runs from.
const OUT_DIR: &str = ".bench_out/perfbench";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    if kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// The workload's inputs: the problems it solves (one per family and size,
/// or the MPC base problem) and, for `mpc_session`, the step stream.
struct Inputs {
    set: Vec<Instance>,
    held_out: Vec<Instance>,
    stream: Option<MpcStream>,
}

fn inputs(workload: &str, seed: u64) -> Inputs {
    let indices: &[usize] = match workload {
        "oneshot_service" => &[4, 8, 12, 16],
        "pcg_cold" => &[6, 9, 12],
        "fpga_custom" => &[3, 6, 9],
        _ => {
            let stream = MpcStream::new(seed, SUITE_SEED);
            let other = MpcStream::new(seed, held_out(seed));
            let one = |s: &MpcStream| {
                vec![Instance { id: workloads::MPC_ID.into(), problem: Arc::clone(&s.base) }]
            };
            return Inputs { set: one(&stream), held_out: one(&other), stream: Some(stream) };
        }
    };
    Inputs {
        set: family_set(seed, SUITE_SEED, indices),
        held_out: family_set(seed, held_out(seed), indices),
        stream: None,
    }
}

/// Runs one measured phase of the workload.
fn run_phase(
    workload: &str,
    inp: &Inputs,
    min: Duration,
    nproc: usize,
    traced: bool,
    origin: Instant,
    ledger: &mut Ledger,
) -> Phase {
    match workload {
        "oneshot_service" => workloads::oneshot(&inp.set, min, nproc, traced, origin, ledger),
        "pcg_cold" => workloads::pcg_cold(&inp.set, min, 0, traced, origin, ledger),
        "mpc_session" => {
            let stream = inp.stream.as_ref().expect("mpc inputs carry a stream");
            workloads::mpc(stream, min, traced, origin, ledger)
        }
        _ => workloads::fpga(&inp.set, min, traced, origin, ledger),
    }
}

/// Process high-water resident set size, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Each operation's latency over the phase's passes, in µs. An operation
/// that runs on one thread does the same deterministic work every pass,
/// so a slower repeat was slowed from outside and its best repeat is kept;
/// for one that runs on a thread pool the fastest repeat is an extreme of
/// thread scheduling, so its median repeat is kept.
fn op_latencies(phase: &Phase, pooled: bool) -> Vec<f64> {
    let mut per_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&k, &us) in phase.op_key.iter().zip(&phase.op_us) {
        per_op.entry(k).or_default().push(us);
    }
    per_op
        .into_values()
        .map(|v| if pooled { median(&v) } else { v.into_iter().fold(f64::INFINITY, f64::min) })
        .collect()
}

/// Median set-up time, per CPU for pinned passes, on the CPU where it is
/// lowest (all samples when the passes were not pinned).
fn setup_s(phase: &Phase) -> f64 {
    let mut by_cpu: BTreeMap<Option<usize>, Vec<f64>> = BTreeMap::new();
    for (&cpu, &setup) in phase.pass_cpu.iter().zip(&phase.setup_s) {
        by_cpu.entry(cpu).or_default().push(setup);
    }
    by_cpu.values().map(|samples| median(samples)).fold(f64::INFINITY, f64::min)
}

/// End-to-end metrics of an untraced phase run by `clients` closed-loop
/// clients; every pass repeats the same operations, which run on a thread
/// pool when `pooled`.
fn end_to_end(
    phase: &Phase,
    clients: usize,
    pooled: bool,
    report: &mut Report,
    notes: &mut String,
) {
    let op_us = op_latencies(phase, pooled);
    let per_pass = op_us.len();
    // Little's law for a closed loop without think time: `clients`
    // operations always in flight.
    let pass_s = op_us.iter().sum::<f64>() * 1e-6 / clients as f64;
    let _ = writeln!(
        notes,
        "{} operations ({per_pass} distinct) in {} passes ({}), {} set-up samples",
        phase.op_us.len(),
        phase.passes,
        if pooled { "median repeat" } else { "best repeat" },
        phase.setup_s.len()
    );
    report.put("setup_s", setup_s(phase), "s");
    report.put("ops_per_s", per_pass as f64 / pass_s, "1/s");
    report.put("op_p50_us", percentile(&op_us, 50.0), "us");
    report.put("op_p90_us", percentile(&op_us, 90.0), "us");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Σ of every exact count whose key ends in `.<name>`.
fn total(ledger: &Ledger, name: &str) -> f64 {
    let suffix = format!(".{name}");
    // Starts from +0.0: an empty f64 sum is -0.0.
    ledger
        .counts()
        .iter()
        .filter(|(k, _)| k.ends_with(&suffix))
        .fold(0.0, |acc, (_, &v)| acc + v as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Cross-checks objectives of the direct, the indirect and the simulated
/// FPGA backend on the same instances, solved to the workspace
/// differential suite's 1e-8. That suite demands 1e-6 relative agreement
/// at its two smallest sizes; at the sizes the workloads run, a portfolio
/// instance converged to a 1.3e-6 gap (and 1e-10 runs PCG into its
/// iteration cap), so the agreement demanded here is 1e-5.
fn cross_check(problems: &[&QpProblem]) -> Vec<String> {
    let tight = Settings {
        eps_abs: 1e-8,
        eps_rel: 1e-8,
        cg_tolerance: CgTolerance::Fixed(1e-12),
        max_iter: 200_000,
        ..Settings::default()
    };
    let mut errors = Vec::new();
    for problem in problems {
        let solve = |s: Settings| Solver::new(problem, s).and_then(|mut s| s.solve());
        let ldlt = solve(tight.clone());
        let pcg = solve(Settings { linsys: LinSysKind::CpuPcg, threads: 1, ..tight.clone() });
        let config = customize(problem, FPGA_C, FPGA_S_TARGET).config;
        let fpga = workloads::solve_fpga(problem, &config, &tight).result;
        match (ldlt, pcg, fpga) {
            (Ok(a), Ok(b), Ok(c)) => {
                let tol = 1e-5 * (1.0 + a.objective.abs());
                for (name, r) in [("pcg", &b), ("fpga", &c)] {
                    if (r.objective - a.objective).abs() > tol || !r.status.is_solved() {
                        errors.push(format!(
                            "{}: {name} objective {} ({:?}) vs ldlt {} ({:?})",
                            problem.name(),
                            r.objective,
                            r.status,
                            a.objective,
                            a.status
                        ));
                    }
                }
            }
            (a, b, c) => errors.push(format!(
                "{}: cross-check solve failed: {:?} {:?} {:?}",
                problem.name(),
                a.err(),
                b.err(),
                c.err()
            )),
        }
    }
    errors
}

/// Per-layer metrics of a traced run: `u` is its untraced half, `t` its
/// traced half.
fn per_layer(
    workload: &str,
    inp: &Inputs,
    u: &Phase,
    t: &Phase,
    ledger: &Ledger,
    nproc: usize,
    report: &mut Report,
) {
    let problems: Vec<&QpProblem> = inp.set.iter().map(|i| &*i.problem).collect();
    let (lin, lin_each) = replay::linear_kernels(&problems, nproc);
    let cust = replay::customization_kernels(&problems);
    let k = |m: &BTreeMap<&'static str, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
    let passes = t.passes.max(1) as f64;

    for name in
        ["sparse.spmv_p_us", "sparse.spmv_a_us", "sparse.at_gather_us", "sparse.at_scatter_us"]
    {
        report.put(name, k(&lin, name), "us");
    }
    report.put("sparse.spmv_gbps_computed", k(&lin, "sparse.spmv_gbps_computed"), "GB/s");
    report.put("sparse.spmv_evals", total(ledger, "spmv_evals"), "count");
    report.put("par.spmv_speedup", k(&lin, "par.spmv_speedup"), "ratio");
    report.put("par.kkt_apply_speedup", k(&lin, "par.kkt_apply_speedup"), "ratio");

    report.put("linsys.kkt_apply_us", k(&lin, "linsys.kkt_apply_us"), "us");
    report.put("linsys.pcg_call_us", k(&lin, "linsys.pcg_call_us"), "us");
    let cg = total(ledger, "cg_iters");
    report.put("linsys.cg_iters", cg, "count");
    report.put("linsys.cg_per_kkt", ratio(cg, total(ledger, "kkt_solves")), "ratio");
    report.put("linsys.ordering_us", k(&lin, "linsys.ordering_us"), "us");
    report.put("linsys.factor_us", k(&lin, "linsys.factor_us"), "us");
    report.put("linsys.ldlt_solve_us", k(&lin, "linsys.ldlt_solve_us"), "us");

    let s = &t.sums;
    report.put(
        "solver.setup_us",
        ratio(s.get("solver.setup_ns"), s.get("solver.builds")) / 1e3,
        "us",
    );
    report.put("solver.solve_us", ratio(s.get("solver.solve_ns"), s.get("solves")) / 1e3, "us");
    report.put(
        "solver.kkt_fraction",
        ratio(s.get("solver.kkt_ns"), s.get("solver.solve_ns")),
        "ratio",
    );
    report.put(
        "solver.iter_us",
        ratio(s.get("solver.solve_ns"), s.get("solver.iters")) / 1e3,
        "us",
    );
    report.put("solver.admm_iters", total(ledger, "admm_iters"), "count");
    report.put("solver.rho_updates", total(ledger, "rho_updates"), "count");
    report.put("solver.factorizations", total(ledger, "factorizations"), "count");

    report.put("core.customize_ms", k(&cust, "core.customize_ms"), "ms");
    report.put("core.cache_hits", total(ledger, "cache_hits"), "count");
    report.put("core.cache_misses", total(ledger, "cache_misses"), "count");
    report.put("core.cache_hit_us", k(&cust, "core.cache_hit_us"), "us");
    report.put("core.eta_custom", k(&cust, "core.eta_custom"), "ratio");
    report.put("core.eta_baseline", k(&cust, "core.eta_baseline"), "ratio");
    report.put("encode.search_ms", k(&cust, "encode.search_ms"), "ms");
    report.put("encode.padding_frac", k(&cust, "encode.padding_frac"), "ratio");
    report.put("cvb.first_fit_ms", k(&cust, "cvb.first_fit_ms"), "ms");
    report.put("cvb.dup_cost", k(&cust, "cvb.dup_cost"), "ratio");

    for (name, count) in [
        ("arch.cycles_spmv", "cycles_spmv"),
        ("arch.cycles_vector", "cycles_vector"),
        ("arch.cycles_duplication", "cycles_duplication"),
        ("arch.cycles_scalar", "cycles_scalar"),
        ("arch.cycles_transfer", "cycles_transfer"),
        ("arch.cycles_control", "cycles_control"),
    ] {
        report.put(name, total(ledger, count), "cycles");
    }
    report.put("arch.hbm_bytes", total(ledger, "hbm_bytes"), "bytes");
    report.put("arch.instructions", total(ledger, "instructions"), "count");
    let sim_cycles = total(ledger, "sim_cycles");
    let custom_host_ns = u.sums.get("sim.custom_host_ns") / u.passes.max(1) as f64;
    report.put("arch.host_ns_per_cycle", ratio(custom_host_ns, sim_cycles), "ns/cycle");

    let hist = |name: &str, p: f64| {
        t.runtime
            .as_ref()
            .and_then(|r| r.histograms.get(name))
            .map_or(0.0, |h| bucket_percentile(&h.buckets, p))
    };
    report.put("runtime.queue_wait_p50_us", hist("queue_wait_us", 50.0), "us");
    report.put("runtime.queue_wait_p90_us", hist("queue_wait_us", 90.0), "us");
    report.put("runtime.exec_p50_us", hist("exec_time_us", 50.0), "us");
    let exec_mean =
        t.runtime.as_ref().and_then(|r| r.histograms.get("exec_time_us")).map_or(0.0, |h| h.mean());
    let job_overhead = if workload == "oneshot_service" {
        exec_mean
            - ratio(s.get("solver.setup_ns") + s.get("solver.solve_ns"), s.get("solves")) / 1e3
    } else {
        0.0
    };
    report.put("runtime.job_overhead_us", job_overhead, "us");
    report.put(
        "runtime.session_overhead_us",
        ratio(s.get("session.overhead_ns"), s.get("solves")) / 1e3,
        "us",
    );
    report.put("runtime.attempts_per_op", ratio(s.get("attempts"), t.attempted as f64), "ratio");

    report.put("obs.trace_overhead", ratio(median(&t.op_us), median(&u.op_us)), "ratio");

    let p99 = match tail_percentile(u.op_us.len()) {
        Some(p) if p >= 99.0 => percentile(&u.op_us, 99.0),
        _ => 0.0,
    };
    report.put("op_p99_us", p99, "us");
    report.put("matrix_step_p50_us", median(&u.matrix_step_us), "us");
    report.put("sim_cycles", sim_cycles, "cycles");
    report.put("custom_speedup", geomean(&u.speedups), "ratio");
    let simulated = (sim_cycles + total(ledger, "baseline_cycles")) * u.passes as f64;
    report.put(
        "sim_mcycles_per_host_s",
        ratio(simulated, u.sums.get("sim.host_ns") * 1e-9) / 1e6,
        "Mcycles/s",
    );
    report.put(
        "fail_frac",
        ratio((u.failed + t.failed) as f64, (u.attempted + t.attempted) as f64),
        "ratio",
    );

    // How much of the traced operation time the recorded child spans
    // cover, and how much the replayed kernels account for at the call
    // counts the backends reported.
    let (mut root_self, mut root_total) = (0u64, 0u64);
    if let Some(sp) = &t.spans {
        for (span, self_ns) in sp.all().iter().zip(sp.self_times_ns()) {
            if span.parent.is_none() {
                root_self += self_ns;
                root_total += span.end_ns - span.start_ns;
            }
        }
    }
    report.put("trace.span_coverage", 1.0 - ratio(root_self as f64, root_total as f64), "ratio");
    let op_us_per_pass = t.op_us.iter().sum::<f64>() / passes;
    // Replayed kernel time at the counts each problem's backend reported:
    // SpMVs, numeric factorizations, triangular solves of the direct
    // method, and one ordering per cold direct solve. The simulated FPGA
    // runs none of these kernels on the host.
    let mut replayed = 0.0;
    if workload != "fpga_custom" {
        for (inst, times) in inp.set.iter().zip(&lin_each) {
            let count = |c: &str| {
                ledger.counts().get(&format!("{}.{c}", inst.id)).map_or(0.0, |&v| v as f64)
            };
            let per_eval = (k(times, "sparse.spmv_p_us")
                + k(times, "sparse.spmv_a_us")
                + k(times, "sparse.at_gather_us"))
                / 3.0;
            let direct = count("cg_iters") == 0.0;
            replayed += count("spmv_evals") * per_eval
                + count("factorizations") * k(times, "linsys.factor_us");
            if direct {
                replayed += count("kkt_solves") * k(times, "linsys.ldlt_solve_us");
            }
            if workload == "oneshot_service" {
                replayed += k(times, "linsys.ordering_us");
            }
        }
    }
    report.put("trace.replay_coverage", ratio(replayed, op_us_per_pass), "ratio");
}

/// Writes the run record and returns its path.
fn write_record(
    args: &Args,
    fp: &Fingerprint,
    ledger: &Ledger,
    report: &Report,
    phases: &[&Phase],
) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path =
        format!("{OUT_DIR}/{}-seed{}-trace{}.tsv", args.workload, args.seed, u8::from(args.trace));
    let mut out = inputs::fingerprint_tsv(fp);
    for (k, v) in ledger.counts() {
        let _ = writeln!(out, "exact\t{k}\t{v}");
    }
    for m in &report.metrics {
        let _ = writeln!(out, "metric\t{}\t{}\t{}", m.name, m.value, m.unit);
    }
    for why in ledger.mismatches() {
        let _ = writeln!(out, "mismatch\t{why}");
    }
    for p in phases {
        for why in &p.failures {
            let _ = writeln!(out, "failure\t{why}");
        }
        if let Some(sp) = &p.spans {
            out.push_str(&sp.to_tsv());
        }
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let origin = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inp = inputs(args.workload, args.seed);
    let mut ledger = Ledger::default();
    if let Err(e) = check_held_out(&inp.set, &inp.held_out) {
        ledger.mismatch(e);
    }
    let fp = Fingerprint::new(args.workload, args.seed, nproc, &inp.set);
    let mut report = Report::default();
    let mut notes = String::new();
    let measured = Duration::from_secs_f64(args.seconds);

    let phases: Vec<Phase> = if args.trace {
        let half = measured / 2;
        let u = run_phase(args.workload, &inp, half, nproc, false, origin, &mut ledger);
        let t = run_phase(args.workload, &inp, half, nproc, true, origin, &mut ledger);
        // Exact counts must not depend on the pool size: one more pass
        // with a single worker or kernel thread must reproduce them.
        let mut single = Ledger::default();
        let one = match args.workload {
            "oneshot_service" => {
                Some(workloads::oneshot(&inp.set, Duration::ZERO, 1, false, origin, &mut single))
            }
            "pcg_cold" => {
                Some(workloads::pcg_cold(&inp.set, Duration::ZERO, 1, false, origin, &mut single))
            }
            _ => None,
        };
        ledger.compare(&single, "on one thread");
        // Objectives agree across the three backends on the smallest
        // instance of each family the workload runs.
        let mut smallest: BTreeMap<&str, &QpProblem> = BTreeMap::new();
        for inst in &inp.set {
            let family = inst.id.split('_').next().unwrap_or_default();
            let p = smallest.entry(family).or_insert(&inst.problem);
            if inst.problem.total_nnz() < p.total_nnz() {
                *p = &inst.problem;
            }
        }
        for e in cross_check(&smallest.into_values().collect::<Vec<_>>()) {
            ledger.mismatch(e);
        }
        per_layer(args.workload, &inp, &u, &t, &ledger, nproc, &mut report);
        if let Some(sp) = &t.spans {
            let _ = writeln!(notes, "traced spans: name, self ms, total ms");
            for (name, (self_ns, total_ns)) in sp.by_name() {
                let _ = writeln!(
                    notes,
                    "  {name:<22} {:>10.3} {:>10.3}",
                    self_ns as f64 / 1e6,
                    total_ns as f64 / 1e6
                );
            }
        }
        [Some(u), Some(t), one].into_iter().flatten().collect()
    } else {
        let p = run_phase(args.workload, &inp, measured, nproc, false, origin, &mut ledger);
        let clients = if args.workload == "oneshot_service" { nproc } else { 1 };
        end_to_end(&p, clients, args.workload == "pcg_cold", &mut report, &mut notes);
        vec![p]
    };
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let refs: Vec<&Phase> = phases.iter().collect();
    let path = write_record(args, &fp, &ledger, &report, &refs).map_err(|e| e.to_string())?;
    let correct = failed == 0 && ledger.mismatches().is_empty();
    for p in &phases {
        for why in &p.failures {
            eprintln!("failure: {why}");
        }
    }
    for why in ledger.mismatches() {
        eprintln!("mismatch: {why}");
    }
    print!("{notes}");
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("record: {path}");
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(correct)
}

/// A run record read back: fingerprint, exact counts and metrics.
#[derive(Default)]
struct Record {
    fingerprint: Vec<(String, String)>,
    exact: BTreeMap<String, String>,
    metrics: Vec<(String, f64, String)>,
}

fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = Record::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["fingerprint", k, v] => r.fingerprint.push((k.to_string(), v.to_string())),
            ["exact", k, v] => {
                r.exact.insert(k.to_string(), v.to_string());
            }
            ["metric", k, v, unit] => {
                let v = v.parse().map_err(|e| format!("{path}: metric {k}: {e}"))?;
                r.metrics.push((k.to_string(), v, unit.to_string()));
            }
            _ => {}
        }
    }
    Ok(r)
}

/// Compares two run records like for like: refuses (exit 3) when their
/// fingerprints differ, fails (exit 1) when an exact count differs, and
/// otherwise prints each metric of `b` as a ratio to `a`.
fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let (ra, rb) = (read_record(a)?, read_record(b)?);
    let diff = Fingerprint(ra.fingerprint).differences(&Fingerprint(rb.fingerprint));
    if !diff.is_empty() {
        eprintln!("refused: fingerprints differ in {}", diff.join(", "));
        return Ok(ExitCode::from(3));
    }
    let mut exact_diff = 0;
    for key in ra.exact.keys().chain(rb.exact.keys()) {
        if ra.exact.get(key) != rb.exact.get(key) {
            exact_diff += 1;
            eprintln!("exact count {key}: {:?} vs {:?}", ra.exact.get(key), rb.exact.get(key));
        }
    }
    for (name, va, unit) in &ra.metrics {
        if let Some((_, vb, _)) = rb.metrics.iter().find(|(n, _, _)| n == name) {
            println!("{name:<28} {va:>16.6} {vb:>16.6} {unit:<10} {:>8.4}", ratio(*vb, *va));
        }
    }
    Ok(if exact_diff == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, a, b] = args.as_slice() {
        if flag == "--compare" {
            return compare(a, b).unwrap_or_else(|e| {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            });
        }
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
