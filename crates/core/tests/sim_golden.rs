//! Golden record of the simulator's arithmetic and counts.
//!
//! Each case solves a small problem with [`FpgaSolver`] and renders what a
//! change to the machine's execution engine must not move: the status, the
//! ADMM iteration count, FNV-1a hashes of the bits of `x` and `y`, and the
//! full machine [`RunStats`] (cycles by class, instructions, loop trips,
//! HBM bytes and injected faults). A change to how the machine executes
//! must leave every bit and count of the expected table as it is; only a
//! change that moves a simulated count on purpose may rewrite it.

use rsqp_arch::{ArchConfig, FaultConfig, RunStats};
use rsqp_core::{customize, FpgaSolver};
use rsqp_problems::{generate, Domain};
use rsqp_solver::Settings;

/// FNV-1a over the IEEE-754 bits of `values`.
fn fnv(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn render(name: &str, domain: Domain, size: usize, config: &ArchConfig) -> String {
    let qp = generate(domain, size, 3);
    let settings = Settings { threads: 1, ..Settings::default() };
    let mut fpga = FpgaSolver::new(&qp, settings, config).expect("setup succeeds");
    let r = fpga.solver.solve().expect("solve returns a status");
    let RunStats { cycles, breakdown: b, instructions, loop_trips, hbm_bytes, faults } =
        fpga.stats();
    format!(
        "{name}: {:?} iters={} x={:016x} y={:016x}\n  cycles={cycles} spmv={} vector={} \
         duplication={} scalar={} transfer={} control={}\n  instructions={instructions} \
         loop_trips={loop_trips} hbm_bytes={hbm_bytes} faults={faults}\n",
        r.status,
        r.iterations,
        fnv(&r.x),
        fnv(&r.y),
        b.spmv,
        b.vector,
        b.duplication,
        b.scalar,
        b.transfer,
        b.control,
    )
}

fn table() -> String {
    let mut out = String::new();
    for (domain, size) in [(Domain::Control, 3), (Domain::Svm, 3)] {
        let qp = generate(domain, size, 3);
        let custom = customize(&qp, 16, 4).config;
        out += &render(&format!("{domain}-custom"), domain, size, &custom);
        out += &render(&format!("{domain}-baseline"), domain, size, &ArchConfig::baseline(16));
    }
    // Single-precision rounding of every vector and scalar result.
    let fp32 = ArchConfig::baseline(16).with_single_precision(true);
    out += &render("control-baseline-fp32", Domain::Control, 3, &fp32);
    // Armed MAC-output flips, so the fault stream's draw order is pinned
    // too (the PCG kernel moves no data over HBM, so only SpMVs strike).
    let fault = FaultConfig::new(9).with_mac_output_flips(0.002);
    let faulty = ArchConfig::baseline(16).with_fault_injection(Some(fault));
    out += &render("control-baseline-faults", Domain::Control, 3, &faulty);
    out
}

const EXPECTED: &str = "\
control-custom: Solved iters=75 x=bf17a598ca352e5e y=5126ae7a5ec7bff6
  cycles=706029 spmv=244862 vector=285875 duplication=114708 scalar=55240 transfer=0 control=5344
  instructions=31717 loop_trips=1261 hbm_bytes=0 faults=0
control-baseline: Solved iters=75 x=bf17a598ca352e5e y=5126ae7a5ec7bff6
  cycles=1049389 spmv=412827 vector=285875 duplication=290103 scalar=55240 transfer=0 control=5344
  instructions=31717 loop_trips=1261 hbm_bytes=0 faults=0
svm-custom: Solved iters=100 x=7d337e74010afdae y=5eb0157b1e4a5205
  cycles=227220 spmv=77480 vector=100220 duplication=30400 scalar=17600 transfer=0 control=1520
  instructions=11460 loop_trips=280 hbm_bytes=0 faults=0
svm-baseline: Solved iters=100 x=7d337e74010afdae y=5eb0157b1e4a5205
  cycles=329780 spmv=120980 vector=100220 duplication=89460 scalar=17600 transfer=0 control=1520
  instructions=11460 loop_trips=280 hbm_bytes=0 faults=0
control-baseline-fp32: Solved iters=75 x=1f83a7619319ad4b y=d1640330ea648e8f
  cycles=2897848 spmv=1128730 vector=800498 duplication=792572 scalar=160048 transfer=0 control=16000
  instructions=88058 loop_trips=4000 hbm_bytes=0 faults=0
control-baseline-faults: Solved iters=75 x=2b936156d169c6fd y=d9b4abd5f76c1295
  cycles=1071109 spmv=421287 vector=291875 duplication=296043 scalar=56440 transfer=0 control=5464
  instructions=32377 loop_trips=1291 hbm_bytes=0 faults=13
";

#[test]
fn simulator_results_and_counts_match_the_golden_record() {
    assert_eq!(table(), EXPECTED);
}
