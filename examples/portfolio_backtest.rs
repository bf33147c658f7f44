//! Portfolio backtesting: the paper's motivating reuse scenario (§1).
//!
//! "Up to 120 000 QP problems with the same sparsity structure would need
//! to be solved with different sets of trading-strategy-dependent
//! parameters" — one customized architecture serves all of them. Here we
//! customize once, then re-solve the same structure with fresh expected
//! returns, accumulating simulated-FPGA cycles to show amortization.
//!
//! Run with `cargo run --release --example portfolio_backtest`.

use rsqp::core::perf::fpga::FPGA_POWER_W;
use rsqp::core::perf::power::throughput_per_watt;
use rsqp::core::{customize, FpgaSolver};
use rsqp::problems::portfolio;
use rsqp::solver::{Settings, Status};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factors = 2;
    let qp = portfolio::generate(factors, 1);
    println!(
        "portfolio problem: {} assets + {} factor variables, {} constraints",
        100 * factors,
        factors,
        qp.num_constraints()
    );

    // Customize the architecture once for this structure.
    let custom = customize(&qp, 32, 4);
    println!(
        "customized architecture {}: η {:.3} → {:.3}, est. {:.0} MHz, {} FF / {} LUT",
        custom.notation(),
        custom.eta_baseline,
        custom.eta_custom,
        custom.resources.fmax_mhz,
        custom.resources.ff,
        custom.resources.lut
    );

    let mut fpga = FpgaSolver::new(&qp, Settings::default(), &custom.config)?;

    // Backtest: re-solve with fresh μ every "day" (warm-started).
    let days = 8;
    let mut total_time = 0.0;
    println!("\n  day   status    iters    device µs    best asset");
    for day in 0..days {
        let q = portfolio::resample_returns(&qp, 1000 + day as u64);
        fpga.solver.update_q(q)?;
        let before = fpga.stats();
        let r = fpga.solver.solve()?;
        assert_eq!(r.status, Status::Solved);
        let t = fpga.device_time(fpga.stats().since(before), r.iterations);
        total_time += t.as_secs_f64();
        let best =
            r.x.iter()
                .take(100 * factors)
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights are finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);
        println!(
            "  {day:>3}   {}    {:>5}    {:>9.1}    #{best}",
            r.status,
            r.iterations,
            t.as_secs_f64() * 1e6
        );
    }
    let per_solve = total_time / days as f64;
    println!(
        "\nmean simulated solve time {:.1} µs -> {:.1} instances/s/W at {} W board power",
        per_solve * 1e6,
        throughput_per_watt(std::time::Duration::from_secs_f64(per_solve), FPGA_POWER_W),
        FPGA_POWER_W
    );
    println!(
        "a 2-to-5-hour CAD run amortizes after ~{} solves at this rate (paper §1)",
        (3.5 * 3600.0 / per_solve).round()
    );
    Ok(())
}
