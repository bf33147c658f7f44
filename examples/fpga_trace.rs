//! Accelerator trace: solve one benchmark problem on the simulated FPGA and
//! print where the cycles went (per instruction class), what the HBM
//! channel model says, and the hardware-generation bundle (§4.5).
//!
//! Run with `cargo run --release --example fpga_trace`.

use rsqp::arch::hbm::HbmModel;
use rsqp::arch::{rom, ResourceModel};
use rsqp::core::bundle;
use rsqp::core::{customize, FpgaSolver};
use rsqp::problems::{generate, Domain};
use rsqp::solver::{Settings, Status};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qp = generate(Domain::Huber, 6, 3);
    println!(
        "problem {}: n = {}, m = {}, nnz = {}",
        qp.name(),
        qp.num_vars(),
        qp.num_constraints(),
        qp.total_nnz()
    );

    // Customize and report the architecture.
    let custom = customize(&qp, 32, 4);
    let est = ResourceModel.estimate(custom.config.set());
    println!(
        "\narchitecture {}: {:.0} MHz, {} DSP / {} FF / {} LUT",
        custom.notation(),
        est.fmax_mhz,
        est.dsp,
        est.ff,
        est.lut
    );
    println!("match score η: {:.3} -> {:.3}", custom.eta_baseline, custom.eta_custom);

    // Check the HBM stream budget.
    let hbm = HbmModel::u50();
    let at = qp.a().transpose();
    println!(
        "HBM: needs {} of {} channels at this f_max; imbalance {:.3}; fits: {}",
        hbm.required_channels(custom.config.c(), est.fmax_mhz * 1e6),
        hbm.channels,
        HbmModel::imbalance(&hbm.partition(&[qp.p(), qp.a(), &at])),
        hbm.fits(&[qp.p(), qp.a(), &at]),
    );

    // Solve on the simulated machine.
    let mut fpga = FpgaSolver::new(&qp, Settings::default(), &custom.config)?;
    let r = fpga.solver.solve()?;
    assert_eq!(r.status, Status::Solved);
    let stats = fpga.stats();

    println!(
        "\nsolved in {} ADMM iterations, {} CG iterations",
        r.iterations, r.backend.cg_iterations
    );
    println!(
        "device cycles: {} across {} instructions, {} loop trips",
        stats.cycles, stats.instructions, stats.loop_trips
    );
    let b = stats.breakdown;
    let total = b.total() as f64 / 100.0;
    println!("  spmv        {:>12}  ({:>5.1} %)", b.spmv, b.spmv as f64 / total);
    println!("  vector      {:>12}  ({:>5.1} %)", b.vector, b.vector as f64 / total);
    println!("  duplication {:>12}  ({:>5.1} %)", b.duplication, b.duplication as f64 / total);
    println!("  scalar      {:>12}  ({:>5.1} %)", b.scalar, b.scalar as f64 / total);
    println!("  control     {:>12}  ({:>5.1} %)", b.control, b.control as f64 / total);
    println!("  transfer    {:>12}  ({:>5.1} %)", b.transfer, b.transfer as f64 / total);

    // Emit the hardware-generation bundle.
    let dir = std::env::temp_dir().join("rsqp_fpga_trace_bundle");
    let files = bundle::write_bundle(&qp, &custom, &dir)?;
    let rom_len = bundle::validate_rom(dir.join("pcg.rom"))?;
    println!(
        "\nhardware bundle: {files} files in {} (PCG kernel: {} instructions, {} B of ROM)",
        dir.display(),
        rom_len,
        rom_len * rom::INSTR_BYTES
    );
    Ok(())
}
