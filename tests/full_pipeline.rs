//! Cross-crate integration tests exercising the public facade: problem
//! generation → customization → all three solver backends → performance
//! models, i.e. the complete Figure 6 flow.

use rsqp::arch::{codegen, ArchConfig, ResourceModel};
use rsqp::core::perf::fpga::FPGA_POWER_W;
use rsqp::core::perf::gpu::GpuPerfModel;
use rsqp::core::perf::power::throughput_per_watt;
use rsqp::core::{customize, FpgaSolver};
use rsqp::problems::{generate, small_suite, Domain};
use rsqp::solver::{LinSysKind, Settings, Solver, Status};

fn settings(kind: LinSysKind) -> Settings {
    Settings { linsys: kind, eps_abs: 1e-4, eps_rel: 1e-4, max_iter: 20_000, ..Default::default() }
}

#[test]
fn all_backends_solve_the_small_suite() {
    for bp in small_suite(3) {
        let qp = &bp.problem;
        let mut direct = Solver::new(qp, settings(LinSysKind::DirectLdlt)).unwrap();
        let rd = direct.solve().unwrap();
        assert_eq!(rd.status, Status::Solved, "{} (ldlt)", qp.name());

        let mut iterative = Solver::new(qp, settings(LinSysKind::CpuPcg)).unwrap();
        let ri = iterative.solve().unwrap();
        assert_eq!(ri.status, Status::Solved, "{} (cpu-pcg)", qp.name());

        let scale = 1.0 + rd.objective.abs();
        assert!(
            (rd.objective - ri.objective).abs() < 5e-3 * scale,
            "{}: objective mismatch {} vs {}",
            qp.name(),
            rd.objective,
            ri.objective
        );
    }
}

#[test]
fn customization_pipeline_end_to_end() {
    let qp = generate(Domain::Control, 4, 9);
    let r = customize(&qp, 32, 4);
    // η must improve and stay in range.
    assert!(r.eta_custom >= r.eta_baseline);
    assert!(r.eta_custom <= 1.0 + 1e-12);
    // Generated HLS snippet reflects the chosen structures.
    let code = codegen::alignment_switch(r.config.set());
    assert!(code.contains("align_out"));
    // Resource model produces a plausible design point.
    let est = ResourceModel.estimate(r.config.set());
    assert!(est.dsp == 160 && est.fmax_mhz > 50.0 && est.ff > 0);
}

#[test]
fn fpga_solve_and_performance_model_chain() {
    let qp = generate(Domain::Svm, 4, 5);
    let custom = customize(&qp, 16, 4);

    let mut fpga = FpgaSolver::new(&qp, settings(LinSysKind::CpuPcg), &custom.config).unwrap();
    let r = fpga.solver.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    let t_fpga = fpga.device_time(fpga.stats(), r.iterations);
    assert!(t_fpga.as_secs_f64() > 0.0 && t_fpga.as_secs_f64() < 10.0);

    // GPU model and power chain.
    let gpu = GpuPerfModel::rtx3070();
    let t_gpu = gpu.solve_time(
        r.iterations,
        r.backend.cg_iterations,
        qp.num_vars(),
        qp.num_constraints(),
        qp.total_nnz(),
    );
    let eff_fpga = throughput_per_watt(t_fpga, FPGA_POWER_W);
    let eff_gpu = throughput_per_watt(t_gpu, gpu.power_w(qp.total_nnz()));
    assert!(eff_fpga > 0.0 && eff_gpu > 0.0);
    // The paper's headline: the FPGA is more power-efficient on these
    // small/mid problems.
    assert!(eff_fpga > eff_gpu, "fpga {eff_fpga} vs gpu {eff_gpu}");
}

#[test]
fn architecture_reuse_across_instances_of_one_structure() {
    // Two numeric instances of the same (domain, size): same structure,
    // one customization serves both (the §1 amortization argument).
    let qp1 = generate(Domain::Lasso, 5, 1);
    let qp2 = generate(Domain::Lasso, 5, 2);
    assert!(rsqp::sparse::pattern::same_structure(qp1.a(), qp2.a()));
    let custom = customize(&qp1, 16, 4);
    // The architecture built for qp1 must solve qp2.
    let mut fpga = FpgaSolver::new(&qp2, settings(LinSysKind::CpuPcg), &custom.config).unwrap();
    assert_eq!(fpga.solver.solve().unwrap().status, Status::Solved);
}

#[test]
fn wider_datapath_reduces_device_cycles() {
    let qp = generate(Domain::Huber, 4, 3);
    let mut cycles = Vec::new();
    for c in [8usize, 32] {
        let mut fpga =
            FpgaSolver::new(&qp, settings(LinSysKind::CpuPcg), &ArchConfig::baseline(c)).unwrap();
        let r = fpga.solver.solve().unwrap();
        assert_eq!(r.status, Status::Solved);
        cycles.push(fpga.stats().cycles);
    }
    assert!(
        cycles[1] < cycles[0],
        "C=32 ({}) should need fewer cycles than C=8 ({})",
        cycles[1],
        cycles[0]
    );
}
