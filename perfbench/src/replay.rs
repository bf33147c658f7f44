//! Kernel replays: kernels deeper than any call a workload makes, timed
//! on that workload's own matrices through their public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rsqp_core::{customize, CustomizationCache};
use rsqp_cvb::{first_fit, AccessMatrix};
use rsqp_encode::{greedy_schedule, search_structures, SparsityString};
use rsqp_linsys::{
    min_degree_ordering, pcg_with, KktMatrix, Ldlt, LinearOperator, PcgSettings, PcgWorkspace,
    ReducedKktOp, SymmetricPermutation,
};
use rsqp_par::ThreadPool;
use rsqp_solver::QpProblem;
use rsqp_sparse::{CsrMatrix, RowPartition, TransposeCache};

use crate::inputs::mix;
use crate::workloads::{FPGA_C, FPGA_S_TARGET};

/// Kernel name → median time per call (summed over problems for totals).
pub type KernelTimes = BTreeMap<&'static str, f64>;

/// Median µs per call of `f`, from 5 batches each long enough (≥ 200 µs)
/// for the clock's resolution not to matter, or 3 single calls when one
/// call already takes over 5 ms.
fn time_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64() * 1e6;
    let (batches, batch) =
        if first > 5_000.0 { (3, 1) } else { (5, (200.0 / first.max(0.01)).ceil() as usize) };
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

fn vector(n: usize, salt: u64) -> Vec<f64> {
    (0..n).map(|i| (mix(salt, i as u64, 7) >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect()
}

/// Bytes a CSR SpMV moves as computed from its shape: values and column
/// indices once, one `x` element per nonzero, the row pointers and `y`.
fn spmv_bytes(m: &CsrMatrix) -> f64 {
    let word = std::mem::size_of::<f64>() as f64;
    let index = std::mem::size_of::<usize>() as f64;
    m.nnz() as f64 * (2.0 * word + index) + (m.nrows() + 1) as f64 * index + m.nrows() as f64 * word
}

/// Replays the sparse, parallel and linear-system kernels on `problems`;
/// returns the totals over all problems and each problem's own times.
pub fn linear_kernels(problems: &[&QpProblem], nproc: usize) -> (KernelTimes, Vec<KernelTimes>) {
    let mut t = KernelTimes::new();
    let mut each = Vec::new();
    let pool = Arc::new(ThreadPool::new(nproc));
    let serial = Arc::new(ThreadPool::serial());
    let mut bytes = 0.0;
    for (pi, problem) in problems.iter().enumerate() {
        let mut mine = KernelTimes::new();
        let mut add = |k: &'static str, v: f64| {
            *t.entry(k).or_default() += v;
            mine.insert(k, v);
        };
        let (p, a) = (problem.p(), problem.a());
        let (n, m) = (problem.num_vars(), problem.num_constraints());
        let x = vector(n, pi as u64);
        let ym = vector(m, pi as u64 + 1000);
        let (mut out_n, mut out_m) = (vec![0.0; n], vec![0.0; m]);

        let sp = time_us(|| p.spmv(black_box(&x), &mut out_n).expect("P spmv shape"));
        let sa = time_us(|| a.spmv(black_box(&x), &mut out_m).expect("A spmv shape"));
        let at = TransposeCache::new(a);
        let gather = time_us(|| at.spmv(black_box(&ym), &mut out_n).expect("At spmv shape"));
        let scatter =
            time_us(|| a.spmv_transpose(black_box(&ym), &mut out_n).expect("At spmv shape"));
        add("sparse.spmv_p_us", sp);
        add("sparse.spmv_a_us", sa);
        add("sparse.at_gather_us", gather);
        add("sparse.at_scatter_us", scatter);
        add("spmv_bytes_time_us", sp + sa + gather);
        bytes += spmv_bytes(p) + spmv_bytes(a) + spmv_bytes(at.matrix());

        let (pp, pa) = (RowPartition::balanced(p, 2 * nproc), RowPartition::balanced(a, 2 * nproc));
        let par = time_us(|| {
            p.spmv_partitioned(black_box(&x), &mut out_n, &pool, &pp).expect("P spmv shape");
            a.spmv_partitioned(black_box(&x), &mut out_m, &pool, &pa).expect("A spmv shape");
        });
        add("par_spmv_serial_us", sp + sa);
        add("par_spmv_pool_us", par);

        let rho = vec![0.1; m];
        let (pa_arc, aa_arc) = (Arc::new(p.clone()), Arc::new(a.clone()));
        let mut op1 = ReducedKktOp::with_pool(
            Arc::clone(&pa_arc),
            Arc::clone(&aa_arc),
            1e-6,
            &rho,
            Arc::clone(&serial),
        )
        .expect("KKT operator shapes");
        let mut opn =
            ReducedKktOp::with_pool(pa_arc, aa_arc, 1e-6, &rho, Arc::clone(&pool)).expect("shapes");
        let apply1 = time_us(|| op1.apply(black_box(&x), &mut out_n).expect("apply shape"));
        let applyn = time_us(|| opn.apply(black_box(&x), &mut out_n).expect("apply shape"));
        add("linsys.kkt_apply_us", apply1);
        add("par_apply_serial_us", apply1);
        add("par_apply_pool_us", applyn);

        // One PCG call from a cold start on a right-hand side with a known
        // solution, as the indirect backend makes once per ADMM iteration.
        let mut b = vec![0.0; n];
        op1.apply(&vec![1.0; n], &mut b).expect("apply shape");
        let settings = PcgSettings { eps: 1e-6, eps_abs: 1e-12, max_iter: 500 };
        let mut ws = PcgWorkspace::new(n);
        let mut xs = vec![0.0; n];
        add(
            "linsys.pcg_call_us",
            time_us(|| {
                xs.fill(0.0);
                pcg_with(&mut op1, black_box(&b), &mut xs, &settings, &mut ws, None)
                    .expect("PCG on a positive definite operator");
            }),
        );

        let kkt = KktMatrix::assemble(p, a, 1e-6, &rho).expect("KKT shapes");
        let mut perm = Vec::new();
        add(
            "linsys.ordering_us",
            time_us(|| perm = min_degree_ordering(kkt.matrix()).expect("ordering")),
        );
        let sym = SymmetricPermutation::new(kkt.matrix(), perm).expect("a permutation");
        let mut factor = None;
        add(
            "linsys.factor_us",
            time_us(|| factor = Some(Ldlt::factor(sym.matrix()).expect("quasi-definite KKT"))),
        );
        let factor = factor.expect("factored above");
        let rhs = vector(n + m, pi as u64 + 2000);
        let mut work = rhs.clone();
        add(
            "linsys.ldlt_solve_us",
            time_us(|| {
                work.copy_from_slice(&rhs);
                factor.solve_in_place(&mut work).expect("solve shape");
            }),
        );
        each.push(mine);
    }
    let time_s = t.get("spmv_bytes_time_us").copied().unwrap_or(0.0) * 1e-6;
    t.insert("sparse.spmv_gbps_computed", bytes / time_s.max(1e-12) / 1e9);
    let ratio = |t: &KernelTimes, a: &str, b: &str| t[a] / t[b].max(1e-12);
    let spmv_speedup = ratio(&t, "par_spmv_serial_us", "par_spmv_pool_us");
    let apply_speedup = ratio(&t, "par_apply_serial_us", "par_apply_pool_us");
    t.insert("par.spmv_speedup", spmv_speedup);
    t.insert("par.kkt_apply_speedup", apply_speedup);
    (t, each)
}

/// Replays the customization kernels (structure search, First-Fit, cache
/// hit) on `problems`.
pub fn customization_kernels(problems: &[&QpProblem]) -> KernelTimes {
    let mut t = KernelTimes::new();
    let mut add = |k: &'static str, v: f64| *t.entry(k).or_default() += v;
    for problem in problems {
        let (p, a) = (problem.p(), problem.a());
        let at_m = a.transpose();
        add(
            "encode.search_ms",
            time_us(|| {
                let sp = SparsityString::encode(p, FPGA_C);
                let sa = SparsityString::encode(a, FPGA_C);
                let sat = SparsityString::encode(&at_m, FPGA_C);
                let combined = SparsityString::concat(&[&sp, &sa, &sat]);
                black_box(search_structures(&combined, FPGA_S_TARGET));
            }) / 1e3,
        );
        let mut result = None;
        add(
            "core.customize_ms",
            time_us(|| result = Some(customize(problem, FPGA_C, FPGA_S_TARGET))) / 1e3,
        );
        let result = result.expect("customized above");
        add("core.eta_custom", result.eta_custom / problems.len() as f64);
        add("core.eta_baseline", result.eta_baseline / problems.len() as f64);
        for mc in &result.matrices {
            add("padding", mc.ep.1 as f64);
            add("nnz", mc.nnz as f64);
            add("cvb.dup_cost", mc.ec.1 / (3 * problems.len()) as f64);
        }
        let config = result.config;
        for m in [p, a, &at_m] {
            let s = SparsityString::encode(m, FPGA_C);
            let sched = greedy_schedule(&s, config.set());
            let access = AccessMatrix::from_schedule(&sched, &s, m, config.set());
            add("cvb.first_fit_ms", time_us(|| drop(black_box(first_fit(&access)))) / 1e3);
        }
        let cache = CustomizationCache::new(4);
        cache.get_or_customize(problem).expect("customization of a valid problem");
        add(
            "core.cache_hit_us",
            time_us(|| {
                black_box(cache.get_or_customize(problem).expect("cached"));
            }),
        );
    }
    let padding = t.remove("padding").unwrap_or(0.0) / t.remove("nnz").unwrap_or(1.0).max(1.0);
    t.insert("encode.padding_frac", padding);
    t
}
