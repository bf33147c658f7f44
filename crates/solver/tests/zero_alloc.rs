//! Asserts the ADMM steady state is allocation-free on both CPU backends
//! (PCG and direct LDLᵀ): once a solver is set up, extra iterations and ρ
//! updates must not touch the heap.
//!
//! Strategy: a counting global allocator tallies every allocation. Two
//! identical cold solvers run the same problem with a tiny tolerance (so
//! neither converges), one capped at a short iteration count and one at a
//! much longer count. If per-iteration work allocated anything, the longer
//! run would count more allocations; equality proves the steady state runs
//! entirely out of the pre-sized workspaces.
//!
//! Allocations are counted per thread: the test harness runs the tests of
//! this binary concurrently, and a process-wide count would include the
//! other tests' allocations. Every solver here runs `threads: 1`, so all of
//! its work happens on the calling test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsqp_solver::{CgTolerance, LinSysKind, QpProblem, Settings, Solver, Status};
use rsqp_sparse::CsrMatrix;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates and never fails, even inside the allocator.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// side effect with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> usize {
    ALLOCS.with(Cell::get)
}

/// A small strictly convex QP with box constraints; easy to iterate on
/// forever without converging at an unreachable tolerance.
fn problem() -> QpProblem {
    let n = 24;
    let mut p_rows = vec![vec![0.0; n]; n];
    for (i, row) in p_rows.iter_mut().enumerate() {
        row[i] = 2.0 + (i % 5) as f64;
        if i + 1 < n {
            row[i + 1] = -0.5;
        }
        if i > 0 {
            row[i - 1] = -0.5;
        }
    }
    let p = CsrMatrix::from_dense(&p_rows);
    let mut a_rows = vec![vec![0.0; n]; n + 2];
    for i in 0..n {
        a_rows[i][i] = 1.0;
    }
    for j in 0..n {
        a_rows[n][j] = 1.0;
        a_rows[n + 1][j] = if j % 2 == 0 { 1.0 } else { -1.0 };
    }
    let a = CsrMatrix::from_dense(&a_rows);
    let q: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
    let l = vec![-1.0; n + 2];
    let u = vec![1.0; n + 2];
    QpProblem::new(p, q, a, l, u).unwrap()
}

/// Both CPU backends: matrix-free PCG and the direct LDLᵀ, whose ρ update
/// refactors in place.
const KINDS: [LinSysKind; 2] = [LinSysKind::CpuPcg, LinSysKind::DirectLdlt];

fn settings(linsys: LinSysKind, max_iter: usize) -> Settings {
    Settings {
        linsys,
        threads: 1,
        max_iter,
        // Unreachable tolerance: every run ends at MaxIterationsReached, so
        // both solvers execute exactly `max_iter` full iterations.
        eps_abs: 1e-300,
        eps_rel: 1e-300,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        polish: false,
        // Keep ρ adaptation on: its rebuild path must also be in-place. At
        // the default tolerance this problem never moves ρ; at 1 every
        // proposed change is taken, so long solves do update it.
        adaptive_rho: true,
        adaptive_rho_tolerance: 1.0,
        ..Settings::default()
    }
}

/// Runs a cold solve at `max_iter` iterations and returns the number of
/// allocations performed by `solve` itself (setup excluded) and the ρ
/// updates that solve made.
fn allocs_for(kind: LinSysKind, max_iter: usize) -> (usize, usize) {
    let prob = problem();
    let mut solver = Solver::new(&prob, settings(kind, max_iter)).unwrap();
    let before = alloc_count();
    let result = solver.solve().unwrap();
    let during = alloc_count() - before;
    assert_eq!(result.status, Status::MaxIterationsReached);
    assert_eq!(result.iterations, max_iter);
    (during, result.rho_updates)
}

#[test]
fn counter_sees_this_threads_allocations() {
    // The equalities below would hold vacuously if nothing were counted.
    let before = alloc_count();
    let v = std::hint::black_box(vec![0u8; 64]);
    assert_eq!(alloc_count(), before + 1);
    drop(v);
    let prob = problem();
    let before = alloc_count();
    let _solver = Solver::new(&prob, settings(LinSysKind::CpuPcg, 20)).unwrap();
    assert!(alloc_count() > before, "solver setup must allocate");
}

#[test]
fn admm_steady_state_is_allocation_free() {
    for kind in KINDS {
        // Warm up lazy runtime allocations (stdout locks, etc.).
        let _ = allocs_for(kind, 5);
        let (short, _) = allocs_for(kind, 20);
        let (long, rho_updates) = allocs_for(kind, 220);
        // The long solve must adapt ρ, or the equality below says nothing
        // about the update path (a refactorization on the direct backend).
        assert!(rho_updates > 0, "{kind:?}: no ρ update in the long solve");
        assert_eq!(
            short, long,
            "{kind:?}: a 220-iteration solve allocated {long} times vs {short} for 20 \
             iterations — the ADMM hot path is allocating per iteration"
        );
    }
}

#[test]
fn manual_rho_update_is_allocation_free() {
    // `update_rho` rebuilds the per-constraint ρ vector into the existing
    // buffers; the PCG backend copies the new values in place and the
    // direct backend refactors into its existing factor and workspace —
    // the whole call must never touch the heap once the solver exists.
    for kind in KINDS {
        let prob = problem();
        let mut solver = Solver::new(&prob, settings(kind, 20)).unwrap();
        let _ = solver.solve().unwrap();
        let before = alloc_count();
        solver.update_rho(0.37).unwrap();
        solver.update_rho(1.93).unwrap();
        let during = alloc_count() - before;
        assert_eq!(
            during, 0,
            "{kind:?}: update_rho allocated {during} times — the in-place ρ \
             rebuild is allocating"
        );
    }
}

/// Allocation count of an update→re-solve loop (setup and warm-up solve
/// excluded): three ρ updates, each followed by a full `max_iter` solve.
fn allocs_for_update_loop(kind: LinSysKind, max_iter: usize) -> usize {
    let prob = problem();
    let mut solver = Solver::new(&prob, settings(kind, max_iter)).unwrap();
    let _ = solver.solve().unwrap();
    let before = alloc_count();
    for k in 0..3usize {
        solver.update_rho(0.1 * (k + 1) as f64).unwrap();
        let result = solver.solve().unwrap();
        assert_eq!(result.status, Status::MaxIterationsReached);
        assert_eq!(result.iterations, max_iter);
    }
    alloc_count() - before
}

#[test]
fn update_resolve_loop_is_allocation_free_per_iteration() {
    // The parametric repeated-solve loop (MPC-style: update, re-solve,
    // repeat) must not accumulate allocations with iteration count: the
    // per-solve totals at 20 and 220 iterations agree exactly, so neither
    // the updates nor the extra 200 iterations per solve touched the heap.
    for kind in KINDS {
        let _ = allocs_for_update_loop(kind, 5);
        let short = allocs_for_update_loop(kind, 20);
        let long = allocs_for_update_loop(kind, 220);
        assert_eq!(
            short, long,
            "{kind:?}: an update→re-solve loop at 220 iterations allocated {long} times vs \
             {short} at 20 iterations — the parametric path is allocating per iteration"
        );
    }
}
