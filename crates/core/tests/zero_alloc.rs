//! Asserts the simulated-FPGA ADMM steady state is allocation-free: once an
//! [`FpgaSolver`] is set up, extra iterations (each one a PCG run on the
//! cycle-level machine) and ρ updates must not touch the heap.
//!
//! Strategy, as in the solver's own `zero_alloc` test: a counting global
//! allocator tallies every allocation of the calling thread. Two identical
//! cold solvers run the same problem at an unreachable tolerance, one
//! capped at a short iteration count and one at a much longer count; equal
//! counts prove that the per-iteration work runs out of pre-sized buffers.
//! Every solver runs `threads: 1`, so all of its work is on the test's
//! thread and a per-thread count ignores the other tests of this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsqp_arch::ArchConfig;
use rsqp_core::{customize, FpgaSolver};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{CgTolerance, QpProblem, Settings, Status};

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

fn problem() -> QpProblem {
    generate(Domain::Control, 2, 5)
}

fn settings(max_iter: usize, adaptive_rho: bool) -> Settings {
    Settings {
        threads: 1,
        max_iter,
        // Unreachable tolerance: every run ends at MaxIterationsReached, so
        // both solvers execute exactly `max_iter` full iterations.
        eps_abs: 1e-300,
        eps_rel: 1e-300,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        polish: false,
        adaptive_rho,
        ..Settings::default()
    }
}

fn config(qp: &QpProblem) -> ArchConfig {
    customize(qp, 16, 4).config
}

/// Allocations performed by a cold `solve` at `max_iter` iterations (setup
/// excluded), and the ρ updates that solve made.
fn allocs_for(max_iter: usize, adaptive_rho: bool) -> (usize, usize) {
    let qp = problem();
    let mut fpga = FpgaSolver::new(&qp, settings(max_iter, adaptive_rho), &config(&qp)).unwrap();
    let before = alloc_count();
    let result = fpga.solver.solve().unwrap();
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
    let qp = problem();
    let config = config(&qp);
    let before = alloc_count();
    let _fpga = FpgaSolver::new(&qp, settings(20, true), &config).unwrap();
    assert!(alloc_count() > before, "solver setup must allocate");
}

#[test]
fn simulated_admm_steady_state_is_allocation_free() {
    for adaptive_rho in [false, true] {
        // Warm up lazy runtime allocations (stdout locks, etc.).
        let _ = allocs_for(5, adaptive_rho);
        let (short, _) = allocs_for(20, adaptive_rho);
        let (long, rho_updates) = allocs_for(220, adaptive_rho);
        // With adaptation on, the long solve must update ρ on the device,
        // or the equality below says nothing about that path.
        assert_eq!(rho_updates > 0, adaptive_rho, "ρ updates in the long solve");
        assert_eq!(
            short, long,
            "adaptive_rho {adaptive_rho}: a 220-iteration simulated solve allocated {long} \
             times vs {short} for 20 iterations — the machine or the backend is allocating \
             per iteration"
        );
    }
}

#[test]
fn simulated_rho_update_is_allocation_free() {
    // `update_rho` rebuilds the Jacobi preconditioner in the backend's own
    // buffer and copies it onto the machine in place.
    let qp = problem();
    let mut fpga = FpgaSolver::new(&qp, settings(20, true), &config(&qp)).unwrap();
    let _ = fpga.solver.solve().unwrap();
    let before = alloc_count();
    fpga.solver.update_rho(0.37).unwrap();
    fpga.solver.update_rho(1.93).unwrap();
    let during = alloc_count() - before;
    assert_eq!(during, 0, "update_rho allocated {during} times on the simulated backend");
}
