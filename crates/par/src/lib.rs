//! Deterministic data-parallel primitives for the RSQP CPU hot path.
//!
//! The registry is unreachable in our build environment, so this crate is a
//! small, dependency-free stand-in for the slice of rayon the solver needs:
//! a reusable [`ThreadPool`] that runs an indexed task over a fixed chunk
//! grid, plus safe helpers for disjoint mutable chunks
//! ([`ThreadPool::par_chunks`], [`ThreadPool::par_chunks_uniform`]) and
//! ordered reductions ([`ThreadPool::par_sum`]).
//!
//! # Determinism contract
//!
//! Every primitive here is **deterministic by construction**:
//!
//! * Chunk boundaries are a pure function of the input length (or an
//!   explicit, caller-supplied partition) — never of the thread count or of
//!   runtime timing.
//! * Reductions combine per-chunk partial results **in chunk order** on the
//!   calling thread. Floating-point results are therefore bit-identical
//!   across thread counts (1, 2, 8, …) and across runs; they may differ
//!   from a single serial left-to-right pass only because the chunk grid
//!   groups the additions differently, and that grouping is fixed.
//! * Elementwise chunk kernels write disjoint output ranges, so their
//!   results are bit-identical to a serial pass regardless of scheduling.
//!
//! # Dispatch cost
//!
//! A pool is created once and reused; dispatching a parallel region
//! performs no heap allocation (the task is passed to workers as a borrowed
//! pointer guarded by a generation/quiescence protocol). Callers should
//! still fall back to serial loops below [`PAR_LEN_THRESHOLD`] elements,
//! and to an inline SpMV below [`PAR_NNZ_THRESHOLD`] stored entries
//! ([`spmv_chunks`]), where a condvar round-trip costs more than the work.

mod chunks;
mod pool;

pub use chunks::{
    reduce_chunk_len, spmv_chunks, ELEM_CHUNK, MAX_REDUCE_CHUNKS, PAR_LEN_THRESHOLD,
    PAR_NNZ_THRESHOLD,
};
pub use pool::{available_threads, ThreadPool};
