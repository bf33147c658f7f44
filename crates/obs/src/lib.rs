//! Observability layer for RSQP: metrics, spans, and solve traces.
//!
//! The paper's evaluation (§6) hinges on per-phase accounting — ADMM
//! iterations, PCG iterations per KKT solve, SpMV cycle counts — and a
//! production solve service additionally needs to explain *why* a job was
//! slow, retried, or fell back to LDLᵀ. This crate is the shared substrate
//! all of that reporting flows through, with three deliberately small
//! pieces:
//!
//! * [`MetricsRegistry`] — a lock-light registry of named [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s (fixed log₂ buckets). Registration
//!   takes a short mutex; every increment/observe afterwards is a single
//!   atomic operation, and [`MetricsRegistry::snapshot`] can run
//!   concurrently with writers without panicking or tearing individual
//!   values.
//! * [`Timeline`] — hierarchical timed phases (setup → scaling →
//!   per-ADMM-iteration → KKT solve → polish) recorded as [`SpanRecord`]s
//!   with explicit nesting depth.
//! * [`SolveTrace`] — the machine-readable record of one solve:
//!   per-iteration residuals, ρ updates, inner PCG iteration counts, and
//!   guard/fallback events, exportable as JSON ([`SolveTrace::to_json`])
//!   and as a timing-free deterministic subset
//!   ([`SolveTrace::golden_json`]) for golden-file regression tests.
//!
//! The crate is dependency-free (no serde, no tracing ecosystem): JSON is
//! emitted by a small hand-rolled writer, and every type is plain data so
//! the solver, runtime, and cycle-level machine can all depend on it
//! without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod span;
mod trace;

pub use json::JsonWriter;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use span::{SpanId, SpanRecord, Timeline};
pub use trace::{IterationTrace, SolveTrace, TraceEvent};
