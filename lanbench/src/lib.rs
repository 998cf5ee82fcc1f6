//! End-to-end and per-layer benchmark of the LAN workspace.
//!
//! `lanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets the workload up from scratch (dataset generation and index
//! build, never a `LAN_STORE` cache), measures its queries for the given
//! time with tracing off, checks the answers, and prints one JSON result
//! line. With `--trace 1` a second pass over the same queries collects
//! EXPLAIN plans and the benchmark's own spans, reconciles the layers
//! against the whole, and prints the per-layer metrics instead.

pub mod cpu;
pub mod metrics;
pub mod reconcile;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// Hardware threads of the host (`available_parallelism`, 1 if unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
