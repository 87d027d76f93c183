//! # hdhash-bench — the benchmark and figure-regeneration harness
//!
//! Every table and figure of the paper's evaluation maps to a binary in
//! `src/bin/` (deterministic data series on stdout) or a criterion bench
//! in `benches/` (wall-clock measurements):
//!
//! | Paper artifact | Regenerate with |
//! |---|---|
//! | Figure 2 (similarity heatmaps) | `cargo run --release -p hdhash-bench --bin fig2` |
//! | Figure 4 (efficiency sweep)    | `cargo run --release -p hdhash-bench --bin fig4` |
//! | Figure 5 (mismatches vs bit errors) | `cargo run --release -p hdhash-bench --bin fig5` |
//! | Figure 6 (χ² uniformity)       | `cargo run --release -p hdhash-bench --bin fig6` |
//! | Ablations (DESIGN.md §4)       | `cargo run --release -p hdhash-bench --bin ablation` and `cargo bench -p hdhash-bench --bench ablations` |
//!
//! Binaries accept `KEY=VALUE` overrides on the command line (see
//! [`params::Params`]), e.g. `fig4 lookups=2000 max_servers=512`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;
pub mod telemetry_embed;

pub use params::Params;

/// JSON fragment naming the hardware a benchmark ran on: the dispatched
/// kernel tier, the host's best supported tier, and the core count.
/// Indented to sit inside a top-level object.
#[must_use]
pub fn machine_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    format!(
        "  \"machine\": {{\"kernel\": \"{}\", \"host_isa\": \"{}\", \"cores\": {cores}}},\n",
        hdhash_simdkernels::kernel_name(),
        hdhash_simdkernels::host_isa(),
    )
}
