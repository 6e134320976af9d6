//! # leap-bench — evaluation harness for the Leap-List reproduction
//!
//! Regenerates every figure of the paper's evaluation (§3, Figures 14-17):
//! workload generation ([`workload`]), a timed multi-thread throughput
//! driver ([`driver`]), algorithm adapters ([`target`]) and per-figure
//! parameter sweeps ([`figures`]).
//!
//! Run `cargo run --release -p leap-bench --bin figures -- all` to print
//! every panel, or name panels individually (`fig14a`, `fig17d`, ...).
//! Scale presets (`quick` / `medium` / `paper`) trade fidelity for runtime;
//! see [`scale::Scale`].
//!
//! That is the whole of this crate's measurement surface: the paper's own
//! panels plus the criterion benches under `benches/` (`micro`, `ablation`,
//! `store`, `memdb`). Numbers of record for the store and the memdb table
//! under load come from the separate `benchmark/` package
//! (`BENCHMARK.json`), not from here. [`rng`] and [`zipf`] are shared with
//! the `chaos` bin and the workspace examples.

#![deny(missing_docs)]

pub mod driver;
pub mod figures;
pub mod rng;
pub mod scale;
pub mod target;
pub mod workload;
pub mod zipf;
