//! # sweep — deterministic parallel scenario sweeps
//!
//! The paper's claims are backed by many small simulations: stitch-loss
//! Monte-Carlo (Fig 3b), control-plane admission/failure campaigns, the
//! slice-shape × collective cost matrix (Tables 1–2), and route-layer
//! churn. This crate fans a [grid](grid::GridSpec) of such scenarios across
//! OS threads and proves the parallelism changed *nothing*:
//!
//! * **Seed partitioning** ([`fingerprint::derive_seed`]) — each randomized
//!   scenario's RNG stream is fixed by `(base_seed, grid index)` alone.
//! * **Order-combined fingerprints** ([`fingerprint::combine`]) — FNV-1a
//!   digests of each scenario's observable outcome, folded in grid order,
//!   so the sweep fingerprint is bit-identical for any worker count.
//! * **Deterministic merges** ([`run::MergedStats`]) — per-worker stats
//!   registries folded in worker order (reporting only, never part of the
//!   fingerprint).
//! * **Perf baselines** ([`report::SWEEP`]) — events/sec and speedup
//!   vs 1 worker, compared by `cargo xtask lint` against the committed
//!   `BENCH_sweep.json` with an exact determinism gate and a tolerant
//!   throughput gate.
//!
//! `spsim sweep` is the CLI entry point; `crates/sweep/tests/` holds the
//! worker-count equivalence tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod grid;
pub mod report;
pub mod route_bench;
pub mod run;

pub use fingerprint::{combine, derive_seed, Fnv};
pub use grid::{CollectiveAlgo, GridSpec, Scenario};
pub use report::{bench_record, outcome_to_json, SWEEP};
pub use route_bench::{run_route_bench, ROUTE};
pub use run::{run_scenario, run_sweep, MergedStats, ScenarioResult, SweepOutcome};
