//! fabricd — a deterministic control plane for the server-scale photonic
//! fabric.
//!
//! The paper argues the fabric's value comes from *operability*: slices are
//! carved on demand, circuits reprogram in 3.7 µs, and a failed chip is
//! spliced out with a 1-server blast radius. This crate is the daemon that
//! exercises those claims end to end:
//!
//! - **Admission** ([`state`], [`domain`]): jobs are placed with the
//!   best-fit slice allocator and queued (with timeout) when the fabric is
//!   full. [`domain`] is the one event loop every control domain runs —
//!   the [`ctrl`] campaign (Poisson arrivals from [`workloads`]) and each
//!   `pod` shard alike.
//! - **Circuit programming** ([`plan`]): an admitted slice's ring
//!   collective becomes per-wafer atomic edge-disjoint batches plus
//!   cross-wafer fiber circuits, committed all-or-nothing.
//! - **Repair** ([`state`]): injected chip failures are spliced around via
//!   [`resilience::optical_repair`], with blast radius accounted per
//!   incident.
//! - **Journal** ([`journal`]): every decision is an append-only record;
//!   replaying the journal against a fresh rack reproduces the live
//!   fabric's telemetry bit for bit, and the FNV-1a journal hash is the
//!   determinism fingerprint (same seed ⇒ same hash).
//! - **Metrics** ([`metrics`]): counters, admission-wait histogram, and
//!   sampled gauge time-series over [`desim::stats`].
//!
//! The `spsim ctrl` subcommand drives [`ctrl::run_scenario`] and prints the
//! journal, hash, and metrics summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl;
pub mod domain;
pub mod journal;
pub mod metrics;
pub mod plan;
pub mod report;
pub mod snapshot;
pub mod state;

pub use ctrl::{
    resume_campaign, run_campaign, run_scenario, CampaignOptions, CampaignOutcome, CtrlConfig,
    CtrlOutcome, CtrlSnapshot,
};
pub use domain::{last_programmed, Domain, DomainEvent, DomainSnapshot, Queued, LEG_ID_BIT};
pub use journal::{DenyReason, Journal, JournalEntry, JournalHeader, Record, StitchLegRecord};
pub use metrics::{Metrics, RouteTelemetry};
pub use plan::{
    program, program_counted, program_planned, program_with, ring_plan, CircuitPlan,
    CrossPlanStats, PlanEngine, ProgramFailure,
};
pub use report::{bench_config, run_ctrl_bench, CTRL};
pub use snapshot::FabricSnapshot;
pub use state::{
    replay, replay_from, Admission, FabricState, IncidentRecord, JobRecord, RepairOutcome,
    Utilization,
};
