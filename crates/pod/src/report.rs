//! `BENCH_pod.json` and `BENCH_placement.json`: the committed pod
//! benchmark baselines, both [`POD`] records.
//!
//! `cargo xtask lint` re-runs each recorded configuration and gates on it
//! — **fingerprint, journal hash, policy, and every count match exactly**
//! (determinism), **events/sec may not regress below
//! [`MIN_PERF_RATIO`](desim::bench::MIN_PERF_RATIO) × baseline**, and a
//! stitch-policy run must admit at least one cross-group job
//! ([`stitch_admitted`]).

use crate::ctrl::PodOutcome;
use desim::bench::{BenchRecord, Family, Gate::*, Kind::*, Value};

/// The pod baseline family: `shards` (worker threads) and `wall_s` are
/// informational, `events_per_sec` is floor-gated, every other key exact.
pub static POD: Family = Family {
    name: "pod",
    keys: &[
        ("chips", U64, Exact),
        ("groups", U64, Exact),
        ("shards", U64, Info),
        ("epochs", U64, Exact),
        ("jobs", U64, Exact),
        ("fingerprint", Str, Exact),
        ("journal_hash", Str, Exact),
        ("journal_records", U64, Exact),
        ("events", U64, Exact),
        ("wall_s", F64, Info),
        ("events_per_sec", F64, Floor),
        ("plan_hits", U64, Exact),
        ("plan_misses", U64, Exact),
        ("plan_fallbacks", U64, Exact),
        ("plan_evictions", U64, Exact),
        ("plan_stamped_circuits", U64, Exact),
        ("cross_hits", U64, Exact),
        ("cross_misses", U64, Exact),
        ("cross_fallbacks", U64, Exact),
        ("policy", Str, Exact),
        ("stitch_admits", U64, Exact),
        ("stitch_legs", U64, Exact),
        ("stitch_rollbacks", U64, Exact),
    ],
    same_run: Some(stitch_admitted),
};

/// The placement gate: a stitch-policy run that admits no cross-group
/// job fails even if it stays deterministic.
fn stitch_admitted(r: &BenchRecord) -> Option<String> {
    (r.text("policy") == "stitch" && r.num("stitch_admits") < 1.0)
        .then(|| "placement gate: the stitch policy admitted no cross-group job".to_string())
}

/// Summarize a finished run.
pub fn bench_record(out: &PodOutcome, jobs: usize) -> BenchRecord {
    let plan = &out.route.plan;
    let cross = &out.route.cross;
    BenchRecord::new(
        &POD,
        vec![
            (
                "chips",
                Value::U64(out.journal.header().shape.volume() as u64),
            ),
            ("groups", Value::U64(out.groups as u64)),
            ("shards", Value::U64(out.shards as u64)),
            ("epochs", Value::U64(out.epochs)),
            ("jobs", Value::U64(jobs as u64)),
            (
                "fingerprint",
                Value::Str(format!("{:#018x}", out.fingerprint)),
            ),
            (
                "journal_hash",
                Value::Str(format!("{:#018x}", out.journal.hash())),
            ),
            ("journal_records", Value::U64(out.journal.len() as u64)),
            ("events", Value::U64(out.events)),
            ("wall_s", Value::F64(out.wall_s)),
            ("events_per_sec", Value::F64(out.events_per_sec)),
            ("plan_hits", Value::U64(plan.hits)),
            ("plan_misses", Value::U64(plan.misses)),
            ("plan_fallbacks", Value::U64(plan.fallbacks)),
            ("plan_evictions", Value::U64(plan.evictions)),
            ("plan_stamped_circuits", Value::U64(plan.stamped_circuits)),
            ("cross_hits", Value::U64(cross.hits)),
            ("cross_misses", Value::U64(cross.misses)),
            ("cross_fallbacks", Value::U64(cross.fallbacks)),
            ("policy", Value::Str(out.policy.name().to_string())),
            (
                "stitch_admits",
                Value::U64(out.metrics.counter("jobs.stitched")),
            ),
            (
                "stitch_legs",
                Value::U64(out.metrics.counter("stitch.legs")),
            ),
            (
                "stitch_rollbacks",
                Value::U64(out.metrics.counter("stitch.rollbacks")),
            ),
        ],
    )
}
