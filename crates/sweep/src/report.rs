//! JSON reports and the committed perf baseline.
//!
//! `BENCH_sweep.json` at the repository root is the committed baseline, a
//! [`SWEEP`] record; `cargo xtask lint` re-runs the smoke grid and gates on
//! it: **fingerprint, grid, scenario count, and event count match exactly**
//! (determinism), and **events/sec may not regress below
//! [`MIN_PERF_RATIO`](desim::bench::MIN_PERF_RATIO) × baseline** (a loose
//! tolerance so CI noise doesn't flake, but an order-of-magnitude slowdown
//! fails).

use crate::run::SweepOutcome;
use desim::bench::{BenchRecord, Family, Gate::*, Kind::*, Value};

/// The sweep baseline family: key order and gate of every key.
pub static SWEEP: Family = Family {
    name: "sweep",
    keys: &[
        ("grid", Str, Exact),
        ("scenarios", U64, Exact),
        ("workers", U64, Info),
        ("fingerprint", Str, Exact),
        ("events", U64, Exact),
        ("wall_s", F64, Info),
        ("events_per_sec", F64, Floor),
        ("speedup_vs_1", F64, Info),
    ],
    same_run: None,
};

/// Summarize a parallel outcome against its sequential reference.
pub fn bench_record(parallel: &SweepOutcome, sequential_wall_s: f64) -> BenchRecord {
    let wall_s = parallel.wall.as_secs_f64();
    BenchRecord::new(
        &SWEEP,
        vec![
            ("grid", Value::Str(parallel.grid.clone())),
            ("scenarios", Value::U64(parallel.results.len() as u64)),
            ("workers", Value::U64(parallel.workers as u64)),
            (
                "fingerprint",
                Value::Str(format!("{:#018x}", parallel.fingerprint)),
            ),
            ("events", Value::U64(parallel.events)),
            ("wall_s", Value::F64(wall_s)),
            ("events_per_sec", Value::F64(parallel.events_per_sec())),
            (
                "speedup_vs_1",
                Value::F64(if wall_s > 0.0 {
                    sequential_wall_s / wall_s
                } else {
                    1.0
                }),
            ),
        ],
    )
}

/// Serialize the full per-scenario report (for `--json` artifacts).
pub fn outcome_to_json(out: &SweepOutcome, sequential_wall_s: f64) -> String {
    let bench = bench_record(out, sequential_wall_s);
    let mut s = String::from("{\n  \"bench\": ");
    // Indent the nested object to keep the artifact readable.
    let nested = bench.to_json();
    s.push_str(&nested.trim_end().replace('\n', "\n  "));
    s.push_str(",\n  \"merged\": {\n");
    s.push_str(&format!(
        "    \"stitch_loss_samples\": {},\n    \"stitch_loss_mean_db\": {:.6},\n",
        out.merged.stitch_loss_db.count(),
        out.merged.stitch_loss_db.stats().mean()
    ));
    s.push_str(&format!(
        "    \"admission_wait_samples\": {},\n    \"collective_runs\": {},\n",
        out.merged.admission_wait_s.count(),
        out.merged.collective_us.count()
    ));
    s.push_str(&format!(
        "    \"collective_mean_us\": {:.3},\n    \"churn_probes\": {},\n    \
         \"churn_mean_hops\": {:.3}\n  }},\n",
        out.merged.collective_us.mean(),
        out.merged.churn_hops.count(),
        out.merged.churn_hops.mean()
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in out.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"index\": {}, \"label\": \"{}\", \"fingerprint\": \"{:#018x}\", \
             \"events\": {} }}{}\n",
            r.index,
            r.label,
            r.fingerprint,
            r.events,
            if i + 1 < out.results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
