//! `BENCH_ctrl.json`: the committed control-plane benchmark baseline, a
//! [`CTRL`] record. `cargo xtask lint` re-runs the ctrl smoke campaign and
//! gates on it:
//!
//! * **determinism, exact** — state fingerprint, journal hash, logical
//!   record count, snapshot count, and the tail-replay record count all
//!   match the baseline bit for bit;
//! * **delta replay is O(tail)** — the records folded by
//!   [`replay_from`](crate::replay_from) are structurally fewer than a
//!   full replay's (asserted at bench time, pinned in the baseline);
//! * **throughput floor** — admissions/sec may not regress below
//!   [`MIN_PERF_RATIO`](desim::bench::MIN_PERF_RATIO) × baseline, and
//!   tail-replay latency may not exceed baseline / the same ratio.

use crate::ctrl::{run_campaign, CampaignOptions, CtrlConfig};
use crate::state::{replay, replay_from};
use desim::bench::{BenchRecord, Family, Gate::*, Kind::*, Value};
use desim::SimDuration;

/// The committed-baseline bench configuration. `cargo xtask lint` and
/// `spsim ctrl --campaign --write-baseline` must drive the *same*
/// campaign bit for bit, so both call this instead of hand-rolling a
/// config.
pub fn bench_config() -> (CtrlConfig, SimDuration) {
    (
        CtrlConfig {
            jobs: 48,
            seed: 7,
            failures: 2,
            ..CtrlConfig::default()
        },
        SimDuration::from_secs(600),
    )
}

/// The ctrl baseline family: wall-clock figures of the whole campaign and
/// of the full replay are informational, admissions/sec is floor-gated,
/// delta-replay latency ceiling-gated, every other key exact.
pub static CTRL: Family = Family {
    name: "ctrl",
    keys: &[
        ("jobs", U64, Exact),
        ("snapshot_every_s", U64, Exact),
        ("snapshots", U64, Exact),
        ("fingerprint", Str, Exact),
        ("journal_hash", Str, Exact),
        ("journal_records", U64, Exact),
        ("admissions", U64, Exact),
        ("wall_s", F64, Info),
        ("admissions_per_sec", F64, Floor),
        ("replay_full_records", U64, Exact),
        ("replay_tail_records", U64, Exact),
        ("replay_full_ms", F64, Info),
        ("replay_tail_ms", F64, Ceiling),
    ],
    same_run: None,
};

/// Run the ctrl benchmark: drive a snapshotted campaign, then time a
/// from-scratch replay against a delta replay from a mid-stream snapshot,
/// verifying both reproduce the live state's fingerprint.
pub fn run_ctrl_bench(
    cfg: &CtrlConfig,
    snapshot_every: SimDuration,
) -> Result<BenchRecord, String> {
    // detlint: allow(DET002) — wall-clock feeds throughput/latency
    // telemetry only; every simulated output is a pure function of the
    // config.
    let started = std::time::Instant::now();
    let out = run_campaign(
        cfg,
        &CampaignOptions {
            snapshot_every: Some(snapshot_every),
            ..CampaignOptions::default()
        },
    )?;
    let wall_s = started.elapsed().as_secs_f64();

    let journal = out.state.journal();
    let live_fp = out.state.fingerprint();
    // A quiesced campaign's *final* snapshot trails its last journaled
    // decision, so delta replay from it would fold nothing. Bench from the
    // three-quarter-point snapshot instead: that is the shape of a real
    // crash-restart — a snapshot mid-stream plus a genuine journal tail.
    let snap = out
        .snapshots
        .get(out.snapshots.len().saturating_sub(1) * 3 / 4)
        .ok_or_else(|| "campaign captured no snapshots; raise jobs or lower cadence".to_string())?;

    let full_started = std::time::Instant::now(); // detlint: allow(DET002) wall-clock bench timing
    let full = replay(journal).map_err(|e| format!("full replay failed: {e}"))?;
    let replay_full_ms = full_started.elapsed().as_secs_f64() * 1e3;
    if full.fingerprint() != live_fp {
        return Err("full replay diverged from the live state".to_string());
    }

    let tail_started = std::time::Instant::now(); // detlint: allow(DET002) wall-clock bench timing
    let tail =
        replay_from(&snap.fabric, journal).map_err(|e| format!("delta replay failed: {e}"))?;
    let replay_tail_ms = tail_started.elapsed().as_secs_f64() * 1e3;
    if tail.fingerprint() != live_fp {
        return Err("delta replay diverged from the live state".to_string());
    }

    let replay_full_records = journal.len() as u64;
    let replay_tail_records = replay_full_records.saturating_sub(snap.fabric.seq + 1);
    if replay_tail_records >= replay_full_records {
        return Err(format!(
            "delta replay folded {replay_tail_records} of {replay_full_records} records — \
             not O(tail)"
        ));
    }

    let admissions = out.metrics.counter("jobs.admitted");
    let admissions_per_sec = if wall_s > 0.0 {
        admissions as f64 / wall_s
    } else {
        0.0
    };

    Ok(BenchRecord::new(
        &CTRL,
        vec![
            ("jobs", Value::U64(cfg.jobs as u64)),
            (
                "snapshot_every_s",
                Value::U64(snapshot_every.as_ps() / desim::PS_PER_S),
            ),
            ("snapshots", Value::U64(out.snapshots.len() as u64)),
            ("fingerprint", Value::Str(format!("{live_fp:#018x}"))),
            (
                "journal_hash",
                Value::Str(format!("{:#018x}", journal.hash())),
            ),
            ("journal_records", Value::U64(replay_full_records)),
            ("admissions", Value::U64(admissions)),
            ("wall_s", Value::F64(wall_s)),
            ("admissions_per_sec", Value::F64(admissions_per_sec)),
            ("replay_full_records", Value::U64(replay_full_records)),
            ("replay_tail_records", Value::U64(replay_tail_records)),
            ("replay_full_ms", Value::F64(replay_full_ms)),
            ("replay_tail_ms", Value::F64(replay_tail_ms)),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_its_report_round_trips() {
        let cfg = CtrlConfig {
            jobs: 12,
            ..CtrlConfig::default()
        };
        let r = match run_ctrl_bench(&cfg, SimDuration::from_secs(600)) {
            Ok(r) => r,
            Err(e) => panic!("bench failed: {e}"),
        };
        assert!(r.num("snapshots") > 0.0);
        assert!(
            r.num("replay_tail_records") < r.num("replay_full_records"),
            "O(tail)"
        );
        let parsed = match BenchRecord::parse(&CTRL, &r.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(parsed, r);
    }
}
