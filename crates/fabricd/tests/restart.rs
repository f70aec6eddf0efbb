//! The replay-equivalence harness pinning the snapshot/compaction/restart
//! contract:
//!
//! 1. For any seed, campaign length, and snapshot cadence, restoring the
//!    latest snapshot and folding only the journal tail reproduces the
//!    from-scratch replay bit for bit — same state fingerprint, same
//!    journal hash, same logical record count — with or without journal
//!    compaction.
//! 2. Crashing a campaign at an arbitrary event and restarting from the
//!    last snapshot yields a final state bit-identical to the
//!    uninterrupted run's.
//! 3. A mutated snapshot artifact is rejected or resumes to that same
//!    state; it never panics and never resumes to a different one.

use desim::SimDuration;
use fabricd::{
    replay, replay_from, resume_campaign, run_campaign, CampaignOptions, CampaignOutcome,
    CtrlConfig, CtrlSnapshot,
};
use proptest::prelude::*;
use workloads::ArrivalParams;

fn config(seed: u64, jobs: usize, failures: usize, interarrival_s: u64) -> CtrlConfig {
    CtrlConfig {
        jobs,
        seed,
        failures,
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(interarrival_s),
            ..ArrivalParams::default()
        },
        ..CtrlConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite 1 (ctrl half): snapshot-restore + tail replay is
    /// bit-identical to a full from-scratch replay, for random seeds,
    /// campaign lengths, and snapshot intervals, compacted or not.
    #[test]
    fn delta_replay_matches_full_replay(
        seed in 0u64..1_000,
        jobs in 2usize..14,
        failures in 0usize..3,
        interarrival in 30u64..600,
        every_s in 120u64..1_200,
        compact in any::<bool>(),
    ) {
        let cfg = config(seed, jobs, failures, interarrival);
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(every_s)),
            compact,
            crash_after_events: None,
        };
        let out = run_campaign(&cfg, &opts).map_err(TestCaseError::Fail)?;
        let journal = out.state.journal();
        let live_fp = out.state.fingerprint();

        if let Some(snap) = out.snapshots.last() {
            // Delta replay: restore the snapshot, fold only the tail. The
            // state fingerprint (occupancy, fabric, jobs, incidents,
            // reservations) must match the live run's bit for bit; the
            // restored journal resumes the chain exactly at the snapshot
            // watermark (replayed journals are reconstructions, so their
            // hash equivalence is pinned by the live-resume test below).
            let tail = replay_from(&snap.fabric, journal)
                .map_err(|e| TestCaseError::Fail(e.to_string()))?;
            prop_assert_eq!(tail.fingerprint(), live_fp);
            prop_assert_eq!(tail.journal().next_seq(), snap.fabric.seq + 1);
            prop_assert_eq!(tail.journal().base_fnv(), snap.fabric.base_fnv);

            // Full replay only exists for uncompacted journals; when it
            // does, it must agree with the delta replay bit for bit.
            if !compact {
                let full = replay(journal)
                    .map_err(|e| TestCaseError::Fail(e.to_string()))?;
                prop_assert_eq!(full.fingerprint(), live_fp);
            } else {
                prop_assert!(journal.base_seq() > 0, "compaction happened");
                prop_assert!(replay(journal).is_err(), "full replay rejects a compacted journal");
            }
        }
    }

    /// Satellite 2 (ctrl half): kill the campaign at a random event count,
    /// restart from the latest snapshot, and the resumed run's final
    /// fingerprint, journal hash, horizon, and metrics equal the
    /// uninterrupted run's.
    #[test]
    fn crash_restart_matches_uninterrupted_run(
        seed in 0u64..1_000,
        jobs in 2usize..14,
        failures in 0usize..3,
        every_s in 120u64..900,
        crash_frac in 0.1f64..0.9,
        compact in any::<bool>(),
    ) {
        let cfg = config(seed, jobs, failures, 120);
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(every_s)),
            compact,
            crash_after_events: None,
        };
        let full = run_campaign(&cfg, &opts).map_err(TestCaseError::Fail)?;
        prop_assume!(full.events_executed >= 2);

        let crash_at = ((full.events_executed as f64 * crash_frac) as u64).max(1);
        let crashed = run_campaign(&cfg, &CampaignOptions {
            crash_after_events: Some(crash_at),
            ..opts
        }).map_err(TestCaseError::Fail)?;

        if crashed.crashed {
            // Only restartable if a snapshot landed before the crash;
            // otherwise a fresh run IS the restart, which `full` covers.
            if let Some(snap) = crashed.snapshots.last() {
                let resumed = resume_campaign(snap, &CampaignOptions {
                    crash_after_events: None,
                    ..opts
                }).map_err(TestCaseError::Fail)?;
                prop_assert!(!resumed.crashed);
                prop_assert_eq!(resumed.state.fingerprint(), full.state.fingerprint());
                prop_assert_eq!(resumed.state.journal().hash(), full.state.journal().hash());
                prop_assert_eq!(resumed.state.journal().len(), full.state.journal().len());
                prop_assert_eq!(resumed.horizon, full.horizon);
                prop_assert_eq!(resumed.metrics.summary(), full.metrics.summary());
                prop_assert_eq!(
                    resumed.metrics.rejection_report_json(),
                    full.metrics.rejection_report_json()
                );
            }
        } else {
            // The campaign drained before the crash point; the "crashed"
            // run is simply the full run.
            prop_assert_eq!(crashed.state.fingerprint(), full.state.fingerprint());
        }
    }
}

/// Outcome of feeding one artifact to `parse` + `resume_campaign`.
#[derive(Debug, PartialEq, Eq)]
enum Fate {
    Rejected,
    Resumed { fingerprint: u64, journal_hash: u64 },
}

fn fate_of(out: &CampaignOutcome) -> Fate {
    Fate::Resumed {
        fingerprint: out.state.fingerprint(),
        journal_hash: out.state.journal().hash(),
    }
}

fn fate(text: &str, opts: &CampaignOptions) -> Fate {
    CtrlSnapshot::parse(text)
        .and_then(|snap| resume_campaign(&snap, opts))
        .map_or(Fate::Rejected, |out| fate_of(&out))
}

/// The ctrl-restart benchmark campaign (4 racks, 512 jobs, retries,
/// failures, snapshots every 600 s) crashed halfway: its last snapshot
/// artifact is mutated by truncation at every line boundary, a one-bit
/// flip at a fixed byte stride, and every adjacent-line swap. Each
/// mutant must be rejected by `parse`/`resume_campaign` or resume to the
/// uninterrupted run's fingerprint and journal hash — never panic.
#[test]
fn mutated_ctrl_artifacts_are_rejected_or_resume_identically() {
    let cfg = CtrlConfig {
        racks: 4,
        jobs: 512,
        seed: 7,
        failures: 4,
        program_retries: 2,
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(60),
            ..ArrivalParams::default()
        },
        ..CtrlConfig::default()
    };
    let opts = CampaignOptions {
        snapshot_every: Some(SimDuration::from_secs(600)),
        compact: true,
        crash_after_events: None,
    };
    let full = run_campaign(&cfg, &opts).expect("uninterrupted run");
    let crashed = run_campaign(
        &cfg,
        &CampaignOptions {
            crash_after_events: Some(full.events_executed / 2),
            ..opts
        },
    )
    .expect("crashed run");
    assert!(crashed.crashed);
    let text = crashed.snapshots.last().expect("snapshot").to_text();
    let want = fate_of(&full);
    assert_eq!(fate(&text, &opts), want, "the unmutated artifact resumes");

    let mut mutants: Vec<(String, String)> = Vec::new();
    mutants.push(("empty".into(), String::new()));
    for (i, _) in text.match_indices('\n') {
        if i + 1 < text.len() {
            mutants.push((format!("truncated after byte {i}"), text[..=i].to_string()));
        }
    }
    // A bit-0 flip keeps every ASCII byte ASCII, so each mutant is text.
    const STRIDE: usize = 97;
    for i in (0..text.len()).step_by(STRIDE) {
        let mut bytes = text.clone().into_bytes();
        if bytes[i].is_ascii() {
            bytes[i] ^= 1;
            let m = String::from_utf8(bytes).expect("ASCII flip keeps UTF-8");
            mutants.push((format!("bit flip at byte {i}"), m));
        }
    }
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    for i in 0..lines.len().saturating_sub(1) {
        let mut swapped = lines.clone();
        swapped.swap(i, i + 1);
        mutants.push((format!("lines {i} and {} swapped", i + 1), swapped.concat()));
    }
    assert!(mutants.len() > 100, "{} mutants", mutants.len());

    let mut rejected = 0;
    for (what, m) in &mutants {
        let got = std::panic::catch_unwind(|| fate(m, &opts))
            .unwrap_or_else(|_| panic!("{what}: parse/resume panicked"));
        match got {
            Fate::Rejected => rejected += 1,
            resumed => assert_eq!(resumed, want, "{what}: resumed to a different state"),
        }
    }
    assert!(rejected > 0);
}
