//! The pod crate's headline contracts, tested end to end:
//!
//! 1. **Worker-count invariance**: `--shards ∈ {1, 2, 4, 8}` produces
//!    bit-identical fingerprints AND bit-identical journals (hash and
//!    canonical record encodings), across random seeds and loads.
//! 2. **Shard containment** (verify CTL405): every admission the pod
//!    journal records stays inside one rack-group slab — and a seeded
//!    violation (a forged straddling admit) is caught.

use desim::bench::BenchRecord;
use desim::SimDuration;
use pod::{bench_record, resume_pod, run_pod, run_pod_with, PodConfig, PodLayout, PodOptions, POD};
use proptest::prelude::*;
use verify::{check_journal, check_shard_containment, Report, RuleId};
use workloads::ArrivalParams;

fn fast(chips: usize, seed: u64, jobs: usize, failures: usize) -> PodConfig {
    PodConfig {
        chips,
        seed,
        jobs,
        failures,
        // Dense arrivals and short holds keep the horizon (and test time)
        // small while still spanning many epochs.
        epoch: SimDuration::from_secs(300),
        queue_timeout: SimDuration::from_secs(900),
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(30),
            mean_duration: SimDuration::from_secs(600),
            ..ArrivalParams::default()
        },
        ..PodConfig::default()
    }
}

/// The ISSUE's acceptance gate, verbatim: shards ∈ {1,2,4,8} replay
/// bit-identically — fingerprint and journal equal.
#[test]
fn shard_counts_1_2_4_8_replay_bit_identically() {
    let cfg = fast(512, 42, 48, 4);
    let reference = run_pod(&cfg, 1).expect("reference run");
    for shards in [2usize, 4, 8] {
        let run = run_pod(&cfg, shards).expect("parallel run");
        assert_eq!(
            run.fingerprint, reference.fingerprint,
            "{shards}-shard fingerprint diverged from the 1-shard reference"
        );
        assert_eq!(
            run.journal.hash(),
            reference.journal.hash(),
            "{shards}-shard journal diverged"
        );
        let canon = |j: &fabricd::Journal| -> Vec<String> {
            j.records().iter().map(|r| r.canon()).collect()
        };
        assert_eq!(canon(&run.journal), canon(&reference.journal));
        assert_eq!(run.events, reference.events);
        assert_eq!(run.epochs, reference.epochs);
        assert_eq!(
            run.metrics.rejection_report_json(),
            reference.metrics.rejection_report_json()
        );
    }
}

/// The pod journal passes the full control-plane audit (CTL401–404)
/// plus shard containment (CTL405).
#[test]
fn pod_journal_passes_the_control_plane_audit() {
    let cfg = fast(512, 7, 40, 3);
    let out = run_pod(&cfg, 4).expect("run");
    let layout = PodLayout::new(cfg.chips).expect("layout");
    let mut report = check_journal(&out.journal);
    check_shard_containment(&out.journal, layout.partition().group_z(), &mut report);
    assert!(
        report.is_clean(),
        "pod journal failed the audit:\n{}",
        report.render()
    );
}

/// Seeded violation: forging one admission that straddles a shard-domain
/// boundary trips CTL405 — proof the rule can actually fire on a pod
/// journal, not just on synthetic fixtures.
#[test]
fn forged_straddling_admission_trips_ctl405() {
    use fabricd::{Journal, JournalEntry};
    use topo::{Coord3, Shape3};

    let cfg = fast(512, 7, 12, 0);
    let out = run_pod(&cfg, 2).expect("run");
    let layout = PodLayout::new(cfg.chips).expect("layout");
    let group_z = layout.partition().group_z();

    let mut forged = Journal::new(*out.journal.header());
    for r in out.journal.records() {
        forged.push(r.at, r.entry.clone());
    }
    // An admit whose Z extent crosses the first group boundary.
    forged.push(
        out.journal
            .records()
            .last()
            .map_or(desim::SimTime::ZERO, |r| r.at),
        JournalEntry::Admit {
            job: 9_999,
            origin: Coord3::new(0, 0, group_z - 1),
            extent: Shape3::new(2, 2, 2),
        },
    );

    let mut report = Report::new();
    check_shard_containment(&forged, group_z, &mut report);
    assert!(report.has(RuleId::Ctl405), "forged straddle not caught");
    assert_eq!(report.by_rule(RuleId::Ctl405).len(), 1);
}

/// A pod bench record built from a real run survives its own JSON.
#[test]
fn bench_report_round_trips_from_a_real_run() {
    let cfg = fast(256, 11, 20, 2);
    let out = run_pod(&cfg, 2).expect("run");
    let report = bench_record(&out, cfg.jobs);
    let parsed = match BenchRecord::parse(&POD, &report.to_json()) {
        Ok(p) => p,
        Err(e) => panic!("round trip failed: {e}"),
    };
    assert_eq!(parsed, report);
    assert_eq!(
        parsed.text("fingerprint"),
        format!("{:#018x}", out.fingerprint)
    );
    assert_eq!(
        parsed.text("journal_hash"),
        format!("{:#018x}", out.journal.hash())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Worker-count invariance holds across random seeds and load mixes,
    /// not just the committed configuration.
    #[test]
    fn shard_invariance_holds_for_random_pods(
        seed in 0u64..1_000,
        jobs in 4usize..32,
        failures in 0usize..4,
        shards in 2usize..9,
    ) {
        let cfg = fast(256, seed, jobs, failures);
        let a = run_pod(&cfg, 1).expect("sequential");
        let b = run_pod(&cfg, shards).expect("parallel");
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        prop_assert_eq!(a.journal.hash(), b.journal.hash());
        prop_assert_eq!(a.events, b.events);
    }

    /// Every random pod journal stays shard-contained and audit-clean.
    #[test]
    fn random_pod_journals_stay_shard_contained(
        seed in 0u64..1_000,
        jobs in 4usize..24,
    ) {
        let cfg = fast(256, seed, jobs, 2);
        let out = run_pod(&cfg, 3).expect("run");
        let layout = PodLayout::new(cfg.chips).expect("layout");
        let mut report = check_journal(&out.journal);
        check_shard_containment(&out.journal, layout.partition().group_z(), &mut report);
        prop_assert!(report.is_clean(), "audit failed:\n{}", report.render());
    }

    /// Satellite 1 (pod half): the snapshot stream — every captured
    /// `PodSnapshot`, the final fingerprint, and the journal hash — is
    /// bit-identical across shards ∈ {1, 2, 4} for random seeds, loads,
    /// and snapshot cadences, compacted or not.
    #[test]
    fn pod_snapshot_stream_is_invariant_across_shards(
        seed in 0u64..1_000,
        jobs in 4usize..24,
        every in 1u64..6,
        compact in any::<bool>(),
    ) {
        let cfg = fast(256, seed, jobs, 2);
        let opts = PodOptions { snapshot_every: every, compact, crash_after_epochs: None };
        let reference = run_pod_with(&cfg, 1, &opts).expect("sequential");
        for shards in [2usize, 4] {
            let run = run_pod_with(&cfg, shards, &opts).expect("parallel");
            prop_assert_eq!(&run.snapshots, &reference.snapshots);
            prop_assert_eq!(run.fingerprint, reference.fingerprint);
            prop_assert_eq!(run.journal.hash(), reference.journal.hash());
            prop_assert_eq!(run.journal.len(), reference.journal.len());
        }
    }

    /// Satellite 2 (pod half): crash the pod campaign at a random epoch,
    /// restart from the latest snapshot (with a different worker count),
    /// and the resumed run's final fingerprint, journal hash, and logical
    /// record count equal the uninterrupted run's.
    #[test]
    fn pod_crash_restart_matches_uninterrupted_run(
        seed in 0u64..1_000,
        jobs in 4usize..24,
        every in 1u64..4,
        crash_frac in 0.2f64..0.9,
        compact in any::<bool>(),
    ) {
        let cfg = fast(256, seed, jobs, 2);
        let opts = PodOptions { snapshot_every: every, compact, crash_after_epochs: None };
        let full = run_pod_with(&cfg, 2, &opts).expect("uninterrupted");
        prop_assume!(full.epochs >= 2);

        let crash_at = ((full.epochs as f64 * crash_frac) as u64).max(1);
        let crashed = run_pod_with(&cfg, 3, &PodOptions {
            crash_after_epochs: Some(crash_at),
            ..opts
        }).expect("crashed run");

        if crashed.crashed {
            // Restartable only if a snapshot landed before the crash;
            // otherwise a fresh run IS the restart, which `full` covers.
            if let Some(snap) = crashed.snapshots.last() {
                let resumed = resume_pod(snap, 4, &opts).expect("resumed run");
                prop_assert!(!resumed.crashed);
                prop_assert_eq!(resumed.epochs, full.epochs);
                prop_assert_eq!(resumed.fingerprint, full.fingerprint);
                prop_assert_eq!(resumed.journal.hash(), full.journal.hash());
                prop_assert_eq!(resumed.journal.len(), full.journal.len());
                prop_assert_eq!(resumed.events, full.events);
                prop_assert_eq!(resumed.horizon, full.horizon);
            }
        } else {
            prop_assert_eq!(crashed.fingerprint, full.fingerprint);
        }
    }
}
