//! Workspace automation: `cargo xtask lint`.
//!
//! A static-analysis driver that needs no network and no extra tooling
//! beyond the toolchain already in the container:
//!
//! 1. **verify** — runs the [`verify`] rule catalog over golden artifacts
//!    mirroring `bench::experiments`: the Table 1/2 ring and bucket
//!    schedules, the rotation all-to-all (whose electrical build must trip
//!    SCH001 — a negative control proving the verifier has teeth), the §3
//!    capability wafer, and the Fig 7 optical repair (RES301).
//! 2. **detlint** — the token-level determinism & panic-freedom analyzer
//!    in [`detlint`] walks every workspace crate: `HashMap` iteration on
//!    fingerprint paths, wall clocks in simulation crates, unseeded
//!    randomness, raw `f64` ordering, unwrap/expect/panic/indexing in
//!    non-test code, bare thread spawns, and `unsafe` anywhere. Inline
//!    suppressions require a reason; `detlint.toml` baselines only
//!    ratchet down. A planted-violation negative control proves the
//!    analyzer has teeth on every run.
//! 3. **perf baselines** — for each row of `BENCH_GATES` (sweep, route,
//!    pod, ctrl, placement), re-runs the `spsim` command that wrote the
//!    committed `BENCH_*.json` (release build) and gates the fresh
//!    [`desim::bench::BenchRecord`] on it: exact keys (fingerprints,
//!    journal hashes, counts) must match, floor/ceiling keys stay within
//!    the tolerance ratio.
//! 4. **fmt** — `cargo fmt --check` (skipped gracefully when rustfmt is
//!    not installed).
//! 5. **clippy** — `cargo clippy --workspace --all-targets` with
//!    `-D warnings` and a curated allow-list (skipped gracefully when
//!    clippy is not installed).
//!
//! `cargo xtask catalog` prints both rule catalogs (verify + detlint).
//! `cargo xtask detlint [--json] [paths…]` runs the analyzer standalone.

#![forbid(unsafe_code)]

use collectives::cost::CostParams;
use collectives::{
    all_to_all, bucket_reduce_scatter, ring_all_reduce, ring_reduce_scatter, snake_order, Mode,
};
use desim::bench::{BenchRecord, Family};
use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
use resilience::{fig6a, optical_repair, PhotonicRack};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use topo::{Coord3, Dim, Shape3, Slice, Torus};
use verify::{
    check_fabric, check_repair_fabric, check_schedule, check_wafer, CollectiveSpec, Report, RuleId,
    ScheduleContext, Severity, TileOwnership,
};

/// Clippy lints allowed on top of `-D warnings` (style calls this
/// workspace makes deliberately; everything else stays denied).
const CLIPPY_ALLOW: &[&str] = &[
    "clippy::too_many_arguments",
    "clippy::type_complexity",
    "clippy::new_without_default",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("lint");
    let rest = args.get(1..).unwrap_or_default();
    match cmd {
        "lint" => lint(rest),
        "detlint" => detlint_cmd(rest),
        "catalog" => {
            catalog();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "unknown xtask `{other}`; available: lint [--skip-fmt --skip-clippy \
                 --skip-bench], detlint [--json] [paths…], catalog"
            );
            ExitCode::FAILURE
        }
    }
}

fn catalog() {
    println!("verify rule catalog:");
    for rule in RuleId::ALL {
        println!("  {:<7} {}", rule.code(), rule.summary());
    }
    println!();
    println!("detlint rule catalog:");
    for rule in detlint::Rule::ALL {
        println!("  {:<8} {}", rule.code(), rule.summary());
    }
}

fn lint(flags: &[String]) -> ExitCode {
    let skip_fmt = flags.iter().any(|f| f == "--skip-fmt");
    let skip_clippy = flags.iter().any(|f| f == "--skip-clippy");
    let skip_bench = flags.iter().any(|f| f == "--skip-bench");
    let root = workspace_root();
    let mut failures: Vec<String> = Vec::new();

    section("verify: golden schedules & circuits");
    failures.extend(verify_golden(&root));

    section("detlint: determinism & panic-freedom");
    failures.extend(detlint_run(&root, false, &[]));

    for gate in BENCH_GATES {
        section(&format!("perf baseline: {}", gate.file));
        if skip_bench {
            println!("  skipped (--skip-bench)");
        } else {
            failures.extend(run_bench_gate(&root, gate));
        }
    }

    section("cargo fmt --check");
    if skip_fmt {
        println!("  skipped (--skip-fmt)");
    } else {
        failures.extend(run_fmt(&root));
    }

    section("cargo clippy -D warnings");
    if skip_clippy {
        println!("  skipped (--skip-clippy)");
    } else {
        failures.extend(run_clippy(&root));
    }

    println!();
    if failures.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} failure(s)", failures.len());
        for f in &failures {
            println!("  ✗ {f}");
        }
        ExitCode::FAILURE
    }
}

fn section(title: &str) {
    println!("== {title} ==");
}

// ------------------------------------------------------------ verifier ----

/// Buffer size for the golden schedules (64 MiB, the paper's Fig 5b scale).
const N_BYTES: f64 = (64u64 << 20) as f64;

fn expect_clean(failures: &mut Vec<String>, what: &str, report: &Report) {
    let warnings = report.diagnostics.len() - report.error_count();
    if report.error_count() > 0 {
        failures.push(format!("{what}: {} error(s)", report.error_count()));
        println!("  FAIL {what}");
        for d in report.errors() {
            println!("       {d}");
        }
    } else if warnings > 0 {
        println!("  ok   {what} ({warnings} warning(s))");
        for d in &report.diagnostics {
            if d.severity == Severity::Warning {
                println!("       {d}");
            }
        }
    } else {
        println!("  ok   {what}");
    }
}

fn verify_golden(root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    let params = CostParams::default();
    let rack = Shape3::rack_4x4x4();
    let torus = Torus::new(rack);

    // Table 1: ring ReduceScatter on Slice-1 (4×2×1, p = 8).
    let slice1 = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let members = snake_order(&slice1);
    for (label, mode) in [
        ("electrical", Mode::Electrical),
        ("optical", Mode::OpticalFullSteer),
    ] {
        let sched = ring_reduce_scatter(&members, N_BYTES, mode, rack, &torus, &params);
        let ctx =
            ScheduleContext::new(rack, members.clone()).expecting(CollectiveSpec::ReduceScatter {
                n_bytes: N_BYTES,
                p: members.len(),
            });
        let report = check_schedule(&sched, &ctx);
        expect_clean(
            &mut failures,
            &format!("table1 ring reduce-scatter ({label})"),
            &report,
        );
    }

    // Ring AllReduce on the same slice (Fig 5b's collective).
    let sched = ring_all_reduce(
        &members,
        N_BYTES,
        Mode::OpticalFullSteer,
        rack,
        &torus,
        &params,
    );
    let ctx = ScheduleContext::new(rack, members.clone()).expecting(CollectiveSpec::AllReduce {
        n_bytes: N_BYTES,
        p: members.len(),
    });
    expect_clean(
        &mut failures,
        "ring all-reduce (optical)",
        &check_schedule(&sched, &ctx),
    );

    // Table 2: bucket ReduceScatter on Slice-3 (4×4×1, D = 2).
    let slice3 = Slice::new(3, Coord3::new(0, 0, 1), Shape3::new(4, 4, 1));
    for (label, mode) in [
        ("electrical", Mode::Electrical),
        ("optical", Mode::OpticalStaticSplit),
    ] {
        let sched = bucket_reduce_scatter(
            &slice3,
            &[Dim::X, Dim::Y],
            N_BYTES,
            mode,
            rack,
            &torus,
            &params,
        );
        let ctx = ScheduleContext::new(rack, slice3.coords().collect()).expecting(
            CollectiveSpec::ReduceScatter {
                n_bytes: N_BYTES,
                p: slice3.chips(),
            },
        );
        let report = check_schedule(&sched, &ctx);
        expect_clean(
            &mut failures,
            &format!("table2 bucket reduce-scatter ({label})"),
            &report,
        );
    }

    // §5 all-to-all. Optically it must verify clean; electrically the
    // rotation congests the torus by design — the negative control: the
    // driver FAILS if SCH001 does *not* fire.
    let chips: Vec<Coord3> = rack.coords().collect();
    let optical = all_to_all(
        &chips,
        N_BYTES,
        Mode::OpticalFullSteer,
        rack,
        &torus,
        &params,
    );
    let ctx = ScheduleContext::new(rack, chips.clone()).expecting(CollectiveSpec::AllToAll {
        n_bytes: N_BYTES,
        p: chips.len(),
    });
    expect_clean(
        &mut failures,
        "all-to-all (optical)",
        &check_schedule(&optical, &ctx),
    );
    let electrical = all_to_all(&chips, N_BYTES, Mode::Electrical, rack, &torus, &params);
    let report = verify::check_oversubscription(&electrical);
    if report.has(RuleId::Sch001) {
        println!(
            "  ok   all-to-all (electrical) trips SCH001 as designed ({} oversubscribed links)",
            report.diagnostics.len()
        );
    } else {
        failures.push("negative control: electrical all-to-all did not trip SCH001".into());
        println!("  FAIL negative control: electrical all-to-all did not trip SCH001");
    }
    // Its bytes still conserve even though its links congest.
    expect_clean(
        &mut failures,
        "all-to-all (electrical) byte conservation",
        &verify::check_byte_conservation(&electrical, &ctx),
    );

    // §3 capability wafer: the corner-to-corner full-WDM circuit.
    let cap = bench::experiments::run_capability();
    let mut wafer = Wafer::new(WaferConfig::lightpath_32());
    if let Err(e) = wafer.establish(CircuitRequest::new(
        TileCoord::new(0, 0),
        TileCoord::new(3, 7),
        16,
    )) {
        failures.push(format!("capability circuit refused: {e:?}"));
    }
    println!(
        "  ok   capability wafer: {} tiles, worst-case margin {:.2} dB",
        cap.tiles, cap.worst_margin_db
    );
    expect_clean(
        &mut failures,
        "capability wafer circuits",
        &check_wafer(&wafer),
    );

    // Fig 7: optical repair of the Fig 6a failure; blast radius must hold.
    let scenario = fig6a();
    let mut prack = PhotonicRack::new(1);
    let Some(&free_wafer) = scenario.free.first() else {
        failures.push("fig6a scenario has no free wafer".into());
        return failures;
    };
    match optical_repair(&mut prack, &scenario.victim, scenario.failed, free_wafer) {
        Ok(rep) => {
            println!(
                "  ok   fig7 repair established {} circuits in {:.1} µs",
                rep.circuits,
                rep.setup.as_micros_f64()
            );
            expect_clean(
                &mut failures,
                "fig7 repair fabric",
                &check_fabric(&prack.fabric),
            );
            let ownership = TileOwnership::from_occupancy(&prack.cluster, &scenario.occ);
            expect_clean(
                &mut failures,
                "fig7 repair blast radius (RES301)",
                &check_repair_fabric(&prack.fabric, &ownership, scenario.victim.id),
            );
        }
        Err(e) => failures.push(format!("fig7 optical repair failed: {e:?}")),
    }

    // fabricd golden journal: a seeded multi-tenant scenario with one
    // injected failure must journal a repair and audit clean under
    // CTL401/CTL402, and its replay must reproduce the live telemetry.
    let cfg = fabricd::CtrlConfig {
        jobs: 6,
        seed: 7,
        failures: 1,
        ..fabricd::CtrlConfig::default()
    };
    let out = fabricd::run_scenario(&cfg);
    let journal = out.state.journal();
    let repairs = journal
        .records()
        .iter()
        .filter(|r| matches!(r.entry, fabricd::JournalEntry::Repair { .. }))
        .count();
    if repairs == 0 {
        failures.push("golden journal: scenario produced no Repair record".into());
        println!("  FAIL golden journal: no Repair record");
    } else {
        println!(
            "  ok   golden journal: {} records, {} repair(s), hash {:#018x}",
            journal.len(),
            repairs,
            journal.hash()
        );
    }
    expect_clean(
        &mut failures,
        "golden journal (CTL401/CTL402)",
        &verify::check_journal(journal),
    );
    match fabricd::replay(journal) {
        Ok(replayed) if replayed.telemetry() == out.state.telemetry() => {
            println!("  ok   golden journal replay reproduces live telemetry");
        }
        Ok(_) => {
            failures.push("golden journal replay diverged from live telemetry".into());
            println!("  FAIL golden journal replay diverged from live telemetry");
        }
        Err(e) => {
            failures.push(format!("golden journal replay error: {e}"));
            println!("  FAIL golden journal replay: {e}");
        }
    }

    // Negative controls: the CTL rules must have teeth. A repair with no
    // prior Fail must trip CTL402; overlapping admits must trip CTL401.
    let mut forged = fabricd::Journal::new(*journal.header());
    forged.push(
        desim::SimTime::ZERO,
        fabricd::JournalEntry::Repair {
            incident: 99,
            replacement: Coord3::new(0, 0, 3),
            circuits: 8,
            servers_touched: 2,
            blast_servers: 1,
        },
    );
    for job in [0u32, 1] {
        forged.push(
            desim::SimTime::from_ps(1),
            fabricd::JournalEntry::Admit {
                job,
                origin: Coord3::new(0, 0, 0),
                extent: Shape3::new(2, 2, 1),
            },
        );
    }
    let report = verify::check_journal(&forged);
    for (rule, what) in [
        (RuleId::Ctl402, "orphan repair"),
        (RuleId::Ctl401, "overlapping admits"),
    ] {
        if report.has(rule) {
            println!("  ok   forged journal trips {rule} as designed ({what})");
        } else {
            failures.push(format!("negative control: {what} did not trip {rule}"));
            println!("  FAIL negative control: {what} did not trip {rule}");
        }
    }

    // RTE501: the golden scenario's stamped admissions must carry
    // boundary contracts that audit clean against the wafers they landed
    // on — and a forged contract must trip the rule.
    let audit = out.state.plan_engine().audit();
    let stamps = audit.records.len();
    let contract_edges: usize = audit.records.iter().map(|r| r.edges.len()).sum();
    if stamps == 0 {
        failures.push("golden scenario admitted no batches by stamping".into());
        println!("  FAIL golden scenario: plan library never stamped");
    } else {
        println!(
            "  ok   golden scenario stamped {stamps} batch(es) ({contract_edges} contract edge(s) audited)"
        );
    }
    expect_clean(
        &mut failures,
        "stamped-plan boundary contracts (RTE501)",
        &verify::check_stamp_audit(&audit),
    );
    let mut forged_audit = audit.clone();
    forged_audit.records.push(route::StampRecord {
        origin: (0, 0),
        edges: vec![
            route::AuditEdge {
                a: (0, 0),
                b: (0, 1),
                expected_stitch_db: 0.25,
                observed_stitch_db: 0.75,
                pre_load: 0,
            },
            route::AuditEdge {
                a: (1, 0),
                b: (1, 1),
                expected_stitch_db: 0.25,
                observed_stitch_db: 0.25,
                pre_load: 2,
            },
        ],
    });
    let report = verify::check_stamp_audit(&forged_audit);
    if report.by_rule(RuleId::Rte501).len() >= 2 {
        println!("  ok   forged boundary contract trips RTE501 as designed (loss + occupancy)");
    } else {
        failures.push("negative control: forged boundary contract did not trip RTE501".into());
        println!("  FAIL negative control: forged boundary contract did not trip RTE501");
    }

    // Fault-campaign golden: the same seeded scenario with one retry
    // allowed must journal machine-readable Reject + Rollback pairs for
    // the programming failures it hits, still audit clean under the full
    // CTL rule set (403/404 included), and still replay bit-for-bit.
    let fault_cfg = fabricd::CtrlConfig {
        seed: 7,
        failures: 1,
        program_retries: 1,
        ..fabricd::CtrlConfig::default()
    };
    let fault_out = fabricd::run_scenario(&fault_cfg);
    let fault_journal = fault_out.state.journal();
    let rejects = fault_journal
        .records()
        .iter()
        .filter(|r| matches!(r.entry, fabricd::JournalEntry::Reject { .. }))
        .count();
    if rejects == 0 {
        failures.push("fault-campaign golden: no Reject record journaled".into());
        println!("  FAIL fault-campaign golden: no Reject record");
    } else {
        println!(
            "  ok   fault-campaign golden: {} records, {} reject(s), hash {:#018x}",
            fault_journal.len(),
            rejects,
            fault_journal.hash()
        );
    }
    expect_clean(
        &mut failures,
        "fault-campaign journal (CTL401-CTL404)",
        &verify::check_journal(fault_journal),
    );
    match fabricd::replay(fault_journal) {
        Ok(replayed) if replayed.telemetry() == fault_out.state.telemetry() => {
            println!("  ok   fault-campaign replay reproduces live telemetry");
        }
        Ok(_) => {
            failures.push("fault-campaign replay diverged from live telemetry".into());
            println!("  FAIL fault-campaign replay diverged from live telemetry");
        }
        Err(e) => {
            failures.push(format!("fault-campaign replay error: {e}"));
            println!("  FAIL fault-campaign replay: {e}");
        }
    }

    // Negative controls for the rejection rules: an unregistered reason
    // code must trip CTL403; a rollback with no originating reject must
    // trip CTL404.
    let mut forged_reject = fabricd::Journal::new(*journal.header());
    forged_reject.push(
        desim::SimTime::ZERO,
        fabricd::JournalEntry::Reject {
            job: 1,
            shape: Shape3::new(2, 2, 1),
            attempt: 0,
            code: "made-up/not-in-registry",
        },
    );
    forged_reject.push(
        desim::SimTime::ZERO,
        fabricd::JournalEntry::Rollback {
            job: 1,
            attempt: 0,
            circuits: 0,
        },
    );
    forged_reject.push(
        desim::SimTime::from_ps(1),
        fabricd::JournalEntry::Rollback {
            job: 2,
            attempt: 0,
            circuits: 3,
        },
    );
    let report = verify::check_journal(&forged_reject);
    for (rule, what) in [
        (RuleId::Ctl403, "unregistered reason code"),
        (RuleId::Ctl404, "orphan rollback"),
    ] {
        if report.has(rule) {
            println!("  ok   forged journal trips {rule} as designed ({what})");
        } else {
            failures.push(format!("negative control: {what} did not trip {rule}"));
            println!("  FAIL negative control: {what} did not trip {rule}");
        }
    }

    // Snapshotted-campaign golden: the BENCH_ctrl campaign re-run with its
    // committed cadence must journal Snapshot records that audit clean
    // under the full CTL rule set — CTL406 (committed snapshot fingerprint
    // equals the replayed-prefix fingerprint) and CTL407 (compaction
    // watermark integrity) included — and its last snapshot must match the
    // committed `golden/ctrl_snapshot.txt` artifact byte for byte, with
    // delta replay from it landing on the live fingerprint.
    let (bench_cfg, every) = fabricd::bench_config();
    let snap_opts = fabricd::CampaignOptions {
        snapshot_every: Some(every),
        ..fabricd::CampaignOptions::default()
    };
    match fabricd::run_campaign(&bench_cfg, &snap_opts) {
        Err(e) => {
            failures.push(format!("snapshot campaign failed: {e}"));
            println!("  FAIL snapshot campaign: {e}");
        }
        Ok(out) => {
            let journal = out.state.journal();
            expect_clean(
                &mut failures,
                "snapshot-campaign journal (CTL401-CTL407)",
                &verify::check_journal(journal),
            );
            let golden_path = root.join("golden").join("ctrl_snapshot.txt");
            let regen = "regenerate with `spsim ctrl --campaign --jobs 48 --failures 2 \
                         --snapshot-every 600 --snapshot-out golden/ctrl_snapshot.txt`";
            match (out.snapshots.last(), std::fs::read_to_string(&golden_path)) {
                (None, _) => {
                    failures.push("snapshot campaign captured no snapshots".into());
                    println!("  FAIL snapshot campaign captured no snapshots");
                }
                (Some(_), Err(e)) => {
                    failures.push(format!(
                        "missing golden snapshot {}: {e} — {regen}",
                        golden_path.display()
                    ));
                    println!("  FAIL missing {}", golden_path.display());
                }
                (Some(snap), Ok(text)) => {
                    if snap.to_text() != text {
                        failures.push(format!(
                            "golden snapshot artifact drifted from the live campaign — {regen}"
                        ));
                        println!("  FAIL golden snapshot artifact drifted");
                    } else {
                        match fabricd::CtrlSnapshot::parse(&text).and_then(|parsed| {
                            fabricd::replay_from(&parsed.fabric, journal).map_err(|e| e.to_string())
                        }) {
                            Ok(st) if st.fingerprint() == out.state.fingerprint() => {
                                println!(
                                    "  ok   golden snapshot (seq {}) round-trips; delta replay \
                                     reproduces fingerprint {:#018x}",
                                    snap.fabric.seq,
                                    out.state.fingerprint()
                                );
                            }
                            Ok(_) => {
                                failures.push("golden snapshot delta replay diverged".into());
                                println!("  FAIL golden snapshot delta replay diverged");
                            }
                            Err(e) => {
                                failures.push(format!("golden snapshot: {e}"));
                                println!("  FAIL golden snapshot: {e}");
                            }
                        }
                    }
                }
            }

            // Negative controls for the snapshot rules. CTL406: re-journal
            // the campaign with one committed snapshot fingerprint flipped
            // — the forgery must be caught. CTL407: a compacted journal
            // whose first retained record is not the watermark Snapshot
            // (compaction ate a live record) must be caught.
            let mut forged_snap = fabricd::Journal::new(*journal.header());
            let mut flipped = false;
            for r in journal.records() {
                match r.entry {
                    fabricd::JournalEntry::Snapshot { fingerprint } if !flipped => {
                        flipped = true;
                        forged_snap.push(
                            r.at,
                            fabricd::JournalEntry::Snapshot {
                                fingerprint: fingerprint ^ 1,
                            },
                        );
                    }
                    _ => {
                        forged_snap.push(r.at, r.entry.clone());
                    }
                }
            }
            let mut hungry = fabricd::Journal::with_base(*journal.header(), 3, 0xdead_beef);
            hungry.push(
                desim::SimTime::ZERO,
                fabricd::JournalEntry::Admit {
                    job: 1,
                    origin: Coord3::new(0, 0, 0),
                    extent: Shape3::new(2, 2, 1),
                },
            );
            for (journal, rule, what) in [
                (&forged_snap, RuleId::Ctl406, "forged snapshot fingerprint"),
                (&hungry, RuleId::Ctl407, "compaction ate a live record"),
            ] {
                if verify::check_journal(journal).has(rule) {
                    println!("  ok   forged journal trips {rule} as designed ({what})");
                } else {
                    failures.push(format!("negative control: {what} did not trip {rule}"));
                    println!("  FAIL negative control: {what} did not trip {rule}");
                }
            }
        }
    }

    // Cross-group admission golden (CTL408): the stitch placement policy
    // at a scale where whole jobs span rack faces must land at least one
    // multi-group admission, and the pod journal must audit clean under
    // the cross-group rule. Then the negative controls: a forged
    // straddling Admit (no covering stitch record) and a forged
    // out-of-face stitch port must both trip CTL408.
    let stitch_cfg = pod::PodConfig {
        chips: 512,
        jobs: 96,
        failures: 2,
        policy: pod::PolicyKind::Stitch,
        ..pod::PodConfig::default()
    };
    match (
        pod::PodLayout::new(stitch_cfg.chips),
        pod::run_pod(&stitch_cfg, 1),
    ) {
        (Err(e), _) => {
            failures.push(format!("stitch campaign layout: {e}"));
            println!("  FAIL stitch campaign layout: {e}");
        }
        (_, Err(e)) => {
            failures.push(format!("stitch campaign failed: {e}"));
            println!("  FAIL stitch campaign: {e}");
        }
        (Ok(layout), Ok(out)) => {
            let stitched = out.metrics.counter("jobs.stitched");
            if stitched == 0 {
                failures.push("stitch campaign admitted no cross-group job".into());
                println!("  FAIL stitch campaign admitted no cross-group job");
            } else {
                println!(
                    "  ok   stitch campaign: {stitched} cross-group admission(s) \
                     ({} legs, {} rollbacks)",
                    out.metrics.counter("stitch.legs"),
                    out.metrics.counter("stitch.rollbacks")
                );
            }
            let group_z = layout.partition().group_z();
            let face = topo::band::face_ports(layout.partition().group_shape());
            let mut report = Report::new();
            verify::check_multi_group_admission(&out.journal, group_z, face, &mut report);
            expect_clean(&mut failures, "stitch-campaign journal (CTL408)", &report);

            // Forged straddle: an Admit crossing the group-0/group-1 rack
            // face with no covering MultiGroupAdmit record.
            let mut forged_straddle = fabricd::Journal::new(*out.journal.header());
            forged_straddle.push(
                desim::SimTime::ZERO,
                fabricd::JournalEntry::Admit {
                    job: 7,
                    origin: Coord3::new(0, 0, group_z.saturating_sub(1)),
                    extent: Shape3::new(2, 2, 2),
                },
            );
            // Forged stitch port: a well-formed two-leg stitch whose port
            // assignment indexes one past the rack face.
            let legs = [
                fabricd::StitchLegRecord {
                    leg: 0x8000_0070,
                    group: 0,
                    origin: Coord3::new(0, 0, group_z - 1),
                    extent: Shape3::new(1, 1, 1),
                },
                fabricd::StitchLegRecord {
                    leg: 0x8000_0071,
                    group: 1,
                    origin: Coord3::new(0, 0, group_z),
                    extent: Shape3::new(1, 1, 1),
                },
            ];
            let mut forged_port = fabricd::Journal::new(*out.journal.header());
            for l in legs {
                forged_port.push(
                    desim::SimTime::ZERO,
                    fabricd::JournalEntry::Admit {
                        job: l.leg,
                        origin: l.origin,
                        extent: l.extent,
                    },
                );
            }
            forged_port.push(
                desim::SimTime::ZERO,
                fabricd::JournalEntry::MultiGroupAdmit {
                    job: 7,
                    extent: Shape3::new(1, 1, 2),
                    legs: legs.to_vec(),
                    ports: vec![face as u32],
                },
            );
            for (journal, what) in [
                (&forged_straddle, "straddling admit with no stitch record"),
                (&forged_port, "stitch port outside the rack face"),
            ] {
                let mut r = Report::new();
                verify::check_multi_group_admission(journal, group_z, face, &mut r);
                if r.has(RuleId::Ctl408) {
                    println!("  ok   forged journal trips CTL408 as designed ({what})");
                } else {
                    failures.push(format!("negative control: {what} did not trip CTL408"));
                    println!("  FAIL negative control: {what} did not trip CTL408");
                }
            }
        }
    }

    failures
}

// --------------------------------------------------------- perf baseline --

/// One committed perf baseline: the file at the workspace root (also the
/// section title `lint` prints), the record family that reads and gates
/// it, and the `spsim` argv that reproduces it. A `{key}` argument is
/// filled from the committed baseline's value of `key`, so the regen
/// command is derived from the file, never typed by hand.
struct BenchGate {
    file: &'static str,
    family: &'static Family,
    argv: &'static [&'static str],
}

/// Every perf gate `cargo xtask lint` enforces, in run order.
const BENCH_GATES: &[BenchGate] = &[
    BenchGate {
        file: "BENCH_sweep.json",
        family: &sweep::SWEEP,
        argv: &["sweep", "--grid", "{grid}", "--workers", "{workers}"],
    },
    BenchGate {
        file: "BENCH_route.json",
        family: &sweep::ROUTE,
        argv: &[
            "routebench",
            "--searches",
            "{searches}",
            "--batches",
            "{batches}",
        ],
    },
    // The full 4096-chip pod over two epoch windows; `spsim pod --smoke`
    // refuses to report unless the sharded and sequential runs agree.
    BenchGate {
        file: "BENCH_pod.json",
        family: &pod::POD,
        argv: &["pod", "--smoke"],
    },
    // The `fabricd::bench_config` campaign, its full and delta replays.
    BenchGate {
        file: "BENCH_ctrl.json",
        family: &fabricd::CTRL,
        argv: &["ctrl", "--campaign"],
    },
    // The stitch policy on eight single-rack shard domains, so a 64-chip
    // job cannot fit a broken group without crossing a rack face.
    BenchGate {
        file: "BENCH_placement.json",
        family: &pod::POD,
        argv: &[
            "pod",
            "--chips",
            "{chips}",
            "--jobs",
            "{jobs}",
            "--failures",
            "2",
            "--policy",
            "{policy}",
        ],
    },
];

impl BenchGate {
    /// The argv with every `{key}` filled from `baseline`.
    fn argv(&self, baseline: &BenchRecord) -> Result<Vec<String>, String> {
        self.argv
            .iter()
            .map(
                |arg| match arg.strip_prefix('{').and_then(|a| a.strip_suffix('}')) {
                    Some(key) => baseline.get(key).map(ToString::to_string).ok_or_else(|| {
                        format!(
                            "{}: argv names {arg}, not a {} key",
                            self.file, self.family.name
                        )
                    }),
                    None => Ok(arg.to_string()),
                },
            )
            .collect()
    }

    /// The command that rewrites the committed file from `argv`.
    fn regen<S: AsRef<str>>(&self, argv: &[S]) -> String {
        let args: Vec<&str> = argv.iter().map(AsRef::as_ref).collect();
        format!("spsim {} --write-baseline {}", args.join(" "), self.file)
    }
}

/// Read the committed baseline, re-run its workload through `spsim`
/// (release, so throughput is comparable to the committed numbers) into a
/// scratch artifact under `target/`, and gate the fresh record on it.
fn run_bench_gate(root: &Path, gate: &BenchGate) -> Vec<String> {
    let baseline_path = root.join(gate.file);
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            println!("  FAIL cannot read {}: {e}", baseline_path.display());
            return vec![format!(
                "missing perf baseline {} — generate with `{}`",
                baseline_path.display(),
                gate.regen(gate.argv)
            )];
        }
    };
    let parsed =
        BenchRecord::parse(gate.family, &baseline_text).and_then(|b| Ok((gate.argv(&b)?, b)));
    let (args, baseline) = match parsed {
        Ok(p) => p,
        Err(e) => {
            println!("  FAIL unparseable baseline: {e}");
            return vec![format!("unparseable {}: {e}", baseline_path.display())];
        }
    };
    let subcommand = gate.argv.first().copied().unwrap_or_default();
    let stem = gate.file.strip_suffix(".json").unwrap_or(gate.file);
    let current_path = root.join("target").join(format!("{stem}.current.json"));
    let status = cargo()
        .current_dir(root)
        .args(["run", "--release", "--quiet", "--bin", "spsim", "--"])
        .args(&args)
        .arg("--write-baseline")
        .arg(&current_path)
        .stdout(std::process::Stdio::null())
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(_) => {
            println!("  FAIL spsim {subcommand} exited non-zero");
            return vec![format!(
                "spsim {subcommand} failed (determinism violation or bad workload)"
            )];
        }
        Err(e) => {
            println!("  FAIL could not spawn cargo run ({e})");
            return vec![format!("could not run spsim {subcommand}: {e}")];
        }
    }
    let current = match std::fs::read_to_string(&current_path)
        .map_err(|e| e.to_string())
        .and_then(|t| BenchRecord::parse(gate.family, &t))
    {
        Ok(c) => c,
        Err(e) => {
            println!("  FAIL unreadable {subcommand} output: {e}");
            return vec![format!("unreadable {}: {e}", current_path.display())];
        }
    };
    let failures = current.compare(&baseline);
    if failures.is_empty() {
        println!("  ok   {}", current.ok_line(&baseline));
    } else {
        for f in &failures {
            println!("  FAIL {f}");
        }
        println!(
            "  if the change is intended, regenerate with `{}`",
            gate.regen(&args)
        );
    }
    failures
}

// --------------------------------------------------------- source audits --

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// A snippet that must trip DET001 and PAN001: linted on every run as a
/// negative control proving the analyzer still has teeth. Assembled from
/// a planted source string, never from the tree.
const PLANTED_VIOLATION: &str = "fn planted() -> u32 {\n    let m = \
    std::collections::HashMap::new();\n    m.get(&1).copied().unwrap()\n}\n";

/// Run detlint over the workspace (or a path-filtered subset), print the
/// report, optionally emit the JSON artifact, and return failure lines.
fn detlint_run(root: &Path, json: bool, filters: &[String]) -> Vec<String> {
    let cfg = match detlint::load_config(root) {
        Ok(c) => c,
        Err(e) => {
            println!("  FAIL {e}");
            return vec![format!("detlint config: {e}")];
        }
    };
    let report = detlint::lint_workspace(root, &cfg, filters);

    // Negative control: a planted HashMap + unwrap must fire. If it does
    // not, the lexer or matcher has silently broken.
    let planted = detlint::lint_source("planted", "planted.rs", PLANTED_VIOLATION, &cfg, false);
    let mut failures = report.failures.clone();
    for rule in [detlint::Rule::Det001, detlint::Rule::Pan001] {
        if !planted.iter().any(|f| f.rule == rule) {
            failures.push(format!(
                "negative control: planted violation did not trip {}",
                rule.code()
            ));
        }
    }

    let suppressed = report
        .findings
        .iter()
        .filter(|f| matches!(f.status, detlint::Status::Suppressed { .. }))
        .count();
    let baselined = report
        .findings
        .iter()
        .filter(|f| f.status == detlint::Status::Baselined)
        .count();
    for b in &report.baselines {
        let note = if b.count < b.ceiling {
            " (ceiling can be tightened)"
        } else {
            ""
        };
        println!(
            "  ok   {}: {} {} site(s), ceiling {}{note}",
            b.krate,
            b.count,
            b.rule.code(),
            b.ceiling
        );
    }
    if failures.is_empty() {
        println!(
            "  ok   {} crates, {} files: 0 active findings ({suppressed} suppressed, \
             {baselined} baselined); negative control fired",
            report.crates, report.files
        );
    } else {
        for f in &failures {
            println!("  FAIL {f}");
        }
    }
    if json {
        println!("{}", report.to_json());
    } else {
        let artifact = root.join("target").join("detlint.json");
        if let Err(e) = std::fs::create_dir_all(root.join("target"))
            .and_then(|()| std::fs::write(&artifact, report.to_json()))
        {
            println!("  warn could not write {}: {e}", artifact.display());
        }
    }
    failures
}

/// `cargo xtask detlint [--json] [--check-file <path>] [paths…]` — run the
/// analyzer standalone. Bare arguments are substring path filters
/// (`crates/route`, `rwa.rs`). `--check-file` lints one file as
/// production code and prints every finding, for editor integration.
fn detlint_cmd(flags: &[String]) -> ExitCode {
    let root = workspace_root();
    let json = flags.iter().any(|f| f == "--json");
    if let Some(i) = flags.iter().position(|f| f == "--check-file") {
        let Some(path) = flags.get(i + 1) else {
            eprintln!("--check-file needs a path");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cfg = detlint::load_config(&root).unwrap_or_default();
        let findings = detlint::lint_source("adhoc", path, &text, &cfg, false);
        for f in &findings {
            println!("{f}");
        }
        return if findings.iter().any(|f| f.status == detlint::Status::Active) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let filters: Vec<String> = flags
        .iter()
        .filter(|f| !f.starts_with("--"))
        .cloned()
        .collect();
    if !json {
        section("detlint: determinism & panic-freedom");
    }
    let failures = detlint_run(&root, json, &filters);
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------- external tools --

fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
}

fn tool_available(subcommand: &str) -> bool {
    cargo()
        .args([subcommand, "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn run_fmt(root: &Path) -> Vec<String> {
    if !tool_available("fmt") {
        println!("  skipped: rustfmt is not installed in this toolchain");
        return Vec::new();
    }
    let status = cargo().current_dir(root).args(["fmt", "--check"]).status();
    match status {
        Ok(s) if s.success() => {
            println!("  ok   formatting is canonical");
            Vec::new()
        }
        Ok(_) => {
            println!("  FAIL run `cargo fmt` to fix");
            vec!["cargo fmt --check found drift".into()]
        }
        Err(e) => {
            println!("  skipped: could not spawn cargo fmt ({e})");
            Vec::new()
        }
    }
}

fn run_clippy(root: &Path) -> Vec<String> {
    if !tool_available("clippy") {
        println!("  skipped: clippy is not installed in this toolchain");
        return Vec::new();
    }
    let mut cmd = cargo();
    cmd.current_dir(root).args([
        "clippy",
        "--workspace",
        "--all-targets",
        "--quiet",
        "--",
        "-D",
        "warnings",
    ]);
    for allow in CLIPPY_ALLOW {
        cmd.args(["-A", allow]);
    }
    match cmd.status() {
        Ok(s) if s.success() => {
            println!(
                "  ok   no clippy findings (allow-list: {})",
                CLIPPY_ALLOW.join(", ")
            );
            Vec::new()
        }
        Ok(_) => {
            println!("  FAIL clippy found denied warnings");
            vec!["cargo clippy -D warnings failed".into()]
        }
        Err(e) => {
            println!("  skipped: could not spawn cargo clippy ({e})");
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::bench::Gate::{self, *};
    use desim::bench::Value;

    /// Each committed baseline: its gate row, its text, and its record.
    fn committed() -> Vec<(&'static BenchGate, String, BenchRecord)> {
        let root = workspace_root();
        BENCH_GATES
            .iter()
            .map(|g| {
                let text = std::fs::read_to_string(root.join(g.file)).expect(g.file);
                let record = BenchRecord::parse(g.family, &text)
                    .unwrap_or_else(|e| panic!("{}: {e}", g.file));
                (g, text, record)
            })
            .collect()
    }

    /// `base` with `key` set to `value`.
    fn with(base: &BenchRecord, family: &'static Family, key: &str, value: &Value) -> BenchRecord {
        let rows = base
            .rows()
            .map(|(k, v, _)| (k, if k == key { value } else { v }.clone()))
            .collect();
        BenchRecord::new(family, rows)
    }

    /// Every key that is not exact-gated: (file, key, gate).
    const NOT_EXACT: &[(&str, &str, Gate)] = &[
        ("BENCH_sweep.json", "workers", Info),
        ("BENCH_sweep.json", "wall_s", Info),
        ("BENCH_sweep.json", "events_per_sec", Floor),
        ("BENCH_sweep.json", "speedup_vs_1", Info),
        ("BENCH_route.json", "wall_s", Info),
        ("BENCH_route.json", "paths_per_sec", Floor),
        ("BENCH_route.json", "batches_per_sec", Floor),
        ("BENCH_route.json", "stamped_plans_per_sec", Floor),
        ("BENCH_pod.json", "shards", Info),
        ("BENCH_pod.json", "wall_s", Info),
        ("BENCH_pod.json", "events_per_sec", Floor),
        ("BENCH_ctrl.json", "wall_s", Info),
        ("BENCH_ctrl.json", "admissions_per_sec", Floor),
        ("BENCH_ctrl.json", "replay_full_ms", Info),
        ("BENCH_ctrl.json", "replay_tail_ms", Ceiling),
        ("BENCH_placement.json", "shards", Info),
        ("BENCH_placement.json", "wall_s", Info),
        ("BENCH_placement.json", "events_per_sec", Floor),
    ];

    #[test]
    fn every_key_is_gated_as_classified() {
        for (g, _, base) in committed() {
            assert!(base.compare(&base).is_empty(), "{}", g.file);
            for (key, value, gate) in base.rows() {
                let want = NOT_EXACT
                    .iter()
                    .find(|&&(f, k, _)| f == g.file && k == key)
                    .map_or(Exact, |&(_, _, gate)| gate);
                assert_eq!(gate, want, "{} {key}", g.file);
                let failures = |v: Value| with(&base, g.family, key, &v).compare(&base);
                let names_key = |f: &[String]| f.iter().any(|m| m.starts_with(&format!("{key} ")));
                let x = base.num(key);
                match gate {
                    Exact => {
                        let moved = match value {
                            Value::U64(v) => Value::U64(v + 1),
                            Value::F64(v) => Value::F64(v * 2.0 + 1.0),
                            Value::Str(s) => Value::Str(format!("{s}~")),
                        };
                        let f = failures(moved);
                        assert!(f.len() == 1 && names_key(&f), "{} {key}: {f:?}", g.file);
                    }
                    Floor => {
                        let f = failures(Value::F64(x * 0.05));
                        assert!(names_key(&f), "{} {key} at 0.05x: {f:?}", g.file);
                        let f = failures(Value::F64(x * 0.5));
                        assert!(f.is_empty(), "{} {key} at 0.5x: {f:?}", g.file);
                    }
                    Ceiling => {
                        let f = failures(Value::F64(x * 20.0));
                        assert!(names_key(&f), "{} {key} at 20x: {f:?}", g.file);
                        let f = failures(Value::F64(x * 2.0));
                        assert!(f.is_empty(), "{} {key} at 2x: {f:?}", g.file);
                    }
                    Info => {
                        let any = match value {
                            Value::U64(_) => [Value::U64(0), Value::U64(u64::MAX)],
                            _ => [Value::F64(0.0), Value::F64(x * 1000.0 + 1.0)],
                        };
                        for v in any {
                            let f = failures(v);
                            assert!(f.is_empty(), "{} {key}: {f:?}", g.file);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_stitch_run_that_stitches_nothing_fails_the_placement_gate() {
        let (g, _, base) = committed()
            .into_iter()
            .find(|(g, _, _)| g.file == "BENCH_placement.json")
            .expect("placement row");
        let none = with(&base, g.family, "stitch_admits", &Value::U64(0));
        let f = none.compare(&none);
        assert!(
            f.len() == 1 && f.iter().all(|m| m.contains("placement gate")),
            "{f:?}"
        );
    }

    #[test]
    fn committed_baselines_round_trip_byte_for_byte() {
        for (g, text, record) in committed() {
            assert_eq!(record.to_json(), text, "{}", g.file);
        }
    }

    #[test]
    fn misplaced_keys_and_wrong_kinds_are_errors_naming_the_key() {
        for (g, text, _) in committed() {
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            let rejects = |mutant: &[String], name: &str, what: &str| match BenchRecord::parse(
                g.family,
                &(mutant.join("\n") + "\n"),
            ) {
                Ok(_) => panic!("{} {what} {name}: accepted", g.file),
                Err(e) => assert!(e.contains(&format!("\"{name}\"")), "{}: {e}", g.file),
            };
            let last = lines.len() - 2;
            for i in 1..=last {
                let line = &lines[i];
                let key = line.split('"').nth(1).expect("key");
                let mut m = lines.clone();
                m.remove(i);
                rejects(&m, key, "missing");
                let mut m = lines.clone();
                m.insert(i + 1, line.clone());
                rejects(&m, key, "duplicated");
                let mut m = lines.clone();
                m[i] = line.replacen(key, "zz_unknown", 1);
                rejects(&m, "zz_unknown", "unknown");
                if i < last {
                    let mut m = lines.clone();
                    m.swap(i, i + 1);
                    rejects(&m, key, "reordered");
                }
                let (head, raw) = line.split_once(": ").expect("row");
                let (raw, comma) = raw.strip_suffix(',').map_or((raw, ""), |r| (r, ","));
                let swapped = match raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
                    Some(inner) => inner.to_string(),
                    None => format!("\"{raw}\""),
                };
                let mut m = lines.clone();
                m[i] = format!("{head}: {swapped}{comma}");
                rejects(&m, key, "wrong kind");
            }
        }
    }

    #[test]
    fn mutated_baselines_are_rejected_or_read_back_verbatim() {
        for (g, text, _) in committed() {
            let bytes = text.as_bytes();
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let truncated = (0..bytes.len()).map(|n| bytes[..n].to_vec());
            let swapped = (0..lines.len() - 1).map(|i| {
                let mut l = lines.clone();
                l.swap(i, i + 1);
                l.concat().into_bytes()
            });
            for m in truncated.chain(swapped) {
                let t = String::from_utf8(m).unwrap_or_default();
                assert!(
                    BenchRecord::parse(g.family, &t).is_err(),
                    "{}: {t:?}",
                    g.file
                );
            }
            for at in (0..bytes.len()).step_by(13) {
                let mut m = bytes.to_vec();
                m[at] ^= 1 << (at % 8);
                let Ok(t) = String::from_utf8(m) else {
                    continue;
                };
                if let Ok(r) = BenchRecord::parse(g.family, &t) {
                    assert_eq!(r.to_json(), t, "{} bit flip at {at}", g.file);
                }
            }
        }
    }

    #[test]
    fn every_committed_baseline_has_exactly_one_gate_row() {
        let mut files: Vec<String> = std::fs::read_dir(workspace_root())
            .expect("workspace root")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        files.sort();
        let mut rows: Vec<String> = BENCH_GATES.iter().map(|g| g.file.to_string()).collect();
        rows.sort();
        assert_eq!(rows, files);
    }

    #[test]
    fn argv_templates_name_only_family_keys() {
        for g in BENCH_GATES {
            for arg in g.argv {
                if let Some(key) = arg.strip_prefix('{').and_then(|a| a.strip_suffix('}')) {
                    assert!(
                        g.family.keys.iter().any(|&(k, _, _)| k == key),
                        "{}: {arg}",
                        g.file
                    );
                }
            }
        }
    }

    #[test]
    fn regen_command_is_derived_from_each_committed_file() {
        let want = [
            (
                "BENCH_sweep.json",
                "spsim sweep --grid smoke --workers 1 --write-baseline BENCH_sweep.json",
            ),
            (
                "BENCH_route.json",
                "spsim routebench --searches 200000 --batches 2000 \
                 --write-baseline BENCH_route.json",
            ),
            (
                "BENCH_pod.json",
                "spsim pod --smoke --write-baseline BENCH_pod.json",
            ),
            (
                "BENCH_ctrl.json",
                "spsim ctrl --campaign --write-baseline BENCH_ctrl.json",
            ),
            (
                "BENCH_placement.json",
                "spsim pod --chips 512 --jobs 96 --failures 2 --policy stitch \
                 --write-baseline BENCH_placement.json",
            ),
        ];
        for (g, _, record) in committed() {
            let argv = g.argv(&record).expect("argv");
            let expected = want.iter().find(|&&(f, _)| f == g.file).map(|&(_, c)| c);
            assert_eq!(Some(g.regen(&argv).as_str()), expected);
        }
    }
}
