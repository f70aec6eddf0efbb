//! The two workloads, their configurations, and one untraced execution
//! of each through the program's public entry points.

use crate::checks::{self, Identity, JobAccounting};
use crate::clock::{HostTime, Stopwatch};
use crate::stats;
use desim::fnv::derive_seed;
use desim::SimDuration;
use fabricd::{
    replay, replay_from, resume_campaign, run_campaign, CampaignOptions, CampaignOutcome,
    CtrlConfig, CtrlSnapshot, FabricState, Journal, Metrics,
};
use pod::{resume_pod, run_pod_with, PodConfig, PodLayout, PodOptions, PodOutcome, PodSnapshot};
use topo::band;
use workloads::{generate, ArrivalParams, JobRequest};

/// Worker threads of the timed pod runs. One: a 2-worker run on the
/// 2-core benchmark box is no faster (`pod.pool.speedup` ≤ 1) and its
/// wall time doubles whenever a neighbour takes a core.
pub const TIMED_WORKERS: usize = 1;
/// Worker threads of the pool checks: a run with this many workers must
/// equal the timed 1-worker run, and `resume_pod` resumes with this many.
pub const WORKERS: usize = 2;
/// Chips in the simulated pod: the paper's full TPUv4 pod.
pub const POD_CHIPS: usize = 4096;
/// Jobs in one ctrl-restart trace.
pub const CTRL_JOBS: usize = 512;
/// Racks in the ctrl-restart fabricd domain.
pub const CTRL_RACKS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4096-chip pod at 5 s interarrival, stitch policy, snapshots.
    PodSaturated,
    /// One 4-rack fabricd domain with retries, crashed halfway and resumed.
    CtrlRestart,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::PodSaturated, Workload::CtrlRestart];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PodSaturated => "pod-saturated",
            Workload::CtrlRestart => "ctrl-restart",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Independent traces one run cycles through, derived from `--seed`;
    /// the simulated metrics pool them, the host metrics take per-trace
    /// medians.
    pub fn traces(self) -> u64 {
        match self {
            Workload::PodSaturated => 16,
            Workload::CtrlRestart => 24,
        }
    }

    /// Jobs in one trace of this workload.
    pub fn jobs(self) -> usize {
        match self {
            Workload::PodSaturated => 4096,
            Workload::CtrlRestart => CTRL_JOBS,
        }
    }
}

/// The trace seeds one run cycles through: a pure function of `--seed`.
pub fn trace_seeds(w: Workload, seed: u64) -> Vec<u64> {
    (0..w.traces()).map(|k| derive_seed(seed, k)).collect()
}

/// The pod configuration of a pod workload for one trace seed.
pub fn pod_config(w: Workload, seed: u64) -> PodConfig {
    PodConfig {
        chips: POD_CHIPS,
        seed,
        jobs: w.jobs(),
        failures: 8,
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(5),
            ..ArrivalParams::default()
        },
        policy: pod::PolicyKind::Stitch,
        ..PodConfig::default()
    }
}

/// The pod run options of a pod workload.
pub fn pod_options() -> PodOptions {
    PodOptions {
        snapshot_every: 8,
        compact: false,
        crash_after_epochs: None,
    }
}

/// The ctrl-restart campaign configuration for one trace seed.
pub fn ctrl_config(seed: u64) -> CtrlConfig {
    CtrlConfig {
        racks: CTRL_RACKS,
        jobs: CTRL_JOBS,
        seed,
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(60),
            ..ArrivalParams::default()
        },
        failures: 4,
        program_retries: 2,
        ..CtrlConfig::default()
    }
}

/// Snapshot cadence of the ctrl-restart campaign.
pub fn ctrl_options(compact: bool, crash_after_events: Option<u64>) -> CampaignOptions {
    CampaignOptions {
        snapshot_every: Some(SimDuration::from_secs(600)),
        compact,
        crash_after_events,
    }
}

/// Regenerate the arrival trace a run was driven with.
pub fn trace_of(w: Workload, seed: u64) -> Vec<JobRequest> {
    match w {
        Workload::CtrlRestart => {
            let cfg = ctrl_config(seed);
            generate(cfg.jobs, &cfg.arrivals, cfg.seed)
        }
        _ => {
            let cfg = pod_config(w, seed);
            generate(cfg.jobs, &cfg.arrivals, cfg.seed)
        }
    }
}

/// One set-up: generate every trace of the run and build the fabric
/// domains the simulator starts from (one `FabricState` per pod rack
/// group, or the single ctrl domain). Returns its host time.
pub fn setup_once(w: Workload, seeds: &[u64]) -> Result<HostTime, String> {
    let sw = Stopwatch::start()?;
    let mut sink = 0usize;
    for &s in seeds {
        sink += std::hint::black_box(trace_of(w, s)).len();
        match w {
            Workload::CtrlRestart => {
                let cfg = ctrl_config(s);
                let st = FabricState::new(cfg.racks, cfg.lanes, cfg.seed);
                sink += std::hint::black_box(st).utilization().circuits;
            }
            _ => {
                let cfg = pod_config(w, s);
                let layout = PodLayout::new(cfg.chips).map_err(|e| e.to_string())?;
                for g in 0..layout.groups() {
                    let st = FabricState::new(
                        layout.group_racks(),
                        cfg.lanes,
                        derive_seed(cfg.seed, g as u64),
                    );
                    sink += std::hint::black_box(st).utilization().circuits;
                }
            }
        }
    }
    std::hint::black_box(sink);
    sw.elapsed()
}

/// What one simulated run produced, reduced to what the metrics and the
/// output checks need.
#[derive(Debug, Clone)]
pub struct Simulated {
    /// Job accounting (trace length, admissions, denials by reason).
    pub jobs: JobAccounting,
    /// Run identity: fingerprint, journal hash and logical length.
    pub identity: Identity,
    /// Exact arrival → admit waits of admitted jobs, seconds.
    pub waits: Vec<f64>,
    /// Mean occupancy over the run's samples.
    pub occ_mean: f64,
    /// Mean capacity fragmentation (pod only).
    pub frag_mean: Option<f64>,
    /// Chip failures injected.
    pub failures: u64,
    /// Repairs that succeeded.
    pub repairs_ok: u64,
    /// Verifier errors on the run's uncompacted journal.
    pub audit_errors: usize,
}

/// Job accounting from a run's merged metrics.
pub fn accounting(jobs: usize, m: &Metrics) -> JobAccounting {
    JobAccounting {
        trace: jobs as u64,
        admitted: m.counter("jobs.admitted"),
        stitched: m.counter("jobs.stitched"),
        denied_program: m.counter("jobs.denied.program"),
        denied_timeout: m.counter("jobs.denied.timeout"),
        infeasible: m.counter("jobs.rejected.infeasible"),
    }
}

/// Every rule of `verify::check_journal` except CTL406.
fn journal_rules_but_ctl406(journal: &Journal) -> verify::Report {
    let mut report = verify::Report::new();
    verify::check_admission_capacity(journal, &mut report);
    verify::check_repair_references(journal, &mut report);
    verify::check_rejection_codes(journal, &mut report);
    verify::check_rollback_pairing(journal, &mut report);
    verify::ctrl_rules::check_compaction_watermark(journal, &mut report);
    report
}

/// Verifier errors on a pod journal: every journal rule of
/// `verify::check_journal` except CTL406, plus the shard containment and
/// cross-group admission rules of the pod's geometry. A pod journal's
/// `Snapshot` records commit to per-domain states, which no replay of the
/// pod-wide journal reproduces, so CTL406 does not apply to it; the
/// `resume_pod` check restores and re-fingerprints those states instead.
pub fn audit_pod(journal: &Journal, chips: usize) -> Result<usize, String> {
    let layout = PodLayout::new(chips).map_err(|e| e.to_string())?;
    let p = layout.partition();
    let mut report = journal_rules_but_ctl406(journal);
    verify::check_shard_containment(journal, p.group_z(), &mut report);
    verify::check_multi_group_admission(
        journal,
        p.group_z(),
        band::face_ports(p.group_shape()),
        &mut report,
    );
    Ok(report.error_count())
}

/// Reduce a pod outcome.
pub fn simulated_pod(w: Workload, seed: u64, out: &PodOutcome, audit_errors: usize) -> Simulated {
    let trace = trace_of(w, seed);
    Simulated {
        jobs: accounting(trace.len(), &out.metrics),
        identity: Identity::of_pod(out),
        waits: stats::admission_waits(&out.journal, &trace),
        occ_mean: out.occ_mean,
        frag_mean: Some(out.frag_mean),
        failures: out.metrics.counter("failures.injected"),
        repairs_ok: out.metrics.counter("repairs.ok"),
        audit_errors,
    }
}

/// Mean of the occupancy gauge samples of a ctrl campaign.
pub fn ctrl_occ_mean(m: &Metrics) -> f64 {
    let (occ, _, _, _) = m.series();
    let pts = occ.points();
    if pts.is_empty() {
        return 0.0;
    }
    pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
}

/// Verifier errors on a ctrl journal. `full` runs all of
/// `verify::check_journal`; otherwise CTL406, whose prefix replays cost
/// O(snapshots × records), is left to the full `replay` every pass makes,
/// which re-checks each `Snapshot` record's fingerprint in O(records).
pub fn audit_ctrl(journal: &Journal, full: bool) -> usize {
    if full {
        verify::check_journal(journal).error_count()
    } else {
        journal_rules_but_ctl406(journal).error_count()
    }
}

/// Reduce an uninterrupted ctrl campaign; `full_audit` as in
/// [`audit_ctrl`].
pub fn simulated_ctrl(seed: u64, out: &CampaignOutcome, full_audit: bool) -> Simulated {
    let trace = trace_of(Workload::CtrlRestart, seed);
    Simulated {
        jobs: accounting(trace.len(), &out.metrics),
        identity: Identity::of_ctrl(out),
        waits: stats::admission_waits(out.state.journal(), &trace),
        occ_mean: ctrl_occ_mean(&out.metrics),
        frag_mean: None,
        failures: out.metrics.counter("failures.injected"),
        repairs_ok: out.metrics.counter("repairs.ok"),
        audit_errors: audit_ctrl(out.state.journal(), full_audit),
    }
}

/// The timed part of one pod run: the simulation with `workers` workers.
pub fn pod_timed(w: Workload, seed: u64, workers: usize) -> Result<(PodOutcome, HostTime), String> {
    let cfg = pod_config(w, seed);
    let sw = Stopwatch::start()?;
    let out = run_pod_with(&cfg, workers, &pod_options())?;
    Ok((out, sw.elapsed()?))
}

/// Crash-restart check of a pod run with snapshots: serialize the middle
/// snapshot, parse it back, resume from it, and compare the resumed run
/// with the uninterrupted one. `None` when the run took no snapshot.
pub fn pod_resume_check(out: &PodOutcome) -> Option<Result<(), String>> {
    let snap = out.snapshots.get(out.snapshots.len() / 2)?;
    Some((|| {
        let parsed = PodSnapshot::parse(&snap.to_text())?;
        if &parsed != snap {
            return Err("pod snapshot text round trip changed the snapshot".to_string());
        }
        let resumed = resume_pod(&parsed, WORKERS, &pod_options())?;
        checks::same_run(
            "resume_pod vs uninterrupted",
            &Identity::of_pod(out),
            &Identity::of_pod(&resumed),
        )?;
        checks::same_counters(
            "resume_pod vs uninterrupted",
            &out.metrics,
            &resumed.metrics,
        )
    })())
}

/// Host times of one crash → restart → replay pass of ctrl-restart.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlTimes {
    /// The whole pass: crashed segment, recovery, and both replays.
    pub total: HostTime,
    /// Parse, resume to completion, and the replay_from check.
    pub restart: HostTime,
}

/// One crash-restart pass of ctrl-restart: run to the halfway event with
/// compaction, recover from the last snapshot's text through
/// `resume_campaign`, then delta-replay the resumed journal and fully
/// replay the uninterrupted one. Every result is checked against
/// `reference`, the uninterrupted uncompacted campaign.
pub fn ctrl_pass(seed: u64, reference: &CampaignOutcome) -> Result<CtrlTimes, String> {
    let cfg = ctrl_config(seed);
    let sw = Stopwatch::start()?;
    let crash_at = reference.events_executed / 2;
    let crashed = run_campaign(&cfg, &ctrl_options(true, Some(crash_at)))?;
    if !crashed.crashed {
        return Err("ctrl-restart: the campaign did not crash halfway".to_string());
    }
    let snap = crashed
        .snapshots
        .last()
        .ok_or("ctrl-restart: no snapshot before the crash")?;
    let text = snap.to_text();
    let sw_restart = Stopwatch::start()?;
    let parsed = CtrlSnapshot::parse(&text)?;
    let resumed = resume_campaign(&parsed, &ctrl_options(true, None))?;
    checks::same_run(
        "resume_campaign vs uninterrupted",
        &Identity::of_ctrl(reference),
        &Identity::of_ctrl(&resumed),
    )?;
    checks::same_counters(
        "resume_campaign vs uninterrupted",
        &reference.metrics,
        &resumed.metrics,
    )?;
    let last = resumed
        .snapshots
        .last()
        .map_or(&parsed.fabric, |s| &s.fabric);
    let delta = replay_from(last, resumed.state.journal()).map_err(|e| e.to_string())?;
    checks::same_state(
        "replay_from vs live",
        resumed.state.fingerprint(),
        delta.fingerprint(),
    )?;
    let restart = sw_restart.elapsed()?;
    let full = replay(reference.state.journal()).map_err(|e| e.to_string())?;
    checks::same_state(
        "replay vs live",
        reference.state.fingerprint(),
        full.fingerprint(),
    )?;
    Ok(CtrlTimes {
        total: sw.elapsed()?,
        restart,
    })
}

/// The uninterrupted, uncompacted ctrl-restart campaign with the same
/// snapshot cadence: the reference every pass is checked against.
pub fn ctrl_reference(seed: u64) -> Result<CampaignOutcome, String> {
    run_campaign(&ctrl_config(seed), &ctrl_options(false, None))
}
