//! The traced run (`--trace 1`): per-layer metrics from spans around the
//! program's public calls, for the first trace of the run's seed.
//!
//! One traced pass calls each layer's entry points under a span: trace
//! generation, the 1-worker pod run or the ctrl campaign, both snapshot
//! codecs, resume, replay, the verifier, and the shadow re-drive that
//! splits `FabricState::admit` into placement, ring plan and programming
//! ([`crate::shadow`]). Passes repeat until `--seconds` have passed; every
//! per-layer time is the mean per pass.

use crate::checks::{self, Identity};
use crate::report::{Outcome, PER_LAYER};
use crate::shadow::{self, ShadowCounts};
use crate::span::Tracer;
use crate::stats::{admission_waits, median, quantile};
use crate::workload::{self, Workload};
use fabricd::{
    replay, replay_from, resume_campaign, run_campaign, CtrlSnapshot, FabricSnapshot,
    RouteTelemetry,
};
use pod::{resume_pod, run_pod_with, PodSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer values of one run, by metric name.
type Values = BTreeMap<&'static str, f64>;

/// Fraction `num / den`, 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layer times and counts every workload reports, from the tracer and
/// the shadow (per pass).
fn layer_values(v: &mut Values, t: &Tracer, passes: f64, sh: &ShadowCounts) {
    let secs = |name: &str| t.layer(name).total.as_secs_f64() / passes;
    let calls = |name: &str| t.layer(name).calls as f64 / passes;
    for (metric, layer) in [
        ("workloads.generate.s", "workloads.generate"),
        ("topo.place_best_fit.s", "topo.place_best_fit"),
        ("fabricd.ring_plan.s", "fabricd.ring_plan"),
        ("fabricd.program_planned.s", "fabricd.program_planned"),
        ("fabricd.admit.s", "fabricd.admit"),
        ("fabricd.evict.s", "fabricd.evict"),
        ("fabricd.inject_failure.s", "fabricd.inject_failure"),
        ("pod.policy.place.s", "pod.policy.place"),
        ("pod.snapshot.to_text.s", "pod.snapshot.to_text"),
        ("pod.snapshot.parse.s", "pod.snapshot.parse"),
        ("pod.resume.s", "pod.resume"),
        ("fabricd.snapshot.to_text.s", "fabricd.snapshot.to_text"),
        ("fabricd.snapshot.parse.s", "fabricd.snapshot.parse"),
        ("fabricd.replay_from.s", "fabricd.replay_from"),
        ("fabricd.replay.s", "fabricd.replay"),
        ("fabricd.campaign.s", "fabricd.campaign"),
        ("pod.run.s", "pod.run"),
        ("verify.check_journal.s", "verify.check_journal"),
        ("restart.s", "restart"),
        ("trace.wall.s", "pass"),
    ] {
        v.insert(metric, secs(layer));
    }
    let place = calls("topo.place_best_fit");
    v.insert("topo.place_best_fit.calls", place);
    v.insert(
        "topo.place_best_fit.fail_ratio",
        ratio(sh.place_failed, sh.place_calls),
    );
    v.insert(
        "fabricd.program_planned.calls",
        calls("fabricd.program_planned"),
    );
    v.insert(
        "fabricd.program_planned.circuits",
        sh.counter("circuits.programmed") as f64,
    );
    let admits = calls("fabricd.admit");
    v.insert("fabricd.admit.calls", admits);
    let useful = sh.counter("jobs.admitted") + sh.counter("stitch.legs");
    v.insert("fabricd.admit.useful_ratio", ratio(useful, admits as u64));
    v.insert("fabricd.snapshot.count", calls("fabricd.snapshot.to_text"));
    v.insert("pod.snapshot.count", calls("pod.snapshot.to_text"));
    v.insert("shadow.events", sh.events as f64);
    v.insert("shadow.admissions", useful as f64);
    v.insert("shadow.circuits", sh.counter("circuits.programmed") as f64);
    v.insert("shadow.cross_hits", sh.route.cross.hits as f64);
    v.insert("shadow.plan_hits", sh.route.plan.hits as f64);
    // Program-layer self time ÷ traced wall: everything in a pass except
    // the benchmark's own pass and shadow bookkeeping.
    let (pass, shadow) = (t.layer("pass"), t.layer("shadow"));
    let own = pass.self_time + shadow.self_time;
    v.insert(
        "trace.coverage",
        ratio(
            pass.total.saturating_sub(own).as_nanos() as u64,
            pass.total.as_nanos() as u64,
        ),
    );
}

/// Plan-library and cross-plan counters from the program's telemetry.
fn route_values(v: &mut Values, r: &RouteTelemetry) {
    v.insert(
        "fabricd.cross.hit_ratio",
        ratio(r.cross.hits, r.cross.hits + r.cross.misses),
    );
    v.insert("fabricd.cross.fallbacks", r.cross.fallbacks as f64);
    v.insert("fabricd.cross.resident", r.cross_resident as f64);
    v.insert(
        "route.planlib.hit_ratio",
        ratio(r.plan.hits, r.plan.hits + r.plan.misses),
    );
    v.insert("route.planlib.fallbacks", r.plan.fallbacks as f64);
    v.insert("route.planlib.stamped", r.plan.stamped_circuits as f64);
}

/// Exact simulated waits of one run.
fn wait_values(v: &mut Values, waits: &[f64]) {
    v.insert("sim.wait_p50_s", quantile(waits, 0.5).unwrap_or(0.0));
    v.insert("sim.wait_p99_s", quantile(waits, 0.99).unwrap_or(0.0));
    v.insert("sim.wait_samples", waits.len() as f64);
}

/// Record reconciliation mismatches in the outcome and the values.
fn report_mismatches(out: &mut Outcome, v: &mut Values, mismatches: &[String]) {
    v.insert("trace.reconcile_mismatches", mismatches.len() as f64);
    if mismatches.is_empty() {
        out.text
            .push("trace: shadow counts reconcile with the untraced run".to_string());
    }
    for m in mismatches {
        out.text.push(format!("trace: RECONCILE MISMATCH {m}"));
    }
}

/// Run one workload traced for `seconds` and report its per-layer metrics.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let s = workload::trace_seeds(w, seed)
        .first()
        .copied()
        .ok_or("no trace seed")?;
    let mut out = Outcome::default();
    let mut v = Values::new();
    match w {
        Workload::CtrlRestart => run_ctrl(s, seconds, &mut out, &mut v)?,
        _ => run_pod(w, s, seconds, &mut out, &mut v)?,
    }
    out.text.push(format!(
        "traced workload {} seed {seed} (trace seed {s}), per-layer values per pass:",
        w.name()
    ));
    for (name, unit) in PER_LAYER {
        if let Some(x) = v.get(name) {
            out.text.push(format!("  {name} = {x} {unit}"));
        }
    }
    out.set_metrics(&PER_LAYER, |name| v.get(name).copied());
    Ok(out)
}

fn run_pod(
    w: Workload,
    s: u64,
    seconds: f64,
    out: &mut Outcome,
    v: &mut Values,
) -> Result<(), String> {
    let cfg = workload::pod_config(w, s);
    let opts = workload::pod_options();
    let mut t = Tracer::default();
    let (mut walls2, mut walls1, mut shadow_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = 0u32;
    let mut last = None;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        // Untraced reference: the 2-worker run.
        let (two, time2) = workload::pod_timed(w, s, workload::WORKERS)?;
        out.attempted += 1;
        walls2.push(time2.wall_s);

        t.enter("pass");
        let trace = t.time("workloads.generate", || workload::trace_of(w, s));
        let t1 = Instant::now();
        let one = t.time("pod.run", || run_pod_with(&cfg, 1, &opts))?;
        walls1.push(t1.elapsed().as_secs_f64());
        out.attempted += 1;
        let mut pod_bytes = 0usize;
        let mut fab_bytes = 0usize;
        let mut mid = None;
        for (i, snap) in one.snapshots.iter().enumerate() {
            let text = t.time("pod.snapshot.to_text", || snap.to_text());
            pod_bytes += text.len();
            let parsed = t.time("pod.snapshot.parse", || PodSnapshot::parse(&text))?;
            for d in &parsed.domains {
                let ftext = t.time("fabricd.snapshot.to_text", || d.fabric.to_text());
                fab_bytes += ftext.len();
                t.time("fabricd.snapshot.parse", || FabricSnapshot::parse(&ftext))?;
            }
            if i == one.snapshots.len() / 2 {
                mid = Some(text);
            }
        }
        if let Some(text) = mid {
            t.enter("restart");
            let parsed = t.time("pod.snapshot.parse", || PodSnapshot::parse(&text))?;
            let resumed = t.time("pod.resume", || resume_pod(&parsed, 1, &opts))?;
            t.exit();
            out.attempted += 1;
            if let Err(e) = checks::same_run(
                "resume_pod vs uninterrupted",
                &Identity::of_pod(&one),
                &Identity::of_pod(&resumed),
            ) {
                out.problems.push(e);
            }
        }
        let audit = t.time("verify.check_journal", || {
            workload::audit_pod(&one.journal, cfg.chips)
        })?;
        let t2 = Instant::now();
        t.enter("shadow");
        let sh = shadow::drive_pod(&cfg, &mut t);
        t.exit();
        shadow_walls.push(t2.elapsed().as_secs_f64());
        let sh = sh?;
        t.exit();
        passes += 1;

        if let Err(e) = checks::same_run(
            "2 workers (untraced) vs 1 worker (traced)",
            &Identity::of_pod(&two),
            &Identity::of_pod(&one),
        ) {
            out.problems.push(e);
        }
        let jobs = workload::accounting(cfg.jobs, &one.metrics);
        if let Err(e) = checks::accounting_closes(&jobs) {
            out.problems.push(e);
        }
        v.insert("pod.snapshot.bytes", pod_bytes as f64);
        v.insert("fabricd.snapshot.bytes", fab_bytes as f64);
        v.insert("verify.audit_errors", audit as f64);
        v.insert(
            "sim.repair_ok_ratio",
            ratio(
                one.metrics.counter("repairs.ok"),
                one.metrics.counter("failures.injected"),
            ),
        );
        wait_values(v, &admission_waits(&one.journal, &trace));
        last = Some((one, sh));
    }
    let (one, sh) = last.ok_or("no traced pass")?;
    let mut mismatches = shadow::reconcile(&sh, &one.metrics, &one.route, one.events);
    for (what, s_val, p_val) in [
        ("epochs", sh.epochs, one.epochs),
        ("delegations", sh.delegations, one.delegations),
        (
            "occ_mean bits",
            sh.occ_mean.to_bits(),
            one.occ_mean.to_bits(),
        ),
        (
            "frag_mean bits",
            sh.frag_mean.to_bits(),
            one.frag_mean.to_bits(),
        ),
    ] {
        if s_val != p_val {
            mismatches.push(format!("{what}: shadow {s_val} vs program {p_val}"));
        }
    }
    report_mismatches(out, v, &mismatches);
    layer_values(v, &t, f64::from(passes), &sh);
    route_values(v, &one.route);
    let m = &one.metrics;
    v.insert("fabricd.journal.records", one.journal.len() as f64);
    v.insert(
        "fabricd.journal.retained",
        one.journal.records().len() as f64,
    );
    v.insert("fabricd.retries", m.counter("jobs.retried") as f64);
    v.insert("pod.events", one.events as f64);
    v.insert("pod.epochs", one.epochs as f64);
    v.insert("pod.delegations", one.delegations as f64);
    v.insert("pod.pool.speedup", median(&walls1) / median(&walls2));
    v.insert("pod.stitch.admits", m.counter("jobs.stitched") as f64);
    v.insert("pod.stitch.rollbacks", m.counter("stitch.rollbacks") as f64);
    let legs = m.counter("stitch.legs");
    v.insert(
        "pod.stitch.useful_ratio",
        ratio(legs.saturating_sub(m.counter("stitch.rollbacks")), legs),
    );
    v.insert("sim.frag_mean", one.frag_mean);
    v.insert(
        "trace.overhead",
        median(&shadow_walls) / median(&walls1) - 1.0,
    );
    Ok(())
}

fn run_ctrl(s: u64, seconds: f64, out: &mut Outcome, v: &mut Values) -> Result<(), String> {
    let cfg = workload::ctrl_config(s);
    let reference = workload::ctrl_reference(s)?;
    out.attempted += 1;
    let mut t = Tracer::default();
    let (mut walls, mut shadow_walls) = (Vec::new(), Vec::new());
    let mut passes = 0u32;
    let mut last = None;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        // Untraced reference wall: the uninterrupted campaign.
        let t0 = Instant::now();
        let plain = run_campaign(&cfg, &workload::ctrl_options(false, None))?;
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        drop(plain);

        t.enter("pass");
        let trace = t.time("workloads.generate", || {
            workload::trace_of(Workload::CtrlRestart, s)
        });
        let crash_at = reference.events_executed / 2;
        let crashed = t.time("fabricd.campaign", || {
            run_campaign(&cfg, &workload::ctrl_options(true, Some(crash_at)))
        })?;
        out.attempted += 1;
        let mut bytes = 0usize;
        let mut last_text = None;
        for snap in &crashed.snapshots {
            let text = t.time("fabricd.snapshot.to_text", || snap.to_text());
            bytes += text.len();
            last_text = Some(text);
        }
        let text = last_text.ok_or("ctrl-restart: no snapshot before the crash")?;
        t.enter("restart");
        let parsed = t.time("fabricd.snapshot.parse", || CtrlSnapshot::parse(&text))?;
        let resumed = t.time("fabricd.campaign", || {
            resume_campaign(&parsed, &workload::ctrl_options(true, None))
        })?;
        let base = resumed
            .snapshots
            .last()
            .map_or(&parsed.fabric, |snap| &snap.fabric);
        let delta = t
            .time("fabricd.replay_from", || {
                replay_from(base, resumed.state.journal())
            })
            .map_err(|e| e.to_string())?;
        t.exit();
        out.attempted += 1;
        let full = t
            .time("fabricd.replay", || replay(reference.state.journal()))
            .map_err(|e| e.to_string())?;
        let audit = t.time("verify.check_journal", || {
            verify::check_journal(reference.state.journal()).error_count()
        });
        let t2 = Instant::now();
        t.enter("shadow");
        let sh = shadow::drive_ctrl(&cfg, &mut t);
        t.exit();
        shadow_walls.push(t2.elapsed().as_secs_f64());
        t.exit();
        passes += 1;

        for r in [
            checks::same_run(
                "resume_campaign vs uninterrupted",
                &Identity::of_ctrl(&reference),
                &Identity::of_ctrl(&resumed),
            ),
            checks::same_state(
                "replay_from vs live",
                resumed.state.fingerprint(),
                delta.fingerprint(),
            ),
            checks::same_state(
                "replay vs live",
                reference.state.fingerprint(),
                full.fingerprint(),
            ),
            checks::accounting_closes(&workload::accounting(cfg.jobs, &reference.metrics)),
        ] {
            if let Err(e) = r {
                out.problems.push(e);
            }
        }
        v.insert("fabricd.snapshot.bytes", bytes as f64);
        v.insert("verify.audit_errors", audit as f64);
        let m = &reference.metrics;
        v.insert(
            "sim.repair_ok_ratio",
            ratio(m.counter("repairs.ok"), m.counter("failures.injected")),
        );
        v.insert(
            "fabricd.journal.retained",
            resumed.state.journal().records().len() as f64,
        );
        wait_values(v, &admission_waits(reference.state.journal(), &trace));
        last = Some(sh);
    }
    let sh = last.ok_or("no traced pass")?;
    let route = RouteTelemetry::of(&reference.state);
    let mismatches = shadow::reconcile(&sh, &reference.metrics, &route, reference.events_executed);
    report_mismatches(out, v, &mismatches);
    layer_values(v, &t, f64::from(passes), &sh);
    route_values(v, &route);
    v.insert(
        "fabricd.journal.records",
        reference.state.journal().len() as f64,
    );
    v.insert(
        "fabricd.retries",
        reference.metrics.counter("jobs.retried") as f64,
    );
    for name in [
        "pod.snapshot.bytes",
        "pod.events",
        "pod.epochs",
        "pod.delegations",
        "pod.pool.speedup",
        "pod.stitch.admits",
        "pod.stitch.rollbacks",
        "pod.stitch.useful_ratio",
        "sim.frag_mean",
    ] {
        v.insert(name, 0.0);
    }
    v.insert(
        "trace.overhead",
        median(&shadow_walls) / median(&walls) - 1.0,
    );
    Ok(())
}
