//! The untraced run (`--trace 0`): end-to-end metrics and output checks.

use crate::alloc;
use crate::calib::Calibrator;
use crate::checks::{self, Identity, JobAccounting};
use crate::clock::HostTime;
use crate::report::{Outcome, END_TO_END};
use crate::stats::{median, quantile};
use crate::workload::{self, Simulated, Workload};
use std::time::Instant;

/// Set-ups and calibration kernel runs timed before the warm-up.
pub const SETUP_REPEATS: usize = 15;
/// Least wall seconds between two calibration kernel runs in the timed
/// loop: about a tenth of the run goes to the kernel, however short the
/// workload's calls are.
pub const CALIBRATE_EVERY_S: f64 = 0.5;
/// Set-ups timed after each timed call. The cost of a set-up drifts with
/// the host's load over tens of seconds, so `setup_s` is the median of
/// set-ups spread over the whole run, not of a burst at its start.
pub const SETUPS_PER_CALL: usize = 2;

/// Append the host CPU seconds of `n` set-ups to `xs`.
fn time_setups(w: Workload, seeds: &[u64], n: usize, xs: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        xs.push(workload::setup_once(w, seeds)?.cpu_s);
    }
    Ok(())
}

/// Median CPU and wall seconds of one trace's timed calls.
fn medians(xs: &[HostTime]) -> HostTime {
    let cpu: Vec<f64> = xs.iter().map(|t| t.cpu_s).collect();
    let wall: Vec<f64> = xs.iter().map(|t| t.wall_s).collect();
    HostTime {
        cpu_s: median(&cpu),
        wall_s: median(&wall),
    }
}

/// The simulated results of every trace of a run, pooled.
#[derive(Debug, Default)]
pub struct Pooled {
    /// Summed job accounting.
    pub jobs: JobAccounting,
    /// Every admitted job's wait, seconds.
    pub waits: Vec<f64>,
    /// Mean of the per-trace occupancy means.
    pub occ_mean: f64,
    /// Mean of the per-trace fragmentation means (pod only).
    pub frag_mean: Option<f64>,
    /// Summed failures injected.
    pub failures: u64,
    /// Summed successful repairs.
    pub repairs_ok: u64,
    /// Summed verifier errors.
    pub audit_errors: usize,
}

impl Pooled {
    /// Pool per-trace results.
    pub fn of(sims: &[Simulated]) -> Pooled {
        let mut p = Pooled::default();
        let n = sims.len().max(1) as f64;
        for s in sims {
            p.jobs.add(&s.jobs);
            p.waits.extend_from_slice(&s.waits);
            p.occ_mean += s.occ_mean / n;
            p.failures += s.failures;
            p.repairs_ok += s.repairs_ok;
            p.audit_errors += s.audit_errors;
        }
        p.frag_mean = sims
            .iter()
            .map(|s| s.frag_mean)
            .sum::<Option<f64>>()
            .map(|f| f / n);
        p
    }

    /// Jobs not admitted ÷ trace jobs.
    pub fn job_fail_ratio(&self) -> f64 {
        self.jobs.denied() as f64 / self.jobs.trace.max(1) as f64
    }

    /// Successful repairs ÷ failures injected.
    pub fn repair_ok_ratio(&self) -> f64 {
        self.repairs_ok as f64 / self.failures.max(1) as f64
    }

    /// Report lines for the simulated metrics.
    pub fn lines(&self) -> Vec<String> {
        let q = |p: f64| quantile(&self.waits, p).unwrap_or(0.0);
        let mut out = vec![
            format!(
                "jobs: {} in traces, {} admitted + {} stitched, {} denied \
                 (program {}, timeout {}, infeasible {})",
                self.jobs.trace,
                self.jobs.admitted,
                self.jobs.stitched,
                self.jobs.denied(),
                self.jobs.denied_program,
                self.jobs.denied_timeout,
                self.jobs.infeasible
            ),
            format!(
                "wait_p50_s = {} s, wait_p99_s = {} s (simulated, exact, n = {} admitted jobs)",
                q(0.5),
                q(0.99),
                self.waits.len()
            ),
            format!(
                "job_fail_ratio = {} (simulated), occ_mean = {} (simulated), \
                 repair_ok_ratio = {} ({} of {} failures repaired)",
                self.job_fail_ratio(),
                self.occ_mean,
                self.repair_ok_ratio(),
                self.repairs_ok,
                self.failures
            ),
            format!(
                "audit_errors = {} (verify, uncompacted journals)",
                self.audit_errors
            ),
        ];
        match self.frag_mean {
            Some(f) => out.push(format!("frag_mean = {f} (simulated)")),
            None => out.push("frag_mean = n/a (one domain)".to_string()),
        }
        out
    }
}

/// Run one workload untraced for `seconds` and report its end-to-end
/// metrics.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let seeds = workload::trace_seeds(w, seed);
    let mut setups = Vec::new();
    let mut calib = Calibrator::default();
    for _ in 0..SETUP_REPEATS {
        time_setups(w, &seeds, 1, &mut setups)?;
        calib.sample()?;
    }
    let mut out = Outcome::default();
    let k = seeds.len();
    let mut times: Vec<Vec<HostTime>> = vec![Vec::new(); k];
    let mut restarts: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut sims: Vec<Simulated> = Vec::with_capacity(k);
    // Peak heap of the warm-up call on each trace, bytes.
    let mut heaps: Vec<f64> = Vec::with_capacity(k);
    // Warm-up: one untimed call per trace, with the heap counted. It
    // yields the simulated results that the metrics and checks use.
    let mut refs = Vec::new();
    let mut first = None;
    for (j, &s) in seeds.iter().enumerate() {
        if w == Workload::CtrlRestart {
            let r = workload::ctrl_reference(s)?;
            sims.push(workload::simulated_ctrl(s, &r, j == 0));
            alloc::HEAP.start();
            let pass = workload::ctrl_pass(s, &r);
            heaps.push(alloc::HEAP.stop() as f64);
            pass?;
            out.attempted += 2;
            refs.push(r);
        } else {
            alloc::HEAP.start();
            let run = workload::pod_timed(w, s, workload::TIMED_WORKERS);
            heaps.push(alloc::HEAP.stop() as f64);
            let (run, _) = run?;
            out.attempted += 1;
            let audit = workload::audit_pod(&run.journal, workload::POD_CHIPS)?;
            sims.push(workload::simulated_pod(w, s, &run, audit));
            if j == 0 {
                first = Some(run);
            }
        }
    }
    // The timed closed loop, cycling through the traces.
    let started = Instant::now();
    let mut calibrated = Instant::now();
    let mut i = 0usize;
    while i < k || started.elapsed().as_secs_f64() < seconds {
        let j = i % k;
        if let Some(r) = refs.get(j) {
            let t = workload::ctrl_pass(seeds[j], r)?;
            times[j].push(t.total);
            restarts[j].push(t.restart.cpu_s);
        } else {
            let (run, t) = workload::pod_timed(w, seeds[j], workload::TIMED_WORKERS)?;
            times[j].push(t);
            if let Err(e) = checks::same_run(
                "repeated run of one trace",
                &sims[j].identity,
                &Identity::of_pod(&run),
            ) {
                out.problems.push(e);
            }
        }
        out.attempted += 1;
        i += 1;
        time_setups(w, &seeds, SETUPS_PER_CALL, &mut setups)?;
        if calibrated.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
            calib.sample()?;
            calibrated = Instant::now();
        }
    }
    let slowdown = calib.slowdown();
    let setup = median(&setups) / slowdown;
    if let Some(first) = &first {
        // The timed 1-worker run ≡ a 2-worker run of the same trace.
        let cfg = workload::pod_config(w, seeds[0]);
        let two = pod::run_pod_with(&cfg, workload::WORKERS, &workload::pod_options())?;
        out.attempted += 1;
        if let Err(e) = checks::same_run(
            "1 worker vs 2 workers",
            &sims[0].identity,
            &Identity::of_pod(&two),
        ) {
            out.problems.push(e);
        }
        drop(two);
        if let Some(r) = workload::pod_resume_check(first) {
            out.attempted += 1;
            if let Err(e) = r {
                out.problems.push(e);
            }
        }
    }
    for s in &sims {
        if let Err(e) = checks::accounting_closes(&s.jobs) {
            out.problems.push(e);
        }
    }
    let pooled = Pooled::of(&sims);
    let jobs = (w.jobs() * k) as f64;
    let per_trace: Vec<HostTime> = times.iter().map(|x| medians(x)).collect();
    let cpu: f64 = per_trace.iter().map(|t| t.cpu_s).sum();
    let wall: f64 = per_trace.iter().map(|t| t.wall_s).sum();
    let jobs_per_s = jobs / (cpu / slowdown);
    let restart_s = restarts.iter().map(|x| median(x)).sum::<f64>() / k as f64 / slowdown;
    let heap_mb = heaps.iter().sum::<f64>() / heaps.len().max(1) as f64 / (1u64 << 20) as f64;

    out.text.push(format!(
        "workload {} seed {seed}: {i} timed calls over {k} traces of {} jobs and {} set-ups in {:.1} s",
        w.name(),
        w.jobs(),
        setups.len(),
        started.elapsed().as_secs_f64()
    ));
    out.text.push(format!(
        "jobs_per_s = {jobs_per_s} 1/s, setup_s = {setup} s (host CPU at reference-box speed), \
         peak_heap_mb = {heap_mb} MB (host, mean over traces of one call's peak heap)"
    ));
    out.text.push(format!(
        "host speed: calibration kernel {} CPU s, median of {} runs = {slowdown} × the reference box",
        calib.kernel_s(),
        calib.runs()
    ));
    out.text.push(format!(
        "as measured, not scaled: {} jobs per host CPU second, {} jobs per wall second, \
         set-up {} CPU s",
        jobs / cpu,
        jobs / wall,
        median(&setups)
    ));
    let show = |f: fn(&HostTime) -> f64| {
        let v: Vec<String> = per_trace.iter().map(|t| format!("{:.4}", f(t))).collect();
        v.join(", ")
    };
    out.text.push(format!(
        "median per trace (s): cpu [{}], wall [{}]",
        show(|t| t.cpu_s),
        show(|t| t.wall_s)
    ));
    if w == Workload::CtrlRestart {
        out.text.push(format!(
            "restart_s = {restart_s} s (host CPU at reference-box speed: parse, resume, replay_from check)"
        ));
    } else {
        out.text
            .push("restart_s = n/a (timed run takes no crash)".to_string());
    }
    out.text.extend(pooled.lines());
    out.set_metrics(&END_TO_END, |name| match name {
        "jobs_per_s" => Some(jobs_per_s),
        "setup_s" => Some(setup),
        "peak_heap_mb" => Some(heap_mb),
        "job_fail_ratio" => Some(pooled.job_fail_ratio()),
        "occ_mean" => Some(pooled.occ_mean),
        _ => None,
    });
    Ok(out)
}
