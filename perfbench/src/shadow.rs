//! The traced re-drive ("shadow"): the same trace driven through the
//! program's public layer functions, one span per call, single-threaded.
//!
//! `FabricState::admit` and the pod and ctrl event loops are opaque from
//! outside the program, so the traced run re-executes their decisions
//! from public parts: [`Occupancy::place_best_fit`](topo::Occupancy) →
//! [`fabricd::ring_plan`] → [`fabricd::program_planned`] for an admission,
//! the program's own placement policies for delegation, and
//! [`resilience::optical_repair`] for a repair. Nothing here is timed for
//! the end-to-end metrics. The shadow's counts are reconciled against the
//! untraced run's public outputs ([`reconcile`]); a mismatch means the
//! program's loops and this re-drive no longer agree, and is reported,
//! never hidden.

use crate::span::Tracer;
use desim::epoch::EpochConfig;
use desim::{SimDuration, SimTime};
use fabricd::{program_planned, ring_plan, Metrics, PlanEngine, RouteTelemetry};
use lightpath::FabricCircuit;
use pod::policy::pick_group;
use pod::{CapacityView, PlacementDecision, PodConfig, PodLayout, StitchLeg};
use resilience::{chip_to_tile, optical_repair, PhotonicRack};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use topo::{band, Coord3, Dim, Shape3, Slice, SliceId};
use workloads::{generate, JobRequest};

/// High bit of a stitched leg's slice id (`pod::policy::LEG_ID_BIT`).
const LEG_ID_BIT: u32 = pod::policy::LEG_ID_BIT;

/// Outcome of one shadow admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    Admitted { circuits: usize },
    NoSpace,
    Denied,
    Rejected,
    Infeasible,
}

/// A tenant of the shadow fabric.
struct Tenant {
    slice: Slice,
    handles: Vec<FabricCircuit>,
    spares: Vec<Coord3>,
}

/// One fabricd domain's state, driven through public functions only.
struct ShadowFabric {
    rack: PhotonicRack,
    lanes: usize,
    plans: PlanEngine,
    tenants: BTreeMap<u32, Tenant>,
    reserved: BTreeSet<Coord3>,
    /// Best-fit placement calls and the ones that found no slice.
    place_calls: u64,
    place_failed: u64,
}

impl ShadowFabric {
    fn new(racks: usize, lanes: usize) -> Self {
        ShadowFabric {
            rack: PhotonicRack::new(racks),
            lanes,
            plans: PlanEngine::new(),
            tenants: BTreeMap::new(),
            reserved: BTreeSet::new(),
            place_calls: 0,
            place_failed: 0,
        }
    }

    fn free_chips(&self) -> usize {
        self.rack.cluster.occupancy().healthy_free_chips().len()
    }

    /// `FabricState::admit_retryable`, decomposed.
    fn admit(&mut self, t: &mut Tracer, job: u32, shape: Shape3, last: bool) -> Admit {
        t.enter("fabricd.admit");
        let out = self.admit_steps(t, job, shape, last);
        t.exit();
        out
    }

    fn admit_steps(&mut self, t: &mut Tracer, job: u32, shape: Shape3, last: bool) -> Admit {
        let torus = self.rack.cluster.occupancy().shape();
        if shape
            .dims
            .iter()
            .zip(torus.dims.iter())
            .any(|(&s, &d)| s == 0 || s > d)
        {
            return Admit::Infeasible;
        }
        let occ = self.rack.cluster.occupancy_mut();
        t.enter("topo.place_best_fit");
        let placed = occ.place_best_fit(job, shape);
        t.exit();
        self.place_calls += 1;
        let Ok(slice) = placed else {
            self.place_failed += 1;
            return Admit::NoSpace;
        };
        let plan = t.time("fabricd.ring_plan", || {
            ring_plan(&self.rack.cluster, &slice, self.lanes)
        });
        let fabric = &mut self.rack.fabric;
        let plans = &mut self.plans;
        let programmed = t.time("fabricd.program_planned", || {
            program_planned(fabric, &plan, plans)
        });
        match programmed {
            Ok(handles) => {
                let circuits = handles.len();
                self.tenants.insert(
                    job,
                    Tenant {
                        slice,
                        handles,
                        spares: Vec::new(),
                    },
                );
                Admit::Admitted { circuits }
            }
            Err(_) => {
                self.rack.cluster.occupancy_mut().remove(SliceId(job));
                if last {
                    Admit::Denied
                } else {
                    Admit::Rejected
                }
            }
        }
    }

    /// `FabricState::evict`: tear down every circuit, free the slice and
    /// the tenant's reserved spares.
    fn evict(&mut self, t: &mut Tracer, job: u32) {
        t.enter("fabricd.evict");
        if let Some(rec) = self.tenants.remove(&job) {
            for h in rec.handles.into_iter().rev() {
                let _ = self.rack.fabric.teardown_handle(h);
            }
            self.rack.cluster.occupancy_mut().remove(SliceId(job));
            for s in rec.spares {
                self.reserved.remove(&s);
            }
        }
        t.exit();
    }

    /// `FabricState::inject_failure`: fail the first chip (coordinate
    /// order) of a multi-chip tenant, splice out the circuits ending on
    /// it, and repair with the first unreserved healthy free chip.
    /// Returns whether a repair succeeded.
    fn inject_failure(&mut self, t: &mut Tracer) -> bool {
        t.enter("fabricd.inject_failure");
        let out = self.fail_and_repair(t);
        t.exit();
        out
    }

    fn fail_and_repair(&mut self, t: &mut Tracer) -> bool {
        let chip = {
            let occ = self.rack.cluster.occupancy();
            occ.shape().coords().find(|&c| {
                !occ.is_failed(c)
                    && occ
                        .owner(c)
                        .and_then(|id| occ.slice(id))
                        .is_some_and(|s| s.chips() >= 2)
            })
        };
        let Some(chip) = chip else {
            return false;
        };
        let victim = self.rack.cluster.occupancy().owner(chip).map(|s| s.0);
        self.rack.cluster.occupancy_mut().fail_chip(chip);
        let (w, tile) = chip_to_tile(&self.rack.cluster, chip);
        self.rack.fabric.wafer_mut(w).fail_tile(tile);
        let Some(v) = victim else {
            return false;
        };
        if let Some(rec) = self.tenants.get_mut(&v) {
            let handles = std::mem::take(&mut rec.handles);
            for h in handles {
                let ends_here = match h {
                    FabricCircuit::Wafer(wid, cid) => {
                        wid == w && self.rack.fabric.wafer(wid).circuits_at(tile).contains(&cid)
                    }
                    FabricCircuit::Cross(cid) => self
                        .rack
                        .fabric
                        .cross_circuit(cid)
                        .is_some_and(|c| c.src == (w, tile) || c.dst == (w, tile)),
                };
                if ends_here {
                    let _ = self.rack.fabric.teardown_handle(h);
                } else {
                    rec.handles.push(h);
                }
            }
        }
        let spare = self
            .rack
            .cluster
            .occupancy()
            .healthy_free_chips()
            .into_iter()
            .find(|c| !self.reserved.contains(c));
        let (Some(spare), Some(slice)) = (spare, self.tenants.get(&v).map(|r| r.slice)) else {
            return false;
        };
        let repaired = t.time("resilience.optical_repair", || {
            optical_repair(
                &mut self.rack,
                &Slice::new(v, slice.origin, slice.extent),
                chip,
                spare,
            )
        });
        match repaired {
            Ok(report) => {
                self.reserved.insert(spare);
                if let Some(rec) = self.tenants.get_mut(&v) {
                    rec.handles.extend(report.handles.iter().copied());
                    rec.spares.push(spare);
                }
                true
            }
            Err(_) => false,
        }
    }
}

/// A job waiting in a domain, with its programming attempt.
#[derive(Debug, Clone, Copy)]
struct Queued {
    job: u32,
    shape: Shape3,
    duration: SimDuration,
    attempt: u32,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(Queued),
    Retry(Queued),
    Timeout(u32),
    Depart(u32),
    Fail,
    Sample,
}

/// One domain's event loop: the pod shard loop when `retries == 0`, the
/// ctrl loop (retry with backoff) otherwise.
struct ShadowDomain {
    fab: ShadowFabric,
    queue: VecDeque<Queued>,
    events: BTreeMap<(SimTime, u64), Ev>,
    next_seq: u64,
    timeout: SimDuration,
    retries: u32,
    backoff: SimDuration,
    counts: BTreeMap<&'static str, u64>,
    executed: u64,
}

impl ShadowDomain {
    fn new(racks: usize, lanes: usize, timeout: SimDuration) -> Self {
        ShadowDomain {
            fab: ShadowFabric::new(racks, lanes),
            queue: VecDeque::new(),
            events: BTreeMap::new(),
            next_seq: 0,
            timeout,
            retries: 0,
            backoff: SimDuration::ZERO,
            counts: BTreeMap::new(),
            executed: 0,
        }
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.events.insert((at, self.next_seq), ev);
        self.next_seq += 1;
    }

    fn pending(&self) -> usize {
        self.events.len() + self.queue.len()
    }

    fn run_until(&mut self, t: &mut Tracer, deadline: SimTime) {
        while let Some((&(at, seq), _)) = self.events.first_key_value() {
            if at >= deadline {
                break;
            }
            let Some(ev) = self.events.remove(&(at, seq)) else {
                break;
            };
            self.executed += 1;
            match ev {
                Ev::Arrive(q) => {
                    self.add("jobs.arrived", 1);
                    self.start_or_queue(t, at, q);
                }
                Ev::Retry(q) => {
                    self.add("jobs.retried", 1);
                    self.start_or_queue(t, at, q);
                }
                Ev::Timeout(job) => {
                    if let Some(pos) = self.queue.iter().position(|q| q.job == job) {
                        self.queue.remove(pos);
                        self.add("jobs.denied.timeout", 1);
                    }
                }
                Ev::Depart(job) => {
                    self.fab.evict(t, job);
                    while let Some(&head) = self.queue.front() {
                        if !self.try_start(t, at, head) {
                            break;
                        }
                        self.queue.pop_front();
                    }
                }
                Ev::Fail => {
                    self.add("failures.injected", 1);
                    let ok = self.fab.inject_failure(t);
                    self.add("repairs.ok", ok as u64);
                }
                Ev::Sample => {}
            }
        }
    }

    fn start_or_queue(&mut self, t: &mut Tracer, now: SimTime, q: Queued) {
        if !self.try_start(t, now, q) {
            self.add("jobs.queued", 1);
            self.queue.push_back(q);
            self.schedule(now + self.timeout, Ev::Timeout(q.job));
        }
    }

    fn try_start(&mut self, t: &mut Tracer, now: SimTime, q: Queued) -> bool {
        match self.fab.admit(t, q.job, q.shape, q.attempt >= self.retries) {
            Admit::Admitted { circuits } => {
                self.add("jobs.admitted", 1);
                self.add("circuits.programmed", circuits as u64);
                let setup = SimDuration::from_secs_f64(phy::thermal::RECONFIG_LATENCY_S);
                self.schedule(now + setup + q.duration, Ev::Depart(q.job));
                true
            }
            Admit::NoSpace => false,
            Admit::Denied => {
                self.add("jobs.denied.program", 1);
                true
            }
            Admit::Infeasible => {
                self.add("jobs.rejected.infeasible", 1);
                true
            }
            Admit::Rejected => {
                self.add("jobs.rejected.program", 1);
                let delay = self.backoff * (1u64 << q.attempt.min(6));
                let retry = Queued {
                    attempt: q.attempt + 1,
                    ..q
                };
                self.schedule(now + delay, Ev::Retry(retry));
                true
            }
        }
    }
}

/// Everything the shadow counted, for reconciliation and reporting.
#[derive(Debug, Clone, Default)]
pub struct ShadowCounts {
    /// Counters under the program's names.
    pub counters: BTreeMap<&'static str, u64>,
    /// Local events executed.
    pub events: u64,
    /// Epoch windows (pod only).
    pub epochs: u64,
    /// Commands delegated (pod only).
    pub delegations: u64,
    /// Plan-library and cross-plan counters, summed over domains.
    pub route: RouteTelemetry,
    /// Best-fit placement calls.
    pub place_calls: u64,
    /// Best-fit placement calls that found no slice.
    pub place_failed: u64,
    /// Mean barrier occupancy (pod only).
    pub occ_mean: f64,
    /// Mean barrier fragmentation (pod only).
    pub frag_mean: f64,
}

impl ShadowCounts {
    fn fold(&mut self, domains: &[ShadowDomain]) {
        for d in domains {
            for (&k, &v) in &d.counts {
                *self.counters.entry(k).or_default() += v;
            }
            self.events += d.executed;
            self.place_calls += d.fab.place_calls;
            self.place_failed += d.fab.place_failed;
            let e = &d.fab.plans;
            self.route.merge(&RouteTelemetry {
                plan: e.plan_stats(),
                plan_resident: e.resident_instances(),
                cross: e.cross_stats(),
                cross_resident: e.resident_cross_plans(),
                path_cache: None,
            });
        }
    }

    /// A counter by its program name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Re-drive one pod run (`fabricd` domains, delegation, stitching).
pub fn drive_pod(cfg: &PodConfig, t: &mut Tracer) -> Result<ShadowCounts, String> {
    let layout = PodLayout::new(cfg.chips).map_err(|e| e.to_string())?;
    let partition = *layout.partition();
    let groups = layout.groups();
    let epochs = EpochConfig::new(cfg.epoch).ok_or("epoch length must be positive")?;
    let mut domains: Vec<ShadowDomain> = (0..groups)
        .map(|_| ShadowDomain::new(layout.group_racks(), cfg.lanes, cfg.queue_timeout))
        .collect();
    let trace: Vec<JobRequest> = t.time("workloads.generate", || {
        generate(cfg.jobs, &cfg.arrivals, cfg.seed)
    });
    let anchor = trace
        .get(trace.len() / 2)
        .map_or(SimTime::ZERO, |j| j.arrival);
    let failures: Vec<(SimTime, usize)> = (0..cfg.failures)
        .map(|f| {
            (
                anchor + SimDuration::from_secs(30) * (f as u64),
                f % groups.max(1),
            )
        })
        .collect();
    let mut free_est = vec![layout.group_chips(); groups];
    let mut out = ShadowCounts::default();
    let (mut next_job, mut next_fail, mut epoch) = (0usize, 0usize, 0u64);
    let (mut frag_sum, mut frag_n, mut occ_sum, mut occ_n) = (0.0f64, 0u64, 0.0f64, 0u64);
    loop {
        let end = epochs.end_of(epoch);
        while let Some(&job) = trace.get(next_job) {
            if job.arrival >= end {
                break;
            }
            let need = job.shape.volume();
            let view = CapacityView {
                free: &free_est,
                group_chips: layout.group_chips(),
                group_z: partition.group_z(),
            };
            let decision = t.time("pod.policy.place", || {
                cfg.policy.policy().place(&view, job.shape)
            });
            let single = match decision {
                PlacementDecision::SingleGroup(g) => Some(g),
                PlacementDecision::Stitch(legs) => {
                    let landed = stitch(
                        &mut domains,
                        &mut free_est,
                        &partition,
                        next_job,
                        &job,
                        &legs,
                        t,
                    );
                    if landed {
                        out.delegations += 1;
                        None
                    } else {
                        Some(pick_group(&free_est, need))
                    }
                }
            };
            if let Some(g) = single {
                if let Some(f) = free_est.get_mut(g) {
                    *f = f.saturating_sub(need);
                }
                out.delegations += 1;
                let dom = domains.get_mut(g).ok_or("delegation to an unknown group")?;
                dom.schedule(
                    job.arrival,
                    Ev::Arrive(Queued {
                        job: next_job as u32,
                        shape: job.shape,
                        duration: job.duration,
                        attempt: 0,
                    }),
                );
            }
            next_job += 1;
        }
        while let Some(&(at, g)) = failures.get(next_fail) {
            if at >= end {
                break;
            }
            out.delegations += 1;
            domains
                .get_mut(g)
                .ok_or("failure on an unknown group")?
                .schedule(at, Ev::Fail);
            next_fail += 1;
        }
        let mut pending = 0usize;
        for (g, dom) in domains.iter_mut().enumerate() {
            dom.run_until(t, end);
            pending += dom.pending();
            if let Some(f) = free_est.get_mut(g) {
                *f = dom.fab.free_chips();
            }
        }
        let total_free: usize = free_est.iter().sum();
        let largest = free_est.iter().copied().max().unwrap_or(0);
        if total_free > 0 {
            frag_sum += 1.0 - (largest as f64) / (total_free as f64);
            frag_n += 1;
        }
        occ_sum += 1.0 - (total_free as f64) / (layout.chips() as f64);
        occ_n += 1;
        epoch += 1;
        let drained = next_job == trace.len() && next_fail == failures.len() && pending == 0;
        if drained || (cfg.max_epochs > 0 && epoch >= cfg.max_epochs) {
            break;
        }
        if epoch >= 1_000_000 {
            return Err("shadow pod did not quiesce".to_string());
        }
    }
    out.fold(&domains);
    out.epochs = epoch;
    out.occ_mean = if occ_n > 0 {
        occ_sum / occ_n as f64
    } else {
        0.0
    };
    out.frag_mean = if frag_n > 0 {
        frag_sum / frag_n as f64
    } else {
        0.0
    };
    Ok(out)
}

/// Admit a cross-group stitch all-or-nothing at the barrier, exactly as
/// the pod control plane does; false (after rolling back any landed leg)
/// when it does not land.
fn stitch(
    domains: &mut [ShadowDomain],
    free_est: &mut [usize],
    partition: &topo::RackGroupPartition,
    job_idx: usize,
    job: &JobRequest,
    legs: &[StitchLeg],
    t: &mut Tracer,
) -> bool {
    if job_idx >= (1 << 27) || legs.len() > 15 || legs.is_empty() {
        return false;
    }
    let face = band::face_ports(partition.group_shape());
    let unit = job.shape.volume() / job.shape.extent(Dim::Z).max(1);
    if band::stitch_ports(face, unit).is_none() {
        return false;
    }
    let leg_id = |i: usize| LEG_ID_BIT | ((job_idx as u32) << 4) | (i as u32);
    let mut landed: Vec<(usize, u32)> = Vec::with_capacity(legs.len());
    for (i, leg) in legs.iter().enumerate() {
        let Some(dom) = domains.get_mut(leg.group) else {
            return false;
        };
        match dom.fab.admit(t, leg_id(i), leg.extent, true) {
            Admit::Admitted { circuits } => {
                dom.add("stitch.legs", 1);
                dom.add("circuits.programmed", circuits as u64);
                landed.push((leg.group, leg_id(i)));
            }
            _ => {
                for &(g, id) in landed.iter().rev() {
                    if let Some(d) = domains.get_mut(g) {
                        d.fab.evict(t, id);
                        d.add("stitch.rollbacks", 1);
                    }
                }
                return false;
            }
        }
    }
    let depart = job.arrival + job.duration;
    for (leg, &(g, id)) in legs.iter().zip(&landed) {
        if let Some(d) = domains.get_mut(g) {
            d.schedule(depart, Ev::Depart(id));
        }
        if let Some(f) = free_est.get_mut(g) {
            *f = f.saturating_sub(leg.extent.volume());
        }
    }
    if let Some(d) = landed.first().and_then(|&(g, _)| domains.get_mut(g)) {
        d.add("jobs.stitched", 1);
    }
    true
}

/// Re-drive one ctrl campaign (one domain, retries, gauge samples).
pub fn drive_ctrl(cfg: &fabricd::CtrlConfig, t: &mut Tracer) -> ShadowCounts {
    let mut dom = ShadowDomain::new(cfg.racks, cfg.lanes, cfg.queue_timeout);
    dom.retries = cfg.program_retries;
    dom.backoff = cfg.retry_backoff;
    let trace: Vec<JobRequest> = t.time("workloads.generate", || {
        generate(cfg.jobs, &cfg.arrivals, cfg.seed)
    });
    let [tx, ty, tz] = dom.fab.rack.cluster.occupancy().shape().dims;
    let infeasible = Shape3::new(tx + 1, ty, tz);
    for (i, req) in trace.iter().enumerate() {
        let shape = if cfg.infeasible_every > 0 && (i + 1) % cfg.infeasible_every == 0 {
            infeasible
        } else {
            req.shape
        };
        dom.schedule(
            req.arrival,
            Ev::Arrive(Queued {
                job: i as u32,
                shape,
                duration: req.duration,
                attempt: 0,
            }),
        );
    }
    let anchor = trace
        .get(trace.len() / 2)
        .map_or(SimTime::ZERO, |r| r.arrival);
    for k in 0..cfg.failures {
        dom.schedule(
            anchor + SimDuration::from_secs(30) * (k as u64 + 1),
            Ev::Fail,
        );
    }
    let est = trace
        .iter()
        .map(|r| r.arrival + r.duration)
        .max()
        .unwrap_or(SimTime::ZERO)
        + cfg.queue_timeout;
    if cfg.samples > 0 {
        let step = est.since_origin() / cfg.samples as u64;
        for s in 1..=cfg.samples {
            dom.schedule(SimTime::ZERO + step * s as u64, Ev::Sample);
        }
    }
    dom.run_until(t, SimTime::MAX);
    let mut out = ShadowCounts::default();
    out.fold(std::slice::from_ref(&dom));
    out
}

/// Reconcile the shadow's counts with the untraced run's public outputs:
/// every control-loop counter, events executed, and the plan-library and
/// cross-plan telemetry. Returns every mismatch (empty when reconciled).
pub fn reconcile(
    shadow: &ShadowCounts,
    metrics: &Metrics,
    route: &RouteTelemetry,
    events: u64,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut cmp = |what: &str, s: u64, p: u64| {
        if s != p {
            out.push(format!("{what}: shadow {s} vs program {p}"));
        }
    };
    for name in crate::checks::COUNTERS {
        cmp(name, shadow.counter(name), metrics.counter(name));
    }
    cmp("events", shadow.events, events);
    if shadow.route != *route {
        out.push(format!(
            "plan/cross telemetry: shadow {} vs program {}",
            shadow.route.summary(),
            route.summary()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pod(policy: pod::PolicyKind) -> PodConfig {
        PodConfig {
            chips: 1024,
            jobs: 96,
            failures: 2,
            arrivals: workloads::ArrivalParams {
                mean_interarrival: SimDuration::from_secs(20),
                ..workloads::ArrivalParams::default()
            },
            policy,
            ..PodConfig::default()
        }
    }

    #[test]
    fn pod_shadow_reconciles_with_the_program() {
        for policy in [pod::PolicyKind::Greedy, pod::PolicyKind::Stitch] {
            let cfg = small_pod(policy);
            let run = pod::run_pod(&cfg, 1).expect("pod run");
            let mut t = Tracer::default();
            let s = drive_pod(&cfg, &mut t).expect("shadow");
            assert_eq!(
                reconcile(&s, &run.metrics, &run.route, run.events),
                Vec::<String>::new()
            );
            assert_eq!(s.epochs, run.epochs);
            assert_eq!(s.delegations, run.delegations);
            assert_eq!(s.occ_mean.to_bits(), run.occ_mean.to_bits());
            assert_eq!(s.frag_mean.to_bits(), run.frag_mean.to_bits());
            assert!(t.layer("topo.place_best_fit").calls > 0);
        }
    }

    #[test]
    fn ctrl_shadow_reconciles_with_the_program() {
        let cfg = fabricd::CtrlConfig {
            racks: 2,
            jobs: 48,
            failures: 3,
            program_retries: 2,
            ..fabricd::CtrlConfig::default()
        };
        let run =
            fabricd::run_campaign(&cfg, &fabricd::CampaignOptions::default()).expect("campaign");
        let mut t = Tracer::default();
        let s = drive_ctrl(&cfg, &mut t);
        let route = RouteTelemetry::of(&run.state);
        assert_eq!(
            reconcile(&s, &run.metrics, &route, run.events_executed),
            Vec::<String>::new()
        );
    }

    /// Reconciliation reports a forged outcome rather than passing it.
    #[test]
    fn reconcile_reports_a_forged_count() {
        let cfg = small_pod(pod::PolicyKind::Greedy);
        let run = pod::run_pod(&cfg, 1).expect("pod run");
        let mut t = Tracer::default();
        let s = drive_pod(&cfg, &mut t).expect("shadow");
        let mut forged = Metrics::new();
        forged.merge(&run.metrics);
        forged.bump("jobs.admitted");
        assert_eq!(reconcile(&s, &forged, &run.route, run.events).len(), 1);
        let mut route = run.route;
        route.cross.hits += 1;
        assert_eq!(reconcile(&s, &run.metrics, &route, run.events).len(), 1);
        assert_eq!(
            reconcile(&s, &run.metrics, &run.route, run.events + 1).len(),
            1
        );
    }
}
