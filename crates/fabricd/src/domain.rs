//! One control domain's event loop — the single driver behind both
//! `spsim ctrl` campaigns and every pod shard.
//!
//! A domain is a [`FabricState`] plus its [`Metrics`], a FIFO admission
//! queue with a timeout, optional programming retries with bounded
//! exponential backoff, and every pending event. Events live in an ordered
//! `BTreeMap` keyed by `(time, insertion seq)` — exactly the pop order of
//! [`desim::Engine`], FIFO among same-instant ties — rather than in opaque
//! scheduled closures. That makes the domain a value: it can be captured
//! mid-flight into a [`DomainSnapshot`] and restored with bit-identical
//! decisions, journal hashes, and metrics.
//!
//! Callers only seed events ([`Domain::schedule`]) and decide when to
//! execute them ([`Domain::step`], [`Domain::run_until`]): the ctrl
//! campaign loop adds snapshot cadence and crash injection, a pod shard
//! adds epoch windows and stitched legs.

use crate::journal::{Journal, JournalEntry};
use crate::metrics::Metrics;
use crate::snapshot::FabricSnapshot;
use crate::state::{Admission, FabricState};
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use std::collections::{BTreeMap, VecDeque};
use topo::Shape3;

/// Job ids with this bit set name one leg of a cross-group stitched
/// slice (`LEG_ID_BIT | job << 4 | leg_index`), so they never collide
/// with trace job ids. A departing leg counts as `stitch.legs.departed`,
/// not `jobs.departed`.
pub const LEG_ID_BIT: u32 = 0x8000_0000;

/// A job waiting for capacity (or carried by an arrival/retry event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued {
    /// Job id.
    pub job: u32,
    /// Requested slice shape.
    pub shape: Shape3,
    /// How long the job holds its slice once admitted.
    pub duration: SimDuration,
    /// When the job arrived (admission waits are measured from here).
    pub arrival: SimTime,
    /// Zero-based programming attempt; bumped on each `Reject`.
    pub attempt: u32,
}

/// One pending event. The payload carries everything the handler needs,
/// so the whole future of the domain is serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainEvent {
    /// A job arrives.
    Arrive(Queued),
    /// A rejected job's backoff expired.
    Retry(Queued),
    /// A queued job's admission deadline passed.
    Timeout(u32),
    /// An admitted job's (or stitched leg's) duration elapsed.
    Depart(u32),
    /// Inject one chip failure.
    Fail,
    /// Sample the fabric gauges into the metrics time-series.
    Sample,
}

/// Circuits the newest `Program` record in `journal` committed (0 if
/// none) — what an admission that just succeeded programmed.
pub fn last_programmed(journal: &Journal) -> u64 {
    journal
        .records()
        .iter()
        .rev()
        .find_map(|r| match &r.entry {
            JournalEntry::Program { circuits, .. } => Some(*circuits as u64),
            _ => None,
        })
        .unwrap_or(0)
}

/// The event-loop model: state + metrics + the admission queue + every
/// pending event. Pure data — no closures — so a run can stop and resume
/// anywhere.
#[derive(Debug)]
pub struct Domain {
    st: FabricState,
    metrics: Metrics,
    queue: VecDeque<Queued>,
    timeout: SimDuration,
    /// Extra programming attempts after a rejection.
    retries: u32,
    /// Base retry backoff; attempt `k` waits `backoff × 2^min(k, 6)`.
    backoff: SimDuration,
    /// Pending events in execution order. BTreeMap — never a hash map —
    /// per the workspace determinism rule (DET001).
    events: BTreeMap<(SimTime, u64), DomainEvent>,
    /// Monotonic insertion counter for the event-key tie-break.
    next_event_seq: u64,
}

impl Domain {
    /// An idle domain over `st`. `retries == 0` is single-attempt
    /// admission: a failed plan is denied at once, exactly
    /// [`FabricState::admit`].
    pub fn new(st: FabricState, timeout: SimDuration, retries: u32, backoff: SimDuration) -> Self {
        Domain {
            st,
            metrics: Metrics::new(),
            queue: VecDeque::new(),
            timeout,
            retries,
            backoff,
            events: BTreeMap::new(),
            next_event_seq: 0,
        }
    }

    /// The domain's fabric state.
    pub fn state(&self) -> &FabricState {
        &self.st
    }

    /// Mutable fabric state, for operations outside the event loop
    /// (stitched legs, journal compaction).
    pub fn state_mut(&mut self) -> &mut FabricState {
        &mut self.st
    }

    /// The domain's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics, for counters kept outside the event loop.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Hand back the state and metrics of a finished run.
    pub fn into_parts(self) -> (FabricState, Metrics) {
        (self.st, self.metrics)
    }

    /// Events still pending (scheduled or queued for capacity).
    pub fn pending(&self) -> usize {
        self.events.len() + self.queue.len()
    }

    /// Schedule `ev` at `at`; FIFO among same-instant events.
    pub fn schedule(&mut self, at: SimTime, ev: DomainEvent) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.events.insert((at, seq), ev);
    }

    /// The instant of the next pending event.
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.first_key_value().map(|(&(t, _), _)| t)
    }

    /// Execute the next pending event, if any.
    pub fn step(&mut self) {
        let Some(((now, _), ev)) = self.events.pop_first() else {
            return;
        };
        match ev {
            DomainEvent::Arrive(q) => {
                self.metrics.bump("jobs.arrived");
                self.start_or_queue(now, q);
            }
            DomainEvent::Retry(q) => {
                self.metrics.bump("jobs.retried");
                self.start_or_queue(now, q);
            }
            DomainEvent::Timeout(job) => self.on_timeout(now, job),
            DomainEvent::Depart(job) => self.on_depart(now, job),
            DomainEvent::Fail => self.on_failure(now),
            DomainEvent::Sample => self.sample(now),
        }
    }

    /// Execute every pending event with `time < deadline`, in
    /// `(time, seq)` order; returns how many ran.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut ran = 0;
        while self.next_at().is_some_and(|t| t < deadline) {
            self.step();
            ran += 1;
        }
        ran
    }

    /// Sample the fabric gauges into the metrics time-series.
    pub fn sample(&mut self, now: SimTime) {
        self.metrics.sample(now, &self.st);
    }

    /// Admit now if a slice fits and programs; true when the job is
    /// resolved from the queue's point of view (started, denied, rejected
    /// as infeasible, or handed to a scheduled retry).
    fn try_start(&mut self, now: SimTime, q: Queued) -> bool {
        let last = q.attempt >= self.retries;
        match self
            .st
            .admit_retryable(now, q.job, q.shape, q.attempt, last)
        {
            Admission::Admitted { setup } => {
                self.metrics.bump("jobs.admitted");
                self.metrics
                    .record_wait(now.saturating_since(q.arrival).as_secs_f64());
                // Admission just journaled Admit + Program + Reconfigure;
                // the Program record carries the circuit count.
                let circuits = last_programmed(self.st.journal());
                self.metrics.add("circuits.programmed", circuits);
                self.schedule(now + setup + q.duration, DomainEvent::Depart(q.job));
                true
            }
            Admission::NoSpace => false,
            Admission::ProgramDenied { error } => {
                self.metrics.bump("jobs.denied.program");
                self.metrics.bump_rejection(error.root_code());
                true
            }
            Admission::Infeasible { error } => {
                // The shape can never fit: journaled as an immediate
                // Reject + zero-circuit Rollback, never queued or retried.
                self.metrics.bump("jobs.rejected.infeasible");
                self.metrics.bump_rejection(error.root_code());
                true
            }
            Admission::ProgramRejected { error } => {
                // The slice was rolled back and a Reject + Rollback pair
                // journaled; re-attempt after bounded exponential backoff.
                self.metrics.bump("jobs.rejected.program");
                self.metrics.bump_rejection(error.root_code());
                let delay = self.backoff * (1u64 << q.attempt.min(6));
                let retry = Queued {
                    attempt: q.attempt + 1,
                    ..q
                };
                self.schedule(now + delay, DomainEvent::Retry(retry));
                true
            }
        }
    }

    /// Try to start `q`; if the fabric has no space, queue it with a fresh
    /// timeout.
    fn start_or_queue(&mut self, now: SimTime, q: Queued) {
        if !self.try_start(now, q) {
            self.metrics.bump("jobs.queued");
            self.queue.push_back(q);
            self.schedule(now + self.timeout, DomainEvent::Timeout(q.job));
        }
    }

    fn on_timeout(&mut self, now: SimTime, job: u32) {
        if let Some(pos) = self.queue.iter().position(|q| q.job == job) {
            if let Some(q) = self.queue.remove(pos) {
                self.st.deny_timeout(now, q.job, q.shape);
                self.metrics.bump("jobs.denied.timeout");
            }
        }
    }

    fn on_depart(&mut self, now: SimTime, job: u32) {
        self.st.evict(now, job);
        if job & LEG_ID_BIT != 0 {
            self.metrics.bump("stitch.legs.departed");
        } else {
            self.metrics.bump("jobs.departed");
        }
        // Freed capacity: retry queued jobs FIFO until one fails to fit.
        while let Some(&head) = self.queue.front() {
            if self.try_start(now, head) {
                self.queue.pop_front();
            } else {
                break;
            }
        }
    }

    fn on_failure(&mut self, now: SimTime) {
        self.metrics.bump("failures.injected");
        let (spliced, ok, failed) = match self.st.inject_failure(now) {
            Some(rec) => (
                rec.spliced as u64,
                rec.repair.is_some() as u64,
                rec.repair_error.is_some() as u64,
            ),
            None => (0, 0, 0),
        };
        self.metrics.add("circuits.spliced", spliced);
        self.metrics.add("repairs.ok", ok);
        self.metrics.add("repairs.failed", failed);
    }

    /// Capture the whole domain — fabric (which journals a `Snapshot`
    /// record), admission queue, pending events, metrics — at instant
    /// `at`.
    pub fn capture(&mut self, at: SimTime) -> DomainSnapshot {
        let fabric = self.st.capture_snapshot(at);
        let mut w = SnapWriter::new();
        self.metrics.write_snap(&mut w);
        DomainSnapshot {
            fabric,
            timeout: self.timeout,
            retries: self.retries,
            backoff: self.backoff,
            next_event_seq: self.next_event_seq,
            queue: self.queue.iter().copied().collect(),
            events: self
                .events
                .iter()
                .map(|(&(t, s), ev)| (t, s, ev.clone()))
                .collect(),
            metrics: w.finish(),
        }
    }

    /// Rebuild the domain a [`DomainSnapshot`] captured. Every event key
    /// must be unique and below the captured insertion counter, or later
    /// schedules could collide with (and silently replace) a restored one.
    pub fn restore(snap: &DomainSnapshot) -> Result<Domain, String> {
        let st = snap.fabric.restore().map_err(|e| e.to_string())?;
        let mut r = SnapReader::new(&snap.metrics);
        let metrics = Metrics::read_snap(&mut r)?;
        r.done()?;
        let mut events = BTreeMap::new();
        for (t, s, ev) in &snap.events {
            if *s >= snap.next_event_seq {
                return Err(format!(
                    "domain snapshot: event seq {s} is not below the insertion counter {}",
                    snap.next_event_seq
                ));
            }
            if events.insert((*t, *s), ev.clone()).is_some() {
                return Err(format!(
                    "domain snapshot: duplicate event key ({}, {s})",
                    t.as_ps()
                ));
            }
        }
        Ok(Domain {
            st,
            metrics,
            queue: snap.queue.iter().copied().collect(),
            timeout: snap.timeout,
            retries: snap.retries,
            backoff: snap.backoff,
            events,
            next_event_seq: snap.next_event_seq,
        })
    }
}

/// A whole domain captured mid-flight: the fabric snapshot (state +
/// journal resume point), queue and retry policy, admission queue, pending
/// events, and metrics. [`Domain::restore`] turns it back into a running
/// loop.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSnapshot {
    /// The fabric-state snapshot, including the journal resume point.
    pub fabric: FabricSnapshot,
    /// Admission-queue timeout policy at capture.
    pub timeout: SimDuration,
    /// Extra programming attempts after a rejection.
    pub retries: u32,
    /// Base retry backoff.
    pub backoff: SimDuration,
    /// The event-key insertion counter at capture.
    pub next_event_seq: u64,
    queue: Vec<Queued>,
    events: Vec<(SimTime, u64, DomainEvent)>,
    metrics: String,
}

/// Encode a queue entry's fields.
fn write_queued(w: &mut SnapWriter, q: &Queued) {
    w.u64("job", q.job as u64);
    let [qx, qy, qz] = q.shape.dims;
    w.u64("qx", qx as u64);
    w.u64("qy", qy as u64);
    w.u64("qz", qz as u64);
    w.u64("duration_ps", q.duration.as_ps());
    w.u64("arrival_ps", q.arrival.as_ps());
    w.u64("attempt", q.attempt as u64);
}

/// Decode a job id, which must fit the journal's `u32`.
fn read_job(r: &mut SnapReader<'_>) -> Result<u32, String> {
    u32::try_from(r.u64("job")?).map_err(|_| "domain snapshot: job id exceeds u32".to_string())
}

/// Decode a queue entry's fields.
fn read_queued(r: &mut SnapReader<'_>) -> Result<Queued, String> {
    let job = read_job(r)?;
    let qx = r.u64("qx")? as usize;
    let qy = r.u64("qy")? as usize;
    let qz = r.u64("qz")? as usize;
    let duration = SimDuration::from_ps(r.u64("duration_ps")?);
    let arrival = SimTime::from_ps(r.u64("arrival_ps")?);
    let attempt = u32::try_from(r.u64("attempt")?)
        .map_err(|_| "domain snapshot: attempt exceeds u32".to_string())?;
    Ok(Queued {
        job,
        shape: Shape3::new(qx, qy, qz),
        duration,
        arrival,
        attempt,
    })
}

impl DomainSnapshot {
    /// Encode every field after the caller's section header. Element
    /// counts precede their lists; event kinds are numbered in
    /// [`DomainEvent`] declaration order.
    pub fn write_snap(&self, w: &mut SnapWriter) {
        w.u64("timeout_ps", self.timeout.as_ps());
        w.u64("retries", self.retries as u64);
        w.u64("backoff_ps", self.backoff.as_ps());
        w.u64("event_seq", self.next_event_seq);
        w.u64("queue", self.queue.len() as u64);
        for q in &self.queue {
            write_queued(w, q);
        }
        w.u64("events", self.events.len() as u64);
        for (t, s, ev) in &self.events {
            w.u64("at", t.as_ps());
            w.u64("seq", *s);
            match ev {
                DomainEvent::Arrive(q) => {
                    w.u64("kind", 0);
                    write_queued(w, q);
                }
                DomainEvent::Retry(q) => {
                    w.u64("kind", 1);
                    write_queued(w, q);
                }
                DomainEvent::Timeout(job) => {
                    w.u64("kind", 2);
                    w.u64("job", *job as u64);
                }
                DomainEvent::Depart(job) => {
                    w.u64("kind", 3);
                    w.u64("job", *job as u64);
                }
                DomainEvent::Fail => w.u64("kind", 4),
                DomainEvent::Sample => w.u64("kind", 5),
            }
        }
        w.str("metrics", &self.metrics);
        w.str("fabric", &self.fabric.to_text());
    }

    /// Decode the fields [`write_snap`](Self::write_snap) emitted. Lists
    /// grow by push, so a forged element count fails on the missing
    /// entries instead of reserving memory up front.
    pub fn read_snap(r: &mut SnapReader<'_>) -> Result<DomainSnapshot, String> {
        let timeout = SimDuration::from_ps(r.u64("timeout_ps")?);
        let retries = u32::try_from(r.u64("retries")?)
            .map_err(|_| "domain snapshot: retries exceeds u32".to_string())?;
        let backoff = SimDuration::from_ps(r.u64("backoff_ps")?);
        let next_event_seq = r.u64("event_seq")?;
        let mut queue = Vec::new();
        for _ in 0..r.u64("queue")? {
            queue.push(read_queued(r)?);
        }
        let mut events = Vec::new();
        for _ in 0..r.u64("events")? {
            let at = SimTime::from_ps(r.u64("at")?);
            let seq = r.u64("seq")?;
            let ev = match r.u64("kind")? {
                0 => DomainEvent::Arrive(read_queued(r)?),
                1 => DomainEvent::Retry(read_queued(r)?),
                2 => DomainEvent::Timeout(read_job(r)?),
                3 => DomainEvent::Depart(read_job(r)?),
                4 => DomainEvent::Fail,
                5 => DomainEvent::Sample,
                k => return Err(format!("domain snapshot: unknown event kind {k}")),
            };
            events.push((at, seq, ev));
        }
        let metrics = r.str("metrics")?;
        let fabric = FabricSnapshot::parse(&r.str("fabric")?)?;
        Ok(DomainSnapshot {
            fabric,
            timeout,
            retries,
            backoff,
            next_event_seq,
            queue,
            events,
            metrics,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small domain mid-flight: one admitted job (a pending departure),
    /// one queued job (a pending timeout), a pending failure and sample.
    fn busy_domain() -> Domain {
        let st = FabricState::new(1, 2, 7);
        let mut d = Domain::new(st, SimDuration::from_secs(100), 0, SimDuration::ZERO);
        for job in 0..2 {
            let q = Queued {
                job,
                shape: Shape3::new(4, 4, 4),
                duration: SimDuration::from_secs(50),
                arrival: SimTime::ZERO,
                attempt: 0,
            };
            d.schedule(SimTime::ZERO, DomainEvent::Arrive(q));
        }
        d.schedule(SimTime::from_ps(desim::PS_PER_S), DomainEvent::Fail);
        d.schedule(SimTime::from_ps(desim::PS_PER_S), DomainEvent::Sample);
        assert_eq!(d.run_until(SimTime::from_ps(1)), 2);
        d
    }

    fn busy() -> DomainSnapshot {
        busy_domain().capture(SimTime::from_ps(1))
    }

    /// `text` with its first `key=` value replaced by `u64::MAX` — a forged
    /// element count for the parser tests of every snapshot layer.
    pub(crate) fn forge_count(text: &str, key: &str) -> String {
        let mut forged = false;
        text.lines()
            .map(
                |line| match line.strip_prefix(key).and_then(|v| v.strip_prefix('=')) {
                    Some(_) if !forged => {
                        forged = true;
                        format!("{key}={}\n", u64::MAX)
                    }
                    _ => format!("{line}\n"),
                },
            )
            .collect()
    }

    fn text(s: &DomainSnapshot) -> String {
        let mut w = SnapWriter::new();
        s.write_snap(&mut w);
        w.finish()
    }

    fn decode(text: &str) -> Result<Domain, String> {
        let mut r = SnapReader::new(text);
        let snap = DomainSnapshot::read_snap(&mut r)?;
        r.done()?;
        Domain::restore(&snap)
    }

    #[test]
    fn snapshot_round_trips_and_resumes_bit_identically() {
        let mut full = busy_domain();
        let snap = full.capture(SimTime::from_ps(1));
        assert_eq!(full.pending(), 5, "depart, timeout, fail, sample + queue");
        let t = text(&snap);
        let mut r = SnapReader::new(&t);
        assert_eq!(DomainSnapshot::read_snap(&mut r), Ok(snap));
        let mut resumed = decode(&t).expect("restores");
        assert_eq!(
            resumed.run_until(SimTime::MAX),
            full.run_until(SimTime::MAX)
        );
        assert_eq!(resumed.pending(), 0);
        assert_eq!(resumed.state().fingerprint(), full.state().fingerprint());
        assert_eq!(
            resumed.state().journal().hash(),
            full.state().journal().hash()
        );
        assert_eq!(
            resumed.metrics().rejection_report_json(),
            full.metrics().rejection_report_json()
        );
        assert_eq!(resumed.metrics().summary(), full.metrics().summary());
    }

    /// Every way the shared codec/restore must refuse a forged domain —
    /// the one path both ctrl campaign and pod shard snapshots restore
    /// through.
    #[test]
    fn forged_snapshots_are_typed_errors() {
        type Forge = fn(&DomainSnapshot) -> String;
        let cases: [(&str, Forge); 6] = [
            ("duplicate event key", |s| {
                let mut s = s.clone();
                let first = s.events.first().cloned().expect("events");
                s.events.push(first);
                text(&s)
            }),
            ("event seq at the insertion counter", |s| {
                let mut s = s.clone();
                if let Some(ev) = s.events.last_mut() {
                    ev.1 = s.next_event_seq;
                }
                text(&s)
            }),
            ("unknown event kind", |s| {
                text(s).replacen("kind=4", "kind=6", 1)
            }),
            ("job id above u32::MAX", |s| {
                text(s).replacen("job=1\n", "job=4294967296\n", 1)
            }),
            ("forged queue count", |s| forge_count(&text(s), "queue")),
            ("forged event count", |s| forge_count(&text(s), "events")),
        ];
        let snap = busy();
        assert!(
            decode(&text(&snap)).is_ok(),
            "the unforged control restores"
        );
        for (what, forge) in cases {
            let forged = forge(&snap);
            assert_ne!(forged, text(&snap), "{what}: the forgery changed nothing");
            assert!(decode(&forged).is_err(), "{what}: accepted");
        }
    }
}
