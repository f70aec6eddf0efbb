//! Output checks. None of them pins a fingerprint or a count: each
//! compares two executions the program promises are identical, or checks
//! an identity every run must satisfy, so a behaviour-changing change to
//! the program needs no edit here.

use fabricd::{CampaignOutcome, Metrics};
use pod::PodOutcome;

/// What identifies a run: equal identities ⇔ identical runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// Run fingerprint (pod) or final state fingerprint (ctrl).
    pub fingerprint: u64,
    /// Journal hash chain head.
    pub journal_hash: u64,
    /// Logical journal length (invariant under compaction).
    pub journal_len: u64,
}

impl Identity {
    /// Identity of a pod run.
    pub fn of_pod(out: &PodOutcome) -> Identity {
        Identity {
            fingerprint: out.fingerprint,
            journal_hash: out.journal.hash(),
            journal_len: out.journal.len() as u64,
        }
    }

    /// Identity of a ctrl campaign.
    pub fn of_ctrl(out: &CampaignOutcome) -> Identity {
        Identity {
            fingerprint: out.state.fingerprint(),
            journal_hash: out.state.journal().hash(),
            journal_len: out.state.journal().len() as u64,
        }
    }
}

/// Where every job of a trace ended up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobAccounting {
    /// Jobs in the trace (the attempts).
    pub trace: u64,
    /// Jobs admitted into one domain.
    pub admitted: u64,
    /// Jobs admitted as a cross-group stitch (never counted as arrivals
    /// of any domain, so they are added here explicitly).
    pub stitched: u64,
    /// Jobs denied because their circuits could not be programmed.
    pub denied_program: u64,
    /// Jobs denied after waiting past the queue timeout.
    pub denied_timeout: u64,
    /// Jobs rejected as infeasible for the torus.
    pub infeasible: u64,
}

impl JobAccounting {
    /// Jobs that got a slice.
    pub fn got_slice(&self) -> u64 {
        self.admitted + self.stitched
    }

    /// Jobs turned away for any reason.
    pub fn denied(&self) -> u64 {
        self.denied_program + self.denied_timeout + self.infeasible
    }

    /// Sum another run's accounting into this one.
    pub fn add(&mut self, o: &JobAccounting) {
        self.trace += o.trace;
        self.admitted += o.admitted;
        self.stitched += o.stitched;
        self.denied_program += o.denied_program;
        self.denied_timeout += o.denied_timeout;
        self.infeasible += o.infeasible;
    }
}

/// Every job of the trace is either admitted or denied, exactly once.
pub fn accounting_closes(a: &JobAccounting) -> Result<(), String> {
    let resolved = a.got_slice() + a.denied();
    if resolved == a.trace {
        Ok(())
    } else {
        Err(format!(
            "job accounting does not close: {} admitted + {} stitched + {} denied \
             (program {}, timeout {}, infeasible {}) = {resolved} != {} trace jobs",
            a.admitted,
            a.stitched,
            a.denied(),
            a.denied_program,
            a.denied_timeout,
            a.infeasible,
            a.trace
        ))
    }
}

/// Two executions the program promises are identical really are.
pub fn same_run(what: &str, a: &Identity, b: &Identity) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: runs differ (fingerprint {:#018x} vs {:#018x}, journal hash \
             {:#018x} vs {:#018x}, journal length {} vs {})",
            a.fingerprint,
            b.fingerprint,
            a.journal_hash,
            b.journal_hash,
            a.journal_len,
            b.journal_len
        ))
    }
}

/// A rebuilt state fingerprints like the live one.
pub fn same_state(what: &str, live: u64, rebuilt: u64) -> Result<(), String> {
    if live == rebuilt {
        Ok(())
    } else {
        Err(format!(
            "{what}: state fingerprint {rebuilt:#018x} != live {live:#018x}"
        ))
    }
}

/// The counters the pod and ctrl control loops report, by their names in
/// `fabricd::Metrics`.
pub const COUNTERS: [&str; 14] = [
    "jobs.arrived",
    "jobs.admitted",
    "jobs.stitched",
    "jobs.queued",
    "jobs.denied.program",
    "jobs.denied.timeout",
    "jobs.rejected.infeasible",
    "jobs.rejected.program",
    "jobs.retried",
    "circuits.programmed",
    "failures.injected",
    "repairs.ok",
    "stitch.legs",
    "stitch.rollbacks",
];

/// Two executions report the same counters.
pub fn same_counters(what: &str, a: &Metrics, b: &Metrics) -> Result<(), String> {
    for name in COUNTERS {
        let (x, y) = (a.counter(name), b.counter(name));
        if x != y {
            return Err(format!("{what}: counter {name} is {x} vs {y}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> Identity {
        Identity {
            fingerprint: 1,
            journal_hash: 2,
            journal_len: 3,
        }
    }

    #[test]
    fn accounting_check_fires_on_a_lost_job() {
        let mut a = JobAccounting {
            trace: 10,
            admitted: 5,
            stitched: 1,
            denied_program: 2,
            denied_timeout: 1,
            infeasible: 1,
        };
        assert!(accounting_closes(&a).is_ok());
        a.stitched = 0; // a stitched job dropped from the count
        assert!(accounting_closes(&a).is_err());
        a.stitched = 2; // a job counted twice
        assert!(accounting_closes(&a).is_err());
    }

    #[test]
    fn identity_check_fires_on_any_field() {
        assert!(same_run("x", &id(), &id()).is_ok());
        for forged in [
            Identity {
                fingerprint: 9,
                ..id()
            },
            Identity {
                journal_hash: 9,
                ..id()
            },
            Identity {
                journal_len: 9,
                ..id()
            },
        ] {
            assert!(same_run("x", &id(), &forged).is_err());
        }
    }

    #[test]
    fn state_check_fires_on_divergence() {
        assert!(same_state("x", 7, 7).is_ok());
        assert!(same_state("x", 7, 8).is_err());
    }

    #[test]
    fn counter_check_fires_on_any_counter() {
        let a = Metrics::new();
        assert!(same_counters("x", &a, &Metrics::new()).is_ok());
        for name in COUNTERS {
            let mut b = Metrics::new();
            b.bump(name);
            assert!(same_counters("x", &a, &b).is_err(), "{name}");
        }
    }
}
