//! Host speed calibration: a fixed kernel timed beside the simulator.
//!
//! The benchmark box is a few cores of a shared host, and its speed for
//! allocation-heavy, pointer-chasing code shifts by up to 1.6× for minutes
//! at a time as neighbours load the shared caches and memory. The kernel
//! here is a small discrete-event loop written with the standard library
//! only: a `BTreeMap` of pending events with heap-allocated payloads,
//! popped in time order and rescheduled, the access pattern of the
//! simulator's own event queues and set-up. It is benchmark code, so no
//! change to the program can speed it up or slow it down. Its median CPU
//! time over a run, against its median on the reference box, is the run's
//! slowdown, by which the gated host metrics are scaled (see README.md,
//! "Host time").

use crate::clock::process_cpu_s;
use crate::stats::median;
use std::collections::BTreeMap;

/// Events pending at any time.
const PENDING: u32 = 20_000;
/// Events popped and rescheduled per kernel run.
const STEPS: u32 = 150_000;
/// Median CPU seconds of one kernel run on the reference box (2 vCPUs of a
/// 2.1 GHz Intel Xeon host with a 300 MB L3), taken from its slower, more
/// common speed.
pub const REFERENCE_KERNEL_S: f64 = 0.065;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One run of the kernel; returns a checksum so that it cannot be elided.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let mut queue: BTreeMap<(u64, u32), Vec<u32>> = BTreeMap::new();
    for id in 0..PENDING {
        let r = xorshift(&mut x);
        queue.insert((r % 1_000_000, id), vec![id; (r % 48) as usize + 1]);
    }
    let mut now = 0u64;
    for step in 0..STEPS {
        let Some(((at, _), mut payload)) = queue.pop_first() else {
            break;
        };
        now = now.max(at);
        acc = acc.wrapping_add(payload.iter().map(|&v| u64::from(v)).sum::<u64>());
        let r = xorshift(&mut x);
        payload.resize((r % 48) as usize + 1, step);
        queue.insert((now + r % 100_000, PENDING + step), payload);
    }
    acc
}

/// CPU seconds of every kernel run so far.
#[derive(Debug, Default)]
pub struct Calibrator {
    samples: Vec<f64>,
}

impl Calibrator {
    /// Run the kernel once and record its CPU seconds.
    pub fn sample(&mut self) -> Result<(), String> {
        let c0 = process_cpu_s()?;
        std::hint::black_box(kernel());
        self.samples.push(process_cpu_s()? - c0);
        Ok(())
    }

    /// Kernel runs recorded.
    pub fn runs(&self) -> usize {
        self.samples.len()
    }

    /// Median CPU seconds of one kernel run; 0 before the first run.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower this run's host ran the kernel than the reference
    /// box did (below 1 when it ran faster); 1 before the first run. Host
    /// seconds divided by this factor are reference-box seconds.
    pub fn slowdown(&self) -> f64 {
        let k = self.kernel_s();
        if k > 0.0 {
            k / REFERENCE_KERNEL_S
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn slowdown_is_the_median_kernel_time_over_the_reference() {
        let mut c = Calibrator::default();
        assert_eq!(c.slowdown(), 1.0, "no runs yet: no scaling");
        for _ in 0..3 {
            c.sample().unwrap();
        }
        assert_eq!(c.runs(), 3);
        assert!(c.kernel_s() > 0.0);
        assert_eq!(c.slowdown(), c.kernel_s() / REFERENCE_KERNEL_S);
    }
}
