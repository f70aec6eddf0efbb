//! Host time of a measured call: wall clock and the process's CPU time.
//!
//! The gated host metrics use CPU time. The benchmark box is a few cores
//! of a shared host, so a neighbour's load stretches wall time for
//! minutes at a stretch; the CPU time of the single-threaded timed call
//! is what the program itself spent, and equals its wall time on an idle
//! box. Wall time is still printed in the report lines.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, including threads that have exited.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU seconds this process has used so far.
pub fn process_cpu_s() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two C longs on every 64-bit Linux target) for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".to_string());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Host time one measured call took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process.
    pub cpu_s: f64,
}

/// A started measurement of wall and CPU time.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start measuring now.
    pub fn start() -> Result<Stopwatch, String> {
        Ok(Stopwatch {
            cpu: process_cpu_s()?,
            wall: Instant::now(),
        })
    }

    /// Host time since [`start`](Self::start).
    pub fn elapsed(&self) -> Result<HostTime, String> {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Ok(HostTime {
            wall_s,
            cpu_s: process_cpu_s()? - self.cpu,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests run in this process at the same time, so CPU time can
    /// only be bounded from below here.
    #[test]
    fn cpu_time_counts_work() {
        let before = process_cpu_s().unwrap();
        let sw = Stopwatch::start().unwrap();
        let mut x = 0u64;
        while sw.elapsed().unwrap().wall_s < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spun = sw.elapsed().unwrap();
        assert!(spun.wall_s >= 0.05);
        assert!(
            spun.cpu_s > 0.01,
            "a 50 ms busy loop used {} CPU s",
            spun.cpu_s
        );
        assert!(process_cpu_s().unwrap() + 1e-6 >= before + spun.cpu_s);
    }
}
