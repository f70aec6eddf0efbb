//! A benchmark-side span recorder: wall-clock spans around calls into the
//! program's public functions, kept in memory and summed per layer.
//!
//! Spans nest. A span's *self* time is its duration minus the time its
//! child spans cover, so summing self time over every layer never counts
//! one nanosecond twice.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated time and call count of one named layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time (duration minus child spans).
    pub self_time: Duration,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child: Duration,
}

/// An in-memory span recorder.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, LayerTime>,
}

impl Tracer {
    /// Open a span named `name`; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) {
        self.stack.push(Frame {
            name,
            start: Instant::now(),
            child: Duration::ZERO,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let Some(f) = self.stack.pop() else {
            return;
        };
        let total = f.start.elapsed();
        let layer = self.layers.entry(f.name).or_default();
        layer.calls += 1;
        layer.total += total;
        layer.self_time += total.saturating_sub(f.child);
        if let Some(parent) = self.stack.last_mut() {
            parent.child += total;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The layer totals recorded so far.
    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let mut t = Tracer::default();
        t.time("outer", || std::thread::sleep(Duration::from_millis(2)));
        t.enter("outer");
        t.time("inner", || std::thread::sleep(Duration::from_millis(4)));
        t.exit();
        let outer = t.layer("outer");
        let inner = t.layer("inner");
        assert_eq!(outer.calls, 2);
        assert_eq!(inner.calls, 1);
        assert!(inner.total >= Duration::from_millis(4));
        assert_eq!(outer.total, outer.self_time + inner.total);
    }
}
