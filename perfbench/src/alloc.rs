//! A counting global allocator: the peak heap one simulator call needs.
//!
//! Counting is off outside a measurement window, so timed calls pay one
//! relaxed load of a flag nobody writes, and no contended atomics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Net bytes allocated since a window opened, and their peak. Statistics
/// only: no other data is published through them, so relaxed ordering
/// suffices.
pub struct Counters {
    on: AtomicBool,
    live: AtomicIsize,
    peak: AtomicIsize,
}

impl Counters {
    /// Counters with no window open.
    pub const fn new() -> Self {
        Counters {
            on: AtomicBool::new(false),
            live: AtomicIsize::new(0),
            peak: AtomicIsize::new(0),
        }
    }

    fn grew(&self, bytes: usize) {
        if self.on.load(Ordering::Relaxed) {
            let b = bytes as isize;
            let now = self.live.fetch_add(b, Ordering::Relaxed) + b;
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn shrank(&self, bytes: usize) {
        if self.on.load(Ordering::Relaxed) {
            self.live.fetch_sub(bytes as isize, Ordering::Relaxed);
        }
    }

    /// Open a window: count net allocation from zero.
    pub fn start(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
        self.on.store(true, Ordering::Relaxed);
    }

    /// Close the window and return its peak net allocation in bytes:
    /// the most heap the window held above what was live when it opened.
    pub fn stop(&self) -> usize {
        self.on.store(false, Ordering::Relaxed);
        self.peak.load(Ordering::Relaxed).max(0) as usize
    }
}

/// The process-wide counters the global allocator keeps.
pub static HEAP: Counters = Counters::new();

/// The system allocator, counting into [`HEAP`].
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters never affect the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (that is, by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                HEAP.grew(new_size - layout.size());
            } else {
                HEAP.shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sees_its_own_peak_only() {
        let c = Counters::new();
        c.grew(100); // before the window: not counted
        c.start();
        c.shrank(30); // frees memory from before the window
        c.grew(50);
        c.shrank(50);
        c.grew(20);
        assert_eq!(c.stop(), 20);
        c.grew(1_000); // after the window: not counted
        c.start();
        assert_eq!(c.stop(), 0);
    }
}
