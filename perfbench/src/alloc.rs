//! Peak live heap, counted by the benchmark's global allocator during
//! set-up and one untimed pass.
//!
//! The process's resident high-water mark (`VmHWM`) is not steady
//! enough to gate on: the same seed reads anywhere from 12 to 21 MiB.
//! The cause is unverified. A likely one is that every `run_many` call
//! runs on a fresh scoped worker thread (joined before the call
//! returns), and which malloc arena each new thread is given, and how
//! much of it is still mapped, varies. Live heap bytes do not depend on
//! which arena serves them, so their peak repeats from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// [`System`], counting live and peak-live bytes while [`counted`] runs
/// and doing nothing else otherwise, so timed passes pay only a relaxed
/// load per call. The counters publish no other data, so relaxed
/// ordering suffices.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grew(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's pointer
// and layout unchanged, so `System`'s guarantees carry over; the
// counters never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Heap use of a [`counted`] call, in bytes relative to its start.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Highest live heap reached during the call.
    pub peak: isize,
    /// Live heap left when the call returned.
    pub retained: isize,
}

/// Run `f` with counting on. Blocks allocated before the call and
/// freed during it would lower the count, so `f` should only free what
/// it allocated; the benchmark's set-ups and passes do.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let usage = Usage {
        peak: PEAK.load(Relaxed),
        retained: LIVE.load(Relaxed),
    };
    (out, usage)
}
