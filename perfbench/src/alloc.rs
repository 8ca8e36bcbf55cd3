//! A counting global allocator, after the one in `tests/loadgen_alloc.rs`:
//! every allocation and reallocation in the process bumps a call counter
//! and a requested-bytes counter. The counters are statistics only, so
//! `Relaxed` ordering suffices; a counted window brackets work on the
//! calling thread and on threads it joins before the window closes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAllocator;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters do not touch the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and requested bytes over one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, other: Allocs) {
        self.calls += other.calls;
        self.bytes += other.bytes;
    }
}

/// Runs `f` and returns its result with the allocations made meanwhile.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let calls = CALLS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let out = f();
    let used = Allocs {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, used)
}
