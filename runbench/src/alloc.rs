//! A counting global allocator, installed only in this binary.
//!
//! Every allocation (and every growing reallocation) bumps a call count
//! and a byte count; frees are not tracked. The counters are plain
//! relaxed atomics: the benchmark is single-threaded, so a snapshot
//! taken before and after a phase gives that phase's exact allocation
//! work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus counters.
pub struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and bytes requested so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub count: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// The counters right now.
    pub fn now() -> Self {
        AllocCount {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Work done since `earlier`.
    pub fn since(earlier: AllocCount) -> Self {
        let now = Self::now();
        AllocCount {
            count: now.count - earlier.count,
            bytes: now.bytes - earlier.bytes,
        }
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: AllocCount) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}
