//! Counting global allocator of the benchmark binary: allocation calls,
//! bytes requested and peak live heap, read as deltas around one repetition.
//! The counts depend only on what the program allocates, so they repeat
//! exactly and can be gated far tighter than any host time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps the system allocator; the counters are statistics that publish no
/// other data, hence `Relaxed`.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    BYTES.fetch_add(by, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only updates counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grew(layout.size() as u64);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size as u64);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one repetition allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// `alloc` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live heap above the level at the start of the scope.
    pub peak_live_bytes: u64,
}

/// Runs `f` and returns what it allocated.
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    let (calls, bytes, base) = (CALLS.load(Relaxed), BYTES.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(base, Relaxed);
    let out = f();
    let delta = AllocDelta {
        calls: CALLS.load(Relaxed) - calls,
        bytes: BYTES.load(Relaxed) - bytes,
        peak_live_bytes: PEAK.load(Relaxed) - base,
    };
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_counts_calls_bytes_and_peak() {
        // Other tests allocate on their own threads while this one runs, so
        // only lower bounds are exact here.
        let (v, d) = scoped(|| {
            let big = vec![0u8; 1 << 20];
            drop(big);
            vec![1u8; 1 << 10]
        });
        assert_eq!(v.len(), 1 << 10);
        assert!(d.calls >= 2);
        assert!(d.bytes >= (1 << 20) + (1 << 10));
        assert!(d.peak_live_bytes >= 1 << 20);
    }
}
