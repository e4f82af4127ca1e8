//! Counting global allocator: every heap allocation of the benchmark
//! process (product code included) goes through [`Counting`], which
//! forwards to [`System`] and keeps four numbers — allocations, bytes
//! allocated, live bytes, peak live bytes.
//!
//! It is always on, so parent and change pay the same few relaxed atomic
//! operations per allocation; the timed window only ever *reads* it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Statistics only: none of these publishes other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

#[inline]
fn grew(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never influence
// the pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees a valid non-zero-size `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and this allocator only hands out `System`
        // blocks.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is valid for its align.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow may move and copy the block: count it as one
            // allocation of the new size, and retire the old size.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counters since the last [`reset_window`] (`live` is absolute).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    pub allocs: u64,
    pub bytes: u64,
    pub live: u64,
    pub peak: u64,
}

pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Number of allocations so far (the tracer reads only this).
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Start of a timed window: zero the counts; the peak restarts from
/// what is live now.
pub fn reset_window() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only, with a block far larger than anything a test
    // harness thread allocates: the counters are process-global and
    // `cargo test` runs the tests of a binary on parallel threads.
    #[test]
    fn counts_allocations_bytes_live_and_peak() {
        const BIG: u64 = 64 << 20;
        let before = stats();
        let mut v: Vec<u8> = Vec::with_capacity(BIG as usize);
        let held = stats();
        assert!(held.allocs > before.allocs);
        assert!(held.bytes >= before.bytes + BIG);
        assert!(held.live >= BIG && held.peak >= held.live.min(before.live + BIG));
        v.resize(BIG as usize + 1, 7); // grows: a realloc counts as one more
        let grown = stats();
        assert!(grown.allocs > held.allocs);
        assert!(grown.bytes >= held.bytes + BIG);
        drop(v);
        assert!(
            stats().live + BIG / 2 <= grown.live,
            "dealloc returns the bytes"
        );
        assert!(stats().peak >= grown.live.min(BIG), "the peak stays");
    }
}
