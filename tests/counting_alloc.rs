//! A global allocator that counts what the *calling thread* allocates and
//! frees, for the allocation ratchets (`byte_path.rs`, `dispatch_path.rs`,
//! `request_path.rs`): each includes this file with `#[path]`. It holds the
//! test tree's one `unsafe impl`. A ratchet that fails can say where: the
//! sampler ([`census`]) keeps the backtrace of every *k*-th allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};

thread_local! {
    /// (allocations, bytes allocated) by this thread. `const`-initialised
    /// `Cell`s: reading or writing them never allocates.
    pub static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// (live bytes, peak live bytes) of this thread: what it allocated less
    /// what it freed, and the most that ever was. Signed, because a thread
    /// may free what another allocated.
    pub static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    /// The sampler's *k*: every `SAMPLE_EVERY`-th allocation of this thread
    /// leaves its backtrace in `SAMPLES`. Zero — the default, and while a
    /// capture is being taken (it allocates) — is off.
    static SAMPLE_EVERY: Cell<u64> = const { Cell::new(0) };
    static SAMPLES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

struct PerThread;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees memory.
    let _ = COUNTS.try_with(|c| {
        c.set((c.get().0 + 1, c.get().1 + bytes as u64));
        let every = SAMPLE_EVERY.try_with(Cell::get).unwrap_or(0);
        if every != 0 && c.get().0.is_multiple_of(every) {
            SAMPLE_EVERY.set(0);
            SAMPLES.with(|s| s.borrow_mut().push(Backtrace::force_capture()));
            SAMPLE_EVERY.set(every);
        }
    });
}

/// Move this thread's live bytes by `delta`.
fn live(delta: i64) {
    let _ = LIVE.try_with(|c| {
        let now = c.get().0 + delta;
        c.set((now, c.get().1.max(now)));
    });
}

/// Run `window` with every `every`-th allocation sampled and return the ten
/// most-sampled allocation sites, as (samples, the innermost two frames
/// that are not the allocator's, the collections' or the runtime's).
#[allow(dead_code)] // a ratchet that cannot rerun its window does not ask
pub fn census(every: u64, window: impl FnOnce()) -> Vec<(usize, String)> {
    SAMPLE_EVERY.set(every);
    window();
    SAMPLE_EVERY.set(0);
    let mut sites = std::collections::BTreeMap::<String, usize>::new();
    for trace in SAMPLES.take() {
        // Frames print as "  12: path::to::function", then "at file:line".
        let trace = trace.to_string();
        let frames = trace
            .lines()
            .filter_map(|l| l.trim_start().split_once(": "));
        let named = frames
            .filter(|(n, _)| n.parse::<u32>().is_ok())
            .map(|(_, f)| f);
        let ours = named.filter(|f| {
            // `<T as alloc::..>::f` is theirs, `<our::Type as core::..>::f` ours.
            let f = f.trim_start_matches('<');
            let (ty, of) = f.split_once(" as ").unwrap_or((f, f));
            let path = if ty.contains("::") { ty } else { of };
            let theirs = [
                "std::",
                "core::",
                "alloc::",
                "hashbrown::",
                "__rust",
                "rust_",
            ];
            !f.contains("counting_alloc") && !theirs.iter().any(|p| path.starts_with(p))
        });
        *sites
            .entry(ours.take(2).collect::<Vec<_>>().join(" <- "))
            .or_default() += 1;
    }
    let mut sites: Vec<(usize, String)> = sites.into_iter().map(|(s, n)| (n, s)).collect();
    sites.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    sites.truncate(10);
    sites
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller guarantees a valid non-zero-size `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow may move and copy the block: one allocation of the new size.
        count(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;
