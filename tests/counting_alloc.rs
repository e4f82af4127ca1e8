//! A global allocator that counts what the *calling thread* allocates, for
//! the allocation ratchets (`byte_path.rs`, `dispatch_path.rs`): each
//! includes this file with `#[path]`. It holds the test tree's one
//! `unsafe impl`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (allocations, bytes allocated) by this thread. `const`-initialised
    /// `Cell`s: reading or writing them never allocates.
    pub static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct PerThread;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees memory.
    let _ = COUNTS.try_with(|c| c.set((c.get().0 + 1, c.get().1 + bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees a valid non-zero-size `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow may move and copy the block: one allocation of the new size.
        count(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;
