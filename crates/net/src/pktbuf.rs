//! `PktBuf` — a reference-counted view onto packet bytes.
//!
//! The NEaT fast path (§3.4) never copies payload between pipeline stages:
//! NIC → driver → IP → TCP → socket hand over *ownership* of a buffer, not
//! its bytes. This module gives the simulated pipeline the same shape: a
//! frame is granted once ([`PktBuf::from_vec`] takes the producer's bytes,
//! no copy), every later hop clones a cheap handle or takes a zero-copy
//! `slice` view (header stripping), and the allocator gets the bytes back
//! when the last handle drops. Nothing is recycled: there is no buffer
//! pool behind this, only views.
//!
//! Per-thread counters keep grant/return accounting so teardown can assert
//! that no buffer leaked ([`assert_quiescent`]), and count every view that
//! would have been a deep copy on the old `Vec<u8>` path (`copies_avoided`
//! — one of the headline bench metrics). [`set_pooling`] is the cost-model
//! switch of the ablation axis: handles behave the same either way, only
//! the simulated per-hop copy charge changes.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Aggregate counters (one set per thread; the sim is single-threaded,
/// so in practice this is global to a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers granted over the thread's lifetime.
    pub grants: u64,
    /// Always 0: no grant recycles storage. Kept because the `pktbuf.reused`
    /// gauge is part of every committed `BENCH_*.json`.
    pub reused: u64,
    /// Backing buffers currently held by live handles.
    pub outstanding: u64,
    /// Zero-copy views that replaced a deep copy.
    pub copies_avoided: u64,
}

struct State {
    stats: PoolStats,
    pooling: bool,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        stats: PoolStats::default(),
        pooling: true,
    });
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    STATE.with(|p| f(&mut p.borrow_mut()))
}

/// The backing storage. Its `Drop` settles the grant accounting — it runs
/// exactly once, when the last [`PktBuf`] handle goes away.
struct PktStorage {
    data: Vec<u8>,
}

impl Drop for PktStorage {
    fn drop(&mut self) {
        with_state(|p| p.stats.outstanding = p.stats.outstanding.saturating_sub(1));
    }
}

/// A cheap handle onto an immutable packet buffer, with an
/// `(offset, len)` window for zero-copy header stripping. `Clone` is a
/// refcount bump; `Deref` yields the windowed bytes.
#[derive(Clone)]
pub struct PktBuf {
    storage: Rc<PktStorage>,
    off: usize,
    len: usize,
}

impl PktBuf {
    /// Grant a buffer by taking ownership of existing bytes (no copy).
    pub fn from_vec(data: Vec<u8>) -> PktBuf {
        let len = data.len();
        with_state(|p| {
            p.stats.grants += 1;
            p.stats.outstanding += 1;
        });
        PktBuf {
            storage: Rc::new(PktStorage { data }),
            off: 0,
            len,
        }
    }

    /// A zero-copy sub-view (`off`/`len` relative to this view). This is
    /// the header-strip operation: IP hands TCP the L4 bytes without
    /// touching the frame.
    pub fn slice(&self, off: usize, len: usize) -> PktBuf {
        assert!(off + len <= self.len, "slice out of bounds");
        with_state(|p| p.stats.copies_avoided += 1);
        PktBuf {
            storage: Rc::clone(&self.storage),
            off: self.off + off,
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live handles on this storage (diagnostics/tests).
    pub fn refcount(&self) -> usize {
        Rc::strong_count(&self.storage)
    }

    /// Explicit deep copy, for the rare consumer that needs owned bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for PktBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.storage.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for PktBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PktBuf(len={}, off={}, rc={})",
            self.len,
            self.off,
            Rc::strong_count(&self.storage)
        )
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &PktBuf) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for PktBuf {}

impl From<Vec<u8>> for PktBuf {
    fn from(v: Vec<u8>) -> PktBuf {
        PktBuf::from_vec(v)
    }
}

/// Current counters.
pub fn stats() -> PoolStats {
    with_state(|p| p.stats)
}

/// The cost-model flag of the `pool` ablation axis (see [`set_pooling`]).
/// Simulation components consult it to charge the per-hop deep copy that
/// handing views around avoids.
pub fn pooling() -> bool {
    with_state(|p| p.pooling)
}

/// Switch the cost model only: with `false`, the `copy_cost` call sites
/// charge a deep copy per hop, as a stack without shared buffers would
/// pay. Handles, views and counters behave the same either way.
pub fn set_pooling(on: bool) {
    with_state(|p| p.pooling = on);
}

/// Forget the counters (test/bench isolation); the model flag stays.
/// Live handles are unaffected.
pub fn reset() {
    with_state(|p| p.stats = PoolStats::default());
}

/// Teardown invariant: every granted buffer has been returned. Call after
/// a run has quiesced; a failure means a frame handle leaked somewhere in
/// the pipeline.
pub fn assert_quiescent() {
    let s = stats();
    assert_eq!(
        s.outstanding, 0,
        "PktBuf accounting not quiescent: {} buffer(s) still outstanding (granted {}, reused {})",
        s.outstanding, s.grants, s.reused
    );
}

/// Publish the counters into the `neat-obs` registry (cold path; called
/// at measurement-window boundaries).
pub fn export_obs() {
    let s = stats();
    neat_obs::gauge_set("pktbuf.grants", s.grants as f64);
    neat_obs::gauge_set("pktbuf.reused", s.reused as f64);
    neat_obs::gauge_set("pktbuf.copies_avoided", s.copies_avoided as f64);
    neat_obs::gauge_set("pktbuf.outstanding", s.outstanding as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_slice_and_return() {
        reset();
        let frame = PktBuf::from_vec((0..100u8).collect());
        assert_eq!(stats().outstanding, 1);
        let l4 = frame.slice(34, 66);
        assert_eq!(&l4[..4], &[34, 35, 36, 37]);
        assert_eq!(frame.refcount(), 2);
        assert_eq!(stats().copies_avoided, 1);
        drop(frame);
        assert_eq!(stats().outstanding, 1, "view keeps storage alive");
        drop(l4);
        assert_quiescent();
    }
}
