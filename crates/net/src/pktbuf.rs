//! `PktBuf` — a reference-counted view onto packet bytes.
//!
//! The NEaT fast path (§3.4) never copies payload between pipeline stages:
//! NIC → driver → IP → TCP → socket hand over *ownership* of a buffer, not
//! its bytes. This module gives the simulated pipeline the same shape: a
//! frame is granted once, every later hop clones a cheap handle or takes a
//! zero-copy `slice` view (header stripping), and the allocator gets the
//! bytes back when the last handle drops. Nothing is recycled: there is no
//! buffer pool behind this, only views.
//!
//! A grant is one heap block: an `Rc<[u8]>` of the frame's exact length,
//! whose refcounts sit in front of the bytes. [`PktBuf::build`] allocates
//! it zeroed and lets the producer write the frame into it through
//! `Rc::get_mut` — the only handle exists, so the write needs no `unsafe`
//! and the bytes are never copied. [`PktBuf::from_vec`] is the adaptor for
//! bytes that already exist elsewhere: it copies them into a fresh block.
//! A block may be longer than its frame: [`PktBuf::build_with_room`]
//! leaves room past the window, and [`PktBuf::widen_mut`] lets the only
//! handle grow into it. The TSO cut spreads a super-segment in place that
//! way, its wire frames back to back in the frame's own block, and hands
//! each out as a [`PktBuf::window`]; the block returns when the last of
//! them drops.
//!
//! Per-thread counters keep grant/return accounting so teardown can assert
//! that no buffer leaked ([`assert_quiescent`]), and count every view that
//! would have been a deep copy on the old `Vec<u8>` path (`copies_avoided`
//! — one of the headline bench metrics). [`set_pooling`] is the cost-model
//! switch of the ablation axis: handles behave the same either way, only
//! the simulated per-hop copy charge changes.

use std::cell::RefCell;
use std::fmt;
use std::iter;
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

/// A cheap handle onto an immutable packet buffer, with an
/// `(offset, len)` window for zero-copy header stripping. `Clone` is a
/// refcount bump; `Deref` yields the windowed bytes. 24 bytes: the slice
/// pointer and a `u32` window (a frame is far below 4 GiB).
#[derive(Clone)]
pub struct PktBuf {
    storage: Rc<[u8]>,
    off: u32,
    len: u32,
}

impl PktBuf {
    /// Grant a `len`-byte buffer and let `fill` write it in place. One
    /// allocation: `repeat_n` has an exact length, so the `Rc<[u8]>` is
    /// sized once, and the fresh `Rc` is the only handle `get_mut` needs.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> PktBuf {
        Self::build_with_room(len, 0, fill)
    }

    /// [`build`](Self::build) into a block `room` bytes longer than the
    /// frame: the window is the first `len` bytes, and the room past it
    /// stays zeroed for [`widen_mut`](Self::widen_mut).
    pub fn build_with_room(len: usize, room: usize, fill: impl FnOnce(&mut [u8])) -> PktBuf {
        let mut storage: Rc<[u8]> = iter::repeat_n(0, len + room).collect();
        if let Some(bytes) = Rc::get_mut(&mut storage) {
            fill(&mut bytes[..len]);
        }
        Self::grant(storage, len)
    }

    /// Grant a buffer holding a copy of `data` (tests and cold paths; the
    /// frame paths [`build`](Self::build) in place).
    pub fn from_vec(data: Vec<u8>) -> PktBuf {
        let len = data.len();
        Self::grant(Rc::from(data), len)
    }

    /// Count a fresh block and hand out its first `len` bytes.
    fn grant(storage: Rc<[u8]>, len: usize) -> PktBuf {
        assert!(storage.len() <= u32::MAX as usize, "a frame is under 4 GiB");
        with_state(|p| {
            p.stats.grants += 1;
            p.stats.outstanding += 1;
        });
        PktBuf {
            len: len as u32,
            storage,
            off: 0,
        }
    }

    /// A zero-copy sub-view (`off`/`len` relative to this view). This is
    /// the header-strip operation: IP hands TCP the L4 bytes without
    /// touching the frame.
    pub fn slice(&self, off: usize, len: usize) -> PktBuf {
        with_state(|p| p.stats.copies_avoided += 1);
        self.window(off, len)
    }

    /// A sub-view that avoids no copy: one of the frames a producer wrote
    /// back to back into one grant (a TSO cut's wire segments), handed out
    /// as they were built. [`slice`](Self::slice) without the count.
    pub fn window(&self, off: usize, len: usize) -> PktBuf {
        assert!(off + len <= self.len(), "slice out of bounds");
        PktBuf {
            storage: Rc::clone(&self.storage),
            off: self.off + off as u32,
            len: len as u32,
        }
    }

    /// The window's bytes, writable while this is the storage's only
    /// handle (a frame not yet handed on); `None` once it is shared.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        let window = self.off as usize..(self.off + self.len) as usize;
        Rc::get_mut(&mut self.storage).map(|b| &mut b[window])
    }

    /// Widen the window by `extra` bytes into the room past it and return
    /// the widened bytes, writable: the in-place counterpart of copying
    /// the frame into a longer block. `None`, the window unchanged, while
    /// the storage is shared or holds fewer than `extra` bytes past it.
    pub fn widen_mut(&mut self, extra: usize) -> Option<&mut [u8]> {
        let (off, end) = (self.off as usize, (self.off + self.len) as usize + extra);
        if end > self.storage.len() {
            return None;
        }
        let bytes = Rc::get_mut(&mut self.storage)?;
        self.len += extra as u32;
        Some(&mut bytes[off..end])
    }

    pub fn len(&self) -> usize {
        self.len as usize
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

/// The last handle of a storage returns its grant.
impl Drop for PktBuf {
    fn drop(&mut self) {
        if Rc::strong_count(&self.storage) == 1 {
            with_state(|p| p.stats.outstanding = p.stats.outstanding.saturating_sub(1));
        }
    }
}

impl Deref for PktBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.storage[self.off as usize..(self.off + self.len) as usize]
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
        let tail = l4.window(60, 6);
        assert_eq!(&tail[..], &[94, 95, 96, 97, 98, 99]);
        assert_eq!(stats().copies_avoided, 1, "a window avoids no copy");
        drop(frame);
        drop(l4);
        assert_eq!(stats().outstanding, 1, "a view keeps its storage alive");
        drop(tail);
        assert_quiescent();
    }

    /// `PktBuf` rides in `Msg` and in every queued frame: it may not grow
    /// past the 24 bytes of the `Vec`-era handle it replaced.
    #[test]
    fn size_is_pinned() {
        assert_eq!(std::mem::size_of::<PktBuf>(), 24);
    }

    #[test]
    fn build_writes_in_place_and_get_mut_needs_the_only_handle() {
        reset();
        let mut f = PktBuf::build(6, |b| b.copy_from_slice(b"abcdef"));
        assert_eq!(&f[..], b"abcdef");
        assert_eq!(stats().grants, 1);
        let mut l4 = f.slice(2, 3);
        assert!(f.get_mut().is_none() && l4.get_mut().is_none(), "shared");
        drop(f);
        l4.get_mut().unwrap().copy_from_slice(b"XYZ");
        assert_eq!(&l4[..], b"XYZ");
        drop(l4);
        assert_quiescent();
    }

    #[test]
    fn widen_mut_grows_the_only_handle_into_its_room() {
        reset();
        let mut f = PktBuf::build_with_room(3, 4, |b| b.copy_from_slice(b"abc"));
        assert_eq!((&f[..], stats().grants), (&b"abc"[..], 1));
        assert!(f.widen_mut(5).is_none(), "past the room");
        let c = f.clone();
        assert!(f.widen_mut(1).is_none(), "shared");
        drop(c);
        let w = f.widen_mut(4).unwrap();
        assert_eq!(w, b"abc\0\0\0\0", "the room is zeroed");
        w[3..].copy_from_slice(b"defg");
        assert_eq!(&f[..], b"abcdefg");
        assert!(f.widen_mut(1).is_none(), "the room is used up");
        assert_eq!(stats().grants, 1, "widening grants nothing");
        let mut tail = f.window(5, 2);
        drop(f);
        assert_eq!(
            tail.widen_mut(0).unwrap(),
            b"fg",
            "a window ends where it ends"
        );
        drop(tail);
        assert_quiescent();
    }

    /// Random build / clone / slice / drop sequences: after every step one
    /// grant is outstanding per storage some live handle still holds, and
    /// every build counted one grant; dropping what is left quiesces.
    #[test]
    fn grants_follow_the_storages_handles_hold() {
        use neat_util::check::{check, vec_of, Config};
        use neat_util::prop_assert_eq;
        check(
            "grants_follow_the_storages_handles_hold",
            Config::default().cases(256),
            |rng| {
                vec_of(rng, 0..40, |r| {
                    (r.gen_range(0u8..4), r.gen::<u16>(), r.gen::<u16>())
                })
            },
            |ops| {
                reset();
                // Each live handle beside the build it came from and the
                // bytes its window must show.
                let mut live: Vec<(PktBuf, usize, Vec<u8>)> = Vec::new();
                let mut builds = 0u64;
                for (op, a, b) in ops {
                    let (a, b) = (a as usize, b as usize);
                    match op {
                        0 => {
                            let bytes: Vec<u8> =
                                (0..a % 48).map(|i| (i + builds as usize) as u8).collect();
                            let f = if b % 2 == 0 {
                                PktBuf::build(bytes.len(), |w| w.copy_from_slice(&bytes))
                            } else {
                                PktBuf::from_vec(bytes.clone())
                            };
                            live.push((f, builds as usize, bytes));
                            builds += 1;
                        }
                        _ if live.is_empty() => {}
                        1 => {
                            let (f, id, bytes) = &live[a % live.len()];
                            let c = (f.clone(), *id, bytes.clone());
                            live.push(c);
                        }
                        2 => {
                            let (f, id, bytes) = &live[a % live.len()];
                            let off = b % (f.len() + 1);
                            let len = (a / 7) % (f.len() - off + 1);
                            let v = (f.slice(off, len), *id, bytes[off..off + len].to_vec());
                            live.push(v);
                        }
                        _ => drop(live.swap_remove(a % live.len())),
                    }
                    let mut ids: Vec<usize> = live.iter().map(|(_, id, _)| *id).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    prop_assert_eq!(stats().outstanding, ids.len() as u64);
                    prop_assert_eq!(stats().grants, builds);
                    for (f, _, bytes) in &live {
                        prop_assert_eq!(&f[..], &bytes[..]);
                    }
                }
                drop(live);
                assert_quiescent();
                Ok(())
            },
        );
    }
}
