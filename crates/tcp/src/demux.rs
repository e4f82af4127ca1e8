//! Hashed TCB demultiplexing table: 4-tuple -> socket in O(1).
//!
//! Every inbound segment resolves its connection here, so this is the
//! single hottest lookup in the stack. The table is a flat
//! open-addressing hash table (linear probing, backward-shift deletion,
//! power-of-two capacity) keyed on the flow 4-tuple:
//!
//! * **One cache line per hit.** Entries are stored inline
//!   (`(FlowKey, SocketId)` is 24 bytes); a lookup is one mix, one
//!   masked index and a short linear scan — no per-node allocation, no
//!   SipHash, no bucket pointer chase.
//! * **Tombstone-free deletion.** Removal back-shifts the displaced run,
//!   so long-lived stacks with heavy connection churn (the lazy
//!   termination GC of §3.4) never degrade into tombstone crawls.
//! * **Keyed mix.** The hash folds a per-table key (derived from the
//!   deterministic seed path) into an FxHash-style mix, so remote peers
//!   cannot aim collision floods at a known function — the same reason
//!   the security bench randomizes layout (§3.8).
//! * **Deterministic.** For a fixed insertion/removal history the table
//!   layout is identical on every run; nothing here reads OS entropy.
//!
//! Growth doubles the array at 7/8 occupancy; with the default initial
//! capacity a million-connection table settles at 2^21 slots (~48 MiB)
//! after a handful of rehashes.

use crate::types::SocketId;
use neat_net::FlowKey;

/// Flat open-addressing flow table.
#[derive(Debug)]
pub struct DemuxTable {
    slots: Vec<Option<(FlowKey, SocketId)>>,
    mask: usize,
    len: usize,
    key: u64,
}

const INITIAL_SLOTS: usize = 64;

impl DemuxTable {
    /// An empty table. `key` perturbs the hash (pass a fixed value for
    /// reproducible layouts, a secret for flood resistance).
    pub fn new(key: u64) -> DemuxTable {
        DemuxTable {
            slots: vec![None; INITIAL_SLOTS],
            mask: INITIAL_SLOTS - 1,
            len: 0,
            key,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn hash(&self, k: &FlowKey) -> u64 {
        // Two rounds of the FxHash mix over the packed tuple, keyed.
        const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let a = (u32::from(k.src) as u64) << 32 | u32::from(k.dst) as u64;
        let b = (k.src_port as u64) << 32 | (k.dst_port as u64) << 16 | k.protocol as u64;
        let mut h = self.key;
        h = (h.rotate_left(5) ^ a).wrapping_mul(M);
        h = (h.rotate_left(5) ^ b).wrapping_mul(M);
        // Finalizer so low bits depend on every input bit (the index is
        // taken from the low bits).
        h ^= h >> 32;
        h.wrapping_mul(M)
    }

    #[inline]
    fn ideal(&self, k: &FlowKey) -> usize {
        (self.hash(k) as usize) & self.mask
    }

    /// Probe distance of the entry at `idx` whose ideal slot is `ideal`.
    #[inline]
    fn distance(&self, ideal: usize, idx: usize) -> usize {
        idx.wrapping_sub(ideal) & self.mask
    }

    /// O(1) expected lookup.
    #[inline]
    pub fn get(&self, k: &FlowKey) -> Option<SocketId> {
        let mut i = self.ideal(k);
        let mut dist = 0;
        loop {
            match self.slots[i] {
                None => return None,
                Some((fk, id)) => {
                    if fk == *k {
                        return Some(id);
                    }
                    // Robin-Hood invariant: once we've probed further
                    // than the resident's own distance, the key is absent.
                    if self.distance(self.ideal(&fk), i) < dist {
                        return None;
                    }
                }
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
    }

    pub fn contains_key(&self, k: &FlowKey) -> bool {
        self.get(k).is_some()
    }

    /// Insert or replace; returns the previous id for `k`, if any.
    pub fn insert(&mut self, k: FlowKey, id: SocketId) -> Option<SocketId> {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = self.ideal(&k);
        let mut entry = (k, id);
        let mut dist = 0;
        let mut displacing = false;
        loop {
            match self.slots[i] {
                None => {
                    self.slots[i] = Some(entry);
                    self.len += 1;
                    return None;
                }
                Some((fk, old)) => {
                    if !displacing && fk == entry.0 {
                        self.slots[i] = Some((fk, entry.1));
                        return Some(old);
                    }
                    // Robin Hood: displace richer residents so probe
                    // lengths stay short and bounded.
                    let res_dist = self.distance(self.ideal(&fk), i);
                    if res_dist < dist {
                        self.slots[i] = Some(entry);
                        entry = (fk, old);
                        dist = res_dist;
                        // From here on we carry a displaced resident;
                        // equality hits would be against itself.
                        displacing = true;
                    }
                }
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
    }

    /// Remove `k`, back-shifting the displaced run (no tombstones).
    pub fn remove(&mut self, k: &FlowKey) -> Option<SocketId> {
        let mut i = self.ideal(k);
        let mut dist = 0;
        let removed = loop {
            match self.slots[i] {
                None => return None,
                Some((fk, id)) => {
                    if fk == *k {
                        break id;
                    }
                    if self.distance(self.ideal(&fk), i) < dist {
                        return None;
                    }
                }
            }
            i = (i + 1) & self.mask;
            dist += 1;
        };
        // Back-shift: pull each follower one slot left until a hole or an
        // entry already at its ideal slot.
        let mut hole = i;
        loop {
            let next = (hole + 1) & self.mask;
            match self.slots[next] {
                None => break,
                Some((fk, _)) => {
                    if self.distance(self.ideal(&fk), next) == 0 {
                        break;
                    }
                }
            }
            self.slots[hole] = self.slots[next].take();
            hole = next;
        }
        self.slots[hole] = None;
        self.len -= 1;
        Some(removed)
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for e in old.into_iter().flatten() {
            self.insert(e.0, e.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(a: u8, p: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, a),
            p,
            Ipv4Addr::new(10, 0, 0, 200),
            80,
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut t = DemuxTable::new(42);
        assert!(t.insert(key(1, 1000), SocketId(7)).is_none());
        assert_eq!(t.get(&key(1, 1000)), Some(SocketId(7)));
        assert_eq!(t.get(&key(1, 1001)), None);
        assert_eq!(t.insert(key(1, 1000), SocketId(9)), Some(SocketId(7)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&key(1, 1000)), Some(SocketId(9)));
        assert_eq!(t.remove(&key(1, 1000)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn grows_past_load_factor() {
        let mut t = DemuxTable::new(1);
        for p in 0..10_000u16 {
            t.insert(key((p % 251) as u8, p), SocketId(p as u64));
        }
        assert_eq!(t.len(), 10_000);
        for p in 0..10_000u16 {
            assert_eq!(t.get(&key((p % 251) as u8, p)), Some(SocketId(p as u64)));
        }
    }

    #[test]
    fn churn_does_not_degrade() {
        // Insert/remove cycles leave no tombstones: the table keeps
        // resolving correctly through heavy churn.
        let mut t = DemuxTable::new(3);
        for round in 0..50u16 {
            for p in 0..500u16 {
                t.insert(key(1, p), SocketId((round as u64) << 16 | p as u64));
            }
            for p in (0..500u16).step_by(2) {
                assert!(t.remove(&key(1, p)).is_some());
            }
            for p in (1..500u16).step_by(2) {
                assert_eq!(
                    t.get(&key(1, p)),
                    Some(SocketId((round as u64) << 16 | p as u64))
                );
            }
            for p in (1..500u16).step_by(2) {
                t.remove(&key(1, p));
            }
            assert!(t.is_empty(), "round {round}");
        }
    }
}
