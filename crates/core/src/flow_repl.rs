//! Buddy-replica flow replication (the transparent-recovery extension to
//! §3.6, plus the transfer path live flow migration rides on).
//!
//! Every stack replica owns a [`FlowRepl`]. It plays two roles at once:
//!
//! * **primary** — after each flush it collects a replication delta for
//!   its own flows and ships it to its buddy ([`Msg::ReplDelta`]);
//! * **buddy** — it stores the deltas other replicas send *it*, and on a
//!   supervisor handoff ([`Msg::ReplHandoff`]) surrenders its copy of the
//!   dead replica's flows so the respawned replica can adopt them.
//!
//! The mechanism is checkpoint streaming: the checkpoint bytes of every
//! flow touched since the last flush. A delta is one byte buffer, a
//! [`ReplPayload`], little-endian throughout:
//!
//! ```text
//! delta  = full: u8 (0 or 1) · record count: u32 · records · closed keys
//! record = key · old_sock: u64 · owner: u64 · app_bytes: u64
//!          · image length: u32 · image
//! key    = src ip · dst ip · src port: u16 · dst port: u16 · protocol: u8
//! ```
//!
//! The closed flows' keys run to the end of the buffer. The primary builds
//! each delta in one [`DeltaWriter`] it keeps across flushes: the stack
//! visits the touched flows and [`neat_tcp::TcpSocket::checkpoint_into`]
//! writes each image in place behind its record's header. What ships is an
//! exact-size copy, so a delta costs one allocation however many flows it
//! carries; after a full delta or a handoff, which carry every flow, the
//! writer frees its storage. The buddy keeps the latest record per flow and
//! overwrites a stored image in place, so only a flow it has not held yet
//! allocates, or one whose image needs less than half its buffer: that
//! buffer shrinks to the image, so an idle flow does not keep the room its
//! largest image took. A handoff or a migration is the same format — a full delta with no closed
//! keys, its records in ascending `old_sock` — so [`DeltaWriter::put_flow`]
//! and [`ReplPayload::decode`] are a record's one encoder and one decoder.
//! A payload whose framing does not decode is dropped whole and counted in
//! `repl.decode_errors`; an image that does not decode is refused when it
//! is restored.
//!
//! The output-commit argument for why a delta-per-flush is enough: crashes
//! are delivered as messages ([`Msg::Poison`]), so a flush — input
//! processing, event pump, wire-output collection, delta emission — is
//! atomic with respect to failure. Every client-visible output therefore
//! has a covering delta enqueued on the (reliable, ordered) message
//! fabric, and the buddy's copy is never behind anything the peer or the
//! application has observed.

use crate::config::NeatConfig;
use crate::msg::Msg;
use crate::sock_server::SockServer;
use neat_net::FlowKey;
use neat_sim::ProcId;
use neat_tcp::SocketId;
use neat_util::bytes::Reader;
use neat_util::FxHashMap;
use std::net::Ipv4Addr;

/// A payload's header: the `full` flag and the record count.
const HEAD: usize = 5;
/// A flow key's bytes.
const KEY: usize = 13;

/// One replication delta, or the flows of one handoff or migration, in the
/// layout of the module doc. A delta's records supersede the buddy's
/// copies and its closed flows are forgotten; `full` marks a from-scratch
/// snapshot (the buddy drops everything it held for this primary first).
#[derive(Debug, Clone)]
pub struct ReplPayload(Box<[u8]>);

/// One flow record, borrowed from the payload it was decoded from:
/// everything the adopting stack needs to resume the connection and
/// re-wire its app binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplFlow<'a> {
    /// The 4-tuple (remote side as src — the demux/steering orientation).
    pub flow: FlowKey,
    /// Socket id the flow had in its previous owner (the app's dead
    /// handle is `ConnHandle { stack: old, sock: old_sock }`).
    pub old_sock: SocketId,
    /// The application process bound to the connection.
    pub owner: ProcId,
    /// Application stream bytes the checkpointed state had accepted from
    /// the app (drives the library's resend-tail on migration).
    pub app_bytes: u64,
    /// The flow's checkpoint ([`neat_tcp::TcpSocket::checkpoint_into`]).
    pub img: &'a [u8],
}

/// A payload whose framing decoded end to end.
#[derive(Debug, Clone, Copy)]
pub struct Delta<'a> {
    /// A from-scratch snapshot: the buddy drops what it held first.
    pub full: bool,
    records: usize,
    flows: &'a [u8],
    closed: &'a [u8],
}

impl ReplPayload {
    /// The flow records it carries (what adopting the flows is charged
    /// for); 0 if it does not decode.
    pub fn len(&self) -> usize {
        self.decode().map_or(0, |d| d.records)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload's bytes as they travel.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Check the framing — the flag, every record's fields and image
    /// length, whole closed keys to the end — and return the parts; `None`
    /// for bytes a [`DeltaWriter`] cannot have written.
    pub fn decode(&self) -> Option<Delta<'_>> {
        let mut r = Reader(&self.0);
        let full = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let records = r.u32()?;
        let start = r.0;
        for _ in 0..records {
            read_flow(&mut r)?;
        }
        let (flows, closed) = start.split_at(start.len() - r.0.len());
        closed.len().is_multiple_of(KEY).then_some(Delta {
            full,
            records: records as usize,
            flows,
            closed,
        })
    }
}

impl<'a> Delta<'a> {
    /// The flow records, in the order they were written.
    pub fn flows(&self) -> impl Iterator<Item = ReplFlow<'a>> + 'a {
        let mut r = Reader(self.flows);
        std::iter::from_fn(move || read_flow(&mut r))
    }

    /// The flows that closed, after every record.
    pub fn closed(&self) -> impl Iterator<Item = FlowKey> + 'a {
        let mut r = Reader(self.closed);
        std::iter::from_fn(move || read_key(&mut r))
    }
}

/// Builds payloads in one buffer that keeps its storage from one payload
/// to the next: [`DeltaWriter::start`], the flow records, then the closed
/// keys, then [`DeltaWriter::payload`].
#[derive(Debug, Default)]
pub struct DeltaWriter {
    buf: Vec<u8>,
    records: u32,
}

impl DeltaWriter {
    /// Begin a payload (a full one re-baselines the buddy).
    pub fn start(&mut self, full: bool) {
        self.buf.clear();
        self.buf.push(full as u8);
        self.buf.extend([0; 4]);
        self.records = 0;
    }

    /// Append one flow record; `img` appends the flow's image to the
    /// buffer it is given, and its length is filled in behind it.
    pub fn put_flow(
        &mut self,
        flow: FlowKey,
        old_sock: SocketId,
        owner: ProcId,
        app_bytes: u64,
        img: impl FnOnce(&mut Vec<u8>),
    ) {
        let w = &mut self.buf;
        put_key(w, flow);
        w.extend(old_sock.0.to_le_bytes());
        w.extend(owner.0.to_le_bytes());
        w.extend(app_bytes.to_le_bytes());
        let at = w.len();
        w.extend([0; 4]);
        img(w);
        let len = (w.len() - at - 4) as u32;
        w[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.records += 1;
    }

    /// Append a closed flow's key (after every record).
    pub fn put_closed(&mut self, key: FlowKey) {
        put_key(&mut self.buf, key);
    }

    /// Nothing was put since [`DeltaWriter::start`].
    pub fn is_empty(&self) -> bool {
        self.buf.len() == HEAD
    }

    /// The payload written since [`DeltaWriter::start`], copied out at its
    /// exact size.
    pub fn payload(&mut self) -> ReplPayload {
        self.buf[1..HEAD].copy_from_slice(&self.records.to_le_bytes());
        ReplPayload(self.buf.as_slice().into())
    }

    /// Free the buffer's storage: after a full payload, which carries
    /// every flow, so the next delta does not keep its size.
    pub fn release(&mut self) {
        self.buf = Vec::new();
    }
}

fn put_key(w: &mut Vec<u8>, k: FlowKey) {
    w.extend(k.src.octets());
    w.extend(k.dst.octets());
    w.extend(k.src_port.to_le_bytes());
    w.extend(k.dst_port.to_le_bytes());
    w.push(k.protocol);
}

fn read_key(r: &mut Reader<'_>) -> Option<FlowKey> {
    Some(FlowKey {
        src: Ipv4Addr::from(r.arr()?),
        dst: Ipv4Addr::from(r.arr()?),
        src_port: r.u16()?,
        dst_port: r.u16()?,
        protocol: r.u8()?,
    })
}

fn read_flow<'a>(r: &mut Reader<'a>) -> Option<ReplFlow<'a>> {
    Some(ReplFlow {
        flow: read_key(r)?,
        old_sock: SocketId(r.u64()?),
        owner: ProcId(r.u64()?),
        app_bytes: r.u64()?,
        img: {
            let len = r.u32()? as usize;
            r.take(len)?
        },
    })
}

/// The buddy's copy of one flow: the latest record's fields, its image in
/// a buffer each later record overwrites in place (shrunk first if the new
/// image needs less than half of it).
#[derive(Debug)]
struct Held {
    old_sock: SocketId,
    owner: ProcId,
    app_bytes: u64,
    img: Vec<u8>,
}

/// Per-replica replication engine (both the primary and the buddy half).
#[derive(Debug)]
pub struct FlowRepl {
    enabled: bool,
    /// Who we stream our deltas to.
    buddy: Option<ProcId>,
    /// Next delta must re-baseline the buddy (fresh assignment).
    need_full: bool,
    /// Where every delta and handoff is built; freed after a full one.
    out: DeltaWriter,
    /// Latest record per flow, held on behalf of other replicas and keyed
    /// by their pid. Only probed; its one iteration,
    /// [`FlowRepl::take_flows_for`], sorts by `old_sock`.
    store: FxHashMap<ProcId, FxHashMap<FlowKey, Held>>,
    /// `repl.deltas_sent`/`_applied`, bumped per delta, and
    /// `repl.delta_bytes`, by each delta's length: cached, but at first
    /// use — the snapshot lists only registered metrics, in that order.
    sent: Option<neat_obs::Counter>,
    sent_bytes: Option<neat_obs::Counter>,
    applied: Option<neat_obs::Counter>,
}

impl FlowRepl {
    pub fn new(cfg: &NeatConfig) -> FlowRepl {
        FlowRepl {
            enabled: cfg.replication,
            buddy: None,
            need_full: false,
            out: DeltaWriter::default(),
            store: FxHashMap::default(),
            sent: None,
            sent_bytes: None,
            applied: None,
        }
    }

    /// Supervisor (re)assigned our buddy. The next delta re-baselines it.
    /// Also turns checkpoint-delta tracking on in our own stack.
    pub fn set_buddy(&mut self, srv: &mut SockServer, buddy: Option<ProcId>) {
        if !self.enabled {
            return;
        }
        self.buddy = buddy;
        self.need_full = buddy.is_some();
        srv.set_repl_tracking(buddy.is_some());
    }

    /// End-of-flush: build the delta message owed to the buddy, if any.
    /// Returns `(buddy, msg)` ready to send. (`_now` is unused; the frozen
    /// `benchmark/` crate calls this with three arguments.)
    pub fn collect_delta(
        &mut self,
        srv: &mut SockServer,
        queue: usize,
        _now: u64,
    ) -> Option<(ProcId, Msg)> {
        let buddy = self.buddy?;
        if !self.enabled {
            return None;
        }
        let full = std::mem::take(&mut self.need_full);
        self.out.start(full);
        srv.checkpoint(full, &mut self.out);
        if !full && self.out.is_empty() {
            return None;
        }
        let payload = self.out.payload();
        if full {
            self.out.release();
        }
        let register = || neat_obs::counter("repl.deltas_sent");
        self.sent.get_or_insert_with(register).inc();
        let register = || neat_obs::counter("repl.delta_bytes");
        let bytes = payload.as_bytes().len() as u64;
        self.sent_bytes.get_or_insert_with(register).add(bytes);
        Some((buddy, Msg::ReplDelta { queue, payload }))
    }

    /// Buddy half: fold one incoming delta from `from` into its store.
    pub fn apply_delta(&mut self, from: ProcId, payload: ReplPayload) {
        let Some(delta) = payload.decode() else {
            return neat_obs::counter_add("repl.decode_errors", 1);
        };
        let register = || neat_obs::counter("repl.deltas_applied");
        self.applied.get_or_insert_with(register).inc();
        let map = self.store.entry(from).or_default();
        if delta.full {
            map.clear();
        }
        for f in delta.flows() {
            let held = map.entry(f.flow).or_insert_with(|| Held {
                old_sock: f.old_sock,
                owner: f.owner,
                app_bytes: f.app_bytes,
                img: Vec::new(),
            });
            held.old_sock = f.old_sock;
            held.owner = f.owner;
            held.app_bytes = f.app_bytes;
            held.img.clear();
            if held.img.capacity() > 2 * f.img.len() {
                held.img.shrink_to(f.img.len());
            }
            held.img.extend_from_slice(f.img);
        }
        for k in delta.closed() {
            map.remove(&k);
        }
    }

    /// Buddy half: surrender the flows held for `owner` (supervisor
    /// handoff, or cleanup) as a full payload. Deterministically ordered
    /// by the flow's socket id in its previous owner.
    pub fn take_flows_for(&mut self, owner: ProcId) -> ReplPayload {
        let mut flows: Vec<(FlowKey, Held)> = self
            .store
            .remove(&owner)
            .map(|map| map.into_iter().collect())
            .unwrap_or_default();
        flows.sort_unstable_by_key(|(_, h)| h.old_sock);
        self.out.start(true);
        for (flow, h) in &flows {
            let img = |w: &mut Vec<u8>| w.extend_from_slice(&h.img);
            self.out
                .put_flow(*flow, h.old_sock, h.owner, h.app_bytes, img);
        }
        let payload = self.out.payload();
        self.out.release();
        payload
    }

    /// Drop the store held for `owner` (it was removed, not crashed).
    pub fn forget(&mut self, owner: ProcId) {
        self.store.remove(&owner);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use neat_util::check::{bytes, check, vec_of, Config};
    use neat_util::{prop_assert, prop_assert_eq};

    /// A full payload that carries no flow.
    pub(crate) fn empty_payload() -> ReplPayload {
        let mut w = DeltaWriter::default();
        w.start(true);
        w.payload()
    }

    fn key(sock: u64) -> FlowKey {
        let client = Ipv4Addr::new(10, 0, (sock >> 8) as u8, sock as u8);
        FlowKey::tcp(client, 40_000, Ipv4Addr::new(10, 0, 0, 1), 80)
    }

    /// A delta of records `(old_sock, owner, app_bytes, image)`, each flow
    /// keyed by its socket, then `closed`.
    fn delta(flows: &[(u64, u64, u64, Vec<u8>)], closed: &[u64]) -> ReplPayload {
        let mut w = DeltaWriter::default();
        w.start(false);
        for (sock, owner, app_bytes, img) in flows {
            let put = |out: &mut Vec<u8>| out.extend_from_slice(img);
            w.put_flow(key(*sock), SocketId(*sock), ProcId(*owner), *app_bytes, put);
        }
        for &sock in closed {
            w.put_closed(key(sock));
        }
        w.payload()
    }

    fn decode_errors() -> u64 {
        neat_obs::counter("repl.decode_errors").get()
    }

    /// The buddy's store is a hash map, but what it hands off (and so the
    /// restore order, and through it the wire) is in ascending `old_sock`
    /// however the deltas arrived.
    #[test]
    fn handoff_is_in_socket_order() {
        let mut repl = FlowRepl::new(&NeatConfig::single(2).replicated());
        let primary = ProcId(3);
        // 1..=96 in a scrambled order (97 is prime), eight flows per delta;
        // a last delta closes every fifth.
        let socks: Vec<u64> = (1..=96).map(|i| i * 37 % 97).collect();
        for chunk in socks.chunks(8) {
            let flows: Vec<_> = chunk.iter().map(|&s| (s, 7, s, vec![s as u8])).collect();
            repl.apply_delta(primary, delta(&flows, &[]));
        }
        let closed: Vec<u64> = (5..=96).step_by(5).collect();
        repl.apply_delta(primary, delta(&[], &closed));
        let handoff = repl.take_flows_for(primary);
        let got: Vec<u64> = (handoff.decode().unwrap().flows())
            .map(|f| f.old_sock.0)
            .collect();
        let want: Vec<u64> = (1..=96).filter(|s| s % 5 != 0).collect();
        assert_eq!(got, want);
        assert_eq!(handoff.len(), want.len());
        assert!(repl.take_flows_for(primary).is_empty(), "a handoff drains");
    }

    /// What the deltas carried comes back from the handoff: for each flow
    /// its last record's socket, owner, app bytes and image, whether that
    /// record overwrote a longer or a shorter image in place, less the
    /// flows a later delta closed.
    #[test]
    fn handoff_returns_the_last_record_of_each_flow() {
        check(
            "handoff_returns_the_last_record_of_each_flow",
            Config::default().cases(128),
            |rng| {
                vec_of(rng, 1..40, |r| {
                    let img = bytes(r, 0..300);
                    (r.gen::<u8>() % 24, r.gen::<u16>(), r.gen::<u64>(), img)
                })
            },
            |records| {
                let mut repl = FlowRepl::new(&NeatConfig::single(2).replicated());
                let primary = ProcId(3);
                let mut want = std::collections::BTreeMap::new();
                // Three records a delta; a flow whose index is a multiple
                // of 5 is closed by the delta that carries it, after it.
                for chunk in records.chunks(3) {
                    let mut flows = Vec::new();
                    let mut closed = Vec::new();
                    for (idx, owner, app_bytes, img) in chunk {
                        let sock = 1 + *idx as u64;
                        flows.push((sock, *owner as u64, *app_bytes, img.clone()));
                        want.insert(sock, (*owner as u64, *app_bytes, img.clone()));
                        if idx % 5 == 0 {
                            closed.push(sock);
                            want.remove(&sock);
                        }
                    }
                    repl.apply_delta(primary, delta(&flows, &closed));
                }
                let handoff = repl.take_flows_for(primary);
                let Some(d) = handoff.decode() else {
                    return Err("the handoff does not decode".into());
                };
                prop_assert!(d.full);
                prop_assert_eq!(d.closed().count(), 0);
                let got: Vec<_> = (d.flows())
                    .map(|f| {
                        assert_eq!(f.flow, key(f.old_sock.0));
                        let rec = (f.owner.0, f.app_bytes, f.img.to_vec());
                        (f.old_sock.0, rec)
                    })
                    .collect();
                let want: Vec<_> = want.into_iter().collect();
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
    }

    /// A delta the writer wrote decodes whole; cut anywhere short of its
    /// last record, or inside a closed key, it does not. Neither a cut
    /// delta nor any byte string panics the buddy or a restore: each is
    /// dropped whole and counted in `repl.decode_errors`.
    #[test]
    fn malformed_payloads_are_counted_not_applied() {
        let flows = [(1, 7, 10, vec![1; 40]), (2, 7, 20, vec![2; 9])];
        let good = delta(&flows, &[3, 4]).as_bytes().to_vec();
        let closed_at = good.len() - 2 * KEY;
        let mut repl = FlowRepl::new(&NeatConfig::single(2).replicated());
        let mut srv = SockServer::new(Ipv4Addr::new(10, 0, 0, 1), Default::default());
        let payload = |b: &[u8]| ReplPayload(b.into());
        for cut in 0..=good.len() {
            let whole = cut >= closed_at && (cut - closed_at).is_multiple_of(KEY);
            let p = payload(&good[..cut]);
            assert_eq!(p.decode().is_some(), whole, "cut at {cut}");
            assert_eq!(p.len(), if whole { 2 } else { 0 }, "cut at {cut}");
            let before = decode_errors();
            repl.apply_delta(ProcId(3), p.clone());
            assert_eq!(decode_errors() - before, u64::from(!whole), "cut at {cut}");
            let before = decode_errors();
            let restored = srv.restore_flows(ProcId(50), ProcId(3), p);
            assert!(restored.is_empty(), "no record holds an image");
            // A whole delta's two images are not images either.
            let errors = if whole { 2 } else { 1 };
            assert_eq!(decode_errors() - before, errors, "cut at {cut}");
        }
        // A header that claims records it does not carry counts none, so
        // adopting them is charged nothing.
        let mut claims = vec![1];
        claims.extend(u32::MAX.to_le_bytes());
        assert_eq!(payload(&claims).len(), 0);
        check(
            "malformed_payloads_are_counted_not_applied",
            Config::default(),
            |rng| bytes(rng, 0..200),
            |b| {
                let mut repl = FlowRepl::new(&NeatConfig::single(2).replicated());
                let mut srv = SockServer::new(Ipv4Addr::new(10, 0, 0, 1), Default::default());
                let p = payload(&b);
                let ok = p.decode().is_some();
                prop_assert!(ok || p.is_empty());
                let before = decode_errors();
                repl.apply_delta(ProcId(3), p.clone());
                let _ = srv.restore_flows(ProcId(50), ProcId(3), p);
                prop_assert!(ok || decode_errors() - before == 2);
                Ok(())
            },
        );
    }

    /// Storage does not stay at its largest: a held image that shrinks
    /// below half its buffer gets a buffer its size, and the writer frees
    /// what a full delta or a handoff grew it to.
    #[test]
    fn retained_storage_follows_the_latest_size() {
        let mut repl = FlowRepl::new(&NeatConfig::single(2).replicated());
        let primary = ProcId(3);
        let held = |repl: &FlowRepl| repl.store[&primary][&key(1)].img.capacity();
        repl.apply_delta(primary, delta(&[(1, 7, 0, vec![1; 4096])], &[]));
        repl.apply_delta(primary, delta(&[(1, 7, 0, vec![2; 3000])], &[]));
        assert_eq!(held(&repl), 4096, "more than half: overwritten in place");
        repl.apply_delta(primary, delta(&[(1, 7, 0, vec![3; 200])], &[]));
        assert_eq!(held(&repl), 200);
        let handoff = repl.take_flows_for(primary);
        assert_eq!(handoff.len(), 1);
        assert_eq!(repl.out.buf.capacity(), 0, "the handoff's storage is freed");
    }
}
