//! The socket server's connection table: every [`Conn`] in the seat its
//! stack id names ([`SocketId::seat`]), as the stack's own slot table
//! (`neat_tcp`'s `slots.rs`) keeps its slots.
//!
//! A lookup is a bounds check, an index and a compare of the whole id — no
//! hash probe. The compare keeps a stale id inert: once a later connection
//! sits in the seat, the ids differ and the lookup misses, as a removed key
//! missed in the hash map this table replaces.
//!
//! The seats are one `Vec`, grown to the highest seat taken. The stack
//! fills its lowest free seats first, so the vector runs about as long as
//! the stack's peak connection count, at 72 B a seat against the map's
//! 73 B a bucket (and the map kept an eighth of its buckets empty). It
//! grows by doubling, as the map did. Not pages, as the stack's slots are:
//! a page's worth of 72 B records is the whole table of a server with a
//! few connections, and a page of its own for each would cost those
//! servers more than the map (`tests/request_path.rs` pins it).
//!
//! The stack frees a seat when it reaps or retires a socket, which can be
//! before this server has read the socket's `Closed` event. A connection
//! the stack opens in that seat meanwhile takes the seat, and the record
//! it found there moves to `displaced` until its event removes it, so
//! every id answers as it did in the hash map.

use super::Conn;
use neat_tcp::SocketId;

#[derive(Debug, Default)]
pub(super) struct ConnTable {
    seats: Vec<Option<Conn>>,
    /// Records a newer connection took the seat of before their `Closed`
    /// event came; empty but for such a moment.
    displaced: Vec<Conn>,
}

impl ConnTable {
    pub(super) fn get(&self, id: SocketId) -> Option<&Conn> {
        match self.seats.get(id.seat() as usize) {
            Some(Some(c)) if c.id == id => Some(c),
            _ => self.displaced.iter().find(|c| c.id == id),
        }
    }

    pub(super) fn get_mut(&mut self, id: SocketId) -> Option<&mut Conn> {
        match self.seats.get_mut(id.seat() as usize) {
            Some(Some(c)) if c.id == id => Some(c),
            _ => self.displaced.iter_mut().find(|c| c.id == id),
        }
    }

    /// Seat `conn` where its id says, replacing a record of the same id and
    /// displacing one of another.
    pub(super) fn insert(&mut self, conn: Conn) {
        let (id, seat) = (conn.id, conn.id.seat() as usize);
        if !self.displaced.is_empty() {
            self.displaced.retain(|c| c.id != id);
        }
        if seat >= self.seats.len() {
            self.seats.resize_with(seat + 1, || None);
        }
        if let Some(old) = self.seats[seat].replace(conn).filter(|old| old.id != id) {
            self.displaced.push(old);
        }
    }

    pub(super) fn remove(&mut self, id: SocketId) -> Option<Conn> {
        match self.seats.get_mut(id.seat() as usize) {
            Some(cell) if cell.as_ref().is_some_and(|c| c.id == id) => cell.take(),
            _ => {
                let at = self.displaced.iter().position(|c| c.id == id)?;
                Some(self.displaced.swap_remove(at))
            }
        }
    }
}

#[cfg(test)]
impl ConnTable {
    /// Records held, seated and displaced.
    pub(super) fn len(&self) -> usize {
        self.seats.iter().flatten().count() + self.displaced.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::SockServer;
    use super::*;
    use crate::msg::Msg;
    use neat_net::TcpHeader;
    use neat_sim::ProcId;
    use neat_tcp::{TcpConfig, TcpStack};
    use neat_util::check::{check, vec_of, Config};
    use neat_util::{prop_assert, prop_assert_eq};
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    const APP: ProcId = ProcId(77);
    const ME: ProcId = ProcId(50);

    /// The table against a flat map, seats reused at random with a new
    /// serial each time, records displaced and removed in any order: after
    /// every step, every id ever issued answers `get` as the map does, and
    /// `get_mut` and `remove` reach the record the map would.
    #[test]
    fn every_id_answers_as_in_a_flat_map() {
        let displaced = Cell::new(0u32);
        check(
            "every_id_answers_as_in_a_flat_map",
            Config::default().cases(256),
            |rng| vec_of(rng, 1..60, |r| (r.gen_range(0u8..3), r.gen_range(0u8..80))),
            |ops| {
                let mut table = ConnTable::default();
                let mut model: BTreeMap<SocketId, u64> = BTreeMap::new();
                let mut issued: Vec<SocketId> = Vec::new();
                for (step, &(kind, arg)) in ops.iter().enumerate() {
                    let pick = issued.get(usize::from(arg) % issued.len().max(1)).copied();
                    match (kind, pick) {
                        (1, Some(id)) => {
                            let got = table.remove(id).map(|c| c.app_bytes);
                            prop_assert_eq!(got, model.remove(&id), "remove {:?}", id);
                        }
                        (2, Some(id)) => {
                            let bump = |v: &mut u64| {
                                *v += 1_000;
                                *v
                            };
                            let got = table.get_mut(id).map(|c| bump(&mut c.app_bytes));
                            prop_assert_eq!(got, model.get_mut(&id).map(bump), "{:?}", id);
                        }
                        _ => {
                            // A new connection in seat `arg`, one of 80.
                            let serial = issued.len() as u64 + 1;
                            let id = SocketId(serial << 32 | u64::from(arg));
                            issued.push(id);
                            let seat = table.seats.get(usize::from(arg));
                            let taken = seat.is_some_and(Option::is_some);
                            displaced.set(displaced.get() + u32::from(taken));
                            table.insert(Conn::new(id, APP, None, step as u64));
                            model.insert(id, step as u64);
                        }
                    }
                    for &id in &issued {
                        let got = table.get(id).map(|c| (c.id, c.app_bytes));
                        prop_assert_eq!(got, model.get(&id).map(|&v| (id, v)));
                    }
                    prop_assert_eq!(table.len(), model.len());
                }
                Ok(())
            },
        );
        assert!(displaced.get() > 0, "no seat was taken from a record");
    }

    const SRV: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const MS: u64 = 1_000_000;

    /// Byte `i` of the stream behind the 8 B token that opens it.
    fn byte(token: u64, i: u64) -> u8 {
        (token.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) >> 1) as u8
    }

    /// One of the peer's connections: what it has read.
    struct PeerConn {
        id: SocketId,
        head: Vec<u8>,
        read: u64,
    }

    impl PeerConn {
        fn token(&self) -> Option<u64> {
            Some(u64::from_le_bytes(self.head.as_slice().try_into().ok()?))
        }
    }

    /// A `SockServer` whose application opens connections to a plain
    /// `TcpStack` serving port 80, over a lossless wire.
    struct Net {
        srv: SockServer,
        peer: TcpStack,
        listener: SocketId,
        now: u64,
        /// The server's open connections: token, bytes the app sent after
        /// it, and whether the app closed it.
        open: BTreeMap<SocketId, (u64, u64, bool)>,
        /// Ids whose close the application was told of.
        dead: Vec<SocketId>,
        peer_conns: Vec<PeerConn>,
        next_token: u64,
        /// Connections that took the seat of a dead id.
        reused: u32,
    }

    impl Net {
        fn new() -> Net {
            let cfg = TcpConfig {
                time_wait_ns: 2 * MS,
                initial_rto_ns: 50 * MS,
                ..TcpConfig::default()
            };
            let mut peer = TcpStack::new(PEER, cfg.clone());
            let listener = peer.listen(80).expect("listen");
            Net {
                srv: SockServer::new(SRV, cfg),
                peer,
                listener,
                now: 0,
                open: BTreeMap::new(),
                dead: Vec::new(),
                peer_conns: Vec::new(),
                next_token: 1,
                reused: 0,
            }
        }

        fn send(&mut self, sock: SocketId, data: Vec<u8>) {
            self.srv
                .handle_app(APP, Msg::ConnSend { sock, data }, self.now);
        }

        /// Move segments both ways until the wire is quiet; with `events`,
        /// the server also reads its stack's events and the application
        /// answers them.
        fn pump(&mut self, events: bool) -> Result<(), String> {
            loop {
                let mut moved = false;
                for (_, seg) in self.srv.poll_wire(self.now) {
                    let (h, r) = TcpHeader::parse(&seg, SRV, PEER).map_err(|e| format!("{e:?}"))?;
                    self.peer.handle_segment(SRV, &h, &seg[r], self.now);
                    moved = true;
                }
                while let Some((_, h, p)) = self.peer.poll_transmit(self.now) {
                    self.srv.rx_segment(PEER, &h.emit(&p, PEER, SRV), self.now);
                    moved = true;
                }
                while let Ok(id) = self.peer.accept(self.listener) {
                    let (head, read) = (Vec::new(), 0);
                    self.peer_conns.push(PeerConn { id, head, read });
                }
                while self.peer.poll_event().is_some() {}
                self.peer_read()?;
                if events {
                    self.srv.process_events(ME);
                    for (_, m) in self.srv.take_app_msgs() {
                        moved = true;
                        self.app(m)?;
                    }
                }
                if !moved {
                    return Ok(());
                }
            }
        }

        /// The application's answer to one message.
        fn app(&mut self, m: Msg) -> Result<(), String> {
            match m {
                Msg::ConnOpen { conn, token } => {
                    let sock = conn.sock;
                    self.reused += u32::from(self.dead.iter().any(|d| d.seat() == sock.seat()));
                    prop_assert!(self.open.insert(sock, (token, 0, false)).is_none());
                    self.send(sock, token.to_le_bytes().to_vec());
                }
                Msg::ConnEof { conn } => {
                    if let Some(c) = self.open.get_mut(&conn.sock) {
                        c.2 = true;
                        let sock = conn.sock;
                        self.srv.handle_app(APP, Msg::ConnClose { sock }, self.now);
                    }
                }
                Msg::ConnClosed { conn, .. } => {
                    let open = self.open.remove(&conn.sock);
                    prop_assert!(open.is_some(), "{:?} closed twice", conn.sock);
                    self.dead.push(conn.sock);
                }
                _ => {}
            }
            Ok(())
        }

        /// The peer reads every connection: each byte the next of the
        /// stream its token names.
        fn peer_read(&mut self) -> Result<(), String> {
            let mut buf = [0u8; 4096];
            for c in &mut self.peer_conns {
                while let Ok(n @ 1..) = self.peer.recv(c.id, &mut buf) {
                    for &b in &buf[..n] {
                        match c.token() {
                            None => c.head.push(b),
                            Some(t) => {
                                prop_assert_eq!(b, byte(t, c.read), "a byte out of order");
                                c.read += 1;
                            }
                        }
                    }
                }
            }
            Ok(())
        }

        /// One step of the schedule.
        fn step(&mut self, (kind, a, b): (u8, u8, u8)) {
            let live: Vec<SocketId> = (self.open.iter())
                .filter(|(_, c)| !c.2)
                .map(|(&id, _)| id)
                .collect();
            let pick = live.get(usize::from(a) % live.len().max(1)).copied();
            let peer = self
                .peer_conns
                .get(usize::from(a) % self.peer_conns.len().max(1));
            let peer = peer.map(|c| c.id);
            match (kind % 6, pick, peer) {
                (1, Some(sock), _) => {
                    let c = self.open.get_mut(&sock).expect("live");
                    let len = 1 + u64::from(b) * 13;
                    let data = (c.1..c.1 + len).map(|i| byte(c.0, i)).collect();
                    c.1 += len;
                    self.send(sock, data);
                }
                (2, Some(sock), _) => {
                    self.open.get_mut(&sock).expect("live").2 = true;
                    self.srv.handle_app(APP, Msg::ConnClose { sock }, self.now);
                }
                (3, _, Some(id)) => {
                    let _ = self.peer.abort(id);
                }
                (4, _, Some(id)) => {
                    let _ = self.peer.close(id, self.now);
                }
                (5, _, _) => {
                    self.now += u64::from(a % 8 + 1) * MS / 2;
                    self.srv.on_timer(self.now);
                    self.peer.on_timer(self.now);
                }
                _ => {
                    let (remote, token) = ((PEER, 80), self.next_token);
                    self.next_token += 1;
                    let connect = Msg::Connect {
                        remote,
                        app: APP,
                        token,
                    };
                    self.srv.handle_app(APP, connect, self.now);
                }
            }
        }
    }

    /// The core-side twin of `neat_tcp`'s
    /// `stale_ids_stay_inert_and_streams_match_a_flat_model`, for the
    /// server's connection table: its application opens connections,
    /// writes, closes, and has the peer close or abort them, while
    /// time passes and TIME-WAIT runs out, so seats are reused; a step
    /// with bit 7 of `b` set leaves the server's events unread, so a
    /// connection can take the seat of one whose close is still unread.
    /// After every other step every id the application saw close gets a
    /// write, which sends nothing and tells the application nothing; every
    /// byte the peer reads is the next of what the application wrote on
    /// that connection, and all of it once the wire is quiet.
    #[test]
    fn stale_ids_stay_inert_in_the_servers_table() {
        let seen = Cell::new((0u32, 0u32));
        check(
            "stale_ids_stay_inert_in_the_servers_table",
            Config::default().cases(64),
            |rng| {
                vec_of(rng, 1..80, |r| {
                    (r.gen_range(0u8..6), r.gen::<u8>(), r.gen::<u8>())
                })
            },
            |ops| {
                let mut n = Net::new();
                let mut displaced = 0;
                for &op in &ops {
                    n.step(op);
                    displaced += n.srv.conns.displaced.len();
                    if op.2 & 0x80 != 0 {
                        n.pump(false)?;
                        continue;
                    }
                    n.pump(true)?;
                    for id in n.dead.clone() {
                        prop_assert!(n.srv.conns.get(id).is_none(), "{:?} on record", id);
                        n.send(id, vec![0xEE; 8]);
                    }
                    prop_assert!(n.srv.poll_wire(n.now).is_empty(), "a dead id sent");
                    prop_assert!(n.srv.take_app_msgs().is_empty(), "a dead id spoke");
                }
                // Delayed ACKs release what Nagle held back.
                for _ in 0..8 {
                    n.step((5, 0, 0));
                    n.pump(true)?;
                }
                for (token, sent, _) in n.open.values() {
                    let c = n.peer_conns.iter().find(|c| c.token() == Some(*token));
                    let read = c.map_or(0, |c| c.read);
                    let aborted = c.is_some_and(|c| n.peer.state(c.id).is_none());
                    prop_assert!(
                        read == *sent || aborted,
                        "token {}: {} of {} B",
                        token,
                        read,
                        sent
                    );
                }
                let (reused, held) = seen.get();
                seen.set((reused + n.reused, held + u32::from(displaced > 0)));
                Ok(())
            },
        );
        let (reused, displaced) = seen.get();
        println!(
            "seats reused after a close: {reused}; cases that displaced a record: {displaced}"
        );
        assert!(
            reused > 0 && displaced > 0,
            "a situation the property must cover never arose"
        );
    }
}
