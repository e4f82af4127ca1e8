//! The application-side POSIX socket library (§3.2–§3.3).
//!
//! Embedded in every application process, this is the layer that makes
//! replication invisible: applications deal in file descriptors; the
//! library maps them to `(replica, socket)` handles, replicates listeners
//! via the SYSCALL server, picks a *random* replica for every active open
//! (the load-balancing-cum-security property of §3.8), and heals its
//! bookkeeping when the supervisor reports replica restarts.
//!
//! The API is errno-shaped: every fallible operation returns
//! `Result<_, SockErr>`, and readiness is queried through the
//! non-blocking `poll(fd) -> Readiness`. Incoming bytes are buffered per fd and
//! pulled with [`SocketLib::recv`] — [`LibEvent`] is only the wakeup
//! channel, it never carries payload.

use crate::msg::{ConnHandle, Msg};
use neat_sim::{Ctx, ProcId};
use neat_util::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

pub use neat_tcp::{CongestionAlgo, Readiness};

/// An application-level file descriptor.
pub type Fd = u32;

/// Errno-like error type for every socket-library operation. `TcpError`
/// from the in-stack engine maps into this at the stack boundary so
/// applications see exactly one error vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockErr {
    /// The operation cannot make progress now (no data, no buffer room).
    WouldBlock,
    /// The fd is unknown or not (yet) bound to a connection.
    NotConnected,
    /// The connection was reset/aborted by the peer or the stack.
    ConnReset,
    /// The remote end refused the connection.
    ConnRefused,
    /// The replica owning the socket crashed with the operation in flight.
    ReplicaLost,
    /// The local address/port is already in use.
    AddrInUse,
    /// No ephemeral ports left.
    NoPorts,
    /// The operation is invalid in the socket's current state.
    BadState,
    /// The connection timed out (retransmission limit).
    TimedOut,
    /// The stack's connection-memory budget is exhausted (ENOMEM/ENOBUFS).
    NoMemory,
}

impl From<neat_tcp::TcpError> for SockErr {
    fn from(e: neat_tcp::TcpError) -> SockErr {
        use neat_tcp::TcpError as T;
        match e {
            T::NoSocket => SockErr::NotConnected,
            T::BadState => SockErr::BadState,
            T::AddrInUse => SockErr::AddrInUse,
            T::NoPorts => SockErr::NoPorts,
            T::WouldBlock => SockErr::WouldBlock,
            T::Reset => SockErr::ConnReset,
            T::TimedOut => SockErr::TimedOut,
            T::NoMemory => SockErr::NoMemory,
        }
    }
}

impl std::fmt::Display for SockErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for SockErr {}

/// Events the library surfaces to application logic. Pure notifications:
/// data itself is pulled with [`SocketLib::recv`] after a `Readable`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibEvent {
    /// `listen()` completed on all replicas.
    ListenReady { port: u16 },
    /// A connection was accepted on a listening port.
    Accepted { fd: Fd, port: u16 },
    /// An active open completed.
    Connected { fd: Fd },
    /// An active open failed (`ReplicaLost` when the chosen replica
    /// crashed between SYN and completion).
    ConnectFailed { fd: Fd, err: SockErr },
    /// Readiness changed: poll the fd and drain it with `recv`.
    Readable { fd: Fd },
    /// Fully closed. `err` is `None` for a clean close, `ConnReset` for
    /// RST/timeout, `ReplicaLost` when the owning replica crashed.
    Closed { fd: Fd, err: Option<SockErr> },
}

/// Retained tail of recently written bytes, kept per fd so a migrated
/// connection can resend whatever the old replica accepted after its last
/// replication checkpoint (the `app_bytes` gap in [`Msg::ConnMigrated`]).
const TX_TAIL_CAP: usize = 64 * 1024;

/// Everything the library keeps for one fd, from `connect()` or an
/// `Incoming` until [`SocketLib::release`].
#[derive(Debug, Default)]
struct FdState {
    /// The `(replica, socket)` behind the fd; `None` while its
    /// `connect()` is in flight.
    conn: Option<ConnHandle>,
    /// Bytes delivered by the stack but not yet pulled by the application.
    rx: VecDeque<u8>,
    /// The peer's FIN arrived: `recv` reads as EOF once `rx` is drained.
    eof: bool,
    /// Total bytes ever written on this fd.
    sent_total: u64,
    /// The last up-to-[`TX_TAIL_CAP`] of those bytes.
    tail: VecDeque<u8>,
}

/// Per-process socket library state.
#[derive(Debug)]
pub struct SocketLib {
    syscall: ProcId,
    supervisor: Option<ProcId>,
    /// Socket-owning heads of the live replicas.
    replicas: Vec<ProcId>,
    listen_ports: Vec<u16>,
    fds: FxHashMap<Fd, FdState>,
    /// Reverse index: which fd a stack's message about `conn` is for.
    fd_of: FxHashMap<ConnHandle, Fd>,
    /// Stacks reported dead by the supervisor. In-flight messages from
    /// them (e.g. an `Incoming` racing the crash report) must not bind a
    /// fresh fd to a handle that can never carry data again.
    dead_stacks: FxHashSet<ProcId>,
    next_fd: Fd,
    next_token: u64,
    /// In-flight active opens: token → (fd, chosen replica). Recording the
    /// replica is what lets a crash between SYN and `Connected` be
    /// reconciled against the supervisor's restart report instead of
    /// leaking the entry forever.
    pending_connect: FxHashMap<u64, (Fd, ProcId)>,
    /// Connections lost to replica crashes (reliability accounting).
    pub lost_to_crash: u64,
    registered: bool,
    /// When set, all per-connection operations route to this process
    /// instead of the handle's owner (the monolith's "syscalls run on the
    /// caller's core" semantics).
    route_override: Option<ProcId>,
}

impl SocketLib {
    pub fn new(syscall: ProcId, replicas: Vec<ProcId>, supervisor: Option<ProcId>) -> SocketLib {
        SocketLib {
            syscall,
            supervisor,
            replicas,
            listen_ports: Vec::new(),
            fds: FxHashMap::default(),
            fd_of: FxHashMap::default(),
            dead_stacks: FxHashSet::default(),
            next_fd: 3, // 0..2 are stdio, of course
            next_token: 1,
            pending_connect: FxHashMap::default(),
            lost_to_crash: 0,
            registered: false,
            route_override: None,
        }
    }

    /// Route all connection operations through `pid` (monolith mode: the
    /// kernel context on the application's own core).
    pub fn set_route(&mut self, pid: ProcId) {
        self.route_override = Some(pid);
    }

    /// Register with the supervisor for lifecycle notifications. Call once
    /// from the process's `Start` handler.
    pub fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.registered {
            self.registered = true;
            if let Some(sup) = self.supervisor {
                ctx.send(sup, Msg::RegisterApp { app: ctx.self_id });
            }
        }
    }

    /// POSIX `listen()`: replicate across all stack replicas via SYSCALL.
    /// With `syscall == ProcId(0)` (monolith mode) the listen goes straight
    /// to the kernel context instead.
    pub fn listen(&mut self, ctx: &mut Ctx<'_, Msg>, port: u16) -> Result<(), SockErr> {
        if self.listen_ports.contains(&port) {
            return Err(SockErr::AddrInUse);
        }
        ctx.charge(neat_sim::calibration::SYSCALL_CLIENT);
        self.listen_ports.push(port);
        if self.syscall == ProcId(0) {
            for &r in &self.replicas {
                let app = ctx.self_id;
                ctx.send(r, Msg::Listen { port, app });
            }
        } else {
            ctx.send(
                self.syscall,
                Msg::SysListen {
                    port,
                    app: ctx.self_id,
                },
            );
        }
        Ok(())
    }

    /// POSIX `connect()`: bind a fresh fd to a *randomly chosen* replica
    /// (§3.8: "binding each connection to a random replica").
    pub fn connect(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        remote: (std::net::Ipv4Addr, u16),
    ) -> Result<Fd, SockErr> {
        if self.replicas.is_empty() {
            return Err(SockErr::NotConnected);
        }
        let fd = self.alloc_fd();
        let token = self.next_token;
        self.next_token += 1;
        let idx = ctx.rng().gen_range(0..self.replicas.len());
        let replica = self.replicas[idx];
        self.fds.insert(fd, FdState::default());
        self.pending_connect.insert(token, (fd, replica));
        ctx.send(
            replica,
            Msg::Connect {
                remote,
                app: ctx.self_id,
                token,
            },
        );
        Ok(fd)
    }

    /// POSIX `write()` on a connection fd. Returns the bytes queued.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        fd: Fd,
        data: Vec<u8>,
    ) -> Result<usize, SockErr> {
        let (st, ConnHandle { stack, sock }) = self.bound_mut(fd)?;
        let len = data.len();
        ctx.charge(neat_sim::calibration::copy_cost(len));
        st.sent_total += len as u64;
        st.tail.extend(&data);
        let excess = st.tail.len().saturating_sub(TX_TAIL_CAP);
        st.tail.drain(..excess);
        let to = self.route_override.unwrap_or(stack);
        ctx.send(to, Msg::ConnSend { sock, data });
        Ok(len)
    }

    /// POSIX `close()` on a connection fd.
    pub fn close(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) -> Result<(), SockErr> {
        let (_, conn) = self.bound_mut(fd)?;
        let to = self.route_override.unwrap_or(conn.stack);
        ctx.send(to, Msg::ConnClose { sock: conn.sock });
        Ok(())
    }

    /// `setsockopt()` for the one per-socket option: switch a connection
    /// fd's congestion controller on the owning replica. `NotConnected`
    /// while its `connect()` is in flight, and nothing is sent.
    pub fn set_congestion(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        fd: Fd,
        algo: CongestionAlgo,
    ) -> Result<(), SockErr> {
        let (_, ConnHandle { stack, sock }) = self.bound_mut(fd)?;
        let to = self.route_override.unwrap_or(stack);
        ctx.send(to, Msg::SetCongestion { sock, algo });
        Ok(())
    }

    /// Unified non-blocking readiness query. Mirrors `poll(2)` semantics:
    /// `readable` is also set at EOF so the reader observes it via `recv`.
    pub fn poll(&self, fd: Fd) -> Readiness {
        let st = self.fds.get(&fd);
        let bound = st.is_some_and(|st| st.conn.is_some());
        let eof = st.is_some_and(|st| st.eof);
        Readiness {
            readable: eof || st.is_some_and(|st| !st.rx.is_empty()),
            hup: eof || !bound,
        }
    }

    /// Non-blocking read: drain everything buffered for `fd`. `Ok` with an
    /// empty vec means EOF; `Err(WouldBlock)` means no data yet.
    pub fn recv(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) -> Result<Vec<u8>, SockErr> {
        let (st, _) = self.bound_mut(fd)?;
        if st.rx.is_empty() {
            return if st.eof {
                Ok(Vec::new()) // EOF, like read() == 0
            } else {
                Err(SockErr::WouldBlock)
            };
        }
        let data: Vec<u8> = std::mem::take(&mut st.rx).into();
        // The app-side copy out of the stack's buffers is the one copy the
        // zero-copy frame plane cannot elide.
        ctx.charge(neat_sim::calibration::copy_cost(data.len()));
        Ok(data)
    }

    fn alloc_fd(&mut self) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        fd
    }

    /// The state and handle of a bound fd (`NotConnected` while its
    /// `connect()` is in flight, and for an fd the library does not know).
    fn bound_mut(&mut self, fd: Fd) -> Result<(&mut FdState, ConnHandle), SockErr> {
        let st = self.fds.get_mut(&fd).ok_or(SockErr::NotConnected)?;
        let conn = st.conn.ok_or(SockErr::NotConnected)?;
        Ok((st, conn))
    }

    /// Point `fd` (and the reverse index) at `conn`.
    fn bind(&mut self, conn: ConnHandle, fd: Fd) -> Option<&FdState> {
        let st = self.fds.get_mut(&fd)?;
        st.conn = Some(conn);
        self.fd_of.insert(conn, fd);
        Some(st)
    }

    /// The fd a stack's message about `conn` is for, and its state.
    fn by_conn(&mut self, conn: &ConnHandle) -> Option<(Fd, &mut FdState)> {
        let fd = *self.fd_of.get(conn)?;
        Some((fd, self.fds.get_mut(&fd)?))
    }

    /// The one way an fd leaves the library: its state and its entry in
    /// the reverse index go together.
    fn release(&mut self, fd: Fd) {
        if let Some(conn) = self.fds.remove(&fd).and_then(|st| st.conn) {
            self.fd_of.remove(&conn);
        }
    }

    /// Reap every fd bound to the dead replica `stack` — and, with
    /// `connects`, every fd whose `connect()` to it is still in flight —
    /// in ascending fd order.
    fn reap(&mut self, stack: ProcId, connects: bool) -> Vec<LibEvent> {
        let bound = self.fd_of.iter().filter(|(conn, _)| conn.stack == stack);
        let mut dead: Vec<(Fd, Option<u64>)> = bound.map(|(_, &fd)| (fd, None)).collect();
        if connects {
            let orphaned = (self.pending_connect.iter()).filter(|(_, (_, to))| *to == stack);
            dead.extend(orphaned.map(|(&token, &(fd, _))| (fd, Some(token))));
        }
        dead.sort_unstable();
        let reaped = |(fd, token): (Fd, Option<u64>)| {
            self.release(fd);
            self.lost_to_crash += 1;
            // A SYN sent to the dead replica will never be answered.
            match token.and_then(|token| self.pending_connect.remove(&token)) {
                Some(_) => LibEvent::ConnectFailed {
                    fd,
                    err: SockErr::ReplicaLost,
                },
                None => LibEvent::Closed {
                    fd,
                    err: Some(SockErr::ConnReset),
                },
            }
        };
        dead.into_iter().map(reaped).collect()
    }

    pub fn open_conns(&self) -> usize {
        self.fd_of.len()
    }

    pub fn replica_of(&self, fd: Fd) -> Option<ProcId> {
        Some(self.fds.get(&fd)?.conn?.stack)
    }

    /// In-flight `connect()`s that have not completed yet (diagnostics;
    /// the crash-reconciliation tests assert this drains).
    pub fn pending_connects(&self) -> usize {
        self.pending_connect.len()
    }

    /// Open this process's listening subsockets on replica `stack`.
    fn relisten(&self, ctx: &mut Ctx<'_, Msg>, stack: ProcId) {
        for &port in &self.listen_ports {
            let app = ctx.self_id;
            ctx.send(stack, Msg::Listen { port, app });
        }
    }

    /// Translate one inbound message into library events. Unrecognized
    /// messages yield no events (the app handles them itself). Only a
    /// replica's death yields more than one, so only it builds a list.
    pub fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) -> impl Iterator<Item = LibEvent> {
        let (one, reaped) = match msg {
            Msg::ReplicaRestarted { old, new } => {
                // Handles still on the dead replica are gone — either
                // stateless recovery (§3.6) or the flows buddy replication
                // could not restore. Reap them *eagerly*: free the fd and
                // its buffers now and tell the app with a reset, instead of
                // leaving entries to be discovered on the next poll.
                // In-flight connects are reconciled against the restart
                // report too, instead of leaking their tokens.
                self.dead_stacks.insert(old);
                let evs = self.reap(old, true);
                for r in &mut self.replicas {
                    if *r == old {
                        *r = new;
                    }
                }
                self.relisten(ctx, new);
                (None, evs)
            }
            Msg::ReplicaAdded { stack } => {
                self.replicas.push(stack);
                self.relisten(ctx, stack);
                (None, vec![])
            }
            Msg::ReplicaRemoved { stack } => {
                self.replicas.retain(|r| *r != stack);
                self.dead_stacks.insert(stack);
                // An orderly removal drains (or migrates) every connection
                // first, so normally nothing is bound here. If the replica
                // died mid-drain, its remaining handles are gone: reap them
                // eagerly, as in the restart path. (Its in-flight connects
                // it refuses itself while terminating.)
                (None, self.reap(stack, false))
            }
            msg => (self.handle_conn(ctx, msg), vec![]),
        };
        one.into_iter().chain(reaped)
    }

    /// The per-connection messages: each yields at most one event.
    fn handle_conn(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) -> Option<LibEvent> {
        Some(match msg {
            Msg::SysListenDone { port } => LibEvent::ListenReady { port },
            Msg::ListenOk { port } if self.syscall == ProcId(0) => LibEvent::ListenReady { port },
            Msg::Incoming { port, conn } => {
                if self.dead_stacks.contains(&conn.stack) {
                    // The accept raced the owning replica's crash report:
                    // binding it would leak an fd that can never progress.
                    return None;
                }
                let fd = self.alloc_fd();
                self.fds.insert(fd, FdState::default());
                self.bind(conn, fd);
                LibEvent::Accepted { fd, port }
            }
            Msg::ConnOpen { conn, token } => {
                let (fd, _) = self.pending_connect.remove(&token)?;
                self.bind(conn, fd);
                LibEvent::Connected { fd }
            }
            Msg::ConnFailed { token } => {
                let (fd, _) = self.pending_connect.remove(&token)?;
                self.release(fd);
                let err = SockErr::ConnRefused;
                LibEvent::ConnectFailed { fd, err }
            }
            Msg::ConnData { conn, data } => {
                let (fd, st) = self.by_conn(&conn)?;
                // With nothing unread ahead of it the payload's own buffer
                // is the queue, as `ConnSend`'s is on the stack side.
                if st.rx.is_empty() {
                    st.rx = data.into();
                } else {
                    st.rx.extend(data);
                }
                LibEvent::Readable { fd }
            }
            Msg::ConnEof { conn } => {
                let (fd, st) = self.by_conn(&conn)?;
                st.eof = true;
                LibEvent::Readable { fd }
            }
            Msg::ConnClosed { conn, aborted } => {
                let (fd, _) = self.by_conn(&conn)?;
                self.release(fd);
                let err = aborted.then_some(SockErr::ConnReset);
                LibEvent::Closed { fd, err }
            }
            Msg::ConnMigrated {
                old,
                new,
                app_bytes,
            } => {
                // The connection moved (failover or live migration): rebind
                // the fd, then resend whatever the app wrote that the
                // restored state never saw. No event — the application is
                // not supposed to notice.
                let fd = self.fd_of.remove(&old)?;
                let st = self.bind(new, fd)?;
                let gap = st.sent_total.saturating_sub(app_bytes) as usize;
                if gap > st.tail.len() {
                    // The gap outruns the retained tail: the stream
                    // cannot be made whole, so surface a reset.
                    self.release(fd);
                    self.lost_to_crash += 1;
                    let err = Some(SockErr::ConnReset);
                    return Some(LibEvent::Closed { fd, err });
                }
                if gap > 0 {
                    let data: Vec<u8> = st.tail.range(st.tail.len() - gap..).copied().collect();
                    let to = self.route_override.unwrap_or(new.stack);
                    ctx.charge(neat_sim::calibration::copy_cost(gap));
                    ctx.send(
                        to,
                        Msg::ConnSend {
                            sock: new.sock,
                            data,
                        },
                    );
                }
                return None;
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
#[path = "sockets_tests.rs"]
mod tests;
