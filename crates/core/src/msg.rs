//! The message vocabulary of the simulated NewtOS system.
//!
//! Every interaction between processes — frames on the wire, driver/replica
//! queues, the socket fast path between applications and stack replicas,
//! SYSCALL traffic, and supervisor control — is one of these messages.
//! There is deliberately no other channel: this enum *is* the attack
//! surface, the failure surface, and the performance surface of the system.

use crate::replica::Role;
use neat_net::PktBuf;
use neat_sim::ProcId;
use std::net::Ipv4Addr;

/// A connection as the application library sees it: which stack replica
/// owns it and the socket id inside that replica. The POSIX library maps
/// file descriptors to these handles behind the scenes (§3.3: "the library
/// only translates between socket numbers and the internal communication
/// channels").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnHandle {
    /// The stack (TCP component) process owning the connection.
    pub stack: ProcId,
    /// Socket id within that stack instance.
    pub sock: neat_tcp::SocketId,
}

/// All inter-process messages.
#[derive(Debug)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Wire and device plane
    // ------------------------------------------------------------------
    /// An Ethernet frame travelling on the link between the two NICs.
    WireFrame(PktBuf),
    /// NIC → driver: a received frame, already steered to a queue.
    RxFrame { queue: usize, frame: PktBuf },
    /// Driver → NIC control plane: add an exact-match steering filter.
    NicAddFilter {
        flow: neat_net::FlowKey,
        queue: usize,
    },
    /// Driver → NIC control plane: queues accepting new flows (§3.4).
    NicSetAccepting { queue: usize, accepting: bool },
    /// Driver → NIC control plane: grow to `n` queue pairs (scale-up).
    NicGrowQueues { n: usize },
    /// Control plane: enable/disable the NIC's flow-tracking filters
    /// (ablation hook; always on in the paper's envisioned hardware).
    NicSetTracking { on: bool },

    // ------------------------------------------------------------------
    // Driver ↔ stack components
    // ------------------------------------------------------------------
    /// An inbound frame, on every hop after the driver's queue: driver →
    /// first stack component (or a monolith context), packet filter → IP,
    /// client NIC → load-generator stack. Carries a refcounted [`PktBuf`]
    /// handle, not a copy (§3.2: packets traverse the pipeline by
    /// reference through shared pools).
    NetRx(PktBuf),
    /// An outbound frame, on every hop to the wire: stack component →
    /// driver → NIC (which applies TSO), or a monolith context or load
    /// generator → its NIC (same zero-copy handle discipline).
    NetTx(PktBuf),
    /// A (re)started replica announces itself to the driver: frames for
    /// `queue` may flow again (§3.6: the driver withholds packets until the
    /// recovering replica "announces itself again").
    Announce { queue: usize, head: ProcId },

    // ------------------------------------------------------------------
    // Multi-component pipeline (PF → IP → TCP/UDP)
    // ------------------------------------------------------------------
    /// IP → TCP: a validated TCP segment with the source address. The
    /// segment is a zero-copy window into the original frame buffer (the
    /// IP header is stripped by narrowing the handle, not by copying).
    IpRxTcp { src: Ipv4Addr, seg: PktBuf },
    /// IP → UDP: a validated UDP datagram (same windowed handle).
    IpRxUdp { src: Ipv4Addr, dgram: PktBuf },
    /// TCP/UDP → IP: emit this transport payload to `dst`.
    IpTx {
        dst: Ipv4Addr,
        protocol: u8,
        payload: Vec<u8>,
    },
    /// Supervisor → component: (re)wire a neighbour — the new `role` is
    /// `pid`.
    SetNeighbor { role: Role, pid: ProcId },

    // ------------------------------------------------------------------
    // Socket fast path (application library ↔ stack replica), §3.2
    // ------------------------------------------------------------------
    /// App → replica: create a listening subsocket on `port`; deliver
    /// incoming connections to `app`.
    Listen { port: u16, app: ProcId },
    /// Replica → app: subsocket created.
    ListenOk { port: u16 },
    /// App → replica: active open to `remote` for `app`.
    Connect {
        remote: (Ipv4Addr, u16),
        app: ProcId,
        token: u64,
    },
    /// Replica → app: active open completed.
    ConnOpen { conn: ConnHandle, token: u64 },
    /// Replica → app: active open failed.
    ConnFailed { token: u64 },
    /// Replica → app: a new accepted connection on a listening port.
    Incoming { port: u16, conn: ConnHandle },
    /// App → replica: send bytes on a connection (shared-memory socket
    /// buffer write + notification).
    ConnSend {
        sock: neat_tcp::SocketId,
        data: Vec<u8>,
    },
    /// Replica → app: received bytes.
    ConnData { conn: ConnHandle, data: Vec<u8> },
    /// App → replica: close (graceful).
    ConnClose { sock: neat_tcp::SocketId },
    /// App → replica: switch an open connection's congestion controller,
    /// the one per-socket option.
    SetCongestion {
        sock: neat_tcp::SocketId,
        algo: neat_tcp::CongestionAlgo,
    },
    /// Replica → app: the peer closed its direction (EOF after data).
    ConnEof { conn: ConnHandle },
    /// Replica → app: connection fully closed (or aborted).
    ConnClosed { conn: ConnHandle, aborted: bool },

    // ------------------------------------------------------------------
    // UDP socket plane (stateless datagram service)
    // ------------------------------------------------------------------
    /// App → replica (UDP component): bind a datagram port.
    UdpBind { port: u16, app: ProcId },
    /// App → replica: send a datagram.
    UdpTx {
        src_port: u16,
        dst: (Ipv4Addr, u16),
        data: Vec<u8>,
    },
    /// Replica → app: a datagram arrived on a bound port.
    UdpData {
        port: u16,
        src: (Ipv4Addr, u16),
        data: Vec<u8>,
    },

    // ------------------------------------------------------------------
    // SYSCALL server (slow path), §3.1
    // ------------------------------------------------------------------
    /// App → SYSCALL: replicate a listening socket across all replicas.
    SysListen { port: u16, app: ProcId },
    /// SYSCALL → app: all subsockets are in place.
    SysListenDone { port: u16 },

    // ------------------------------------------------------------------
    // Supervisor / reincarnation server, §3.6 & §3.4
    // ------------------------------------------------------------------
    /// Engine-generated crash notification (registered hook).
    Crashed { pid: ProcId, name: String },
    /// Supervisor → driver: replica for `queue` died; hold its packets.
    ReplicaDown { queue: usize },
    /// Supervisor → apps: a stack replica was restarted; connection
    /// handles on `old` are dead, `new` is the replacement.
    ReplicaRestarted { old: ProcId, new: ProcId },
    /// Supervisor → apps/syscall: a brand-new replica joined (scale-up).
    ReplicaAdded { stack: ProcId },
    /// Supervisor → apps/syscall: a replica was garbage-collected after
    /// draining (scale-down completed).
    ReplicaRemoved { stack: ProcId },
    /// App → supervisor: register for replica lifecycle notifications.
    RegisterApp { app: ProcId },
    /// Harness → supervisor: scale the stack up by one replica.
    ScaleUp,
    /// Harness → supervisor: scale down by one replica (lazy termination).
    ScaleDown,
    /// Replica → supervisor: my connection count dropped to zero while in
    /// termination state — garbage-collect me.
    Drained { queue: usize },
    /// Supervisor → replica: enter termination state (no new connections;
    /// exit when drained).
    Terminate,

    // ------------------------------------------------------------------
    // Buddy-replica flow replication & live migration (§3.6 extension)
    // ------------------------------------------------------------------
    /// Supervisor → stack replica: your checkpoint buddy is `buddy`
    /// (`None` disables streaming, e.g. when the ring shrinks to one).
    SetBuddy { buddy: Option<ProcId> },
    /// Stack replica → its buddy: one replication delta (TCB checkpoints)
    /// for `queue`.
    ReplDelta { queue: usize, payload: ReplPayload },
    /// Supervisor → buddy of a crashed replica: replica `old` serving
    /// `queue` died; send your latest copy of its flows to `to` (the
    /// freshly respawned head).
    ReplHandoff {
        queue: usize,
        old: ProcId,
        to: ProcId,
    },
    /// Buddy (failover) or victim (migration) → new owner: adopt these
    /// flows. `old` is the replica they lived in before.
    ReplRestore { old: ProcId, flows: Vec<ReplFlow> },
    /// New owner → supervisor: flows adopted; re-steer them to `queue`
    /// via exact-match NIC filters.
    ReplRestored {
        queue: usize,
        flows: Vec<neat_net::FlowKey>,
    },
    /// New owner → app: your connection moved. `old` is the dead (or
    /// migrated-from) handle, `new` the live one; `app_bytes` is how much
    /// of the app's stream the restored state has already seen, so the
    /// library can resend the tail that died in the old replica's buffers.
    ConnMigrated {
        old: ConnHandle,
        new: ConnHandle,
        app_bytes: u64,
    },
    /// Supervisor → terminating replica: don't just drain — actively hand
    /// your established flows to `to` (live migration for scale-down).
    MigrateOut { to: ProcId },
    /// Supervisor → a buddy: drop the store held for `owner` (it was
    /// removed in an orderly way, not crashed).
    ReplForget { owner: ProcId },

    // ------------------------------------------------------------------
    // Fault injection (Table 3)
    // ------------------------------------------------------------------
    /// Harness → any component: an injected fault activates — crash.
    Poison,
}

impl Msg {
    /// The socket-operation set: exactly the messages
    /// [`SockServer::handle_app`](crate::sock_server::SockServer::handle_app)
    /// acts on. Every stack host routes on this one predicate.
    pub fn is_sock_op(&self) -> bool {
        matches!(
            self,
            Msg::Listen { .. }
                | Msg::Connect { .. }
                | Msg::ConnSend { .. }
                | Msg::ConnClose { .. }
                | Msg::SetCongestion { .. }
        )
    }
}

/// One replicated flow: everything the adopting stack needs to resume the
/// connection and re-wire its app binding.
#[derive(Debug, Clone)]
pub struct ReplFlow {
    /// The 4-tuple (remote side as src — the demux/steering orientation).
    pub flow: neat_net::FlowKey,
    /// Socket id the flow had in its previous owner (the app's dead
    /// handle is `ConnHandle { stack: old, sock: old_sock }`).
    pub old_sock: neat_tcp::SocketId,
    /// The application process bound to the connection.
    pub owner: ProcId,
    /// Application stream bytes the checkpointed state had accepted from
    /// the app (drives the library's resend-tail on migration).
    pub app_bytes: u64,
    /// The flow's checkpoint bytes ([`neat_tcp::TcpSocket::checkpoint`]).
    pub img: Vec<u8>,
}

/// The body of one replication delta: TCB checkpoints. `flows` supersede
/// the buddy's copies; `closed` flows are forgotten. `full` marks a
/// from-scratch snapshot (the buddy drops everything it held for this
/// primary first).
#[derive(Debug, Clone)]
pub struct ReplPayload {
    pub full: bool,
    pub flows: Vec<ReplFlow>,
    pub closed: Vec<neat_net::FlowKey>,
}

#[cfg(test)]
mod tests {
    use super::Msg;
    use neat_sim::Event;
    use std::mem::size_of;

    /// Every message is moved into the sender's outputs, into a heap entry
    /// and out to the handler: its size is paid per event. Ratchets, like
    /// `socket_size_is_pinned` — moved down only (box the fat cold variant
    /// rather than raise them).
    #[test]
    fn msg_size_is_pinned() {
        assert!(size_of::<Msg>() <= 64, "{} B", size_of::<Msg>());
        assert!(
            size_of::<Event<Msg>>() <= 72,
            "{} B",
            size_of::<Event<Msg>>()
        );
    }
}
