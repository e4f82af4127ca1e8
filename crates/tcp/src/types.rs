//! Shared types: socket ids, configuration, states, events, errors.

use std::fmt;

/// Identifies a socket within one [`crate::TcpStack`] instance. Ids are
/// never reused within a stack's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u64);

/// The RFC 793 connection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    Closing,
    TimeWait,
    CloseWait,
    LastAck,
}

impl TcpState {
    /// May user data still be sent in this state?
    pub fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }

    /// May data still arrive from the peer in this state?
    pub fn can_recv(self) -> bool {
        matches!(
            self,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        )
    }

    /// Is the connection fully torn down (resources reclaimable)?
    pub fn is_closed(self) -> bool {
        matches!(self, TcpState::Closed)
    }
}

impl fmt::Display for TcpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Which congestion controller a stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionAlgo {
    #[default]
    Reno,
    Cubic,
    /// No congestion control (cwnd pinned wide open) — useful to isolate
    /// flow-control behaviour in tests.
    None,
    /// BBR-style model-based controller: paces to a bandwidth-delay
    /// product estimated from delivery-rate and min-RTT filters.
    Bbr,
    /// DCTCP-style controller: scales the window cut by the observed
    /// congestion fraction (loss events proxy for ECN marks — the sim
    /// wire format carries no ECN bits).
    Dctcp,
}

/// A per-socket transport tuning knob, settable after `connect`/`accept`
/// instead of baking one global [`TcpConfig`] into the whole stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SockOpt {
    /// Switch the congestion controller for this connection.
    CongestionAlgo(CongestionAlgo),
    /// Override the initial congestion window, in segments (RFC 6928
    /// style: e.g. 10 for IW10).
    InitialCwnd(u32),
    /// Resize the receive buffer (and with it the advertised window
    /// ceiling), in bytes.
    RecvBuf(usize),
}

/// The discriminant of a [`SockOpt`], for `get_opt` queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockOptKind {
    CongestionAlgo,
    InitialCwnd,
    RecvBuf,
}

impl SockOpt {
    pub fn kind(&self) -> SockOptKind {
        match self {
            SockOpt::CongestionAlgo(_) => SockOptKind::CongestionAlgo,
            SockOpt::InitialCwnd(_) => SockOptKind::InitialCwnd,
            SockOpt::RecvBuf(_) => SockOptKind::RecvBuf,
        }
    }
}

/// Per-stack tunables (the control-plane settings of §4: e.g. the
/// TIME_WAIT timeout the OS manages while the NIC runs the data plane).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size we advertise and default to.
    pub mss: u16,
    /// Send buffer capacity per socket (bytes).
    pub send_buf: usize,
    /// Receive buffer capacity per socket (bytes) — advertised window base.
    pub recv_buf: usize,
    /// TIME_WAIT duration in nanoseconds (smoltcp uses a fixed 10 s).
    pub time_wait_ns: u64,
    /// Delayed-ACK timeout in nanoseconds (0 disables delayed ACKs).
    pub delayed_ack_ns: u64,
    /// Enable Nagle's algorithm.
    pub nagle: bool,
    /// Congestion control algorithm.
    pub congestion: CongestionAlgo,
    /// Maximum retransmissions before the connection is aborted.
    pub max_retries: u32,
    /// Initial RTO in nanoseconds (RFC 6298 says 1 s; datacenter-scale
    /// simulations shrink it).
    pub initial_rto_ns: u64,
    /// Listener SYN backlog + accept queue limit.
    pub backlog: usize,
    /// Keepalive probe interval in ns (0 disables keepalive).
    pub keepalive_ns: u64,
    /// GSO/TSO burst size: the send path may emit super-segments up to
    /// this many bytes (the NIC splits them to MSS on the wire). 0 means
    /// plain per-MSS segmentation. Must keep payload+40 <= 65535.
    pub gso_burst: usize,
    /// Stack-wide connection-memory budget in bytes (0 = unlimited).
    /// When accounted connection memory would exceed this, new SYNs are
    /// dropped (load shedding) and `connect` fails with
    /// [`TcpError::NoMemory`]; established connections are never killed.
    pub conn_memory_limit: u64,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            mss: 1460,
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            time_wait_ns: 10_000_000_000,
            delayed_ack_ns: 500_000, // 0.5 ms — LAN-scale
            nagle: true,
            congestion: CongestionAlgo::Reno,
            max_retries: 12,
            initial_rto_ns: 200_000_000, // 200 ms before first RTT sample
            backlog: 128,
            keepalive_ns: 0,
            gso_burst: 0,
            conn_memory_limit: 0,
        }
    }
}

/// Non-blocking readiness snapshot for one socket, as the socket library's
/// `poll(fd)` reports it. Mirrors `poll(2)`'s POLLIN/POLLOUT/POLLHUP bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness {
    /// Data (or, for listeners, a pending accept) can be consumed now.
    /// Like POLLIN, this is also set at EOF so the reader observes it.
    pub readable: bool,
    /// Send-buffer room is available and the state still admits sending.
    pub writable: bool,
    /// The peer hung up: EOF received, connection closed or aborted.
    pub hup: bool,
}

/// User-visible socket events, drained via [`crate::TcpStack::poll_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockEvent {
    /// Active open completed.
    Connected(SocketId),
    /// A listener has a connection ready to accept.
    Acceptable(SocketId),
    /// New data is readable.
    Readable(SocketId),
    /// Send-buffer space became available.
    Writable(SocketId),
    /// Peer closed its direction (FIN received, EOF after drained data).
    PeerClosed(SocketId),
    /// Connection fully closed / reached TIME_WAIT.
    Closed(SocketId),
    /// Connection aborted: RST, retransmission limit, or listener overflow.
    Aborted(SocketId),
}

impl SockEvent {
    pub fn socket(&self) -> SocketId {
        match *self {
            SockEvent::Connected(s)
            | SockEvent::Acceptable(s)
            | SockEvent::Readable(s)
            | SockEvent::Writable(s)
            | SockEvent::PeerClosed(s)
            | SockEvent::Closed(s)
            | SockEvent::Aborted(s) => s,
        }
    }
}

/// Errors returned by socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Unknown socket id.
    NoSocket,
    /// Operation invalid in the current state.
    BadState,
    /// Address/port already in use.
    AddrInUse,
    /// No ephemeral ports left.
    NoPorts,
    /// Send/receive buffer is full/empty.
    WouldBlock,
    /// The connection was reset by the peer.
    Reset,
    /// The connection timed out (retransmission limit).
    TimedOut,
    /// The stack's connection-memory budget is exhausted
    /// (`TcpConfig::conn_memory_limit`).
    NoMemory,
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for TcpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_capabilities() {
        assert!(TcpState::Established.can_send());
        assert!(
            TcpState::CloseWait.can_send(),
            "peer closed, we can still send"
        );
        assert!(!TcpState::FinWait1.can_send(), "we closed, no more sending");
        assert!(TcpState::FinWait1.can_recv());
        assert!(!TcpState::CloseWait.can_recv(), "peer already sent FIN");
        assert!(TcpState::Closed.is_closed());
        assert!(!TcpState::TimeWait.is_closed());
    }

    #[test]
    fn event_socket_accessor() {
        let id = SocketId(7);
        for e in [
            SockEvent::Connected(id),
            SockEvent::Readable(id),
            SockEvent::Aborted(id),
        ] {
            assert_eq!(e.socket(), id);
        }
    }

    #[test]
    fn default_config_sane() {
        let c = TcpConfig::default();
        assert!(c.mss >= 536);
        assert!(c.send_buf >= c.mss as usize);
        assert_eq!(c.time_wait_ns, 10_000_000_000);
    }
}
