//! Shared types: socket ids, configuration, states, events, errors.

use neat_net::tcp::MSS;
use std::fmt;

/// Identifies a socket within one [`crate::TcpStack`] instance. Ids are
/// never reused within a stack's lifetime.
///
/// An id is `serial << 32 | seat`. The serial counts up from 1 in each
/// stack and is never reused, so ordering ids orders them by when the
/// stack issued them. A connection's seat is its place in the stack's slot
/// table, reused once the connection is gone; a listener's seat is
/// `u32::MAX`, which no connection takes. Serials stop below 2^30, so
/// every id is below 2^62 and a caller may tag one with a small offset in
/// a `u64`. A stack whose serials (about a billion over its life) or seats
/// run out refuses new sockets with [`TcpError::NoMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u64);

impl SocketId {
    /// A listener's seat.
    pub(crate) const LISTENER_SEAT: u32 = u32::MAX;
    /// One past the last serial a stack issues.
    pub(crate) const SERIAL_END: u32 = 1 << 30;

    pub(crate) fn new(serial: u32, seat: u32) -> SocketId {
        SocketId((serial as u64) << 32 | seat as u64)
    }

    pub(crate) fn seat(self) -> u32 {
        self.0 as u32
    }

    pub(crate) fn serial(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

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
    /// BBR-style model-based controller: paces to a bandwidth-delay
    /// product estimated from delivery-rate and min-RTT filters.
    Bbr,
    /// DCTCP-style controller: scales the window cut by the observed
    /// congestion fraction (loss events proxy for ECN marks — the sim
    /// wire format carries no ECN bits).
    Dctcp,
}

/// Send buffer capacity per socket (bytes).
pub(crate) const SEND_BUF: usize = 64 * 1024;
const _: () = assert!(SEND_BUF >= MSS as usize);

/// Receive buffer capacity per socket (bytes): the advertised window's
/// ceiling.
pub(crate) const RECV_BUF: usize = 64 * 1024;

/// Retransmissions of one segment before the connection is aborted.
pub(crate) const MAX_RETRIES: u32 = 12;

/// Per-stack tunables (the control-plane settings of §4: e.g. the
/// TIME_WAIT timeout the OS manages while the NIC runs the data plane).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// TIME_WAIT duration in nanoseconds (smoltcp uses a fixed 10 s).
    pub time_wait_ns: u64,
    /// Delayed-ACK timeout in nanoseconds (0 disables delayed ACKs).
    pub delayed_ack_ns: u64,
    /// Enable Nagle's algorithm.
    pub nagle: bool,
    /// Congestion control algorithm.
    pub congestion: CongestionAlgo,
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
            time_wait_ns: 10_000_000_000,
            delayed_ack_ns: 500_000, // 0.5 ms — LAN-scale
            nagle: true,
            congestion: CongestionAlgo::Reno,
            initial_rto_ns: 200_000_000, // 200 ms before first RTT sample
            backlog: 128,
            keepalive_ns: 0,
            gso_burst: 0,
            conn_memory_limit: 0,
        }
    }
}

/// Non-blocking readiness snapshot for one socket, as the socket library's
/// `poll(fd)` reports it. Mirrors `poll(2)`'s POLLIN/POLLHUP bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness {
    /// Data (or, for listeners, a pending accept) can be consumed now.
    /// Like POLLIN, this is also set at EOF so the reader observes it.
    pub readable: bool,
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
    /// Connection closed: reported once, on reaching TIME-WAIT or CLOSED.
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
    /// (`TcpConfig::conn_memory_limit`), or its socket ids are.
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
        assert_eq!(c.time_wait_ns, 10_000_000_000);
    }
}
