//! TCB checkpoints for flow replication (§3.6 extension).
//!
//! A checkpoint is the per-connection state one replica ships to its buddy
//! so a restarted (or rebalanced) replica can resume the flow: the V4 wire
//! format, appended straight from the socket's components to a caller's
//! buffer by [`TcpSocket::checkpoint_into`] and read straight into a fresh
//! socket by [`TcpSocket::from_checkpoint`]. Each field is named once per
//! direction. The reader is canonical — it accepts exactly the images the
//! writer can produce, so re-encoding what `from_checkpoint(b)` returns
//! gives `b` again for every `b` it accepts (property-tested) and a flow
//! survives any number of hops unchanged.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::components::{self, CongestionControl};
use crate::deadline::Deadline;
use crate::socket::TcpSocket;
use crate::types::{CongestionAlgo, SocketId, TcpConfig, TcpState, RECV_BUF, SEND_BUF};
use neat_net::tcp::MSS;
use neat_net::SeqNum;
use neat_util::bytes::Reader;
use std::net::Ipv4Addr;

/// Wire format version tag — the first byte of every image. V2 appended
/// the selected congestion algorithm; V3 drops the three per-socket
/// segment and retransmit counters V2 carried before it, which nothing
/// read; V4 drops the two ring capacities, which are always [`SEND_BUF`]
/// and [`RECV_BUF`]. Older images no longer decode — replicas upgrade in
/// lockstep.
const TCB_IMAGE_V4: u8 = 4;

/// An image's length without its two stream rings, every option present.
const IMAGE_FIXED_MAX: usize = 171;

/// Does this state carry resumable stream state worth replicating?
/// Handshake-in-progress and torn-down flows are recreated (or forgotten)
/// by the normal protocol machinery instead.
pub(crate) fn replicable(state: TcpState) -> bool {
    matches!(
        state,
        TcpState::Established
            | TcpState::FinWait1
            | TcpState::FinWait2
            | TcpState::Closing
            | TcpState::CloseWait
            | TcpState::LastAck
    )
}

/// Checkpoint / restore for flow replication.
impl TcpSocket {
    /// Append the transferable TCB to `w` as little-endian V4 bytes:
    /// everything a peer replica needs to resume this connection. The
    /// image goes wherever the caller wants it (a replication delta writes
    /// it in place after its record header), so checkpointing allocates
    /// only if `w` must grow. The congestion controller's *dynamic* state,
    /// the out-of-order bytes held past the receive ring's in-order mark,
    /// and the outstanding RTT sample are deliberately not part of the
    /// image — cc restarts from slow-start parameters (but keeps its
    /// selected algorithm), held bytes are refilled by peer retransmission,
    /// and Karn's rule says a sample that spans a migration must be
    /// discarded anyway. The f64s of the RTT estimator travel as raw bits.
    pub fn checkpoint_into(&self, w: &mut Vec<u8>) {
        let (cm, rel, fc) = (&self.cm, &self.rel, &self.fc);
        let send = &rel.send_buf;
        let recv = &fc.recv_buf;
        w.reserve(IMAGE_FIXED_MAX + send.len() + recv.len());
        w.push(TCB_IMAGE_V4);
        w.push(state_code(cm.state));
        w.extend(self.local_ip.octets());
        w.extend(self.local_port.to_le_bytes());
        w.extend(self.remote_ip.octets());
        w.extend(self.remote_port.to_le_bytes());
        for seq in [
            cm.iss,
            cm.irs,
            rel.snd_nxt,
            fc.snd_wl1,
            fc.snd_wl2,
            send.base(),
            fc.rcv_nxt,
        ] {
            w.extend(seq.0.to_le_bytes());
        }
        w.extend((fc.snd_wnd as u64).to_le_bytes());
        w.extend(self.mss.to_le_bytes());
        w.push(fc.snd_wscale);
        w.push(fc.rcv_wscale);
        w.push(cm.syn_sent as u8);
        put_ring(w, send.slices(send.base(), send.len()));
        put_ring(w, recv.as_slices());
        w.push(cm.peer_fin_rcvd as u8);
        w.push(cm.close_requested as u8);
        put_opt(w, cm.fin_seq.map(|s| s.0 as u64));
        put_opt(w, rel.rtx_deadline.get());
        w.push(rel.rtx_now as u8);
        w.extend(rel.retries.to_le_bytes());
        w.extend(rel.dup_acks.to_le_bytes());
        put_opt(w, rel.rtt.srtt.map(f64::to_bits));
        w.extend(rel.rtt.rttvar.to_bits().to_le_bytes());
        w.extend(rel.rtt.rto_ns.to_le_bytes());
        w.extend(rel.rtt.base_rto_ns.to_le_bytes());
        w.extend(rel.rtt.backoffs.to_le_bytes());
        w.extend(fc.ack_pending.to_le_bytes());
        put_opt(w, fc.ack_deadline.get());
        w.push(fc.ack_now as u8);
        put_opt(w, cm.time_wait_deadline.get());
        put_opt(w, fc.probe_deadline.get());
        put_opt(w, cm.keepalive_deadline.get());
        w.push(algo_code(self.cc.algo()));
    }

    /// Rebuild a socket from a checkpoint under a (possibly new) id; `None`
    /// for any input [`TcpSocket::checkpoint_into`] cannot have written —
    /// truncated, trailing bytes, bad version, state, algorithm, flag or
    /// option tag, a `fin_seq` past 32 bits, a ring longer than its
    /// capacity, a deadline at the unarmed mark. The deadlines in the image are absolute simulation times,
    /// so a deadline that expired while the flow was in transit fires on
    /// the next timer tick — which is exactly the retransmission that
    /// re-synchronizes the peer after the migration gap.
    pub fn from_checkpoint(id: SocketId, cfg: &TcpConfig, bytes: &[u8]) -> Option<TcpSocket> {
        let mut r = Reader(bytes);
        if r.u8()? != TCB_IMAGE_V4 {
            return None;
        }
        let state = state_from_code(r.u8()?)?;
        let local = (Ipv4Addr::from(r.arr()?), r.u16()?);
        let remote = (Ipv4Addr::from(r.arr()?), r.u16()?);
        // Reno, which lives in place, holds the seat until the image's
        // last byte names the controller: a restore boxes at most that one.
        let reno = components::make(CongestionAlgo::Reno, MSS);
        let mut s = TcpSocket::new(id, cfg, r.seq()?, local, remote, reno);
        s.cm.state = state;
        s.cm.irs = r.seq()?;
        s.rel.snd_nxt = r.seq()?;
        s.fc.snd_wl1 = r.seq()?;
        s.fc.snd_wl2 = r.seq()?;
        let send_base = r.seq()?;
        s.fc.rcv_nxt = r.seq()?;
        s.fc.snd_wnd = r.usize()?;
        s.mss = r.u16()?;
        s.fc.snd_wscale = r.u8()?;
        s.fc.rcv_wscale = r.u8()?;
        s.cm.syn_sent = r.flag()?;
        s.rel.send_buf = SendBuffer::from_parts(send_base, r.ring()?, SEND_BUF)?;
        s.fc.recv_buf = RecvBuffer::from_parts(r.ring()?, RECV_BUF)?;
        s.cm.peer_fin_rcvd = r.flag()?;
        s.cm.close_requested = r.flag()?;
        s.cm.fin_seq = r.opt()?.map(u32::try_from).transpose().ok()?.map(SeqNum);
        s.rel.rtx_deadline = r.deadline()?;
        s.rel.rtx_now = r.flag()?;
        s.rel.retries = r.u32()?;
        s.rel.dup_acks = r.u32()?;
        s.rel.rtt.srtt = r.opt()?.map(f64::from_bits);
        s.rel.rtt.rttvar = f64::from_bits(r.u64()?);
        s.rel.rtt.rto_ns = r.u64()?;
        s.rel.rtt.base_rto_ns = r.u64()?;
        s.rel.rtt.backoffs = r.u32()?;
        s.fc.ack_pending = r.u32()?;
        s.fc.ack_deadline = r.deadline()?;
        s.fc.ack_now = r.flag()?;
        s.cm.time_wait_deadline = r.deadline()?;
        s.fc.probe_deadline = r.deadline()?;
        s.cm.keepalive_deadline = r.deadline()?;
        s.cc = components::make(algo_from_code(r.u8()?)?, s.mss);
        r.0.is_empty().then_some(s)
    }
}

fn state_code(s: TcpState) -> u8 {
    match s {
        TcpState::Closed => 0,
        TcpState::Listen => 1,
        TcpState::SynSent => 2,
        TcpState::SynReceived => 3,
        TcpState::Established => 4,
        TcpState::FinWait1 => 5,
        TcpState::FinWait2 => 6,
        TcpState::Closing => 7,
        TcpState::TimeWait => 8,
        TcpState::CloseWait => 9,
        TcpState::LastAck => 10,
    }
}

fn state_from_code(c: u8) -> Option<TcpState> {
    Some(match c {
        0 => TcpState::Closed,
        1 => TcpState::Listen,
        2 => TcpState::SynSent,
        3 => TcpState::SynReceived,
        4 => TcpState::Established,
        5 => TcpState::FinWait1,
        6 => TcpState::FinWait2,
        7 => TcpState::Closing,
        8 => TcpState::TimeWait,
        9 => TcpState::CloseWait,
        10 => TcpState::LastAck,
        _ => return None,
    })
}

fn algo_code(a: CongestionAlgo) -> u8 {
    match a {
        CongestionAlgo::Reno => 0,
        CongestionAlgo::Cubic => 1,
        CongestionAlgo::Bbr => 2,
        CongestionAlgo::Dctcp => 3,
    }
}

fn algo_from_code(c: u8) -> Option<CongestionAlgo> {
    Some(match c {
        0 => CongestionAlgo::Reno,
        1 => CongestionAlgo::Cubic,
        2 => CongestionAlgo::Bbr,
        3 => CongestionAlgo::Dctcp,
        _ => return None,
    })
}

/// A stream ring: `u32` length, then its bytes in stream order.
fn put_ring(w: &mut Vec<u8>, (a, b): (&[u8], &[u8])) {
    w.extend(((a.len() + b.len()) as u32).to_le_bytes());
    w.extend_from_slice(a);
    w.extend_from_slice(b);
}

/// An option: tag 0, or tag 1 and the value.
fn put_opt(w: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            w.push(1);
            w.extend(x.to_le_bytes());
        }
        None => w.push(0),
    }
}

/// The image's own field kinds, over the shared byte reader.
trait ImageRead<'a> {
    fn usize(&mut self) -> Option<usize>;
    fn seq(&mut self) -> Option<SeqNum>;
    fn flag(&mut self) -> Option<bool>;
    fn opt(&mut self) -> Option<Option<u64>>;
    fn deadline(&mut self) -> Option<Deadline>;
    fn ring(&mut self) -> Option<&'a [u8]>;
}

impl<'a> ImageRead<'a> for Reader<'a> {
    fn usize(&mut self) -> Option<usize> {
        self.u64()?.try_into().ok()
    }

    fn seq(&mut self) -> Option<SeqNum> {
        Some(SeqNum(self.u32()?))
    }

    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn opt(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    /// An option whose value, if present, is an armed instant.
    fn deadline(&mut self) -> Option<Deadline> {
        match self.opt()? {
            None => Some(Deadline::UNARMED),
            Some(at) => Deadline::armed(at),
        }
    }

    fn ring(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
#[path = "tcb_tests.rs"]
mod tests;
