//! TCB checkpoints for flow replication (§3.6 extension).
//!
//! A checkpoint is the per-connection state one replica ships to its buddy
//! so a restarted (or rebalanced) replica can resume the flow: the V2 wire
//! format, written straight from the socket's components by
//! [`TcpSocket::checkpoint`] and read straight into a fresh socket by
//! [`TcpSocket::from_checkpoint`]. Each field is named once per direction.
//! The reader is canonical — it accepts exactly the images the writer can
//! produce, so `from_checkpoint(b)?.checkpoint() == b` for every `b` it
//! accepts (property-tested) and a flow survives any number of hops
//! unchanged.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::components;
use crate::socket::TcpSocket;
use crate::types::{CongestionAlgo, SocketId, TcpConfig, TcpState};
use neat_net::SeqNum;
use std::net::Ipv4Addr;

/// Wire format version tag — the first byte of every image. V2 appends the
/// selected congestion algorithm; V1 images (no trailing algorithm byte)
/// no longer decode — replicas upgrade in lockstep.
const TCB_IMAGE_V2: u8 = 2;

/// An image's length without its two stream rings, every option present.
const IMAGE_FIXED_MAX: usize = 211;

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
    /// The transferable TCB as little-endian V2 bytes: everything a peer
    /// replica needs to resume this connection. The congestion
    /// controller's *dynamic* state, the out-of-order assembler, and the
    /// outstanding RTT sample are deliberately not part of the image — cc
    /// restarts from slow-start parameters (but keeps its selected
    /// algorithm), ooo segments are refilled by peer retransmission, and
    /// Karn's rule says a sample that spans a migration must be discarded
    /// anyway. The f64s of the RTT estimator travel as raw bits.
    pub fn checkpoint(&self) -> Vec<u8> {
        let (cm, rel, fc) = (&self.cm, &self.rel, &self.fc);
        let send = &rel.send_buf;
        let recv = &fc.recv_buf;
        let mut w = Vec::with_capacity(IMAGE_FIXED_MAX + send.len() + recv.len());
        w.push(TCB_IMAGE_V2);
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
        put_ring(&mut w, send.slices(send.base(), send.len()));
        w.extend(((send.room() + send.len()) as u64).to_le_bytes());
        put_ring(&mut w, recv.as_slices());
        w.extend(((recv.window() + recv.len()) as u64).to_le_bytes());
        w.push(cm.peer_fin_rcvd as u8);
        w.push(cm.close_requested as u8);
        put_opt(&mut w, cm.fin_seq.map(|s| s.0 as u64));
        put_opt(&mut w, rel.rtx_deadline);
        w.push(rel.rtx_now as u8);
        w.extend(rel.retries.to_le_bytes());
        w.extend(rel.dup_acks.to_le_bytes());
        put_opt(&mut w, rel.rtt.srtt.map(f64::to_bits));
        w.extend(rel.rtt.rttvar.to_bits().to_le_bytes());
        w.extend(rel.rtt.rto_ns.to_le_bytes());
        w.extend(rel.rtt.base_rto_ns.to_le_bytes());
        w.extend(rel.rtt.backoffs.to_le_bytes());
        w.extend(fc.ack_pending.to_le_bytes());
        put_opt(&mut w, fc.ack_deadline);
        w.push(fc.ack_now as u8);
        put_opt(&mut w, cm.time_wait_deadline);
        put_opt(&mut w, fc.probe_deadline);
        put_opt(&mut w, cm.keepalive_deadline);
        w.extend(self.tx_segments.to_le_bytes());
        w.extend(self.rx_segments.to_le_bytes());
        w.extend(self.retransmits.to_le_bytes());
        w.push(algo_code(self.cc.algo()));
        w
    }

    /// Rebuild a socket from a checkpoint under a (possibly new) id; `None`
    /// for any input [`TcpSocket::checkpoint`] cannot have written —
    /// truncated, trailing bytes, bad version, state, algorithm, flag or
    /// option tag, a `fin_seq` past 32 bits, a ring longer than its
    /// capacity. The deadlines in the image are absolute simulation times,
    /// so a deadline that expired while the flow was in transit fires on
    /// the next timer tick — which is exactly the retransmission that
    /// re-synchronizes the peer after the migration gap.
    pub fn from_checkpoint(id: SocketId, cfg: &TcpConfig, bytes: &[u8]) -> Option<TcpSocket> {
        let mut r = Reader(bytes);
        if r.u8()? != TCB_IMAGE_V2 {
            return None;
        }
        let state = state_from_code(r.u8()?)?;
        let local = (Ipv4Addr::from(r.arr()?), r.u16()?);
        let remote = (Ipv4Addr::from(r.arr()?), r.u16()?);
        let mut s = TcpSocket::new(id, cfg, r.seq()?);
        s.cm.state = state;
        (s.local_ip, s.local_port) = local;
        (s.remote_ip, s.remote_port) = remote;
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
        s.rel.send_buf = SendBuffer::from_parts(send_base, r.ring()?, r.usize()?)?;
        s.fc.recv_buf = RecvBuffer::from_parts(r.ring()?, r.usize()?)?;
        s.cm.peer_fin_rcvd = r.flag()?;
        s.cm.close_requested = r.flag()?;
        s.cm.fin_seq = r.opt()?.map(u32::try_from).transpose().ok()?.map(SeqNum);
        s.rel.rtx_deadline = r.opt()?;
        s.rel.rtx_now = r.flag()?;
        s.rel.retries = r.u32()?;
        s.rel.dup_acks = r.u32()?;
        s.rel.rtt.srtt = r.opt()?.map(f64::from_bits);
        s.rel.rtt.rttvar = f64::from_bits(r.u64()?);
        s.rel.rtt.rto_ns = r.u64()?;
        s.rel.rtt.base_rto_ns = r.u64()?;
        s.rel.rtt.backoffs = r.u32()?;
        s.fc.ack_pending = r.u32()?;
        s.fc.ack_deadline = r.opt()?;
        s.fc.ack_now = r.flag()?;
        s.cm.time_wait_deadline = r.opt()?;
        s.fc.probe_deadline = r.opt()?;
        s.cm.keepalive_deadline = r.opt()?;
        s.tx_segments = r.u64()?;
        s.rx_segments = r.u64()?;
        s.retransmits = r.u64()?;
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
        CongestionAlgo::None => 2,
        CongestionAlgo::Bbr => 3,
        CongestionAlgo::Dctcp => 4,
    }
}

fn algo_from_code(c: u8) -> Option<CongestionAlgo> {
    Some(match c {
        0 => CongestionAlgo::Reno,
        1 => CongestionAlgo::Cubic,
        2 => CongestionAlgo::None,
        3 => CongestionAlgo::Bbr,
        4 => CongestionAlgo::Dctcp,
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

/// Bounds-checked little-endian reader over the unread rest of an image.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn arr<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.arr()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.arr()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.arr()?))
    }

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

    fn ring(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
#[path = "tcb_tests.rs"]
mod tests;
