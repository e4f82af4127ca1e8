//! TCP segmentation offload: the host hands the NIC one oversized TCP
//! frame; the hardware cuts it into MSS-sized wire segments, fixing up
//! sequence numbers, lengths, flags, and checksums.
//!
//! A cut grants one buffer, and every wire segment is a window of it (see
//! [`cut`]).
//!
//! The paper's testbed relies on this ("TSO … greatly improves performance
//! and allows smaller configurations to reach a full 10Gb/s", §6).

use neat_net::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use neat_net::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use neat_net::tcp::{TcpHeader, TCP_HEADER_LEN};
use neat_net::PktBuf;

/// Where a cut segment's TCP header starts.
const L4_OFF: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
/// A cut segment's bytes before its chunk.
const SEG_HEADERS: usize = L4_OFF + TCP_HEADER_LEN;

/// Split an Ethernet frame carrying an oversized IPv4/TCP payload into
/// MSS-sized frames, all windows of one fresh buffer. Everything else — not
/// IPv4, not TCP, a header that does not parse or verify, a payload already
/// within `mss`, an `mss` of zero — passes the original handle through
/// untouched.
pub fn tso_split(frame: PktBuf, mss: usize) -> Vec<PktBuf> {
    let mut out = Vec::new();
    if cut(&frame, mss, |seg| out.push(seg)).is_none() {
        out.push(frame);
    }
    out
}

/// Hand `each` the segments of `frame` in order, or return `None` without
/// calling it when the frame is not to be split. The one parse of the
/// three headers (both checksums verified) happens here.
///
/// A cut is one grant: the segments, headers included, are written back
/// to back into one buffer, and each wire frame `each` gets is a
/// [`PktBuf::window`] of it. The windows count no avoided copy (the
/// payload was copied), and the grant returns when the last one drops.
pub fn cut(frame: &[u8], mss: usize, mut each: impl FnMut(PktBuf)) -> Option<()> {
    let (eth, ip_off) = EthernetFrame::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let (ip, l4_range) = Ipv4Header::parse(&frame[ip_off..]).ok()?;
    if ip.protocol != IpProtocol::Tcp {
        return None;
    }
    let l4 = &frame[ip_off..][l4_range];
    let (tcp, payload_range) = TcpHeader::parse(l4, ip.src, ip.dst).ok()?;
    let payload = &l4[payload_range];
    if mss == 0 || payload.len() <= mss {
        return None;
    }
    // One segment's three headers and its chunk, written into `f` in place.
    let segment = |i: usize, chunk: &[u8], f: &mut [u8]| {
        let off = i * mss;
        let last = off + chunk.len() == payload.len();
        let mut h = tcp;
        h.seq = tcp.seq + off as u32;
        // FIN/PSH only on the final segment.
        h.flags.fin = tcp.flags.fin && last;
        h.flags.psh = tcp.flags.psh && last;
        // Options (MSS/wscale) belong to SYN segments only; data frames
        // here never carry them, but clear defensively.
        h.mss = None;
        h.window_scale = None;
        let l4_len = TCP_HEADER_LEN + chunk.len();
        eth.emit_header_to(f);
        Ipv4Header::new(ip.src, ip.dst, IpProtocol::Tcp, l4_len)
            .emit_header_to(&mut f[ETHERNET_HEADER_LEN..]);
        h.emit_to(&mut f[L4_OFF..], &[chunk], ip.src, ip.dst);
    };
    let len = payload.len().div_ceil(mss) * SEG_HEADERS + payload.len();
    let whole = PktBuf::build(len, |mut rest| {
        for (i, chunk) in payload.chunks(mss).enumerate() {
            let (f, tail) = std::mem::take(&mut rest).split_at_mut(SEG_HEADERS + chunk.len());
            segment(i, chunk, f);
            rest = tail;
        }
    });
    let mut off = 0;
    for chunk in payload.chunks(mss) {
        let len = SEG_HEADERS + chunk.len();
        each(whole.window(off, len));
        off += len;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_net::tcp::TcpFlags;
    use neat_net::{MacAddr, SeqNum};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn build(payload: &[u8], flags: TcpFlags) -> Vec<u8> {
        let tcp = TcpHeader::new(1234, 80, SeqNum(1000), SeqNum(50), flags).emit(payload, SRC, DST);
        let ip = Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len()).emit(&tcp);
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
        .emit(&ip)
    }

    fn parse_seg(frame: &[u8]) -> (TcpHeader, Vec<u8>) {
        let (_, off) = EthernetFrame::parse(frame).unwrap();
        let (ip, r) = Ipv4Header::parse(&frame[off..]).unwrap();
        let l4 = &frame[off..][r];
        let (h, pr) = TcpHeader::parse(l4, ip.src, ip.dst).unwrap();
        (h, l4[pr].to_vec())
    }

    #[test]
    fn small_frame_passthrough() {
        let f = build(b"tiny", TcpFlags::psh_ack());
        let out = tso_split(f.clone().into(), 1460);
        assert_eq!(out, vec![PktBuf::from(f)]);
    }

    #[test]
    fn passthrough_keeps_the_handle() {
        let f = PktBuf::from(build(b"tiny", TcpFlags::psh_ack()));
        let before = neat_net::pktbuf::stats();
        let out = tso_split(f.clone(), 1460);
        assert_eq!(out.len(), 1);
        assert_eq!(
            f.refcount(),
            2,
            "the output is a handle on the input's storage"
        );
        assert_eq!(neat_net::pktbuf::stats().grants, before.grants, "no grant");
    }

    /// A 4 000 B cut is one grant; its three segments are windows of it,
    /// back to back in the order they go out; they count no avoided copy;
    /// and the grant is outstanding until the last of them drops.
    #[test]
    fn a_cut_is_one_grant_and_its_segments_are_windows() {
        let start = neat_net::pktbuf::stats();
        let f = PktBuf::from(build(&[9u8; 4000], TcpFlags::psh_ack()));
        let before = neat_net::pktbuf::stats();
        let mut out = tso_split(f, 1460);
        assert_eq!(out.len(), 3);
        let after = neat_net::pktbuf::stats();
        assert_eq!(after.grants - before.grants, 1, "one grant per cut");
        assert_eq!(after.copies_avoided, before.copies_avoided);
        let mut next = out[0].as_ptr();
        for seg in &out {
            assert_eq!(seg.refcount(), 3, "every segment holds the one grant");
            assert_eq!(seg.as_ptr(), next, "segments sit back to back");
            next = next.wrapping_add(seg.len());
        }
        while out.len() > 1 {
            drop(out.remove(0));
            assert_eq!(
                neat_net::pktbuf::stats().outstanding,
                start.outstanding + 1,
                "the input released, the cut's grant held"
            );
        }
        drop(out);
        assert_eq!(neat_net::pktbuf::stats().outstanding, start.outstanding);
    }

    /// Corrupting one segment of a cut re-grants it: the shared grant is
    /// never written through, so every sibling keeps its bytes.
    #[test]
    fn corrupting_a_segment_leaves_its_siblings() {
        use crate::faults::{FaultConfig, FaultInjector, FaultOutcome};
        let f = PktBuf::from(build(&[5u8; 5000], TcpFlags::psh_ack()));
        let out = tso_split(f, 1460);
        let copies: Vec<Vec<u8>> = out.iter().map(|seg| seg.to_vec()).collect();
        let cfg = FaultConfig {
            corrupt_pct: 100,
            ..Default::default()
        };
        let mut faults = FaultInjector::new(cfg, 7);
        for i in 0..out.len() {
            let grants = neat_net::pktbuf::stats().grants;
            let FaultOutcome::Corrupted(bad) = faults.apply(out[i].clone()) else {
                panic!("corrupt_pct 100 corrupts");
            };
            assert_eq!(neat_net::pktbuf::stats().grants, grants + 1, "re-granted");
            assert_ne!(bad.to_vec(), copies[i]);
            for (seg, copy) in out.iter().zip(&copies) {
                assert_eq!(&seg[..], &copy[..], "a sibling's bytes moved");
            }
        }
    }

    #[test]
    fn oversized_frame_splits_with_correct_seqs() {
        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 256) as u8).collect();
        let f = build(&payload, TcpFlags::psh_ack());
        let out = tso_split(f.into(), 1460);
        assert_eq!(out.len(), 3);
        let mut reassembled = Vec::new();
        let mut expect_seq = SeqNum(1000);
        for (i, frame) in out.iter().enumerate() {
            let (h, p) = parse_seg(frame);
            assert_eq!(h.seq, expect_seq, "segment {i} sequence");
            assert!(h.flags.ack);
            let last = i == out.len() - 1;
            assert_eq!(h.flags.psh, last, "PSH only on the last segment");
            expect_seq += p.len() as u32;
            reassembled.extend_from_slice(&p);
        }
        assert_eq!(reassembled, payload);
    }

    #[test]
    fn fin_only_on_last() {
        let payload = vec![7u8; 3000];
        let f = build(&payload, TcpFlags::fin_ack());
        let out = tso_split(f.into(), 1460);
        assert!(out.len() > 1);
        for (i, frame) in out.iter().enumerate() {
            let (h, _) = parse_seg(frame);
            assert_eq!(h.flags.fin, i == out.len() - 1);
        }
    }

    #[test]
    fn checksums_valid_after_split() {
        // parse_seg would fail on a bad checksum; also verify IP header.
        let payload = vec![1u8; 5000];
        let f = build(&payload, TcpFlags::psh_ack());
        for frame in tso_split(f.into(), 1000) {
            let (_, off) = EthernetFrame::parse(&frame).unwrap();
            assert!(Ipv4Header::parse(&frame[off..]).is_ok());
            parse_seg(&frame);
        }
    }

    #[test]
    fn non_tcp_passthrough() {
        let udpish = {
            let ip = Ipv4Header::new(SRC, DST, IpProtocol::Udp, 3000).emit(&vec![0u8; 3000]);
            EthernetFrame {
                dst: MacAddr::local(1),
                src: MacAddr::local(2),
                ethertype: EtherType::Ipv4,
            }
            .emit(&ip)
        };
        // An oversized TCP frame whose checksum does not verify is not the
        // NIC's to cut either: it leaves as the one frame it came in as.
        let mut bad_tcp = build(&[3u8; 4000], TcpFlags::psh_ack());
        *bad_tcp.last_mut().unwrap() ^= 0xff;
        for f in [udpish, bad_tcp] {
            assert_eq!(tso_split(f.clone().into(), 1460), vec![PktBuf::from(f)]);
        }
    }
}
