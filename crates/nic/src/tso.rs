//! TCP segmentation offload: the host hands the NIC one oversized TCP
//! frame; the hardware cuts it into MSS-sized wire segments, fixing up
//! sequence numbers, lengths, flags, and checksums.
//!
//! The paper's testbed relies on this ("TSO … greatly improves performance
//! and allows smaller configurations to reach a full 10Gb/s", §6).

use neat_net::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use neat_net::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use neat_net::tcp::{TcpHeader, TCP_HEADER_LEN};
use neat_net::PktBuf;

/// Where a cut segment's TCP header starts.
const L4_OFF: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;

/// Split an Ethernet frame carrying an oversized IPv4/TCP payload into
/// MSS-sized frames, one fresh buffer per segment. Everything else — not
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
pub fn cut(frame: &[u8], mss: usize, each: impl FnMut(PktBuf)) -> Option<()> {
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
    let segment = |(i, chunk): (usize, &[u8])| {
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
        // All three headers and the chunk are written into the one buffer
        // granted, in place.
        let l4_len = TCP_HEADER_LEN + chunk.len();
        PktBuf::build(L4_OFF + l4_len, |f| {
            eth.emit_header_to(f);
            Ipv4Header::new(ip.src, ip.dst, IpProtocol::Tcp, l4_len)
                .emit_header_to(&mut f[ETHERNET_HEADER_LEN..]);
            h.emit_to(&mut f[L4_OFF..], &[chunk], ip.src, ip.dst);
        })
    };
    payload.chunks(mss).enumerate().map(segment).for_each(each);
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

    #[test]
    fn split_grants_one_buffer_per_segment() {
        let f = PktBuf::from(build(&[9u8; 4000], TcpFlags::psh_ack()));
        let before = neat_net::pktbuf::stats();
        let out = tso_split(f, 1460);
        assert_eq!(out.len(), 3);
        let after = neat_net::pktbuf::stats();
        assert_eq!(after.grants - before.grants, 3, "no whole-frame grant");
        assert_eq!(
            after.outstanding,
            before.outstanding + 3 - 1,
            "input released"
        );
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
