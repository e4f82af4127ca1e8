//! TCP segmentation offload: the host hands the NIC one oversized TCP
//! frame; the hardware cuts it into MSS-sized wire segments, fixing up
//! sequence numbers, lengths, flags, and checksums.
//!
//! A cut is made in place (see [`cut`]): the frame's payload is spread
//! through its own block, every wire segment is a window of that block,
//! and the headers the cut adds go into room the frame was built with
//! ([`room`]). A frame without that room, or one whose block is shared, is
//! first copied into one fresh block that has it.
//!
//! The paper's testbed relies on this ("TSO … greatly improves performance
//! and allows smaller configurations to reach a full 10Gb/s", §6).

use neat_net::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use neat_net::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use neat_net::tcp::{TcpHeader, TCP_HEADER_LEN};
use neat_net::PktBuf;
use std::ops::Range;

/// The segment size the NIC cuts oversized TX frames to: the link's MSS.
/// A host builds a frame's [`room`] for it.
pub const TSO_MSS: usize = neat_net::tcp::MSS as usize;

/// Where a cut segment's TCP header starts.
const L4_OFF: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
/// A cut segment's bytes before its chunk.
const SEG_HEADERS: usize = L4_OFF + TCP_HEADER_LEN;

/// The bytes a cut of a `payload`-byte super-segment at `mss` adds to its
/// frame: one segment's three headers for every chunk past the first. A
/// frame built with this much room past its window is cut in place.
pub fn room(payload: usize, mss: usize) -> usize {
    if mss == 0 || payload <= mss {
        return 0;
    }
    (payload.div_ceil(mss) - 1) * SEG_HEADERS
}

/// Split an Ethernet frame carrying an oversized IPv4/TCP payload into
/// MSS-sized frames, all windows of one block. Everything else — not IPv4,
/// not TCP, a header that does not parse or verify, a payload already
/// within `mss`, an `mss` of zero — passes the original handle through
/// untouched.
pub fn tso_split(frame: PktBuf, mss: usize) -> Vec<PktBuf> {
    let mut out = Vec::new();
    if let Err(frame) = cut(frame, mss, |seg| out.push(seg)) {
        out.push(frame);
    }
    out
}

/// Hand `each` the segments of `frame` in order, or hand the frame back
/// untouched, without calling `each`, when it is not to be split. The one
/// parse of the three headers (both checksums verified) happens here.
///
/// The segments, headers included, lie back to back in one block, and
/// each wire frame `each` gets is a [`PktBuf::window`] of it. When `frame`
/// is its block's only handle, carries its payload right behind one
/// segment's headers and has [`room`] past its window, that block is the
/// frame's own and the cut grants nothing; otherwise it is one fresh grant
/// the payload is copied into first. The windows count no avoided copy,
/// and the block returns when the last one drops.
pub fn cut(mut frame: PktBuf, mss: usize, mut each: impl FnMut(PktBuf)) -> Result<(), PktBuf> {
    let Some(sup) = SuperSegment::parse(&frame, mss) else {
        return Err(frame);
    };
    let payload = sup.payload.clone();
    let extra = room(payload.len(), mss);
    let in_place = payload.start == SEG_HEADERS && payload.end == frame.len();
    let own = if in_place {
        frame.widen_mut(extra)
    } else {
        None
    };
    let whole = match own {
        Some(buf) => {
            sup.spread(buf, mss);
            frame
        }
        None => PktBuf::build(SEG_HEADERS + payload.len() + extra, |buf| {
            buf[SEG_HEADERS..SEG_HEADERS + payload.len()].copy_from_slice(&frame[payload.clone()]);
            sup.spread(buf, mss);
        }),
    };
    let mut off = 0;
    for start in (0..payload.len()).step_by(mss) {
        let len = SEG_HEADERS + mss.min(payload.len() - start);
        each(whole.window(off, len));
        off += len;
    }
    Ok(())
}

/// The three headers of a frame to be cut, and where its payload lies.
struct SuperSegment {
    eth: EthernetFrame,
    ip: Ipv4Header,
    tcp: TcpHeader,
    payload: Range<usize>,
}

impl SuperSegment {
    /// The frame's headers, if it is an IPv4/TCP frame that verifies and
    /// whose payload is longer than a (non-zero) `mss`.
    fn parse(frame: &[u8], mss: usize) -> Option<SuperSegment> {
        let (eth, ip_off) = EthernetFrame::parse(frame).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let (ip, l4_range) = Ipv4Header::parse(&frame[ip_off..]).ok()?;
        if ip.protocol != IpProtocol::Tcp {
            return None;
        }
        let l4_off = ip_off + l4_range.start;
        let (tcp, payload) =
            TcpHeader::parse(&frame[l4_off..ip_off + l4_range.end], ip.src, ip.dst).ok()?;
        if mss == 0 || payload.len() <= mss {
            return None;
        }
        Some(SuperSegment {
            eth,
            ip,
            tcp,
            payload: l4_off + payload.start..l4_off + payload.end,
        })
    }

    /// The one spread: `buf` holds exactly the wire segments, and the
    /// payload starts [`SEG_HEADERS`] into it. Each chunk moves to its
    /// segment's place, last chunk first, so none is overwritten before it
    /// has moved; then the segment's three headers are written into the
    /// gap in front of it and the segment is summed.
    fn spread(&self, buf: &mut [u8], mss: usize) {
        let (src, dst) = (self.ip.src, self.ip.dst);
        let total = self.payload.len();
        for i in (0..total.div_ceil(mss)).rev() {
            let off = i * mss;
            let len = mss.min(total - off);
            let at = i * (SEG_HEADERS + mss);
            if i > 0 {
                buf.copy_within(SEG_HEADERS + off..SEG_HEADERS + off + len, at + SEG_HEADERS);
            }
            let f = &mut buf[at..at + SEG_HEADERS + len];
            let last = off + len == total;
            let mut h = self.tcp;
            h.seq = self.tcp.seq + off as u32;
            // FIN/PSH only on the final segment.
            h.flags.fin = self.tcp.flags.fin && last;
            h.flags.psh = self.tcp.flags.psh && last;
            // Options (MSS/wscale) belong to SYN segments only; data frames
            // here never carry them, but clear defensively.
            h.mss = None;
            h.window_scale = None;
            self.eth.emit_header_to(f);
            Ipv4Header::new(src, dst, IpProtocol::Tcp, TCP_HEADER_LEN + len)
                .emit_header_to(&mut f[ETHERNET_HEADER_LEN..]);
            h.emit_over(&mut f[L4_OFF..], src, dst);
        }
    }
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

    /// A 4 000 B frame built with [`room`] is cut in place: no grant, and
    /// its three segments are windows of the frame's own block, back to
    /// back from its start in the order they go out; they count no avoided
    /// copy, and the block is outstanding until the last of them drops. A
    /// shared frame is cut with one grant and keeps its bytes.
    #[test]
    fn a_cut_is_one_grant_and_its_segments_are_windows() {
        let bytes = build(&[9u8; 4000], TcpFlags::psh_ack());
        let with_room = || {
            PktBuf::build_with_room(bytes.len(), room(4000, 1460), |b| b.copy_from_slice(&bytes))
        };
        let start = neat_net::pktbuf::stats();
        let f = with_room();
        let mut next = f.as_ptr();
        let before = neat_net::pktbuf::stats();
        let mut out = tso_split(f, 1460);
        assert_eq!(out.len(), 3);
        let after = neat_net::pktbuf::stats();
        assert_eq!(after.grants, before.grants, "a cut in place grants nothing");
        assert_eq!(after.copies_avoided, before.copies_avoided);
        for seg in &out {
            assert_eq!(seg.refcount(), 3, "every segment holds the frame's block");
            assert_eq!(seg.as_ptr(), next, "segments sit back to back in it");
            next = next.wrapping_add(seg.len());
        }
        while out.len() > 1 {
            drop(out.remove(0));
            assert_eq!(
                neat_net::pktbuf::stats().outstanding,
                start.outstanding + 1,
                "the frame's block held"
            );
        }
        drop(out);
        assert_eq!(neat_net::pktbuf::stats().outstanding, start.outstanding);

        let f = with_room();
        let keep = f.clone();
        let before = neat_net::pktbuf::stats();
        let out = tso_split(f, 1460);
        assert_eq!(
            neat_net::pktbuf::stats().grants - before.grants,
            1,
            "copied once"
        );
        assert_eq!(&keep[..], &bytes[..], "a shared frame keeps its bytes");
        assert_eq!(keep.refcount(), 1, "no segment is a window of it");
        assert!(out.iter().all(|seg| seg.refcount() == 3));
    }

    /// `room` is what a cut adds: the segments of a frame built with it
    /// fill the frame's block exactly.
    #[test]
    fn room_is_one_segments_headers_per_extra_chunk() {
        assert_eq!(room(1460, 1460), 0);
        assert_eq!(room(1461, 1460), SEG_HEADERS);
        assert_eq!(room(4000, 0), 0);
        let bytes = build(&[1u8; 2921], TcpFlags::psh_ack());
        let f =
            PktBuf::build_with_room(bytes.len(), room(2921, 1460), |b| b.copy_from_slice(&bytes));
        let out = tso_split(f, 1460);
        let total: usize = out.iter().map(|seg| seg.len()).sum();
        assert_eq!(total, bytes.len() + room(2921, 1460));
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
