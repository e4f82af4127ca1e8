//! ICMPv4 (RFC 792): echo request/reply and destination unreachable — the
//! messages the paper's packet-filter/UDP components generate and consume.

use crate::checksum;
use crate::wire::{get_u16, need, set_u16, NetError, NetResult};

/// ICMPv4 messages this stack understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    EchoRequest {
        ident: u16,
        seq: u16,
        data: Vec<u8>,
    },
    EchoReply {
        ident: u16,
        seq: u16,
        data: Vec<u8>,
    },
    /// Destination unreachable; `code` 3 = port unreachable. Carries the
    /// offending datagram's IP header + 8 bytes.
    DestUnreachable {
        code: u8,
        original: Vec<u8>,
    },
}

impl IcmpMessage {
    pub fn parse(buf: &[u8]) -> NetResult<IcmpMessage> {
        need(buf, 8)?;
        if !checksum::verify(buf) {
            return Err(NetError::BadChecksum);
        }
        match buf[0] {
            8 | 0 => {
                let ident = get_u16(buf, 4);
                let seq = get_u16(buf, 6);
                let data = buf[8..].to_vec();
                Ok(if buf[0] == 8 {
                    IcmpMessage::EchoRequest { ident, seq, data }
                } else {
                    IcmpMessage::EchoReply { ident, seq, data }
                })
            }
            3 => Ok(IcmpMessage::DestUnreachable {
                code: buf[1],
                original: buf[8..].to_vec(),
            }),
            _ => Err(NetError::Unsupported),
        }
    }

    /// The message with its checksum, header and body in one reservation.
    pub fn emit(&self) -> Vec<u8> {
        let mut h = [0u8; 8];
        let body = match self {
            IcmpMessage::EchoRequest { ident, seq, data }
            | IcmpMessage::EchoReply { ident, seq, data } => {
                h[0] = if matches!(self, IcmpMessage::EchoRequest { .. }) {
                    8
                } else {
                    0
                };
                set_u16(&mut h, 4, *ident);
                set_u16(&mut h, 6, *seq);
                data
            }
            IcmpMessage::DestUnreachable { code, original } => {
                h[0] = 3;
                h[1] = *code;
                original
            }
        };
        let mut b = Vec::with_capacity(h.len() + body.len());
        b.extend_from_slice(&h);
        b.extend_from_slice(body);
        let c = checksum::checksum(&b);
        set_u16(&mut b, 2, c);
        b
    }

    /// The reply answering an echo request (same ident/seq/data).
    pub fn reply_to(req: &IcmpMessage) -> Option<IcmpMessage> {
        match req {
            IcmpMessage::EchoRequest { ident, seq, data } => Some(IcmpMessage::EchoReply {
                ident: *ident,
                seq: *seq,
                data: data.clone(),
            }),
            _ => None,
        }
    }
}

pub const PORT_UNREACHABLE: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let m = IcmpMessage::EchoRequest {
            ident: 0x1234,
            seq: 7,
            data: b"abcdefgh".to_vec(),
        };
        let bytes = m.emit();
        assert_eq!(IcmpMessage::parse(&bytes).unwrap(), m);
    }

    #[test]
    fn reply_echoes_payload() {
        let req = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 2,
            data: vec![9, 9],
        };
        let rep = IcmpMessage::reply_to(&req).unwrap();
        let bytes = rep.emit();
        match IcmpMessage::parse(&bytes).unwrap() {
            IcmpMessage::EchoReply { ident, seq, data } => {
                assert_eq!((ident, seq), (1, 2));
                assert_eq!(data, vec![9, 9]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            data: vec![1, 2, 3, 4],
        }
        .emit();
        bytes[9] ^= 0xFF;
        assert_eq!(IcmpMessage::parse(&bytes), Err(NetError::BadChecksum));
    }

    #[test]
    fn unreachable_roundtrip() {
        let m = IcmpMessage::DestUnreachable {
            code: PORT_UNREACHABLE,
            original: vec![0x45; 28],
        };
        assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn no_reply_for_replies() {
        let rep = IcmpMessage::EchoReply {
            ident: 0,
            seq: 0,
            data: vec![],
        };
        assert!(IcmpMessage::reply_to(&rep).is_none());
    }
}
