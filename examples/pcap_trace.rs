//! Write a Wireshark-readable pcap of a complete HTTP-over-TCP exchange —
//! ARP resolution, three-way handshake, request/response, and the FIN
//! close — produced entirely by this repository's protocol stack.
//!
//! ```sh
//! cargo run --release --example pcap_trace
//! # then: wireshark neat-trace.pcap
//! ```

use neat::netcode::{FrameIo, RxClass};
use neat_net::pcap::PcapWriter;
use neat_net::{MacAddr, PktBuf, TcpHeader};
use neat_tcp::{TcpConfig, TcpStack};
use std::net::Ipv4Addr;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);

struct Host {
    io: FrameIo,
    stack: TcpStack,
}

impl Host {
    fn new(ip: Ipv4Addr, mac: MacAddr) -> Host {
        Host {
            io: FrameIo::new(ip, mac),
            stack: TcpStack::new(ip, TcpConfig::default()),
        }
    }

    /// Push stack segments into Ethernet frames (via ARP as needed).
    fn pump_out(&mut self, now: u64) -> Vec<PktBuf> {
        self.io.send_tcp(&mut self.stack, now, || {});
        self.io.drain()
    }

    fn rx(&mut self, frame: &PktBuf, now: u64) {
        if let RxClass::Tcp { src, seg } = self.io.classify_rx(frame, now) {
            if let Ok((h, range)) = TcpHeader::parse(&seg, src, self.stack.local_ip) {
                self.stack.handle_segment(src, &h, &seg[range], now);
            }
        }
    }
}

fn main() -> std::io::Result<()> {
    let file = std::fs::File::create("neat-trace.pcap")?;
    let mut pcap = PcapWriter::new(file)?;
    let mut frames_written = 0u64;

    let mut client = Host::new(CLIENT_IP, MacAddr::local(2));
    let mut server = Host::new(SERVER_IP, MacAddr::local(1));
    server.stack.listen(80).unwrap();

    let conn = client.stack.connect(SERVER_IP, 80, 0).unwrap();
    let mut now = 0u64;
    let mut srv_sock = None;
    let mut request_sent = false;
    let mut response_sent = false;
    let mut closed = false;

    for _round in 0..200 {
        now += 50_000; // 50 us per round
                       // client -> server
        for f in client.pump_out(now) {
            pcap.write_frame(now, &f)?;
            frames_written += 1;
            server.rx(&f, now);
        }
        // server -> client
        for f in server.pump_out(now) {
            pcap.write_frame(now, &f)?;
            frames_written += 1;
            client.rx(&f, now);
        }
        client.stack.on_timer(now);
        server.stack.on_timer(now);

        // Application logic.
        while let Some(ev) = server.stack.poll_event() {
            use neat_tcp::SockEvent::*;
            match ev {
                Acceptable(lid) => {
                    if let Ok(s) = server.stack.accept(lid) {
                        srv_sock = Some(s);
                    }
                }
                Readable(s) => {
                    let mut buf = [0u8; 512];
                    while let Ok(n) = server.stack.recv(s, &mut buf) {
                        if n == 0 {
                            break;
                        }
                        print!("server got: {}", String::from_utf8_lossy(&buf[..n]));
                    }
                    if !response_sent {
                        response_sent = true;
                        let body = "HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\nhello, world\n";
                        server.stack.send(s, body.as_bytes()).unwrap();
                    }
                }
                _ => {}
            }
        }
        while let Some(ev) = client.stack.poll_event() {
            use neat_tcp::SockEvent::*;
            match ev {
                Connected(s) if !request_sent => {
                    request_sent = true;
                    client
                        .stack
                        .send(s, b"GET /hello HTTP/1.1\r\nHost: neat\r\n\r\n")
                        .unwrap();
                }
                Readable(s) => {
                    let mut buf = [0u8; 512];
                    while let Ok(n) = client.stack.recv(s, &mut buf) {
                        if n == 0 {
                            break;
                        }
                        print!("client got: {}", String::from_utf8_lossy(&buf[..n]));
                    }
                    if !closed {
                        closed = true;
                        client.stack.close(conn, now).unwrap();
                        if let Some(ss) = srv_sock {
                            let _ = server.stack.close(ss, now);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    println!("\nwrote {frames_written} frames to neat-trace.pcap");
    println!("(ARP request/reply, SYN/SYN-ACK/ACK, HTTP request/response, FIN close)");
    println!("open it with: wireshark neat-trace.pcap  /  tcpdump -r neat-trace.pcap");
    Ok(())
}
