//! The HTTP codec's tests: the borrowing parser and the head-only path
//! against the owning codec the former replaced, and hostile input.

use super::*;

#[test]
fn request_roundtrip() {
    let mut p = StreamParser::new();
    p.push(&format_request("/index.html", true));
    let r = p.next_request().unwrap();
    assert_eq!(r.method, "GET");
    assert_eq!(r.path, "/index.html");
    assert!(r.keep_alive);
    assert!(p.next_request().is_none());
    assert_eq!(p.buffered(), 0);
}

#[test]
fn connection_close_honored() {
    let mut p = StreamParser::new();
    p.push(&format_request("/x", false));
    assert!(!p.next_request().unwrap().keep_alive);
}

#[test]
fn partial_request_waits() {
    let mut p = StreamParser::new();
    let req = format_request("/a", true);
    p.push(&req[..10]);
    assert!(p.next_request().is_none());
    p.push(&req[10..]);
    assert!(p.next_request().is_some());
}

#[test]
fn pipelined_requests_pop_in_order() {
    let mut p = StreamParser::new();
    p.push(&format_request("/1", true));
    p.push(&format_request("/2", true));
    assert_eq!(p.next_request().unwrap().path, "/1");
    assert_eq!(p.next_request().unwrap().path, "/2");
    assert!(p.next_request().is_none());
}

#[test]
fn response_roundtrip_with_body() {
    let mut p = StreamParser::new();
    let body = vec![7u8; 20];
    p.push(&format_response(200, &body, true));
    let r = p.next_response().unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, body);
    assert!(r.keep_alive);
}

#[test]
fn response_body_split_across_pushes() {
    let mut p = StreamParser::new();
    let full = format_response(200, b"hello world!", false);
    let cut = full.len() - 5;
    p.push(&full[..cut]);
    assert!(p.next_response().is_none());
    p.push(&full[cut..]);
    let r = p.next_response().unwrap();
    assert_eq!(r.body, b"hello world!");
    assert!(!r.keep_alive);
}

/// The head cached while a body arrives belongs to that response only.
#[test]
fn responses_fed_a_byte_at_a_time() {
    let mut p = StreamParser::new();
    let stream = [
        format_response(200, b"first body", true),
        format_response(404, b"x", false),
    ]
    .concat();
    // A result is a view that ends at the next `push`: copy it out.
    let mut got = Vec::new();
    for byte in stream {
        p.push(&[byte]);
        let popped = p.next_response();
        got.extend(popped.map(|r| (r.status, r.body.to_vec(), r.keep_alive)));
    }
    let want = [(200, &b"first body"[..], true), (404, &b"x"[..], false)];
    let got: Vec<_> = got.iter().map(|(s, b, k)| (*s, &b[..], *k)).collect();
    assert_eq!(got, want);
    assert_eq!(p.buffered(), 0);
}

#[test]
fn back_to_back_responses() {
    let mut p = StreamParser::new();
    p.push(&format_response(200, b"a", true));
    p.push(&format_response(404, b"nope", true));
    assert_eq!(p.next_response().unwrap().status, 200);
    let second = p.next_response().unwrap();
    assert_eq!(second.status, 404);
    assert_eq!(second.body, b"nope");
}

/// `end + content_length` used to be computed unchecked: a slice
/// panic in release, an overflow panic in debug.
#[test]
fn huge_content_length_does_not_panic() {
    let mut p = StreamParser::new();
    p.push(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nxx");
    // A body that cannot end inside `usize` reads as no length at all.
    let r = p.next_response().expect("the head is complete");
    assert_eq!((r.status, r.body, r.keep_alive), (200, &b""[..], true));
    assert_eq!(p.buffered(), 2);
    // The largest length that does fit just waits, reserving nothing.
    let mut p = StreamParser::new();
    p.push(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551000\r\n\r\nxx");
    assert!(p.next_response().is_none());
    assert!(p.buf.capacity() < 1 << 10);
    // The head-only path reads both lengths the same way.
    let mut p = StreamParser::new();
    let mut got = Vec::new();
    p.push_counting(
        b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nxx",
        |r| got.push(r),
    );
    let (status, body_len, keep_alive) = (200, 0, true);
    assert_eq!(
        got,
        [ResponseSummary {
            status,
            body_len,
            keep_alive
        }]
    );
    assert_eq!(p.buffered(), 2);
    let mut p = StreamParser::new();
    p.push_counting(
        b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551000\r\n\r\nxx",
        |_| panic!("the body has barely begun"),
    );
    assert!(p.buffered() == 0 && p.buf.capacity() < 1 << 10);
}

/// As under the lossy conversion: the request is served, with a 404.
#[test]
fn a_request_line_that_is_not_utf8_names_no_file() {
    let mut p = StreamParser::new();
    p.push(b"GET /fi\xffle HTTP/1.1\r\nHost: \xfe\r\n\r\n");
    let r = p.next_request().expect("a complete head is a request");
    assert_eq!((r.method, r.keep_alive), ("GET", true));
    let files = crate::webserver::FileStore::paper_default();
    assert!(files.get(r.path).is_none() && files.get("/file").is_some());
    assert_eq!(p.buffered(), 0);
}

/// The cold state is boxed for `size_of::<StreamParser>()`
/// (`tests/request_path.rs` pins it); the steady state never boxes.
#[test]
fn a_message_that_arrives_whole_boxes_nothing() {
    let mut p = StreamParser::new();
    p.push(&format_response(200, b"whole", true));
    assert!(p.next_response().is_some() && p.pending.is_none());
    assert!(p.next_response().is_none() && p.pending.is_none());
}

/// A head that trickles in is searched once, not once per call — and a
/// terminator that straddles two calls is still found.
#[test]
fn a_partial_head_is_not_rescanned() {
    let mut p = StreamParser::new();
    p.push(&[b'a'; 1000]);
    assert!(p.next_request().is_none());
    assert!(matches!(p.pending.as_deref(), Some(Pending::Head(1000))));
    p.push(b" /x\r\n\r");
    assert!(p.next_request().is_none());
    assert!(matches!(p.pending.as_deref(), Some(Pending::Head(1006))));
    p.push(b"\nGET");
    assert_eq!(p.next_request().map(|r| r.path), Some("/x"));
    assert!(p.pending.is_none() && p.buffered() == 3);
}

/// The codec this one replaced, verbatim but for its type names: the
/// reference the borrowing one is checked against.
mod reference {
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Request {
        pub method: String,
        pub path: String,
        pub keep_alive: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Response {
        pub status: u16,
        pub body: Vec<u8>,
        pub keep_alive: bool,
    }

    #[derive(Debug, Default)]
    pub struct StreamParser {
        buf: Vec<u8>,
        head: Option<Box<(std::ops::Range<usize>, Response)>>,
    }

    impl StreamParser {
        pub fn push(&mut self, data: &[u8]) {
            self.buf.extend_from_slice(data);
        }

        pub fn buffered(&self) -> usize {
            self.buf.len()
        }

        fn find_headers_end(&self) -> Option<usize> {
            self.buf
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4)
        }

        pub fn next_request(&mut self) -> Option<Request> {
            let end = self.find_headers_end()?;
            let head = String::from_utf8_lossy(&self.buf[..end]).to_string();
            self.buf.drain(..end);
            let mut lines = head.lines();
            let reqline = lines.next()?;
            let mut parts = reqline.split_whitespace();
            let method = parts.next()?.to_string();
            let path = parts.next()?.to_string();
            let version = parts.next().unwrap_or("HTTP/1.1");
            // HTTP/1.1 defaults to keep-alive; "Connection: close" overrides.
            let mut keep_alive = version.ends_with("1.1");
            for l in lines {
                let l = l.to_ascii_lowercase();
                if l.starts_with("connection:") {
                    keep_alive = l.contains("keep-alive");
                }
            }
            Some(Request {
                method,
                path,
                keep_alive,
            })
        }

        pub fn next_response(&mut self) -> Option<Response> {
            let (body, mut resp) = match self.head.take() {
                // Still arriving: the same box goes back.
                Some(head) if self.buf.len() < head.0.end => {
                    self.head = Some(head);
                    return None;
                }
                Some(head) => *head,
                None => self.parse_response_head()?,
            };
            if self.buf.len() < body.end {
                self.head = Some(Box::new((body, resp)));
                return None; // body not complete yet
            }
            resp.body = self.buf[body.clone()].to_vec();
            self.buf.drain(..body.end);
            Some(resp)
        }

        fn parse_response_head(&self) -> Option<(std::ops::Range<usize>, Response)> {
            let end = self.find_headers_end()?;
            let head = String::from_utf8_lossy(&self.buf[..end]);
            let mut content_length = 0usize;
            let mut resp = Response {
                status: 0,
                body: Vec::new(),
                keep_alive: true,
            };
            for (i, l) in head.lines().enumerate() {
                if i == 0 {
                    resp.status = l
                        .split_whitespace()
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    continue;
                }
                let ll = l.to_ascii_lowercase();
                if let Some(v) = ll.strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap_or(0);
                } else if ll.starts_with("connection:") {
                    resp.keep_alive = ll.contains("keep-alive");
                }
            }
            Some((end..end + content_length, resp))
        }
    }
}

const CONNECTION: [&str; 6] = [
    "",
    "Connection: close\r\n",
    "connection: Keep-Alive\r\n",
    "CONNECTION: keep-alive\r\n",
    "cOnNeCtIoN:CLOSE\r\n",
    "Connection:   keep-alive  \r\n",
];

/// One well-formed message picked by `(size, style)`: a request, or a
/// response with a `size`-byte body; header case, the `Connection`
/// header and the HTTP version all vary with `style`.
fn message(response: bool, size: usize, style: u8) -> Vec<u8> {
    let version = if style & 1 == 0 { "1.1" } else { "1.0" };
    let conn = CONNECTION[(style >> 1) as usize % CONNECTION.len()];
    if !response {
        let method = ["GET", "HEAD", "OPTIONS"][size % 3];
        return format!("{method} /file{size} HTTP/{version}\r\nhOsT: server\r\n{conn}\r\n")
            .into_bytes();
    }
    let length = ["Content-Length", "content-length", "CONTENT-LENGTH"][size % 3];
    let status = [200, 404, 503][style as usize % 3];
    let mut m = format!(
        "HTTP/{version} {status} Reason Text\r\nServer: weblite\r\n{length}: {size}\r\n{conn}\r\n"
    )
    .into_bytes();
    // Bodies are full of head terminators: only the length frames them.
    let filler = b"\r\n\r\nGET / HTTP/1.1 \xff";
    m.extend((0..size).map(|i| filler[(i + size) % filler.len()]));
    m
}

/// A message as both codecs hand it over: (method or status, path or
/// body, keep-alive).
type Popped = Option<(String, Vec<u8>, bool)>;

fn pop_both(
    response: bool,
    new: &mut StreamParser,
    old: &mut reference::StreamParser,
) -> (Popped, Popped) {
    if response {
        let (got, want) = (new.next_response(), old.next_response());
        let got = got.map(|r| (r.status.to_string(), r.body.to_vec(), r.keep_alive));
        (
            got,
            want.map(|r| (r.status.to_string(), r.body, r.keep_alive)),
        )
    } else {
        let (got, want) = (new.next_request(), old.next_request());
        let got = got.map(|r| (r.method.into(), r.path.into(), r.keep_alive));
        (
            got,
            want.map(|r| (r.method, r.path.into_bytes(), r.keep_alive)),
        )
    }
}

/// Any stream of well-formed messages, cut anywhere and fed chunk by
/// chunk, parses to the same results and leaves the same bytes
/// buffered after every chunk as under the codec this one replaced.
#[test]
fn borrowing_codec_matches_the_owning_one() {
    use neat_util::check::{check, vec_of, Config};
    use neat_util::prop_assert_eq;
    check(
        "borrowing_codec_matches_the_owning_one",
        Config::default().cases(400),
        |rng| {
            (
                rng.gen_bool(0.5),
                vec_of(rng, 1..7, |r| (r.gen_range(0usize..3001), r.gen::<u8>())),
                vec_of(rng, 0..24, |r| r.gen::<usize>()),
            )
        },
        |(response, msgs, cuts)| {
            let stream: Vec<u8> = (msgs.iter())
                .flat_map(|&(size, style)| message(response, size, style))
                .collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();
            let (mut new, mut old) = (StreamParser::new(), reference::StreamParser::default());
            let mut popped = 0;
            for chunk in cuts.windows(2).map(|w| &stream[w[0]..w[1]]) {
                new.push(chunk);
                old.push(chunk);
                loop {
                    let (got, want) = pop_both(response, &mut new, &mut old);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(new.buffered(), old.buffered());
                    if got.is_none() {
                        break;
                    }
                    popped += 1;
                }
            }
            prop_assert_eq!((popped, new.buffered()), (msgs.len(), 0));
            Ok(())
        },
    );
}

/// The head-only path against the owning codec: on any stream of
/// well-formed responses — zero-length bodies, 404s, `Connection:
/// close`, several to a chunk — cut anywhere or fed a byte at a time,
/// each chunk completes the same responses, with the same status, body
/// length and keep-alive; and the parser never holds a body byte.
#[test]
fn head_only_path_matches_the_owning_codec() {
    use neat_util::check::{check, vec_of, Config};
    use neat_util::{prop_assert, prop_assert_eq};
    check(
        "head_only_path_matches_the_owning_codec",
        Config::default().cases(400),
        |rng| {
            let size = |r: &mut neat_util::Rng| match r.gen_range(0u8..4) {
                0 => 0,
                _ => r.gen_range(0usize..3001),
            };
            (
                vec_of(rng, 1..7, |r| (size(r), r.gen::<u8>())),
                vec_of(rng, 0..24, |r| r.gen::<usize>()),
                rng.gen_bool(0.1),
            )
        },
        |(msgs, cuts, bytewise)| {
            let stream: Vec<u8> = (msgs.iter())
                .flat_map(|&(size, style)| message(true, size, style))
                .collect();
            let mut cuts: Vec<usize> = match bytewise {
                true => (0..stream.len()).collect(),
                false => cuts.iter().map(|c| c % (stream.len() + 1)).collect(),
            };
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();
            let (mut new, mut old) = (StreamParser::new(), reference::StreamParser::default());
            let mut popped = 0;
            for chunk in cuts.windows(2).map(|w| &stream[w[0]..w[1]]) {
                let mut got = Vec::new();
                new.push_counting(chunk, |r| got.push(r));
                old.push(chunk);
                let want: Vec<_> = std::iter::from_fn(|| old.next_response())
                    .map(|r| ResponseSummary {
                        status: r.status,
                        body_len: r.body.len(),
                        keep_alive: r.keep_alive,
                    })
                    .collect();
                prop_assert_eq!(&got, &want);
                popped += got.len();
                // What the new one holds is a head that has not ended.
                let head = new.buf.windows(4).any(|w| w == b"\r\n\r\n");
                prop_assert!(!head && new.buffered() <= old.buffered());
            }
            prop_assert_eq!((popped, new.buffered()), (msgs.len(), 0));
            Ok(())
        },
    );
}

/// The in-place request path against `push` and `next_request` (called
/// until it returns `None` with nothing consumed): on a stream of
/// pipelined requests — `Connection: close`, HTTP/1.0, varied header
/// case — mixed with garbage, cut anywhere, fed a byte at a time or cut
/// inside every head terminator, each chunk yields the same requests and
/// leaves the same bytes buffered, and what the in-place parser buffers
/// is never a whole head.
#[test]
fn in_place_requests_match_push_and_next_request() {
    use neat_util::check::{bytes, check, vec_of, Config};
    use neat_util::{prop_assert, prop_assert_eq};
    check(
        "in_place_requests_match_push_and_next_request",
        Config::default().cases(400),
        |rng| {
            (
                vec_of(rng, 1..8, |r| {
                    (r.gen_range(0usize..40), r.gen::<u8>(), bytes(r, 0..40))
                }),
                vec_of(rng, 0..24, |r| r.gen::<usize>()),
                rng.gen_range(0u8..4),
            )
        },
        |(pieces, cuts, how)| {
            // A piece is a request, or (one in five) garbage: a hostile
            // fragment or its own random bytes.
            let mut well_formed = 0;
            let mut stream = Vec::new();
            for (kind, style, raw) in &pieces {
                match kind % 5 {
                    0 => stream.extend(HOSTILE.get(*kind / 5).copied().unwrap_or(raw)),
                    _ => {
                        well_formed += 1;
                        stream.extend(message(false, *kind, *style));
                    }
                }
            }
            let mut cuts: Vec<usize> = match how {
                // A byte at a time.
                0 => (0..stream.len()).collect(),
                // Inside every head terminator, one to three bytes in.
                1 => (stream.windows(4).enumerate())
                    .filter(|(_, w)| *w == b"\r\n\r\n")
                    .zip(cuts.iter().cycle())
                    .map(|((at, _), c)| at + 1 + c % 3)
                    .collect(),
                _ => cuts.iter().map(|c| c % (stream.len() + 1)).collect(),
            };
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();
            let (mut new, mut old) = (StreamParser::new(), StreamParser::new());
            let mut served = 0;
            for chunk in cuts.windows(2).map(|w| &stream[w[0]..w[1]]) {
                let mut got = Vec::new();
                new.push_requests(chunk, |r| {
                    got.push((r.method.to_owned(), r.path.to_owned(), r.keep_alive))
                });
                old.push(chunk);
                let mut want = Vec::new();
                loop {
                    let before = old.buffered();
                    let popped = old
                        .next_request()
                        .map(|r| (r.method.to_owned(), r.path.to_owned(), r.keep_alive));
                    match popped {
                        Some(r) => want.push(r),
                        None if old.buffered() == before => break,
                        None => {}
                    }
                }
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(new.buffered(), old.buffered());
                prop_assert!(!new.buf.windows(4).any(|w| w == b"\r\n\r\n"));
                served += got.len();
            }
            if well_formed == pieces.len() {
                prop_assert_eq!((served, new.buffered()), (well_formed, 0));
            }
            Ok(())
        },
    );
}

/// Pieces a hostile peer would try, by index; anything past the list
/// is the chunk's own random bytes.
const HOSTILE: [&[u8]; 8] = [
    b"\r\n\r\n",
    b"\r\n",
    b"GET /\xff\xfe\xfd \xc3\x28/1.1\r\n",
    b"HTTP/1.1 200 OK\r\n",
    b"Content-Length: 18446744073709551615\r\n",
    b"content-length:\xff7\r\nConnection: \xffkeep-alive\r\n",
    b"\n\n \r \r\n\r",
    b"Content-Length: 5\r\n",
];

/// Arbitrary bytes — request lines that are not UTF-8, lengths that
/// overflow, 64 KiB of head with no terminator — never panic either
/// parser, nor the head-only path, nor the in-place request path, and
/// none holds more than it was given.
#[test]
fn garbage_never_panics_and_is_never_amplified() {
    use neat_util::check::{bytes, check, vec_of, Config};
    use neat_util::prop_assert;
    check(
        "garbage_never_panics_and_is_never_amplified",
        Config::default().cases(300),
        |rng| vec_of(rng, 1..12, |r| (r.gen_range(0usize..14), bytes(r, 0..120))),
        |chunks| {
            for response in [false, true] {
                let (mut p, mut counting) = (StreamParser::new(), StreamParser::new());
                let mut in_place = StreamParser::new();
                let mut pushed = 0;
                for (kind, raw) in &chunks {
                    let long_head = vec![b'a'; 64 << 10];
                    let chunk = match kind {
                        8 => &long_head,
                        k => HOSTILE.get(*k).copied().unwrap_or(raw),
                    };
                    p.push(chunk);
                    pushed += chunk.len();
                    counting.push_counting(chunk, |_| {});
                    prop_assert!(counting.buffered() <= pushed);
                    in_place.push_requests(chunk, |_| {});
                    prop_assert!(in_place.buffered() <= pushed);
                    loop {
                        let before = p.buffered();
                        let popped = match response {
                            true => p.next_response().is_some(),
                            false => p.next_request().is_some(),
                        };
                        prop_assert!(p.buffered() <= before && before <= pushed);
                        if !popped && p.buffered() == before {
                            break;
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
