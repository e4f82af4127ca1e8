//! A minimal HTTP/1.1 codec: exactly what lighttpd and httperf need for
//! the paper's workload — GET requests over persistent connections,
//! `Content-Length`-framed responses, `Connection: close` handling.

/// A parsed HTTP request line + the headers we care about: views into
/// the parser's buffer, good until its next `push`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    pub method: &'a str,
    pub path: &'a str,
    pub keep_alive: bool,
}

/// A parsed response status + body, the body a view like [`Request`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response<'a> {
    pub status: u16,
    pub body: &'a [u8],
    pub keep_alive: bool,
}

/// What a call learned about the message at the front of the unread bytes
/// when it could not finish it. Offsets count from the read cursor.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// No `\r\n\r\n` in the first so many unread bytes.
    Head(usize),
    /// A response head that parsed; its body is still arriving.
    Body(ResponseHead),
}

#[derive(Debug, Clone, Copy)]
struct ResponseHead {
    body_start: usize,
    body_end: usize,
    status: u16,
    keep_alive: bool,
}

/// Incremental parser state over a connection's byte stream.
#[derive(Debug, Default)]
pub struct StreamParser {
    buf: Vec<u8>,
    /// Read cursor: `buf[..pos]` is consumed (the last results may still
    /// view it) and goes at the next `push`.
    pos: usize,
    /// Boxed: a message that arrives whole never has one.
    pending: Option<Box<Pending>>,
}

/// A request-line token; one that is not UTF-8 names no method and no file.
fn text(token: &[u8]) -> &str {
    std::str::from_utf8(token).unwrap_or("\u{fffd}")
}

fn number<N: std::str::FromStr>(token: &[u8]) -> Option<N> {
    std::str::from_utf8(token).ok()?.trim().parse().ok()
}

/// The lines of a head, without their `\r\n`.
fn lines(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    head.split(|b| *b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
}

fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(u8::is_ascii_whitespace)
        .filter(|t| !t.is_empty())
}

/// The value of header `line` if its name is `name` (colon included), in
/// any case.
fn header<'a>(line: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    let (n, value) = line.split_at_checked(name.len())?;
    n.eq_ignore_ascii_case(name).then_some(value)
}

fn says_keep_alive(value: &[u8]) -> bool {
    value
        .windows(10)
        .any(|w| w.eq_ignore_ascii_case(b"keep-alive"))
}

impl StreamParser {
    pub fn new() -> StreamParser {
        StreamParser::default()
    }

    pub fn push(&mut self, data: &[u8]) {
        // Everything consumed since the last push goes in one move.
        self.buf.drain(..std::mem::take(&mut self.pos));
        self.buf.extend_from_slice(data);
    }

    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One box for as long as the message at the front stays unfinished.
    fn set_pending(&mut self, p: Pending) {
        **self.pending.get_or_insert_with(|| Box::new(p)) = p;
    }

    /// Length of the head at the front of the unread bytes, terminator
    /// included. A search that fails resumes where it stopped.
    fn head_len(&mut self) -> Option<usize> {
        let unread = &self.buf[self.pos..];
        let from = match self.pending.as_deref() {
            Some(Pending::Head(scanned)) => scanned.saturating_sub(3),
            _ => 0,
        };
        let found = unread[from..].windows(4).position(|w| w == b"\r\n\r\n");
        if found.is_none() && !unread.is_empty() {
            let scanned = unread.len();
            self.set_pending(Pending::Head(scanned));
        }
        Some(from + found? + 4)
    }

    /// Move the cursor over the next `n` unread bytes and lend them out.
    fn consume(&mut self, n: usize) -> &[u8] {
        self.pending = None;
        let start = self.pos;
        self.pos += n;
        &self.buf[start..self.pos]
    }

    /// Pop the next complete request, if any.
    pub fn next_request(&mut self) -> Option<Request<'_>> {
        let end = self.head_len()?;
        let mut lines = lines(self.consume(end));
        let mut reqline = tokens(lines.next()?);
        let method = text(reqline.next()?);
        let path = text(reqline.next()?);
        // HTTP/1.1 defaults to keep-alive; "Connection: close" overrides.
        let mut keep_alive = reqline.next().is_none_or(|v| v.ends_with(b"1.1"));
        for l in lines {
            if let Some(v) = header(l, b"connection:") {
                keep_alive = says_keep_alive(v);
            }
        }
        Some(Request {
            method,
            path,
            keep_alive,
        })
    }

    /// Pop the next complete response (requires `Content-Length`). The
    /// head is parsed once, however many calls the body takes to arrive.
    pub fn next_response(&mut self) -> Option<Response<'_>> {
        let head = match self.pending.as_deref() {
            Some(Pending::Body(head)) => *head,
            _ => {
                let head = self.parse_response_head()?;
                if self.buffered() < head.body_end {
                    self.set_pending(Pending::Body(head));
                }
                head
            }
        };
        if self.buffered() < head.body_end {
            return None; // body not complete yet
        }
        Some(Response {
            status: head.status,
            body: &self.consume(head.body_end)[head.body_start..],
            keep_alive: head.keep_alive,
        })
    }

    fn parse_response_head(&mut self) -> Option<ResponseHead> {
        let end = self.head_len()?;
        let mut lines = lines(&self.buf[self.pos..][..end]);
        let status = lines.next().and_then(|l| tokens(l).nth(1));
        let mut content_length = 0usize;
        let mut keep_alive = true;
        for l in lines {
            if let Some(v) = header(l, b"content-length:") {
                content_length = number(v).unwrap_or(0);
            } else if let Some(v) = header(l, b"connection:") {
                keep_alive = says_keep_alive(v);
            }
        }
        Some(ResponseHead {
            body_start: end,
            // A body that would end past `usize` is a length that does not
            // parse.
            body_end: end.checked_add(content_length).unwrap_or(end),
            status: status.and_then(number).unwrap_or(0),
            keep_alive,
        })
    }
}

/// Build a GET request.
pub fn format_request(path: &str, keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "GET {path} HTTP/1.1\r\nHost: server\r\nUser-Agent: httperf/0.9\r\nConnection: {conn}\r\n\r\n"
    )
    .into_bytes()
}

/// Build a response with a body, in a buffer sized for both.
pub fn format_response(status: u16, body: &[u8], keep_alive: bool) -> Vec<u8> {
    use std::io::Write;
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        _ => "Status",
    };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    // The head is at most 111 bytes (5-digit status, 20-digit length).
    let mut out = Vec::with_capacity(112 + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nServer: weblite/1.0\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
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
    /// parser, and it never holds more than it was given.
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
                    let mut p = StreamParser::new();
                    let mut pushed = 0;
                    for (kind, raw) in &chunks {
                        let long_head = vec![b'a'; 64 << 10];
                        let chunk = match kind {
                            8 => &long_head,
                            k => HOSTILE.get(*k).copied().unwrap_or(raw),
                        };
                        p.push(chunk);
                        pushed += chunk.len();
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
}
