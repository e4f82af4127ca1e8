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

/// What the head-only path ([`StreamParser::push_counting`]) reports of a
/// response once its last body byte has gone by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseSummary {
    pub status: u16,
    pub body_len: usize,
    pub keep_alive: bool,
}

/// What a call learned about the message at the front of the unread bytes
/// when it could not finish it. Offsets count from the read cursor, but
/// for the head-only path's body, which is not buffered: there they count
/// from the body's first byte, `body_start` the bytes gone by so far.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// No `\r\n\r\n` in the first so many unread bytes.
    Head(usize),
    /// A response head that parsed; its body is still arriving. On the
    /// head-only path a body that has all gone by (`body_start ==
    /// body_end`) keeps the box for the next one.
    Body(ResponseHead),
}

#[derive(Debug, Clone, Copy)]
struct ResponseHead {
    body_start: usize,
    body_end: usize,
    status: u16,
    keep_alive: bool,
}

impl ResponseHead {
    /// The head-only path's report, `body_end` the body's length.
    fn summary(&self) -> ResponseSummary {
        ResponseSummary {
            status: self.status,
            body_len: self.body_end,
            keep_alive: self.keep_alive,
        }
    }
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
        request(self.consume(end))
    }

    /// The in-place way to read requests: feed `data`, and `serve` is
    /// called with each request it completes, in order. A head that
    /// arrives whole is read where it lies in `data`; the buffer holds
    /// only a head cut across pushes. A head with no request line is
    /// passed over. A parser is read either this way or through `push`
    /// and `next_request`, never both.
    pub fn push_requests(&mut self, mut data: &[u8], mut serve: impl FnMut(Request<'_>)) {
        if !self.buf.is_empty() {
            let Some(end) = self.head_end_in(data) else {
                self.buf.extend_from_slice(data);
                return;
            };
            self.buf.extend_from_slice(&data[..end]);
            data = &data[end..];
            if let Some(req) = request(&self.buf) {
                serve(req);
            }
            self.buf.clear();
        }
        while let Some(at) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            let (head, rest) = data.split_at(at + 4);
            if let Some(req) = request(head) {
                serve(req);
            }
            data = rest;
        }
        self.buf.extend_from_slice(data);
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
        Some(response_head(&self.buf[self.pos..][..end]))
    }

    /// The head-only way to read responses: feed `data`, and `done` is
    /// called with each response it completes, in order, on the same push
    /// that would make [`Self::next_response`] return that response. Body
    /// bytes are counted as they go by, never kept, and a head that
    /// arrives whole is parsed where it lies: the buffer holds only a head
    /// cut across pushes. A parser is read either this way or through
    /// `push` and `next_response`, never both.
    pub fn push_counting(&mut self, mut data: &[u8], mut done: impl FnMut(ResponseSummary)) {
        loop {
            if let Some(Pending::Body(body)) = self.pending.as_deref_mut() {
                let left = body.body_end - body.body_start;
                if left > data.len() {
                    body.body_start += data.len();
                    return;
                }
                if left > 0 {
                    data = &data[left..];
                    body.body_start = body.body_end;
                    done(body.summary());
                }
            }
            if data.is_empty() {
                return;
            }
            let Some(end) = self.head_end_in(data) else {
                self.buf.extend_from_slice(data);
                return;
            };
            let head = if self.buf.is_empty() {
                response_head(&data[..end])
            } else {
                self.buf.extend_from_slice(&data[..end]);
                let head = response_head(&self.buf);
                self.buf.clear();
                head
            };
            data = &data[end..];
            let body = ResponseHead {
                body_start: data.len(),
                body_end: head.body_end - head.body_start,
                ..head
            };
            if body.body_end > data.len() {
                self.set_pending(Pending::Body(body));
                return;
            }
            data = &data[body.body_end..];
            done(body.summary());
        }
    }

    /// Where in `data` the head the buffered bytes begin ends, terminator
    /// included, if it ends there. The buffered bytes hold no terminator,
    /// but their last three may start one.
    fn head_end_in(&self, data: &[u8]) -> Option<usize> {
        let carry = &self.buf[self.buf.len().saturating_sub(3)..];
        let next = &data[..data.len().min(3)];
        let mut seam = [0u8; 6];
        seam[..carry.len()].copy_from_slice(carry);
        seam[carry.len()..][..next.len()].copy_from_slice(next);
        let seam = &seam[..carry.len() + next.len()];
        match seam.windows(4).position(|w| w == b"\r\n\r\n") {
            Some(at) => Some(at + 4 - carry.len()),
            None => (data.windows(4).position(|w| w == b"\r\n\r\n")).map(|at| at + 4),
        }
    }
}

/// Parse a request head, terminator included; `None` without a method
/// and a path.
fn request(head: &[u8]) -> Option<Request<'_>> {
    let mut lines = lines(head);
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

/// Parse a response head, terminator included.
fn response_head(head: &[u8]) -> ResponseHead {
    let end = head.len();
    let mut lines = lines(head);
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
    ResponseHead {
        body_start: end,
        // A body that would end past `usize` is a length that does not
        // parse.
        body_end: end.checked_add(content_length).unwrap_or(end),
        status: status.and_then(number).unwrap_or(0),
        keep_alive,
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
#[path = "http_tests.rs"]
mod tests;
