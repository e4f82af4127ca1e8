//! A minimal HTTP/1.1 codec: exactly what lighttpd and httperf need for
//! the paper's workload — GET requests over persistent connections,
//! `Content-Length`-framed responses, `Connection: close` handling.

/// A parsed HTTP request line + the headers we care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub keep_alive: bool,
}

/// A parsed response status + body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub keep_alive: bool,
}

/// Incremental parser state over a connection's byte stream.
#[derive(Debug, Default)]
pub struct StreamParser {
    buf: Vec<u8>,
    /// The response at the front of `buf` whose head has parsed and whose
    /// body is still arriving: where the body lies in `buf`, and everything
    /// but the body. Boxed: most parsers never hold one.
    head: Option<Box<(std::ops::Range<usize>, Response)>>,
}

impl StreamParser {
    pub fn new() -> StreamParser {
        StreamParser::default()
    }

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

    /// Pop the next complete request, if any.
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

    /// Pop the next complete response (requires `Content-Length`). The
    /// head is parsed once, however many calls the body takes to arrive.
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
        let mut got = Vec::new();
        for byte in stream {
            p.push(&[byte]);
            got.extend(p.next_response());
        }
        let want = [(200, &b"first body"[..], true), (404, &b"x"[..], false)];
        let got: Vec<_> = got
            .iter()
            .map(|r| (r.status, &r.body[..], r.keep_alive))
            .collect();
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
}
