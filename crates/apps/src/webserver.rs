//! `weblite` — the lighttpd stand-in (§6.2).
//!
//! An event-driven static web server that "does as little as possible":
//! serve in-memory files over persistent HTTP/1.1 connections. Each
//! instance is one isolated process using the NEaT socket library — it
//! never knows (or cares) which stack replica owns each connection.

use crate::http;
use neat::msg::Msg;
use neat::sockets::{Fd, LibEvent, SockErr, SockOpt, SocketLib};
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use neat_util::FxHashMap;
use std::cell::RefCell;
use std::rc::Rc;

/// In-memory document root.
#[derive(Debug, Clone, Default)]
pub struct FileStore {
    /// Only probed.
    files: FxHashMap<String, Vec<u8>>,
}

impl FileStore {
    pub fn new() -> FileStore {
        FileStore::default()
    }

    pub fn put(&mut self, path: impl Into<String>, body: Vec<u8>) {
        self.files.insert(path.into(), body);
    }

    /// The paper's workload file: 20 bytes at `/file`.
    pub fn paper_default() -> FileStore {
        let mut f = FileStore::new();
        f.put("/file", vec![b'x'; 20]);
        f
    }

    /// A document root with one file of each size in `sizes` at
    /// `/file<size>` (Figures 4–5's sweep).
    pub fn size_sweep(sizes: &[usize]) -> FileStore {
        let mut f = FileStore::new();
        for &s in sizes {
            f.put(format!("/file{s}"), vec![b'x'; s]);
        }
        f
    }

    pub fn get(&self, path: &str) -> Option<&Vec<u8>> {
        self.files.get(path)
    }
}

/// Shared observable server-side counters.
#[derive(Debug, Default)]
pub struct WebMetrics {
    pub requests_served: u64,
    pub bytes_sent: u64,
    pub conns_accepted: u64,
    pub conns_lost_to_crash: u64,
    pub not_found: u64,
    /// Raw pid of the stack replica that owned each accepted connection,
    /// in accept order — the §3.8 layout-unpredictability measurement
    /// stream (each replica (re)start has a fresh ASLR layout).
    pub served_by: Vec<u64>,
}

/// Per-connection server state.
#[derive(Debug)]
struct ConnState {
    parser: http::StreamParser,
    requests_served: u32,
    closing: bool,
}

/// The web server process.
pub struct WebServerProc {
    pub name: String,
    lib: SocketLib,
    files: FileStore,
    port: u16,
    /// Close connections after this many requests (lighttpd
    /// `max-keep-alive-requests`; the paper sets 1000, tests use less).
    max_requests_per_conn: u32,
    /// Only probed.
    conns: FxHashMap<Fd, ConnState>,
    /// CPU cycles of application work per served request. Defaults to the
    /// calibrated lighttpd cost; benches lower it to model a lightweight
    /// app (null-RPC style) when measuring the stack's own ceiling.
    pub request_cycles: u64,
    /// Socket options applied to every accepted connection (lighttpd's
    /// per-vhost socket tuning: congestion algorithm, buffers).
    sock_opts: Vec<SockOpt>,
    pub metrics: Rc<RefCell<WebMetrics>>,
    obs: WebObs,
    /// `web.accepted.r<pid>` per replica, bumped on every accept: cached,
    /// but registered at the replica's first (the snapshot's key order).
    accepted_by: Vec<(ProcId, neat_obs::Counter)>,
}

/// Metrics-registry handles mirroring the hot-path [`WebMetrics`] counters.
#[derive(Clone, Copy)]
struct WebObs {
    requests_served: neat_obs::Counter,
    conns_accepted: neat_obs::Counter,
    conns_lost: neat_obs::Counter,
}

impl WebObs {
    fn new() -> WebObs {
        WebObs {
            requests_served: neat_obs::counter("web.requests_served"),
            conns_accepted: neat_obs::counter("web.conns_accepted"),
            conns_lost: neat_obs::counter("web.conns_lost_to_crash"),
        }
    }
}

impl WebServerProc {
    pub fn new(
        name: impl Into<String>,
        lib: SocketLib,
        files: FileStore,
        port: u16,
        max_requests_per_conn: u32,
        metrics: Rc<RefCell<WebMetrics>>,
    ) -> WebServerProc {
        WebServerProc {
            name: name.into(),
            lib,
            files,
            port,
            max_requests_per_conn,
            conns: FxHashMap::default(),
            request_cycles: calibration::WEB_REQUEST,
            sock_opts: Vec::new(),
            metrics,
            obs: WebObs::new(),
            accepted_by: Vec::new(),
        }
    }

    /// Override the per-request application cost (stack-ceiling benches).
    pub fn with_request_cycles(mut self, cycles: u64) -> WebServerProc {
        self.request_cycles = cycles;
        self
    }

    /// Apply these socket options to every accepted connection.
    pub fn with_sock_opts(mut self, opts: Vec<SockOpt>) -> WebServerProc {
        self.sock_opts = opts;
        self
    }

    /// Serve the next complete request buffered on `fd`; `false` when
    /// there is none, or the connection is closing. Nothing is copied but
    /// the reply: the request is a view into the connection's parser.
    fn serve_next(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) -> bool {
        let Some(st) = self.conns.get_mut(&fd).filter(|st| !st.closing) else {
            return false;
        };
        let Some(req) = st.parser.next_request() else {
            return false;
        };
        // The calibrated per-request application work (parse, file lookup,
        // header build, logging, bookkeeping).
        ctx.charge(self.request_cycles);
        let mut m = self.metrics.borrow_mut();
        let (status, body) = match self.files.get(req.path) {
            Some(b) => (200, b.as_slice()),
            None => {
                m.not_found += 1;
                (404, b"not found".as_slice())
            }
        };
        m.requests_served += 1;
        m.bytes_sent += body.len() as u64;
        drop(m);
        self.obs.requests_served.inc();
        st.requests_served += 1;
        let closing = !req.keep_alive || st.requests_served >= self.max_requests_per_conn;
        st.closing = closing;
        let resp = http::format_response(status, body, !closing);
        ctx.charge(calibration::copy_cost(resp.len()));
        if self.lib.send(ctx, fd, resp).is_err() {
            // Connection raced away (reset/replica crash): stop serving it.
            st.closing = true;
        } else if closing {
            let _ = self.lib.close(ctx, fd);
        }
        true
    }

    /// Drain everything readable on `fd` through the pull API and serve
    /// every complete pipelined request.
    fn service_readable(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) {
        loop {
            match self.lib.recv(ctx, fd) {
                Ok(data) if data.is_empty() => {
                    // EOF: client is done with this connection.
                    let _ = self.lib.close(ctx, fd);
                    return;
                }
                Ok(data) => {
                    let Some(st) = self.conns.get_mut(&fd) else {
                        return;
                    };
                    if st.closing {
                        continue;
                    }
                    st.parser.push(&data);
                    while self.serve_next(ctx, fd) {}
                }
                Err(SockErr::WouldBlock) => break,
                Err(_) => return, // NotConnected / reset: Closed will clean up
            }
            if !self.lib.poll(fd).readable {
                break;
            }
        }
        if self.lib.poll(fd).hup {
            let _ = self.lib.close(ctx, fd);
        }
    }
}

impl Process<Msg> for WebServerProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                self.lib.init(ctx);
                self.lib
                    .listen(ctx, self.port)
                    .expect("web server port is free at boot");
            }
            Event::Timer { .. } => {}
            Event::Message { msg, .. } => {
                let before_lost = self.lib.lost_to_crash;
                for le in self.lib.handle(ctx, msg) {
                    match le {
                        LibEvent::ListenReady { .. } => {}
                        LibEvent::Accepted { fd, .. } => {
                            ctx.charge(calibration::WEB_ACCEPT);
                            for &opt in &self.sock_opts {
                                let _ = self.lib.set_opt(ctx, fd, opt);
                            }
                            let mut m = self.metrics.borrow_mut();
                            m.conns_accepted += 1;
                            self.obs.conns_accepted.inc();
                            if let Some(pid) = self.lib.replica_of(fd) {
                                m.served_by.push(pid.0);
                                let known = self.accepted_by.iter().find(|(r, _)| *r == pid);
                                let counter = known.map(|(_, c)| *c).unwrap_or_else(|| {
                                    let c = neat_obs::counter(&format!("web.accepted.r{}", pid.0));
                                    self.accepted_by.push((pid, c));
                                    c
                                });
                                counter.inc();
                            }
                            drop(m);
                            self.conns.insert(
                                fd,
                                ConnState {
                                    parser: http::StreamParser::new(),
                                    requests_served: 0,
                                    closing: false,
                                },
                            );
                        }
                        LibEvent::Readable { fd } => {
                            if self.conns.contains_key(&fd) {
                                self.service_readable(ctx, fd);
                            }
                        }
                        LibEvent::Closed { fd, .. } => {
                            self.conns.remove(&fd);
                        }
                        LibEvent::Connected { .. } | LibEvent::ConnectFailed { .. } => {}
                    }
                }
                let lost = self.lib.lost_to_crash - before_lost;
                if lost > 0 {
                    self.metrics.borrow_mut().conns_lost_to_crash += lost;
                    self.obs.conns_lost.add(lost);
                }
            }
        }
    }
}
