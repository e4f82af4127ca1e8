//! `SocketLib` against a replica: what the library sends, and when.

use super::*;
use crate::sock_server::SockServer;
use neat_sim::{Event, MachineSpec, Process, Sim, SimConfig, Time};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

#[test]
fn set_congestion_needs_a_bound_fd_and_reaches_the_owning_socket() {
    // The one per-socket option goes straight to the replica that owns
    // the connection. While the `connect()` is in flight there is no such
    // socket: the call fails and sends nothing. Once bound, the replica's
    // socket switches controller, which its checkpoint's last byte shows.
    const IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);

    /// A replica reduced to its socket server on the loopback: every
    /// segment it sends comes straight back in. It logs each message it
    /// takes, and the arguments of each `SetCongestion`.
    struct LoopReplica {
        srv: Rc<RefCell<SockServer>>,
        log: Rc<RefCell<Vec<String>>>,
        set: Rc<RefCell<Vec<(neat_tcp::SocketId, CongestionAlgo)>>>,
    }
    impl Process<Msg> for LoopReplica {
        fn name(&self) -> String {
            "loop-replica".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            let Event::Message { from, msg } = ev else {
                return;
            };
            let now = ctx.now().as_nanos();
            let mut srv = self.srv.borrow_mut();
            self.log.borrow_mut().push(format!("{msg:?}"));
            if let Msg::SetCongestion { sock, algo } = msg {
                self.set.borrow_mut().push((sock, algo));
            }
            srv.handle_app(from, msg, now);
            loop {
                let segs = srv.poll_wire(now);
                if segs.is_empty() {
                    break;
                }
                for (_, seg) in segs {
                    srv.rx_segment(IP, &seg, now);
                }
            }
            srv.process_events(ctx.self_id);
            for (to, m) in srv.take_app_msgs() {
                ctx.send(to, m);
            }
        }
    }

    struct App {
        lib: SocketLib,
        calls: Rc<RefCell<Vec<Result<(), SockErr>>>>,
    }
    impl Process<Msg> for App {
        fn name(&self) -> String {
            "app".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            match ev {
                Event::Start => self.lib.listen(ctx, 7777).unwrap(),
                Event::Message { msg, .. } => {
                    for e in self.lib.handle(ctx, msg) {
                        let fd = match e {
                            LibEvent::ListenReady { .. } => {
                                self.lib.connect(ctx, (IP, 7777)).unwrap()
                            }
                            LibEvent::Connected { fd } => fd,
                            _ => continue,
                        };
                        let r = self.lib.set_congestion(ctx, fd, CongestionAlgo::Bbr);
                        self.calls.borrow_mut().push(r);
                    }
                }
                Event::Timer { .. } => {}
            }
        }
    }

    let mut sim: Sim<Msg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let th = [sim.hw_thread(m, 0, 0), sim.hw_thread(m, 1, 0)];
    let srv = Rc::new(RefCell::new(SockServer::new(
        IP,
        neat_tcp::TcpConfig::default(),
    )));
    let (log, set) = (Rc::default(), Rc::default());
    let replica = LoopReplica {
        srv: srv.clone(),
        log: Rc::clone(&log),
        set: Rc::clone(&set),
    };
    let replica = sim.spawn(th[0], Box::new(replica));
    let calls = Rc::new(RefCell::new(Vec::new()));
    let lib = SocketLib::new(ProcId(0), vec![replica], None);
    let app = App {
        lib,
        calls: calls.clone(),
    };
    sim.spawn(th[1], Box::new(app));
    sim.run_until(Time::from_millis(5));

    assert_eq!(
        calls.borrow().as_slice(),
        [Err(SockErr::NotConnected), Ok(())]
    );
    let log: Vec<String> = log.borrow().clone();
    assert_eq!(log.len(), 3, "Listen, Connect, one SetCongestion: {log:?}");
    let [(sock, algo)] = set.borrow()[..] else {
        panic!("one SetCongestion: {log:?}");
    };
    assert_eq!(algo, CongestionAlgo::Bbr);
    // Both ends of the loopback connection; the controller is the
    // checkpoint's last byte (Reno 0, BBR 2).
    let mut out = crate::flow_repl::DeltaWriter::default();
    out.start(true);
    srv.borrow_mut().checkpoint(true, &mut out);
    let payload = out.payload();
    let algos: Vec<_> = (payload.decode().unwrap().flows())
        .map(|f| (f.old_sock == sock, f.img.last().copied()))
        .collect();
    assert_eq!(algos.len(), 2);
    for (switched, code) in algos {
        assert_eq!(
            code,
            Some(if switched { 2 } else { 0 }),
            "switched={switched}"
        );
    }
}

/// Each `ConnSend`'s socket and bytes, in arrival order.
type Sends = Vec<(neat_tcp::SocketId, Vec<u8>)>;

/// A stand-in replica that only records what each `ConnSend` carries.
struct SendLog(Rc<RefCell<Sends>>);

impl Process<Msg> for SendLog {
    fn name(&self) -> String {
        "send-log".into()
    }
    fn on_event(&mut self, _: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        if let Event::Message {
            msg: Msg::ConnSend { sock, data },
            ..
        } = ev
        {
            self.0.borrow_mut().push((sock, data));
        }
    }
}

/// Runs `script` once, at start, on a library whose replica is a
/// [`SendLog`]; returns what the log recorded.
fn with_lib(script: impl FnOnce(&mut SocketLib, &mut Ctx<'_, Msg>, ProcId) + 'static) -> Sends {
    struct Script<F>(Option<F>, ProcId);
    impl<F: FnOnce(&mut SocketLib, &mut Ctx<'_, Msg>, ProcId) + 'static> Process<Msg> for Script<F> {
        fn name(&self) -> String {
            "app".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            if let (Event::Start, Some(script)) = (ev, self.0.take()) {
                let mut lib = SocketLib::new(ProcId(0), vec![self.1], None);
                script(&mut lib, ctx, self.1);
            }
        }
    }
    let mut sim: Sim<Msg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let log = Rc::new(RefCell::new(Vec::new()));
    let replica = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(SendLog(Rc::clone(&log))));
    sim.spawn(
        sim.hw_thread(m, 1, 0),
        Box::new(Script(Some(script), replica)),
    );
    sim.run_until(Time::from_millis(50));
    log.take()
}

/// The failover tail (ROADMAP M): after every write it holds the stream's
/// last `min(sent, TX_TAIL_CAP)` bytes in storage no larger than the cap,
/// and a migration whose gap it covers resends exactly that gap, in
/// order, as one `ConnSend` to the new handle, a gap that straddles the
/// ring's wrap point too. A gap past it resets the connection.
#[test]
fn the_tail_keeps_the_last_64_kib_and_resends_a_gap_it_covers() {
    // The last writes go to a full tail, whose storage then wraps.
    let writes: Vec<usize> =
        [vec![20; 1_000], vec![50_000, 100_000, 200_000], vec![20; 4]].concat();
    let expected = Rc::new(RefCell::new(Vec::new()));
    let want = Rc::clone(&expected);
    let log = with_lib(move |lib, ctx, replica| {
        let byte = |i: u64| (i.wrapping_mul(2_654_435_761) >> 13) as u8;
        let handle = |n: u64| ConnHandle {
            stack: replica,
            sock: neat_tcp::SocketId(n),
        };
        let incoming = Msg::Incoming {
            port: 80,
            conn: handle(1),
        };
        let evs: Vec<_> = lib.handle(ctx, incoming).collect();
        let [LibEvent::Accepted { fd, .. }] = evs[..] else {
            panic!("an accept: {evs:?}");
        };
        let (mut sent, mut sock, mut straddled) = (0u64, 1u64, 0);
        for (k, &len) in writes.iter().enumerate() {
            let data: Vec<u8> = (sent..sent + len as u64).map(byte).collect();
            want.borrow_mut()
                .push((neat_tcp::SocketId(sock), data.clone()));
            assert_eq!(lib.send(ctx, fd, data), Ok(len));
            sent += len as u64;
            let kept = sent.min(TX_TAIL_CAP as u64);
            let tail = &lib.fds[&fd].tail;
            let stream_end: Vec<u8> = (sent - kept..sent).map(byte).collect();
            assert!(
                tail.iter().eq(&stream_end),
                "write {k}: the stream's last {kept} B"
            );
            assert!(
                tail.capacity() <= TX_TAIL_CAP,
                "write {k}: {}",
                tail.capacity()
            );
            // Gaps of none, one byte, one write and the whole tail; past
            // the big writes, one that starts in the ring's front half and
            // ends in its back half.
            let (front, back) = tail.as_slices();
            let gap = match back.len() as u64 + 100 {
                g if k >= 1_003 && !back.is_empty() && g < kept => {
                    assert!(front.len() > 100, "the gap starts in the front half");
                    straddled += 1;
                    g
                }
                _ => [0, 1, len as u64, kept][k % 4].min(kept),
            };
            let app_bytes = sent - gap;
            let (old, new) = (handle(sock), handle(sock + 1));
            let migrated = Msg::ConnMigrated {
                old,
                new,
                app_bytes,
            };
            assert_eq!(lib.handle(ctx, migrated).count(), 0, "no event");
            sock += 1;
            if gap > 0 {
                let resent = (app_bytes..sent).map(byte).collect();
                want.borrow_mut().push((new.sock, resent));
            }
        }
        assert_eq!(straddled, 4, "gaps across the wrap point");
        // One byte more than the tail holds cannot be made whole.
        let migrated = Msg::ConnMigrated {
            old: handle(sock),
            new: handle(sock + 1),
            app_bytes: sent - TX_TAIL_CAP as u64 - 1,
        };
        let evs: Vec<_> = lib.handle(ctx, migrated).collect();
        let err = Some(SockErr::ConnReset);
        assert_eq!(evs, [LibEvent::Closed { fd, err }]);
        assert_eq!((lib.lost_to_crash, lib.open_conns()), (1, 0));
    });
    let expected = expected.take();
    assert_eq!(log.len(), expected.len());
    for (i, (got, want)) in log.iter().zip(&expected).enumerate() {
        assert!(
            got == want,
            "ConnSend {i}: {} B to {:?}, want {} B to {:?}",
            got.1.len(),
            got.0,
            want.1.len(),
            want.0
        );
    }
}
