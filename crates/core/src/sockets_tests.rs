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
