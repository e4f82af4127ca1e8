//! The message fabric's allocation ratchet (ROADMAP item 1): what the
//! engine itself allocates to dispatch events between processes that
//! allocate nothing — lone sends, bursts that coalesce into one batch
//! delivery, timers and a cross-machine hop, with `batch_ns > 0` — counted
//! by an allocator that sees this thread only.
//!
//! The pin is zero, the floor of a ratchet like `tests/byte_path.rs`'s: a
//! change that makes the engine allocate per event has to say why.

use neat_sim::{Ctx, Event, MachineSpec, ProcId, Process, Sim, SimConfig, Time};
use std::cell::Cell;

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::COUNTS;

/// A token going round the ring; `live` ones are passed on, the others are
/// the filler of a burst and end where they land.
#[derive(Clone, Copy)]
struct Tok {
    n: u32,
    live: bool,
}

struct Node {
    next: ProcId,
    far: ProcId,
}

impl Node {
    fn pass(&self, ctx: &mut Ctx<'_, Tok>, n: u32) {
        let tok = |live| Tok { n: n + 1, live };
        ctx.charge(400);
        match n % 4 {
            0 => ctx.send(self.next, tok(true)),
            1 => {
                ctx.send(self.next, tok(false));
                ctx.send(self.next, tok(false));
                ctx.send(self.next, tok(true));
            }
            2 => ctx.set_timer(Time(900), n as u64),
            _ => ctx.send_delayed(self.far, tok(true), Time(800)),
        }
    }
}

impl Process<Tok> for Node {
    fn name(&self) -> String {
        String::new()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, Tok>, ev: Event<Tok>) {
        match ev {
            Event::Message { msg, .. } if msg.live => self.pass(ctx, msg.n),
            Event::Timer { token } => ctx.send(
                self.next,
                Tok {
                    n: token as u32 + 1,
                    live: true,
                },
            ),
            _ => {}
        }
    }
}

/// Allocations per 50 000 dispatched events after warm-up, parent (PR 22)
/// → this tree: 53 756 (6 851 152 B) → 0. (At the parent: an `outputs` and a
/// `woken_threads` vector per handler that sends, a `vec![msg]` per link
/// batch and its regrowth. Were a batch's vector handed on by value instead
/// of drained and recycled, the count would be 9 269, one per
/// multi-message batch delivery.)
#[test]
fn a_warm_engine_dispatches_without_allocating() {
    const EVENTS: u64 = 50_000;

    let mut sim: Sim<Tok> = Sim::new(SimConfig {
        batch_ns: 2_000,
        ..SimConfig::default()
    });
    let near = sim.add_machine(MachineSpec::amd_opteron_6168());
    let away = sim.add_machine(MachineSpec::amd_opteron_6168());
    // Six nodes in a ring on one machine; a seventh on another machine
    // that every fourth hop goes through. Pids are allocated in order.
    let pid = |m: u64, k: u64| ProcId((m + 1) << 40 | k);
    for k in 1..=6 {
        let t = sim.hw_thread(near, k as u32, 0);
        let (next, far) = (pid(0, k % 6 + 1), pid(1, 1));
        assert_eq!(sim.spawn(t, Box::new(Node { next, far })), pid(0, k));
    }
    let t = sim.hw_thread(away, 0, 0);
    let (next, far) = (pid(0, 1), pid(0, 4));
    sim.spawn(t, Box::new(Node { next, far }));
    for k in 1..=4 {
        sim.send_external(
            pid(0, k),
            Tok {
                n: k as u32,
                live: true,
            },
        );
    }

    let mut run = |events: u64| {
        let mut done = 0;
        while done < events {
            let step = sim.run_until(sim.now() + Time::from_micros(20));
            assert!(step > 0, "the tokens keep going round");
            done += step;
        }
        done
    };
    run(EVENTS);
    let before = COUNTS.with(Cell::get);
    let done = run(EVENTS);
    let after = COUNTS.with(Cell::get);

    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    println!("dispatch path: {allocs} allocations, {bytes} B per {done} events");
    let b = sim.batch_stats();
    assert!(b.batch_deliveries > 1_000 && b.flush_timer > b.batch_deliveries);
    assert_eq!(
        allocs, 0,
        "the engine allocates again: {bytes} B per {done} events"
    );
}
