//! Property tests for TCP engine internals (buffers, congestion control,
//! RTO estimation), on the in-tree `neat_util::check` harness.
//! Cross-socket stream properties live in the repository-level
//! `tests/protocol_properties.rs`.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::components::congestion_control::{make, AckEvent, Cubic, Reno};
use crate::components::CongestionControl;
use crate::rto::RttEstimator;
use crate::types::CongestionAlgo;
use crate::types::SocketId;
use crate::wheel::TimerWheel;
use neat_net::SeqNum;
use neat_util::check::{check, vec_of, Config};
use neat_util::{prop_assert, prop_assert_eq};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Plain data-ACK event for driving controllers in properties.
fn cc_ack(bytes: usize, now_ns: u64) -> AckEvent {
    AckEvent {
        newly_acked: bytes,
        rtt_sample: None,
        now_ns,
    }
}

/// SendBuffer: pushes + acks never lose or duplicate bytes; peek at
/// any in-range position returns exactly the pushed bytes.
#[test]
fn send_buffer_conserves_bytes() {
    check(
        "send_buffer_conserves_bytes",
        Config::default().cases(128),
        |rng| {
            (
                vec_of(rng, 1..50, |r| (r.gen::<bool>(), r.gen_range(1usize..300))),
                rng.gen::<u32>(),
            )
        },
        |(ops, base)| {
            let mut buf = SendBuffer::new(SeqNum(base), 4096);
            let mut model: Vec<u8> = Vec::new(); // unacked bytes
            let mut next_byte = 0u8;
            let mut acked = 0usize;
            for (is_push, n) in ops {
                if is_push {
                    let data: Vec<u8> = (0..n)
                        .map(|_| {
                            next_byte = next_byte.wrapping_add(1);
                            next_byte
                        })
                        .collect();
                    let pushed = buf.push(&data);
                    prop_assert!(pushed <= data.len());
                    model.extend_from_slice(&data[..pushed]);
                } else {
                    let k = n.min(model.len());
                    let freed = buf.ack_to(SeqNum(base) + (acked + k) as u32);
                    prop_assert_eq!(freed, k);
                    model.drain(..k);
                    acked += k;
                }
                prop_assert_eq!(buf.len(), model.len());
                // Peek the entire live region and compare with the model.
                let got = buf.peek(buf.base(), model.len());
                prop_assert_eq!(&got, &model);
            }
            Ok(())
        },
    );
}

/// An in-order append to a receive ring: place at the mark, move the mark
/// over what was kept.
fn append(rb: &mut RecvBuffer, data: &[u8]) -> usize {
    let n = rb.write_at(0, data);
    rb.advance(n);
    n
}

/// RecvBuffer: FIFO with capacity; what goes in comes out in order.
#[test]
fn recv_buffer_fifo() {
    check(
        "recv_buffer_fifo",
        Config::default().cases(128),
        |rng| vec_of(rng, 1..20, |r| neat_util::check::bytes(r, 1..100)),
        |chunks| {
            let mut rb = RecvBuffer::new(512);
            let mut model: Vec<u8> = Vec::new();
            for c in &chunks {
                let n = append(&mut rb, c);
                model.extend_from_slice(&c[..n]);
                prop_assert!(rb.len() <= 512);
                // Read a random-ish prefix back.
                let mut out = vec![0u8; model.len() / 2 + 1];
                let r = rb.read(&mut out);
                prop_assert_eq!(&out[..r], &model[..r]);
                model.drain(..r);
            }
            Ok(())
        },
    );
}

/// Reno invariants: cwnd stays >= 1 MSS, never exceeds doubling per
/// ACK volley, and loss events reduce it.
#[test]
fn reno_invariants() {
    check(
        "reno_invariants",
        Config::default().cases(128),
        |rng| vec_of(rng, 1..300, |r| r.gen::<bool>()),
        |acks| {
            let mss = 1460u16;
            let mut r = Reno::new(mss);
            for is_loss in acks {
                let before = r.cwnd();
                if is_loss {
                    r.on_loss(0);
                    prop_assert!(r.cwnd() <= before.max(2 * mss as usize));
                } else {
                    r.on_ack(&cc_ack(mss as usize, 0));
                    prop_assert!(r.cwnd() >= before);
                    prop_assert!(r.cwnd() <= before + mss as usize);
                }
                prop_assert!(r.cwnd() >= mss as usize);
            }
            Ok(())
        },
    );
}

/// CUBIC never collapses below 2*MSS on fast retransmit and grows
/// under ACK clocking.
#[test]
fn cubic_invariants() {
    check(
        "cubic_invariants",
        Config::default().cases(128),
        |rng| vec_of(rng, 1..200, |r| r.gen::<u8>()),
        |events| {
            let mss = 1460u16;
            let mut c = Cubic::new(mss);
            let mut now = 0u64;
            for e in events {
                now += 1_000_000;
                match e % 8 {
                    0 => {
                        c.on_loss(now);
                        prop_assert!(c.cwnd() >= 2 * mss as usize);
                    }
                    1 => {
                        c.on_rto(now);
                        prop_assert_eq!(c.cwnd(), mss as usize);
                    }
                    _ => {
                        let before = c.cwnd();
                        c.on_ack(&cc_ack(mss as usize, now));
                        prop_assert!(c.cwnd() >= before);
                    }
                }
            }
            Ok(())
        },
    );
}

/// The RTO estimator stays within clamps and backoff monotonically
/// increases until the next sample.
#[test]
fn rto_bounds() {
    check(
        "rto_bounds",
        Config::default().cases(128),
        |rng| {
            (
                vec_of(rng, 1..100, |r| r.gen_range(1_000u64..1_000_000_000)),
                rng.gen_range(0u32..10),
            )
        },
        |(samples, backoffs)| {
            let mut e = RttEstimator::new(200_000_000);
            for s in &samples {
                if *s == 0 {
                    continue;
                }
                e.sample(*s);
                prop_assert!(e.rto() >= 1_000_000, "floor: {}", e.rto());
                prop_assert!(e.rto() <= 60_000_000_000, "ceiling");
                prop_assert!(
                    e.rto() as f64 >= e.srtt().unwrap() as f64 * 0.99,
                    "rto >= srtt: {} vs {:?}",
                    e.rto(),
                    e.srtt()
                );
            }
            let mut prev = e.rto();
            for _ in 0..backoffs {
                e.backoff();
                prop_assert!(e.rto() >= prev);
                prev = e.rto();
            }
            Ok(())
        },
    );
}

/// Timer wheel vs a naive sorted-list model: any random mix of
/// schedule / reschedule / cancel / advance fires exactly the same keys
/// in exactly the same order (deadline, then arm sequence) as the model.
/// This covers the cascade machinery: advances jump across level
/// boundaries, so entries migrate through coarse slots before firing. A
/// catch-up moves the clock past due slots without firing them; they fire
/// at the next advance, and schedules in between hash against that clock.
#[test]
fn wheel_matches_sorted_list_model() {
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule key at now + delta (re-schedules if armed).
        Schedule {
            key: u64,
            delta: u64,
        },
        Cancel {
            key: u64,
        },
        Advance {
            delta: u64,
        },
        CatchUp {
            delta: u64,
        },
    }

    impl neat_util::check::Shrink for Op {
        fn shrink(&self) -> Vec<Op> {
            match *self {
                Op::Schedule { key, delta } => {
                    let mut out: Vec<Op> = delta
                        .shrink()
                        .into_iter()
                        .map(|d| Op::Schedule { key, delta: d })
                        .collect();
                    out.extend(
                        key.shrink()
                            .into_iter()
                            .map(|k| Op::Schedule { key: k, delta }),
                    );
                    out
                }
                Op::Cancel { key } => key
                    .shrink()
                    .into_iter()
                    .map(|k| Op::Cancel { key: k })
                    .collect(),
                Op::Advance { delta } => delta
                    .shrink()
                    .into_iter()
                    .filter(|d| *d > 0)
                    .map(|d| Op::Advance { delta: d })
                    .collect(),
                Op::CatchUp { delta } => delta
                    .shrink()
                    .into_iter()
                    .map(|d| Op::CatchUp { delta: d })
                    .collect(),
            }
        }
    }

    check(
        "wheel_matches_sorted_list_model",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..60, |r| match r.gen_range(0u8..6) {
                0 => Op::Cancel {
                    key: r.gen_range(0u64..16),
                },
                5 => Op::CatchUp {
                    delta: match r.gen_range(0u8..3) {
                        0 => r.gen_range(0u64..128),
                        1 => r.gen_range(128u64..1_000_000),
                        _ => r.gen_range(1_000_000u64..40_000_000_000),
                    },
                },
                1 | 2 => Op::Schedule {
                    key: r.gen_range(0u64..16),
                    // Mix of fine (inner-wheel) and very coarse (multi-
                    // level cascade) horizons.
                    delta: match r.gen_range(0u8..3) {
                        0 => r.gen_range(0u64..64),
                        1 => r.gen_range(64u64..100_000),
                        _ => r.gen_range(100_000u64..20_000_000_000),
                    },
                },
                _ => Op::Advance {
                    delta: match r.gen_range(0u8..3) {
                        0 => r.gen_range(1u64..128),
                        1 => r.gen_range(128u64..1_000_000),
                        _ => r.gen_range(1_000_000u64..40_000_000_000),
                    },
                },
            })
        },
        |ops| {
            let mut wheel = TimerWheel::new(0);
            // Model: key -> (deadline, seq). Firing order: (deadline, seq).
            let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::Schedule { key, delta } => {
                        let deadline = now + delta;
                        wheel.schedule(key, deadline);
                        seq += 1;
                        model.insert(key, (deadline, seq));
                        prop_assert_eq!(wheel.deadline_of(key), Some(deadline));
                    }
                    Op::Cancel { key } => {
                        let got = wheel.cancel(key);
                        let want = model.remove(&key).map(|(d, _)| d);
                        prop_assert_eq!(got, want);
                    }
                    Op::CatchUp { delta } => {
                        now += delta;
                        wheel.catch_up(now);
                    }
                    Op::Advance { delta } => {
                        now += delta;
                        let fired = wheel.fire(now);
                        let mut want: Vec<(u64, u64, u64)> = model
                            .iter()
                            .filter(|(_, (d, _))| *d <= now)
                            .map(|(k, (d, s))| (*d, *s, *k))
                            .collect();
                        want.sort_unstable();
                        for (_, _, k) in &want {
                            model.remove(k);
                        }
                        let want: Vec<u64> = want.into_iter().map(|(_, _, k)| k).collect();
                        prop_assert_eq!(&fired, &want, "at now={}", now);
                    }
                }
                prop_assert_eq!(wheel.len(), model.len());
                prop_assert_eq!(wheel.check_links(), Ok(()), "after {:?}", op);
            }
            // Drain everything left: all remaining keys must eventually
            // fire, in model order.
            let fired = wheel.fire(u64::MAX - 1);
            let mut want: Vec<(u64, u64, u64)> =
                model.iter().map(|(k, (d, s))| (*d, *s, *k)).collect();
            want.sort_unstable();
            let want: Vec<u64> = want.into_iter().map(|(_, _, k)| k).collect();
            prop_assert_eq!(&fired, &want, "final drain");
            prop_assert!(wheel.is_empty());
            Ok(())
        },
    );
}

/// `next_event()` is a sound lower bound: it is never later than the
/// earliest real deadline, and repeatedly advancing to it reaches every
/// deadline exactly (never skips past one).
#[test]
fn wheel_next_event_is_sound_lower_bound() {
    check(
        "wheel_next_event_is_sound_lower_bound",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..40, |r| {
                (r.gen_range(0u64..32), r.gen_range(0u64..30_000_000_000))
            })
        },
        |arms| {
            let mut wheel = TimerWheel::new(0);
            let mut deadlines: HashMap<u64, u64> = HashMap::new();
            for (key, deadline) in arms {
                wheel.schedule(key, deadline);
                deadlines.insert(key, deadline);
            }
            let mut hops = 0u32;
            while let Some(t) = wheel.next_event() {
                if let Some(earliest) = deadlines.values().copied().min() {
                    prop_assert!(
                        t <= earliest,
                        "lower bound violated: next_event {} vs earliest {}",
                        t,
                        earliest
                    );
                }
                for k in wheel.fire(t) {
                    let d = deadlines.remove(&k).expect("fired unknown key");
                    // Advancing exactly to the lower bound can only release
                    // timers whose true deadline IS that instant: never
                    // early, and (when driven this way) never late either.
                    prop_assert_eq!(d, t, "fired exactly at its deadline");
                }
                hops += 1;
                prop_assert!(hops < 4096, "cascade converges");
            }
            prop_assert!(deadlines.is_empty(), "no deadline skipped");
            Ok(())
        },
    );
}

/// The wheel's lazily kept per-level minima answer `earliest_slot` exactly
/// as the full scan over every occupied slot does — the same `(start,
/// level, slot)`, stale-low slot minima included — after every `schedule`,
/// `cancel`, `advance` and `next_event`. The cases arm deadlines in the past
/// and 100 ns to 20 s ahead, park later rotations in a slot beside earlier
/// ones and cancel slots' minima; the test checks that they did.
#[test]
fn wheel_earliest_slot_matches_full_scan() {
    #[derive(Debug, Clone)]
    enum Op {
        /// Arm `key` at `now + delta`, or at `now - delta` when `past`.
        Schedule {
            key: u64,
            delta: u64,
            past: bool,
        },
        /// Arm `key` `rot` level-0 rotations (64 ns each) after `of`'s
        /// deadline, if `of` is armed.
        Beside {
            key: u64,
            of: u64,
            rot: u64,
        },
        Cancel {
            key: u64,
        },
        Advance {
            delta: u64,
        },
        /// Ask `next_event` and advance to exactly that instant, as the
        /// stack's driver does.
        Next,
    }

    impl neat_util::check::Shrink for Op {
        fn shrink(&self) -> Vec<Op> {
            match *self {
                Op::Schedule { key, delta, past } => {
                    let mut out: Vec<Op> = delta
                        .shrink()
                        .into_iter()
                        .map(|d| Op::Schedule {
                            key,
                            delta: d,
                            past,
                        })
                        .collect();
                    out.extend(key.shrink().into_iter().map(|k| Op::Schedule {
                        key: k,
                        delta,
                        past,
                    }));
                    out
                }
                Op::Beside { key, of, rot } => {
                    let mut out: Vec<Op> = key
                        .shrink()
                        .into_iter()
                        .map(|k| Op::Beside { key: k, of, rot })
                        .collect();
                    out.extend(
                        of.shrink()
                            .into_iter()
                            .map(|o| Op::Beside { key, of: o, rot }),
                    );
                    out
                }
                Op::Cancel { key } => key
                    .shrink()
                    .into_iter()
                    .map(|k| Op::Cancel { key: k })
                    .collect(),
                Op::Advance { delta } => delta
                    .shrink()
                    .into_iter()
                    .map(|d| Op::Advance { delta: d })
                    .collect(),
                Op::Next => Vec::new(),
            }
        }
    }

    /// 100 ns to 20 s, spread over the powers of two in between; a third
    /// under 128 ns, because a slot holds two rotations, or a minimum a
    /// cancel made stale, only at level 0: a past deadline beside one
    /// less than 64 ns ahead.
    fn horizon(r: &mut neat_util::Rng) -> u64 {
        if r.gen_range(0u8..3) == 0 {
            return r.gen_range(0u64..128);
        }
        let hi = (100u64 << r.gen_range(0u32..28)).min(20_000_000_000);
        r.gen_range(100u64..hi + 1)
    }

    // Cases that armed a past deadline, a horizon of 1 s or more, and
    // steps after which a slot held a stale-low minimum or two rotations.
    let seen = std::cell::Cell::new([0u32; 4]);
    let count = |i: usize| {
        let mut s = seen.get();
        s[i] += 1;
        seen.set(s);
    };
    check(
        "wheel_earliest_slot_matches_full_scan",
        Config::default().cases(1024),
        |rng| {
            vec_of(rng, 1..80, |r| match r.gen_range(0u8..9) {
                0 | 1 => Op::Cancel {
                    key: r.gen_range(0u64..6),
                },
                2..=4 => {
                    let past = r.gen_range(0u8..3) == 0;
                    Op::Schedule {
                        key: r.gen_range(0u64..6),
                        delta: horizon(r),
                        past,
                    }
                }
                5 => Op::Beside {
                    key: r.gen_range(0u64..6),
                    of: r.gen_range(0u64..6),
                    rot: r.gen_range(1u64..3),
                },
                6 | 7 => Op::Advance { delta: horizon(r) },
                _ => Op::Next,
            })
        },
        |ops| {
            let mut wheel = TimerWheel::new(1 << 40);
            let mut now = 1u64 << 40;
            let (mut past, mut far, mut stale_low, mut rotations) = (false, false, false, false);
            for op in &ops {
                match *op {
                    Op::Schedule {
                        key,
                        delta,
                        past: p,
                    } => {
                        past |= p;
                        far |= delta >= 1_000_000_000;
                        let deadline = if p { now - delta } else { now + delta };
                        wheel.schedule(key, deadline);
                    }
                    Op::Beside { key, of, rot } => {
                        if let Some(d) = wheel.deadline_of(of) {
                            wheel.schedule(key, d + 64 * rot);
                        }
                    }
                    Op::Cancel { key } => {
                        wheel.cancel(key);
                    }
                    Op::Advance { delta } => {
                        now += delta;
                        wheel.fire(now);
                    }
                    Op::Next => {
                        if let Some(t) = wheel.next_event() {
                            now = now.max(t);
                            wheel.fire(now);
                        }
                    }
                }
                prop_assert_eq!(wheel.check_links(), Ok(()), "after {:?}", op);
                let (low, rot) = wheel.slot_census();
                stale_low |= low > 0;
                rotations |= rot > 0;
                prop_assert_eq!(
                    wheel.earliest_slot(),
                    wheel.earliest_slot_scan(),
                    "after {:?}",
                    op
                );
            }
            for (i, hit) in [past, far, stale_low, rotations].into_iter().enumerate() {
                if hit {
                    count(i);
                }
            }
            Ok(())
        },
    );
    let [past, far, stale_low, rotations] = seen.get();
    println!("cases with past deadlines {past}, ≥ 1 s horizons {far}, stale-low minima {stale_low}, rotations {rotations}");
    assert!(
        past.min(far).min(stale_low).min(rotations) > 0,
        "a situation the property must cover never arose"
    );
}

/// Reliability's retransmit queue vs a naive model: random push /
/// transmit-advance / cumulative-ack streams leave exactly the model's
/// unacked-byte suffix retransmittable, and the unsent tail
/// (`len_from(snd_nxt)`) matches the model's untransmitted remainder.
#[test]
fn retransmit_queue_matches_naive_model() {
    check(
        "retransmit_queue_matches_naive_model",
        Config::default().cases(256),
        |rng| {
            (
                vec_of(rng, 1..60, |r| {
                    (r.gen_range(0u8..3), r.gen_range(1usize..400))
                }),
                rng.gen::<u32>(),
            )
        },
        |(ops, base)| {
            let mut buf = SendBuffer::new(SeqNum(base), 8192);
            let mut snd_nxt = SeqNum(base); // next byte to transmit
                                            // Model: the whole unacked stream, plus how much of it has
                                            // been handed to the wire at least once.
            let mut model: Vec<u8> = Vec::new();
            let mut transmitted = 0usize;
            let mut next_byte = 0u8;
            for (op, n) in ops {
                match op {
                    0 => {
                        // App push (capacity-limited).
                        let data: Vec<u8> = (0..n)
                            .map(|_| {
                                next_byte = next_byte.wrapping_add(1);
                                next_byte
                            })
                            .collect();
                        let pushed = buf.push(&data);
                        model.extend_from_slice(&data[..pushed]);
                    }
                    1 => {
                        // Transmit: advance snd_nxt over untransmitted bytes
                        // (what transmit_new_data does segment by segment).
                        let k = n.min(model.len() - transmitted);
                        snd_nxt += k as u32;
                        transmitted += k;
                    }
                    _ => {
                        // Cumulative ACK of the oldest k unacked bytes; the
                        // socket never sees an ACK beyond snd_nxt.
                        let k = n.min(transmitted);
                        let freed = buf.ack_to(buf.base() + k as u32);
                        prop_assert_eq!(freed, k);
                        model.drain(..k);
                        transmitted -= k;
                    }
                }
                // Retransmittable region == every transmitted-unacked byte.
                prop_assert_eq!(buf.len_from(buf.base()), model.len());
                let rtx = buf.peek(buf.base(), transmitted);
                prop_assert_eq!(&rtx, &model[..transmitted]);
                // Unsent tail == untransmitted remainder.
                prop_assert_eq!(buf.len_from(snd_nxt), model.len() - transmitted);
            }
            Ok(())
        },
    );
}

/// Flow control: the advertised window never exceeds the configured
/// buffer capacity, never underflows, and always equals cap - buffered —
/// across random writes and reads.
#[test]
fn flow_window_never_exceeds_buffer() {
    check(
        "flow_window_never_exceeds_buffer",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..60, |r| {
                (r.gen_range(0u8..3), r.gen_range(1usize..600))
            })
        },
        |ops| {
            let mut rb = RecvBuffer::new(1024);
            for (op, n) in ops {
                match op {
                    0 | 1 => {
                        let data = vec![0xAB; n];
                        append(&mut rb, &data);
                    }
                    _ => {
                        let mut out = vec![0u8; n];
                        rb.read(&mut out);
                    }
                }
                prop_assert!(rb.len() <= 1024, "buffered within cap");
                prop_assert_eq!(rb.window(), 1024 - rb.len());
            }
            Ok(())
        },
    );
}

/// Every congestion controller, under arbitrary ack/loss/rto streams:
/// loss keeps cwnd >= 2*MSS, RTO keeps cwnd >= 1 MSS, and ssthresh
/// decreases monotonically across a run of consecutive loss events.
#[test]
fn all_controllers_keep_loss_floor_and_monotone_ssthresh() {
    const ALGOS: [CongestionAlgo; 4] = [
        CongestionAlgo::Reno,
        CongestionAlgo::Cubic,
        CongestionAlgo::Bbr,
        CongestionAlgo::Dctcp,
    ];
    check(
        "all_controllers_keep_loss_floor_and_monotone_ssthresh",
        Config::default().cases(128),
        |rng| {
            (
                rng.gen_range(0usize..ALGOS.len()),
                vec_of(rng, 1..200, |r| r.gen::<u8>()),
            )
        },
        |(which, events)| {
            let mss = 1460usize;
            let algo = ALGOS[which];
            let mut cc = make(algo, mss as u16);
            let mut now = 0u64;
            let mut in_loss_run = false;
            let mut last_ssthresh = usize::MAX;
            for e in events {
                now += 500_000;
                match e % 8 {
                    0 => {
                        let d = cc.on_loss(now);
                        prop_assert!(
                            d.cwnd >= 2 * mss,
                            "{:?}: post-loss cwnd {} < 2*MSS",
                            algo,
                            d.cwnd
                        );
                        if in_loss_run {
                            prop_assert!(
                                d.ssthresh <= last_ssthresh,
                                "{:?}: ssthresh rose mid loss run",
                                algo
                            );
                        }
                        in_loss_run = true;
                        last_ssthresh = d.ssthresh;
                    }
                    1 => {
                        let d = cc.on_rto(now);
                        prop_assert!(d.cwnd >= mss, "{:?}: post-RTO floor", algo);
                        in_loss_run = false;
                    }
                    _ => {
                        let d = cc.on_ack(&cc_ack(mss, now));
                        prop_assert!(d.cwnd >= mss, "{:?}: cwnd below 1 MSS", algo);
                        in_loss_run = false;
                    }
                }
            }
            Ok(())
        },
    );
}

/// The receive path against a flat byte-set model: an established socket
/// takes a peer stream (crossing the sequence wrap) cut two ways — in-order
/// segments of arbitrary length and a fixed grid of arbitrary cuts sent in
/// any order, with duplicates, overlaps, drops (grid cells never sent),
/// old bytes and bytes past the window — interleaved with `recv` sips and
/// timers. The socket's receive ring holds 4 KB, so a few segments fill
/// it and the window shuts and reopens as the sips come. The model holds a
/// set of stream positions: a segment the window accepts adds the
/// positions inside the ring's room, and the in-order edge eats every
/// position it reaches.
/// After every step `rcv_nxt`, the bytes read, `buffered()` and `gaps()`
/// match the model, every segment sent ACKs `rcv_nxt` with the model's
/// window, an out-of-order or unacceptable segment is ACKed at once, and
/// `Readable` is raised exactly when bytes became in-order.
#[test]
fn receive_path_matches_stream_model() {
    use crate::socket::TcpSocket;
    use crate::types::{SockEvent, TcpConfig, TcpState};
    use neat_net::{TcpFlags, TcpHeader};
    use std::collections::BTreeSet;

    const LOCAL: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 80);
    const PEER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 5555);
    const ID: SocketId = SocketId(1);
    /// The receive ring's capacity.
    const CAP: usize = 4096;

    /// The peer's byte at stream position `p`.
    fn byte(p: u32) -> u8 {
        (p.wrapping_mul(31) + 7) as u8
    }

    /// An established passive-open socket whose peer's stream starts at
    /// `irs + 1`, plus the ACK number the peer uses.
    fn established(irs: u32) -> (TcpSocket, SeqNum) {
        let mut syn = TcpHeader::new(PEER.1, LOCAL.1, SeqNum(irs), SeqNum(0), TcpFlags::SYN);
        syn.mss = Some(1460);
        let cfg = TcpConfig::default();
        let mut s = TcpSocket::accept_from_syn(ID, &cfg, LOCAL, PEER, &syn, SeqNum(77), 0);
        s.fc.recv_buf = RecvBuffer::new(CAP);
        let (syn_ack, _) = s.poll_transmit(0).expect("SYN-ACK");
        let ack = syn_ack.seq + 1;
        s.on_segment(
            &TcpHeader::new(PEER.1, LOCAL.1, SeqNum(irs) + 1, ack, TcpFlags::ack()),
            &[],
            0,
        );
        assert_eq!(s.state(), TcpState::Established);
        s.events.clear();
        (s, ack)
    }

    /// The model: stream positions `< nxt` are in order, `unread` of them
    /// not yet read; `held` are positions past `nxt`.
    struct Model {
        nxt: u32,
        unread: usize,
        held: BTreeSet<u32>,
    }

    impl Model {
        fn window(&self) -> usize {
            CAP - self.unread
        }

        /// RFC 793's acceptability test for a segment with payload.
        fn acceptable(&self, from: u32, len: u32) -> bool {
            let wnd = self.window() as i64;
            let (lo, hi) = (i64::from(from) - i64::from(self.nxt), i64::from(len));
            wnd > 0 && lo < wnd && lo + hi > 0
        }

        /// Take `[from, from+len)`; returns the positions that became in
        /// order.
        fn receive(&mut self, from: u32, len: u32) -> usize {
            let room = self.nxt + self.window() as u32;
            self.held
                .extend((from..from + len).filter(|&p| p >= self.nxt && p < room));
            let before = self.nxt;
            while self.held.remove(&self.nxt) {
                self.nxt += 1;
            }
            self.unread += (self.nxt - before) as usize;
            (self.nxt - before) as usize
        }

        /// Maximal runs of held positions.
        fn gaps(&self) -> usize {
            let starts = self.held.iter().filter(|&&p| !self.held.contains(&(p - 1)));
            starts.count()
        }
    }

    // Steps that left two or more gaps, steps that left the window shut,
    // and cases whose in-order edge crossed the sequence wrap.
    let seen = std::cell::Cell::new([0u32; 3]);
    let count = |i: usize| {
        let mut s = seen.get();
        s[i] += 1;
        seen.set(s);
    };
    check(
        "receive_path_matches_stream_model",
        Config::default().cases(256),
        |rng| {
            (
                rng.gen::<u32>(),
                vec_of(rng, 1..40, |r| r.gen_range(1u16..1500)),
                vec_of(rng, 1..160, |r| {
                    (r.gen::<u8>(), r.gen::<u16>(), r.gen::<u16>())
                }),
            )
        },
        |(irs, cuts, ops)| {
            if cuts.is_empty() || cuts.contains(&0) {
                return Ok(());
            }
            let irs = irs | 0xFFFF_0000; // the stream crosses the sequence wrap
            let (mut s, ack) = established(irs);
            // The grid: cell `i` is `[grid[i], grid[i + 1])`.
            let mut grid = vec![0u32];
            for c in cuts.iter().cycle() {
                let end = grid[grid.len() - 1] + u32::from(*c);
                grid.push(end);
                if end > 40_000 {
                    break;
                }
            }
            let mut m = Model {
                nxt: 0,
                unread: 0,
                held: BTreeSet::new(),
            };
            let mut now = 0u64;
            for (op, a, b) in ops {
                let mut ack_owed = false;
                let mut delivered = 0;
                match op % 7 {
                    // A segment: in order, a grid cell near the edge, or
                    // anywhere from 600 B behind it to past the window.
                    0..=4 => {
                        let (from, len) = match op % 7 {
                            0 | 1 => (m.nxt, u32::from(b % 1500) + 1),
                            2 | 3 => {
                                let here = grid.partition_point(|&g| g <= m.nxt).max(1) - 1;
                                let i = (here + usize::from(a % 6)).min(grid.len() - 2);
                                (grid[i], grid[i + 1] - grid[i])
                            }
                            _ => (
                                (m.nxt + u32::from(a % 6000)).saturating_sub(600),
                                u32::from(b % 1500) + 1,
                            ),
                        };
                        let payload: Vec<u8> = (from..from + len).map(byte).collect();
                        let seq = SeqNum(irs) + 1 + from;
                        let h = TcpHeader::new(PEER.1, LOCAL.1, seq, ack, TcpFlags::psh_ack());
                        if m.acceptable(from, len) {
                            delivered = m.receive(from, len);
                            ack_owed = !m.held.is_empty() && from != m.nxt;
                        } else {
                            ack_owed = true;
                        }
                        s.on_segment(&h, &payload, now);
                    }
                    5 => {
                        let mut buf = vec![0u8; usize::from(a % 5000)];
                        let n = s.recv(&mut buf).unwrap_or(0);
                        prop_assert_eq!(n, buf.len().min(m.unread));
                        let first = m.nxt - m.unread as u32;
                        let want: Vec<u8> = (first..first + n as u32).map(byte).collect();
                        prop_assert_eq!(&buf[..n], &want[..], "bytes read");
                        m.unread -= n;
                    }
                    _ => {
                        now += u64::from(a) * 10_000;
                        s.on_timer(now);
                    }
                }
                let sent: Vec<TcpHeader> =
                    std::iter::from_fn(|| s.poll_transmit(now).map(|(h, _)| h)).collect();
                prop_assert_eq!(s.fc.rcv_nxt, SeqNum(irs) + 1 + m.nxt);
                prop_assert_eq!(s.recv_available(), m.unread);
                prop_assert_eq!(s.recv_window_bytes(), m.window());
                prop_assert_eq!(s.fc.asm.buffered(), m.held.len());
                prop_assert_eq!(s.fc.asm.gaps(), m.gaps());
                prop_assert!(!ack_owed || !sent.is_empty(), "an ACK at once");
                for h in &sent {
                    prop_assert_eq!((h.ack, usize::from(h.window)), (s.fc.rcv_nxt, m.window()));
                }
                let readable = (delivered > 0).then_some(SockEvent::Readable(ID));
                prop_assert_eq!(&s.events, &Vec::from_iter(readable));
                s.events.clear();
                if m.gaps() >= 2 {
                    count(0);
                }
                if m.window() == 0 {
                    count(1);
                }
            }
            if s.fc.rcv_nxt.0 < irs {
                count(2);
            }
            Ok(())
        },
    );
    let [gaps, shut, wrapped] = seen.get();
    println!("steps with ≥ 2 gaps {gaps}, with the window shut {shut}, wrapped cases {wrapped}");
    assert!(
        gaps.min(shut).min(wrapped) > 0,
        "a situation the property must cover never arose"
    );
}

/// `TcpStack`: the structures that name a connection — slot table, demux,
/// timer wheel, budget, dirty queue, replication list, listener backlog
/// and accept queue — agree after every stimulus, whatever the
/// interleaving of user calls, segment loss and timers
/// (`TcpStack::check_consistent`); and once everything has closed and
/// TIME_WAIT has run out, nothing at all is left in either stack.
#[test]
fn stack_tables_agree_and_drain_to_zero() {
    use crate::socket::TcpSocket;
    use crate::stack::TcpStack;
    use crate::types::TcpConfig;
    use neat_net::TcpHeader;
    use std::collections::VecDeque;

    const IPS: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];

    /// Two stacks, each listening on port 80, joined by a lossy wire the
    /// property drives by hand.
    struct Net {
        stacks: [TcpStack; 2],
        listeners: [SocketId; 2],
        /// `wire[i]`: segments stack `i` sent that `1 - i` has not seen.
        wire: [VecDeque<(TcpHeader, Vec<u8>)>; 2],
        /// Ids each side's user holds (from `connect` and `accept`).
        known: [Vec<SocketId>; 2],
        now: u64,
    }

    impl Net {
        fn new() -> Net {
            let cfg = TcpConfig {
                initial_rto_ns: 50_000_000,
                ..TcpConfig::default()
            };
            let mut stacks = IPS.map(|ip| TcpStack::new(ip, cfg.clone()));
            stacks[1].set_repl_tracking(true);
            let listeners = [stacks[0].listen(80).unwrap(), stacks[1].listen(80).unwrap()];
            Net {
                stacks,
                listeners,
                wire: Default::default(),
                known: Default::default(),
                now: 0,
            }
        }

        /// Put what each stack has to say on its wire (which is also where
        /// closed sockets are reaped), then check both.
        fn settle(&mut self) {
            for (s, wire) in self.stacks.iter_mut().zip(&mut self.wire) {
                while let Some((_, h, p)) = s.poll_transmit(self.now) {
                    wire.push_back((h, p));
                }
                while s.poll_event().is_some() {}
                s.check_consistent();
            }
        }

        fn deliver(&mut self, from: usize) {
            if let Some((h, p)) = self.wire[from].pop_front() {
                self.stacks[1 - from].handle_segment(IPS[from], &h, &p, self.now);
            }
        }

        /// Deliver everything, losslessly, until both stacks fall silent.
        fn pump(&mut self) {
            self.settle();
            while self.wire.iter().any(|w| !w.is_empty()) {
                self.deliver(0);
                self.deliver(1);
                self.settle();
            }
        }

        fn run_timers(&mut self, until: u64) {
            self.now = self.now.max(until);
            for s in &mut self.stacks {
                while let Some(t) = s.next_timeout().filter(|t| *t <= until) {
                    s.on_timer(t);
                }
            }
            // The buddy's checkpoint drain, on the replicating side: every
            // real image decodes and re-encodes byte for byte.
            self.stacks[1].take_repl_dirty(|_, sock| {
                let img = sock.checkpoint();
                let back = TcpSocket::from_checkpoint(sock.id, &TcpConfig::default(), &img);
                assert_eq!(back.map(|s| s.checkpoint()), Some(img));
            });
            self.stacks[1].take_repl_closed();
        }

        fn accept(&mut self, side: usize) {
            if let Ok(id) = self.stacks[side].accept(self.listeners[side]) {
                self.known[side].push(id);
            }
        }

        fn step(&mut self, (op, pick, arg): (u8, u8, u16)) {
            let side = (pick & 1) as usize;
            let s = &mut self.stacks[side];
            let ids = &mut self.known[side];
            ids.retain(|id| s.state(*id).is_some());
            let id = ids.get((pick >> 1) as usize % ids.len().max(1)).copied();
            match (op % 10, id) {
                (0, _) if ids.len() < 6 => ids.extend(s.connect(IPS[1 - side], 80, self.now)),
                (1, _) => self.accept(side),
                (2, Some(id)) => drop(s.send(id, &vec![arg as u8; arg as usize % 4000 + 1])),
                (3, Some(id)) => drop(s.recv(id, &mut [0u8; 2048])),
                (4, Some(id)) => drop(s.close(id, self.now)),
                (5, Some(id)) => drop(s.abort(id)),
                (6 | 7, _) => self.deliver(side),
                (8, _) => drop(self.wire[side].pop_front()),
                (9, _) => self.run_timers(self.now + arg as u64 * 1_000_000),
                _ => {}
            }
            self.settle();
        }
    }

    check(
        "stack_tables_agree_and_drain_to_zero",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..200, |r| {
                (r.gen::<u8>(), r.gen::<u8>(), r.gen::<u16>())
            })
        },
        |ops| {
            let mut net = Net::new();
            for op in ops {
                net.step(op);
            }
            // Wind down over a lossless wire: accept and close whatever
            // the users can reach, and let every deadline (retransmits,
            // TIME_WAIT) run out.
            for _ in 0..400 {
                for side in 0..2 {
                    while net.stacks[side].acceptable(net.listeners[side]) > 0 {
                        net.accept(side);
                    }
                    for id in net.known[side].clone() {
                        let _ = net.stacks[side].close(id, net.now);
                    }
                }
                net.pump();
                match net.stacks.iter().filter_map(|s| s.next_timeout()).min() {
                    Some(t) => net.run_timers(t),
                    None => break,
                }
            }
            // What is left waits on a peer that is gone (FIN_WAIT_2, a
            // zero window nobody will open): abort it.
            for s in &mut net.stacks {
                for id in s.socket_ids() {
                    let _ = s.abort(id);
                }
            }
            net.pump();
            for s in &net.stacks {
                prop_assert_eq!(s.socket_ids().len(), 0);
                prop_assert_eq!(s.conn_count(), 0, "demux entries");
                prop_assert_eq!(s.next_timeout(), None, "armed timers");
                prop_assert_eq!(s.budget().bytes_total(), 0, "budget bytes");
                prop_assert_eq!(s.budget().conns(), 0);
            }
            Ok(())
        },
    );
}

/// `TcpStack`: a socket at rest owns no ring. Over two stacks joined by a
/// wire that drops and reorders, whatever the interleaving of opens,
/// sends, partial reads, closes, aborts and timers, after every step: no
/// live socket holds a ring with storage but no byte; the budget's spare
/// bytes are the parked storages' capacity, and its live bytes the
/// sockets' footprints; and every byte a socket reads is the next byte of
/// what its peer sent — all of it, once the read says EOF.
#[test]
fn drained_rings_park_and_streams_match_a_flat_model() {
    use crate::stack::TcpStack;
    use crate::types::TcpConfig;
    use neat_net::TcpHeader;
    use std::collections::VecDeque;

    const IPS: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];

    /// One direction of one connection: the side that opened it, its
    /// ephemeral port, and whether the bytes flow from the opener.
    type Stream = (usize, u16, bool);

    struct Net {
        stacks: [TcpStack; 2],
        listeners: [SocketId; 2],
        /// `wire[i]`: segments stack `i` sent that `1 - i` has not seen.
        wire: [VecDeque<(TcpHeader, Vec<u8>)>; 2],
        /// Ids each side's user holds, with the streams each sends on.
        known: [Vec<(SocketId, Stream)>; 2],
        /// What each stream's sender had accepted, and what its reader read.
        sent: HashMap<Stream, Vec<u8>>,
        read: HashMap<Stream, Vec<u8>>,
        now: u64,
    }

    fn reverse((opener, port, out): Stream) -> Stream {
        (opener, port, !out)
    }

    impl Net {
        fn new() -> Net {
            let cfg = TcpConfig {
                initial_rto_ns: 50_000_000,
                ..TcpConfig::default()
            };
            let mut stacks = IPS.map(|ip| TcpStack::new(ip, cfg.clone()));
            let listeners = [stacks[0].listen(80).unwrap(), stacks[1].listen(80).unwrap()];
            Net {
                stacks,
                listeners,
                wire: Default::default(),
                known: Default::default(),
                sent: HashMap::new(),
                read: HashMap::new(),
                now: 0,
            }
        }

        /// Put what each stack has to say on its wire, drop the events,
        /// and check the rings and the budget.
        fn settle(&mut self) -> Result<(), String> {
            for (s, wire) in self.stacks.iter_mut().zip(&mut self.wire) {
                while let Some((_, h, p)) = s.poll_transmit(self.now) {
                    wire.push_back((h, p));
                }
                while s.poll_event().is_some() {}
                let f = s.footprint();
                prop_assert_eq!(f.idle_rings, 0, "an empty ring keeps storage");
                let parked = (f.spare_send + f.spare_recv) as u64;
                prop_assert_eq!(s.budget().spare_bytes(), parked, "spare bytes");
                prop_assert_eq!(s.budget().bytes_total(), f.mem_bytes as u64, "live bytes");
            }
            Ok(())
        }

        fn accept(&mut self, side: usize) {
            while let Ok(id) = self.stacks[side].accept(self.listeners[side]) {
                let (_, port) = self.stacks[side].ports(id).unwrap();
                self.known[side].push((id, (1 - side, port, false)));
            }
        }

        /// Read up to `len` bytes from `id`: each is the next of its
        /// stream, and at EOF the stream is whole.
        fn recv(
            &mut self,
            side: usize,
            (id, out): (SocketId, Stream),
            len: usize,
        ) -> Result<usize, String> {
            let mut buf = vec![0u8; len];
            let stream = reverse(out);
            let got = self.read.entry(stream).or_default();
            let sent = self.sent.get(&stream).map_or(&[][..], |s| &s[..]);
            match self.stacks[side].recv(id, &mut buf) {
                Ok(0) => {
                    prop_assert!(
                        got[..] == sent[..],
                        "EOF before the whole stream: {stream:?}"
                    );
                    Ok(0)
                }
                Ok(n) => {
                    got.extend_from_slice(&buf[..n]);
                    prop_assert!(sent.starts_with(got), "a byte out of order: {stream:?}");
                    Ok(n)
                }
                Err(_) => Ok(0),
            }
        }

        fn step(&mut self, (op, pick, arg): (u8, u8, u16)) -> Result<(), String> {
            let side = (pick & 1) as usize;
            let s = &mut self.stacks[side];
            self.known[side].retain(|(id, _)| s.state(*id).is_some());
            let ids = &self.known[side];
            let sock = ids.get((pick >> 1) as usize % ids.len().max(1)).copied();
            match (op % 16, sock) {
                (0, _) if ids.len() < 6 => {
                    if let Ok(id) = s.connect(IPS[1 - side], 80, self.now) {
                        let (port, _) = s.ports(id).unwrap();
                        self.known[side].push((id, (side, port, true)));
                    }
                }
                (1, _) => self.accept(side),
                (2 | 3, Some((id, out))) => {
                    let sent = self.sent.entry(out).or_default();
                    let len = arg as usize % 4000 + 1;
                    let data: Vec<u8> = (sent.len()..sent.len() + len)
                        .map(|i| (i * 31 + out.1 as usize) as u8)
                        .collect();
                    if let Ok(n) = s.send(id, &data) {
                        sent.extend_from_slice(&data[..n]);
                    }
                }
                (4 | 5, Some(sock)) => drop(self.recv(side, sock, arg as usize % 3000 + 1)?),
                (6, Some((id, _))) => drop(s.close(id, self.now)),
                (7, Some((id, _))) if arg % 4 == 0 => drop(s.abort(id)),
                (8..=11, _) => {
                    if let Some((h, p)) = self.wire[side].pop_front() {
                        self.stacks[1 - side].handle_segment(IPS[side], &h, &p, self.now);
                    }
                }
                (12, _) => drop(self.wire[side].pop_front()),
                (13, _) if self.wire[side].len() > 1 => self.wire[side].swap(0, 1),
                (14, _) => self.run_timers(self.now + arg as u64 * 100_000),
                (15, _) => self.pump()?,
                _ => {}
            }
            self.settle()
        }

        fn run_timers(&mut self, until: u64) {
            self.now = self.now.max(until);
            for s in &mut self.stacks {
                while let Some(t) = s.next_timeout().filter(|t| *t <= until) {
                    s.on_timer(t);
                }
            }
        }

        /// Deliver everything, losslessly, until both stacks fall silent.
        fn pump(&mut self) -> Result<(), String> {
            self.settle()?;
            while self.wire.iter().any(|w| !w.is_empty()) {
                for (from, ip) in IPS.into_iter().enumerate() {
                    if let Some((h, p)) = self.wire[from].pop_front() {
                        self.stacks[1 - from].handle_segment(ip, &h, &p, self.now);
                    }
                }
                self.settle()?;
            }
            Ok(())
        }

        /// Read all each side's user can reach.
        fn drain(&mut self) -> Result<(), String> {
            for side in 0..2 {
                for sock in self.known[side].clone() {
                    while self.recv(side, sock, 4096)? > 0 {}
                }
            }
            self.settle()
        }
    }

    check(
        "drained_rings_park_and_streams_match_a_flat_model",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..200, |r| {
                (r.gen::<u8>(), r.gen::<u8>(), r.gen::<u16>())
            })
        },
        |ops| {
            let mut net = Net::new();
            for op in ops {
                net.step(op)?;
            }
            // Wind down over a lossless wire: read and close whatever the
            // users can reach, and let every deadline run out.
            for _ in 0..400 {
                for side in 0..2 {
                    net.accept(side);
                }
                net.drain()?;
                for side in 0..2 {
                    for (id, _) in net.known[side].clone() {
                        let _ = net.stacks[side].close(id, net.now);
                    }
                }
                net.pump()?;
                net.drain()?;
                match net.stacks.iter().filter_map(|s| s.next_timeout()).min() {
                    Some(t) => net.run_timers(t),
                    None => break,
                }
            }
            Ok(())
        },
    );
}

/// `TcpStack`: an id outlives its connection but not its meaning. Over a
/// client and a server stack joined by a lossless wire, a schedule opens,
/// sends, reads, closes and aborts connections and lets TIME_WAIT run
/// out, over and over, so seats are reused. After every step every id
/// either stack ever issued goes to every id-taking call: a dead id — and
/// the listener's, to the socket calls — gets `NoSocket`, `None`, `false`
/// or 0 and changes nothing; so does a retired TIME-WAIT connection's,
/// whose `state` alone still answers, and its peer's FIN sent again gets
/// TIME-WAIT's ACK, not a RST; every byte a live socket reads is the next
/// of what its peer sent, all of it at EOF; and `check_consistent` holds.
#[test]
fn stale_ids_stay_inert_and_streams_match_a_flat_model() {
    use crate::stack::TcpStack;
    use crate::types::{TcpConfig, TcpError, TcpState};
    use neat_net::TcpFlags;
    use neat_util::check::TestResult;
    use std::cell::Cell;

    const IPS: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];

    /// One direction of one connection: its number in the schedule, and
    /// whether the bytes flow from the client.
    type Stream = (usize, bool);

    /// What a stack shows without being stimulated: a stale id's calls
    /// must leave all of it as it was.
    fn snapshot(s: &TcpStack, ids: &[(SocketId, Stream)]) -> String {
        let live: Vec<_> = (ids.iter())
            .map(|&(id, _)| (s.state(id), s.recv_available(id)))
            .collect();
        let b = s.budget();
        format!(
            "{live:?} {} {} {} {:?}",
            s.conn_count(),
            b.bytes_total(),
            b.spare_bytes(),
            s.next_timeout()
        )
    }

    struct Net {
        /// `stacks[0]` connects; `stacks[1]` listens on port 80.
        stacks: [TcpStack; 2],
        listener: SocketId,
        /// Every connection id each side was handed, with the stream it
        /// sends on.
        issued: [Vec<(SocketId, Stream)>; 2],
        /// The client's port of each connection, by its number.
        ports: Vec<u16>,
        sent: HashMap<Stream, Vec<u8>>,
        read: HashMap<Stream, Vec<u8>>,
        now: u64,
        /// New ids that took a seat a dead id names.
        reused: usize,
        /// Retired TIME-WAIT connections probed.
        retired: usize,
    }

    impl Net {
        fn new() -> Net {
            let cfg = TcpConfig {
                initial_rto_ns: 50_000_000,
                time_wait_ns: 2_000_000,
                ..TcpConfig::default()
            };
            let mut stacks = IPS.map(|ip| TcpStack::new(ip, cfg.clone()));
            let listener = stacks[1].listen(80).unwrap();
            Net {
                stacks,
                listener,
                issued: Default::default(),
                ports: Vec::new(),
                sent: HashMap::new(),
                read: HashMap::new(),
                now: 0,
                reused: 0,
                retired: 0,
            }
        }

        fn issue(&mut self, side: usize, id: SocketId, stream: Stream) {
            let stack = &self.stacks[side];
            let dead_here =
                |&(x, _): &(SocketId, Stream)| x.seat() == id.seat() && stack.state(x).is_none();
            if self.issued[side].iter().any(dead_here) {
                self.reused += 1;
            }
            self.issued[side].push((id, stream));
        }

        /// Deliver everything until both stacks fall silent, accepting
        /// what the listener holds and dropping the events.
        fn pump(&mut self) {
            loop {
                let mut moved = false;
                for (from, ip) in IPS.into_iter().enumerate() {
                    while let Some((_, h, p)) = self.stacks[from].poll_transmit(self.now) {
                        self.stacks[1 - from].handle_segment(ip, &h, &p, self.now);
                        moved = true;
                    }
                }
                while let Ok(id) = self.stacks[1].accept(self.listener) {
                    let (_, port) = self.stacks[1].ports(id).unwrap();
                    let conn = self.ports.iter().position(|p| *p == port).unwrap();
                    self.issue(1, id, (conn, false));
                }
                for s in &mut self.stacks {
                    while s.poll_event().is_some() {}
                }
                if !moved {
                    return;
                }
            }
        }

        fn run_timers(&mut self, until: u64) {
            self.now = self.now.max(until);
            for s in &mut self.stacks {
                while let Some(t) = s.next_timeout().filter(|t| *t <= until) {
                    s.on_timer(t);
                }
            }
        }

        /// Read up to `len` bytes: each the next of its stream, and at
        /// EOF the stream is whole.
        fn recv(&mut self, side: usize, (id, out): (SocketId, Stream), len: usize) -> TestResult {
            let stream = (out.0, !out.1);
            let mut buf = vec![0u8; len];
            let got = self.read.entry(stream).or_default();
            let sent = self.sent.get(&stream).map_or(&[][..], |s| &s[..]);
            match self.stacks[side].recv(id, &mut buf) {
                Ok(0) => prop_assert!(got[..] == sent[..], "EOF before the whole {stream:?}"),
                Ok(n) => {
                    got.extend_from_slice(&buf[..n]);
                    prop_assert!(sent.starts_with(got), "a byte out of order: {stream:?}");
                }
                Err(_) => {}
            }
            Ok(())
        }

        fn step(&mut self, (op, pick, arg): (u8, u8, u16)) -> TestResult {
            let side = (pick & 1) as usize;
            let live: Vec<(SocketId, Stream)> = (self.issued[side].iter())
                .filter(|(id, _)| self.stacks[side].state(*id).is_some())
                .copied()
                .collect();
            let sock = live.get((pick >> 1) as usize % live.len().max(1)).copied();
            match (op % 10, sock) {
                (0 | 1, _) if self.issued[0].len() - self.reaped(0) < 8 => {
                    if let Ok(id) = self.stacks[0].connect(IPS[1], 80, self.now) {
                        let (port, _) = self.stacks[0].ports(id).unwrap();
                        self.ports.push(port);
                        self.issue(0, id, (self.ports.len() - 1, true));
                    }
                }
                (2 | 3, Some((id, out))) => {
                    let sent = self.sent.entry(out).or_default();
                    let data: Vec<u8> = (sent.len()..sent.len() + arg as usize % 3000 + 1)
                        .map(|i| (i * 31 + out.0 * 7 + out.1 as usize) as u8)
                        .collect();
                    if let Ok(n) = self.stacks[side].send(id, &data) {
                        sent.extend_from_slice(&data[..n]);
                    }
                }
                (4 | 5, Some(sock)) => self.recv(side, sock, arg as usize % 4000 + 1)?,
                (6, Some((id, _))) => drop(self.stacks[side].close(id, self.now)),
                (7, Some((id, _))) if arg % 3 == 0 => drop(self.stacks[side].abort(id)),
                (8 | 9, _) => self.run_timers(self.now + arg as u64 % 4_000 * 1_000),
                _ => {}
            }
            self.pump();
            self.check_stale()
        }

        /// How many of `side`'s issued ids are dead.
        fn reaped(&self, side: usize) -> usize {
            let dead = |(id, _): &&(SocketId, Stream)| self.stacks[side].state(*id).is_none();
            self.issued[side].iter().filter(dead).count()
        }

        /// Every dead id, and the listener's, through every call that
        /// takes one.
        fn check_stale(&mut self) -> TestResult {
            for side in 0..2 {
                let s = &mut self.stacks[side];
                s.check_consistent();
                let (dead, live): (Vec<_>, Vec<_>) =
                    (self.issued[side].iter()).partition(|(id, _)| s.state(*id).is_none());
                let live: Vec<(SocketId, Stream)> = live.into_iter().copied().collect();
                let before = snapshot(s, &live);
                let mut stale: Vec<SocketId> = dead.iter().map(|(id, _)| *id).collect();
                stale.push(self.listener);
                for id in stale {
                    let no = Err(TcpError::NoSocket);
                    prop_assert_eq!(s.send(id, b"stale"), no.clone(), "send {id:?}");
                    prop_assert_eq!(s.recv(id, &mut [0u8; 8]), no.clone(), "recv {id:?}");
                    let algo = CongestionAlgo::Bbr;
                    prop_assert_eq!(s.set_congestion(id, algo), Err(TcpError::NoSocket));
                    prop_assert_eq!(s.close(id, self.now), Err(TcpError::NoSocket));
                    prop_assert_eq!(s.abort(id), Err(TcpError::NoSocket));
                    prop_assert_eq!((s.state(id), s.recv_available(id)), (None, 0));
                    if id != self.listener {
                        prop_assert_eq!(s.accept(id), Err(TcpError::NoSocket));
                        prop_assert_eq!(s.acceptable(id), 0);
                        prop_assert!(!s.remove_conn(id), "remove_conn {id:?}");
                    }
                }
                prop_assert_eq!(snapshot(s, &live), before, "a stale id changed something");
                prop_assert!(s.poll_transmit(self.now).is_none(), "a stale id sent");
                prop_assert!(s.poll_event().is_none(), "a stale id raised an event");
                s.check_consistent();
                self.check_retired(side)?;
            }
            Ok(())
        }

        /// Every retired TIME-WAIT connection's id through every call that
        /// takes one, then its peer's FIN, sent again, to its flow.
        fn check_retired(&mut self, side: usize) -> TestResult {
            let s = &mut self.stacks[side];
            let live: Vec<(SocketId, Stream)> = (self.issued[side].iter())
                .filter(|(id, _)| s.state(*id).is_some())
                .copied()
                .collect();
            let before = snapshot(s, &live);
            let retired = s.time_wait_ids();
            for &id in &retired {
                let state = s.state(id);
                prop_assert!(
                    matches!(state, Some(TcpState::TimeWait | TcpState::Closed)),
                    "{id:?} is {state:?}"
                );
                let no = TcpError::NoSocket;
                prop_assert_eq!(s.send(id, b"late"), Err(no), "send {id:?}");
                prop_assert_eq!(s.recv(id, &mut [0u8; 8]), Err(no), "recv {id:?}");
                prop_assert_eq!(s.set_congestion(id, CongestionAlgo::Bbr), Err(no));
                prop_assert_eq!(s.close(id, self.now), Err(no), "close {id:?}");
                prop_assert_eq!(s.abort(id), Err(no), "abort {id:?}");
                prop_assert_eq!(s.accept(id), Err(no));
                prop_assert_eq!((s.recv_available(id), s.acceptable(id)), (0, 0));
                prop_assert!(!s.remove_conn(id), "remove_conn {id:?}");
                prop_assert_eq!(s.state(id), state, "{id:?}'s state moved");
            }
            prop_assert_eq!(snapshot(s, &live), before, "a retired id changed something");
            prop_assert!(s.poll_transmit(self.now).is_none(), "a retired id sent");
            prop_assert!(s.poll_event().is_none(), "a retired id raised an event");
            let peer = IPS[1 - side];
            for id in retired {
                let Some(fin) = s.time_wait_probe(id) else {
                    continue;
                };
                self.retired += 1;
                s.handle_segment(peer, &fin, &[], self.now);
                let answer = s.poll_transmit(self.now);
                let (dst, h, p) = answer.ok_or(format!("{id:?}: no answer"))?;
                prop_assert_eq!(h.flags, TcpFlags::ack(), "{id:?}: {h:?}");
                prop_assert_eq!(
                    (dst, h.src_port, h.dst_port),
                    (peer, fin.dst_port, fin.src_port)
                );
                prop_assert_eq!((h.seq, h.ack, p.len()), (fin.ack, fin.seq + 1, 0));
                prop_assert!(s.poll_transmit(self.now).is_none(), "{id:?}: more");
                prop_assert!(s.poll_event().is_none(), "{id:?}: an event");
                prop_assert_eq!(s.state(id), Some(TcpState::TimeWait));
            }
            s.check_consistent();
            Ok(())
        }
    }

    let reused = Cell::new(0);
    let retired = Cell::new(0);
    check(
        "stale_ids_stay_inert_and_streams_match_a_flat_model",
        Config::default().cases(128),
        |rng| {
            vec_of(rng, 1..200, |r| {
                (r.gen::<u8>(), r.gen::<u8>(), r.gen::<u16>())
            })
        },
        |ops| {
            let mut net = Net::new();
            for op in ops {
                net.step(op)?;
            }
            reused.set(reused.get() + net.reused);
            retired.set(retired.get() + net.retired);
            Ok(())
        },
    );
    println!(
        "new ids in a seat a dead id names: {}, retired connections probed: {}",
        reused.get(),
        retired.get()
    );
    assert!(reused.get() > 0, "no seat was ever reused");
    assert!(retired.get() > 0, "no connection ever retired");
}
