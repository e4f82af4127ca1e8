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
        in_flight: 0,
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
                let n = rb.write(c);
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
/// boundaries, so entries migrate through coarse slots before firing.
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
            }
        }
    }

    check(
        "wheel_matches_sorted_list_model",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..60, |r| match r.gen_range(0u8..5) {
                0 => Op::Cancel {
                    key: r.gen_range(0u64..16),
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
/// across random writes, reads, and `SockOpt::RecvBuf` resizes.
#[test]
fn flow_window_never_exceeds_buffer() {
    check(
        "flow_window_never_exceeds_buffer",
        Config::default().cases(256),
        |rng| {
            vec_of(rng, 1..60, |r| {
                (r.gen_range(0u8..4), r.gen_range(1usize..600))
            })
        },
        |ops| {
            let mut rb = RecvBuffer::new(1024);
            for (op, n) in ops {
                match op {
                    0 | 1 => {
                        let data = vec![0xAB; n];
                        rb.write(&data);
                    }
                    2 => {
                        let mut out = vec![0u8; n];
                        rb.read(&mut out);
                    }
                    _ => rb.set_cap(n), // resize, clamped to buffered bytes
                }
                prop_assert!(rb.window() <= rb.cap(), "window within cap");
                prop_assert!(rb.len() <= rb.cap(), "buffered within cap");
                prop_assert_eq!(rb.window(), rb.cap() - rb.len());
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

/// The in-order fast path of `process_payload` (straight into the receive
/// buffer when the assembler is empty and the segment leaves no gap) is
/// the general path, faster: a socket taking it and a socket whose every
/// payload goes through the assembler (`ALWAYS_ASSEMBLE`, test-only) see
/// the same random mix of in-order, overlapping, duplicate, old,
/// beyond-window, over-capacity and buffer-filling segments, reads,
/// `RecvBuf` resizes and timers — and agree after every step on the
/// stream, `rcv_nxt`, the events raised and every ACK sent.
#[test]
fn in_order_bypass_matches_always_assembling() {
    use crate::components::flow_control::ALWAYS_ASSEMBLE;
    use crate::socket::TcpSocket;
    use crate::types::{SockOpt, TcpConfig, TcpState};
    use neat_net::{TcpFlags, TcpHeader};

    const LOCAL: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 80);
    const PEER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 5555);

    /// An established passive-open socket whose peer's stream starts at
    /// `irs + 1`, plus the ACK number the peer uses.
    fn established(irs: u32) -> (TcpSocket, SeqNum) {
        let cfg = TcpConfig {
            recv_buf: 4096,
            ..TcpConfig::default()
        };
        let mut syn = TcpHeader::new(PEER.1, LOCAL.1, SeqNum(irs), SeqNum(0), TcpFlags::SYN);
        syn.mss = Some(1460);
        let mut s = TcpSocket::accept_from_syn(SocketId(1), &cfg, LOCAL, PEER, &syn, SeqNum(77), 0);
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

    /// One step of the script, applied to one socket; returns what the
    /// socket put on the wire or handed the application.
    fn step(
        s: &mut TcpSocket,
        (irs, ack): (u32, SeqNum),
        (op, a, b): (u8, u16, u16),
        now: &mut u64,
    ) -> Vec<(TcpHeader, Vec<u8>)> {
        let mut out = Vec::new();
        match op % 8 {
            // A data segment somewhere around rcv_nxt: from 600 B behind
            // it (old, overlapping) to beyond the 4 KiB window.
            0..=3 => {
                let nxt = s.fc.rcv_nxt.0.wrapping_sub(irs.wrapping_add(1));
                let from = (nxt + u32::from(a % 6000)).saturating_sub(600);
                let from = if op % 4 == 0 { nxt } else { from }; // in order
                let len = u32::from(b % 1500) + 1;
                let payload: Vec<u8> = (from..from + len).map(|p| (p * 31 + 7) as u8).collect();
                let seq = SeqNum(irs) + 1 + from;
                let h = TcpHeader::new(PEER.1, LOCAL.1, seq, ack, TcpFlags::psh_ack());
                s.on_segment(&h, &payload, *now);
            }
            4 => {
                let mut buf = vec![0u8; usize::from(a % 5000)];
                let n = s.recv(&mut buf).unwrap_or(0);
                buf.truncate(n);
                out.push((s.bare_ack(), buf));
            }
            5 => s.set_opt(SockOpt::RecvBuf(usize::from(a % 8192))),
            6 => {
                *now += u64::from(a) * 10_000;
                s.on_timer(*now);
            }
            _ => {}
        }
        out.extend(std::iter::from_fn(|| s.poll_transmit(*now)));
        out
    }

    check(
        "in_order_bypass_matches_always_assembling",
        Config::default().cases(256),
        |rng| {
            (
                rng.gen::<u32>(),
                vec_of(rng, 1..120, |r| {
                    (r.gen::<u8>(), r.gen::<u16>(), r.gen::<u16>())
                }),
            )
        },
        |(irs, ops)| {
            let irs = irs | 0xFFFF_0000; // the stream crosses the sequence wrap
            let (mut fast, ack) = established(irs);
            let (mut slow, _) = established(irs);
            let (mut now_fast, mut now_slow) = (0u64, 0u64);
            let mut bypassed = 0;
            for op in ops {
                let before = (fast.fc.asm.is_empty(), fast.fc.rcv_nxt);
                let sent_fast = step(&mut fast, (irs, ack), op, &mut now_fast);
                ALWAYS_ASSEMBLE.with(|on| on.set(true));
                let sent_slow = step(&mut slow, (irs, ack), op, &mut now_slow);
                ALWAYS_ASSEMBLE.with(|on| on.set(false));
                bypassed += usize::from(before.0 && before.1 != fast.fc.rcv_nxt);
                prop_assert_eq!(&sent_fast, &sent_slow, "segments sent and bytes read");
                prop_assert_eq!(fast.fc.rcv_nxt, slow.fc.rcv_nxt);
                let ((a, b), (c, d)) = (fast.fc.recv_buf.as_slices(), slow.fc.recv_buf.as_slices());
                prop_assert_eq!([a, b].concat(), [c, d].concat());
                prop_assert_eq!(&fast.events, &slow.events);
                prop_assert_eq!(fast.fc.asm.buffered(), slow.fc.asm.buffered());
                prop_assert_eq!(fast.fc.asm.gaps(), slow.fc.asm.gaps());
                prop_assert_eq!(
                    (fast.fc.ack_now, fast.fc.ack_pending, fast.fc.ack_deadline),
                    (slow.fc.ack_now, slow.fc.ack_pending, slow.fc.ack_deadline)
                );
                prop_assert_eq!(fast.next_timeout(), slow.next_timeout());
            }
            // The slow socket's assembler was used (its one-slot `runs`
            // allocation is the 32 B the fast path no longer makes).
            prop_assert!(bypassed == 0 || slow.fc.asm.heap_bytes() > 0);
            Ok(())
        },
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
