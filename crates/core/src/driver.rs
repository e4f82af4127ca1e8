//! The NIC driver process.
//!
//! One single-threaded process on its own core (§3.5: the paper never
//! needed to scale the driver — 10G line rate fits on one core). It moves
//! frames between the NIC's queues and the per-replica channels, and it is
//! the enforcement point of the recovery protocol: while a replica is down
//! the driver "does not pass any packets to the recovering replica until it
//! announces itself again" (§3.6).

use crate::msg::Msg;
use neat_sim::{calibration, Ctx, Event, ProcId, Process, Time};

/// The NIC driver.
pub struct DriverProc {
    pub name: String,
    /// The NIC device this driver serves.
    nic: ProcId,
    /// Head process of each replica's ingress pipeline, indexed by queue.
    /// `None` while the replica is down (recovery hold).
    heads: Vec<Option<ProcId>>,
    /// End of the last descriptor operation (batch amortization).
    last_op_ns: u64,
    obs: DriverObs,
}

/// Metrics-registry handles for the driver's forwarding counters.
struct DriverObs {
    rx_forwarded: neat_obs::Counter,
    tx_forwarded: neat_obs::Counter,
    /// Frames dropped because the replica was down.
    held_dropped: neat_obs::Counter,
}

impl DriverObs {
    fn new() -> DriverObs {
        DriverObs {
            rx_forwarded: neat_obs::counter("driver.rx_forwarded"),
            tx_forwarded: neat_obs::counter("driver.tx_forwarded"),
            held_dropped: neat_obs::counter("driver.held_dropped"),
        }
    }
}

impl DriverProc {
    pub fn new(name: impl Into<String>, nic: ProcId, queues: usize) -> DriverProc {
        DriverProc {
            name: name.into(),
            nic,
            heads: vec![None; queues],
            last_op_ns: 0,
            obs: DriverObs::new(),
        }
    }

    /// NAPI-style batching: descriptor work within a batch window is much
    /// cheaper than the first (cold) packet of a batch.
    fn desc_cost(&mut self, now: u64, cold: u64, batched: u64) -> u64 {
        let cost = if now.saturating_sub(self.last_op_ns) <= calibration::DRV_BATCH_WINDOW_NS {
            batched
        } else {
            cold
        };
        self.last_op_ns = now;
        cost
    }

    /// RX forward: NIC queue -> replica pipeline head, at the given
    /// descriptor cost.
    fn rx_frame(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        queue: usize,
        frame: neat_net::PktBuf,
        cost: u64,
    ) {
        ctx.charge(cost);
        match self.heads.get(queue).copied().flatten() {
            Some(head) if ctx.is_alive(head) => {
                self.obs.rx_forwarded.inc();
                if !neat_net::pktbuf::pooling() {
                    // Copy-charge ablation: a stack without shared buffers
                    // deep-copies the frame into the replica's channel here.
                    ctx.charge(calibration::copy_cost(frame.len()));
                }
                ctx.send(head, Msg::NetRx(frame));
            }
            _ => {
                // Replica down: hold (drop) until it re-announces.
                // TCP retransmission absorbs the gap (§3.6).
                self.obs.held_dropped.inc();
            }
        }
    }

    /// TX forward: stack component -> NIC, at the given descriptor cost.
    fn tx_frame(&mut self, ctx: &mut Ctx<'_, Msg>, frame: neat_net::PktBuf, cost: u64) {
        ctx.charge(cost);
        self.obs.tx_forwarded.inc();
        if !neat_net::pktbuf::pooling() {
            ctx.charge(calibration::copy_cost(frame.len()));
        }
        ctx.send(self.nic, Msg::HostTx(frame));
    }
}

impl Process<Msg> for DriverProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcId, msgs: &mut Vec<Msg>) {
        // A coalesced run of frames is one vectored ring pass: the first
        // frame pays the usual (possibly cold) descriptor cost, the rest
        // pay the bulk vectored rate (§3.4; rx_pop_batch on the device
        // side is the matching NIC-facing drain).
        let mut in_run = false;
        for msg in msgs.drain(..) {
            match msg {
                Msg::RxFrame { queue, frame } => {
                    let now = ctx.now().as_nanos();
                    let cost = if in_run {
                        self.last_op_ns = now;
                        calibration::DRV_RX_PKT_VECTORED
                    } else {
                        self.desc_cost(
                            now,
                            calibration::DRV_RX_PKT,
                            calibration::DRV_RX_PKT_BATCHED,
                        )
                    };
                    self.rx_frame(ctx, queue, frame, cost);
                    in_run = true;
                }
                Msg::NetTx(frame) => {
                    let now = ctx.now().as_nanos();
                    let cost = if in_run {
                        self.last_op_ns = now;
                        calibration::DRV_TX_PKT_VECTORED
                    } else {
                        self.desc_cost(
                            now,
                            calibration::DRV_TX_PKT,
                            calibration::DRV_TX_PKT_BATCHED,
                        )
                    };
                    self.tx_frame(ctx, frame, cost);
                    in_run = true;
                }
                other => self.on_event(ctx, Event::Message { from, msg: other }),
            }
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        let Event::Message { msg, .. } = ev else {
            return;
        };
        match msg {
            // --- RX path: NIC queue -> replica pipeline head.
            Msg::RxFrame { queue, frame } => {
                let now = ctx.now().as_nanos();
                let cost = self.desc_cost(
                    now,
                    calibration::DRV_RX_PKT,
                    calibration::DRV_RX_PKT_BATCHED,
                );
                self.rx_frame(ctx, queue, frame, cost);
            }
            // --- TX path: any stack component -> NIC.
            Msg::NetTx(frame) => {
                let now = ctx.now().as_nanos();
                let cost = self.desc_cost(
                    now,
                    calibration::DRV_TX_PKT,
                    calibration::DRV_TX_PKT_BATCHED,
                );
                self.tx_frame(ctx, frame, cost);
            }
            // --- Replica lifecycle.
            Msg::Announce { queue, head } => {
                if queue >= self.heads.len() {
                    self.heads.resize(queue + 1, None);
                }
                self.heads[queue] = Some(head);
            }
            Msg::ReplicaDown { queue } => {
                if let Some(h) = self.heads.get_mut(queue) {
                    *h = None;
                }
            }
            // --- NIC control plane, forwarded to the device.
            Msg::NicAddFilter { flow, queue } => {
                ctx.charge(calibration::DRV_TX_PKT); // PCI write cost
                ctx.send(self.nic, Msg::NicAddFilter { flow, queue });
            }
            Msg::NicSetAccepting { queue, accepting } => {
                ctx.send(self.nic, Msg::NicSetAccepting { queue, accepting });
            }
            Msg::NicGrowQueues { n } => {
                if n > self.heads.len() {
                    self.heads.resize(n, None);
                }
                ctx.send(self.nic, Msg::NicGrowQueues { n });
            }
            // --- Fault injection.
            Msg::Poison => ctx.crash_self(),
            _ => {}
        }
    }
}

/// How long the driver waits before polling an empty queue again when
/// sharing a core (unused on dedicated cores — the MWAIT model covers it).
pub const DRIVER_IDLE_REPOLL: Time = Time(20_000);
