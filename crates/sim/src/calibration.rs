//! Calibrated cost constants for the simulated NewtOS/NEaT execution model.
//!
//! Every constant here is a *cost model input*; the scalability and
//! reliability curves of the paper are **not** encoded anywhere — they emerge
//! from component structure (which process runs on which core, who talks to
//! whom) combined with these per-operation costs. The constants were fitted
//! so that the headline absolute numbers land near the paper's measurements:
//!
//! * Linux/AMD 12-core best configuration ≈ 224 krps (Table 1);
//! * NEaT 3x single-component on the same machine ≈ 302 krps (§6.3);
//! * Linux/Xeon ≈ 328 krps, NEaT 4x HT ≈ 372 krps (§6.4);
//! * one lighttpd instance saturates around 50–60 krps with the
//!   100-requests/connection workload (Figures 7/9/11 per-instance slope).
//!
//! The derivations: with the paper's observation that ~70-80 % of cycles are
//! spent in the OS for a loaded Linux server (§3.2), a 224 krps total over
//! 12 × 1.9 GHz cores implies ≈ 100 k cycles end-to-end per request, roughly
//! 30 k in the application and 70 k in the kernel stack (including
//! synchronization and cache-bouncing overhead). NEaT's isolated stack does
//! the same protocol work without shared-state overheads: ≈ 19 k cycles of
//! stack work per request (3 replica cores sustain 302 krps) and the same
//! ≈ 37 k application cycles (6 lighttpd cores at 302 krps).

use crate::time::{Cycles, Time};

// ---------------------------------------------------------------------------
// Message passing (NewtOS user-space channels, §3.1/§4)
// ---------------------------------------------------------------------------

/// Cycles for enqueueing a message descriptor on a shared-memory channel
/// (cache-line write + fence). Charged to the sender.
pub const MSG_SEND: Cycles = 120;

/// Cycles for dequeueing a message from a channel. Charged to the receiver
/// as part of handling the corresponding event.
pub const MSG_RECV: Cycles = 100;

/// Cycles for appending another descriptor to a channel already written to
/// in the same wakeup: the head cache line is hot and the fence/doorbell is
/// shared by the run, leaving only the slot write (§3.4 batching
/// amortization). Charged instead of [`MSG_SEND`] for consecutive sends to
/// the same destination within one handler invocation.
pub const MSG_SEND_APPEND: Cycles = 40;

/// Cycles for the per-message receiver notification paid when per-link
/// coalescing is disabled (`SimConfig::batch_ns == 0`): with no open batch
/// to append to and no deferred flush, every enqueue must kick the
/// destination's channel individually — a kernel-call-class event
/// injection (trap + event delivery, §3.4: the batched fast path exists
/// "to amortize the cost of the kernel calls"). Charged on CPU threads
/// only; device engines (NIC pipelines) signal by interrupt, whose cost
/// the receiver-side cold descriptor rates already carry.
pub const MSG_NOTIFY: Cycles = 500;

/// One-way latency of a cross-core cache-line transfer carrying a message
/// descriptor (both dies in the paper's testbeds are single-package).
pub const CHANNEL_LATENCY: Time = Time(250);

/// Cycles for copying payload bytes through a shared-memory socket buffer,
/// per byte (streaming copy ≈ 4 B/cycle).
pub const COPY_PER_BYTE_X4: Cycles = 1; // cycles per 4 bytes

/// Cost of copying `n` payload bytes.
pub fn copy_cost(n: usize) -> Cycles {
    (n as u64).div_ceil(4) * COPY_PER_BYTE_X4
}

// ---------------------------------------------------------------------------
// MWAIT sleep/wake model (§4, Table 2)
// ---------------------------------------------------------------------------
// "A mostly idle driver spends a significant portion of the active time
//  suspending/resuming in the kernel (as Intel's MWAIT is a privileged
//  instruction), polling the 3 stacks and the NIC queues."

/// How long an idle process keeps spin-polling its queues before suspending.
pub const SPIN_POLL_WINDOW: Time = Time(6_000); // 6 us

/// Kernel cycles to suspend a core via a privileged MWAIT (syscall entry,
/// state save, monitor arm).
pub const KERNEL_SUSPEND: Cycles = 2_600;

/// Kernel cycles to resume after a wake-up write hits the monitored line.
pub const KERNEL_RESUME: Cycles = 2_200;

/// Latency to wake a process that outlived its spin window and suspended.
/// §4: NEaT "switches to such slower communication channels as needed
/// automatically, in particular when the load is low" — once a component
/// blocks, waking it is a kernel notification + scheduling event, not a
/// sub-microsecond MWAIT resume (which only applies while spinning).
pub const WAKE_LATENCY: Time = Time(20_000);

/// Cycles the *waker* spends performing the wake-up store (cheap — that is
/// the point of the MWAIT design versus kernel IPIs).
pub const WAKE_REMOTE: Cycles = 60;

/// Latency between a process faulting and its crash monitor receiving the
/// notification (the kernel notices the exception and performs one IPC
/// round to the reincarnation server). This is the minimum horizon of any
/// crash's cross-process effect.
pub const CRASH_NOTIFY_LATENCY: Time = Time(50_000);

// ---------------------------------------------------------------------------
// SYSCALL server / slow path (§3.1, §3.2)
// ---------------------------------------------------------------------------

/// Cycles for a full slow-path system call through the SYSCALL server
/// (marshal + context handling), excluding messaging costs, charged to the
/// caller side.
pub const SYSCALL_CLIENT: Cycles = 900;

/// Cycles the SYSCALL server spends servicing one request.
pub const SYSCALL_SERVER: Cycles = 1_400;

// ---------------------------------------------------------------------------
// Network stack processing costs (per packet / per segment)
// ---------------------------------------------------------------------------
// Fitted as documented in the module docs: ≈19k stack cycles per
// request+response round trip, which at the workload's ~4 packets per
// request (request data segment, response data segment, and the amortized
// ACK/connection-management traffic) gives the per-layer costs below.

/// NIC driver: examine one RX descriptor, validate, and hand the frame to
/// the right stack replica's queue — first packet of a batch (includes
/// doorbell read, ring-state reload: cold costs).
pub const DRV_RX_PKT: Cycles = 1_700;

/// NIC driver: RX descriptor processing when the previous packet was
/// handled within [`DRV_BATCH_WINDOW_NS`] (NAPI-style amortization: the
/// ring state is hot and per-batch overheads are already paid).
pub const DRV_RX_PKT_BATCHED: Cycles = 500;

/// NIC driver: fill one TX descriptor from a stack TX request (cold).
pub const DRV_TX_PKT: Cycles = 1_200;

/// TX descriptor cost within a batch.
pub const DRV_TX_PKT_BATCHED: Cycles = 420;

/// Two driver events closer than this belong to one batch.
pub const DRV_BATCH_WINDOW_NS: u64 = 3_000;

/// RX descriptor cost for the second and later frames of an *explicit*
/// frame batch (one vectored ring pass covers the run: descriptors are
/// prefetched and validated in bulk, DPDK/Laminar-style, vs the scalar
/// NAPI walk priced by [`DRV_RX_PKT_BATCHED`]).
pub const DRV_RX_PKT_VECTORED: Cycles = 220;

/// TX descriptor cost within an explicit frame batch (bulk doorbell).
pub const DRV_TX_PKT_VECTORED: Cycles = 180;

/// NIC driver: one polling round over the NIC queues and the per-replica
/// channels (charged when the driver wakes and finds work, and during idle
/// spinning it is what the "Polling" column of Table 2 accounts).
pub const DRV_POLL_ROUND: Cycles = 380;

/// Packet-filter component: one filter pass over a frame.
pub const PF_PKT: Cycles = 300;

/// UDP component: process one datagram (port lookup, checksum).
pub const UDP_PKT: Cycles = 900;

/// IP component: validate + route one IPv4 packet (header parse, checksum,
/// forwarding decision).
pub const IP_RX_PKT: Cycles = 1_100;

/// IP component: emit one IPv4 packet (header build, checksum).
pub const IP_TX_PKT: Cycles = 900;

/// TCP component: process one inbound segment against a connection
/// (demultiplex, state machine, ACK processing, reassembly hook).
pub const TCP_RX_SEG: Cycles = 3_400;

/// TCP component: build and send one outbound segment.
pub const TCP_TX_SEG: Cycles = 2_950;

/// TCP connection establishment work beyond the SYN segments themselves:
/// PCB allocation, connection-hash insert, accept-queue and subsocket
/// bookkeeping, per-connection channel setup (§3.2's "details of the
/// communication, notifications and buffer mappings"). Connection-rate
/// microbenchmarks of 2010-era stacks put connect+close at 40-60 k cycles
/// beyond steady-state segment costs, which Figure 12's connection-churn
/// workload exposes directly.
pub const TCP_OPEN: Cycles = 14_000;

/// TCP teardown: timer teardown, TIME_WAIT insertion, channel unmapping.
pub const TCP_CLOSE: Cycles = 8_000;

/// Socket-layer cost of one socket operation on the stack side (fast-path
/// queue service, fd translation).
pub const SOCK_OP: Cycles = 900;

// ---------------------------------------------------------------------------
// Application costs (lighttpd-like server, httperf-like client)
// ---------------------------------------------------------------------------

/// Web server: parse one HTTP request, locate the in-memory file, build the
/// response headers, and manage connection bookkeeping. Fitted so one
/// application core saturates near 51 krps on the 1.9 GHz AMD
/// (Figure 7's per-instance slope): 1.9e9 / 51e3 ≈ 37 k cycles per request;
/// the socket-layer and copy costs make up the difference.
pub const WEB_REQUEST: Cycles = 37_500;

/// Web server: accept-path work for a new connection.
pub const WEB_ACCEPT: Cycles = 6_000;

/// Load generator: per-request bookkeeping (timestamping, histogram).
pub const CLIENT_REQUEST: Cycles = 1_500;

/// Load generator: per-connection setup bookkeeping.
pub const CLIENT_CONN: Cycles = 2_500;

// ---------------------------------------------------------------------------
// Monolithic (Linux-like) kernel-domain costs
// ---------------------------------------------------------------------------
// The monolith executes the *same* protocol engine, but every packet also
// pays the shared-everything taxes the paper's §2 catalogues: syscall
// boundary crossings, socket-lock acquisition, cache-line bouncing of shared
// PCB/queue state, and scheduler migrations. These are the published
// per-operation magnitudes (e.g. Boyd-Wickizer et al., "An Analysis of Linux
// Scalability to Many Cores") rather than curve fits.

/// Cycles for one syscall boundary crossing (enter + exit, SWAPGS,
/// seccomp/audit hooks of a distro kernel).
pub const MONO_SYSCALL: Cycles = 2_200;

/// Uncontended lock acquire/release pair (ticket spinlock).
pub const MONO_LOCK_UNCONTENDED: Cycles = 180;

/// Penalty per *contending* core on a ticket spinlock: each waiter pulls
/// the lock cache line, and handoff time grows linearly with the number of
/// waiters (the non-scalable-locks collapse of §2.2).
pub const MONO_LOCK_PER_WAITER: Cycles = 420;

/// Cache-line bounce cost: one dirty line transferred between cores
/// (shared socket tables, accept queues, counters, false sharing).
pub const MONO_LINE_BOUNCE: Cycles = 260;

/// Average shared dirty lines touched per packet in the monolithic stack.
pub const MONO_SHARED_LINES_PER_PKT: u32 = 7;

/// Softirq/IRQ dispatch overhead per packet when IRQ affinity is wrong
/// (packet processed on a different core than the socket's).
pub const MONO_IRQ_MISS: Cycles = 2_800;

/// Scheduler migration / wrong-core wakeup penalty per data delivery when
/// the softirq core differs from the server's core: IPI, remote runqueue
/// lock, and the application's L1/L2 working set refilled cold.
pub const MONO_SCHED_MISS: Cycles = 22_000;

/// The deep monolithic RX path beyond protocol processing: netfilter
/// hooks, socket backlog handling, memory accounting, GRO bookkeeping
/// (kernel profiles of the era attribute 2–4 us per packet).
pub const MONO_STACK_RX_OVERHEAD: Cycles = 8_000;

/// The deep TX path: qdisc, neighbour lookup, skb segmentation setup.
pub const MONO_STACK_TX_OVERHEAD: Cycles = 6_000;

/// skb allocation/free and DMA mapping per packet.
pub const MONO_SKB_PER_PKT: Cycles = 2_000;

// ---------------------------------------------------------------------------
// Hardware model
// ---------------------------------------------------------------------------

/// Combined throughput capacity of two SMT hardware threads sharing a core,
/// relative to a single thread running alone (per-thread slowdown factor is
/// 2/SMT_CAPACITY). 1.4 matches the paper's observation that hyper-threads
/// are useful but "a hardware thread is not the same as a fully-fledged
/// core" (§6.4: 2 cores vs 3 is "within the bounds of the benefits of
/// hyper-threading").
pub const SMT_CAPACITY: f64 = 1.40;

/// Link speed of the testbed's Intel 82599 10GbE + DAC cable.
pub const LINK_BPS: u64 = 10_000_000_000;

/// One-way propagation + PHY latency of the direct-attach copper cable.
pub const LINK_LATENCY: Time = Time(800);

/// Per-descriptor DMA/PCIe cost modelled inside the NIC device timeline.
pub const NIC_DESC_NS: u64 = 60;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Freq;

    /// Per-request traffic on the paper's scalability workload (persistent
    /// connections, 100 × 20-byte requests each): ≈1.5 inbound segments
    /// (request + ack share), ≈1.1 outbound segments (response + window
    /// updates), 1/100th of connection open+close.
    fn tcp_cycles_per_request() -> f64 {
        1.5 * TCP_RX_SEG as f64
            + 1.1 * TCP_TX_SEG as f64
            + 2.0 * SOCK_OP as f64
            + (TCP_OPEN + TCP_CLOSE) as f64 / 100.0
    }

    fn ip_cycles_per_request() -> f64 {
        1.5 * IP_RX_PKT as f64 + 1.1 * IP_TX_PKT as f64
    }

    /// Figure 7: a Multi 1x replica's TCP core saturates just above the load
    /// of 4 lighttpd instances (~200 krps at 1.9 GHz).
    #[test]
    fn multi_component_tcp_core_capacity() {
        let krps = 1.9e9 / tcp_cycles_per_request() / 1e3;
        assert!(
            (170.0..=230.0).contains(&krps),
            "TCP core should saturate near 200 krps, got {krps}"
        );
    }

    /// Figure 7: a single-component NEaT replica core sustains 120–170 krps
    /// (NEaT 2x nearly saturates at 6 lighttpd instances; NEaT 3x does not).
    #[test]
    fn single_component_replica_capacity() {
        let per_req = tcp_cycles_per_request() + ip_cycles_per_request();
        let krps = 1.9e9 / per_req / 1e3;
        assert!(
            (120.0..=170.0).contains(&krps),
            "single-component replica should sustain 120-170 krps, got {krps}"
        );
    }

    #[test]
    fn web_server_budget_matches_per_instance_slope() {
        let per_req = WEB_REQUEST + 2 * SOCK_OP + copy_cost(160);
        let f = Freq::ghz(1.9);
        let krps = 1e9 / f.cycles_to_time(per_req).as_nanos() as f64 / 1e3;
        assert!(
            krps > 45.0 && krps < 62.0,
            "one lighttpd core should saturate at 45-62 krps, got {krps}"
        );
    }

    #[test]
    fn copy_cost_scales() {
        assert_eq!(copy_cost(0), 0);
        assert_eq!(copy_cost(4), 1);
        assert_eq!(copy_cost(5), 2);
        assert!(copy_cost(1500) >= 375);
    }
}
