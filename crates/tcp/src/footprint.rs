//! A stack's bytes by part: what its connections hold, and what it keeps
//! beside them (ROADMAP item D(a)). The budget sums a connection's bytes;
//! a footprint says where a stack's bytes went. `conn_scale` reports one
//! for its server stack, and the stack's tests check the budget against
//! it.

use super::slots::Slot;
use super::{time_wait, TcpStack};
use crate::socket::TcpSocket;
use crate::types::SocketId;
use neat_net::FlowKey;
use std::mem::size_of;

/// A stack's bytes, itemised. Each part counts allocated capacity, not
/// bytes in use.
#[derive(Debug, Default)]
pub struct Footprint {
    /// Socket structs, each with the stack's flags beside it, in its seat.
    pub slots: usize,
    /// What each socket owns on the heap besides its rings and assembler:
    /// the controller box and the event list.
    pub socket_heap: usize,
    /// Demux entries.
    pub demux: usize,
    /// Retired TIME-WAIT connections' records.
    pub time_waits: usize,
    /// Room the slot, record and demux tables hold beyond their entries:
    /// empty seats, the free-seat list and page index, and the maps' room.
    pub table_slack: usize,
    /// Live rings' storage, per direction.
    pub send_rings: usize,
    pub recv_rings: usize,
    /// The part of `send_rings + recv_rings` in rings that hold no byte:
    /// 0 while drained rings park their storage.
    pub idle_rings: usize,
    /// Parked storages, per direction, and how many there are.
    pub spare_send: usize,
    pub spare_recv: usize,
    pub spare_count: usize,
    /// Assemblers' range lists.
    pub assembler: usize,
    /// `TcpSocket::mem_bytes`, summed, and the records' bytes: what the
    /// budget should hold.
    pub mem_bytes: usize,
    /// The timer wheel's entries, room included.
    pub wheel: usize,
}

impl Footprint {
    /// The parts, named, in the order EXPERIMENTS.md's tables list them.
    pub fn parts(&self) -> [(&'static str, usize); 12] {
        [
            ("socket structs", self.slots),
            ("controller boxes, event lists", self.socket_heap),
            ("TIME-WAIT records", self.time_waits),
            ("demux entries", self.demux),
            ("table slack", self.table_slack),
            ("send rings (live)", self.send_rings),
            ("receive rings (live)", self.recv_rings),
            ("  of which empty", self.idle_rings),
            ("spare send storages", self.spare_send),
            ("spare receive storages", self.spare_recv),
            ("assemblers", self.assembler),
            ("wheel entries", self.wheel),
        ]
    }
}

impl TcpStack {
    /// The stack's bytes, itemised. Walks every connection: for a report,
    /// not for the data path.
    pub fn footprint(&self) -> Footprint {
        let slot = size_of::<Option<Slot>>();
        let entry = size_of::<(FlowKey, SocketId)>();
        let records = self.time_waits.len() * time_wait::RECORD_BYTES;
        let spare_recv = self.spares.recv.iter().map(|r| r.capacity());
        let mut f = Footprint {
            slots: self.slots.len() * slot,
            time_waits: records,
            demux: self.conns.len() * entry,
            table_slack: self.slots.slack_bytes()
                + (self.time_waits.capacity() - self.time_waits.len()) * time_wait::RECORD_BYTES
                + (self.conns.capacity() - self.conns.len()) * entry,
            spare_send: self.spares.send.capacities().sum(),
            spare_recv: spare_recv.sum(),
            spare_count: self.spares.send.capacities().count() + self.spares.recv.len(),
            wheel: self.timers.entry_bytes(),
            mem_bytes: records,
            ..Footprint::default()
        };
        for s in self.slots.iter().map(|slot| &slot.sock) {
            let (send, recv) = (s.rel.send_buf.heap_bytes(), s.fc.recv_buf.heap_bytes());
            f.send_rings += send;
            f.recv_rings += recv;
            f.idle_rings += if s.rel.send_buf.is_empty() { send } else { 0 };
            let held = !s.fc.recv_buf.is_empty() || !s.fc.asm.is_empty();
            f.idle_rings += if held { 0 } else { recv };
            f.assembler += s.fc.asm.heap_bytes();
            f.mem_bytes += s.mem_bytes();
            f.socket_heap +=
                s.mem_bytes() - size_of::<TcpSocket>() - send - recv - s.fc.asm.heap_bytes();
        }
        f
    }
}
