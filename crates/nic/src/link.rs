//! The physical link: serialization at line rate plus cable latency.
//!
//! The paper's testbed links two machines with a 10GbE DAC cable; the
//! 10 Gb/s ceiling is what saturates Figures 4–5 past ~7 KB file sizes.

use neat_sim::calibration;
use neat_sim::Time;

/// A full-duplex point-to-point link.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Line rate in bits per second.
    pub bps: u64,
    /// One-way propagation + PHY latency.
    pub latency: Time,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            bps: calibration::LINK_BPS,
            latency: calibration::LINK_LATENCY,
        }
    }
}

/// Ethernet per-frame wire overhead: preamble(7) + SFD(1) + FCS(4) + IFG(12).
pub const WIRE_OVERHEAD_BYTES: u64 = 24;

/// Minimum Ethernet frame size on the wire (without overhead).
pub const MIN_FRAME: u64 = 60;

impl LinkModel {
    pub fn ten_gbe() -> LinkModel {
        LinkModel::default()
    }

    /// Time to serialize one frame of `len` bytes onto the wire.
    pub fn tx_time(&self, len: usize) -> Time {
        let wire_bytes = (len as u64).max(MIN_FRAME) + WIRE_OVERHEAD_BYTES;
        Time::from_nanos(wire_bytes * 8 * 1_000_000_000 / self.bps)
    }

    /// Theoretical frames/second at a given frame size.
    pub fn max_fps(&self, len: usize) -> f64 {
        1e9 / self.tx_time(len).as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_size_frame_time() {
        let l = LinkModel::ten_gbe();
        // 1538 wire bytes at 10 Gb/s = 1230.4 ns
        let t = l.tx_time(1514);
        assert!((1200..=1260).contains(&t.as_nanos()), "{t}");
    }

    #[test]
    fn small_frames_padded_to_minimum() {
        let l = LinkModel::ten_gbe();
        assert_eq!(l.tx_time(1), l.tx_time(60));
        assert!(l.tx_time(61) > l.tx_time(60));
    }

    #[test]
    fn line_rate_packet_rate() {
        let l = LinkModel::ten_gbe();
        // 10GbE minimum-size frame rate ≈ 14.88 Mpps.
        let fps = l.max_fps(60);
        assert!((14.0e6..15.5e6).contains(&fps), "{fps}");
    }
}
