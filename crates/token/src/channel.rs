//! The USB link between the Untrusted PC and the Secure token.
//!
//! The channel is byte-accurate: every transfer is recorded with its
//! direction, a human-readable tag and its size, optionally capturing the
//! payload itself. The recorded **transcript is exactly what a wire snooper
//! sees**, which is what the GhostDB security argument reasons about: the
//! only flows are (a) the query, PC → token metadata, (b) visible data
//! entering the token, and (c) nothing leaving it in the clear.
//!
//! Simulated transfer time is `bytes / throughput`; §6.1 uses USB 2.0 full
//! speed (12 Mb/s ≈ 1.5 MB/s) and Figure 14 sweeps 0.3–10 MB/s.

use ghostdb_flash::SimDuration;
use serde::{Deserialize, Serialize};

/// Direction of a transfer on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// PC → token (queries, visible ID lists, visible attribute values).
    ToSecure,
    /// Token → PC (only ever query acknowledgements / result-ready signals;
    /// never data in the clear).
    ToUntrusted,
}

/// One observed transfer. `PartialEq` compares the full observation
/// (direction, tag, size, captured payload) so equivalence suites can hold
/// two execution schedules to the same wire transcript bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranscriptEntry {
    /// Direction on the wire.
    pub direction: Direction,
    /// What the transfer was (e.g. `"query"`, `"Vis(T1).ids"`).
    pub tag: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Captured payload, when capture is enabled (used by the leak auditor
    /// and the examples; a real snooper records this too).
    pub payload: Option<Vec<u8>>,
}

/// The simulated channel.
#[derive(Debug)]
pub struct Channel {
    throughput_bytes_per_sec: u64,
    capture_payloads: bool,
    bytes_to_secure: u64,
    bytes_to_untrusted: u64,
    transcript: Vec<TranscriptEntry>,
}

impl Channel {
    /// Channel with a given throughput in bytes/second.
    pub fn new(throughput_bytes_per_sec: u64) -> Self {
        assert!(throughput_bytes_per_sec > 0, "zero-throughput channel");
        Channel {
            throughput_bytes_per_sec,
            capture_payloads: false,
            bytes_to_secure: 0,
            bytes_to_untrusted: 0,
            transcript: Vec::new(),
        }
    }

    /// USB 2.0 full speed: 12 Mb/s = 1.5 MB/s (paper footnote 2).
    pub fn usb_full_speed() -> Self {
        Channel::new(1_500_000)
    }

    /// Enable payload capture in the transcript (leak-audit mode).
    pub fn set_capture(&mut self, capture: bool) {
        self.capture_payloads = capture;
    }

    /// Whether payload capture is enabled.
    pub fn capture(&self) -> bool {
        self.capture_payloads
    }

    /// A fresh channel with this channel's configuration (throughput and
    /// capture mode) and no recorded traffic: a scratch channel for a side
    /// measurement that must leave this channel's transcript untouched.
    pub fn fresh_like(&self) -> Channel {
        let mut ch = Channel::new(self.throughput_bytes_per_sec);
        ch.set_capture(self.capture_payloads);
        ch
    }

    /// Configured throughput (bytes/second).
    pub fn throughput(&self) -> u64 {
        self.throughput_bytes_per_sec
    }

    /// Change throughput (used by the Figure 14 sweep).
    pub fn set_throughput(&mut self, bytes_per_sec: u64) {
        assert!(bytes_per_sec > 0, "zero-throughput channel");
        self.throughput_bytes_per_sec = bytes_per_sec;
    }

    fn record(&mut self, direction: Direction, tag: &str, payload: &[u8]) {
        match direction {
            Direction::ToSecure => self.bytes_to_secure += payload.len() as u64,
            Direction::ToUntrusted => self.bytes_to_untrusted += payload.len() as u64,
        }
        self.transcript.push(TranscriptEntry {
            direction,
            tag: tag.to_string(),
            bytes: payload.len() as u64,
            payload: self.capture_payloads.then(|| payload.to_vec()),
        });
    }

    /// Transfer PC → token.
    pub fn send_to_secure(&mut self, tag: &str, payload: &[u8]) {
        self.record(Direction::ToSecure, tag, payload);
    }

    /// Transfer token → PC. GhostDB only ever uses this for the query text
    /// echo / completion signal — never hidden data. The leak auditor checks
    /// this invariant over the transcript.
    pub fn send_to_untrusted(&mut self, tag: &str, payload: &[u8]) {
        self.record(Direction::ToUntrusted, tag, payload);
    }

    /// Bytes shipped into the token so far.
    pub fn bytes_to_secure(&self) -> u64 {
        self.bytes_to_secure
    }

    /// Bytes shipped out of the token so far.
    pub fn bytes_to_untrusted(&self) -> u64 {
        self.bytes_to_untrusted
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to_secure + self.bytes_to_untrusted
    }

    /// Simulated time spent on the wire.
    pub fn elapsed(&self) -> SimDuration {
        let ns = self.total_bytes() as u128 * 1_000_000_000 / self.throughput_bytes_per_sec as u128;
        SimDuration::from_ns(ns)
    }

    /// The full observed transcript.
    pub fn transcript(&self) -> &[TranscriptEntry] {
        &self.transcript
    }

    /// Forget past traffic (new query).
    pub fn reset(&mut self) {
        self.bytes_to_secure = 0;
        self.bytes_to_untrusted = 0;
        self.transcript.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_directional_traffic() {
        let mut ch = Channel::new(1_000_000);
        ch.send_to_secure("Vis(T1).ids", &[0u8; 400]);
        ch.send_to_untrusted("query", b"SELECT 1");
        assert_eq!(ch.bytes_to_secure(), 400);
        assert_eq!(ch.bytes_to_untrusted(), 8);
        assert_eq!(ch.transcript().len(), 2);
        assert_eq!(ch.transcript()[0].tag, "Vis(T1).ids");
        assert!(ch.transcript()[0].payload.is_none());
    }

    #[test]
    fn elapsed_is_bytes_over_throughput() {
        let mut ch = Channel::new(2_000_000);
        ch.send_to_secure("x", &[0u8; 1_000_000]);
        // 1 MB over 2 MB/s = 0.5 s.
        assert!((ch.elapsed().as_secs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capture_keeps_payloads() {
        let mut ch = Channel::usb_full_speed();
        ch.set_capture(true);
        ch.send_to_secure("ids", &[1, 2, 3]);
        assert_eq!(ch.transcript()[0].payload.as_deref(), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn reset_clears_everything() {
        let mut ch = Channel::usb_full_speed();
        ch.send_to_secure("x", &[0; 10]);
        ch.reset();
        assert_eq!(ch.total_bytes(), 0);
        assert!(ch.transcript().is_empty());
        assert_eq!(ch.elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn usb_full_speed_rate() {
        let mut ch = Channel::usb_full_speed();
        assert_eq!(ch.throughput(), 1_500_000);
        // 1.5 MB takes one second.
        ch.send_to_secure("x", &vec![0; 1_500_000]);
        assert!((ch.elapsed().as_secs() - 1.0).abs() < 1e-9);
    }
}
