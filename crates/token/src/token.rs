//! The assembled secure token: flash device + RAM arena + channel.

use crate::channel::Channel;
use crate::ram::{check_page_fit, RamArena};
use crate::Result;
use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SimDuration};
use serde::{Deserialize, Serialize};

/// Configuration of a simulated smart USB key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenConfig {
    /// Secure RAM in bytes (paper default 65 536).
    pub ram_bytes: usize,
    /// RAM buffer size = Flash I/O unit (paper default 2 048).
    pub buf_size: usize,
    /// Flash geometry.
    pub geometry: FlashGeometry,
    /// Flash timing (Table 1).
    pub timing: FlashTiming,
    /// Channel throughput in bytes/second (USB full speed default).
    pub channel_bytes_per_sec: u64,
}

impl TokenConfig {
    /// The §6.1 experimental platform: 64 KB RAM, 2 KB pages, USB full
    /// speed, flash sized by `flash_bytes`.
    pub fn paper_platform(flash_bytes: u64) -> Self {
        TokenConfig {
            ram_bytes: 65_536,
            buf_size: 2_048,
            geometry: FlashGeometry::for_capacity(flash_bytes),
            timing: FlashTiming::default(),
            channel_bytes_per_sec: 1_500_000,
        }
    }
}

impl Default for TokenConfig {
    fn default() -> Self {
        TokenConfig::paper_platform(256 * 1024 * 1024)
    }
}

/// The simulated smart USB key. Fields are public: the executor borrows the
/// flash device, the RAM arena and the channel independently (they are
/// physically independent resources on the device).
#[derive(Debug)]
pub struct SecureToken {
    /// The external NAND flash module behind its FTL.
    pub flash: FlashDevice,
    /// The secured RAM of the chip.
    pub ram: RamArena,
    /// The USB link to the untrusted PC.
    pub channel: Channel,
}

impl SecureToken {
    /// Build a token from a configuration. Fails with
    /// [`TokenError::BufferTooSmall`](crate::TokenError::BufferTooSmall)
    /// when a RAM buffer cannot hold one flash page.
    pub fn new(config: &TokenConfig) -> Result<Self> {
        check_page_fit(config.buf_size, config.geometry.page_size)?;
        Ok(SecureToken {
            flash: FlashDevice::new(config.geometry, config.timing),
            ram: RamArena::with_total_bytes(config.ram_bytes, config.buf_size),
            channel: Channel::new(config.channel_bytes_per_sec),
        })
    }

    /// Total simulated time: flash I/O plus wire time. The secure chip's CPU
    /// cost is neglected per §3.4 ("we discuss the performance of the
    /// operators in terms of I/O, neglecting the CPU cost").
    pub fn elapsed(&self) -> SimDuration {
        self.flash.elapsed() + self.channel.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_platform(flash_bytes: u64) -> SecureToken {
        SecureToken::new(&TokenConfig::paper_platform(flash_bytes)).unwrap()
    }

    #[test]
    fn paper_platform_shape() {
        let token = paper_platform(16 * 1024 * 1024);
        assert_eq!(token.ram.total_bytes(), 65_536);
        assert_eq!(token.ram.capacity(), 32);
        assert_eq!(token.flash.page_size(), 2048);
        assert_eq!(token.channel.throughput(), 1_500_000);
    }

    #[test]
    fn elapsed_combines_flash_and_channel() {
        let mut token = paper_platform(1024 * 1024);
        token.flash.write(0, &[1u8; 64]).unwrap();
        token.channel.send_to_secure("ids", &[0u8; 1500]);
        let flash = token.flash.elapsed();
        let wire = token.channel.elapsed();
        assert_eq!(token.elapsed(), flash + wire);
        assert!(wire.as_ns() > 0);
    }
}
