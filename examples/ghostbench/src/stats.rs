//! Seeded randomness, order statistics and process memory readouts.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// always yields the same literals and the same stream order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// An endless stream over `0..n`: every index once per cycle, each cycle in
/// a fresh seeded order. Closed-loop passes replay the same stream.
pub struct Cycle {
    rng: Rng,
    order: Vec<usize>,
    at: usize,
}

impl Cycle {
    pub fn new(seed: u64, n: usize) -> Self {
        Cycle {
            // Not the stream the literals were drawn from.
            rng: Rng::new(!seed),
            order: (0..n).collect(),
            at: n,
        }
    }
}

impl Iterator for Cycle {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.order.get(self.at - 1).copied()
    }
}

/// `q`-quantile with linear interpolation between closest ranks. Samples
/// may hold `+∞` (failed or refused operations), which sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Restart the kernel's peak-RSS (`VmHWM`) tracking, so the peak read at
/// the end covers the measured passes and not data generation or oracle
/// checks. Linux-only (`/proc/self/clear_refs`, value 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_keep_infinity_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
    }

    #[test]
    fn cycle_visits_every_index_once_per_round() {
        let mut c = Cycle::new(7, 5);
        let mut round: Vec<usize> = (&mut c).take(5).collect();
        round.sort_unstable();
        assert_eq!(round, vec![0, 1, 2, 3, 4]);
        let a: Vec<usize> = Cycle::new(7, 5).take(20).collect();
        let b: Vec<usize> = Cycle::new(7, 5).take(20).collect();
        assert_eq!(a, b, "same seed, same stream");
    }
}
