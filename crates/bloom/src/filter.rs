//! The Bloom filter proper, generic over its bit-vector storage so the
//! executor can back it with secure-RAM regions (`ghostdb_token::RamRegion`)
//! and keep the RAM accounting honest.

use crate::hash::hash_pair;

/// A Bloom filter over caller-provided storage.
///
/// `S` is any byte buffer; only the first `ceil(m_bits/8)` bytes are used.
/// The element type is `u64`; GhostDB inserts 4-byte tuple IDs widened to 64
/// bits.
#[derive(Debug)]
pub struct BloomFilter<S> {
    storage: S,
    m_bits: u64,
    k: u32,
    inserted: u64,
}

impl<S: AsRef<[u8]> + AsMut<[u8]>> BloomFilter<S> {
    /// Wrap `storage` as an empty filter of `m_bits` bits with `k` hashes.
    ///
    /// Panics if the storage is too small — sizing is the calibrator's job
    /// and a mismatch is a programming error, not a runtime condition.
    pub fn new(mut storage: S, m_bits: u64, k: u32) -> Self {
        assert!(m_bits > 0 && k > 0, "degenerate Bloom parameters");
        let needed = m_bits.div_ceil(8) as usize;
        assert!(
            storage.as_ref().len() >= needed,
            "storage {} bytes < {} required for {} bits",
            storage.as_ref().len(),
            needed,
            m_bits
        );
        storage.as_mut()[..needed].fill(0);
        BloomFilter {
            storage,
            m_bits,
            k,
            inserted: 0,
        }
    }

    /// Number of bits in the vector.
    pub fn m_bits(&self) -> u64 {
        self.m_bits
    }

    /// Number of hash functions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Elements inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Bytes of storage actually used by the bit vector.
    pub fn storage_bytes(&self) -> usize {
        self.m_bits.div_ceil(8) as usize
    }

    /// Insert an element. The two mixers run once per key; all `k` probe
    /// positions derive from the resulting `(h1, h2)` pair.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = hash_pair(key);
        let bits = self.storage.as_mut();
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.m_bits;
            bits[(bit / 8) as usize] |= 1u8 << (bit % 8);
        }
        self.inserted += 1;
    }

    /// Membership test: false means *definitely absent*; true means present
    /// with probability `1 - fp`. Like [`insert`](Self::insert), hashes the
    /// key once and derives the probe sequence, short-circuiting on the
    /// first clear bit.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = hash_pair(key);
        let bits = self.storage.as_ref();
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.m_bits;
            if bits[(bit / 8) as usize] & (1u8 << (bit % 8)) == 0 {
                return false;
            }
        }
        true
    }

    /// Batched membership probe: append the members of `keys` to `out`.
    ///
    /// `out` is a reusable scratch buffer (cleared on entry) so repeated
    /// batch probes amortise the allocation. The executor's query paths
    /// stream ids one at a time through [`contains`](Self::contains); this
    /// entry point serves host-side batch probing (`perfbench`'s
    /// `micro/bloom/probe_dh` measures it).
    pub fn retain_into(&self, keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(keys.iter().copied().filter(|k| self.contains(*k)));
    }

    /// Theoretical false-positive rate at the current fill.
    pub fn expected_fp(&self) -> f64 {
        theoretical_fp(self.m_bits, self.inserted, self.k)
    }

    /// Release the storage (e.g. return the RAM region to the arena).
    pub fn into_storage(self) -> S {
        self.storage
    }
}

/// `(1 - e^{-kn/m})^k` — the classic Bloom false-positive estimate.
pub fn theoretical_fp(m_bits: u64, n: u64, k: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let exponent = -(k as f64) * (n as f64) / (m_bits as f64);
    (1.0 - exponent.exp()).powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_for(n: u64) -> BloomFilter<Vec<u8>> {
        let m = 8 * n;
        BloomFilter::new(vec![0u8; (m as usize).div_ceil(8)], m, 4)
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = filter_for(10_000);
        for id in (0u64..40_000).step_by(4) {
            bf.insert(id);
        }
        for id in (0u64..40_000).step_by(4) {
            assert!(bf.contains(id), "false negative for {id}");
        }
    }

    #[test]
    fn paper_calibration_fp_rate() {
        // §3.4: m = 8n with 4 hash functions → fp ≈ 0.024.
        let n = 50_000u64;
        let mut bf = filter_for(n);
        for id in 0..n {
            bf.insert(id);
        }
        let mut fps = 0u64;
        let probes = 100_000u64;
        for id in n..n + probes {
            if bf.contains(id) {
                fps += 1;
            }
        }
        let rate = fps as f64 / probes as f64;
        assert!(
            (0.012..0.04).contains(&rate),
            "m=8n fp rate {rate} outside paper band (~0.024)"
        );
        assert!((theoretical_fp(8 * n, n, 4) - 0.024).abs() < 0.005);
    }

    #[test]
    fn degraded_ratio_fp_rate() {
        // §3.4: m = 6n → fp ≈ 0.055.
        let n = 50_000u64;
        let m = 6 * n;
        let mut bf = BloomFilter::new(vec![0u8; (m as usize).div_ceil(8)], m, 4);
        for id in 0..n {
            bf.insert(id);
        }
        let mut fps = 0u64;
        let probes = 100_000u64;
        for id in n..n + probes {
            if bf.contains(id) {
                fps += 1;
            }
        }
        let rate = fps as f64 / probes as f64;
        assert!(
            (0.035..0.085).contains(&rate),
            "m=6n fp rate {rate} outside paper band (~0.055)"
        );
        assert!((theoretical_fp(m, n, 4) - 0.055).abs() < 0.01);
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bf = filter_for(100);
        for id in 0..1000u64 {
            assert!(!bf.contains(id));
        }
        assert_eq!(bf.expected_fp(), 0.0);
    }

    #[test]
    fn storage_is_four_times_smaller_than_id_list() {
        // §3.4: "a Bloom filter built over a list of IDs is four times
        // smaller than the initial list" (IDs are 4 bytes, m = 8n bits = n
        // bytes).
        let n = 1024u64;
        let bf = filter_for(n);
        let id_list_bytes = n * 4;
        assert_eq!(bf.storage_bytes() as u64 * 4, id_list_bytes);
    }

    #[test]
    #[should_panic(expected = "storage")]
    fn undersized_storage_panics() {
        let _ = BloomFilter::new(vec![0u8; 10], 1000, 4);
    }

    #[test]
    fn double_hashing_matches_naive_per_index_hashing() {
        // The optimised insert/contains derive all k probes from one
        // `hash_pair` call; the bit vector must be byte-identical to the
        // naive path that re-evaluates `hash_i(key, i)` per probe.
        let m = 8 * 5000u64;
        let k = 4u32;
        let mut fast = BloomFilter::new(vec![0u8; (m as usize).div_ceil(8)], m, k);
        let mut naive = vec![0u8; (m as usize).div_ceil(8)];
        for key in (0u64..20_000).step_by(7) {
            fast.insert(key);
            for i in 0..k {
                let bit = crate::hash::hash_i(key, i) % m;
                naive[(bit / 8) as usize] |= 1u8 << (bit % 8);
            }
        }
        assert_eq!(fast.into_storage(), naive);
    }

    #[test]
    fn retain_into_reuses_scratch_and_matches_contains() {
        let mut bf = filter_for(1_000);
        for id in (0u64..4_000).step_by(4) {
            bf.insert(id);
        }
        let keys: Vec<u64> = (0..4_000).collect();
        let mut scratch = vec![999u64; 3]; // stale content must be cleared
        bf.retain_into(&keys, &mut scratch);
        let expect: Vec<u64> = keys.iter().copied().filter(|k| bf.contains(*k)).collect();
        assert_eq!(scratch, expect);
        assert!(scratch.len() >= 1_000, "no false negatives in the batch");
    }
}
