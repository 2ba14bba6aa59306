//! Round trips of the exact-mode id-block codec over random sorted subsets
//! of a table's id domain `0..|T|`: empty lists, one id, the last id
//! `|T| − 1`, every id of `|T|`, random densities, and runs whose gaps sit
//! on the varint byte boundaries 127/128 and 16 383/16 384. For each list:
//!
//! * every codec, forced, decodes back to the list and reports where the
//!   block ends, with trailing value bytes after it;
//! * every codec's block is exactly its `encoded_len`;
//! * the chosen codec is the smaller of the two, and never larger than
//!   raw 4-byte ids (every domain here is below 2^28, so no gap takes
//!   five varint bytes).
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_storage::Id;
use ghostdb_untrusted::codec::decode;
use ghostdb_untrusted::IdCodec;
use proptest::prelude::*;

/// Deterministic SplitMix64 stream for the seeded lists below.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Gaps on either side of the 1→2 and 2→3 byte varint boundaries.
const BOUNDARY_GAPS: [u64; 4] = [127, 128, 16_383, 16_384];

/// A sorted, duplicate-free subset of `0..domain` of the given shape.
fn subset(shape: usize, domain: u64, rng: &mut SplitMix) -> Vec<Id> {
    match shape {
        0 => Vec::new(),
        1 => vec![rng.below(domain) as Id],
        2 => vec![(domain - 1) as Id],
        3 => (0..domain as Id).collect(),
        4..=7 => {
            let gap = BOUNDARY_GAPS[shape - 4];
            let start = rng.below(domain.min(gap));
            (start..domain)
                .step_by(gap as usize)
                .map(|i| i as Id)
                .collect()
        }
        _ => {
            // Each id with probability 1 / 2^k, k in 0..16.
            let k = rng.below(16);
            (0..domain)
                .filter(|_| rng.below(1 << k) == 0)
                .map(|i| i as Id)
                .collect()
        }
    }
}

/// Bytes of `v` as a LEB128 varint.
fn leb128_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

fn check(ids: &[Id], domain: u64) {
    let trailer = b"value block";
    for codec in IdCodec::ALL {
        let mut out = Vec::new();
        codec.encode(ids, domain, &mut out);
        assert_eq!(out.len(), codec.encoded_len(ids, domain), "{codec:?}");
        let block = out.len();
        out.extend_from_slice(trailer);
        let (back, end) = decode(&out, domain).expect("decodes");
        assert_eq!(back, ids, "{codec:?} round trip");
        assert_eq!(end, block, "{codec:?} block end");
    }
    let chosen = IdCodec::choose(ids, domain);
    let len = chosen.encoded_len(ids, domain);
    for codec in IdCodec::ALL {
        assert!(
            len <= codec.encoded_len(ids, domain),
            "{chosen:?} vs {codec:?}"
        );
    }
    // Raw ids would take the tag, the count and 4 bytes per id.
    let raw = 1 + leb128_len(ids.len() as u64) + 4 * ids.len();
    assert!(len <= raw, "{chosen:?} {len} vs raw {raw}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_codec_round_trips_and_the_choice_is_smallest(
        seed in any::<u64>(),
        shape in 0usize..10,
        log_domain in 0u32..18,
    ) {
        let mut rng = SplitMix(seed);
        // |T| from 1 to just under 2^18, so bitmaps span 1 byte to 32 KB.
        let domain = (1u64 << log_domain) + rng.below(1 << log_domain);
        let ids = subset(shape, domain, &mut rng);
        check(&ids, domain);
    }
}

/// The boundary gaps cost what LEB128 says: a run with gap 127 takes one
/// byte per gap, 128 takes two, 16 383 two and 16 384 three. The run
/// starts at id 0, whose gap from 0 takes one byte.
#[test]
fn boundary_gaps_cost_their_varint_width() {
    let domain = 1 << 22;
    for (gap, width) in BOUNDARY_GAPS.into_iter().zip([1, 2, 2, 3]) {
        let ids: Vec<Id> = (0..domain).step_by(gap as usize).map(|i| i as Id).collect();
        check(&ids, domain);
        let n = ids.len();
        // Tag and count; the first id's gap from 0 then takes one byte.
        let header = 1 + leb128_len(n as u64);
        assert_eq!(
            IdCodec::Varint.encoded_len(&ids, domain),
            header + 1 + width * (n - 1),
            "gap {gap}"
        );
    }
}

/// The chosen codec moves with density: sparse lists take varint gaps,
/// dense ones the bitmap.
#[test]
fn the_choice_follows_density() {
    let domain = 1 << 16;
    let sparse: Vec<Id> = (0..domain as Id).step_by(100).collect();
    assert_eq!(IdCodec::choose(&sparse, domain), IdCodec::Varint);
    let dense: Vec<Id> = (0..domain as Id).step_by(3).collect();
    assert_eq!(IdCodec::choose(&dense, domain), IdCodec::Bitmap);
}
