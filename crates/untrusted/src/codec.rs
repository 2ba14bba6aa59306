//! Wire encoding of a `Vis` shipment's id block in exact mode.
//!
//! A visible selection is a sorted, duplicate-free subset of the table's
//! public id domain `0..|T|`, so fixed-width 4-byte ids waste most of
//! their bytes. Each exact-mode shipment sends its ids in whichever
//! [`IdCodec`] is smaller for that list:
//!
//! * [`IdCodec::Varint`]: LEB128 varints of the gaps between consecutive
//!   ids (the first id is its gap from 0): 1 byte per gap up to 127,
//!   2 up to 16 383, at most 5 for any `u32`;
//! * [`IdCodec::Bitmap`]: one bit per id of `0..|T|`, `⌈|T|/8⌉` bytes
//!   whatever the count.
//!
//! The block starts with a one-byte codec tag. `Varint` follows it with the
//! id count as a LEB128 varint; a bitmap's count is its popcount and its
//! length is fixed by `|T|`, so it carries none. Either way the token knows
//! where the block ends and the shipment's value block begins. The encoded
//! size is a function of the id list and the public `|T|` alone. Padded
//! shipments do not use this module: they keep raw ids and zero filler,
//! because an encoded size would tell two same-bucket selections apart.

use ghostdb_storage::{Id, Result, StorageError};

/// Encoding of one id block, stored as the block's first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdCodec {
    /// LEB128 varints of the gaps between consecutive ids.
    Varint = 0,
    /// One bit per id of the domain `0..|T|`.
    Bitmap = 1,
}

impl IdCodec {
    /// Both codecs, in tie-breaking order for [`IdCodec::choose`].
    pub const ALL: [IdCodec; 2] = [IdCodec::Varint, IdCodec::Bitmap];

    /// Encoded size in bytes, tag and count included, of the sorted,
    /// duplicate-free `ids` over the domain `0..domain`.
    pub fn encoded_len(self, ids: &[Id], domain: u64) -> usize {
        match self {
            IdCodec::Varint => {
                let mut prev = 0;
                let gaps: usize = ids
                    .iter()
                    .map(|&id| {
                        let gap = id - prev;
                        prev = id;
                        varint_len(gap as u64)
                    })
                    .sum();
                1 + varint_len(ids.len() as u64) + gaps
            }
            IdCodec::Bitmap => 1 + domain.div_ceil(8) as usize,
        }
    }

    /// The smaller codec for `ids` over `0..domain`; `Varint` on a tie.
    pub fn choose(ids: &[Id], domain: u64) -> IdCodec {
        let bitmap = IdCodec::Bitmap.encoded_len(ids, domain);
        if bitmap < IdCodec::Varint.encoded_len(ids, domain) {
            IdCodec::Bitmap
        } else {
            IdCodec::Varint
        }
    }

    /// Append the block encoding `ids` over `0..domain` to `out`:
    /// exactly [`IdCodec::encoded_len`] bytes.
    pub fn encode(self, ids: &[Id], domain: u64, out: &mut Vec<u8>) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted, distinct");
        debug_assert!(
            ids.last().is_none_or(|&id| u64::from(id) < domain),
            "ids inside the domain"
        );
        out.push(self as u8);
        match self {
            IdCodec::Varint => {
                put_varint(out, ids.len() as u64);
                let mut prev = 0;
                for &id in ids {
                    put_varint(out, (id - prev) as u64);
                    prev = id;
                }
            }
            IdCodec::Bitmap => {
                let start = out.len();
                out.resize(start + domain.div_ceil(8) as usize, 0);
                for &id in ids {
                    out[start + id as usize / 8] |= 1 << (id % 8);
                }
            }
        }
    }
}

/// Decode the id block at the start of `bytes` over `0..domain`: the ids
/// and the block's length in bytes (where the value block starts). A
/// truncated block, an unknown tag, an id outside the domain, or ids out
/// of order is a [`StorageError::Corrupt`].
pub fn decode(bytes: &[u8], domain: u64) -> Result<(Vec<Id>, usize)> {
    let tag = *bytes.first().ok_or_else(|| corrupt("empty id block"))?;
    let mut at = 1;
    let mut ids = Vec::new();
    if tag == IdCodec::Bitmap as u8 {
        let len = domain.div_ceil(8) as usize;
        let map = bytes
            .get(at..at + len)
            .ok_or_else(|| corrupt("truncated bitmap"))?;
        for (i, &byte) in map.iter().enumerate() {
            let mut bits = byte;
            while bits != 0 {
                let id = i as u64 * 8 + u64::from(bits.trailing_zeros());
                if id >= domain {
                    return Err(corrupt("id outside the domain"));
                }
                ids.push(id as Id);
                bits &= bits - 1;
            }
        }
        return Ok((ids, at + len));
    }
    if tag != IdCodec::Varint as u8 {
        return Err(corrupt("unknown id codec"));
    }
    let n = get_varint(bytes, &mut at)?;
    // Never trust a count for the allocation: each gap takes ≥ 1 byte.
    ids.reserve(n.min(bytes.len() as u64) as usize);
    let mut prev = 0u64;
    for i in 0..n {
        let gap = get_varint(bytes, &mut at)?;
        if i > 0 && gap == 0 {
            return Err(corrupt("ids out of order"));
        }
        prev = prev
            .checked_add(gap)
            .filter(|&id| id < domain)
            .ok_or_else(|| corrupt("id outside the domain"))?;
        ids.push(Id::try_from(prev).map_err(|_| corrupt("id outside the domain"))?);
    }
    Ok((ids, at))
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("Vis id block: {what}"))
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*at).ok_or_else(|| corrupt("truncated varint"))?;
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    Err(corrupt("varint longer than 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_lengths_step_at_7_bit_boundaries() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
        ] {
            assert_eq!(varint_len(v), len, "{v}");
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), len);
            let mut at = 0;
            assert_eq!(get_varint(&out, &mut at).unwrap(), v);
            assert_eq!(at, len);
        }
    }

    #[test]
    fn worked_sizes() {
        // Ids 0..10 of a 100-row table: varint 1 + 1 + 10, bitmap 1 + 13.
        let ids: Vec<Id> = (0..10).collect();
        assert_eq!(IdCodec::Varint.encoded_len(&ids, 100), 12);
        assert_eq!(IdCodec::Bitmap.encoded_len(&ids, 100), 14);
        assert_eq!(IdCodec::choose(&ids, 100), IdCodec::Varint);
        // All 100 ids: the bitmap wins, 1 + 13 against varint's 1 + 1 + 100.
        let all: Vec<Id> = (0..100).collect();
        assert_eq!(IdCodec::choose(&all, 100), IdCodec::Bitmap);
        assert_eq!(IdCodec::Bitmap.encoded_len(&all, 100), 14);
        // Gaps of 2^20 cost 3 varint bytes each.
        let sparse: Vec<Id> = (1..5).map(|i| i << 20).collect();
        assert_eq!(IdCodec::choose(&sparse, 1 << 23), IdCodec::Varint);
        assert_eq!(IdCodec::Varint.encoded_len(&sparse, 1 << 23), 2 + 4 * 3);
        // A tie goes to varint: 8 one-byte gaps against a 64-row bitmap.
        let tie: Vec<Id> = (0..8).collect();
        assert_eq!(IdCodec::Varint.encoded_len(&tie, 72), 10);
        assert_eq!(IdCodec::Bitmap.encoded_len(&tie, 72), 10);
        assert_eq!(IdCodec::choose(&tie, 72), IdCodec::Varint);
    }

    #[test]
    fn malformed_blocks_are_typed_errors() {
        let varint = IdCodec::Varint as u8;
        let bad: [&[u8]; 9] = [
            &[],
            &[7],
            &[varint, 2, 5],
            &[varint, 2, 5, 0],
            &[IdCodec::Bitmap as u8],
            // Ids at or past the domain of 7.
            &[IdCodec::Bitmap as u8, 0x80],
            &[varint, 1, 9],
            &[varint, 2, 6, 1],
            // A gap past u64.
            &[
                varint, 2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1,
            ],
        ];
        for bytes in bad {
            assert!(
                matches!(decode(bytes, 7), Err(StorageError::Corrupt(_))),
                "{bytes:?}"
            );
        }
        // A domain past u32: an id that fits the domain but not `Id`.
        assert!(matches!(
            decode(&[varint, 1, 0x80, 0x80, 0x80, 0x80, 0x10], 1 << 33),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn the_value_block_starts_after_the_id_block() {
        let ids: Vec<Id> = vec![3, 4, 90];
        for codec in IdCodec::ALL {
            let mut out = Vec::new();
            codec.encode(&ids, 100, &mut out);
            let len = out.len();
            out.extend_from_slice(b"values");
            assert_eq!(decode(&out, 100).unwrap(), (ids.clone(), len), "{codec:?}");
        }
    }
}
