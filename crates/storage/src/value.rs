//! Fixed-width values and column types.
//!
//! GhostDB schemas declare explicit byte widths (§6.2 lists e.g.
//! `idVH(4)`, `specialtyV(20)`, `ageV(2)`, `bodymassindexH(4)`), and all
//! record layouts are fixed-width so tuple access by id is pure arithmetic.
//! Values also encode to **order-preserving u64 keys** for the B+-tree layer
//! of climbing indexes.

use crate::error::StorageError;
use crate::{bytes_at, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Declared type of a column, with its on-flash width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Signed integer stored in `width` bytes (1..=8), little-endian,
    /// two's-complement truncated.
    Int {
        /// Bytes of storage (paper: `age` is 2 bytes, ids are 4).
        width: u8,
    },
    /// IEEE-754 double stored in 8 bytes (paper: `bodymassindex float(4)`
    /// uses 4; we accept a width of 4 or 8 and store f32/f64 accordingly).
    Float {
        /// Bytes of storage: 4 or 8.
        width: u8,
    },
    /// Fixed-width character data, zero-padded (paper: `char(200)`).
    Char {
        /// Bytes of storage.
        width: u16,
    },
}

impl ColumnType {
    /// Convenience: 4-byte integer.
    pub const fn int() -> Self {
        ColumnType::Int { width: 4 }
    }

    /// Convenience: `char(n)`.
    pub const fn char(width: u16) -> Self {
        ColumnType::Char { width }
    }

    /// Convenience: 4-byte float (the paper's `float(4)`).
    pub const fn float() -> Self {
        ColumnType::Float { width: 4 }
    }

    /// Encoded size in bytes.
    pub fn width(&self) -> usize {
        match self {
            ColumnType::Int { width } => *width as usize,
            ColumnType::Float { width } => *width as usize,
            ColumnType::Char { width } => *width as usize,
        }
    }

    /// Check invariants (panics on nonsense widths; schema construction is
    /// programmer-facing).
    pub fn validate(&self) {
        match self {
            ColumnType::Int { width } => assert!((1..=8).contains(width), "int width {width}"),
            ColumnType::Float { width } => {
                assert!(*width == 4 || *width == 8, "float width {width}")
            }
            ColumnType::Char { width } => assert!(*width >= 1, "char width 0"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Character string (compared/truncated per the column width on flash).
    Str(String),
}

impl Value {
    /// Encode into exactly `ty.width()` bytes at the start of `out`.
    pub fn encode(&self, ty: &ColumnType, out: &mut [u8]) -> Result<()> {
        let w = ty.width();
        debug_assert!(out.len() >= w);
        match (self, ty) {
            (Value::Int(v), ColumnType::Int { width }) => {
                let bytes = v.to_le_bytes();
                out[..*width as usize].copy_from_slice(&bytes[..*width as usize]);
                Ok(())
            }
            (Value::Float(v), ColumnType::Float { width: 4 }) => {
                out[..4].copy_from_slice(&(*v as f32).to_le_bytes());
                Ok(())
            }
            (Value::Float(v), ColumnType::Float { width: 8 }) => {
                out[..8].copy_from_slice(&v.to_le_bytes());
                Ok(())
            }
            (Value::Str(s), ColumnType::Char { width }) => {
                let w = *width as usize;
                let bytes = s.as_bytes();
                let n = bytes.len().min(w);
                out[..n].copy_from_slice(&bytes[..n]);
                out[n..w].fill(0);
                Ok(())
            }
            _ => Err(StorageError::TypeMismatch {
                column: String::new(),
                expected: type_name(ty),
            }),
        }
    }

    /// Decode from exactly `ty.width()` bytes.
    pub fn decode(ty: &ColumnType, bytes: &[u8]) -> Value {
        match ty {
            ColumnType::Int { width } => {
                let w = *width as usize;
                let mut buf = [0u8; 8];
                buf[..w].copy_from_slice(&bytes[..w]);
                // Sign-extend from the top bit of the stored width.
                let negative = w < 8 && bytes[w - 1] & 0x80 != 0;
                if negative {
                    buf[w..].fill(0xff);
                }
                Value::Int(i64::from_le_bytes(buf))
            }
            ColumnType::Float { width: 4 } => {
                Value::Float(f32::from_le_bytes(bytes_at(bytes, 0)) as f64)
            }
            ColumnType::Float { .. } => Value::Float(f64::from_le_bytes(bytes_at(bytes, 0))),
            ColumnType::Char { width } => {
                let w = *width as usize;
                let end = bytes[..w].iter().position(|b| *b == 0).unwrap_or(w);
                Value::Str(String::from_utf8_lossy(&bytes[..end]).into_owned())
            }
        }
    }

    /// Order-preserving u64 key for the B+-tree layer.
    ///
    /// * integers: offset by `i64::MIN` so signed order maps to unsigned;
    /// * floats: standard monotone bit trick (flip sign bit or all bits);
    /// * strings: first 8 bytes big-endian (prefix order — GhostDB indexes
    ///   compare fixed-width values, and ties fall back to exact predicate
    ///   re-checks at the operator level).
    ///
    /// [`key_is_exact`](Self::key_is_exact) tells which values the key
    /// determines.
    pub fn order_key(&self) -> u64 {
        match self {
            Value::Int(v) => (*v as i128 - i64::MIN as i128) as u64,
            Value::Float(v) => {
                let bits = v.to_bits();
                if bits >> 63 == 0 {
                    bits | 0x8000_0000_0000_0000
                } else {
                    !bits
                }
            }
            Value::Str(s) => {
                let mut buf = [0u8; 8];
                let bytes = s.as_bytes();
                let n = bytes.len().min(8);
                buf[..n].copy_from_slice(&bytes[..n]);
                u64::from_be_bytes(buf)
            }
        }
    }

    /// Whether [`order_key`](Self::order_key) determines this value: every
    /// int and float, and a string of at most 8 bytes with no NUL byte. A
    /// longer string shares its key with every string of its 8-byte
    /// prefix, and one with a NUL byte with the string it pads to.
    pub fn key_is_exact(&self) -> bool {
        match self {
            Value::Int(_) | Value::Float(_) => true,
            Value::Str(s) => s.len() <= 8 && !s.as_bytes().contains(&0),
        }
    }

    /// Total-order comparison used by predicate evaluation. Panics on
    /// cross-type comparisons and on NaN: the planner type-checks
    /// predicates and rejects NaN literals first, and staging rejects NaN
    /// cells.
    #[allow(
        clippy::expect_used,
        reason = "invariant: no NaN reaches a comparison, since staging's \
                  `fits` rejects NaN cells and `analyze` rejects NaN literals"
    )]
    pub fn cmp_value(&self, other: &Value) -> std::cmp::Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).expect("NaN in data"),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b).expect("NaN"),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)).expect("NaN"),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => panic!("comparing {self:?} with {other:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

fn type_name(ty: &ColumnType) -> &'static str {
    match ty {
        ColumnType::Int { .. } => "int",
        ColumnType::Float { .. } => "float",
        ColumnType::Char { .. } => "char",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_all_widths() {
        for width in 1u8..=8 {
            let ty = ColumnType::Int { width };
            let max = if width == 8 {
                i64::MAX
            } else {
                (1i64 << (width * 8 - 1)) - 1
            };
            for v in [0, 1, -1, max, -max] {
                let mut buf = vec![0u8; ty.width()];
                Value::Int(v).encode(&ty, &mut buf).unwrap();
                assert_eq!(Value::decode(&ty, &buf), Value::Int(v), "w={width} v={v}");
            }
        }
    }

    #[test]
    fn float_roundtrip() {
        let ty = ColumnType::Float { width: 8 };
        for v in [0.0, 1.5, -2.25, 1e300] {
            let mut buf = vec![0u8; 8];
            Value::Float(v).encode(&ty, &mut buf).unwrap();
            assert_eq!(Value::decode(&ty, &buf), Value::Float(v));
        }
        // float(4) loses precision but preserves value for f32-exact inputs.
        let ty4 = ColumnType::float();
        let mut buf = vec![0u8; 4];
        Value::Float(23.5).encode(&ty4, &mut buf).unwrap();
        assert_eq!(Value::decode(&ty4, &buf), Value::Float(23.5));
    }

    #[test]
    fn char_pads_and_truncates() {
        let ty = ColumnType::char(6);
        let mut buf = vec![0xffu8; 6];
        Value::Str("ab".into()).encode(&ty, &mut buf).unwrap();
        assert_eq!(&buf, &[b'a', b'b', 0, 0, 0, 0]);
        assert_eq!(Value::decode(&ty, &buf), Value::Str("ab".into()));
        Value::Str("abcdefgh".into()).encode(&ty, &mut buf).unwrap();
        assert_eq!(Value::decode(&ty, &buf), Value::Str("abcdef".into()));
    }

    #[test]
    fn type_mismatch_is_error() {
        let mut buf = vec![0u8; 4];
        assert!(Value::Str("x".into())
            .encode(&ColumnType::int(), &mut buf)
            .is_err());
    }

    #[test]
    fn order_keys_preserve_int_order() {
        let vals = [-1_000_000i64, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(
                Value::Int(w[0]).order_key() < Value::Int(w[1]).order_key(),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn order_keys_preserve_float_order() {
        let vals = [-1e10, -1.0, -0.5, 0.0, 0.5, 1.0, 1e10];
        for w in vals.windows(2) {
            assert!(Value::Float(w[0]).order_key() < Value::Float(w[1]).order_key());
        }
    }

    #[test]
    fn order_keys_preserve_string_prefix_order() {
        assert!(Value::Str("abc".into()).order_key() < Value::Str("abd".into()).order_key());
        assert!(Value::Str("a".into()).order_key() < Value::Str("b".into()).order_key());
    }

    #[test]
    fn short_strings_and_numbers_have_exact_keys() {
        assert!(Value::Int(i64::MIN).key_is_exact());
        assert!(Value::Float(-2.5).key_is_exact());
        assert!(Value::Str(String::new()).key_is_exact());
        assert!(Value::Str("ABCDEFGH".into()).key_is_exact());
        // Shares its key with "ABCDEFGH".
        assert!(!Value::Str("ABCDEFGH1".into()).key_is_exact());
        // Shares its key with "AB".
        assert!(!Value::Str("AB\0".into()).key_is_exact());
    }

    #[test]
    fn cmp_value_mixed_numeric() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(2).cmp_value(&Value::Float(2.5)), Less);
        assert_eq!(Value::Float(3.0).cmp_value(&Value::Int(3)), Equal);
    }
}
