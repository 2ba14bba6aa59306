//! Selection predicates (`attribute θ value`, paper §3).
//!
//! Predicates are conjunctive and each applies to a single column. They
//! evaluate exactly on decoded [`Value`]s (the Untrusted side and the
//! projection-time re-checks) and translate to inclusive order-key ranges
//! for climbing-index probes.

use crate::value::Value;
use std::cmp::Ordering;

/// Comparison operator of a selection predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `BETWEEN a AND b` (inclusive)
    Between,
}

/// A selection predicate on one column of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: CmpOp,
    /// Comparison value (lower bound for `Between`).
    pub value: Value,
    /// Upper bound for `Between`, unused otherwise.
    pub value2: Option<Value>,
}

impl Predicate {
    /// Build a predicate; `Between` requires `value2`.
    pub fn new(column: &str, op: CmpOp, value: Value, value2: Option<Value>) -> Self {
        if op == CmpOp::Between {
            assert!(value2.is_some(), "BETWEEN requires two values");
        }
        Predicate {
            column: column.into(),
            op,
            value,
            value2,
        }
    }

    /// Shorthand for an equality predicate.
    pub fn eq(column: &str, value: Value) -> Self {
        Predicate::new(column, CmpOp::Eq, value, None)
    }

    /// Exact evaluation against a decoded value.
    #[allow(
        clippy::expect_used,
        reason = "invariant: a `Between` has its upper bound, since \
                  `Predicate::new` asserts it and `analyze` rejects one without"
    )]
    pub fn matches(&self, v: &Value) -> bool {
        let ord = v.cmp_value(&self.value);
        match self.op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Between => {
                ord != Ordering::Less
                    && v.cmp_value(self.value2.as_ref().expect("between")) != Ordering::Greater
            }
        }
    }

    /// The literals the predicate compares with: its value, and a
    /// `Between`'s upper bound.
    pub fn literals(&self) -> impl Iterator<Item = &Value> {
        std::iter::once(&self.value).chain(&self.value2)
    }

    /// Inclusive `[lo, hi]` order-key range for index probes; an empty
    /// selection gives `lo > hi`.
    ///
    /// With `exact` keys (every indexed value and every literal determined
    /// by its key, [`Value::key_is_exact`]) the range holds exactly the
    /// matching keys. Otherwise it holds every key a matching value can
    /// have: `<` and `>` keep the literal's own key, whose other values
    /// the caller re-checks on exact values.
    #[allow(
        clippy::expect_used,
        reason = "invariant: a `Between` has its upper bound, since \
                  `Predicate::new` asserts it and `analyze` rejects one without"
    )]
    pub fn key_range(&self, exact: bool) -> (u64, u64) {
        const EMPTY: (u64, u64) = (1, 0);
        let k = self.value.order_key();
        match self.op {
            CmpOp::Eq => (k, k),
            CmpOp::Lt if exact => k.checked_sub(1).map_or(EMPTY, |hi| (0, hi)),
            CmpOp::Lt | CmpOp::Le => (0, k),
            CmpOp::Gt if exact => k.checked_add(1).map_or(EMPTY, |lo| (lo, u64::MAX)),
            CmpOp::Gt | CmpOp::Ge => (k, u64::MAX),
            CmpOp::Between => (k, self.value2.as_ref().expect("between").order_key()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_all_operators() {
        let v = Value::Int(10);
        assert!(Predicate::eq("c", Value::Int(10)).matches(&v));
        assert!(!Predicate::eq("c", Value::Int(11)).matches(&v));
        assert!(Predicate::new("c", CmpOp::Lt, Value::Int(11), None).matches(&v));
        assert!(!Predicate::new("c", CmpOp::Lt, Value::Int(10), None).matches(&v));
        assert!(Predicate::new("c", CmpOp::Le, Value::Int(10), None).matches(&v));
        assert!(Predicate::new("c", CmpOp::Gt, Value::Int(9), None).matches(&v));
        assert!(Predicate::new("c", CmpOp::Ge, Value::Int(10), None).matches(&v));
        assert!(
            Predicate::new("c", CmpOp::Between, Value::Int(5), Some(Value::Int(10))).matches(&v)
        );
        assert!(
            !Predicate::new("c", CmpOp::Between, Value::Int(5), Some(Value::Int(9))).matches(&v)
        );
    }

    #[test]
    fn key_ranges_bracket_matching_values() {
        // For every op, every matching value's key must fall in the range.
        let candidates: Vec<i64> = (-20..20).collect();
        let preds = vec![
            Predicate::eq("c", Value::Int(3)),
            Predicate::new("c", CmpOp::Lt, Value::Int(3), None),
            Predicate::new("c", CmpOp::Le, Value::Int(3), None),
            Predicate::new("c", CmpOp::Gt, Value::Int(3), None),
            Predicate::new("c", CmpOp::Ge, Value::Int(3), None),
            Predicate::new("c", CmpOp::Between, Value::Int(-5), Some(Value::Int(5))),
        ];
        for p in &preds {
            let (lo, hi) = p.key_range(true);
            for c in &candidates {
                let v = Value::Int(*c);
                let k = v.order_key();
                if p.matches(&v) {
                    assert!(lo <= k && k <= hi, "{p:?} value {c}");
                } else {
                    assert!(k < lo || k > hi, "{p:?} value {c} (int keys are exact)");
                }
            }
        }
    }

    #[test]
    fn float_ranges() {
        let p = Predicate::new("bmi", CmpOp::Gt, Value::Float(25.0), None);
        assert!(p.matches(&Value::Float(25.1)));
        assert!(!p.matches(&Value::Float(25.0)));
        let (lo, hi) = p.key_range(true);
        assert!(Value::Float(25.0001).order_key() >= lo);
        assert!(Value::Float(1e9).order_key() <= hi);
        assert!(Value::Float(25.0).order_key() < lo);
    }

    #[test]
    fn strict_ranges_past_the_key_domain_are_empty() {
        let below = Predicate::new("c", CmpOp::Lt, Value::Int(i64::MIN), None);
        let above = Predicate::new("c", CmpOp::Gt, Value::Int(i64::MAX), None);
        for p in [below, above] {
            let (lo, hi) = p.key_range(true);
            assert!(lo > hi, "{p:?} selects nothing");
        }
    }

    #[test]
    fn inexact_ranges_keep_every_key_a_match_can_have() {
        // 8-byte keys of strings up to 10 bytes: a string shares its key
        // with every string of its 8-byte prefix.
        let s = |v: &str| Value::Str(v.into());
        let values = [
            "00000001",
            "000000013",
            "00000002",
            "000000005",
            "0000000",
            "000000019",
        ];
        for lit in ["0000000", "00000001", "000000012"] {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let p = Predicate::new("c", op, s(lit), None);
                let (lo, hi) = p.key_range(false);
                for v in values.map(s) {
                    let k = v.order_key();
                    if p.matches(&v) {
                        assert!(lo <= k && k <= hi, "{p:?} must keep {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn string_predicates() {
        let p = Predicate::eq("specialty", Value::Str("Psychiatrist".into()));
        assert!(p.matches(&Value::Str("Psychiatrist".into())));
        assert!(!p.matches(&Value::Str("Surgeon".into())));
    }
}
