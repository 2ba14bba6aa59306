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

    /// Inclusive `[lo, hi]` order-key range for index probes.
    ///
    /// Exact for injective key encodings (ints, floats, strings up to 8
    /// significant bytes); for longer strings the range is a superset and
    /// the executor re-checks exact values at projection time.
    #[allow(
        clippy::expect_used,
        reason = "invariant: a `Between` has its upper bound, since \
                  `Predicate::new` asserts it and `analyze` rejects one without"
    )]
    pub fn key_range(&self) -> (u64, u64) {
        let k = self.value.order_key();
        match self.op {
            CmpOp::Eq => (k, k),
            CmpOp::Lt => (0, k.saturating_sub(1)),
            CmpOp::Le => (0, k),
            CmpOp::Gt => (k.saturating_add(1), u64::MAX),
            CmpOp::Ge => (k, u64::MAX),
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
            let (lo, hi) = p.key_range();
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
        let (lo, hi) = p.key_range();
        assert!(Value::Float(25.0001).order_key() >= lo);
        assert!(Value::Float(1e9).order_key() <= hi);
        assert!(Value::Float(25.0).order_key() < lo);
    }

    #[test]
    fn string_predicates() {
        let p = Predicate::eq("specialty", Value::Str("Psychiatrist".into()));
        assert!(p.matches(&Value::Str("Psychiatrist".into())));
        assert!(!p.matches(&Value::Str("Surgeon".into())));
    }
}
