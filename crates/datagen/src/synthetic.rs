//! The synthetic dataset of §6.2, with exact-selectivity attributes.

use crate::pad8;
use crate::spec::SyntheticSpec;
use ghostdb_exec::database::{ColumnLoad, Database, TableLoad};
use ghostdb_exec::Result;
use ghostdb_reference::{RefDb, RefTable};
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{CmpOp, Id, Predicate, SchemaTree, TableId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Table names in schema declaration order.
pub const TABLES: [&str; 5] = ["T0", "T1", "T2", "T11", "T12"];

/// A fully deterministic synthetic dataset: per-column value permutations
/// plus uniform foreign keys, kept host-side so both the GhostDB load and
/// the reference oracle derive from the same bits.
pub struct SyntheticDataset {
    /// The generating spec.
    pub spec: SyntheticSpec,
    /// The schema (5 visible + 5 hidden attrs declared; the spec decides
    /// how many are actually populated).
    pub schema: SchemaTree,
    rows: Vec<u64>,
    /// `perms[(table, col)][row]` = value ordinal (a permutation of 0..rows).
    perms: HashMap<(TableId, String), Arc<Vec<u32>>>,
    /// Foreign keys per (table, fk column).
    fks: HashMap<(TableId, String), Arc<Vec<Id>>>,
}

impl SyntheticDataset {
    /// Generate the dataset (host side; deterministic in the spec).
    pub fn generate(spec: SyntheticSpec) -> Self {
        // The schema always declares the paper's 5+5 attributes so size
        // models and the SQL surface match the paper; only the first
        // `spec.*_attrs` columns are populated with data (columnar storage
        // makes unpopulated columns free).
        let schema = paper_synthetic_schema(5, 5);
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let cards = spec.cardinalities();
        let mut rows = vec![0u64; schema.len()];
        for (name, c) in TABLES.iter().zip(cards) {
            rows[schema.table_id(name).expect("paper schema")] = c;
        }
        let mut perms = HashMap::new();
        let column_values = |n: u64, rng: &mut SmallRng| -> Vec<u32> {
            match spec.value_skew {
                None => permutation(n, rng),
                Some(skew) => zipf_values(n, skew, rng),
            }
        };
        for (ti, name) in TABLES.iter().enumerate() {
            let t = schema.table_id(name).expect("paper schema");
            let n = cards[ti];
            for v in 1..=spec.visible_attrs {
                perms.insert((t, format!("v{v}")), Arc::new(column_values(n, &mut rng)));
            }
            for h in 1..=spec.hidden_attrs {
                perms.insert((t, format!("h{h}")), Arc::new(column_values(n, &mut rng)));
            }
        }
        let mut fks = HashMap::new();
        let edges = [
            ("T0", "fk1", "T1"),
            ("T0", "fk2", "T2"),
            ("T1", "fk11", "T11"),
            ("T1", "fk12", "T12"),
        ];
        for (parent, col, child) in edges {
            let p = schema.table_id(parent).expect("schema");
            let c = schema.table_id(child).expect("schema");
            let n_child = rows[c];
            let arr: Vec<Id> = (0..rows[p])
                .map(|_| rng.gen_range(0..n_child) as Id)
                .collect();
            fks.insert((p, col.to_string()), Arc::new(arr));
        }
        SyntheticDataset {
            spec,
            schema,
            rows,
            perms,
            fks,
        }
    }

    /// Cardinality of a table.
    pub fn rows(&self, name: &str) -> u64 {
        self.rows[self.schema.table_id(name).expect("table")]
    }

    /// Build the GhostDB database (loads the token + PC).
    pub fn build(&self) -> Result<Database> {
        let mut loads = Vec::new();
        for name in TABLES {
            let t = self.schema.table_id(name)?;
            let mut columns = Vec::new();
            for v in 1..=self.spec.visible_attrs {
                let cname = format!("v{v}");
                let perm = self.perms[&(t, cname.clone())].clone();
                columns.push(ColumnLoad {
                    name: cname,
                    gen: Box::new(move |r| pad8(perm[r as usize] as u64)),
                    index: false,
                });
            }
            for h in 1..=self.spec.hidden_attrs {
                let cname = format!("h{h}");
                let perm = self.perms[&(t, cname.clone())].clone();
                let index = self
                    .spec
                    .indexed
                    .iter()
                    .any(|(tn, cn)| tn == name && *cn == cname);
                columns.push(ColumnLoad {
                    name: cname,
                    gen: Box::new(move |r| pad8(perm[r as usize] as u64)),
                    index,
                });
            }
            let fks = self
                .fks
                .iter()
                .filter(|((tt, _), _)| *tt == t)
                .map(|((_, col), arr)| (col.clone(), arr.as_ref().clone()))
                .collect();
            loads.push(TableLoad {
                table: name.to_string(),
                rows: self.rows[t],
                fks,
                columns,
            });
        }
        Database::assemble(self.schema.clone(), &self.spec.token_config(), loads)
    }

    /// Mirror into the trusted reference oracle (small scales only: the
    /// oracle materialises every value).
    pub fn ref_db(&self) -> RefDb {
        let mut tables = vec![RefTable::default(); self.schema.len()];
        for name in TABLES {
            let t = self.schema.table_id(name).expect("table");
            let n = self.rows[t];
            let mut table = RefTable {
                rows: n,
                ..Default::default()
            };
            for ((tt, col), perm) in &self.perms {
                if *tt == t {
                    table.columns.insert(
                        col.clone(),
                        (0..n).map(|r| pad8(perm[r as usize] as u64)).collect(),
                    );
                }
            }
            for ((tt, col), arr) in &self.fks {
                if *tt == t {
                    table.fks.insert(col.clone(), arr.as_ref().clone());
                }
            }
            tables[t] = table;
        }
        RefDb {
            schema: self.schema.clone(),
            tables,
        }
    }

    /// A predicate on `(table, column)` selecting **exactly**
    /// `⌈selectivity × rows⌉` rows when values are uniform permutations of
    /// `0..rows`. Under `value_skew` the threshold comes from the actual
    /// value distribution (the selectivity-quantile of a sorted copy), so
    /// the selection stays *approximately* at the target — duplicate runs
    /// at the quantile boundary make exactness impossible by construction.
    pub fn selectivity_pred(&self, table: &str, column: &str, selectivity: f64) -> Predicate {
        let t = self.schema.table_id(table).expect("table");
        let n = self.rows[t];
        if self.spec.value_skew.is_none() {
            let k = ((selectivity * n as f64).round() as u64).clamp(0, n);
            return Predicate::new(column, CmpOp::Lt, pad8(k), None);
        }
        // Skewed data: select everything up to AND INCLUDING the value at
        // the requested quantile (`< q+1` ≡ `≤ q` on integer ordinals).
        // Duplicates round the achieved selectivity up to the end of the
        // quantile's duplicate run — with a heavy head that is the head's
        // whole mass, the best any threshold predicate can do.
        let vals = &self.perms[&(t, column.to_string())];
        let mut sorted: Vec<u32> = vals.as_ref().clone();
        sorted.sort_unstable();
        let idx = ((selectivity * n as f64).round() as usize).min(sorted.len().saturating_sub(1));
        let threshold = sorted.get(idx).copied().unwrap_or(0) as u64 + 1;
        Predicate::new(column, CmpOp::Lt, pad8(threshold), None)
    }
}

/// A seeded random permutation of `0..n`.
fn permutation(n: u64, rng: &mut SmallRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    v.shuffle(rng);
    v
}

/// `n` draws from Zipf(`s`) over the ordinals `0..n`: ordinal `r` has
/// probability ∝ 1/(r+1)^s. Inverse-CDF sampling over the precomputed
/// cumulative weights, deterministic in the RNG stream.
fn zipf_values(n: u64, s: f64, rng: &mut SmallRng) -> Vec<u32> {
    assert!(s > 0.0, "Zipf exponent must be positive");
    let n = n as usize;
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(total);
    }
    (0..n)
        .map(|_| {
            let u = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            cdf.partition_point(|c| *c < u).min(n - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = SyntheticDataset::generate(SyntheticSpec::small());
        let b = SyntheticDataset::generate(SyntheticSpec::small());
        let t0 = a.schema.table_id("T0").unwrap();
        assert_eq!(
            a.perms[&(t0, "v1".to_string())],
            b.perms[&(t0, "v1".to_string())]
        );
        assert_eq!(
            a.fks[&(t0, "fk1".to_string())],
            b.fks[&(t0, "fk1".to_string())]
        );
    }

    #[test]
    fn selectivity_is_exact() {
        let ds = SyntheticDataset::generate(SyntheticSpec::small());
        let db_ref = ds.ref_db();
        let t1 = ds.schema.table_id("T1").unwrap();
        for sv in [0.01f64, 0.1, 0.5] {
            let pred = ds.selectivity_pred("T1", "v1", sv);
            let n = ds.rows("T1");
            let matching = db_ref.tables[t1].columns["v1"]
                .iter()
                .filter(|v| pred.matches(v))
                .count() as u64;
            assert_eq!(matching, (sv * n as f64).round() as u64, "sv={sv}");
        }
    }

    #[test]
    fn zipf_values_are_skewed_deterministic_and_queryable() {
        let spec = || {
            let mut s = SyntheticSpec::paper_zipf(0.0002, 1.2); // T0 = 2000
            s.seed = 99;
            s
        };
        let a = SyntheticDataset::generate(spec());
        let b = SyntheticDataset::generate(spec());
        let t1 = a.schema.table_id("T1").unwrap();
        let key = (t1, "v1".to_string());
        assert_eq!(a.perms[&key], b.perms[&key], "generation must be seeded");
        // Heavy head: the most frequent ordinal appears far more often than
        // the uniform 1-per-row, and it is a small ordinal.
        let vals = &a.perms[&key];
        let n = vals.len() as u32;
        let mut counts = vec![0u32; n as usize];
        for v in vals.iter() {
            counts[*v as usize] += 1;
        }
        let (mode, mode_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, c)| (i as u32, *c))
            .unwrap();
        assert!(mode < n / 10, "Zipf mass must sit on small ordinals");
        assert!(mode_count > 5, "head ordinal must repeat, got {mode_count}");
        // The quantile-based predicate lands near the target selectivity.
        let pred = a.selectivity_pred("T1", "v1", 0.1);
        let matching = vals
            .iter()
            .filter(|v| pred.matches(&pad8(**v as u64)))
            .count();
        let frac = matching as f64 / vals.len() as f64;
        // Zipf(1.2)'s head ordinal alone carries ~28% of the mass at this
        // cardinality, so a 10% target rounds up to the head's share.
        assert!(
            (0.05..=0.6).contains(&frac),
            "sv target 0.1 landed at {frac}"
        );
        // The built database answers identically to the oracle on skewed
        // data (same arrays feed both sides).
        let mut db = a.build().unwrap();
        let t0 = db.schema.root();
        let t12 = a.schema.table_id("T12").unwrap();
        let hpred = a.selectivity_pred("T12", "h2", 0.25);
        let mut q = ghostdb_exec::SpjQuery::new()
            .pred(t12, hpred.clone())
            .project(t0, "id");
        q.text = "zipf-test".into();
        let (rs, _) =
            ghostdb_exec::Executor::run(&mut db, &q, &ghostdb_exec::ExecOptions::auto()).unwrap();
        let expect = a
            .ref_db()
            .run(&ghostdb_reference::RefQuery {
                predicates: vec![(t12, hpred)],
                projections: vec![(t0, "id".into())],
            })
            .unwrap();
        assert_eq!(rs.rows, expect);
    }

    #[test]
    fn build_and_query_roundtrip() {
        let ds = SyntheticDataset::generate(SyntheticSpec::small());
        let mut db = ds.build().unwrap();
        assert_eq!(db.rows[db.schema.root()], 2000);
        // The built database answers a simple query identically to the
        // oracle.
        let t0 = db.schema.root();
        let t12 = db.schema.table_id("T12").unwrap();
        let pred = ds.selectivity_pred("T12", "h2", 0.25);
        let mut q = ghostdb_exec::SpjQuery::new()
            .pred(t12, pred.clone())
            .project(t0, "id");
        q.text = "test".into();
        let (rs, _) =
            ghostdb_exec::Executor::run(&mut db, &q, &ghostdb_exec::ExecOptions::auto()).unwrap();
        let expect = ds
            .ref_db()
            .run(&ghostdb_reference::RefQuery {
                predicates: vec![(t12, pred)],
                projections: vec![(t0, "id".into())],
            })
            .unwrap();
        assert_eq!(rs.rows, expect);
        assert!(!rs.rows.is_empty());
    }
}
