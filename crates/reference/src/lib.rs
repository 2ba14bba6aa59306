//! # ghostdb-reference
//!
//! A deliberately naive, fully trusted, in-memory Select-Project-Join
//! evaluator with the same root-anchored semantics as the GhostDB executor.
//! It is the **correctness oracle**: integration and property tests run the
//! same query through GhostDB (with all its indexes, Bloom filters and
//! RAM-bounded operators) and through this engine, and require identical
//! results.

use ghostdb_storage::{Predicate, Result, SchemaTree, StorageError, TableId, Value};
use std::collections::HashMap;

/// One table's raw data.
#[derive(Debug, Clone, Default)]
pub struct RefTable {
    /// Cardinality.
    pub rows: u64,
    /// Foreign keys: column → child id per row.
    pub fks: HashMap<String, Vec<u32>>,
    /// All non-key columns (visible and hidden alike — this engine is
    /// trusted).
    pub columns: HashMap<String, Vec<Value>>,
}

/// The reference database.
#[derive(Debug, Clone)]
pub struct RefDb {
    /// Schema (shared with the system under test).
    pub schema: SchemaTree,
    /// Raw tables, indexed by [`TableId`].
    pub tables: Vec<RefTable>,
}

/// A reference query: conjunctive predicates + projections, root-anchored.
#[derive(Debug, Clone, Default)]
pub struct RefQuery {
    /// Predicates as (table, predicate).
    pub predicates: Vec<(TableId, Predicate)>,
    /// Projections as (table, column); `"id"` projects the surrogate.
    pub projections: Vec<(TableId, String)>,
}

impl RefDb {
    /// For a root row, the id of the joining row in `target` (fk chains).
    fn join_id(&self, root_row: u32, target: TableId) -> Result<u32> {
        let root = self.schema.root();
        if target == root {
            return Ok(root_row);
        }
        // Path root → … → target.
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.schema.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        let mut id = root_row;
        for edge in path.windows(2) {
            let parent_def = self.schema.def(edge[0]);
            let fk = parent_def
                .foreign_keys
                .iter()
                .find(|f| self.schema.table_id(&f.references).ok() == Some(edge[1]))
                .ok_or_else(|| StorageError::Schema("missing fk".into()))?;
            id = self.tables[edge[0]].fks[&fk.column][id as usize];
        }
        Ok(id)
    }

    /// Value of `(table, column)` for a root row; a foreign-key column
    /// holds the id it references.
    fn value(&self, root_row: u32, t: TableId, column: &str) -> Result<Value> {
        let id = self.join_id(root_row, t)?;
        if column == "id" {
            return Ok(Value::Int(id as i64));
        }
        if let Some(fk) = self.tables[t].fks.get(column) {
            return Ok(Value::Int(fk[id as usize].into()));
        }
        let col = self.tables[t]
            .columns
            .get(column)
            .ok_or_else(|| StorageError::Unknown(column.to_string()))?;
        Ok(col[id as usize].clone())
    }

    /// Evaluate a query: one output row per surviving root tuple, in root
    /// id order.
    pub fn run(&self, q: &RefQuery) -> Result<Vec<Vec<Value>>> {
        let root = self.schema.root();
        let mut out = Vec::new();
        'rows: for r in 0..self.tables[root].rows as u32 {
            for (t, p) in &q.predicates {
                let v = self.value(r, *t, &p.column)?;
                if !p.matches(&v) {
                    continue 'rows;
                }
            }
            let row = q
                .projections
                .iter()
                .map(|(t, c)| self.value(r, *t, c))
                .collect::<Result<Vec<_>>>()?;
            out.push(row);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_storage::schema::paper_synthetic_schema;
    use ghostdb_storage::CmpOp;

    fn tiny() -> RefDb {
        let schema = paper_synthetic_schema(1, 1);
        let names = ["T0", "T1", "T2", "T11", "T12"];
        let card = [40u64, 20, 10, 5, 4];
        let mut tables = vec![RefTable::default(); schema.len()];
        for (n, c) in names.iter().zip(card) {
            let t = schema.table_id(n).unwrap();
            tables[t].rows = c;
            tables[t].columns.insert(
                "v1".into(),
                (0..c).map(|i| Value::Str(format!("{i:08}"))).collect(),
            );
            tables[t].columns.insert(
                "h1".into(),
                (0..c)
                    .map(|i| Value::Str(format!("{:08}", i % 3)))
                    .collect(),
            );
        }
        let t0 = schema.table_id("T0").unwrap();
        let t1 = schema.table_id("T1").unwrap();
        tables[t0]
            .fks
            .insert("fk1".into(), (0..40).map(|i| (i % 20) as u32).collect());
        tables[t0]
            .fks
            .insert("fk2".into(), (0..40).map(|i| (i % 10) as u32).collect());
        tables[t1]
            .fks
            .insert("fk11".into(), (0..20).map(|i| (i % 5) as u32).collect());
        tables[t1]
            .fks
            .insert("fk12".into(), (0..20).map(|i| (i % 4) as u32).collect());
        RefDb { schema, tables }
    }

    #[test]
    fn join_chain_resolution() {
        let db = tiny();
        let t12 = db.schema.table_id("T12").unwrap();
        // root 37 → T1 17 → T12 1.
        assert_eq!(db.join_id(37, t12).unwrap(), 1);
    }

    #[test]
    fn filtered_projection() {
        let db = tiny();
        let t0 = db.schema.table_id("T0").unwrap();
        let t12 = db.schema.table_id("T12").unwrap();
        let q = RefQuery {
            predicates: vec![(t12, Predicate::eq("h1", Value::Str("00000001".into())))],
            projections: vec![(t0, "id".into()), (t12, "id".into())],
        };
        let rows = db.run(&q).unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            let Value::Int(r) = row[0] else { panic!() };
            let t1 = (r % 20) as u32;
            let t12v = t1 % 4;
            assert_eq!(row[1], Value::Int(t12v as i64));
            assert_eq!(t12v % 3, 1);
        }
    }

    #[test]
    fn range_predicate() {
        let db = tiny();
        let t0 = db.schema.table_id("T0").unwrap();
        let q = RefQuery {
            predicates: vec![(
                t0,
                Predicate::new("v1", CmpOp::Lt, Value::Str("00000005".into()), None),
            )],
            projections: vec![(t0, "id".into())],
        };
        assert_eq!(db.run(&q).unwrap().len(), 5);
    }
}
