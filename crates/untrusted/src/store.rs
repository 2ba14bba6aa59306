//! The in-memory columnar visible store of the Untrusted PC.
//!
//! Columns are kept **encoded** at their declared fixed width (a `char(10)`
//! cell costs 10 bytes, not a heap string), so paper-scale visible
//! partitions (millions of rows) stay cheap on the host.

use ghostdb_storage::{ColumnType, Id, Predicate, Result, StorageError, TableId, Value};

/// A visible column: name, type and the encoded cells (row order = tuple
/// id, since the id is replicated on both sides, §2.1).
#[derive(Debug, Clone)]
pub struct VisibleColumn {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    data: Vec<u8>,
    rows: u64,
}

impl VisibleColumn {
    /// Build from a value generator.
    pub fn from_gen(
        name: &str,
        ty: ColumnType,
        rows: u64,
        mut gen: impl FnMut(Id) -> Value,
    ) -> Result<Self> {
        let w = ty.width();
        let mut data = vec![0u8; w * rows as usize];
        for r in 0..rows {
            gen(r as Id).encode(&ty, &mut data[r as usize * w..(r as usize + 1) * w])?;
        }
        Ok(VisibleColumn {
            name: name.into(),
            ty,
            data,
            rows,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Decode the value of one row.
    pub fn value(&self, row: Id) -> Value {
        let w = self.ty.width();
        Value::decode(
            &self.ty,
            &self.data[row as usize * w..(row as usize + 1) * w],
        )
    }

    /// Raw encoded cell (wire shipping).
    pub fn raw(&self, row: Id) -> &[u8] {
        let w = self.ty.width();
        &self.data[row as usize * w..(row as usize + 1) * w]
    }
}

/// The visible partition of one table.
#[derive(Debug, Clone, Default)]
pub struct VisibleTable {
    /// Visible columns.
    pub columns: Vec<VisibleColumn>,
    /// Cardinality (kept even when no column is visible: ids are public).
    pub rows: u64,
}

impl VisibleTable {
    /// Find a column.
    pub fn column(&self, name: &str) -> Result<&VisibleColumn> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| StorageError::Unknown(format!("visible column {name}")))
    }
}

/// The visible partitions of every table, indexed by [`TableId`].
#[derive(Debug, Clone, Default)]
pub struct VisibleStore {
    tables: Vec<VisibleTable>,
}

impl VisibleStore {
    /// Store with `n` empty tables.
    pub fn new(n: usize) -> Self {
        VisibleStore {
            tables: (0..n).map(|_| VisibleTable::default()).collect(),
        }
    }

    /// Install the visible partition of a table.
    pub fn set_table(&mut self, t: TableId, table: VisibleTable) {
        self.tables[t] = table;
    }

    /// The visible partition of a table.
    pub fn table(&self, t: TableId) -> &VisibleTable {
        &self.tables[t]
    }

    /// Sorted ids of `t` satisfying **all** the given visible predicates
    /// (the PC evaluates the conjunction locally; an empty predicate list
    /// selects everything, e.g. when a query only projects visible values).
    /// A predicate on `"id"` compares against the surrogate itself.
    pub fn select(&self, t: TableId, preds: &[Predicate]) -> Result<Vec<Id>> {
        let table = &self.tables[t];
        let cols: Vec<Option<&VisibleColumn>> = preds
            .iter()
            .map(|p| {
                if p.column == "id" {
                    Ok(None)
                } else {
                    table.column(&p.column).map(Some)
                }
            })
            .collect::<Result<_>>()?;
        let mut out = Vec::new();
        'rows: for id in 0..table.rows {
            for (p, c) in preds.iter().zip(&cols) {
                let v = match c {
                    Some(c) => c.value(id as Id),
                    None => Value::Int(id as i64),
                };
                if !p.matches(&v) {
                    continue 'rows;
                }
            }
            out.push(id as Id);
        }
        Ok(out)
    }

    /// Values of the named visible columns for the given ids.
    pub fn project(&self, t: TableId, ids: &[Id], columns: &[String]) -> Result<Vec<Vec<Value>>> {
        let table = &self.tables[t];
        let cols: Vec<&VisibleColumn> = columns
            .iter()
            .map(|c| table.column(c))
            .collect::<Result<_>>()?;
        Ok(ids
            .iter()
            .map(|id| cols.iter().map(|c| c.value(*id)).collect())
            .collect())
    }

    /// Exact count of ids matching visible predicates — free selectivity
    /// estimation for the planner (the PC's compute is not the bottleneck).
    pub fn count(&self, t: TableId, preds: &[Predicate]) -> Result<u64> {
        Ok(self.select(t, preds)?.len() as u64)
    }

    /// Cardinality of a table.
    pub fn rows(&self, t: TableId) -> u64 {
        self.tables[t].rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_storage::CmpOp;

    fn store() -> VisibleStore {
        let mut s = VisibleStore::new(1);
        s.set_table(
            0,
            VisibleTable {
                columns: vec![
                    VisibleColumn::from_gen("age", ColumnType::Int { width: 2 }, 10, |i| {
                        Value::Int(20 + i as i64)
                    })
                    .unwrap(),
                    VisibleColumn::from_gen("city", ColumnType::char(10), 10, |i| {
                        Value::Str(if i % 2 == 0 { "Paris" } else { "NYC" }.into())
                    })
                    .unwrap(),
                ],
                rows: 10,
            },
        );
        s
    }

    #[test]
    fn conjunctive_selection() {
        let s = store();
        let ids = s
            .select(
                0,
                &[
                    Predicate::new("age", CmpOp::Ge, Value::Int(24), None),
                    Predicate::eq("city", Value::Str("Paris".into())),
                ],
            )
            .unwrap();
        assert_eq!(ids, vec![4, 6, 8]);
    }

    #[test]
    fn id_predicate_uses_surrogate() {
        let s = store();
        let ids = s
            .select(0, &[Predicate::new("id", CmpOp::Lt, Value::Int(3), None)])
            .unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn empty_predicates_select_all() {
        let s = store();
        assert_eq!(s.select(0, &[]).unwrap().len(), 10);
        assert_eq!(s.count(0, &[]).unwrap(), 10);
    }

    #[test]
    fn projection_fetches_values() {
        let s = store();
        let vals = s.project(0, &[1, 3], &["age".into()]).unwrap();
        assert_eq!(vals, vec![vec![Value::Int(21)], vec![Value::Int(23)]]);
    }

    #[test]
    fn encoded_storage_roundtrips_values() {
        let col =
            VisibleColumn::from_gen("v", ColumnType::char(6), 1, |_| Value::Str("abc".into()))
                .unwrap();
        assert_eq!(col.value(0), Value::Str("abc".into()));
        assert_eq!(col.raw(0), &[b'a', b'b', b'c', 0, 0, 0]);
    }

    #[test]
    fn unknown_column_errors() {
        let s = store();
        assert!(s
            .select(0, &[Predicate::eq("nope", Value::Int(0))])
            .is_err());
    }
}
