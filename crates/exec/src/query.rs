//! Select-Project-Join query model and analysis (paper §3, "queries of
//! interest": exact-match and range selections followed by equi-joins on
//! key attributes over a tree schema, projections on any attributes).

use crate::error::ExecError;
use crate::Result;
use ghostdb_storage::{CmpOp, Predicate, SchemaTree, TableId, Visibility};

/// A Select-Project-Join query over the tree schema.
///
/// Join predicates are implicit: every mentioned table joins its parent
/// along the schema tree (`Ti.fkj = Tj.id`), and the result unit is one row
/// per root tuple surviving all selections — exactly the paper's generic
/// query form (§3, Figure 3).
#[derive(Debug, Clone)]
pub struct SpjQuery {
    /// Query text as observable on the wire (set by the SQL layer; builder
    /// queries synthesise a canonical form).
    pub text: String,
    /// Tables mentioned in FROM (the root is implied if missing).
    pub tables: Vec<TableId>,
    /// Conjunctive selection predicates, each bound to one table.
    pub predicates: Vec<(TableId, Predicate)>,
    /// Projected columns as (table, column); `"id"` projects the surrogate.
    pub projections: Vec<(TableId, String)>,
}

impl SpjQuery {
    /// Start building a query.
    pub fn new() -> Self {
        SpjQuery {
            text: String::new(),
            tables: Vec::new(),
            predicates: Vec::new(),
            projections: Vec::new(),
        }
    }

    /// Builder: mention a table.
    pub fn table(mut self, t: TableId) -> Self {
        if !self.tables.contains(&t) {
            self.tables.push(t);
        }
        self
    }

    /// Builder: add a predicate.
    pub fn pred(mut self, t: TableId, p: Predicate) -> Self {
        self = self.table(t);
        self.predicates.push((t, p));
        self
    }

    /// Builder: project a column.
    pub fn project(mut self, t: TableId, column: &str) -> Self {
        self = self.table(t);
        self.projections.push((t, column.to_string()));
        self
    }
}

impl Default for SpjQuery {
    fn default() -> Self {
        SpjQuery::new()
    }
}

/// A hidden selection, bound to its climbing index by the analyzer.
#[derive(Debug, Clone)]
pub struct HiddenSel {
    /// Table carrying the predicate.
    pub table: TableId,
    /// The predicate.
    pub pred: Predicate,
    /// Whether index keys are exact for this predicate (no re-check needed).
    pub exact: bool,
}

/// Per-table projection requirements.
#[derive(Debug, Clone, Default)]
pub struct TableProjection {
    /// Visible columns to project.
    pub vis: Vec<String>,
    /// Hidden columns to project.
    pub hid: Vec<String>,
    /// Project the surrogate id.
    pub id: bool,
}

/// The analyzed query the planner and executor work from.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// Tables involved, root first, then the rest in mention order.
    pub tables: Vec<TableId>,
    /// Visible predicates grouped per table.
    pub vis_preds: Vec<(TableId, Vec<Predicate>)>,
    /// Hidden selections.
    pub hid_sels: Vec<HiddenSel>,
    /// Projection requirements per table (only tables projecting something).
    pub projections: Vec<(TableId, TableProjection)>,
    /// Output column order as (table, column) pairs.
    pub output: Vec<(TableId, String)>,
}

impl Analyzed {
    /// Visible predicates of one table (empty slice if none).
    pub fn vis_preds_of(&self, t: TableId) -> &[Predicate] {
        self.vis_preds
            .iter()
            .find(|(tt, _)| *tt == t)
            .map(|(_, p)| p.as_slice())
            .unwrap_or(&[])
    }

    /// Hidden selections on `t` or any table in `t`'s subtree.
    pub fn hidden_in_subtree(&self, schema: &SchemaTree, t: TableId) -> Vec<&HiddenSel> {
        self.hid_sels
            .iter()
            .filter(|h| schema.is_ancestor_or_self(t, h.table))
            .collect()
    }
}

/// Validate and analyze a query against a schema.
///
/// Checks: tables exist; predicate and projection columns exist with known
/// visibility; the root is included (added implicitly when missing), since
/// result rows are root-anchored.
pub fn analyze(schema: &SchemaTree, q: &SpjQuery) -> Result<Analyzed> {
    let root = schema.root();
    let mut tables = vec![root];
    for t in &q.tables {
        if *t >= schema.len() {
            return Err(ExecError::Query(format!("unknown table id {t}")));
        }
        if !tables.contains(t) {
            tables.push(*t);
        }
    }

    let mut vis_preds: Vec<(TableId, Vec<Predicate>)> = Vec::new();
    let mut hid_sels = Vec::new();
    for (t, p) in &q.predicates {
        let def = schema.def(*t);
        if p.column == "id" {
            // The surrogate is replicated on both sides; the PC can always
            // evaluate it, so treat it as visible.
            push_vis(&mut vis_preds, *t, p.clone());
            continue;
        }
        let col = def
            .column(&p.column)
            .ok_or_else(|| ExecError::Query(format!("unknown column {}.{}", def.name, p.column)))?;
        let p = &coerce(&def.name, col, p)?;
        match col.visibility {
            Visibility::Visible => push_vis(&mut vis_preds, *t, p.clone()),
            Visibility::Hidden => {
                let exact = match &col.ty {
                    ghostdb_storage::ColumnType::Char { width } => *width as usize <= 8,
                    _ => true,
                };
                hid_sels.push(HiddenSel {
                    table: *t,
                    pred: p.clone(),
                    exact,
                });
            }
        }
    }

    let mut projections: Vec<(TableId, TableProjection)> = Vec::new();
    let mut output = Vec::new();
    for (t, cname) in &q.projections {
        let def = schema.def(*t);
        let at = match projections.iter().position(|(tt, _)| tt == t) {
            Some(at) => at,
            None => {
                projections.push((*t, TableProjection::default()));
                projections.len() - 1
            }
        };
        let slot = &mut projections[at].1;
        if cname == "id" {
            slot.id = true;
        } else {
            let col = def.column(cname).ok_or_else(|| {
                ExecError::Query(format!("unknown column {}.{}", def.name, cname))
            })?;
            match col.visibility {
                Visibility::Visible => slot.vis.push(cname.clone()),
                Visibility::Hidden => slot.hid.push(cname.clone()),
            }
        }
        output.push((*t, cname.clone()));
    }

    Ok(Analyzed {
        tables,
        vis_preds,
        hid_sels,
        projections,
        output,
    })
}

/// Type-check and coerce a predicate's literals to the column type, so
/// exact evaluation and order-key ranges agree with the stored encoding
/// (e.g. `bodymassindex > 25` coerces the integer literal to a float).
/// A NaN literal is rejected: it has no place in the order every predicate
/// compares by, as a NaN cell fits no column. So is a `Between` without
/// its upper bound (the fields are public, so `Predicate::new`'s check can
/// be bypassed).
fn coerce(table: &str, col: &ghostdb_storage::Column, p: &Predicate) -> Result<Predicate> {
    if p.op == CmpOp::Between && p.value2.is_none() {
        return Err(ExecError::Query(format!(
            "BETWEEN on {table}.{} needs an upper bound",
            col.name
        )));
    }
    let fix = |v: &ghostdb_storage::Value| -> Result<ghostdb_storage::Value> {
        use ghostdb_storage::{ColumnType, Value};
        match (&col.ty, v) {
            (_, Value::Float(f)) if f.is_nan() => Err(ExecError::Query(format!(
                "NaN compares with no value of {table}.{}",
                col.name
            ))),
            (ColumnType::Int { .. }, Value::Int(_)) => Ok(v.clone()),
            (ColumnType::Float { .. }, Value::Float(_)) => Ok(v.clone()),
            (ColumnType::Float { .. }, Value::Int(i)) => Ok(Value::Float(*i as f64)),
            (ColumnType::Char { .. }, Value::Str(_)) => Ok(v.clone()),
            _ => Err(ExecError::Query(format!(
                "predicate value {v:?} does not match the type of {table}.{}",
                col.name
            ))),
        }
    };
    Ok(Predicate {
        column: p.column.clone(),
        op: p.op,
        value: fix(&p.value)?,
        value2: p.value2.as_ref().map(&fix).transpose()?,
    })
}

fn push_vis(acc: &mut Vec<(TableId, Vec<Predicate>)>, t: TableId, p: Predicate) {
    match acc.iter_mut().find(|(tt, _)| *tt == t) {
        Some((_, v)) => v.push(p),
        None => acc.push((t, vec![p])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_storage::schema::paper_synthetic_schema;
    use ghostdb_storage::{CmpOp, Value};

    #[test]
    fn analyze_classifies_predicates() {
        let s = paper_synthetic_schema(2, 2);
        let t1 = s.table_id("T1").unwrap();
        let t12 = s.table_id("T12").unwrap();
        let q = SpjQuery::new()
            .pred(
                t1,
                Predicate::new("v1", CmpOp::Lt, Value::Str("5".into()), None),
            )
            .pred(t12, Predicate::eq("h2", Value::Str("x".into())))
            .project(s.root(), "id")
            .project(t1, "v1");
        let a = analyze(&s, &q).unwrap();
        assert_eq!(a.tables[0], s.root());
        assert!(a.tables.contains(&t1) && a.tables.contains(&t12));
        assert_eq!(a.vis_preds_of(t1).len(), 1);
        assert_eq!(a.hid_sels.len(), 1);
        assert_eq!(a.hid_sels[0].table, t12);
        assert!(!a.hid_sels[0].exact, "char(10) keys are prefix-approximate");
        assert_eq!(a.output.len(), 2);
    }

    #[test]
    fn id_predicates_are_visible() {
        let s = paper_synthetic_schema(1, 1);
        let t1 = s.table_id("T1").unwrap();
        let q = SpjQuery::new().pred(t1, Predicate::new("id", CmpOp::Lt, Value::Int(5), None));
        let a = analyze(&s, &q).unwrap();
        assert_eq!(a.vis_preds_of(t1).len(), 1);
        assert!(a.hid_sels.is_empty());
    }

    #[test]
    fn unknown_column_rejected() {
        let s = paper_synthetic_schema(1, 1);
        let t1 = s.table_id("T1").unwrap();
        let q = SpjQuery::new().pred(t1, Predicate::eq("zzz", Value::Int(0)));
        assert!(analyze(&s, &q).is_err());
    }

    #[test]
    fn subtree_hidden_lookup() {
        let s = paper_synthetic_schema(1, 1);
        let t1 = s.table_id("T1").unwrap();
        let t12 = s.table_id("T12").unwrap();
        let t2 = s.table_id("T2").unwrap();
        let q = SpjQuery::new()
            .pred(t12, Predicate::eq("h1", Value::Str("a".into())))
            .pred(t2, Predicate::eq("h1", Value::Str("b".into())));
        let a = analyze(&s, &q).unwrap();
        // T12's predicate is in T1's subtree; T2's is not.
        assert_eq!(a.hidden_in_subtree(&s, t1).len(), 1);
        assert_eq!(a.hidden_in_subtree(&s, s.root()).len(), 2);
    }
}
