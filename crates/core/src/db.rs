//! The GhostDB facade: DDL with `HIDDEN` annotations, bulk loading, SQL
//! queries, explain, and the leak audit — the full §1 mode of operation.

use crate::audit::{audit_transcript, AuditReport};
use crate::error::CoreError;
use crate::sql::{self, SelectStmt, Statement};
use crate::Result;
use ghostdb_exec::database::{ColumnLoad, Database, TableLoad};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::query::analyze;
use ghostdb_exec::strategy::{VisDecision, VisStrategy};
use ghostdb_exec::{
    optimizer, ExecCtx, ExecError, ExecOptions, ExecReport, Executor, GhostDbServer, HostTrace,
    ResultSet, ServeConfig, SpjQuery,
};
use ghostdb_storage::schema::{Column, SchemaTree, TableDef, Visibility};
use ghostdb_storage::{ColumnType, Id, Value};
use ghostdb_token::TokenConfig;
use std::sync::{Arc, Mutex};

/// Configuration of a GhostDB instance.
#[derive(Debug, Clone)]
pub struct GhostDbConfig {
    /// The simulated smart USB key (§6.1 platform by default).
    pub token: TokenConfig,
    /// Capture channel payloads in the transcript (leak-audit demos).
    pub capture_channel: bool,
}

impl Default for GhostDbConfig {
    fn default() -> Self {
        GhostDbConfig {
            token: TokenConfig::paper_platform(64 * 1024 * 1024),
            capture_channel: false,
        }
    }
}

/// Per-query options: one builder,
/// `QueryOptions::new().strategy(s).padded(true)`, that wraps
/// [`ExecOptions`] directly — the same knob is spelled the same way at
/// every layer (facade → session → executor).
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    exec: ExecOptions,
    per_table: Vec<(String, VisStrategy)>,
}

impl QueryOptions {
    /// Start a builder chain (automatic execution until overridden).
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Force one filtering strategy for all visible selections.
    pub fn strategy(mut self, s: VisStrategy) -> Self {
        self.exec = self.exec.strategy(s);
        self
    }

    /// Pin the strategy of one table by name (Mixed plans).
    pub fn per_table(mut self, table: &str, s: VisStrategy) -> Self {
        self.per_table.push((table.to_string(), s));
        self
    }

    /// Projection algorithm override.
    pub fn project(mut self, algo: ProjectAlgo) -> Self {
        self.exec = self.exec.project(algo);
        self
    }

    /// Pad every visible shipment to a power-of-two row bucket (the volume
    /// side-channel countermeasure; see `SECURITY.md`). Results are
    /// unchanged; the padding bytes show up in the report's channel cost.
    pub fn padded(mut self, padded: bool) -> Self {
        self.exec = self.exec.padded(padded);
        self
    }
}

/// A GhostDB instance: schema staging, the loaded database, and the two
/// devices.
pub struct GhostDb {
    config: GhostDbConfig,
    defs: Vec<TableDef>,
    staged: Vec<(String, Vec<Vec<Value>>)>,
    db: Option<Database>,
}

impl GhostDb {
    /// New, empty instance.
    pub fn new(config: GhostDbConfig) -> Self {
        GhostDb {
            config,
            defs: Vec::new(),
            staged: Vec::new(),
            db: None,
        }
    }

    /// Wrap an externally assembled database (e.g. from `ghostdb-datagen`).
    pub fn from_database(db: Database) -> Self {
        GhostDb {
            config: GhostDbConfig::default(),
            defs: Vec::new(),
            staged: Vec::new(),
            db: Some(db),
        }
    }

    /// Execute a DDL statement (`CREATE TABLE … HIDDEN …`).
    pub fn execute(&mut self, sql_text: &str) -> Result<()> {
        match sql::parse(sql_text)? {
            Statement::CreateTable(ct) => {
                if self.db.is_some() {
                    return Err(CoreError::Semantic(
                        "schema is frozen once data is loaded onto the token".into(),
                    ));
                }
                let mut def = TableDef::new(&ct.name);
                for c in ct.columns {
                    match c.references {
                        Some(target) => {
                            if !c.hidden {
                                return Err(CoreError::Semantic(format!(
                                    "foreign key {}.{} must be HIDDEN (the design guideline \
                                     of §2.1: keys linking tuples are the sensitive part)",
                                    ct.name, c.name
                                )));
                            }
                            def = def.with_fk(&c.name, &target);
                        }
                        None => {
                            let col = if c.hidden {
                                Column::hidden(&c.name, c.ty)
                            } else {
                                Column::visible(&c.name, c.ty)
                            };
                            def = def.with_column(col);
                        }
                    }
                }
                self.defs.push(def);
                Ok(())
            }
            Statement::Select(_) => Err(CoreError::Semantic(
                "use query() for SELECT statements".into(),
            )),
        }
    }

    /// Stage rows for a table. Values follow the declared column order
    /// (excluding the implicit `id`); foreign-key cells are integers. A
    /// cell wider than its column (a string longer than `CHAR(n)`, an int
    /// outside its width's signed range) rejects the whole call.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        if self.db.is_some() {
            return Err(CoreError::Semantic(
                "data is frozen once loaded onto the token".into(),
            ));
        }
        let def = self
            .defs
            .iter()
            .find(|d| d.name == table)
            .ok_or_else(|| CoreError::Semantic(format!("unknown table {table}")))?;
        for (r, row) in rows.iter().enumerate() {
            if row.len() != def.columns.len() {
                return Err(CoreError::Semantic(format!(
                    "{} expects {} values per row, got {}",
                    table,
                    def.columns.len(),
                    row.len()
                )));
            }
            for (col, cell) in def.columns.iter().zip(row) {
                if !fits(&col.ty, cell) {
                    return Err(CoreError::Semantic(format!(
                        "{table}.{} of row {r}: {cell:?} does not fit {:?}",
                        col.name, col.ty
                    )));
                }
            }
        }
        match self.staged.iter_mut().find(|(n, _)| n == table) {
            Some((_, slot)) => slot.extend(rows),
            None => self.staged.push((table.to_string(), rows)),
        }
        Ok(())
    }

    /// Burn the key: vertically partition every table, download the hidden
    /// partition + indexes onto the token, hand the visible partition to
    /// the PC — and seal the instance, returning a read-only serving
    /// handle whose query methods take `&self` (see [`SealedGhostDb`]).
    /// Idempotent; dropping the handle leaves the instance finalized, so
    /// `finalize()` can be called again for a fresh handle.
    pub fn finalize(&mut self) -> Result<SealedGhostDb<'_>> {
        self.finalize_inner()?;
        Ok(SealedGhostDb {
            inner: Mutex::new(self),
        })
    }

    /// Finalize and hand the assembled database to an in-process
    /// [`GhostDbServer`] (admission queue and sessions — see
    /// `ghostdb_exec::serve`). Consumes the facade: the
    /// server owns the one immutable catalog from here on.
    pub fn into_server(mut self, cfg: ServeConfig) -> Result<GhostDbServer> {
        self.finalize_inner()?;
        let db = self.db.take().expect("finalized");
        GhostDbServer::new(db, cfg).map_err(|e| CoreError::Semantic(e.to_string()))
    }

    fn finalize_inner(&mut self) -> Result<()> {
        if self.db.is_some() {
            return Ok(());
        }
        let schema = SchemaTree::new(self.defs.clone())?;
        let mut loads = Vec::new();
        for def in &self.defs {
            let rows: Arc<Vec<Vec<Value>>> = Arc::new(
                self.staged
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|(_, r)| r.clone())
                    .unwrap_or_default(),
            );
            let n = rows.len() as u64;
            let mut fks = Vec::new();
            let mut columns = Vec::new();
            for (ci, col) in def.columns.iter().enumerate() {
                if def.is_fk(&col.name) {
                    let arr: Vec<Id> = rows
                        .iter()
                        .enumerate()
                        .map(|(r, cells)| match &cells[ci] {
                            Value::Int(v) => Id::try_from(*v)
                                .map_err(|_| self.dangling_fk(def, &col.name, r, *v)),
                            other => Err(CoreError::Semantic(format!(
                                "foreign key {}.{} must be an integer, got {other:?}",
                                def.name, col.name
                            ))),
                        })
                        .collect::<Result<_>>()?;
                    fks.push((col.name.clone(), arr));
                } else {
                    let rows = rows.clone();
                    let ci_copy = ci;
                    columns.push(ColumnLoad {
                        name: col.name.clone(),
                        gen: Box::new(move |r| rows[r as usize][ci_copy].clone()),
                        index: col.visibility == Visibility::Hidden,
                        exact: None, // verified by the loader
                    });
                }
            }
            loads.push(TableLoad {
                table: def.name.clone(),
                rows: n,
                fks,
                columns,
            });
        }
        let mut db = Database::assemble(schema, &self.config.token, loads)?;
        db.token.channel.set_capture(self.config.capture_channel);
        self.db = Some(db);
        Ok(())
    }

    /// The error for a foreign-key cell that no id can hold (negative or
    /// past `Id::MAX`); `Database::assemble` reports the ids past the
    /// referenced table's end.
    fn dangling_fk(&self, def: &TableDef, column: &str, row: usize, value: i64) -> CoreError {
        let references = def
            .foreign_keys
            .iter()
            .find(|f| f.column == column)
            .map(|f| f.references.clone())
            .unwrap_or_default();
        let rows = self
            .staged
            .iter()
            .find(|(n, _)| *n == references)
            .map_or(0, |(_, r)| r.len() as u64);
        ExecError::DanglingForeignKey {
            table: def.name.clone(),
            column: column.to_string(),
            row: row as u64,
            value,
            references,
            rows,
        }
        .into()
    }

    fn translate(&self, stmt: &SelectStmt) -> Result<SpjQuery> {
        let db = self.db.as_ref().expect("finalized");
        let schema = &db.schema;
        let mut q = SpjQuery::new();
        q.text = stmt.text.clone();
        for name in &stmt.tables {
            q = q.table(schema.table_id(name)?);
        }
        // Validate join conditions against the schema's fk edges.
        for ((lt, lc), (rt, rc)) in &stmt.joins {
            let valid = |ft: &str, fc: &str, pt: &str, pc: &str| -> Result<bool> {
                let f = schema.table_id(ft)?;
                let def = schema.def(f);
                Ok(pc == "id"
                    && def
                        .foreign_keys
                        .iter()
                        .any(|fk| fk.column == fc && fk.references == pt))
            };
            if !(valid(lt, lc, rt, rc)? || valid(rt, rc, lt, lc)?) {
                return Err(CoreError::Semantic(format!(
                    "join {lt}.{lc} = {rt}.{rc} does not follow a declared key/foreign-key edge"
                )));
            }
        }
        for (tname, pred) in &stmt.predicates {
            q = q.pred(schema.table_id(tname)?, pred.clone());
        }
        if stmt.star {
            for tname in &stmt.tables {
                let t = schema.table_id(tname)?;
                q = q.project(t, "id");
                for col in &schema.def(t).columns.clone() {
                    if !schema.def(t).is_fk(&col.name) {
                        q = q.project(t, &col.name);
                    }
                }
            }
        } else {
            for (tname, col) in &stmt.projections {
                q = q.project(schema.table_id(tname)?, col);
            }
        }
        Ok(q)
    }

    /// Resolve facade options into executor options: table names become
    /// pinned [`VisDecision`]s, everything else passes through the wrapped
    /// [`ExecOptions`] untouched.
    fn exec_options(&self, opts: &QueryOptions) -> Result<ExecOptions> {
        let db = self.db.as_ref().expect("finalized");
        let mut exec = opts.exec.clone();
        for (tname, s) in &opts.per_table {
            exec = exec.pin(VisDecision {
                table: db.schema.table_id(tname)?,
                strategy: *s,
            });
        }
        Ok(exec)
    }

    fn query_with_inner(
        &mut self,
        sql_text: &str,
        opts: &QueryOptions,
    ) -> Result<(ResultSet, ExecReport)> {
        self.finalize_inner()?;
        let Statement::Select(stmt) = sql::parse(sql_text)? else {
            return Err(CoreError::Semantic("expected a SELECT statement".into()));
        };
        let q = self.translate(&stmt)?;
        let exec_opts = self.exec_options(opts)?;
        let db = self.db.as_mut().expect("finalized");
        Ok(Executor::run(db, &q, &exec_opts)?)
    }

    fn explain_inner(&mut self, sql_text: &str) -> Result<String> {
        self.finalize_inner()?;
        let Statement::Select(stmt) = sql::parse(sql_text)? else {
            return Err(CoreError::Semantic("expected a SELECT statement".into()));
        };
        let q = self.translate(&stmt)?;
        let db = self.db.as_mut().expect("finalized");
        let a = analyze(&db.schema, &q)?;
        let ctx = ExecCtx::new(db);
        let decisions = optimizer::decide(&ctx, &a)?;
        let mut out = String::new();
        out.push_str(&format!("query: {}\n", q.text));
        for sel in &a.hid_sels {
            out.push_str(&format!(
                "  hidden selection on {}.{} → climbing index{}\n",
                ctx.cat.schema.def(sel.table).name,
                sel.pred.column,
                if sel.exact {
                    ""
                } else {
                    " (+ exact re-check at projection)"
                }
            ));
        }
        for d in &decisions {
            out.push_str(&format!(
                "  visible selection on {} → {}\n",
                ctx.cat.schema.def(d.table).name,
                d.strategy.name()
            ));
        }
        if a.hid_sels.is_empty() && decisions.is_empty() {
            out.push_str("  no selections: full root scan via SKT\n");
        }
        out.push_str("  projection: Figure 5 Project algorithm (Bloom-filtered σVH + MJoin)\n");
        Ok(out)
    }

    /// Audit the channel transcript of the last query (or of everything
    /// since the channel was last reset).
    pub fn audit(&self) -> Result<AuditReport> {
        let db = self
            .db
            .as_ref()
            .ok_or_else(|| CoreError::Semantic("no data loaded".into()))?;
        Ok(audit_transcript(db.token.channel.transcript()))
    }

    /// The host-observable trace of the last query: every store request
    /// the engine made of the untrusted PC, with shapes and post-padding
    /// wire volumes. The leakage suite asserts its invariants; see
    /// `SECURITY.md`.
    pub fn host_trace(&self) -> Result<HostTrace> {
        let db = self
            .db
            .as_ref()
            .ok_or_else(|| CoreError::Semantic("no data loaded".into()))?;
        Ok(db.untrusted.trace())
    }

    /// Access the assembled database (benchmarks, tests).
    pub fn database_mut(&mut self) -> Option<&mut Database> {
        self.db.as_mut()
    }

    /// Access the assembled database immutably.
    pub fn database(&self) -> Option<&Database> {
        self.db.as_ref()
    }
}

/// A sealed, read-only GhostDB handle, returned by [`GhostDb::finalize`].
///
/// Sealing is the facade-level contract that the catalog is immutable:
/// every serving method here takes `&self`, so one handle can be shared
/// across threads (`SealedGhostDb: Sync`) and queried without exclusive
/// access — the same split the in-process server builds on
/// ([`GhostDb::into_server`]). Internally the handle serializes on a
/// mutex because the simulated token is a single-core device; the
/// *interface* is read-only, the device is time-shared.
pub struct SealedGhostDb<'a> {
    inner: Mutex<&'a mut GhostDb>,
}

impl<'a> SealedGhostDb<'a> {
    fn lock(&self) -> std::sync::MutexGuard<'_, &'a mut GhostDb> {
        self.inner.lock().expect("sealed facade")
    }

    /// Run a SELECT with default (automatic) options.
    pub fn query(&self, sql_text: &str) -> Result<ResultSet> {
        Ok(self.query_with(sql_text, &QueryOptions::default())?.0)
    }

    /// Run a SELECT with explicit options; returns the execution report
    /// alongside the rows.
    pub fn query_with(
        &self,
        sql_text: &str,
        opts: &QueryOptions,
    ) -> Result<(ResultSet, ExecReport)> {
        self.lock().query_with_inner(sql_text, opts)
    }

    /// Describe the plan the optimizer would choose, without executing.
    pub fn explain(&self, sql_text: &str) -> Result<String> {
        self.lock().explain_inner(sql_text)
    }

    /// Audit the channel transcript of the last query.
    pub fn audit(&self) -> Result<AuditReport> {
        self.lock().audit()
    }

    /// The host-observable trace of the last query (see [`GhostDb::host_trace`]).
    pub fn host_trace(&self) -> Result<HostTrace> {
        self.lock().host_trace()
    }
}

// One sealed handle must be shareable across client threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SealedGhostDb<'_>>();
};

/// Whether `cell` is stored in `ty` without being cut: `Value::encode`
/// truncates a string to `CHAR(n)` and an int to its byte width, while the
/// climbing index keys the uncut value, so a cut cell would project one
/// value and match another. A NaN float has no place in the order every
/// predicate compares by, so it fits no column. Type mismatches are left
/// to the loader.
fn fits(ty: &ColumnType, cell: &Value) -> bool {
    match (ty, cell) {
        (ColumnType::Char { width }, Value::Str(s)) => s.len() <= usize::from(*width),
        (ColumnType::Int { width }, Value::Int(v)) => {
            // Survives keeping the low `width` bytes and sign-extending
            // them, as `Value::decode` reads them back.
            let unused = 64 - 8 * u32::from(*width);
            (*v << unused) >> unused == *v
        }
        (_, Value::Float(v)) => !v.is_nan(),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patients_db() -> GhostDb {
        let mut db = GhostDb::new(GhostDbConfig {
            capture_channel: true,
            ..Default::default()
        });
        db.execute("CREATE TABLE Doctors (id INT, specialty CHAR(20), name CHAR(20) HIDDEN)")
            .unwrap();
        db.execute(
            "CREATE TABLE Patients (id INT, doctor_id INT HIDDEN REFERENCES Doctors, \
             age INT(2), name CHAR(20) HIDDEN, bodymassindex FLOAT HIDDEN)",
        )
        .unwrap();
        db.insert_rows(
            "Doctors",
            vec![
                vec![
                    Value::Str("Psychiatrist".into()),
                    Value::Str("Freud".into()),
                ],
                vec![
                    Value::Str("Cardiologist".into()),
                    Value::Str("Harvey".into()),
                ],
            ],
        )
        .unwrap();
        db.insert_rows(
            "Patients",
            (0..20)
                .map(|i| {
                    vec![
                        Value::Int(i % 2),
                        Value::Int(30 + i % 40),
                        Value::Str(format!("patient{i:02}")),
                        Value::Float(20.0 + (i % 15) as f64),
                    ]
                })
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn ddl_load_query_roundtrip() {
        let mut db = patients_db();
        let sealed = db.finalize().unwrap();
        let rs = sealed
            .query(
                "SELECT Patients.id, Patients.name, Doctors.specialty FROM Patients, Doctors \
                 WHERE Patients.doctor_id = Doctors.id AND Patients.bodymassindex > 25 \
                 AND Doctors.specialty = 'Psychiatrist'",
            )
            .unwrap();
        // Patients with doctor 0 (even ids) and bmi > 25 (i % 15 > 5).
        let expect: Vec<i64> = (0..20).filter(|i| i % 2 == 0 && (i % 15) > 5).collect();
        assert_eq!(rs.rows.len(), expect.len());
        for (row, want_id) in rs.rows.iter().zip(expect) {
            assert_eq!(row[0], Value::Int(want_id));
            assert_eq!(row[2], Value::Str("Psychiatrist".into()));
        }
        assert!(sealed.audit().unwrap().ok);
    }

    #[test]
    fn star_projection() {
        let mut db = patients_db();
        let sealed = db.finalize().unwrap();
        let rs = sealed
            .query("SELECT * FROM Doctors WHERE Doctors.specialty = 'Cardiologist'")
            .unwrap();
        assert_eq!(rs.rows.len(), 10, "one row per root (Patients) tuple");
        assert!(rs.columns.contains(&"Doctors.name".to_string()));
    }

    #[test]
    fn invalid_join_rejected() {
        let mut db = patients_db();
        let err = db
            .finalize()
            .unwrap()
            .query("SELECT Patients.id FROM Patients, Doctors WHERE Patients.age = Doctors.id")
            .unwrap_err();
        assert!(matches!(err, CoreError::Semantic(_)));
    }

    #[test]
    fn visible_fk_rejected() {
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE A (id INT, x CHAR(4))").unwrap();
        let err = db
            .execute("CREATE TABLE B (id INT, a_id INT REFERENCES A)")
            .unwrap_err();
        assert!(matches!(err, CoreError::Semantic(_)));
    }

    #[test]
    fn explain_names_strategies() {
        let mut db = patients_db();
        let plan = db
            .finalize()
            .unwrap()
            .explain(
                "SELECT Patients.id FROM Patients, Doctors \
                 WHERE Doctors.specialty = 'Psychiatrist' AND Patients.bodymassindex > 30",
            )
            .unwrap();
        assert!(plan.contains("hidden selection on Patients.bodymassindex"));
        assert!(plan.contains("visible selection on Doctors"));
    }

    #[test]
    fn nan_float_cell_does_not_fit() {
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE W (id INT, weight FLOAT)").unwrap();
        let err = db
            .insert_rows(
                "W",
                vec![vec![Value::Float(1.5)], vec![Value::Float(f64::NAN)]],
            )
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::Semantic(m) if m.contains("does not fit")),
            "{err}"
        );
        // The rejected batch stages nothing; a clean one loads and a
        // visible predicate on the column compares every cell.
        db.insert_rows("W", vec![vec![Value::Float(1.5)], vec![Value::Float(0.5)]])
            .unwrap();
        let rs = db
            .finalize()
            .unwrap()
            .query("SELECT W.id FROM W WHERE W.weight > 1.0")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0)]]);
    }

    /// A NaN literal compares with nothing, so it is a typed error on a
    /// visible and on a hidden column alike, and so is a `Between` built
    /// without its upper bound; the database stays usable after each.
    #[test]
    fn nan_and_unbounded_literals_are_query_errors() {
        use ghostdb_storage::{CmpOp, Predicate};
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE M (id INT, f FLOAT, hf FLOAT HIDDEN)")
            .unwrap();
        db.insert_rows(
            "M",
            (0..50)
                .map(|i| vec![Value::Float(i as f64), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        db.finalize().unwrap();
        let db = db.database_mut().unwrap();
        let m = db.schema.root();
        let nan = |col| Predicate::new(col, CmpOp::Lt, Value::Float(f64::NAN), None);
        let mut open = Predicate::new("hf", CmpOp::Gt, Value::Float(1.0), None);
        open.op = CmpOp::Between;
        for (label, pred) in [("f", nan("f")), ("hf", nan("hf")), ("open", open)] {
            let q = SpjQuery::new().pred(m, pred).project(m, "id");
            let err = Executor::run(db, &q, &ExecOptions::new()).unwrap_err();
            assert!(matches!(err, ExecError::Query(_)), "{label}: {err}");
        }
        let q = SpjQuery::new()
            .pred(m, Predicate::new("hf", CmpOp::Lt, Value::Float(3.0), None))
            .project(m, "id");
        let (rs, _) = Executor::run(db, &q, &ExecOptions::new()).unwrap();
        assert_eq!(rs.rows.len(), 3, "the database stays usable");
    }

    #[test]
    fn schema_freezes_after_load() {
        let mut db = patients_db();
        db.finalize().unwrap();
        assert!(db.execute("CREATE TABLE X (id INT, a INT)").is_err());
        assert!(db.insert_rows("Doctors", vec![]).is_err());
    }

    #[test]
    fn non_injective_hidden_keys_get_rechecked() {
        // Doctor names are long strings with a shared prefix: order keys
        // collide, forcing the exact re-check path — results must still be
        // exact.
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE D (id INT, name CHAR(30) HIDDEN)")
            .unwrap();
        db.execute("CREATE TABLE M (id INT, d_id INT HIDDEN REFERENCES D, v CHAR(8))")
            .unwrap();
        db.insert_rows(
            "D",
            (0..10)
                .map(|i| vec![Value::Str(format!("Doctor Longname {i}"))])
                .collect(),
        )
        .unwrap();
        db.insert_rows(
            "M",
            (0..50)
                .map(|i| vec![Value::Int(i % 10), Value::Str(format!("{i:04}"))])
                .collect(),
        )
        .unwrap();
        let rs = db
            .finalize()
            .unwrap()
            .query("SELECT M.id FROM M, D WHERE M.d_id = D.id AND D.name = 'Doctor Longname 3'")
            .unwrap();
        let expect: Vec<i64> = (0..50).filter(|i| i % 10 == 3).collect();
        assert_eq!(
            rs.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            expect.into_iter().map(Value::Int).collect::<Vec<_>>()
        );
    }

    #[test]
    fn builder_chain_threads_through_to_execution() {
        let mut db = patients_db();
        let sealed = db.finalize().unwrap();
        let sql = "SELECT Patients.id FROM Patients, Doctors \
                   WHERE Patients.doctor_id = Doctors.id \
                   AND Doctors.specialty = 'Psychiatrist'";
        let (base, _) = sealed.query_with(sql, &QueryOptions::new()).unwrap();
        for s in [VisStrategy::Pre, VisStrategy::Post] {
            let opts = QueryOptions::new().strategy(s).padded(true);
            let (rs, report) = sealed.query_with(sql, &opts).unwrap();
            assert_eq!(rs, base, "knobs never change results");
            assert!(report.result_rows > 0);
        }
        let pinned = QueryOptions::new().per_table("Doctors", VisStrategy::Post);
        let (rs, _) = sealed.query_with(sql, &pinned).unwrap();
        assert_eq!(rs, base);
    }

    #[test]
    fn into_server_serves_sessions() {
        use ghostdb_exec::{ExecOptions, SpjQuery};
        let db = patients_db();
        let server = db.into_server(ServeConfig::new().queue_depth(4)).unwrap();
        let session = server.session();
        // The facade's SQL layer is consumed by into_server; speak the
        // executor's query algebra directly, as `ghostdb-datagen` users do.
        let mut q = SpjQuery::new().project(0, "id");
        q.text = "serve-smoke".into();
        let out = session.query(&q, &ExecOptions::auto()).unwrap();
        assert_eq!(out.result.rows.len(), 20, "one row per root tuple");
        assert!(!out.transcript.is_empty());
    }

    /// A one-row `P` and a one-row `V` whose `V.pid` cell is `pid`.
    fn one_parent_db(pid: i64) -> GhostDb {
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE P (id INT, x INT HIDDEN)").unwrap();
        db.execute("CREATE TABLE V (id INT, pid INT HIDDEN REFERENCES P)")
            .unwrap();
        db.insert_rows("P", vec![vec![Value::Int(10)]]).unwrap();
        db.insert_rows("V", vec![vec![Value::Int(pid)]]).unwrap();
        db
    }

    #[test]
    fn dangling_foreign_keys_are_typed_errors() {
        let dangling = |row, value| ExecError::DanglingForeignKey {
            table: "V".into(),
            column: "pid".into(),
            row,
            value,
            references: "P".into(),
            rows: 1,
        };
        for pid in [7, -1] {
            let err = one_parent_db(pid).finalize().err().expect("dangling fk");
            assert_eq!(err, CoreError::Exec(dangling(0, pid)), "{err}");
        }
        // Loads that bypass the facade (`ghostdb-datagen`) hit the same check.
        let schema = SchemaTree::new(vec![
            TableDef::new("V").with_fk("pid", "P"),
            TableDef::new("P"),
        ])
        .unwrap();
        let load = |table: &str, rows, fks| TableLoad {
            table: table.into(),
            rows,
            fks,
            columns: Vec::new(),
        };
        let loads = vec![
            load("V", 2, vec![("pid".to_string(), vec![0, 7])]),
            load("P", 1, Vec::new()),
        ];
        let err = Database::assemble(schema, &GhostDbConfig::default().token, loads).unwrap_err();
        assert_eq!(err, dangling(1, 7), "{err}");
        // A corrected load on a fresh instance goes through.
        let mut db = one_parent_db(0);
        let rs = db
            .finalize()
            .unwrap()
            .query("SELECT V.id, P.x FROM V, P WHERE V.pid = P.id")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Int(10)]]);
    }

    #[test]
    fn cells_wider_than_their_column_are_rejected() {
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE W (id INT, h INT HIDDEN, v INT, a INT(2), s CHAR(4) HIDDEN)")
            .unwrap();
        let row = |h: i64, v: i64, a: i64, s: &str| {
            vec![
                Value::Int(h),
                Value::Int(v),
                Value::Int(a),
                Value::Str(s.into()),
            ]
        };
        // The widths' edges fit.
        let edges = vec![
            row(i32::MAX.into(), i32::MIN.into(), 32767, "abcd"),
            row(1, 1, -32768, ""),
        ];
        db.insert_rows("W", edges).unwrap();
        for (bad, column) in [
            (row(5_000_000_000, 2, 2, "ab"), "h"),
            (row(2, 5_000_000_000, 2, "ab"), "v"),
            (row(2, 2, 32768, "ab"), "a"),
            (row(2, 2, 2, "abcdefghij"), "s"),
        ] {
            let err = db
                .insert_rows("W", vec![row(2, 2, 2, "ab"), bad])
                .unwrap_err();
            let CoreError::Semantic(msg) = &err else {
                panic!("{err}")
            };
            assert!(msg.contains(&format!("W.{column} of row 1")), "{msg}");
        }
        // Nothing from the rejected calls was staged, and the hidden and
        // visible sides agree on what was.
        let sealed = db.finalize().unwrap();
        let ids = |sql: &str| -> Vec<Vec<Value>> { sealed.query(sql).unwrap().rows };
        assert_eq!(ids("SELECT W.id FROM W").len(), 2);
        for sql in [
            "SELECT W.id FROM W WHERE W.h = 2147483647",
            "SELECT W.id FROM W WHERE W.v = -2147483648",
            "SELECT W.id FROM W WHERE W.a = 32767",
            "SELECT W.id FROM W WHERE W.s = 'abcd'",
        ] {
            assert_eq!(ids(sql), vec![vec![Value::Int(0)]], "{sql}");
        }
    }

    #[test]
    fn float4_hidden_and_visible_columns_agree() {
        // 0.1 is not an f32: both columns store 0.10000000149011612, so a
        // comparison against the literal 0.1 must see that value on both
        // sides, not the f64 the row was loaded with.
        let mut db = GhostDb::new(GhostDbConfig::default());
        db.execute("CREATE TABLE F (id INT, v FLOAT, h FLOAT HIDDEN)")
            .unwrap();
        db.insert_rows("F", vec![vec![Value::Float(0.1), Value::Float(0.1)]])
            .unwrap();
        let sealed = db.finalize().unwrap();
        let rows = |sql: &str| sealed.query(sql).unwrap().rows.len();
        let stored = f64::from(0.1f32);
        assert_eq!(
            sealed.query("SELECT F.v, F.h FROM F").unwrap().rows,
            vec![vec![Value::Float(stored), Value::Float(stored)]]
        );
        for (op, want) in [("=", 0), ("<=", 0), (">", 1)] {
            let v = rows(&format!("SELECT F.id FROM F WHERE F.v {op} 0.1"));
            let h = rows(&format!("SELECT F.id FROM F WHERE F.h {op} 0.1"));
            assert_eq!((v, h), (want, want), "F.v/F.h {op} 0.1");
        }
    }
}
