//! SQL text → executor and reference queries, and the set-up check every
//! distinct query passes before it is timed: the optimizer's plan and
//! every applicable per-table strategy combination must return the
//! oracle's rows. The same runs give the regret baseline.

use ghostdb_core::sql::{self, SelectStmt, Statement};
use ghostdb_core::{QueryOptions, SealedGhostDb};
use ghostdb_exec::query::analyze;
use ghostdb_exec::{SpjQuery, VisStrategy};
use ghostdb_reference::{RefDb, RefQuery};
use ghostdb_storage::{SchemaTree, Value};

/// A query result: rows of decoded values, in root-id order.
pub type Rows = Vec<Vec<Value>>;

/// A query that passed the set-up checks.
pub struct Prepared {
    pub sql: String,
    /// The facade's own translation of `sql` (serve sessions and the
    /// traced pass execute this directly).
    pub spj: SpjQuery,
    /// Rows every execution must return.
    pub expected: Rows,
    /// Simulated time of the cheapest applicable per-table strategy
    /// combination: the regret denominator.
    pub best_ns: u128,
    /// Simulated time of the optimizer's own plan at set-up.
    pub chosen_ns: u128,
}

pub fn parse_select(sql_text: &str) -> Result<SelectStmt, String> {
    match sql::parse(sql_text).map_err(|e| format!("{sql_text}: {e}"))? {
        Statement::Select(stmt) => Ok(stmt),
        Statement::CreateTable(_) => Err(format!("{sql_text}: not a SELECT")),
    }
}

/// Translate exactly as `GhostDb` does — same text, table order, predicate
/// and projection order — so a direct `Executor::run` or a serve session
/// runs the very plan `SealedGhostDb::query_with` runs.
pub fn to_spj(schema: &SchemaTree, stmt: &SelectStmt) -> Result<SpjQuery, String> {
    let id = |name: &str| schema.table_id(name).map_err(|e| e.to_string());
    let mut q = SpjQuery::new();
    q.text = stmt.text.clone();
    for name in &stmt.tables {
        q = q.table(id(name)?);
    }
    for (name, pred) in &stmt.predicates {
        q = q.pred(id(name)?, pred.clone());
    }
    for (name, col) in &stmt.projections {
        q = q.project(id(name)?, col);
    }
    Ok(q)
}

/// Each query's rows from the reference engine, which scans every root
/// row; two threads share the pool, so set-up stays short.
pub fn reference_rows(
    refdb: &RefDb,
    schema: &SchemaTree,
    texts: Vec<String>,
) -> Result<Vec<(String, Rows)>, String> {
    let rows_of = |sql: &String| -> Result<Rows, String> {
        let q = to_spj(schema, &parse_select(sql)?)?;
        let reference = RefQuery {
            predicates: q.predicates,
            projections: q.projections,
        };
        refdb.run(&reference).map_err(|e| format!("{sql}: {e}"))
    };
    let (a, b) = texts.split_at(texts.len() / 2);
    let (rows_a, rows_b) = std::thread::scope(|s| {
        let first = s.spawn(|| a.iter().map(rows_of).collect::<Result<Vec<_>, _>>());
        let second = b.iter().map(rows_of).collect::<Result<Vec<_>, _>>();
        (first.join().expect("oracle thread panicked"), second)
    });
    let rows: Vec<_> = rows_a?.into_iter().chain(rows_b?).collect();
    Ok(texts.into_iter().zip(rows).collect())
}

const ROOT: [VisStrategy; 3] = [VisStrategy::Pre, VisStrategy::Post, VisStrategy::NoFilter];
const PLAIN: [VisStrategy; 4] = [
    VisStrategy::Pre,
    VisStrategy::Post,
    VisStrategy::PostSelect,
    VisStrategy::NoFilter,
];
const WITH_CROSS: [VisStrategy; 7] = [
    VisStrategy::Pre,
    VisStrategy::CrossPre,
    VisStrategy::Post,
    VisStrategy::CrossPost,
    VisStrategy::PostSelect,
    VisStrategy::CrossPostSelect,
    VisStrategy::NoFilter,
];

/// Every applicable per-table strategy assignment for the query's visible
/// selections (one empty assignment when it has none). Cross strategies
/// apply where a hidden selection sits in the table's subtree. The root
/// table gets Pre, Post and NoFilter only: Post-Select on a root selection
/// panics inside the executor (`strategy.rs`, `targets[col - 1]` with
/// `col = 0`) and poisons the sealed handle's mutex.
pub fn combinations(
    schema: &SchemaTree,
    q: &SpjQuery,
) -> Result<Vec<Vec<(String, VisStrategy)>>, String> {
    let a = analyze(schema, q).map_err(|e| e.to_string())?;
    let mut combos: Vec<Vec<(String, VisStrategy)>> = vec![Vec::new()];
    for (t, _) in &a.vis_preds {
        let name = &schema.def(*t).name;
        let options: &[VisStrategy] = if *t == schema.root() {
            &ROOT
        } else if a.hidden_in_subtree(schema, *t).is_empty() {
            &PLAIN
        } else {
            &WITH_CROSS
        };
        combos = combos
            .iter()
            .flat_map(|c| {
                options.iter().map(move |s| {
                    let mut c = c.clone();
                    c.push((name.clone(), *s));
                    c
                })
            })
            .collect();
    }
    Ok(combos)
}

/// Run `sql` under the optimizer's plan and under every applicable
/// per-table strategy combination; each must return exactly `expected`,
/// the oracle's rows. A forced plan the executor refuses with a typed
/// error (e.g. RAM exhausted) is logged and left out of the regret
/// baseline; the optimizer's own plan must succeed.
pub fn prepare(
    sealed: &SealedGhostDb<'_>,
    schema: &SchemaTree,
    sql_text: String,
    expected: Rows,
) -> Result<Prepared, String> {
    let spj = to_spj(schema, &parse_select(&sql_text)?)?;
    // Ok(None): the executor refused the plan with a typed error.
    let run = |opts: &QueryOptions, label: &str| -> Result<Option<u128>, String> {
        let (rs, rep) = match sealed.query_with(&sql_text, opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("ghostbench: plan refused, {sql_text} [{label}]: {e}");
                return Ok(None);
            }
        };
        if rs.rows != expected {
            return Err(format!(
                "{sql_text} [{label}]: {} rows, the oracle has {}",
                rs.rows.len(),
                expected.len()
            ));
        }
        Ok(Some(rep.total().as_ns()))
    };
    let chosen_ns = run(&QueryOptions::new(), "optimizer")?
        .ok_or_else(|| format!("{sql_text}: the optimizer's plan failed"))?;
    let (mut best_ns, mut best_plan) = (chosen_ns, String::from("optimizer"));
    for combo in combinations(schema, &spj)? {
        let opts = combo
            .iter()
            .fold(QueryOptions::new(), |o, (t, s)| o.per_table(t, *s));
        let label: Vec<String> = combo
            .iter()
            .map(|(t, s)| format!("{t}:{}", s.name()))
            .collect();
        let label = label.join(",");
        if let Some(ns) = run(&opts, &label)? {
            if ns < best_ns {
                (best_ns, best_plan) = (ns, label);
            }
        }
    }
    let regret = chosen_ns as f64 / best_ns.max(1) as f64;
    if regret > 1.05 {
        eprintln!("ghostbench: regret {regret:.3}, {sql_text} [cheapest: {best_plan}]");
    }
    Ok(Prepared {
        sql: sql_text,
        spj,
        expected,
        best_ns,
        chosen_ns,
    })
}
