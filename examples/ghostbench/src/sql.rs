//! `sql-mix` and `sql-hidden`: closed-loop SQL over the synthetic dataset,
//! one client thread, SQL text in and rows out through
//! `SealedGhostDb::query_with` with the optimizer choosing every plan.

use crate::oracle::{self, parse_select, to_spj, Prepared};
use crate::stats::{ms, Cycle, Rng};
use crate::trace::{Layers, ReportAcc, Tracer};
use crate::{timed_setups, traced_result, Args, Footprint, Pass, RunResult};
use ghostdb_core::{GhostDb, QueryOptions, SealedGhostDb};
use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::ci_ops::select_sublists;
use ghostdb_exec::query::analyze;
use ghostdb_exec::{optimizer, Database, ExecCtx, ExecOptions, Executor, PadMode, SpjQuery};
use std::time::{Duration, Instant};

/// Which of the two SQL workloads.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// ×0.02, six mixed visible/hidden templates.
    Mix,
    /// ×0.05, hidden-only predicates on indexed columns.
    Hidden,
}

/// Literal draws per template: the pool is 6 templates × `STRATA`.
const STRATA: usize = 8;

pub fn run(kind: Kind, args: &Args) -> Result<RunResult, String> {
    let mut spec = match kind {
        Kind::Mix => SyntheticSpec::paper(0.02),
        Kind::Hidden => SyntheticSpec::paper(0.05),
    };
    if kind == Kind::Mix {
        spec.visible_attrs = 3;
    }
    let Loaded {
        mut ghost,
        pool,
        setup_s,
        footprint,
    } = load_synthetic(spec, |ds| match kind {
        Kind::Mix => mix_pool(ds, args.seed),
        Kind::Hidden => hidden_pool(ds, args.seed),
    })?;
    let sealed = ghost.finalize().map_err(|e| e.to_string())?;
    if !args.trace {
        let pass = untraced(&sealed, &pool, args.seed, args.seconds);
        return Ok(pass.end_to_end(setup_s, footprint.flash_per_user_byte));
    }
    let half = args.seconds / 2;
    let base = untraced(&sealed, &pool, args.seed, half);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let db = ghost.database_mut().ok_or("database not loaded")?;
    let pass = traced(db, &pool, args.seed, half, &mut tracer, &mut layers);
    Ok(traced_result(
        &base, &pass, &pool, &footprint, layers, tracer,
    ))
}

/// A synthetic dataset burned onto a token behind the facade, with its
/// query pool checked.
pub(crate) struct Loaded {
    pub ghost: GhostDb,
    pub pool: Vec<Prepared>,
    pub setup_s: f64,
    pub footprint: Footprint,
}

/// Generate and burn `spec`'s dataset (timed, several times), then check
/// the queries `texts` draws for it against the reference engine and under
/// every applicable plan (untimed).
pub(crate) fn load_synthetic(
    spec: SyntheticSpec,
    texts: impl FnOnce(&SyntheticDataset) -> Vec<String>,
) -> Result<Loaded, String> {
    let ((ds, db), setup_s) = timed_setups(|| {
        let ds = SyntheticDataset::generate(spec.clone());
        let db = ds.build().map_err(|e| e.to_string())?;
        Ok((ds, db))
    })?;
    let footprint = Footprint::of(&db);
    let mut ghost = GhostDb::from_database(db);
    let checked = Instant::now();
    let rows = oracle::reference_rows(&ds.ref_db(), &ds.schema, texts(&ds))?;
    let pool = {
        let sealed = ghost.finalize().map_err(|e| e.to_string())?;
        rows.into_iter()
            .map(|(sql, rows)| oracle::prepare(&sealed, &ds.schema, sql, rows))
            .collect::<Result<Vec<_>, _>>()?
    };
    eprintln!(
        "ghostbench: {} distinct queries verified against the oracle in {:.1} s",
        pool.len(),
        checked.elapsed().as_secs_f64()
    );
    drop(ds);
    crate::stats::reset_peak_rss();
    Ok(Loaded {
        ghost,
        pool,
        setup_s,
        footprint,
    })
}

/// A pass stops at the first whole cycle over the pool after `secs`, so
/// every query counts equally and the simulated metrics do not depend on
/// how fast the host ran.
fn done(n: usize, pool: usize, start: Instant, secs: Duration) -> bool {
    n.is_multiple_of(pool) && start.elapsed() >= secs
}

/// The end-to-end pass: the query stream through the sealed facade, each
/// latency sample from SQL text in to rows out.
fn untraced(sealed: &SealedGhostDb<'_>, pool: &[Prepared], seed: u64, secs: Duration) -> Pass {
    let mut pass = Pass::new(pool.len());
    let start = Instant::now();
    for (n, i) in Cycle::new(seed, pool.len()).enumerate() {
        if done(n, pool.len(), start, secs) {
            break;
        }
        let p = &pool[i];
        let t = Instant::now();
        let out = sealed.query_with(&p.sql, &QueryOptions::new());
        let wall = t.elapsed();
        match out {
            Ok((rs, rep)) if rs.rows == p.expected => {
                pass.ok(n as u64, ms(wall), rep.total().as_ns(), p.best_ns)
            }
            Ok(_) => pass.fail(&format!("{}: wrong result", p.sql)),
            Err(e) => pass.fail(&format!("{}: {e}", p.sql)),
        }
    }
    pass
}

/// The traced pass over the same stream: the facade's steps called one by
/// one (parse, translate, execute) inside a `query` span, then per-layer
/// probes replayed outside it (optimizer decision, visible shipments,
/// climbing-index lookups).
fn traced(
    db: &mut Database,
    pool: &[Prepared],
    seed: u64,
    secs: Duration,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Pass {
    let mut pass = Pass::new(pool.len());
    let mut acc = ReportAcc::default();
    let (timing, page_size) = (*db.token.flash.timing(), db.token.flash.page_size());
    let (mut lookups, mut lookup_pages) = (0u64, 0u64);
    let start = Instant::now();
    for (n, i) in Cycle::new(seed, pool.len()).enumerate() {
        if done(n, pool.len(), start, secs) {
            break;
        }
        let p = &pool[i];
        let op = n as u64;
        let root = tracer.open("query", op);
        let stmt = tracer.time("core.parse", root, || parse_select(&p.sql));
        let q = tracer.time("bench.translate", root, || {
            stmt.and_then(|s| to_spj(&db.schema, &s))
        });
        let out = tracer.time("exec.run", root, || {
            q.and_then(|q| Executor::run(db, &q, &ExecOptions::new()).map_err(|e| e.to_string()))
        });
        tracer.close(root);
        let wall_ms = tracer.spans[root].dur_ns() as f64 / 1e6;
        let checked = out.and_then(|(rs, rep)| {
            if rs.rows != p.expected {
                return Err("wrong result".to_string());
            }
            acc.add(&rep, &timing, page_size)?;
            acc.add_host(&db.untrusted.trace());
            Ok(rep)
        });
        match checked {
            Ok(rep) => pass.ok(op, wall_ms, rep.total().as_ns(), p.best_ns),
            Err(e) => pass.fail(&format!("{}: {e}", p.sql)),
        }
        match probe_layers(db, &p.spj, op, tracer) {
            Ok((l, pages)) => {
                lookups += l;
                lookup_pages += pages;
            }
            Err(e) => pass.fail(&format!("{}: layer probe: {e}", p.sql)),
        }
    }
    let queries = tracer.count("query").max(1) as f64;
    layers.set("core.parse_us", tracer.mean_us("core.parse"));
    layers.set("exec.run_ms", tracer.mean_us("exec.run") / 1e3);
    layers.set(
        "exec.optimizer.decide_us",
        tracer.mean_us("exec.optimizer.decide"),
    );
    layers.set(
        "untrusted.vis_us",
        tracer.total_us("untrusted.vis") / queries,
    );
    layers.set("index.ci_lookup_us", tracer.mean_us("index.ci_lookup"));
    layers.set(
        "index.ci_pages_per_lookup",
        lookup_pages as f64 / lookups.max(1) as f64,
    );
    layers.set("trace.unattributed_pct", tracer.unattributed_pct("query"));
    acc.emit(layers);
    pass
}

/// Replay one query's layer calls outside its `query` span: the
/// optimizer's decision (analysis + `UntrustedHost::count`), each visible
/// shipment on a fresh channel, and one climbing-index range lookup per
/// hidden predicate. Returns (lookups, pages read by them).
fn probe_layers(
    db: &mut Database,
    q: &SpjQuery,
    op: u64,
    tracer: &mut Tracer,
) -> Result<(u64, u64), String> {
    let t = Instant::now();
    let a = analyze(&db.schema, q).map_err(|e| e.to_string())?;
    optimizer::decide(&ExecCtx::new(db), &a).map_err(|e| e.to_string())?;
    tracer.record("exec.optimizer.decide", t, Instant::now(), None, Some(op));

    for (t, preds) in &a.vis_preds {
        let mut channel = db.token.channel.fresh_like();
        let name = db.table_name(*t).to_string();
        let s = Instant::now();
        db.untrusted
            .vis_with(&mut channel, *t, &name, preds, &[], PadMode::Exact)
            .map_err(|e| e.to_string())?;
        tracer.record("untrusted.vis", s, Instant::now(), None, Some(op));
    }

    let root = db.schema.root();
    let (mut lookups, mut pages) = (0, 0);
    for sel in &a.hid_sels {
        let mut ctx = ExecCtx::new(db);
        let Ok(ci) = ctx.attr_index(sel.table, &sel.pred.column) else {
            continue;
        };
        let before = ctx.lane.io();
        let s = Instant::now();
        select_sublists(&mut ctx, ci, &sel.pred, root).map_err(|e| e.to_string())?;
        tracer.record("index.ci_lookup", s, Instant::now(), None, Some(op));
        lookups += 1;
        pages += (ctx.lane.io() - before).total_pages_read();
    }
    Ok((lookups, pages))
}

/// A literal selecting `share` of `table`'s rows on a permutation-valued
/// column (`col < literal` keeps exactly that many).
pub(crate) fn lit(ds: &SyntheticDataset, table: &str, share: f64) -> String {
    format!("'{:08}'", (share * ds.rows(table) as f64).round() as u64)
}

/// Selectivity slots: `[lo, hi]` is cut into this many equal slices in log
/// space, and template `t` of 6 takes slice `6k + t` for its `k`-th draw,
/// so each template spans the whole range and the templates interleave.
pub(crate) const SLOTS: usize = 6 * STRATA;

/// A seeded draw from slice `slot` of [`SLOTS`]: the slice's middle, moved
/// by up to a quarter of the slice either way. Every seed covers the range
/// evenly, so the simulated-time distribution — and with it the simulated
/// metrics — barely moves from seed to seed, while the literals still do.
pub(crate) fn stratum(rng: &mut Rng, slot: usize, lo: f64, hi: f64) -> f64 {
    let u = (slot as f64 + 0.5 + 0.5 * (rng.unit() - 0.5)) / SLOTS as f64;
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

/// `sql-mix`: Q (§6.4: visible `T1.v1`, hidden `T12.h2` at sH = 0.1), Q
/// with a hidden projection, the high-cardinality hidden variant on
/// `T1.h1`, a root-table visible selection, two visible tables, and a
/// visible-only selection — sV log-uniform over 0.001–0.3.
fn mix_pool(ds: &SyntheticDataset, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let sh = lit(ds, "T12", 0.1);
    let mut out = Vec::new();
    for k in 0..STRATA {
        let mut sv = |table: &str, slot: usize| lit(ds, table, stratum(&mut rng, slot, 0.001, 0.3));
        let (v1, v1h, vhc, v0, v1b, vonly) = (
            sv("T1", 6 * k),
            sv("T1", 6 * k + 1),
            sv("T1", 6 * k + 2),
            sv("T0", 6 * k + 3),
            sv("T1", 6 * k + 4),
            sv("T1", 6 * k + 5),
        );
        // T2's selectivity runs opposite to T1's across the two-table draws.
        let v2 = sv("T2", 6 * (STRATA - 1 - k) + 4);
        let q = "FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id";
        out.push(format!(
            "SELECT T0.id, T1.id, T12.id, T1.v1 {q} AND T1.v1 < {v1} AND T12.h2 < {sh}"
        ));
        out.push(format!(
            "SELECT T0.id, T1.id, T12.id, T1.v1, T1.h1 {q} AND T1.v1 < {v1h} AND T12.h2 < {sh}"
        ));
        out.push(format!(
            "SELECT T0.id, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id \
             AND T1.v1 < {vhc} AND T1.h1 < {}",
            lit(ds, "T1", 0.1)
        ));
        out.push(format!(
            "SELECT T0.id, T1.h1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.v1 < {v0}"
        ));
        out.push(format!(
            "SELECT T0.id, T1.id, T2.id FROM T0, T1, T2, T12 \
             WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.fk12 = T12.id \
             AND T1.v1 < {v1b} AND T2.v1 < {v2} AND T12.h2 < {sh}"
        ));
        out.push(format!(
            "SELECT T0.id, T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < {vonly}"
        ));
    }
    out
}

/// `sql-hidden`: hidden-only predicates on the indexed `T0.h1`, `T1.h1`,
/// `T2.h1` and `T12.h2` — point lookups, narrow ranges (sH 1e-5–1e-2) and
/// two-table conjunctions (sH 1e-3–0.05 each) — projecting ids and hidden
/// columns only, so the untrusted host carries nothing but the query text.
fn hidden_pool(ds: &SyntheticDataset, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for k in 0..STRATA {
        let mut point = |t: &str| format!("'{:08}'", rng.below(ds.rows(t)));
        let (p0, p1) = (point("T0"), point("T1"));
        let mut range = |t: &str, slot: usize, lo: f64, hi: f64| {
            let n = ds.rows(t);
            let width = ((stratum(&mut rng, slot, lo, hi) * n as f64).round() as u64).max(1);
            let start = rng.below(n - width + 1);
            format!("BETWEEN '{start:08}' AND '{:08}'", start + width - 1)
        };
        let (narrow, conj) = ((1e-5, 1e-2), (1e-3, 0.05));
        let r2 = range("T2", 6 * k, narrow.0, narrow.1);
        let r12 = range("T12", 6 * k + 1, narrow.0, narrow.1);
        let c1 = range("T1", 6 * k + 2, conj.0, conj.1);
        let c12 = range("T12", 6 * k + 3, conj.0, conj.1);
        let c0 = range("T0", 6 * k + 4, conj.0, conj.1);
        let c2 = range("T2", 6 * k + 5, conj.0, conj.1);
        out.push(format!(
            "SELECT T0.id, T0.h1, T0.h2 FROM T0 WHERE T0.h1 = {p0}"
        ));
        out.push(format!(
            "SELECT T0.id, T1.id, T1.h2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 = {p1}"
        ));
        out.push(format!(
            "SELECT T0.id, T2.id, T2.h1 FROM T0, T2 WHERE T0.fk2 = T2.id AND T2.h1 {r2}"
        ));
        out.push(format!(
            "SELECT T0.id, T12.id, T12.h1 FROM T0, T1, T12 \
             WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T12.h2 {r12}"
        ));
        out.push(format!(
            "SELECT T0.id, T1.id, T1.h1 FROM T0, T1, T12 \
             WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.h1 {c1} AND T12.h2 {c12}"
        ));
        out.push(format!(
            "SELECT T0.id, T0.h2, T2.h1 FROM T0, T2 \
             WHERE T0.fk2 = T2.id AND T0.h1 {c0} AND T2.h1 {c2}"
        ));
    }
    out
}
