//! Simulated pins: every deterministic number the cost model produces for
//! the smoke scenario matrix and a fixed SQL set, compared with the values
//! committed in `tests/pins/sim.tsv`.
//!
//! The paper measures every plan with an I/O-accurate cost model (§6,
//! Table 1), so each simulated number is an integer that a change either
//! keeps or moves on purpose. This test runs the smoke matrix of
//! `ghostdb_bench::matrix` once per entry, then the SQL set through
//! `SealedGhostDb::query_with` with the optimizer choosing every plan, and
//! compares one row per matrix entry, per query the matrix ran, and per SQL
//! query:
//! - `entry` rows: the entry's simulated nanoseconds, ops and flash bytes;
//! - `query` and `sql` rows: every `OpKind` bucket, `comm`, bytes shipped to
//!   the token, result rows, every `FlashStats` counter, the RAM peak, and
//!   `unbilled_ns`, the flash time of the query's I/O that no operator
//!   billed;
//! - `sql` rows also: the strategy the optimizer chose per table (from
//!   `explain`) and the length of the host trace.
//!
//! On a mismatch the test writes the observed table to
//! `<CARGO_TARGET_TMPDIR>/sim.tsv` and prints the rows that changed. To
//! re-bless after a change that moves numbers on purpose, copy that file
//! over `tests/pins/sim.tsv` and list the moved pins in CHANGES.md.

use ghostdb_bench::build_synthetic;
use ghostdb_bench::matrix::{self, Mode};
use ghostdb_core::{GhostDb, QueryOptions};
use ghostdb_datagen::SyntheticDataset;
use ghostdb_exec::{ExecReport, OpKind};
use ghostdb_flash::FlashTiming;

const PINS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/pins/sim.tsv");

/// Every device in the matrix and the SQL set runs the Table 1 defaults.
const PAGE_SIZE: usize = 2048;

/// One pin row: its key and its `field=value` cells.
type Row = (String, Vec<(String, String)>);

fn query_cells(r: &ExecReport) -> Vec<(String, String)> {
    let mut cells: Vec<(String, String)> = OpKind::ALL
        .iter()
        .map(|op| (op.name().to_string(), r.op(*op).as_ns().to_string()))
        .collect();
    let io = &r.io;
    let elapsed = io.elapsed(&FlashTiming::default(), PAGE_SIZE).as_ns() as i128;
    let unbilled = elapsed - r.flash_total().as_ns() as i128;
    for (field, v) in [
        ("comm_ns", r.comm.as_ns()),
        ("bytes_to_secure", r.bytes_to_secure.into()),
        ("result_rows", r.result_rows.into()),
        ("pages_read", io.pages_read.into()),
        ("pages_written", io.pages_written.into()),
        ("bytes_to_ram", io.bytes_to_ram.into()),
        ("bytes_from_ram", io.bytes_from_ram.into()),
        ("gc_pages_read", io.gc_pages_read.into()),
        ("gc_pages_written", io.gc_pages_written.into()),
        ("blocks_erased", io.blocks_erased.into()),
        ("peak_ram_buffers", r.peak_ram_buffers as u128),
    ] {
        cells.push((field.into(), v.to_string()));
    }
    cells.push(("unbilled_ns".into(), unbilled.to_string()));
    cells
}

fn matrix_rows(out: &mut Vec<Row>) {
    matrix::run(Mode::Smoke, |name, run| {
        let run = run();
        out.push((
            format!("entry {name}"),
            vec![
                ("simulated_ns".into(), run.simulated.as_ns().to_string()),
                ("ops".into(), run.ops.to_string()),
                ("bytes_io".into(), run.bytes_io.to_string()),
            ],
        ));
        for (i, r) in run.reports.iter().enumerate() {
            out.push((format!("query {name}#{i}"), query_cells(r)));
        }
    });
}

/// `'0000nnnn'`: the literal selecting `share` of `table`'s rows on a
/// permutation-valued column (`col < literal` keeps exactly that many).
fn lit(ds: &SyntheticDataset, table: &str, share: f64) -> String {
    format!("'{:08}'", (share * ds.rows(table) as f64).round() as u64)
}

/// `BETWEEN` over `share` of `table`'s key domain, starting at `from`.
fn range(ds: &SyntheticDataset, table: &str, from: f64, share: f64) -> String {
    let n = ds.rows(table) as f64;
    let lo = (from * n) as u64;
    let hi = lo + ((share * n) as u64).max(1) - 1;
    format!("BETWEEN '{lo:08}' AND '{hi:08}'")
}

/// The SQL set, labelled: ghostbench's six `sql-mix` templates and six
/// `sql-hidden` shapes, and the paper's Q (§6.4) on both sides of the
/// Cross-Pre cutoff, two literals each.
fn sql_set(ds: &SyntheticDataset) -> Vec<(String, String)> {
    let sh = lit(ds, "T12", 0.1);
    let q3 = "FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id";
    let mut out = Vec::new();
    let mut add = |label: String, sql: String| out.push((label, sql));
    for (k, (sv, sv2)) in [(0.005, 0.2), (0.2, 0.03)].into_iter().enumerate() {
        let v = |t: &str| lit(ds, t, sv);
        add(
            format!("mix/q/{k}"),
            format!(
                "SELECT T0.id, T1.id, T12.id, T1.v1 {q3} AND T1.v1 < {} AND T12.h2 < {sh}",
                v("T1")
            ),
        );
        add(
            format!("mix/q-hidden-proj/{k}"),
            format!(
                "SELECT T0.id, T1.id, T12.id, T1.v1, T1.h1 {q3} AND T1.v1 < {} \
                 AND T12.h2 < {sh}",
                v("T1")
            ),
        );
        add(
            format!("mix/hicard/{k}"),
            format!(
                "SELECT T0.id, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id \
                 AND T1.v1 < {} AND T1.h1 < {}",
                v("T1"),
                lit(ds, "T1", 0.1)
            ),
        );
        add(
            format!("mix/root/{k}"),
            format!(
                "SELECT T0.id, T1.h1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.v1 < {}",
                v("T0")
            ),
        );
        add(
            format!("mix/two-visible/{k}"),
            format!(
                "SELECT T0.id, T1.id, T2.id FROM T0, T1, T2, T12 \
                 WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.fk12 = T12.id \
                 AND T1.v1 < {} AND T2.v1 < {} AND T12.h2 < {sh}",
                v("T1"),
                lit(ds, "T2", sv2)
            ),
        );
        add(
            format!("mix/visible-only/{k}"),
            format!(
                "SELECT T0.id, T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < {}",
                v("T1")
            ),
        );
    }
    for (k, (at, narrow, conj)) in [(0.37, 0.002, 0.01), (0.81, 0.01, 0.05)]
        .into_iter()
        .enumerate()
    {
        let point = |t: &str| lit(ds, t, at);
        add(
            format!("hidden/root-point/{k}"),
            format!(
                "SELECT T0.id, T0.h1, T0.h2 FROM T0 WHERE T0.h1 = {}",
                point("T0")
            ),
        );
        add(
            format!("hidden/child-point/{k}"),
            format!(
                "SELECT T0.id, T1.id, T1.h2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 = {}",
                point("T1")
            ),
        );
        add(
            format!("hidden/child-range/{k}"),
            format!(
                "SELECT T0.id, T2.id, T2.h1 FROM T0, T2 WHERE T0.fk2 = T2.id AND T2.h1 {}",
                range(ds, "T2", at / 2.0, narrow)
            ),
        );
        add(
            format!("hidden/grandchild-range/{k}"),
            format!(
                "SELECT T0.id, T12.id, T12.h1 FROM T0, T1, T12 \
                 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T12.h2 {}",
                range(ds, "T12", at / 3.0, narrow)
            ),
        );
        add(
            format!("hidden/chain-conjunction/{k}"),
            format!(
                "SELECT T0.id, T1.id, T1.h1 FROM T0, T1, T12 \
                 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.h1 {} AND T12.h2 {}",
                range(ds, "T1", at / 4.0, conj),
                range(ds, "T12", at / 5.0, conj)
            ),
        );
        add(
            format!("hidden/root-conjunction/{k}"),
            format!(
                "SELECT T0.id, T0.h2, T2.h1 FROM T0, T2 \
                 WHERE T0.fk2 = T2.id AND T0.h1 {} AND T2.h1 {}",
                range(ds, "T0", at / 6.0, conj),
                range(ds, "T2", at / 7.0, conj)
            ),
        );
    }
    for (k, sv) in [0.4, 0.8].into_iter().enumerate() {
        add(
            format!("paper-q/{k}"),
            format!(
                "SELECT T0.id, T1.id, T12.id, T1.v1 {q3} AND T1.v1 < {} AND T12.h2 < {sh}",
                lit(ds, "T1", sv)
            ),
        );
    }
    out
}

fn sql_rows(out: &mut Vec<Row>) {
    let (ds, db) = build_synthetic(0.002);
    assert_eq!(*db.token.flash.timing(), FlashTiming::default());
    assert_eq!(db.token.flash.page_size(), PAGE_SIZE);
    let mut ghost = GhostDb::from_database(db);
    let sealed = ghost.finalize().expect("finalize");
    for (label, sql) in sql_set(&ds) {
        let plan: Vec<String> = sealed
            .explain(&sql)
            .unwrap_or_else(|e| panic!("{label}: explain failed: {e}"))
            .lines()
            .filter_map(|l| l.trim().strip_prefix("visible selection on "))
            .map(|l| l.replace(" → ", ":"))
            .collect();
        let (_, report) = sealed
            .query_with(&sql, &QueryOptions::new())
            .unwrap_or_else(|e| panic!("{label}: {sql} failed: {e}"));
        let trace = sealed.host_trace().expect("host trace").len();
        let mut cells = query_cells(&report);
        cells.push(("plan".into(), plan.join(",")));
        cells.push(("host_trace".into(), trace.to_string()));
        out.push((format!("sql {label}"), cells));
    }
}

fn render(rows: &[Row]) -> String {
    let mut text = String::new();
    for (key, cells) in rows {
        text.push_str(key);
        for (field, v) in cells {
            text.push('\t');
            text.push_str(&format!("{field}={v}"));
        }
        text.push('\n');
    }
    text
}

fn parse(text: &str) -> Vec<Row> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut parts = l.split('\t');
            let key = parts.next().unwrap_or_default().to_string();
            let cells = parts
                .map(|c| {
                    let (f, v) = c.split_once('=').unwrap_or((c, ""));
                    (f.to_string(), v.to_string())
                })
                .collect();
            (key, cells)
        })
        .collect()
}

/// One line per pinned row that is missing, new or different, naming the
/// cells that moved.
fn diff(pinned: &[Row], observed: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for (key, cells) in pinned {
        match observed.iter().find(|(k, _)| k == key) {
            None => out.push(format!("{key}: missing")),
            Some((_, now)) if now != cells => {
                let mut moved = Vec::new();
                for (f, was) in cells {
                    match now.iter().find(|(g, _)| g == f) {
                        Some((_, v)) if v != was => moved.push(format!("{f} {was} → {v}")),
                        None => moved.push(format!("{f} {was} → (none)")),
                        _ => {}
                    }
                }
                for (f, v) in now {
                    if !cells.iter().any(|(g, _)| g == f) {
                        moved.push(format!("{f} (none) → {v}"));
                    }
                }
                out.push(format!("{key}: {}", moved.join(", ")));
            }
            Some(_) => {}
        }
    }
    for (key, _) in observed {
        if !pinned.iter().any(|(k, _)| k == key) {
            out.push(format!("{key}: new"));
        }
    }
    out
}

#[test]
fn simulated_numbers_match_the_pins() {
    let mut observed = Vec::new();
    matrix_rows(&mut observed);
    sql_rows(&mut observed);
    let pinned = parse(&std::fs::read_to_string(PINS).unwrap_or_default());
    if pinned == observed {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim.tsv");
    std::fs::write(&out, render(&observed)).expect("write the observed pins");
    let mut changed = diff(&pinned, &observed);
    if changed.is_empty() {
        changed.push("the same rows, in a different order".into());
    }
    const SHOWN: usize = 60;
    let mut msg = format!(
        "{} pinned rows changed (observed table: {}; copy it over {PINS} to re-bless):\n",
        changed.len(),
        out.display()
    );
    for line in changed.iter().take(SHOWN) {
        msg.push_str(&format!("  {line}\n"));
    }
    if changed.len() > SHOWN {
        msg.push_str(&format!("  … and {} more\n", changed.len() - SHOWN));
    }
    panic!("{msg}");
}
