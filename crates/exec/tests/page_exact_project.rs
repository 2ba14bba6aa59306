//! Page-exact hidden-column reads in projection. MJoin and FinalJoin read
//! hidden columns page by page through a `PageCursor`: each page's wanted
//! ids are read in the byte spans `page_spans` plans for them, not as a
//! whole page. These tests take ghostbench `sql-hidden`'s slowest shapes
//! at ×0.004: results must equal the `reference` oracle under every
//! projection algorithm, and FinalJoin's root hidden projection must bill
//! exactly the spans its survivors need.

use ghostdb_datagen::{pad8, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::{Database, ExecOptions, ExecReport, Executor, OpKind, SpjQuery};
use ghostdb_reference::{RefDb, RefQuery};
use ghostdb_storage::table::page_spans;
use ghostdb_storage::{CmpOp, Predicate, Value};

fn synthetic(scale: f64) -> (RefDb, Database) {
    let ds = SyntheticDataset::generate(SyntheticSpec::paper(scale));
    let db = ds.build().expect("synthetic build");
    (ds.ref_db(), db)
}

/// `h1 BETWEEN` the `share` of `table`'s keys starting at `from`.
fn range<'a>(oracle: &RefDb, table: &'a str, from: f64, share: f64) -> (&'a str, Predicate) {
    let n = oracle.tables[oracle.schema.table_id(table).unwrap()].rows as f64;
    let lo = (from * n) as u64;
    let hi = lo + (share * n) as u64 - 1;
    (
        table,
        Predicate::new("h1", CmpOp::Between, pad8(lo), Some(pad8(hi))),
    )
}

fn query(db: &Database, preds: &[(&str, Predicate)], proj: &[(&str, &str)]) -> SpjQuery {
    let mut q = SpjQuery::new();
    for (t, p) in preds {
        q = q.pred(db.schema.table_id(t).unwrap(), p.clone());
    }
    for (t, c) in proj {
        q = q.project(db.schema.table_id(t).unwrap(), c);
    }
    q.text = format!("{:?} {:?}", q.predicates, q.projections);
    q
}

/// Run `q` under `Project`, `Project-NoBF` and `Brute-Force`; every result
/// must equal the oracle's. Returns the oracle rows and `Project`'s report.
fn check(db: &mut Database, oracle: &RefDb, q: &SpjQuery) -> (Vec<Vec<Value>>, ExecReport) {
    let expect = oracle
        .run(&RefQuery {
            predicates: q.predicates.clone(),
            projections: q.projections.clone(),
        })
        .expect("oracle");
    assert!(!expect.is_empty(), "{}", q.text);
    let mut project = None;
    for algo in [
        ProjectAlgo::Project,
        ProjectAlgo::ProjectNoBf,
        ProjectAlgo::BruteForce,
    ] {
        let (rs, report) = Executor::run(db, q, &ExecOptions::new().project(algo)).expect("runs");
        assert_eq!(rs.rows, expect, "{} diverges: {}", algo.name(), q.text);
        assert!(report.peak_ram_buffers <= db.token.ram.capacity());
        project.get_or_insert(report);
    }
    (expect, project.expect("Project ran"))
}

#[test]
fn a_root_hidden_projection_reads_only_its_survivors_spans() {
    // `T0.h1 BETWEEN <1%> ∧ T2.h1 BETWEEN <5%>`: a few dozen survivors over
    // T0's 40 000 rows (196 pages of `T0.h2`, 204 char(10) values each).
    let (oracle, mut db) = synthetic(0.004);
    let preds = [
        range(&oracle, "T0", 0.3, 0.01),
        range(&oracle, "T2", 0.6, 0.05),
    ];
    let with = query(&db, &preds, &[("T0", "id"), ("T0", "h2"), ("T2", "h1")]);
    let without = query(&db, &preds, &[("T0", "id"), ("T2", "h1")]);
    let (rows, with_report) = check(&mut db, &oracle, &with);
    let (_, without_report) = check(&mut db, &oracle, &without);

    // Everything but the `T0.h2` reads is common to both queries. The
    // survivors fit FinalJoin's one buffer (root id plus T2's 18-byte
    // projection row), so they are read in a single flush.
    let page = db.token.flash.page_size();
    assert!(rows.len() < page / (4 + 18), "{} survivors", rows.len());
    let extra =
        with_report.op(OpKind::FinalJoin).as_ns() - without_report.op(OpKind::FinalJoin).as_ns();

    let timing = *db.token.flash.timing();
    let width = 10;
    let per_page = (page / width) as u64;
    let mut ids: Vec<u64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => id as u64,
            ref v => panic!("T0.id {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    let pages: Vec<&[u64]> = ids.chunk_by(|a, b| a / per_page == b / per_page).collect();
    let spans: Vec<_> = pages
        .iter()
        .flat_map(|ids| {
            let offsets = ids.iter().map(|id| (id % per_page) as usize * width);
            page_spans(&timing, offsets.map(|o| o..o + width))
        })
        .collect();
    let planned: u128 = spans.iter().map(|s| timing.read_cost_ns(s.len())).sum();
    assert_eq!(
        extra, planned,
        "FinalJoin's T0.h2 reads are the planned spans"
    );
    // Bytes to RAM: one value per survivor, rounded up only where a merged
    // span carries the gap between two neighbours, and such a gap moves
    // fewer bytes than a page load costs.
    let bytes = spans.iter().map(|s| s.len()).sum::<usize>() as u128;
    let gap = timing.read_cost_ns(0) / timing.transfer_ns_per_byte as u128;
    let merges = (ids.len() - spans.len()) as u128;
    assert!(bytes >= (ids.len() * width) as u128);
    assert!(bytes <= (ids.len() * width) as u128 + merges * gap);
    // The whole-page reads this replaces.
    let whole_pages = pages.len() as u128 * timing.read_cost_ns(page);
    assert!(
        planned * 2 < whole_pages,
        "{planned} ns against {whole_pages} ns"
    );
}

/// `p` with its lower bound one digit longer: a literal that outgrows
/// the 8-byte key, so the selection is re-checked although the index is
/// exact, and the rows keyed by the bound itself fall below it.
fn past_lower_bound((table, p): (&str, Predicate)) -> (&str, Predicate) {
    let Value::Str(lo) = &p.value else {
        panic!("{p:?}")
    };
    let value = Value::Str(format!("{lo}5"));
    (table, Predicate { value, ..p })
}

/// `T1.h1 BETWEEN ∧ T12.h2 BETWEEN`, projecting `T1.h1`; then the same
/// with a root range and a root hidden projection. With `long` lower
/// bounds every selection is re-checked: T12 as a re-check-only
/// participant, T1 re-checked and projected in MJoin, T0 in FinalJoin.
fn t12_conjunctions(long: bool) {
    let (oracle, mut db) = synthetic(0.004);
    let t12 = oracle.schema.table_id("T12").unwrap();
    let n12 = oracle.tables[t12].rows;
    let t12_range = Predicate::new(
        "h2",
        CmpOp::Between,
        pad8(n12 / 5),
        Some(pad8(n12 / 5 + n12 / 20)),
    );
    let adjust = |p| if long { past_lower_bound(p) } else { p };
    let preds = [range(&oracle, "T1", 0.4, 0.05), ("T12", t12_range)].map(adjust);
    let rechecked = |db: &Database, preds: &[(&str, Predicate)]| {
        for (t, p) in preds {
            let ci = db.index(db.schema.table_id(t).unwrap(), &p.column).unwrap();
            assert!(ci.exact, "{t}: 8-character values fit their keys");
            assert_eq!(ci.key_range(p).recheck, long, "{t}: {p:?}");
        }
    };
    rechecked(&db, &preds);
    let q = query(&db, &preds, &[("T0", "id"), ("T1", "id"), ("T1", "h1")]);
    let (_, report) = check(&mut db, &oracle, &q);
    assert!(report.op(OpKind::MJoin).as_ns() > 0);
    let preds = [
        adjust(range(&oracle, "T0", 0.5, 0.02)),
        adjust(range(&oracle, "T1", 0.1, 0.3)),
        preds[1].clone(),
    ];
    rechecked(&db, &preds);
    let q = query(&db, &preds, &[("T0", "id"), ("T0", "h2"), ("T12", "h1")]);
    let (rows, _) = check(&mut db, &oracle, &q);
    if long {
        // The re-checks have rows to drop: the bounds' own keys join.
        let short = preds.clone().map(|(t, p)| {
            let Value::Str(lo) = &p.value else {
                panic!("{p:?}")
            };
            (
                t,
                Predicate {
                    value: Value::Str(lo[..8].into()),
                    ..p
                },
            )
        });
        let q = query(&db, &short, &[("T0", "id"), ("T0", "h2"), ("T12", "h1")]);
        let (short_rows, _) = check(&mut db, &oracle, &q);
        assert!(
            rows.len() < short_rows.len(),
            "{} vs {}",
            rows.len(),
            short_rows.len()
        );
    }
}

#[test]
fn a_t12_conjunction_on_exact_keys_matches_the_oracle() {
    t12_conjunctions(false);
}

#[test]
fn a_t12_recheck_conjunction_matches_the_oracle() {
    t12_conjunctions(true);
}
