//! End-to-end executor tests: every strategy and every projection algorithm
//! must produce identical, ground-truth results on the tiny deterministic
//! database, while respecting the secure-RAM budget and keeping the channel
//! transcript clean of hidden data.

use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::query::SpjQuery;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::testkit::{pad8, tiny_db, tiny_truth, TINY_ROWS};
use ghostdb_exec::{ExecError, ExecOptions, Executor, ResultSet};
use ghostdb_storage::{CmpOp, Predicate, Value};
use ghostdb_token::{Direction, RamArena, SecureToken, TokenConfig, TokenError};

/// The paper's query Q (§6.4) on the tiny database: visible selection on
/// T1, hidden selection on T12, joins up to T0, projecting
/// T0.id, T1.id, T12.id, T1.v1.
fn query_q(db: &ghostdb_exec::Database, s: u64, k: u64) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(s), None))
        .pred(t12, Predicate::eq("h2", pad8(k)))
        .project(t0, "id")
        .project(t1, "id")
        .project(t12, "id")
        .project(t1, "v1");
    q.text = format!(
        "SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 \
         WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '{s:08}' AND T12.h2 = '{k:08}'"
    );
    q
}

fn expected_q(s: u64, k: u64) -> Vec<Vec<Value>> {
    let roots = tiny_truth(|_t0, t1, _t2, _t11, t12| t1 < s && t12 % 8 == k);
    roots
        .into_iter()
        .map(|r| {
            let t1 = r as u64 % TINY_ROWS[1];
            let t12 = t1 % TINY_ROWS[4];
            vec![
                Value::Int(r as i64),
                Value::Int(t1 as i64),
                Value::Int(t12 as i64),
                pad8(t1),
            ]
        })
        .collect()
}

fn run(db: &mut ghostdb_exec::Database, q: &SpjQuery, opts: &ExecOptions) -> ResultSet {
    let (rs, report) = Executor::run(db, q, opts).expect("query runs");
    assert!(
        report.peak_ram_buffers <= db.token.ram.capacity(),
        "RAM overflow: {} > {}",
        report.peak_ram_buffers,
        db.token.ram.capacity()
    );
    rs
}

#[test]
fn all_strategies_agree_with_ground_truth() {
    let mut db = tiny_db();
    let q = query_q(&db, 30, 3);
    let expected = expected_q(30, 3);
    assert!(!expected.is_empty(), "test query must select something");
    for strategy in [
        VisStrategy::Pre,
        VisStrategy::CrossPre,
        VisStrategy::Post,
        VisStrategy::CrossPost,
        VisStrategy::PostSelect,
        VisStrategy::CrossPostSelect,
        VisStrategy::NoFilter,
    ] {
        let rs = run(&mut db, &q, &ExecOptions::new().strategy(strategy));
        assert_eq!(
            rs.sorted().rows,
            expected,
            "strategy {} diverges",
            strategy.name()
        );
    }
}

#[test]
fn all_projection_algorithms_agree() {
    let mut db = tiny_db();
    let q = query_q(&db, 45, 1);
    let expected = expected_q(45, 1);
    for algo in [
        ProjectAlgo::Project,
        ProjectAlgo::ProjectNoBf,
        ProjectAlgo::BruteForce,
    ] {
        for strategy in [VisStrategy::CrossPre, VisStrategy::CrossPost] {
            let opts = ExecOptions::new().strategy(strategy).project(algo);
            let rs = run(&mut db, &q, &opts);
            assert_eq!(
                rs.sorted().rows,
                expected,
                "{} under {} diverges",
                algo.name(),
                strategy.name()
            );
        }
    }
}

#[test]
fn auto_strategy_matches_forced() {
    let mut db = tiny_db();
    for s in [2u64, 12, 60, 110] {
        let q = query_q(&db, s, 5);
        let rs = run(&mut db, &q, &ExecOptions::auto());
        assert_eq!(rs.sorted().rows, expected_q(s, 5), "sV = {}/120", s);
    }
}

#[test]
fn hidden_projection_reads_hidden_image() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(10), None))
        .project(t0, "id")
        .project(t1, "h1");
    q.text = "SELECT T0.id, T1.h1 FROM T0, T1 WHERE T1.v1 < '00000010'".into();
    let rs = run(&mut db, &q, &ExecOptions::auto());
    let expected: Vec<Vec<Value>> = tiny_truth(|_r, t1, _, _, _| t1 < 10)
        .into_iter()
        .map(|r| {
            let t1 = r as u64 % TINY_ROWS[1];
            vec![Value::Int(r as i64), pad8(t1 % 4)]
        })
        .collect();
    assert_eq!(rs.sorted().rows, expected);
}

#[test]
fn root_predicates_and_projections() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let mut q = SpjQuery::new()
        .pred(t0, Predicate::eq("h1", pad8(2)))
        .pred(t0, Predicate::new("v1", CmpOp::Lt, pad8(100), None))
        .project(t0, "id")
        .project(t0, "v2")
        .project(t0, "h2");
    q.text =
        "SELECT T0.id, T0.v2, T0.h2 FROM T0 WHERE T0.h1='00000002' AND T0.v1<'00000100'".into();
    let rs = run(&mut db, &q, &ExecOptions::auto());
    let expected: Vec<Vec<Value>> = tiny_truth(|r, _, _, _, _| r % 4 == 2 && r < 100)
        .into_iter()
        .map(|r| {
            vec![
                Value::Int(r as i64),
                pad8(r as u64 % 10),
                pad8(r as u64 % 8),
            ]
        })
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(rs.sorted().rows, expected);
}

#[test]
fn hidden_only_query() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t2 = db.schema.table_id("T2").unwrap();
    let mut q = SpjQuery::new()
        .pred(t2, Predicate::eq("h1", pad8(1)))
        .project(t0, "id");
    q.text = "SELECT T0.id FROM T0, T2 WHERE T0.fk2 = T2.id AND T2.h1 = '00000001'".into();
    let rs = run(&mut db, &q, &ExecOptions::auto());
    let expected: Vec<Vec<Value>> = tiny_truth(|_r, _t1, t2, _, _| t2 % 4 == 1)
        .into_iter()
        .map(|r| vec![Value::Int(r as i64)])
        .collect();
    assert_eq!(rs.sorted().rows, expected);
}

#[test]
fn visible_only_query_runs_and_matches() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::eq("v2", pad8(3)))
        .project(t0, "id")
        .project(t1, "v1");
    q.text = "SELECT T0.id, T1.v1 FROM T0, T1 WHERE T1.v2 = '00000003'".into();
    let rs = run(&mut db, &q, &ExecOptions::auto());
    let expected: Vec<Vec<Value>> = tiny_truth(|_r, t1, _, _, _| t1 % 10 == 3)
        .into_iter()
        .map(|r| {
            let t1 = r as u64 % TINY_ROWS[1];
            vec![Value::Int(r as i64), pad8(t1)]
        })
        .collect();
    assert_eq!(rs.sorted().rows, expected);
}

#[test]
fn range_predicates_on_hidden_attributes() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(
            t1,
            Predicate::new("h2", CmpOp::Between, pad8(2), Some(pad8(5))),
        )
        .project(t0, "id");
    q.text = "SELECT T0.id FROM T0, T1 WHERE T1.h2 BETWEEN '00000002' AND '00000005'".into();
    let rs = run(&mut db, &q, &ExecOptions::auto());
    let expected: Vec<Vec<Value>> = tiny_truth(|_r, t1, _, _, _| (2..=5).contains(&(t1 % 8)))
        .into_iter()
        .map(|r| vec![Value::Int(r as i64)])
        .collect();
    assert_eq!(rs.sorted().rows, expected);
}

#[test]
fn empty_result_queries() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::eq("v1", pad8(99_999)))
        .pred(t1, Predicate::eq("h1", pad8(1)))
        .project(t0, "id");
    q.text = "SELECT T0.id FROM T0, T1 WHERE T1.v1='00099999' AND T1.h1='00000001'".into();
    for strategy in [VisStrategy::Pre, VisStrategy::CrossPre, VisStrategy::Post] {
        let rs = run(&mut db, &q, &ExecOptions::new().strategy(strategy));
        assert!(rs.is_empty(), "{}", strategy.name());
    }
}

#[test]
fn no_hidden_data_ever_crosses_the_channel() {
    let mut db = tiny_db();
    db.token.channel.set_capture(true);
    let q = query_q(&db, 40, 2);
    let _ = run(&mut db, &q, &ExecOptions::auto());
    // Outbound flows (token → PC) must only ever be the query ack; inbound
    // flows are the query and visible shipments.
    for entry in db.token.channel.transcript() {
        match entry.direction {
            Direction::ToUntrusted => {
                assert_eq!(entry.tag, "query-ack", "unexpected outbound flow");
                assert!(entry.bytes <= 4);
            }
            Direction::ToSecure => {
                assert!(
                    entry.tag == "query" || entry.tag.starts_with("Vis("),
                    "unexpected inbound tag {}",
                    entry.tag
                );
            }
        }
    }
}

#[test]
fn report_buckets_are_populated() {
    let mut db = tiny_db();
    let q = query_q(&db, 30, 3);
    let (_, report) = Executor::run(
        &mut db,
        &q,
        &ExecOptions::new().strategy(VisStrategy::CrossPre),
    )
    .unwrap();
    assert!(report.total().as_ns() > 0);
    assert!(report.comm.as_ns() > 0);
    assert!(report.bytes_to_secure > 0);
    let buckets = report.fig15_buckets();
    let project_time = buckets[3].1;
    assert!(project_time.as_ns() > 0, "projection must cost something");
    assert_eq!(report.result_rows, expected_q(30, 3).len() as u64);
}

#[test]
fn wide_pre_probe_reduction_matches_oracle() {
    // A wide Pre-Filter probe (110 of 120 T1 ids) delivers more sublists
    // than RAM buffers, forcing the reduction phase; the reduced merge
    // must deliver exactly the oracle's rows.
    let mut db = tiny_db();
    let q = query_q(&db, 110, 3);
    let expected = expected_q(110, 3);
    assert!(!expected.is_empty());
    let rs = run(&mut db, &q, &ExecOptions::new().strategy(VisStrategy::Pre));
    assert_eq!(rs.sorted().rows, expected);
}

#[test]
fn strategies_not_applicable_error_cleanly() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    // No hidden predicate anywhere: Cross strategies must refuse.
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(10), None))
        .project(t0, "id");
    q.text = "SELECT T0.id FROM T0, T1 WHERE T1.v1 < '00000010'".into();
    let err = Executor::run(
        &mut db,
        &q,
        &ExecOptions::new().strategy(VisStrategy::CrossPre),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        ghostdb_exec::ExecError::StrategyNotApplicable(_)
    ));
}

/// RAM buffers smaller than a flash page cannot hold the pages every reader
/// loads. Building such a token fails, and so does a query after a smaller
/// arena is swapped in: a typed error, not a panic on the first page read.
#[test]
fn buffers_smaller_than_a_page_are_rejected() {
    let mut config = TokenConfig::paper_platform(16 * 1024 * 1024);
    config.buf_size = 512;
    assert!(matches!(
        SecureToken::new(&config),
        Err(TokenError::BufferTooSmall {
            buf_size: 512,
            page_size: 2048
        })
    ));

    let mut db = tiny_db();
    db.token.ram = RamArena::new(512, 32);
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::new("h1", CmpOp::Lt, pad8(2), None))
        .project(t0, "id");
    q.text = "SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 < '00000002'".into();
    let err = Executor::run(&mut db, &q, &ExecOptions::auto()).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::Token(TokenError::BufferTooSmall {
                buf_size: 512,
                page_size: 2048
            })
        ),
        "{err}"
    );
}

/// A query that fails after its operators allocated flash temps frees
/// them all the same: at every arena size too small for the plan, the
/// allocator ends where it started, and the next query on a restored
/// arena matches the same query on a fresh database.
#[test]
fn failed_query_frees_its_temps() {
    let mut db = tiny_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::new("h1", CmpOp::Lt, pad8(6), None))
        .project(t0, "id")
        .project(t1, "h1");
    q.text = "SELECT T0.id, T1.h1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 < '00000006'".into();
    let free = db.alloc.free_pages();
    let ram = db.token.ram.clone();
    let page_size = db.token.flash.page_size();
    let mut failures = 0;
    for buffers in 1..=ram.capacity() {
        db.token.ram = RamArena::new(page_size, buffers);
        for strategy in [
            VisStrategy::Pre,
            VisStrategy::CrossPre,
            VisStrategy::Post,
            VisStrategy::CrossPost,
            VisStrategy::PostSelect,
            VisStrategy::CrossPostSelect,
            VisStrategy::NoFilter,
        ] {
            let opts = ExecOptions::new().strategy(strategy);
            if let Err(err) = Executor::run(&mut db, &q, &opts) {
                assert!(
                    err.to_string().contains("secure RAM exhausted"),
                    "{} at {buffers} buffers: {err}",
                    strategy.name()
                );
                failures += 1;
            }
            assert_eq!(
                db.alloc.free_pages(),
                free,
                "{} at {buffers} buffers leaked flash temps",
                strategy.name()
            );
        }
    }
    assert!(failures > 0, "no arena was small enough to fail the plan");

    db.token.ram = ram;
    let (rs, report) = Executor::run(&mut db, &q, &ExecOptions::auto()).expect("query runs");
    let (fresh_rs, fresh_report) =
        Executor::run(&mut tiny_db(), &q, &ExecOptions::auto()).expect("query runs");
    assert_eq!(rs, fresh_rs);
    assert_eq!(report, fresh_report);
    assert_eq!(db.alloc.free_pages(), free);
}
