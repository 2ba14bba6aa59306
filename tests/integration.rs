//! Cross-crate integration tests: the full GhostDB stack (datagen →
//! storage/index/exec → core) against the trusted reference oracle.

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{ExecOptions, Executor, OpKind, SpjQuery};
use ghostdb_reference::RefQuery;
use ghostdb_storage::{CmpOp, Predicate};
use ghostdb_token::RamArena;

fn dataset() -> SyntheticDataset {
    let mut spec = SyntheticSpec::small(); // T0 = 2000
    spec.indexed = vec![
        ("T12".into(), "h2".into()),
        ("T0".into(), "h1".into()),
        ("T1".into(), "h1".into()),
        ("T2".into(), "h1".into()),
        ("T11".into(), "h1".into()),
    ];
    SyntheticDataset::generate(spec)
}

fn check(
    ds: &SyntheticDataset,
    db: &mut ghostdb_exec::Database,
    q: &SpjQuery,
    rq: &RefQuery,
    opts: &ExecOptions,
    label: &str,
) {
    let (rs, report) = Executor::run(db, q, opts).expect(label);
    let expect = ds.ref_db().run(rq).expect("oracle");
    assert_eq!(rs.rows, expect, "{label}: rows diverge from the oracle");
    assert!(
        report.peak_ram_buffers <= db.token.ram.capacity(),
        "{label}: RAM budget exceeded"
    );
    // Every SJoin writes the QEPSJ result as the id columns projection
    // reads: no plan re-partitions it.
    assert_eq!(report.op(OpKind::Partition).as_ns(), 0, "{label}");
}

#[test]
fn paper_query_q_all_strategies_match_oracle() {
    let ds = dataset();
    let mut db = ds.build().expect("build");
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    for sv in [0.01, 0.2, 0.6] {
        let vis = ds.selectivity_pred("T1", "v1", sv);
        let hid = ds.selectivity_pred("T12", "h2", 0.1);
        let mut q = SpjQuery::new()
            .pred(t1, vis.clone())
            .pred(t12, hid.clone())
            .project(t0, "id")
            .project(t1, "id")
            .project(t1, "v1")
            .project(t12, "h2");
        q.text = format!("Q sv={sv}");
        let rq = RefQuery {
            predicates: vec![(t1, vis), (t12, hid)],
            projections: vec![
                (t0, "id".into()),
                (t1, "id".into()),
                (t1, "v1".into()),
                (t12, "h2".into()),
            ],
        };
        for strategy in [
            VisStrategy::Pre,
            VisStrategy::CrossPre,
            VisStrategy::Post,
            VisStrategy::CrossPost,
            VisStrategy::PostSelect,
            VisStrategy::CrossPostSelect,
            VisStrategy::NoFilter,
        ] {
            check(
                &ds,
                &mut db,
                &q,
                &rq,
                &ExecOptions {
                    forced_strategy: Some(strategy),
                    ..Default::default()
                },
                &format!("sv={sv} {}", strategy.name()),
            );
        }
        for algo in [ProjectAlgo::ProjectNoBf, ProjectAlgo::BruteForce] {
            check(
                &ds,
                &mut db,
                &q,
                &rq,
                &ExecOptions {
                    project: Some(algo),
                    ..Default::default()
                },
                &format!("sv={sv} {}", algo.name()),
            );
        }
    }
}

#[test]
fn multi_table_predicates_match_oracle() {
    let ds = dataset();
    let mut db = ds.build().expect("build");
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t2 = db.schema.table_id("T2").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    // Three selections across the tree: visible on T1, hidden on T12 and T2.
    let p_vis = ds.selectivity_pred("T1", "v1", 0.3);
    let p_h12 = ds.selectivity_pred("T12", "h2", 0.4);
    let p_h2 = ds.selectivity_pred("T2", "h1", 0.5);
    let mut q = SpjQuery::new()
        .pred(t1, p_vis.clone())
        .pred(t12, p_h12.clone())
        .pred(t2, p_h2.clone())
        .project(t0, "id")
        .project(t2, "id");
    q.text = "multi".into();
    let rq = RefQuery {
        predicates: vec![(t1, p_vis), (t12, p_h12), (t2, p_h2)],
        projections: vec![(t0, "id".into()), (t2, "id".into())],
    };
    check(&ds, &mut db, &q, &rq, &ExecOptions::auto(), "auto multi");
}

#[test]
fn root_range_and_projection_match_oracle() {
    let ds = dataset();
    let mut db = ds.build().expect("build");
    let t0 = db.schema.root();
    let lo = ghostdb_datagen::pad8(100);
    let hi = ghostdb_datagen::pad8(600);
    let pred = Predicate::new("h1", CmpOp::Between, lo, Some(hi));
    let mut q = SpjQuery::new()
        .pred(t0, pred.clone())
        .project(t0, "id")
        .project(t0, "v1")
        .project(t0, "h1");
    q.text = "root range".into();
    let rq = RefQuery {
        predicates: vec![(t0, pred)],
        projections: vec![(t0, "id".into()), (t0, "v1".into()), (t0, "h1".into())],
    };
    check(&ds, &mut db, &q, &rq, &ExecOptions::auto(), "root range");
}

#[test]
fn projection_only_query_returns_every_root_tuple() {
    let ds = dataset();
    let mut db = ds.build().expect("build");
    let t0 = db.schema.root();
    let t11 = db.schema.table_id("T11").unwrap();
    let mut q = SpjQuery::new().project(t0, "id").project(t11, "v1");
    q.text = "no preds".into();
    let (rs, _) = Executor::run(&mut db, &q, &ExecOptions::auto()).unwrap();
    assert_eq!(rs.rows.len() as u64, db.rows[t0]);
    let expect = ds
        .ref_db()
        .run(&RefQuery {
            predicates: vec![],
            projections: vec![(t0, "id".into()), (t11, "v1".into())],
        })
        .unwrap();
    assert_eq!(rs.rows, expect);
}

#[test]
fn channel_transcript_is_clean_for_every_strategy() {
    let ds = dataset();
    let mut db = ds.build().expect("build");
    db.token.channel.set_capture(true);
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", 0.1))
        .pred(t12, ds.selectivity_pred("T12", "h2", 0.1))
        .project(t0, "id")
        .project(t1, "v1");
    q.text = "audited".into();
    for strategy in [
        VisStrategy::Pre,
        VisStrategy::CrossPre,
        VisStrategy::Post,
        VisStrategy::CrossPost,
        VisStrategy::NoFilter,
    ] {
        Executor::run(
            &mut db,
            &q,
            &ExecOptions {
                forced_strategy: Some(strategy),
                ..Default::default()
            },
        )
        .unwrap();
        let report = ghostdb_core::audit_transcript(db.token.channel.transcript());
        assert!(report.ok, "{}: {report}", strategy.name());
    }
}

#[test]
fn simulated_time_is_deterministic() {
    let ds = dataset();
    let mut db1 = ds.build().expect("build 1");
    let mut db2 = ds.build().expect("build 2");
    let t0 = db1.schema.root();
    let t12 = db1.schema.table_id("T12").unwrap();
    let mut q = SpjQuery::new()
        .pred(t12, ds.selectivity_pred("T12", "h2", 0.2))
        .project(t0, "id");
    q.text = "determinism".into();
    let (_, r1) = Executor::run(&mut db1, &q, &ExecOptions::auto()).unwrap();
    let (_, r2) = Executor::run(&mut db2, &q, &ExecOptions::auto()).unwrap();
    assert_eq!(r1.total(), r2.total());
    assert_eq!(r1.io, r2.io);
}

#[test]
fn queries_can_be_rerun_on_the_same_database() {
    // Temp segments must be reclaimed between queries: run many queries on
    // one instance and verify flash space does not leak.
    let ds = dataset();
    let mut db = ds.build().expect("build");
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    let free_before = db.alloc.free_pages();
    for round in 0..10 {
        let sv = 0.05 + 0.05 * (round % 4) as f64;
        let mut q = SpjQuery::new()
            .pred(t1, ds.selectivity_pred("T1", "v1", sv))
            .pred(t12, ds.selectivity_pred("T12", "h2", 0.1))
            .project(t0, "id")
            .project(t1, "v1");
        q.text = format!("round {round}");
        Executor::run(&mut db, &q, &ExecOptions::auto()).unwrap();
    }
    assert_eq!(
        db.alloc.free_pages(),
        free_before,
        "temp segments leaked across queries"
    );
}

#[test]
fn post_select_on_a_root_selection_matches_oracle_and_keeps_the_handle() {
    use ghostdb_core::{GhostDb, QueryOptions};
    let ds = dataset();
    let t0 = ds.schema.root();
    let t1 = ds.schema.table_id("T1").unwrap();
    let k = ds.rows("T0") / 10;
    let pred = Predicate::new("v1", CmpOp::Lt, ghostdb_datagen::pad8(k), None);
    let mut ghost = GhostDb::from_database(ds.build().expect("build"));
    let sealed = ghost.finalize().expect("finalize");
    let post_select = QueryOptions::new().per_table("T0", VisStrategy::PostSelect);
    // Root only (no SKT involved), then with a joined table (SJoin path).
    for with_t1 in [false, true] {
        let (select, from, projections) = if with_t1 {
            (
                "T0.id, T1.id",
                "T0, T1 WHERE T0.fk1 = T1.id AND",
                vec![(t0, "id".into()), (t1, "id".into())],
            )
        } else {
            ("T0.id", "T0 WHERE", vec![(t0, "id".into())])
        };
        let sql = format!("SELECT {select} FROM {from} T0.v1 < '{k:08}'");
        let expect = ds
            .ref_db()
            .run(&RefQuery {
                predicates: vec![(t0, pred.clone())],
                projections,
            })
            .expect("oracle");
        let (rs, _) = sealed
            .query_with(&sql, &post_select)
            .expect("Post-Select on the root table");
        assert_eq!(rs.rows, expect, "{sql}");
        // The handle is still usable: the same query under the optimizer.
        let (rs, _) = sealed.query_with(&sql, &QueryOptions::new()).unwrap();
        assert_eq!(rs.rows, expect, "{sql} (second query)");
    }
}

/// A Post-Select whose exact id set takes more RAM chunks than the arena
/// has free buffers: `Merge` reduces the chunks' position lists to fit, the
/// gather copies the two kept columns one at a time (four buffers) or
/// together (six), and the rows match the oracle.
#[test]
fn post_select_with_more_chunks_than_buffers_matches_oracle() {
    let ds = SyntheticDataset::generate(SyntheticSpec::paper(0.002));
    let mut db = ds.build().expect("build");
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    // Half of 20,000 root ids: in an arena of four buffers one holds a
    // chunk of 512 ids, so the set takes 20 chunks; in one of six, three
    // hold a chunk of 1,536 ids, so it takes 7.
    let vis = ds.selectivity_pred("T0", "v1", 0.5);
    let mut q = SpjQuery::new()
        .pred(t0, vis.clone())
        .project(t0, "id")
        .project(t1, "id");
    q.text = "wide post-select".into();
    let expect = ds
        .ref_db()
        .run(&RefQuery {
            predicates: vec![(t0, vis)],
            projections: q.projections.clone(),
        })
        .expect("oracle");
    for buffers in [4, 6] {
        db.token.ram = RamArena::new(db.token.flash.page_size(), buffers);
        let opts = ExecOptions::new().strategy(VisStrategy::PostSelect);
        let (rs, report) = Executor::run(&mut db, &q, &opts).expect("Post-Select runs");
        assert_eq!(rs.rows, expect, "{buffers} buffers");
        assert!(report.peak_ram_buffers <= buffers, "{buffers} buffers");
    }
}
