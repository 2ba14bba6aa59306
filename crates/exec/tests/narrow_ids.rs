//! Narrow id cells at their byte boundaries. Projection temporaries size
//! each id cell by its table's row count: 1 byte up to 256 rows, 2 bytes
//! from 257. These datasets put the root (|T0| = 256 / 257) and the
//! middle tables (|T1| = |T2| = 256 / 257) on either side of that
//! boundary, and every strategy × projection algorithm must return what
//! the `reference` oracle returns, for a selective query and for one that
//! keeps every root, so positions and ids reach `|T| − 1`.

use ghostdb_datagen::{pad8, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{ExecError, ExecOptions, Executor, SpjQuery};
use ghostdb_reference::RefQuery;
use ghostdb_storage::{CmpOp, Predicate, TableId};

const STRATEGIES: [VisStrategy; 7] = [
    VisStrategy::Pre,
    VisStrategy::CrossPre,
    VisStrategy::Post,
    VisStrategy::CrossPost,
    VisStrategy::PostSelect,
    VisStrategy::CrossPostSelect,
    VisStrategy::NoFilter,
];
const ALGOS: [ProjectAlgo; 3] = [
    ProjectAlgo::Project,
    ProjectAlgo::ProjectNoBf,
    ProjectAlgo::BruteForce,
];

/// The same SPJ query for the executor and the oracle.
fn both(preds: &[(TableId, Predicate)], projections: &[(TableId, &str)]) -> (SpjQuery, RefQuery) {
    let mut q = SpjQuery::new();
    for (t, p) in preds {
        q = q.pred(*t, p.clone());
    }
    for (t, c) in projections {
        q = q.project(*t, c);
    }
    q.text = format!("{preds:?} {projections:?}");
    let rq = RefQuery {
        predicates: preds.to_vec(),
        projections: projections
            .iter()
            .map(|(t, c)| (*t, c.to_string()))
            .collect(),
    };
    (q, rq)
}

/// Run every strategy × algorithm over a dataset of root cardinality
/// `rows_t0` and check each against the oracle.
fn agree_with_the_oracle(rows_t0: u64) {
    let mut spec = SyntheticSpec::small();
    spec.rows_t0 = rows_t0;
    let ds = SyntheticDataset::generate(spec);
    let mut db = ds.build().expect("build");
    let oracle = ds.ref_db();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t2 = db.schema.table_id("T2").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    let queries = [
        // Visible on T1, hidden on T12 and T0, values from both sides.
        both(
            &[
                (t1, ds.selectivity_pred("T1", "v1", 0.4)),
                (t12, ds.selectivity_pred("T12", "h2", 0.6)),
                (t0, ds.selectivity_pred("T0", "h1", 0.7)),
            ],
            &[
                (t0, "id"),
                (t1, "id"),
                (t1, "v1"),
                (t1, "h1"),
                (t12, "id"),
                (t0, "h2"),
            ],
        ),
        // Every root survives: F' holds |T0| positions and each table's
        // ids up to |Ti| − 1.
        both(
            &[
                (t2, Predicate::new("v1", CmpOp::Lt, pad8(99_999_999), None)),
                (t12, Predicate::new("h2", CmpOp::Lt, pad8(99_999_999), None)),
            ],
            &[(t0, "id"), (t1, "id"), (t1, "h1"), (t2, "id"), (t2, "v1")],
        ),
    ];
    for (q, rq) in &queries {
        let expect = oracle.run(rq).expect("oracle");
        assert!(!expect.is_empty(), "{}: the query selects nothing", q.text);
        for strategy in STRATEGIES {
            for algo in ALGOS {
                let opts = ExecOptions {
                    forced_strategy: Some(strategy),
                    project: Some(algo),
                    ..Default::default()
                };
                let label = format!("|T0| = {rows_t0}, {} × {}", strategy.name(), algo.name());
                match Executor::run(&mut db, q, &opts) {
                    Ok((rs, _)) => assert_eq!(rs.rows, expect, "{label}: {}", q.text),
                    // Cross strategies refuse without a hidden selection in
                    // the visible table's subtree; nothing else may fail.
                    Err(ExecError::StrategyNotApplicable(_))
                        if matches!(
                            strategy,
                            VisStrategy::CrossPre
                                | VisStrategy::CrossPost
                                | VisStrategy::CrossPostSelect
                        ) => {}
                    Err(e) => panic!("{label}: {e}"),
                }
            }
        }
    }
}

#[test]
fn a_one_byte_root() {
    agree_with_the_oracle(256);
}

#[test]
fn a_two_byte_root() {
    agree_with_the_oracle(257);
}

#[test]
fn one_byte_middle_tables() {
    // |T1| = |T2| = 2569 / 10 = 256.
    agree_with_the_oracle(2569);
}

#[test]
fn two_byte_middle_tables() {
    // |T1| = |T2| = 2570 / 10 = 257.
    agree_with_the_oracle(2570);
}
