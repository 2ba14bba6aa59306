//! Property tests: random miniature databases × random SPJ queries ×
//! random strategies, projection algorithms and pad modes must always
//! (a) match the trusted oracle, (b) respect the secure-RAM budget, (c)
//! keep the channel transcript clean. Padded runs ship every visible id
//! list in a power-of-two row bucket (the SECURITY.md volume
//! countermeasure), so this is the check that padding changes no result
//! under any strategy.

use ghostdb_datagen::{pad8, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{ExecOptions, Executor, SpjQuery};
use ghostdb_reference::RefQuery;
use ghostdb_storage::{CmpOp, Predicate};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct QSpec {
    vis_t1_sel: Option<u32>,  // v1 < k on T1 (of 200)
    hid_t12_sel: Option<u32>, // h2 < k on T12 (of 20)
    hid_t0_sel: Option<u32>,  // h1 < k on T0 (of 2000)
    project_h1: bool,
    strategy: usize,
    algo: usize,
    padded: bool,
}

fn qspec() -> impl Strategy<Value = QSpec> {
    (
        proptest::option::of(0u32..=200),
        proptest::option::of(0u32..=20),
        proptest::option::of(0u32..=2000),
        any::<bool>(),
        0usize..7,
        0usize..3,
        any::<bool>(),
    )
        .prop_map(
            |(vis_t1_sel, hid_t12_sel, hid_t0_sel, project_h1, strategy, algo, padded)| QSpec {
                vis_t1_sel,
                hid_t12_sel,
                hid_t0_sel,
                project_h1,
                strategy,
                algo,
                padded,
            },
        )
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_queries_match_the_oracle(spec in qspec()) {
        // One shared dataset (seeded, deterministic) — rebuilt per case to
        // keep cases independent; T0 = 2000.
        let mut dspec = SyntheticSpec::small();
        dspec.indexed = vec![
            ("T12".into(), "h2".into()),
            ("T0".into(), "h1".into()),
            ("T1".into(), "h1".into()),
        ];
        let ds = SyntheticDataset::generate(dspec);
        let mut db = ds.build().expect("build");
        let oracle = ds.ref_db();

        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let t12 = db.schema.table_id("T12").unwrap();

        let mut q = SpjQuery::new().project(t0, "id").project(t1, "id");
        let mut rq = RefQuery {
            predicates: vec![],
            projections: vec![(t0, "id".into()), (t1, "id".into())],
        };
        if let Some(k) = spec.vis_t1_sel {
            let p = Predicate::new("v1", CmpOp::Lt, pad8(k as u64), None);
            q = q.pred(t1, p.clone());
            rq.predicates.push((t1, p));
        }
        if let Some(k) = spec.hid_t12_sel {
            let p = Predicate::new("h2", CmpOp::Lt, pad8(k as u64), None);
            q = q.pred(t12, p.clone());
            rq.predicates.push((t12, p));
        }
        if let Some(k) = spec.hid_t0_sel {
            let p = Predicate::new("h1", CmpOp::Lt, pad8(k as u64), None);
            q = q.pred(t0, p.clone());
            rq.predicates.push((t0, p));
        }
        if spec.project_h1 {
            q = q.project(t1, "h1");
            rq.projections.push((t1, "h1".into()));
        }
        q.text = format!("{spec:?}");

        let opts = ExecOptions {
            forced_strategy: Some(STRATEGIES[spec.strategy]),
            project: Some(ALGOS[spec.algo]),
            padded: spec.padded,
            ..Default::default()
        };
        let run = Executor::run(&mut db, &q, &opts);
        match run {
            Ok((rs, report)) => {
                let expect = oracle.run(&rq).expect("oracle");
                prop_assert_eq!(rs.rows, expect, "results diverge");
                prop_assert!(report.peak_ram_buffers <= db.token.ram.capacity());
                let audit = ghostdb_core::audit_transcript(db.token.channel.transcript());
                prop_assert!(audit.ok, "transcript violation: {}", audit);
            }
            Err(ghostdb_exec::ExecError::StrategyNotApplicable(_)) => {
                // Cross strategies legitimately refuse when there is no
                // hidden selection in the subtree; nothing else may fail.
                let is_cross = matches!(
                    STRATEGIES[spec.strategy],
                    VisStrategy::CrossPre | VisStrategy::CrossPost | VisStrategy::CrossPostSelect
                );
                prop_assert!(is_cross, "only Cross may be inapplicable");
            }
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        }
    }
}
