//! Serve-mode equivalence: the cross-query batch scheduler is a pure
//! wall-clock optimization. For every filtering strategy, queue depth and
//! session count, each query served through a batching [`GhostDbServer`]
//! must produce the same rows, the same `ExecReport` in every field, the
//! same host trace and the same per-query wire transcript as (a) the same
//! server with batching disabled and (b) a plain `Executor::run` loop
//! executing the identical arrival sequence. `SECURITY.md` names this file
//! as the enforcement of the claim that batching is token-side only.

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{
    Database, ExecOptions, ExecReport, Executor, GhostDbServer, HostTrace, QueryOutcome, ResultSet,
    ServeConfig, SpjQuery,
};
use ghostdb_token::TranscriptEntry;

const STRATEGIES: [VisStrategy; 7] = [
    VisStrategy::Pre,
    VisStrategy::CrossPre,
    VisStrategy::Post,
    VisStrategy::CrossPost,
    VisStrategy::PostSelect,
    VisStrategy::CrossPostSelect,
    VisStrategy::NoFilter,
];
const DEPTHS: [usize; 3] = [1, 4, 16];
const SESSIONS: [usize; 3] = [1, 2, 4];

fn dataset() -> SyntheticDataset {
    let mut spec = SyntheticSpec::paper(0.0005);
    spec.seed = 43;
    SyntheticDataset::generate(spec)
}

fn capture_db(ds: &SyntheticDataset) -> Database {
    let mut db = ds.build().expect("build");
    db.token.channel.set_capture(true);
    db
}

/// `n` queries; most share the hidden probe `T12.h2 @ 0.1` (the batchable
/// key), every fourth uses `0.2` instead so each batch also carries a
/// minority key, and the visible selectivity cycles so result shapes vary.
fn workload(ds: &SyntheticDataset, n: usize, label: &str) -> Vec<SpjQuery> {
    let t0 = ds.schema.root();
    let t1 = ds.schema.table_id("T1").expect("T1");
    let t12 = ds.schema.table_id("T12").expect("T12");
    (0..n)
        .map(|i| {
            let sv = [0.02, 0.05, 0.1, 0.2][i % 4];
            let sh = if i % 4 == 3 { 0.2 } else { 0.1 };
            let mut q = SpjQuery::new()
                .pred(t1, ds.selectivity_pred("T1", "v1", sv))
                .pred(t12, ds.selectivity_pred("T12", "h2", sh))
                .project(t0, "id")
                .project(t1, "v1")
                .project(t12, "h1");
            q.text = format!("serve-eq {label} #{i} sv={sv} sh={sh}");
            q
        })
        .collect()
}

/// Everything one solo execution observed.
struct SoloRef {
    result: ResultSet,
    report: ExecReport,
    trace: HostTrace,
    transcript: Vec<TranscriptEntry>,
}

fn run_solo(db: &mut Database, q: &SpjQuery, opts: &ExecOptions) -> SoloRef {
    let (result, report) = Executor::run(db, q, opts).expect("solo run");
    SoloRef {
        result,
        report,
        trace: db.untrusted.trace(),
        transcript: db.token.channel.transcript().to_vec(),
    }
}

fn assert_outcome_matches(out: &QueryOutcome, solo: &SoloRef, ctx: &str) {
    assert_eq!(out.result, solo.result, "{ctx}: results diverge");
    assert_eq!(
        out.report, solo.report,
        "{ctx}: ExecReport diverges from solo"
    );
    assert_eq!(out.trace, solo.trace, "{ctx}: host trace diverges");
    assert_eq!(
        out.transcript, solo.transcript,
        "{ctx}: wire transcript diverges"
    );
}

/// Submit `queries` round-robin across `n_sessions` sessions of `server`,
/// drain once, and return the outcomes in arrival order.
fn serve_round(
    server: &GhostDbServer,
    queries: &[SpjQuery],
    opts: &ExecOptions,
    n_sessions: usize,
) -> Vec<QueryOutcome> {
    let sessions: Vec<_> = (0..n_sessions).map(|_| server.session()).collect();
    for (i, q) in queries.iter().enumerate() {
        sessions[i % n_sessions]
            .submit(q, opts)
            .expect("admission within depth");
    }
    server.drain().expect("drain");
    // Reassemble arrival order from the per-session completion queues
    // (each session delivers its own outcomes in order).
    let mut per_session: Vec<Vec<QueryOutcome>> = sessions
        .iter()
        .map(|s| {
            let mut outs = Vec::new();
            while let Some(o) = s.take() {
                outs.push(o.expect("query ok"));
            }
            outs
        })
        .collect();
    (0..queries.len())
        .map(|i| per_session[i % n_sessions].remove(0))
        .collect()
}

/// The full matrix: 7 strategies × queue depths {1,4,16} × sessions
/// {1,2,4}; batched server ≡ unbatched server ≡ solo loop, query by query,
/// field by field. One database per server (reused across the matrix) and
/// one solo database replaying the identical global execution sequence, so
/// all three histories stay aligned.
#[test]
fn serve_batched_equals_solo_across_matrix() {
    let ds = dataset();
    let mut solo_db = capture_db(&ds);
    let batched: Vec<GhostDbServer> = DEPTHS
        .iter()
        .map(|&d| {
            GhostDbServer::new(capture_db(&ds), ServeConfig::new().queue_depth(d))
                .expect("batched server")
        })
        .collect();
    let unbatched: Vec<GhostDbServer> = DEPTHS
        .iter()
        .map(|&d| {
            GhostDbServer::new(
                capture_db(&ds),
                ServeConfig::new().queue_depth(d).batching(false),
            )
            .expect("unbatched server")
        })
        .collect();

    for strategy in STRATEGIES {
        let opts = ExecOptions::new().strategy(strategy);
        for (di, &depth) in DEPTHS.iter().enumerate() {
            for &n_sessions in &SESSIONS {
                let label = format!("{} d{depth} s{n_sessions}", strategy.name());
                let queries = workload(&ds, depth, &label);
                let solo: Vec<SoloRef> = queries
                    .iter()
                    .map(|q| run_solo(&mut solo_db, q, &opts))
                    .collect();
                let saved_before = batched[di].batch_stats().saved_traversals;
                let outs_b = serve_round(&batched[di], &queries, &opts, n_sessions);
                let outs_u = serve_round(&unbatched[di], &queries, &opts, n_sessions);
                for (i, solo_ref) in solo.iter().enumerate() {
                    assert_outcome_matches(&outs_b[i], solo_ref, &format!("{label} batched #{i}"));
                    assert_outcome_matches(
                        &outs_u[i],
                        solo_ref,
                        &format!("{label} unbatched #{i}"),
                    );
                }
                if depth >= 4 {
                    assert!(
                        batched[di].batch_stats().saved_traversals > saved_before,
                        "{label}: the batch scheduler never engaged — equivalence is vacuous"
                    );
                }
            }
        }
    }
}

/// A drain at one analysis worker and at four delivers outcomes
/// bit-identical to the solo `Executor::run` loop — results, every
/// `ExecReport` field, host trace and wire transcript.
#[test]
fn drain_matches_solo_at_one_and_four_workers() {
    let ds = dataset();
    let mut solo_db = capture_db(&ds);
    for strategy in [
        VisStrategy::Pre,
        VisStrategy::CrossPost,
        VisStrategy::NoFilter,
    ] {
        let opts = ExecOptions::new().strategy(strategy);
        let queries = workload(&ds, 8, &format!("workers {}", strategy.name()));
        let solo: Vec<SoloRef> = queries
            .iter()
            .map(|q| run_solo(&mut solo_db, q, &opts))
            .collect();
        let w1 = GhostDbServer::new(
            capture_db(&ds),
            ServeConfig::new().queue_depth(8).workers(1),
        )
        .expect("1-worker server");
        let w4 = GhostDbServer::new(
            capture_db(&ds),
            ServeConfig::new().queue_depth(8).workers(4),
        )
        .expect("4-worker server");
        let outs_1 = serve_round(&w1, &queries, &opts, 2);
        let outs_4 = serve_round(&w4, &queries, &opts, 2);
        for (i, solo_ref) in solo.iter().enumerate() {
            let label = strategy.name();
            assert_outcome_matches(&outs_1[i], solo_ref, &format!("{label} w1 #{i}"));
            assert_outcome_matches(&outs_4[i], solo_ref, &format!("{label} w4 #{i}"));
        }
    }
}

/// Run-to-run determinism: the same arrival sequence on fresh servers
/// produces bit-identical outcome vectors, run after run.
#[test]
fn serve_outcomes_deterministic_across_runs() {
    let ds = dataset();
    let opts = ExecOptions::new().strategy(VisStrategy::CrossPost);
    let queries = workload(&ds, 8, "determinism");
    let run = || {
        let server =
            GhostDbServer::new(capture_db(&ds), ServeConfig::new().queue_depth(8)).expect("server");
        serve_round(&server, &queries, &opts, 2)
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a.result, b.result, "#{i}: results drift across runs");
        assert_eq!(a.report, b.report, "#{i}: reports drift across runs");
        assert_eq!(a.trace, b.trace, "#{i}: traces drift across runs");
        assert_eq!(
            a.transcript, b.transcript,
            "#{i}: transcripts drift across runs"
        );
    }
}

/// The SECURITY.md leakage claim, explicitly: enabling the batch scheduler
/// changes NOTHING a wire snooper or the untrusted PC can see — every
/// per-query transcript entry (tag, byte count, payload) and every host
/// trace event is identical with batching on and off, even while the
/// scheduler demonstrably shares traversals.
#[test]
fn batching_leaves_per_query_wire_transcripts_unchanged() {
    let ds = dataset();
    let opts = ExecOptions::new().strategy(VisStrategy::CrossPre);
    let queries = workload(&ds, 12, "leakage");
    let on = GhostDbServer::new(capture_db(&ds), ServeConfig::new().queue_depth(12))
        .expect("batching on");
    let off = GhostDbServer::new(
        capture_db(&ds),
        ServeConfig::new().queue_depth(12).batching(false),
    )
    .expect("batching off");
    let outs_on = serve_round(&on, &queries, &opts, 3);
    let outs_off = serve_round(&off, &queries, &opts, 3);
    assert!(
        on.batch_stats().saved_traversals > 0,
        "scheduler must actually have shared traversals"
    );
    assert_eq!(off.batch_stats().saved_traversals, 0);
    for (i, (a, b)) in outs_on.iter().zip(&outs_off).enumerate() {
        assert_eq!(
            a.transcript, b.transcript,
            "query #{i}: batching altered the wire transcript"
        );
        assert_eq!(
            a.trace, b.trace,
            "query #{i}: batching altered the host trace"
        );
    }
}
