//! Host-trace determinism: the sequence of requests the engine makes of
//! the untrusted PC is a pure function of (query, visible data, pad mode).
//! It must be bit-identical across repeated runs and across fresh
//! databases — otherwise scheduling or allocator noise would itself be a
//! covert channel, and the leakage suite (`tests/leakage.rs`) could pass
//! on one machine and fail on another. A query contacts the host only
//! through its one channel, so any diff here means some path made a host
//! request that depends on more than the query and the visible data.

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{
    Database, ExecOptions, Executor, GhostDbServer, HostTrace, ServeConfig, SpjQuery,
};

const STRATEGIES: [VisStrategy; 7] = [
    VisStrategy::Pre,
    VisStrategy::CrossPre,
    VisStrategy::Post,
    VisStrategy::CrossPost,
    VisStrategy::PostSelect,
    VisStrategy::CrossPostSelect,
    VisStrategy::NoFilter,
];

fn dataset() -> SyntheticDataset {
    let mut spec = SyntheticSpec::paper(0.0005);
    spec.seed = 41;
    SyntheticDataset::generate(spec)
}

fn query(ds: &SyntheticDataset) -> SpjQuery {
    let t0 = ds.schema.root();
    let t1 = ds.schema.table_id("T1").expect("T1");
    let t12 = ds.schema.table_id("T12").expect("T12");
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", 0.05))
        .pred(t12, ds.selectivity_pred("T12", "h2", 0.1))
        .project(t0, "id")
        .project(t1, "v1")
        .project(t12, "h1");
    q.text = "host-trace-determinism-Q".into();
    q
}

fn run_trace(db: &mut Database, q: &SpjQuery, opts: &ExecOptions) -> HostTrace {
    Executor::run(db, q, opts).expect("run");
    db.untrusted.trace()
}

/// Every strategy, padded and exact: two fresh databases record the same
/// host trace bit for bit.
#[test]
fn host_trace_identical_across_fresh_databases() {
    let ds = dataset();
    let q = query(&ds);
    for strategy in STRATEGIES {
        for padded in [false, true] {
            let opts = ExecOptions::new()
                .strategy(strategy)
                .project(ProjectAlgo::Project)
                .padded(padded);
            let mut db_a = ds.build().expect("build");
            let first = run_trace(&mut db_a, &q, &opts);
            assert!(
                !first.is_empty(),
                "every query contacts the host at least once"
            );
            let mut db_b = ds.build().expect("build");
            let second = run_trace(&mut db_b, &q, &opts);
            assert_eq!(
                first,
                second,
                "{}/padded={padded}: host trace diverges",
                strategy.name()
            );
        }
    }
}

/// Repeated runs on fresh databases record the same trace — and a repeat
/// on the *same* database too (each query resets the trace).
#[test]
fn host_trace_identical_across_repeats() {
    let ds = dataset();
    let q = query(&ds);
    let opts = ExecOptions::new()
        .strategy(VisStrategy::CrossPre)
        .project(ProjectAlgo::Project)
        .padded(true);
    let mut db_a = ds.build().expect("build");
    let first = run_trace(&mut db_a, &q, &opts);
    let again_same_db = run_trace(&mut db_a, &q, &opts);
    let mut db_b = ds.build().expect("build");
    let fresh = run_trace(&mut db_b, &q, &opts);
    assert_eq!(first, again_same_db, "per-query trace reset failed");
    assert_eq!(first, fresh, "trace depends on database instance");
}

/// The ingest flow is as deterministic as the query flow: building the
/// same logical content twice — staging, download, index construction, GC
/// included — produces bit-identical wire transcripts, host traces and
/// flash counters. Scheduling or allocator noise in the write path would
/// otherwise be a covert channel of its own (SECURITY.md claim 13).
#[test]
fn ingest_replay_is_deterministic() {
    use ghostdb_core::{GhostDb, GhostDbConfig};
    use ghostdb_storage::Value;

    let build = || {
        let mut db = GhostDb::new(GhostDbConfig {
            capture_channel: true,
            ..Default::default()
        });
        db.execute("CREATE TABLE Ledger (id INT, bucket CHAR(8), amount INT HIDDEN)")
            .expect("DDL");
        db.insert_rows(
            "Ledger",
            (0..96)
                .map(|i| vec![Value::Str(format!("B{:03}", i % 11)), Value::Int(i * 7)])
                .collect(),
        )
        .expect("load");
        db.finalize().expect("finalize");
        db
    };
    let a = build();
    let b = build();
    let view = |db: &GhostDb| {
        let inner = db.database().expect("loaded");
        (
            inner.token.channel.transcript().to_vec(),
            db.host_trace().expect("trace"),
            inner.token.flash.stats(),
        )
    };
    assert_eq!(view(&a), view(&b), "ingest replay diverged");
}

/// The trace reset lives with the session, not the database: when two
/// serve-mode sessions interleave on one server, each session's captured
/// trace is exactly the solo trace of its own query — session B's traffic
/// never clobbers what session A observed.
#[test]
fn host_trace_survives_a_second_session() {
    let ds = dataset();
    let q_a = query(&ds);
    let mut q_b = query(&ds);
    // Session B runs a different query shape (extra projection) so a
    // clobbered trace cannot accidentally match.
    q_b = q_b.project(ds.schema.table_id("T1").expect("T1"), "id");
    q_b.text = "host-trace-determinism-Q-b".into();
    let opts = ExecOptions::new()
        .strategy(VisStrategy::CrossPre)
        .project(ProjectAlgo::Project);

    // Solo references.
    let mut solo_db = ds.build().expect("build");
    let solo_a = run_trace(&mut solo_db, &q_a, &opts);
    let solo_b = run_trace(&mut solo_db, &q_b, &opts);
    assert_ne!(solo_a, solo_b, "the two queries must observe differently");

    // Two sessions on one server: A's query executes, then B's; A's
    // captured trace must still read back as the solo trace afterwards.
    let server =
        GhostDbServer::new(ds.build().expect("build"), ServeConfig::default()).expect("server");
    let sa = server.session();
    let sb = server.session();
    let out_a = sa.query(&q_a, &opts).expect("session A query");
    let out_b = sb.query(&q_b, &opts).expect("session B query");
    assert_eq!(out_a.trace, solo_a, "session A trace diverges from solo");
    assert_eq!(out_b.trace, solo_b, "session B trace diverges from solo");
    assert_eq!(
        sa.host_trace().expect("A has a trace"),
        solo_a,
        "session B's query clobbered session A's captured trace"
    );
}
