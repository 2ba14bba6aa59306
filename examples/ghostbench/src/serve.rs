//! `serve-burst`: bursts of queries against the in-process `GhostDbServer`.
//!
//! The pool of Q-template queries is cut into fixed bursts of 8, spread
//! over 4 sessions. The bursts share one hidden probe (`T12.h2` at
//! sH = 0.1), so a burst's queries share a climbing-index traversal: the
//! batch scheduler engages, where queries arriving one at a time would
//! bypass it. One client thread submits a burst, drains
//! the server and takes every outcome, then moves to the next burst in a
//! seeded order (closed loop). Every outcome of a burst arrives with the
//! same drain, so a burst's latency — first submit to last outcome taken —
//! is the latency of each of its queries.

use crate::oracle::Prepared;
use crate::sql::{lit, load_synthetic, stratum, Loaded, SLOTS};
use crate::stats::{median, ms, Cycle, Rng};
use crate::trace::{Layers, ReportAcc, Tracer};
use crate::{traced_result, Args, Pass, RunResult};
use ghostdb_core::{GhostDbServer, ServeConfig, Session};
use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::ExecOptions;
use ghostdb_flash::FlashTiming;
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
const BURST: usize = 8;

/// Untimed rounds over the pool before measuring. Queries write
/// temporaries to flash, and after about a thousand of them the device
/// reaches its garbage-collection watermark and stays there; from then on
/// `drain` declines the parallel schedule (it needs an eighth of the device
/// free). 42 rounds of 48 queries start the measurement in that steady
/// state rather than in the transient before it.
const WARMUP_ROUNDS: usize = 42;

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut spec = SyntheticSpec::paper(0.01);
    spec.visible_attrs = 3;
    let Loaded {
        ghost,
        pool,
        setup_s,
        footprint,
    } = load_synthetic(spec, |ds| q_pool(ds, args.seed))?;
    let flash = &ghost.database().ok_or("database not loaded")?.token.flash;
    let timing = (*flash.timing(), flash.page_size());
    let server = ghost
        .into_server(ServeConfig::new().queue_depth(32).workers(2).batching(true))
        .map_err(|e| e.to_string())?;
    let sessions: Vec<Session<'_>> = (0..SESSIONS).map(|_| server.session()).collect();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    Rng::new(args.seed ^ 0xb0b5).shuffle(&mut order);
    let bursts: Vec<&[usize]> = order.chunks(BURST).collect();
    let serve = |secs: Duration, min_rounds: usize, tracing: Option<&mut Tracing>| {
        rounds(
            &server,
            &sessions,
            &pool,
            &bursts,
            args.seed,
            (secs, min_rounds),
            tracing,
        )
    };
    let warm = serve(Duration::ZERO, WARMUP_ROUNDS, None)?;
    if warm.failed > 0 {
        return Err(format!("{} queries failed during warm-up", warm.failed));
    }

    if !args.trace {
        let pass = serve(args.seconds, 1, None)?;
        return Ok(pass.end_to_end(setup_s, footprint.flash_per_user_byte));
    }
    let half = args.seconds / 2;
    let base = serve(half, 1, None)?;
    let before = server.batch_stats();
    let mut tracing = Tracing {
        tracer: Tracer::new(),
        acc: ReportAcc::default(),
        timing,
        drain_ms: Vec::new(),
    };
    let pass = serve(half, 1, Some(&mut tracing))?;
    let after = server.batch_stats();
    let mut layers = Layers::default();
    tracing.acc.emit(&mut layers);
    let batches = (after.batches - before.batches).max(1) as f64;
    let queries = (after.queries - before.queries).max(1) as f64;
    layers.set("serve.drain_ms_p50", median(&tracing.drain_ms));
    layers.set(
        "serve.shared_probe_share",
        (after.saved_traversals - before.saved_traversals) as f64 / queries,
    );
    layers.set(
        "serve.parallel_drain_share",
        (after.parallel_drains - before.parallel_drains) as f64 / batches,
    );
    layers.set(
        "trace.unattributed_pct",
        tracing.tracer.unattributed_pct("serve.burst"),
    );
    Ok(traced_result(
        &base,
        &pass,
        &pool,
        &footprint,
        layers,
        tracing.tracer,
    ))
}

/// State of the traced pass.
struct Tracing {
    tracer: Tracer,
    acc: ReportAcc,
    timing: (FlashTiming, usize),
    drain_ms: Vec<f64>,
}

/// Serve whole rounds over the bursts, each round in a fresh seeded order,
/// until `secs` have passed and at least `min_rounds` are done.
fn rounds(
    server: &GhostDbServer,
    sessions: &[Session<'_>],
    pool: &[Prepared],
    bursts: &[&[usize]],
    seed: u64,
    (secs, min_rounds): (Duration, usize),
    mut tracing: Option<&mut Tracing>,
) -> Result<Pass, String> {
    let mut pass = Pass::new(pool.len());
    let opts = ExecOptions::new();
    let mut op = 0u64;
    let start = Instant::now();
    for (n, b) in Cycle::new(seed, bursts.len()).enumerate() {
        if n.is_multiple_of(bursts.len())
            && n / bursts.len() >= min_rounds
            && start.elapsed() >= secs
        {
            break;
        }
        let burst = bursts[b];
        let t0 = Instant::now();
        let mut admitted = vec![true; burst.len()];
        for (j, &q) in burst.iter().enumerate() {
            if let Err(e) = sessions[j % SESSIONS].submit(&pool[q].spj, &opts) {
                pass.fail(&format!("{}: {e}", pool[q].sql));
                admitted[j] = false;
            }
        }
        let d0 = Instant::now();
        server.drain().map_err(|e| format!("drain failed: {e}"))?;
        let d1 = Instant::now();
        // Per session, outcomes come back in submission order: session `s`
        // holds the burst's queries `s`, `s + SESSIONS`, ….
        let mut outcomes: Vec<_> = (0..burst.len()).map(|_| None).collect();
        for (s, session) in sessions.iter().enumerate() {
            let mut slots = (s..burst.len()).step_by(SESSIONS).filter(|&j| admitted[j]);
            while let Some(outcome) = session.take() {
                let j = slots
                    .next()
                    .ok_or("an outcome arrived for an unknown submission")?;
                outcomes[j] = Some(outcome);
            }
        }
        let t1 = Instant::now();
        for (j, &q) in burst.iter().enumerate() {
            let p = &pool[q];
            let out = match outcomes[j].take() {
                Some(Ok(o)) if o.result.rows == p.expected => o,
                Some(Ok(_)) => {
                    pass.fail(&format!("{}: wrong result", p.sql));
                    continue;
                }
                Some(Err(e)) => {
                    pass.fail(&format!("{}: {e}", p.sql));
                    continue;
                }
                None => {
                    if admitted[j] {
                        pass.fail(&format!("{}: no outcome after the drain", p.sql));
                    }
                    continue;
                }
            };
            if let Some(t) = tracing.as_deref_mut() {
                if let Err(e) = t.acc.add(&out.report, &t.timing.0, t.timing.1) {
                    pass.fail(&format!("{}: {e}", p.sql));
                    continue;
                }
                t.acc.add_host(&out.trace);
            }
            let sim_ns = out.report.total().as_ns();
            pass.ok(op + j as u64, ms(t1 - t0), sim_ns, p.best_ns);
        }
        if let Some(t) = tracing.as_deref_mut() {
            t.drain_ms.push(ms(d1 - d0));
            let root = t.tracer.record("serve.burst", t0, t1, None, Some(op));
            t.tracer
                .record("serve.submit", t0, d0, Some(root), Some(op));
            t.tracer.record("serve.drain", d0, d1, Some(root), Some(op));
            t.tracer.record("serve.take", d1, t1, Some(root), Some(op));
        }
        op += burst.len() as u64;
    }
    Ok(pass)
}

/// The Q template (§6.4) with one seeded sV per selectivity slot of
/// 0.001–0.1, all sharing the hidden probe `T12.h2` at sH = 0.1.
fn q_pool(ds: &SyntheticDataset, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let sh = lit(ds, "T12", 0.1);
    (0..SLOTS)
        .map(|slot| {
            let sv = lit(ds, "T1", stratum(&mut rng, slot, 0.001, 0.1));
            format!(
                "SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 \
                 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id \
                 AND T1.v1 < {sv} AND T12.h2 < {sh}"
            )
        })
        .collect()
}
