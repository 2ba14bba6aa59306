//! Wall-clock performance baseline for the repo: runs a deterministic
//! scenario matrix (synthetic scales × filtering strategies × projection
//! algorithms, plus the medical workload and per-operator microbenches)
//! and writes a machine-readable `BENCH.json` — the number every future
//! perf PR is judged against.
//!
//! ```text
//! perfbench [--smoke] [--out BENCH.json]
//! perfbench --check BENCH.json
//! perfbench --compare A.json B.json [--tolerance PCT] [--exact]
//! ```
//!
//! Each mode runs one fixed matrix: full at synthetic x0.01 + x0.05 and
//! medical x0.2 with 5 timed iterations, smoke at synthetic x0.002 and
//! medical x0.01 with 3. Timing is `std::time::Instant` with warmup +
//! median-of-N; simulated times ride along from the Table 1 cost model
//! (deterministic). Every scenario runs on the calling thread, one after
//! another.

use ghostdb_bench::json::{
    check_bench, compare_exact_sim, compare_micro_wall, compare_scenarios, Json,
};
use ghostdb_bench::perf::{bench_doc, measure, percentile, BenchEntry, RunStats};
use ghostdb_bench::{
    build_medical, build_synthetic, build_synthetic_zipf, medical_q, query_q, run_with,
    run_with_tuned,
};
use ghostdb_bloom::BloomFilter;
use ghostdb_datagen::pad8;
use ghostdb_exec::ci_ops::select_sublists;
use ghostdb_exec::merge::{merge_to_list, merge_to_vec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::sjoin::sjoin_stream;
use ghostdb_exec::source::{IdSource, UnionStream};
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{
    ExecCtx, ExecError, ExecOptions, ExecReport, Executor, GhostDbServer, ServeConfig, SpjQuery,
};
use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
use ghostdb_index::{ClimbingSpec, FkData, IndexBuilder, LevelSpec};
use ghostdb_storage::idlist::write_id_list;
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{CmpOp, Id, Predicate};
use ghostdb_token::RamArena;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
perfbench — wall-clock performance baseline emitting BENCH.json

USAGE:
    perfbench [--smoke] [--out PATH]
    perfbench --check PATH
    perfbench --compare PATH PATH [--tolerance PCT] [--exact]

OPTIONS:
    --smoke            reduced matrix (synthetic x0.002, medical x0.01,
                       3 timed iterations) targeting < 60 s — the CI
                       configuration. The full matrix runs synthetic x0.01
                       and x0.05, medical x0.2, 5 timed iterations
    --out PATH         where to write BENCH.json (default BENCH.json)
    --check PATH       validate an existing BENCH.json and exit
    --compare A B      validate two BENCH.json files and fail if their
                       scenario names drift (e.g. before vs after a change)
    --tolerance PCT    with --compare: judge the common micro/* wall times
                       instead of the name matrix, failing on regressions
                       beyond PCT percent (the CI perf gate; query names
                       may differ, e.g. committed full baseline vs smoke;
                       0 demands exactly-equal wall times)
    --exact            with --compare: additionally require bit-identical
                       simulated_s/ops/bytes_io per scenario (the exact
                       gate; wall_ns stays free)
    -h, --help         print this help and exit

The scenario set is a pure function of the mode: two runs of one mode emit
the same scenarios in the same order (fixed dataset seeds, fixed matrix).
Wall times are medians over the timed iterations; simulated times come
from the Table 1 cost model and are bit-identical across runs.";

struct Opts {
    smoke: bool,
    out: String,
    check: Option<String>,
    compare: Option<(String, String)>,
    tolerance: Option<f64>,
    exact: bool,
}

fn usage_error(msg: &str) -> ! {
    ghostdb_bench::cli::usage_error(msg, USAGE)
}

fn parse_nonnegative(flag: &str, raw: &str) -> f64 {
    ghostdb_bench::cli::parse_nonnegative(flag, raw, USAGE)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        out: "BENCH.json".into(),
        check: None,
        compare: None,
        tolerance: None,
        exact: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let value_of = |args: &[String], i: usize| -> String {
        match args.get(i + 1) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{} requires a value", args[i])),
        }
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            "--out" => {
                opts.out = value_of(&args, i);
                i += 2;
            }
            "--tolerance" => {
                opts.tolerance = Some(parse_nonnegative("--tolerance", &value_of(&args, i)));
                i += 2;
            }
            "--exact" => {
                opts.exact = true;
                i += 1;
            }
            "--check" => {
                opts.check = Some(value_of(&args, i));
                i += 2;
            }
            "--compare" => {
                let a = value_of(&args, i);
                let b = match args.get(i + 2) {
                    Some(v) => v.clone(),
                    None => usage_error("--compare requires two paths"),
                };
                opts.compare = Some((a, b));
                i += 3;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if (opts.tolerance.is_some() || opts.exact) && opts.compare.is_none() {
        usage_error("--tolerance/--exact only apply to --compare");
    }
    opts
}

fn load_doc(verb: &str, path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfbench {verb}: cannot read {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perfbench {verb}: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn run_compare(a: &str, b: &str, tolerance: Option<f64>, exact: bool) -> ! {
    let da = load_doc("--compare", a);
    let db = load_doc("--compare", b);
    let fail = |e: String| -> ! {
        eprintln!("perfbench --compare: {a} vs {b}: {e}");
        std::process::exit(1);
    };
    // The perf regression gate: judge micro wall times within tolerance.
    if let Some(pct) = tolerance {
        match compare_micro_wall(&da, &db, pct) {
            Ok(n) => println!("{a} vs {b}: OK — {n} micro scenarios within +{pct}%"),
            Err(e) => fail(e),
        }
    }
    // The exact gate: names + deterministic observations.
    if exact {
        match compare_exact_sim(&da, &db) {
            Ok(n) => println!(
                "{a} vs {b}: OK — {n} scenarios, identical names and \
                 bit-identical simulated observations"
            ),
            Err(e) => fail(e),
        }
    }
    if tolerance.is_none() && !exact {
        match compare_scenarios(&da, &db) {
            Ok(n) => println!("{a} and {b}: OK — {n} scenarios, identical names and order"),
            Err(e) => fail(e),
        }
    }
    std::process::exit(0);
}

fn run_check(path: &str) -> ! {
    let doc = load_doc("--check", path);
    match check_bench(&doc) {
        Ok(s) => {
            println!(
                "{path}: OK — {} entries ({} query scenarios, {} microbenches)",
                s.entries, s.scenarios, s.micro
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench --check: {path} violates the BENCH schema: {e}");
            std::process::exit(1);
        }
    }
}

fn report_stats(report: &ExecReport) -> RunStats {
    RunStats {
        simulated_s: report.total().as_secs(),
        ops: report.result_rows,
        bytes_io: report.io.bytes_to_ram + report.io.bytes_from_ram,
    }
}

/// [`report_stats`] of a scenario query, which must run: a failure is a
/// perfbench bug, not a point to skip.
fn ran(report: Result<ExecReport, ExecError>) -> RunStats {
    report_stats(&report.expect("perfbench query runs"))
}

/// Run sweep points in order against one database built by `build`.
fn sweep<S>(
    label: &str,
    points: usize,
    build: impl FnOnce() -> S,
    run_point: impl Fn(&mut S, usize) -> BenchEntry,
) -> Vec<BenchEntry> {
    eprintln!("perfbench: {label}: {points} points");
    let mut state = build();
    (0..points).map(|i| run_point(&mut state, i)).collect()
}

/// Visible selectivities the synthetic matrix sweeps for the `Project`
/// algorithm (the paper's x-axis lives on a log scale; these are its low,
/// middle and high anchor points). `BruteForce` runs at the middle point
/// only — its curve shape is selectivity-insensitive by construction (it
/// always loads the whole QEPSJ result), so sweeping it would triple the
/// matrix for flat lines.
const SV_POINTS: [f64; 3] = [0.001, 0.01, 0.1];
const SV_MID: f64 = 0.01;

/// The synthetic query matrix at one scale: full `VisStrategy` sweep under
/// `Project` across the sV anchors, plus the full sweep under `BruteForce`
/// at the middle anchor.
fn synthetic_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let strategies = [
        VisStrategy::Pre,
        VisStrategy::CrossPre,
        VisStrategy::Post,
        VisStrategy::CrossPost,
        VisStrategy::PostSelect,
        VisStrategy::CrossPostSelect,
        VisStrategy::NoFilter,
    ];
    let mut points: Vec<(f64, VisStrategy, ProjectAlgo)> = Vec::new();
    for sv in SV_POINTS {
        for s in strategies {
            points.push((sv, s, ProjectAlgo::Project));
        }
    }
    for s in strategies {
        points.push((SV_MID, s, ProjectAlgo::BruteForce));
    }
    out.extend(sweep(
        &format!("synthetic x{scale}"),
        points.len(),
        || build_synthetic(scale),
        |(ds, db), i| {
            let (sv, strategy, algo) = points[i];
            let q = query_q(ds, db, sv, false);
            let name = format!(
                "synthetic/x{scale}/sv{sv}/{}/{}",
                strategy.name(),
                algo.name()
            );
            eprintln!("perfbench: {name}");
            measure(name, warmup, iters, || {
                ran(run_with(db, &q, strategy, algo))
            })
        },
    ));
}

/// The Zipf-skewed synthetic variant: heavy-headed value distributions at
/// the primary scale, Cross strategies under `Project` (§6.4's Q shape).
fn zipf_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let points = [VisStrategy::CrossPre, VisStrategy::CrossPost];
    out.extend(sweep(
        &format!("synthetic-zipf x{scale}"),
        points.len(),
        || build_synthetic_zipf(scale),
        |(ds, db), i| {
            let strategy = points[i];
            let q = query_q(ds, db, 0.1, false);
            let name = format!("synthetic-zipf/x{scale}/{}", strategy.name());
            eprintln!("perfbench: {name}");
            measure(name, warmup, iters, || {
                ran(run_with(db, &q, strategy, ProjectAlgo::Project))
            })
        },
    ));
}

/// High-cardinality Cross scenarios: the hidden selection sits on `T1.h1`
/// — one distinct key per row, so the index B+-tree spans hundreds of
/// leaves and the CI scan is a visible share of the query. This is where
/// the single-traversal multi-level read path shows up end to end, not
/// just in the `micro/ci/multi-*` isolation pair.
fn hicard_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let points = [VisStrategy::CrossPre, VisStrategy::CrossPost];
    out.extend(sweep(
        &format!("synthetic-hicard x{scale}"),
        points.len(),
        || build_synthetic(scale),
        |(ds, db), i| {
            let strategy = points[i];
            let q = ghostdb_bench::query_q_hicard(ds, db, 0.01, 0.25);
            let name = format!("synthetic-hicard/x{scale}/{}", strategy.name());
            eprintln!("perfbench: {name}");
            measure(name, warmup, iters, || {
                ran(run_with(db, &q, strategy, ProjectAlgo::Project))
            })
        },
    ));
}

/// Exact-vs-pow2 padding A/B pairs: the same Cross query at sV = 0.1 run
/// once with exact-volume Vis shipments and once with the power-of-two
/// padded mode (the SECURITY.md wire-volume countermeasure), so every
/// BENCH.json carries the padding overhead. Every other sweep ships exact
/// volumes.
fn padded_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let points = [
        (VisStrategy::CrossPre, false),
        (VisStrategy::CrossPre, true),
        (VisStrategy::CrossPost, false),
        (VisStrategy::CrossPost, true),
    ];
    out.extend(sweep(
        &format!("synthetic-padded x{scale}"),
        points.len(),
        || build_synthetic(scale),
        |(ds, db), i| {
            let (strategy, padded) = points[i];
            let q = query_q(ds, db, 0.1, false);
            let name = format!(
                "synthetic-padded/x{scale}/{}/{}",
                strategy.name(),
                if padded { "pow2" } else { "exact" }
            );
            eprintln!("perfbench: {name}");
            measure(name, warmup, iters, || {
                ran(run_with_tuned(
                    db,
                    &q,
                    strategy,
                    ProjectAlgo::Project,
                    padded,
                ))
            })
        },
    ));
}

fn medical_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let points = [VisStrategy::CrossPre, VisStrategy::CrossPost];
    out.extend(sweep(
        &format!("medical x{scale}"),
        points.len(),
        || build_medical(scale),
        |(ds, db), i| {
            let strategy = points[i];
            let q = medical_q(ds, db, 0.05);
            let name = format!("medical/x{scale}/{}", strategy.name());
            eprintln!("perfbench: {name}");
            measure(name, warmup, iters, || {
                ran(run_with(db, &q, strategy, ProjectAlgo::Project))
            })
        },
    ));
}

/// The serve-mode family: a closed-loop load generator driving a
/// [`GhostDbServer`] over the synthetic dataset. Every query carries the
/// same hidden probe (`T12.h2` at the paper's sH) and the visible
/// selectivity cycles so result shapes vary. The matrix is sessions
/// {1, 4}; arrival order is deterministic (round-robin across sessions,
/// waves of `queue_depth`). `wall_ns` is the median whole-run time as
/// everywhere else; the `serve/…` entries additionally record per-query
/// submit→outcome latency percentiles — the numbers a closed-loop client
/// actually feels under load. A served query runs exactly as solo
/// (`tests/serve_equivalence.rs`), so `simulated_s`/`ops`/`bytes_io` stay
/// under the `--compare --exact` gate like every other scenario.
fn serve_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    const DEPTH: usize = 8;
    const WAVES: usize = 3;
    const SESSIONS: [usize; 2] = [1, 4];
    for n_sessions in SESSIONS {
        let (ds, db) = build_synthetic(scale);
        let queries: Vec<_> = (0..DEPTH * WAVES)
            .map(|i| query_q(&ds, &db, [0.001, 0.01, 0.1][i % 3], false))
            .collect();
        let opts = ExecOptions::new().strategy(VisStrategy::CrossPost);
        let server =
            GhostDbServer::new(db, ServeConfig::new().queue_depth(DEPTH)).unwrap_or_else(|e| {
                eprintln!("perfbench: serve server build failed: {e}");
                std::process::exit(1);
            });
        let sessions: Vec<_> = (0..n_sessions).map(|_| server.session()).collect();
        let name = format!("serve/x{scale}/s{n_sessions}");
        eprintln!("perfbench: {name}");
        let mut lat: Vec<u128> = Vec::new();
        let mut entry = measure(name.as_str(), warmup, iters, || {
            let mut stats = RunStats::default();
            for wave in queries.chunks(DEPTH) {
                let mut submitted: Vec<Instant> = Vec::with_capacity(wave.len());
                for (i, q) in wave.iter().enumerate() {
                    submitted.push(Instant::now());
                    sessions[i % n_sessions]
                        .submit(q, &opts)
                        .unwrap_or_else(|e| {
                            eprintln!("perfbench: {name}: admission failed: {e}");
                            std::process::exit(1);
                        });
                }
                server.drain().unwrap_or_else(|e| {
                    eprintln!("perfbench: {name}: drain failed: {e}");
                    std::process::exit(1);
                });
                let done = Instant::now();
                for t in submitted {
                    lat.push(done.duration_since(t).as_nanos());
                }
                for s in &sessions {
                    while let Some(o) = s.take() {
                        let o = o.unwrap_or_else(|e| {
                            eprintln!("perfbench: {name}: served query failed: {e}");
                            std::process::exit(1);
                        });
                        stats.simulated_s += o.report.total().as_secs();
                        stats.ops += o.report.result_rows;
                        stats.bytes_io += o.report.io.bytes_to_ram + o.report.io.bytes_from_ram;
                    }
                }
            }
            stats
        });
        // Percentiles over the timed iterations only (each run pushes
        // one sample per query, warmup first).
        let timed = &lat[warmup * queries.len()..];
        entry.percentiles = Some((
            percentile(timed, 0.5),
            percentile(timed, 0.95),
            percentile(timed, 0.99),
        ));
        out.push(entry);
    }
}

/// The open-loop (timed-arrival) serve family. The closed-loop generator
/// above waits for each wave to drain before submitting the next, so
/// queueing delay hides behind client coordination (coordinated omission);
/// here queries arrive on a fixed schedule regardless of server progress,
/// and each latency sample runs from the query's *scheduled arrival* — not
/// the instant it was actually submitted — to the drain that completed it.
/// The inter-arrival gap is calibrated once per point from an untimed
/// closed-loop wave (per-query service time at full depth), so offered
/// load sits at ≈ capacity and queue build-up is visible in the tail.
/// The entry is `serve/x{scale}/open`; its percentiles are
/// arrival→outcome. Simulated observations stay deterministic and
/// schedule-independent (a served query runs exactly as solo), so it sits
/// under `--compare --exact` like every other scenario.
fn serve_open_scenarios(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    const DEPTH: usize = 8;
    const WAVES: usize = 3;
    let (ds, db) = build_synthetic(scale);
    let queries: Vec<_> = (0..DEPTH * WAVES)
        .map(|i| query_q(&ds, &db, [0.001, 0.01, 0.1][i % 3], false))
        .collect();
    let opts = ExecOptions::new().strategy(VisStrategy::CrossPost);
    let server =
        GhostDbServer::new(db, ServeConfig::new().queue_depth(DEPTH)).unwrap_or_else(|e| {
            eprintln!("perfbench: serve-open server build failed: {e}");
            std::process::exit(1);
        });
    let session = server.session();
    let name = format!("serve/x{scale}/open");
    eprintln!("perfbench: {name}");
    let fail = |what: &str, e: String| -> ! {
        eprintln!("perfbench: {name}: {what}: {e}");
        std::process::exit(1);
    };
    // Calibrate the arrival schedule: one untimed closed-loop wave
    // gives the per-query service time at full depth.
    let cal = Instant::now();
    for q in &queries[..DEPTH] {
        session
            .submit(q, &opts)
            .unwrap_or_else(|e| fail("calibration admission failed", e.to_string()));
    }
    server
        .drain()
        .unwrap_or_else(|e| fail("calibration drain failed", e.to_string()));
    let gap = cal.elapsed() / DEPTH as u32;
    while let Some(o) = session.take() {
        o.unwrap_or_else(|e| fail("calibration query failed", e.to_string()));
    }
    let mut lat: Vec<u128> = Vec::new();
    let mut entry = measure(name.as_str(), warmup, iters, || {
        let mut stats = RunStats::default();
        let t0 = Instant::now();
        for (w, wave) in queries.chunks(DEPTH).enumerate() {
            for (i, q) in wave.iter().enumerate() {
                // Hold the submission to its scheduled arrival.
                let due = t0 + gap * (w * DEPTH + i) as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                session
                    .submit(q, &opts)
                    .unwrap_or_else(|e| fail("admission failed", e.to_string()));
            }
            server
                .drain()
                .unwrap_or_else(|e| fail("drain failed", e.to_string()));
            let done = t0.elapsed().as_nanos();
            for i in 0..wave.len() {
                let arrival = (gap * (w * DEPTH + i) as u32).as_nanos();
                lat.push(done.saturating_sub(arrival));
            }
            while let Some(o) = session.take() {
                let o = o.unwrap_or_else(|e| fail("served query failed", e.to_string()));
                stats.simulated_s += o.report.total().as_secs();
                stats.ops += o.report.result_rows;
                stats.bytes_io += o.report.io.bytes_to_ram + o.report.io.bytes_from_ram;
            }
        }
        stats
    });
    let timed = &lat[warmup * queries.len()..];
    entry.percentiles = Some((
        percentile(timed, 0.5),
        percentile(timed, 0.95),
        percentile(timed, 0.99),
    ));
    out.push(entry);
}

/// Bulk ingest through the `GhostDb` facade: stage rows pre-finalize, then
/// time the whole burn — vertical partitioning, download onto the token's
/// flash, and batched per-segment index construction (`finalize()` →
/// `Database::assemble`). `ops` is the staged row count, so rows/sec falls
/// straight out of `ops / (wall_ns / 1e9)`; `simulated_s`/`bytes_io` carry
/// the token-side flash cost of the load (deterministic, so these entries
/// sit under the `--compare --exact` gate).
fn ingest_scenarios(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    use ghostdb_core::{GhostDb, GhostDbConfig};
    use ghostdb_storage::Value;
    for rows in [1024u64, 4096] {
        let name = format!("ingest/ghostdb/rows{rows}");
        eprintln!("perfbench: {name}");
        let entry = measure(name.as_str(), warmup, iters, || {
            let mut db = GhostDb::new(GhostDbConfig::default());
            db.execute(
                "CREATE TABLE Accounts (id INT, branch CHAR(10), balance INT HIDDEN, \
                 owner CHAR(20) HIDDEN)",
            )
            .unwrap_or_else(|e| {
                eprintln!("perfbench: ingest DDL failed: {e}");
                std::process::exit(1);
            });
            db.insert_rows(
                "Accounts",
                (0..rows as i64)
                    .map(|i| {
                        vec![
                            Value::Str(format!("BR{:02}", i % 32)),
                            Value::Int(1_000 + i * 13),
                            Value::Str(format!("owner-{i}")),
                        ]
                    })
                    .collect(),
            )
            .unwrap_or_else(|e| {
                eprintln!("perfbench: ingest staging failed: {e}");
                std::process::exit(1);
            });
            db.finalize().unwrap_or_else(|e| {
                eprintln!("perfbench: ingest finalize failed: {e}");
                std::process::exit(1);
            });
            let flash = &db.database().expect("loaded").token.flash;
            let io = flash.stats();
            RunStats {
                simulated_s: flash.elapsed_since(&Default::default()).as_secs(),
                ops: rows,
                bytes_io: io.bytes_to_ram + io.bytes_from_ram,
            }
        });
        eprintln!(
            "perfbench: {name}: {:.0} rows/s",
            rows as f64 / (entry.wall_ns.max(1) as f64 / 1e9)
        );
        out.push(entry);
    }
}

/// The GC-pressure family: sustained mixed read/write traffic on a device
/// already past the GC watermark (every logical page mapped before the
/// clock starts). Arrivals are open-loop — a fixed schedule calibrated to
/// ≈ capacity from an untimed burst, with each latency sample running from
/// the op's *scheduled arrival* to its completion — so GC stalls surface
/// in the tail instead of hiding behind client coordination, exactly like
/// the `serve/…/open/…` entries. Per-op counters are a pure function of
/// the op sequence (placement never feeds back into billing), so
/// `simulated_s`/`ops`/`bytes_io` stay bit-identical across runs and sit
/// under the `--compare --exact` gate; the in-binary assertion that blocks
/// were actually erased keeps the family honest about being past the
/// watermark.
fn gc_pressure_scenarios(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    const CAL: usize = 256;
    const OPS: usize = 3000;
    let name = "gc-pressure/c1/mixed";
    eprintln!("perfbench: {name}");
    let mut lat: Vec<u128> = Vec::new();
    let mut erased = 0u64;
    let mut entry = {
        let lat = &mut lat;
        let erased = &mut erased;
        measure(name, warmup, iters, || {
            // A fresh device per run keeps the counter deltas a pure
            // function of the op sequence (no cross-iteration GC state).
            let mut dev = FlashDevice::new(
                FlashGeometry {
                    page_size: 2048,
                    pages_per_block: 32,
                    block_count: 64,
                    spare_blocks: 8,
                },
                FlashTiming::default(),
            );
            let span = dev.logical_pages();
            let page_size = dev.page_size();
            let image = vec![0xA5u8; page_size];
            for lpn in 0..span {
                dev.write(lpn, &image).expect("pre-fill");
            }
            // Deterministic mixed op stream: 2/3 full-page overwrites
            // (steady GC pressure), 1/3 reads.
            let mut seed = 0x2545F4914F6CDD1Du64;
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            let mut buf = vec![0u8; 256];
            let mut run_op = |dev: &mut FlashDevice, r: u64| {
                let lpn = (r >> 8) % span;
                if r.is_multiple_of(3) {
                    dev.read(lpn, 0, &mut buf).expect("gc-pressure read");
                } else {
                    let fill = vec![r as u8; page_size];
                    dev.write(lpn, &fill).expect("gc-pressure write");
                }
            };
            // Calibrate the arrival schedule from an untimed burst.
            let cal = Instant::now();
            for _ in 0..CAL {
                run_op(&mut dev, next());
            }
            let gap = cal.elapsed() / CAL as u32;
            // The measured window: open-loop arrivals at ≈ capacity.
            let snap = dev.snapshot();
            let t0 = Instant::now();
            for i in 0..OPS {
                let due = t0 + gap * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                run_op(&mut dev, next());
                let arrival = (gap * i as u32).as_nanos();
                lat.push(t0.elapsed().as_nanos().saturating_sub(arrival));
            }
            let io = dev.stats_since(&snap);
            *erased = io.blocks_erased;
            RunStats {
                simulated_s: dev.elapsed_since(&snap).as_secs(),
                ops: OPS as u64,
                bytes_io: io.bytes_to_ram + io.bytes_from_ram,
            }
        })
    };
    if erased == 0 {
        eprintln!(
            "perfbench: {name}: no blocks erased during the measured window — \
             the device never reached GC pressure"
        );
        std::process::exit(1);
    }
    let timed = &lat[warmup * OPS..];
    entry.percentiles = Some((
        percentile(timed, 0.5),
        percentile(timed, 0.95),
        percentile(timed, 0.99),
    ));
    eprintln!("perfbench: {name}: {erased} blocks erased under load");
    out.push(entry);
}

fn micro_device() -> (FlashDevice, SegmentAllocator, RamArena) {
    let dev = FlashDevice::new(
        FlashGeometry::for_capacity(64 * 1024 * 1024),
        FlashTiming::default(),
    );
    let alloc = SegmentAllocator::new(dev.logical_pages());
    (dev, alloc, RamArena::paper_default())
}

/// k-way heap union over 16 flash lists.
fn micro_union(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let (mut dev, mut alloc, ram) = micro_device();
    let sources: Vec<IdSource> = (0..16u32)
        .map(|k| {
            let ids: Vec<Id> = (0..4000u32).map(|i| i * (k % 5 + 1) + k).collect();
            IdSource::Flash(write_id_list(&mut dev, &mut alloc, &ram, &ids).unwrap())
        })
        .collect();
    out.push(measure("micro/merge/union16_heap", warmup, iters, || {
        let mut u = UnionStream::open(&sources, &ram, dev.page_size()).unwrap();
        let mut n = 0u64;
        while u.next(&mut dev).unwrap().is_some() {
            n += 1;
        }
        RunStats {
            ops: n,
            ..Default::default()
        }
    }));
}

/// Host-resident CNF merge: the galloping fast path.
fn micro_intersect(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let mut db = ghostdb_exec::testkit::tiny_db();
    let a: Arc<Vec<Id>> = Arc::new((0..200_000u32).map(|i| i * 2).collect());
    let b: Arc<Vec<Id>> = Arc::new((0..200_000u32).map(|i| i * 3).collect());
    let groups = |a: &Arc<Vec<Id>>, b: &Arc<Vec<Id>>| {
        vec![
            vec![IdSource::Host(a.clone())],
            vec![IdSource::Host(b.clone())],
        ]
    };
    out.push(measure(
        "micro/idlist/intersect_gallop",
        warmup,
        iters,
        || {
            let mut ctx = ExecCtx::new(&mut db);
            let ids = merge_to_vec(&mut ctx, groups(&a, &b), 600_000).unwrap();
            RunStats {
                ops: ids.len() as u64,
                ..Default::default()
            }
        },
    ));
}

/// Bloom build + probe with single-pair double hashing.
fn micro_bloom(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let n = 100_000u64;
    let m_bits = 8 * n;
    let k = 4u32;
    let bytes = (m_bits as usize).div_ceil(8);
    out.push(measure("micro/bloom/build_dh", warmup, iters, || {
        let mut bf = BloomFilter::new(vec![0u8; bytes], m_bits, k);
        for key in 0..n {
            bf.insert(key);
        }
        std::hint::black_box(&bf);
        RunStats {
            ops: n,
            ..Default::default()
        }
    }));

    let mut bf = BloomFilter::new(vec![0u8; bytes], m_bits, k);
    for key in (0..2 * n).step_by(2) {
        bf.insert(key);
    }
    let probes: Vec<u64> = (0..2 * n).collect();
    let mut scratch: Vec<u64> = Vec::new();
    out.push(measure("micro/bloom/probe_dh", warmup, iters, || {
        bf.retain_into(&probes, &mut scratch);
        std::hint::black_box(scratch.len());
        RunStats {
            ops: probes.len() as u64,
            ..Default::default()
        }
    }));
}

/// Climbing-index equality probes: one batched ascending run sharing the
/// cached leaf.
fn micro_ci_probe(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let schema = paper_synthetic_schema(1, 1);
    let (mut dev, mut alloc, ram) = micro_device();
    let t0 = schema.table_id("T0").unwrap();
    let t1 = schema.table_id("T1").unwrap();
    let t2 = schema.table_id("T2").unwrap();
    let t11 = schema.table_id("T11").unwrap();
    let t12 = schema.table_id("T12").unwrap();
    let (n0, n1) = (40_000u64, 20_000u64);
    let mut rows = vec![0u64; schema.len()];
    rows[t0] = n0;
    rows[t1] = n1;
    rows[t2] = 10;
    rows[t11] = 5;
    rows[t12] = 4;
    let mut fks = FkData::default();
    fks.insert(t0, t1, (0..n0).map(|i| (i / 2) as Id).collect());
    fks.insert(t0, t2, (0..n0).map(|i| (i % 10) as Id).collect());
    fks.insert(t1, t11, (0..n1).map(|i| (i % 5) as Id).collect());
    fks.insert(t1, t12, (0..n1).map(|i| (i % 4) as Id).collect());
    let builder = IndexBuilder::new(schema, rows, fks);
    let keys: Vec<u64> = (0..n1).map(|r| r % 5000).collect();
    let ci = builder
        .build_climbing(
            &mut dev,
            &mut alloc,
            ClimbingSpec {
                table: t1,
                column: "h1",
                keys: &keys,
                levels: LevelSpec::FullClimb,
                exact: true,
            },
        )
        .unwrap();
    let probes: Vec<u64> = (0..2000u64).map(|i| i * 2).collect();
    out.push(measure("micro/ci/probe_run", warmup, iters, || {
        let mut probe = ci.probe(&ram).unwrap();
        let lists = probe.lookup_eq_run(&mut dev, &probes, 1).unwrap();
        RunStats {
            ops: lists.len() as u64,
            ..Default::default()
        }
    }));
}

/// Multi-level climbing-index range scans: the single traversal decoding
/// every requested level per leaf entry (the Cross-Post "redundant lookup"
/// fix). A 4-deep chain schema `C0 ← C1 ← C2 ← C3` gives the index 4
/// levels (48-byte payloads, 36 leaf entries per 2 KiB page), so the
/// full-domain scan walks ~330 leaves once, however many levels decode.
fn micro_ci_multi(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    use ghostdb_storage::schema::{Column, SchemaTree, TableDef};
    use ghostdb_storage::ColumnType;
    let col = || Column::hidden("h", ColumnType::char(8));
    let schema = SchemaTree::new(vec![
        TableDef::new("C0").with_column(col()).with_fk("fk1", "C1"),
        TableDef::new("C1").with_column(col()).with_fk("fk2", "C2"),
        TableDef::new("C2").with_column(col()).with_fk("fk3", "C3"),
        TableDef::new("C3").with_column(col()),
    ])
    .expect("chain schema");
    let (mut dev, mut alloc, ram) = micro_device();
    let rows = vec![80_000u64, 40_000, 20_000, 30_000]; // C0..C3
    let mut fks = FkData::default();
    for parent in 0..3usize {
        let child_rows = rows[parent + 1];
        fks.insert(
            parent,
            parent + 1,
            (0..rows[parent]).map(|i| (i % child_rows) as Id).collect(),
        );
    }
    let keys: Vec<u64> = (0..rows[3]).map(|r| r % 12_000).collect();
    let ci = IndexBuilder::new(schema, rows, fks)
        .build_climbing(
            &mut dev,
            &mut alloc,
            ClimbingSpec {
                table: 3,
                column: "h",
                keys: &keys,
                levels: LevelSpec::FullClimb,
                exact: true,
            },
        )
        .expect("chain index builds");
    assert_eq!(ci.levels.len(), 4);
    let (lo, hi) = (0u64, 12_000u64);
    // Unlike the host-side micros, these record `bytes_io` too: the flash
    // bytes of one traversal, whatever the number of levels requested.
    for (tag, levels) in [("2lvl", vec![0usize, 3]), ("4lvl", vec![0, 1, 2, 3])] {
        out.push(measure(
            format!("micro/ci/multi-{tag}_single"),
            warmup,
            iters,
            || {
                let mut probe = ci.probe(&ram).unwrap();
                let snap = dev.snapshot();
                let all = probe.lookup_range_multi(&mut dev, lo, hi, &levels).unwrap();
                let io = dev.stats_since(&snap);
                RunStats {
                    ops: all.iter().map(|l| l.len() as u64).sum(),
                    bytes_io: io.bytes_to_ram + io.bytes_from_ram,
                    ..Default::default()
                }
            },
        ));
    }
}

/// SJoin over 20 000 dense root ids of the synthetic SKT: `stream`
/// projects `[T1, T12]` and reads the SKT (it records wall time only, as
/// it always has); `fk-route`
/// projects `[T1]`, a direct child, so it reads `T0.fk1` instead and
/// records the simulated time and flash bytes of that read.
fn micro_sjoin(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let (_, mut db) = build_synthetic(scale);
    let root = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    let rows = db.rows[root].min(20_000);
    for (name, targets, simulated) in [
        ("stream", vec![t1, t12], false),
        ("fk-route", vec![t1], true),
    ] {
        out.push(measure(
            format!("micro/sjoin/{name}"),
            warmup,
            iters,
            || {
                let mut ctx = ExecCtx::new(&mut db);
                let skt = ctx.skt(root).unwrap();
                let mut ids = 0..rows as Id;
                let snap = ctx.lane.io();
                let emitted = sjoin_stream(
                    &mut ctx,
                    skt,
                    &targets,
                    |_ctx| Ok(ids.next()),
                    |_ctx, _id, _targets| Ok(()),
                )
                .unwrap();
                let io = ctx.lane.io() - snap;
                let (simulated_s, bytes_io) = if simulated {
                    (ctx.lane.elapsed_of(&io).as_secs(), io.bytes_to_ram)
                } else {
                    (0.0, 0)
                };
                RunStats {
                    simulated_s,
                    ops: emitted,
                    bytes_io,
                }
            },
        ));
    }
}

/// The Merge reduction on a wide hidden range: a 10% range on the
/// unique-valued `T1.h1` yields one one-id sublist per key at T1's own
/// level, stored back to back, far more than the 32 RAM buffers. The
/// reduction packs them page by page into sorted temps, so
/// `simulated_s` here is the Merge layer's own cost of that shape.
fn micro_merge_reduce(scale: f64, warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let (ds, mut db) = build_synthetic(scale);
    let t1 = db.schema.table_id("T1").unwrap();
    let pred = ds.selectivity_pred("T1", "h1", 0.1);
    out.push(measure("micro/merge/reduce-range", warmup, iters, || {
        let mut ctx = ExecCtx::new(&mut db);
        let ci = ctx.attr_index(t1, "h1").unwrap();
        let sublists = select_sublists(&mut ctx, ci, &pred, t1).unwrap();
        assert!(sublists.len() > ctx.ram().capacity(), "range must reduce");
        let snap = ctx.lane.io();
        let domain = ctx.cat.rows[t1];
        let list = merge_to_list(&mut ctx, vec![sublists], domain).unwrap();
        let io = ctx.lane.io() - snap;
        let stats = RunStats {
            simulated_s: ctx.lane.elapsed_of(&io).as_secs(),
            ops: list.count,
            bytes_io: io.bytes_to_ram + io.bytes_from_ram,
        };
        ctx.free_temps().unwrap();
        stats
    }));
}

/// The MJoin layer on a hidden point: `T1.h1 = <point>` projecting `T1.h2`
/// at ×0.01, through `Executor::run` with the optimizer choosing the plan.
/// T1 has no visible side, so its σ comes from its QEPSJ id column and
/// MJoin reads a page per column instead of all of `T1.h2` and `T1.h1`.
/// Fixed at ×0.01 in every mode, so the smoke run's wall time compares
/// with the committed full run's.
fn micro_project_hidden_point(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let (ds, mut db) = build_synthetic(0.01);
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let point = ds.selectivity_pred("T1", "h1", 0.37);
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::eq("h1", point.value))
        .project(t0, "id")
        .project(t1, "id")
        .project(t1, "h2");
    q.text =
        "SELECT T0.id, T1.id, T1.h2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 = <point>".into();
    out.push(measure("micro/project/hidden-point", warmup, iters, || {
        let (_, report) = Executor::run(&mut db, &q, &ExecOptions::new()).unwrap();
        report_stats(&report)
    }));
}

/// FinalJoin's root hidden reads on a narrow two-table hidden conjunction:
/// `T0.h1 BETWEEN … ∧ T2.h1 BETWEEN …` projecting `T0.id, T0.h2, T2.h1`
/// at ×0.01 (ghostbench `sql-hidden`'s slowest shape), through
/// `Executor::run` with the optimizer choosing the plan. A 1% root range
/// against a 5% T2 range leaves a few dozen survivors spread over the
/// root's hidden column pages, so FinalJoin reads `T0.h1` (the re-check)
/// and `T0.h2` page by page, in the spans the survivors need. Fixed at
/// ×0.01 in every mode, like `micro/project/hidden-point`.
fn micro_project_root_hidden_sparse(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let (ds, mut db) = build_synthetic(0.01);
    let t0 = db.schema.root();
    let t2 = db.schema.table_id("T2").unwrap();
    let between = |table: &str, from: f64, share: f64| {
        let n = ds.rows(table) as f64;
        let lo = (from * n) as u64;
        let hi = lo + (share * n) as u64 - 1;
        Predicate::new("h1", CmpOp::Between, pad8(lo), Some(pad8(hi)))
    };
    let mut q = SpjQuery::new()
        .pred(t0, between("T0", 0.3, 0.01))
        .pred(t2, between("T2", 0.6, 0.05))
        .project(t0, "id")
        .project(t0, "h2")
        .project(t2, "h1");
    q.text = "SELECT T0.id, T0.h2, T2.h1 FROM T0, T2 WHERE T0.fk2 = T2.id \
              AND T0.h1 BETWEEN <1%> AND T2.h1 BETWEEN <5%>"
        .into();
    out.push(measure(
        "micro/project/root-hidden-sparse",
        warmup,
        iters,
        || {
            let (rs, report) = Executor::run(&mut db, &q, &ExecOptions::new()).unwrap();
            assert!(!rs.rows.is_empty(), "the conjunction must keep some rows");
            report_stats(&report)
        },
    ));
}

/// FinalJoin over a multi-pass MJoin: ghostbench `sql-mix`'s visible-only
/// shape, `T1.v1 < 0.56·|T1|` projecting `T0.id, T1.id, T1.v1` at ×0.01,
/// through `Executor::run` with the optimizer choosing the plan. Its 5 600
/// σ ids are those of the `sql-mix` top query (`T1.v1 < 0.28·|T1|` at
/// ×0.02) and overflow one 4 096-entry dict, so MJoin writes two runs and
/// FinalJoin reads both in place. Fixed at ×0.01 in every mode, like
/// `micro/project/hidden-point`.
fn micro_project_mjoin_multipass(warmup: usize, iters: usize, out: &mut Vec<BenchEntry>) {
    let (ds, mut db) = build_synthetic(0.01);
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", 0.56))
        .project(t0, "id")
        .project(t1, "id")
        .project(t1, "v1");
    q.text = "SELECT T0.id, T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id \
              AND T1.v1 < <56%>"
        .into();
    out.push(measure(
        "micro/project/mjoin-multipass",
        warmup,
        iters,
        || {
            let (_, report) = Executor::run(&mut db, &q, &ExecOptions::new()).unwrap();
            report_stats(&report)
        },
    ));
}

fn main() {
    let opts = parse_args();
    if let Some((a, b)) = &opts.compare {
        run_compare(a, b, opts.tolerance, opts.exact);
    }
    if let Some(path) = &opts.check {
        run_check(path);
    }
    let (mode, scale, medical_scale, iters) = if opts.smoke {
        ("smoke", 0.002, 0.01, 3)
    } else {
        ("full", 0.01, 0.2, 5)
    };
    let warmup = 1usize;
    eprintln!(
        "perfbench: mode {mode}, {iters} timed iterations per scenario \
         (+{warmup} warmup)"
    );

    let mut entries: Vec<BenchEntry> = Vec::new();
    synthetic_scenarios(scale, warmup, iters, &mut entries);
    if !opts.smoke {
        synthetic_scenarios(0.05, warmup, iters, &mut entries);
    }
    zipf_scenarios(scale, warmup, iters, &mut entries);
    hicard_scenarios(scale, warmup, iters, &mut entries);
    padded_scenarios(scale, warmup, iters, &mut entries);
    medical_scenarios(medical_scale, warmup, iters, &mut entries);
    eprintln!("perfbench: write-path scenarios...");
    ingest_scenarios(warmup, iters, &mut entries);
    gc_pressure_scenarios(warmup, iters, &mut entries);
    serve_scenarios(scale, warmup, iters, &mut entries);
    serve_open_scenarios(scale, warmup, iters, &mut entries);

    eprintln!("perfbench: operator microbenches...");
    micro_union(warmup, iters, &mut entries);
    micro_intersect(warmup, iters, &mut entries);
    micro_bloom(warmup, iters, &mut entries);
    micro_ci_probe(warmup, iters, &mut entries);
    micro_ci_multi(warmup, iters, &mut entries);
    micro_sjoin(scale, warmup, iters, &mut entries);
    micro_merge_reduce(scale, warmup, iters, &mut entries);
    micro_project_hidden_point(warmup, iters, &mut entries);
    micro_project_root_hidden_sparse(warmup, iters, &mut entries);
    micro_project_mjoin_multipass(warmup, iters, &mut entries);

    let doc = bench_doc(mode, &entries);
    let summary = check_bench(&doc).unwrap_or_else(|e| {
        eprintln!("perfbench: generated document violates its own schema: {e}");
        std::process::exit(1);
    });
    std::fs::write(&opts.out, doc.render()).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!(
        "wrote {} — {} entries ({} query scenarios, {} microbenches)",
        opts.out, summary.entries, summary.scenarios, summary.micro
    );
}
