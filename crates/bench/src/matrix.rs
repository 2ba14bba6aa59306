//! The scenario matrix: every entry `perfbench` measures and the root
//! package's `tests/sim_pins.rs` pins, in one table.
//!
//! The matrix is a list of families. A family's entries share one setup
//! (a dataset, a server, a flash device), built when the family opens and
//! then run in order, so an entry's simulated numbers depend only on the
//! entries of its own family that ran before it. [`run`] walks the table and
//! hands each entry to its caller as a closure that runs it once:
//! perfbench times warmup and timed runs of it, the pin test runs it once.
//!
//! Each mode is one fixed matrix: synthetic ×0.002 and medical ×0.01 in
//! [`Mode::Smoke`], synthetic ×0.01 and ×0.05 and medical ×0.2 in
//! [`Mode::Full`]. Scenario names, their order and every simulated number
//! are a pure function of the mode.

use crate::{build_medical, build_synthetic, build_synthetic_zipf, medical_q, query_q};
use ghostdb_bloom::BloomFilter;
use ghostdb_datagen::{pad8, SyntheticDataset};
use ghostdb_exec::ci_ops::select_sublists;
use ghostdb_exec::merge::{merge_to_list, merge_to_vec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::sjoin::sjoin_stream;
use ghostdb_exec::source::{IdSource, UnionStream};
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{
    Database, ExecCtx, ExecOptions, ExecReport, Executor, GhostDbServer, ServeConfig, Session,
    SpjQuery,
};
use ghostdb_flash::{
    FlashDevice, FlashGeometry, FlashStats, FlashTiming, SegmentAllocator, SimDuration,
};
use ghostdb_index::{ClimbingIndex, ClimbingSpec, FkData, IndexBuilder, LevelSpec};
use ghostdb_storage::idlist::write_id_list;
use ghostdb_storage::row::id_width;
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{CmpOp, Id, Predicate, TableId};
use ghostdb_token::RamArena;
use std::sync::Arc;
use std::time::Instant;

/// Which fixed matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Synthetic ×0.002 and medical ×0.01: the CI run and the pinned one.
    Smoke,
    /// Synthetic ×0.01 and ×0.05 and medical ×0.2: the committed
    /// `BENCH.json`.
    Full,
}

impl Mode {
    /// The `mode` field of a BENCH.json document.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }

    /// The synthetic scales the full strategy sweep runs at; the first is
    /// also the scale of every other synthetic family.
    fn synthetic_scales(self) -> &'static [f64] {
        match self {
            Mode::Smoke => &[0.002],
            Mode::Full => &[0.01, 0.05],
        }
    }

    fn medical_scale(self) -> f64 {
        match self {
            Mode::Smoke => 0.01,
            Mode::Full => 0.2,
        }
    }
}

/// What one run of an entry observed.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Simulated time of the run (Table 1 cost model); zero when the entry
    /// has no simulated-time meaning (pure host microbenches).
    pub simulated: SimDuration,
    /// Logical operations (result rows, ids processed, …).
    pub ops: u64,
    /// Flash bytes moved through the data register (read + write side).
    pub bytes_io: u64,
    /// The report of each query the run executed, in order.
    pub reports: Vec<ExecReport>,
    /// Per-operation latency samples in nanoseconds, on the entries whose
    /// unit of interest is one operation under load (`serve/…` and
    /// `gc-pressure/…`); empty elsewhere.
    pub latencies: Vec<u128>,
}

impl Run {
    /// A run of the queries behind `reports`: their simulated time, result
    /// rows and flash bytes, summed.
    fn queries(reports: Vec<ExecReport>) -> Run {
        Run {
            simulated: reports.iter().fold(SimDuration::ZERO, |t, r| t + r.total()),
            ops: reports.iter().map(|r| r.result_rows).sum(),
            bytes_io: reports.iter().map(|r| bytes_io(&r.io)).sum(),
            reports,
            latencies: Vec::new(),
        }
    }

    /// A run of flash work outside any query.
    fn device(simulated: SimDuration, ops: u64, io: &FlashStats) -> Run {
        Run {
            simulated,
            ops,
            bytes_io: bytes_io(io),
            ..Run::default()
        }
    }

    /// A host-side run that only counts its operations.
    fn host(ops: u64) -> Run {
        Run {
            ops,
            ..Run::default()
        }
    }

    /// Simulated seconds as BENCH.json records them: each query's seconds
    /// summed in run order, or the whole run's when it ran no query.
    pub(crate) fn simulated_s(&self) -> f64 {
        if self.reports.is_empty() {
            return self.simulated.as_secs();
        }
        self.reports
            .iter()
            .fold(0.0, |s, r| s + r.total().as_secs())
    }
}

fn bytes_io(io: &FlashStats) -> u64 {
    io.bytes_to_ram + io.bytes_from_ram
}

/// Runs entry `i` of an opened family once.
type Runner = Box<dyn FnMut(usize) -> Run>;

/// Entries sharing one setup.
struct Family {
    /// The entries' scenario names, in run order.
    names: Vec<String>,
    open: Box<dyn FnOnce() -> Runner>,
}

impl Family {
    fn new(names: Vec<String>, open: impl FnOnce() -> Runner + 'static) -> Family {
        Family {
            names,
            open: Box::new(open),
        }
    }
}

/// Run every entry of `mode`'s matrix in order. `each` gets the entry's
/// scenario name and a closure that runs the entry once; it may call the
/// closure as often as it likes.
pub fn run(mode: Mode, mut each: impl FnMut(&str, &mut dyn FnMut() -> Run)) {
    for family in families(mode) {
        let mut runner = (family.open)();
        for (i, name) in family.names.iter().enumerate() {
            each(name, &mut || runner(i));
        }
    }
}

/// Visible selectivities the synthetic sweep runs the `Project` algorithm
/// at: the low, middle and high anchors of the paper's log-scale x-axis.
/// `BruteForce` runs at the middle one only, since it always loads the
/// whole QEPSJ result and so does not vary with selectivity.
const SV_POINTS: [f64; 3] = [0.001, 0.01, 0.1];
const SV_MID: f64 = 0.01;

const STRATEGIES: [VisStrategy; 7] = [
    VisStrategy::Pre,
    VisStrategy::CrossPre,
    VisStrategy::Post,
    VisStrategy::CrossPost,
    VisStrategy::PostSelect,
    VisStrategy::CrossPostSelect,
    VisStrategy::NoFilter,
];

const CROSS: [VisStrategy; 2] = [VisStrategy::CrossPre, VisStrategy::CrossPost];

/// The matrix of `mode`, family by family, in BENCH.json order.
fn families(mode: Mode) -> Vec<Family> {
    let scale = mode.synthetic_scales()[0];
    let medical = mode.medical_scale();
    let plan = |s: VisStrategy, algo: ProjectAlgo, padded: bool| {
        ExecOptions::new().strategy(s).project(algo).padded(padded)
    };
    let cross = |sv: f64| -> Vec<(String, f64, ExecOptions)> {
        CROSS
            .iter()
            .map(|&s| {
                (
                    s.name().to_string(),
                    sv,
                    plan(s, ProjectAlgo::Project, false),
                )
            })
            .collect()
    };
    let q = |ds: &SyntheticDataset, db: &Database, sv: f64| query_q(ds, db, sv, false);

    let mut out = Vec::new();
    // The synthetic sweep: every strategy under `Project` at each anchor,
    // then every strategy under `BruteForce` at the middle one.
    for &scale in mode.synthetic_scales() {
        let mut points = Vec::new();
        for (svs, algo) in [
            (&SV_POINTS[..], ProjectAlgo::Project),
            (&[SV_MID][..], ProjectAlgo::BruteForce),
        ] {
            for &sv in svs {
                for s in STRATEGIES {
                    let name = format!("sv{sv}/{}/{}", s.name(), algo.name());
                    points.push((name, sv, plan(s, algo, false)));
                }
            }
        }
        out.push(forced(
            format!("synthetic/x{scale}"),
            move || build_synthetic(scale),
            q,
            points,
        ));
    }
    // Zipf(1.2)-skewed values: heavy-headed sublists and Bloom inputs.
    out.push(forced(
        format!("synthetic-zipf/x{scale}"),
        move || build_synthetic_zipf(scale),
        q,
        cross(0.1),
    ));
    // The hidden selection on the one-key-per-row `T1.h1`, so the climbing
    // index spans hundreds of leaves and its scan is a visible share.
    out.push(forced(
        format!("synthetic-hicard/x{scale}"),
        move || build_synthetic(scale),
        |ds, db, sv| crate::query_q_hicard(ds, db, sv, 0.25),
        cross(0.01),
    ));
    // Exact vs power-of-two padded shipments of one query: the padding
    // overhead (SECURITY.md). Every other family ships exact volumes.
    let padded = CROSS
        .iter()
        .flat_map(|&s| {
            [(false, "exact"), (true, "pow2")].map(|(pad, tag)| {
                let name = format!("{}/{tag}", s.name());
                (name, 0.1, plan(s, ProjectAlgo::Project, pad))
            })
        })
        .collect();
    out.push(forced(
        format!("synthetic-padded/x{scale}"),
        move || build_synthetic(scale),
        q,
        padded,
    ));
    out.push(forced(
        format!("medical/x{medical}"),
        move || build_medical(medical),
        medical_q,
        cross(0.05),
    ));
    out.push(ingest());
    out.push(gc_pressure());
    for sessions in [1, 4] {
        out.push(serve_closed(scale, sessions));
    }
    out.push(serve_open(scale));
    out.extend([
        micro_union(),
        micro_intersect(),
        micro_bloom(),
        micro_ci_probe(),
        micro_ci_multi(),
        micro_sjoin(scale),
        micro_merge_reduce(scale),
        chosen(),
    ]);
    out
}

/// One query shape on one dataset under forced plans: each point is a name
/// under `prefix`, the visible selectivity `query` is built at, and the
/// plan's options.
fn forced<D: 'static>(
    prefix: String,
    build: impl FnOnce() -> (D, Database) + 'static,
    query: fn(&D, &Database, f64) -> SpjQuery,
    points: Vec<(String, f64, ExecOptions)>,
) -> Family {
    let names = points
        .iter()
        .map(|(name, ..)| format!("{prefix}/{name}"))
        .collect();
    Family::new(names, move || {
        let (ds, mut db) = build();
        let plans: Vec<(SpjQuery, ExecOptions)> = points
            .into_iter()
            .map(|(_, sv, opts)| (query(&ds, &db, sv), opts))
            .collect();
        Box::new(move |i| {
            let (q, opts) = &plans[i];
            execute(&mut db, q, opts)
        })
    })
}

/// Run one query of the matrix. A failure is a matrix bug, not a point to
/// skip.
fn execute(db: &mut Database, q: &SpjQuery, opts: &ExecOptions) -> Run {
    match Executor::run(db, q, opts) {
        Ok((_, report)) => Run::queries(vec![report]),
        Err(e) => panic!("matrix query {} failed: {e}", q.text),
    }
}

/// Bulk ingest through the `GhostDb` facade on a fresh token per run:
/// staging, vertical partitioning, the download onto flash and the batched
/// index builds of `finalize()`. `ops` is the staged row count; the
/// simulated time and flash bytes are the load's.
fn ingest() -> Family {
    use ghostdb_core::{GhostDb, GhostDbConfig};
    use ghostdb_storage::Value;
    const ROWS: [u64; 2] = [1024, 4096];
    let names = ROWS
        .iter()
        .map(|rows| format!("ingest/ghostdb/rows{rows}"))
        .collect();
    Family::new(names, || {
        Box::new(|i| {
            let rows = ROWS[i];
            let mut db = GhostDb::new(GhostDbConfig::default());
            let loaded = db
                .execute(
                    "CREATE TABLE Accounts (id INT, branch CHAR(10), balance INT HIDDEN, \
                     owner CHAR(20) HIDDEN)",
                )
                .and_then(|()| {
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
                })
                .and_then(|()| db.finalize().map(drop));
            if let Err(e) = loaded {
                panic!("ingest of {rows} rows failed: {e}");
            }
            let flash = &db.database().expect("finalized").token.flash;
            Run::device(
                flash.elapsed_since(&Default::default()),
                rows,
                &flash.stats(),
            )
        })
    })
}

/// Sustained mixed read/write traffic on a fresh device already past the
/// GC watermark (every logical page mapped before the clock starts), with
/// open-loop arrivals: a fixed schedule calibrated to ≈ capacity from an
/// untimed burst, each latency sample running from the op's scheduled
/// arrival to its completion, so GC stalls surface in the tail. The
/// counters are a pure function of the op sequence, and a run that erased
/// no block never reached GC pressure and fails.
fn gc_pressure() -> Family {
    const CAL: usize = 256;
    const OPS: usize = 3000;
    Family::new(vec!["gc-pressure/c1/mixed".into()], || {
        Box::new(|_| {
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
            // A deterministic op stream: 2/3 full-page overwrites (steady
            // GC pressure), 1/3 reads.
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
            let cal = Instant::now();
            for _ in 0..CAL {
                run_op(&mut dev, next());
            }
            let gap = cal.elapsed() / CAL as u32;
            let snap = dev.snapshot();
            let t0 = Instant::now();
            let mut latencies = Vec::with_capacity(OPS);
            for i in 0..OPS {
                let due = t0 + gap * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                run_op(&mut dev, next());
                let arrival = (gap * i as u32).as_nanos();
                latencies.push(t0.elapsed().as_nanos().saturating_sub(arrival));
            }
            let io = dev.stats_since(&snap);
            assert!(
                io.blocks_erased > 0,
                "no block erased in the measured window: the device never reached GC pressure"
            );
            Run {
                latencies,
                ..Run::device(dev.elapsed_since(&snap), OPS as u64, &io)
            }
        })
    })
}

/// Queries a serve run submits per drain, and drains per run.
const DEPTH: usize = 8;
const WAVES: usize = 3;

/// A [`GhostDbServer`] over the synthetic dataset, and the queries each
/// serve run submits: Q with the same hidden probe (`T12.h2` at the
/// paper's sH), its visible selectivity cycling so result shapes vary, all
/// under Cross-Post. A served query runs exactly as solo
/// (`tests/serve_equivalence.rs`), so its simulated numbers do not depend
/// on the arrival schedule.
fn serve_setup(scale: f64) -> (GhostDbServer, Vec<SpjQuery>) {
    let (ds, db) = build_synthetic(scale);
    let queries = (0..DEPTH * WAVES)
        .map(|i| query_q(&ds, &db, SV_POINTS[i % 3], false))
        .collect();
    match GhostDbServer::new(db, ServeConfig::new().queue_depth(DEPTH)) {
        Ok(server) => (server, queries),
        Err(e) => panic!("serve server build failed: {e}"),
    }
}

fn serve_opts() -> ExecOptions {
    ExecOptions::new().strategy(VisStrategy::CrossPost)
}

/// Submit `q` through `session`, or fail the run.
fn submit(session: &Session<'_>, q: &SpjQuery) {
    if let Err(e) = session.submit(q, &serve_opts()) {
        panic!("serve admission failed: {e}");
    }
}

/// Drain `server`, then take every outcome it delivered, session by
/// session, into `reports`.
fn drain(server: &GhostDbServer, sessions: &[Session<'_>], reports: &mut Vec<ExecReport>) {
    if let Err(e) = server.drain() {
        panic!("serve drain failed: {e}");
    }
    for s in sessions {
        while let Some(outcome) = s.take() {
            match outcome {
                Ok(o) => reports.push(o.report),
                Err(e) => panic!("served query failed: {e}"),
            }
        }
    }
}

/// The closed-loop serve point: waves of [`DEPTH`] queries round-robin
/// over `n` sessions, each wave drained before the next is submitted.
/// Latencies run from a query's submission to the end of its drain.
fn serve_closed(scale: f64, n: usize) -> Family {
    Family::new(vec![format!("serve/x{scale}/s{n}")], move || {
        let (server, queries) = serve_setup(scale);
        Box::new(move |_| {
            let sessions: Vec<Session<'_>> = (0..n).map(|_| server.session()).collect();
            let (mut reports, mut latencies) = (Vec::new(), Vec::new());
            for wave in queries.chunks(DEPTH) {
                let mut submitted = Vec::with_capacity(wave.len());
                for (i, q) in wave.iter().enumerate() {
                    submitted.push(Instant::now());
                    submit(&sessions[i % n], q);
                }
                let start = reports.len();
                drain(&server, &sessions, &mut reports);
                let done = Instant::now();
                debug_assert_eq!(reports.len() - start, wave.len());
                latencies.extend(submitted.iter().map(|t| done.duration_since(*t).as_nanos()));
            }
            Run {
                latencies,
                ..Run::queries(reports)
            }
        })
    })
}

/// The open-loop serve point: queries arrive on a fixed schedule whatever
/// the server's progress, and each latency runs from the query's
/// *scheduled arrival* to the drain that completed it, so queueing delay
/// cannot hide behind client coordination (coordinated omission). The
/// inter-arrival gap is calibrated once from an untimed wave, so offered
/// load sits at ≈ capacity.
fn serve_open(scale: f64) -> Family {
    Family::new(vec![format!("serve/x{scale}/open")], move || {
        let (server, queries) = serve_setup(scale);
        let gap = {
            let session = [server.session()];
            let cal = Instant::now();
            for q in &queries[..DEPTH] {
                submit(&session[0], q);
            }
            drain(&server, &session, &mut Vec::new());
            cal.elapsed() / DEPTH as u32
        };
        Box::new(move |_| {
            let session = [server.session()];
            let (mut reports, mut latencies) = (Vec::new(), Vec::new());
            let t0 = Instant::now();
            for (w, wave) in queries.chunks(DEPTH).enumerate() {
                for (i, q) in wave.iter().enumerate() {
                    let due = t0 + gap * (w * DEPTH + i) as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    submit(&session[0], q);
                }
                drain(&server, &session, &mut reports);
                let done = t0.elapsed().as_nanos();
                latencies.extend((0..wave.len()).map(|i| {
                    let arrival = (gap * (w * DEPTH + i) as u32).as_nanos();
                    done.saturating_sub(arrival)
                }));
            }
            Run {
                latencies,
                ..Run::queries(reports)
            }
        })
    })
}

fn micro_device() -> (FlashDevice, SegmentAllocator, RamArena) {
    let dev = FlashDevice::new(
        FlashGeometry::for_capacity(64 * 1024 * 1024),
        FlashTiming::default(),
    );
    let alloc = SegmentAllocator::new(dev.logical_pages());
    (dev, alloc, RamArena::paper_default())
}

/// The full-climb exact climbing index on `column` of `table` over `keys`,
/// built on a fresh micro device.
fn micro_index(
    builder: IndexBuilder,
    table: TableId,
    column: &str,
    keys: &[u64],
) -> (FlashDevice, RamArena, ClimbingIndex) {
    let (mut dev, mut alloc, ram) = micro_device();
    let spec = ClimbingSpec {
        table,
        column,
        keys,
        levels: LevelSpec::FullClimb,
        exact: true,
    };
    match builder.build_climbing(&mut dev, &mut alloc, spec) {
        Ok(ci) => (dev, ram, ci),
        Err(e) => panic!("micro index on {column} failed: {e}"),
    }
}

/// k-way heap union over 16 flash lists.
fn micro_union() -> Family {
    Family::new(vec!["micro/merge/union16_heap".into()], || {
        let (mut dev, mut alloc, ram) = micro_device();
        // Ids of the domain 0..20_016, in its width.
        let width = id_width(5 * 4000 + 16);
        let sources: Vec<IdSource> = (0..16u32)
            .map(|k| {
                let ids: Vec<Id> = (0..4000u32).map(|i| i * (k % 5 + 1) + k).collect();
                IdSource::Flash(write_id_list(&mut dev, &mut alloc, &ram, width, &ids).unwrap())
            })
            .collect();
        Box::new(move |_| {
            let mut u = UnionStream::open(&sources, &ram, dev.page_size()).unwrap();
            let mut n = 0u64;
            while u.next(&mut dev).unwrap().is_some() {
                n += 1;
            }
            Run::host(n)
        })
    })
}

/// Host-resident CNF merge: the galloping fast path.
fn micro_intersect() -> Family {
    Family::new(vec!["micro/idlist/intersect_gallop".into()], || {
        let mut db = ghostdb_exec::testkit::tiny_db();
        let a: Arc<Vec<Id>> = Arc::new((0..200_000u32).map(|i| i * 2).collect());
        let b: Arc<Vec<Id>> = Arc::new((0..200_000u32).map(|i| i * 3).collect());
        Box::new(move |_| {
            let groups = vec![
                vec![IdSource::Host(a.clone())],
                vec![IdSource::Host(b.clone())],
            ];
            let mut ctx = ExecCtx::new(&mut db);
            let ids = merge_to_vec(&mut ctx, groups, 600_000).unwrap();
            Run::host(ids.len() as u64)
        })
    })
}

/// Bloom build, and probe of a prebuilt filter, with single-pair double
/// hashing.
fn micro_bloom() -> Family {
    const N: u64 = 100_000;
    const M_BITS: u64 = 8 * N;
    const K: u32 = 4;
    const BYTES: usize = (M_BITS as usize).div_ceil(8);
    let names = vec!["micro/bloom/build_dh".into(), "micro/bloom/probe_dh".into()];
    Family::new(names, || {
        let mut probed = BloomFilter::new(vec![0u8; BYTES], M_BITS, K);
        for key in (0..2 * N).step_by(2) {
            probed.insert(key);
        }
        let probes: Vec<u64> = (0..2 * N).collect();
        let mut scratch: Vec<u64> = Vec::new();
        Box::new(move |i| {
            if i == 0 {
                let mut bf = BloomFilter::new(vec![0u8; BYTES], M_BITS, K);
                for key in 0..N {
                    bf.insert(key);
                }
                std::hint::black_box(&bf);
                Run::host(N)
            } else {
                probed.retain_into(&probes, &mut scratch);
                std::hint::black_box(scratch.len());
                Run::host(probes.len() as u64)
            }
        })
    })
}

/// Climbing-index equality probes: one batched ascending run sharing the
/// cached leaf.
fn micro_ci_probe() -> Family {
    Family::new(vec!["micro/ci/probe_run".into()], || {
        let schema = paper_synthetic_schema(1, 1);
        let id = |name: &str| schema.table_id(name).unwrap();
        let (t0, t1, t2, t11, t12) = (id("T0"), id("T1"), id("T2"), id("T11"), id("T12"));
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
        let keys: Vec<u64> = (0..n1).map(|r| r % 5000).collect();
        let (mut dev, ram, ci) = micro_index(IndexBuilder::new(schema, rows, fks), t1, "h1", &keys);
        let probes: Vec<u64> = (0..2000u64).map(|i| i * 2).collect();
        Box::new(move |_| {
            let mut probe = ci.probe(&ram).unwrap();
            let lists = probe.lookup_eq_run(&mut dev, &probes, 1).unwrap();
            Run::host(lists.len() as u64)
        })
    })
}

/// Multi-level climbing-index range scans: one traversal decoding every
/// requested level per leaf entry. A 4-deep chain schema `C0 ← C1 ← C2 ←
/// C3` gives the index 4 levels (48-byte payloads, 36 leaf entries per
/// 2 KiB page), so the full-domain scan walks ~330 leaves once however
/// many levels decode; `bytes_io` records that one traversal's bytes.
fn micro_ci_multi() -> Family {
    use ghostdb_storage::schema::{Column, SchemaTree, TableDef};
    use ghostdb_storage::ColumnType;
    const LEVELS: [(&str, &[usize]); 2] = [("2lvl", &[0, 3]), ("4lvl", &[0, 1, 2, 3])];
    let names = LEVELS
        .iter()
        .map(|(tag, _)| format!("micro/ci/multi-{tag}_single"))
        .collect();
    Family::new(names, || {
        let col = || Column::hidden("h", ColumnType::char(8));
        let schema = SchemaTree::new(vec![
            TableDef::new("C0").with_column(col()).with_fk("fk1", "C1"),
            TableDef::new("C1").with_column(col()).with_fk("fk2", "C2"),
            TableDef::new("C2").with_column(col()).with_fk("fk3", "C3"),
            TableDef::new("C3").with_column(col()),
        ])
        .expect("chain schema");
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
        let (mut dev, ram, ci) = micro_index(IndexBuilder::new(schema, rows, fks), 3, "h", &keys);
        assert_eq!(ci.levels.len(), 4);
        Box::new(move |i| {
            let mut probe = ci.probe(&ram).unwrap();
            let snap = dev.snapshot();
            let all = probe
                .lookup_range_multi(&mut dev, 0, 12_000, LEVELS[i].1)
                .unwrap();
            Run {
                bytes_io: bytes_io(&dev.stats_since(&snap)),
                ..Run::host(all.iter().map(|l| l.len() as u64).sum())
            }
        })
    })
}

/// SJoin over 20 000 dense root ids of the synthetic SKT: `stream`
/// projects `[T1, T12]` and reads the SKT (wall time only); `fk-route`
/// projects `[T1]`, a direct child, so it reads `T0.fk1` instead and
/// records the simulated time and flash bytes of that read.
fn micro_sjoin(scale: f64) -> Family {
    const POINTS: [(&str, bool); 2] = [("stream", false), ("fk-route", true)];
    let names = POINTS
        .iter()
        .map(|(name, _)| format!("micro/sjoin/{name}"))
        .collect();
    Family::new(names, move || {
        let (_, mut db) = build_synthetic(scale);
        let root = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let t12 = db.schema.table_id("T12").unwrap();
        let rows = db.rows[root].min(20_000);
        Box::new(move |i| {
            let simulated = POINTS[i].1;
            let targets = if simulated { vec![t1] } else { vec![t1, t12] };
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
            if !simulated {
                return Run::host(emitted);
            }
            Run {
                simulated: ctx.lane.elapsed_of(&io),
                ops: emitted,
                bytes_io: io.bytes_to_ram,
                ..Run::default()
            }
        })
    })
}

/// The Merge reduction on a wide hidden range: a 10% range on the
/// unique-valued `T1.h1` yields one one-id sublist per key at T1's own
/// level, far more than the 32 RAM buffers, so the entry's simulated time
/// is the Merge layer's own cost of reducing them.
fn micro_merge_reduce(scale: f64) -> Family {
    Family::new(vec!["micro/merge/reduce-range".into()], move || {
        let (ds, mut db) = build_synthetic(scale);
        let t1 = db.schema.table_id("T1").unwrap();
        let pred = ds.selectivity_pred("T1", "h1", 0.1);
        Box::new(move |_| {
            let mut ctx = ExecCtx::new(&mut db);
            let ci = ctx.attr_index(t1, "h1").unwrap();
            let sublists = select_sublists(&mut ctx, ci, &pred, t1).unwrap();
            assert!(sublists.len() > ctx.ram().capacity(), "range must reduce");
            let snap = ctx.lane.io();
            let domain = ctx.cat.rows[t1];
            let list = merge_to_list(&mut ctx, vec![sublists], domain).unwrap();
            let io = ctx.lane.io() - snap;
            let run = Run::device(ctx.lane.elapsed_of(&io), list.count, &io);
            ctx.free_temps().unwrap();
            run
        })
    })
}

/// Projection shapes through `Executor::run` with the optimizer choosing
/// the plan, on one synthetic dataset at ×0.01 in every mode, so a smoke
/// run's wall time compares with the committed full run's.
fn chosen() -> Family {
    type Shape = fn(&SyntheticDataset, &Database) -> SpjQuery;
    const SHAPES: [(&str, Shape); 3] = [
        ("hidden-point", hidden_point_q),
        ("root-hidden-sparse", root_hidden_sparse_q),
        ("mjoin-multipass", mjoin_multipass_q),
    ];
    let names = SHAPES
        .iter()
        .map(|(name, _)| format!("micro/project/{name}"))
        .collect();
    Family::new(names, || {
        let (ds, mut db) = build_synthetic(0.01);
        let queries: Vec<SpjQuery> = SHAPES.iter().map(|(_, q)| q(&ds, &db)).collect();
        Box::new(move |i| execute(&mut db, &queries[i], &ExecOptions::new()))
    })
}

/// The MJoin layer on a hidden point: `T1.h1 = <point>` projecting
/// `T1.h2`. T1 has no visible side, so its σ comes from its QEPSJ id
/// column and MJoin reads a page per column instead of all of `T1.h2` and
/// `T1.h1`.
fn hidden_point_q(ds: &SyntheticDataset, db: &Database) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").expect("T1");
    let point = ds.selectivity_pred("T1", "h1", 0.37);
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::eq("h1", point.value))
        .project(t0, "id")
        .project(t1, "id")
        .project(t1, "h2");
    q.text =
        "SELECT T0.id, T1.id, T1.h2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 = <point>".into();
    q
}

/// FinalJoin's root hidden reads on a narrow two-table hidden conjunction
/// (ghostbench `sql-hidden`'s slowest shape): a 1% root range against a 5%
/// T2 range leaves a few dozen survivors spread over the root's hidden
/// column pages, so FinalJoin reads `T0.h1` (the re-check) and `T0.h2`
/// page by page, in the spans the survivors need.
fn root_hidden_sparse_q(ds: &SyntheticDataset, db: &Database) -> SpjQuery {
    let t0 = db.schema.root();
    let t2 = db.schema.table_id("T2").expect("T2");
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
    q
}

/// FinalJoin over a multi-pass MJoin: ghostbench `sql-mix`'s visible-only
/// shape, `T1.v1 < 0.56·|T1|`. Its 5 600 σ ids overflow one 4 096-entry
/// dict, so MJoin writes two runs and FinalJoin reads both in place.
fn mjoin_multipass_q(ds: &SyntheticDataset, db: &Database) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").expect("T1");
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", 0.56))
        .project(t0, "id")
        .project(t1, "id")
        .project(t1, "v1");
    q.text = "SELECT T0.id, T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id \
              AND T1.v1 < <56%>"
        .into();
    q
}
