//! Multi-chip differential suite: sharding the token's flash across
//! 2 or 4 chips is a pure makespan optimization. Every per-operation flash
//! cost in the simulator is charged per page or per byte — never per
//! physical placement — so a query over a chip-striped database must
//! produce the same rows, the same `ExecReport` in every field, the same
//! host trace and the same wire transcript as the single-chip executor,
//! bit for bit. This file is the lock on that claim: 7 strategies × chips
//! {1,2,4}, each on a fresh database, all compared against a chips=1
//! baseline; plus a property test that per-operation ("chunked") flash
//! delta accounting on forked handles sums to exactly the whole-scope
//! device-wide delta.

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{Database, ExecOptions, ExecReport, Executor, HostTrace, OpKind, SpjQuery};
use ghostdb_flash::{FlashDevice, FlashGeometry, FlashStats, FlashTiming, PageReq, PageWrite};
use ghostdb_token::TranscriptEntry;
use proptest::prelude::*;

const STRATEGIES: [VisStrategy; 7] = [
    VisStrategy::Pre,
    VisStrategy::CrossPre,
    VisStrategy::Post,
    VisStrategy::CrossPost,
    VisStrategy::PostSelect,
    VisStrategy::CrossPostSelect,
    VisStrategy::NoFilter,
];
const CHIPS: [usize; 3] = [1, 2, 4];

/// CI legs restrict the chips axis to one value via `MULTICHIP_CHIPS`;
/// unset (the local default) runs every value.
fn axis(env: &str, all: &[usize]) -> Vec<usize> {
    match std::env::var(env) {
        Ok(v) => {
            let n: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("{env} must be a number, got {v:?}"));
            assert!(all.contains(&n), "{env}={n} is not one of {all:?}");
            vec![n]
        }
        Err(_) => all.to_vec(),
    }
}

fn dataset() -> SyntheticDataset {
    let mut spec = SyntheticSpec::paper(0.0005); // T0 = 5 000
    spec.seed = 47;
    SyntheticDataset::generate(spec)
}

fn capture_db(ds: &SyntheticDataset, chips: usize) -> Database {
    let mut db = ds.build_chips(chips).expect("build");
    db.token.channel.set_capture(true);
    db
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
    q.text = "multichip-eq-Q".into();
    q
}

/// Every observable field of two reports, with per-bucket messages.
fn assert_report_identical(label: &str, want: &ExecReport, got: &ExecReport) {
    for op in OpKind::ALL {
        assert_eq!(
            want.op(op),
            got.op(op),
            "{label}: {} bucket diverges",
            op.name()
        );
    }
    assert_eq!(want, got, "{label}: ExecReport diverges");
}

/// One observed execution: result, report, host trace, wire transcript.
struct Observed {
    result: ghostdb_exec::ResultSet,
    report: ExecReport,
    trace: HostTrace,
    transcript: Vec<TranscriptEntry>,
}

fn observe(db: &mut Database, q: &SpjQuery, opts: &ExecOptions) -> Observed {
    let (result, report) = Executor::run(db, q, opts).expect("run");
    Observed {
        result,
        report,
        trace: db.untrusted.trace(),
        transcript: db.token.channel.transcript().to_vec(),
    }
}

/// The full matrix. Baseline: chips=1 (the paper's device). Every chip
/// count re-runs the whole strategy sweep on a freshly built chip-striped
/// database and must match the baseline observation for its strategy in
/// every observable.
#[test]
fn sharded_multichip_equals_single_chip_serial_bit_for_bit() {
    let ds = dataset();
    let q = query(&ds);
    let mut base_db = capture_db(&ds, 1);
    let baseline: Vec<Observed> = STRATEGIES
        .iter()
        .map(|s| {
            let opts = ExecOptions::new().strategy(*s);
            observe(&mut base_db, &q, &opts)
        })
        .collect();
    for &chips in &axis("MULTICHIP_CHIPS", &CHIPS) {
        let mut db = capture_db(&ds, chips);
        assert_eq!(db.token.flash.chip_count(), chips);
        for (s, want) in STRATEGIES.iter().zip(&baseline) {
            let opts = ExecOptions::new().strategy(*s);
            let got = observe(&mut db, &q, &opts);
            let label = format!("{}/chips={chips}", s.name());
            assert_eq!(got.result, want.result, "{label}: results diverge");
            assert_report_identical(&label, &want.report, &got.report);
            assert_eq!(got.trace, want.trace, "{label}: host trace diverges");
            assert_eq!(
                got.transcript, want.transcript,
                "{label}: wire transcript diverges"
            );
        }
    }
}

/// Sharding must not change the device's logical capacity: the same total
/// flash bytes, split across 4 chips, hold the same database.
#[test]
fn sharded_build_preserves_total_capacity() {
    let ds = dataset();
    let one = ds.build_chips(1).expect("build 1");
    let four = ds.build_chips(4).expect("build 4");
    // Per-chip capacity is total/chips rounded up to whole blocks, so the
    // sharded device never shrinks below the single-chip capacity.
    assert!(
        four.token.flash.logical_pages() >= one.token.flash.logical_pages(),
        "sharding lost capacity: {} < {}",
        four.token.flash.logical_pages(),
        one.token.flash.logical_pages()
    );
    assert_eq!(four.token.flash.chip_count(), 4);
    assert_eq!(
        four.token.flash.logical_pages(),
        four.token.flash.chip_pages() * 4,
        "logical space is whole chips"
    );
    // Striped base placement: table/index segments land on more than one
    // chip (otherwise the scaling story is vacuous).
    let pages = four.token.flash.chip_pages();
    let chips_used: std::collections::HashSet<usize> = (0..four.token.flash.logical_pages())
        .step_by(pages as usize)
        .map(|lpn| four.token.flash.chip_of(lpn))
        .collect();
    assert_eq!(chips_used.len(), 4, "every chip hosts a slice of the space");
}

/// One random op (relative page, payload byte, op kind) on a device.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64, u8),
    Read(u64),
    Trim(u64),
    /// A vectored 4-page read (`FlashDevice::read_batch`). Random pages mod
    /// the span give duplicate LPNs and chip-boundary spans for free.
    Batch([u64; 4]),
    /// A vectored 4-page write (`FlashDevice::write_batch`): exercises
    /// write and GC counter attribution (`gc_pages_read`/`gc_pages_written`/
    /// `blocks_erased`) through the batched path.
    WriteBatch([u64; 4], u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u64..512,
        any::<u8>(),
        0u8..5,
        (0u64..512, 0u64..512, 0u64..512, 0u64..512),
    )
        .prop_map(|(p, b, k, (b0, b1, b2, b3))| match k {
            0 => Op::Write(p, b),
            1 => Op::Read(p),
            2 => Op::Trim(p),
            3 => Op::Batch([b0, b1, b2, b3]),
            _ => Op::WriteBatch([b0, b1, b2, b3], b),
        })
}

fn tiny_device(chips: usize) -> FlashDevice {
    // 512 logical pages per chip keeps every op in range on any handle.
    let geometry = FlashGeometry {
        page_size: 512,
        pages_per_block: 16,
        block_count: 40,
        spare_blocks: 8,
    };
    FlashDevice::with_chips(geometry, FlashTiming::default(), chips)
}

fn apply(dev: &mut FlashDevice, op: Op, span: u64) {
    let page = |p: u64| p % span;
    match op {
        Op::Write(p, b) => {
            let image = vec![b; dev.page_size()];
            dev.write(page(p), &image).expect("write");
        }
        Op::Read(p) => {
            let mut buf = vec![0u8; 64];
            dev.read(page(p), 0, &mut buf).expect("read");
        }
        Op::Trim(p) => dev.trim(page(p)).expect("trim"),
        Op::Batch(pages) => {
            let reqs: Vec<PageReq> = pages
                .iter()
                .map(|&p| PageReq {
                    lpn: page(p),
                    offset: (p % 64) as usize,
                    len: 64,
                })
                .collect();
            let mut out = vec![0u8; 64 * reqs.len()];
            dev.read_batch(&reqs, &mut out).expect("batch read");
        }
        Op::WriteBatch(pages, b) => {
            let page_size = dev.page_size();
            let images: Vec<Vec<u8>> = pages
                .iter()
                .enumerate()
                .map(|(i, _)| vec![b.wrapping_add(i as u8); page_size])
                .collect();
            let reqs: Vec<PageWrite> = pages
                .iter()
                .zip(&images)
                .map(|(&p, image)| PageWrite {
                    lpn: page(p),
                    image,
                })
                .collect();
            dev.write_batch(&reqs).expect("batch write");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chunked vs whole-scope delta accounting: accumulate each op's
    /// `stats_since(snapshot)` delta on two forked handles (ops split
    /// between them), and the sum of all chunked deltas must equal the
    /// whole-scope device-wide stats difference exactly — no op double
    /// counted, none lost, regardless of chip count or which handle
    /// issued it.
    #[test]
    fn chunked_deltas_sum_to_whole_scope_delta(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        chips in 1usize..=4,
    ) {
        let mut root = tiny_device(chips);
        let span = root.logical_pages();
        let before = root.stats();
        let mut fork = root.fork();
        let mut chunked = FlashStats::default();
        for (i, op) in ops.iter().enumerate() {
            // Alternate handles: deltas stay exact per handle because the
            // local mirror only moves for this handle's own ops.
            let dev = if i % 2 == 0 { &mut root } else { &mut fork };
            let snap = dev.snapshot();
            apply(dev, *op, span);
            chunked += dev.stats_since(&snap);
        }
        let whole = root.stats() - before;
        prop_assert_eq!(chunked, whole, "chunked deltas drifted from the device-wide scope");
        // And the handle-local mirrors partition the same total.
        prop_assert_eq!(root.snapshot() + fork.snapshot(), whole);
    }

    /// `read_batch` ≡ a loop of single `read`s, bit for bit: same returned
    /// bytes, same handle-local counter delta — on mixed root/fork handles,
    /// with duplicate LPNs and batches spanning chip boundaries (random
    /// pages mod the span produce both), over mapped and unmapped pages.
    /// Only the side-band overlap clock may differ (batch ≤ singles).
    #[test]
    fn read_batch_equals_loop_of_single_reads(
        writes in proptest::collection::vec((0u64..512, any::<u8>()), 0..24),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..512, 0usize..8), 1..9), 1..6),
        chips in 1usize..=4,
    ) {
        let mut root = tiny_device(chips);
        let span = root.logical_pages();
        for (p, b) in &writes {
            let image = vec![*b; root.page_size()];
            root.write(p % span, &image).expect("write");
        }
        // Two zero-counter forks over the same array: reads don't mutate
        // flash state, so both observe identical page contents.
        let mut batched = root.fork();
        let mut serial = root.fork();
        for (i, batch) in batches.iter().enumerate() {
            let reqs: Vec<PageReq> = batch
                .iter()
                .map(|&(p, o)| PageReq { lpn: p % span, offset: o * 8, len: 96 })
                .collect();
            let mut got = vec![0u8; 96 * reqs.len()];
            // Alternate which handle batches, so both mixes are covered.
            let (bdev, sdev) = if i % 2 == 0 {
                (&mut batched, &mut serial)
            } else {
                (&mut serial, &mut batched)
            };
            let bsnap = bdev.snapshot();
            let bclock = bdev.overlap_elapsed();
            bdev.read_batch(&reqs, &mut got).expect("batch");
            let bdelta = bdev.stats_since(&bsnap);
            let bclock = bdev.overlap_elapsed().saturating_sub(bclock);
            let ssnap = sdev.snapshot();
            let sclock = sdev.overlap_elapsed();
            let mut want = vec![0u8; 96 * reqs.len()];
            for (r, chunk) in reqs.iter().zip(want.chunks_mut(96)) {
                sdev.read(r.lpn, r.offset, chunk).expect("single");
            }
            let sdelta = sdev.stats_since(&ssnap);
            let sclock = sdev.overlap_elapsed().saturating_sub(sclock);
            prop_assert_eq!(&got, &want, "batch {i}: returned bytes diverge");
            prop_assert_eq!(bdelta, sdelta, "batch {i}: counter deltas diverge");
            // The side-band clock: a batch's makespan never exceeds (and on
            // multi-chip spans undercuts) the serial issue sum.
            prop_assert!(bclock <= sclock, "batch {i}: makespan exceeds issue sum");
        }
        // Both forks saw the same ops overall, so their mirrors agree.
        prop_assert_eq!(batched.snapshot(), serial.snapshot());
    }

    /// `write_batch` ≡ a loop of single `write`s, bit for bit. Writes
    /// mutate flash state, so the comparison runs on two *separate*
    /// devices driven identically: one takes each batch vectored, the
    /// other as singles in submission order. Counters (GC charges
    /// included), final page contents and device-wide ground truth must
    /// all agree; only the side-band overlap clock may differ
    /// (batch makespan ≤ serial issue sum). Sustained full-page overwrite
    /// churn past the headroom drives GC inside batches.
    #[test]
    fn write_batch_equals_loop_of_single_writes(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..512, any::<u8>()), 1..9), 4..24),
        chips in 1usize..=4,
    ) {
        let mut batched = tiny_device(chips);
        let mut serial = tiny_device(chips);
        let span = batched.logical_pages();
        let page_size = batched.page_size();
        for (i, batch) in batches.iter().enumerate() {
            let images: Vec<Vec<u8>> = batch
                .iter()
                .map(|&(p, b)| vec![b ^ (p as u8); page_size])
                .collect();
            let reqs: Vec<PageWrite> = batch
                .iter()
                .zip(&images)
                .map(|(&(p, _), image)| PageWrite { lpn: p % span, image })
                .collect();
            let bsnap = batched.snapshot();
            let bclock = batched.overlap_elapsed();
            batched.write_batch(&reqs).expect("batch write");
            let bdelta = batched.stats_since(&bsnap);
            let bclock = batched.overlap_elapsed().saturating_sub(bclock);
            let ssnap = serial.snapshot();
            let sclock = serial.overlap_elapsed();
            for r in &reqs {
                serial.write(r.lpn, r.image).expect("single write");
            }
            let sdelta = serial.stats_since(&ssnap);
            let sclock = serial.overlap_elapsed().saturating_sub(sclock);
            prop_assert_eq!(bdelta, sdelta, "batch {}: counter deltas diverge", i);
            prop_assert!(bclock <= sclock, "batch {}: makespan exceeds issue sum", i);
        }
        // Whole-run ground truth: same counters on both devices...
        prop_assert_eq!(batched.stats(), serial.stats());
        // ...and the same logical page contents everywhere.
        for lpn in 0..span {
            let mut a = vec![0u8; page_size];
            let mut b = vec![0u8; page_size];
            batched.read(lpn, 0, &mut a).expect("read batched device");
            serial.read(lpn, 0, &mut b).expect("read serial device");
            prop_assert_eq!(a, b, "page {} contents diverge", lpn);
        }
    }
}
