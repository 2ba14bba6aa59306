//! Differential property suite for the multi-level climbing-index read
//! path. The volume-leakage literature (Practical Volume-Based Attacks on
//! Encrypted Databases; ObliDB) is blunt about why this matters: two plans
//! that are supposed to be equivalent must stay equivalent in their
//! *access patterns*, not just their answers. So the single-traversal
//! `lookup_range_multi` / `select_sublists_multi` path is locked to the
//! per-level reference three ways:
//!
//! 1. **Index level** — proptest-generated climbing indexes over a 4-deep
//!    chain schema (random key distributions, duplicate keys, level counts
//!    1–4, ranges that are empty / inverted / single-leaf /
//!    leaf-boundary-spanning): `lookup_range_multi` must return exactly the
//!    sublists the per-level `naive_lookup_range` returns, and its
//!    traversal must read exactly the pages of ONE single-level scan —
//!    never more, no matter how many levels decode (and none on an
//!    inverted range, which it rejects before touching flash).
//! 2. **Operator level** — `select_sublists_multi` vs
//!    `naive_select_sublists_multi` on a real database: identical decoded
//!    id lists, identical `OpKind` bucket *shape* (all I/O in `Ci`,
//!    nothing anywhere else), multi cost ≤ naive cost with equality at one
//!    level, and run-to-run determinism of `ops`/`bytes_io`.
//! 3. **Plan level** — Cross-Post/Cross-Pre queries through the full
//!    executor: results and every `ExecReport` field bit-identical across
//!    fresh databases and repeats on one database.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_exec::ci_ops::{level_of, select_sublists_multi};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::source::IdSource;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::testkit::{pad8, tiny_db, wide_key_db};
use ghostdb_exec::{Database, ExecCtx, ExecOptions, ExecReport, Executor, OpKind, SpjQuery};
use ghostdb_flash::{FlashDevice, FlashGeometry, FlashStats, FlashTiming, SegmentAllocator};
use ghostdb_index::{ClimbingIndex, ClimbingSpec, FkData, IndexBuilder, LevelSpec};
use ghostdb_storage::schema::{Column, SchemaTree, TableDef};
use ghostdb_storage::{CmpOp, ColumnType, Id, IdListReader, Predicate, TableId};
use ghostdb_token::RamArena;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Index level: lookup_range_multi ≡ per-level naive_lookup_range
// ---------------------------------------------------------------------------

/// SplitMix64 — deterministic derivation of rows/fks/keys from one seed, so
/// a case is fully described by its sampled scalars (the stub proptest has
/// no flat-map to generate dependent collections directly).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 4-deep chain schema `C0 ← C1 ← C2 ← C3` (each parent holds a hidden
/// fk to its child): FullClimb indexes on C3..C0 expose level counts 4..1.
fn chain_schema() -> SchemaTree {
    let col = || Column::hidden("h", ColumnType::char(8));
    SchemaTree::new(vec![
        TableDef::new("C0").with_column(col()).with_fk("fk1", "C1"),
        TableDef::new("C1").with_column(col()).with_fk("fk2", "C2"),
        TableDef::new("C2").with_column(col()).with_fk("fk3", "C3"),
        TableDef::new("C3").with_column(col()),
    ])
    .expect("chain schema is a valid tree")
}

struct ChainCase {
    dev: FlashDevice,
    ram: RamArena,
    ci: ClimbingIndex,
}

/// Build a climbing index with `depth` levels over random data: the table
/// `C{depth-1}` gets `n_rows` rows with keys drawn (with duplicates) from
/// `0..key_mod`; every other cardinality and every fk column derives from
/// `seed`.
fn build_chain_case(depth: usize, n_rows: usize, key_mod: u64, seed: u64) -> ChainCase {
    let schema = chain_schema();
    let indexed = depth - 1; // FullClimb from C{depth-1} spans `depth` levels
    let mut rows = vec![0u64; 4];
    for (t, r) in rows.iter_mut().enumerate() {
        *r = if t == indexed {
            n_rows as u64
        } else {
            1 + mix(seed, 100 + t as u64) % 50
        };
    }
    let mut fks = FkData::default();
    for parent in 0..3usize {
        let child = parent + 1;
        let fk: Vec<Id> = (0..rows[parent])
            .map(|j| (mix(seed, (parent as u64) << 32 | j) % rows[child]) as Id)
            .collect();
        fks.insert(parent, child, fk);
    }
    let keys: Vec<u64> = (0..n_rows as u64).map(|r| mix(seed, r) % key_mod).collect();
    let mut dev = FlashDevice::new(
        FlashGeometry::for_capacity(8 * 1024 * 1024),
        FlashTiming::default(),
    );
    let mut alloc = SegmentAllocator::new(dev.logical_pages());
    let builder = IndexBuilder::new(schema, rows, fks);
    let ci = builder
        .build_climbing(
            &mut dev,
            &mut alloc,
            ClimbingSpec {
                table: indexed,
                column: "h",
                keys: &keys,
                levels: LevelSpec::FullClimb,
                exact: true,
            },
        )
        .expect("chain index builds");
    assert_eq!(ci.levels.len(), depth);
    let ram = RamArena::paper_default();
    ChainCase { dev, ram, ci }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential: multi-level lists equal per-level lists for
    /// every level, and the multi traversal's I/O equals ONE single-level
    /// scan's — bit for bit, on every counter — regardless of depth.
    #[test]
    fn multi_matches_per_level_lists_and_single_scan_io(
        depth in 1usize..=4,
        n_rows in 1usize..=240,
        key_mod in 1u64..=200,
        seed in any::<u64>(),
        lo_raw in any::<u64>(),
        hi_raw in any::<u64>(),
    ) {
        let ChainCase { mut dev, ram, ci } = build_chain_case(depth, n_rows, key_mod, seed);
        // Span 1.5× the key domain so ranges land empty, clipped, inverted
        // and fully covering; small mods keep everything in one leaf while
        // large ones span several (63+ entries per leaf at depth ≤ 2).
        let span = key_mod + key_mod / 2 + 2;
        let (lo, hi) = (lo_raw % span, hi_raw % span);
        let levels: Vec<usize> = (0..depth).collect();

        let mut per_level: Vec<Vec<ghostdb_storage::IdList>> = Vec::new();
        let mut single_io: Option<FlashStats> = None;
        for &level in &levels {
            let mut probe = ci.probe(&ram).unwrap();
            let snap = dev.snapshot();
            per_level.push(probe.naive_lookup_range(&mut dev, lo, hi, level).unwrap());
            let io = dev.stats_since(&snap);
            // Every single-level scan of the same range costs the same.
            if let Some(first) = &single_io {
                prop_assert_eq!(&io, first, "level {} scan I/O drifts", level);
            } else {
                single_io = Some(io);
            }
        }

        let mut probe = ci.probe(&ram).unwrap();
        let snap = dev.snapshot();
        let multi = probe.lookup_range_multi(&mut dev, lo, hi, &levels).unwrap();
        let multi_io = dev.stats_since(&snap);

        prop_assert_eq!(&multi, &per_level, "range [{}, {}]", lo, hi);
        if lo <= hi {
            prop_assert_eq!(
                &multi_io,
                single_io.as_ref().unwrap(),
                "multi traversal must cost exactly one single-level scan"
            );
        } else {
            prop_assert_eq!(multi_io.pages_read, 0, "inverted range reads nothing");
        }

        // Determinism: repeating the multi scan on a fresh probe replays
        // the identical I/O trace.
        let mut probe = ci.probe(&ram).unwrap();
        let snap = dev.snapshot();
        let again = probe.lookup_range_multi(&mut dev, lo, hi, &levels).unwrap();
        prop_assert_eq!(&again, &multi);
        prop_assert_eq!(&dev.stats_since(&snap), &multi_io);
    }

    /// Requesting a subset (with repeats) of the levels returns exactly the
    /// matching single-level scans, still at one scan's I/O.
    #[test]
    fn multi_level_subsets_and_repeats(
        n_rows in 1usize..=160,
        key_mod in 1u64..=120,
        seed in any::<u64>(),
        lo_raw in any::<u64>(),
        pick in (0usize..4, 0usize..4, 0usize..4),
    ) {
        let depth = 4;
        let ChainCase { mut dev, ram, ci } = build_chain_case(depth, n_rows, key_mod, seed);
        let lo = lo_raw % (key_mod + 2);
        let hi = lo + key_mod / 2;
        let levels = [pick.0, pick.1, pick.2]; // repeats welcome
        let mut probe = ci.probe(&ram).unwrap();
        let snap = dev.snapshot();
        let multi = probe.lookup_range_multi(&mut dev, lo, hi, &levels).unwrap();
        let multi_io = dev.stats_since(&snap);
        for (i, &level) in levels.iter().enumerate() {
            let mut single = ci.probe(&ram).unwrap();
            let snap = dev.snapshot();
            let want = single.naive_lookup_range(&mut dev, lo, hi, level).unwrap();
            let single_io = dev.stats_since(&snap);
            prop_assert_eq!(&multi[i], &want, "slot {} (level {})", i, level);
            prop_assert_eq!(&multi_io, &single_io, "slot {} (level {})", i, level);
        }
    }
}

// ---------------------------------------------------------------------------
// Operator level: select_sublists_multi ≡ naive_select_sublists_multi
// ---------------------------------------------------------------------------

/// Per-level reference for `select_sublists_multi`: one full
/// `CiProbe::naive_lookup_range` traversal per target level on a shared
/// probe — the pre-batching behaviour verbatim. Same sublists; re-reads
/// the range's leaf pages and re-copies every payload once per level, so
/// it is the honest baseline the single-traversal path is judged against.
fn naive_select_sublists_multi(
    ctx: &mut ExecCtx<'_>,
    ci: &ClimbingIndex,
    pred: &Predicate,
    targets: &[TableId],
) -> ghostdb_exec::Result<Vec<Vec<IdSource>>> {
    let levels: Vec<usize> = targets
        .iter()
        .map(|t| level_of(ctx, ci, *t))
        .collect::<ghostdb_exec::Result<_>>()?;
    let (lo, hi) = pred.key_range();
    ctx.track(OpKind::Ci, |ctx| {
        let ram = ctx.ram();
        let mut probe = ci.probe(&ram)?;
        let mut out: Vec<Vec<IdSource>> = vec![Vec::new(); targets.len()];
        ctx.lane.with_flash(|dev| -> ghostdb_exec::Result<()> {
            for (i, level) in levels.iter().enumerate() {
                let lists = probe.naive_lookup_range(dev, lo, hi, *level)?;
                out[i] = lists.into_iter().map(IdSource::Flash).collect();
            }
            Ok(())
        })?;
        Ok(out)
    })
}

/// Decode every flash sublist to concrete ids (charged outside any tracked
/// scope, after attribution has been snapshotted).
fn decode(ctx: &mut ExecCtx<'_>, groups: &[Vec<IdSource>]) -> Vec<Vec<Vec<Id>>> {
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    groups
        .iter()
        .map(|level| {
            level
                .iter()
                .map(|src| match src {
                    IdSource::Flash(list) => {
                        let reader = IdListReader::open(*list, &ram, page_size).unwrap();
                        ctx.lane.with_flash(|dev| reader.drain(dev).unwrap())
                    }
                    other => panic!("select_sublists_multi emitted {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// Ci attribution and lane I/O of one ci_ops call on a fresh context.
fn run_ci_op(
    db: &mut Database,
    f: impl Fn(&mut ExecCtx<'_>) -> Vec<Vec<IdSource>>,
) -> (Vec<Vec<Vec<Id>>>, u128, FlashStats, Vec<u128>) {
    let mut ctx = ExecCtx::new(db);
    let groups = f(&mut ctx);
    let ci_ns = ctx.cost.op(OpKind::Ci).as_ns();
    let io = ctx.lane.io();
    let others: Vec<u128> = OpKind::ALL
        .iter()
        .filter(|op| **op != OpKind::Ci)
        .map(|op| ctx.cost.op(*op).as_ns())
        .collect();
    let ids = decode(&mut ctx, &groups);
    (ids, ci_ns, io, others)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random hidden predicates over the tiny database: the batched
    /// operator and its naive reference must decode identical id lists,
    /// charge *only* the Ci bucket, and the batched path must never read
    /// more than the naive one (strictly less I/O is the win; equality is
    /// required at a single level).
    #[test]
    fn select_sublists_multi_matches_naive_reference(
        table_pick in 0usize..4,
        column_pick in 0usize..2,
        bound in 0u64..10,
        op_pick in 0usize..2,
    ) {
        let mut db = tiny_db();
        let names = ["T12", "T11", "T1", "T2"];
        let t = db.schema.table_id(names[table_pick]).unwrap();
        let root = db.schema.root();
        let column = ["h1", "h2"][column_pick];
        let cmp = [CmpOp::Lt, CmpOp::Eq][op_pick];
        let pred = Predicate::new(column, cmp, pad8(bound), None);
        let targets_multi = [t, root];
        let targets_single = [root];

        for targets in [&targets_multi[..], &targets_single[..]] {
            let (ids_m, ci_m, io_m, others_m) = run_ci_op(&mut db, |ctx| {
                let ci = ctx.attr_index(t, column).unwrap();
                select_sublists_multi(ctx, ci, &pred, targets).unwrap()
            });
            let (ids_n, ci_n, io_n, others_n) = run_ci_op(&mut db, |ctx| {
                let ci = ctx.attr_index(t, column).unwrap();
                naive_select_sublists_multi(ctx, ci, &pred, targets).unwrap()
            });
            prop_assert_eq!(&ids_m, &ids_n, "decoded ids diverge for {:?}", targets);
            prop_assert!(
                others_m.iter().all(|ns| *ns == 0) && others_n.iter().all(|ns| *ns == 0),
                "CI scans must charge only the Ci bucket"
            );
            prop_assert!(ci_m <= ci_n, "batched Ci cost exceeds naive");
            prop_assert!(
                io_m.pages_read <= io_n.pages_read && io_m.bytes_to_ram <= io_n.bytes_to_ram,
                "batched path read more than naive"
            );
            if targets.len() == 1 {
                prop_assert_eq!(ci_m, ci_n, "single-level multi must equal naive exactly");
                prop_assert_eq!(io_m, io_n);
            }
            // Determinism: the batched call replays identically.
            let (ids_m2, ci_m2, io_m2, _) = run_ci_op(&mut db, |ctx| {
                let ci = ctx.attr_index(t, column).unwrap();
                select_sublists_multi(ctx, ci, &pred, targets).unwrap()
            });
            prop_assert_eq!(&ids_m, &ids_m2);
            prop_assert_eq!(ci_m, ci_m2);
            prop_assert_eq!(io_m, io_m2);
        }
    }
}

// ---------------------------------------------------------------------------
// Plan level: Cross plans through the full executor
// ---------------------------------------------------------------------------

/// Every observable field of two reports must match bit for bit (the same
/// lock `intra_equivalence` uses).
fn assert_report_identical(label: &str, want: &ExecReport, got: &ExecReport) {
    for op in OpKind::ALL {
        assert_eq!(
            want.op(op),
            got.op(op),
            "{label}: {} bucket diverges",
            op.name()
        );
    }
    assert_eq!(
        want.flash_total(),
        got.flash_total(),
        "{label}: flash_total"
    );
    assert_eq!(want.comm, got.comm, "{label}: comm");
    assert_eq!(
        want.bytes_to_secure, got.bytes_to_secure,
        "{label}: bytes_to_secure"
    );
    assert_eq!(want.result_rows, got.result_rows, "{label}: result_rows");
    assert_eq!(want.io, got.io, "{label}: io counters");
    assert_eq!(
        want.peak_ram_buffers, got.peak_ram_buffers,
        "{label}: peak_ram_buffers"
    );
}

/// The §6.4-shaped query over the tiny database: visible selection on T1,
/// hidden selection on T12 (inside T1's subtree so every Cross strategy
/// applies, and so Cross-Post exercises the banked-root-sublists path).
fn cross_query(db: &Database, vis_k: u64, hid_k: u64) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").expect("T1");
    let t12 = db.schema.table_id("T12").expect("T12");
    let mut q = SpjQuery::new()
        .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(vis_k), None))
        .pred(t12, Predicate::new("h1", CmpOp::Lt, pad8(hid_k), None))
        .project(t0, "id")
        .project(t1, "id");
    q.text = format!("cross-q(v<{vis_k}, h<{hid_k})");
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cross plans with random selectivities: results and complete
    /// `ExecReport`s are bit-identical across fresh databases and repeats
    /// — the access pattern of the single-traversal read path is a pure
    /// function of the plan, never of the database instance or its
    /// history.
    #[test]
    fn cross_plans_deterministic_across_repeats(
        vis_k in 1u64..=120,
        hid_k in 0u64..=4,
        strat_pick in 0usize..3,
    ) {
        let strategy = [
            VisStrategy::CrossPost,
            VisStrategy::CrossPostSelect,
            VisStrategy::CrossPre,
        ][strat_pick];
        let mut base_db = tiny_db();
        let q = cross_query(&base_db, vis_k, hid_k);
        let opts = ExecOptions::new().strategy(strategy)
            .project(ProjectAlgo::Project);
        let (want_rs, want_rep) =
            Executor::run(&mut base_db, &q, &opts).expect("first run");
        let mut db = tiny_db();
        for repeat in 0..2 {
            let (rs, rep) = Executor::run(&mut db, &q, &opts).expect("cross run");
            let tag = format!("{}/repeat={repeat}", strategy.name());
            prop_assert_eq!(&rs, &want_rs, "{}: results diverge", &tag);
            assert_report_identical(&tag, &want_rep, &rep);
        }
    }
}

/// The headline number, pinned as a test: on the Cross-Post shape (cross
/// level + root level from one index) the single-traversal path must
/// charge materially less Ci I/O than the naive per-level reference — the
/// ROADMAP's "roughly halve Cross-Post CI flash cost" claim, kept honest
/// in-tree.
#[test]
fn cross_post_ci_bytes_materially_reduced() {
    let mut db = wide_key_db();
    let root = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let pred = Predicate::new("h1", CmpOp::Lt, pad8(120), None); // every key
    let targets = [t1, root];
    let (ids_m, ci_multi, io_multi, _) = run_ci_op(&mut db, |ctx| {
        let ci = ctx.attr_index(t1, "h1").unwrap();
        select_sublists_multi(ctx, ci, &pred, &targets).unwrap()
    });
    let (ids_n, ci_naive, io_naive, _) = run_ci_op(&mut db, |ctx| {
        let ci = ctx.attr_index(t1, "h1").unwrap();
        naive_select_sublists_multi(ctx, ci, &pred, &targets).unwrap()
    });
    assert_eq!(ids_m, ids_n, "identical sublists");
    assert!(
        2 * io_multi.bytes_to_ram <= io_naive.bytes_to_ram + 2 * 4096,
        "two-level scan should read about half the naive bytes \
         (multi {} vs naive {})",
        io_multi.bytes_to_ram,
        io_naive.bytes_to_ram
    );
    assert!(ci_multi < ci_naive, "Ci attribution must shrink");
}
