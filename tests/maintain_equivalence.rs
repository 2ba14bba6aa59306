//! Incremental-maintenance differential suite: a [`MaintainedIndex`]
//! absorbing inserts and deletes must answer every probe exactly like a
//! climbing index freshly rebuilt from the same logical state — at every
//! intermediate state and at every merge threshold drawn (1, rebuild per
//! op, through 5). The host-side model (plain `BTreeMap`s maintained by
//! the test) is the independent ground truth; the maintained index, a
//! fresh `build_from_state` rebuild, and the model must agree three ways
//! at each step.

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
use ghostdb_index::{
    build_from_state, ClimbingIndex, IndexBuilder, MaintainedIndex, MaintainedSkt, MaintainedSpec,
};
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{Id, IdListReader};
use ghostdb_token::RamArena;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Key domain: small enough that duplicate keys and key collisions between
/// levels happen constantly.
const KEYS: u64 = 12;
/// Two levels — the indexed table and one ancestor (labels only; the
/// maintenance layer never consults a schema).
const LEVELS: [usize; 2] = [1, 0];

/// RAM buffers must match the device's page size (the probe pins
/// page-sized buffers per B+-tree level).
fn ram() -> RamArena {
    RamArena::new(512, 32)
}

fn device() -> FlashDevice {
    let geometry = FlashGeometry {
        page_size: 512,
        pages_per_block: 16,
        block_count: 64,
        spare_blocks: 8,
    };
    FlashDevice::new(geometry, FlashTiming::default())
}

/// The suite's index over [`LEVELS`], keyed on column `k`.
fn spec(initial: &[Vec<u64>], merge_threshold: usize) -> MaintainedSpec<'_> {
    MaintainedSpec {
        table: LEVELS[0],
        column: "k",
        levels: &LEVELS,
        exact: true,
        initial,
        merge_threshold,
    }
}

/// Independent ground truth: per level, live `id → key`.
type Model = Vec<BTreeMap<Id, u64>>;

fn model_eq(model: &Model, level: usize, key: u64) -> Vec<Id> {
    model[level]
        .iter()
        .filter(|(_, k)| **k == key)
        .map(|(id, _)| *id)
        .collect()
}

fn model_range(model: &Model, level: usize, lo: u64, hi: u64) -> Vec<Id> {
    model[level]
        .iter()
        .filter(|(_, k)| lo <= **k && **k <= hi)
        .map(|(id, _)| *id)
        .collect()
}

fn ci_eq(
    ci: &ClimbingIndex,
    dev: &mut FlashDevice,
    ram: &RamArena,
    level: usize,
    key: u64,
) -> Vec<Id> {
    let mut probe = ci.probe(ram).expect("probe");
    match probe.lookup_eq(dev, key, level).expect("lookup_eq") {
        Some(list) => IdListReader::open(list, ram, dev.page_size())
            .expect("open list")
            .drain(dev)
            .expect("drain"),
        None => Vec::new(),
    }
}

fn ci_range(
    ci: &ClimbingIndex,
    dev: &mut FlashDevice,
    ram: &RamArena,
    level: usize,
    lo: u64,
    hi: u64,
) -> Vec<Id> {
    let mut probe = ci.probe(ram).expect("probe");
    let mut ids = Vec::new();
    for list in probe
        .lookup_range(dev, lo, hi, level)
        .expect("lookup_range")
    {
        let sub = IdListReader::open(list, ram, dev.page_size())
            .expect("open list")
            .drain(dev)
            .expect("drain");
        ids.extend(sub);
    }
    ids.sort_unstable();
    ids
}

const RANGES: [(u64, u64); 4] = [(0, KEYS - 1), (3, 8), (8, 3), (5, 5)];

/// Three-way agreement on a set of probe keys: maintained index vs model,
/// and a fresh rebuild from the model vs model. `keys` limits the equality
/// probes (every intermediate state samples; the final state sweeps all).
fn verify(
    mi: &MaintainedIndex,
    model: &Model,
    keys: &[u64],
    dev: &mut FlashDevice,
    alloc: &mut SegmentAllocator,
    ram: &RamArena,
    label: &str,
) {
    assert_eq!(mi.state(), &model[..], "{label}: logical state drifted");
    let fresh =
        build_from_state(dev, alloc, LEVELS[0], "k", &LEVELS, true, model).expect("fresh rebuild");
    for level in 0..LEVELS.len() {
        for &key in keys {
            let want = model_eq(model, level, key);
            let got = mi.lookup_eq(dev, ram, level, key).expect("maintained eq");
            assert_eq!(got, want, "{label}: eq({key}) level {level} (maintained)");
            let rebuilt = ci_eq(&fresh, dev, ram, level, key);
            assert_eq!(rebuilt, want, "{label}: eq({key}) level {level} (rebuild)");
        }
        for &(lo, hi) in &RANGES {
            let want = model_range(model, level, lo, hi);
            let got = mi
                .lookup_range(dev, ram, level, lo, hi)
                .expect("maintained range");
            assert_eq!(
                got, want,
                "{label}: range({lo},{hi}) level {level} (maintained)"
            );
            let rebuilt = ci_range(&fresh, dev, ram, level, lo, hi);
            assert_eq!(
                rebuilt, want,
                "{label}: range({lo},{hi}) level {level} (rebuild)"
            );
        }
    }
    fresh.release(dev, alloc).expect("release fresh");
}

/// One random update. Deletes pick a victim by rank among live ids — or,
/// one time in (live+1), a never-assigned id, exercising the no-op path.
#[derive(Debug, Clone, Copy)]
enum MOp {
    Insert(usize, u64),
    Delete(usize, u8),
}

fn op_strategy() -> impl Strategy<Value = MOp> {
    (any::<bool>(), 0usize..2, 0u64..KEYS, any::<u8>()).prop_map(|(ins, level, key, pick)| {
        if ins {
            MOp::Insert(level, key)
        } else {
            MOp::Delete(level, pick)
        }
    })
}

fn apply(
    mi: &mut MaintainedIndex,
    model: &mut Model,
    op: MOp,
    dev: &mut FlashDevice,
    alloc: &mut SegmentAllocator,
) -> (usize, u64) {
    match op {
        MOp::Insert(level, key) => {
            let id = mi.insert(dev, alloc, level, key).expect("insert");
            let prev = model[level].insert(id, key);
            assert!(prev.is_none(), "id {id} reused at level {level}");
            (level, key)
        }
        MOp::Delete(level, pick) => {
            let live: Vec<Id> = model[level].keys().copied().collect();
            let slot = pick as usize % (live.len() + 1);
            if slot == live.len() {
                // A never-assigned id: nothing may change.
                let ghost = 1_000_000 + pick as Id;
                assert!(
                    !mi.delete(dev, alloc, level, ghost).expect("ghost delete"),
                    "delete of unknown id {ghost} claimed success"
                );
                (level, 0)
            } else {
                let id = live[slot];
                let key = model[level][&id];
                assert!(
                    mi.delete(dev, alloc, level, id).expect("delete"),
                    "delete of live id {id} failed"
                );
                model[level].remove(&id);
                (level, key)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole lock: random op sequences, every intermediate state
    /// compared three ways (maintained / fresh rebuild / host model) on
    /// the touched key plus boundary samples and all four range shapes;
    /// the final state (and the post-flush state) swept over every key.
    #[test]
    fn maintained_index_equals_fresh_rebuild_at_every_state(
        initial in proptest::collection::vec(
            proptest::collection::vec(0u64..KEYS, 0..8), 2..=2),
        ops in proptest::collection::vec(op_strategy(), 1..16),
        threshold in 1usize..6,
    ) {
        let all_keys: Vec<u64> = (0..KEYS).collect();
        let mut dev = device();
        let mut alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = ram();
        let mut mi = MaintainedIndex::build(&mut dev, &mut alloc, spec(&initial, threshold))
            .expect("build");
        let mut model: Model = initial
            .iter()
            .map(|keys| keys.iter().enumerate().map(|(i, k)| (i as Id, *k)).collect())
            .collect();
        let name = format!("threshold {threshold}");
        verify(&mi, &model, &all_keys, &mut dev, &mut alloc, &ram,
               &format!("{name}/initial"));
        for (i, op) in ops.iter().enumerate() {
            let (_, key) = apply(&mut mi, &mut model, *op, &mut dev, &mut alloc);
            let sample = [key, 0, KEYS / 2, KEYS - 1];
            verify(&mi, &model, &sample, &mut dev, &mut alloc, &ram,
                   &format!("{name}/op {i} ({op:?})"));
        }
        verify(&mi, &model, &all_keys, &mut dev, &mut alloc, &ram,
               &format!("{name}/final"));
        mi.flush(&mut dev, &mut alloc).expect("flush");
        prop_assert_eq!(mi.pending_ops(), 0, "{}: flush left buffered ops", name);
        verify(&mi, &model, &all_keys, &mut dev, &mut alloc, &ram,
               &format!("{name}/flushed"));
    }

    /// Replaying the same op sequence on two fresh devices is bit-identical
    /// in device-wide counters (GC included) and every probe answer: the
    /// write path's placement is a pure function of the operation sequence
    /// (SECURITY.md claim 13's device-level half).
    #[test]
    fn maintenance_replay_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        threshold in 1usize..6,
    ) {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut dev = device();
            let mut alloc = SegmentAllocator::new(dev.logical_pages());
            let ram = ram();
            let initial = vec![vec![1, 5, 5, 9], vec![2, 5]];
            let mut mi = MaintainedIndex::build(&mut dev, &mut alloc, spec(&initial, threshold))
                .expect("build");
            let mut model: Model = initial
                .iter()
                .map(|keys| keys.iter().enumerate().map(|(i, k)| (i as Id, *k)).collect())
                .collect();
            for op in &ops {
                apply(&mut mi, &mut model, *op, &mut dev, &mut alloc);
            }
            let mut probes = Vec::new();
            for level in 0..LEVELS.len() {
                for key in 0..KEYS {
                    probes.push(mi.lookup_eq(&mut dev, &ram, level, key).expect("eq"));
                }
            }
            runs.push((dev.stats(), probes));
        }
        prop_assert_eq!(
            &runs[0], &runs[1],
            "threshold {}: replay diverged in counters or probe answers", threshold
        );
    }
}

/// SKT maintenance: in-place row updates and appends (with segment growth)
/// against a host-side model. Pseudo-random ops from a fixed LCG keep the
/// test deterministic without a PRNG dependency.
#[test]
fn maintained_skt_tracks_model_through_updates_appends_and_growth() {
    let schema = paper_synthetic_schema(1, 1);
    let t0 = schema.root();
    let t1 = schema.table_id("T1").expect("T1");
    let t2 = schema.table_id("T2").expect("T2");
    let t11 = schema.table_id("T11").expect("T11");
    let t12 = schema.table_id("T12").expect("T12");
    let mut rows = vec![0u64; schema.len()];
    rows[t0] = 40;
    rows[t1] = 20;
    rows[t2] = 10;
    rows[t11] = 5;
    rows[t12] = 4;
    let mut fks = ghostdb_index::FkData::default();
    fks.insert(t0, t1, (0..40).map(|i| (i / 2) as u32).collect());
    fks.insert(t0, t2, (0..40).map(|i| (i % 10) as u32).collect());
    fks.insert(t1, t11, (0..20).map(|i| (i % 5) as u32).collect());
    fks.insert(t1, t12, (0..20).map(|i| (i % 4) as u32).collect());
    let builder = IndexBuilder::new(schema.clone(), rows, fks);

    let mut dev = device();
    let mut alloc = SegmentAllocator::new(dev.logical_pages());
    let skt = builder.build_skt(&mut dev, &mut alloc, t1).expect("skt");
    let cols = skt.descendants.len();
    // Host model mirrors the built rows.
    let mut model: Vec<Vec<Id>> = {
        let layout = skt.flash.layout.clone();
        let mut m = Vec::new();
        let mut buf = vec![0u8; layout.size()];
        for r in 0..skt.rows() {
            skt.flash.read_row(&mut dev, r, &mut buf).expect("read row");
            m.push((0..cols).map(|c| layout.get_id(&buf, c)).collect());
        }
        m
    };
    let mut mskt = MaintainedSkt::new(skt, 8);

    // 64 rows fit a 512-byte page with 2 id columns, so ~200 appends force
    // several grow_into rebuilds (capacity 64 → 72 → 80 → …).
    let mut seed = 0x9e3779b9u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    for step in 0..200u32 {
        let ids: Vec<Id> = (0..cols).map(|_| next() % 1000).collect();
        if step % 3 == 0 && !model.is_empty() {
            let row = (next() as u64) % model.len() as u64;
            mskt.set_row(&mut dev, row, &ids).expect("set_row");
            model[row as usize] = ids;
        } else {
            mskt.append_row(&mut dev, &mut alloc, &ids)
                .expect("append_row");
            model.push(ids);
        }
        assert_eq!(mskt.rows(), model.len() as u64, "step {step}: row count");
    }
    // Initial capacity is one 64-row page; well past it means grow_into
    // ran repeatedly (every 8 appends once full).
    assert!(mskt.rows() > 128, "growth path never exercised");
    // Full readback against the model.
    let layout = mskt.skt.flash.layout.clone();
    let mut buf = vec![0u8; layout.size()];
    for (r, want) in model.iter().enumerate() {
        mskt.skt
            .flash
            .read_row(&mut dev, r as u64, &mut buf)
            .expect("read back");
        let got: Vec<Id> = (0..cols).map(|c| layout.get_id(&buf, c)).collect();
        assert_eq!(&got, want, "row {r} diverges from the model");
    }
    // The grown table still validates as an SKT for its schema position.
    assert_eq!(mskt.skt.column_of(t11), Some(0));
    assert_eq!(mskt.skt.column_of(t12), Some(1));
}

/// Wrong-width rows are rejected before touching flash, and appends past
/// capacity grow rather than fail.
#[test]
fn maintained_skt_rejects_malformed_rows() {
    let schema = paper_synthetic_schema(1, 1);
    let t0 = schema.root();
    let t1 = schema.table_id("T1").expect("T1");
    let mut rows = vec![0u64; schema.len()];
    rows[t0] = 4;
    rows[t1] = 2;
    rows[schema.table_id("T2").expect("T2")] = 2;
    rows[schema.table_id("T11").expect("T11")] = 2;
    rows[schema.table_id("T12").expect("T12")] = 2;
    let mut fks = ghostdb_index::FkData::default();
    fks.insert(t0, t1, vec![0, 0, 1, 1]);
    fks.insert(t0, schema.table_id("T2").expect("T2"), vec![0, 1, 0, 1]);
    fks.insert(t1, schema.table_id("T11").expect("T11"), vec![0, 1]);
    fks.insert(t1, schema.table_id("T12").expect("T12"), vec![1, 0]);
    let builder = IndexBuilder::new(schema.clone(), rows, fks);
    let mut dev = device();
    let mut alloc = SegmentAllocator::new(dev.logical_pages());
    let skt = builder.build_skt(&mut dev, &mut alloc, t1).expect("skt");
    let mut mskt = MaintainedSkt::new(skt, 4);
    assert!(
        mskt.set_row(&mut dev, 0, &[1]).is_err(),
        "short row accepted"
    );
    assert!(
        mskt.append_row(&mut dev, &mut alloc, &[1, 2, 3]).is_err(),
        "long row accepted"
    );
    assert_eq!(mskt.rows(), 2, "rejected ops must not change the table");
}
