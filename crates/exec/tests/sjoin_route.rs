//! SJoin's foreign-key route. When an SJoin projects exactly one SKT
//! column and that table is a direct child of the SKT owner, the same ids
//! sit in the owner's fk column, one `id_width(|child|)`-byte cell a row,
//! and `sjoin_stream` reads each page group (the SKT pages one fk-column
//! page covers) from whichever source `FlashTable::read_ns` prices cheaper.
//!
//! 1. **Build** — on the synthetic and medical datasets, every direct-child
//!    SKT column equals the owner's fk column, row for row: the two sources
//!    are copies of one `FkData` array.
//! 2. **Route** — random ascending id sets, sparse to dense, for each
//!    single target: the rows equal an SKT-only read, the billed SJoin time
//!    is exactly Σ per group min(SKT plan, fk plan), never more than the
//!    SKT-only bill, and SJoin holds at most 2 RAM buffers.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_datagen::{MedicalDataset, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::sjoin::sjoin_stream;
use ghostdb_exec::{Database, ExecCtx, OpKind};
use ghostdb_storage::{FlashTable, Id, TableId};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// Every row of `table`, scanned whole.
fn scan(ctx: &mut ExecCtx<'_>, table: &FlashTable) -> Vec<Vec<u8>> {
    let mut reader = table.reader(&ctx.ram(), ctx.page_size()).unwrap();
    let mut rows = Vec::new();
    ctx.lane.with_flash(|dev| {
        while let Some(row) = reader.next_row(dev).unwrap() {
            rows.push(row.to_vec());
        }
    });
    rows
}

/// Every SKT column of a direct child equals the owner's fk column.
fn skt_columns_equal_fk_columns(mut db: Database) {
    let mut ctx = ExecCtx::new(&mut db);
    let schema = ctx.cat.schema;
    let mut checked = 0;
    for owner in schema.tables() {
        let Ok(skt) = ctx.skt(owner) else { continue };
        let skt_rows = scan(&mut ctx, &skt.flash);
        assert_eq!(skt_rows.len() as u64, skt.rows());
        for &child in schema.children(owner) {
            let fk = ctx.cat.fk_column(child).unwrap();
            let fk_rows = scan(&mut ctx, fk.table());
            let c = skt.column_of(child).unwrap();
            assert_eq!(fk_rows.len(), skt_rows.len(), "{}", schema.def(child).name);
            for (r, (s, f)) in skt_rows.iter().zip(&fk_rows).enumerate() {
                let (s, f) = (
                    skt.flash.layout.get_id(s, c),
                    fk.table().layout.get_id(f, 0),
                );
                assert_eq!(s, f, "{} row {r}", schema.def(child).name);
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no SKT column checked");
}

#[test]
fn synthetic_skt_columns_equal_fk_columns() {
    let ds = SyntheticDataset::generate(SyntheticSpec::paper(0.0005));
    skt_columns_equal_fk_columns(ds.build().unwrap());
}

#[test]
fn medical_skt_columns_equal_fk_columns() {
    skt_columns_equal_fk_columns(MedicalDataset::generate(0.005, 7).build().unwrap());
}

/// The databases the route cases share: synthetic ×0.0005 (T0 = 5 000
/// rows, five `T0.fk1` pages of 1,024 2-byte ids, and 6-byte `SKT_T0`
/// rows, 341 to a page, so a page group of three SKT pages is one id short
/// of an fk-column page and groups straddle two) and medical ×0.005 (6 500
/// measurements).
fn shared_dbs() -> &'static [Mutex<Database>; 2] {
    static DBS: OnceLock<[Mutex<Database>; 2]> = OnceLock::new();
    DBS.get_or_init(|| {
        let synthetic = SyntheticDataset::generate(SyntheticSpec::paper(0.0005));
        let medical = MedicalDataset::generate(0.005, 7);
        [
            Mutex::new(synthetic.build().unwrap()),
            Mutex::new(medical.build().unwrap()),
        ]
    })
}

/// SplitMix64 step: one pseudo-random draw per `(seed, i)`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SJoin over `ids`: the emitted rows, the SJoin time it billed and
/// the RAM buffers it held at its peak.
fn run(db: &mut Database, owner: TableId, targets: &[TableId], ids: &[Id]) -> SJoinRun {
    db.begin_query();
    let mut ctx = ExecCtx::new(db);
    let skt = ctx.skt(owner).unwrap();
    let mut feed = ids.iter().copied();
    let mut rows = Vec::new();
    sjoin_stream(
        &mut ctx,
        skt,
        targets,
        |_ctx| Ok(feed.next()),
        |_ctx, id, t| {
            rows.push((id, t.to_vec()));
            Ok(())
        },
    )
    .unwrap();
    SJoinRun {
        rows,
        ns: ctx.cost.op(OpKind::SJoin).as_ns(),
        peak: ctx.ram().peak(),
    }
}

struct SJoinRun {
    rows: Vec<(Id, Vec<Id>)>,
    ns: u128,
    peak: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For each single target — T1 and T2 under `SKT_T0` (route open), T11
    /// and T12 under `SKT_T0` (grandchildren: route closed) and under
    /// `SKT_T1` (route open), and the medical schema's three direct
    /// children — the fk route emits the SKT-only rows and bills exactly
    /// the cheaper plan of every page group.
    #[test]
    fn fk_route_matches_the_skt_and_bills_the_cheaper_plan(
        pick in 0usize..9,
        sparsity in 0u32..10,
        from in 0u64..1000,
        share in 0u64..1001,
        seed in any::<u64>(),
    ) {
        let (which, owner, target) = [
            (0, "T0", "T1"),
            (0, "T0", "T2"),
            (0, "T0", "T11"),
            (0, "T0", "T12"),
            (0, "T1", "T11"),
            (0, "T1", "T12"),
            (1, "Measurements", "Patients"),
            (1, "Measurements", "Drugs"),
            (1, "Patients", "Doctors"),
        ][pick];
        let mut db = shared_dbs()[which].lock().unwrap();
        let owner = db.schema.table_id(owner).unwrap();
        let target = db.schema.table_id(target).unwrap();
        let rows = db.rows[owner];
        // The ids in `from..from + share` thousandths of the owner's rows.
        let lo = from * rows / 1000;
        let hi = (lo + share * rows / 1000).min(rows);
        let keep = 1u64 << sparsity;
        let ids: Vec<Id> = (lo..hi)
            .filter(|r| mix(seed, *r).is_multiple_of(keep))
            .map(|r| r as Id)
            .collect();

        let routed = run(&mut db, owner, &[target], &ids);
        // The owner id beside every SKT column: a wide read stays on the SKT.
        let mut all = db.skts[owner].as_ref().unwrap().descendants.clone();
        all.push(owner);
        let skt_only = run(&mut db, owner, &all, &ids);
        let c = all.iter().position(|t| *t == target).unwrap();
        let expect: Vec<(Id, Vec<Id>)> =
            skt_only.rows.iter().map(|(id, t)| (*id, vec![t[c]])).collect();
        prop_assert_eq!(&routed.rows, &expect);

        let ctx = ExecCtx::new(&mut db);
        let (timing, page_size) = (*ctx.lane.timing(), ctx.page_size());
        let skt = &ctx.skt(owner).unwrap().flash;
        let ids: Vec<u64> = ids.iter().map(|id| *id as u64).collect();
        let plan = if ctx.cat.schema.parent(target) == Some(owner) {
            let fk = ctx.cat.fk_column(target).unwrap().table();
            let skt_rpp = skt.layout.rows_per_page(page_size) as u64;
            let fk_rpp = fk.layout.rows_per_page(page_size) as u64;
            let group = fk_rpp / skt_rpp * skt_rpp;
            ids.chunk_by(|a, b| a / group == b / group)
                .map(|g| skt.read_ns(&timing, page_size, g).min(fk.read_ns(&timing, page_size, g)))
                .sum()
        } else {
            skt.read_ns(&timing, page_size, &ids)
        };
        prop_assert_eq!(skt_only.ns, skt.read_ns(&timing, page_size, &ids));
        prop_assert_eq!(routed.ns, plan);
        prop_assert!(routed.ns <= skt_only.ns);
        prop_assert!(routed.peak <= 2, "SJoin held {} buffers", routed.peak);
    }
}
