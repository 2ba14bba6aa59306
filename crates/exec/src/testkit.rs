//! Deterministic miniature databases for tests (not part of the public
//! API; `ghostdb-datagen` provides the real generators).

use crate::ctx::ExecCtx;
use crate::database::{ColumnLoad, Database, TableLoad};
use crate::Result;
use ghostdb_storage::idlist::{id_pages, slots_per_page};
use ghostdb_storage::row::put_id_cell;
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{Id, IdList, Value};
use ghostdb_token::TokenConfig;

/// Zero-padded 8-digit decimal string: unique 8-byte prefix, so index keys
/// are exact and predicates compare like numbers.
pub fn pad8(n: u64) -> Value {
    Value::Str(format!("{n:08}"))
}

/// Cardinalities of the tiny instance, in schema declaration order
/// (T0, T1, T2, T11, T12).
pub const TINY_ROWS: [u64; 5] = [600, 120, 40, 20, 16];

/// A tiny instance of the paper's synthetic schema:
///
/// * fks: `T0.fk1 = id % |T1|`, `T0.fk2 = id % |T2|`,
///   `T1.fk11 = id % |T11|`, `T1.fk12 = id % |T12|`;
/// * every table: `v1 = pad8(id)` (unique), `v2 = pad8(id % 10)`,
///   `h1 = pad8(id % 4)`, `h2 = pad8(id % 8)`; `h1`/`h2` are indexed.
pub fn tiny_db() -> Database {
    assemble_tiny(TINY_ROWS, |r| pad8(r as u64 % 4))
}

/// Table cardinalities of [`wide_key_db`]: [`TINY_ROWS`] with 480 T1 rows.
pub const WIDE_KEY_ROWS: [u64; 5] = [600, 480, 40, 20, 16];

/// [`tiny_db`] with [`WIDE_KEY_ROWS`], and `h1` distinct per row, so T1's
/// `h1` climbing index spans several B+-tree leaves ((2048-8-4)/12 = 169
/// entries per leaf, each a key and two levels of 2-byte offset cells) and
/// per-level rescans actually pay leaf I/O.
pub fn wide_key_db() -> Database {
    assemble_tiny(WIDE_KEY_ROWS, |r| pad8(r as u64))
}

/// An instance of `rows` cardinalities with `h1` generated by `h1`.
#[allow(
    clippy::expect_used,
    reason = "test support: a fixed instance that fails to assemble is a broken test build"
)]
fn assemble_tiny(rows: [u64; 5], h1: fn(Id) -> Value) -> Database {
    let schema = paper_synthetic_schema(2, 2);
    let [n0, n1, n2, n11, n12] = rows;
    let table = |name: &str, rows: u64, fks: Vec<(String, Vec<Id>)>| TableLoad {
        table: name.into(),
        rows,
        fks,
        columns: vec![
            ColumnLoad {
                name: "v1".into(),
                gen: Box::new(|r| pad8(r as u64)),
                index: false,
            },
            ColumnLoad {
                name: "v2".into(),
                gen: Box::new(|r| pad8(r as u64 % 10)),
                index: false,
            },
            ColumnLoad {
                name: "h1".into(),
                gen: Box::new(h1),
                index: true,
            },
            ColumnLoad {
                name: "h2".into(),
                gen: Box::new(|r| pad8(r as u64 % 8)),
                index: true,
            },
        ],
    };
    let loads = vec![
        table(
            "T0",
            n0,
            vec![
                ("fk1".into(), (0..n0).map(|i| (i % n1) as Id).collect()),
                ("fk2".into(), (0..n0).map(|i| (i % n2) as Id).collect()),
            ],
        ),
        table(
            "T1",
            n1,
            vec![
                ("fk11".into(), (0..n1).map(|i| (i % n11) as Id).collect()),
                ("fk12".into(), (0..n1).map(|i| (i % n12) as Id).collect()),
            ],
        ),
        table("T2", n2, vec![]),
        table("T11", n11, vec![]),
        table("T12", n12, vec![]),
    ];
    Database::assemble(
        schema,
        &TokenConfig::paper_platform(16 * 1024 * 1024),
        loads,
    )
    .expect("tiny db assembles")
}

/// Ground truth for the tiny database: root ids satisfying a caller
/// predicate over the joined tuple (t0, t1, t2, t11, t12 row ids).
pub fn tiny_truth(mut keep: impl FnMut(u64, u64, u64, u64, u64) -> bool) -> Vec<Id> {
    let [n0, n1, n2, n11, n12] = TINY_ROWS;
    (0..n0)
        .filter(|i| {
            let t1 = i % n1;
            let t2 = i % n2;
            let t11 = t1 % n11;
            let t12 = t1 % n12;
            keep(*i, t1, t2, t11, t12)
        })
        .map(|i| i as Id)
        .collect()
}

/// Lay `lists` (each sorted) out in one fresh segment, as a climbing-index
/// area lays out its sublists: `width`-byte id slots, `gaps[i]` unused
/// slots before list `i`. The segment is registered as a temp of `ctx`.
pub fn lay_out(
    ctx: &mut ExecCtx<'_>,
    lists: &[Vec<Id>],
    gaps: &[u64],
    width: usize,
) -> Result<Vec<IdList>> {
    let page_size = ctx.page_size();
    let spp = slots_per_page(width, page_size);
    let mut out = Vec::with_capacity(lists.len());
    let mut slot = 0u64;
    for (ids, gap) in lists.iter().zip(gaps) {
        slot += gap;
        out.push((slot, ids.len() as u64));
        slot += ids.len() as u64;
    }
    let pages = id_pages(slot, width, page_size);
    let mut image = vec![0xA5u8; pages as usize * page_size];
    for ((start, _), ids) in out.iter().zip(lists) {
        for (i, id) in ids.iter().enumerate() {
            let s = start + i as u64;
            let at = (s / spp) as usize * page_size + (s % spp) as usize * width;
            put_id_cell(&mut image[at..at + width], *id)?;
        }
    }
    let segment = ctx.lane.alloc().alloc(pages)?;
    ctx.add_temp(segment);
    ctx.lane.with_flash(|dev| {
        for (p, page) in image.chunks(page_size).enumerate() {
            dev.write(segment.lpn(p as u64)?, page)?;
        }
        Ok::<_, crate::ExecError>(())
    })?;
    Ok(out
        .into_iter()
        .map(|(start, count)| IdList {
            segment,
            start,
            count,
            width,
        })
        .collect())
}
