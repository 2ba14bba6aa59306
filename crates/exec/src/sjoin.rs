//! The `SJoin` operator: key semi-join against a Subtree Key Table (§3.3).
//!
//! `SJoin({idT}, SKT_T, π)` scans an ascending stream of `T` ids, reads the
//! SKT row of each (ascending access: every touched page is visited once,
//! and only the byte spans its needed rows occupy are read when that is
//! cheaper than the whole page), and emits `<idT, idTi, idTj …>` projected
//! on π. It needs two buffers to scan its operands, one to hold the ids
//! that fall on the current SKT page, and one to write the result (§3.4).

use crate::ctx::ExecCtx;
use crate::report::OpKind;
use crate::Result;
use ghostdb_index::SubtreeKeyTable;
use ghostdb_storage::row::RowLayout;
use ghostdb_storage::table::FlashTableWriter;
#[cfg(doc)]
use ghostdb_storage::table::{page_spans, PageCursor};
use ghostdb_storage::{FlashTable, Id, TableId};

/// An SJoin output description: the materialised rows and their column
/// tables (column 0 is always the owner id, i.e. the root id for SKT_T0).
#[derive(Debug, Clone)]
pub struct SJoinTable {
    /// Materialised rows.
    pub table: FlashTable,
    /// Table of each column (column 0 = SKT owner).
    pub cols: Vec<TableId>,
}

impl SJoinTable {
    /// Column index of `t`.
    pub fn col_of(&self, t: TableId) -> Option<usize> {
        self.cols.iter().position(|c| *c == t)
    }
}

/// Streaming SJoin driver. The caller feeds ascending owner ids via
/// `next_id` and receives projected rows via `sink` (id + projected target
/// ids, in `targets` order). SKT read time is attributed to `SJoin`.
///
/// Ids go through a [`PageCursor`]: they queue until the first one that
/// falls on a later SKT page, the rows of the queued page are then read in
/// the byte spans [`page_spans`] plans for them (one tracked flash access
/// per page) and emitted. The ids of one page are held in one more
/// secure-RAM buffer, charged here: an SKT row is at least one 4-byte id
/// wide, so a page's ids fit in one page-sized buffer.
pub fn sjoin_stream(
    ctx: &mut ExecCtx<'_>,
    skt: &SubtreeKeyTable,
    targets: &[TableId],
    mut next_id: impl FnMut(&mut ExecCtx<'_>) -> Result<Option<Id>>,
    mut sink: impl FnMut(&mut ExecCtx<'_>, Id, &[Id]) -> Result<()>,
) -> Result<u64> {
    let col_idx: Vec<Option<usize>> = targets
        .iter()
        .map(|t| {
            if *t == skt.table {
                None // the owner id itself
            } else {
                Some(
                    skt.column_of(*t)
                        .expect("planner only projects SKT descendants"),
                )
            }
        })
        .collect();
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let mut cursor = skt.flash.cursor(&ram, page_size)?;
    let _lookahead = ram.alloc()?;
    let layout = skt.flash.layout.clone();
    let mut out_ids = vec![0 as Id; targets.len()];
    let mut emitted = 0u64;
    let mut next = next_id(ctx)?;
    while let Some(first) = next {
        cursor.push(first as u64);
        next = loop {
            match next_id(ctx)? {
                Some(id) if !cursor.opens_page(id as u64) => cursor.push(id as u64),
                other => break other,
            }
        };
        ctx.tracked(OpKind::SJoin, |dev| cursor.flush(dev, next.map(u64::from)))?;
        for item in cursor.ready() {
            let (row, skt_row) = item?;
            let id = row as Id;
            for (slot, col) in out_ids.iter_mut().zip(&col_idx) {
                *slot = match col {
                    None => id,
                    Some(c) => layout.get_id(skt_row, *c),
                };
            }
            sink(ctx, id, &out_ids)?;
            emitted += 1;
        }
    }
    Ok(emitted)
}

/// A writer materialising `<owner_id, targets…>` rows; writes attributed to
/// `Store`.
pub struct SJoinWriter {
    writer: FlashTableWriter,
    layout: RowLayout,
    cols: Vec<TableId>,
}

impl SJoinWriter {
    /// Create a writer for up to `max_rows` rows over `owner` + `targets`.
    pub fn create(
        ctx: &mut ExecCtx<'_>,
        owner: TableId,
        targets: &[TableId],
        max_rows: u64,
    ) -> Result<Self> {
        let layout = RowLayout::ids(1 + targets.len());
        let ram = ctx.ram();
        let page_size = ctx.page_size();
        let writer =
            FlashTableWriter::create(ctx.lane.alloc(), &ram, layout.clone(), max_rows, page_size)?;
        let mut cols = vec![owner];
        cols.extend_from_slice(targets);
        Ok(SJoinWriter {
            writer,
            layout,
            cols,
        })
    }

    /// Append one row (owner id + target ids).
    pub fn push(&mut self, ctx: &mut ExecCtx<'_>, id: Id, targets: &[Id]) -> Result<()> {
        let mut row = vec![0u8; self.layout.size()];
        self.layout.put_id(&mut row, 0, id);
        for (i, t) in targets.iter().enumerate() {
            self.layout.put_id(&mut row, 1 + i, *t);
        }
        ctx.tracked(OpKind::Store, |dev| Ok(self.writer.push(dev, &row)?))
    }

    /// Finish, registering the segment as a query temp.
    pub fn finish(self, ctx: &mut ExecCtx<'_>) -> Result<SJoinTable> {
        let writer = self.writer;
        let table = ctx.tracked(OpKind::Store, move |dev| writer.finish(dev))?;
        ctx.add_temp(table.segment());
        Ok(SJoinTable {
            table,
            cols: self.cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn sjoin_projects_descendant_ids() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let t12 = db.schema.table_id("T12").unwrap();
        let mut ctx = ExecCtx::new(&mut db);
        let skt = ctx.skt(t0).unwrap();
        let ids: Vec<Id> = vec![0, 7, 130, 599];
        let mut feed = ids.clone().into_iter();
        let mut got: Vec<(Id, Vec<Id>)> = Vec::new();
        sjoin_stream(
            &mut ctx,
            skt,
            &[t1, t12],
            |_ctx| Ok(feed.next()),
            |_ctx, id, targets| {
                got.push((id, targets.to_vec()));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got.len(), 4);
        for (id, targets) in got {
            let exp_t1 = id % 120;
            let exp_t12 = exp_t1 % 16;
            assert_eq!(targets, vec![exp_t1, exp_t12], "id {id}");
        }
    }

    #[test]
    fn sjoin_ascending_reads_each_page_once() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let mut ctx = ExecCtx::new(&mut db);
        let skt = ctx.skt(t0).unwrap();
        // 600 rows × 16-byte rows = 128 rows/page → 5 pages.
        let ids: Vec<Id> = (0..600).collect();
        let mut feed = ids.into_iter();
        let before = ctx.lane.io();
        sjoin_stream(
            &mut ctx,
            skt,
            &[t1],
            |_ctx| Ok(feed.next()),
            |_ctx, _id, _t| Ok(()),
        )
        .unwrap();
        let d = ctx.lane.io() - before;
        assert_eq!(d.pages_read, 5);
    }

    #[test]
    fn sjoin_writer_materialises_rows() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let mut ctx = ExecCtx::new(&mut db);
        let mut w = SJoinWriter::create(&mut ctx, t0, &[t1], 10).unwrap();
        w.push(&mut ctx, 5, &[50]).unwrap();
        w.push(&mut ctx, 6, &[60]).unwrap();
        let out = w.finish(&mut ctx).unwrap();
        assert_eq!(out.table.rows(), 2);
        assert_eq!(out.col_of(t1), Some(1));
        assert_eq!(out.col_of(t0), Some(0));
        assert!(ctx.cost.op(OpKind::Store).as_ns() > 0);
    }
}
