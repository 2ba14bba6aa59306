//! The `SJoin` operator: key semi-join against a Subtree Key Table (§3.3).
//!
//! `SJoin({idT}, SKT_T, π)` scans an ascending stream of `T` ids, reads the
//! SKT row of each (ascending access: every touched page is visited once,
//! and only the byte spans its needed rows occupy are read when that is
//! cheaper than the whole page), and emits `<idT, idTi, idTj …>` projected
//! on π. It needs two buffers to scan its operands, one to hold the ids
//! that fall on the current SKT page, and one per column it writes (§3.4).
//!
//! **The QEPSJ result is columnar.** Projection starts from one id column
//! per table (§4, Figure 5 line 1), and footnote 7 lets SJoin emit those
//! columns directly: every plan's SJoin writes through [`SJoinWriter`], one
//! id column per table, root first, row `i` of each being position `i` of
//! the result. Each column's cells are [`id_width`]`(|T|)` bytes: the
//! fewest that hold every id of its table, a function of the table's public
//! row count only.
//!
//! **The foreign-key route.** When π holds exactly one SKT column and that
//! table is a direct child of `T`, the same ids also sit in `T`'s hidden
//! foreign-key column: one id cell per row where an SKT row holds every
//! descendant's (at ×0.02, 2 bytes against `SKT_T0`'s 8). SJoin then reads
//! the ids in page groups, the ids of as many whole SKT pages as one page
//! of the fk column holds (one fk-column page, 1,024 rows of 2-byte cells
//! at 2 KB, wherever SKT pages nest in fk-column pages as in the synthetic
//! schema). For each group it prices
//! both reads with [`FlashTable::read_ns`], the rule [`PageCursor::flush`]
//! bills by, and reads the cheaper source. The emitted rows are the same
//! either way. Every other π reads the SKT exactly as before. The choice
//! is made on the token from hidden-derived ids and `FlashTiming` alone,
//! and only changes which token-internal pages are read (SECURITY.md
//! claim 12).
//!
//! **Keyed groups.** A merge group can already name, for each of its root
//! ids, the id of one table `K` it joins (`KeyedIds`): the probe id of a
//! Pre probe, or the single own-level id of a hidden selection's key. Once
//! the merge has kept the group's pairs whose root ids it yields, SJoin
//! takes `K`'s column from the pairs, in step with the ascending root ids,
//! and the columns of `K`'s descendants from a sorted RAM map built by one
//! [`sjoin_stream`] over the distinct keys against `K`'s SKT (or fk
//! column). When keyed groups cover every target,
//! `SJoinWriter::sjoin_keyed` writes F' without opening the root's SKT;
//! the rows are the ones [`SJoinWriter::sjoin`] writes.

use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::merge::load_ids;
use crate::report::OpKind;
use crate::Result;
use ghostdb_index::SubtreeKeyTable;
use ghostdb_storage::row::{id_width, RowLayout};
use ghostdb_storage::table::FlashTableWriter;
#[cfg(doc)]
use ghostdb_storage::table::{page_spans, PageCursor};
use ghostdb_storage::{FlashTable, HiddenColumn, Id, IdList, TableId};
use ghostdb_token::RamRegion;

/// The QEPSJ result F': one id column per table, root first. Row `i` of
/// every column is position `i` of F'.
#[derive(Debug, Clone)]
pub struct SJoinTable {
    /// The id columns, parallel to `tables`.
    pub columns: Vec<FlashTable>,
    /// Table of each column (column 0 = the SKT owner, the root).
    pub tables: Vec<TableId>,
}

impl SJoinTable {
    /// The id column of `t`.
    pub fn column(&self, t: TableId) -> Option<&FlashTable> {
        let i = self.tables.iter().position(|c| *c == t)?;
        Some(&self.columns[i])
    }
}

/// The owner's fk column that can stand in for the SKT: open when
/// `targets` holds exactly one SKT column and its table is a direct child
/// of the SKT owner.
fn fk_route<'a>(
    ctx: &ExecCtx<'a>,
    skt: &SubtreeKeyTable,
    targets: &[TableId],
) -> Result<Option<&'a HiddenColumn>> {
    let mut descendants = targets.iter().filter(|t| **t != skt.table);
    match (descendants.next(), descendants.next()) {
        (Some(&t), None) if ctx.cat.schema.parent(t) == Some(skt.table) => {
            ctx.cat.fk_column(t).map(Some)
        }
        _ => Ok(None),
    }
}

/// Streaming SJoin driver. The caller feeds ascending owner ids via
/// `next_id` and receives projected rows via `sink` (id + projected target
/// ids, in `targets` order). Source read time is attributed to `SJoin`.
///
/// Ids go through a [`PageCursor`]: they queue while they fall on one page
/// of the source, whose rows are then read in the byte spans
/// [`page_spans`] plans for them (one tracked flash access per page) and
/// emitted. Ids are pulled one page group ahead: one SKT page, or on the
/// foreign-key route (module docs) the SKT pages one fk-column page covers.
/// A group is held in one more secure-RAM buffer, charged here, as a bitmap
/// over its row range (modelled below as the list of its rows): a row is
/// at least one byte, so a group spans at most `page_size` rows, far fewer
/// than a buffer's bits. At most one source reader is open at a time, so
/// SJoin holds 2 buffers on either route.
pub fn sjoin_stream(
    ctx: &mut ExecCtx<'_>,
    skt: &SubtreeKeyTable,
    targets: &[TableId],
    mut next_id: impl FnMut(&mut ExecCtx<'_>) -> Result<Option<Id>>,
    mut sink: impl FnMut(&mut ExecCtx<'_>, Id, &[Id]) -> Result<()>,
) -> Result<u64> {
    let col_idx = targets
        .iter()
        .map(|t| {
            if *t == skt.table {
                return Ok(None); // the owner id itself
            }
            let c = skt.column_of(*t).ok_or_else(|| {
                let name = |t: TableId| &ctx.cat.schema.def(t).name;
                ExecError::Query(format!(
                    "SJoin: {} is not a descendant of {}",
                    name(*t),
                    name(skt.table)
                ))
            })?;
            Ok(Some(c))
        })
        .collect::<Result<Vec<_>>>()?;
    let fk = fk_route(ctx, skt, targets)?;
    // On the fk route the one SKT column is the fk column's only field.
    let fk_idx: Vec<Option<usize>> = col_idx.iter().map(|c| c.map(|_| 0)).collect();
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let timing = *ctx.lane.timing();
    let skt_rpp = skt.flash.layout.rows_per_page(page_size) as u64;
    let group_rows = match fk {
        Some(fk) => fk.table().layout.rows_per_page(page_size) as u64 / skt_rpp * skt_rpp,
        None => skt_rpp,
    };
    debug_assert!(
        group_rows <= (page_size * 8) as u64,
        "a group's bitmap fits a buffer"
    );
    // The open source reader, and whether it reads the fk column.
    let mut source = Some((false, skt.flash.cursor(&ram, page_size)?));
    let _lookahead = ram.alloc()?;
    let mut group: Vec<u64> = Vec::new();
    let mut out_ids = vec![0 as Id; targets.len()];
    let mut emitted = 0u64;
    let mut next = next_id(ctx)?;
    while let Some(first) = next {
        let end = (first as u64 / group_rows + 1) * group_rows;
        group.clear();
        group.push(first as u64);
        next = loop {
            match next_id(ctx)? {
                Some(id) if (id as u64) < end => group.push(id as u64),
                other => break other,
            }
        };
        let via_fk = fk.filter(|fk| {
            fk.table().read_ns(&timing, page_size, &group)
                < skt.flash.read_ns(&timing, page_size, &group)
        });
        let table = via_fk.map_or(&skt.flash, |fk| fk.table());
        if source
            .as_ref()
            .is_some_and(|(on_fk, _)| *on_fk != via_fk.is_some())
        {
            source = None; // its buffer goes back before the other opens
        }
        let (_, cursor) = match source {
            Some(ref mut open) => open,
            None => source.insert((via_fk.is_some(), table.cursor(&ram, page_size)?)),
        };
        let cols = if via_fk.is_some() { &fk_idx } else { &col_idx };
        for page in table.by_page(page_size, &group) {
            for &row in page {
                cursor.push(row);
            }
            ctx.tracked(OpKind::SJoin, |dev| cursor.flush(dev, None))?;
            for item in cursor.ready() {
                let (row, bytes) = item?;
                let id = row as Id;
                for (slot, col) in out_ids.iter_mut().zip(cols) {
                    *slot = col.map_or(id, |c| table.layout.get_id(bytes, c));
                }
                sink(ctx, id, &out_ids)?;
                emitted += 1;
            }
        }
    }
    Ok(emitted)
}

/// A keyed merge group as SJoin reads it (module docs): each root id of
/// the group with the id of `table` it joins, ascending by root id, and,
/// once the merge has kept the pairs it yields, the ids of `table`'s
/// descendants SJoin projects for each surviving key. Both are held in
/// secure-RAM regions charged here, at [`id_width`]`(|T|)` bytes an id
/// (modelled below as host vectors).
pub(crate) struct KeyedIds {
    /// The key table.
    pub(crate) table: TableId,
    /// The group's root ids, ascending, and the key of each.
    roots: Vec<Id>,
    keys: Vec<Id>,
    /// Pairs kept by the merge so far, and the next pair to look at.
    kept: usize,
    cursor: usize,
    /// The descendants of `table` read through the keys.
    below: Vec<TableId>,
    /// The surviving keys, ascending, and `below.len()` ids for each.
    map_keys: Vec<Id>,
    map_rows: Vec<Id>,
    _pairs: RamRegion,
    _map: Option<RamRegion>,
}

impl KeyedIds {
    /// RAM buffers of a group keyed by `table`: its `pairs` root ids with
    /// their keys, and the map of at most `keys` distinct keys to an id per
    /// `below` table. A function of public row counts and the group's
    /// sizes.
    pub(crate) fn buffers(
        ctx: &ExecCtx<'_>,
        table: TableId,
        pairs: u64,
        keys: u64,
        below: &[TableId],
    ) -> (usize, usize) {
        let rows = &ctx.cat.rows;
        let width = |t: TableId| id_width(rows[t]) as u64;
        let buffers = |bytes: u64| bytes.div_ceil(ctx.ram().buf_size() as u64) as usize;
        let pair = buffers(pairs * (width(ctx.cat.schema.root()) + width(table)));
        let map = match below {
            [] => 0,
            _ => buffers(keys * (width(table) + below.iter().map(|t| width(*t)).sum::<u64>())),
        };
        (pair, map)
    }

    /// Load a group keyed by `table`, whose root sublist `lists[i]` holds
    /// the root ids joining key `keys[i]`: the sublists are read
    /// page-span exact (as the merge's pack step reads a chunk) and the
    /// pairs sorted by root id.
    pub(crate) fn load(
        ctx: &mut ExecCtx<'_>,
        table: TableId,
        keys: &[Id],
        lists: &[IdList],
        below: &[TableId],
    ) -> Result<Self> {
        let count: u64 = lists.iter().map(|l| l.count).sum();
        let (pairs, _) = Self::buffers(ctx, table, count, 0, below);
        let region = ctx.ram().alloc_region(pairs)?;
        let mut loaded = Vec::with_capacity(count as usize);
        load_ids(ctx, lists, |i, id| loaded.push((id, keys[i])))?;
        loaded.sort_unstable();
        let (roots, keys) = loaded.into_iter().unzip();
        Ok(KeyedIds {
            table,
            roots,
            keys,
            kept: 0,
            cursor: 0,
            below: below.to_vec(),
            map_keys: Vec::new(),
            map_rows: Vec::new(),
            _pairs: region,
            _map: None,
        })
    }

    /// The group's root ids, ascending.
    pub(crate) fn roots(&self) -> &[Id] {
        &self.roots
    }

    /// Pairs held.
    pub(crate) fn len(&self) -> usize {
        self.roots.len()
    }

    /// Keep the pair of root id `id`, the next id the merge yields: ids
    /// arrive ascending and each is in every group, so the kept pairs
    /// overwrite the group's front in place.
    pub(crate) fn keep(&mut self, id: Id) -> Result<()> {
        self.cursor += self.roots[self.cursor..].partition_point(|&r| r < id);
        if self.roots.get(self.cursor) != Some(&id) {
            return Err(ExecError::Query(format!(
                "SJoin: root id {id} is not in the group keyed by {}",
                self.table
            )));
        }
        self.roots[self.kept] = id;
        self.keys[self.kept] = self.keys[self.cursor];
        self.kept += 1;
        self.cursor += 1;
        Ok(())
    }

    /// Drop the pairs the merge did not keep, and map each surviving key to
    /// its `below` ids: one [`sjoin_stream`] over the keys against
    /// `table`'s SKT (or fk column), billed to `SJoin`.
    pub(crate) fn map(&mut self, ctx: &mut ExecCtx<'_>) -> Result<()> {
        self.roots.truncate(self.kept);
        self.keys.truncate(self.kept);
        if self.below.is_empty() {
            return Ok(());
        }
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys.dedup();
        let (_, map) = Self::buffers(ctx, self.table, 0, keys.len() as u64, &self.below);
        self._map = Some(ctx.ram().alloc_region(map)?);
        let skt = ctx.skt(self.table)?;
        let mut feed = keys.iter().copied();
        let mut rows = Vec::with_capacity(keys.len() * self.below.len());
        sjoin_stream(
            ctx,
            skt,
            &self.below,
            |_| Ok(feed.next()),
            |_, _, ids| {
                rows.extend_from_slice(ids);
                Ok(())
            },
        )?;
        self.map_keys = keys;
        self.map_rows = rows;
        Ok(())
    }

    /// The id of `self.below[j]` joined by key `key`.
    fn below_of(&self, key: Id, j: usize) -> Result<Id> {
        let at = self
            .map_keys
            .binary_search(&key)
            .map_err(|_| ExecError::Query(format!("SJoin: key {key} missing from its map")))?;
        Ok(self.map_rows[at * self.below.len() + j])
    }
}

/// A writer of F' columns, one [`FlashTableWriter`] (one RAM buffer) per
/// column; writes attributed to `Store`.
pub struct SJoinWriter {
    writers: Vec<FlashTableWriter>,
    tables: Vec<TableId>,
}

impl SJoinWriter {
    /// Create a writer for up to `max_rows` rows over `owner` + `targets`,
    /// registering each column's segment as a query temp.
    pub fn create(
        ctx: &mut ExecCtx<'_>,
        owner: TableId,
        targets: &[TableId],
        max_rows: u64,
    ) -> Result<Self> {
        let mut tables = vec![owner];
        tables.extend_from_slice(targets);
        let writers = (tables.iter())
            .map(|t| id_column(ctx, RowLayout::id_cells(&[ctx.cat.rows[*t]]), max_rows))
            .collect::<Result<_>>()?;
        Ok(SJoinWriter { writers, tables })
    }

    /// Append one row: the owner id, then one id per target.
    pub fn push(&mut self, ctx: &mut ExecCtx<'_>, id: Id, targets: &[Id]) -> Result<()> {
        let row = std::iter::once(&id).chain(targets);
        ctx.tracked(OpKind::Store, |dev| {
            for (w, id) in self.writers.iter_mut().zip(row) {
                w.push_id(dev, *id)?;
            }
            Ok(())
        })
    }

    /// SJoin the ascending owner ids `next_id` yields onto the targets and
    /// append the rows `keep` passes. With no target no SKT is read: the
    /// owner ids are the only column.
    pub fn sjoin(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        mut next_id: impl FnMut(&mut ExecCtx<'_>) -> Result<Option<Id>>,
        mut keep: impl FnMut(Id, &[Id]) -> bool,
    ) -> Result<()> {
        let targets = self.tables[1..].to_vec();
        if targets.is_empty() {
            while let Some(id) = next_id(ctx)? {
                if keep(id, &[]) {
                    self.push(ctx, id, &[])?;
                }
            }
            return Ok(());
        }
        let skt = ctx.skt(self.tables[0])?;
        sjoin_stream(ctx, skt, &targets, next_id, |ctx, id, t| {
            if keep(id, t) {
                self.push(ctx, id, t)?;
            }
            Ok(())
        })
        .map(drop)
    }

    /// Write the pairs `keyed` kept (every group keeps the same root ids)
    /// with every target read through the keys (module docs): each target
    /// is a key table of `keyed` or one of its mapped descendants. No SKT
    /// is read here.
    pub(crate) fn sjoin_keyed(&mut self, ctx: &mut ExecCtx<'_>, keyed: &[KeyedIds]) -> Result<()> {
        // Per target: its group, and its `below` slot (`None`: the key).
        let sources = (self.tables[1..].iter())
            .map(|t| {
                (keyed.iter().enumerate())
                    .find_map(|(g, k)| {
                        if k.table == *t {
                            return Some((g, None));
                        }
                        k.below.iter().position(|b| b == t).map(|j| (g, Some(j)))
                    })
                    .ok_or_else(|| ExecError::Query(format!("SJoin: no keyed group holds {t}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let Some(first) = keyed.first() else {
            return Ok(());
        };
        let mut row = vec![0; sources.len()];
        for (i, &id) in first.roots.iter().enumerate() {
            for (slot, &(g, j)) in row.iter_mut().zip(&sources) {
                let key = keyed[g].keys[i];
                *slot = match j {
                    None => key,
                    Some(j) => keyed[g].below_of(key, j)?,
                };
            }
            self.push(ctx, id, &row)?;
        }
        Ok(())
    }

    /// Write each column's last page and return F' (see `finish_columns`).
    pub fn finish(self, ctx: &mut ExecCtx<'_>) -> Result<SJoinTable> {
        Ok(SJoinTable {
            columns: finish_columns(ctx, self.writers)?,
            tables: self.tables,
        })
    }
}

/// A writer of an id column of F' in `layout` of up to `rows` rows (one
/// RAM buffer), its segment registered as a query temp.
pub(crate) fn id_column(
    ctx: &mut ExecCtx<'_>,
    layout: RowLayout,
    rows: u64,
) -> Result<FlashTableWriter> {
    let (ram, page_size) = (ctx.ram(), ctx.page_size());
    let w = FlashTableWriter::create(ctx.lane.alloc(), &ram, layout, rows, page_size)?;
    ctx.add_temp(w.segment());
    Ok(w)
}

/// Write the last page of each id column of F'. The last pages are billed
/// to no operator: only the device's totals hold them.
pub(crate) fn finish_columns(
    ctx: &mut ExecCtx<'_>,
    writers: Vec<FlashTableWriter>,
) -> Result<Vec<FlashTable>> {
    (writers.into_iter())
        .map(|w| Ok(ctx.lane.with_flash(|dev| w.finish(dev))?))
        .collect()
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

    /// 600 dense ids through SJoin onto `targets`: the rows it emits and
    /// the pages it reads.
    fn dense_sjoin(targets: &[&str]) -> (Vec<(Id, Vec<Id>)>, u64) {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let targets: Vec<TableId> = targets
            .iter()
            .map(|t| db.schema.table_id(t).unwrap())
            .collect();
        let mut ctx = ExecCtx::new(&mut db);
        let skt = ctx.skt(t0).unwrap();
        let mut feed = 0..600;
        let mut got = Vec::new();
        let before = ctx.lane.io();
        sjoin_stream(
            &mut ctx,
            skt,
            &targets,
            |_ctx| Ok(feed.next()),
            |_ctx, id, t| {
                got.push((id, t.to_vec()));
                Ok(())
            },
        )
        .unwrap();
        (got, (ctx.lane.io() - before).pages_read)
    }

    #[test]
    fn sjoin_ascending_reads_each_page_once() {
        // T12 is a grandchild of T0, so SJoin stays on the SKT: 600 rows of
        // four 1-byte ids (every descendant has ≤ 256 rows) = 512 rows/page
        // → 2 pages.
        let (got, pages) = dense_sjoin(&["T12"]);
        assert_eq!(got.len(), 600);
        assert_eq!(pages, 2);
    }

    #[test]
    fn sjoin_fk_route_reads_the_fk_column_pages() {
        // T1 is a direct child: the same ids sit in T0.fk1, in 1-byte cells
        // 2,048 to a page, so 600 dense ids read its 1 page instead of the
        // SKT's 2, and emit what an SKT read of T1 emits.
        let (got, pages) = dense_sjoin(&["T1"]);
        assert_eq!(pages, 1);
        let (skt, _) = dense_sjoin(&["T1", "T12"]);
        let skt: Vec<(Id, Vec<Id>)> = skt.into_iter().map(|(id, t)| (id, vec![t[0]])).collect();
        assert_eq!(got, skt);
        assert!(got.iter().all(|(id, t)| t == &[id % 120]));
    }

    #[test]
    fn sjoin_refuses_a_target_outside_the_skt() {
        let mut db = testkit::tiny_db();
        let t1 = db.schema.table_id("T1").unwrap();
        let t0 = db.schema.root();
        let mut ctx = ExecCtx::new(&mut db);
        let skt = ctx.skt(t1).unwrap();
        let err = sjoin_stream(
            &mut ctx,
            skt,
            &[t0],
            |_ctx| Ok(Some(0)),
            |_ctx, _id, _t| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Query(_)), "{err}");
    }

    #[test]
    fn sjoin_writer_materialises_columns() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let mut ctx = ExecCtx::new(&mut db);
        // |T0| = 600 takes 2-byte cells and |T1| = 120 one-byte cells.
        // Two full pages of T0's column and one of T1's, plus one row:
        // the full pages are written by `push`, inside its `Store` scope.
        let page_size = ctx.page_size();
        let rows = (page_size / 2) as Id * 2 + 1;
        let mut w = SJoinWriter::create(&mut ctx, t0, &[t1], rows as u64).unwrap();
        for id in 0..rows {
            w.push(&mut ctx, id % 600, &[id % 120]).unwrap();
        }
        let program_ns = ctx
            .lane
            .with_flash(|dev| dev.timing().write_cost_ns(page_size));
        assert_eq!(ctx.cost.op(OpKind::Store).as_ns(), 3 * program_ns);
        let out = w.finish(&mut ctx).unwrap();
        assert_eq!(out.tables, vec![t0, t1]);
        let ram = ctx.ram();
        assert_eq!(out.column(t0).unwrap().layout, RowLayout::new(&[2]));
        assert_eq!(out.column(t1).unwrap().layout, RowLayout::new(&[1]));
        let mut read = |t: TableId| -> Vec<Id> {
            let column = out.column(t).unwrap();
            let mut reader = column.reader(&ram, page_size).unwrap();
            ctx.lane.with_flash(|dev| {
                let mut ids = Vec::new();
                while let Some(row) = reader.next_row(dev).unwrap() {
                    ids.push(column.layout.get_id(row, 0));
                }
                ids
            })
        };
        assert_eq!(read(t0), (0..rows).map(|id| id % 600).collect::<Vec<_>>());
        assert_eq!(read(t1), (0..rows).map(|id| id % 120).collect::<Vec<_>>());
        // 3 + 2 pages; `finish` writes each column's last one unbilled.
        assert_eq!(ctx.lane.io().pages_written, 5);
        assert_eq!(ctx.cost.op(OpKind::Store).as_ns(), 3 * program_ns);
    }

    #[test]
    fn an_id_beyond_its_table_is_an_error_not_a_truncation() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").unwrap();
        let mut ctx = ExecCtx::new(&mut db);
        let mut w = SJoinWriter::create(&mut ctx, t0, &[t1], 1).unwrap();
        let err = w.push(&mut ctx, 0, &[256]).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Storage(ghostdb_storage::StorageError::IdTooWide { id: 256, width: 1 })
            ),
            "{err}"
        );
    }
}
