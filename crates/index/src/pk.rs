//! Primary-key climbing indexes (paper §3.2, Figure 4, "Climbing Index on
//! T1.id").
//!
//! A primary-key index maps each id `k` of a non-root table `T` to one
//! sorted sublist per ancestor level: the rows of that ancestor that join
//! row `k`. Its keys are the ids `0..|T|` themselves, so it needs no key
//! and no search: each level is an **offset array** of `|T| + 1` cells
//! beside the level's packed ID area (laid out as a climbing index's,
//! sublists back to back in key order), and entry `k`'s sublist is slots
//! `[off[k], off[k + 1])` of the area.
//!
//! Offsets range over `0..=|T_l|` for a level of `|T_l|` rows, so a cell
//! takes [`id_width`]`(|T_l| + 1)` bytes; cells never straddle a page (row
//! `i` at slot `i`, as in an SKT), so the page holding cell `k` is found by
//! arithmetic, and the layout is a function of public row counts only.

use ghostdb_flash::{FlashDevice, Segment};
#[cfg(doc)]
use ghostdb_storage::row::id_width;
use ghostdb_storage::{FlashTable, Id, IdList, Result, StorageError, TableId};
use ghostdb_token::RamArena;

/// A primary-key climbing index on flash.
#[derive(Debug, Clone)]
pub struct PkIndex {
    /// Indexed table.
    pub table: TableId,
    /// Target tables, innermost first.
    pub levels: Vec<TableId>,
    /// Per level: the offset array (one id cell per row) and the ID area
    /// with the width of its ids.
    pub(crate) arrays: Vec<(FlashTable, Segment, usize)>,
}

impl PkIndex {
    /// Level index of target table `t`, if this index climbs to it.
    pub fn level_of(&self, t: TableId) -> Option<usize> {
        self.levels.iter().position(|l| *l == t)
    }

    /// Bytes occupied on flash: every level's offset array and ID area.
    pub fn bytes(&self, page_size: usize) -> u64 {
        (self.arrays.iter())
            .map(|(offsets, area, _)| (offsets.pages(page_size) + area.pages()) * page_size as u64)
            .sum()
    }

    /// The `level` sublist of each of the strictly ascending `keys`, in key
    /// order, empty ones included. The cells `k` and `k + 1` of every key
    /// go page by page through one
    /// [`PageCursor`](ghostdb_storage::table::PageCursor), so each array
    /// page is read once, in the spans its cells need; a key at a page's
    /// last cell also reads the next page. A key outside `0..|T|` is
    /// [`StorageError::RowOutOfRange`].
    pub fn probe_run(
        &self,
        dev: &mut FlashDevice,
        ram: &RamArena,
        keys: &[Id],
        level: usize,
    ) -> Result<Vec<IdList>> {
        let Some((offsets, area, width)) = self.arrays.get(level) else {
            return Err(StorageError::Corrupt(format!(
                "primary-key index on table {} has no level {level}",
                self.table
            )));
        };
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StorageError::Corrupt(
                "primary-key probes must ascend".into(),
            ));
        }
        // Cells k and k + 1 of every key, each once: adjacent keys share one.
        let mut cells: Vec<u64> = Vec::with_capacity(2 * keys.len());
        for k in keys.iter().map(|k| u64::from(*k)) {
            if cells.last() != Some(&k) {
                cells.push(k);
            }
            cells.push(k + 1);
        }
        let mut cursor = offsets.cursor(ram, dev.page_size())?;
        let mut off: Vec<u64> = Vec::with_capacity(cells.len());
        for (i, &cell) in cells.iter().enumerate() {
            cursor.push(cell);
            let next = cells.get(i + 1).copied();
            if next.is_none_or(|n| cursor.opens_page(n)) {
                cursor.flush(dev, next)?;
                for item in cursor.ready() {
                    off.push(offsets.layout.get_id(item?.1, 0).into());
                }
            }
        }
        let mut at = 0;
        let mut out = Vec::with_capacity(keys.len());
        for &k in keys {
            while cells[at] < u64::from(k) {
                at += 1;
            }
            let (start, end) = (off[at], off[at + 1]);
            if end < start {
                return Err(StorageError::Corrupt(format!(
                    "primary-key index on table {}: offsets of id {k} fall",
                    self.table
                )));
            }
            out.push(IdList {
                segment: *area,
                start,
                count: end - start,
                width: *width,
            });
        }
        Ok(out)
    }
}
