//! Fixed-width row layouts.
//!
//! All GhostDB on-flash structures use fixed-width records so the page and
//! offset of any field are pure arithmetic (no directories, no slots) and
//! rows never span pages — a row's page holds `page_size / row_size` rows.
//!
//! An id field is 1–4 bytes wide. Every id the token stores, in base data
//! (SKT rows, hidden foreign-key columns, climbing-index sublists) and in
//! query temporaries alike, takes its table's [`id_width`]`(|T|)` bytes: a
//! function of the table's public row count, so the width never depends
//! on hidden data.

use crate::{Id, Result, StorageError, ID_BYTES};

/// Bytes an id cell of a table of `rows` rows needs: the least `w` in
/// 1..=4 such that every id of `0..rows` is below 2^(8w).
pub fn id_width(rows: u64) -> usize {
    let bits = (u64::BITS - rows.saturating_sub(1).leading_zeros()) as usize;
    bits.div_ceil(8).clamp(1, ID_BYTES)
}

/// Decode one little-endian id cell of 1–4 bytes.
#[inline]
pub fn get_id_cell(cell: &[u8]) -> Id {
    match *cell {
        [a] => Id::from(a),
        [a, b] => Id::from_le_bytes([a, b, 0, 0]),
        [a, b, c] => Id::from_le_bytes([a, b, c, 0]),
        [a, b, c, d] => Id::from_le_bytes([a, b, c, d]),
        _ => panic!("an id cell is 1–4 bytes, not {}", cell.len()),
    }
}

/// Encode `id` into the 1–4 byte `cell`. An id the cell cannot hold is
/// [`StorageError::IdTooWide`], never truncated.
#[inline]
pub fn put_id_cell(cell: &mut [u8], id: Id) -> Result<()> {
    let [b0, b1, b2, b3] = id.to_le_bytes();
    match cell {
        [a] if id >> 8 == 0 => *a = b0,
        [a, b] if id >> 16 == 0 => (*a, *b) = (b0, b1),
        [a, b, c] if id >> 24 == 0 => (*a, *b, *c) = (b0, b1, b2),
        [a, b, c, d] => (*a, *b, *c, *d) = (b0, b1, b2, b3),
        _ => {
            return Err(StorageError::IdTooWide {
                id,
                width: cell.len(),
            })
        }
    }
    Ok(())
}

/// Layout of a fixed-width record: field widths and cumulative offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    widths: Vec<usize>,
    offsets: Vec<usize>,
    size: usize,
}

impl RowLayout {
    /// Layout from field widths (bytes).
    pub fn new(widths: &[usize]) -> Self {
        assert!(!widths.is_empty(), "empty row layout");
        assert!(widths.iter().all(|w| *w > 0), "zero-width field");
        let mut offsets = Vec::with_capacity(widths.len());
        let mut acc = 0usize;
        for w in widths {
            offsets.push(acc);
            acc += w;
        }
        RowLayout {
            widths: widths.to_vec(),
            offsets,
            size: acc,
        }
    }

    /// Layout of one id column per table of `rows[i]` rows, each cell
    /// [`id_width`]`(rows[i])` bytes (SKT rows, foreign-key columns, query
    /// temporaries).
    pub fn id_cells(rows: &[u64]) -> Self {
        let widths: Vec<usize> = rows.iter().map(|r| id_width(*r)).collect();
        RowLayout::new(&widths)
    }

    /// Record size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of fields.
    pub fn fields(&self) -> usize {
        self.widths.len()
    }

    /// Width of field `i`.
    pub fn width(&self, i: usize) -> usize {
        self.widths[i]
    }

    /// Byte offset of field `i` within the record.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Borrow field `i` out of a record.
    pub fn field<'a>(&self, row: &'a [u8], i: usize) -> &'a [u8] {
        &row[self.offsets[i]..self.offsets[i] + self.widths[i]]
    }

    /// Mutably borrow field `i` out of a record.
    pub fn field_mut<'a>(&self, row: &'a mut [u8], i: usize) -> &'a mut [u8] {
        &mut row[self.offsets[i]..self.offsets[i] + self.widths[i]]
    }

    /// Read id field `i`: its 1–4 bytes, little-endian.
    pub fn get_id(&self, row: &[u8], i: usize) -> Id {
        debug_assert!(self.widths[i] <= ID_BYTES, "field {i} is not an id column");
        get_id_cell(self.field(row, i))
    }

    /// Write id field `i` little-endian in its width. An id the width
    /// cannot hold is [`StorageError::IdTooWide`], never truncated.
    pub fn put_id(&self, row: &mut [u8], i: usize, id: Id) -> Result<()> {
        put_id_cell(self.field_mut(row, i), id)
    }

    /// Records that fit in one page (records never span pages).
    pub fn rows_per_page(&self, page_size: usize) -> usize {
        let rpp = page_size / self.size;
        assert!(rpp > 0, "record larger than a page");
        rpp
    }

    /// Page index and in-page byte offset of record `row`.
    pub fn locate(&self, row: u64, page_size: usize) -> (u64, usize) {
        let rpp = self.rows_per_page(page_size) as u64;
        (row / rpp, (row % rpp) as usize * self.size)
    }

    /// Pages needed for `rows` records.
    pub fn pages_for(&self, rows: u64, page_size: usize) -> u64 {
        rows.div_ceil(self.rows_per_page(page_size) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_size() {
        let l = RowLayout::new(&[4, 10, 2]);
        assert_eq!(l.size(), 16);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 4);
        assert_eq!(l.offset(2), 14);
        assert_eq!(l.fields(), 3);
    }

    #[test]
    fn field_views() {
        let l = RowLayout::new(&[4, 4]);
        let mut row = vec![0u8; 8];
        l.put_id(&mut row, 0, 0xdeadbeef).unwrap();
        l.put_id(&mut row, 1, 7).unwrap();
        assert_eq!(l.get_id(&row, 0), 0xdeadbeef);
        assert_eq!(l.get_id(&row, 1), 7);
        assert_eq!(l.field(&row, 1), &7u32.to_le_bytes());
    }

    #[test]
    fn id_cells_take_their_tables_widths() {
        let l = RowLayout::id_cells(&[200_000, 20_000, 256]);
        assert_eq!((l.width(0), l.width(1), l.width(2)), (3, 2, 1));
        assert_eq!(l.size(), 6);
        let mut row = vec![0u8; 6];
        l.put_id(&mut row, 0, 199_999).unwrap();
        l.put_id(&mut row, 1, 19_999).unwrap();
        l.put_id(&mut row, 2, 255).unwrap();
        assert_eq!(l.get_id(&row, 0), 199_999);
        assert_eq!(l.get_id(&row, 1), 19_999);
        assert_eq!(l.get_id(&row, 2), 255);
    }

    #[test]
    fn paging_math() {
        let l = RowLayout::new(&[4; 4]); // 16-byte rows
        assert_eq!(l.rows_per_page(2048), 128);
        assert_eq!(l.locate(0, 2048), (0, 0));
        assert_eq!(l.locate(127, 2048), (0, 127 * 16));
        assert_eq!(l.locate(128, 2048), (1, 0));
        assert_eq!(l.pages_for(129, 2048), 2);
        assert_eq!(l.pages_for(0, 2048), 1);
    }

    #[test]
    #[should_panic(expected = "record larger than a page")]
    fn oversized_record_panics() {
        RowLayout::new(&[3000]).rows_per_page(2048);
    }
}
