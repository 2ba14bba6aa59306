//! On-flash tables: the columnar hidden image `TiH` and generic fixed-width
//! row tables (SKTs, materialised operator outputs).
//!
//! The hidden image of a table stores each hidden column in its own
//! contiguous segment, **sorted by tuple id** — so `MJoin` can merge hidden
//! values against sorted ID lists with a single sequential scan per column
//! (paper §4: "Ti.vlist, Ti.hlist and σVHTi.id are all sorted on idTi and
//! can be joined by a sequential scan of each list and a simple merge").
//! Row tables hold multi-ID records in id order (SKTs, `SJoin` results).

use crate::error::StorageError;
#[cfg(doc)]
use crate::row::id_width;
use crate::row::RowLayout;
use crate::value::{ColumnType, Value};
use crate::{Id, Result, ID_BYTES};
use ghostdb_flash::{FlashDevice, FlashTiming, Segment, SegmentAllocator};
use ghostdb_token::{RamArena, RamBuffer};
use std::ops::Range;

/// One hidden column on flash, sorted by tuple id.
///
/// On flash it is a one-field row table: a page holds `page_size / width`
/// values, exactly what [`RowLayout::new`]`(&[width])` gives, so every read
/// of it goes through [`FlashTableReader`] and decodes the bytes it returns.
/// A foreign-key column ([`HiddenColumn::bulk_load_ids`]) stores each id in
/// its referenced table's [`id_width`] bytes, not its declared width, and
/// decodes them as unsigned ids.
#[derive(Debug, Clone)]
pub struct HiddenColumn {
    /// Column name.
    pub name: String,
    /// Declared type (fixed width).
    pub ty: ColumnType,
    table: FlashTable,
    /// Whether the cells are unsigned id cells (a foreign key).
    ids: bool,
}

impl HiddenColumn {
    /// Bulk-load a column from a value generator (load path; charges
    /// sequential page writes, exactly what burning the key would cost).
    pub fn bulk_load_with(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        name: &str,
        ty: ColumnType,
        rows: u64,
        mut gen: impl FnMut(Id) -> Value,
    ) -> Result<Self> {
        let layout = RowLayout::new(&[ty.width()]);
        let mut bad = false;
        let table = FlashTable::bulk_load_with(dev, alloc, layout, rows, |r, cell| {
            bad |= gen(r as Id).encode(&ty, cell).is_err();
        })?;
        if bad {
            return Err(StorageError::TypeMismatch {
                column: name.into(),
                expected: "declared column type",
            });
        }
        Ok(HiddenColumn {
            name: name.into(),
            ty,
            table,
            ids: false,
        })
    }

    /// Bulk-load a foreign-key column of `INT` declared type: `ids[r]` is
    /// row `r`'s id in the referenced table of `referenced_rows` rows, stored
    /// in [`id_width`]`(referenced_rows)` bytes. An id that width cannot
    /// hold is [`StorageError::IdTooWide`].
    pub fn bulk_load_ids(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        name: &str,
        referenced_rows: u64,
        ids: &[Id],
    ) -> Result<Self> {
        let layout = RowLayout::id_cells(&[referenced_rows]);
        let fill_layout = layout.clone();
        let mut bad = None;
        let table = FlashTable::bulk_load_with(dev, alloc, layout, ids.len() as u64, |r, cell| {
            if let Err(e) = fill_layout.put_id(cell, 0, ids[r as usize]) {
                bad.get_or_insert(e);
            }
        })?;
        if let Some(e) = bad {
            return Err(e);
        }
        Ok(HiddenColumn {
            name: name.into(),
            ty: ColumnType::int(),
            table,
            ids: true,
        })
    }

    /// Bulk-load a column from host values.
    pub fn bulk_load(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        name: &str,
        ty: ColumnType,
        values: &[Value],
    ) -> Result<Self> {
        HiddenColumn::bulk_load_with(dev, alloc, name, ty, values.len() as u64, |r| {
            values[r as usize].clone()
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.table.rows
    }

    /// Bytes occupied (for size accounting).
    pub fn bytes(&self) -> u64 {
        self.table.bytes()
    }

    /// The column as the one-field row table it is stored as.
    pub fn table(&self) -> &FlashTable {
        &self.table
    }

    /// Bytes of one stored cell.
    pub fn width(&self) -> usize {
        self.table.layout.size()
    }

    /// Decode one stored value (bytes handed back by a reader over
    /// [`HiddenColumn::table`]). An id cell decodes unsigned, whatever its
    /// width.
    pub fn decode(&self, bytes: &[u8]) -> Value {
        if self.ids {
            return Value::Int(self.table.layout.get_id(bytes, 0).into());
        }
        Value::decode(&self.ty, bytes)
    }

    /// Random access to one value (charges a page load + `width` bytes).
    pub fn get(&self, dev: &mut FlashDevice, row: Id) -> Result<Value> {
        let mut buf = vec![0u8; self.width()];
        self.table.read_row(dev, row as u64, &mut buf)?;
        Ok(self.decode(&buf))
    }
}

/// The hidden image `TiH`: all hidden columns of one table.
#[derive(Debug, Clone, Default)]
pub struct HiddenImage {
    /// Hidden columns, in schema order.
    pub columns: Vec<HiddenColumn>,
    /// Table cardinality.
    pub rows: u64,
}

impl HiddenImage {
    /// Find a column by name.
    pub fn column(&self, name: &str) -> Result<&HiddenColumn> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| StorageError::Unknown(name.into()))
    }

    /// Total bytes of the image.
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.bytes()).sum()
    }
}

/// A fixed-width row table on flash (SKTs, materialised intermediates).
/// Rows are implicitly numbered 0..rows in storage order.
#[derive(Debug, Clone)]
pub struct FlashTable {
    /// Row layout.
    pub layout: RowLayout,
    segment: Segment,
    rows: u64,
}

impl FlashTable {
    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Pages occupied.
    pub fn pages(&self, page_size: usize) -> u64 {
        self.layout.pages_for(self.rows, page_size)
    }

    /// Bytes of live data.
    pub fn bytes(&self) -> u64 {
        self.rows * self.layout.size() as u64
    }

    /// Backing segment (to free temporaries).
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// Random access: read row `row` into `out` (one page load, row bytes).
    pub fn read_row(&self, dev: &mut FlashDevice, row: u64, out: &mut [u8]) -> Result<()> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        let (page, off) = self.layout.locate(row, dev.page_size());
        dev.read(self.segment.lpn(page)?, off, &mut out[..self.layout.size()])?;
        Ok(())
    }

    /// Open a streaming reader (one RAM buffer).
    pub fn reader(&self, ram: &RamArena, page_size: usize) -> Result<FlashTableReader> {
        Ok(FlashTableReader {
            table: self.clone(),
            buf: ram.alloc()?,
            buffered_page: None,
            loaded: Vec::new(),
            pos: 0,
            page_size,
        })
    }

    /// Simulated cost of reading the ascending `rows` page by page, as a
    /// [`PageCursor`] flushed before each row that opens a page bills it:
    /// each page's rows in the spans [`page_spans`] plans for them, at
    /// [`FlashTiming::read_cost_ns`] per span. Pure: it reads no flash, so a
    /// caller can price a read before choosing to issue it.
    pub fn read_ns(&self, timing: &FlashTiming, page_size: usize, rows: &[u64]) -> u128 {
        self.by_page(page_size, rows)
            .flat_map(|page| spans(timing, self.row_bytes(page_size, page)))
            .map(|s| timing.read_cost_ns(s.len()))
            .sum()
    }

    /// The ascending `rows` cut into runs that each lie on one page.
    pub fn by_page<'r>(
        &self,
        page_size: usize,
        mut rows: &'r [u64],
    ) -> impl Iterator<Item = &'r [u64]> + 'r {
        let rpp = self.layout.rows_per_page(page_size) as u64;
        std::iter::from_fn(move || {
            let end = (rows.first()? / rpp + 1) * rpp;
            let (page, rest) = rows.split_at(rows.partition_point(|r| *r < end));
            rows = rest;
            Some(page)
        })
    }

    /// In-page byte ranges of `rows`, which lie on one page.
    fn row_bytes<'r>(
        &'r self,
        page_size: usize,
        rows: &'r [u64],
    ) -> impl Iterator<Item = Range<usize>> + 'r {
        let size = self.layout.size();
        let rpp = self.layout.rows_per_page(page_size) as u64;
        rows.iter().map(move |r| {
            let off = (r % rpp) as usize * size;
            off..off + size
        })
    }

    /// Open a page-by-page reader over ascending rows (one RAM buffer).
    pub fn cursor(&self, ram: &RamArena, page_size: usize) -> Result<PageCursor> {
        Ok(PageCursor {
            rows_per_page: self.layout.rows_per_page(page_size) as u64,
            reader: self.reader(ram, page_size)?,
            queued: Vec::new(),
            page_end: 0,
            ready: Vec::new(),
        })
    }

    /// Bulk-load `n_rows` rows produced by a fill callback (build path:
    /// assembles page images host-side, charges sequential page writes).
    pub fn bulk_load_with(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        layout: RowLayout,
        n_rows: u64,
        mut fill: impl FnMut(u64, &mut [u8]),
    ) -> Result<FlashTable> {
        let page_size = dev.page_size();
        let rpp = layout.rows_per_page(page_size) as u64;
        let pages = layout.pages_for(n_rows, page_size);
        let segment = alloc.alloc(pages)?;
        let size = layout.size();
        let mut image = vec![0u8; page_size];
        let mut row = 0u64;
        let mut page = 0u64;
        while row < n_rows {
            let on_page = rpp.min(n_rows - row);
            for i in 0..on_page {
                fill(
                    row + i,
                    &mut image[i as usize * size..(i as usize + 1) * size],
                );
            }
            dev.write(segment.lpn(page)?, &image[..on_page as usize * size])?;
            row += on_page;
            page += 1;
        }
        Ok(FlashTable {
            layout,
            segment,
            rows: n_rows,
        })
    }

    /// Bulk-load from host-side rows (build path, sequential writes).
    pub fn bulk_load<'a>(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        layout: RowLayout,
        rows: impl ExactSizeIterator<Item = &'a [u8]>,
    ) -> Result<FlashTable> {
        let n = rows.len() as u64;
        let page_size = dev.page_size();
        let rpp = layout.rows_per_page(page_size);
        let pages = layout.pages_for(n, page_size);
        let segment = alloc.alloc(pages)?;
        let mut image = vec![0u8; page_size];
        let mut in_page = 0usize;
        let mut page = 0u64;
        let size = layout.size();
        for row in rows {
            debug_assert_eq!(row.len(), size);
            image[in_page * size..(in_page + 1) * size].copy_from_slice(row);
            in_page += 1;
            if in_page == rpp {
                dev.write(segment.lpn(page)?, &image[..in_page * size])?;
                page += 1;
                in_page = 0;
            }
        }
        if in_page > 0 {
            dev.write(segment.lpn(page)?, &image[..in_page * size])?;
        }
        Ok(FlashTable {
            layout,
            segment,
            rows: n,
        })
    }
}

/// Streaming writer for a new row table (one RAM buffer, sequential pages).
#[derive(Debug)]
pub struct FlashTableWriter {
    layout: RowLayout,
    segment: Segment,
    buf: RamBuffer,
    in_page: usize,
    next_page: u64,
    rows: u64,
    page_size: usize,
}

impl FlashTableWriter {
    /// Create a writer for up to `max_rows` rows.
    pub fn create(
        alloc: &mut SegmentAllocator,
        ram: &RamArena,
        layout: RowLayout,
        max_rows: u64,
        page_size: usize,
    ) -> Result<Self> {
        // The buffer first: a segment allocated before a failed buffer
        // would be lost to the caller.
        let buf = ram.alloc()?;
        let pages = layout.pages_for(max_rows, page_size);
        let segment = alloc.alloc(pages)?;
        Ok(FlashTableWriter {
            layout,
            segment,
            buf,
            in_page: 0,
            next_page: 0,
            rows: 0,
            page_size,
        })
    }

    /// Append one row.
    pub fn push(&mut self, dev: &mut FlashDevice, row: &[u8]) -> Result<()> {
        let size = self.layout.size();
        debug_assert_eq!(row.len(), size);
        let rpp = self.layout.rows_per_page(self.page_size);
        if self.in_page == rpp {
            self.flush(dev)?;
        }
        self.buf[self.in_page * size..(self.in_page + 1) * size].copy_from_slice(row);
        self.in_page += 1;
        self.rows += 1;
        Ok(())
    }

    /// Append a row of one id field, in that field's width.
    pub fn push_id(&mut self, dev: &mut FlashDevice, id: Id) -> Result<()> {
        let mut cell = [0u8; ID_BYTES];
        let width = self.layout.size().min(ID_BYTES);
        self.layout.put_id(&mut cell[..width], 0, id)?;
        self.push(dev, &cell[..width])
    }

    fn flush(&mut self, dev: &mut FlashDevice) -> Result<()> {
        if self.in_page == 0 {
            return Ok(());
        }
        let used = self.in_page * self.layout.size();
        dev.write(self.segment.lpn(self.next_page)?, &self.buf[..used])?;
        self.next_page += 1;
        self.in_page = 0;
        Ok(())
    }

    /// The segment backing this writer (for freeing temporaries).
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// Finish and return the table.
    pub fn finish(mut self, dev: &mut FlashDevice) -> Result<FlashTable> {
        self.flush(dev)?;
        Ok(FlashTable {
            layout: self.layout.clone(),
            segment: self.segment,
            rows: self.rows,
        })
    }
}

/// Byte spans of one page to read for the byte `intervals` wanted from it
/// (sorted by start; rows of a table, or the id runs of packed sublists).
///
/// Each span costs a page load plus its bytes (the Table 1 model,
/// [`FlashTiming::read_cost_ns`]). Two neighbouring intervals share a span
/// when transferring the gap between them costs less than a second page
/// load. So every gap left between spans costs at least a page load, and
/// the spans together never cost more than one read of the whole page: a
/// page whose wanted bytes are dense comes out as that single read.
pub fn page_spans(
    timing: &FlashTiming,
    intervals: impl IntoIterator<Item = Range<usize>>,
) -> Vec<Range<usize>> {
    spans(timing, intervals).collect()
}

/// [`page_spans`], planned lazily.
fn spans(
    timing: &FlashTiming,
    intervals: impl IntoIterator<Item = Range<usize>>,
) -> impl Iterator<Item = Range<usize>> {
    let load_ns = timing.read_cost_ns(0);
    let per_byte = timing.transfer_ns_per_byte as u128;
    let mut intervals = intervals.into_iter().peekable();
    std::iter::from_fn(move || {
        let mut span = intervals.next()?;
        while let Some(iv) =
            intervals.next_if(|iv| (iv.start.saturating_sub(span.end) as u128) * per_byte < load_ns)
        {
            span.end = span.end.max(iv.end);
        }
        Some(span)
    })
}

/// Streaming reader over a row table, with ascending random skip support
/// (key semi-join access pattern: each needed page visited once, and only
/// the byte spans [`page_spans`] plans for its rows read from it).
#[derive(Debug)]
pub struct FlashTableReader {
    table: FlashTable,
    buf: RamBuffer,
    buffered_page: Option<u64>,
    /// Byte ranges of `buffered_page` held in `buf`.
    loaded: Vec<Range<usize>>,
    pos: u64,
    page_size: usize,
}

impl FlashTableReader {
    /// Total rows.
    pub fn rows(&self) -> u64 {
        self.table.rows
    }

    /// Bytes of page `page` that hold rows.
    fn used_bytes(&self, page: u64) -> usize {
        let rpp = self.table.layout.rows_per_page(self.page_size) as u64;
        let rows_on_page = (self.table.rows - page * rpp).min(rpp);
        rows_on_page as usize * self.table.layout.size()
    }

    /// Read `spans` of page `page` into the buffer. Spans of the page
    /// already buffered are kept; another page's are released.
    fn fill(&mut self, dev: &mut FlashDevice, page: u64, spans: Vec<Range<usize>>) -> Result<()> {
        if self.buffered_page != Some(page) {
            self.buffered_page = Some(page);
            self.loaded.clear();
        }
        let lpn = self.table.segment.lpn(page)?;
        for s in spans {
            dev.read(lpn, s.start, &mut self.buf[s.clone()])?;
            self.loaded.push(s);
        }
        Ok(())
    }

    fn holds(&self, page: u64, bytes: &Range<usize>) -> bool {
        self.buffered_page == Some(page)
            && self
                .loaded
                .iter()
                .any(|s| s.start <= bytes.start && bytes.end <= s.end)
    }

    /// Page of the rows `first..=last`, which must lie on one page, in
    /// range and not before any previously requested row.
    fn page_of(&self, first: u64, last: u64) -> Result<u64> {
        if last >= self.table.rows {
            return Err(StorageError::RowOutOfRange {
                row: last,
                rows: self.table.rows,
            });
        }
        if first < self.pos {
            return Err(StorageError::Corrupt(format!(
                "FlashTableReader going backwards: {first} after {}",
                self.pos
            )));
        }
        let layout = &self.table.layout;
        let (page, _) = layout.locate(first, self.page_size);
        if layout.locate(last, self.page_size).0 != page {
            return Err(StorageError::Corrupt(format!(
                "FlashTableReader::load_rows: rows {first}..={last} span pages"
            )));
        }
        Ok(page)
    }

    /// Load the ascending `rows`, which must all lie on one page and be ≥
    /// any previously requested row, reading only the spans
    /// [`page_spans`] plans for them. Read them back with
    /// [`FlashTableReader::loaded_row`]. Rows the buffer already holds
    /// (an earlier load of the same page) are not read again.
    pub fn load_rows(&mut self, dev: &mut FlashDevice, rows: &[u64]) -> Result<()> {
        let (Some(&first), Some(&last)) = (rows.first(), rows.last()) else {
            return Ok(());
        };
        let page = self.page_of(first, last)?;
        self.pos = last;
        let wanted = self.table.row_bytes(self.page_size, rows);
        let spans = page_spans(dev.timing(), wanted.filter(|b| !self.holds(page, b)));
        self.fill(dev, page, spans)
    }

    /// Load page `row`'s bytes from `row` to the page's end in one span, so
    /// that every later row of the page is held too.
    fn load_tail(&mut self, dev: &mut FlashDevice, row: u64) -> Result<()> {
        let page = self.page_of(row, row)?;
        self.pos = row;
        let off = self.table.layout.locate(row, self.page_size).1;
        let tail = off..self.used_bytes(page);
        if self.holds(page, &tail) {
            return Ok(());
        }
        self.fill(dev, page, vec![tail])
    }

    /// A row loaded by the last [`FlashTableReader::load_rows`] (or the
    /// current page of a sequential scan).
    pub fn loaded_row(&self, row: u64) -> Result<&[u8]> {
        let (page, off) = self.table.layout.locate(row, self.page_size);
        let bytes = off..off + self.table.layout.size();
        if !self.holds(page, &bytes) {
            return Err(StorageError::Corrupt(format!(
                "FlashTableReader: row {row} was not loaded"
            )));
        }
        Ok(&self.buf[bytes])
    }

    /// Advance a sequential scan: the number of the next row, or `None` at
    /// the end. The row stays readable through
    /// [`FlashTableReader::loaded_row`] until the scan leaves its page, so
    /// a caller can keep a row number instead of a copy. A sequential scan
    /// reads each page whole.
    pub fn advance(&mut self, dev: &mut FlashDevice) -> Result<Option<u64>> {
        if self.pos >= self.table.rows {
            return Ok(None);
        }
        let row = self.pos;
        self.pos += 1;
        let (page, off) = self.table.layout.locate(row, self.page_size);
        if !self.holds(page, &(off..off + self.table.layout.size())) {
            let whole_page = 0..self.used_bytes(page);
            self.fill(dev, page, vec![whole_page])?;
        }
        Ok(Some(row))
    }

    /// Next row in sequence, or `None` at the end (see
    /// [`FlashTableReader::advance`]).
    pub fn next_row(&mut self, dev: &mut FlashDevice) -> Result<Option<&[u8]>> {
        match self.advance(dev)? {
            Some(row) => self.loaded_row(row).map(Some),
            None => Ok(None),
        }
    }
}

/// Page-by-page reads of ascending rows of a row table (hidden columns
/// included, through [`HiddenColumn::table`]) over one
/// [`FlashTableReader`]. Rows are pushed without a flash read while they
/// fall on one page; before a row that [`PageCursor::opens_page`], the
/// caller flushes, which loads the queued page once, in the spans
/// [`page_spans`] plans for all its queued rows, and makes those rows
/// [`PageCursor::ready`]. However a caller batches its rows, a page pushed
/// through is loaded once and bills no more than one whole-page read.
#[derive(Debug)]
pub struct PageCursor {
    reader: FlashTableReader,
    rows_per_page: u64,
    /// Rows of the page not yet loaded.
    queued: Vec<u64>,
    /// The first row past the queued rows' page.
    page_end: u64,
    /// Rows of the page the last flush loaded.
    ready: Vec<u64>,
}

impl PageCursor {
    /// Whether `row` falls on a later page than the queued rows, which must
    /// then be flushed before it is pushed.
    #[inline]
    pub fn opens_page(&self, row: u64) -> bool {
        !self.queued.is_empty() && row >= self.page_end
    }

    /// Queue `row`, ascending and on the queued rows' page. No flash read;
    /// a row that breaks this is refused when the page loads.
    #[inline]
    pub fn push(&mut self, row: u64) {
        debug_assert!(!self.opens_page(row), "row {row} opens a page");
        if self.queued.is_empty() {
            self.page_end = (row / self.rows_per_page + 1) * self.rows_per_page;
        }
        self.queued.push(row);
    }

    /// Load the queued rows now and make them [`PageCursor::ready`];
    /// returns whether any were queued. `next` is the least row that may
    /// still be pushed (`None`: no more rows). If it falls on the queued
    /// page, that page is read from its first queued row to its end, so the
    /// rows still to come on it are already held and the page is loaded
    /// once; otherwise only the spans its queued rows need are read, and
    /// the flush bills exactly what [`FlashTable::read_ns`] prices for them.
    pub fn flush(&mut self, dev: &mut FlashDevice, next: Option<u64>) -> Result<bool> {
        self.ready.clear();
        let Some(&first) = self.queued.first() else {
            return Ok(false);
        };
        if next.is_some_and(|n| n < self.page_end) {
            self.reader.load_tail(dev, first)?;
        } else {
            self.reader.load_rows(dev, &self.queued)?;
        }
        std::mem::swap(&mut self.queued, &mut self.ready);
        Ok(true)
    }

    /// Rows pushed but not yet loaded.
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// The rows the last flush loaded, ascending, with their bytes.
    pub fn ready(&self) -> impl Iterator<Item = Result<(u64, &[u8])>> + '_ {
        self.ready
            .iter()
            .map(|r| self.reader.loaded_row(*r).map(|bytes| (*r, bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming};
    use std::collections::HashMap;

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(8 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    #[test]
    fn writer_without_a_buffer_allocates_no_segment() {
        let (dev, mut alloc, _) = setup();
        let ram = RamArena::new(dev.page_size(), 1);
        let _held = ram.alloc().unwrap();
        let free = alloc.free_pages();
        let layout = RowLayout::new(&[4; 1]);
        assert!(FlashTableWriter::create(&mut alloc, &ram, layout, 1000, dev.page_size()).is_err());
        assert_eq!(alloc.free_pages(), free);
    }

    #[test]
    fn hidden_column_roundtrip() {
        let (mut dev, mut alloc, ram) = setup();
        let values: Vec<Value> = (0..5000).map(|i| Value::Int(i * 7)).collect();
        let col = HiddenColumn::bulk_load(
            &mut dev,
            &mut alloc,
            "h1",
            ColumnType::Int { width: 8 },
            &values,
        )
        .unwrap();
        assert_eq!(col.rows(), 5000);
        assert_eq!(col.get(&mut dev, 4999).unwrap(), Value::Int(4999 * 7));
        assert_eq!(col.get(&mut dev, 0).unwrap(), Value::Int(0));
        assert!(col.get(&mut dev, 5000).is_err());
        let mut scan = col.table().reader(&ram, dev.page_size()).unwrap();
        for i in 0..5000 {
            let bytes = scan.next_row(&mut dev).unwrap().expect("row");
            assert_eq!(col.decode(bytes), Value::Int(i * 7), "row {i}");
        }
        assert!(scan.next_row(&mut dev).unwrap().is_none());
    }

    #[test]
    fn flash_table_writer_reader_roundtrip() {
        let (mut dev, mut alloc, ram) = setup();
        let layout = RowLayout::new(&[4; 3]);
        let mut w =
            FlashTableWriter::create(&mut alloc, &ram, layout.clone(), 1000, dev.page_size())
                .unwrap();
        for i in 0..1000u32 {
            let mut row = vec![0u8; layout.size()];
            layout.put_id(&mut row, 0, i).unwrap();
            layout.put_id(&mut row, 1, i * 2).unwrap();
            layout.put_id(&mut row, 2, i * 3).unwrap();
            w.push(&mut dev, &row).unwrap();
        }
        let table = w.finish(&mut dev).unwrap();
        assert_eq!(table.rows(), 1000);
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        let mut i = 0u32;
        while let Some(row) = r.next_row(&mut dev).unwrap() {
            assert_eq!(layout.get_id(row, 1), i * 2);
            i += 1;
        }
        assert_eq!(i, 1000);
    }

    #[test]
    fn flash_table_skip_access() {
        let (mut dev, mut alloc, ram) = setup();
        let layout = RowLayout::new(&[4; 2]);
        let rows: Vec<Vec<u8>> = (0..500u32)
            .map(|i| {
                let mut row = vec![0u8; 8];
                layout.put_id(&mut row, 0, i).unwrap();
                layout.put_id(&mut row, 1, 1000 + i).unwrap();
                row
            })
            .collect();
        let table = FlashTable::bulk_load(
            &mut dev,
            &mut alloc,
            layout.clone(),
            rows.iter().map(|r| r.as_slice()),
        )
        .unwrap();
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        // 256 rows per page: rows 3, 100 and 101 share page 0.
        r.load_rows(&mut dev, &[3, 100, 101]).unwrap();
        for probe in [3u64, 100, 101] {
            let row = r.loaded_row(probe).unwrap();
            assert_eq!(layout.get_id(row, 1) as u64, 1000 + probe);
        }
        assert!(r.loaded_row(4).is_err(), "row outside the spans");
        r.load_rows(&mut dev, &[499]).unwrap();
        assert_eq!(layout.get_id(r.loaded_row(499).unwrap(), 1), 1499);
        assert!(r.loaded_row(101).is_err(), "previous page released");
        assert!(r.load_rows(&mut dev, &[2]).is_err(), "backwards rejected");
        assert!(
            r.load_rows(&mut dev, &[500]).is_err(),
            "out of range rejected"
        );
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        assert!(
            r.load_rows(&mut dev, &[255, 256]).is_err(),
            "one page per load"
        );
    }

    /// A tiny deterministic generator for the span-planner property test.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// For random ascending row sets over random table sizes and row
    /// widths, span loads return the bytes a full-page scan returns, bill
    /// no more per page than one full-page read, never read past a page's
    /// used bytes, and read a dense page whole.
    #[test]
    fn span_loads_match_full_page_reads() {
        let (mut dev, mut alloc, ram) = setup();
        let timing = *dev.timing();
        let page_size = dev.page_size();
        let mut rng = SplitMix(7);
        for case in 0..64 {
            let size = 1 + rng.below(300) as usize;
            let layout = RowLayout::new(&[size]);
            let rpp = layout.rows_per_page(page_size) as u64;
            let rows = 1 + rng.below(5 * rpp);
            let fill = |r: u64, row: &mut [u8]| {
                for (i, b) in row.iter_mut().enumerate() {
                    *b = (r as usize * 31 + i * 7 + case) as u8;
                }
            };
            let table =
                FlashTable::bulk_load_with(&mut dev, &mut alloc, layout.clone(), rows, fill)
                    .unwrap();
            let mut full = Vec::new();
            let mut scan = table.reader(&ram, page_size).unwrap();
            while let Some(row) = scan.next_row(&mut dev).unwrap() {
                full.push(row.to_vec());
            }
            // Keep each row with a per-case density, from sparse to dense.
            let keep = 1 + rng.below(8);
            let wanted: Vec<u64> = (0..rows).filter(|_| rng.below(keep) == 0).collect();
            let mut r = table.reader(&ram, page_size).unwrap();
            for page_rows in wanted.chunk_by(|a, b| a / rpp == b / rpp) {
                let page = page_rows[0] / rpp;
                let used = (rows - page * rpp).min(rpp) as usize * size;
                let offsets = page_rows.iter().map(|r| (r % rpp) as usize * size);
                let spans = page_spans(&timing, offsets.map(|o| o..o + size));
                assert!(
                    spans.iter().all(|s| s.end <= used),
                    "case {case}: past used"
                );
                let snap = dev.snapshot();
                r.load_rows(&mut dev, page_rows).unwrap();
                let billed = dev.elapsed_since(&snap).as_ns();
                assert!(
                    billed <= timing.read_cost_ns(used),
                    "case {case}: page {page} billed {billed} ns"
                );
                let d = dev.stats_since(&snap);
                assert_eq!(d.pages_read, spans.len() as u64, "case {case}");
                let bytes: usize = spans.iter().map(|s| s.len()).sum();
                assert_eq!(d.bytes_to_ram, bytes as u64, "case {case}");
                for row in page_rows {
                    assert_eq!(
                        r.loaded_row(*row).unwrap(),
                        full[*row as usize].as_slice(),
                        "case {case}: row {row}"
                    );
                }
                if page_rows.len() as u64 == (rows - page * rpp).min(rpp) {
                    assert_eq!(spans, vec![0..used], "case {case}: dense page");
                }
            }
        }
    }

    /// For hidden columns of random widths and random ascending id sets
    /// from sparse to dense, cut into random lookahead batches, the page
    /// cursor decodes what a full scan decodes and bills no page more than
    /// one whole-page read. Pushed through, each page is read in exactly
    /// the spans planned for all its ids, at the price `read_ns` quotes;
    /// flushed at each batch's end with
    /// the next batch's first id, each page is still loaded once.
    #[test]
    fn page_cursor_reads_hidden_columns_page_exactly() {
        let (mut dev, mut alloc, ram) = setup();
        let timing = *dev.timing();
        let page_size = dev.page_size();
        let mut rng = SplitMix(11);
        for case in 0..48 {
            let width = 1 + rng.below(300) as usize;
            let ty = ColumnType::char(width as u16);
            let vpp = (page_size / width) as u64;
            let rows = 1 + rng.below(5 * vpp);
            let values: Vec<Value> = (0..rows)
                .map(|r| {
                    let len = (r as usize * 7 + case) % (width + 1);
                    Value::Str(
                        (0..len)
                            .map(|i| (b'a' + ((r as usize + i) % 26) as u8) as char)
                            .collect(),
                    )
                })
                .collect();
            let col = HiddenColumn::bulk_load(&mut dev, &mut alloc, "h", ty, &values).unwrap();
            let mut full = Vec::new();
            let mut scan = col.table().reader(&ram, page_size).unwrap();
            while let Some(bytes) = scan.next_row(&mut dev).unwrap() {
                full.push(col.decode(bytes));
            }
            assert_eq!(full, values, "case {case}: full scan");
            let sparsity = rng.below(7);
            let keep = 1 + rng.below(1 << sparsity);
            let wanted: Vec<u64> = (0..rows).filter(|_| rng.below(keep) == 0).collect();
            let mut cuts = vec![0];
            while *cuts.last().unwrap() < wanted.len() {
                let next = cuts.last().unwrap() + 1 + rng.below(3 * vpp) as usize;
                cuts.push(next.min(wanted.len()));
            }
            let used = |page: u64| (rows - page * vpp).min(vpp) as usize * width;
            for forced in [false, true] {
                let mut cursor = col.table().cursor(&ram, page_size).unwrap();
                let mut got = Vec::new();
                let mut billed: HashMap<u64, (u128, u32)> = HashMap::new();
                let mut flush = |dev: &mut FlashDevice, cursor: &mut PageCursor, next| {
                    let snap = dev.snapshot();
                    let loaded = cursor.flush(dev, next).unwrap();
                    let ns = dev.elapsed_since(&snap).as_ns();
                    let mut page = None;
                    for item in cursor.ready() {
                        let (row, bytes) = item.unwrap();
                        page = Some(row / vpp);
                        got.push((row, col.decode(bytes)));
                    }
                    assert_eq!(loaded, page.is_some(), "case {case}");
                    match page {
                        Some(p) if ns > 0 => {
                            let e = billed.entry(p).or_default();
                            e.0 += ns;
                            e.1 += 1;
                        }
                        Some(_) => {}
                        None => assert_eq!(ns, 0, "case {case}: an empty flush read"),
                    }
                };
                let snap = dev.snapshot();
                for w in cuts.windows(2) {
                    for &row in &wanted[w[0]..w[1]] {
                        if cursor.opens_page(row) {
                            flush(&mut dev, &mut cursor, Some(row));
                        }
                        cursor.push(row);
                    }
                    let next = wanted.get(w[1]).copied();
                    if forced || next.is_none() {
                        flush(&mut dev, &mut cursor, next);
                    }
                }
                let d = dev.stats_since(&snap);
                let expect: Vec<(u64, Value)> = wanted
                    .iter()
                    .map(|r| (*r, values[*r as usize].clone()))
                    .collect();
                assert_eq!(got, expect, "case {case} forced {forced}");
                for (page, (ns, loads)) in &billed {
                    assert!(
                        *ns <= timing.read_cost_ns(used(*page)),
                        "case {case} forced {forced}: page {page} billed {ns} ns"
                    );
                    assert_eq!(*loads, 1, "case {case} forced {forced}: page {page}");
                }
                if !forced {
                    let spans: Vec<Range<usize>> = wanted
                        .chunk_by(|a, b| a / vpp == b / vpp)
                        .flat_map(|ids| {
                            let offs = ids.iter().map(|r| (r % vpp) as usize * width);
                            page_spans(&timing, offs.map(|o| o..o + width))
                        })
                        .collect();
                    assert_eq!(d.pages_read, spans.len() as u64, "case {case}");
                    let bytes: usize = spans.iter().map(|s| s.len()).sum();
                    assert_eq!(d.bytes_to_ram, bytes as u64, "case {case}");
                    let priced = col.table().read_ns(&timing, page_size, &wanted);
                    assert_eq!(d.elapsed(&timing, page_size).as_ns(), priced, "case {case}");
                }
            }
        }
    }

    #[test]
    fn page_spans_merge_cheap_gaps_only() {
        let t = FlashTiming::default();
        // 25 µs load vs 50 ns/byte: gaps under 500 bytes are merged.
        assert_eq!(page_spans(&t, [0..16, 515..531]), vec![0..531]);
        assert_eq!(page_spans(&t, [0..16, 516..532]), vec![0..16, 516..532]);
        // One sparse row: one short span; repeated rows add nothing.
        assert_eq!(page_spans(&t, [1024..1040, 1024..1040]), vec![1024..1040]);
        // Variable-length intervals: overlaps and nesting extend a span
        // only as far as the longest interval reaches.
        assert_eq!(page_spans(&t, [0..4, 4..40, 8..12]), vec![0..40]);
        assert_eq!(
            page_spans(&t, [100..104, 2000..2048]),
            vec![100..104, 2000..2048]
        );
    }

    #[test]
    fn random_row_read() {
        let (mut dev, mut alloc, _ram) = setup();
        let layout = RowLayout::new(&[4; 1]);
        let rows: Vec<Vec<u8>> = (0..300u32)
            .map(|i| (i * 5).to_le_bytes().to_vec())
            .collect();
        let table = FlashTable::bulk_load(
            &mut dev,
            &mut alloc,
            layout.clone(),
            rows.iter().map(|r| r.as_slice()),
        )
        .unwrap();
        let mut out = vec![0u8; 4];
        table.read_row(&mut dev, 123, &mut out).unwrap();
        assert_eq!(layout.get_id(&out, 0), 123 * 5);
    }

    #[test]
    fn hidden_image_lookup() {
        let (mut dev, mut alloc, _ram) = setup();
        let c1 = HiddenColumn::bulk_load(
            &mut dev,
            &mut alloc,
            "h1",
            ColumnType::int(),
            &[Value::Int(1)],
        )
        .unwrap();
        let image = HiddenImage {
            columns: vec![c1],
            rows: 1,
        };
        assert!(image.column("h1").is_ok());
        assert!(image.column("nope").is_err());
        assert_eq!(image.bytes(), 4);
    }

    #[test]
    fn foreign_key_columns_store_narrow_unsigned_ids() {
        let (mut dev, mut alloc, _ram) = setup();
        // 40 000 referenced rows: 2-byte cells, whose top bit is set for
        // every id from 32 768 on.
        let ids: Vec<Id> = (0..3000).map(|r| r * 13 % 40_000).collect();
        let col = HiddenColumn::bulk_load_ids(&mut dev, &mut alloc, "fk", 40_000, &ids).unwrap();
        assert_eq!((col.width(), col.ty), (2, ColumnType::int()));
        assert_eq!(col.table().pages(dev.page_size()), 3);
        for r in [0u32, 2600, 2999] {
            let want = Value::Int(ids[r as usize].into());
            assert_eq!(col.get(&mut dev, r).unwrap(), want, "row {r}");
        }
        assert!(ids.iter().any(|id| *id >= 32_768));
        let err =
            HiddenColumn::bulk_load_ids(&mut dev, &mut alloc, "fk", 256, &[0, 256]).unwrap_err();
        assert_eq!(err, StorageError::IdTooWide { id: 256, width: 1 });
    }
}
