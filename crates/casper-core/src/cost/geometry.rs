//! The unit the four constants are priced in, mapped onto a chunk.
//!
//! §4.5's constants are DRAM numbers for one 64-byte cache line: a random
//! line costs ~100 ns and a streamed one 14× less. A logical block of the
//! Frequency Model spans `L = block_bytes / 64` lines, and one row's slot
//! spans `R` lines: its key's line plus the payload lines a slot write
//! touches, which depend on the payload's orientation. Column-major, each
//! of the `w` attributes lives in its own column, so `R = 1 + w`;
//! row-major, the `4w` bytes of the row are contiguous, so
//! `R = 1 + ⌈4w/64⌉`. [`BlockGeometry`] carries L and R so that Eq. 17
//! charges a block or a row what its lines cost:
//!
//! * a sequential block read or write costs `L·SR` or `L·SW`;
//! * a block read whole after a random seek (the first block of a point,
//!   range-start, delete or update-search scan) costs `RR + (L−1)·SR`;
//! * a slot read or write, and every ripple move, costs `R·RR` / `R·RW`.
//!
//! At [`BlockGeometry::UNIT`] (`L = R = 1`: a block is one line, a row one
//! slot) every formula is the paper's own, bit for bit.

use super::constants::CostConstants;
use casper_storage::PayloadOrientation;

/// Bytes of one cache line: the access unit of [`CostConstants`].
pub(crate) const LINE_BYTES: usize = 64;

/// Bytes of one payload attribute.
pub(crate) const WORD_BYTES: usize = 4;

/// Lines per logical block (`L`) and per row (`R`), derived from a chunk's
/// block size, payload width and payload orientation — not a tunable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockGeometry {
    /// `L`: cache lines one logical block spans.
    pub lines_per_block: f64,
    /// `R`: cache lines one row's slot spans.
    pub lines_per_row: f64,
}

impl BlockGeometry {
    /// One line per block and per row: the paper's Eq. 17 as written.
    pub const UNIT: Self = Self {
        lines_per_block: 1.0,
        lines_per_row: 1.0,
    };

    /// The geometry of a chunk of `block_bytes` blocks whose rows carry
    /// `payload_width` payload attributes beside the key, laid out in
    /// `orientation`.
    pub fn of_chunk(
        block_bytes: usize,
        payload_width: usize,
        orientation: PayloadOrientation,
    ) -> Self {
        Self {
            lines_per_block: (block_bytes / LINE_BYTES).max(1) as f64,
            lines_per_row: (1 + payload_lines_per_slot(payload_width, orientation)) as f64,
        }
    }

    /// A block read whole after a random seek: `RR + (L−1)·SR`.
    pub fn seek_block(&self, c: &CostConstants) -> f64 {
        c.rr + (self.lines_per_block - 1.0) * c.sr
    }

    /// A sequential block read: `L·SR`.
    pub fn seq_block(&self, c: &CostConstants) -> f64 {
        c.sr * self.lines_per_block
    }

    /// One ripple move (a slot read plus a slot write): `R·(RR + RW)`.
    pub fn row_move(&self, c: &CostConstants) -> f64 {
        (c.rr + c.rw) * self.lines_per_row
    }
}

/// Payload lines one slot write touches: one per attribute column-major,
/// the row's `⌈4w/64⌉` row-major.
pub(crate) fn payload_lines_per_slot(width: usize, orientation: PayloadOrientation) -> usize {
    match orientation {
        PayloadOrientation::Columns => width,
        PayloadOrientation::Rows => (width * WORD_BYTES).div_ceil(LINE_BYTES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_table_at_16_kb() {
        let g = BlockGeometry::of_chunk(16 * 1024, 15, PayloadOrientation::Columns);
        assert_eq!(g.lines_per_block, 256.0);
        assert_eq!(g.lines_per_row, 16.0);
        let c = CostConstants::paper();
        assert_eq!(g.seq_block(&c), 256.0 * c.sr);
        assert_eq!(g.seek_block(&c), c.rr + 255.0 * c.sr);
        assert_eq!(g.row_move(&c), 16.0 * (c.rr + c.rw));
        // Row-major: the 60-byte row fits one line beside the key's.
        let r = BlockGeometry::of_chunk(16 * 1024, 15, PayloadOrientation::Rows);
        assert_eq!(r.lines_per_block, 256.0);
        assert_eq!(r.lines_per_row, 2.0);
        assert_eq!(r.row_move(&c), 2.0 * (c.rr + c.rw));
    }

    #[test]
    fn row_major_rows_span_their_bytes_in_lines() {
        let rows = |w| BlockGeometry::of_chunk(64, w, PayloadOrientation::Rows).lines_per_row;
        assert_eq!(rows(1), 2.0);
        assert_eq!(rows(16), 2.0);
        assert_eq!(rows(17), 3.0);
        assert_eq!(rows(159), 1.0 + 10.0); // the wide table: 636 bytes
    }

    #[test]
    fn unit_geometry_is_the_papers_unit() {
        let c = CostConstants::new(90.0, 110.0, 7.0, 9.0);
        let g = BlockGeometry::UNIT;
        assert_eq!(g.seek_block(&c), c.rr);
        assert_eq!(g.seq_block(&c), c.sr);
        assert_eq!(g.row_move(&c), c.rr + c.rw);
        for o in [PayloadOrientation::Columns, PayloadOrientation::Rows] {
            assert_eq!(BlockGeometry::of_chunk(LINE_BYTES, 0, o), g);
            // A block smaller than a line still counts as one.
            assert_eq!(BlockGeometry::of_chunk(8, 0, o), g);
        }
    }
}
