//! Row-major or column-major payload, chosen per chunk from its Frequency
//! Model (the storage advisor's row-vs-column decision, made with the same
//! constants the layout is solved with).
//!
//! The two orientations differ only in the payload lines an operation
//! touches, so [`choose_orientation`] prices those lines and keeps the
//! cheaper orientation. With `w` payload attributes and `k` of them
//! projected by a read:
//!
//! | what | mass | column-major | row-major | price |
//! |---|---|---|---|---|
//! | a slot written or a row moved out | `ins + de + 2·udf + 2·udb` | `w` lines | `⌈4w/64⌉` lines | `RW` |
//! | a point-query match gathered | `pq` | `k` lines | `⌈4w/64⌉` lines | `RR` |
//! | a row a range sum streams | `(rs + sc + re)` × rows per block | `4k/64` lines | `4w/64` lines | `SR` |
//!
//! The key's own line is the same in both orientations and is left out.
//! A read that projects nothing (`k = 0`, e.g. a count) touches no payload
//! in either. Ties stay column-major. The choice is made once, before the
//! solve, which then runs at the chosen orientation's [`BlockGeometry`].
//!
//! [`BlockGeometry`]: super::BlockGeometry

use super::constants::CostConstants;
use super::geometry::{payload_lines_per_slot, LINE_BYTES, WORD_BYTES};
use crate::fm::FrequencyModel;
use casper_storage::PayloadOrientation;

/// Payload attributes a workload's reads project per row, each at most the
/// payload width: a point query's (HAP Q1's `k`) and a range sum's (Q3's
/// `k`). 0 when the workload issues no such read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Projectivity {
    /// Attributes a point query gathers per match.
    pub point: usize,
    /// Attributes a range sum reads per qualifying row.
    pub range: usize,
}

/// Modeled nanoseconds of the payload lines `fm`'s operations touch with
/// `width` attributes laid out in `orientation` (see the module table).
/// `values_per_block` is the number of rows in one Frequency-Model block.
fn payload_line_cost(
    fm: &FrequencyModel,
    c: &CostConstants,
    width: usize,
    values_per_block: usize,
    proj: Projectivity,
    orientation: PayloadOrientation,
) -> f64 {
    let sum = |h: &[f64]| h.iter().sum::<f64>();
    let writes = sum(&fm.ins) + sum(&fm.de) + 2.0 * sum(&fm.udf) + 2.0 * sum(&fm.udb);
    let points = sum(&fm.pq);
    let rows = (sum(&fm.rs) + sum(&fm.sc) + sum(&fm.re)) * values_per_block as f64;
    let (k_point, k_range) = (proj.point.min(width), proj.range.min(width));
    let write_lines = payload_lines_per_slot(width, orientation) as f64;
    let row_lines = payload_lines_per_slot(width, PayloadOrientation::Rows) as f64;
    let words_per_line = LINE_BYTES as f64 / WORD_BYTES as f64;
    let (point_lines, range_lines) = match orientation {
        PayloadOrientation::Columns => (k_point as f64, k_range as f64 / words_per_line),
        PayloadOrientation::Rows => (
            if k_point > 0 { row_lines } else { 0.0 },
            if k_range > 0 {
                width as f64 / words_per_line
            } else {
                0.0
            },
        ),
    };
    writes * write_lines * c.rw + points * point_lines * c.rr + rows * range_lines * c.sr
}

/// The orientation whose payload lines cost `fm`'s operations less; ties
/// (including a workload that reads or writes no payload) stay
/// column-major.
pub fn choose_orientation(
    fm: &FrequencyModel,
    c: &CostConstants,
    width: usize,
    values_per_block: usize,
    proj: Projectivity,
) -> PayloadOrientation {
    let cost = |o| payload_line_cost(fm, c, width, values_per_block, proj, o);
    if cost(PayloadOrientation::Rows) < cost(PayloadOrientation::Columns) {
        PayloadOrientation::Rows
    } else {
        PayloadOrientation::Columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 15;
    const VPB: usize = 2048;
    const K4: Projectivity = Projectivity { point: 4, range: 4 };

    fn choose(fm: &FrequencyModel, proj: Projectivity) -> PayloadOrientation {
        choose_orientation(fm, &CostConstants::paper(), W, VPB, proj)
    }

    #[test]
    fn writes_choose_rows() {
        let mut fm = FrequencyModel::new(4);
        fm.ins[3] = 10.0;
        fm.de[0] = 1.0;
        assert_eq!(choose(&fm, K4), PayloadOrientation::Rows);
        let c = CostConstants::paper();
        let cost = |o| payload_line_cost(&fm, &c, W, VPB, K4, o);
        // 11 slot writes: 15 lines each column-major, one row-major.
        assert_eq!(cost(PayloadOrientation::Columns), 11.0 * 15.0 * c.rw);
        assert_eq!(cost(PayloadOrientation::Rows), 11.0 * c.rw);
    }

    #[test]
    fn range_sums_choose_columns() {
        let mut fm = FrequencyModel::new(4);
        fm.ins[3] = 10.0;
        fm.rs[0] = 1.0;
        fm.sc[1] = 1.0;
        fm.re[2] = 1.0;
        assert_eq!(choose(&fm, K4), PayloadOrientation::Columns);
        let c = CostConstants::paper();
        let rows = 3.0 * VPB as f64;
        let cols = payload_line_cost(&fm, &c, W, VPB, K4, PayloadOrientation::Columns);
        assert_eq!(cols, 10.0 * 15.0 * c.rw + rows * 4.0 / 16.0 * c.sr);
        let r = payload_line_cost(&fm, &c, W, VPB, K4, PayloadOrientation::Rows);
        assert_eq!(r, 10.0 * c.rw + rows * 15.0 / 16.0 * c.sr);
    }

    #[test]
    fn point_gathers_price_k_lines_against_one_row() {
        let mut fm = FrequencyModel::new(2);
        fm.pq[0] = 5.0;
        // k = 1: one line either way, a tie.
        let one = Projectivity { point: 1, range: 0 };
        assert_eq!(choose(&fm, one), PayloadOrientation::Columns);
        assert_eq!(choose(&fm, K4), PayloadOrientation::Rows);
    }

    #[test]
    fn reads_projecting_nothing_tie_and_stay_columns() {
        let mut fm = FrequencyModel::new(3);
        fm.rs[0] = 4.0;
        fm.sc[1] = 4.0;
        fm.pq[2] = 4.0;
        let none = Projectivity::default();
        let c = CostConstants::paper();
        for o in [PayloadOrientation::Columns, PayloadOrientation::Rows] {
            assert_eq!(payload_line_cost(&fm, &c, W, VPB, none, o), 0.0);
        }
        assert_eq!(choose(&fm, none), PayloadOrientation::Columns);
        // No operations at all: a tie too.
        assert_eq!(
            choose(&FrequencyModel::new(3), K4),
            PayloadOrientation::Columns
        );
    }

    #[test]
    fn projectivity_is_clamped_to_the_width() {
        let mut fm = FrequencyModel::new(1);
        fm.pq[0] = 1.0;
        let c = CostConstants::paper();
        let wide = Projectivity {
            point: 99,
            range: 99,
        };
        let cost = payload_line_cost(&fm, &c, 2, VPB, wide, PayloadOrientation::Columns);
        assert_eq!(cost, 2.0 * c.rr);
    }
}
