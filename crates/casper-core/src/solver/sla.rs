//! Mapping latency SLAs to structural constraints (Eq. 21).
//!
//! * **Update/insert SLA**: the most expensive insert ripples through all
//!   partitions, costing `(RR + RW)·(1 + Σ p_i)`, so
//!   `Σ p_i ≤ updateSLA/(RR+RW) − 1` caps the partition count.
//! * **Read SLA**: a point query costs `RR + SR·MPS` for a partition of
//!   `MPS` blocks, so `MPS = (readSLA − RR)/SR − 1` caps the partition
//!   width; the paper enforces it with sliding-window constraints
//!   `Σ_{i=j}^{j+MPS−1} p_i ≥ 1`, which is equivalent to the DP's
//!   segment-length cap.
//!
//! Both are priced at the chunk's [`BlockGeometry`], as Eq. 17 is: a
//! ripple step moves a row of `R` lines, `R·(RR + RW)`, and the point query
//! seeks one block and streams the rest, `RR + (L−1)·SR + L·SR·MPS`. At
//! [`BlockGeometry::UNIT`] these are the formulas above.
//!
//! The update SLA keeps the worst case on every chunk, row-major ones
//! included: once a partition's reserve is used up, an insert does ripple
//! past every trailing boundary, whatever share of the inserts the solver's
//! terms expect the reserve to absorb.

use super::SolverConstraints;
use crate::cost::{BlockGeometry, CostConstants};

/// Maximum partition count allowed by an update SLA (ns), per Eq. 21.
/// Clamped to at least 1.
pub fn max_partitions_for_update_sla(
    c: &CostConstants,
    g: &BlockGeometry,
    update_sla_ns: f64,
) -> usize {
    let k = (update_sla_ns / g.row_move(c) - 1.0).floor();
    if k < 1.0 {
        1
    } else {
        k as usize
    }
}

/// Maximum partition width in blocks (`MPS`) allowed by a read SLA (ns),
/// per Eq. 21. Clamped to at least 1.
pub fn max_partition_blocks_for_read_sla(
    c: &CostConstants,
    g: &BlockGeometry,
    read_sla_ns: f64,
) -> usize {
    let w = ((read_sla_ns - g.seek_block(c)) / g.seq_block(c) - 1.0).floor();
    if w < 1.0 {
        1
    } else {
        w as usize
    }
}

/// Bundle both SLA families into [`SolverConstraints`].
pub fn constraints_from_slas(
    c: &CostConstants,
    g: &BlockGeometry,
    update_sla_ns: Option<f64>,
    read_sla_ns: Option<f64>,
) -> SolverConstraints {
    SolverConstraints {
        max_partitions: update_sla_ns.map(|s| max_partitions_for_update_sla(c, g, s)),
        max_partition_blocks: read_sla_ns.map(|s| max_partition_blocks_for_read_sla(c, g, s)),
    }
}

/// The worst-case insert latency (ns) implied by a partition count — the
/// inverse of [`max_partitions_for_update_sla`], used to report achieved
/// bounds in the Fig. 15 experiment.
pub fn worst_insert_nanos(c: &CostConstants, g: &BlockGeometry, partitions: usize) -> f64 {
    g.row_move(c) * (1.0 + partitions as f64)
}

/// The worst-case point-query latency (ns) implied by a maximum partition
/// width in blocks.
pub fn worst_point_query_nanos(c: &CostConstants, g: &BlockGeometry, mps_blocks: usize) -> f64 {
    g.seek_block(c) + g.seq_block(c) * mps_blocks as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    use casper_storage::PayloadOrientation;

    const U: BlockGeometry = BlockGeometry::UNIT;

    #[test]
    fn update_sla_caps_partitions() {
        let c = CostConstants::new(100.0, 100.0, 10.0, 10.0);
        // SLA 1000ns / (200ns per partition step) − 1 = 4.
        assert_eq!(max_partitions_for_update_sla(&c, &U, 1000.0), 4);
        // Tight SLA clamps to one partition.
        assert_eq!(max_partitions_for_update_sla(&c, &U, 100.0), 1);
    }

    #[test]
    fn read_sla_caps_partition_width() {
        let c = CostConstants::new(100.0, 100.0, 10.0, 10.0);
        // (600 − 100)/10 − 1 = 49 blocks.
        assert_eq!(max_partition_blocks_for_read_sla(&c, &U, 600.0), 49);
        assert_eq!(max_partition_blocks_for_read_sla(&c, &U, 50.0), 1);
    }

    #[test]
    fn sla_round_trip_within_bounds() {
        let c = CostConstants::paper();
        for sla in [500.0, 1000.0, 5000.0, 12_500.0] {
            let k = max_partitions_for_update_sla(&c, &U, sla);
            assert!(
                worst_insert_nanos(&c, &U, k) <= sla,
                "k={k} violates its own SLA {sla}"
            );
            // One more partition would break the SLA (unless clamped).
            if k > 1 {
                assert!(worst_insert_nanos(&c, &U, k + 1) > sla);
            }
        }
    }

    #[test]
    fn bundle_builds_constraints() {
        let c = CostConstants::paper();
        let sc = constraints_from_slas(&c, &U, Some(2000.0), Some(800.0));
        assert!(sc.max_partitions.is_some());
        assert!(sc.max_partition_blocks.is_some());
        let none = constraints_from_slas(&c, &U, None, None);
        assert_eq!(none, SolverConstraints::none());
    }

    #[test]
    fn geometry_prices_lines_and_rows() {
        let c = CostConstants::new(100.0, 100.0, 10.0, 10.0);
        // L = 4 lines per block, R = 2 lines per row.
        let g = BlockGeometry::of_chunk(256, 1, PayloadOrientation::Columns);
        // One ripple step moves 2 lines: 400 ns. 2000 / 400 − 1 = 4.
        assert_eq!(max_partitions_for_update_sla(&c, &g, 2000.0), 4);
        assert_eq!(worst_insert_nanos(&c, &g, 4), 2000.0);
        // Seek 100 + 3·10; each block streams 40. (530 − 130) / 40 − 1 = 9.
        assert_eq!(max_partition_blocks_for_read_sla(&c, &g, 530.0), 9);
        assert_eq!(worst_point_query_nanos(&c, &g, 9), 490.0);
        for sla in [1200.0, 3000.0, 9000.0] {
            let k = max_partitions_for_update_sla(&c, &g, sla);
            assert!(worst_insert_nanos(&c, &g, k) <= sla);
            let w = max_partition_blocks_for_read_sla(&c, &g, sla);
            assert!(worst_point_query_nanos(&c, &g, w) <= sla);
        }
    }
}
