//! The per-block coefficient vectors of Eq. 17.
//!
//! The total workload cost (Eq. 16) factors into four per-block terms that
//! depend only on the Frequency Model and the cost constants:
//!
//! ```text
//! fixed_term_i = RR·(rs+pq+in+de+2udf+2udb) + SR·(re+sc) + RW·(in+de+2udf+2udb)
//! bck_term_i   = SR·(rs+pq+de+udf+udb)
//! fwd_term_i   = SR·(re+pq+de+udf+udb)
//! parts_term_i = (RR+RW)·(in+de+udf−utf−udb+utb)
//! ```
//!
//! multiplied respectively by 1, `bck_read(i)`, `fwd_read(i)` and
//! `trail_parts(i)`. Note `parts_term` may be **negative** (the `−utf`,
//! `−udb` contributions) — the solver handles signed boundary costs.
//!
//! The paper's constants price one cache line, so the terms are charged
//! at the chunk's [`BlockGeometry`] (`L` lines per block, `R` per row):
//!
//! ```text
//! fixed_term_i = RR·(rs+pq+in+de+2udf+2udb) + L·SR·(re+sc) + R·RW·(in+de+2udf+2udb)
//!              + (L−1)·SR·(rs+pq+de+udf+udb) + (R−1)·RR·(in+udf+udb)
//! bck_term_i   = L·SR·(rs+pq+de+udf+udb)
//! fwd_term_i   = L·SR·(re+pq+de+udf+udb)
//! parts_term_i = R·(RR+RW)·(in+de+udf−utf−udb+utb)
//! ```
//!
//! Each random access pays `RR` for its first line. A scan's first block
//! (`rs`, `pq`, `de` and an update's search) then streams its other `L−1`
//! lines; a slot read (`in` and an update's placement) touches the other
//! `R−1` lines of its row at random. `R` follows the chunk's payload
//! orientation: `1 + w` lines column-major, `1 + ⌈4w/64⌉` row-major. At `L = R = 1` the added terms are
//! exactly zero and the rest is the paper's Eq. 17, bit for bit.
//!
//! Eq. 17's `parts` term charges every insert and delete a ripple past
//! every trailing boundary: what a dense column pays. A chunk under the
//! ghost policy pays less. A delete books its freed slot as a ghost of its
//! own partition and never ripples; an insert or an incoming
//! cross-partition update ripples only once its partition's ghosts are
//! used up. Eq. 18 gives every partition the same share `G/D` of its own
//! slot demand (`D = Σ(in + utf + utb)`, `G` the chunk's ghost budget), so
//! the share `ρ = max(0, 1 − G/D)` that still ripples is the same in every
//! partition ([`crate::ghost_alloc::uncovered_share`]) and the term stays
//! linear per block:
//!
//! ```text
//! parts_term_i = R·(RR+RW)·ρ·(in+udf−utf−udb+utb)
//! ```
//!
//! [`BlockTerms::with_ripple_share`] builds these terms. The optimizer
//! charges them on row-major chunks only. Column-major chunks keep Eq. 17:
//! consecutive appends into one column-major partition share the `w + 1`
//! lines they dirty, and the trailing-boundary charge is the only thing in
//! the model that keeps such an insert stream in few partitions. Spreading
//! it over more receiving partitions measurably slows those inserts, so
//! the full charge stands in for the append locality the model does not
//! price.

use super::constants::CostConstants;
use super::geometry::BlockGeometry;
use crate::fm::FrequencyModel;

/// Per-block cost coefficients (Eq. 17), precomputed from a
/// [`FrequencyModel`] and [`CostConstants`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTerms {
    /// Partition-independent cost per block.
    pub fixed: Vec<f64>,
    /// Coefficient of `bck_read(i)` (leading blocks in the same partition).
    pub bck: Vec<f64>,
    /// Coefficient of `fwd_read(i)` (trailing blocks in the same partition).
    pub fwd: Vec<f64>,
    /// Coefficient of `trail_parts(i)` (boundaries at or after block `i`).
    pub parts: Vec<f64>,
}

impl BlockTerms {
    /// Compute Eq. 17 for every block at [`BlockGeometry::UNIT`]: the
    /// paper's terms, with a block and a row priced as one line each.
    pub fn from_fm(fm: &FrequencyModel, c: &CostConstants) -> Self {
        Self::with_geometry(fm, c, &BlockGeometry::UNIT)
    }

    /// Compute Eq. 17 for every block of a chunk of geometry `g`.
    pub fn with_geometry(fm: &FrequencyModel, c: &CostConstants, g: &BlockGeometry) -> Self {
        let n = fm.n_blocks();
        let (lines, row) = (g.lines_per_block, g.lines_per_row);
        let (seq_r, row_w, row_move) = (g.seq_block(c), c.rw * row, g.row_move(c));
        let mut fixed = Vec::with_capacity(n);
        let mut bck = Vec::with_capacity(n);
        let mut fwd = Vec::with_capacity(n);
        let mut parts = Vec::with_capacity(n);
        for i in 0..n {
            let (pq, rs, sc, re) = (fm.pq[i], fm.rs[i], fm.sc[i], fm.re[i]);
            let (ins, de) = (fm.ins[i], fm.de[i]);
            let (udf, utf, udb, utb) = (fm.udf[i], fm.utf[i], fm.udb[i], fm.utb[i]);
            fixed.push(
                c.rr * (rs + pq + ins + de + 2.0 * udf + 2.0 * udb)
                    + seq_r * (re + sc)
                    + row_w * (ins + de + 2.0 * udf + 2.0 * udb)
                    + (lines - 1.0) * c.sr * (rs + pq + de + udf + udb)
                    + (row - 1.0) * c.rr * (ins + udf + udb),
            );
            bck.push(seq_r * (rs + pq + de + udf + udb));
            fwd.push(seq_r * (re + pq + de + udf + udb));
            parts.push(row_move * (ins + de + udf - utf - udb + utb));
        }
        Self {
            fixed,
            bck,
            fwd,
            parts,
        }
    }

    /// Compute the terms for a chunk of geometry `g` under the ghost
    /// policy, whose reserve leaves the share `rho` of its inserts and
    /// incoming updates uncovered: Eq. 17 at `g`, except that deletes
    /// ripple nowhere and the rest ripple `rho` of the time,
    /// `parts_i = R·(RR+RW)·ρ·(in + udf − utf − udb + utb)`.
    pub fn with_ripple_share(
        fm: &FrequencyModel,
        c: &CostConstants,
        g: &BlockGeometry,
        rho: f64,
    ) -> Self {
        let mut terms = Self::with_geometry(fm, c, g);
        let charge = g.row_move(c) * rho;
        for (i, parts) in terms.parts.iter_mut().enumerate() {
            *parts = charge * (fm.ins[i] + fm.udf[i] - fm.utf[i] - fm.udb[i] + fm.utb[i]);
        }
        terms
    }

    /// Number of blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.fixed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_storage::PayloadOrientation;
    use proptest::prelude::*;

    /// The paper's Eq. 17 as written, one line per block and per row.
    fn paper_eq17(fm: &FrequencyModel, c: &CostConstants) -> BlockTerms {
        let n = fm.n_blocks();
        let mut t = BlockTerms {
            fixed: Vec::with_capacity(n),
            bck: Vec::with_capacity(n),
            fwd: Vec::with_capacity(n),
            parts: Vec::with_capacity(n),
        };
        for i in 0..n {
            let (pq, rs, sc, re) = (fm.pq[i], fm.rs[i], fm.sc[i], fm.re[i]);
            let (ins, de) = (fm.ins[i], fm.de[i]);
            let (udf, utf, udb, utb) = (fm.udf[i], fm.utf[i], fm.udb[i], fm.utb[i]);
            t.fixed.push(
                c.rr * (rs + pq + ins + de + 2.0 * udf + 2.0 * udb)
                    + c.sr * (re + sc)
                    + c.rw * (ins + de + 2.0 * udf + 2.0 * udb),
            );
            t.bck.push(c.sr * (rs + pq + de + udf + udb));
            t.fwd.push(c.sr * (re + pq + de + udf + udb));
            t.parts
                .push((c.rr + c.rw) * (ins + de + udf - utf - udb + utb));
        }
        t
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// At `L = R = 1` the geometry-aware terms are the paper's Eq. 17
        /// bit for bit, on random Frequency Models and constants.
        #[test]
        fn unit_geometry_is_eq17_bit_for_bit(
            hist in proptest::collection::vec(proptest::collection::vec(0.0f64..50.0, 10), 1..24),
            k in (1.0f64..500.0, 1.0f64..500.0, 0.01f64..50.0, 0.01f64..50.0),
        ) {
            let n = hist.len();
            let mut fm = FrequencyModel::new(n);
            for (i, h) in hist.iter().enumerate() {
                (fm.pq[i], fm.rs[i], fm.sc[i], fm.re[i], fm.ins[i]) = (h[0], h[1], h[2], h[3], h[4]);
                (fm.de[i], fm.udf[i], fm.utf[i], fm.udb[i], fm.utb[i]) = (h[5], h[6], h[7], h[8], h[9]);
            }
            let c = CostConstants::new(k.0, k.1, k.2, k.3);
            let want = paper_eq17(&fm, &c);
            for got in [
                BlockTerms::from_fm(&fm, &c),
                BlockTerms::with_geometry(&fm, &c, &BlockGeometry::UNIT),
            ] {
                prop_assert_eq!(bits(&got.fixed), bits(&want.fixed));
                prop_assert_eq!(bits(&got.bck), bits(&want.bck));
                prop_assert_eq!(bits(&got.fwd), bits(&want.fwd));
                prop_assert_eq!(bits(&got.parts), bits(&want.parts));
            }
        }
    }

    #[test]
    fn geometry_prices_lines() {
        // L = 256 lines per block, R = 16 lines per row.
        let g = BlockGeometry::of_chunk(16 * 1024, 15, PayloadOrientation::Columns);
        let c = CostConstants::new(100.0, 50.0, 2.0, 3.0);
        let mut fm = FrequencyModel::new(3);
        fm.pq[0] = 1.0; // seek + 255 streamed lines
        fm.sc[1] = 1.0; // one streamed block
        fm.ins[2] = 1.0; // a slot read and a slot write of 16 lines each
        let t = BlockTerms::with_geometry(&fm, &c, &g);
        assert_eq!(
            t.fixed,
            vec![100.0 + 255.0 * 2.0, 256.0 * 2.0, 16.0 * 150.0]
        );
        assert_eq!(t.bck, vec![512.0, 0.0, 0.0]);
        assert_eq!(t.fwd, vec![512.0, 0.0, 0.0]);
        assert_eq!(t.parts, vec![0.0, 0.0, 16.0 * 150.0]);
    }

    #[test]
    fn pure_point_queries() {
        let mut fm = FrequencyModel::new(3);
        fm.pq = vec![2.0, 0.0, 1.0];
        let c = CostConstants::new(100.0, 100.0, 10.0, 10.0);
        let t = BlockTerms::from_fm(&fm, &c);
        assert_eq!(t.fixed, vec![200.0, 0.0, 100.0]);
        assert_eq!(t.bck, vec![20.0, 0.0, 10.0]);
        assert_eq!(t.fwd, vec![20.0, 0.0, 10.0]);
        assert_eq!(t.parts, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn inserts_hit_fixed_and_parts() {
        let mut fm = FrequencyModel::new(2);
        fm.ins = vec![1.0, 0.0];
        let c = CostConstants::new(100.0, 50.0, 10.0, 10.0);
        let t = BlockTerms::from_fm(&fm, &c);
        assert_eq!(t.fixed[0], 150.0); // RR + RW
        assert_eq!(t.parts[0], 150.0); // (RR+RW)
        assert_eq!(t.bck[0], 0.0);
        assert_eq!(t.fwd[0], 0.0);
    }

    #[test]
    fn updates_can_make_parts_negative() {
        // An update *into* block 1 (utf) with its source in block 0 makes
        // parts_term of block 1 negative.
        let mut fm = FrequencyModel::new(2);
        fm.udf = vec![1.0, 0.0];
        fm.utf = vec![0.0, 1.0];
        let c = CostConstants::paper();
        let t = BlockTerms::from_fm(&fm, &c);
        assert!(t.parts[0] > 0.0);
        assert!(t.parts[1] < 0.0);
        // Forward update fixed cost: 2RR + 2RW at the source block.
        assert!((t.fixed[0] - (2.0 * c.rr + 2.0 * c.rw)).abs() < 1e-9);
    }

    #[test]
    fn ripple_share_scales_the_slot_demand_and_drops_deletes() {
        let g = BlockGeometry::of_chunk(16 * 1024, 15, PayloadOrientation::Rows);
        let c = CostConstants::new(100.0, 50.0, 2.0, 3.0);
        let mut fm = FrequencyModel::new(3);
        fm.pq[0] = 4.0;
        fm.ins = vec![2.0, 0.0, 1.0];
        fm.de = vec![0.0, 5.0, 0.0];
        fm.udf[0] = 1.0;
        fm.utf[2] = 1.0;
        let eq17 = BlockTerms::with_geometry(&fm, &c, &g);
        let move_ = 2.0 * 150.0; // R = 2 lines per row-major row
        for rho in [0.0, 0.25, 1.0] {
            let t = BlockTerms::with_ripple_share(&fm, &c, &g, rho);
            // Only the ripple charge moves.
            assert_eq!(
                (&t.fixed, &t.bck, &t.fwd),
                (&eq17.fixed, &eq17.bck, &eq17.fwd)
            );
            let want = [3.0, 0.0, 0.0].map(|d| move_ * rho * d);
            assert_eq!(t.parts, want.to_vec(), "rho {rho}");
        }
        // At ρ = 1 and without deletes the charge is Eq. 17's.
        fm.de = vec![0.0; 3];
        let t = BlockTerms::with_ripple_share(&fm, &c, &g, 1.0);
        assert_eq!(t, BlockTerms::with_geometry(&fm, &c, &g));
    }

    #[test]
    fn deletes_contribute_everywhere() {
        let mut fm = FrequencyModel::new(1);
        fm.de = vec![1.0];
        let c = CostConstants::new(100.0, 100.0, 10.0, 10.0);
        let t = BlockTerms::from_fm(&fm, &c);
        assert_eq!(t.fixed[0], 200.0);
        assert_eq!(t.bck[0], 10.0);
        assert_eq!(t.fwd[0], 10.0);
        assert_eq!(t.parts[0], 200.0);
    }
}
