//! Two-dimensional q-digest / adaptive spatial partitioning — the
//! "Qdigest" baseline of Section 6.
//!
//! The summary is a set of materialized dyadic grid cells (products of
//! equal-level dyadic intervals), built bottom-up from the data in the
//! classic q-digest style [Shrivastava et al., SenSys 2004] generalized to
//! two dimensions per [Hershberger et al., ISAAC 2004]: a cell whose own
//! weight plus its sibling group's weight falls below the compression
//! threshold `W/k` is merged into its parent. The threshold doubles until
//! the materialized node count fits the size budget.
//!
//! Queries sum materialized cells: a cell fully inside the query
//! contributes its whole weight; a partially overlapped cell contributes
//! proportionally to the overlapped fraction of its area (the uniform-
//! spread assumption — the source of the method's error).

use std::collections::HashMap;

use sas_core::Mergeable;
use sas_sampling::product::SpatialData;
use sas_structures::product::BoxRange;

/// A dyadic grid cell: level (side `2^level`) and cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Cell {
    level: u32,
    ix: u64,
    iy: u64,
}

impl Cell {
    fn parent(self) -> Cell {
        Cell {
            level: self.level + 1,
            ix: self.ix >> 1,
            iy: self.iy >> 1,
        }
    }

    fn to_box(self) -> BoxRange {
        let side = 1u64 << self.level;
        BoxRange::xy(
            self.ix * side,
            self.ix * side + side - 1,
            self.iy * side,
            self.iy * side + side - 1,
        )
    }
}

/// The 2-D q-digest summary.
#[derive(Debug, Clone)]
pub struct QDigestSummary {
    nodes: Vec<(Cell, f64)>,
    /// The compression threshold the build converged at.
    threshold: f64,
}

impl QDigestSummary {
    /// Builds a q-digest over a square `2^bits × 2^bits` domain with a node
    /// budget of `s` materialized cells.
    ///
    /// # Panics
    /// Panics if any point lies outside the domain.
    pub fn build(data: &SpatialData, bits: u32, s: usize) -> Self {
        assert!(s > 0, "size budget must be positive");
        // Leaf cells: aggregate co-located points.
        let mut leaves: HashMap<(u64, u64), f64> = HashMap::new();
        let mut total = 0.0;
        for (wk, p) in data.keys.iter().zip(&data.points) {
            if wk.weight == 0.0 {
                continue;
            }
            let (x, y) = (p.coord(0), p.coord(1));
            if bits < 32 {
                assert!(
                    x < (1u64 << bits) && y < (1u64 << bits),
                    "point ({x},{y}) outside 2^{bits} domain"
                );
            }
            *leaves.entry((x, y)).or_insert(0.0) += wk.weight;
            total += wk.weight;
        }
        if leaves.is_empty() {
            return Self {
                nodes: Vec::new(),
                threshold: 0.0,
            };
        }

        let mut threshold = total / s as f64;
        loop {
            let mut nodes = Self::compress(&leaves, bits, threshold);
            if nodes.len() <= s {
                Self::canonicalize(&mut nodes);
                return Self { nodes, threshold };
            }
            threshold *= 2.0;
        }
    }

    /// Sorts nodes into the canonical (level, ix, iy) order. The compress
    /// and merge passes go through hash maps whose iteration order varies
    /// run to run; canonical order makes builds, merges, estimate sums, and
    /// encodings byte-for-byte deterministic.
    fn canonicalize(nodes: &mut [(Cell, f64)]) {
        nodes.sort_unstable_by_key(|(c, _)| (c.level, c.ix, c.iy));
    }

    /// One bottom-up compression pass at a fixed threshold: cells whose
    /// sibling group (the 4 children of one parent) weighs below the
    /// threshold are merged upward, level by level.
    fn compress(leaves: &HashMap<(u64, u64), f64>, bits: u32, threshold: f64) -> Vec<(Cell, f64)> {
        let mut materialized: Vec<(Cell, f64)> = Vec::new();
        let mut current: HashMap<Cell, f64> = leaves
            .iter()
            .map(|(&(x, y), &w)| {
                (
                    Cell {
                        level: 0,
                        ix: x,
                        iy: y,
                    },
                    w,
                )
            })
            .collect();
        for _level in 0..bits {
            // Group by parent.
            let mut by_parent: HashMap<Cell, (f64, Vec<(Cell, f64)>)> = HashMap::new();
            for (cell, w) in current.drain() {
                let e = by_parent.entry(cell.parent()).or_insert((0.0, Vec::new()));
                e.0 += w;
                e.1.push((cell, w));
            }
            for (parent, (group_w, members)) in by_parent {
                if group_w < threshold {
                    // Merge the whole sibling group into the parent.
                    current.insert(parent, group_w);
                } else {
                    // Keep the heavy children; the parent continues upward
                    // with zero weight of its own (children carry it all).
                    for (cell, w) in members {
                        if w >= threshold / 4.0 {
                            materialized.push((cell, w));
                        } else {
                            // Light member of a heavy group: push its weight
                            // to the parent to avoid many tiny nodes.
                            *current.entry(parent).or_insert(0.0) += w;
                        }
                    }
                }
            }
        }
        // Whatever reached the top level is materialized there.
        for (cell, w) in current {
            if w > 0.0 {
                materialized.push((cell, w));
            }
        }
        materialized
    }

    /// The compression threshold used by the final build pass.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Writes the wire representation (see `sas-codec` for the framing).
    pub(crate) fn write_wire(&self, w: &mut sas_codec::Writer) {
        w.section(1, |w| w.put_f64(self.threshold));
        w.section(2, |w| {
            w.put_u64(self.nodes.len() as u64);
            for (cell, weight) in &self.nodes {
                w.put_u32(cell.level);
                w.put_u64(cell.ix);
                w.put_u64(cell.iy);
                w.put_f64(*weight);
            }
        });
    }

    /// Reads the wire representation, validating every invariant a
    /// corrupted file could violate (never panics).
    pub(crate) fn read_wire(r: &mut sas_codec::Reader<'_>) -> Result<Self, sas_codec::CodecError> {
        use sas_codec::CodecError;
        let mut meta = r.expect_section(1)?;
        let threshold = meta.get_finite_f64()?;
        if threshold < 0.0 {
            return Err(CodecError::Invalid(format!(
                "negative threshold {threshold}"
            )));
        }
        meta.finish()?;
        let mut body = r.expect_section(2)?;
        let n = body.get_len(28)?; // u32 + 2×u64 + f64 per node
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let level = body.get_u32()?;
            let ix = body.get_u64()?;
            let iy = body.get_u64()?;
            let weight = body.get_finite_f64()?;
            if weight < 0.0 {
                return Err(CodecError::Invalid(format!(
                    "negative node weight {weight}"
                )));
            }
            if level >= 64 {
                return Err(CodecError::Invalid(format!("cell level {level} too deep")));
            }
            // The cell's box must fit in u64: (i + 1) · 2^level − 1 ≤ u64::MAX.
            let side = 1u64 << level;
            for i in [ix, iy] {
                if i.checked_add(1).and_then(|v| v.checked_mul(side)).is_none() {
                    return Err(CodecError::Invalid(format!(
                        "cell ({level}, {ix}, {iy}) overflows the domain"
                    )));
                }
            }
            nodes.push((Cell { level, ix, iy }, weight));
        }
        body.finish()?;
        Ok(Self { nodes, threshold })
    }

    /// Total weight stored (equals the data total).
    pub fn stored_total(&self) -> f64 {
        self.nodes.iter().map(|(_, w)| w).sum()
    }

    /// Deterministic containment bounds on the exact answer inside `query`.
    ///
    /// Every data point aggregated into a cell lies inside that cell, so
    /// the exact answer is at least the weight of the cells fully covered
    /// by the query and at most the weight of the cells it intersects at
    /// all. The proportional estimate of
    /// [`estimate_box`](QDigestSummary::estimate_box) always lies inside
    /// the same interval.
    pub fn bound_box(&self, query: &BoxRange) -> (f64, f64) {
        if query.is_empty() {
            return (0.0, 0.0);
        }
        let mut lower = 0.0;
        let mut upper = 0.0;
        for (cell, w) in &self.nodes {
            let b = cell.to_box();
            if query.covers(&b) {
                lower += w;
                upper += w;
            } else if query.overlaps(&b) {
                upper += w;
            }
        }
        (lower, upper)
    }
}

/// Q-digests over disjoint data merge by cell-wise weight addition: the
/// union of the two node sets, with coinciding cells combined. Queries over
/// the merged digest are exactly the sum of the two inputs' answers, so the
/// deterministic error guarantees add. The node count can grow up to the sum
/// of the inputs'; rebuild from data (or raise the threshold) to recompress.
impl Mergeable for QDigestSummary {
    fn merge_with<R: rand::Rng + ?Sized>(&mut self, other: Self, _rng: &mut R) {
        let mut by_cell: HashMap<Cell, f64> = self.nodes.drain(..).collect();
        for (cell, w) in other.nodes {
            *by_cell.entry(cell).or_insert(0.0) += w;
        }
        self.nodes = by_cell.into_iter().collect();
        Self::canonicalize(&mut self.nodes);
        self.threshold = self.threshold.max(other.threshold);
    }
}

impl QDigestSummary {
    /// Estimated weight inside `query`: covered cells count fully,
    /// partially covered cells in proportion to the covered volume.
    pub fn estimate_box(&self, query: &BoxRange) -> f64 {
        if query.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|(cell, w)| {
                let b = cell.to_box();
                if query.covers(&b) {
                    *w
                } else {
                    let inter = query.intersect(&b);
                    if inter.is_empty() {
                        0.0
                    } else {
                        w * inter.volume() as f64 / b.volume() as f64
                    }
                }
            })
            .sum()
    }

    /// Stored nodes — the kind's
    /// [`Summary::item_count`](crate::Summary::item_count).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, bits: u32, seed: u64) -> SpatialData {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 1u64 << bits;
        let rows: Vec<(u64, u64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..side),
                    rng.gen_range(0..side),
                    rng.gen_range(0.5..5.0),
                )
            })
            .collect();
        SpatialData::from_xyw(&rows)
    }

    #[test]
    fn weight_is_conserved() {
        let data = random_data(300, 6, 1);
        let q = QDigestSummary::build(&data, 6, 50);
        assert!(
            (q.stored_total() - data.total_weight()).abs() < 1e-6,
            "{} vs {}",
            q.stored_total(),
            data.total_weight()
        );
    }

    #[test]
    fn respects_size_budget() {
        let data = random_data(500, 8, 2);
        for s in [10, 50, 200] {
            let q = QDigestSummary::build(&data, 8, s);
            assert!(q.item_count() <= s, "budget {s}: {}", q.item_count());
        }
    }

    #[test]
    fn full_domain_query_is_exact() {
        let data = random_data(200, 6, 3);
        let q = QDigestSummary::build(&data, 6, 30);
        let full = BoxRange::xy(0, 63, 0, 63);
        assert!((q.estimate_box(&full) - data.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn large_budget_gives_exact_answers() {
        let data = random_data(50, 5, 4);
        // Budget larger than distinct points: leaves survive compression.
        let q = QDigestSummary::build(&data, 5, 5000);
        let exact = crate::exact::ExactEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let x0 = rng.gen_range(0..32);
            let x1 = rng.gen_range(x0..32);
            let y0 = rng.gen_range(0..32);
            let y1 = rng.gen_range(y0..32);
            let qu = BoxRange::xy(x0, x1, y0, y1);
            let est = q.estimate_box(&qu);
            let truth = exact.box_sum(&qu);
            assert!(
                (est - truth).abs() < 1e-6 * (1.0 + truth),
                "{qu:?}: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn error_bounded_by_threshold_heuristic() {
        // With budget s, per-query error should be well below total weight.
        let data = random_data(1000, 8, 6);
        let q = QDigestSummary::build(&data, 8, 100);
        let exact = crate::exact::ExactEngine::new(&data);
        let total = data.total_weight();
        let mut rng = StdRng::seed_from_u64(7);
        let mut worst: f64 = 0.0;
        for _ in 0..50 {
            let x0 = rng.gen_range(0..200);
            let x1 = (x0 + rng.gen_range(1..56)).min(255);
            let y0 = rng.gen_range(0..200);
            let y1 = (y0 + rng.gen_range(1..56)).min(255);
            let qu = BoxRange::xy(x0, x1, y0, y1);
            worst = worst.max((q.estimate_box(&qu) - exact.box_sum(&qu)).abs());
        }
        assert!(worst < 0.5 * total, "worst error {worst} vs total {total}");
    }

    #[test]
    fn empty_data() {
        let data = SpatialData::from_xyw(&[]);
        let q = QDigestSummary::build(&data, 4, 10);
        assert_eq!(q.item_count(), 0);
        assert_eq!(q.estimate_box(&BoxRange::xy(0, 15, 0, 15)), 0.0);
    }

    #[test]
    fn containment_bounds_bracket_estimate_and_exact() {
        let data = random_data(400, 6, 9);
        let q = QDigestSummary::build(&data, 6, 40);
        let exact = crate::exact::ExactEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..60 {
            let x0 = rng.gen_range(0..60);
            let x1 = rng.gen_range(x0..64);
            let y0 = rng.gen_range(0..60);
            let y1 = rng.gen_range(y0..64);
            let b = BoxRange::xy(x0, x1, y0, y1);
            let (lo, hi) = q.bound_box(&b);
            let est = q.estimate_box(&b);
            let truth = exact.box_sum(&b);
            assert!(lo <= hi, "{b:?}");
            assert!(
                lo <= est + 1e-9 && est <= hi + 1e-9,
                "{b:?}: est {est} outside [{lo}, {hi}]"
            );
            assert!(
                lo <= truth + 1e-9 && truth <= hi + 1e-9,
                "{b:?}: truth {truth} outside [{lo}, {hi}]"
            );
        }
        // Full domain: both ends collapse onto the exact total.
        let full = BoxRange::xy(0, 63, 0, 63);
        let (lo, hi) = q.bound_box(&full);
        assert!((lo - data.total_weight()).abs() < 1e-6);
        assert!((hi - data.total_weight()).abs() < 1e-6);
        // Empty query: zero bounds.
        assert_eq!(q.bound_box(&BoxRange::xy(5, 4, 0, 63)), (0.0, 0.0));
    }

    #[test]
    fn merged_digest_preserves_total_and_adds_estimates() {
        let mut rng = StdRng::seed_from_u64(15);
        let all = random_data(600, 8, 11);
        let rows: Vec<(u64, u64, f64)> = all
            .keys
            .iter()
            .zip(&all.points)
            .map(|(wk, p)| (p.coord(0), p.coord(1), wk.weight))
            .collect();
        let (first, second) = rows.split_at(300);
        let mut a = QDigestSummary::build(&SpatialData::from_xyw(first), 8, 80);
        let b = QDigestSummary::build(&SpatialData::from_xyw(second), 8, 80);
        let (est_a, est_b, tot_a, tot_b) = {
            let q = BoxRange::xy(0, 127, 0, 127);
            (
                a.estimate_box(&q),
                b.estimate_box(&q),
                a.stored_total(),
                b.stored_total(),
            )
        };
        a.merge_with(b, &mut rng);
        assert!((a.stored_total() - (tot_a + tot_b)).abs() < 1e-9);
        let q = BoxRange::xy(0, 127, 0, 127);
        assert!((a.estimate_box(&q) - (est_a + est_b)).abs() < 1e-9);
        assert!(a.item_count() <= 160);
    }
}
