//! The classic one-dimensional q-digest [Shrivastava, Buragohain, Agrawal,
//! Suri — SenSys 2004], for the 1-D comparison experiments and rank /
//! quantile queries.
//!
//! Nodes are dyadic intervals; a node is materialized only if its subtree
//! weight cannot be pushed into its parent without the parent's count
//! exceeding `W/k`. The structure guarantees rank error ≤ (log u)·W/k and
//! materializes O(k log u) nodes.
//!
//! ## Why this is not the 2-D kind on one row
//!
//! The 1-D wavelet is the general `wavelet` kind at `bits_y = 0`, but the
//! 2-D [`QDigestSummary`](crate::qdigest::QDigestSummary) on one row does
//! not reproduce this digest. Both keep the heavy members of a heavy
//! sibling group, yet the 2-D `compress` (four-child groups) keeps a
//! light member only at ≥ threshold/4, where this one (two-child groups)
//! uses threshold/2. On the `one_dim` bench workload the 2-D kind gives a
//! mean error of 1.2264e-3 against this digest's 1.1106e-3 at s = 300,
//! and 4.6249e-4 against 5.2989e-4 at s = 1000, so the committed
//! `one_dim_errors` would not reproduce.

use std::collections::HashMap;

use sas_core::WeightedKey;
use sas_structures::dyadic::DyadicInterval;
use sas_structures::order::Interval;

/// The classic 1-D q-digest.
#[derive(Debug, Clone)]
pub struct QDigest1D {
    nodes: Vec<(DyadicInterval, f64)>,
    bits: u32,
    total: f64,
}

impl QDigest1D {
    /// Builds a q-digest over keys in `[0, 2^bits)` with compression budget
    /// `k` (threshold `W/k`).
    pub fn build(data: &[WeightedKey], bits: u32, k: usize) -> Self {
        assert!(k > 0, "budget must be positive");
        let mut leaves: HashMap<u64, f64> = HashMap::new();
        let mut total = 0.0;
        for wk in data {
            if wk.weight == 0.0 {
                continue;
            }
            if bits < 64 {
                assert!(wk.key < (1u64 << bits), "key outside domain");
            }
            *leaves.entry(wk.key).or_insert(0.0) += wk.weight;
            total += wk.weight;
        }
        if leaves.is_empty() {
            return Self {
                nodes: Vec::new(),
                bits,
                total: 0.0,
            };
        }
        let mut threshold = total / k as f64;
        loop {
            let nodes = Self::compress(&leaves, bits, threshold);
            if nodes.len() <= k {
                return Self { nodes, bits, total };
            }
            threshold *= 2.0;
        }
    }

    fn compress(
        leaves: &HashMap<u64, f64>,
        bits: u32,
        threshold: f64,
    ) -> Vec<(DyadicInterval, f64)> {
        let mut materialized = Vec::new();
        let mut current: HashMap<DyadicInterval, f64> = leaves
            .iter()
            .map(|(&x, &w)| (DyadicInterval { level: 0, index: x }, w))
            .collect();
        for _ in 0..bits {
            let mut by_parent: HashMap<DyadicInterval, (f64, Vec<(DyadicInterval, f64)>)> =
                HashMap::new();
            for (d, w) in current.drain() {
                let e = by_parent.entry(d.parent()).or_insert((0.0, Vec::new()));
                e.0 += w;
                e.1.push((d, w));
            }
            for (parent, (group_w, members)) in by_parent {
                if group_w < threshold {
                    current.insert(parent, group_w);
                } else {
                    for (d, w) in members {
                        if w >= threshold / 2.0 {
                            materialized.push((d, w));
                        } else {
                            *current.entry(parent).or_insert(0.0) += w;
                        }
                    }
                }
            }
        }
        materialized.extend(current.into_iter().filter(|(_, w)| *w > 0.0));
        materialized
    }

    /// Number of materialized nodes.
    pub fn size_elements(&self) -> usize {
        self.nodes.len()
    }

    /// Total stored weight.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Estimated weight of keys in the interval (partially overlapped nodes
    /// contribute proportionally).
    pub fn estimate(&self, iv: Interval) -> f64 {
        if iv.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|(d, w)| {
                let node_iv = Interval::new(d.lo(), d.hi());
                let inter = iv.intersect(&node_iv);
                if inter.is_empty() {
                    0.0
                } else {
                    w * inter.len() as f64 / node_iv.len() as f64
                }
            })
            .sum()
    }

    /// Estimated rank of `x`: the weight of keys ≤ x.
    pub fn rank(&self, x: u64) -> f64 {
        self.estimate(Interval::prefix(x))
    }

    /// Approximate `q`-quantile: the smallest position whose estimated rank
    /// reaches `q · W`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
        let target = q * self.total;
        let max = if self.bits < 64 {
            (1u64 << self.bits) - 1
        } else {
            u64::MAX
        };
        let (mut lo, mut hi) = (0u64, max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rank(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: u64, bits: u32, seed: u64) -> Vec<WeightedKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 1u64 << bits;
        (0..n)
            .map(|_| WeightedKey::new(rng.gen_range(0..side), rng.gen_range(0.1..5.0)))
            .collect()
    }

    #[test]
    fn weight_conserved() {
        let data = random_data(500, 10, 1);
        let q = QDigest1D::build(&data, 10, 50);
        let stored: f64 = q.nodes.iter().map(|(_, w)| w).sum();
        let total: f64 = data.iter().map(|wk| wk.weight).sum();
        assert!((stored - total).abs() < 1e-6);
        assert!(q.size_elements() <= 50);
    }

    #[test]
    fn rank_error_bounded() {
        // Rank error ≤ ~log(u)·W/k for the classic q-digest.
        let data = random_data(2000, 12, 2);
        let k = 100;
        let q = QDigest1D::build(&data, 12, k);
        let total = q.total();
        let bound = 12.0 * total / k as f64;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let x = rng.gen_range(0..(1u64 << 12));
            let truth: f64 = data
                .iter()
                .filter(|wk| wk.key <= x)
                .map(|wk| wk.weight)
                .sum();
            let err = (q.rank(x) - truth).abs();
            assert!(err <= bound, "rank({x}): err {err} > bound {bound}");
        }
    }

    #[test]
    fn quantiles_monotone() {
        let data = random_data(1000, 10, 4);
        let q = QDigest1D::build(&data, 10, 64);
        let mut last = 0;
        for i in 1..10 {
            let v = q.quantile(i as f64 / 10.0);
            assert!(v >= last, "quantiles not monotone");
            last = v;
        }
    }

    #[test]
    fn median_near_true_median() {
        let data: Vec<WeightedKey> = (0..1024u64).map(|k| WeightedKey::new(k, 1.0)).collect();
        let q = QDigest1D::build(&data, 10, 128);
        let med = q.quantile(0.5);
        assert!(
            (med as i64 - 512).unsigned_abs() < 64,
            "median {med} far from 512"
        );
    }

    #[test]
    fn empty_digest() {
        let q = QDigest1D::build(&[], 8, 10);
        assert_eq!(q.size_elements(), 0);
        assert_eq!(q.estimate(Interval::new(0, 255)), 0.0);
    }
}
