//! Empirical discrepancy study: the guarantees of Sections 3–4 / Theorem 1
//! measured directly.
//!
//! * hierarchy sampler: max node discrepancy must be < 1;
//! * order sampler: max interval discrepancy must be < 2;
//! * product sampler: boundary-cell bound O(2d·s^((d−1)/d)) vs the
//!   structure-oblivious √p(R) scaling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sas_bench::*;
use sas_core::WeightedKey;
use sas_structures::hierarchy::HierarchyBuilder;
use sas_structures::order::Interval;
use sas_summaries::Summary;

fn main() {
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(1);

    // --- Hierarchy: random 3-level tree, 500 keys, s = 50 ------------------
    {
        let mut b = HierarchyBuilder::new();
        let root = b.root();
        let mut key = 0u64;
        for _ in 0..10 {
            let g = b.add_internal(root);
            for _ in 0..5 {
                let sg = b.add_internal(g);
                for _ in 0..10 {
                    b.add_leaf(sg, key);
                    key += 1;
                }
            }
        }
        let h = b.build();
        let data: Vec<WeightedKey> = (0..key)
            .map(|k| WeightedKey::new(k, rng.gen_range(0.1..20.0)))
            .collect();
        let mut worst: f64 = 0.0;
        for _ in 0..20 {
            let smp = sas_sampling::hierarchy::sample(&data, &h, 50, &mut rng);
            for d in sas_sampling::hierarchy::node_discrepancies(&smp, &data, &h, 50) {
                worst = worst.max(d);
            }
        }
        rows.push(vec![
            "hierarchy".into(),
            "node ranges".into(),
            format!("{worst:.4}"),
            "< 1".into(),
        ]);
    }

    // --- Order: 500 keys, s = 50, all intervals ----------------------------
    {
        let data: Vec<WeightedKey> = (0..500)
            .map(|k| WeightedKey::new(k, rng.gen_range(0.1..10.0)))
            .collect();
        let mut worst: f64 = 0.0;
        for _ in 0..10 {
            let smp = sas_sampling::order::sample(&data, 50, &mut rng);
            for lo in 0..500 {
                for hi in (lo..500).step_by(7) {
                    let d = sas_sampling::order::interval_discrepancy(
                        &smp,
                        &data,
                        50,
                        Interval::new(lo, hi),
                        |k| k,
                    );
                    worst = worst.max(d);
                }
            }
        }
        rows.push(vec![
            "order".into(),
            "intervals".into(),
            format!("{worst:.4}"),
            "< 2".into(),
        ]);
    }

    // --- Product: aware vs obliv box discrepancy ---------------------------
    {
        let scale = Scale::from_env();
        let w = network_workload(scale);
        let s = 1000;
        let side = 1u64 << w.bits;
        let aware = build_aware(&w.data, s, 99);
        let obliv = build_obliv(&w.data, s, 98);
        let mut qrng = StdRng::seed_from_u64(3);
        let queries = sas_data::uniform_area_queries(&mut qrng, side, side, 50, 1, 0.4);
        let score = |sm: &dyn Summary| -> f64 {
            let mut acc: f64 = 0.0;
            for (q, est) in queries.iter().zip(answer_values(sm, &queries)) {
                let err = (est - w.exact.box_sum(&q.boxes[0])).abs();
                acc = acc.max(err / w.total);
            }
            acc
        };
        rows.push(vec![
            "product(aware)".into(),
            "boxes".into(),
            format!("{:.3e}", score(&aware)),
            "≤ obliv".into(),
        ]);
        rows.push(vec![
            "product(obliv)".into(),
            "boxes".into(),
            format!("{:.3e}", score(&obliv)),
            "-".into(),
        ]);
    }

    print_table(
        "Empirical max discrepancy per structure (Sections 3-4, Theorem 1)",
        &["structure", "range family", "max observed", "guarantee"],
        &rows,
    );
}
