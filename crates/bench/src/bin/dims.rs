//! Dimension-scaling experiment (Section 4's bound): discrepancy of the
//! structure-aware product sampler vs the oblivious baseline in d = 1, 2, 3
//! dimensions.
//!
//! The theory: aware discrepancy concentrates around
//! `min{√p(R), √(2d)·s^((d−1)/(2d))}` while oblivious stays at `√p(R)`.
//! For d = 1 the aware advantage is maximal (O(1) vs √p(R)); it narrows as
//! d grows — the boundary term grows with d.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sas_bench::*;
use sas_core::varopt::VarOptSampler;
use sas_sampling::product::SpatialData;
use sas_structures::order::Interval;
use sas_structures::product::{BoxRange, Point};

fn main() {
    let n = 20_000usize;
    let side = 1u64 << 10;
    let s = 1000;
    let queries_per_dim = 40;
    let mut rows = Vec::new();

    for d in 1usize..=3 {
        let mut rng = StdRng::seed_from_u64(d as u64);
        // Uniform-ish positions, mildly varying weights.
        let keys: Vec<sas_core::WeightedKey> = (0..n as u64)
            .map(|k| sas_core::WeightedKey::new(k, rng.gen_range(0.5..2.0)))
            .collect();
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new((0..d).map(|_| rng.gen_range(0..side)).collect()))
            .collect();
        let data = SpatialData::new(keys, points);

        // Random boxes covering ~1/4 of each axis.
        let queries: Vec<BoxRange> = (0..queries_per_dim)
            .map(|_| {
                BoxRange::new(
                    (0..d)
                        .map(|_| {
                            let lo = rng.gen_range(0..side * 3 / 4);
                            Interval::new(lo, lo + side / 4)
                        })
                        .collect(),
                )
            })
            .collect();

        // `StoredSample` holds at most two axes, so the d-dimensional
        // samples answer through the product sampler's own estimator.
        let aware = sas_sampling::product::sample(&data, s, &mut rng);
        let obliv = VarOptSampler::sample_slice(s, &data.keys, &mut rng);

        let rms = |sm: &sas_core::Sample| -> f64 {
            let acc: f64 = queries
                .iter()
                .map(|q| {
                    let e = sas_sampling::product::estimate_box(sm, &data, q) - data.box_weight(q);
                    e * e
                })
                .sum();
            (acc / queries.len() as f64).sqrt()
        };
        let (ra, ro) = (rms(&aware), rms(&obliv));
        let bound = (2.0 * d as f64).sqrt() * (s as f64).powf((d as f64 - 1.0) / (2.0 * d as f64));
        rows.push(vec![
            d.to_string(),
            format!("{ra:.1}"),
            format!("{ro:.1}"),
            format!("{:.2}", ro / ra),
            format!("{bound:.1}"),
        ]);
    }
    print_table(
        "Dimension scaling: RMS box-query error, aware vs obliv (s = 1000, n = 20000)",
        &[
            "d",
            "aware_rms",
            "obliv_rms",
            "obliv/aware",
            "theory √(2d)·s^((d-1)/(2d))",
        ],
        &rows,
    );
}
