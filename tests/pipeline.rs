//! End-to-end integration tests: generate → summarize → query → compare,
//! across every crate through the facade.

use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::HashMap;

use structure_aware_sampling::core::varopt::VarOptSampler;
use structure_aware_sampling::core::{KeyId, Sample};
use structure_aware_sampling::data::{
    uniform_area_queries, uniform_weight_queries, NetworkConfig, TicketConfig,
};
use structure_aware_sampling::sampling::product::SpatialData;
use structure_aware_sampling::sampling::two_pass;
use structure_aware_sampling::structures::product::{MultiRangeQuery, Point};
use structure_aware_sampling::summaries::exact::ExactEngine;
use structure_aware_sampling::summaries::qdigest::QDigestSummary;
use structure_aware_sampling::summaries::wavelet::WaveletSummary;
use structure_aware_sampling::summaries::{Query, StoredSample, Summary};

fn network() -> SpatialData {
    let cfg = NetworkConfig {
        bits: 10,
        flows: 15_000,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    cfg.generate(&mut rng)
}

fn point_map(data: &SpatialData) -> HashMap<KeyId, Point> {
    data.keys
        .iter()
        .zip(&data.points)
        .map(|(wk, p)| (wk.key, p.clone()))
        .collect()
}

/// Wraps a sample as the 2-D summary the store serves.
fn stored(sample: Sample, data: &SpatialData) -> StoredSample {
    let point = point_map(data);
    let points = sample
        .iter()
        .map(|e| (e.key, point[&e.key].clone()))
        .collect();
    StoredSample::two_dim(sample, points).unwrap()
}

/// A battery's values through one `answer_batch` call.
fn answers(summary: &dyn Summary, battery: &[MultiRangeQuery]) -> Vec<f64> {
    let qs: Vec<Query> = battery.iter().map(Query::from).collect();
    let estimates = summary.answer_batch(&qs, 0.95).unwrap();
    estimates.into_iter().map(|e| e.value).collect()
}

#[test]
fn full_pipeline_network_accuracy_ordering() {
    let data = network();
    let exact = ExactEngine::new(&data);
    let total = exact.total();
    let s = 800;

    let mut rng = StdRng::seed_from_u64(2);
    let aware = stored(two_pass::sample_product(&data, s, 5, &mut rng), &data);
    let obliv = stored(VarOptSampler::sample_slice(s, &data.keys, &mut rng), &data);

    let mut qrng = StdRng::seed_from_u64(3);
    let queries = uniform_area_queries(&mut qrng, 1 << 10, 1 << 10, 40, 10, 0.3);

    let err = |sm: &dyn Summary| -> f64 {
        queries
            .iter()
            .zip(answers(sm, &queries))
            .map(|(q, est)| (est - exact.multi_sum(q)).abs())
            .sum::<f64>()
            / (queries.len() as f64 * total)
    };
    let (ea, eo) = (err(&aware), err(&obliv));
    // The headline: structure-aware no worse than oblivious on range
    // batteries (usually 2x better; allow slack for one seed).
    assert!(
        ea < 1.2 * eo,
        "aware error {ea} not competitive with oblivious {eo}"
    );
    // And both are far better than nothing (error below 5% of total).
    assert!(ea < 0.05 && eo < 0.10, "errors too large: {ea}, {eo}");
}

#[test]
fn all_summaries_answer_the_same_queries() {
    let data = network();
    let exact = ExactEngine::new(&data);
    let s = 500;
    let mut rng = StdRng::seed_from_u64(4);

    let summaries: Vec<Box<dyn Summary>> = vec![
        Box::new(stored(
            two_pass::sample_product(&data, s, 5, &mut rng),
            &data,
        )),
        Box::new(stored(
            VarOptSampler::sample_slice(s, &data.keys, &mut rng),
            &data,
        )),
        Box::new(WaveletSummary::build(&data, 10, 10, s)),
        Box::new(QDigestSummary::build(&data, 10, s)),
    ];

    let mut qrng = StdRng::seed_from_u64(5);
    let queries = uniform_weight_queries(&mut qrng, &data, 10, 5, 0.1);
    for sm in &summaries {
        assert!(sm.item_count() <= s + 1, "{} too large", sm.kind());
        for (q, est) in queries.iter().zip(answers(sm.as_ref(), &queries)) {
            let truth = exact.multi_sum(q);
            // Sanity window: no summary may be wildly out (10x total).
            assert!(
                (est - truth).abs() < 0.5 * exact.total(),
                "{}: {est} vs {truth}",
                sm.kind()
            );
        }
    }
}

#[test]
fn ticket_pipeline_runs_end_to_end() {
    let cfg = TicketConfig {
        tickets: 20_000,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(6);
    let data = cfg.generate(&mut rng);
    let exact = ExactEngine::new(&data);
    let s = 600;
    let aware = stored(two_pass::sample_product(&data, s, 5, &mut rng), &data);
    assert_eq!(aware.item_count(), s);

    // Hierarchy-aligned box: first-level trouble subtree × whole location
    // domain. Mixed-radix layout makes this a coordinate interval.
    let (td, ld) = cfg.domains();
    let sub = td / 16;
    let q = structure_aware_sampling::structures::product::BoxRange::xy(0, sub - 1, 0, ld - 1);
    let truth = exact.box_sum(&q);
    let est = aware
        .answer(&Query::BoxRange(vec![(0, sub - 1), (0, ld - 1)]), 0.95)
        .unwrap()
        .value;
    assert!(
        (est - truth).abs() < 0.1 * exact.total(),
        "subtree estimate {est} vs {truth}"
    );
}

#[test]
fn sample_supports_arbitrary_subset_queries() {
    // What dedicated summaries cannot do: estimate an arbitrary predicate
    // (not a range) from the same summary, unbiasedly.
    let data = network();
    let truth: f64 = data
        .keys
        .iter()
        .zip(&data.points)
        .filter(|(_, p)| (p.coord(0) ^ p.coord(1)) % 3 == 0)
        .map(|(wk, _)| wk.weight)
        .sum();
    let runs = 300;
    let mut acc = 0.0;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let sample = two_pass::sample_product(&data, 400, 5, &mut rng);
        let point_of: std::collections::HashMap<u64, _> = data
            .keys
            .iter()
            .zip(&data.points)
            .map(|(wk, p)| (wk.key, p))
            .collect();
        acc += sample.subset_estimate(|k| {
            point_of
                .get(&k)
                .is_some_and(|p| (p.coord(0) ^ p.coord(1)) % 3 == 0)
        });
    }
    let mean = acc / runs as f64;
    assert!(
        (mean - truth).abs() / truth < 0.05,
        "mean estimate {mean} vs truth {truth}"
    );
}

#[test]
fn two_pass_memory_is_bounded_by_guide_size() {
    // Structural test: the partition derived from the guide sample has at
    // most s' cells, so pass-2 state is O(s'). We check the observable
    // consequence: the sample is exact-size and correct even when the data
    // is 100x larger than the summary.
    let data = network();
    let s = 150;
    let mut rng = StdRng::seed_from_u64(7);
    let sample = two_pass::sample_product(&data, s, 5, &mut rng);
    assert_eq!(sample.len(), s);
    let est = sample.total_estimate();
    let truth: f64 = data.total_weight();
    assert!(
        (est - truth).abs() / truth < 0.2,
        "total estimate {est} vs {truth}"
    );
}

/// The harness's sample answers, pinned to the sample itself: for aware
/// and oblivious samples on network and ticket data, under uniform-area
/// and uniform-weight batteries, the served `StoredSample` answers every
/// multi-range query through `answer_batch` with exactly the bits of the
/// sample's own subset estimate in entry order (`0.0 +` folds the empty
/// sum's -0.0 onto the accumulator's +0.0).
#[test]
fn stored_sample_batch_values_match_subset_estimates_bitwise() {
    let tickets_cfg = TicketConfig {
        tickets: 20_000,
        ..Default::default()
    };
    let tickets = tickets_cfg.generate(&mut StdRng::seed_from_u64(6));
    let (td, ld) = tickets_cfg.domains();
    for (name, data, (side_x, side_y)) in [
        ("network", network(), (1u64 << 10, 1u64 << 10)),
        ("tickets", tickets, (td, ld)),
    ] {
        let point = point_map(&data);
        let mut qrng = StdRng::seed_from_u64(8);
        let batteries = [
            uniform_area_queries(&mut qrng, side_x, side_y, 30, 10, 0.3),
            uniform_weight_queries(&mut qrng, &data, 30, 10, 0.1),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        let samples = [
            ("aware", two_pass::sample_product(&data, 600, 5, &mut rng)),
            (
                "obliv",
                VarOptSampler::sample_slice(600, &data.keys, &mut rng),
            ),
        ];
        for (kind, sample) in &samples {
            let served = stored(sample.clone(), &data);
            for battery in &batteries {
                let got = answers(&served, battery);
                for (i, q) in battery.iter().enumerate() {
                    let want = 0.0 + sample.subset_estimate(|k| q.contains(&point[&k]));
                    assert_eq!(
                        got[i].to_bits(),
                        want.to_bits(),
                        "{name}/{kind} query {i}: {} vs {want}",
                        got[i]
                    );
                }
            }
        }
    }
}
