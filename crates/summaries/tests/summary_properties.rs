//! Property tests for the baseline summaries: exactness at full budget and
//! conservation laws under compression.

use proptest::prelude::*;
use sas_sampling::product::SpatialData;
use sas_structures::product::BoxRange;
use sas_summaries::exact::ExactEngine;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::Summary;

const BITS: u32 = 5; // 32x32 domain keeps exhaustive checks cheap

fn data_strategy() -> impl Strategy<Value = SpatialData> {
    prop::collection::vec((0u64..32, 0u64..32, 0.1f64..10.0), 1..80)
        .prop_map(|rows| SpatialData::from_xyw(&rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wavelet_full_budget_is_exact(data in data_strategy(), x0 in 0u64..32, y0 in 0u64..32, dx in 0u64..32, dy in 0u64..32) {
        let w = WaveletSummary::build(&data, BITS, BITS, usize::MAX);
        let exact = ExactEngine::new(&data);
        let q = BoxRange::xy(x0, (x0 + dx).min(31), y0, (y0 + dy).min(31));
        let est = w.estimate_box(&q);
        let truth = exact.box_sum(&q);
        prop_assert!((est - truth).abs() < 1e-6 * (1.0 + truth),
            "query {:?}: {} vs {}", q, est, truth);
    }

    #[test]
    fn qdigest_conserves_weight(data in data_strategy(), budget in 1usize..200) {
        let q = QDigestSummary::build(&data, BITS, budget);
        let total = data.total_weight();
        prop_assert!((q.stored_total() - total).abs() < 1e-6 * (1.0 + total));
        prop_assert!(q.item_count() <= budget);
        // Full-domain query returns the total.
        let full = BoxRange::xy(0, 31, 0, 31);
        prop_assert!((q.estimate_box(&full) - total).abs() < 1e-6 * (1.0 + total));
    }

    #[test]
    fn qdigest_estimates_within_total(data in data_strategy(), budget in 4usize..64, x0 in 0u64..32, dx in 0u64..32) {
        let q = QDigestSummary::build(&data, BITS, budget);
        let total = data.total_weight();
        let query = BoxRange::xy(x0, (x0 + dx).min(31), 0, 31);
        let est = q.estimate_box(&query);
        // Estimates are conservative: within [0, total].
        prop_assert!(est >= -1e-9 && est <= total + 1e-6);
    }

    #[test]
    fn wavelet_truncation_monotone_storage(data in data_strategy(), s in 1usize..50) {
        let full = WaveletSummary::build(&data, BITS, BITS, usize::MAX);
        let t = full.truncated(s);
        prop_assert!(t.item_count() <= s);
        prop_assert!(t.item_count() <= full.item_count());
    }
}

#[test]
fn sketch_unbiased_over_seeds() {
    // Count-sketch point estimates are unbiased over hash seeds.
    use sas_summaries::countsketch::SketchSummary;
    let data = SpatialData::from_xyw(&[(3, 4, 100.0), (10, 20, 50.0), (31, 31, 25.0)]);
    let exact = ExactEngine::new(&data);
    let q = BoxRange::xy(3, 3, 4, 4);
    let truth = exact.box_sum(&q);
    let runs = 400;
    let mut acc = 0.0;
    for seed in 0..runs {
        let sk = SketchSummary::build(&data, BITS, BITS, 800, seed);
        acc += sk.estimate_box(&q);
    }
    let mean = acc / runs as f64;
    assert!(
        (mean - truth).abs() / truth < 0.15,
        "mean {mean} vs truth {truth}"
    );
}
