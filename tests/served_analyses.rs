//! The paper's motivating analyses — heavy hitters, hierarchical heavy
//! hitters, order statistics over subsets, and comparisons across periods
//! (Section 1) — asked through the served path: `Summary::answer` /
//! `answer_batch` on a 1-D `StoredSample`, and `Store::estimate` over
//! minute windows. Each test pins a property those analyses rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use structure_aware_sampling::core::WeightedKey;
use structure_aware_sampling::sampling::order;
use structure_aware_sampling::store::{Store, StoreConfig};
use structure_aware_sampling::summaries::StoredSample;
use structure_aware_sampling::{Estimate, Query, Summary, SummaryKind};

/// A structure-aware (order) sample of `data` at size `s`, served as a
/// 1-D `StoredSample`.
fn served(data: &[WeightedKey], s: usize, seed: u64) -> StoredSample {
    let mut rng = StdRng::seed_from_u64(seed);
    StoredSample::one_dim(order::sample(data, s, &mut rng))
}

/// Keys `0..n` with light weights in `[0.1, 1)`, then `heavy` overrides.
fn skewed(n: u64, heavy: &[(u64, f64)], seed: u64) -> Vec<WeightedKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<WeightedKey> = (0..n)
        .map(|k| WeightedKey::new(k, rng.gen_range(0.1..1.0)))
        .collect();
    for &(k, w) in heavy {
        data[k as usize] = WeightedKey::new(k, w);
    }
    data
}

fn uniform(n: u64) -> Vec<WeightedKey> {
    (0..n).map(|k| WeightedKey::new(k, 1.0)).collect()
}

/// Exact weight of the keys in `[lo, hi]`.
fn truth(data: &[WeightedKey], lo: u64, hi: u64) -> f64 {
    data.iter()
        .filter(|wk| (lo..=hi).contains(&wk.key))
        .map(|wk| wk.weight)
        .sum()
}

fn answer(s: &dyn Summary, q: Query) -> Estimate {
    s.answer(&q, 0.95).unwrap()
}

fn point(key: u64) -> Query {
    Query::Point(vec![key])
}

fn node(level: u32, index: u64) -> Query {
    Query::HierarchyNode { level, index }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

// ---- heavy hitters ------------------------------------------------------

#[test]
fn heavy_keys_answer_exactly_from_a_one_key_box() {
    // Keys at or above τ are kept with probability 1, so a heavy-hitter
    // report read off one-key answers has no false negatives and no error.
    let data = skewed(500, &[(7, 300.0), (123, 200.0)], 1);
    for seed in 0..20 {
        let s = served(&data, 30, seed);
        assert!(
            s.tau() > 0.0 && s.tau() <= 200.0,
            "seed {seed}: τ {}",
            s.tau()
        );
        for (key, w) in [(7u64, 300.0), (123, 200.0)] {
            assert_eq!(answer(&s, point(key)), Estimate::exact(w), "seed {seed}");
            let one_key_box = Query::BoxRange(vec![(key, key)]);
            assert_eq!(answer(&s, one_key_box), Estimate::exact(w), "seed {seed}");
        }
    }
}

#[test]
fn light_key_answers_never_exceed_tau() {
    // A light key answers 0 (not sampled) or exactly τ (sampled), so no
    // light key can pass a heavy-hitter cutoff above τ.
    let data = skewed(300, &[], 2);
    let s = served(&data, 30, 3);
    let tau = s.tau();
    assert!(data.iter().all(|wk| wk.weight < tau));
    let queries: Vec<Query> = (0..300).map(point).collect();
    let answers = s.answer_batch(&queries, 0.95).unwrap();
    let mut sampled = 0;
    for (k, e) in answers.iter().enumerate() {
        assert!(e.value == 0.0 || e.value == tau, "key {k}: {e:?}");
        sampled += usize::from(e.value == tau);
    }
    assert_eq!(sampled, 30);
    assert!(tau < 0.2 * s.total_estimate());
}

#[test]
fn a_diffuse_heavy_node_clears_the_cutoff_no_key_reaches() {
    // Keys 64..=127 (dyadic node level 6, index 1) are individually light
    // but hold over half the weight: the node's interval clears a 20%
    // cutoff that no single key's answer reaches.
    let mut data = skewed(256, &[], 4);
    for k in 64..128 {
        data[k as usize] = WeightedKey::new(k, 2.0);
    }
    let total: f64 = data.iter().map(|wk| wk.weight).sum();
    let cutoff = 0.2 * total;
    for seed in 0..10 {
        let s = served(&data, 40, seed);
        assert!(s.tau() > 2.0, "group keys must be light: τ {}", s.tau());
        let group = answer(&s, node(6, 1));
        assert!(
            group.lower > cutoff && group.lower <= 128.0 && 128.0 <= group.upper,
            "seed {seed}: {group:?} vs exact 128, cutoff {cutoff}"
        );
        for k in 0..256 {
            assert!(answer(&s, point(k)).value < cutoff, "seed {seed}: key {k}");
        }
    }
}

#[test]
fn node_minus_a_descendant_equals_the_remainder_multi_range() {
    // Hierarchical heavy hitters discount a reported descendant from its
    // ancestor; the discounted answer is the multi-range over the rest.
    let data = skewed(256, &[(12, 500.0)], 6);
    let s = served(&data, 25, 7);
    for level in 2..=8u32 {
        for index in 0..(256u64 >> level) {
            let (lo, hi) = (index << level, ((index + 1) << level) - 1);
            // The second of the node's four grandchildren.
            let quarter = 1u64 << (level - 2);
            let (clo, chi) = (lo + quarter, lo + 2 * quarter - 1);
            let whole = answer(&s, node(level, index)).value;
            let part = answer(&s, node(level - 2, 4 * index + 1)).value;
            let rest = answer(
                &s,
                Query::MultiRange(vec![vec![(lo, clo - 1)], vec![(chi + 1, hi)]]),
            )
            .value;
            assert!(
                close(whole - part, rest),
                "node ({level}, {index}): {whole} − {part} vs {rest}"
            );
        }
    }
}

#[test]
fn dyadic_levels_partition_the_total() {
    // On spread-out data the root is the only node holding 90% of the
    // weight, and every level's nodes answer the total between them.
    let data = skewed(512, &[], 8);
    let s = served(&data, 64, 9);
    let total = answer(&s, Query::Total);
    assert_eq!(answer(&s, node(64, 0)), total);
    for level in 0..=9u32 {
        let queries: Vec<Query> = (0..(512u64 >> level)).map(|i| node(level, i)).collect();
        let answers = s.answer_batch(&queries, 0.95).unwrap();
        let sum: f64 = answers.iter().map(|e| e.value).sum();
        assert!(close(sum, total.value), "level {level}: {sum} vs {total:?}");
        if level < 9 {
            assert!(answers.iter().all(|e| e.value < 0.9 * total.value));
        }
    }
}

// ---- order statistics ---------------------------------------------------

#[test]
fn full_size_sample_answers_prefix_sums_exactly() {
    // s = n keeps every key (τ = 0): every prefix, hence every weighted
    // quantile read off prefixes, is exact.
    let data: Vec<WeightedKey> = (0..100u64)
        .map(|k| WeightedKey::new(k, (1 + k % 7) as f64))
        .collect();
    let s = served(&data, 100, 1);
    assert_eq!(s.tau(), 0.0);
    for r in 0..100 {
        let e = answer(&s, Query::interval(0, r));
        assert_eq!(e, Estimate::exact(truth(&data, 0, r)), "prefix [0, {r}]");
    }
}

#[test]
fn prefix_answers_are_non_decreasing_in_the_right_endpoint() {
    // Quantiles read off prefix answers are monotone in q.
    let data = uniform(500);
    let s = served(&data, 80, 5);
    let queries: Vec<Query> = (0..500).map(|r| Query::interval(0, r)).collect();
    let answers = s.answer_batch(&queries, 0.95).unwrap();
    for (r, pair) in answers.windows(2).enumerate() {
        assert!(pair[0].value <= pair[1].value, "prefix {r}: {pair:?}");
    }
    assert!(close(answers[499].value, answer(&s, Query::Total).value));
}

#[test]
fn ranges_without_data_answer_zero() {
    // An empty subset has no quantiles: its answer is 0 with no variance,
    // and the interval starts at the exact 0.
    let data: Vec<WeightedKey> = (100..200u64).map(|k| WeightedKey::new(k, 1.0)).collect();
    let s = served(&data, 20, 3);
    assert!(s.tau() > 0.0);
    for q in [
        Query::interval(0, 99),
        Query::interval(200, u64::MAX),
        node(6, 0),
        Query::MultiRange(vec![vec![(0, 99)], vec![(200, 299)]]),
    ] {
        let e = answer(&s, q.clone());
        assert!(
            e.value == 0.0 && e.variance == 0.0 && e.lower == 0.0 && e.upper >= 0.0,
            "{q:?}: {e:?}"
        );
    }
}

#[test]
fn prefix_ranks_stay_within_tau_of_the_exact_rank() {
    // The order sample's prefix discrepancy is below one, so every prefix
    // answer — a weighted rank — is within τ of the exact prefix weight.
    let data = uniform(1000);
    let s = served(&data, 100, 4);
    let tau = s.tau();
    let queries: Vec<Query> = (0..1000).map(|r| Query::interval(0, r)).collect();
    let answers = s.answer_batch(&queries, 0.95).unwrap();
    for (r, e) in answers.iter().enumerate() {
        let exact = (r + 1) as f64;
        assert!((e.value - exact).abs() < tau, "prefix [0, {r}]: {e:?}");
    }
}

#[test]
fn weighted_median_from_prefix_answers_concentrates() {
    // The median is the first key whose prefix answer reaches half the
    // total; prefix error below τ puts it within τ keys of the true one
    // (here τ = 20, a tenth of the ~200-key error an oblivious sample of
    // the same size shows).
    let data = uniform(2000);
    for seed in 0..50 {
        let s = served(&data, 100, seed);
        let half = answer(&s, Query::Total).value / 2.0;
        let (mut lo, mut hi) = (0u64, 1999u64);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if answer(&s, Query::interval(0, mid)).value >= half {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let err = (lo as f64 - 999.0).abs();
        assert!(
            err <= s.tau() + 1.0,
            "seed {seed}: median {lo}, τ {}",
            s.tau()
        );
    }
}

#[test]
fn predicate_multi_ranges_answer_subset_sums() {
    // A predicate (even keys) as a multi-range of one-key boxes: exact on
    // a full-size sample, and the sum of its keys' answers on a smaller one.
    let data: Vec<WeightedKey> = (0..100u64)
        .map(|k| WeightedKey::new(k, (1 + k % 5) as f64))
        .collect();
    let evens = Query::MultiRange((0..100).step_by(2).map(|k| vec![(k, k)]).collect());
    let exact: f64 = data
        .iter()
        .filter(|wk| wk.key % 2 == 0)
        .map(|wk| wk.weight)
        .sum();
    assert_eq!(
        answer(&served(&data, 100, 1), evens.clone()),
        Estimate::exact(exact)
    );

    let s = served(&data, 30, 2);
    let by_key: f64 = (0..100)
        .step_by(2)
        .map(|k| answer(&s, point(k)).value)
        .sum();
    assert!(close(answer(&s, evens).value, by_key));
}

// ---- comparisons across minute windows ----------------------------------

fn store_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sas-served-{}-{name}", std::process::id()))
}

/// Two consecutive minute windows (ticks 0..60 and 60..120) in a fresh
/// store, each holding one structure-aware sample of size `s`.
fn two_windows(name: &str, first: &[WeightedKey], second: &[WeightedKey], s: usize) -> Store {
    let dir = store_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    for (ts, data) in [(0u64, first), (60, second)] {
        store
            .ingest("flows", ts, Box::new(served(data, s, ts + 1)))
            .unwrap();
    }
    store
}

fn window_estimate(store: &Store, q: &Query, minute: u64) -> Estimate {
    let time = Some((minute * 60, minute * 60 + 59));
    let answer = store
        .estimate("flows", SummaryKind::Sample, q, 0.95, time)
        .unwrap();
    assert_eq!(answer.windows, 1);
    answer.estimate
}

fn drop_store(store: Store, name: &str) {
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir(name));
}

/// Keys `0..n` with weights in `[0.5, 1.5)`; the first quarter scaled by
/// `bump`.
fn period(n: u64, bump: f64, seed: u64) -> Vec<WeightedKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let w = rng.gen_range(0.5..1.5);
            WeightedKey::new(k, if k < n / 4 { w * bump } else { w })
        })
        .collect()
}

#[test]
fn a_bumped_window_separates_from_the_previous_one() {
    let (d1, d2) = (period(2000, 1.0, 1), period(2000, 3.0, 2));
    let store = two_windows("bump", &d1, &d2, 400);
    let q = Query::interval(0, 499);
    let before = window_estimate(&store, &q, 0);
    let after = window_estimate(&store, &q, 1);
    for (e, data) in [(before, &d1), (after, &d2)] {
        let exact = truth(data, 0, 499);
        assert!(e.lower <= exact && exact <= e.upper, "{e:?} misses {exact}");
    }
    assert!(after.lower > before.upper, "{before:?} vs {after:?}");
    drop_store(store, "bump");
}

#[test]
fn unchanged_windows_have_overlapping_intervals() {
    let (d1, d2) = (period(2000, 1.0, 4), period(2000, 1.0, 5));
    let store = two_windows("flat", &d1, &d2, 300);
    let q = Query::interval(0, 499);
    let (a, b) = (
        window_estimate(&store, &q, 0),
        window_estimate(&store, &q, 1),
    );
    assert!(a.lower <= b.upper && b.lower <= a.upper, "{a:?} vs {b:?}");
    drop_store(store, "flat");
}

#[test]
fn window_shares_survive_a_uniform_scaling() {
    // Doubling every weight changes each window's absolute answers but not
    // a range's share of its window's total.
    let d1 = period(1000, 1.0, 7);
    let d2: Vec<WeightedKey> = d1
        .iter()
        .map(|wk| WeightedKey::new(wk.key, 2.0 * wk.weight))
        .collect();
    let store = two_windows("share", &d1, &d2, 200);
    let q = Query::interval(0, 249);
    let share = |minute| {
        window_estimate(&store, &q, minute).value
            / window_estimate(&store, &Query::Total, minute).value
    };
    let (sb, sa) = (share(0), share(1));
    assert!((sb - sa).abs() < 0.05, "shares {sb} vs {sa}");
    drop_store(store, "share");
}

#[test]
fn full_size_windows_answer_with_zero_width() {
    let data: Vec<WeightedKey> = (0..50u64)
        .map(|k| WeightedKey::new(k, (1 + k % 3) as f64))
        .collect();
    let store = two_windows("exact", &data, &data, 50);
    let answer = store
        .estimate(
            "flows",
            SummaryKind::Sample,
            &Query::interval(0, 24),
            0.95,
            Some((0, 119)),
        )
        .unwrap();
    assert_eq!(answer.windows, 2);
    assert_eq!(answer.estimate, Estimate::exact(2.0 * truth(&data, 0, 24)));
    drop_store(store, "exact");
}
