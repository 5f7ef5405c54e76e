//! Streaming VarOpt_s sampling (Cohen, Duffield, Kaplan, Lund, Thorup,
//! SODA 2009) — the structure-oblivious baseline ("obliv" in the paper's
//! experiments) and the guide sample of the two-pass algorithms.
//!
//! The sampler maintains a reservoir of exactly `s` keys (once `s` items have
//! arrived). Keys whose weight exceeds the current threshold `τ` are kept
//! with their original weight ("large"); all other kept keys share the
//! adjusted weight `τ` ("small"). When a new key arrives the threshold is
//! raised to the value at which the expected number of candidates equals `s`,
//! and exactly one candidate is dropped — each candidate `i` with probability
//! `1 − min(1, wᵢ/τ')`, which sum to exactly 1.
//!
//! The resulting distribution is VarOpt: IPPS inclusion probabilities, fixed
//! sample size, and the inclusion/exclusion product bounds (conditions
//! (i)–(iii) of Appendix A).

use rand::Rng;

use crate::aggregate::{aggregate_all, AggregationState};
use crate::estimate::{Sample, SampleEntry};
use crate::merge::Mergeable;
use crate::{ipps, KeyId, WeightedKey};

/// One key held in the VarOpt reservoir.
#[derive(Debug, Clone, Copy)]
struct Held {
    key: KeyId,
    /// Original weight.
    weight: f64,
}

/// Streaming variance-optimal sampler with fixed reservoir size `s`.
///
/// ```
/// use rand::SeedableRng;
/// use sas_core::varopt::VarOptSampler;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut sampler = VarOptSampler::new(8);
/// for i in 0..1000u64 {
///     sampler.push(i, 1.0 + (i % 7) as f64, &mut rng);
/// }
/// let sample = sampler.finish();
/// assert_eq!(sample.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct VarOptSampler {
    s: usize,
    /// Keys with weight > τ, in a min-heap ordered by weight.
    large: Vec<Held>,
    /// Keys with adjusted weight τ.
    small: Vec<KeyId>,
    /// Current threshold (adjusted weight of every small key).
    tau: f64,
    /// Count of processed items.
    count: usize,
    /// Total processed weight (for diagnostics).
    total_weight: f64,
    /// Scratch for `push`'s shrink pool, kept to reuse its allocation;
    /// empty between calls, never persisted.
    pool: Vec<Held>,
}

impl VarOptSampler {
    /// Creates a sampler with reservoir size `s`.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "sample size must be positive");
        Self {
            s,
            large: Vec::with_capacity(s + 1),
            small: Vec::new(),
            tau: 0.0,
            count: 0,
            total_weight: 0.0,
            pool: Vec::new(),
        }
    }

    /// The reservoir capacity `s`.
    pub fn capacity(&self) -> usize {
        self.s
    }

    /// Number of items processed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current threshold `τ` (0 until the reservoir overflows).
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Current number of keys held (min(count, s)).
    pub fn held(&self) -> usize {
        self.large.len() + self.small.len()
    }

    /// Processes one `(key, weight)` item.
    ///
    /// Zero-weight keys are counted but never held.
    pub fn push<R: Rng + ?Sized>(&mut self, key: KeyId, weight: f64, rng: &mut R) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid weight {weight}"
        );
        self.count += 1;
        self.total_weight += weight;
        if weight == 0.0 {
            return;
        }
        if self.held() < self.s {
            self.heap_push(Held { key, weight });
            return;
        }
        // Reservoir full: s+1 candidates — current holdings plus the new key.
        // Find τ' ≥ τ with Σ min(1, w/τ') = s over candidates, where small
        // keys have (adjusted) weight τ.
        //
        // Pool the new key (if light) and pop large keys below τ' into a
        // "shrink pool"; all pool members and all small keys end up with
        // adjusted weight τ', and exactly one candidate is dropped. The pool
        // reuses one buffer across calls and is empty between them.
        let mut pool = std::mem::take(&mut self.pool);
        let mut pool_sum = 0.0;

        if weight > self.tau {
            self.heap_push(Held { key, weight });
        } else {
            pool.push(Held { key, weight });
            pool_sum += weight;
        }

        // Iteratively raise τ'. Small keys contribute n_small·τ/τ'; pool
        // members w/τ'; remaining large keys contribute 1 each.
        let n_small = self.small.len() as f64;
        let mut tau_new;
        loop {
            let large_cnt = self.large.len() as f64;
            // Solve: large_cnt + (n_small*tau + pool_sum)/τ' = s
            let denom = self.s as f64 - large_cnt;
            tau_new = if denom <= 0.0 {
                f64::INFINITY
            } else {
                (n_small * self.tau + pool_sum) / denom
            };
            match self.heap_peek() {
                Some(min_w) if min_w <= tau_new => {
                    let h = self.heap_pop().expect("non-empty");
                    pool_sum += h.weight;
                    pool.push(h);
                }
                _ => break,
            }
        }
        debug_assert!(tau_new.is_finite(), "threshold diverged");
        debug_assert!(tau_new >= self.tau - 1e-12);

        // Drop exactly one candidate. Drop probabilities: small key (weight
        // τ): 1 − τ/τ'; pool member: 1 − w/τ'; large key: 0. They sum to 1.
        let drop_small_each = 1.0 - self.tau / tau_new;
        let total_small_drop = drop_small_each * n_small;
        let r: f64 = rng.gen::<f64>();
        if r < total_small_drop && !self.small.is_empty() {
            // Drop a uniformly random small key; all pool members become
            // small keys at the new threshold.
            let idx = (r / drop_small_each) as usize;
            let idx = idx.min(self.small.len() - 1);
            self.small.swap_remove(idx);
            self.small.extend(pool.iter().map(|h| h.key));
        } else {
            // Kept pool members become small keys, in pool order.
            let mut acc = total_small_drop;
            let mut dropped = false;
            for h in &pool {
                let dp = 1.0 - h.weight / tau_new;
                if !dropped && r < acc + dp {
                    dropped = true; // drop h
                } else {
                    self.small.push(h.key);
                }
                acc += dp;
            }
            if !dropped {
                // Numerical slack: drop the last pool member kept, or if the
                // pool is empty (can't happen when probabilities sum to 1,
                // but guard anyway), drop a random small key.
                if !pool.is_empty() {
                    self.small.pop();
                } else if !self.small.is_empty() {
                    let idx = rng.gen_range(0..self.small.len());
                    self.small.swap_remove(idx);
                }
            }
        }
        pool.clear();
        self.pool = pool;
        self.tau = tau_new;
        debug_assert_eq!(self.held(), self.s);
    }

    /// Merges `other` (a VarOpt reservoir over a disjoint key set) into this
    /// sampler, re-subsampling the union down to this sampler's budget `s` —
    /// the threshold merge that makes VarOpt a mergeable summary.
    ///
    /// Every held key enters the merge with its *effective* weight: large
    /// keys keep their original weight, small keys carry their reservoir's
    /// threshold (their HT adjusted weight). A new threshold `τ'` solving
    /// `Σ min(1, w̃ᵢ/τ') = s` over the union is computed; keys at or above
    /// `τ'` stay large, the rest are pair-aggregated down to exactly the
    /// remaining slots with inclusion probability `w̃ᵢ/τ'` each. When the
    /// union overflows the budget and both inputs are non-empty,
    /// `τ' > max(τ_a, τ_b)` — the threshold-max merge. When the union fits,
    /// everything is kept at its effective weight and `τ` restarts at 0.
    ///
    /// Because effective weights are unbiased for the true weights and the
    /// re-subsampling is HT with respect to them, the merged reservoir's
    /// estimates remain unbiased for any subset of the combined stream, and
    /// the result is a valid VarOpt state: streaming can continue on it.
    ///
    /// `other`'s capacity may differ; the merged capacity is `self`'s.
    pub fn merge<R: Rng + ?Sized>(&mut self, other: VarOptSampler, rng: &mut R) {
        self.count += other.count;
        self.total_weight += other.total_weight;
        // Trivial merges keep the existing reservoir state untouched.
        if other.held() == 0 {
            return;
        }
        if self.held() == 0 && other.held() <= self.s {
            self.large = other.large;
            self.small = other.small;
            self.tau = other.tau;
            return;
        }

        // Pool every held key with its effective (HT-adjusted) weight.
        let tau_self = self.tau;
        let mut entries: Vec<Held> = Vec::with_capacity(self.held() + other.held());
        entries.append(&mut self.large);
        entries.extend(self.small.drain(..).map(|key| Held {
            key,
            weight: tau_self,
        }));
        entries.extend(other.large);
        entries.extend(other.small.into_iter().map(|key| Held {
            key,
            weight: other.tau,
        }));

        let weights: Vec<f64> = entries.iter().map(|h| h.weight).collect();
        let tau_new = ipps::threshold_exact(&weights, self.s as f64);
        if tau_new <= 0.0 {
            // The union fits in the budget: keep every key, restarting the
            // reservoir from τ = 0 with effective weights as weights. (The
            // tower property keeps all estimates unbiased; classifying a key
            // whose effective weight is below the other input's threshold as
            // "small" would instead inflate it — a bias.) The threshold
            // re-grows as streaming continues.
            self.tau = 0.0;
            for h in entries {
                self.heap_push(h);
            }
            return;
        }
        self.tau = tau_new;

        // Subsample: certain keys (w̃ ≥ τ') stay large with exact weight;
        // the rest compete for the remaining slots with p = w̃/τ'. The
        // active mass is exactly s − #certain, so pair aggregation resolves
        // to exactly that many survivors.
        let mut active_keys: Vec<KeyId> = Vec::new();
        let mut active_probs: Vec<f64> = Vec::new();
        for h in entries {
            if h.weight >= tau_new {
                self.heap_push(h);
            } else {
                active_keys.push(h.key);
                active_probs.push(h.weight / tau_new);
            }
        }
        let mut state = AggregationState::new(active_keys, active_probs);
        aggregate_all(&mut state, rng);
        self.small.extend(state.included_keys());
        debug_assert!(
            self.held() <= self.s,
            "merge overfilled the reservoir: {} > {}",
            self.held(),
            self.s
        );
    }

    /// Finalizes the sampler into a [`Sample`] with Horvitz–Thompson
    /// adjusted weights.
    pub fn finish(self) -> Sample {
        let mut entries: Vec<SampleEntry> = Vec::with_capacity(self.held());
        for h in &self.large {
            entries.push(SampleEntry {
                key: h.key,
                weight: h.weight,
                adjusted_weight: h.weight.max(self.tau),
            });
        }
        for &k in &self.small {
            entries.push(SampleEntry {
                key: k,
                // The original weight of a small key is not retained by the
                // streaming algorithm; its HT adjusted weight is exactly τ.
                weight: self.tau,
                adjusted_weight: self.tau,
            });
        }
        Sample::from_entries(entries, self.tau)
    }

    // -- state exposure for persistence ------------------------------------
    //
    // A reservoir is durable state: `sas-summaries` serializes it so that
    // streaming can continue in another process. The large partition is
    // exposed (and restored) in its exact heap order so a decode→encode
    // round trip is byte-faithful and the restored sampler draws the same
    // random decisions as the original would.

    /// The large partition (keys with weight above τ) in internal heap
    /// order, as `(key, weight)` pairs.
    pub fn large_entries(&self) -> impl Iterator<Item = (KeyId, f64)> + '_ {
        self.large.iter().map(|h| (h.key, h.weight))
    }

    /// The small partition: keys whose adjusted weight is exactly τ.
    pub fn small_keys(&self) -> &[KeyId] {
        &self.small
    }

    /// Total weight processed so far.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Reassembles a sampler from persisted state. `large` must be given in
    /// the heap order produced by [`VarOptSampler::large_entries`].
    ///
    /// Validates every invariant a corrupted file could violate: positive
    /// capacity, finite non-negative weights and threshold, `held ≤ s`,
    /// `count ≥ held`, small keys only after the reservoir has a threshold,
    /// and the min-heap property of the large partition.
    pub fn from_parts(
        s: usize,
        large: Vec<(KeyId, f64)>,
        small: Vec<KeyId>,
        tau: f64,
        count: usize,
        total_weight: f64,
    ) -> Result<Self, String> {
        if s == 0 {
            return Err("capacity must be positive".into());
        }
        if !(tau.is_finite() && tau >= 0.0) {
            return Err(format!("invalid threshold {tau}"));
        }
        if !(total_weight.is_finite() && total_weight >= 0.0) {
            return Err(format!("invalid total weight {total_weight}"));
        }
        let held = large.len() + small.len();
        if held > s {
            return Err(format!("{held} held keys exceed capacity {s}"));
        }
        if count < held {
            return Err(format!("count {count} below {held} held keys"));
        }
        if tau == 0.0 && !small.is_empty() {
            return Err("small keys require a positive threshold".into());
        }
        for &(_, w) in &large {
            if !(w.is_finite() && w > 0.0) {
                return Err(format!("invalid large-key weight {w}"));
            }
            // The large partition holds keys at or above the threshold
            // (streaming keeps w > τ; a merge may leave w == τ', and a
            // restart sets τ = 0 under arbitrary positive weights).
            if w < tau {
                return Err(format!("large-key weight {w} below threshold {tau}"));
            }
        }
        for (i, &(_, w)) in large.iter().enumerate() {
            if i > 0 && large[(i - 1) / 2].1 > w {
                return Err("large partition is not in heap order".into());
            }
        }
        Ok(Self {
            s,
            large: large
                .into_iter()
                .map(|(key, weight)| Held { key, weight })
                .collect(),
            small,
            tau,
            count,
            total_weight,
            pool: Vec::new(),
        })
    }

    /// Convenience: sample a whole slice.
    pub fn sample_slice<R: Rng + ?Sized>(s: usize, data: &[WeightedKey], rng: &mut R) -> Sample {
        let mut sampler = Self::new(s);
        for wk in data {
            sampler.push(wk.key, wk.weight, rng);
        }
        sampler.finish()
    }

    // -- tiny inline min-heap on `large`, keyed by weight -------------------

    fn heap_push(&mut self, h: Held) {
        self.large.push(h);
        let mut i = self.large.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.large[parent].weight > self.large[i].weight {
                self.large.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_peek(&self) -> Option<f64> {
        self.large.first().map(|h| h.weight)
    }

    fn heap_pop(&mut self) -> Option<Held> {
        if self.large.is_empty() {
            return None;
        }
        let last = self.large.len() - 1;
        self.large.swap(0, last);
        let out = self.large.pop();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < self.large.len() && self.large[l].weight < self.large[m].weight {
                m = l;
            }
            if r < self.large.len() && self.large[r].weight < self.large[m].weight {
                m = r;
            }
            if m == i {
                break;
            }
            self.large.swap(i, m);
            i = m;
        }
        out
    }
}

impl Mergeable for VarOptSampler {
    fn merge_with<R: Rng + ?Sized>(&mut self, other: Self, rng: &mut R) {
        self.merge(other, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data_mixed(n: usize, seed: u64) -> Vec<WeightedKey> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|k| {
                let w = if rng.gen_bool(0.1) {
                    rng.gen_range(50.0..200.0)
                } else {
                    rng.gen_range(0.1..2.0)
                };
                WeightedKey::new(k, w)
            })
            .collect()
    }

    #[test]
    fn fixed_sample_size() {
        let mut rng = StdRng::seed_from_u64(1);
        for s in [1, 2, 5, 17, 64] {
            let data = data_mixed(500, 99);
            let sample = VarOptSampler::sample_slice(s, &data, &mut rng);
            assert_eq!(sample.len(), s, "s={s}");
        }
    }

    #[test]
    fn fewer_items_than_s_keeps_all() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = data_mixed(5, 7);
        let sample = VarOptSampler::sample_slice(10, &data, &mut rng);
        assert_eq!(sample.len(), 5);
        // With everything kept, adjusted weights equal original weights.
        let est: f64 = sample.total_estimate();
        let truth: f64 = crate::total_weight(&data);
        assert!((est - truth).abs() < 1e-9);
    }

    #[test]
    fn total_weight_estimate_unbiased() {
        // Mean of total-weight estimates over many runs ≈ true total.
        let data = data_mixed(300, 5);
        let truth = crate::total_weight(&data);
        let runs = 400;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let sample = VarOptSampler::sample_slice(30, &data, &mut rng);
            sum += sample.total_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.02,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn inclusion_probabilities_are_ipps() {
        // Empirical inclusion frequency of each key ≈ min(1, w/τ_s).
        let data: Vec<WeightedKey> = vec![
            WeightedKey::new(0, 8.0),
            WeightedKey::new(1, 4.0),
            WeightedKey::new(2, 2.0),
            WeightedKey::new(3, 1.0),
            WeightedKey::new(4, 1.0),
        ];
        let s = 3;
        let tau = crate::ipps::threshold_for_keys(&data, s as f64);
        let p: Vec<f64> = data.iter().map(|wk| (wk.weight / tau).min(1.0)).collect();
        let runs = 60_000;
        let mut hits = vec![0usize; data.len()];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..runs {
            let sample = VarOptSampler::sample_slice(s, &data, &mut rng);
            for e in sample.iter() {
                hits[e.key as usize] += 1;
            }
        }
        for i in 0..data.len() {
            let freq = hits[i] as f64 / runs as f64;
            assert!(
                (freq - p[i]).abs() < 0.015,
                "key {i}: freq {freq} vs p {}",
                p[i]
            );
        }
    }

    #[test]
    fn heavy_keys_always_kept() {
        // A key much heavier than τ_s must appear in every sample.
        let mut data = data_mixed(200, 3);
        data.push(WeightedKey::new(9999, 1e6));
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = VarOptSampler::sample_slice(10, &data, &mut rng);
            assert!(sample.iter().any(|e| e.key == 9999), "seed {seed}");
        }
    }

    #[test]
    fn zero_weight_keys_never_held() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sampler = VarOptSampler::new(4);
        for i in 0..100 {
            sampler.push(i, 0.0, &mut rng);
        }
        assert_eq!(sampler.held(), 0);
        sampler.push(100, 5.0, &mut rng);
        assert_eq!(sampler.finish().len(), 1);
    }

    #[test]
    fn uniform_weights_behave_like_reservoir() {
        // With uniform weights VarOpt degenerates to reservoir sampling:
        // every key has inclusion probability s/n.
        let n = 60;
        let s = 12;
        let data: Vec<WeightedKey> = (0..n).map(|k| WeightedKey::new(k, 1.0)).collect();
        let runs = 40_000;
        let mut hits = vec![0usize; n as usize];
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..runs {
            let sample = VarOptSampler::sample_slice(s, &data, &mut rng);
            assert_eq!(sample.len(), s);
            for e in sample.iter() {
                hits[e.key as usize] += 1;
            }
        }
        let target = s as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            let freq = h as f64 / runs as f64;
            assert!(
                (freq - target).abs() < 0.015,
                "key {i}: freq {freq} vs {target}"
            );
        }
    }

    /// Splits `data` in two, streams each half into its own sampler, merges.
    fn merged_halves(data: &[WeightedKey], s: usize, rng: &mut StdRng) -> VarOptSampler {
        let mid = data.len() / 2;
        let mut a = VarOptSampler::new(s);
        let mut b = VarOptSampler::new(s);
        for wk in &data[..mid] {
            a.push(wk.key, wk.weight, rng);
        }
        for wk in &data[mid..] {
            b.push(wk.key, wk.weight, rng);
        }
        a.merge(b, rng);
        a
    }

    #[test]
    fn merge_yields_exact_budget() {
        let data = data_mixed(600, 31);
        for s in [1, 2, 7, 25, 64] {
            let mut rng = StdRng::seed_from_u64(100 + s as u64);
            let merged = merged_halves(&data, s, &mut rng);
            assert_eq!(merged.held(), s, "s={s}");
            assert_eq!(merged.count(), 600);
            assert_eq!(merged.finish().len(), s, "s={s}");
        }
    }

    #[test]
    fn merge_threshold_dominates_inputs() {
        let data = data_mixed(500, 33);
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = VarOptSampler::new(20);
        let mut b = VarOptSampler::new(20);
        for wk in &data[..250] {
            a.push(wk.key, wk.weight, &mut rng);
        }
        for wk in &data[250..] {
            b.push(wk.key, wk.weight, &mut rng);
        }
        let (ta, tb) = (a.tau(), b.tau());
        assert!(ta > 0.0 && tb > 0.0);
        a.merge(b, &mut rng);
        assert!(a.tau() > ta.max(tb), "τ' {} vs inputs {ta}, {tb}", a.tau());
    }

    #[test]
    fn merge_unbiased_total_and_subset() {
        let data = data_mixed(400, 35);
        let truth_total = crate::total_weight(&data);
        let truth_subset: f64 = data
            .iter()
            .filter(|wk| wk.key < 150)
            .map(|wk| wk.weight)
            .sum();
        let runs = 600;
        let (mut acc_total, mut acc_subset) = (0.0, 0.0);
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(9000 + seed);
            let sample = merged_halves(&data, 40, &mut rng).finish();
            acc_total += sample.total_estimate();
            acc_subset += sample.subset_estimate(|k| k < 150);
        }
        let mean_total = acc_total / runs as f64;
        let mean_subset = acc_subset / runs as f64;
        assert!(
            (mean_total - truth_total).abs() / truth_total < 0.02,
            "total {mean_total} vs {truth_total}"
        );
        assert!(
            (mean_subset - truth_subset).abs() / truth_subset < 0.05,
            "subset {mean_subset} vs {truth_subset}"
        );
    }

    #[test]
    fn merge_underfull_keeps_everything_exactly() {
        // Neither reservoir overflows: the merge must keep all keys with
        // exact weights (zero-variance estimates).
        let mut rng = StdRng::seed_from_u64(41);
        let mut a = VarOptSampler::new(10);
        let mut b = VarOptSampler::new(10);
        for i in 0..4u64 {
            a.push(i, 1.0 + i as f64, &mut rng);
        }
        for i in 4..9u64 {
            b.push(i, 1.0 + i as f64, &mut rng);
        }
        a.merge(b, &mut rng);
        assert_eq!(a.held(), 9);
        let sample = a.finish();
        let truth: f64 = (0..9).map(|i| 1.0 + i as f64).sum();
        assert!((sample.total_estimate() - truth).abs() < 1e-9);
    }

    #[test]
    fn merge_full_into_underfull_restarts_threshold_without_bias() {
        // A full small-budget reservoir merged into an underfull larger one:
        // held keys keep their HT-adjusted weights; no inflation to the
        // larger threshold may occur.
        let data = data_mixed(300, 43);
        let truth = crate::total_weight(&data[..200]) + 3.0;
        let runs = 800;
        let mut acc = 0.0;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(17_000 + seed);
            let mut a = VarOptSampler::new(50);
            a.push(9999, 3.0, &mut rng); // underfull, τ = 0
            let mut b = VarOptSampler::new(30);
            for wk in &data[..200] {
                b.push(wk.key, wk.weight, &mut rng); // full, τ > 0
            }
            a.merge(b, &mut rng);
            assert_eq!(a.held(), 31);
            acc += a.finish().total_estimate();
        }
        let mean = acc / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.02,
            "mean {mean} vs {truth}"
        );
    }

    #[test]
    fn merge_keeps_heavy_keys() {
        let mut data = data_mixed(400, 45);
        data[37] = WeightedKey::new(37, 1e6);
        data[361] = WeightedKey::new(361, 2e6);
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = merged_halves(&data, 12, &mut rng).finish();
            assert!(sample.contains(37), "seed {seed}");
            assert!(sample.contains(361), "seed {seed}");
        }
    }

    #[test]
    fn merged_reservoir_continues_streaming() {
        // The merged state is a valid VarOpt reservoir: keep pushing.
        let data = data_mixed(900, 47);
        let mut rng = StdRng::seed_from_u64(5);
        let mut merged = merged_halves(&data[..600], 25, &mut rng);
        for wk in &data[600..] {
            merged.push(wk.key, wk.weight, &mut rng);
        }
        assert_eq!(merged.count(), 900);
        assert_eq!(merged.finish().len(), 25);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = data_mixed(200, 49);
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = VarOptSampler::new(15);
        for wk in &data {
            a.push(wk.key, wk.weight, &mut rng);
        }
        let tau_before = a.tau();
        let held_before = a.held();
        a.merge(VarOptSampler::new(15), &mut rng);
        assert_eq!(a.held(), held_before);
        assert_eq!(a.tau(), tau_before);
        let mut empty = VarOptSampler::new(15);
        let mut b = VarOptSampler::new(15);
        for wk in &data {
            b.push(wk.key, wk.weight, &mut rng);
        }
        empty.merge(b, &mut rng);
        assert_eq!(empty.held(), 15);
    }

    #[test]
    fn merge_via_mergeable_trait() {
        let data = data_mixed(100, 51);
        let mut rng = StdRng::seed_from_u64(8);
        let mut a = VarOptSampler::new(10);
        let mut b = VarOptSampler::new(10);
        for wk in &data[..50] {
            a.push(wk.key, wk.weight, &mut rng);
        }
        for wk in &data[50..] {
            b.push(wk.key, wk.weight, &mut rng);
        }
        Mergeable::merge_with(&mut a, b, &mut rng);
        assert_eq!(a.held(), 10);
    }

    #[test]
    fn state_roundtrips_through_parts() {
        let data = data_mixed(500, 61);
        let mut rng = StdRng::seed_from_u64(9);
        let mut sampler = VarOptSampler::new(20);
        for wk in &data[..400] {
            sampler.push(wk.key, wk.weight, &mut rng);
        }
        let rebuilt = VarOptSampler::from_parts(
            sampler.capacity(),
            sampler.large_entries().collect(),
            sampler.small_keys().to_vec(),
            sampler.tau(),
            sampler.count(),
            sampler.total_weight(),
        )
        .expect("valid state");
        // Identical state ⇒ identical behaviour under the same RNG stream.
        let mut r1 = StdRng::seed_from_u64(33);
        let mut r2 = StdRng::seed_from_u64(33);
        let mut original = sampler;
        let mut restored = rebuilt;
        for wk in &data[400..] {
            original.push(wk.key, wk.weight, &mut r1);
            restored.push(wk.key, wk.weight, &mut r2);
        }
        let a = original.finish();
        let b = restored.finish();
        assert_eq!(a.tau(), b.tau());
        let ka: Vec<_> = a.keys().collect();
        let kb: Vec<_> = b.keys().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn from_parts_rejects_invalid_state() {
        // Zero capacity.
        assert!(VarOptSampler::from_parts(0, vec![], vec![], 0.0, 0, 0.0).is_err());
        // Held exceeds capacity.
        assert!(
            VarOptSampler::from_parts(1, vec![(1, 2.0), (2, 3.0)], vec![], 0.0, 2, 5.0).is_err()
        );
        // Count below held.
        assert!(VarOptSampler::from_parts(4, vec![(1, 2.0)], vec![], 0.0, 0, 2.0).is_err());
        // Small keys with zero threshold.
        assert!(VarOptSampler::from_parts(4, vec![], vec![7], 0.0, 1, 1.0).is_err());
        // Non-finite threshold / weight.
        assert!(VarOptSampler::from_parts(4, vec![], vec![], f64::NAN, 0, 0.0).is_err());
        assert!(VarOptSampler::from_parts(4, vec![(1, f64::NAN)], vec![], 0.0, 1, 1.0).is_err());
        assert!(VarOptSampler::from_parts(4, vec![(1, -1.0)], vec![], 0.0, 1, 1.0).is_err());
        // Heap order violated: parent heavier than child.
        assert!(
            VarOptSampler::from_parts(4, vec![(1, 5.0), (2, 3.0)], vec![], 0.0, 2, 8.0).is_err()
        );
        // Large key below the threshold (corrupted partition).
        assert!(VarOptSampler::from_parts(4, vec![(1, 1.0)], vec![2], 5.0, 2, 6.0).is_err());
        // A valid small state is accepted.
        assert!(
            VarOptSampler::from_parts(4, vec![(1, 3.0), (2, 5.0)], vec![3], 2.0, 5, 12.0).is_ok()
        );
    }

    #[test]
    fn tau_matches_offline_threshold() {
        let data = data_mixed(400, 11);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sampler = VarOptSampler::new(25);
        for wk in &data {
            sampler.push(wk.key, wk.weight, &mut rng);
        }
        let offline = crate::ipps::threshold_for_keys(&data, 25.0);
        // The stream threshold coincides with the offline IPPS threshold
        // only in expectation/structure; it is within a constant factor and
        // never smaller than needed. Sanity-check the magnitude.
        assert!(sampler.tau() > 0.0);
        assert!(sampler.tau() < offline * 10.0 + 1.0);
    }
}
