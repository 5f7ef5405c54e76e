//! Chernoff tail bounds for Poisson and VarOpt samples (the paper's
//! Eqns. 2–4) and the Vapnik–Chervonenkis ε-approximation size bound
//! (Theorem 2).
//!
//! Because VarOpt samples satisfy the inclusion/exclusion product conditions,
//! the classic Chernoff bounds on `X_J = |S ∩ J|` apply verbatim, which is
//! what gives sample-based summaries their `O(√p(R))` expected discrepancy on
//! any single range — and, unlike deterministic summaries, an error on
//! multi-range queries that grows with the *square root* of the number of
//! ranges rather than linearly.

/// Upper tail: probability of at least `a` samples in a subset with mean
/// `mu`, for a sample of (fixed) size `s` — the paper's Eqn. (2),
/// simplified exponential form `exp(a − μ) · (μ/a)^a`.
///
/// Requires `mu <= a`. Returns 1.0 when the bound is vacuous.
pub fn chernoff_upper(mu: f64, a: f64) -> f64 {
    assert!(mu >= 0.0 && a >= 0.0);
    if a <= mu {
        return 1.0;
    }
    if mu == 0.0 {
        return 0.0;
    }
    ((a - mu) + a * (mu / a).ln()).exp().min(1.0)
}

/// Lower tail: probability of at most `a` samples in a subset with mean `mu`
/// — the paper's Eqn. (3), exponential form.
///
/// Requires `a <= mu`. Returns 1.0 when the bound is vacuous.
pub fn chernoff_lower(mu: f64, a: f64) -> f64 {
    assert!(mu >= 0.0 && a >= 0.0);
    if a >= mu {
        return 1.0;
    }
    if a == 0.0 {
        return (-mu).exp().min(1.0);
    }
    ((a - mu) + a * (mu / a).ln()).exp().min(1.0)
}

/// Weight-estimate tail (the paper's Eqn. (4)): bound on
/// `Pr[a(J) ≥ h]` (or `≤ h` on the other side) for a subset of true weight
/// `w`, threshold `tau`.
pub fn weight_tail(w: f64, h: f64, tau: f64) -> f64 {
    assert!(w >= 0.0 && h >= 0.0 && tau > 0.0);
    if h == 0.0 || w == 0.0 {
        return 1.0;
    }
    (((h - w) / tau) + (h / tau) * (w / h).ln()).exp().min(1.0)
}

/// A two-sided deviation bound: probability that `|X_J − μ| ≥ d`.
pub fn chernoff_two_sided(mu: f64, d: f64) -> f64 {
    assert!(d >= 0.0);
    let up = chernoff_upper(mu, mu + d);
    let down = if mu >= d {
        chernoff_lower(mu, mu - d)
    } else {
        0.0
    };
    (up + down).min(1.0)
}

/// The ε-approximation sample-size bound of Theorem 2 (Vapnik–Chervonenkis):
/// a random sample of size `c·ε⁻²(d·log(d/ε) + log(1/δ))` is an
/// ε-approximation with probability `1 − δ`. We use `c = 1` — constants in
/// the theorem are not tight and this is only used for sizing heuristics.
pub fn epsilon_approximation_size(vc_dim: f64, eps: f64, delta: f64) -> f64 {
    assert!(vc_dim > 0.0 && eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
    (vc_dim * (vc_dim / eps).ln() + (1.0 / delta).ln()) / (eps * eps)
}

/// A two-sided confidence interval for a subset's true weight, derived by
/// inverting the weight tail bound (Eqn. 4) at confidence `1 − delta`.
///
/// Given an HT estimate `a_j` of a light-key subset (all member weights
/// below `tau`), returns `(lo, hi)` such that the true weight lies inside
/// with probability at least `1 − delta`.
///
/// Each endpoint is a bisection of at most 100 steps on the monotone tail
/// bound, and the result is bit-identical to running all 100 of both. Three
/// things make it cheap without changing a bit:
///
/// * the upper and lower searches run interleaved in one loop, so their
///   two independent `ln`/`exp` chains overlap;
/// * a search stops at its fixed point — the first step that leaves
///   `(lo, hi)` unchanged bit for bit. A step is a pure function of
///   `(lo, hi)`, so every later step would leave them unchanged too; most
///   searches stop after 53–60 steps;
/// * a step decides `weight_tail(mid, h, τ) > δ/2` from the exponent alone
///   when it is more than `1e-9` away from `ln(δ/2)`, and calls `exp` only
///   inside that margin (see `TailTest`).
pub fn weight_confidence_interval(a_j: f64, tau: f64, delta: f64) -> (f64, f64) {
    assert!(a_j >= 0.0 && tau > 0.0 && delta > 0.0 && delta < 1.0);
    // Find the smallest w_hi with Pr[a(J) <= a_j | w = w_hi] <= delta/2 and
    // the largest w_lo with Pr[a(J) >= a_j | w = w_lo] <= delta/2, by
    // bisection on the monotone tail bound.
    let test = TailTest::new(tau, delta / 2.0);
    // Upper endpoint: raising w makes observing a_j-or-less less likely.
    let h_up = a_j.max(tau * 1e-9);
    let mut hi = (a_j + tau).max(tau) * 4.0 + 10.0 * tau;
    while test.exceeds(hi, h_up) {
        hi *= 2.0;
        if hi > 1e300 {
            break;
        }
    }
    let mut up = (a_j, hi);
    // Lower endpoint: lowering w makes observing a_j-or-more less likely.
    let mut down = (0.0, a_j);
    let (mut up_live, mut down_live) = (true, true);
    for _ in 0..100 {
        if up_live {
            let mid = 0.5 * (up.0 + up.1);
            let next = if test.exceeds(mid, h_up) {
                (mid, up.1)
            } else {
                (up.0, mid)
            };
            up_live = !same_bits(next, up);
            up = next;
        }
        if down_live {
            let mid = 0.5 * (down.0 + down.1);
            let next = if test.exceeds(mid, a_j) {
                (down.0, mid)
            } else {
                (mid, down.1)
            };
            down_live = !same_bits(next, down);
            down = next;
        }
        if !(up_live || down_live) {
            break;
        }
    }
    let lower = if a_j == 0.0 { 0.0 } else { down.0 };
    (lower, up.1)
}

fn same_bits(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
}

/// `weight_tail(w, h, tau) > target`, decided exactly but mostly without
/// `exp`.
///
/// The exponent `x` is computed with `weight_tail`'s own expression. When
/// `x > ln(target) + 1e-9` the tail is above `target`; when
/// `x < ln(target) − 1e-9` it is below; only inside that margin is `exp`
/// evaluated. This decides exactly as `weight_tail` would: libm's `exp`
/// and `ln` err by under one ulp, far below a `1e-9` relative margin, and
/// `target < 1`, so the `.min(1.0)` clamp never decides the comparison.
/// Near the subnormal range `exp` loses its relative precision, so for a
/// `target` below `1e-290` the margin is switched off and every decision
/// goes through `exp`.
struct TailTest {
    tau: f64,
    target: f64,
    /// Exponents above this are certainly above `target`.
    x_above: f64,
    /// Exponents below this are certainly below `target`.
    x_below: f64,
}

impl TailTest {
    fn new(tau: f64, target: f64) -> Self {
        let (x_above, x_below) = if target > 1e-290 {
            let ln_target = target.ln();
            (ln_target + 1e-9, ln_target - 1e-9)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        TailTest {
            tau,
            target,
            x_above,
            x_below,
        }
    }

    #[inline(always)]
    fn exceeds(&self, w: f64, h: f64) -> bool {
        if h == 0.0 || w == 0.0 {
            return 1.0 > self.target;
        }
        let tau = self.tau;
        let x = ((h - w) / tau) + (h / tau) * (w / h).ln();
        if x > self.x_above {
            true
        } else if x < self.x_below {
            false
        } else {
            x.exp().min(1.0) > self.target
        }
    }
}

/// Expected discrepancy scale `O(√p(R))` for a structure-oblivious sample on
/// a range of expected sample mass `p_r` — the quantity structure-aware
/// sampling improves to `O(1)` in one dimension.
pub fn oblivious_discrepancy_scale(p_r: f64) -> f64 {
    p_r.max(0.0).sqrt()
}

/// Product-structure discrepancy bound of Section 4:
/// `min{ 2d·s^((d−1)/d), p(R) }` is the VarOpt subset mass μ the error
/// concentrates around the square root of.
pub fn product_mu_bound(d: u32, s: f64, p_r: f64) -> f64 {
    assert!(d >= 1);
    let d_f = d as f64;
    (2.0 * d_f * s.powf((d_f - 1.0) / d_f)).min(p_r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_tail_decreases_in_a() {
        let mu = 10.0;
        let mut last = 1.0;
        for a in 11..40 {
            let b = chernoff_upper(mu, a as f64);
            assert!(b <= last + 1e-15, "a={a}: {b} > {last}");
            last = b;
        }
    }

    #[test]
    fn lower_tail_decreases_as_a_drops() {
        let mu = 10.0;
        let mut last = 1.0;
        for a in (0..10).rev() {
            let b = chernoff_lower(mu, a as f64);
            assert!(b <= last + 1e-15, "a={a}: {b} > {last}");
            last = b;
        }
    }

    #[test]
    fn vacuous_bounds_are_one() {
        assert_eq!(chernoff_upper(5.0, 5.0), 1.0);
        assert_eq!(chernoff_upper(5.0, 3.0), 1.0);
        assert_eq!(chernoff_lower(5.0, 5.0), 1.0);
        assert_eq!(chernoff_lower(5.0, 7.0), 1.0);
    }

    #[test]
    fn zero_mean_upper_tail_zero() {
        assert_eq!(chernoff_upper(0.0, 1.0), 0.0);
    }

    #[test]
    fn empirical_tail_dominated_by_bound() {
        // Poisson-binomial with p=0.5, n=20: check P[X>=a] <= bound.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 20;
        let mu = 10.0;
        let runs = 100_000;
        let mut counts = vec![0usize; n + 1];
        for _ in 0..runs {
            let x = (0..n).filter(|_| rng.gen_bool(0.5)).count();
            counts[x] += 1;
        }
        for a in 11..=n {
            let emp: f64 = counts[a..].iter().sum::<usize>() as f64 / runs as f64;
            let bound = chernoff_upper(mu, a as f64);
            assert!(
                emp <= bound + 0.01,
                "a={a}: empirical {emp} > bound {bound}"
            );
        }
    }

    #[test]
    fn weight_tail_sane() {
        // Upper deviation of 2x weight is unlikely.
        let b = weight_tail(100.0, 200.0, 5.0);
        assert!(b < 1e-3, "bound {b}");
        assert_eq!(weight_tail(0.0, 10.0, 1.0), 1.0);
    }

    #[test]
    fn two_sided_bound() {
        let b = chernoff_two_sided(25.0, 15.0);
        assert!(b < 0.05, "bound {b}");
        assert_eq!(chernoff_two_sided(25.0, 0.0), 1.0);
    }

    #[test]
    fn confidence_interval_contains_truth() {
        // Empirical coverage: CI from repeated VarOpt-like estimates covers
        // the truth at least 1-delta of the time. Simulate estimates as
        // tau * Binomial(n, w/(n*tau)) for a light subset.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tau = 5.0;
        let w = 100.0; // true subset weight; mu = 20 samples expected
        let n = 200; // subset size, each key weight 0.5 => p = 0.1
        let p = (w / n as f64) / tau;
        let delta = 0.1;
        let trials = 2000;
        let mut covered = 0;
        for _ in 0..trials {
            let hits = (0..n).filter(|_| rng.gen_bool(p)).count();
            let est = tau * hits as f64;
            let (lo, hi) = weight_confidence_interval(est, tau, delta);
            if lo <= w && w <= hi {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            coverage >= 1.0 - delta - 0.02,
            "coverage {coverage} below {}",
            1.0 - delta
        );
    }

    #[test]
    fn confidence_interval_monotone_in_delta() {
        let (lo1, hi1) = weight_confidence_interval(50.0, 5.0, 0.01);
        let (lo9, hi9) = weight_confidence_interval(50.0, 5.0, 0.2);
        assert!(
            lo1 <= lo9 + 1e-9 && hi9 <= hi1 + 1e-9,
            "stricter delta must widen"
        );
        assert!(lo1 < 50.0 && hi1 > 50.0);
    }

    #[test]
    fn confidence_interval_zero_estimate() {
        let (lo, hi) = weight_confidence_interval(0.0, 2.0, 0.05);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 100.0, "hi = {hi}");
    }

    /// The 100 + 100-step bisection `weight_confidence_interval` shipped
    /// with before its fixed-point stop — the bit-level reference.
    fn reference_interval(a_j: f64, tau: f64, delta: f64) -> (f64, f64) {
        assert!(a_j >= 0.0 && tau > 0.0 && delta > 0.0 && delta < 1.0);
        let target = delta / 2.0;
        let mut lo = a_j;
        let mut hi = (a_j + tau).max(tau) * 4.0 + 10.0 * tau;
        while weight_tail(hi, a_j.max(tau * 1e-9), tau) > target {
            hi *= 2.0;
            if hi > 1e300 {
                break;
            }
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if weight_tail(mid, a_j.max(tau * 1e-9), tau) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let upper = hi;
        let (mut lo2, mut hi2) = (0.0, a_j);
        for _ in 0..100 {
            let mid = 0.5 * (lo2 + hi2);
            if weight_tail(mid, a_j, tau) > target {
                hi2 = mid;
            } else {
                lo2 = mid;
            }
        }
        let lower = if a_j == 0.0 { 0.0 } else { lo2 };
        (lower, upper)
    }

    #[test]
    fn confidence_interval_matches_reference_bits() {
        // a_j = k·τ by repeated addition, as the sample accumulator builds
        // it, over thresholds and failure probabilities from tiny to huge.
        let taus = [1e-6, 0.37, 1.0, 3.3, 17.0, 1234.5, 9.9e7];
        let deltas = [0.05, 0.01, 0.05 / 36.0, 1e-6, 0.5, 0.999];
        for tau in taus {
            for delta in deltas {
                let mut a_j = 0.0;
                for k in 0..600 {
                    let (lo, hi) = weight_confidence_interval(a_j, tau, delta);
                    let (rlo, rhi) = reference_interval(a_j, tau, delta);
                    assert_eq!(
                        (lo.to_bits(), hi.to_bits()),
                        (rlo.to_bits(), rhi.to_bits()),
                        "tau={tau} delta={delta} k={k} a_j={a_j}: ({lo}, {hi}) vs ({rlo}, {rhi})"
                    );
                    a_j += tau;
                }
            }
        }
    }

    #[test]
    fn eps_approx_size_grows_with_precision() {
        let a = epsilon_approximation_size(2.0, 0.1, 0.05);
        let b = epsilon_approximation_size(2.0, 0.01, 0.05);
        assert!(b > a * 50.0);
    }

    #[test]
    fn product_mu_bound_caps_at_mass() {
        // Small range: dominated by p(R).
        assert_eq!(product_mu_bound(2, 10_000.0, 3.0), 3.0);
        // Large range: dominated by the boundary term 2d·s^((d−1)/d).
        let big = product_mu_bound(2, 10_000.0, 1e9);
        assert!((big - 4.0 * 100.0).abs() < 1e-9);
    }
}
