//! Pins the exact bits of the two-pass structure-aware samples and of the
//! VarOpt reservoir. Each test folds `(key, weight.to_bits(),
//! adjusted_weight.to_bits())` of every sample entry, in order, plus
//! `tau.to_bits()`, into an FNV-1a hash and compares it with a committed
//! constant. Any change to a random draw, its order, or the order in which
//! entries are emitted fails here, so speed-ups of the build must keep
//! every sample bit-identical.
//!
//! The inputs are seeded: a reduced network data set at three sample sizes,
//! ~200 small sets with zero weights, tied weights, repeated points and
//! `s > n`, ~30 random shallow hierarchies, and the mid-stream state of
//! partly filled reservoirs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_core::estimate::Sample;
use sas_core::varopt::VarOptSampler;
use sas_core::WeightedKey;
use sas_data::network::NetworkConfig;
use sas_sampling::product::SpatialData;
use sas_sampling::two_pass;
use sas_structures::hierarchy::{Hierarchy, HierarchyBuilder};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sample(&mut self, s: &Sample) {
        self.word(s.len() as u64);
        for e in s.iter() {
            self.word(e.key);
            self.word(e.weight.to_bits());
            self.word(e.adjusted_weight.to_bits());
        }
        self.word(s.tau().to_bits());
    }

    fn check(&self, what: &str, pinned: u64) {
        assert_eq!(
            self.0, pinned,
            "{what}: hash {:#018x} differs from the pinned {pinned:#018x}",
            self.0
        );
    }
}

/// A weight drawn from a mix with zeros, ties and a heavy tail.
fn mixed_weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 | 1 => 0.0,
        2..=4 => [0.5, 1.0, 2.0][rng.gen_range(0..3usize)],
        5 => rng.gen_range(20.0..200.0),
        _ => rng.gen_range(0.01..3.0),
    }
}

#[test]
fn network_builds_are_pinned() {
    let cfg = NetworkConfig {
        flows: 20_000,
        ..NetworkConfig::default()
    };
    let data = cfg.generate(&mut StdRng::seed_from_u64(2011));
    let mut h = Fnv::new();
    h.word(data.len() as u64);
    for s in [50usize, 300, 1000] {
        let mut rng = StdRng::seed_from_u64(s as u64);
        h.sample(&two_pass::sample_product(&data, s, 5, &mut rng));
        h.sample(&VarOptSampler::sample_slice(s, &data.keys, &mut rng));
    }
    h.check("network builds", 0x7774_c745_910e_c0b5);
}

#[test]
fn small_sets_are_pinned() {
    let mut h = Fnv::new();
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5a5 ^ seed);
        let n = rng.gen_range(1..60usize);
        // A small side repeats points often.
        let side = rng.gen_range(1..12u64);
        let rows: Vec<(u64, u64, f64)> = (0..n)
            .map(|_| {
                let w = mixed_weight(&mut rng);
                (rng.gen_range(0..side), rng.gen_range(0..side), w)
            })
            .collect();
        let data = SpatialData::from_xyw(&rows);
        let s = rng.gen_range(1..n + 8);
        let guide = rng.gen_range(1..6usize);
        h.sample(&two_pass::sample_product(&data, s, guide, &mut rng));
        // Positions reverse the key order, with ties every third key.
        let span = n as u64;
        h.sample(&two_pass::sample_order(
            &data.keys,
            s,
            guide,
            |k| (span - k) / 3,
            &mut rng,
        ));
        h.sample(&VarOptSampler::sample_slice(s, &data.keys, &mut rng));
    }
    h.check("small sets", 0xb4c2_bc95_6041_ecee);
}

/// A random shallow hierarchy (root, groups, optional subgroups, leaves)
/// over keys `0..n`, and its weighted keys.
fn shallow_hierarchy(rng: &mut StdRng) -> (Hierarchy, Vec<WeightedKey>) {
    let mut b = HierarchyBuilder::new();
    let root = b.root();
    let mut key = 0u64;
    for _ in 0..rng.gen_range(1..6u32) {
        let g = b.add_internal(root);
        for _ in 0..rng.gen_range(1..5u32) {
            if rng.gen_bool(0.3) {
                let sub = b.add_internal(g);
                for _ in 0..rng.gen_range(1..6u32) {
                    b.add_leaf(sub, key);
                    key += 1;
                }
            } else {
                b.add_leaf(g, key);
                key += 1;
            }
        }
    }
    let data = (0..key)
        .map(|k| WeightedKey::new(k, mixed_weight(rng)))
        .collect();
    (b.build(), data)
}

#[test]
fn shallow_hierarchies_are_pinned() {
    let mut h = Fnv::new();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0x41e ^ seed);
        let (hier, data) = shallow_hierarchy(&mut rng);
        let s = rng.gen_range(1..data.len() + 4);
        let guide = rng.gen_range(1..6usize);
        h.sample(&two_pass::sample_hierarchy(
            &data, &hier, s, guide, &mut rng,
        ));
        h.sample(&two_pass::sample_hierarchy_ancestors(
            &data, &hier, s, guide, &mut rng,
        ));
    }
    h.check("shallow hierarchies", 0xd415_c018_fd98_5c58);
}

#[test]
fn partly_filled_reservoir_state_is_pinned() {
    let mut h = Fnv::new();
    let mut rng = StdRng::seed_from_u64(77);
    for s in [1usize, 7, 64] {
        let mut sampler = VarOptSampler::new(s);
        for i in 0..(5 * s as u64 + 40) {
            let w = mixed_weight(&mut rng);
            sampler.push(i, w, &mut rng);
            // Checkpoints before, at and past the first overflow.
            if i % 13 == 0 || i as usize + 1 == s {
                h.word(i);
                for (k, w) in sampler.large_entries() {
                    h.word(k);
                    h.word(w.to_bits());
                }
                for &k in sampler.small_keys() {
                    h.word(k);
                }
                h.word(sampler.tau().to_bits());
            }
        }
    }
    h.check("reservoir state", 0xd67a_16f3_0774_ab77);
}
