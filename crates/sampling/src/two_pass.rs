//! I/O-efficient two-pass structure-aware sampling (Section 5 of the paper,
//! with `IO-AGGREGATE` as **Algorithm 3**).
//!
//! Both passes are read-only sequential scans; memory is `O(s′)` where
//! `s′ = guide_factor · s` (the paper's experiments use a factor of 5),
//! independent of the data size:
//!
//! * **Pass 1** — compute the IPPS threshold `τ_s` with Algorithm 4
//!   ([`sas_core::ipps::StreamingThreshold`]) and a structure-oblivious
//!   VarOpt guide sample `S′` of size `s′`.
//! * **Partition** — build a partition `L` of the key domain from `S′`:
//!   kd-tree leaf cells for product structures, sorted-gap cells for orders.
//!   With `s′ = Ω(s log s)`, every cell has probability mass ≤ 1 w.h.p.
//! * **Pass 2** — `IO-AGGREGATE`: keep at most one *active* key per cell;
//!   each arriving light key is pair-aggregated with its cell's active key.
//!   Keys reaching `p = 1` enter the sample immediately.
//! * **Finish** — aggregate the ≤ |L| remaining active keys following the
//!   partition's structure (kd-hierarchy bottom-up, or left-to-right for
//!   orders).
//!
//! The resulting sample is VarOpt with range discrepancy within an additive
//! constant of the main-memory algorithms, w.h.p.
//!
//! **Active slots.** Pass 2 keeps its actives in a `Vec<Option<Active>>`
//! indexed by a dense cell id, not in a hash map:
//!
//! * product: the kd node id (`tree.node_count()` slots; the finish reuses
//!   the same vector, filling internal slots bottom-up);
//! * order: the gap index (`boundaries.len() + 1` slots);
//! * lowest selected ancestor: the hierarchy node id;
//! * no light guide key: one slot.
//!
//! Memory stays `O(s′)` for the product and order variants: a kd tree over
//! `s′` points has at most `2·s′` nodes, and `s′` boundaries leave `s′ + 1`
//! gaps. No random draw depends on the order in which slots are visited:
//! filling an empty slot draws nothing; after the kd or hierarchy sweep
//! only the root's slot can still hold an active; and order cells drain in
//! index order, which is their left-to-right order.
//!
//! **Chunked locate (product).** [`sample_product`]'s pass 2 buffers its
//! positive-weight keys `CHUNK` (64) at a time and copies their coordinates
//! into one reused flat buffer. It locates the whole chunk with
//! [`KdHierarchy::locate_many`], whose lanes descend the kd tree in
//! lock-step, and then replays the chunk through `IO-AGGREGATE` in stream
//! order. Memory grows to `O(s′ + CHUNK)`. The replay keeps every random
//! draw and every `included` push in the per-key order, so samples are
//! bit-identical: heavy keys (weight ≥ τ) are queued with the light ones
//! and reach `included` at their own stream position, not on arrival.
//! Zero-weight keys are skipped, as before; they never draw or push.

use std::collections::HashMap;

use rand::Rng;

use sas_core::aggregate::pair_aggregate;
use sas_core::estimate::{Sample, SampleEntry};
use sas_core::ipps::StreamingThreshold;
use sas_core::varopt::VarOptSampler;
use sas_core::{KeyId, WeightedKey};
use sas_structures::kdtree::{KdHierarchy, KdItem, KdNodeId};

use crate::product::SpatialData;

const ROOT_TOL: f64 = 1e-6;

/// An active (partially aggregated) key in pass 2: its identity, current
/// probability, and original weight.
#[derive(Debug, Clone, Copy)]
struct Active {
    key: KeyId,
    p: f64,
    weight: f64,
}

/// Shared pass-2 machinery (`IO-AGGREGATE`): one active slot per cell,
/// indexed by a dense cell id in `0..cells`.
#[derive(Debug)]
struct IoAggregator {
    tau: f64,
    active: Vec<Option<Active>>,
    included: Vec<(KeyId, f64)>,
}

impl IoAggregator {
    fn new(tau: f64, cells: usize) -> Self {
        Self {
            tau,
            active: vec![None; cells],
            included: Vec::new(),
        }
    }

    /// Processes one key assigned to `cell` (the paper's Algorithm 3).
    fn push<R: Rng + ?Sized>(&mut self, cell: usize, key: KeyId, weight: f64, rng: &mut R) {
        if weight <= 0.0 {
            return;
        }
        let p = if self.tau <= 0.0 {
            1.0
        } else {
            (weight / self.tau).min(1.0)
        };
        if p >= 1.0 {
            self.included.push((key, weight));
            return;
        }
        let incoming = Active { key, p, weight };
        let slot = &mut self.active[cell];
        match slot.take() {
            None => *slot = Some(incoming),
            Some(a) => *slot = aggregate_pair(a, incoming, &mut self.included, rng),
        }
    }
}

/// Pair-aggregates two actives: keys resolving to inclusion are appended to
/// `included`, and the survivor still fractional (if any) is returned.
fn aggregate_pair<R: Rng + ?Sized>(
    a: Active,
    b: Active,
    included: &mut Vec<(KeyId, f64)>,
    rng: &mut R,
) -> Option<Active> {
    let (pa, pb, _) = pair_aggregate(a.p, b.p, rng);
    let mut surv = None;
    for (cand, np) in [(a, pa), (b, pb)] {
        if np >= 1.0 - ROOT_TOL {
            included.push((cand.key, cand.weight));
        } else if np > ROOT_TOL {
            surv = Some(Active {
                key: cand.key,
                p: np,
                weight: cand.weight,
            });
        }
    }
    surv
}

/// Aggregates a list of actives in the given order (left-to-right with one
/// leftover), finalizing the last survivor. Appends included keys.
fn finish_ordered<R: Rng + ?Sized>(
    actives: impl IntoIterator<Item = Active>,
    included: &mut Vec<(KeyId, f64)>,
    rng: &mut R,
) {
    let mut leftover: Option<Active> = None;
    for a in actives {
        leftover = match leftover {
            None => Some(a),
            Some(cur) => aggregate_pair(cur, a, included, rng),
        };
    }
    if let Some(last) = leftover {
        let keep = if last.p >= 1.0 - ROOT_TOL {
            true
        } else if last.p <= ROOT_TOL {
            false
        } else {
            // Non-integral total mass: randomized rounding.
            rng.gen::<f64>() < last.p
        };
        if keep {
            included.push((last.key, last.weight));
        }
    }
}

fn build_sample(included: Vec<(KeyId, f64)>, tau: f64) -> Sample {
    let entries = included
        .into_iter()
        .map(|(key, weight)| SampleEntry {
            key,
            weight,
            adjusted_weight: if tau > 0.0 { weight.max(tau) } else { weight },
        })
        .collect();
    Sample::from_entries(entries, tau)
}

/// Two-pass structure-aware sampling for **product structures**: the
/// partition is the set of kd-tree leaf cells built over the guide sample.
///
/// `guide_factor` is `s′/s` (the paper's experiments use 5).
pub fn sample_product<R: Rng + ?Sized>(
    data: &SpatialData,
    s: usize,
    guide_factor: usize,
    rng: &mut R,
) -> Sample {
    assert!(
        s > 0 && guide_factor > 0,
        "s and guide_factor must be positive"
    );
    // ---- Pass 1: threshold + guide sample --------------------------------
    let mut st = StreamingThreshold::new(s);
    let mut guide = VarOptSampler::new(s * guide_factor);
    for (i, wk) in data.keys.iter().enumerate() {
        st.push(wk.weight);
        // Use the row index as the guide key so the location is recoverable.
        guide.push(i as u64, wk.weight, rng);
    }
    let tau = st.finish();
    let guide = guide.finish();

    if tau <= 0.0 {
        // Everything fits: include all positive-weight keys exactly.
        let included = data
            .keys
            .iter()
            .filter(|wk| wk.weight > 0.0)
            .map(|wk| (wk.key, wk.weight))
            .collect();
        return build_sample(included, 0.0);
    }

    // ---- Partition: kd-tree over light guide keys ------------------------
    let light_items: Vec<KdItem> = guide
        .iter()
        .filter(|e| e.weight < tau)
        .map(|e| KdItem {
            key: e.key,
            point: data.points[e.key as usize].clone(),
            prob: (e.weight / tau).clamp(1e-12, 1.0),
        })
        .collect();

    if light_items.is_empty() {
        // No light structure to exploit; degenerate to a single cell.
        let mut agg = IoAggregator::new(tau, 1);
        for wk in &data.keys {
            agg.push(0, wk.key, wk.weight, rng);
        }
        finish_ordered(agg.active.into_iter().flatten(), &mut agg.included, rng);
        return build_sample(agg.included, tau);
    }

    let tree = KdHierarchy::build(light_items, 0.0);

    // ---- Pass 2: IO-AGGREGATE keyed by kd leaf cell -----------------------
    let IoAggregator {
        active: mut up,
        mut included,
        ..
    } = aggregate_product(data, &tree, tau, rng);

    // ---- Finish: aggregate actives bottom-up along the kd hierarchy ------
    // Actives sit in leaf slots only. Children always have larger arena ids
    // than their parent, so a single descending-id sweep is a post-order
    // traversal, and it leaves at most the root's slot filled.
    for n in (0..tree.node_count() as KdNodeId).rev() {
        let Some((l, r)) = tree.children(n) else {
            continue;
        };
        up[n as usize] = match (up[l as usize].take(), up[r as usize].take()) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => aggregate_pair(a, b, &mut included, rng),
        };
    }
    finish_ordered(up.into_iter().flatten(), &mut included, rng);
    build_sample(included, tau)
}

/// Keys that pass 2 of [`sample_product`] locates together: enough lanes
/// to overlap their descents' loads, few enough that the chunk's buffers
/// stay in L1. Chunks of 32 to 512 locate equally fast within measurement
/// noise.
const CHUNK: usize = 64;

/// Pass 2 of [`sample_product`]: `IO-AGGREGATE` over the leaf cells of
/// `tree`. Positive-weight keys are buffered `CHUNK` at a time, their
/// coordinates copied into one flat buffer. Each chunk is located with one
/// [`KdHierarchy::locate_many`] and then replayed through
/// [`IoAggregator::push`] in stream order. Heavy keys go through the replay
/// too, so they reach `included` at their own stream position.
fn aggregate_product<R: Rng + ?Sized>(
    data: &SpatialData,
    tree: &KdHierarchy,
    tau: f64,
    rng: &mut R,
) -> IoAggregator {
    let mut agg = IoAggregator::new(tau, tree.node_count());
    let mut lanes: Vec<&WeightedKey> = Vec::with_capacity(CHUNK);
    let mut coords: Vec<u64> = Vec::with_capacity(CHUNK * tree.dim());
    let mut cells = [0; CHUNK];
    let mut keys = data.keys.iter().zip(&data.points);
    loop {
        lanes.clear();
        coords.clear();
        for (wk, point) in keys.by_ref() {
            if wk.weight <= 0.0 {
                continue;
            }
            lanes.push(wk);
            coords.extend_from_slice(&point.coords);
            if lanes.len() == CHUNK {
                break;
            }
        }
        if lanes.is_empty() {
            return agg;
        }
        let cells = &mut cells[..lanes.len()];
        tree.locate_many(&coords, cells);
        for (wk, &cell) in lanes.iter().zip(cells.iter()) {
            agg.push(cell as usize, wk.key, wk.weight, rng);
        }
    }
}

/// The per-key pass 2 that [`aggregate_product`] replaced: each key is
/// located on its own and heavy keys are included on arrival. Kept as the
/// reference the chunked pass must match bit for bit.
#[cfg(test)]
fn aggregate_product_per_key<R: Rng + ?Sized>(
    data: &SpatialData,
    tree: &KdHierarchy,
    tau: f64,
    rng: &mut R,
) -> IoAggregator {
    let mut agg = IoAggregator::new(tau, tree.node_count());
    for (wk, point) in data.keys.iter().zip(&data.points) {
        if wk.weight <= 0.0 {
            continue;
        }
        if wk.weight >= tau {
            agg.included.push((wk.key, wk.weight));
            continue;
        }
        let cell = tree.locate(point);
        agg.push(cell as usize, wk.key, wk.weight, rng);
    }
    agg
}

/// Two-pass structure-aware sampling for **order structures**: the partition
/// cells are the gaps between consecutive guide keys in sorted order.
pub fn sample_order<R: Rng + ?Sized>(
    data: &[WeightedKey],
    s: usize,
    guide_factor: usize,
    mut position: impl FnMut(KeyId) -> u64,
    rng: &mut R,
) -> Sample {
    assert!(
        s > 0 && guide_factor > 0,
        "s and guide_factor must be positive"
    );
    // ---- Pass 1 ------------------------------------------------------------
    let mut st = StreamingThreshold::new(s);
    let mut guide = VarOptSampler::new(s * guide_factor);
    for wk in data {
        st.push(wk.weight);
        guide.push(wk.key, wk.weight, rng);
    }
    let tau = st.finish();
    let guide = guide.finish();
    if tau <= 0.0 {
        let included = data
            .iter()
            .filter(|wk| wk.weight > 0.0)
            .map(|wk| (wk.key, wk.weight))
            .collect();
        return build_sample(included, 0.0);
    }

    // ---- Partition: sorted light guide positions ---------------------------
    let mut boundaries: Vec<u64> = guide
        .iter()
        .filter(|e| e.weight < tau)
        .map(|e| position(e.key))
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    // Cell of x = number of boundaries strictly below x (so each boundary
    // key starts a new cell to its right, matching the (i_j, i_{j+1}] cells).
    let cell_of = |x: u64, bs: &[u64]| -> usize { bs.partition_point(|&b| b < x) };

    // ---- Pass 2 ------------------------------------------------------------
    let mut agg = IoAggregator::new(tau, boundaries.len() + 1);
    for wk in data {
        if wk.weight <= 0.0 {
            continue;
        }
        if wk.weight >= tau {
            agg.included.push((wk.key, wk.weight));
            continue;
        }
        let cell = cell_of(position(wk.key), &boundaries);
        agg.push(cell, wk.key, wk.weight, rng);
    }

    // ---- Finish: aggregate actives left-to-right along the order ----------
    // Slots are indexed by cell, so they drain in order.
    finish_ordered(agg.active.into_iter().flatten(), &mut agg.included, rng);
    build_sample(agg.included, tau)
}

/// Two-pass structure-aware sampling for a **hierarchy**, via its
/// linearization (every hierarchy node is a contiguous interval of leaf
/// positions, so order cells respect hierarchy ranges). Achieves Δ < 2
/// w.h.p.; the paper's lowest-selected-ancestor variant can achieve Δ < 1
/// for shallow hierarchies.
pub fn sample_hierarchy<R: Rng + ?Sized>(
    data: &[WeightedKey],
    hierarchy: &sas_structures::hierarchy::Hierarchy,
    s: usize,
    guide_factor: usize,
    rng: &mut R,
) -> Sample {
    let pos: HashMap<KeyId, u64> = hierarchy.linearize().map(|(p, k)| (k, p)).collect();
    let position = |k| match pos.get(&k) {
        Some(&p) => p,
        None => panic!("key {k} not in hierarchy"),
    };
    sample_order(data, s, guide_factor, position, rng)
}

/// Two-pass hierarchy sampling with the **lowest-selected-ancestor**
/// partition (the paper's Section 5 alternative): select every ancestor of
/// every guide key; each key's cell is its lowest selected ancestor. This
/// achieves Δ < 1 w.h.p. (vs Δ < 2 for the linearization variant) at the
/// cost of memory proportional to the number of selected ancestors — best
/// for shallow hierarchies, exactly as the paper notes.
pub fn sample_hierarchy_ancestors<R: Rng + ?Sized>(
    data: &[WeightedKey],
    hierarchy: &sas_structures::hierarchy::Hierarchy,
    s: usize,
    guide_factor: usize,
    rng: &mut R,
) -> Sample {
    use sas_structures::hierarchy::NodeId;
    assert!(
        s > 0 && guide_factor > 0,
        "s and guide_factor must be positive"
    );
    // Leaf lookup by key.
    let leaf_of: HashMap<KeyId, NodeId> = (0..hierarchy.node_count() as NodeId)
        .filter_map(|n| hierarchy.key(n).map(|k| (k, n)))
        .collect();

    // ---- Pass 1 ------------------------------------------------------------
    let mut st = StreamingThreshold::new(s);
    let mut guide = VarOptSampler::new(s * guide_factor);
    for wk in data {
        st.push(wk.weight);
        guide.push(wk.key, wk.weight, rng);
    }
    let tau = st.finish();
    let guide = guide.finish();
    if tau <= 0.0 {
        let included = data
            .iter()
            .filter(|wk| wk.weight > 0.0)
            .map(|wk| (wk.key, wk.weight))
            .collect();
        return build_sample(included, 0.0);
    }

    // ---- Partition: all ancestors of light guide keys are "selected" ------
    let mut selected = vec![false; hierarchy.node_count()];
    selected[hierarchy.root() as usize] = true;
    for e in guide.iter().filter(|e| e.weight < tau) {
        if let Some(&leaf) = leaf_of.get(&e.key) {
            selected[leaf as usize] = true;
            for anc in hierarchy.ancestors(leaf) {
                selected[anc as usize] = true;
            }
        }
    }
    // Cell of a key = its lowest selected (self or proper) ancestor.
    let cell_of = |leaf: NodeId| -> NodeId {
        if selected[leaf as usize] {
            return leaf;
        }
        hierarchy
            .ancestors(leaf)
            .find(|&a| selected[a as usize])
            .unwrap_or_else(|| hierarchy.root())
    };

    // ---- Pass 2 ------------------------------------------------------------
    let mut agg = IoAggregator::new(tau, hierarchy.node_count());
    for wk in data {
        if wk.weight <= 0.0 {
            continue;
        }
        if wk.weight >= tau {
            agg.included.push((wk.key, wk.weight));
            continue;
        }
        let leaf = *leaf_of
            .get(&wk.key)
            .unwrap_or_else(|| panic!("key {} not in hierarchy", wk.key));
        agg.push(cell_of(leaf) as usize, wk.key, wk.weight, rng);
    }
    let IoAggregator {
        active: mut up,
        mut included,
        ..
    } = agg;

    // ---- Finish: merge actives up the hierarchy (deepest first) ------------
    // Nodes sorted by depth descending: children resolve before parents, so
    // the sweep leaves at most the root's slot filled.
    let mut order: Vec<NodeId> = (0..hierarchy.node_count() as NodeId).collect();
    order.sort_by_key(|&n| std::cmp::Reverse(hierarchy.depth(n)));
    for n in order {
        if n == hierarchy.root() {
            continue;
        }
        if let Some(a) = up[n as usize].take() {
            let parent = hierarchy.parent(n).expect("non-root has parent");
            let slot = &mut up[parent as usize];
            *slot = match slot.take() {
                None => Some(a),
                Some(b) => aggregate_pair(a, b, &mut included, rng),
            };
        }
    }
    finish_ordered(up.into_iter().flatten(), &mut included, rng);
    build_sample(included, tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sas_structures::product::{BoxRange, Point};

    fn random_spatial(n: usize, side: u64, seed: u64) -> SpatialData {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(u64, u64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..side),
                    rng.gen_range(0..side),
                    rng.gen_range(0.1..5.0),
                )
            })
            .collect();
        SpatialData::from_xyw(&rows)
    }

    #[test]
    fn product_two_pass_size_near_s() {
        let data = random_spatial(2000, 128, 1);
        for s in [10, 50, 200] {
            let mut rng = StdRng::seed_from_u64(s as u64);
            let smp = sample_product(&data, s, 5, &mut rng);
            // Exact τ_s makes total mass integral: size is exactly s.
            assert_eq!(smp.len(), s, "s={s}");
        }
    }

    #[test]
    fn product_two_pass_unbiased() {
        let data = random_spatial(800, 64, 2);
        let query = BoxRange::xy(10, 40, 10, 40);
        let truth = data.box_weight(&query);
        let runs = 3000;
        let mut sum = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..runs {
            let smp = sample_product(&data, 40, 5, &mut rng);
            sum += crate::product::estimate_box(&smp, &data, &query);
        }
        let mean = sum / runs as f64;
        assert!((mean - truth).abs() / truth < 0.05, "{mean} vs {truth}");
    }

    #[test]
    fn product_small_s_bigger_than_data() {
        let data = random_spatial(5, 16, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let smp = sample_product(&data, 50, 5, &mut rng);
        assert_eq!(smp.len(), 5);
        let truth = data.total_weight();
        assert!((smp.total_estimate() - truth).abs() < 1e-9);
    }

    #[test]
    fn order_two_pass_size_and_prefix_discrepancy() {
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<WeightedKey> = (0..3000)
            .map(|k| WeightedKey::new(k, rng.gen_range(0.1..3.0)))
            .collect();
        let s = 60;
        let smp = sample_order(&data, s, 5, |k| k, &mut rng);
        assert_eq!(smp.len(), s);
        // Prefix discrepancy should be small (≈ Δ < 2 w.h.p.).
        let d = crate::order::interval_discrepancy(
            &smp,
            &data,
            s,
            sas_structures::order::Interval::prefix(1500),
            |k| k,
        );
        assert!(d < 3.0, "prefix discrepancy {d}");
    }

    #[test]
    fn order_two_pass_interval_discrepancy_battery() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<WeightedKey> = (0..2000)
            .map(|k| WeightedKey::new(k, rng.gen_range(0.1..3.0)))
            .collect();
        let s = 50;
        let smp = sample_order(&data, s, 8, |k| k, &mut rng);
        let mut worst: f64 = 0.0;
        for lo in (0..2000).step_by(97) {
            for hi in ((lo + 50)..2000).step_by(131) {
                let d = crate::order::interval_discrepancy(
                    &smp,
                    &data,
                    s,
                    sas_structures::order::Interval::new(lo, hi),
                    |k| k,
                );
                worst = worst.max(d);
            }
        }
        // w.h.p. Δ < 2; allow modest slack for the probabilistic guarantee.
        assert!(worst < 4.0, "worst interval discrepancy {worst}");
    }

    #[test]
    fn hierarchy_two_pass_runs() {
        use sas_structures::hierarchy::figure1_hierarchy;
        let h = figure1_hierarchy();
        let w = [3.0, 6.0, 4.0, 7.0, 1.0, 8.0, 4.0, 2.0, 3.0, 2.0];
        let data: Vec<WeightedKey> = w
            .iter()
            .enumerate()
            .map(|(i, &wt)| WeightedKey::new(i as u64 + 1, wt))
            .collect();
        let mut rng = StdRng::seed_from_u64(8);
        let smp = sample_hierarchy(&data, &h, 4, 2, &mut rng);
        assert_eq!(smp.len(), 4);
    }

    #[test]
    fn hierarchy_ancestors_variant_size_and_discrepancy() {
        use rand::Rng as _;
        use sas_structures::hierarchy::HierarchyBuilder;
        // Shallow random hierarchy with many leaves (the regime the paper
        // recommends this variant for).
        let mut rng = StdRng::seed_from_u64(20);
        let mut b = HierarchyBuilder::new();
        let root = b.root();
        let mut key = 0u64;
        for _ in 0..12 {
            let g = b.add_internal(root);
            for _ in 0..rng.gen_range(5..30) {
                b.add_leaf(g, key);
                key += 1;
            }
        }
        let h = b.build();
        let data: Vec<WeightedKey> = (0..key)
            .map(|k| WeightedKey::new(k, rng.gen_range(0.1..5.0)))
            .collect();
        let s = 30;
        let smp = sample_hierarchy_ancestors(&data, &h, s, 5, &mut rng);
        assert_eq!(smp.len(), s);
        // Per-node discrepancy small (Δ < 1 w.h.p.; allow slack of 2).
        let in_sample: std::collections::HashSet<u64> = smp.keys().collect();
        let setup = crate::IppsSetup::compute(&data, s);
        for n in h.internal_nodes() {
            let mut expected = 0.0;
            let mut actual = 0usize;
            for k in h.keys_under(n) {
                expected += setup.probability_of(k);
                if in_sample.contains(&k) {
                    actual += 1;
                }
            }
            let d = (actual as f64 - expected).abs();
            assert!(d < 2.0, "node {n}: discrepancy {d}");
        }
    }

    #[test]
    fn hierarchy_ancestors_unbiased() {
        use sas_structures::hierarchy::figure1_hierarchy;
        let h = figure1_hierarchy();
        let w = [3.0, 6.0, 4.0, 7.0, 1.0, 8.0, 4.0, 2.0, 3.0, 2.0];
        let data: Vec<WeightedKey> = w
            .iter()
            .enumerate()
            .map(|(i, &wt)| WeightedKey::new(i as u64 + 1, wt))
            .collect();
        let truth = 20.0; // keys 1..=4
        let runs = 8000;
        let mut sum = 0.0;
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..runs {
            let smp = sample_hierarchy_ancestors(&data, &h, 4, 3, &mut rng);
            sum += smp.subset_estimate(|k| k <= 4);
        }
        let mean = sum / runs as f64;
        assert!((mean - truth).abs() / truth < 0.05, "{mean} vs {truth}");
    }

    /// Figure 1's keys plus key 99, which no hierarchy leaf carries.
    fn figure1_data_with_stray_key() -> Vec<WeightedKey> {
        let w = [3.0, 6.0, 4.0, 7.0, 1.0, 8.0, 4.0, 2.0, 3.0, 2.0];
        let mut data: Vec<WeightedKey> = w
            .iter()
            .enumerate()
            .map(|(i, &wt)| WeightedKey::new(i as u64 + 1, wt))
            .collect();
        data.push(WeightedKey::new(99, 1.0));
        data
    }

    #[test]
    #[should_panic(expected = "key 99 not in hierarchy")]
    fn hierarchy_names_a_key_outside_the_hierarchy() {
        let h = sas_structures::hierarchy::figure1_hierarchy();
        let mut rng = StdRng::seed_from_u64(30);
        sample_hierarchy(&figure1_data_with_stray_key(), &h, 4, 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "key 99 not in hierarchy")]
    fn hierarchy_ancestors_names_a_key_outside_the_hierarchy() {
        let h = sas_structures::hierarchy::figure1_hierarchy();
        let mut rng = StdRng::seed_from_u64(31);
        sample_hierarchy_ancestors(&figure1_data_with_stray_key(), &h, 4, 2, &mut rng);
    }

    fn random_point(dim: usize, rng: &mut StdRng) -> Point {
        Point::new((0..dim).map(|_| rng.gen_range(0..16)).collect())
    }

    /// An aggregator's state as bits: the included keys in order, every
    /// active slot, and the next draw of the RNG that drove it.
    type StateBits = (Vec<(KeyId, u64)>, Vec<Option<(KeyId, u64, u64)>>, u64);

    fn state_bits(agg: &IoAggregator, rng: &mut StdRng) -> StateBits {
        (
            agg.included
                .iter()
                .map(|&(k, w)| (k, w.to_bits()))
                .collect(),
            agg.active
                .iter()
                .map(|a| a.map(|a| (a.key, a.p.to_bits(), a.weight.to_bits())))
                .collect(),
            rng.gen(),
        )
    }

    #[test]
    fn chunked_pass2_matches_per_key_at_chunk_edges() {
        let tau = 4.0;
        for dim in 1..=3 {
            for positives in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
                for seed in 0..3u64 {
                    let mut rng = StdRng::seed_from_u64(1000 * seed + positives as u64);
                    // Heavy keys on the last lane of the first chunk, the
                    // first lane of the second and the last key; zero-weight
                    // keys straddle the chunk boundaries.
                    let heavy = [CHUNK - 1, CHUNK, positives - 1];
                    let zero_before = [0, CHUNK - 1, CHUNK, 2 * CHUNK];
                    let mut weights = Vec::new();
                    for j in 0..positives {
                        if zero_before.contains(&j) {
                            weights.push(0.0);
                        }
                        weights.push(match heavy.iter().position(|&h| h == j) {
                            Some(0) => tau,
                            Some(_) => 50.0,
                            None => rng.gen_range(0.1..3.9),
                        });
                    }
                    weights.push(0.0);
                    let keys: Vec<WeightedKey> = (0..)
                        .zip(&weights)
                        .map(|(k, &w)| WeightedKey::new(k, w))
                        .collect();
                    let points = weights
                        .iter()
                        .map(|_| random_point(dim, &mut rng))
                        .collect();
                    let data = SpatialData::new(keys, points);
                    // Few guide cells, so cells refill and pair aggregations
                    // include light keys in the middle of a chunk.
                    let guide: Vec<KdItem> = (0..6)
                        .map(|key| KdItem {
                            key,
                            point: random_point(dim, &mut rng),
                            prob: 0.5,
                        })
                        .collect();
                    let tree = KdHierarchy::build(guide, 0.0);

                    let mut chunked_rng = StdRng::seed_from_u64(seed);
                    let mut per_key_rng = StdRng::seed_from_u64(seed);
                    let chunked = aggregate_product(&data, &tree, tau, &mut chunked_rng);
                    let per_key = aggregate_product_per_key(&data, &tree, tau, &mut per_key_rng);
                    assert_eq!(
                        state_bits(&chunked, &mut chunked_rng),
                        state_bits(&per_key, &mut per_key_rng),
                        "dim {dim}, {positives} positive keys, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn heavy_keys_included_exactly_once() {
        let mut data = random_spatial(500, 64, 9);
        data.keys[100] = WeightedKey::new(100, 1e5);
        let mut rng = StdRng::seed_from_u64(10);
        let smp = sample_product(&data, 20, 5, &mut rng);
        let count = smp.iter().filter(|e| e.key == 100).count();
        assert_eq!(count, 1);
        let e = smp.iter().find(|e| e.key == 100).unwrap();
        assert_eq!(e.adjusted_weight, 1e5); // heavy keys estimated exactly
    }

    #[test]
    fn two_pass_matches_main_memory_accuracy_roughly() {
        // Two-pass error should be in the same ballpark as main-memory
        // structure-aware error on box queries (within 2x over a battery).
        let data = random_spatial(1500, 64, 11);
        let queries: Vec<BoxRange> = {
            let mut qrng = StdRng::seed_from_u64(12);
            (0..20)
                .map(|_| {
                    let x0 = qrng.gen_range(0..44);
                    let y0 = qrng.gen_range(0..44);
                    BoxRange::xy(x0, x0 + 19, y0, y0 + 19)
                })
                .collect()
        };
        let s = 80;
        let runs = 40;
        let mut err_two = 0.0;
        let mut err_main = 0.0;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let two = sample_product(&data, s, 5, &mut rng);
            let main = crate::product::sample(&data, s, &mut rng);
            for q in &queries {
                let truth = data.box_weight(q);
                err_two += (crate::product::estimate_box(&two, &data, q) - truth).abs();
                err_main += (crate::product::estimate_box(&main, &data, q) - truth).abs();
            }
        }
        assert!(
            err_two < 2.0 * err_main,
            "two-pass error {err_two} vs main-memory {err_main}"
        );
    }
}
