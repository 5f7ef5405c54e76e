//! Property tests for the kd-hierarchy (Algorithm 2): the invariants the
//! discrepancy analysis of Appendix E relies on.

use proptest::prelude::*;
use sas_structures::kdtree::{KdHierarchy, KdItem};
use sas_structures::product::{BoxRange, Point};

fn items_strategy() -> impl Strategy<Value = Vec<KdItem>> {
    prop::collection::vec((0u64..1000, 0u64..1000, 0.01f64..1.0), 1..150).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (x, y, p))| KdItem {
                key: i as u64,
                point: Point::xy(x, y),
                prob: p,
            })
            .collect()
    })
}

/// Coordinates drawn from a few values that include the domain's edges,
/// so splits land next to 0 and `u64::MAX`.
const EDGE_COORDS: [u64; 6] = [0, 1, 2, 1 << 40, u64::MAX - 1, u64::MAX];

/// Items in 1 to 3 dimensions over `EDGE_COORDS`: co-located points, and
/// with them forced leaves holding several items, are common.
fn dim_items_strategy() -> impl Strategy<Value = (usize, Vec<KdItem>)> {
    (
        1usize..4,
        prop::collection::vec((0usize..6, 0usize..6, 0usize..6, 0.01f64..1.0), 1..60),
    )
        .prop_map(|(dim, rows)| {
            let items = rows
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, z, p))| KdItem {
                    key: i as u64,
                    point: Point::new([x, y, z][..dim].iter().map(|&c| EDGE_COORDS[c]).collect()),
                    prob: p,
                })
                .collect();
            (dim, items)
        })
}

/// Probe points, back to back: every item, and on each axis every cell
/// bound of the tree (each split, each split + 1, 0 and `u64::MAX`) with
/// the other axes taken from the items in turn.
fn probe_coords(tree: &KdHierarchy, items: &[KdItem]) -> Vec<u64> {
    let dim = tree.dim();
    let mut probes: Vec<u64> = items
        .iter()
        .flat_map(|it| it.point.coords.clone())
        .collect();
    for axis in 0..dim {
        let mut bounds: Vec<u64> = (0..tree.node_count() as u32)
            .flat_map(|n| {
                let side = tree.cell(n).sides[axis];
                [side.lo, side.hi]
            })
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        for (k, &b) in bounds.iter().enumerate() {
            let other = &items[k % items.len()].point;
            probes.extend((0..dim).map(|a| if a == axis { b } else { other.coord(a) }));
        }
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn locate_many_matches_locate_and_cells(case in dim_items_strategy()) {
        let (dim, items) = case;
        let tree = KdHierarchy::build(items.clone(), 0.0);
        let probes = probe_coords(&tree, &items);
        let leaves = tree.leaves();
        let n = probes.len() / dim;
        // Batches of 0, 1 and odd lengths, then whatever is left.
        let mut start = 0;
        for len in [0, 1, 3, 0, 7].into_iter().chain(std::iter::repeat(11)) {
            if start >= n {
                break;
            }
            let len = usize::min(len, n - start);
            let mut out = vec![u32::MAX; len];
            tree.locate_many(&probes[start * dim..(start + len) * dim], &mut out);
            for (i, &leaf) in out.iter().enumerate() {
                let p = Point::new(probes[(start + i) * dim..(start + i + 1) * dim].to_vec());
                prop_assert_eq!(leaf, tree.locate(&p), "probe {:?}", p.coords);
                prop_assert!(tree.is_leaf(leaf));
                prop_assert!(tree.depth(leaf) <= tree.height());
                let covering: Vec<u32> =
                    leaves.iter().copied().filter(|&l| tree.cell(l).contains(&p)).collect();
                prop_assert_eq!(covering, vec![leaf], "probe {:?}", p.coords);
            }
            start += len;
        }

        // A single-item tree is one leaf of height 0 that every point lands in.
        let single = KdHierarchy::build(items[..1].to_vec(), 0.0);
        prop_assert_eq!(single.height(), 0);
        let mut out = vec![u32::MAX; n];
        single.locate_many(&probes, &mut out);
        prop_assert!(out.iter().all(|&leaf| leaf == single.root()));
    }

    #[test]
    fn mass_conserved_and_children_partition(items in items_strategy()) {
        let total: f64 = items.iter().map(|i| i.prob).sum();
        let tree = KdHierarchy::build(items, 0.0);
        prop_assert!((tree.mass(tree.root()) - total).abs() < 1e-9);
        for n in 0..tree.node_count() as u32 {
            if let Some((l, r)) = tree.children(n) {
                prop_assert!((tree.mass(n) - tree.mass(l) - tree.mass(r)).abs() < 1e-9);
                // Child cells are disjoint and inside the parent cell.
                prop_assert!(!tree.cell(l).overlaps(tree.cell(r)));
                prop_assert!(tree.cell(n).covers(tree.cell(l)));
                prop_assert!(tree.cell(n).covers(tree.cell(r)));
            }
        }
    }

    #[test]
    fn locate_is_consistent_with_cells(items in items_strategy(), px in 0u64..1200, py in 0u64..1200) {
        let tree = KdHierarchy::build(items, 0.0);
        let p = Point::xy(px, py);
        let leaf = tree.locate(&p);
        prop_assert!(tree.is_leaf(leaf));
        prop_assert!(tree.cell(leaf).contains(&p));
    }

    #[test]
    fn every_item_lands_in_its_leaf(items in items_strategy()) {
        let tree = KdHierarchy::build(items.clone(), 0.0);
        for (i, it) in items.iter().enumerate() {
            let leaf = tree.locate(&it.point);
            prop_assert!(
                tree.leaf_items(leaf).contains(&(i as u32)),
                "item {} missing from located leaf", i
            );
        }
    }

    #[test]
    fn s_leaves_cover_all_mass(items in items_strategy()) {
        let total: f64 = items.iter().map(|i| i.prob).sum();
        let tree = KdHierarchy::build(items, 1.0);
        let sum: f64 = tree.s_leaves(1.0).iter().map(|&n| tree.mass(n)).sum();
        prop_assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn splits_are_balanced_within_max_item(items in items_strategy()) {
        // A weighted-median split can be off by at most the largest single
        // item probability (plus co-located groups).
        let tree = KdHierarchy::build(items.clone(), 0.0);
        if let Some((l, r)) = tree.children(tree.root()) {
            // The split groups items by their coordinate on the chosen
            // axis (round-robin, so axis 0 at the root when splittable):
            // the minimal imbalance is bounded by the largest same-
            // coordinate group mass on that axis.
            let group_max = |axis: usize| -> f64 {
                let mut by_coord: std::collections::HashMap<u64, f64> =
                    std::collections::HashMap::new();
                for it in &items {
                    *by_coord.entry(it.point.coord(axis)).or_insert(0.0) += it.prob;
                }
                by_coord.values().cloned().fold(0.0, f64::max)
            };
            let x_splittable = {
                let first = items[0].point.coord(0);
                items.iter().any(|it| it.point.coord(0) != first)
            };
            let bound = if x_splittable { group_max(0) } else { group_max(1) };
            let imbalance = (tree.mass(l) - tree.mass(r)).abs();
            prop_assert!(
                imbalance <= bound + 1e-9,
                "imbalance {} > max axis-group mass {}",
                imbalance,
                bound
            );
        }
    }
}

#[test]
fn boundary_cell_scaling_matches_lemma6() {
    // On an n×n uniform grid, a box boundary cuts O(√s) s-leaves: verify
    // the constant stays small as s grows (the Lemma 6 scaling).
    for side in [8u64, 16, 32] {
        let items: Vec<KdItem> = (0..side * side)
            .map(|i| KdItem {
                key: i,
                point: Point::xy(i % side, i / side),
                prob: 0.5,
            })
            .collect();
        let tree = KdHierarchy::build(items, 1.0);
        let s = tree.s_leaves(1.0).len() as f64;
        let q = BoxRange::xy(side / 4, 3 * side / 4, side / 4, 3 * side / 4);
        let boundary = tree.boundary_cells(&q, 1.0) as f64;
        assert!(
            boundary <= 8.0 * s.sqrt() + 4.0,
            "side {side}: boundary {boundary} vs 8·√{s}"
        );
    }
}
