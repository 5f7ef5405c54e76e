//! `KD-HIERARCHY` — the paper's **Algorithm 2**.
//!
//! Builds a kd-tree over weighted d-dimensional keys, splitting on each axis
//! in round-robin order at the *probability-weighted median*: the hyperplane
//! that divides the probability mass as equally as possible. Leaves then
//! hold approximately equal mass, which is what bounds the number of cells
//! any axis-parallel hyperplane can cut to `O(s^((d−1)/d))` (Lemma 6) and in
//! turn bounds box-query discrepancy.
//!
//! Hierarchy axes are handled through their linearization (children visited
//! in decreasing-mass order when linearizing, see `sas-structures::hierarchy`),
//! so a single weighted-median split rule covers both axis kinds; this
//! substitution is documented in `DESIGN.md`.
//!
//! Two stopping rules are supported:
//! * `max_leaf_mass = 0.0` — split all the way down to single keys. The
//!   main-memory algorithm of Section 4 builds this way, and so does the
//!   two-pass algorithm of Section 5 (`sas_sampling::two_pass`), over its
//!   light guide keys: one guide key per leaf cell.
//! * `max_leaf_mass = 1.0` — stop at "s-leaves" of mass ≤ 1. Only the
//!   analysis of Appendix E ([`KdHierarchy::s_leaves`],
//!   [`KdHierarchy::boundary_cells`]) and its tests use this rule.
//!
//! **Descent table.** `build` ends by flattening the tree into one 24-byte
//! step per node (`split`, the two next node ids, `axis`) and recording the
//! tree's height. A point at node `n` moves to `next[coord(axis) > split]`.
//! In a leaf, `split = u64::MAX` and both next ids are the leaf itself, so
//! a point that has reached its leaf stays there. After `height` steps
//! every point is therefore in its leaf, whatever the leaf's depth.
//! [`KdHierarchy::locate_many`] uses this to move a batch of points one
//! step at a time in lock-step: no step depends on a branch, and the
//! batch's loads overlap instead of each waiting on the one before it.
//! [`KdHierarchy::locate`] is the one-point batch.

use crate::order::Interval;
use crate::product::{BoxRange, Point};
use sas_core::KeyId;

/// Index of a node in a [`KdHierarchy`] arena.
pub type KdNodeId = u32;

/// One item stored in the tree: a key, its location, and its IPPS
/// probability.
#[derive(Debug, Clone)]
pub struct KdItem {
    /// The key.
    pub key: KeyId,
    /// The key's location in the product domain.
    pub point: Point,
    /// The key's inclusion probability (must be in `(0, 1]`).
    pub prob: f64,
}

#[derive(Debug, Clone)]
enum KdNodeKind {
    Internal {
        axis: usize,
        /// Items with `coord(axis) <= split` go left.
        split: u64,
        left: KdNodeId,
        right: KdNodeId,
    },
    Leaf {
        /// Indices into the item array.
        items: Vec<u32>,
    },
}

/// One node's entry in the descent table (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Points with `coord(axis) <= split` go to `next[0]`; `u64::MAX` in
    /// leaves.
    split: u64,
    /// Left and right child; in leaves, the leaf itself twice.
    next: [KdNodeId; 2],
    axis: u32,
}

#[derive(Debug, Clone)]
struct KdNode {
    kind: KdNodeKind,
    /// Total probability mass under this node.
    mass: f64,
    /// The cell (region of the domain) this node owns.
    cell: BoxRange,
    depth: u32,
}

/// A kd-tree over weighted keys with (approximately) mass-balanced splits.
#[derive(Debug, Clone)]
pub struct KdHierarchy {
    nodes: Vec<KdNode>,
    items: Vec<KdItem>,
    dim: usize,
    /// The descent table, one step per node.
    steps: Vec<Step>,
    /// Depth of the deepest leaf.
    height: u32,
}

impl KdHierarchy {
    /// Builds a kd-hierarchy over `items` (Algorithm 2).
    ///
    /// `max_leaf_mass` controls the stopping rule (see module docs). Items
    /// at identical points that cannot be separated are kept in one leaf
    /// regardless of mass.
    ///
    /// # Panics
    /// Panics if `items` is empty, dimensions are inconsistent, or any
    /// probability is outside `(0, 1]`.
    pub fn build(items: Vec<KdItem>, max_leaf_mass: f64) -> Self {
        assert!(!items.is_empty(), "kd-hierarchy needs at least one item");
        let dim = items[0].point.dim();
        assert!(dim >= 1, "dimension must be at least 1");
        for it in &items {
            assert_eq!(it.point.dim(), dim, "inconsistent dimensions");
            assert!(
                it.prob > 0.0 && it.prob <= 1.0,
                "probability {} out of (0,1]",
                it.prob
            );
        }
        let full_cell = BoxRange::new(vec![Interval::new(0, u64::MAX); dim]);
        let mut tree = Self {
            nodes: Vec::new(),
            items,
            dim,
            steps: Vec::new(),
            height: 0,
        };
        let all: Vec<u32> = (0..tree.items.len() as u32).collect();
        tree.build_rec(all, 0, full_cell, max_leaf_mass);
        tree.steps = (0..tree.nodes.len() as KdNodeId)
            .map(|n| match tree.nodes[n as usize].kind {
                KdNodeKind::Internal {
                    axis,
                    split,
                    left,
                    right,
                } => Step {
                    split,
                    next: [left, right],
                    axis: axis as u32,
                },
                KdNodeKind::Leaf { .. } => Step {
                    split: u64::MAX,
                    next: [n, n],
                    axis: 0,
                },
            })
            .collect();
        tree.height = tree.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        tree
    }

    /// Recursively builds the subtree for `idxs`, returning its node id.
    fn build_rec(
        &mut self,
        idxs: Vec<u32>,
        depth: u32,
        cell: BoxRange,
        max_leaf_mass: f64,
    ) -> KdNodeId {
        let mass: f64 = idxs.iter().map(|&i| self.items[i as usize].prob).sum();
        let make_leaf = idxs.len() == 1 || mass <= max_leaf_mass;
        if make_leaf {
            return self.push_node(KdNode {
                kind: KdNodeKind::Leaf { items: idxs },
                mass,
                cell,
                depth,
            });
        }
        // Try axes starting from depth % dim until one admits a split
        // (distinct coordinate values exist).
        for probe in 0..self.dim {
            let axis = (depth as usize + probe) % self.dim;
            if let Some((split, left_idx, right_idx)) = self.weighted_median_split(&idxs, axis) {
                let mut left_cell = cell.clone();
                left_cell.sides[axis] = Interval::new(cell.sides[axis].lo, split);
                let mut right_cell = cell.clone();
                right_cell.sides[axis] = Interval::new(split + 1, cell.sides[axis].hi);

                // Reserve this node's slot before recursing.
                let id = self.push_node(KdNode {
                    kind: KdNodeKind::Leaf { items: Vec::new() }, // placeholder
                    mass,
                    cell,
                    depth,
                });
                let left = self.build_rec(left_idx, depth + 1, left_cell, max_leaf_mass);
                let right = self.build_rec(right_idx, depth + 1, right_cell, max_leaf_mass);
                self.nodes[id as usize].kind = KdNodeKind::Internal {
                    axis,
                    split,
                    left,
                    right,
                };
                return id;
            }
        }
        // All points identical on every axis: forced leaf.
        self.push_node(KdNode {
            kind: KdNodeKind::Leaf { items: idxs },
            mass,
            cell,
            depth,
        })
    }

    /// Finds the probability-weighted median split of `idxs` on `axis`:
    /// the coordinate `m` minimizing `|mass(coord ≤ m) − mass(coord > m)|`
    /// over all splits that leave both sides non-empty.
    ///
    /// Returns `None` if all items share one coordinate value on this axis.
    fn weighted_median_split(
        &self,
        idxs: &[u32],
        axis: usize,
    ) -> Option<(u64, Vec<u32>, Vec<u32>)> {
        let mut sorted: Vec<u32> = idxs.to_vec();
        sorted.sort_unstable_by_key(|&i| self.items[i as usize].point.coord(axis));
        let first = self.items[sorted[0] as usize].point.coord(axis);
        let last = self.items[*sorted.last().unwrap() as usize]
            .point
            .coord(axis);
        if first == last {
            return None;
        }
        let total: f64 = sorted.iter().map(|&i| self.items[i as usize].prob).sum();
        // Walk distinct coordinate groups accumulating mass; choose the
        // boundary minimizing imbalance.
        let mut best: Option<(f64, u64, usize)> = None; // (imbalance, split coord, count_left)
        let mut acc = 0.0;
        let mut i = 0;
        while i < sorted.len() {
            let c = self.items[sorted[i] as usize].point.coord(axis);
            let mut j = i;
            while j < sorted.len() && self.items[sorted[j] as usize].point.coord(axis) == c {
                acc += self.items[sorted[j] as usize].prob;
                j += 1;
            }
            if j < sorted.len() {
                // split after this group: left mass = acc
                let imbalance = (total - 2.0 * acc).abs();
                if best.is_none_or(|(b, _, _)| imbalance < b) {
                    best = Some((imbalance, c, j));
                }
            }
            i = j;
        }
        let (_, split, count_left) = best?;
        let (l, r) = sorted.split_at(count_left);
        Some((split, l.to_vec(), r.to_vec()))
    }

    fn push_node(&mut self, node: KdNode) -> KdNodeId {
        let id = self.nodes.len() as KdNodeId;
        self.nodes.push(node);
        id
    }

    /// The root node id (always 0).
    pub fn root(&self) -> KdNodeId {
        0
    }

    /// Dimensionality of the domain.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Depth of the deepest leaf (0 for a single-leaf tree).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The items the tree was built over.
    pub fn items(&self) -> &[KdItem] {
        &self.items
    }

    /// Whether `n` is a leaf.
    pub fn is_leaf(&self, n: KdNodeId) -> bool {
        matches!(self.nodes[n as usize].kind, KdNodeKind::Leaf { .. })
    }

    /// Children of an internal node.
    pub fn children(&self, n: KdNodeId) -> Option<(KdNodeId, KdNodeId)> {
        match self.nodes[n as usize].kind {
            KdNodeKind::Internal { left, right, .. } => Some((left, right)),
            KdNodeKind::Leaf { .. } => None,
        }
    }

    /// Probability mass under node `n`.
    pub fn mass(&self, n: KdNodeId) -> f64 {
        self.nodes[n as usize].mass
    }

    /// The domain cell owned by node `n`.
    pub fn cell(&self, n: KdNodeId) -> &BoxRange {
        &self.nodes[n as usize].cell
    }

    /// Depth of node `n`.
    pub fn depth(&self, n: KdNodeId) -> u32 {
        self.nodes[n as usize].depth
    }

    /// Item indices stored at leaf `n` (empty for internal nodes).
    pub fn leaf_items(&self, n: KdNodeId) -> &[u32] {
        match &self.nodes[n as usize].kind {
            KdNodeKind::Leaf { items } => items,
            KdNodeKind::Internal { .. } => &[],
        }
    }

    /// All leaf node ids.
    pub fn leaves(&self) -> Vec<KdNodeId> {
        (0..self.nodes.len() as KdNodeId)
            .filter(|&n| self.is_leaf(n))
            .collect()
    }

    /// Locates the leaf cell containing an arbitrary point of the domain
    /// (not necessarily one of the build items).
    pub fn locate(&self, p: &Point) -> KdNodeId {
        assert_eq!(p.dim(), self.dim, "dimension mismatch");
        let mut leaf = [self.root()];
        self.locate_many(&p.coords, &mut leaf);
        leaf[0]
    }

    /// Locates the leaf cell of every point in a batch: `coords` holds the
    /// points back to back, [`dim`](Self::dim) coordinates each, and
    /// `out[i]` receives the leaf of point `i`. All points descend the
    /// descent table together, one step per round, for
    /// [`height`](Self::height) rounds (see the module docs). The second
    /// pass of the I/O-efficient algorithm locates its keys this way.
    ///
    /// # Panics
    /// Panics if `coords.len() != out.len() * dim`.
    pub fn locate_many(&self, coords: &[u64], out: &mut [KdNodeId]) {
        assert_eq!(
            coords.len(),
            out.len() * self.dim,
            "locate_many needs {} coordinates per point",
            self.dim
        );
        out.fill(self.root());
        for _ in 0..self.height {
            for (n, p) in out.iter_mut().zip(coords.chunks_exact(self.dim)) {
                let step = self.steps[*n as usize];
                *n = step.next[usize::from(p[step.axis as usize] > step.split)];
            }
        }
    }

    /// The "s-leaves" of Appendix E: minimum-depth nodes of mass ≤ `limit`.
    pub fn s_leaves(&self, limit: f64) -> Vec<KdNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            if self.mass(n) <= limit || self.is_leaf(n) {
                out.push(n);
            } else if let Some((l, r)) = self.children(n) {
                stack.push(l);
                stack.push(r);
            }
        }
        out
    }

    /// Counts the s-leaves whose cells intersect (but are not contained in)
    /// the query box — the boundary set `B(R)` of Appendix E.
    pub fn boundary_cells(&self, query: &BoxRange, limit: f64) -> usize {
        self.s_leaves(limit)
            .into_iter()
            .filter(|&n| {
                let cell = self.cell(n);
                query.overlaps(cell) && !query.covers(cell)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_items(side: u64, prob: f64) -> Vec<KdItem> {
        let mut items = Vec::new();
        for x in 0..side {
            for y in 0..side {
                items.push(KdItem {
                    key: x * side + y,
                    point: Point::xy(x, y),
                    prob,
                });
            }
        }
        items
    }

    #[test]
    fn single_item_tree() {
        let t = KdHierarchy::build(
            vec![KdItem {
                key: 1,
                point: Point::xy(3, 4),
                prob: 0.5,
            }],
            0.0,
        );
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.height(), 0);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.locate(&Point::xy(100, 100)), t.root());
    }

    #[test]
    fn splits_to_single_keys() {
        let t = KdHierarchy::build(grid_items(4, 0.3), 0.0);
        for &leaf in &t.leaves() {
            assert_eq!(t.leaf_items(leaf).len(), 1);
        }
        assert_eq!(t.leaves().len(), 16);
    }

    #[test]
    fn mass_is_preserved_down_the_tree() {
        let t = KdHierarchy::build(grid_items(8, 0.25), 0.0);
        let mut stack = vec![t.root()];
        while let Some(n) = stack.pop() {
            if let Some((l, r)) = t.children(n) {
                let sum = t.mass(l) + t.mass(r);
                assert!((t.mass(n) - sum).abs() < 1e-9);
                stack.push(l);
                stack.push(r);
            }
        }
        assert!((t.mass(t.root()) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn splits_are_balanced_on_uniform_grid() {
        let t = KdHierarchy::build(grid_items(8, 0.25), 0.0);
        // Root split of 16.0 total mass should be 8 / 8.
        let (l, r) = t.children(t.root()).unwrap();
        assert!((t.mass(l) - 8.0).abs() < 1e-9);
        assert!((t.mass(r) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn locate_agrees_with_build_items() {
        let items = grid_items(5, 0.2);
        let t = KdHierarchy::build(items.clone(), 0.0);
        for (i, it) in items.iter().enumerate() {
            let leaf = t.locate(&it.point);
            assert!(
                t.leaf_items(leaf).contains(&(i as u32)),
                "item {i} not in its located leaf"
            );
            assert!(t.cell(leaf).contains(&it.point));
        }
    }

    #[test]
    fn cells_partition_the_domain() {
        let t = KdHierarchy::build(grid_items(4, 0.5), 0.0);
        // Every grid point (including unoccupied ones nearby) falls in
        // exactly one leaf cell.
        for x in 0..10u64 {
            for y in 0..10u64 {
                let p = Point::xy(x, y);
                let covering: Vec<_> = t
                    .leaves()
                    .into_iter()
                    .filter(|&n| t.cell(n).contains(&p))
                    .collect();
                assert_eq!(covering.len(), 1, "point ({x},{y}) in {covering:?}");
                assert_eq!(covering[0], t.locate(&p));
            }
        }
    }

    #[test]
    fn unit_mass_stopping_rule() {
        let t = KdHierarchy::build(grid_items(8, 0.25), 1.0);
        for &leaf in &t.leaves() {
            // Mass ≤ 1 unless an unsplittable identical-point group.
            assert!(t.mass(leaf) <= 1.0 + 1e-9);
        }
        let total: f64 = t.leaves().iter().map(|&l| t.mass(l)).sum();
        assert!((total - 16.0).abs() < 1e-9);
    }

    #[test]
    fn identical_points_forced_leaf() {
        let items = vec![
            KdItem {
                key: 1,
                point: Point::xy(5, 5),
                prob: 0.9,
            },
            KdItem {
                key: 2,
                point: Point::xy(5, 5),
                prob: 0.9,
            },
        ];
        let t = KdHierarchy::build(items, 0.0);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_items(t.root()).len(), 2);
    }

    #[test]
    fn skewed_mass_split() {
        // One heavy-probability item vs many light: split should isolate it
        // near-evenly by mass, not by count.
        let mut items = vec![KdItem {
            key: 0,
            point: Point::xy(0, 0),
            prob: 0.99,
        }];
        for i in 1..100 {
            items.push(KdItem {
                key: i,
                point: Point::xy(i, 0),
                prob: 0.01,
            });
        }
        let t = KdHierarchy::build(items, 0.0);
        let (l, r) = t.children(t.root()).unwrap();
        let diff = (t.mass(l) - t.mass(r)).abs();
        assert!(diff < 1.0, "imbalance {diff}");
    }

    #[test]
    fn hyperplane_cut_bound_on_uniform_grid() {
        // Lemma 6: an axis-parallel line cuts O(s^((d-1)/d)) = O(√s) s-leaf
        // cells. On a 16×16 uniform grid with mass 64 (p=0.25), s-leaves
        // have mass ~1 (64 of them); a vertical line should cut ~8, not 64.
        let t = KdHierarchy::build(grid_items(16, 0.25), 1.0);
        let line = BoxRange::xy(7, 7, 0, u64::MAX);
        let cut = t
            .s_leaves(1.0)
            .into_iter()
            .filter(|&n| t.cell(n).overlaps(&line))
            .count();
        let s_leaf_count = t.s_leaves(1.0).len();
        assert!(
            s_leaf_count >= 32,
            "expected ~64 s-leaves, got {s_leaf_count}"
        );
        assert!(
            cut <= 2 * (s_leaf_count as f64).sqrt() as usize + 2,
            "line cuts {cut} of {s_leaf_count} cells"
        );
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_build_panics() {
        KdHierarchy::build(Vec::new(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn bad_probability_panics() {
        KdHierarchy::build(
            vec![KdItem {
                key: 1,
                point: Point::xy(0, 0),
                prob: 1.5,
            }],
            0.0,
        );
    }
}
