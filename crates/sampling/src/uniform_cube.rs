//! The uniform-case product sampler of Section 4: sampling a uniform
//! distribution over a d-dimensional hypercube.
//!
//! For measure `s = h^d`, partition the cube into `s` unit cells and pick
//! one point uniformly from each cell. The result is a VarOpt sample of
//! size exactly `s`, and any axis-parallel box query touches at most
//! `2d·s^((d−1)/d)` boundary cells — only those contribute discrepancy, as
//! interior cells are counted exactly.
//!
//! This is the cleanest demonstration of the paper's d-dimensional bound.
//! Only this module's own tests exercise it; nothing else in the workspace
//! calls it, and the general kd-based sampler is validated by its own
//! tests, not against this case.

use rand::Rng;

use sas_core::estimate::{Sample, SampleEntry};
use sas_structures::product::{BoxRange, Point};

/// A sample point drawn from the uniform hypercube: its cell index and
/// continuous-ish location (integer grid of `cell_side` positions per cell).
#[derive(Debug, Clone)]
pub struct CubeSample {
    /// One sampled point per cell.
    pub points: Vec<Point>,
    /// Side length of each cell (in domain units).
    pub cell_side: u64,
    /// Cells per axis (`h`, where the sample size is `h^d`).
    pub cells_per_axis: u64,
    /// Dimensionality.
    pub dim: usize,
}

/// Draws a VarOpt sample of the uniform distribution over the hypercube
/// `[0, cells_per_axis·cell_side)^dim`: one uniform point per unit cell.
///
/// Sample size is `cells_per_axis^dim`.
///
/// # Panics
/// Panics if `dim == 0`, `cells_per_axis == 0`, or `cell_side == 0`.
pub fn sample_uniform_cube<R: Rng + ?Sized>(
    dim: usize,
    cells_per_axis: u64,
    cell_side: u64,
    rng: &mut R,
) -> CubeSample {
    assert!(dim >= 1 && cells_per_axis >= 1 && cell_side >= 1);
    let total_cells = cells_per_axis.pow(dim as u32);
    let mut points = Vec::with_capacity(total_cells as usize);
    // Iterate cells in row-major order.
    let mut idx = vec![0u64; dim];
    loop {
        let coords: Vec<u64> = idx
            .iter()
            .map(|&c| c * cell_side + rng.gen_range(0..cell_side))
            .collect();
        points.push(Point::new(coords));
        // Increment mixed-radix counter.
        let mut axis = 0;
        loop {
            idx[axis] += 1;
            if idx[axis] < cells_per_axis {
                break;
            }
            idx[axis] = 0;
            axis += 1;
            if axis == dim {
                return CubeSample {
                    points,
                    cell_side,
                    cells_per_axis,
                    dim,
                };
            }
        }
    }
}

impl CubeSample {
    /// Sample size (`cells_per_axis^dim`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sample is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of sampled points inside a box.
    pub fn count_in(&self, query: &BoxRange) -> usize {
        self.points.iter().filter(|p| query.contains(p)).count()
    }

    /// Expected number of sampled points in a box under the uniform
    /// measure: the box volume divided by the cell volume.
    pub fn expected_in(&self, query: &BoxRange) -> f64 {
        let cell_volume = (self.cell_side as f64).powi(self.dim as i32);
        let mut vol = 1.0;
        let side = self.cells_per_axis * self.cell_side;
        for iv in &query.sides {
            let lo = iv.lo.min(side);
            let hi = (iv.hi.saturating_add(1)).min(side);
            vol *= (hi.saturating_sub(lo)) as f64;
        }
        vol / cell_volume
    }

    /// Discrepancy of the sample on a box.
    pub fn discrepancy(&self, query: &BoxRange) -> f64 {
        (self.count_in(query) as f64 - self.expected_in(query)).abs()
    }

    /// The boundary-cell bound `2d·s^((d−1)/d)` of Section 4.
    pub fn boundary_bound(&self) -> f64 {
        let s = self.len() as f64;
        let d = self.dim as f64;
        2.0 * d * s.powf((d - 1.0) / d)
    }

    /// Converts to a weighted [`Sample`] (each point represents one cell
    /// volume of measure).
    pub fn to_sample(&self) -> Sample {
        let cell_volume = (self.cell_side as f64).powi(self.dim as i32);
        Sample::from_entries(
            self.points
                .iter()
                .enumerate()
                .map(|(i, _)| SampleEntry {
                    key: i as u64,
                    weight: cell_volume,
                    adjusted_weight: cell_volume,
                })
                .collect(),
            cell_volume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sas_structures::order::Interval;

    #[test]
    fn one_point_per_cell() {
        let mut rng = StdRng::seed_from_u64(1);
        let cs = sample_uniform_cube(2, 8, 16, &mut rng);
        assert_eq!(cs.len(), 64);
        // Each point lies inside its cell.
        for (i, p) in cs.points.iter().enumerate() {
            let cx = (i as u64) % 8;
            let cy = (i as u64) / 8;
            assert!(p.coord(0) >= cx * 16 && p.coord(0) < (cx + 1) * 16);
            assert!(p.coord(1) >= cy * 16 && p.coord(1) < (cy + 1) * 16);
        }
    }

    #[test]
    fn box_discrepancy_within_boundary_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let cs = sample_uniform_cube(2, 16, 8, &mut rng);
        // s = 256, bound = 2·2·256^(1/2) = 64; observed discrepancy on any
        // box must be far below the cell-count bound and concentrated near
        // sqrt(boundary cells) ≈ 8.
        let bound = cs.boundary_bound();
        assert_eq!(bound, 64.0);
        for trial in 0..100u64 {
            let x0 = (trial * 7) % 100;
            let q = BoxRange::xy(x0, x0 + 37, 5, 99);
            let d = cs.discrepancy(&q);
            assert!(d <= bound, "trial {trial}: discrepancy {d}");
            assert!(
                d <= 20.0,
                "trial {trial}: discrepancy {d} implausibly large"
            );
        }
    }

    #[test]
    fn aligned_boxes_have_zero_discrepancy() {
        // A box that is a union of whole cells is counted exactly.
        let mut rng = StdRng::seed_from_u64(3);
        let cs = sample_uniform_cube(2, 8, 10, &mut rng);
        let q = BoxRange::xy(10, 49, 20, 79); // cells [1,4] x [2,7] exactly
        assert_eq!(cs.discrepancy(&q), 0.0);
        assert_eq!(cs.count_in(&q), 4 * 6);
    }

    #[test]
    fn three_dimensional_cube() {
        let mut rng = StdRng::seed_from_u64(4);
        let cs = sample_uniform_cube(3, 4, 4, &mut rng);
        assert_eq!(cs.len(), 64);
        let q = BoxRange::new(vec![
            Interval::new(0, 7),
            Interval::new(0, 15),
            Interval::new(3, 12),
        ]);
        let d = cs.discrepancy(&q);
        // bound = 2·3·64^(2/3) = 96 cells; actual must be modest.
        assert!(d < 16.0, "3-D discrepancy {d}");
    }

    #[test]
    fn full_cube_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let cs = sample_uniform_cube(2, 8, 8, &mut rng);
        let q = BoxRange::xy(0, 63, 0, 63);
        assert_eq!(cs.count_in(&q), 64);
        assert_eq!(cs.discrepancy(&q), 0.0);
    }

    #[test]
    fn to_sample_total() {
        let mut rng = StdRng::seed_from_u64(6);
        let cs = sample_uniform_cube(2, 4, 4, &mut rng);
        let s = cs.to_sample();
        assert_eq!(s.len(), 16);
        // Total measure = 16 cells · 16 volume = 256 = (4·4)².
        assert!((s.total_estimate() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_marginals() {
        // Each point is uniform within its cell.
        let mut counts = [0usize; 4];
        for seed in 0..4000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cs = sample_uniform_cube(1, 1, 4, &mut rng);
            counts[cs.points[0].coord(0) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 4000.0;
            assert!((f - 0.25).abs() < 0.05, "marginal {f}");
        }
    }
}
