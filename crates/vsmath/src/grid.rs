//! Uniform spatial hash grid for neighbor queries.
//!
//! Two hot consumers: cutoff-based scoring in `vsscore` (find receptor atoms
//! within the interaction cutoff of a ligand atom) and surface/spot
//! detection in `vsmol` (find atoms near a candidate surface probe).

use crate::{Aabb, Vec3};

/// A uniform grid over a point cloud. Cell size should be at least the query
/// radius for single-shell queries; [`SpatialGrid::for_each_within`] handles
/// any radius by scanning the necessary cell range.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    origin: Vec3,
    dims: [usize; 3],
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `entries` for cell `c`.
    starts: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Vec3>,
}

impl SpatialGrid {
    /// Build a grid with the given cell size over `points`.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive or any point is
    /// non-finite.
    pub fn build(points: &[Vec3], cell_size: f64) -> SpatialGrid {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(points.iter().all(|p| p.is_finite()), "non-finite point in grid input");

        let bb = Aabb::from_points(points);
        let (origin, extent) =
            if bb.is_empty() { (Vec3::ZERO, Vec3::ZERO) } else { (bb.min, bb.extent()) };
        let dims = [
            (extent.x / cell_size).floor() as usize + 1,
            (extent.y / cell_size).floor() as usize + 1,
            (extent.z / cell_size).floor() as usize + 1,
        ];
        let ncells = dims[0] * dims[1] * dims[2];

        // Counting sort into CSR layout: one pass to count, one to place.
        let mut counts = vec![0u32; ncells + 1];
        let cell_of = |p: Vec3| -> usize {
            let ix = (((p.x - origin.x) / cell_size) as usize).min(dims[0] - 1);
            let iy = (((p.y - origin.y) / cell_size) as usize).min(dims[1] - 1);
            let iz = (((p.z - origin.z) / cell_size) as usize).min(dims[2] - 1);
            (iz * dims[1] + iy) * dims[0] + ix
        };
        for &p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut entries = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        SpatialGrid { cell: cell_size, origin, dims, starts, entries, points: points.to_vec() }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Point indices in cell order (the CSR `entries`): ascending cell
    /// index, input order within a cell. [`SpatialGrid::for_each_within`]
    /// visits the points it reports in exactly this relative order, so a
    /// caller that walks this slice and filters by distance reproduces the
    /// order in which any one query point would have met its neighbours.
    pub fn cell_order(&self) -> &[u32] {
        &self.entries
    }

    /// Invoke `f(index, point, dist_sq)` for every stored point within
    /// `radius` of `q`.
    pub fn for_each_within<F: FnMut(usize, Vec3, f64)>(&self, q: Vec3, radius: f64, mut f: F) {
        if self.points.is_empty() || radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let lo = q - Vec3::splat(radius);
        let hi = q + Vec3::splat(radius);
        let clamp_cell = |v: f64, d: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(d - 1)
            }
        };
        let ix0 = clamp_cell((lo.x - self.origin.x) / self.cell, self.dims[0]);
        let iy0 = clamp_cell((lo.y - self.origin.y) / self.cell, self.dims[1]);
        let iz0 = clamp_cell((lo.z - self.origin.z) / self.cell, self.dims[2]);
        let ix1 = clamp_cell((hi.x - self.origin.x) / self.cell, self.dims[0]);
        let iy1 = clamp_cell((hi.y - self.origin.y) / self.cell, self.dims[1]);
        let iz1 = clamp_cell((hi.z - self.origin.z) / self.cell, self.dims[2]);

        for iz in iz0..=iz1 {
            for iy in iy0..=iy1 {
                let row = (iz * self.dims[1] + iy) * self.dims[0];
                let s = self.starts[row + ix0] as usize;
                let e = self.starts[row + ix1 + 1] as usize;
                // Cells along x are contiguous in CSR order, so one slice
                // covers the whole x-run of this (y,z) row.
                for &idx in &self.entries[s..e] {
                    let p = self.points[idx as usize];
                    let d2 = p.dist_sq(q);
                    if d2 <= r2 {
                        f(idx as usize, p, d2);
                    }
                }
            }
        }
    }

    /// Collect indices of all points within `radius` of `q`.
    pub fn within(&self, q: Vec3, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(q, radius, |i, _, _| out.push(i));
        out
    }

    /// Number of points within `radius` of `q`.
    pub fn count_within(&self, q: Vec3, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(q, radius, |_, _, _| n += 1);
        n
    }

    /// Nearest stored point to `q`, if any, as `(index, dist)`.
    pub fn nearest(&self, q: Vec3) -> Option<(usize, f64)> {
        if self.points.is_empty() {
            return None;
        }
        // Expanding-radius search; falls back to brute force when the grid
        // is sparse relative to the query point.
        let mut radius = self.cell;
        for _ in 0..32 {
            let mut best: Option<(usize, f64)> = None;
            self.for_each_within(q, radius, |i, _, d2| {
                if best.is_none_or(|(_, bd)| d2 < bd * bd) {
                    best = Some((i, d2.sqrt()));
                }
            });
            if let Some(b) = best {
                return Some(b);
            }
            radius *= 2.0;
        }
        // Brute force fallback (pathological geometry).
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.dist(q)))
            // PANICS: distances of finite points are finite, so the comparison is total.
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngStream;

    fn brute_within(points: &[Vec3], q: Vec3, r: f64) -> Vec<usize> {
        points.iter().enumerate().filter(|(_, p)| p.dist_sq(q) <= r * r).map(|(i, _)| i).collect()
    }

    #[test]
    fn empty_grid() {
        let g = SpatialGrid::build(&[], 1.0);
        assert!(g.is_empty());
        assert_eq!(g.within(Vec3::ZERO, 10.0), Vec::<usize>::new());
        assert_eq!(g.nearest(Vec3::ZERO), None);
    }

    #[test]
    fn single_point() {
        let g = SpatialGrid::build(&[Vec3::new(1.0, 2.0, 3.0)], 2.0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.within(Vec3::new(1.0, 2.0, 3.0), 0.1), vec![0]);
        assert_eq!(g.within(Vec3::ZERO, 0.5), Vec::<usize>::new());
        let (i, d) = g.nearest(Vec3::ZERO).unwrap();
        assert_eq!(i, 0);
        assert!((d - 14.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_random() {
        let mut rng = RngStream::from_seed(99);
        let points: Vec<Vec3> = (0..500)
            .map(|_| {
                Vec3::new(
                    rng.uniform_range(-10.0, 10.0),
                    rng.uniform_range(-10.0, 10.0),
                    rng.uniform_range(-10.0, 10.0),
                )
            })
            .collect();
        let g = SpatialGrid::build(&points, 2.5);
        for _ in 0..50 {
            let q = Vec3::new(
                rng.uniform_range(-12.0, 12.0),
                rng.uniform_range(-12.0, 12.0),
                rng.uniform_range(-12.0, 12.0),
            );
            let r = rng.uniform_range(0.5, 6.0);
            let mut got = g.within(q, r);
            let mut want = brute_within(&points, q, r);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {q:?} r={r}");
        }
    }

    #[test]
    fn cell_order_is_the_order_queries_report_in() {
        let mut rng = RngStream::from_seed(41);
        let points: Vec<Vec3> = (0..300).map(|_| rng.in_ball(15.0)).collect();
        let g = SpatialGrid::build(&points, 4.0);
        let mut sorted: Vec<u32> = g.cell_order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<u32>>(), "a permutation of the input");
        for _ in 0..20 {
            let (q, r) = (rng.in_ball(18.0), rng.uniform_range(1.0, 9.0));
            let want: Vec<usize> = g
                .cell_order()
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| points[i].dist_sq(q) <= r * r)
                .collect();
            assert_eq!(g.within(q, r), want, "query {q:?} r={r}");
        }
    }

    #[test]
    fn radius_larger_than_grid() {
        let points = vec![Vec3::ZERO, Vec3::splat(1.0), Vec3::splat(-1.0)];
        let g = SpatialGrid::build(&points, 0.5);
        assert_eq!(g.within(Vec3::ZERO, 100.0).len(), 3);
    }

    #[test]
    fn query_far_outside_bounds() {
        let points = vec![Vec3::ZERO, Vec3::X];
        let g = SpatialGrid::build(&points, 1.0);
        assert!(g.within(Vec3::splat(1000.0), 1.0).is_empty());
        assert_eq!(g.count_within(Vec3::splat(1000.0), 2000.0), 2);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = RngStream::from_seed(7);
        let points: Vec<Vec3> = (0..200).map(|_| rng.in_ball(20.0)).collect();
        let g = SpatialGrid::build(&points, 3.0);
        for _ in 0..20 {
            let q = rng.in_ball(30.0);
            let (gi, gd) = g.nearest(q).unwrap();
            let (bi, bd) = points
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.dist(q)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!((gd - bd).abs() < 1e-9, "grid ({gi},{gd}) vs brute ({bi},{bd})");
        }
    }

    #[test]
    fn coincident_points_all_found() {
        let points = vec![Vec3::X; 5];
        let g = SpatialGrid::build(&points, 1.0);
        assert_eq!(g.within(Vec3::X, 1e-9).len(), 5);
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_panics() {
        SpatialGrid::build(&[Vec3::ZERO], 0.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_point_panics() {
        SpatialGrid::build(&[Vec3::new(f64::NAN, 0.0, 0.0)], 1.0);
    }

    #[test]
    fn negative_radius_finds_nothing() {
        let g = SpatialGrid::build(&[Vec3::ZERO], 1.0);
        assert!(g.within(Vec3::ZERO, -1.0).is_empty());
    }
}
