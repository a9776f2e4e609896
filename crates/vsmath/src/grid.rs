//! Uniform spatial hash grid for neighbor queries.
//!
//! Two hot consumers: cutoff-based scoring in `vsscore` (find receptor atoms
//! within the interaction cutoff of a ligand atom) and surface/spot
//! detection in `vsmol` (every atom's burial count, one half-stencil pass
//! in [`SpatialGrid::neighbour_counts`]).

use crate::{Aabb, Vec3};
use std::ops::Range;

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

    /// CSR positions of the x-run `x0..=x1` of row `(iy, iz)`: cells along
    /// x are contiguous in CSR order, so one range covers the whole run.
    #[inline]
    fn run(&self, iy: usize, iz: usize, x0: usize, x1: usize) -> Range<usize> {
        let row = (iz * self.dims[1] + iy) * self.dims[0];
        self.starts[row + x0] as usize..self.starts[row + x1 + 1] as usize
    }

    /// The cell box a query at `q` scans, as inclusive per-axis bounds
    /// `(lo, hi)`, or `None` when it scans nothing.
    #[inline]
    fn query_box(&self, q: Vec3, radius: f64) -> Option<([usize; 3], [usize; 3])> {
        if self.points.is_empty() || radius < 0.0 {
            return None;
        }
        let clamp_cell = |v: f64, d: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(d - 1)
            }
        };
        let (lo, hi) = (q - Vec3::splat(radius), q + Vec3::splat(radius));
        let cell = |p: Vec3| {
            [
                clamp_cell((p.x - self.origin.x) / self.cell, self.dims[0]),
                clamp_cell((p.y - self.origin.y) / self.cell, self.dims[1]),
                clamp_cell((p.z - self.origin.z) / self.cell, self.dims[2]),
            ]
        };
        Some((cell(lo), cell(hi)))
    }

    /// Invoke `f(index, point, dist_sq)` for every stored point within
    /// `radius` of `q`.
    pub fn for_each_within<F: FnMut(usize, Vec3, f64)>(&self, q: Vec3, radius: f64, mut f: F) {
        let Some((lo, hi)) = self.query_box(q, radius) else {
            return;
        };
        let r2 = radius * radius;
        for iz in lo[2]..=hi[2] {
            for iy in lo[1]..=hi[1] {
                for &idx in &self.entries[self.run(iy, iz, lo[0], hi[0])] {
                    let p = self.points[idx as usize];
                    let d2 = p.dist_sq(q);
                    if d2 <= r2 {
                        f(idx as usize, p, d2);
                    }
                }
            }
        }
    }

    /// Number of stored points a query at `q` examines, hits or not: the
    /// work of one [`SpatialGrid::for_each_within`] call.
    pub fn candidates_within(&self, q: Vec3, radius: f64) -> usize {
        let Some((lo, hi)) = self.query_box(q, radius) else {
            return 0;
        };
        (lo[2]..=hi[2])
            .flat_map(|iz| (lo[1]..=hi[1]).map(move |iy| self.run(iy, iz, lo[0], hi[0]).len()))
            .sum()
    }

    /// For every stored point (input order), how many *other* stored points
    /// lie within `radius` of it: `count_within(p, radius) - 1`, computed in
    /// one pass that tests each pair once.
    ///
    /// A pair's test is `count_within`'s `dx² + dy² + dz² <= r²`, and
    /// `(a - b)² == (b - a)²` in IEEE arithmetic, so both of its points see
    /// the same outcome and the counts equal the per-point queries'. A
    /// negative or NaN `radius` gives all zeros, `+∞` gives `len() - 1`
    /// each, as the queries do.
    pub fn neighbour_counts(&self, radius: f64) -> Vec<usize> {
        let order = &self.entries;
        let gather = |axis: fn(&Vec3) -> f64| -> Vec<f64> {
            order.iter().map(|&i| axis(&self.points[i as usize])).collect()
        };
        let (xs, ys, zs) = (gather(|p| p.x), gather(|p| p.y), gather(|p| p.z));
        let r2 = radius * radius;
        // Indexed by position in cell order until the scatter below.
        let mut hits = vec![0usize; order.len()];
        self.half_stencil(radius, |a, b| {
            for i in a {
                let (xi, yi, zi) = (xs[i], ys[i], zs[i]);
                let b = b.start.max(i + 1)..b.end;
                let mut own = 0;
                for (((&x, &y), &z), hit) in
                    xs[b.clone()].iter().zip(&ys[b.clone()]).zip(&zs[b.clone()]).zip(&mut hits[b])
                {
                    let (dx, dy, dz) = (x - xi, y - yi, z - zi);
                    let near = (dx * dx + dy * dy + dz * dz <= r2) as usize;
                    own += near;
                    *hit += near;
                }
                hits[i] += own;
            }
        });
        let mut counts = vec![0; order.len()];
        for (&i, &n) in order.iter().zip(&hits) {
            counts[i as usize] = n;
        }
        counts
    }

    /// Exact number of pair tests [`SpatialGrid::neighbour_counts`] makes
    /// for `radius`, from cell occupancy alone: the same stencil walk, with
    /// no coordinate read.
    pub fn neighbour_pair_tests(&self, radius: f64) -> u64 {
        let mut tests = 0;
        self.half_stencil(radius, |a, b| {
            tests += a.map(|i| (b.end - b.start.max(i + 1)) as u64).sum::<u64>();
        });
        tests
    }

    /// Walks the half stencil of `radius` over the cells: for each non-empty
    /// cell, `block(a, b)` with `a` the cell's positions in
    /// [`SpatialGrid::cell_order`] and `b` a run of positions that may hold
    /// its points' neighbours. The caller tests `i` in `a` against `j` in
    /// `b` with `j > i`, so each pair is tested once.
    ///
    /// The first run starts at the cell itself and ends at the last cell in
    /// reach along its x-row; the others are the in-reach x-runs of the rows
    /// after the cell's own (`dz > 0`, or `dz == 0` and `dy > 0`), which lie
    /// wholly after `a` in cell order. With cells at least `radius` wide that
    /// is the cell, its pairs, and its 13 later neighbours.
    fn half_stencil(&self, radius: f64, mut block: impl FnMut(Range<usize>, Range<usize>)) {
        if radius < 0.0 || radius.is_nan() {
            return;
        }
        let [nx, ny, nz] = self.dims;
        // Cells further apart than this along an axis hold no pair within
        // `radius`. Clamped to the grid, so `+∞` spans it and no more.
        let reach = |d: usize| (radius / self.cell).ceil().min((d - 1) as f64) as usize;
        let (kx, ky, kz) = (reach(nx), reach(ny), reach(nz));
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let a = self.run(iy, iz, ix, ix);
                    if a.is_empty() {
                        continue;
                    }
                    let (x0, x1) = (ix.saturating_sub(kx), (ix + kx).min(nx - 1));
                    block(a.clone(), a.start..self.run(iy, iz, ix, x1).end);
                    for z in iz..=(iz + kz).min(nz - 1) {
                        let y0 = if z == iz { iy + 1 } else { iy.saturating_sub(ky) };
                        for y in y0..=(iy + ky).min(ny - 1) {
                            block(a.clone(), self.run(y, z, x0, x1));
                        }
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

    /// Seeded clouds with the edge cases a half stencil could get wrong:
    /// duplicate points, and lattice points on cell faces with pairs
    /// exactly one spacing apart (integer coordinates, so every difference
    /// is exact).
    fn edge_clouds() -> Vec<Vec<Vec3>> {
        let mut rng = RngStream::from_seed(46);
        let mut ball: Vec<Vec3> = (0..400).map(|_| rng.in_ball(14.0)).collect();
        for k in 0..40 {
            ball.push(ball[k * 7]);
        }
        let lattice: Vec<Vec3> = (0..6 * 6 * 6)
            .map(|i| Vec3::new((i % 6) as f64, (i / 6 % 6) as f64, (i / 36) as f64) * 2.0)
            .chain((0..30).map(|_| {
                let c = |rng: &mut RngStream| rng.index(6) as f64 * 2.0;
                Vec3::new(c(&mut rng), c(&mut rng), c(&mut rng))
            }))
            .collect();
        let slab: Vec<Vec3> = (0..300)
            .map(|_| Vec3::new(rng.uniform_range(-30.0, 30.0), rng.in_ball(3.0).y, 0.0))
            .collect();
        vec![ball, lattice, slab]
    }

    /// Every point's cell as `[ix, iy, iz]`, read back from the CSR layout.
    fn cells_of(g: &SpatialGrid) -> Vec<[usize; 3]> {
        let mut cells = vec![[0; 3]; g.len()];
        for c in 0..g.dims.iter().product() {
            let xyz = [c % g.dims[0], c / g.dims[0] % g.dims[1], c / (g.dims[0] * g.dims[1])];
            for &i in &g.entries[g.starts[c] as usize..g.starts[c + 1] as usize] {
                cells[i as usize] = xyz;
            }
        }
        cells
    }

    #[test]
    fn neighbour_counts_equal_per_point_queries() {
        for points in edge_clouds() {
            // Radii below the cell, at it (faces of the lattice), and up to
            // three cells wide.
            for (cell, radii) in [(1.0, &[0.0, 0.5, 1.0][..]), (2.0, &[2.0, 3.5, 5.5, 6.0][..])] {
                let g = SpatialGrid::build(&points, cell);
                for &r in radii {
                    let want: Vec<usize> =
                        points.iter().map(|&p| g.count_within(p, r) - 1).collect();
                    assert_eq!(g.neighbour_counts(r), want, "cell {cell}, r {r}");
                }
            }
        }
    }

    #[test]
    fn neighbour_counts_of_empty_and_one_point_inputs() {
        let g = SpatialGrid::build(&[], 1.0);
        assert_eq!(g.neighbour_counts(6.0), Vec::<usize>::new());
        assert_eq!(g.neighbour_pair_tests(6.0), 0);
        let g = SpatialGrid::build(&[Vec3::splat(3.0)], 1.0);
        assert_eq!(g.neighbour_counts(6.0), vec![0]);
        assert_eq!(g.neighbour_pair_tests(6.0), 0);
    }

    #[test]
    fn degenerate_radii_keep_their_defined_counts() {
        // A 60 Å cloud on 1 Å cells: the +∞ stencil must stop at the
        // grid's edges.
        let mut rng = RngStream::from_seed(8);
        let points: Vec<Vec3> = (0..80).map(|_| rng.in_ball(30.0)).collect();
        let n = points.len();
        for g in [SpatialGrid::build(&points, 1.0), SpatialGrid::build(&points, f64::INFINITY)] {
            for r in [-1.0, f64::NAN] {
                assert_eq!(g.neighbour_counts(r), vec![0; n], "r {r}");
                assert!(points.iter().all(|&p| g.count_within(p, r) == 0), "r {r}");
                assert_eq!(g.neighbour_pair_tests(r), 0, "r {r}");
            }
            assert_eq!(g.neighbour_counts(f64::INFINITY), vec![n - 1; n]);
            assert!(points.iter().all(|&p| g.count_within(p, f64::INFINITY) == n));
            assert_eq!(g.neighbour_pair_tests(f64::INFINITY), (n * (n - 1) / 2) as u64);
        }
    }

    /// The count gate: the pass tests exactly the pairs whose cells lie
    /// within reach along every axis, each once (recorded counts), and on
    /// cells as wide as the radius that is at most half of what the
    /// per-point queries scan.
    #[test]
    fn neighbour_pass_tests_each_pair_in_reach_once() {
        let mut recorded = Vec::new();
        for points in edge_clouds() {
            for (cell, r) in [(1.0, 0.5), (2.0, 2.0), (2.0, 5.5)] {
                let g = SpatialGrid::build(&points, cell);
                let k = (r / cell).ceil() as usize;
                let cells = cells_of(&g);
                let in_reach =
                    |a: [usize; 3], b: [usize; 3]| (0..3).all(|d| a[d].abs_diff(b[d]) <= k);
                let pairs = (0..points.len())
                    .flat_map(|i| (i + 1..points.len()).map(move |j| (i, j)))
                    .filter(|&(i, j)| in_reach(cells[i], cells[j]))
                    .count() as u64;
                let tests = g.neighbour_pair_tests(r);
                assert_eq!(tests, pairs, "cell {cell}, r {r}");
                let scans: usize = points.iter().map(|&p| g.candidates_within(p, r)).sum();
                // At `r == cell`, the grid `vsmol`'s burial count builds,
                // a query scans about 27 cells and the pass 13.5 per point.
                if r == cell {
                    assert!(2 * tests <= scans as u64, "{tests} tests against {scans} scans");
                }
                recorded.push(tests);
            }
        }
        assert_eq!(recorded, RECORDED_PAIR_TESTS);
    }

    const RECORDED_PAIR_TESTS: [u64; 9] = [260, 1592, 15035, 33, 2506, 17249, 1212, 3810, 9727];

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
