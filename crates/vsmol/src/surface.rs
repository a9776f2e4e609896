//! BINDSURF-style surface extraction and spot detection.
//!
//! The paper's VS technique "divides the whole protein surface into
//! arbitrary and independent regions (or spots)", identified "by finding
//! out a specific type of atoms in the protein" (§3.1). This module
//! implements that: surface atoms are detected by neighbor-count burial
//! analysis, anchor-element surface atoms (N/O/S — the hydrogen-bonding
//! heteroatoms) seed spots, and a greedy separation pass spreads spots over
//! the whole surface. All spots are independent, which is exactly the
//! data parallelism the multi-GPU scheduler exploits.

use crate::Molecule;
use serde::{Deserialize, Serialize};
use vsmath::{SpatialGrid, Vec3};

/// One independent surface region where docking simulations run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spot {
    /// Stable id, `0..n_spots`.
    pub id: usize,
    /// Anchor point just outside the protein surface, where ligand copies
    /// are initially placed.
    pub center: Vec3,
    /// Outward surface normal at the anchor.
    pub normal: Vec3,
    /// Radius of the search region around `center`.
    pub radius: f64,
    /// Index of the receptor atom that anchors the spot.
    pub anchor_atom: usize,
}

/// Tunables for surface extraction and spot detection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurfaceOptions {
    /// Neighborhood radius (Å) for the burial count.
    pub neighbor_radius: f64,
    /// Fraction of the *maximum* burial count below which an atom counts as
    /// surface-exposed (interior atoms in a globular protein sit near the
    /// maximum).
    pub burial_fraction: f64,
    /// Minimum distance between spot anchors (Å); controls spot count.
    pub spot_separation: f64,
    /// How far outside the anchor atom the spot center is pushed (Å).
    pub standoff: f64,
    /// Search-region radius per spot (Å).
    pub spot_radius: f64,
    /// Hard cap on the number of spots (0 = unlimited).
    pub max_spots: usize,
    /// Restrict anchors to hydrogen-bonding heteroatoms
    /// ([`Element::is_spot_anchor`](crate::Element::is_spot_anchor)); when false, any surface atom anchors.
    pub anchors_only: bool,
}

impl Default for SurfaceOptions {
    fn default() -> Self {
        SurfaceOptions {
            neighbor_radius: 6.0,
            burial_fraction: 0.62,
            spot_separation: 8.0,
            standoff: 3.0,
            spot_radius: 5.0,
            max_spots: 0,
            anchors_only: true,
        }
    }
}

/// Burial count (neighbors within `neighbor_radius`) for every atom: one
/// pass over the receptor's cell grid that tests each atom pair once
/// ([`SpatialGrid::neighbour_counts`]).
pub fn burial_counts(mol: &Molecule, neighbor_radius: f64) -> Vec<usize> {
    SpatialGrid::build(mol.positions(), neighbor_radius.max(1.0)).neighbour_counts(neighbor_radius)
}

/// The burial count below which an atom counts as surface-exposed:
/// `burial_fraction × max_burial`.
fn exposure_cutoff(counts: &[usize], burial_fraction: f64) -> f64 {
    burial_fraction * counts.iter().copied().max().unwrap_or(0) as f64
}

/// Indices of surface-exposed atoms: burial below
/// `burial_fraction × max_burial`.
pub fn surface_atoms(mol: &Molecule, opts: &SurfaceOptions) -> Vec<usize> {
    surface_from_counts(&burial_counts(mol, opts.neighbor_radius), opts)
}

/// [`surface_atoms`] given every atom's burial count.
fn surface_from_counts(counts: &[usize], opts: &SurfaceOptions) -> Vec<usize> {
    let cutoff = exposure_cutoff(counts, opts.burial_fraction);
    counts.iter().enumerate().filter(|(_, &c)| (c as f64) < cutoff).map(|(i, _)| i).collect()
}

/// Solvent-accessible-surface exposure per atom (Shrake–Rupley): fraction
/// of `n_points` probe positions on each atom's expanded sphere
/// (`vdW + probe`) that no neighboring atom's expanded sphere covers.
/// 1.0 = fully exposed, 0.0 = fully buried. The classic alternative to the
/// burial-count heuristic; `probe_radius` of 1.4 Å models water.
pub fn sas_exposure(mol: &Molecule, probe_radius: f64, n_points: usize) -> Vec<f64> {
    assert!(probe_radius >= 0.0, "probe radius must be non-negative");
    assert!(n_points > 0, "need at least one probe point");
    if mol.is_empty() {
        return Vec::new();
    }

    // Deterministic quasi-uniform sphere points (Fibonacci lattice).
    let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());
    let sphere: Vec<Vec3> = (0..n_points)
        .map(|i| {
            let y = 1.0 - 2.0 * (i as f64 + 0.5) / n_points as f64;
            let r = (1.0 - y * y).max(0.0).sqrt();
            let th = golden * i as f64;
            Vec3::new(r * th.cos(), y, r * th.sin())
        })
        .collect();

    let max_expanded =
        mol.elements().iter().map(|e| e.vdw_radius() + probe_radius).fold(0.0, f64::max);
    let grid = SpatialGrid::build(mol.positions(), (2.0 * max_expanded).max(1.0));

    mol.positions()
        .iter()
        .zip(mol.elements())
        .enumerate()
        .map(|(i, (&p, &e))| {
            let r_i = e.vdw_radius() + probe_radius;
            // Neighbors whose expanded spheres can cover our probe points.
            let mut neighbors: Vec<(Vec3, f64)> = Vec::new();
            grid.for_each_within(p, r_i + max_expanded, |j, q, _| {
                if j != i {
                    let r_j = mol.elements()[j].vdw_radius() + probe_radius;
                    neighbors.push((q, r_j * r_j));
                }
            });
            let accessible = sphere
                .iter()
                .filter(|&&dir| {
                    let probe = p + dir * r_i;
                    !neighbors.iter().any(|&(q, r2)| probe.dist_sq(q) < r2)
                })
                .count();
            accessible as f64 / n_points as f64
        })
        .collect()
}

/// Surface atoms by the SAS criterion: exposure above `min_exposure`.
pub fn surface_atoms_sas(
    mol: &Molecule,
    probe_radius: f64,
    n_points: usize,
    min_exposure: f64,
) -> Vec<usize> {
    sas_exposure(mol, probe_radius, n_points)
        .iter()
        .enumerate()
        .filter(|(_, &x)| x > min_exposure)
        .map(|(i, _)| i)
        .collect()
}

/// Detect independent spots over the whole protein surface.
///
/// Greedy max-separation selection: candidate anchors are surface atoms
/// (optionally restricted to N/O/S), processed most-exposed-first; an anchor
/// is accepted if no already-accepted anchor lies within `spot_separation`.
pub fn detect_spots(mol: &Molecule, opts: &SurfaceOptions) -> Vec<Spot> {
    spots_from_counts(mol, opts, &burial_counts(mol, opts.neighbor_radius))
}

/// [`detect_spots`] given every atom's burial count.
fn spots_from_counts(mol: &Molecule, opts: &SurfaceOptions, counts: &[usize]) -> Vec<Spot> {
    if mol.is_empty() {
        return Vec::new();
    }
    let cutoff = exposure_cutoff(counts, opts.burial_fraction);
    let centroid = mol.centroid();

    // Candidates: (burial, atom index), most exposed (lowest burial) first.
    let mut candidates: Vec<(usize, usize)> = mol
        .elements()
        .iter()
        .enumerate()
        .filter(|(i, e)| (counts[*i] as f64) < cutoff && (!opts.anchors_only || e.is_spot_anchor()))
        .map(|(i, _)| (counts[i], i))
        .collect();
    candidates.sort_unstable();

    let sep_sq = opts.spot_separation * opts.spot_separation;
    let mut spots: Vec<Spot> = Vec::new();
    for (_, atom_idx) in candidates {
        if opts.max_spots > 0 && spots.len() >= opts.max_spots {
            break;
        }
        let p = mol.positions()[atom_idx];
        if spots.iter().any(|s| mol.positions()[s.anchor_atom].dist_sq(p) < sep_sq) {
            continue;
        }
        let normal = (p - centroid).normalized().unwrap_or(Vec3::Z);
        spots.push(Spot {
            id: spots.len(),
            center: p + normal * opts.standoff,
            normal,
            radius: opts.spot_radius,
            anchor_atom: atom_idx,
        });
    }
    spots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_receptor;
    use crate::Element;
    use crate::{Atom, Dataset};
    use vsmath::Vec3;

    fn small_receptor() -> Molecule {
        synth_receptor("test-receptor", 600, 42)
    }

    /// The per-atom burial count the one-pass count replaced: one
    /// `count_within` query per atom.
    fn per_atom_counts(mol: &Molecule, r: f64) -> Vec<usize> {
        let grid = SpatialGrid::build(mol.positions(), r.max(1.0));
        mol.positions().iter().map(|&p| grid.count_within(p, r).saturating_sub(1)).collect()
    }

    /// The two Table 5 receptors, and the 300- and 600-atom synthetic ones
    /// (`library_grid`'s and this module's).
    fn receptors() -> Vec<Molecule> {
        vec![
            Dataset::TwoBsm.receptor(),
            Dataset::TwoBxg.receptor(),
            synth_receptor("library-receptor", 300, 0x5E0C),
            small_receptor(),
        ]
    }

    #[test]
    fn one_pass_spots_equal_per_atom_queries() {
        for m in receptors() {
            let opts = SurfaceOptions::default();
            let counts = per_atom_counts(&m, opts.neighbor_radius);
            assert_eq!(burial_counts(&m, opts.neighbor_radius), counts, "{}", m.name);
            assert_eq!(surface_atoms(&m, &opts), surface_from_counts(&counts, &opts));
            for max_spots in [0, 8, 16] {
                let opts = SurfaceOptions { max_spots, ..opts.clone() };
                let (got, want) = (detect_spots(&m, &opts), spots_from_counts(&m, &opts, &counts));
                assert_eq!(got.len(), want.len(), "{} at max_spots {max_spots}", m.name);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.id, g.anchor_atom), (w.id, w.anchor_atom));
                    let bits = |s: &Spot| {
                        [s.center.x, s.center.y, s.center.z, s.normal.x, s.normal.y, s.normal.z]
                            .map(f64::to_bits)
                    };
                    assert_eq!(bits(g), bits(w), "{} spot {}", m.name, g.id);
                    assert_eq!(g.radius.to_bits(), w.radius.to_bits());
                }
            }
        }
    }

    /// The count gate on the Table 5 receptors: the exact number of pair
    /// tests the burial pass makes, at most half of the candidates the
    /// per-atom queries scanned.
    #[test]
    fn burial_pass_tests_half_the_per_atom_candidates() {
        let r = SurfaceOptions::default().neighbor_radius;
        for (dataset, tests, scans) in
            [(Dataset::TwoBsm, 297_105, 597_474), (Dataset::TwoBxg, 911_921, 1_832_451)]
        {
            let m = dataset.receptor();
            let grid = SpatialGrid::build(m.positions(), r.max(1.0));
            let scanned: usize = m.positions().iter().map(|&p| grid.candidates_within(p, r)).sum();
            assert_eq!((grid.neighbour_pair_tests(r), scanned), (tests, scans), "{}", m.name);
            assert!(2 * tests <= scans as u64);
        }
    }

    #[test]
    fn burial_interior_exceeds_surface() {
        let m = small_receptor();
        let counts = burial_counts(&m, 6.0);
        let centroid = m.centroid();
        let r_max = m.bounding_radius();
        // Average burial of inner-third atoms must exceed outer-third atoms.
        let (mut inner, mut ninner, mut outer, mut nouter) = (0usize, 0usize, 0usize, 0usize);
        for (i, &p) in m.positions().iter().enumerate() {
            let d = p.dist(centroid);
            if d < r_max / 3.0 {
                inner += counts[i];
                ninner += 1;
            } else if d > 2.0 * r_max / 3.0 {
                outer += counts[i];
                nouter += 1;
            }
        }
        assert!(ninner > 0 && nouter > 0);
        assert!(
            inner as f64 / ninner as f64 > 1.3 * (outer as f64 / nouter as f64),
            "burial contrast too weak"
        );
    }

    #[test]
    fn surface_atoms_sit_near_boundary() {
        let m = small_receptor();
        let surf = surface_atoms(&m, &SurfaceOptions::default());
        assert!(!surf.is_empty());
        assert!(surf.len() < m.len(), "not every atom can be surface");
        let centroid = m.centroid();
        let r_max = m.bounding_radius();
        let mean_r: f64 =
            surf.iter().map(|&i| m.positions()[i].dist(centroid)).sum::<f64>() / surf.len() as f64;
        assert!(mean_r > 0.7 * r_max, "surface atoms at mean radius {mean_r} of {r_max}");
    }

    #[test]
    fn empty_molecule_yields_nothing() {
        let m = Molecule::new("empty", vec![]);
        assert!(surface_atoms(&m, &SurfaceOptions::default()).is_empty());
        assert!(detect_spots(&m, &SurfaceOptions::default()).is_empty());
    }

    #[test]
    fn spots_have_sequential_ids_and_valid_anchors() {
        let m = small_receptor();
        let spots = detect_spots(&m, &SurfaceOptions::default());
        assert!(!spots.is_empty());
        for (k, s) in spots.iter().enumerate() {
            assert_eq!(s.id, k);
            assert!(s.anchor_atom < m.len());
            assert!((s.normal.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spots_respect_separation() {
        let m = small_receptor();
        let opts = SurfaceOptions::default();
        let spots = detect_spots(&m, &opts);
        for a in &spots {
            for b in &spots {
                if a.id != b.id {
                    let d = m.positions()[a.anchor_atom].dist(m.positions()[b.anchor_atom]);
                    assert!(
                        d >= opts.spot_separation - 1e-9,
                        "spots {}/{} at {d} < {}",
                        a.id,
                        b.id,
                        opts.spot_separation
                    );
                }
            }
        }
    }

    #[test]
    fn spot_centers_outside_anchor() {
        let m = small_receptor();
        let opts = SurfaceOptions::default();
        let centroid = m.centroid();
        for s in detect_spots(&m, &opts) {
            let anchor_d = m.positions()[s.anchor_atom].dist(centroid);
            let center_d = s.center.dist(centroid);
            assert!(center_d > anchor_d, "spot {} not pushed outward", s.id);
        }
    }

    #[test]
    fn anchors_only_restricts_elements() {
        let m = small_receptor();
        let opts = SurfaceOptions { anchors_only: true, ..Default::default() };
        for s in detect_spots(&m, &opts) {
            assert!(m.elements()[s.anchor_atom].is_spot_anchor());
        }
    }

    #[test]
    fn anchors_any_yields_at_least_as_many_spots() {
        let m = small_receptor();
        let restricted =
            detect_spots(&m, &SurfaceOptions { anchors_only: true, ..Default::default() });
        let open = detect_spots(&m, &SurfaceOptions { anchors_only: false, ..Default::default() });
        assert!(open.len() >= restricted.len());
    }

    #[test]
    fn max_spots_cap_enforced() {
        let m = small_receptor();
        let opts = SurfaceOptions { max_spots: 3, ..Default::default() };
        assert!(detect_spots(&m, &opts).len() <= 3);
    }

    #[test]
    fn bigger_receptor_more_spots() {
        // Paper §5: spot count scales with protein surface; 2BXG (8609 atoms)
        // must expose more spots than 2BSM (3264 atoms).
        let opts = SurfaceOptions::default();
        let s_small = detect_spots(&Dataset::TwoBsm.receptor(), &opts).len();
        let s_big = detect_spots(&Dataset::TwoBxg.receptor(), &opts).len();
        assert!(s_big > s_small, "2BXG {s_big} vs 2BSM {s_small}");
    }

    #[test]
    fn single_atom_molecule_degenerate_normal() {
        let m = Molecule::new("one", vec![Atom::new(Vec3::ZERO, Element::O)]);
        let spots = detect_spots(&m, &SurfaceOptions::default());
        // One atom: burial 0 = max 0 → cutoff 0, nothing strictly below it.
        assert!(spots.is_empty());
    }

    #[test]
    fn sas_single_atom_fully_exposed() {
        let m = Molecule::new("one", vec![Atom::new(Vec3::ZERO, Element::C)]);
        let e = sas_exposure(&m, 1.4, 64);
        assert_eq!(e, vec![1.0]);
    }

    #[test]
    fn sas_buried_atom_has_zero_exposure() {
        // One atom at the center of a tight cage of 26 others.
        let mut atoms = vec![Atom::new(Vec3::ZERO, Element::C)];
        for x in -1..=1 {
            for y in -1..=1 {
                for z in -1..=1 {
                    if (x, y, z) != (0, 0, 0) {
                        atoms.push(Atom::new(
                            Vec3::new(x as f64, y as f64, z as f64) * 2.0,
                            Element::C,
                        ));
                    }
                }
            }
        }
        let m = Molecule::new("cage", atoms);
        let e = sas_exposure(&m, 1.4, 128);
        assert_eq!(e[0], 0.0, "caged atom exposure {}", e[0]);
        // Cage corners remain partly exposed.
        assert!(e[1..].iter().any(|&x| x > 0.2));
    }

    #[test]
    fn sas_agrees_with_burial_count_on_globule() {
        // The two surface criteria must broadly agree: SAS-exposed atoms
        // sit at larger radius than SAS-buried ones.
        let m = small_receptor();
        let exposure = sas_exposure(&m, 1.4, 64);
        let centroid = m.centroid();
        let (mut r_exposed, mut n_exposed, mut r_buried, mut n_buried) = (0.0, 0, 0.0, 0);
        for (i, &p) in m.positions().iter().enumerate() {
            if exposure[i] > 0.25 {
                r_exposed += p.dist(centroid);
                n_exposed += 1;
            } else if exposure[i] == 0.0 {
                r_buried += p.dist(centroid);
                n_buried += 1;
            }
        }
        assert!(n_exposed > 0 && n_buried > 0);
        assert!(
            r_exposed / n_exposed as f64 > r_buried / n_buried as f64 + 2.0,
            "SAS radial separation too weak"
        );
    }

    #[test]
    fn sas_surface_atom_selection() {
        let m = small_receptor();
        let surf = surface_atoms_sas(&m, 1.4, 64, 0.2);
        assert!(!surf.is_empty());
        assert!(surf.len() < m.len());
    }

    #[test]
    fn bigger_probe_reduces_exposure() {
        let m = small_receptor();
        let fine = sas_exposure(&m, 0.5, 64);
        let coarse = sas_exposure(&m, 3.0, 64);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        assert!(sum(&coarse) < sum(&fine), "larger probe must see less surface");
    }

    #[test]
    #[should_panic]
    fn sas_zero_points_panics() {
        sas_exposure(&small_receptor(), 1.4, 0);
    }

    #[test]
    fn spot_detection_is_deterministic() {
        let m = small_receptor();
        let a = detect_spots(&m, &SurfaceOptions::default());
        let b = detect_spots(&m, &SurfaceOptions::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.anchor_atom, y.anchor_atom);
        }
    }
}
