//! Ligand-library screening — the virtual-screening product.
//!
//! §2.1: "large libraries of small molecules (ligands) are explored to
//! search for the structures which best bind to the receptor" and VS
//! provides "a ranking of chemical compounds according to the estimated
//! affinity". This module screens a whole ligand set against one receptor
//! on a simulated node and returns that ranking. Surface spots are
//! detected once (they belong to the receptor); each ligand runs the full
//! metaheuristic over them.

use crate::screen::{RunSpec, ScreenOutcome, VirtualScreen};
use gpusim::SimNode;
use metaheur::MetaheuristicParams;
use serde::{Deserialize, Serialize};
use vsched::Strategy;
use vsmol::conformation::score_cmp;
use vsmol::{surface, Conformation, Molecule, SurfaceOptions};

/// One ligand's entry in the final ranking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LibraryHit {
    /// Index into the input ligand list.
    pub ligand_index: usize,
    pub ligand_name: String,
    pub best_score: f64,
    pub best_spot: usize,
    pub evaluations: u64,
}

/// Result of a library screen.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LibraryRanking {
    /// Hits sorted best-first — the paper's affinity ranking.
    pub hits: Vec<LibraryHit>,
    /// Total virtual node time across all ligands, seconds.
    pub virtual_time: f64,
    /// Total scoring evaluations.
    pub evaluations: u64,
}

impl LibraryRanking {
    /// The `n` best ligand indices.
    pub fn top(&self, n: usize) -> Vec<usize> {
        self.hits.iter().take(n).map(|h| h.ligand_index).collect()
    }
}

/// Screen `ligands` against `receptor` on `node` under `strategy`,
/// returning the affinity ranking. Deterministic: ligand `i` uses seed
/// `seed + i`.
///
/// # Panics
/// Panics on an empty ligand list or a receptor without surface spots.
pub fn screen_library(
    receptor: &Molecule,
    ligands: &[Molecule],
    params: &MetaheuristicParams,
    node: &SimNode,
    strategy: Strategy,
    max_spots: usize,
    seed: u64,
) -> LibraryRanking {
    assert!(!ligands.is_empty(), "empty ligand library");

    let spots =
        surface::detect_spots(receptor, &SurfaceOptions { max_spots, ..Default::default() });
    let mut ranked: Vec<(Conformation, LibraryHit)> = Vec::with_capacity(ligands.len());
    let mut virtual_time = 0.0;
    let mut evaluations = 0;
    for (i, lig) in ligands.iter().enumerate() {
        let screen = VirtualScreen::from_molecules(receptor.clone(), lig.clone())
            .spots(spots.clone())
            .seed(seed.wrapping_add(i as u64))
            .build();
        let out: ScreenOutcome = screen.run(RunSpec::on_node(params, node, strategy));
        virtual_time += out.virtual_time;
        evaluations += out.evaluations;
        let hit = LibraryHit {
            ligand_index: i,
            ligand_name: lig.name.clone(),
            best_score: out.best.score,
            best_spot: out.best.spot_id,
            evaluations: out.evaluations,
        };
        ranked.push((out.best, hit));
    }
    // A NaN best score (nothing evaluated) ranks last instead of panicking.
    ranked.sort_by(|a, b| score_cmp(&a.0, &b.0));
    let hits = ranked.into_iter().map(|(_, hit)| hit).collect();
    LibraryRanking { hits, virtual_time, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;
    use vsmol::synth;

    fn ligand_set(n: usize) -> Vec<Molecule> {
        (0..n).map(|i| synth::synth_ligand(&format!("lig-{i}"), 8 + i, 100 + i as u64)).collect()
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let rec = synth::synth_receptor("r", 500, 3);
        let ligands = ligand_set(4);
        let node = platform::hertz();
        let r = screen_library(
            &rec,
            &ligands,
            &metaheur::m1(0.03),
            &node,
            Strategy::HomogeneousSplit,
            2,
            7,
        );
        assert_eq!(r.hits.len(), 4);
        for w in r.hits.windows(2) {
            assert!(w[0].best_score <= w[1].best_score);
        }
        // Every ligand appears exactly once.
        let mut idx: Vec<usize> = r.hits.iter().map(|h| h.ligand_index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        assert!(r.virtual_time > 0.0);
        assert_eq!(r.evaluations, r.hits.iter().map(|h| h.evaluations).sum::<u64>());
    }

    #[test]
    fn detecting_spots_once_changes_no_result() {
        // The loop used to detect the receptor's spots again for every
        // ligand; screens that do so must still agree with it bit for bit.
        let rec = synth::synth_receptor("r", 400, 5);
        let ligands = ligand_set(3);
        let node = platform::hertz();
        let params = metaheur::m1(0.03);
        let r = screen_library(&rec, &ligands, &params, &node, Strategy::HomogeneousSplit, 2, 13);
        for hit in &r.hits {
            let i = hit.ligand_index;
            let own = VirtualScreen::from_molecules(rec.clone(), ligands[i].clone())
                .max_spots(2)
                .seed(13 + i as u64)
                .build()
                .run(RunSpec::on_node(&params, &node, Strategy::HomogeneousSplit));
            assert_eq!(hit.best_score.to_bits(), own.best.score.to_bits(), "ligand {i}");
            assert_eq!((hit.best_spot, hit.evaluations), (own.best.spot_id, own.evaluations));
        }
    }

    #[test]
    fn top_n_truncates() {
        let rec = synth::synth_receptor("r", 400, 5);
        let ligands = ligand_set(3);
        let node = platform::hertz();
        let r = screen_library(
            &rec,
            &ligands,
            &metaheur::m1(0.03),
            &node,
            Strategy::HomogeneousSplit,
            2,
            9,
        );
        assert_eq!(r.top(2).len(), 2);
        assert_eq!(r.top(2)[0], r.hits[0].ligand_index);
        assert_eq!(r.top(99).len(), 3);
    }

    #[test]
    fn ranking_is_deterministic() {
        let rec = synth::synth_receptor("r", 400, 5);
        let ligands = ligand_set(3);
        let node = platform::hertz();
        let run = || {
            screen_library(
                &rec,
                &ligands,
                &metaheur::m1(0.03),
                &node,
                Strategy::HomogeneousSplit,
                2,
                11,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.hits.iter().map(|h| h.ligand_index).collect::<Vec<_>>(),
            b.hits.iter().map(|h| h.ligand_index).collect::<Vec<_>>()
        );
        assert_eq!(a.hits[0].best_score, b.hits[0].best_score);
    }

    #[test]
    #[should_panic]
    fn empty_library_panics() {
        let rec = synth::synth_receptor("r", 200, 1);
        let node = platform::hertz();
        screen_library(&rec, &[], &metaheur::m1(0.03), &node, Strategy::HomogeneousSplit, 2, 1);
    }
}
