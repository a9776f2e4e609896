//! # vsscore — scoring functions and batch kernels
//!
//! The scoring function measures the strength of the non-covalent
//! interaction between receptor and ligand; the paper's VS technique "uses
//! a scoring function based on the Lennard-Jones potential" (§3.1), the
//! most time-consuming kernel in virtual screening (up to 80% of execution
//! time in molecular dynamics, §2.1).
//!
//! This crate provides:
//!
//! - [`lj`] — the Lennard-Jones pair potential over flattened
//!   structure-of-arrays layouts, in the *naive* all-pairs reference
//!   kernel;
//! - [`run`] — the *element-run* receptor layout ([`run::RunFrame`]:
//!   receptor permuted once so same-element atoms are contiguous) and the
//!   **fused** single-pass kernel built on it ([`run::fused_run`], the
//!   default scoring path), which accumulates LJ + Coulomb + run-gated
//!   H-bond in one receptor sweep, tiled within each run (the CPU analog
//!   of the paper's CUDA shared-memory tiling, §5: "Our CUDA
//!   implementations take advantage of data-locality through tiling
//!   implementation via shared memory"), four receptor atoms per step —
//!   the pair math written once over a lane type (`lanes`, crate-private:
//!   `f64`, portable `[f64; 4]`, 256-bit on AVX2 hosts) with the same bits
//!   from each;
//! - [`grid_potential`] — precomputed potential grids scored by trilinear
//!   interpolation, built atom-major four lattice nodes per step through
//!   the same lane types, the corners blended in eight `f32` lanes
//!   (`lanes::F32x8`);
//! - [`coulomb`] — the electrostatic term (paper §2.1 names Coulomb as the
//!   other relevant non-bonded potential; §6 lists richer scoring functions
//!   as future work);
//! - [`scorer`] — the [`scorer::Scorer`] facade that prepares a
//!   receptor/ligand pair once and scores arbitrary poses; all batch work
//!   goes through the single [`scorer::Scorer::score_batch`] entry point,
//!   parameterized by an [`scorer::Exec`] policy (serial or pooled);
//! - [`pool`] — the persistent [`pool::CpuPool`] worker team behind the
//!   multithreaded batch path: threads are spawned once and reused across
//!   batches, each with its own [`scorer::PoseScratch`], so steady-state
//!   batch scoring allocates nothing and spawns nothing.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod coulomb;
pub mod forces;
pub mod grid_potential;
pub mod hbond;
pub(crate) mod lanes;
pub mod lj;
pub mod pool;
pub mod run;
pub mod scorer;
pub(crate) mod sync;

pub use forces::RigidGradient;
pub use grid_potential::{
    exact_cutoff_score, grid_cache_clear, grid_cache_stats, GridBuildStats, GridCacheStats,
    GridField, GridOptions, GridScorer, MAX_NODE_POTENTIAL,
};
pub use pool::{host_threads, shared_pool, CpuPool};
pub use run::RunFrame;
pub use scorer::{Exec, Kernel, PoseScratch, ScoreBatch, Scorer, ScorerOptions, ScoringModel};

/// Number of atom-pair interactions one pose evaluation computes — the
/// workload unit the GPU cost model in `gpusim` charges for.
pub fn pairs_per_eval(ligand_atoms: usize, receptor_atoms: usize) -> u64 {
    ligand_atoms as u64 * receptor_atoms as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn pairs_per_eval_multiplies() {
        assert_eq!(super::pairs_per_eval(45, 3264), 45 * 3264);
        assert_eq!(super::pairs_per_eval(0, 100), 0);
    }
}
