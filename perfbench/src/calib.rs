//! Machine-speed calibration for the multi-threaded workloads.
//!
//! The reference box is a two-vCPU virtual machine on a shared host. For
//! minutes at a time it runs compute-bound code on two threads about 1.4x
//! slower than otherwise — wall and CPU time rise together, steal time
//! stays flat: the processor itself is slower — and whole runs fall into
//! one such spell, so no statistic over one run's samples is steady.
//!
//! A fixed piece of floating-point work on two threads is therefore timed
//! before and after every timed region that itself keeps several threads
//! busy, and the region's host times are reported at reference speed:
//! multiplied by `REFERENCE_S / calibration seconds`. Measured during a
//! slow spell: calibration 1.38x slower, `dock_pairs` 1.38–1.39x slower.
//! The calibration work is the benchmark's own code and calls nothing in
//! the repository, so no change to the repository can move it.
//! Single-threaded regions are left as measured: they reach their
//! undisturbed time within a run even during slow spells.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the calibration work takes on the reference box, undisturbed.
pub const REFERENCE_S: f64 = 0.040;

const LIGAND: usize = 48;
const RECEPTOR: usize = 512;
const ROUNDS: usize = 800;

/// A Lennard-Jones-like all-pairs sweep over cache-resident coordinates.
fn pair_sweep() -> f64 {
    let coord = |i: usize, k: usize| ((i * 37 + k * 11) % 97) as f64 * 0.31 + 1.0;
    let lig: Vec<[f64; 3]> = (0..LIGAND).map(|i| [coord(i, 0), coord(i, 1), coord(i, 2)]).collect();
    let rec: Vec<[f64; 3]> =
        (0..RECEPTOR).map(|i| [coord(i, 3) + 40.0, coord(i, 4), coord(i, 5)]).collect();
    let mut total = 0.0;
    for round in 0..ROUNDS {
        let shift = round as f64 * 1e-3;
        for l in &lig {
            let mut acc = 0.0;
            for r in &rec {
                let (dx, dy, dz) = (l[0] - r[0] + shift, l[1] - r[1], l[2] - r[2]);
                let inv = 1.0 / (dx * dx + dy * dy + dz * dz);
                let s6 = inv * inv * inv;
                acc += s6 * s6 - s6;
            }
            total += acc;
        }
    }
    black_box(total)
}

/// Seconds the calibration work takes right now: the sweep on two threads
/// at once, best of three so that a momentary stall does not count.
pub fn measure() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(pair_sweep);
                }
            });
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The machine's speed relative to the reference, from the calibrations
/// on either side of a region: below 1 when it is slow.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_relative_to_the_reference() {
        assert_eq!(speed(REFERENCE_S, REFERENCE_S), 1.0);
        assert!((speed(0.050, 0.060) - REFERENCE_S / 0.055).abs() < 1e-12);
        assert_eq!(speed(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
    }

    #[test]
    fn the_calibration_work_is_deterministic_and_takes_measurable_time() {
        assert_eq!(pair_sweep().to_bits(), pair_sweep().to_bits());
        let s = measure();
        assert!(s > 1e-3 && s < 5.0, "calibration took {s} s");
    }
}
