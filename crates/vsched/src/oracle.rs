//! The online learned cost oracle (DESIGN.md §15).
//!
//! The paper's warm-up (§3.3, Equation 1) measures each device once and
//! freezes the `Percent` split for the whole run. [`CostOracle`] replaces
//! that terminal answer with an *online* per-`(device, KernelClass)`
//! throughput model fit incrementally from the telemetry the stack already
//! produces: the warm-up measurements become the cold-start prior, and
//! every subsequent batch's `(units executed, virtual seconds)` pair
//! refines an exponentially-decayed rate estimate. Consumers re-query the
//! oracle at every seeding decision — deque seeds in the work-stealing
//! runtime, generation boundaries in the pipelined engine, campaign cost
//! plans in the service — so a device that drifts mid-run (thermal
//! throttling, the `gpu_victim` fault mode) is re-priced within a few
//! batches instead of never.
//!
//! # Fit
//!
//! Per `(device, class)` the oracle keeps one decayed throughput estimate
//! `rate` in units/second. Each observation of `units` executed in
//! `seconds` updates
//!
//! ```text
//! rate ← (1 − DECAY) · rate + DECAY · units/seconds
//! ```
//!
//! unless the relative residual `(observed − predicted) / predicted`
//! exceeds [`DRIFT_RATIO`] on a trusted fit (at least
//! [`MIN_OBSERVATIONS`] observations), in which case the
//! regime changed and the fit *re-fits*: the rate snaps to the fresh
//! observation so the very next seed reflects the new speed. Both paths
//! are pure `f64` arithmetic over virtual-time measurements in
//! observation order — same observations, same order, bit-identical
//! coefficients (the determinism contract; no wall clock, no entropy).
//!
//! # Cold start
//!
//! With zero observations the oracle answers exactly what the frozen
//! Equation 1 pipeline answers today: [`CostOracle::seed_weights`] returns
//! *literally* [`crate::warmup::shares_from_times`] of the stored warm-up
//! times — not a numerically-equivalent reformulation — so the cold-start
//! split is bit-identical to the frozen `Percent` split (pinned by the
//! `oracle_props` suite). With no prior either, it returns `None` and the
//! caller falls back to the equal split, again matching today's behavior.

use crate::warmup::shares_from_times;
use gpusim::KernelClass;
use std::collections::BTreeMap;

// Fit hyper-parameters. They favor fast drift response over smoothing:
// virtual-time measurements are noise-free, so heavy averaging buys
// nothing and slows convergence after a regime change.

/// Weight of the newest observation in the decayed rate update.
pub const DECAY: f64 = 0.25;
/// Relative residual beyond which a trusted fit is discarded and re-fit
/// from the fresh observation (drift detection).
pub const DRIFT_RATIO: f64 = 0.35;
/// Observations before a fit is trusted enough to drift-reset.
pub const MIN_OBSERVATIONS: u64 = 2;

/// One decayed throughput fit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fit {
    /// Units per virtual second.
    rate: f64,
    observations: u64,
    last_residual: f64,
    refits: u64,
}

/// Read-only view of one `(device, class)` fit for observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSnapshot {
    pub rate: f64,
    pub observations: u64,
    pub last_residual: f64,
    pub refits: u64,
}

/// Outcome of one [`CostOracle::observe`] call — the payload of the
/// `vstrace::Event::ModelUpdated` event consumers emit per observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelUpdate {
    /// Seconds the oracle predicted for this batch before seeing it.
    pub predicted: f64,
    /// Seconds actually measured (virtual time).
    pub observed: f64,
    /// Relative residual `(observed - predicted) / predicted`.
    pub residual: f64,
    /// The residual exceeded the drift threshold and the fit was reset.
    pub refit: bool,
}

/// Warm-up prior for one kernel class: the raw Equation 1 measurements
/// plus the units each device executed to produce them.
#[derive(Debug, Clone, PartialEq)]
struct Prior {
    times: Vec<f64>,
    units: Vec<f64>,
}

/// The online per-device cost model. See the module docs for the fit,
/// drift and cold-start semantics.
#[derive(Debug, Clone)]
pub struct CostOracle {
    n_devices: usize,
    priors: BTreeMap<KernelClass, Prior>,
    fits: BTreeMap<(usize, KernelClass), Fit>,
    reseeds: u64,
}

impl CostOracle {
    /// An empty oracle for `n_devices` devices.
    ///
    /// # Panics
    /// Panics if `n_devices == 0`.
    pub fn new(n_devices: usize) -> CostOracle {
        assert!(n_devices > 0, "oracle needs devices");
        CostOracle { n_devices, priors: BTreeMap::new(), fits: BTreeMap::new(), reseeds: 0 }
    }

    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Install the Equation 1 warm-up measurements as the cold-start prior
    /// for `class`: `times[d]` seconds to execute `units[d]` work units on
    /// device `d`. A later warm-up for the same class replaces the prior.
    ///
    /// # Panics
    /// Panics on length mismatch or non-finite / non-positive entries.
    pub fn observe_warmup(&mut self, class: KernelClass, times: &[f64], units: &[f64]) {
        assert_eq!(times.len(), self.n_devices, "one warm-up time per device");
        assert_eq!(units.len(), self.n_devices, "one warm-up unit count per device");
        assert!(
            times.iter().chain(units).all(|v| v.is_finite() && *v > 0.0),
            "bad warm-up prior: times {times:?}, units {units:?}"
        );
        self.priors.insert(class, Prior { times: times.to_vec(), units: units.to_vec() });
    }

    /// Whether [`Self::seed_weights`] has anything better than the equal
    /// split for `class` — a prior, or a fit on every device. Consumers
    /// use this to skip redundant warm-up phases (the cross-campaign warm
    /// start in `vscluster::service`).
    pub fn is_warm(&self, class: KernelClass) -> bool {
        self.priors.contains_key(&class)
            || (0..self.n_devices).all(|d| self.fits.contains_key(&(d, class)))
    }

    fn prior_rate(&self, device: usize, class: KernelClass) -> Option<f64> {
        self.priors.get(&class).map(|p| p.units[device] / p.times[device])
    }

    /// Ingest one measurement: device `device` executed `units` work units
    /// of `class` in `seconds` of virtual time. Returns the prediction
    /// residual and whether drift was detected (the fit reset).
    ///
    /// # Panics
    /// Panics on an out-of-range device or non-positive measurement.
    pub fn observe(
        &mut self,
        device: usize,
        class: KernelClass,
        units: f64,
        seconds: f64,
    ) -> ModelUpdate {
        assert!(device < self.n_devices, "device {device} out of range");
        assert!(
            units.is_finite() && units > 0.0 && seconds.is_finite() && seconds > 0.0,
            "bad observation: {units} units in {seconds} s"
        );
        let observed_rate = units / seconds;
        let prior = self.prior_rate(device, class);
        match self.fits.get_mut(&(device, class)) {
            None => {
                // First observation: predict from the prior when one
                // exists, and blend the prior into the initial rate so a
                // single noisy batch cannot erase the warm-up evidence.
                let predicted = prior.map_or(seconds, |r| units / r);
                let residual = (seconds - predicted) / predicted;
                let rate =
                    prior.map_or(observed_rate, |r| (1.0 - DECAY) * r + DECAY * observed_rate);
                self.fits.insert(
                    (device, class),
                    Fit { rate, observations: 1, last_residual: residual, refits: 0 },
                );
                ModelUpdate { predicted, observed: seconds, residual, refit: false }
            }
            Some(fit) => {
                let predicted = units / fit.rate;
                let residual = (seconds - predicted) / predicted;
                let refit = fit.observations >= MIN_OBSERVATIONS && residual.abs() > DRIFT_RATIO;
                if refit {
                    // Regime change: the old rate is evidence about a
                    // device that no longer exists. Snap to the fresh
                    // measurement so the next seed already reflects it.
                    fit.rate = observed_rate;
                    fit.observations = 1;
                    fit.refits += 1;
                } else {
                    fit.rate = (1.0 - DECAY) * fit.rate + DECAY * observed_rate;
                    fit.observations += 1;
                }
                fit.last_residual = residual;
                ModelUpdate { predicted, observed: seconds, residual, refit }
            }
        }
    }

    /// Predicted seconds for `units` work units of `class` on `device`:
    /// from the fit when one exists, else from the warm-up prior, else
    /// `None` (the oracle knows nothing about this regime yet).
    pub fn predict_seconds(&self, device: usize, class: KernelClass, units: f64) -> Option<f64> {
        assert!(device < self.n_devices, "device {device} out of range");
        self.fits
            .get(&(device, class))
            .map(|f| f.rate)
            .or_else(|| self.prior_rate(device, class))
            .map(|rate| units / rate)
    }

    /// Per-device deque-seeding weights for `class` — the oracle's answer
    /// to "how should the next batch split".
    ///
    /// - Every device fitted: weights are the fitted rates (units/second),
    ///   so shares track *current* observed throughput.
    /// - No fits but a warm-up prior: returns **exactly**
    ///   [`shares_from_times`] of the prior times — the bit-identical
    ///   Equation 1 cold-start split (see the module docs).
    /// - Neither: `None`; the caller keeps the equal split.
    pub fn seed_weights(&mut self, class: KernelClass) -> Option<Vec<f64>> {
        self.reseeds += 1;
        let fitted: Vec<f64> =
            (0..self.n_devices).map_while(|d| self.fits.get(&(d, class)).map(|f| f.rate)).collect();
        if fitted.len() == self.n_devices {
            return Some(fitted);
        }
        self.priors.get(&class).map(|p| shares_from_times(&p.times))
    }

    /// How many times [`Self::seed_weights`] was consulted.
    pub fn reseeds(&self) -> u64 {
        self.reseeds
    }

    /// Observations ingested for one `(device, class)` pair.
    pub fn observations(&self, device: usize, class: KernelClass) -> u64 {
        self.fits.get(&(device, class)).map_or(0, |f| f.observations)
    }

    /// Every fit, in deterministic `(device, class)` order.
    pub fn fits(&self) -> Vec<((usize, KernelClass), FitSnapshot)> {
        self.fits
            .iter()
            .map(|(&k, f)| {
                (
                    k,
                    FitSnapshot {
                        rate: f.rate,
                        observations: f.observations,
                        last_residual: f.last_residual,
                        refits: f.refits,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: KernelClass = KernelClass::PairSweep;

    fn oracle(n: usize) -> CostOracle {
        CostOracle::new(n)
    }

    #[test]
    fn empty_oracle_seeds_nothing() {
        let mut o = oracle(2);
        assert!(o.seed_weights(PS).is_none());
        assert!(!o.is_warm(PS));
        assert!(o.predict_seconds(0, PS, 100.0).is_none());
        assert_eq!(o.reseeds(), 1, "a None answer is still a seed decision");
    }

    #[test]
    fn cold_start_is_exactly_equation_one() {
        let mut o = oracle(3);
        let times = [0.8, 1.9, 3.3];
        o.observe_warmup(PS, &times, &[100.0, 100.0, 100.0]);
        let w = o.seed_weights(PS).unwrap();
        let eq1 = shares_from_times(&times);
        for (a, b) in w.iter().zip(&eq1) {
            assert_eq!(a.to_bits(), b.to_bits(), "cold start must be bitwise Eq. 1");
        }
    }

    #[test]
    fn prior_predicts_and_first_observation_blends() {
        let mut o = oracle(1);
        // 100 units in 2 s → prior rate 50 units/s.
        o.observe_warmup(PS, &[2.0], &[100.0]);
        assert_eq!(o.predict_seconds(0, PS, 200.0), Some(4.0));
        let u = o.observe(0, PS, 200.0, 4.0);
        assert_eq!(u.predicted, 4.0);
        assert_eq!(u.residual, 0.0);
        assert!(!u.refit);
        assert_eq!(o.observations(0, PS), 1);
    }

    #[test]
    fn fitted_weights_track_observed_rates() {
        let mut o = oracle(2);
        for _ in 0..8 {
            o.observe(0, PS, 300.0, 1.0); // 300 units/s
            o.observe(1, PS, 100.0, 1.0); // 100 units/s
        }
        let w = o.seed_weights(PS).unwrap();
        let ratio = w[0] / w[1];
        assert!((ratio - 3.0).abs() < 0.05, "rate ratio {ratio} should be ~3");
    }

    #[test]
    fn drift_triggers_refit_and_reprices_immediately() {
        let mut o = oracle(1);
        for _ in 0..4 {
            o.observe(0, PS, 400.0, 1.0); // 400 units/s steady
        }
        // Device throttles 4x: observed seconds 4x the prediction.
        let u = o.observe(0, PS, 400.0, 4.0);
        assert!(u.refit, "4x drift must reset the fit: {u:?}");
        assert!(u.residual > 2.0, "residual {}", u.residual);
        // The very next prediction reflects the new regime exactly.
        assert_eq!(o.predict_seconds(0, PS, 400.0), Some(4.0));
        assert_eq!(o.fits()[0].1.refits, 1);
        // A fresh 1-observation fit is not trusted to drift again until
        // min_observations confirm it...
        let u = o.observe(0, PS, 400.0, 4.0);
        assert!(!u.refit, "one-observation fits must confirm before re-drifting");
        // ...after which recovery drifts back just as fast.
        let u = o.observe(0, PS, 400.0, 1.0);
        assert!(u.refit, "recovery is drift too");
        assert_eq!(o.predict_seconds(0, PS, 400.0), Some(1.0));
        assert_eq!(o.fits()[0].1.refits, 2);
    }

    #[test]
    fn small_residuals_decay_not_refit() {
        let mut o = oracle(1);
        o.observe(0, PS, 100.0, 1.0);
        o.observe(0, PS, 100.0, 1.0);
        let u = o.observe(0, PS, 100.0, 1.1); // ~10% residual, under threshold
        assert!(!u.refit);
        assert_eq!(o.observations(0, PS), 3);
    }

    #[test]
    fn classes_are_independent() {
        let mut o = oracle(1);
        o.observe(0, KernelClass::PairSweep, 100.0, 1.0);
        assert!(o.predict_seconds(0, KernelClass::GridInterp, 10.0).is_none());
        o.observe_warmup(KernelClass::GridInterp, &[0.5], &[10.0]);
        assert_eq!(o.predict_seconds(0, KernelClass::GridInterp, 10.0), Some(0.5));
        // PairSweep fit untouched.
        assert_eq!(o.predict_seconds(0, KernelClass::PairSweep, 100.0), Some(1.0));
    }

    #[test]
    fn partial_fits_fall_back_to_prior() {
        let mut o = oracle(2);
        o.observe_warmup(PS, &[1.0, 2.0], &[100.0, 100.0]);
        o.observe(0, PS, 100.0, 1.0); // only device 0 fitted
        let w = o.seed_weights(PS).unwrap();
        let eq1 = shares_from_times(&[1.0, 2.0]);
        assert_eq!(w[0].to_bits(), eq1[0].to_bits(), "partial fits must not mix sources");
        assert_eq!(w[1].to_bits(), eq1[1].to_bits());
    }

    #[test]
    #[should_panic]
    fn zero_second_observation_rejected() {
        oracle(1).observe(0, PS, 10.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_device_rejected() {
        oracle(1).observe(1, PS, 10.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn warmup_prior_length_mismatch_rejected() {
        oracle(2).observe_warmup(PS, &[1.0], &[1.0]);
    }
}
