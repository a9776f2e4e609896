//! Metaheuristic configuration — the template functions of Algorithm 1 as
//! data.

use serde::{Deserialize, Serialize};

/// `Select(S, Ssel)` — how parents are chosen from the population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectStrategy {
    /// Keep the best `fraction` of the population as the parent pool
    /// ("Elements are selected for combination from the best ones", §4.2.1).
    TruncationBest { fraction: f64 },
    /// k-way tournament selection (extension beyond the paper's suite).
    Tournament { k: usize },
}

/// `Combine(Ssel, Scom)` — how new elements are built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Combine {
    /// Two parents per child from `Select`, uniform crossover, then a
    /// mutation with probability `mutation_prob`.
    #[default]
    Crossover,
    /// Particle swarm (the distributed family of §2.2): the population is a
    /// swarm, and each particle's next position is a velocity step pulled
    /// toward its own best and the spot's best (`pop[0]`), with
    /// `max_shift` / `max_angle` as the speed clamps. `Select` and
    /// `mutation_prob` are unused.
    Swarm,
}

/// `Improve(Scom)` — the local-search operator applied to new elements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ImproveStrategy {
    /// No improvement (M1).
    None,
    /// First-improvement hill climbing: `steps` perturbations, each kept
    /// only if it scores better ("local search in the neighborhood of each
    /// element", §4.2.1).
    HillClimb { steps: usize },
    /// Simulated annealing walk (extension): worse moves accepted with
    /// probability `exp(-Δ/T)`, `T` cooled geometrically per step.
    SimulatedAnnealing { steps: usize, t0: f64, cooling: f64 },
    /// Lamarckian gradient descent (extension; AutoDock's approach, the
    /// paper's ref \[24\]): each step moves `step_size` Å along the net force
    /// and `angle_step` radians about the net torque, keeping improvements.
    /// Falls back to hill climbing on evaluators without gradient support.
    Lamarckian { steps: usize, step_size: f64, angle_step: f64 },
    /// Tabu search (the neighborhood family of §2.2): each improved element
    /// is a walker that scores `neighbors` perturbations per step and moves
    /// to the best one not near a recently visited pose — even when it is
    /// worse — unless it beats the walker's best (aspiration); a fully tabu
    /// neighborhood yields its least-bad member. The element becomes the
    /// walker's best pose.
    Tabu { steps: usize, neighbors: usize },
}

impl ImproveStrategy {
    /// Scoring evaluations one improved element costs. Lamarckian steps
    /// cost two each: the gradient evaluation plus the trial-point score;
    /// Tabu steps cost one per neighbor.
    pub fn evals_per_element(&self) -> usize {
        match *self {
            ImproveStrategy::None => 0,
            ImproveStrategy::HillClimb { steps } => steps,
            ImproveStrategy::SimulatedAnnealing { steps, .. } => steps,
            ImproveStrategy::Lamarckian { steps, .. } => 2 * steps,
            ImproveStrategy::Tabu { steps, neighbors } => steps * neighbors,
        }
    }
}

/// `End(S)` — when the metaheuristic stops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EndCondition {
    /// Fixed number of generations.
    Generations(usize),
    /// Stop each spot when *its* best has not improved (by more than
    /// 1e-12) for `patience` consecutive generations, with a hard cap of
    /// `max` generations. Spots are independent searches, so staleness is
    /// judged per spot under every scheduler — a global check would need a
    /// barrier across spots — and spots may stop at different generations:
    /// `generations_run` is the slowest spot's count, and the histories
    /// carry a stopped spot's last checkpoint forward.
    Convergence { patience: usize, max: usize },
}

impl EndCondition {
    /// Upper bound on generations.
    pub fn max_generations(&self) -> usize {
        match *self {
            EndCondition::Generations(g) => g,
            EndCondition::Convergence { max, .. } => max,
        }
    }
}

/// A fully parameterized metaheuristic: one instantiation of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaheuristicParams {
    /// Display name ("M1" ... "M4" for the paper suite).
    pub name: String,
    /// Individuals per spot in the reference set `S` (Table 4 column 2).
    pub population_per_spot: usize,
    /// Fraction of `S` eligible as parents (Table 4 column 3).
    pub select: SelectStrategy,
    /// New elements generated per spot per generation by `Combine`.
    pub offspring_per_spot: usize,
    /// The variation operator.
    pub combine: Combine,
    /// Fraction of new elements passed to `Improve` (Table 4 column 4).
    pub improve_fraction: f64,
    /// The local-search operator.
    pub improve: ImproveStrategy,
    /// Mutation probability applied to each offspring after crossover.
    pub mutation_prob: f64,
    /// Local move sizes: translation (Å) and rotation (radians).
    pub max_shift: f64,
    pub max_angle: f64,
    /// Termination.
    pub end: EndCondition,
    /// Neighborhood mode (M4): skip Select/Combine/Include entirely — one
    /// pass of Improve over a large initial set ("M4 applies only one
    /// step, and so there is no selection of elements after improving").
    pub single_pass: bool,
}

impl MetaheuristicParams {
    /// Scoring evaluations this configuration performs per spot: exact
    /// under `EndCondition::Generations` and `single_pass` (the engine's
    /// count does not depend on the scores), an upper bound under
    /// `EndCondition::Convergence`, where a spot may stop before `max`.
    pub fn evals_per_spot(&self) -> u64 {
        let init = self.population_per_spot as u64;
        if self.single_pass {
            let improved = improved_count(self.population_per_spot, self.improve_fraction) as u64;
            return init + improved * self.improve.evals_per_element() as u64;
        }
        let per_gen = self.offspring_per_spot as u64
            + improved_count(self.offspring_per_spot, self.improve_fraction) as u64
                * self.improve.evals_per_element() as u64;
        init + self.end.max_generations() as u64 * per_gen
    }

    /// Sanity-check invariants; call after hand-building configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.population_per_spot == 0 {
            return Err("population_per_spot must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.improve_fraction) {
            return Err("improve_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.mutation_prob) {
            return Err("mutation_prob must be in [0,1]".into());
        }
        if let SelectStrategy::TruncationBest { fraction } = self.select {
            if !(0.0..=1.0).contains(&fraction) || fraction == 0.0 {
                return Err("selection fraction must be in (0,1]".into());
            }
        }
        if let SelectStrategy::Tournament { k } = self.select {
            if k == 0 {
                return Err("tournament k must be > 0".into());
            }
        }
        if !self.single_pass && self.offspring_per_spot == 0 {
            return Err("offspring_per_spot must be > 0 for population metaheuristics".into());
        }
        if self.max_shift < 0.0 || self.max_angle < 0.0 {
            return Err("move sizes must be non-negative".into());
        }
        if self.combine == Combine::Swarm
            && (self.single_pass || self.offspring_per_spot != self.population_per_spot)
        {
            return Err("a swarm breeds one proposal per particle every generation".into());
        }
        if let ImproveStrategy::Tabu { steps: 0, .. } | ImproveStrategy::Tabu { neighbors: 0, .. } =
            self.improve
        {
            return Err("tabu steps and neighbors must be > 0".into());
        }
        Ok(())
    }
}

/// How many of `n` elements are improved at `fraction` (rounded, but at
/// least 1 when the fraction is nonzero — matching "20% of elements" in
/// Table 4 staying meaningful for small populations).
pub fn improved_count(n: usize, fraction: f64) -> usize {
    if fraction <= 0.0 || n == 0 {
        0
    } else {
        (((n as f64) * fraction).round() as usize).clamp(1, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MetaheuristicParams {
        MetaheuristicParams {
            name: "test".into(),
            population_per_spot: 64,
            select: SelectStrategy::TruncationBest { fraction: 1.0 },
            offspring_per_spot: 64,
            combine: Combine::Crossover,
            improve_fraction: 0.0,
            improve: ImproveStrategy::None,
            mutation_prob: 0.1,
            max_shift: 1.0,
            max_angle: 0.3,
            end: EndCondition::Generations(10),
            single_pass: false,
        }
    }

    #[test]
    fn evals_counting_no_improvement() {
        // init 64 + 10 gens × 64 offspring.
        assert_eq!(base().evals_per_spot(), 64 + 10 * 64);
    }

    #[test]
    fn evals_counting_with_hill_climb() {
        let p = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::HillClimb { steps: 2 },
            ..base()
        };
        // init 64 + 10 × (64 + 64×2).
        assert_eq!(p.evals_per_spot(), 64 + 10 * (64 + 128));
    }

    #[test]
    fn evals_counting_partial_improvement() {
        let p = MetaheuristicParams {
            improve_fraction: 0.2,
            improve: ImproveStrategy::HillClimb { steps: 3 },
            ..base()
        };
        // 20% of 64 ≈ 13 improved.
        assert_eq!(p.evals_per_spot(), 64 + 10 * (64 + 13 * 3));
    }

    #[test]
    fn evals_counting_single_pass() {
        let p = MetaheuristicParams {
            population_per_spot: 1024,
            improve_fraction: 1.0,
            improve: ImproveStrategy::HillClimb { steps: 100 },
            single_pass: true,
            ..base()
        };
        assert_eq!(p.evals_per_spot(), 1024 + 1024 * 100);
    }

    #[test]
    fn improved_count_rounding() {
        assert_eq!(improved_count(64, 0.2), 13);
        assert_eq!(improved_count(64, 1.0), 64);
        assert_eq!(improved_count(64, 0.0), 0);
        assert_eq!(improved_count(0, 0.5), 0);
        // Nonzero fraction on a tiny set still improves one element.
        assert_eq!(improved_count(3, 0.01), 1);
    }

    #[test]
    fn validation_accepts_base() {
        assert!(base().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(MetaheuristicParams { population_per_spot: 0, ..base() }.validate().is_err());
        assert!(MetaheuristicParams { improve_fraction: 1.5, ..base() }.validate().is_err());
        assert!(MetaheuristicParams { mutation_prob: -0.1, ..base() }.validate().is_err());
        assert!(MetaheuristicParams {
            select: SelectStrategy::TruncationBest { fraction: 0.0 },
            ..base()
        }
        .validate()
        .is_err());
        assert!(MetaheuristicParams { select: SelectStrategy::Tournament { k: 0 }, ..base() }
            .validate()
            .is_err());
        assert!(MetaheuristicParams { offspring_per_spot: 0, ..base() }.validate().is_err());
        assert!(MetaheuristicParams { max_shift: -1.0, ..base() }.validate().is_err());
    }

    #[test]
    fn validation_rejects_swarm_without_one_proposal_per_particle() {
        let swarm = MetaheuristicParams { combine: Combine::Swarm, ..base() };
        assert!(swarm.validate().is_ok());
        assert!(MetaheuristicParams { offspring_per_spot: 32, ..swarm.clone() }
            .validate()
            .is_err());
        assert!(MetaheuristicParams { single_pass: true, ..swarm }.validate().is_err());
    }

    #[test]
    fn validation_rejects_empty_tabu_steps() {
        let tabu = |steps, neighbors| MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::Tabu { steps, neighbors },
            ..base()
        };
        assert!(tabu(3, 4).validate().is_ok());
        assert!(tabu(0, 4).validate().is_err());
        assert!(tabu(3, 0).validate().is_err());
    }

    #[test]
    fn single_pass_allows_zero_offspring() {
        let p = MetaheuristicParams { single_pass: true, offspring_per_spot: 0, ..base() };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn end_condition_max_generations() {
        assert_eq!(EndCondition::Generations(7).max_generations(), 7);
        assert_eq!(EndCondition::Convergence { patience: 3, max: 50 }.max_generations(), 50);
    }

    #[test]
    fn improve_evals_per_element() {
        assert_eq!(ImproveStrategy::None.evals_per_element(), 0);
        assert_eq!(ImproveStrategy::HillClimb { steps: 5 }.evals_per_element(), 5);
        assert_eq!(
            ImproveStrategy::SimulatedAnnealing { steps: 9, t0: 1.0, cooling: 0.9 }
                .evals_per_element(),
            9
        );
        assert_eq!(ImproveStrategy::Tabu { steps: 6, neighbors: 8 }.evals_per_element(), 48);
    }
}
