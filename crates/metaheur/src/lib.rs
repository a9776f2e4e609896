//! # metaheur — parameterized metaheuristics for virtual screening
//!
//! Implements the paper's Algorithm 1, the generic template shared by
//! population-based metaheuristics:
//!
//! ```text
//! Initialize(S)
//! while no End(S) do
//!     Select(S, Ssel)
//!     Combine(Ssel, Scom)
//!     Improve(Scom)
//!     Include(Scom, S)
//! end while
//! ```
//!
//! Each template function is a configuration point ([`params`]); providing
//! different implementations yields different metaheuristics. The paper's
//! four benchmark configurations (Table 4) are in [`suite`]:
//!
//! | | population/spot | selected | improved |
//! |---|---|---|---|
//! | M1 (genetic algorithm) | 64 | 100% | 0% |
//! | M2 (scatter-search-like, intensive LS) | 64 | 100% | 100% |
//! | M3 (light LS) | 64 | 100% | 20% |
//! | M4 (neighborhood: pure local search) | 1024 | n/a | 100% |
//!
//! The engine ([`engine`]) maintains one independent population per surface
//! spot and batches every scoring request across spots — the batch stream
//! is exactly what the device schedulers in `vsched` partition across
//! heterogeneous GPUs. Scoring goes through the [`evaluator::BatchEvaluator`]
//! abstraction so the same engine runs against the real Lennard-Jones
//! scorer, a multithreaded CPU pool, or a simulated device.
//!
//! The template is implemented once, as a per-spot state machine in
//! [`engine`], and scheduled two ways (DESIGN.md §12): [`run`],
//! [`run_seeded`] and [`run_traced`] step every spot in lockstep on the
//! calling thread, uncharged; [`run_exec`] either charges that loop's host
//! phases on the evaluator's virtual clocks ([`EngineExec::Lockstep`]) or
//! runs the machine as a ring of stage threads that overlaps variation
//! with scoring ([`EngineExec::Pipelined`]). Whichever runs, a spot's
//! search is the same, bit for bit.
#![forbid(unsafe_code)]

pub mod diversity;
pub mod engine;
pub mod evaluator;
pub mod hybrid;
pub mod params;
pub mod pipeline;
pub mod pso;
pub mod suite;
pub mod tabu;
pub mod tuning;

mod sync;

pub use engine::{run, run_seeded, run_traced, RunResult};
pub use evaluator::{BatchEvaluator, CpuEvaluator, RuggedEvaluator, SyntheticEvaluator};
pub use hybrid::{run_memetic, MemeticParams};
pub use params::{EndCondition, ImproveStrategy, MetaheuristicParams, SelectStrategy};
pub use pipeline::{run_exec, EngineExec, HostCosts};
pub use pso::{run_pso, PsoParams};
pub use suite::{m1, m2, m3, m4, paper_suite};
pub use tabu::{run_tabu, run_tabu_from, TabuParams};
pub use tuning::{tune, TuneReport, TuningGrid};
