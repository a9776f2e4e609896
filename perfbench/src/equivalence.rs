//! Tests that the traced run measures the same program as the end-to-end
//! run, and the smoke-size suite that keeps the harness from rotting.

use crate::spans::Recorder;
use crate::traced::{self, hand_run};
use crate::workloads::{
    self, config, dock_screen, library_loop, synth_library, Cfg, Complex, DockCfg, Workload,
};
use vscreen::platform;
use vsscore::Kernel;
use vstrace::Trace;

/// The kernel, strategy and execution mode of every workload that docks,
/// on a small complex.
fn dock_configurations() -> Vec<(&'static str, DockCfg)> {
    let mut out = Vec::new();
    for w in [Workload::DockPairs, Workload::DockGrid, Workload::LibraryGrid] {
        let cfg = match config(w, true) {
            Cfg::Dock(c) => c,
            Cfg::Library(l) => DockCfg {
                complex: Complex::Synthetic { receptor_atoms: 600, ligand_atoms: 12 },
                kernel: l.kernel,
                params: l.params,
                spots: l.spots,
                strategy: l.strategy,
                exec: None,
                regions: 1,
            },
            Cfg::Campaign(_) => unreachable!("the campaign does not dock"),
        };
        out.push((w.name(), cfg));
    }
    out
}

#[test]
fn hand_assembled_stack_computes_what_virtual_screen_run_computes() {
    let node = platform::hertz();
    for (name, cfg) in dock_configurations() {
        let screen = dock_screen(&cfg, 77);
        let reference = screen.run(cfg.spec(&node));
        let hand = hand_run(
            &mut Recorder::new(),
            &cfg.params,
            screen.spots(),
            &screen.scorer(),
            &node,
            cfg.strategy,
            cfg.exec,
            77,
        );
        assert_eq!(hand.result.best.score.to_bits(), reference.best.score.to_bits(), "{name}");
        assert_eq!(hand.result.best.pose, reference.best.pose, "{name}");
        assert_eq!(hand.result.evaluations, reference.evaluations, "{name}");
        assert_eq!(hand.result.evaluations, cfg.budget(), "{name}");
        assert_eq!(hand.virtual_time.to_bits(), reference.virtual_time.to_bits(), "{name}");
    }
}

#[test]
fn library_loop_is_screen_library_when_run_with_the_default_kernel() {
    let Cfg::Library(mut cfg) = config(Workload::LibraryGrid, true) else { panic!() };
    cfg.kernel = Kernel::default();
    cfg.ligands = 4;
    let node = platform::hertz();
    let receptor = cfg.receptor();
    let ligands = synth_library(cfg.ligands, 9);
    let off = Trace::disabled();
    let ours = library_loop(&cfg, &receptor, &ligands, &node, 9, &off, &mut Recorder::disabled());
    let theirs = vscreen::library::screen_library(
        &receptor,
        &ligands,
        &cfg.params,
        &node,
        cfg.strategy,
        cfg.spots,
        9,
    );
    assert_eq!(ours.hits.len(), theirs.hits.len());
    for (a, b) in ours.hits.iter().zip(&theirs.hits) {
        assert_eq!(a.ligand, b.ligand_index);
        assert_eq!(a.best.score.to_bits(), b.best_score.to_bits());
        assert_eq!(a.best.spot_id, b.best_spot);
    }
    assert_eq!(ours.evaluations, theirs.evaluations);
    assert_eq!(ours.virtual_time.to_bits(), theirs.virtual_time.to_bits());
}

#[test]
fn smoke_repetitions_pass_their_checks_and_follow_the_seed() {
    for w in Workload::ALL {
        let (a, b, c) =
            (workloads::rep(w, 3, true), workloads::rep(w, 3, true), workloads::rep(w, 4, true));
        for r in [&a, &b, &c] {
            assert_eq!(r.checks.failed, 0, "{}: {:?}", w.name(), r.checks.messages);
            assert!(r.ops > 0 && r.peak_rss_mb > 0.0 && !r.wall_s.is_empty(), "{}", w.name());
        }
        // The same seed reproduces every exact result; another seed changes
        // the inputs and the results, and still passes every check.
        assert_eq!(a.best_bits, b.best_bits, "{}", w.name());
        assert_eq!(a.evaluations, b.evaluations, "{}", w.name());
        assert_eq!(a.virtual_makespan_s.to_bits(), b.virtual_makespan_s.to_bits(), "{}", w.name());
        assert_eq!(a.interactive_p99_virtual_s, b.interactive_p99_virtual_s, "{}", w.name());
        assert_ne!(a.best_bits, c.best_bits, "{}: the seed must matter", w.name());
    }
}

#[test]
fn traced_smoke_runs_emit_every_per_layer_metric() {
    for w in Workload::ALL {
        let t = traced::run(w, 3, true);
        assert_eq!(t.checks.failed, 0, "{}: {:?}", w.name(), t.checks.messages);
        for (name, value) in t.layers.iter() {
            assert!(value.is_finite(), "{} {name} = {value}", w.name());
        }
        let get = |name: &str| t.layers.get(name);
        let closure = get("trace.closure_frac");
        assert!((0.9..=1.0 + 1e-9).contains(&closure), "{} closure {closure}", w.name());
        assert!(get("trace.spans") >= 5.0 && get("vstrace.emit_ns_per_event") > 0.0);
        if w == Workload::CampaignBurst {
            // Pure control plane: no scoring span, no engine span.
            assert!(get("vscluster.drain_s") > 0.0 && get("self.vscluster_s") > 0.0);
            assert_eq!(get("self.vsscore_s") + get("self.metaheur_s") + get("self.vsmol_s"), 0.0);
            assert!(t.recorder.spans().iter().all(|s| s.layer != "vsscore"));
        } else {
            assert!(
                get("metaheur.evaluate_s") > 0.0
                    && get("metaheur.run_s") >= get("metaheur.evaluate_s")
            );
            assert!(
                get("vsscore.serial_us_per_eval") > 0.0 && get("vsched.device_us_per_eval") > 0.0
            );
            assert!(get("gpusim.virtual_makespan_s") > 0.0 && get("vscluster.drain_s") == 0.0);
            assert!(
                get("vsmol.pdb_parse_atoms_per_s") > 0.0
                    && get("vsmol.sdf_parse_atoms_per_s") > 0.0
            );
        }
        if w == Workload::LibraryGrid {
            let Cfg::Library(cfg) = config(w, true) else { panic!() };
            assert_eq!(get("vsscore.scorer_build_calls"), cfg.ligands as f64);
            assert_eq!(get("vsched.evaluator_new_calls"), cfg.ligands as f64);
        }
        let doc = t.recorder.chrome_trace(w.name(), 0).render();
        let parsed = vstrace::json::parse(&doc).expect("the span file is valid JSON");
        let events = crate::json::arr(&parsed, "traceEvents").unwrap();
        assert_eq!(events.len(), t.recorder.spans().len());
    }
}
