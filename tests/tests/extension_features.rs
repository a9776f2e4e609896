//! Integration coverage for the extension features: SDF libraries, the
//! extension parameter sets on real scoring, timelines, energy accounting
//! and the machine-readable report.

use vscreen::prelude::*;

#[test]
fn sdf_library_roundtrips_into_campaign() {
    // Build a library, serialize to SDF, parse it back, screen it.
    let lib: Vec<Molecule> = (0..3)
        .map(|i| vsmol::synth::synth_ligand(&format!("sdf-lig-{i}"), 10 + i, 900 + i as u64))
        .collect();
    let text = vsmol::sdf::write(&lib);
    let parsed = vsmol::sdf::parse(&text, "lib").expect("valid SDF");
    assert_eq!(parsed.len(), 3);

    let receptor = vsmol::synth::synth_receptor("r", 400, 4);
    let node = platform::hertz();
    let ranking = vscreen::library::screen_library(
        &receptor,
        &parsed,
        &metaheur::m1(0.03),
        &node,
        Strategy::HomogeneousSplit,
        2,
        5,
    );
    assert_eq!(ranking.hits.len(), 3);
    assert!(ranking.hits[0].ligand_name.starts_with("sdf-lig-"));
}

/// `params` on the Hertz node through the stage ring, checked against the
/// uncharged host run of the same search.
fn on_hertz_pipelined(screen: &VirtualScreen, params: &MetaheuristicParams) -> ScreenOutcome {
    let node = platform::hertz();
    let spec = RunSpec::on_node(params, &node, Strategy::HomogeneousSplit)
        .exec(EngineExec::Pipelined { depth: 2 });
    let out = screen.run(spec);
    let host = screen.run(RunSpec::cpu(params, 4));
    assert_eq!(out.best.score.to_bits(), host.best.score.to_bits(), "{}", params.name);
    assert_eq!(out.evaluations, params.evals_per_spot() * screen.spots().len() as u64);
    assert!(out.virtual_time > 0.0, "{}", params.name);
    out
}

#[test]
fn pso_and_tabu_run_on_real_scorer() {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(2).seed(6).build();
    let r_pso = on_hertz_pipelined(&screen, &metaheur::pso(16, 8));
    assert!(r_pso.best.score < 0.0, "PSO found no binding: {}", r_pso.best.score);
    let r_tabu = on_hertz_pipelined(&screen, &metaheur::tabu(15, 8));
    assert!(r_tabu.best.score < 0.0, "Tabu found no binding: {}", r_tabu.best.score);
}

#[test]
fn memetic_hybrid_on_real_scorer() {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(2).seed(8).build();
    let r = on_hertz_pipelined(&screen, &metaheur::memetic(2, 6, 8));
    assert!(r.best.score < 0.0);
}

#[test]
fn lamarckian_improves_real_docking() {
    // Gradient descent on the real LJ landscape must not lose to the same
    // budget spent on random perturbation.
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(2).seed(9).build();
    let lam = metaheur::MetaheuristicParams {
        name: "M3-lam".into(),
        improve: metaheur::ImproveStrategy::Lamarckian {
            steps: 1,
            step_size: 0.3,
            angle_step: 0.08,
        },
        improve_fraction: 1.0,
        ..metaheur::m3(0.1)
    };
    let out = screen.run(RunSpec::cpu(&lam, 4));
    assert!(out.best.score < 0.0);
    assert_eq!(out.evaluations, lam.evals_per_spot() as u64 * 2);
}

#[test]
fn energy_and_timeline_cohere_with_times() {
    use gpusim::{Timeline, WorkProfile};
    use vsched::{schedule_trace, schedule_trace_with, ReplayOptions};
    let node = platform::hertz();
    let trace: Vec<u64> = std::iter::repeat_n(64 * 32, 20).collect();
    let pairs = 45 * 3264;
    let strat = Strategy::HomogeneousSplit;
    let plain = schedule_trace(node.cpu(), node.gpus(), &trace, pairs, strat);
    let tl = Timeline::new();
    let tl_report = schedule_trace_with(
        node.cpu(),
        node.gpus(),
        &trace,
        WorkProfile::pairs(pairs),
        strat,
        ReplayOptions { timeline: Some(&tl), ..Default::default() },
    );
    assert!((plain.makespan - tl_report.makespan).abs() < 1e-12);
    assert!((plain.energy_joules - tl_report.energy_joules).abs() < 1e-9);
    // Timeline idle + busy = makespan per device.
    for g in node.gpus() {
        let busy: f64 =
            tl.segments().iter().filter(|s| s.device == g.id()).map(|s| s.end - s.start).sum();
        assert!((busy + tl.idle_time(g.id()) - tl.makespan()).abs() < 1e-9);
    }
}

#[test]
fn full_report_reflects_paper_shape() {
    let r = vscreen::report::full_report(experiment::ExperimentScale::Full);
    // Hertz tables carry larger heterogeneous gains than Jupiter tables.
    let gain = |system: &str| -> f64 {
        r.tables
            .iter()
            .filter(|t| t.system == system)
            .flat_map(|t| t.rows.iter())
            .map(|row| row.speedup_het_vs_hom())
            .sum::<f64>()
            / 8.0
    };
    assert!(
        gain("Hertz") > gain("Jupiter") + 0.2,
        "Hertz {} vs Jupiter {}",
        gain("Hertz"),
        gain("Jupiter")
    );
    let json = vscreen::report::to_json(&r);
    assert!(json.len() > 1000);
}
