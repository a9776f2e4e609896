//! End-to-end tests of the `dock` and `tables` binaries.

use std::process::Command;

/// Runs `bin` and returns its exit code (`None` if a signal ended it),
/// stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dock_runs_builtin_benchmark() {
    let (code, stdout, stderr) =
        run(env!("CARGO_BIN_EXE_dock"), &["--spots", "3", "--scale", "0.03", "--meta", "m1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("best score"), "{stdout}");
    assert!(stdout.contains("spot ranking"), "{stdout}");
    assert!(stderr.contains("2BSM"), "should announce the builtin fallback");
}

#[test]
fn dock_writes_pose_files() {
    let dir = std::env::temp_dir().join("vs_dock_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let pose = dir.join("pose.pdb");
    let complex = dir.join("complex.pdb");
    let (code, _, stderr) = run(
        env!("CARGO_BIN_EXE_dock"),
        &[
            "--spots",
            "2",
            "--scale",
            "0.03",
            "--meta",
            "m3",
            "--strategy",
            "hom",
            "--node",
            "jupiter",
            "--out",
            pose.to_str().unwrap(),
            "--complex",
            complex.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let pose_text = std::fs::read_to_string(&pose).unwrap();
    assert!(pose_text.contains("HETATM"));
    let complex_text = std::fs::read_to_string(&complex).unwrap();
    assert!(complex_text.contains("ATOM") && complex_text.contains("TER"));
    let parsed = vsmol::pdb::parse_structure(&complex_text, "c").unwrap();
    assert_eq!(parsed.protein().len(), 3264);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dock_accepts_file_inputs() {
    let dir = std::env::temp_dir().join("vs_dock_cli_inputs");
    std::fs::create_dir_all(&dir).unwrap();
    let rec_path = dir.join("rec.pdb");
    let lig_path = dir.join("lig.sdf");
    std::fs::write(&rec_path, vsmol::pdb::write(&vsmol::synth::synth_receptor("r", 400, 1)))
        .unwrap();
    std::fs::write(&lig_path, vsmol::sdf::write(&[vsmol::synth::synth_ligand("l", 10, 2)]))
        .unwrap();
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_dock"),
        &[
            "--receptor",
            rec_path.to_str().unwrap(),
            "--ligand",
            lig_path.to_str().unwrap(),
            "--spots",
            "2",
            "--scale",
            "0.03",
            "--meta",
            "m1",
        ],
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("best score"));
    assert!(stderr.contains("ligand 10 atoms"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dock_rejects_bad_flags() {
    let mut cases = vec![
        (vec!["--bogus"], "unknown flag"),
        (vec!["--threads", "8"], "unknown flag"),
        (vec!["--meta", "m9"], "unknown metaheuristic"),
        (vec!["--receptor", "only-one-given.pdb"], "both"),
    ];
    // A scale that is not a finite number > 0 is refused before any work:
    // `inf` would run `usize::MAX` generations, the others one.
    cases.extend(["nan", "-1", "0", "inf", "x"].map(|v| (vec!["--scale", v], "--scale")));
    cases.extend(["tiled", "run"].map(|v| (vec!["--kernel", v], "unknown kernel")));
    for (args, message) in cases {
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_dock"), &args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("dock: ") && stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn dock_refuses_inputs_it_cannot_screen() {
    let dir = std::env::temp_dir().join("vs_dock_cli_degenerate");
    std::fs::create_dir_all(&dir).unwrap();
    let (rec_path, lig_path) = (dir.join("rec.pdb"), dir.join("lig.pdb"));
    let rec = vsmol::pdb::write(&vsmol::synth::synth_receptor("r", 400, 1));
    let lig = vsmol::pdb::write(&vsmol::synth::synth_ligand("l", 10, 2));
    let one_atom =
        "ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\nEND\n";
    for (rec, lig, message) in [
        ("END\n", lig.as_str(), "the receptor has no atoms"),
        (rec.as_str(), "END\n", "the ligand has no atoms"),
        (one_atom, lig.as_str(), "no surface spots detected"),
    ] {
        std::fs::write(&rec_path, rec).unwrap();
        std::fs::write(&lig_path, lig).unwrap();
        let args =
            ["--receptor", rec_path.to_str().unwrap(), "--ligand", lig_path.to_str().unwrap()];
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_dock"), &args);
        assert_eq!(code, Some(1), "{message}: {stderr}");
        assert!(stderr.starts_with("dock: ") && stderr.contains(message), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tables_rejects_bad_scale() {
    for scale in ["nan", "-1", "0", "inf", "x"] {
        let (code, stdout, stderr) =
            run(env!("CARGO_BIN_EXE_tables"), &["table8", "--scale", scale]);
        assert_eq!(code, Some(1), "--scale {scale} must fail");
        assert!(stderr.contains("--scale"), "--scale {scale}: {stderr}");
        assert!(!stdout.contains("Table 8"), "--scale {scale} ran the table: {stdout}");
    }
}

#[test]
fn tables_rejects_unknown_target_and_bare_scale() {
    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_tables"), &["table1", "bogus"]);
    assert_eq!(code, Some(1));
    assert!(stdout.is_empty(), "ran a target before refusing: {stdout}");
    let listed = "all table9 figure1 eq1 energy ablation distribution quality cooperative \
                  scaling timeline json";
    for t in listed.split_whitespace() {
        assert!(stderr.contains(&format!(" {t}")), "{t} not listed: {stderr}");
    }

    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_tables"), &["table1", "--scale"]);
    assert_eq!(code, Some(1));
    assert!(stdout.is_empty() && stderr.contains("--scale needs a value"), "{stderr}");
}

#[test]
fn tables_emits_requested_tables() {
    let (code, stdout, _) =
        run(env!("CARGO_BIN_EXE_tables"), &["table1", "table5", "table8", "--scale", "quick"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("CUDA summary"));
    assert!(stdout.contains("8609"));
    assert!(stdout.contains("Hertz"));
    for m in ["M1", "M2", "M3", "M4"] {
        assert!(stdout.contains(m), "missing {m}");
    }
}

#[test]
fn tables_eq1_reports_percent() {
    let (code, stdout, _) = run(env!("CARGO_BIN_EXE_tables"), &["eq1"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Percent = 1.000"), "{stdout}");
    assert!(stdout.contains("Tesla K40c"));
}
