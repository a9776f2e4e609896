//! End-to-end tests of the `dock` and `tables` binaries.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dock_runs_builtin_benchmark() {
    let (ok, stdout, stderr) =
        run(env!("CARGO_BIN_EXE_dock"), &["--spots", "3", "--scale", "0.03", "--meta", "m1"]);
    assert!(ok, "stderr: {stderr}");
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
    let (ok, _, stderr) = run(
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
    assert!(ok, "stderr: {stderr}");
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
    let (ok, stdout, stderr) = run(
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
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("best score"));
    assert!(stderr.contains("ligand 10 atoms"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dock_rejects_bad_flags() {
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_dock"), &["--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));

    let (ok2, _, stderr2) = run(env!("CARGO_BIN_EXE_dock"), &["--meta", "m9"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown metaheuristic"));

    let (ok3, _, stderr3) = run(env!("CARGO_BIN_EXE_dock"), &["--receptor", "only-one-given.pdb"]);
    assert!(!ok3);
    assert!(stderr3.contains("both"));

    // A scale that is not a finite number > 0 is refused before any work:
    // `inf` would run `usize::MAX` generations, the others one.
    for scale in ["nan", "-1", "0", "inf", "x"] {
        let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_dock"), &["--scale", scale]);
        assert!(!ok, "--scale {scale} must fail");
        assert!(stderr.contains("--scale"), "--scale {scale}: {stderr}");
    }

    for kernel in ["tiled", "run"] {
        let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_dock"), &["--kernel", kernel]);
        assert!(!ok, "--kernel {kernel} must fail");
        assert!(stderr.contains("unknown kernel"), "--kernel {kernel}: {stderr}");
    }
}

#[test]
fn tables_rejects_bad_scale() {
    for scale in ["nan", "-1", "0", "inf", "x"] {
        let (ok, stdout, stderr) = run(env!("CARGO_BIN_EXE_tables"), &["table8", "--scale", scale]);
        assert!(!ok, "--scale {scale} must fail");
        assert!(stderr.contains("--scale"), "--scale {scale}: {stderr}");
        assert!(!stdout.contains("Table 8"), "--scale {scale} ran the table: {stdout}");
    }
}

#[test]
fn tables_emits_requested_tables() {
    let (ok, stdout, _) =
        run(env!("CARGO_BIN_EXE_tables"), &["table1", "table5", "table8", "--scale", "quick"]);
    assert!(ok);
    assert!(stdout.contains("CUDA summary"));
    assert!(stdout.contains("8609"));
    assert!(stdout.contains("Hertz"));
    for m in ["M1", "M2", "M3", "M4"] {
        assert!(stdout.contains(m), "missing {m}");
    }
}

#[test]
fn tables_eq1_reports_percent() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_tables"), &["eq1"]);
    assert!(ok);
    assert!(stdout.contains("Percent = 1.000"), "{stdout}");
    assert!(stdout.contains("Tesla K40c"));
}
