//! End-user tests of the `escalate` binary itself.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_escalate"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero_with_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn no_arguments_fails_with_usage_on_stderr() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("no command"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn models_lists_the_zoo() {
    let (ok, stdout, _) = run(&["models"]);
    assert!(ok);
    assert!(stdout.contains("ResNet152"));
    assert!(stdout.contains("ImageNet"));
}

#[test]
fn bad_model_fails_cleanly() {
    let (ok, _, stderr) = run(&["simulate", "AlexNet"]);
    assert!(!ok);
    assert!(stderr.contains("AlexNet"));
}

#[test]
fn compress_produces_summary() {
    let (ok, stdout, _) = run(&["compress", "MobileNet"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("compression"));
    assert!(stdout.contains("proxy top-1"));
}

#[test]
fn compress_out_of_range_m_fails_at_flag_parsing() {
    // `compress --m 0` used to compress until the first layer and report
    // "basis count 0 exceeds kernel area 9".
    for m in ["0", "1025", "576460752303423488"] {
        let (ok, _, stderr) = run(&["compress", "MobileNet", "--m", m]);
        assert!(!ok, "--m {m} must fail");
        assert!(stderr.starts_with("error: --m:"), "{stderr}");
        assert!(
            stderr.contains(&escalate_sim::MAX_M.to_string()),
            "{stderr}"
        );
        assert!(!stderr.contains("exceeds"), "{stderr}");
    }
}

#[test]
fn out_of_range_m_fails_cleanly() {
    // 0 once tripped an assert; 2^59 overflowed `N_PE · M` into a divide
    // by zero. Both must be ordinary flag errors, before any compression.
    for m in ["0", "576460752303423488"] {
        let (ok, _, stderr) = run(&["simulate", "MobileNet", "--m", m, "--seeds", "1"]);
        assert!(!ok, "--m {m} must fail");
        assert!(stderr.starts_with("error: --m:"), "{stderr}");
        assert!(
            stderr.contains(&escalate_sim::MAX_M.to_string()),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
