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
    // "basis count 0 exceeds kernel area 9"; `characterize --m 0` printed
    // a C/M bound computed with M = 1.
    for (command, m) in ["compress", "characterize"]
        .into_iter()
        .flat_map(|c| ["0", "1025", "576460752303423488"].map(|m| (c, m)))
    {
        let (ok, stdout, stderr) = run(&[command, "MobileNet", "--m", m]);
        assert!(!ok, "{command} --m {m} must fail");
        assert!(stdout.is_empty(), "{command} --m {m}: {stdout}");
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

#[test]
fn sweep_out_of_range_m_or_pe_fails_before_writing_a_record() {
    // `sweep --m 1025..1025` once swept M = 1025, `--m
    // 1..18446744073709551615` simulated M ≈ 1.1e19, and `--pe
    // 1099511627776..9223372036854775808` put n_pe = 2^55 on the
    // frontier; `simulate`, `compress` and served jobs all reject M
    // outside 1..=MAX_M.
    use escalate_sim::SimError;
    for (option, range, error) in [
        ("--m", "1025..1025", SimError::InvalidBasisCount { m: 1025 }),
        (
            "--m",
            "1..18446744073709551615",
            SimError::InvalidBasisCount { m: usize::MAX },
        ),
        (
            "--pe",
            "1099511627776..9223372036854775808",
            SimError::InvalidPeCount { n_pe: 1 << 40 },
        ),
        (
            "--pe",
            "8..9223372036854775808",
            SimError::InvalidPeCount { n_pe: 1 << 63 },
        ),
    ] {
        let args = [
            "sweep",
            "MobileNet",
            "--samples",
            "1",
            "--seeds",
            "1",
            option,
            range,
            "--out",
            "sweep.jsonl",
        ];
        let (ok, stdout, stderr, left) = run_in_empty_dir("sweep_range", &args);
        assert!(!ok, "{option} {range} must fail; stdout:\n{stdout}");
        assert!(stderr.contains(&error.to_string()), "{stderr}");
        assert!(left.is_empty(), "{option} {range} wrote {left:?}");
    }
}

#[test]
fn dash_dash_help_prints_usage() {
    let (ok, stdout, stderr) = run(&["--help"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("USAGE"), "{stdout}");
}

#[test]
fn report_forwards_the_tokens_after_dash_dash_to_the_experiment() {
    let (ok, stdout, stderr) = run(&["report", "fig11", "--", "ResNet18"]);
    assert!(ok, "{stderr}");
    let opts = escalate_bench::experiments::ReportOptions {
        names: vec!["fig11".into()],
        args: vec!["ResNet18".into()],
        ..Default::default()
    };
    let mut direct = Vec::new();
    assert!(escalate_bench::experiments::run_report(&opts, &mut direct).expect("fig11 runs"));
    assert_eq!(stdout, String::from_utf8(direct).expect("UTF-8"));
}

#[test]
fn a_flag_before_the_model_does_not_take_it_as_a_value() {
    let (ok, stdout, stderr) = run(&["compress", "--layers", "MobileNet"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("dw1+pw1"),
        "per-layer detail expected:\n{stdout}"
    );
}

#[test]
fn submit_with_a_flag_before_the_model_gets_past_argument_parsing() {
    // Nothing listens on port 1, so the only possible failure left once
    // the line parses is the connection.
    let (ok, _, stderr) = run(&["submit", "compress", "--layers", "MobileNet", "--port", "1"]);
    assert!(!ok);
    assert!(stderr.contains("cannot reach 127.0.0.1:1"), "{stderr}");
    assert!(!stderr.contains("ARG"), "{stderr}");
}

#[test]
fn submit_prints_a_refusal_and_exits_non_zero() {
    let handle = escalate_serve::start(escalate_serve::ServeOptions {
        workers: 1,
        ..escalate_serve::ServeOptions::default()
    })
    .expect("daemon starts");
    let port = handle.port().to_string();
    let (refused, stdout, stderr) = run(&["submit", "report", "fig99", "--port", &port]);
    let (pinged, pong, _) = run(&["submit", "ping", "--port", &port]);
    let (_, drained, _) = run(&["submit", "shutdown", "--port", &port]);
    handle.join().expect("daemon drains");
    assert!(!refused, "an error frame must fail the command:\n{stdout}");
    assert!(stdout.contains(r#""type": "error""#), "{stdout}");
    assert!(
        stderr.contains(r#"the daemon's last frame is "error""#),
        "{stderr}"
    );
    assert!(pinged && pong.contains(r#""type": "pong""#), "{pong}");
    assert!(drained.contains(r#""drained": true"#), "{drained}");
}

#[test]
fn a_valued_option_without_its_value_is_a_typed_error() {
    let (ok, _, stderr) = run(&["simulate", "MobileNet", "--metrics"]);
    assert!(!ok);
    assert!(
        stderr.starts_with("error: --metrics requires a value"),
        "{stderr}"
    );
}

/// Runs `escalate` in a fresh empty directory; returns the exit status,
/// stdout, stderr, and whatever the run left in that directory.
fn run_in_empty_dir(tag: &str, args: &[&str]) -> (bool, String, String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("escalate_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_escalate"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let left = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        left,
    )
}

/// A malformed `report` line fails with the shared option reader's typed
/// message, before any experiment runs or any file is written.
fn assert_report_rejected(tag: &str, args: &[&str], message: &str) {
    let (ok, stdout, stderr, left) = run_in_empty_dir(tag, args);
    assert!(!ok, "{args:?} must fail; stdout:\n{stdout}");
    assert!(
        stderr.starts_with(&format!("error: {message}")),
        "{args:?}: {stderr}"
    );
    assert!(stdout.is_empty(), "{args:?} printed:\n{stdout}");
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
}

#[test]
fn report_results_without_a_value_does_not_take_the_next_flag() {
    // Taking `--check` as the directory would print Table 4 unchecked and
    // exit 0.
    assert_report_rejected(
        "report_results",
        &["report", "--results", "--check", "table4"],
        "--results requires a value",
    );
}

#[test]
fn report_out_without_a_value_does_not_take_the_next_flag() {
    assert_report_rejected(
        "report_out",
        &["report", "--out", "--json", "table4"],
        "--out requires a value",
    );
}

#[test]
fn report_out_with_an_empty_value_is_rejected() {
    assert_report_rejected(
        "report_out_empty",
        &["report", "--out=", "table4"],
        "--out= has an empty value",
    );
}

#[test]
fn report_repeated_out_is_rejected() {
    assert_report_rejected(
        "report_out_twice",
        &["report", "--out", "a", "--out", "b", "--json", "table4"],
        "--out given more than once",
    );
}

#[test]
fn report_repeated_flag_is_rejected() {
    assert_report_rejected(
        "report_check_twice",
        &["report", "--check", "--check", "table4"],
        "--check given more than once",
    );
}
