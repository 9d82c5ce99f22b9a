//! Runs every workload once at minimal size (`--size smoke`), untraced and
//! traced, and checks what it prints: every metric the benchmark defines
//! is present with its unit, every output matched its reference
//! (`ops_failed_frac` = 0), and the result lines carry exactly the
//! metrics `BENCHMARK.json` lists.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json` (`end_to_end` or `per_layer`).
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("name").to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// The value and unit of metric `name` on one output line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let unit = rest.split('"').next()?;
    Some((value.parse().ok()?, unit.to_string()))
}

/// Runs one workload; returns its record line and its result line.
fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a record and a result"
    );
    (
        lines[lines.len() - 2].to_string(),
        lines[lines.len() - 1].to_string(),
    )
}

fn check(workload: &str, extra: &[(&str, &str)]) {
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let (record, result) = run(workload, trace);
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        assert!(result.contains("\"failed\": 0, "), "{result}");
        assert_eq!(
            metric(&record, "ops_failed_frac"),
            Some((0.0, "ratio".to_string())),
            "{record}"
        );
        for field in ["git_rev", "host_cores", "threads", "seed", "size"] {
            assert!(
                record.contains(&format!("\"{field}\": ")),
                "{field}: {record}"
            );
        }
        let names = declared(section);
        assert!(!names.is_empty());
        for (name, unit) in &names {
            let (_, got) = metric(&result, name)
                .unwrap_or_else(|| panic!("{workload}: result lacks {name}: {result}"));
            assert_eq!(&got, unit, "{workload}: unit of {name}");
            assert!(
                metric(&record, name).is_some(),
                "{workload}: record lacks {name}"
            );
        }
        // The result line carries the declared metrics and nothing else.
        assert_eq!(
            result.matches("\"unit\": ").count(),
            names.len(),
            "{result}"
        );
        if trace == 0 {
            for (name, unit) in extra {
                assert_eq!(
                    metric(&record, name).map(|m| m.1).as_deref(),
                    Some(*unit),
                    "{workload}: {name}"
                );
            }
            for (name, _) in &names {
                let (value, _) = metric(&result, name).expect("checked above");
                assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
            }
        }
    }
}

#[test]
fn simulate_cold_reports_every_metric() {
    check("simulate_cold", &[]);
}

#[test]
fn sweep_grid_reports_every_metric() {
    check("sweep_grid", &[("points_per_s", "1/s")]);
}

#[test]
fn serve_warm_reports_every_metric() {
    check(
        "serve_warm",
        &[
            ("job_p50_ms", "ms"),
            ("job_p90_ms", "ms"),
            ("jobs_per_s", "1/s"),
        ],
    );
}

#[test]
fn a_bad_invocation_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
