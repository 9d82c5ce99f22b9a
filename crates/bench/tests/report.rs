//! Integration tests for the experiment registry and the `report`
//! runner: golden round-trips against the committed `results/` corpus,
//! JSON schema shape, and the seed-averaging fixes.

use escalate_bench::experiments::{self, ExpContext, ReportOptions, REPORT_SCHEMA};
use escalate_bench::{geomean, run_accelerator};
use escalate_energy::BufferCaps;
use escalate_sim::{Accelerator, LayerStats};

/// Runs `report --check` for `names` against the committed corpus.
fn check(names: &[&str]) -> (bool, String) {
    let opts = ReportOptions {
        check: true,
        names: names.iter().map(ToString::to_string).collect(),
        ..ReportOptions::default()
    };
    let mut buf = Vec::new();
    let clean = experiments::run_report(&opts, &mut buf).expect("report --check runs");
    (clean, String::from_utf8(buf).expect("utf8"))
}

#[test]
fn report_check_round_trips_table4_against_the_committed_corpus() {
    let (clean, out) = check(&["table4"]);
    assert!(clean, "table4 drifted from results/table4.txt:\n{out}");
}

#[test]
fn report_check_round_trips_fast_ablations_against_the_committed_corpus() {
    let (clean, out) = check(&["encoding_sweep", "psum_ablation", "reorg_ablation"]);
    assert!(clean, "golden drift:\n{out}");
}

// The debug profile pays minutes per full-grid experiment, so the heavy
// round-trips are exercised by `scripts/tier1.sh`, which drives the
// release `escalate report --check` over the same corpus; run them here explicitly
// with `cargo test -- --ignored` when needed.
#[test]
#[ignore = "minutes under the dev profile; tier1.sh checks these via the release `escalate report`"]
fn report_check_round_trips_fig8_and_table1() {
    let (clean, out) = check(&["table1", "fig8"]);
    assert!(clean, "golden drift:\n{out}");
}

// Pins `report --all --check` — the whole golden corpus through the
// run-plan executor — in one invocation, exactly what the CI gate runs
// via the release `escalate report`.
#[test]
#[ignore = "many minutes under the dev profile; tier1.sh runs the release `report --all --check`"]
fn report_all_check_round_trips_the_full_corpus() {
    let opts = ReportOptions {
        all: true,
        check: true,
        ..ReportOptions::default()
    };
    let mut buf = Vec::new();
    let clean = experiments::run_report(&opts, &mut buf).expect("report --all --check runs");
    let out = String::from_utf8(buf).expect("utf8");
    assert!(clean, "golden drift:\n{out}");
    assert!(
        out.contains("PASS: 20 experiment(s) checked"),
        "expected the 20-experiment epilogue:\n{out}"
    );
}

#[test]
fn report_update_then_check_round_trips_in_a_fresh_dir() {
    let dir = std::env::temp_dir().join("escalate_report_roundtrip");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let results_dir = Some(dir.clone());
    let names = vec!["table4".to_string()];
    let update = ReportOptions {
        update: true,
        names: names.clone(),
        results_dir: results_dir.clone(),
        ..ReportOptions::default()
    };
    let mut buf = Vec::new();
    assert!(experiments::run_report(&update, &mut buf).expect("update"));
    let checkopts = ReportOptions {
        check: true,
        names,
        results_dir,
        ..ReportOptions::default()
    };
    let mut buf = Vec::new();
    let clean = experiments::run_report(&checkopts, &mut buf).expect("check");
    assert!(clean, "{}", String::from_utf8_lossy(&buf));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_out_dir_json_writes_each_streamed_document_to_a_file() {
    let dir = std::env::temp_dir().join(format!("escalate_report_out_json_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run = |out_dir: Option<std::path::PathBuf>| {
        let opts = ReportOptions {
            json: true,
            names: vec!["table4".to_string()],
            out_dir,
            ..ReportOptions::default()
        };
        let mut buf = Vec::new();
        assert!(experiments::run_report(&opts, &mut buf).expect("report runs"));
        String::from_utf8(buf).expect("utf8")
    };
    let stream = run(None);
    let log = run(Some(dir.clone()));
    let path = dir.join("table4.json");
    assert_eq!(log, format!("wrote {}\n", path.display()));
    let file = std::fs::read_to_string(&path).expect("table4.json written");
    // The stream ends each document with a newline; the file holds the
    // document alone.
    assert_eq!(format!("{file}\n"), stream);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_json_is_a_schema_tagged_document() {
    let table = experiments::find("table4")
        .expect("registered")
        .table(&ExpContext::default())
        .expect("runs");
    let json = table.render_json();
    let schema_tag = format!("\"schema\": \"{REPORT_SCHEMA}\"");
    for needle in [
        schema_tag.as_str(),
        "\"experiment\": \"table4\"",
        "\"paper_anchor\":",
        "\"records\":",
        "\"text\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    // Balanced JSON at the top level: same machinery escalate-obs
    // validates, cheap structural sanity here.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces"
    );
}

/// A deterministic accelerator whose per-seed stats differ, for pinning
/// the seed-averaging semantics without a real simulation.
struct FakeAccel;

impl Accelerator for FakeAccel {
    fn name(&self) -> &str {
        "fake"
    }

    fn num_layers(&self) -> usize {
        1
    }

    fn simulate_layer(&self, _index: usize, seed: u64) -> LayerStats {
        // Seed 0 is sparser (cheaper) than seed 1: every cost scales with
        // the seed so the per-seed energy breakdowns genuinely differ.
        let scale = seed + 1;
        let mut l = LayerStats {
            name: "l0".into(),
            ..LayerStats::default()
        };
        l.cycles = 1000 * scale;
        l.mac_ops = 500 * scale;
        l.mac_cycle_slots = 6000 * scale;
        l.dram.weights = 64 * scale;
        l.dram.ifm = 128 * scale;
        l.dram.ofm = 32 * scale;
        l.sram.input_buf = 200 * scale;
        l.sram.coef_buf = 100 * scale;
        l.sram.psum_buf = 50 * scale;
        l.sram.output_buf = 25 * scale;
        l.sram.act_buf = 75 * scale;
        l
    }
}

#[test]
fn average_runs_averages_the_energy_breakdown_not_just_totals() {
    let caps = BufferCaps::baseline(64 * 1024);
    let two = run_accelerator(&FakeAccel, &caps, 2, 1);
    // The mean breakdown must sum to the mean total energy; with the old
    // first-seed breakdown it summed to seed 0's (smaller) total instead.
    let bd_total = two.energy.total_pj();
    assert!(
        (bd_total - two.energy_pj).abs() <= 1e-6 * two.energy_pj.abs(),
        "breakdown sums to {bd_total} but the seed-mean energy is {}",
        two.energy_pj
    );
    // And it must genuinely be an average: strictly between the two
    // per-seed totals (seed 1 costs twice seed 0 by construction).
    let one = run_accelerator(&FakeAccel, &caps, 1, 1);
    assert!(two.energy_pj > one.energy_pj, "mean must exceed seed 0");
    assert!(two.energy.dram_pj > one.energy.dram_pj);
    // `first_seed_stats` stays the first seed (layer-wise figures rely on it).
    assert_eq!(two.first_seed_stats, one.first_seed_stats);
}

#[test]
fn run_accelerator_clamps_zero_seeds_to_one_with_a_warning() {
    let caps = BufferCaps::baseline(64 * 1024);
    // The warning lands on stderr (uncapturable here without a harness);
    // what must hold is the documented clamp: seeds=0 behaves as 1 seed.
    let zero = run_accelerator(&FakeAccel, &caps, 0, 1);
    let one = run_accelerator(&FakeAccel, &caps, 1, 1);
    assert_eq!(zero.first_seed_stats, one.first_seed_stats);
    assert!((zero.cycles - one.cycles).abs() < f64::EPSILON);
    assert!((zero.energy_pj - one.energy_pj).abs() < f64::EPSILON);
}

#[test]
fn geomean_pins_edge_cases_and_matches_the_historical_fold() {
    assert!((geomean(&[]) - 1.0).abs() < f64::EPSILON, "empty product");
    let x = 3.7f64;
    assert!((geomean(&[x]) - x).abs() <= 1e-12 * x, "single element");
    let vals = [2.0, 8.0];
    assert!((geomean(&vals) - 4.0).abs() < 1e-12);
    // Same fold the per-binary closures used, bit for bit.
    let vals: [f64; 4] = [1.37, 2.91, 0.44, 12.5];
    let old = (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp();
    assert_eq!(geomean(&vals).to_bits(), old.to_bits());
}
