//! Integration tests for the run-plan layer driving a *real* sweep:
//! the JSONL stream must resume to exactly the cold run's bytes, the
//! records must be independent of the host thread count, and each
//! network spec is resolved once, when the plan is built.

use escalate_bench::plan::{execute, JsonlSink};
use escalate_bench::sweep::{SweepOptions, SweepPlan, SweepRecord};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("escalate_bench_plan_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Builds the global pool at its auto width (`ESCALATE_THREADS`, else
/// every core) before a plan's first job would size it without reading
/// the variable.
fn wide_pool() {
    escalate_core::par::configure_threads(0);
}

fn small_sweep(threads: usize) -> SweepOptions {
    SweepOptions {
        networks: vec!["MobileNet".into()],
        samples: 2,
        input_seeds: 1,
        threads,
        ..SweepOptions::default()
    }
}

#[test]
fn real_sweep_resumes_to_the_cold_run_bytes() {
    wide_pool();
    let cold_path = tmp("cold.jsonl");
    let resumed_path = tmp("resumed.jsonl");
    std::fs::remove_file(&cold_path).ok();
    std::fs::remove_file(&resumed_path).ok();

    let plan = SweepPlan::new(small_sweep(0)).expect("plan");

    let mut sink = JsonlSink::open(&cold_path).expect("open cold");
    let s = execute(&plan, &mut sink).expect("cold sweep");
    assert_eq!((s.ran, s.skipped), (2, 0));
    drop(sink);
    let cold_bytes = std::fs::read(&cold_path).expect("cold bytes");
    let cold_text = String::from_utf8(cold_bytes.clone()).expect("utf8");
    assert_eq!(cold_text.lines().count(), 2, "one record per sample");
    for line in cold_text.lines() {
        let rec = SweepRecord::from_json_line(line).expect("parseable record");
        assert_eq!(rec.network, "MobileNet");
        assert!(rec.cycles > 0.0 && rec.energy_mj > 0.0 && rec.area_mm2 > 0.0);
    }

    // "Interrupt" after the first record, then resume into a new file.
    let first_line = format!("{}\n", cold_text.lines().next().expect("first line"));
    std::fs::write(&resumed_path, first_line).expect("truncate");
    let mut sink = JsonlSink::open(&resumed_path).expect("open resumed");
    let s = execute(&plan, &mut sink).expect("resumed sweep");
    assert_eq!(
        (s.ran, s.skipped),
        (1, 1),
        "resume must run exactly the missing sample"
    );
    drop(sink);
    assert_eq!(
        std::fs::read(&resumed_path).expect("resumed bytes"),
        cold_bytes,
        "a resumed sweep must reproduce the cold run byte-for-byte"
    );

    std::fs::remove_file(&cold_path).ok();
    std::fs::remove_file(&resumed_path).ok();
}

#[test]
fn sweep_records_are_identical_at_any_thread_count() {
    wide_pool();
    let par_path = tmp("par.jsonl");
    let seq_path = tmp("seq.jsonl");
    std::fs::remove_file(&par_path).ok();
    std::fs::remove_file(&seq_path).ok();

    let mut sink = JsonlSink::open(&par_path).expect("open");
    execute(&SweepPlan::new(small_sweep(0)).expect("plan"), &mut sink).expect("auto-thread sweep");
    drop(sink);
    let mut sink = JsonlSink::open(&seq_path).expect("open");
    execute(&SweepPlan::new(small_sweep(1)).expect("plan"), &mut sink).expect("sequential sweep");
    drop(sink);

    // The `threads` knob configures the host, not the modeled hardware:
    // every simulated quantity must match bit-for-bit. (The raw files
    // differ only if a field encoded the knob itself — compare records.)
    let records = |p: &PathBuf| -> Vec<SweepRecord> {
        std::fs::read_to_string(p)
            .expect("read")
            .lines()
            .map(|l| SweepRecord::from_json_line(l).expect("parseable"))
            .collect()
    };
    let (par, seq) = (records(&par_path), records(&seq_path));
    assert_eq!(par.len(), 2);
    assert_eq!(par, seq, "thread count leaked into the simulated results");

    std::fs::remove_file(&par_path).ok();
    std::fs::remove_file(&seq_path).ok();
}

#[test]
fn a_sweep_reads_its_network_file_once_when_the_plan_is_built() {
    wide_pool();
    let network = tmp("once.network");
    std::fs::write(
        &network,
        "escalate-network/v1\nmodel once\n\
         layer conv c1 c=8 k=16 x=8 y=8 r=3 s=3 stride=1 pad=1\n\
         layer pwconv c2 c=16 k=16 x=8 y=8 r=1 s=1 stride=1 pad=0\nend\n",
    )
    .expect("write network");
    let out = tmp("once.jsonl");
    std::fs::remove_file(&out).ok();
    let plan = SweepPlan::new(SweepOptions {
        networks: vec![format!("@{}", network.display())],
        samples: 3,
        input_seeds: 1,
        ..SweepOptions::default()
    })
    .expect("plan");
    // Every unit runs on the profile the plan resolved, so the file is
    // not needed once the plan exists.
    std::fs::remove_file(&network).expect("delete network");
    let mut sink = JsonlSink::open(&out).expect("open");
    let s = execute(&plan, &mut sink).expect("sweep without the network file");
    assert_eq!((s.ran, s.skipped), (3, 0));
    drop(sink);
    std::fs::remove_file(&out).ok();
}
