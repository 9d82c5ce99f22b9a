//! `fig13` takes MobileNet's workload from the per-process workload
//! cache, keyed as a served `simulate MobileNet` keys it: with a recorder
//! installed, a second run records a workload hit and no miss, and its
//! text still matches the committed golden. One test in its own binary,
//! because the recorder is process-global.

use escalate_bench::experiments::{self, ReportOptions};
use escalate_obs::Registry;
use std::sync::Arc;

/// Runs `report --check fig13` against the committed corpus.
fn check_fig13() -> (bool, String) {
    let opts = ReportOptions {
        check: true,
        names: vec!["fig13".to_string()],
        ..ReportOptions::default()
    };
    let mut buf = Vec::new();
    let clean = experiments::run_report(&opts, &mut buf).expect("report --check runs");
    (clean, String::from_utf8(buf).expect("utf8"))
}

#[test]
fn a_second_fig13_run_reuses_the_cached_workload() {
    let (clean, out) = check_fig13();
    assert!(clean, "fig13 drifted from results/fig13.txt:\n{out}");
    let reg = Arc::new(Registry::default());
    escalate_obs::install(Arc::clone(&reg));
    let (clean, out) = check_fig13();
    escalate_obs::uninstall();
    assert!(clean, "fig13 drifted on its second run:\n{out}");
    assert!(reg.counter("bench.workload_hits") >= 1);
    assert_eq!(reg.counter("bench.workload_misses"), 0);
}
