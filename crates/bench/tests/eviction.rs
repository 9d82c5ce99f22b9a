//! Artifact- and workload-cache eviction under a deliberately tiny
//! capacity.
//!
//! The sweep warns when the distinct `(network, M)` working set exceeds
//! `ESCALATE_CACHE_CAP` (the message itself is unit-tested next to
//! `cache_thrash_warning`); this test pins the behaviour the warning
//! reports on: an undersized cache really evicts, really recompresses,
//! and the recompressed artifacts are identical to the first pass.
//!
//! This lives in its own integration-test binary so the process-global
//! artifact cache starts empty and no parallel test races the capacity
//! changes.

use escalate_bench::{
    artifact_cache_evictions, artifact_cache_len, compress_cached, set_artifact_cache_capacity,
    workload_cached, DEFAULT_CACHE_CAP,
};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;

#[test]
fn tiny_cache_cap_evicts_and_recompresses_identically() {
    let profile = ModelProfile::for_model("MobileNetV2").expect("known model");
    // Avoid M=6 (the default used by other suites) so this binary's
    // working set is self-contained even if the harness changes.
    let cfg_m4 = CompressionConfig {
        m: 4,
        ..CompressionConfig::default()
    };
    let cfg_m5 = CompressionConfig {
        m: 5,
        ..CompressionConfig::default()
    };

    // An empty cache has nothing to evict when re-bounded to one slot.
    assert_eq!(set_artifact_cache_capacity(1), 0);

    let first = compress_cached(&profile, &cfg_m4).expect("m=4 compresses");
    assert_eq!(artifact_cache_len(), 1);
    let before = artifact_cache_evictions();

    // A second distinct (network, M) artifact displaces the first...
    compress_cached(&profile, &cfg_m5).expect("m=5 compresses");
    assert_eq!(artifact_cache_len(), 1);
    assert!(
        artifact_cache_evictions() > before,
        "inserting past a 1-entry cap must evict"
    );

    // ...so asking for the first again recompresses from scratch — and
    // eviction is invisible in the results: the artifacts match the
    // originals exactly.
    let again = compress_cached(&profile, &cfg_m4).expect("m=4 recompresses");
    assert!(
        artifact_cache_evictions() >= before + 2,
        "round-tripping two artifacts through one slot evicts both"
    );
    assert!(
        !std::sync::Arc::ptr_eq(&first, &again),
        "the evicted entry cannot be served back by pointer"
    );
    assert_eq!(first.len(), again.len());
    for (a, b) in first.iter().zip(again.iter()) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    // The same bound holds the workload cache: a second workload
    // displaces the first, so asking for the first again rebuilds it.
    let first = workload_cached(&profile, &cfg_m4).expect("m=4 workload");
    workload_cached(&profile, &cfg_m5).expect("m=5 workload");
    let again = workload_cached(&profile, &cfg_m4).expect("m=4 workload again");
    assert!(
        !std::sync::Arc::ptr_eq(&first, &again),
        "a 1-entry bound cannot keep two workloads resident"
    );

    // Growing the bound back never evicts.
    assert_eq!(set_artifact_cache_capacity(DEFAULT_CACHE_CAP), 0);
}
