//! Shape tests for the paper's headline results: these assert the
//! *qualitative* claims of the evaluation (who wins, where, and by
//! roughly what factor), which is what this reproduction is calibrated to
//! preserve. Absolute cycle counts are not asserted.

use escalate::algo::compress_model;
use escalate::algo::pipeline::CompressionConfig;
use escalate::models::{Dataset, ModelProfile};
use escalate::sim::SimConfig;
use escalate_bench::run_model;

/// Table 1 shape: CIFAR models compress by tens-to-hundreds×, ImageNet
/// models by single-digits-to-tens, sparsity lands near the profile
/// target, and pruning ratios are positive.
#[test]
fn compression_bands_match_table1() {
    for profile in ModelProfile::all() {
        // MobileNet/ResNet-152 are exercised by the table1 binary; keep
        // the test suite fast with the three cheapest models.
        if !["VGG16", "ResNet18", "MobileNet"].contains(&profile.name.as_str()) {
            continue;
        }
        let r =
            compress_model(&profile, &CompressionConfig::default()).expect("compression succeeds");
        let ratio = r.compression_ratio();
        match profile.dataset {
            Dataset::Cifar10 => assert!(ratio > 20.0, "{}: {ratio}", profile.name),
            Dataset::ImageNet => assert!(ratio > 2.0, "{}: {ratio}", profile.name),
        }
        assert!(
            (r.coeff_sparsity() - profile.coeff_sparsity).abs() < 0.05,
            "{}: sparsity {} vs target {}",
            profile.name,
            r.coeff_sparsity(),
            profile.coeff_sparsity
        );
        assert!(r.pruning_ratio() > 0.0, "{}", profile.name);
    }
}

/// Figure 8 shape on a CIFAR model: ESCALATE > SparTen > Eyeriss in
/// speedup, ESCALATE best in energy efficiency.
#[test]
fn vgg16_accelerator_ordering() {
    let profile = ModelProfile::for_model("VGG16").expect("known model");
    let run = run_model(&profile, &SimConfig::default(), 2).expect("simulation succeeds");
    let esc = run.speedup_over_eyeriss(&run.escalate);
    let sparten = run.speedup_over_eyeriss(&run.sparten);
    let scnn = run.speedup_over_eyeriss(&run.scnn);
    assert!(esc > sparten, "ESCALATE {esc} vs SparTen {sparten}");
    assert!(esc > scnn, "ESCALATE {esc} vs SCNN {scnn}");
    assert!(
        esc > 5.0,
        "ESCALATE should be far above Eyeriss on VGG16: {esc}"
    );

    let e_esc = run.efficiency_over_eyeriss(&run.escalate);
    let e_sp = run.efficiency_over_eyeriss(&run.sparten);
    let e_sc = run.efficiency_over_eyeriss(&run.scnn);
    assert!(
        e_esc > e_sp && e_esc > e_sc,
        "energy: ESC {e_esc}, SparTen {e_sp}, SCNN {e_sc}"
    );
    assert!(e_esc > 5.0, "CIFAR energy win should exceed 5x: {e_esc}");
}

/// Figure 9 shape: Eyeriss moves an order of magnitude more DRAM than
/// ESCALATE on weight-dominated CIFAR models.
#[test]
fn vgg16_dram_reduction() {
    let profile = ModelProfile::for_model("VGG16").expect("known model");
    let run = run_model(&profile, &SimConfig::default(), 2).expect("simulation succeeds");
    let ratio = run.dram_vs_escalate(&run.eyeriss);
    assert!(
        ratio > 5.0,
        "Eyeriss should move >5x the DRAM of ESCALATE on VGG16: {ratio}"
    );
}

/// Figure 11 shape: the first (dense fallback) layer of ResNet18 is
/// slower than Eyeriss; early compressed layers approach the C/M bound.
#[test]
fn resnet18_layerwise_shape() {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    let run = run_model(&profile, &SimConfig::default(), 1).expect("simulation succeeds");
    let esc = &run.escalate.first_seed_stats.layers;
    let eye = &run.eyeriss.first_seed_stats.layers;
    assert!(esc[0].fallback, "first layer uses the dense fallback");
    let first_speedup = eye[0].cycles as f64 / esc[0].cycles as f64;
    assert!(
        first_speedup < 1.5,
        "fallback should not beat Eyeriss by much: {first_speedup}"
    );

    // Early block: C = 64, M = 6 → C/M ≈ 10.7; speedup within [4, C/M*2].
    let early = eye[1].cycles as f64 / esc[1].cycles as f64;
    assert!(
        (4.0..22.0).contains(&early),
        "early-layer speedup {early} out of C/M band"
    );

    // Late block (C = 512) speedup exceeds the early one.
    let last = esc.len() - 1;
    let late = eye[last].cycles as f64 / esc[last].cycles as f64;
    assert!(
        late > early,
        "late layers should outpace early ones: {late} vs {early}"
    );
}

/// Figure 13 shape: ImageNet-sparsity workloads leave MACs idle; CIFAR
/// sparsity (>95%) does not.
#[test]
fn mac_idle_tracks_sparsity() {
    let mobilenet = ModelProfile::for_model("MobileNet").expect("known model");
    let run = run_model(&mobilenet, &SimConfig::default(), 1).expect("simulation succeeds");
    let idle: u64 = run
        .escalate
        .first_seed_stats
        .layers
        .iter()
        .map(|l| l.mac_idle_cycles)
        .sum();
    let slots: u64 = run
        .escalate
        .first_seed_stats
        .layers
        .iter()
        .map(|l| l.mac_cycle_slots)
        .sum();
    let frac = idle as f64 / slots as f64;
    assert!(frac > 0.05, "MobileNet should show idle MACs: {frac}");

    let resnet18 = ModelProfile::for_model("ResNet18").expect("known model");
    let run = run_model(&resnet18, &SimConfig::default(), 1).expect("simulation succeeds");
    let idle: u64 = run
        .escalate
        .first_seed_stats
        .layers
        .iter()
        .map(|l| l.mac_idle_cycles)
        .sum();
    let slots: u64 = run
        .escalate
        .first_seed_stats
        .layers
        .iter()
        .map(|l| l.mac_cycle_slots)
        .sum();
    let cifar_frac = idle as f64 / slots as f64;
    assert!(
        cifar_frac < frac,
        "high sparsity should reduce idling: {cifar_frac} vs {frac}"
    );
}

/// Figure 12 shape: growing M from 4 to 8 (with the MAC budget held)
/// increases latency and decreases compression.
#[test]
fn m_tradeoff_direction() {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    let mut last_cycles = 0.0;
    let mut last_comp = f64::INFINITY;
    for m in [4usize, 6, 8] {
        let cfg = CompressionConfig {
            m,
            ..CompressionConfig::default()
        };
        let artifacts =
            escalate_bench::compress_cached(&profile, &cfg).expect("compression succeeds");
        let stats = escalate::algo::ModelCompression::from_artifacts("r18", &artifacts);
        let workload =
            escalate_bench::workload_cached(&profile, &cfg).expect("compression succeeds");
        let run = escalate_bench::run_escalate_workload(
            &workload,
            &SimConfig::default().with_m(m).unwrap(),
            1,
        );
        assert!(run.cycles > last_cycles, "latency should grow with M");
        assert!(
            stats.compression_ratio() < last_comp,
            "compression should fall with M"
        );
        last_cycles = run.cycles;
        last_comp = stats.compression_ratio();
    }
}

/// Table 4 totals are reproduced by the component model.
#[test]
fn table4_totals() {
    use escalate::energy::area::{PeBlockArea, TOTAL_AREA_MM2, TOTAL_POWER_MW};
    let b = PeBlockArea::from_components();
    assert!((b.area_mm2 - TOTAL_AREA_MM2).abs() < 1e-3);
    assert!((b.power_mw - TOTAL_POWER_MW).abs() < 1e-2);
}
