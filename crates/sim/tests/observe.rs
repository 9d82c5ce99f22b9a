//! Integration tests for the observability layer.
//!
//! Two contracts are pinned down here:
//!
//! 1. **Reconciliation** — counters recorded through `escalate-obs`
//!    during an engine run must equal the [`ModelStats`] the run returns,
//!    count for count (the observer flushes the very stats objects the
//!    caller receives, so any drift is a bug in the wiring).
//! 2. **Non-perturbation** — installing a recorder must not change
//!    simulation results by a single bit, at any thread count: observers
//!    only read the event stream.

use escalate_core::quant::TernaryCoeffs;
use escalate_models::LayerShape;
use escalate_obs::Registry;
use escalate_sim::engine::{simulate_layer_cold, simulate_layer_observed};
use escalate_sim::workload::{CoefMasks, LayerWorkload, WorkloadMode};
use escalate_sim::{simulate_model, ModelStats, ObsObserver, SimConfig, Workload};
use escalate_tensor::Tensor;
use proptest::prelude::*;
use std::sync::Arc;

fn decomposed(
    c: usize,
    k: usize,
    x: usize,
    coef_sparsity: f64,
    act_sparsity: f64,
) -> LayerWorkload {
    let m = 6;
    let coeffs = Tensor::from_fn(&[k, c, m], |i| {
        let h = (i[0] * 7919 + i[1] * 104729 + i[2] * 1299709) % 1000;
        if (h as f64) < coef_sparsity * 1000.0 {
            0.0
        } else if h % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let t = TernaryCoeffs::ternarize(&coeffs, 0.0).unwrap();
    LayerWorkload {
        name: format!("obs{c}x{k}"),
        shape: LayerShape::conv("o", c, k, x, x, 3, 1, 1),
        out_channels: k,
        mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
        act_sparsity,
        out_sparsity: act_sparsity,
        weight_bytes: 500,
    }
}

fn dense(c: usize, k: usize, x: usize) -> LayerWorkload {
    LayerWorkload {
        name: "obs-dense".into(),
        shape: LayerShape::conv("o", c, k, x, x, 3, 1, 1),
        out_channels: k,
        mode: WorkloadMode::Dense,
        act_sparsity: 0.5,
        out_sparsity: 0.5,
        weight_bytes: 500,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the layer mix, the `sim.*` engine counters in a private
    /// registry reconcile exactly with the returned stats: layer count,
    /// fallback count, and the cycle/MAC/CA-add/traffic totals.
    #[test]
    fn observer_counters_reconcile_with_model_stats(
        c in 16usize..80,
        k in 4usize..20,
        cs in 30u32..95,
        asp in 10u32..80,
        with_fallback in prop::option::weighted(0.5, 0u32..1),
    ) {
        let cfg = SimConfig::default();
        let mut layers = vec![
            decomposed(c, k, 8, cs as f64 / 100.0, asp as f64 / 100.0),
            decomposed(c / 2 + 1, k, 6, cs as f64 / 100.0, asp as f64 / 100.0),
        ];
        if with_fallback.is_some() {
            layers.push(dense(c, k, 6));
        }

        let reg = Arc::new(Registry::new());
        let mut model = ModelStats {
            model_name: "prop".into(),
            layers: Vec::new(),
            pipeline: None,
        };
        {
            let mut obs = ObsObserver::new(Arc::clone(&reg));
            for lw in &layers {
                model.layers.push(simulate_layer_observed(lw, &cfg, 0, &mut obs));
            }
        }

        prop_assert_eq!(reg.counter("sim.layers"), model.layers.len() as u64);
        let fallbacks = model.layers.iter().filter(|l| l.fallback).count() as u64;
        prop_assert_eq!(reg.counter("sim.fallback_layers"), fallbacks);
        prop_assert_eq!(reg.counter("sim.cycles"), model.total_cycles());
        prop_assert_eq!(reg.counter("sim.mac_ops"), model.total_mac_ops());
        prop_assert_eq!(reg.counter("sim.ca_adds"), model.total_ca_adds());
        prop_assert_eq!(
            reg.counter("sim.gather_passes"),
            model.layers.iter().map(|l| l.gather_passes).sum::<u64>()
        );
        prop_assert_eq!(reg.counter("sim.dram_bytes"), model.total_dram().total());
        prop_assert_eq!(reg.counter("sim.sram_bytes"), model.total_sram().total());

        // The layer-cycles histogram saw every layer once and sums to the
        // same total as the counter.
        let snap = reg.snapshot();
        let h = &snap.histograms["sim.layer_cycles"];
        prop_assert_eq!(h.count(), model.layers.len() as u64);
        prop_assert_eq!(h.sum(), model.total_cycles());

        // Decomposed layers walked positions; a sampled CA add implies a
        // walked position.
        prop_assert!(reg.counter("sim.positions_walked") > 0);
        prop_assert!(
            reg.counter("sim.ca_adds_sampled") == 0
                || reg.counter("sim.positions_walked") > 0
        );
    }
}

/// One test (not several) owns the process-global recorder slot: tests in
/// this binary run in parallel, and a second installer would race it.
#[test]
fn installed_recorder_does_not_perturb_results() {
    let w = Workload {
        model_name: "det".into(),
        layers: vec![
            decomposed(64, 16, 10, 0.85, 0.5),
            decomposed(48, 24, 8, 0.6, 0.3),
            dense(32, 8, 6),
        ],
    };
    let seq = SimConfig {
        threads: 1,
        ..SimConfig::default()
    };
    let par = SimConfig::default();
    // The unobserved baseline bypasses the process-wide caches, so the
    // observed passes below walk under the recorder instead of reading
    // the baseline's cached walks; each pass takes its own seed for the
    // same reason.
    let baseline = |seed: u64| ModelStats {
        model_name: "det".into(),
        layers: w
            .layers
            .iter()
            .map(|lw| simulate_layer_cold(lw, &seq, seed))
            .collect(),
        pipeline: None,
    };

    let reg = Arc::new(Registry::new());
    escalate_obs::install(Arc::clone(&reg));
    let observed_seq = simulate_model(&w, &seq, 3);
    let observed_par = simulate_model(&w, &par, 4);
    escalate_obs::uninstall();

    assert_eq!(
        baseline(3),
        observed_seq,
        "recorder must not perturb sequential results"
    );
    assert_eq!(
        baseline(4),
        observed_par,
        "recorder must not perturb parallel results"
    );
    // And the recorder did actually see the runs: two observed passes over
    // three layers each.
    assert_eq!(reg.counter("sim.layers"), 6);
    assert_eq!(
        reg.counter("sim.cycles"),
        observed_seq.total_cycles() + observed_par.total_cycles()
    );
    // A mask-draw span per sampled channel (8 of each decomposed layer's
    // K ≥ 16, two passes) and plan-compile spans. Lower bounds only: the
    // proptest above runs concurrently, and its spans also reach the
    // global recorder.
    let spans = reg.snapshot().spans;
    let count = |name: &str| spans.get(name).map_or(0, |s| s.count);
    assert!(count("sim.mask_draw") >= 2 * 2 * seq.sample_channels as u64);
    assert!(count("ca.plan_compile") > 0);
}
