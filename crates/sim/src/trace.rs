//! Trace-driven simulation on real activation tensors.
//!
//! The throughput engine draws synthetic per-position activation masks
//! from the layer's sparsity (a Bernoulli model). This module instead
//! consumes an actual `C×X×Y` feature map — e.g. one produced by
//! `escalate_models::synth::activations`, or a real intermediate map from
//! the algorithm crate's forward passes — walks *every* position of the
//! sampled channels through the shared core ([`crate::context`]), and
//! runs the same bit-exact CA cost model. It is the reproduction's
//! trace-based mode (the paper's simulators are fully trace driven), used
//! to validate the sampling engine and available for exact small-layer
//! studies (set `SimConfig::sample_channels` to `K` for full channel
//! coverage).

use crate::config::SimConfig;
use crate::context::{
    assemble_stats, run_positions, LayerContext, NoopObserver, SimObserver, TrafficInputs,
};
use crate::error::SimError;
use crate::masks::MaskSource;
use crate::stats::LayerStats;
use crate::workload::LayerWorkload;
use escalate_tensor::Tensor;

pub use crate::masks::position_masks;

/// Simulates a decomposed layer against a concrete input feature map,
/// walking every position of every sampled output channel
/// (`cfg.sample_channels` of them; all channels when `K` is smaller).
///
/// Returns the same [`LayerStats`] the sampling engine produces; traffic
/// accounting uses the map's true nonzero count rather than the profile
/// sparsity.
///
/// # Errors
///
/// Returns a [`SimError`] if the workload is not decomposed, or the
/// feature map's shape disagrees with the workload's.
///
/// As with the sampled engine, an installed process-global metrics
/// recorder receives the run's events; otherwise this is the zero-cost
/// no-op path.
pub fn simulate_layer_traced(
    lw: &LayerWorkload,
    cfg: &SimConfig,
    ifm: &Tensor,
) -> Result<LayerStats, SimError> {
    match crate::observe::ObsObserver::from_global() {
        Some(mut obs) => simulate_layer_traced_observed(lw, cfg, ifm, &mut obs),
        None => simulate_layer_traced_observed(lw, cfg, ifm, &mut NoopObserver),
    }
}

/// [`simulate_layer_traced`] with a [`SimObserver`] receiving every
/// walked position's CA cost.
///
/// # Errors
///
/// See [`simulate_layer_traced`].
fn simulate_layer_traced_observed(
    lw: &LayerWorkload,
    cfg: &SimConfig,
    ifm: &Tensor,
    obs: &mut dyn SimObserver,
) -> Result<LayerStats, SimError> {
    let ctx = LayerContext::new(lw, cfg)?;
    ctx.validate_ifm(ifm)?;

    let pos_masks = position_masks(ifm);
    let sampled_k = ctx.sample_channels(cfg);
    let mut source = MaskSource::trace(&pos_masks);
    let agg = run_positions(&ctx, cfg, &sampled_k, &mut source, obs);

    // Exact compressed stream size from the Figure 4(a) layout (values +
    // 2-level maps across the l slice streams).
    let streams = escalate_sparse::actcodec::encode_feature_map(
        ifm.as_slice(),
        ctx.c,
        lw.shape.x,
        lw.shape.y,
        cfg.l,
    );
    let nnz_act_bytes = ifm.nnz() as u64;
    let ifm_bytes: u64 = streams
        .iter()
        .map(|s| s.size_bits(8) as u64)
        .sum::<u64>()
        .div_ceil(8);
    let stats = assemble_stats(
        &ctx,
        cfg,
        &agg,
        &TrafficInputs {
            nnz_act_bytes,
            ifm_bytes,
        },
    );
    obs.on_layer(&stats);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_layer;
    use crate::workload::{CoefMasks, WorkloadMode};
    use escalate_core::quant::TernaryCoeffs;
    use escalate_models::{synth, LayerShape};

    fn workload(
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
            name: format!("tr{c}x{k}"),
            shape: LayerShape::conv("t", c, k, x, x, 3, 1, 1),
            out_channels: k,
            mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
            act_sparsity,
            out_sparsity: act_sparsity,
            weight_bytes: 1000,
        }
    }

    #[test]
    fn position_masks_match_tensor_pattern() {
        let l = LayerShape::conv("t", 70, 8, 6, 6, 3, 1, 1);
        let ifm = synth::activations(&l, 0.5, 3);
        let masks = position_masks(&ifm);
        assert_eq!(masks.len(), 36);
        for xi in 0..6 {
            for yi in 0..6 {
                for ci in 0..70 {
                    let bit = masks[xi * 6 + yi][ci / 64] >> (ci % 64) & 1 == 1;
                    assert_eq!(bit, ifm.get(&[ci, xi, yi]) != 0.0);
                }
            }
        }
    }

    #[test]
    fn traced_and_sampled_agree_on_matched_statistics() {
        let lw = workload(96, 32, 12, 0.9, 0.5);
        let ifm = synth::activations(&lw.shape, 0.5, 11);
        let traced = simulate_layer_traced(&lw, &SimConfig::default(), &ifm).unwrap();
        let sampled = simulate_layer(&lw, &SimConfig::default(), 0);
        // Same op model.
        assert_eq!(traced.mac_ops, sampled.mac_ops);
        // Matched-pair estimates within 20% (both fidelities now walk the
        // same stratified channel sample; the randomness differs — real
        // spatially-correlated map vs Bernoulli draws).
        let ratio = crate::stats::checked_ratio(traced.ca_adds, sampled.ca_adds)
            .expect("sampled run matched zero pairs");
        assert!((0.8..1.25).contains(&ratio), "ca_adds ratio {ratio}");
    }

    #[test]
    fn traced_and_sampled_cycles_agree() {
        for (cs, as_) in [(0.95, 0.6), (0.7, 0.3)] {
            let lw = workload(128, 64, 10, cs, as_);
            let ifm = synth::activations(&lw.shape, as_, 5);
            let traced = simulate_layer_traced(&lw, &SimConfig::default(), &ifm)
                .unwrap()
                .cycles as f64;
            let sampled = simulate_layer(&lw, &SimConfig::default(), 0).cycles as f64;
            let ratio = traced / sampled;
            assert!(
                (0.75..1.35).contains(&ratio),
                "cs={cs} as={as_}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn spatially_correlated_activations_shift_costs() {
        // The synthetic generator produces spatially-correlated maps; the
        // traced run must still produce finite, covered stats.
        let lw = workload(64, 16, 8, 0.8, 0.7);
        let ifm = synth::activations(&lw.shape, 0.7, 21);
        let t = simulate_layer_traced(&lw, &SimConfig::default(), &ifm).unwrap();
        assert!(t.cycles > 0);
        assert!(t.ca_adds > 0);
        assert_eq!(t.dram.weights, 1000);
    }

    #[test]
    fn dense_workloads_are_rejected() {
        let lw = LayerWorkload {
            name: "d".into(),
            shape: LayerShape::conv("d", 3, 8, 8, 8, 3, 1, 1),
            out_channels: 8,
            mode: WorkloadMode::Dense,
            act_sparsity: 0.5,
            out_sparsity: 0.5,
            weight_bytes: 10,
        };
        let ifm = Tensor::zeros(&[3, 8, 8]);
        let err = simulate_layer_traced(&lw, &SimConfig::default(), &ifm).unwrap_err();
        assert!(matches!(err, SimError::NotDecomposed { .. }), "{err}");
    }

    #[test]
    fn mismatched_feature_maps_are_rejected() {
        let lw = workload(64, 16, 8, 0.8, 0.5);
        let cfg = SimConfig::default();
        let wrong_rank = Tensor::zeros(&[64, 8]);
        assert!(matches!(
            simulate_layer_traced(&lw, &cfg, &wrong_rank),
            Err(SimError::BadFeatureMap { .. })
        ));
        let wrong_shape = Tensor::zeros(&[64, 9, 8]);
        assert!(matches!(
            simulate_layer_traced(&lw, &cfg, &wrong_shape),
            Err(SimError::ShapeMismatch { .. })
        ));
    }
}
