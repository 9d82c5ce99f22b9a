//! Detailed layer simulation: the cycle-stepped slice pipeline scaled out
//! to the full PE array with the Basis-First work-queue schedule.
//!
//! Where [`crate::engine`] samples positions and extrapolates, this mode
//! runs [`crate::slice`] for every (output channel, slice) assignment of
//! a layer against real per-position activation masks and takes the
//! schedule's critical path: blocks pull output channels from a shared
//! queue; a block's time for one channel is its slowest slice; the layer
//! ends when the last block drains. It is exact w.r.t. the slice pipeline
//! but quadratic in layer size — use it for small layers and for
//! validating the engine (see `tests/detailed_validation.rs` and
//! `tests/fidelity.rs`). Layer setup comes from the shared
//! [`LayerContext`]; each stepped slice flows through the
//! [`SimObserver`] hook.

use crate::config::SimConfig;
use crate::context::{LayerContext, NoopObserver, SimObserver, SliceEvent};
use crate::error::SimError;
use crate::masks::position_masks;
use crate::slice::{run_slice, PositionInput, SliceTrace};
use crate::workload::LayerWorkload;
use escalate_tensor::Tensor;

/// Result of a detailed layer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetailedStats {
    /// Layer cycles: the critical path of the block-level work queue.
    pub cycles: u64,
    /// Sum of all slices' MAC idle cycles.
    pub mac_idle_cycles: u64,
    /// Sum of all slices' stream stalls.
    pub stream_stall_cycles: u64,
    /// Total matched pairs accumulated.
    pub matched: u64,
    /// Output-channel assignments executed.
    pub channels: usize,
}

/// Runs a decomposed layer in detailed mode against a concrete input
/// feature map.
///
/// # Errors
///
/// Returns a [`SimError`] if the workload is not decomposed or the
/// feature map disagrees with the layer shape.
pub fn simulate_layer_detailed(
    lw: &LayerWorkload,
    cfg: &SimConfig,
    ifm: &Tensor,
) -> Result<DetailedStats, SimError> {
    match crate::observe::ObsObserver::from_global() {
        Some(mut obs) => simulate_layer_detailed_observed(lw, cfg, ifm, &mut obs),
        None => simulate_layer_detailed_observed(lw, cfg, ifm, &mut NoopObserver),
    }
}

/// [`simulate_layer_detailed`] with a [`SimObserver`] receiving every
/// cycle-stepped slice trace.
///
/// # Errors
///
/// See [`simulate_layer_detailed`].
fn simulate_layer_detailed_observed(
    lw: &LayerWorkload,
    cfg: &SimConfig,
    ifm: &Tensor,
    obs: &mut dyn SimObserver,
) -> Result<DetailedStats, SimError> {
    let ctx = LayerContext::new(lw, cfg)?;
    ctx.validate_ifm(ifm)?;
    let (c, m, k_total) = (ctx.c, ctx.m, ctx.k_total);
    let y = lw.shape.y;

    // Per-position activation masks, grouped by slice ownership
    // (row i → slice i % l).
    let pos_masks = position_masks(ifm);
    let slice_rows: Vec<Vec<usize>> = (0..cfg.l)
        .map(|s| (s..lw.shape.x).step_by(cfg.l).collect())
        .collect();

    // Per output channel: the slowest slice's cycle count.
    let mut channel_time = Vec::with_capacity(k_total);
    let mut total = DetailedStats::default();
    for k in 0..k_total {
        let coef_masks: Vec<Vec<u64>> = (0..m).map(|mi| ctx.masks.mask(k, mi).to_vec()).collect();
        let mut worst = 0u64;
        for (si, rows) in slice_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let positions: Vec<PositionInput> = rows
                .iter()
                .flat_map(|&xi| (0..y).map(move |yi| xi * y + yi))
                .map(|p| PositionInput {
                    act_mask: pos_masks[p].clone(),
                    coef_masks: coef_masks.clone(),
                    c,
                })
                .collect();
            let t: SliceTrace = run_slice(cfg, m, ctx.rs, &positions);
            obs.on_slice(&SliceEvent {
                channel: k,
                slice: si,
                trace: &t,
            });
            worst = worst.max(t.cycles);
            total.mac_idle_cycles += t.mac_idle_cycles;
            total.stream_stall_cycles += t.stream_stall_cycles;
            total.matched += t.matched;
        }
        channel_time.push(worst);
    }
    total.channels = k_total;

    // Work-queue schedule over N_PE blocks: longest-processing-time-first
    // is what the hardware's greedy pull approximates; we replay the
    // in-order pull (channels arrive in index order).
    let mut block_loads = vec![0u64; cfg.n_pe];
    for &t in &channel_time {
        let idx = block_loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &load)| load)
            .map(|(i, _)| i)
            .expect("at least one block");
        block_loads[idx] += t;
    }
    total.cycles = block_loads.into_iter().max().unwrap_or(0);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CoefMasks, WorkloadMode};
    use escalate_core::quant::TernaryCoeffs;
    use escalate_models::{synth, LayerShape};

    fn workload(c: usize, k: usize, x: usize, coef_sparsity: f64) -> (LayerWorkload, Tensor) {
        let coeffs = Tensor::from_fn(&[k, c, 6], |i| {
            let h = (i[0] * 7919 + i[1] * 104729 + i[2] * 1299709) % 1000;
            if (h as f64) < coef_sparsity * 1000.0 {
                0.0
            } else {
                1.0
            }
        });
        let t = TernaryCoeffs::ternarize(&coeffs, 0.0).unwrap();
        let shape = LayerShape::conv("d", c, k, x, x, 3, 1, 1);
        let ifm = synth::activations(&shape, 0.5, 7);
        (
            LayerWorkload {
                name: "detailed".into(),
                shape,
                out_channels: k,
                mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
                act_sparsity: 0.5,
                out_sparsity: 0.5,
                weight_bytes: 100,
            },
            ifm,
        )
    }

    #[test]
    fn covers_every_channel_and_counts_matches() {
        let (lw, ifm) = workload(32, 8, 6, 0.8);
        let d = simulate_layer_detailed(&lw, &SimConfig::default(), &ifm).unwrap();
        assert_eq!(d.channels, 8);
        assert!(d.cycles > 0);
        assert!(d.matched > 0);
    }

    #[test]
    fn more_channels_than_blocks_serialize() {
        let cfg = SimConfig::default();
        let (small, ifm_s) = workload(16, 32, 6, 0.9);
        let (large, ifm_l) = workload(16, 96, 6, 0.9);
        let ds = simulate_layer_detailed(&small, &cfg, &ifm_s).unwrap();
        let dl = simulate_layer_detailed(&large, &cfg, &ifm_l).unwrap();
        // 96 channels over 32 blocks = 3 rounds vs 1: ~3x the time.
        let ratio = dl.cycles as f64 / ds.cycles as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dense_coefficients_cost_more_than_sparse() {
        let cfg = SimConfig::default();
        let (dense, ifm_d) = workload(128, 8, 6, 0.2);
        let (sparse, ifm_s) = workload(128, 8, 6, 0.98);
        let dd = simulate_layer_detailed(&dense, &cfg, &ifm_d).unwrap();
        let ds = simulate_layer_detailed(&sparse, &cfg, &ifm_s).unwrap();
        assert!(dd.cycles >= ds.cycles);
        assert!(dd.matched > ds.matched);
    }

    #[test]
    fn bad_inputs_return_typed_errors() {
        let (lw, _) = workload(32, 8, 6, 0.8);
        let cfg = SimConfig::default();
        let err = simulate_layer_detailed(&lw, &cfg, &Tensor::zeros(&[32, 7, 6])).unwrap_err();
        assert!(matches!(err, SimError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn observer_sees_every_stepped_slice() {
        struct Slices(usize);
        impl crate::context::SimObserver for Slices {
            fn on_slice(&mut self, _ev: &SliceEvent) {
                self.0 += 1;
            }
        }
        let (lw, ifm) = workload(32, 8, 6, 0.8);
        let cfg = SimConfig::default();
        let mut obs = Slices(0);
        simulate_layer_detailed_observed(&lw, &cfg, &ifm, &mut obs).unwrap();
        // 6 rows over l=5 slices: 5 non-empty slices per channel.
        assert_eq!(obs.0, 8 * 5);
    }
}
