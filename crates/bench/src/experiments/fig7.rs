//! **Figure 7**: model size vs accuracy for uniform, hybrid and
//! basis-only post-training quantization of decomposed ResNet18.
//!
//! - *uniform*: the same bit width for basis kernels and coefficients;
//! - *hybrid*: basis fixed at 8 bits, coefficients swept (the paper's
//!   policy; 2 bits uses the ternary path);
//! - *basis-only*: coefficients kept at fp32, basis swept.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_core::pipeline::accuracy_proxy;
use escalate_core::quant::{quantize_linear, quantize_linear_grouped, TernaryCoeffs};
use escalate_core::{decompose, Decomposed};
use escalate_models::{synth, LayerShape, ModelProfile};
use escalate_tensor::Tensor;

struct PolicyPoint {
    bits: u32,
    size_mb: f64,
    error: f64,
}

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    let model = profile.model();
    let layers: Vec<LayerShape> = model
        .conv_layers()
        .filter(|l| l.is_decomposable())
        .cloned()
        .collect();

    // Decompose every layer once (M = 6), then post-training-quantize
    // under each policy.
    let decomposed: Vec<(LayerShape, Tensor, Decomposed)> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let w = synth::weights(l, 6, 0.05, synth::layer_seed(42, i, 0));
            let m = 6.min(l.r * l.s);
            let d = decompose(&w, m)?;
            Ok((l.clone(), w, d))
        })
        .collect::<Result<_, escalate_core::EscalateError>>()?;

    tline!(
        t,
        "Figure 7: quantization policy sweep on decomposed ResNet18 (CIFAR-10)"
    );
    tline!(t);
    tline!(
        t,
        "{:<12} {:>5} {:>10} {:>9} {:>12}",
        "Policy",
        "bits",
        "size(MB)",
        "err",
        "proxy top-1"
    );
    for policy in ["uniform", "hybrid", "basis-only"] {
        for bits in [2u32, 3, 4, 6, 8] {
            let p = evaluate(&decomposed, policy, bits)?;
            let proxy = accuracy_proxy(profile.baseline_top1, p.error);
            tline!(
                t,
                "{:<12} {:>5} {:>10.3} {:>9.4} {:>12.2}",
                policy,
                p.bits,
                p.size_mb,
                p.error,
                proxy
            );
            t.push_record(Record::new([
                ("policy", Cell::from(policy)),
                ("bits", Cell::from(u64::from(p.bits))),
                ("size_mb", p.size_mb.into()),
                ("weight_error", p.error.into()),
                ("proxy_top1", proxy.into()),
            ]));
        }
        tline!(t);
    }
    tline!(
        t,
        "Expected shape (paper): hybrid tracks uniform's size while holding accuracy"
    );
    tline!(
        t,
        "near the basis-only (fp32-coefficient) curve — the frequently-reused basis"
    );
    tline!(t, "kernels need high precision, the coefficients do not.");
    Ok(())
}

fn evaluate(
    decomposed: &[(LayerShape, Tensor, Decomposed)],
    policy: &str,
    bits: u32,
) -> Result<PolicyPoint, ExpError> {
    let mut total_bits = 0usize;
    let mut err_weighted = 0.0f64;
    let mut params = 0usize;
    for (_, w, d) in decomposed {
        let (basis_bits, coeff_bits) = match policy {
            "uniform" => (bits, bits),
            "hybrid" => (8, bits),
            "basis-only" => (bits, 32),
            other => unreachable!("unknown policy {other}"),
        };
        let (basis_q, basis_sz) = quantize_linear(&d.basis, basis_bits)?;
        let (coeffs_q, coeff_sz) = if coeff_bits == 32 {
            (d.coeffs.clone(), d.coeffs.len() * 32)
        } else if coeff_bits == 2 {
            // 2-bit coefficients use the ternary path with per-filter
            // scales (Eq. 4), as in the paper.
            let tern = TernaryCoeffs::ternarize(&d.coeffs, 0.05)?;
            let sz = escalate_core::pipeline::ternary_storage_bits(&tern);
            (tern.dequantize(), sz)
        } else {
            // One scale per output-channel slice, matching the per-filter
            // scaling of Eq. (4).
            let slice_len = d.c() * d.m();
            quantize_linear_grouped(&d.coeffs, coeff_bits, slice_len)?
        };
        let q = Decomposed {
            basis: basis_q,
            coeffs: coeffs_q,
            captured_energy: 1.0,
        };
        let e = w.relative_error(&q.reconstruct()) as f64;
        err_weighted += e * w.len() as f64;
        params += w.len();
        total_bits += basis_sz + coeff_sz;
    }
    Ok(PolicyPoint {
        bits,
        size_mb: total_bits as f64 / 8.0 / (1024.0 * 1024.0),
        error: err_weighted / params as f64,
    })
}
