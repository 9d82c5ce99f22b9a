//! **Figure 11**: layer-wise sparsity and speedup over Eyeriss for
//! ResNet18 (the paper's subject), for all four accelerators. Takes an
//! optional model-name argument to analyze a different network.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{tline, workload_cached};
use escalate_baselines::{BaselineWorkload, Eyeriss, LayerModel, Scnn, SparTen};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;
use escalate_sim::simulate_model;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let cfg = &ctx.sim;
    let name = ctx.arg_or("ResNet18");
    let profile = ModelProfile::for_model(name)
        .ok_or_else(|| ExpError::Msg(format!("unknown model {name}")))?;
    let workload = workload_cached(&profile, &CompressionConfig::default())?;
    let esc = simulate_model(&workload, cfg, 0);

    let bw = BaselineWorkload::for_profile(&profile);
    let eye = Eyeriss::default().simulate(&bw, 0);
    let scnn = Scnn::default().simulate(&bw, 0);
    let sparten = SparTen::default().simulate(&bw, 0);

    tline!(
        t,
        "Figure 11: layer-wise speedup over Eyeriss, {} ({})",
        profile.name,
        profile.dataset
    );
    tline!(t);
    tline!(
        t,
        "{:<20} {:>5} {:>5} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "Layer",
        "C",
        "K",
        "spar%",
        "SCNN",
        "SparTen",
        "ESCALATE",
        "C/M limit"
    );
    // The per-layer comparison requires unfused layer lists (ESCALATE
    // fuses dw+pw pairs on the MobileNets).
    if esc.layers.len() != eye.layers.len() {
        return Err(ExpError::Msg(format!(
            "{} fuses DSC pairs; layer-wise comparison needs an unfused model",
            profile.name
        )));
    }
    let conv: Vec<_> = profile.model().conv_layers().cloned().collect();
    let n = conv.len();
    for (i, layer) in conv.iter().enumerate() {
        let e_cycles = eye.layers[i].cycles as f64;
        let esc_l = &esc.layers[i];
        let spar = profile.layer_coeff_sparsity(i, n) * 100.0;
        let cm = layer.c as f64 / cfg.m as f64;
        tline!(
            t,
            "{:<20} {:>5} {:>5} {:>6.1}% {:>8.2}x {:>8.2}x {:>8.2}x {:>8.1}x{}",
            layer.name,
            layer.c,
            layer.k,
            spar,
            e_cycles / scnn.layers[i].cycles as f64,
            e_cycles / sparten.layers[i].cycles as f64,
            e_cycles / esc_l.cycles as f64,
            cm,
            if esc_l.fallback {
                "  (dense fallback)"
            } else {
                ""
            },
        );
        t.push_record(Record::new([
            ("layer", Cell::from(layer.name.clone())),
            ("c", Cell::from(layer.c)),
            ("k", Cell::from(layer.k)),
            ("sparsity_pct", spar.into()),
            (
                "speedup_scnn",
                (e_cycles / scnn.layers[i].cycles as f64).into(),
            ),
            (
                "speedup_sparten",
                (e_cycles / sparten.layers[i].cycles as f64).into(),
            ),
            ("speedup_escalate", (e_cycles / esc_l.cycles as f64).into()),
            ("cm_limit", cm.into()),
            ("fallback", esc_l.fallback.into()),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "Expected shape (paper): ESCALATE slower than Eyeriss on the first layer"
    );
    tline!(
        t,
        "(dense fallback); within the first three blocks ESCALATE approaches the C/M"
    );
    tline!(
        t,
        "limit; SCNN leads in early (large-map) layers, SparTen in late (deep) ones."
    );
    Ok(())
}
