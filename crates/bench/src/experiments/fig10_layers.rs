//! Companion to Figure 10: the ESCALATE energy breakdown resolved per
//! layer for one model, showing *where* in the network each component's
//! share comes from (the paper discusses shallow-vs-deep divergence at
//! the model level; this view localizes it).
//!
//! Takes an optional model-name argument (default ResNet18).

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{escalate_layer_energies, run_escalate_workload, tline, workload_cached};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let name = ctx.arg_or("ResNet18");
    let profile = ModelProfile::for_model(name)
        .ok_or_else(|| ExpError::Msg(format!("unknown model {name}")))?;
    let cfg = &ctx.sim;
    let workload = workload_cached(&profile, &CompressionConfig::default())?;
    let run = run_escalate_workload(&workload, cfg, 1);
    let layers = escalate_layer_energies(&run, cfg);

    tline!(
        t,
        "Per-layer ESCALATE energy breakdown, {} (% of the layer's energy)",
        profile.name
    );
    tline!(t);
    tline!(
        t,
        "{:<22} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "layer",
        "total(uJ)",
        "DRAM",
        "MAC",
        "Dilut",
        "Concen",
        "bufs"
    );
    for (layer_name, e) in &layers {
        let total = e.total_pj();
        let pct = |v: f64| 100.0 * v / total.max(1e-12);
        let bufs = e.input_buf_pj + e.coef_psum_pj + e.act_buf_pj + e.output_buf_pj;
        tline!(
            t,
            "{:<22} {:>10.2} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            layer_name,
            total * 1e-6,
            pct(e.dram_pj),
            pct(e.mac_pj),
            pct(e.dilution_pj),
            pct(e.concentration_pj),
            pct(bufs),
        );
        t.push_record(Record::new([
            ("layer", Cell::from(layer_name.clone())),
            ("total_uj", (total * 1e-6).into()),
            ("dram_pct", pct(e.dram_pj).into()),
            ("mac_pct", pct(e.mac_pj).into()),
            ("dilution_pct", pct(e.dilution_pj).into()),
            ("concentration_pct", pct(e.concentration_pj).into()),
            ("bufs_pct", pct(bufs).into()),
        ]));
    }
    let model_total: f64 = layers.iter().map(|(_, e)| e.total_pj()).sum();
    tline!(t);
    tline!(
        t,
        "model total: {:.1} uJ over {} layers",
        model_total * 1e-6,
        layers.len()
    );
    tline!(t);
    tline!(
        t,
        "Early wide-map layers are DRAM-lean and logic-dominated; layers whose"
    );
    tline!(
        t,
        "compressed inputs exceed the distributed buffers (re-streamed IFMs) and"
    );
    tline!(
        t,
        "the dense-fallback first layer carry the DRAM share — the layer-resolved"
    );
    tline!(t, "view behind the model-level Figure 10 bars.");
    Ok(())
}
