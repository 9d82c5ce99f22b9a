//! **Figure 10**: the inference energy breakdown of ESCALATE on all six
//! models (DRAM, input buffer, MAC rows, dilution, concentration,
//! activation staging, coefficient+psum buffers). The output buffer is
//! omitted, as in the paper, because its share is negligible.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{run_model, tline};
use escalate_models::ModelProfile;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    tline!(
        t,
        "Figure 10: ESCALATE inference energy breakdown (% of total)"
    );
    tline!(t);
    tline!(
        t,
        "{:<12} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>10}",
        "Model",
        "DRAM",
        "InBuf",
        "MAC",
        "Dilut",
        "Concen",
        "ActBuf",
        "Cf+Ps",
        "total(uJ)"
    );
    for profile in ModelProfile::all() {
        let run = run_model(&profile, &ctx.sim, ctx.seeds)?;
        let e = &run.escalate.energy;
        let total = e.total_pj();
        let pct = |v: f64| 100.0 * v / total;
        tline!(
            t,
            "{:<12} {:>8.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>10.1}",
            profile.name,
            pct(e.dram_pj),
            pct(e.input_buf_pj),
            pct(e.mac_pj),
            pct(e.dilution_pj),
            pct(e.concentration_pj),
            pct(e.act_buf_pj),
            pct(e.coef_psum_pj),
            total * 1e-6,
        );
        t.push_record(Record::new([
            ("model", Cell::from(profile.name)),
            ("dram_pct", pct(e.dram_pj).into()),
            ("input_buf_pct", pct(e.input_buf_pj).into()),
            ("mac_pct", pct(e.mac_pj).into()),
            ("dilution_pct", pct(e.dilution_pj).into()),
            ("concentration_pct", pct(e.concentration_pj).into()),
            ("act_buf_pct", pct(e.act_buf_pj).into()),
            ("coef_psum_pct", pct(e.coef_psum_pj).into()),
            ("total_uj", (total * 1e-6).into()),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "Expected shape (paper): psum/coef buffers dominate buffer energy on shallow"
    );
    tline!(
        t,
        "models (VGG16, ResNet18) via dense read-modify-write; input reads dominate"
    );
    tline!(
        t,
        "on deep 1x1-heavy models (ResNet152, MobileNetV2); DRAM weight traffic is"
    );
    tline!(t, "nearly eliminated on CIFAR models.");
    Ok(())
}
