//! Ablation: Eq. (2) vs Eq. (3) computation order (paper §3.1).
//!
//! Measures, per ResNet18 layer shape, the intermediate-feature-map
//! footprint of the two orders of decomposed convolution and checks that
//! they agree. The reorganization (Eq. 3) is the ESCALATE algorithm's
//! first contribution: it shrinks the intermediate state from `C·M`
//! output-sized maps to `M` input-sized maps. The criterion `kernels`
//! bench times the two orders.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_core::decompose;
use escalate_core::reorg::{forward_eq2, forward_eq3, intermediate_footprint};
use escalate_models::{synth, ModelProfile};

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    tline!(
        t,
        "Eq.(2) vs Eq.(3): intermediate footprint (elements) and output agreement"
    );
    tline!(t);
    tline!(
        t,
        "{:<20} {:>5} {:>5} {:>12} {:>12} {:>8}",
        "Layer",
        "C",
        "K",
        "inter eq2",
        "inter eq3",
        "agree"
    );
    // Scale the spatial size down so the dense reference runs quickly; the
    // footprint ratio C·M/M is spatial-size independent.
    for (i, layer) in profile
        .model()
        .conv_layers()
        .filter(|l| l.is_decomposable())
        .take(9)
        .enumerate()
    {
        let mut l = layer.clone();
        l.x = l.x.min(16);
        l.y = l.y.min(16);
        let w = synth::weights(&l, 6, 0.05, synth::layer_seed(7, i, 0));
        let d = decompose(&w, 6.min(l.r * l.s))?;
        let input = synth::activations(&l, 0.5, i as u64);

        let (o2, i2) = forward_eq2(&d, &input, l.stride, l.pad);
        let (o3, i3) = forward_eq3(&d, &input, l.stride, l.pad);
        let (f2, f3) = intermediate_footprint(&d, l.x, l.y, l.stride, l.pad);
        if (i2, i3) != (f2, f3) {
            return Err(ExpError::Msg(format!(
                "{}: footprint helper ({f2}, {f3}) disagrees with execution ({i2}, {i3})",
                l.name
            )));
        }

        let agree = o2.all_close(&o3, 1e-2);
        tline!(
            t,
            "{:<20} {:>5} {:>5} {:>12} {:>12} {:>8}",
            l.name,
            l.c,
            l.k,
            i2,
            i3,
            if agree { "yes" } else { "NO" },
        );
        t.push_record(Record::new([
            ("layer", Cell::from(l.name.clone())),
            ("c", Cell::from(l.c)),
            ("k", Cell::from(l.k)),
            ("intermediate_eq2", Cell::from(i2)),
            ("intermediate_eq3", Cell::from(i3)),
            ("outputs_agree", agree.into()),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "Eq.(3) holds only M maps live (vs C·M), enabling stream processing; both"
    );
    tline!(
        t,
        "orders produce identical outputs (distributivity of convolution)."
    );
    Ok(())
}
