//! Ablation: the closed-form Eyeriss utilization vs an explicit
//! row-stationary mapping search (TimeLoop-lite).
//!
//! The Figure 8/9/11 baselines use a closed-form Eyeriss model (kernel-row
//! fit × scheduling efficiency). This study runs the full mapping search
//! on every ResNet18 layer and reports the per-layer gap, validating that
//! the closed form sits within the scheduling-efficiency envelope of the
//! best discoverable mapping — i.e. the normalization baseline is neither
//! sandbagged nor idealized.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_baselines::rs_mapper::search;
use escalate_baselines::{BaselineWorkload, Eyeriss, LayerModel};
use escalate_models::ModelProfile;

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    let workload = BaselineWorkload::for_profile(&profile);
    let eye = Eyeriss::default();
    let closed = eye.simulate(&workload, 0);

    tline!(
        t,
        "Row-stationary mapping search vs the closed-form Eyeriss model (ResNet18)"
    );
    tline!(t);
    tline!(
        t,
        "{:<20} {:>10} {:>10} {:>7} {:>14} {:>8}",
        "Layer",
        "searched",
        "closed",
        "ratio",
        "mapping",
        "util"
    );
    let mut total_searched = 0u64;
    let mut total_closed = 0u64;
    for (w, cl) in workload.iter().zip(&closed.layers) {
        let m = search(w, 32, 32);
        total_searched += m.cycles;
        total_closed += cl.cycles;
        tline!(
            t,
            "{:<20} {:>10} {:>10} {:>6.2}x {:>6}r/{:<3}o/{:<3}f {:>7.1}%",
            w.layer.name,
            m.cycles,
            cl.cycles,
            cl.cycles as f64 / m.cycles as f64,
            m.row_replicas,
            m.cols_for_output,
            m.cols_for_filters,
            m.utilization * 100.0,
        );
        t.push_record(Record::new([
            ("layer", Cell::from(w.layer.name.clone())),
            ("searched_cycles", Cell::from(m.cycles)),
            ("closed_cycles", Cell::from(cl.cycles)),
            (
                "closed_over_searched_x",
                (cl.cycles as f64 / m.cycles as f64).into(),
            ),
            ("row_replicas", Cell::from(m.row_replicas)),
            ("cols_for_output", Cell::from(m.cols_for_output)),
            ("cols_for_filters", Cell::from(m.cols_for_filters)),
            ("utilization_pct", (m.utilization * 100.0).into()),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "model total: searched {total_searched}, closed-form {total_closed} ({:.2}x)",
        total_closed as f64 / total_searched as f64
    );
    tline!(t);
    tline!(
        t,
        "The searched mapping is the fragmentation-only ideal; the closed form adds"
    );
    tline!(
        t,
        "the scheduling-efficiency residual real schedules pay. A model-level ratio"
    );
    tline!(
        t,
        "near 1.0-1.5x confirms the normalization baseline of Figures 8/9/11 is fair."
    );
    Ok(())
}
