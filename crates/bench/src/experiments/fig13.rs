//! **Figure 13**: MAC idle-cycle fraction and coefficient sparsity per
//! layer of MobileNet (ImageNet).

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{bar, compress_cached, tline};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;
use escalate_sim::{simulate_model, Workload};

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let cfg = &ctx.sim;
    let profile = ModelProfile::for_model("MobileNet").expect("known model");
    let artifacts = compress_cached(&profile, &CompressionConfig::default())?;
    let workload = Workload::from_artifacts("MobileNet", &artifacts, &profile);
    let stats = simulate_model(&workload, cfg, 0);

    tline!(
        t,
        "Figure 13: MAC idle cycles and coefficient sparsity per MobileNet layer"
    );
    tline!(t);
    tline!(t, "{:<16} {:>8} {:>8}  idle", "Layer", "spar%", "idle%");
    for (a, l) in artifacts.iter().zip(&stats.layers) {
        let spar = a.stats.coeff_sparsity() * 100.0;
        let idle = l.mac_idle_fraction() * 100.0;
        tline!(
            t,
            "{:<16} {:>7.1}% {:>7.1}%  |{}",
            l.name,
            spar,
            idle,
            bar(idle, 100.0, 30)
        );
        t.push_record(Record::new([
            ("layer", Cell::from(l.name.clone())),
            ("sparsity_pct", spar.into()),
            ("idle_pct", idle.into()),
        ]));
    }
    let total_idle: u64 = stats.layers.iter().map(|l| l.mac_idle_cycles).sum();
    let total_slots: u64 = stats.layers.iter().map(|l| l.mac_cycle_slots).sum();
    tline!(t);
    tline!(
        t,
        "overall idle fraction: {:.1}%",
        100.0 * total_idle as f64 / total_slots.max(1) as f64
    );
    tline!(t);
    tline!(
        t,
        "Expected shape (paper): denser coefficient slices make the CA the"
    );
    tline!(
        t,
        "bottleneck, so idle MACs track (1 - sparsity); ImageNet's moderate"
    );
    tline!(
        t,
        "sparsity leaves substantial idle fractions, unlike the CIFAR models."
    );
    Ok(())
}
