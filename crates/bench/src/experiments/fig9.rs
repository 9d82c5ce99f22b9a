//! **Figure 9**: DRAM accesses of the baseline accelerators normalized to
//! ESCALATE, on all six models.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{bar, geomean, run_model, tline};
use escalate_models::ModelProfile;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    tline!(
        t,
        "Figure 9: DRAM accesses normalized to ESCALATE (higher = more traffic)"
    );
    tline!(t);
    tline!(
        t,
        "{:<12} {:>9} {:>9} {:>9} {:>10}",
        "Model",
        "Eyeriss",
        "SCNN",
        "SparTen",
        "ESCALATE"
    );
    let mut ratios = Vec::new();
    for profile in ModelProfile::all() {
        let run = run_model(&profile, &ctx.sim, ctx.seeds)?;
        let r = [
            run.dram_vs_escalate(&run.eyeriss),
            run.dram_vs_escalate(&run.scnn),
            run.dram_vs_escalate(&run.sparten),
        ];
        tline!(
            t,
            "{:<12} {:>8.2}x {:>8.2}x {:>8.2}x {:>9.2}x   |{}",
            profile.name,
            r[0],
            r[1],
            r[2],
            1.0,
            bar(r[0], 40.0, 30)
        );
        t.push_record(Record::new([
            ("model", Cell::from(profile.name)),
            ("dram_eyeriss_x", r[0].into()),
            ("dram_scnn_x", r[1].into()),
            ("dram_sparten_x", r[2].into()),
        ]));
        ratios.push(r);
    }
    let col = |i: usize| -> f64 { geomean(&ratios.iter().map(|r| r[i]).collect::<Vec<f64>>()) };
    tline!(t, "{}", "-".repeat(60));
    tline!(
        t,
        "{:<12} {:>8.2}x {:>8.2}x {:>8.2}x",
        "geomean",
        col(0),
        col(1),
        col(2)
    );
    t.push_record(Record::new([
        ("model", Cell::from("geomean")),
        ("dram_eyeriss_x", col(0).into()),
        ("dram_scnn_x", col(1).into()),
        ("dram_sparten_x", col(2).into()),
    ]));
    tline!(t);
    tline!(
        t,
        "Paper reference (means): Eyeriss 18.1x, SCNN 5.3x, SparTen 9.4x the DRAM"
    );
    tline!(
        t,
        "accesses of ESCALATE; CIFAR models show the big reductions, ImageNet"
    );
    tline!(t, "models are similar or favor the baselines.");
    Ok(())
}
