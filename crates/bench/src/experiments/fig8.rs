//! **Figure 8**: normalized speedup and energy efficiency (over Eyeriss)
//! of ESCALATE, SCNN and SparTen on all six models.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{geomean, ratio, run_model, tline};
use escalate_models::ModelProfile;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let mut speedups = Vec::new();
    let mut effs = Vec::new();

    tline!(
        t,
        "Figure 8: normalized speedup / energy efficiency over Eyeriss"
    );
    tline!(t);
    tline!(
        t,
        "{:<12} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Model",
        "SCNN",
        "SparTen",
        "ESCALATE",
        "SCNN",
        "SparTen",
        "ESCALATE"
    );
    tline!(
        t,
        "{:<12} | {:^29} | {:^29}",
        "",
        "speedup",
        "energy efficiency"
    );
    tline!(t, "{}", "-".repeat(78));
    for profile in ModelProfile::all() {
        let run = run_model(&profile, &ctx.sim, ctx.seeds)?;
        let s = [
            run.speedup_over_eyeriss(&run.scnn),
            run.speedup_over_eyeriss(&run.sparten),
            run.speedup_over_eyeriss(&run.escalate),
        ];
        let e = [
            run.efficiency_over_eyeriss(&run.scnn),
            run.efficiency_over_eyeriss(&run.sparten),
            run.efficiency_over_eyeriss(&run.escalate),
        ];
        tline!(
            t,
            "{:<12} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            profile.name,
            ratio(s[0]),
            ratio(s[1]),
            ratio(s[2]),
            ratio(e[0]),
            ratio(e[1]),
            ratio(e[2]),
        );
        t.push_record(Record::new([
            ("model", Cell::from(profile.name)),
            ("speedup_scnn", s[0].into()),
            ("speedup_sparten", s[1].into()),
            ("speedup_escalate", s[2].into()),
            ("efficiency_scnn", e[0].into()),
            ("efficiency_sparten", e[1].into()),
            ("efficiency_escalate", e[2].into()),
        ]));
        speedups.push(s);
        effs.push(e);
    }
    tline!(t, "{}", "-".repeat(78));
    let column = |i: usize, v: &[[f64; 3]]| -> f64 {
        geomean(&v.iter().map(|r| r[i]).collect::<Vec<f64>>())
    };
    tline!(
        t,
        "{:<12} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "geomean",
        ratio(column(0, &speedups)),
        ratio(column(1, &speedups)),
        ratio(column(2, &speedups)),
        ratio(column(0, &effs)),
        ratio(column(1, &effs)),
        ratio(column(2, &effs)),
    );
    t.push_record(Record::new([
        ("model", Cell::from("geomean")),
        ("speedup_scnn", column(0, &speedups).into()),
        ("speedup_sparten", column(1, &speedups).into()),
        ("speedup_escalate", column(2, &speedups).into()),
        ("efficiency_scnn", column(0, &effs).into()),
        ("efficiency_sparten", column(1, &effs).into()),
        ("efficiency_escalate", column(2, &effs).into()),
    ]));
    tline!(t);
    tline!(
        t,
        "Paper reference (means): ESCALATE speedup 17.9x over Eyeriss, 3.5x over SCNN,"
    );
    tline!(
        t,
        "2.16x over SparTen; energy efficiency 8.3x over Eyeriss, 5.19x over SCNN,"
    );
    tline!(t, "3.78x over SparTen.");
    Ok(())
}
