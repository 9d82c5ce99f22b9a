//! **Table 4** (power and area of one PE block, TSMC 65 nm) from the
//! synthesis-derived component model, together with the Table 2
//! configuration the numbers correspond to and the whole-chip estimate.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_energy::area::{PeBlockArea, COMPONENTS, TOTAL_AREA_MM2, TOTAL_POWER_MW};

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let cfg = &ctx.sim;
    tline!(t, "Table 2: ESCALATE configuration");
    tline!(t, "  M = {}   N_PE = {}   l = {}", cfg.m, cfg.n_pe, cfg.l);
    tline!(
        t,
        "  input bus {} B, precision {} bit, buffers: input {} KB, coef {} B, output {} KB, psum {} KB, act {} B",
        cfg.input_bus_bytes,
        cfg.precision_bits,
        cfg.input_buf_bytes / 1024,
        cfg.coef_buf_bytes,
        cfg.output_buf_bytes / 1024,
        cfg.psum_buf_bytes / 1024,
        cfg.act_buf_bytes,
    );
    tline!(
        t,
        "  {} multipliers total, {} MHz",
        cfg.total_macs(),
        cfg.frequency_mhz
    );
    tline!(t);
    tline!(
        t,
        "Table 4: power and area estimation of one PE block (65 nm)"
    );
    tline!(t);
    tline!(
        t,
        "{:<20} {:>10} {:>10}",
        "Component",
        "Area(mm2)",
        "Power(mW)"
    );
    for c in COMPONENTS {
        tline!(
            t,
            "{:<20} {:>10.4} {:>10.2}",
            c.name,
            c.area_mm2,
            c.power_mw
        );
        t.push_record(Record::new([
            ("component", Cell::from(c.name)),
            ("area_mm2", c.area_mm2.into()),
            ("power_mw", c.power_mw.into()),
        ]));
    }
    let total = PeBlockArea::from_components();
    tline!(
        t,
        "{:<20} {:>10.4} {:>10.2}",
        "Total",
        total.area_mm2,
        total.power_mw
    );
    if (total.area_mm2 - TOTAL_AREA_MM2).abs() >= 1e-3
        || (total.power_mw - TOTAL_POWER_MW).abs() >= 1e-2
    {
        return Err(ExpError::Msg(
            "component totals diverged from the published Table 4 totals".into(),
        ));
    }
    tline!(t);
    let chip = PeBlockArea::chip(cfg.n_pe);
    tline!(
        t,
        "Whole accelerator ({} blocks): {:.2} mm2, {:.2} W",
        cfg.n_pe,
        chip.area_mm2,
        chip.power_mw / 1000.0
    );
    t.push_record(Record::new([
        ("component", Cell::from("chip")),
        ("area_mm2", chip.area_mm2.into()),
        ("power_mw", chip.power_mw.into()),
    ]));
    Ok(())
}
