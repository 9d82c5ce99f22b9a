//! **Schedule study**: layer-pipelined vs layer-serial execution of
//! ESCALATE across the model zoo. Work-proportional PE partitioning is
//! throughput-neutral in cycles (the slowest stage can never undercut
//! the serial sum), so the interesting outputs are the latency/stall
//! cost of the partition and the steady-state DRAM saved by pinning
//! every stage's weights on chip.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{geomean, ratio, tline, workload_cached};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;
use escalate_sim::ScheduleKind;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    tline!(
        t,
        "Schedule comparison: layer-serial fold vs layer-pipelined stages"
    );
    tline!(
        t,
        "(PEs partitioned across stages by work; interval = slowest stage;"
    );
    tline!(
        t,
        " stage weights stay pinned on chip; oversized handoffs spill to DRAM)"
    );
    tline!(t);
    tline!(
        t,
        "{:<12} {:>12} {:>7} {:>12} {:>8} {:>6} {:>10} {:>10} {:>8}",
        "Model",
        "serial cyc",
        "stages",
        "interval",
        "stall%",
        "spill",
        "ser MB/inf",
        "pip MB/inf",
        "DRAM x"
    );
    tline!(t, "{}", "-".repeat(92));
    let mut dram_gains = Vec::new();
    let mut interval_costs = Vec::new();
    for profile in ModelProfile::all() {
        let workload = workload_cached(
            &profile,
            &CompressionConfig {
                m: ctx.sim.m,
                ..CompressionConfig::default()
            },
        )?;
        let run_with = |schedule: ScheduleKind| {
            let mut cfg = ctx.sim;
            cfg.schedule = schedule;
            crate::run_escalate_workload(&workload, &cfg, ctx.seeds)
        };
        let serial = run_with(ScheduleKind::LayerSerial);
        let pipelined = run_with(ScheduleKind::Pipelined);
        let stats = &pipelined.first_seed_stats;
        let p = stats.pipeline.as_ref().ok_or_else(|| {
            ExpError::Msg(format!(
                "{}: pipelined run carried no pipeline stats",
                profile.name
            ))
        })?;
        let serial_cycles = serial.first_seed_stats.total_cycles();
        // Steady-state DRAM per inference: serial refetches every
        // layer's weights; pipelined pins them per stage and instead
        // pays the write + re-read for each spilled handoff.
        let dram = stats.total_dram();
        let serial_dram = dram.total();
        let pipe_dram = dram.ifm + dram.ofm + 2 * p.spilled_bytes;
        let dram_gain = serial_dram as f64 / pipe_dram.max(1) as f64;
        let interval_cost = p.interval_cycles as f64 / serial_cycles.max(1) as f64;
        let stall_pct =
            100.0 * p.stall_cycles as f64 / (p.stages as u64 * p.interval_cycles).max(1) as f64;
        dram_gains.push(dram_gain);
        interval_costs.push(interval_cost);
        tline!(
            t,
            "{:<12} {:>12} {:>7} {:>12} {:>7.1}% {:>6} {:>10.2} {:>10.2} {:>7}",
            profile.name,
            serial_cycles,
            p.stages,
            p.interval_cycles,
            stall_pct,
            p.spilled_boundaries,
            serial_dram as f64 / 1e6,
            pipe_dram as f64 / 1e6,
            ratio(dram_gain)
        );
        t.push_record(Record::new([
            ("model", Cell::from(profile.name.as_str())),
            ("serial_cycles", serial_cycles.into()),
            ("stages", p.stages.into()),
            ("interval_cycles", p.interval_cycles.into()),
            ("latency_cycles", p.latency_cycles.into()),
            ("stall_cycles", p.stall_cycles.into()),
            ("spilled_boundaries", p.spilled_boundaries.into()),
            ("peak_buffer_bytes", p.peak_buffer_bytes.into()),
            ("serial_dram_bytes", serial_dram.into()),
            ("pipelined_dram_bytes", pipe_dram.into()),
            ("dram_gain", dram_gain.into()),
            ("interval_cost", interval_cost.into()),
        ]));
    }
    tline!(t, "{}", "-".repeat(92));
    tline!(
        t,
        "geomean: steady-state DRAM {} lower, interval {} of the serial sum",
        ratio(geomean(&dram_gains)),
        ratio(geomean(&interval_costs))
    );
    tline!(t);
    tline!(
        t,
        "Work-conserving partitioning cannot beat the serial sum per inference;"
    );
    tline!(
        t,
        "the win is weight traffic: every stage's weights load once and stay"
    );
    tline!(
        t,
        "resident, so batched inference stops paying the per-image refetch."
    );
    Ok(())
}
