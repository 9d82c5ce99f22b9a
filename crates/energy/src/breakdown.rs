//! Per-layer and per-model energy breakdowns (Figure 10).
//!
//! The paper builds its energy numbers the way Table 4 suggests: logic
//! components are charged their synthesized power times runtime, SRAM
//! buffers are charged per access through CACTI, and DRAM is charged
//! 100 pJ per byte over the simulated trace. We do the same:
//!
//! - **DRAM**: trace bytes × the Table 3 constant.
//! - **SRAM buffers**: access bytes × the CACTI-style per-byte energy of
//!   the buffer's capacity.
//! - **Logic** (MAC rows, dilution, concentration): Table 4 component
//!   power × active cycles, scaled across the PE blocks.
//!
//! Baseline accelerators are normalized to the same multiplier budget and
//! chip class (Table 2), so their logic is charged the same whole-chip
//! power over their own runtimes, and their operand accesses are priced
//! at their (larger, unified) buffer capacities.

use crate::area::{component_pj_per_cycle, COMPONENTS, TOTAL_POWER_MW};
use crate::sram::access_energy_pj;
use crate::units::UnitEnergy;
use escalate_sim::stats::LayerStats;
use escalate_sim::{ModelStats, SimConfig};

/// Buffer capacities used to price SRAM accesses. Defaults to the
/// ESCALATE Table 2 configuration; baselines use [`BufferCaps::baseline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferCaps {
    /// Input buffer capacity (bytes).
    pub input_buf: usize,
    /// Coefficient/weight buffer capacity.
    pub coef_buf: usize,
    /// Partial-sum buffer capacity.
    pub psum_buf: usize,
    /// Output buffer capacity.
    pub output_buf: usize,
    /// Activation staging buffer capacity.
    pub act_buf: usize,
    /// Number of PE blocks (logic power scales with it).
    pub n_pe: usize,
    /// Clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Whether the Table 4 per-component split applies (ESCALATE) or the
    /// whole-chip power is charged as one logic term (baselines).
    pub escalate_logic: bool,
}

impl Default for BufferCaps {
    fn default() -> Self {
        BufferCaps::from_config(&SimConfig::default())
    }
}

impl BufferCaps {
    /// Buffer capacities from a simulator configuration.
    pub fn from_config(cfg: &SimConfig) -> Self {
        BufferCaps {
            input_buf: cfg.input_buf_bytes,
            coef_buf: cfg.coef_buf_bytes,
            psum_buf: cfg.psum_buf_bytes,
            output_buf: cfg.output_buf_bytes,
            act_buf: cfg.act_buf_bytes,
            n_pe: cfg.n_pe,
            frequency_mhz: cfg.frequency_mhz,
            escalate_logic: true,
        }
    }

    /// Capacities for the baseline accelerators: one global buffer
    /// (Table 2's "proportional scaling") prices the operand accesses, and
    /// logic is charged at the normalized whole-chip power.
    pub fn baseline(glb_bytes: usize) -> Self {
        BufferCaps {
            input_buf: glb_bytes,
            coef_buf: glb_bytes,
            psum_buf: 2 * 1024,
            output_buf: 4 * 1024,
            act_buf: 64,
            n_pe: 32,
            frequency_mhz: 800.0,
            escalate_logic: false,
        }
    }
}

/// Energy breakdown in picojoules, with the Figure 10 component split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// DRAM accesses.
    pub dram_pj: f64,
    /// MAC-row arithmetic (power × time).
    pub mac_pj: f64,
    /// Concentration units (power × time).
    pub concentration_pj: f64,
    /// Dilution units (power × time).
    pub dilution_pj: f64,
    /// Input buffers (per access).
    pub input_buf_pj: f64,
    /// Coefficient + partial-sum buffers (power × time for ESCALATE,
    /// per-access for baselines).
    pub coef_psum_pj: f64,
    /// Activation staging buffers.
    pub act_buf_pj: f64,
    /// Output buffer (negligible; omitted from Figure 10).
    pub output_buf_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj
            + self.mac_pj
            + self.concentration_pj
            + self.dilution_pj
            + self.input_buf_pj
            + self.coef_psum_pj
            + self.act_buf_pj
            + self.output_buf_pj
    }

    fn add(&mut self, other: &EnergyBreakdown) {
        self.dram_pj += other.dram_pj;
        self.mac_pj += other.mac_pj;
        self.concentration_pj += other.concentration_pj;
        self.dilution_pj += other.dilution_pj;
        self.input_buf_pj += other.input_buf_pj;
        self.coef_psum_pj += other.coef_psum_pj;
        self.act_buf_pj += other.act_buf_pj;
        self.output_buf_pj += other.output_buf_pj;
    }
}

/// Computes the energy breakdown of one layer's stats.
pub fn layer_energy(stats: &LayerStats, caps: &BufferCaps, units: &UnitEnergy) -> EnergyBreakdown {
    let cycles = stats.cycles as f64;
    let blocks = caps.n_pe as f64;
    let per_cycle =
        |power_mw: f64| component_pj_per_cycle(power_mw, caps.frequency_mhz) * cycles * blocks;

    let mut bd = EnergyBreakdown {
        dram_pj: stats.dram.total() as f64 * units.dram_pj_per_byte,
        input_buf_pj: access_energy_pj(caps.input_buf, stats.sram.input_buf),
        output_buf_pj: access_energy_pj(caps.output_buf, stats.sram.output_buf),
        ..EnergyBreakdown::default()
    };

    if caps.escalate_logic {
        // Table 4 component powers × runtime × blocks. The dense fallback
        // bypasses the CAs, so dilution/concentration are idle (clock
        // gated) on those layers.
        bd.mac_pj = per_cycle(power_of("MAC Row"));
        bd.act_buf_pj = per_cycle(power_of("Activation Buffer"));
        bd.coef_psum_pj = per_cycle(power_of("Coef.&Psum Buffer"));
        if !stats.fallback {
            bd.dilution_pj = per_cycle(power_of("Dilution"));
            bd.concentration_pj = per_cycle(power_of("Concentration"));
        }
    } else {
        // Baselines: the normalized chip (same multiplier count and chip
        // class) is charged at the ESCALATE total block power over its own
        // runtime, plus its per-access operand traffic at GLB pricing.
        bd.mac_pj = per_cycle(TOTAL_POWER_MW);
        bd.coef_psum_pj = access_energy_pj(caps.coef_buf, stats.sram.coef_buf)
            + access_energy_pj(caps.psum_buf, stats.sram.psum_buf);
        bd.act_buf_pj = access_energy_pj(caps.act_buf, stats.sram.act_buf.min(stats.mac_ops * 2));
    }
    bd
}

fn power_of(name: &str) -> f64 {
    COMPONENTS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown component {name}"))
        .power_mw
}

/// Computes the whole-model energy breakdown.
pub fn model_energy(stats: &ModelStats, caps: &BufferCaps, units: &UnitEnergy) -> EnergyBreakdown {
    let mut total = EnergyBreakdown::default();
    for l in &stats.layers {
        total.add(&layer_energy(l, caps, units));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_sim::stats::{DramTraffic, SramTraffic};

    fn stats(fallback: bool) -> LayerStats {
        LayerStats {
            name: "t".into(),
            cycles: 1000,
            mac_ops: 10_000,
            ca_adds: 5_000,
            gather_passes: 500,
            mac_idle_cycles: 0,
            mac_cycle_slots: 6000,
            dram: DramTraffic {
                weights: 100,
                ifm: 200,
                ofm: 300,
            },
            sram: SramTraffic {
                input_buf: 1000,
                coef_buf: 2000,
                psum_buf: 3000,
                output_buf: 400,
                act_buf: 500,
            },
            fallback,
        }
    }

    #[test]
    fn breakdown_components_sum() {
        let b = layer_energy(&stats(false), &BufferCaps::default(), &UnitEnergy::table3());
        let manual = b.dram_pj
            + b.mac_pj
            + b.concentration_pj
            + b.dilution_pj
            + b.input_buf_pj
            + b.coef_psum_pj
            + b.act_buf_pj
            + b.output_buf_pj;
        assert!((b.total_pj() - manual).abs() < 1e-9);
        assert!(
            b.concentration_pj > b.dilution_pj,
            "Table 4: concentration draws more power"
        );
    }

    #[test]
    fn dram_uses_table3_constant() {
        let b = layer_energy(&stats(false), &BufferCaps::default(), &UnitEnergy::table3());
        assert_eq!(b.dram_pj, 600.0 * 100.0);
    }

    #[test]
    fn fallback_layers_gate_the_ca_logic() {
        let b = layer_energy(&stats(true), &BufferCaps::default(), &UnitEnergy::table3());
        assert_eq!(b.dilution_pj, 0.0);
        assert_eq!(b.concentration_pj, 0.0);
        assert!(b.mac_pj > 0.0);
    }

    #[test]
    fn model_energy_sums_layers() {
        let m = ModelStats {
            model_name: "x".into(),
            layers: vec![stats(false), stats(false)],
            pipeline: None,
        };
        let one = layer_energy(&stats(false), &BufferCaps::default(), &UnitEnergy::table3());
        let all = model_energy(&m, &BufferCaps::default(), &UnitEnergy::table3());
        assert!((all.total_pj() - 2.0 * one.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn baseline_logic_uses_whole_chip_power() {
        let esc = layer_energy(&stats(false), &BufferCaps::default(), &UnitEnergy::table3());
        let base = layer_energy(
            &stats(false),
            &BufferCaps::baseline(64 * 1024),
            &UnitEnergy::table3(),
        );
        // Same cycle count: the baseline's single logic term equals the sum
        // of ESCALATE's per-component terms (same chip power).
        let esc_logic =
            esc.mac_pj + esc.dilution_pj + esc.concentration_pj + esc.act_buf_pj + esc.coef_psum_pj;
        assert!((base.mac_pj - esc_logic).abs() / esc_logic < 1e-6);
    }
}
