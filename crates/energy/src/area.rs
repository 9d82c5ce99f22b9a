//! Power and area of one ESCALATE PE block (paper Table 4, TSMC 65 nm,
//! typical corner, 1 V, 25 °C, 800 MHz).

/// One synthesized component of a PE block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Component name as in Table 4.
    pub name: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// The Table 4 component list.
pub const COMPONENTS: [Component; 5] = [
    Component {
        name: "Activation Buffer",
        area_mm2: 0.0098,
        power_mw: 5.44,
    },
    Component {
        name: "MAC Row",
        area_mm2: 0.0159,
        power_mw: 7.79,
    },
    Component {
        name: "Dilution",
        area_mm2: 0.0450,
        power_mw: 17.77,
    },
    Component {
        name: "Concentration",
        area_mm2: 0.0906,
        power_mw: 46.74,
    },
    Component {
        name: "Coef.&Psum Buffer",
        area_mm2: 0.0538,
        power_mw: 8.33,
    },
];

/// Totals reported in Table 4.
pub const TOTAL_AREA_MM2: f64 = 0.2150;
/// Total PE-block power reported in Table 4 (mW).
pub const TOTAL_POWER_MW: f64 = 86.07;

/// Aggregated PE-block estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeBlockArea {
    /// Total area of one block in mm².
    pub area_mm2: f64,
    /// Total power of one block in mW.
    pub power_mw: f64,
}

impl PeBlockArea {
    /// Sums the component table.
    pub fn from_components() -> Self {
        PeBlockArea {
            area_mm2: COMPONENTS.iter().map(|c| c.area_mm2).sum(),
            power_mw: COMPONENTS.iter().map(|c| c.power_mw).sum(),
        }
    }

    /// Whole-accelerator estimates for `n_pe` blocks.
    pub fn chip(n_pe: usize) -> PeBlockArea {
        let b = PeBlockArea::from_components();
        PeBlockArea {
            area_mm2: b.area_mm2 * n_pe as f64,
            power_mw: b.power_mw * n_pe as f64,
        }
    }
}

/// Per-cycle energy of a component in pJ at the given frequency.
pub fn component_pj_per_cycle(power_mw: f64, frequency_mhz: f64) -> f64 {
    // mW / MHz = nJ per cycle = 1000 pJ per cycle.
    power_mw / frequency_mhz * 1000.0
}

/// Large-SRAM area density derived from Table 4's Coef.&Psum entry
/// (0.0538 mm² for 512 B + 5 × 2048 B = 10.75 KB at 65 nm): the price the
/// sweep's area model puts on the input/output buffer macros that sit
/// outside the synthesized PE block.
pub const SRAM_MM2_PER_KB: f64 = 0.0538 / 10.75;

/// First-order area scaling used by the design-space sweep.
///
/// Table 4 synthesizes exactly one design point (Table 2); a sweep over
/// (`M`, `N_PE`, bus width, buffer capacities) needs area *trends*, so
/// each component is scaled linearly in the structural quantity it
/// physically tracks, anchored to reproduce the Table 4 block exactly at
/// the default configuration:
///
/// - Activation Buffer — per-slice staging capacity (`l × act_buf`),
/// - MAC Row — multiplier count per block (`M × l`),
/// - Dilution — slice count `l` (one dilution unit per slice),
/// - Concentration — `l ×` bus elements (the matching network's width),
/// - Coef.&Psum Buffer — its capacity (`coef_buf + l × psum_buf`).
///
/// Whole-chip area is `N_PE` scaled blocks plus the distributed
/// input/output buffer macros priced at [`SRAM_MM2_PER_KB`]. A linear
/// model is deliberately coarse (no periphery floors, no wiring
/// overhead), but it is monotone in every dimension the sweep explores,
/// which is what a Pareto frontier needs.
fn scaled_block_area_mm2(cfg: &escalate_sim::SimConfig) -> f64 {
    let d = escalate_sim::SimConfig::default();
    let scale = |q: f64, q0: f64| q / q0;
    let factors = [
        scale(
            (cfg.l * cfg.act_buf_bytes) as f64,
            (d.l * d.act_buf_bytes) as f64,
        ),
        scale((cfg.m * cfg.l) as f64, (d.m * d.l) as f64),
        scale(cfg.l as f64, d.l as f64),
        scale(
            (cfg.l * cfg.bus_elems()) as f64,
            (d.l * d.bus_elems()) as f64,
        ),
        scale(
            (cfg.coef_buf_bytes + cfg.l * cfg.psum_buf_bytes) as f64,
            (d.coef_buf_bytes + d.l * d.psum_buf_bytes) as f64,
        ),
    ];
    COMPONENTS
        .iter()
        .zip(factors)
        .map(|(c, f)| c.area_mm2 * f)
        .sum()
}

/// Whole-accelerator area estimate for an arbitrary configuration:
/// `N_PE` PE blocks, each the Table 4 block with every component scaled
/// linearly in the structure it tracks (`scaled_block_area_mm2`), plus
/// the input/output buffer SRAM priced at [`SRAM_MM2_PER_KB`].
pub fn chip_area_mm2(cfg: &escalate_sim::SimConfig) -> f64 {
    let sram_kb = (cfg.total_input_buf_bytes() + cfg.output_buf_bytes) as f64 / 1024.0;
    cfg.n_pe as f64 * scaled_block_area_mm2(cfg) + sram_kb * SRAM_MM2_PER_KB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_sums_match_table4_totals() {
        let b = PeBlockArea::from_components();
        assert!(
            (b.area_mm2 - TOTAL_AREA_MM2).abs() < 1e-3,
            "area {}",
            b.area_mm2
        );
        assert!(
            (b.power_mw - TOTAL_POWER_MW).abs() < 1e-2,
            "power {}",
            b.power_mw
        );
    }

    #[test]
    fn concentration_is_the_largest_component() {
        let max = COMPONENTS
            .iter()
            .max_by(|a, b| a.area_mm2.total_cmp(&b.area_mm2))
            .unwrap();
        assert_eq!(max.name, "Concentration");
    }

    #[test]
    fn chip_scales_linearly() {
        let one = PeBlockArea::from_components();
        let chip = PeBlockArea::chip(32);
        assert!((chip.area_mm2 - 32.0 * one.area_mm2).abs() < 1e-9);
        assert!((chip.power_mw - 32.0 * one.power_mw).abs() < 1e-9);
    }

    #[test]
    fn per_cycle_energy_at_800mhz() {
        // 17.77 mW at 800 MHz ≈ 22.2 pJ per cycle.
        let e = component_pj_per_cycle(17.77, 800.0);
        assert!((e - 22.2125).abs() < 1e-3);
    }

    #[test]
    fn scaled_block_reproduces_table4_at_the_default_config() {
        let cfg = escalate_sim::SimConfig::default();
        let scaled = scaled_block_area_mm2(&cfg);
        let base = PeBlockArea::from_components().area_mm2;
        assert!((scaled - base).abs() < 1e-12, "scaled {scaled} vs {base}");
    }

    #[test]
    fn chip_area_is_monotone_in_the_swept_dimensions() {
        let base = escalate_sim::SimConfig::default();
        let a0 = chip_area_mm2(&base);
        assert!(a0 > 0.0);
        let grow = |f: &dyn Fn(&mut escalate_sim::SimConfig)| {
            let mut c = base;
            f(&mut c);
            chip_area_mm2(&c)
        };
        assert!(grow(&|c| c.m = 8) > a0, "more basis kernels cost area");
        assert!(grow(&|c| c.n_pe = 64) > a0, "more PEs cost area");
        assert!(grow(&|c| c.input_bus_bytes = 32) > a0, "wider bus");
        assert!(grow(&|c| c.input_buf_bytes = 16 * 1024) > a0, "bigger SRAM");
        assert!(grow(&|c| c.psum_buf_bytes = 4096) > a0, "bigger psum");
        assert!(grow(&|c| c.output_buf_bytes = 8192) > a0, "bigger output");
    }

    #[test]
    fn chip_area_halves_ish_with_half_the_pes() {
        let base = escalate_sim::SimConfig::default();
        let mut half = base;
        half.n_pe = 16;
        // Blocks halve; the shared SRAM term does not.
        let full_blocks = 32.0 * scaled_block_area_mm2(&base);
        let half_blocks = 16.0 * scaled_block_area_mm2(&half);
        assert!((half_blocks * 2.0 - full_blocks).abs() < 1e-9);
        assert!(chip_area_mm2(&half) > half_blocks);
    }
}
