//! Accelerator configuration (paper Table 2).

use crate::error::SimError;

/// Largest basis count [`SimConfig::with_m`] accepts. Compression clamps
/// `M` to each layer's kernel area, so this only has to sit above any
/// kernel a network can describe while keeping `N_PE · l · M` far from
/// overflow.
pub const MAX_M: usize = 1024;

/// The one range check on a basis count, `1 ≤ m ≤ MAX_M`: behind
/// [`SimConfig::with_m`], the job plans and the CLI's `--m`.
///
/// # Errors
///
/// Returns [`SimError::InvalidBasisCount`] outside that range.
pub fn check_basis_count(m: usize) -> Result<usize, SimError> {
    if (1..=MAX_M).contains(&m) {
        Ok(m)
    } else {
        Err(SimError::InvalidBasisCount { m })
    }
}

/// Largest PE-block count (`N_PE`) a design-space sweep accepts: 2^16,
/// 2048 times Table 2's 32 blocks and 32 times the widest zoo layer's
/// 2048 output channels. Output channels are dealt to blocks in rounds
/// of `N_PE` (`⌈K / N_PE⌉`), so blocks beyond a layer's `K` only idle
/// while the area model prices each one. The detailed fidelity also
/// keeps and scans one load counter per block for every channel.
pub const MAX_N_PE: usize = 1 << 16;

/// The one range check on a PE-block count, `1 ≤ n_pe ≤ MAX_N_PE`:
/// behind the sweep's `--pe` range.
///
/// # Errors
///
/// Returns [`SimError::InvalidPeCount`] outside that range.
pub fn check_pe_count(n_pe: usize) -> Result<usize, SimError> {
    if (1..=MAX_N_PE).contains(&n_pe) {
        Ok(n_pe)
    } else {
        Err(SimError::InvalidPeCount { n_pe })
    }
}

/// Whole-network schedule mode: how per-layer work shares the PE array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Layers run one after another, each using the full PE array — the
    /// paper's evaluation schedule and the default.
    #[default]
    LayerSerial,
    /// All layers are resident at once: the PE array is partitioned
    /// across pipeline stages proportionally to their work, inter-layer
    /// feature maps hand off through on-chip buffers (spilling to DRAM
    /// when they exceed the configured SRAM), and steady-state throughput
    /// paces at the slowest stage (HPIPE-style layer pipelining).
    Pipelined,
}

impl ScheduleKind {
    /// Canonical CLI/wire spelling (`"serial"` / `"pipelined"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ScheduleKind::LayerSerial => "serial",
            ScheduleKind::Pipelined => "pipelined",
        }
    }

    /// Parses the CLI/wire spelling.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<ScheduleKind, String> {
        match s {
            "serial" => Ok(ScheduleKind::LayerSerial),
            "pipelined" => Ok(ScheduleKind::Pipelined),
            other => Err(format!(
                "unknown schedule {other:?} (expected \"serial\" or \"pipelined\")"
            )),
        }
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of the ESCALATE accelerator.
///
/// The default reproduces Table 2: `M = 6`, `N_PE = 32`, `l = 5`, a
/// 16-byte input bus, 8-bit activations, and the listed buffer sizes, at
/// 800 MHz (the synthesized frequency of §5.2.1). The total multiplier
/// count is `N_PE × l × M = 960`.
///
/// # Examples
///
/// ```
/// use escalate_sim::SimConfig;
///
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.total_macs(), 960);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of basis kernels / CA-MAC pairs per slice (`M`).
    pub m: usize,
    /// Number of PE blocks (`N_PE`).
    pub n_pe: usize,
    /// Number of PE slices per block (`l`).
    pub l: usize,
    /// Input bus width in bytes (activations per cycle at 8 bits).
    pub input_bus_bytes: usize,
    /// Activation/weight precision in bits.
    pub precision_bits: usize,
    /// Capacity of each distributed input buffer in bytes.
    pub input_buf_bytes: usize,
    /// Per-block coefficient buffer in bytes.
    pub coef_buf_bytes: usize,
    /// Output buffer in bytes.
    pub output_buf_bytes: usize,
    /// Per-slice partial-sum buffer in bytes.
    pub psum_buf_bytes: usize,
    /// Per-slice activation staging buffer in bytes (Table 2: 16 B × 4).
    pub act_buf_bytes: usize,
    /// Concentration look-ahead window (rows).
    pub look_ahead: usize,
    /// Concentration look-aside window (columns).
    pub look_aside: usize,
    /// Clock frequency in MHz.
    pub frequency_mhz: f64,
    /// DRAM bandwidth in bytes per cycle (64 B/cycle ≈ 51.2 GB/s at
    /// 800 MHz — a dual-channel DDR4-3200 interface, the class of system
    /// the paper's ramulator runs model). Layers whose traffic exceeds
    /// compute become memory-bound.
    pub dram_bytes_per_cycle: f64,
    /// Output channels the sampled and trace-driven fidelities walk per
    /// layer (clamped to `K`): stratified quantile representatives of the
    /// per-channel coefficient-count distribution. Raising it toward `K`
    /// trades simulation speed for estimator variance — set it to `K` (or
    /// any large value) to cover every channel exactly. This knob
    /// configures the host simulator, not the modeled hardware.
    pub sample_channels: usize,
    /// Host threads for the simulation harness: `0` = auto (the
    /// `ESCALATE_THREADS` environment variable, else all cores), `1`
    /// forces sequential execution. Results are bit-identical for any
    /// value — every parallel stage is order-preserving with per-item
    /// RNG seeding. This knob configures the host simulator, not the
    /// modeled hardware.
    pub threads: usize,
    /// Whole-network schedule mode (see [`ScheduleKind`]). The default
    /// layer-serial mode reproduces the paper's evaluation and every
    /// existing golden bit-for-bit.
    pub schedule: ScheduleKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            m: 6,
            n_pe: 32,
            l: 5,
            input_bus_bytes: 16,
            precision_bits: 8,
            input_buf_bytes: 8 * 1024,
            coef_buf_bytes: 512,
            output_buf_bytes: 4 * 1024,
            psum_buf_bytes: 2 * 1024,
            act_buf_bytes: 16 * 4,
            look_ahead: 4,
            look_aside: 1,
            frequency_mhz: 800.0,
            dram_bytes_per_cycle: 64.0,
            sample_channels: 8,
            threads: 0,
            schedule: ScheduleKind::default(),
        }
    }
}

impl SimConfig {
    /// Total number of multipliers (`N_PE × l × M`).
    pub fn total_macs(&self) -> usize {
        self.n_pe * self.l * self.m
    }

    /// Activations delivered per cycle by the input bus.
    pub fn bus_elems(&self) -> usize {
        (self.input_bus_bytes * 8) / self.precision_bits.max(1)
    }

    /// Total input-buffer capacity across the `l` distributed buffers.
    pub fn total_input_buf_bytes(&self) -> usize {
        self.input_buf_bytes * self.l
    }

    /// A design-space variant with `m` basis kernels, shrinking `l` to keep
    /// the multiplier budget constant (the Figure 12 trade-off).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBasisCount`] unless `1 ≤ m ≤ MAX_M`.
    pub fn with_m(&self, m: usize) -> Result<SimConfig, SimError> {
        let m = check_basis_count(m)?;
        let budget = self.total_macs();
        let l = (budget / (self.n_pe * m)).max(1);
        Ok(SimConfig { m, l, ..*self })
    }
}

/// One sampled point of the accelerator design space: the dimensions the
/// `escalate sweep` engine explores, with everything else pinned to the
/// Table 2 defaults. `l` stays at its default — the sweep varies the
/// multiplier budget through `m` and `n_pe` directly, so area and
/// throughput move together instead of being renormalized away (the
/// fixed-budget `M`↔`l` trade-off is Figure 12's separate study, see
/// [`SimConfig::with_m`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignPoint {
    /// Basis kernels / CA-MAC pairs per slice (`M`).
    pub m: usize,
    /// PE blocks (`N_PE`).
    pub n_pe: usize,
    /// Input bus width in bytes.
    pub input_bus_bytes: usize,
    /// Per-buffer capacity of each distributed input buffer (bytes).
    pub input_buf_bytes: usize,
    /// Per-block coefficient buffer (bytes).
    pub coef_buf_bytes: usize,
    /// Per-slice partial-sum buffer (bytes).
    pub psum_buf_bytes: usize,
    /// Output buffer (bytes).
    pub output_buf_bytes: usize,
    /// Host-fidelity knob: output channels the sampled walk covers.
    pub sample_channels: usize,
}

impl DesignPoint {
    /// The paper's design point (Table 2).
    pub fn table2() -> DesignPoint {
        let cfg = SimConfig::default();
        DesignPoint {
            m: cfg.m,
            n_pe: cfg.n_pe,
            input_bus_bytes: cfg.input_bus_bytes,
            input_buf_bytes: cfg.input_buf_bytes,
            coef_buf_bytes: cfg.coef_buf_bytes,
            psum_buf_bytes: cfg.psum_buf_bytes,
            output_buf_bytes: cfg.output_buf_bytes,
            sample_channels: cfg.sample_channels,
        }
    }

    /// Materializes the sampled point as a full simulator configuration
    /// (Table 2 defaults for every dimension the sweep does not explore).
    ///
    /// # Panics
    ///
    /// Panics when any sampled dimension is zero — a zero-wide bus or
    /// empty buffer is a sampler bug, not a simulable design.
    pub fn to_config(self) -> SimConfig {
        assert!(
            self.m > 0
                && self.n_pe > 0
                && self.input_bus_bytes > 0
                && self.input_buf_bytes > 0
                && self.coef_buf_bytes > 0
                && self.psum_buf_bytes > 0
                && self.output_buf_bytes > 0
                && self.sample_channels > 0,
            "degenerate design point: {self:?}"
        );
        SimConfig {
            m: self.m,
            n_pe: self.n_pe,
            input_bus_bytes: self.input_bus_bytes,
            input_buf_bytes: self.input_buf_bytes,
            coef_buf_bytes: self.coef_buf_bytes,
            psum_buf_bytes: self.psum_buf_bytes,
            output_buf_bytes: self.output_buf_bytes,
            sample_channels: self.sample_channels,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = SimConfig::default();
        assert_eq!(c.m, 6);
        assert_eq!(c.n_pe, 32);
        assert_eq!(c.l, 5);
        assert_eq!(c.input_bus_bytes, 16);
        assert_eq!(c.input_buf_bytes, 8192);
        assert_eq!(c.coef_buf_bytes, 512);
        assert_eq!(c.psum_buf_bytes, 2048);
        assert_eq!(c.total_macs(), 960);
        assert_eq!(c.bus_elems(), 16);
        assert_eq!(c.sample_channels, 8);
        assert_eq!(c.frequency_mhz, 800.0);
    }

    #[test]
    fn with_m_preserves_mac_budget_approximately() {
        let base = SimConfig::default();
        for m in [4usize, 5, 6, 7, 8] {
            let v = base.with_m(m).unwrap();
            assert!(v.total_macs() <= base.total_macs());
            assert!(v.l >= 1);
            // Within one slice of the budget.
            assert!(base.total_macs() - v.total_macs() < base.n_pe * m);
        }
    }

    #[test]
    fn larger_m_means_smaller_l() {
        let base = SimConfig::default();
        assert!(base.with_m(8).unwrap().l <= base.with_m(4).unwrap().l);
    }

    #[test]
    fn with_m_rejects_out_of_range_counts() {
        let base = SimConfig::default();
        // 2^59 once overflowed `N_PE · M` into a divide by zero.
        for m in [0, MAX_M + 1, 1 << 59, usize::MAX] {
            assert_eq!(base.with_m(m), Err(SimError::InvalidBasisCount { m }));
        }
        assert_eq!(base.with_m(MAX_M).unwrap().l, 1);
        // M = 6 is the default design point.
        assert_eq!(base.with_m(6).unwrap(), base);
    }

    #[test]
    fn schedule_kind_round_trips_its_spelling() {
        for kind in [ScheduleKind::LayerSerial, ScheduleKind::Pipelined] {
            assert_eq!(ScheduleKind::parse(kind.as_str()), Ok(kind));
        }
        let e = ScheduleKind::parse("warp").unwrap_err();
        assert!(e.contains("serial") && e.contains("pipelined"), "{e}");
        assert_eq!(ScheduleKind::default(), ScheduleKind::LayerSerial);
    }

    #[test]
    fn table2_design_point_materializes_the_default_config() {
        assert_eq!(DesignPoint::table2().to_config(), SimConfig::default());
    }

    #[test]
    fn design_point_overrides_only_the_explored_dimensions() {
        let p = DesignPoint {
            m: 4,
            n_pe: 64,
            input_bus_bytes: 32,
            input_buf_bytes: 4096,
            coef_buf_bytes: 1024,
            psum_buf_bytes: 4096,
            output_buf_bytes: 8192,
            sample_channels: 16,
        };
        let cfg = p.to_config();
        assert_eq!(cfg.m, 4);
        assert_eq!(cfg.n_pe, 64);
        assert_eq!(cfg.input_bus_bytes, 32);
        assert_eq!(cfg.input_buf_bytes, 4096);
        assert_eq!(cfg.coef_buf_bytes, 1024);
        assert_eq!(cfg.psum_buf_bytes, 4096);
        assert_eq!(cfg.output_buf_bytes, 8192);
        assert_eq!(cfg.sample_channels, 16);
        // Unexplored dimensions stay at Table 2.
        let d = SimConfig::default();
        assert_eq!(cfg.l, d.l);
        assert_eq!(cfg.look_ahead, d.look_ahead);
        assert_eq!(cfg.frequency_mhz, d.frequency_mhz);
        assert_eq!(cfg.act_buf_bytes, d.act_buf_bytes);
    }

    #[test]
    #[should_panic(expected = "degenerate design point")]
    fn zero_dimension_design_points_are_rejected() {
        DesignPoint {
            m: 0,
            ..DesignPoint::table2()
        }
        .to_config();
    }
}
