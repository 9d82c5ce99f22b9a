//! Simulation statistics: cycles, operation counts, and memory traffic.

/// Ratio of two counters with an honest denominator: `None` when the
/// denominator is zero instead of a silently-inflated `den.max(1)` value
/// that masks a true zero. Comparison code (fidelity checks, validation
/// reports) decides explicitly what a zero baseline means for it.
pub fn checked_ratio(num: u64, den: u64) -> Option<f64> {
    (den != 0).then(|| num as f64 / den as f64)
}

/// DRAM traffic of one layer, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramTraffic {
    /// Weight bytes read (compressed representation).
    pub weights: u64,
    /// Input-feature-map bytes read (including re-streams).
    pub ifm: u64,
    /// Output-feature-map bytes written.
    pub ofm: u64,
}

impl DramTraffic {
    /// Total DRAM bytes moved.
    pub fn total(&self) -> u64 {
        self.weights + self.ifm + self.ofm
    }
}

/// On-chip SRAM traffic of one layer, in bytes accessed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SramTraffic {
    /// Distributed input-buffer reads.
    pub input_buf: u64,
    /// Per-block coefficient-buffer reads.
    pub coef_buf: u64,
    /// Partial-sum buffer accesses (read-modify-write counted twice).
    pub psum_buf: u64,
    /// Output-buffer writes.
    pub output_buf: u64,
    /// Activation staging buffer accesses.
    pub act_buf: u64,
}

impl SramTraffic {
    /// Total SRAM bytes accessed.
    pub fn total(&self) -> u64 {
        self.input_buf + self.coef_buf + self.psum_buf + self.output_buf + self.act_buf
    }
}

/// Per-layer simulation result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    /// Layer (or fused pair) name.
    pub name: String,
    /// Execution cycles for this layer.
    pub cycles: u64,
    /// Multiply-accumulate operations executed in the MAC rows.
    pub mac_ops: u64,
    /// Additions performed by the channel accumulators (matched pairs).
    pub ca_adds: u64,
    /// Bit-gather network invocations (dilution passes).
    pub gather_passes: u64,
    /// Cycles MACs spent idle waiting on the CAs (summed over MACs).
    pub mac_idle_cycles: u64,
    /// Total MAC cycle slots (`cycles × active MACs`), for utilization.
    pub mac_cycle_slots: u64,
    /// DRAM traffic.
    pub dram: DramTraffic,
    /// SRAM traffic.
    pub sram: SramTraffic,
    /// Whether the layer ran on the dense fallback path.
    pub fallback: bool,
}

impl LayerStats {
    /// Fraction of MAC cycle slots spent idle, in `[0, 1]`.
    pub fn mac_idle_fraction(&self) -> f64 {
        if self.mac_cycle_slots == 0 {
            return 0.0;
        }
        self.mac_idle_cycles as f64 / self.mac_cycle_slots as f64
    }
}

/// Steady-state accounting of a layer-pipelined schedule
/// ([`crate::ScheduleKind::Pipelined`]): stage partitioning, the pacing
/// interval, fill latency, stall slack, and inter-stage buffer pressure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Pipeline stages the layers were grouped into.
    pub stages: usize,
    /// Steady-state initiation interval: cycles between finished
    /// inferences, set by the slowest stage.
    pub interval_cycles: u64,
    /// Fill latency of one inference through every stage.
    pub latency_cycles: u64,
    /// Σ over stages of `interval − stage_time`: PE-cycles idled by stage
    /// imbalance.
    pub stall_cycles: u64,
    /// Stage boundaries whose inter-layer feature map exceeded on-chip
    /// buffering and spilled through DRAM.
    pub spilled_boundaries: u64,
    /// Feature-map bytes crossing spilled boundaries (per inference,
    /// before the write + re-read doubling).
    pub spilled_bytes: u64,
    /// Largest inter-stage feature-map handoff in bytes.
    pub peak_buffer_bytes: u64,
}

/// Whole-model simulation result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelStats {
    /// Model name.
    pub model_name: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerStats>,
    /// Present when the run used a layer-pipelined schedule; `None` under
    /// the default layer-serial fold (which keeps serial output — and all
    /// of its goldens — byte-identical).
    pub pipeline: Option<PipelineStats>,
}

impl ModelStats {
    /// Total cycles across layers (layers execute sequentially).
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total DRAM bytes.
    pub fn total_dram(&self) -> DramTraffic {
        let mut t = DramTraffic::default();
        for l in &self.layers {
            t.weights += l.dram.weights;
            t.ifm += l.dram.ifm;
            t.ofm += l.dram.ofm;
        }
        t
    }

    /// Total SRAM bytes.
    pub fn total_sram(&self) -> SramTraffic {
        let mut t = SramTraffic::default();
        for l in &self.layers {
            t.input_buf += l.sram.input_buf;
            t.coef_buf += l.sram.coef_buf;
            t.psum_buf += l.sram.psum_buf;
            t.output_buf += l.sram.output_buf;
            t.act_buf += l.sram.act_buf;
        }
        t
    }

    /// Total MAC operations.
    pub fn total_mac_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.mac_ops).sum()
    }

    /// Total CA additions.
    pub fn total_ca_adds(&self) -> u64 {
        self.layers.iter().map(|l| l.ca_adds).sum()
    }

    /// Cycles under the schedule that produced these stats: the pipeline
    /// fill latency when a pipelined schedule ran, the serial layer sum
    /// otherwise. Harnesses that compare schedules should use this
    /// instead of [`ModelStats::total_cycles`].
    pub fn schedule_cycles(&self) -> u64 {
        match &self.pipeline {
            Some(p) => p.latency_cycles,
            None => self.total_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_totals_sum_fields() {
        let d = DramTraffic {
            weights: 1,
            ifm: 2,
            ofm: 3,
        };
        assert_eq!(d.total(), 6);
        let s = SramTraffic {
            input_buf: 1,
            coef_buf: 2,
            psum_buf: 3,
            output_buf: 4,
            act_buf: 5,
        };
        assert_eq!(s.total(), 15);
    }

    #[test]
    fn idle_fraction_handles_zero_slots() {
        let l = LayerStats::default();
        assert_eq!(l.mac_idle_fraction(), 0.0);
    }

    #[test]
    fn model_aggregation() {
        let mut m = ModelStats {
            model_name: "x".into(),
            pipeline: None,
            layers: vec![],
        };
        for i in 1..=3u64 {
            m.layers.push(LayerStats {
                name: format!("l{i}"),
                cycles: i * 10,
                mac_ops: i,
                dram: DramTraffic {
                    weights: i,
                    ifm: i,
                    ofm: i,
                },
                ..LayerStats::default()
            });
        }
        assert_eq!(m.total_cycles(), 60);
        assert_eq!(m.total_mac_ops(), 6);
        assert_eq!(m.total_dram().total(), 18);
    }

    #[test]
    fn checked_ratio_reports_zero_denominators() {
        assert_eq!(checked_ratio(6, 3), Some(2.0));
        assert_eq!(checked_ratio(0, 3), Some(0.0));
        assert_eq!(checked_ratio(6, 0), None);
        assert_eq!(checked_ratio(0, 0), None);
    }
}
