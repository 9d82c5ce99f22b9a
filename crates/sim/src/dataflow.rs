//! The Basis-First dataflow mapping (paper §4.1, Figure 3).
//!
//! Basis-First confines one output channel to one PE block (so the
//! per-block coefficient buffers never need cross-block traffic), maps
//! feature-map rows to PE slices at a stride of `l`, and maps each
//! intermediate channel `m` to one CA-MAC pair inside a slice. Output
//! channels beyond `N_PE` are processed in sequential rounds.

use crate::config::SimConfig;

/// The static mapping of a layer onto the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Output channels of this layer.
    pub out_channels: usize,
    /// Feature-map rows each slice processes.
    pub rows: usize,
    /// PE blocks available.
    pub n_pe: usize,
    /// Slices per block.
    pub l: usize,
}

impl Mapping {
    /// Builds the mapping for a layer with `out_channels` channels and
    /// `rows` feature-map rows.
    pub fn new(cfg: &SimConfig, out_channels: usize, rows: usize) -> Self {
        Mapping {
            out_channels,
            rows,
            n_pe: cfg.n_pe,
            l: cfg.l,
        }
    }

    /// Number of sequential output-channel rounds (`⌈K / N_PE⌉`).
    pub fn rounds(&self) -> usize {
        self.out_channels.div_ceil(self.n_pe)
    }

    /// Rows assigned to one slice (`⌈rows / l⌉` for the busiest slice).
    pub fn rows_per_slice(&self) -> usize {
        self.rows.div_ceil(self.l)
    }

    /// Fraction of PE blocks busy averaged over rounds (tail rounds may be
    /// partially filled).
    pub fn block_utilization(&self) -> f64 {
        if self.out_channels == 0 {
            return 0.0;
        }
        self.out_channels as f64 / (self.rounds() * self.n_pe) as f64
    }

    /// Fraction of slices busy (rows may not fill all `l` slices evenly).
    pub fn slice_utilization(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.rows as f64 / (self.rows_per_slice() * self.l) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn rounds_cover_all_channels() {
        let m = Mapping::new(&cfg(), 100, 32);
        assert_eq!(m.rounds(), 4); // ceil(100/32)
        assert!((m.block_utilization() - 100.0 / 128.0).abs() < 1e-12);
        // The fewest rounds of 32 blocks that hold every channel.
        for k in 1..200 {
            let m = Mapping::new(&cfg(), k, 32);
            assert!(m.rounds() * 32 >= k, "k={k}");
            assert!((m.rounds() - 1) * 32 < k, "k={k}");
        }
    }

    #[test]
    fn rows_interleave_across_slices() {
        // With l = 5, 32 rows interleave 7,7,6,6,6 over the slices: the
        // busiest slice takes ceil(32/5) rows.
        let m = Mapping::new(&cfg(), 32, 32);
        assert_eq!(m.rows_per_slice(), 7);
        assert!((m.slice_utilization() - 32.0 / 35.0).abs() < 1e-12);
        for rows in 1..100 {
            let m = Mapping::new(&cfg(), 32, rows);
            assert!(m.rows_per_slice() * 5 >= rows, "rows={rows}");
            assert!((m.rows_per_slice() - 1) * 5 < rows, "rows={rows}");
        }
    }

    #[test]
    fn utilization_is_one_when_divisible() {
        let m = Mapping::new(&cfg(), 64, 30);
        assert_eq!(m.block_utilization(), 1.0);
        assert_eq!(m.slice_utilization(), 1.0);
    }

    #[test]
    fn utilization_drops_on_small_layers() {
        let m = Mapping::new(&cfg(), 16, 2);
        assert_eq!(m.rounds(), 1);
        assert!((m.block_utilization() - 0.5).abs() < 1e-12);
        assert!((m.slice_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_layer_is_safe() {
        let m = Mapping::new(&cfg(), 0, 0);
        assert_eq!(m.block_utilization(), 0.0);
        assert_eq!(m.slice_utilization(), 0.0);
    }
}
