//! CACTI-style SRAM access-energy model.
//!
//! The paper runs CACTI 7.0 on each buffer configuration; we substitute
//! the well-known capacity scaling law CACTI itself exhibits at a fixed
//! technology node: access energy per byte grows roughly with the square
//! root of the macro capacity (bitline/wordline length). Constants are
//! fitted to published 65 nm CACTI outputs (≈0.5 pJ/B for a 1 KB scratch,
//! ≈1 pJ/B for 8 KB, ≈2.6 pJ/B for 64 KB).

/// Access energy in pJ per byte for an SRAM of the given capacity.
fn access_pj_per_byte(capacity_bytes: usize) -> f64 {
    let kb = (capacity_bytes as f64 / 1024.0).max(1.0 / 16.0);
    0.2 + 0.3 * kb.sqrt()
}

/// Energy of accessing `bytes` from an SRAM of `capacity_bytes`.
///
/// # Examples
///
/// ```
/// use escalate_energy::sram::access_energy_pj;
///
/// let small = access_energy_pj(512, 64);
/// let big = access_energy_pj(64 * 1024, 64);
/// assert!(big > small);
/// ```
pub fn access_energy_pj(capacity_bytes: usize, bytes: u64) -> f64 {
    access_pj_per_byte(capacity_bytes) * bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_grows_with_capacity() {
        let mut last = 0.0;
        for cap in [64usize, 512, 2048, 8192, 65536] {
            let e = access_pj_per_byte(cap);
            assert!(e > last, "cap={cap}");
            last = e;
        }
    }

    #[test]
    fn calibration_points() {
        // ~1 pJ/B at 8 KB, ~2.6 pJ/B at 64 KB (65 nm CACTI ballpark).
        assert!((access_pj_per_byte(8 * 1024) - 1.05).abs() < 0.1);
        assert!((access_pj_per_byte(64 * 1024) - 2.6).abs() < 0.2);
    }

    #[test]
    fn sram_cheaper_than_dram_at_all_sizes() {
        for cap in [64usize, 1024, 65536, 1 << 20] {
            assert!(access_pj_per_byte(cap) < 100.0);
        }
    }

    #[test]
    fn total_scales_linearly_with_bytes() {
        let a = access_energy_pj(8192, 100);
        let b = access_energy_pj(8192, 200);
        assert!((b - 2.0 * a).abs() < 1e-9);
    }
}
