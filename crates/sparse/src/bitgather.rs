//! Bit gather (parallel bit extract) — Figure 4(b) of the paper.
//!
//! Given a data word and a mask, bit gather collects the data bits at the
//! mask's set positions toward the least-significant side, preserving their
//! order. ESCALATE implements this with an inverse butterfly network of
//! `log2(n)` stages (after Hilewitz & Lee); we model both a functional
//! reference and the staged network so the hardware cost (stage count,
//! switch count) can be charged by the energy model.

/// Number of stages an inverse butterfly network needs for 64-bit words.
pub const GATHER_STAGES_64: usize = 6;

/// Functional reference: gathers `data` bits selected by `mask` toward bit 0,
/// preserving order.
///
/// # Examples
///
/// ```
/// use escalate_sparse::gather_bits;
///
/// // data  = 0b1011, mask = 0b1010 → selected bits (from LSB) are
/// // data[1]=1, data[3]=1 → packed result 0b11.
/// assert_eq!(gather_bits(0b1011, 0b1010), 0b11);
/// ```
pub fn gather_bits(data: u64, mask: u64) -> u64 {
    let mut out = 0u64;
    let mut out_pos = 0;
    let mut m = mask;
    while m != 0 {
        let i = m.trailing_zeros();
        if data >> i & 1 == 1 {
            out |= 1u64 << out_pos;
        }
        out_pos += 1;
        m &= m - 1;
    }
    out
}

/// Staged model of the inverse butterfly gather network.
///
/// Implements the `log2(n)`-stage sheep-and-goats compression (Hacker's
/// Delight §7-4), which maps one-to-one onto the control of an inverse
/// butterfly network: stage `i` conditionally shifts surviving bits right by
/// `2^i`. Returns the gathered word together with the per-stage movement
/// masks, so hardware models can charge energy per active switch.
pub fn gather_bits_butterfly(data: u64, mask: u64) -> ButterflyGather {
    let mut x = data & mask;
    let mut m = mask;
    let mut mk = !mask << 1; // count 0s to the right of each bit
    let mut stage_moves = [0u64; GATHER_STAGES_64];

    for (i, slot) in stage_moves.iter_mut().enumerate() {
        // Parallel prefix (XOR-scan) of mk.
        let mut mp = mk ^ (mk << 1);
        mp ^= mp << 2;
        mp ^= mp << 4;
        mp ^= mp << 8;
        mp ^= mp << 16;
        mp ^= mp << 32;
        let mv = mp & m; // bits to move this stage
        *slot = mv;
        m = (m ^ mv) | (mv >> (1 << i));
        let t = x & mv;
        x = (x ^ t) | (t >> (1 << i));
        mk &= !mp;
    }
    ButterflyGather {
        gathered: x,
        stage_moves,
    }
}

/// Result of [`gather_bits_butterfly`]: the gathered word plus per-stage
/// movement masks of the modeled network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ButterflyGather {
    /// Data bits packed toward bit 0 in original order.
    pub gathered: u64,
    /// For each of the `log2(64)` stages, the mask of bits that moved.
    pub stage_moves: [u64; GATHER_STAGES_64],
}

impl ButterflyGather {
    /// Total number of bit movements across all stages — a proxy for the
    /// switching activity (energy) of the network.
    pub fn switch_activity(&self) -> u32 {
        self.stage_moves.iter().map(|m| m.count_ones()).sum()
    }
}

/// Packs 64 byte flags (each `0` or `1`) into one word, flag `j` to bit
/// `j`: the host-side way the compression tail and the workload builder
/// turn a vectorized comparison into a bitmask. Each group of eight
/// flags is one [`gather_bits`] of the bytes' low bits, done by one
/// multiply.
///
/// # Examples
///
/// ```
/// use escalate_sparse::pack_byte_flags;
///
/// let mut flags = [0u8; 64];
/// flags[0] = 1;
/// flags[9] = 1;
/// flags[63] = 1;
/// assert_eq!(pack_byte_flags(&flags), 1 | 1 << 9 | 1 << 63);
/// ```
#[inline]
pub fn pack_byte_flags(flags: &[u8; 64]) -> u64 {
    flags.chunks_exact(8).enumerate().fold(0, |w, (i, chunk)| {
        let bytes = u64::from_le_bytes(chunk.try_into().expect("8 flags"));
        // Byte `b` times `2^(56 - 7b)` lands on bit `56 + b`; no two
        // products share a bit, so nothing carries.
        w | (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_examples() {
        assert_eq!(gather_bits(0b1111, 0b0101), 0b11);
        assert_eq!(gather_bits(0b1000, 0b1000), 0b1);
        assert_eq!(gather_bits(0xFFFF_FFFF_FFFF_FFFF, 0), 0);
        assert_eq!(gather_bits(0, 0xFFFF_FFFF_FFFF_FFFF), 0);
    }

    #[test]
    fn identity_mask_is_identity() {
        let d = 0xDEAD_BEEF_0123_4567u64;
        assert_eq!(gather_bits(d, u64::MAX), d);
        assert_eq!(gather_bits_butterfly(d, u64::MAX).gathered, d);
    }

    #[test]
    fn butterfly_matches_reference_on_patterns() {
        let datas = [
            0u64,
            u64::MAX,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
            1 << 63,
        ];
        let masks = [
            0u64,
            u64::MAX,
            0x5555_5555_5555_5555,
            0xF0F0_F0F0_F0F0_F0F0,
            (1 << 40) - 1,
        ];
        for &d in &datas {
            for &m in &masks {
                assert_eq!(
                    gather_bits_butterfly(d, m).gathered,
                    gather_bits(d, m),
                    "d={d:#x} m={m:#x}"
                );
            }
        }
    }

    #[test]
    fn butterfly_matches_reference_pseudorandom() {
        // Simple LCG so the test is deterministic without a rand dependency.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..500 {
            let d = next();
            let m = next();
            assert_eq!(gather_bits_butterfly(d, m).gathered, gather_bits(d, m));
        }
    }

    #[test]
    fn gathered_popcount_bounded_by_mask() {
        let d = 0xFFFF_0000_FFFF_0000u64;
        let m = 0x00FF_00FF_00FF_00FFu64;
        let g = gather_bits(d, m);
        assert!(g.count_ones() <= m.count_ones());
        // Gathered bits occupy the low popcount(mask) positions only.
        assert_eq!(g >> m.count_ones(), 0);
    }

    #[test]
    fn switch_activity_zero_when_mask_dense() {
        // Nothing moves when every bit survives in place.
        let g = gather_bits_butterfly(0x1234, u64::MAX);
        assert_eq!(g.switch_activity(), 0);
    }

    #[test]
    fn switch_activity_positive_when_compressing() {
        let g = gather_bits_butterfly(u64::MAX, 0xAAAA_AAAA_AAAA_AAAA);
        assert!(g.switch_activity() > 0);
    }

    #[test]
    fn packed_flags_are_the_gather_of_each_bytes_low_bit() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            let mut flags = [0u8; 64];
            for f in &mut flags {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                *f = (seed >> 63) as u8;
            }
            let expected = (0..8).fold(0u64, |w, i| {
                let bytes = u64::from_le_bytes(flags[8 * i..8 * i + 8].try_into().unwrap());
                w | gather_bits(bytes, 0x0101_0101_0101_0101) << (8 * i)
            });
            assert_eq!(pack_byte_flags(&flags), expected);
        }
        assert_eq!(pack_byte_flags(&[1; 64]), u64::MAX);
    }
}
