//! SparseMap bitmask encoding and its 2-level variant (paper §4.2.1).
//!
//! SparseMap stores a dense bit mask (one bit per position, set when the
//! position is nonzero) plus a packed array of the nonzero values. Compared
//! with CSR/CSC index arrays this is far cheaper for ternary coefficients,
//! where one index would cost more bits than several values.
//!
//! The 2-level variant splits the mask into 16-bit chunks and stores one
//! presence bit per chunk; all-zero chunks store neither mask nor values,
//! which keeps the encoding compact at very high sparsity (ESCALATE prunes
//! up to 99.4% of coefficients).

/// Size in bits of one mask chunk in the 2-level encoding.
pub const CHUNK_BITS: usize = 16;

/// A flat SparseMap encoding of an `f32` vector: a dense bit mask plus the
/// packed nonzero values.
///
/// # Examples
///
/// ```
/// use escalate_sparse::SparseMap;
///
/// let m = SparseMap::encode(&[0.0, 1.5, 0.0, -2.0]);
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.decode(), vec![0.0, 1.5, 0.0, -2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMap {
    len: usize,
    mask: Vec<u64>,
    values: Vec<f32>,
}

impl SparseMap {
    /// Encodes a dense slice.
    pub fn encode(dense: &[f32]) -> Self {
        let len = dense.len();
        let mut mask = vec![0u64; len.div_ceil(64)];
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                mask[i / 64] |= 1u64 << (i % 64);
                values.push(v);
            }
        }
        SparseMap { len, mask, values }
    }

    /// Number of encoded positions (dense length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the encoded vector has zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored nonzero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The packed nonzero values in position order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Whether position `i` is nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        self.mask[i / 64] >> (i % 64) & 1 == 1
    }

    /// The raw mask words (little-endian bit order within each word).
    pub fn mask_words(&self) -> &[u64] {
        &self.mask
    }

    /// Reconstructs the dense vector.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        let mut vi = 0;
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.len {
            if self.bit(i) {
                out[i] = self.values[vi];
                vi += 1;
            }
        }
        out
    }

    /// Storage cost in bits given a per-value precision.
    ///
    /// One mask bit per position plus `value_bits` per nonzero.
    pub fn size_bits(&self, value_bits: usize) -> usize {
        self.len + self.nnz() * value_bits
    }
}

/// The 2-level SparseMap: 16-bit mask chunks gated by per-chunk presence
/// bits; all-zero chunks are not stored at all.
///
/// # Examples
///
/// ```
/// use escalate_sparse::TwoLevelSparseMap;
///
/// let mut dense = vec![0.0f32; 64];
/// dense[3] = 1.0;
/// let m = TwoLevelSparseMap::encode(&dense);
/// // 4 chunks of 16 bits; only one is non-empty.
/// assert_eq!(m.stored_chunks(), 1);
/// assert_eq!(m.decode(), dense);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelSparseMap {
    len: usize,
    /// One presence bit per 16-bit chunk.
    presence: Vec<bool>,
    /// Masks of the present chunks, in order.
    chunk_masks: Vec<u16>,
    values: Vec<f32>,
}

impl TwoLevelSparseMap {
    /// Encodes a dense slice.
    pub fn encode(dense: &[f32]) -> Self {
        let len = dense.len();
        let n_chunks = len.div_ceil(CHUNK_BITS);
        let mut presence = Vec::with_capacity(n_chunks);
        let mut chunk_masks = Vec::new();
        let mut values = Vec::new();
        for chunk in 0..n_chunks {
            let start = chunk * CHUNK_BITS;
            let end = (start + CHUNK_BITS).min(len);
            let mut mask: u16 = 0;
            for (bit, &v) in dense[start..end].iter().enumerate() {
                if v != 0.0 {
                    mask |= 1u16 << bit;
                }
            }
            presence.push(mask != 0);
            if mask != 0 {
                chunk_masks.push(mask);
                for &v in &dense[start..end] {
                    if v != 0.0 {
                        values.push(v);
                    }
                }
            }
        }
        TwoLevelSparseMap {
            len,
            presence,
            chunk_masks,
            values,
        }
    }

    /// Number of encoded positions (dense length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the encoded vector has zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored nonzero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of chunks that are stored (non-empty).
    pub fn stored_chunks(&self) -> usize {
        self.chunk_masks.len()
    }

    /// Total number of chunks (stored or elided).
    pub fn total_chunks(&self) -> usize {
        self.presence.len()
    }

    /// Reconstructs the dense vector.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        let mut ci = 0;
        let mut vi = 0;
        for (chunk, &present) in self.presence.iter().enumerate() {
            if !present {
                continue;
            }
            let mask = self.chunk_masks[ci];
            ci += 1;
            let start = chunk * CHUNK_BITS;
            for bit in 0..CHUNK_BITS {
                if mask >> bit & 1 == 1 {
                    out[start + bit] = self.values[vi];
                    vi += 1;
                }
            }
        }
        out
    }

    /// Storage cost in bits: one presence bit per chunk, 16 mask bits per
    /// stored chunk, and `value_bits` per nonzero.
    pub fn size_bits(&self, value_bits: usize) -> usize {
        Self::size_bits_from_counts(
            self.total_chunks(),
            self.stored_chunks(),
            self.nnz(),
            value_bits,
        )
    }

    /// The [`size_bits`](Self::size_bits) that encoding the integer codes
    /// `dense` (such as ternary coefficients) as `f32` would report,
    /// counted from their nonzero pattern without building the map.
    ///
    /// # Examples
    ///
    /// ```
    /// use escalate_sparse::TwoLevelSparseMap;
    ///
    /// let ternary: Vec<i8> = vec![0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    /// let dense: Vec<f32> = ternary.iter().map(|&v| f32::from(v)).collect();
    /// assert_eq!(
    ///     TwoLevelSparseMap::size_bits_of(&ternary, 1),
    ///     TwoLevelSparseMap::encode(&dense).size_bits(1),
    /// );
    /// ```
    pub fn size_bits_of(dense: &[i8], value_bits: usize) -> usize {
        let mut stored = 0;
        let mut nnz = 0;
        for chunk in dense.chunks(CHUNK_BITS) {
            let n = chunk.iter().filter(|&&v| v != 0).count();
            stored += usize::from(n > 0);
            nnz += n;
        }
        Self::size_bits_from_counts(dense.len().div_ceil(CHUNK_BITS), stored, nnz, value_bits)
    }

    /// The 2-level size rule, shared by the encoded map and the counting
    /// paths: one presence bit per chunk, [`CHUNK_BITS`] mask bits per
    /// stored chunk and `value_bits` per nonzero. It is linear in its
    /// counts, so several maps' totals give the sum of their sizes.
    pub fn size_bits_from_counts(
        total_chunks: usize,
        stored_chunks: usize,
        nnz: usize,
        value_bits: usize,
    ) -> usize {
        total_chunks + stored_chunks * CHUNK_BITS + nnz * value_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f32> {
        let mut v = vec![0.0f32; 100];
        for i in (0..100).step_by(7) {
            v[i] = i as f32 + 1.0;
        }
        v[99] = -5.0;
        v
    }

    #[test]
    fn flat_roundtrip() {
        let d = sample();
        assert_eq!(SparseMap::encode(&d).decode(), d);
    }

    #[test]
    fn flat_all_zero() {
        let m = SparseMap::encode(&[0.0; 10]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.decode(), vec![0.0; 10]);
        assert_eq!(m.size_bits(8), 10);
    }

    #[test]
    fn flat_dense_vector() {
        let d = vec![1.0f32; 5];
        let m = SparseMap::encode(&d);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.size_bits(2), 5 + 10);
    }

    #[test]
    fn flat_bits_match_positions() {
        let d = sample();
        let m = SparseMap::encode(&d);
        for (i, &v) in d.iter().enumerate() {
            assert_eq!(m.bit(i), v != 0.0);
        }
    }

    #[test]
    fn two_level_roundtrip() {
        let d = sample();
        assert_eq!(TwoLevelSparseMap::encode(&d).decode(), d);
    }

    #[test]
    fn two_level_elides_empty_chunks() {
        let mut d = vec![0.0f32; 160];
        d[0] = 1.0;
        d[150] = 2.0;
        let m = TwoLevelSparseMap::encode(&d);
        assert_eq!(m.total_chunks(), 10);
        assert_eq!(m.stored_chunks(), 2);
        assert_eq!(m.decode(), d);
    }

    #[test]
    fn two_level_beats_flat_at_high_sparsity() {
        let mut d = vec![0.0f32; 1600];
        d[17] = 1.0;
        let two = TwoLevelSparseMap::encode(&d).size_bits(2);
        let flat = SparseMap::encode(&d).size_bits(2);
        assert!(
            two < flat,
            "2-level ({two}) should beat flat ({flat}) at 99.9% sparsity"
        );
    }

    #[test]
    fn flat_beats_two_level_at_low_sparsity() {
        let d: Vec<f32> = (0..1600)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let two = TwoLevelSparseMap::encode(&d).size_bits(2);
        let flat = SparseMap::encode(&d).size_bits(2);
        assert!(
            flat < two,
            "flat ({flat}) should beat 2-level ({two}) at 50% sparsity"
        );
    }

    #[test]
    fn two_level_partial_final_chunk() {
        let mut d = vec![0.0f32; 20]; // 2 chunks, second partial
        d[18] = 3.0;
        let m = TwoLevelSparseMap::encode(&d);
        assert_eq!(m.total_chunks(), 2);
        assert_eq!(m.stored_chunks(), 1);
        assert_eq!(m.decode(), d);
    }

    #[test]
    fn size_accounting_formulas() {
        let d = sample();
        let m = SparseMap::encode(&d);
        assert_eq!(m.size_bits(8), 100 + m.nnz() * 8);
        let t = TwoLevelSparseMap::encode(&d);
        assert_eq!(
            t.size_bits(8),
            t.total_chunks() + t.stored_chunks() * 16 + t.nnz() * 8
        );
    }
}
