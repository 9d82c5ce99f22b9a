//! CSR/CSC-style index encodings used as a storage-cost baseline.
//!
//! Previous sparse accelerators (SCNN, Cambricon-X) encode nonzeros with
//! explicit per-element indices or run-length steps. For ternary
//! coefficients the cost of one index exceeds the cost of several values,
//! which is the paper's argument for SparseMap (§4.2.1). This module
//! provides the comparison encodings and their size models.

/// A CSR-style encoding of a logically 2-D `rows x cols` dense matrix:
/// row pointers plus per-element column indices.
///
/// # Examples
///
/// ```
/// use escalate_sparse::csr::Csr;
///
/// let m = Csr::encode(2, 3, &[0.0, 5.0, 0.0, 1.0, 0.0, 2.0]);
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.decode(), vec![0.0, 5.0, 0.0, 1.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Encodes a dense row-major `rows x cols` slice.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != rows * cols`.
    pub fn encode(rows: usize, cols: usize, dense: &[f32]) -> Self {
        assert_eq!(dense.len(), rows * cols, "dense buffer must be rows*cols");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Reconstructs the dense row-major buffer.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out[r * self.cols + self.col_idx[i] as usize] = self.values[i];
            }
        }
        out
    }

    /// Storage cost in bits: `value_bits` per nonzero, `ceil(log2(cols))`
    /// bits per column index, and one row pointer per row of
    /// `ceil(log2(nnz+1))` bits.
    pub fn size_bits(&self, value_bits: usize) -> usize {
        let idx_bits = bits_for(self.cols);
        let ptr_bits = bits_for(self.nnz() + 1);
        self.nnz() * (value_bits + idx_bits) + (self.rows + 1) * ptr_bits
    }
}

/// Run-length ("step index") encoding as used by SCNN: each nonzero stores
/// the zero-run length before it in a fixed number of bits, with zero-value
/// padding when a run overflows the field.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLength {
    len: usize,
    step_bits: usize,
    /// `(run, value)` pairs; `value == 0.0` entries are overflow padding.
    entries: Vec<(u32, f32)>,
}

impl RunLength {
    /// Encodes a dense slice with `step_bits`-wide run fields.
    ///
    /// # Panics
    ///
    /// Panics if `step_bits` is 0 or larger than 31.
    pub fn encode(dense: &[f32], step_bits: usize) -> Self {
        assert!(
            step_bits > 0 && step_bits < 32,
            "step_bits must be in 1..32"
        );
        let max_run = (1u32 << step_bits) - 1;
        let mut entries = Vec::new();
        let mut run = 0u32;
        for &v in dense {
            if v == 0.0 {
                run += 1;
                if run == max_run + 1 {
                    // Overflow: emit a padding zero value with a full run.
                    entries.push((max_run, 0.0));
                    run = 0;
                }
            } else {
                entries.push((run, v));
                run = 0;
            }
        }
        RunLength {
            len: dense.len(),
            step_bits,
            entries,
        }
    }

    /// Number of stored entries (including overflow padding).
    fn stored_entries(&self) -> usize {
        self.entries.len()
    }

    /// Reconstructs the dense vector.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        let mut pos = 0usize;
        for &(run, v) in &self.entries {
            pos += run as usize;
            if v != 0.0 {
                out[pos] = v;
                pos += 1;
            } else {
                // Overflow padding consumes max_run zeros plus itself... the
                // padding entry itself encodes a zero at `pos`.
                pos += 1;
            }
        }
        out
    }

    /// Storage cost in bits: each entry stores a run field plus a value.
    pub fn size_bits(&self, value_bits: usize) -> usize {
        self.stored_entries() * (self.step_bits + value_bits)
    }
}

/// Smallest number of bits that can represent values `0..n` (at least 1).
fn bits_for(n: usize) -> usize {
    ((n.max(2) - 1).ilog2() + 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let dense = vec![0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0];
        let m = Csr::encode(3, 3, &dense);
        assert_eq!(m.decode(), dense);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn csr_empty_matrix() {
        let m = Csr::encode(2, 2, &[0.0; 4]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.decode(), vec![0.0; 4]);
    }

    #[test]
    fn runlength_roundtrip_no_overflow() {
        let dense = vec![0.0, 0.0, 5.0, 0.0, 7.0, 0.0, 0.0, 0.0];
        let rl = RunLength::encode(&dense, 4);
        assert_eq!(rl.decode(), dense);
    }

    #[test]
    fn runlength_handles_overflow_runs() {
        // A run of 9 zeros with 2-bit steps (max run 3) forces padding.
        let mut dense = vec![0.0f32; 10];
        dense[9] = 4.0;
        let rl = RunLength::encode(&dense, 2);
        assert_eq!(rl.decode(), dense);
        assert!(
            rl.stored_entries() > 1,
            "overflow should add padding entries"
        );
    }

    #[test]
    fn runlength_trailing_zeros_cost_nothing_extra() {
        let dense = vec![1.0, 0.0, 0.0];
        let rl = RunLength::encode(&dense, 4);
        assert_eq!(rl.stored_entries(), 1);
        assert_eq!(rl.decode(), dense);
    }

    #[test]
    fn sparsemap_beats_csr_for_ternary_values() {
        // The paper's motivating case: 2-bit ternary values, moderate
        // sparsity — per-element indices dwarf the values they locate.
        let dense: Vec<f32> = (0..1024)
            .map(|i| if i % 10 == 0 { 1.0 } else { 0.0 })
            .collect();
        let sm = crate::SparseMap::encode(&dense).size_bits(2);
        let csr = Csr::encode(1, 1024, &dense).size_bits(2);
        assert!(
            sm < csr,
            "SparseMap ({sm}) should beat CSR ({csr}) for ternary data"
        );
    }

    #[test]
    fn bits_for_formula() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }
}
