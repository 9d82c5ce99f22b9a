//! Dense row-major `f32` matrix with the products needed by kernel
//! decomposition.

/// Lanes of [`Matrix::matmul`]'s fixed-width accumulators: one group
/// covers decomposition's projection onto at most eight basis kernels.
const LANES: usize = 8;

/// A dense 2-D matrix stored in row-major order.
///
/// # Examples
///
/// ```
/// use escalate_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A flat view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable flat view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self * other`.
    ///
    /// Each output row keeps one accumulator per group of [`LANES`]
    /// columns and adds `self[i][k]·other[k]` for `k` in order from `+0`,
    /// reading a copy of the group's columns of `other`, so the inner loop
    /// has a fixed width and no branch at any output width. The sum never
    /// becomes `-0`, so for finite entries a zero term changes nothing:
    /// the result has the bits a loop that skips zeros of `self` gives.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dimensions differ: {} vs {}",
            self.cols, other.rows
        );
        let (n, m) = (self.cols, other.cols);
        let mut out = vec![0.0f32; self.rows * m];
        if n == 0 || m == 0 {
            return Matrix::from_vec(self.rows, m, out);
        }
        // One group's columns of `other`, row by row, reused across
        // groups: lanes past `m` in the last group keep stale values,
        // whose sums are never written.
        let mut group = vec![0.0f32; n * LANES];
        for g in 0..m.div_ceil(LANES) {
            let cols = g * LANES..m.min(g * LANES + LANES);
            for (dst, row) in group
                .chunks_exact_mut(LANES)
                .zip(other.data.chunks_exact(m))
            {
                dst[..cols.len()].copy_from_slice(&row[cols.clone()]);
            }
            let (group, _) = group.as_chunks::<LANES>();
            for (out, row) in out.chunks_exact_mut(m).zip(self.data.chunks_exact(n)) {
                let mut acc = [0.0f32; LANES];
                for (&x, b) in row.iter().zip(group) {
                    for (acc, &b) in acc.iter_mut().zip(b) {
                        *acc += x * b;
                    }
                }
                for (o, acc) in out[cols.clone()].iter_mut().zip(acc) {
                    *o = acc;
                }
            }
        }
        Matrix::from_vec(self.rows, m, out)
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// The Gram matrix `selfᵀ * self` (always `cols x cols`, symmetric).
    ///
    /// Each row adds `r[i]·r[j]` into every entry of the upper triangle,
    /// with no branch, and the lower triangle mirrors it at the end: each
    /// entry sums over the rows in row order from `+0`. The sum never
    /// becomes `-0`, so for finite entries adding a zero product changes
    /// nothing and skipping zeros would give the same bits. The kernel
    /// areas the benchmark networks decompose — 1×1, 3×3, 4×4 (the ViT
    /// patchify) and 7×7 — each get a fixed-width copy of the loop, which
    /// the compiler unrolls; other widths run it with a runtime width,
    /// several times slower.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = vec![0.0f32; n * n];
        match n {
            0 => {}
            1 => gram_rows(&self.data, &mut out, 1),
            9 => gram_rows(&self.data, &mut out, 9),
            16 => gram_rows(&self.data, &mut out, 16),
            49 => gram_rows(&self.data, &mut out, 49),
            n => gram_rows(&self.data, &mut out, n),
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                out[i * n + j] = out[j * n + i];
            }
        }
        Matrix::from_vec(n, n, out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Checks element-wise closeness within an absolute + relative tolerance.
    pub fn all_close(&self, other: &Matrix, tol: f32) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol + tol * a.abs().max(b.abs()))
    }
}

/// Adds `r[i]·r[j]` into `out[i][j]` for `j ≥ i`, for each `n`-wide row
/// `r` of `a` in order.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn gram_rows(a: &[f32], out: &mut [f32], n: usize) {
    for r in a.chunks_exact(n) {
        for i in 0..n {
            let ri = r[i];
            for j in i..n {
                out[i * n + j] += ri * r[j];
            }
        }
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let expected = a.transpose().matmul(&a);
        assert!(g.all_close(&expected, 1e-6));
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_views_are_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }
}
