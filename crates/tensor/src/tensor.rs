//! Dense N-dimensional row-major tensor of `f32` values.

/// A dense N-dimensional tensor stored in row-major (C) order.
///
/// The last axis is contiguous. Shapes are dynamic; all indexing is
/// bounds-checked in debug builds through the standard slice operations.
///
/// # Examples
///
/// ```
/// use escalate_tensor::Tensor;
///
/// let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the number of elements overflows `usize`.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![1.0; len],
        }
    }

    /// Creates a tensor by calling `f` with each multi-dimensional index in
    /// row-major order.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let len: usize = shape.iter().product();
        let mut idx = vec![0usize; shape.len()];
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f(&idx));
            for axis in (0..shape.len()).rev() {
                idx[axis] += 1;
                if idx[axis] < shape[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A flat view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable flat view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Computes the flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len()` differs from the rank or any coordinate is out
    /// of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "rank mismatch");
        let mut off = 0usize;
        for (axis, (&i, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                i < dim,
                "index {i} out of bounds for axis {axis} (size {dim})"
            );
            off = off * dim + i;
        }
        off
    }

    /// Reads the element at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (see [`Tensor::offset`]).
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Writes the element at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (see [`Tensor::offset`]).
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data reinterpreted under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        assert_eq!(
            len,
            self.data.len(),
            "reshape to {shape:?} changes element count"
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies the ReLU nonlinearity (used to create realistic activation
    /// sparsity in synthetic feature maps).
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add requires identical shapes");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place scaled accumulation: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy requires identical shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// The fraction of exactly-zero elements.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// The number of nonzero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Frobenius norm (square root of the sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute value, or 0.0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Relative Frobenius-norm distance `||self - other|| / ||self||`.
    ///
    /// Returns the absolute distance when `self` is the zero tensor, so the
    /// result is always finite.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn relative_error(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "relative_error requires identical shapes"
        );
        let mut acc = RelativeError::default();
        for (&a, &b) in self.data.iter().zip(&other.data) {
            acc.push(a, b);
        }
        acc.value()
    }

    /// Checks element-wise closeness within an absolute + relative tolerance.
    pub fn all_close(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol + tol * a.abs().max(b.abs()))
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

/// The running sums behind [`Tensor::relative_error`], for callers that
/// produce the approximation one value at a time instead of as a tensor.
/// Pushing the pairs in the reference's row-major order gives the same
/// bits as `relative_error`.
///
/// # Examples
///
/// ```
/// use escalate_tensor::{RelativeError, Tensor};
///
/// let a = Tensor::from_vec(&[2], vec![3.0, 4.0]);
/// let b = Tensor::from_vec(&[2], vec![3.0, 3.0]);
/// let mut acc = RelativeError::default();
/// acc.push(3.0, 3.0);
/// acc.push(4.0, 3.0);
/// assert_eq!(acc.value().to_bits(), a.relative_error(&b).to_bits());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RelativeError {
    num: f32,
    den: f32,
}

impl RelativeError {
    /// Adds one `(reference, approximation)` pair.
    #[inline]
    pub fn push(&mut self, reference: f32, approx: f32) {
        self.num += (reference - approx) * (reference - approx);
        self.den += reference * reference;
    }

    /// `‖reference − approx‖ / ‖reference‖`, or the absolute distance when
    /// the reference is all zeros.
    pub fn value(&self) -> f32 {
        if self.den == 0.0 {
            self.num.sqrt()
        } else {
            (self.num / self.den).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_contents() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn from_fn_orders_row_major() {
        let t = Tensor::from_fn(&[2, 2], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn offset_get_set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4, 5]);
        t.set(&[2, 1, 3], 7.5);
        assert_eq!(t.get(&[2, 1, 3]), 7.5);
        assert_eq!(t.offset(&[2, 1, 3]), 2 * 20 + 5 + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        Tensor::zeros(&[2, 2]).get(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rank_mismatch_panics() {
        Tensor::zeros(&[2, 2]).get(&[0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let t = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        assert_eq!(t.relu().as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let t = Tensor::from_vec(&[4], vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(t.sparsity(), 0.5);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn relative_error_zero_for_identical() {
        let t = Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]);
        assert_eq!(t.relative_error(&t.clone()), 0.0);
    }

    #[test]
    fn relative_error_finite_for_zero_reference() {
        let z = Tensor::zeros(&[2]);
        let o = Tensor::ones(&[2]);
        assert!((z.relative_error(&o) - 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let t = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        assert_eq!(t.frobenius_norm(), 5.0);
    }
}
