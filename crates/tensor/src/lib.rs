#![warn(missing_docs)]

//! Tensor and linear-algebra substrate for the ESCALATE reproduction.
//!
//! This crate implements, from scratch, everything the ESCALATE algorithm
//! needs from a numerical library:
//!
//! - [`Tensor`] — a dense N-dimensional row-major `f32` tensor,
//! - [`Matrix`] — a thin 2-D owner with matrix products and transposes,
//! - [`linalg`] — a Jacobi eigendecomposition and the Gram-matrix SVD used by
//!   kernel decomposition (the second factor dimension `R*S` is at most 49
//!   for CNN kernels, so the Gram route is both exact and fast),
//! - [`conv`] — reference convolution operators (direct, depthwise,
//!   pointwise) used to validate the reorganized decomposed convolution.
//!
//! # Examples
//!
//! ```
//! use escalate_tensor::{Tensor, conv};
//!
//! // A 1-channel 4x4 input convolved with a 1x1x3x3 averaging filter.
//! let input = Tensor::ones(&[1, 4, 4]);
//! let weight = Tensor::from_fn(&[1, 1, 3, 3], |_| 1.0 / 9.0);
//! let out = conv::conv2d(&input, &weight, 1, 1);
//! assert_eq!(out.shape(), &[1, 4, 4]);
//! ```

pub mod conv;
pub mod linalg;
pub mod matrix;
pub mod tensor;

pub use matrix::Matrix;
pub use tensor::{RelativeError, Tensor};

/// Error type for shape and numerical failures in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The operands' shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was provided.
        got: String,
    },
    /// An iterative numerical routine failed to converge.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            TensorError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} did not converge after {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}
