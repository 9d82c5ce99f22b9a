#![warn(missing_docs)]

//! The ESCALATE compression algorithm (the paper's primary contribution,
//! Section 3).
//!
//! ESCALATE compresses convolutional layers through *kernel decomposition*:
//! the reshaped weight `W' ∈ R^{KC×RS}` is factored into `M` shared basis
//! kernels `B ∈ R^{M×RS}` and a large coefficient tensor
//! `Ce ∈ R^{K×C×M}`. The forward pass then splits into two stages whose
//! order this crate reorganizes (Eq. (2) → Eq. (3)) so the weighted
//! accumulation happens *before* the basis convolutions, shrinking the
//! intermediate feature maps from `CM` channels to `M` channels.
//!
//! Modules:
//!
//! - [`mod@decompose`] — the kernel-level SVD factorization,
//! - [`reorg`] — both computation orders plus equivalence checks,
//! - [`quant`] — hybrid quantization: 8-bit basis kernels, per-filter
//!   ternary coefficients with trained scaling factors and a 2-bit
//!   negative/positive quotient (Eq. (4)),
//! - [`qat`] — a straight-through-estimator retraining loop recovering
//!   output fidelity after ternarization,
//! - [`dsc`] — decomposition of depthwise-separable convolutions and the
//!   Hadamard fold of pointwise weights into the coefficients (Eq. (5)),
//! - [`pipeline`] — the whole-model compression pipeline with exact
//!   SparseMap storage accounting (regenerates Table 1),
//! - [`cache`] — the one bounded single-flight memo map every
//!   process-wide cache of the workspace is built on.

pub mod artifact;
pub mod cache;
pub mod decompose;
pub mod dsc;
pub mod error;
pub mod par;
pub mod pipeline;
pub mod qat;
pub mod quant;
pub mod reorg;

pub use decompose::{decompose, decompose_adaptive, Decomposed};
pub use error::EscalateError;
pub use pipeline::{
    compress_layer, compress_model, compress_model_artifacts, CompressedLayer, LayerCompression,
    ModelCompression,
};
pub use quant::{HybridQuantized, QuantizedBasis, TernaryCoeffs};
