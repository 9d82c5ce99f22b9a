#![warn(missing_docs)]

//! Sparse encodings and the bit-manipulation hardware primitives of the
//! ESCALATE accelerator.
//!
//! This crate models Section 4.2 of the paper:
//!
//! - [`sparsemap`] — the SparseMap bitmask encoding (adopted from SparTen)
//!   and the 2-level variant with 16-bit chunk presence bits, plus exact
//!   storage-size accounting used for Table 1,
//! - [`bitgather`] — the bit-gather operation, both as a functional
//!   reference and as a stage-by-stage inverse-butterfly network model
//!   (Figure 4(b)),
//! - [`dilution`] — the Dilution step matching activation chunks against
//!   ternary coefficients with bit-wise AND + gather (Figure 4(c)); its
//!   filter mask is computed in one shot, standing in for the paper's
//!   rolling-mask generation pipeline (Figure 5),
//! - [`concentration`] — the Concentration step filling holes via
//!   column-wise look-ahead and look-aside (Figure 6),
//! - [`actcodec`] — the sliced C-order activation storage layout
//!   (Figure 4(a)),
//! - [`csr`] — CSR/CSC encodings used as a storage-cost baseline.

pub mod actcodec;
pub mod bitgather;
pub mod concentration;
pub mod csr;
pub mod dilution;
pub mod sparsemap;

pub use bitgather::{gather_bits, gather_bits_butterfly, GATHER_STAGES_64};
pub use concentration::{ConcentrationBuffer, ConcentrationStats, MaskConcentration};
pub use dilution::{dilute, dilute_into, DilutedChunk, DilutionInput, DilutionOutcome};
pub use sparsemap::{SparseMap, TwoLevelSparseMap};
