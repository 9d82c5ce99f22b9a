#![warn(missing_docs)]

//! Energy and area models (paper §5.2.1, Tables 3 and 4).
//!
//! The paper's energy methodology reduces synthesis output to per-operation
//! constants: Table 3 gives the unit energy of 8-bit integer operations and
//! DRAM accesses under TSMC 65 nm, CACTI supplies SRAM access energy, and
//! Table 4 gives the per-PE-block component power/area from Design
//! Compiler. This crate reproduces that bookkeeping:
//!
//! - [`units`] — the Table 3 constants,
//! - [`sram`] — a CACTI-style capacity-scaling access-energy model,
//! - [`area`] — the Table 4 component table,
//! - [`breakdown`] — per-layer/per-model energy breakdowns (Figure 10)
//!   from the simulators' [`escalate_sim::LayerStats`] records.

pub mod area;
pub mod breakdown;
pub mod sram;
pub mod units;

pub use area::{chip_area_mm2, PeBlockArea, COMPONENTS, SRAM_MM2_PER_KB};
pub use breakdown::{layer_energy, model_energy, BufferCaps, EnergyBreakdown};
pub use units::UnitEnergy;
