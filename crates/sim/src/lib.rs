#![warn(missing_docs)]

//! Cycle-level simulator of the ESCALATE accelerator (paper Section 4).
//!
//! The accelerator is a grid of `N_PE` PE blocks, each with `l` PE slices;
//! a slice pairs `M` channel accumulators (CAs, implementing the
//! Dilution-Concentration sparse-skipping mechanism of §4.2) with a row of
//! `M` MACs holding the basis kernels in local FIFOs. The *Basis-First*
//! dataflow (§4.1) confines each output channel to one PE block and each
//! feature-map row to one slice, so coefficients live in per-block buffers
//! and input rows stream from distributed, reference-counted circular
//! buffers (§4.3).
//!
//! The simulator executes the real component models (the bit-exact
//! dilution and concentration structures from `escalate-sparse`) on
//! sampled positions of each layer, then scales by the dataflow's
//! parallelism to produce per-layer cycle counts, idle-cycle accounting,
//! and SRAM/DRAM traffic — the quantities Figures 8–13 are built from.
//! Sampling is the one deliberate abstraction over the paper's fully
//! cycle-accurate simulator; it preserves throughput statistics while
//! keeping whole-model runs fast (see DESIGN.md).
//!
//! # The simulation core
//!
//! Three fidelities share one core instead of forking it:
//!
//! - **Sampled** ([`engine::simulate_layer`]): synthetic Bernoulli
//!   activation masks on a stratified channel/position sample,
//!   extrapolated to the full layer. The default — fast enough for
//!   whole-model seed sweeps.
//! - **Trace-driven** ([`trace::simulate_layer_traced`]): the same cost
//!   model against a real `C×X×Y` feature map, every position walked,
//!   exact compressed-stream traffic.
//! - **Detailed** ([`detailed::simulate_layer_detailed`]): the
//!   cycle-stepped slice pipeline ([`slice::run_slice`]) for every
//!   (channel, slice) assignment — exact but quadratic.
//!
//! The shared pieces live in [`context`] and [`masks`]:
//! [`context::LayerContext`] owns the per-layer derivation (effective
//! `R·S`, [`mac::MacRow`], pointwise `parallel_k`,
//! [`dataflow::Mapping`], the stratified channel sample — derived in
//! exactly one place); [`masks::MaskSource`] unifies where activation
//! masks come from (Bernoulli draws vs a real feature map);
//! [`context::run_positions`] is the one inner loop and
//! [`context::assemble_stats`] the one extrapolation into
//! [`LayerStats`]; [`context::SimObserver`] hooks per-position,
//! per-slice, and per-layer events for instrumentation — the
//! [`observe::ObsObserver`] adapter turns that stream into `escalate-obs`
//! counters/histograms, and the plain entry points route through it
//! automatically whenever a process-global recorder is installed. Invalid
//! inputs surface as typed [`error::SimError`]s.
//!
//! On top sits the object-safe [`Accelerator`] trait ([`accel`]):
//! a model-bound simulator exposing `num_layers`/`simulate_layer`, with
//! the provided [`Accelerator::simulate`] folding per-layer stats into
//! [`ModelStats`] once for every design. ESCALATE implements it via
//! [`accel::Escalate`]; the baselines in `escalate-baselines` implement
//! it through their `LayerModel` adapter. Adding a fourth accelerator is
//! ~100 lines: implement a per-layer cost model, expose it through
//! `Accelerator` (directly or via `BaselineSim`), and every harness —
//! seed averaging, energy attachment, figure binaries — picks it up
//! unchanged.
//!
//! # Examples
//!
//! ```no_run
//! use escalate_core::pipeline::CompressionConfig;
//! use escalate_models::ModelProfile;
//! use escalate_sim::{simulate_model, SimConfig, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = ModelProfile::for_model("ResNet18").expect("known model");
//! let artifacts = escalate_core::compress_model_artifacts(&profile, &CompressionConfig::default())?;
//! let workload = Workload::from_artifacts("ResNet18", &artifacts, &profile);
//! let stats = simulate_model(&workload, &SimConfig::default(), 0);
//! println!("total cycles: {}", stats.total_cycles());
//! # Ok(())
//! # }
//! ```

pub mod accel;
pub mod buffers;
pub mod ca;
pub mod config;
pub mod context;
pub mod dataflow;
pub mod detailed;
pub mod engine;
pub mod error;
pub mod fallback;
pub mod mac;
pub mod masks;
pub mod observe;
pub mod psum;
pub mod shared;
pub mod simd;
pub mod slice;
pub mod stats;
pub mod trace;
pub mod workload;

pub use accel::{Accelerator, Escalate};
pub use ca::{LayerPlan, PositionCost, PositionKernel, MAX_BATCH};
pub use config::{
    check_basis_count, check_pe_count, DesignPoint, ScheduleKind, SimConfig, MAX_M, MAX_N_PE,
};
pub use context::{LayerContext, NoopObserver, SimObserver};
pub use engine::{simulate_layer, simulate_model};
pub use error::SimError;
pub use masks::MaskSource;
pub use observe::ObsObserver;
pub use stats::{checked_ratio, LayerStats, ModelStats, PipelineStats};
pub use workload::{LayerWorkload, Workload, WorkloadMode};
