//! The declarative experiment registry.
//!
//! Every table, figure and ablation of the evaluation is one
//! [`Experiment`]: a named, paper-anchored producer of a [`Table`]. The
//! [`registry`] lists all of them; the `report` runner behind
//! `escalate report` drives the registry to print, export (JSON),
//! regenerate (`--update`) or regression-check (`--check`) the golden
//! corpus under `results/`; `escalate report NAME` runs one entry.

mod context;
mod runner;
mod table;

mod adaptive_m;
mod buffer_ablation;
mod ca_ablation;
mod discussion;
mod encoding_sweep;
mod fig10;
mod fig10_layers;
mod fig11;
mod fig12;
mod fig13;
mod fig7;
mod fig8;
mod fig9;
mod psum_ablation;
mod reorg_ablation;
mod rs_mapping;
mod schedule;
mod sensitivity;
mod table1;
mod table4;

pub use context::ExpContext;
pub use runner::{run_report, ReportOptions};
pub use table::{Cell, Record, Table, REPORT_SCHEMA};

use escalate_core::EscalateError;

/// An experiment failure: the pipeline failed, an argument was invalid,
/// or an output file could not be written.
#[derive(Debug)]
pub enum ExpError {
    /// Compression/simulation failure.
    Pipeline(EscalateError),
    /// Invalid argument or experiment-level failure, with a user-facing
    /// message.
    Msg(String),
    /// Filesystem failure (golden corpus / output directory).
    Io(std::io::Error),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Pipeline(e) => write!(f, "{e}"),
            ExpError::Msg(m) => write!(f, "{m}"),
            ExpError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<EscalateError> for ExpError {
    fn from(e: EscalateError) -> Self {
        ExpError::Pipeline(e)
    }
}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> Self {
        ExpError::Io(e)
    }
}

/// One registered experiment: a named producer of a [`Table`].
pub trait Experiment: Sync {
    /// Registry name — also the `results/<name>.txt` golden file stem.
    fn name(&self) -> &'static str;

    /// Where in the paper the output belongs (`"Figure 8"`, `"§6.3"`, …).
    fn paper_anchor(&self) -> &'static str;

    /// One-line description for `report --list`.
    fn summary(&self) -> &'static str;

    /// Runs the experiment under `ctx`, producing its output table.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] on pipeline failures or invalid arguments.
    fn run(&self, ctx: &ExpContext) -> Result<Table, ExpError>;
}

/// All registered experiments, in the presentation order of the paper's
/// evaluation (tables, figures, then the ablation/extension studies).
pub fn registry() -> &'static [&'static dyn Experiment] {
    &[
        &table1::Table1,
        &fig7::Fig7,
        &table4::Table4,
        &fig8::Fig8,
        &fig9::Fig9,
        &fig10::Fig10,
        &fig10_layers::Fig10Layers,
        &fig11::Fig11,
        &fig12::Fig12,
        &fig13::Fig13,
        &sensitivity::Sensitivity,
        &discussion::Discussion,
        &adaptive_m::AdaptiveM,
        &buffer_ablation::BufferAblation,
        &ca_ablation::CaAblation,
        &encoding_sweep::EncodingSweep,
        &psum_ablation::PsumAblation,
        &reorg_ablation::ReorgAblation,
        &rs_mapping::RsMapping,
        &schedule::ScheduleCompare,
    ]
}

/// Looks an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        assert_eq!(names.len(), 20, "all 20 experiments must be registered");
        for required in ["table1", "table4", "fig8", "reorg_ablation"] {
            assert!(names.contains(&required), "{required} missing");
        }
    }

    #[test]
    fn find_resolves_names() {
        assert_eq!(find("fig8").map(|e| e.name()), Some("fig8"));
        assert!(find("fig99").is_none());
    }

    #[test]
    fn every_experiment_names_a_paper_anchor_and_summary() {
        for e in registry() {
            assert!(!e.paper_anchor().is_empty(), "{}", e.name());
            assert!(!e.summary().is_empty(), "{}", e.name());
        }
    }
}
