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

/// One registered experiment: a named, paper-anchored producer of a
/// [`Table`].
#[derive(Debug)]
pub struct Experiment {
    /// Registry name — also the `results/<name>.txt` golden file stem.
    pub name: &'static str,
    /// Where in the paper the output belongs (`"Figure 8"`, `"§6.3"`, …).
    pub paper_anchor: &'static str,
    /// One-line description for `report --list`.
    pub summary: &'static str,
    /// Fills the table [`Experiment::table`] created from `name` and
    /// `paper_anchor`, under the given context.
    pub run: fn(&ExpContext, &mut Table) -> Result<(), ExpError>,
}

impl Experiment {
    /// Runs the experiment under `ctx`, producing its output table.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] on pipeline failures or invalid arguments.
    pub fn table(&self, ctx: &ExpContext) -> Result<Table, ExpError> {
        let mut table = Table::new(self.name, self.paper_anchor);
        (self.run)(ctx, &mut table)?;
        Ok(table)
    }
}

/// All registered experiments, in the presentation order of the paper's
/// evaluation (tables, figures, then the ablation/extension studies).
pub fn registry() -> &'static [Experiment] {
    &[
        Experiment {
            name: "table1",
            paper_anchor: "Table 1",
            summary: "compression ratio / sparsity / pruning of all six models vs the paper",
            run: table1::run,
        },
        Experiment {
            name: "fig7",
            paper_anchor: "Figure 7",
            summary: "quantization-policy sweep (uniform/hybrid/basis-only) on ResNet18",
            run: fig7::run,
        },
        Experiment {
            name: "table4",
            paper_anchor: "Table 4",
            summary: "PE-block power/area model (65 nm) and the whole-chip estimate",
            run: table4::run,
        },
        Experiment {
            name: "fig8",
            paper_anchor: "Figure 8",
            summary: "speedup and energy efficiency over Eyeriss, all six models",
            run: fig8::run,
        },
        Experiment {
            name: "fig9",
            paper_anchor: "Figure 9",
            summary: "DRAM accesses normalized to ESCALATE, all six models",
            run: fig9::run,
        },
        Experiment {
            name: "fig10",
            paper_anchor: "Figure 10",
            summary: "ESCALATE inference energy breakdown per model",
            run: fig10::run,
        },
        Experiment {
            name: "fig10_layers",
            paper_anchor: "Figure 10 (per-layer)",
            summary: "layer-resolved ESCALATE energy breakdown for one model",
            run: fig10_layers::run,
        },
        Experiment {
            name: "fig11",
            paper_anchor: "Figure 11",
            summary: "layer-wise sparsity and speedup over Eyeriss (default ResNet18)",
            run: fig11::run,
        },
        Experiment {
            name: "fig12",
            paper_anchor: "Figure 12",
            summary: "accuracy/latency/energy trade-off vs M at a fixed MAC budget",
            run: fig12::run,
        },
        Experiment {
            name: "fig13",
            paper_anchor: "Figure 13",
            summary: "MAC idle cycles vs coefficient sparsity per MobileNet layer",
            run: fig13::run,
        },
        Experiment {
            name: "sensitivity",
            paper_anchor: "§5.2.1",
            summary: "input-seed variance and activation-sparsity sweep (ResNet18)",
            run: sensitivity::run,
        },
        Experiment {
            name: "discussion",
            paper_anchor: "§6.3",
            summary: "redundant-but-sparse VGG16 vs compact MobileNetV2 on ESCALATE",
            run: discussion::run,
        },
        Experiment {
            name: "adaptive_m",
            paper_anchor: "§6.1 (extension)",
            summary: "PENNI-style adaptive per-layer M vs the fixed M = 6",
            run: adaptive_m::run,
        },
        Experiment {
            name: "buffer_ablation",
            paper_anchor: "§4.3",
            summary: "ref-counted distributed input buffers vs a unified FIFO",
            run: buffer_ablation::run,
        },
        Experiment {
            name: "ca_ablation",
            paper_anchor: "§4.2.3 / Figure 6",
            summary: "concentration look-ahead/look-aside sweep vs perfect packing",
            run: ca_ablation::run,
        },
        Experiment {
            name: "encoding_sweep",
            paper_anchor: "§4.2.1",
            summary: "SparseMap vs 2-level vs CSR vs RLE storage across sparsity",
            run: encoding_sweep::run,
        },
        Experiment {
            name: "psum_ablation",
            paper_anchor: "§4.1",
            summary: "psum bank-conflict factor under the Basis-First scatter",
            run: psum_ablation::run,
        },
        Experiment {
            name: "reorg_ablation",
            paper_anchor: "§3.1",
            summary: "Eq.(2) vs Eq.(3) intermediate footprint and output agreement",
            run: reorg_ablation::run,
        },
        Experiment {
            name: "rs_mapping",
            paper_anchor: "§5 baselines",
            summary: "row-stationary mapping search vs the closed-form Eyeriss model",
            run: rs_mapping::run,
        },
        Experiment {
            name: "schedule_compare",
            paper_anchor: "§4.1 (dataflow), extension",
            summary: "layer-pipelined vs layer-serial ESCALATE schedule, all six models",
            run: schedule::run,
        },
    ]
}

/// Looks an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
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
        assert_eq!(find("fig8").map(|e| e.name), Some("fig8"));
        assert!(find("fig99").is_none());
    }

    #[test]
    fn every_experiment_names_a_paper_anchor_and_summary() {
        for e in registry() {
            assert!(!e.paper_anchor.is_empty(), "{}", e.name);
            assert!(!e.summary.is_empty(), "{}", e.name);
        }
    }
}
