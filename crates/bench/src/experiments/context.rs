//! Shared run context handed to every registered experiment.

use escalate_sim::SimConfig;

/// Everything an [`super::Experiment`] needs to run: the simulator
/// configuration, the number of input seeds to average, and any
/// positional arguments forwarded after `--` (e.g. the model override
/// of `fig11`).
/// Compression always goes through the per-process
/// [`crate::compress_cached`] artifact cache, so a multi-experiment
/// report pays each `(model, config)` compression once.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Simulator configuration (experiments that sweep `m` derive their
    /// own per-point configs from this baseline).
    pub sim: SimConfig,
    /// Input seeds averaged per measurement (`ESCALATE_SEEDS` /
    /// `--seeds`); experiments that pin a different count for a specific
    /// study keep their historical value.
    pub seeds: u64,
    /// Positional arguments forwarded verbatim from the caller.
    pub args: Vec<String>,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            sim: SimConfig::default(),
            seeds: crate::input_seeds(),
            args: Vec::new(),
        }
    }
}

impl ExpContext {
    /// The first positional argument, or `default` — the convention the
    /// model-overridable experiments (`fig10_layers`, `fig11`) use.
    pub fn arg_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.args.first().map_or(default, String::as_str)
    }
}
