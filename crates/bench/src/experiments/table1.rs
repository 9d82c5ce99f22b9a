//! **Table 1**: compression results of the ESCALATE algorithm on all six
//! evaluated models, next to the paper's reported numbers.
//!
//! Accuracy cannot be measured without a training stack; the "err" column
//! reports the parameter-weighted weight-space relative error of the
//! compressed model and "proxy top-1" applies the documented monotone
//! mapping (see EXPERIMENTS.md).

use super::{ExpContext, ExpError, Record, Table};
use crate::{compress_cached, tline};
use escalate_core::pipeline::{accuracy_proxy, CompressionConfig};
use escalate_core::ModelCompression;
use escalate_models::ModelProfile;

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let cfg = CompressionConfig::default();
    tline!(
        t,
        "Table 1: ESCALATE compression results (M = {}, t from per-layer sparsity targets)",
        cfg.m
    );
    tline!(t);
    tline!(
        t,
        "{:<12} {:>9} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>11} {:>11}",
        "Model",
        "CONV(MB)",
        "comp(MB)",
        "Comp.(x)",
        "Spar.(%)",
        "Prun.(%)",
        "err",
        "proxy",
        "paperComp",
        "paperSpar"
    );
    for profile in ModelProfile::all() {
        let model = profile.model();
        let result =
            ModelCompression::from_artifacts(&profile.name, &compress_cached(&profile, &cfg)?);
        let proxy = accuracy_proxy(profile.baseline_top1, result.mean_weight_error());
        tline!(
            t,
            "{:<12} {:>9.2} {:>10.3} {:>10.2} {:>9.2} {:>9.2} {:>8.3} {:>8.2} {:>11.2} {:>11.2}",
            profile.name,
            model.conv_size_mb_fp32(),
            result.compressed_size_mb(),
            result.compression_ratio(),
            result.coeff_sparsity() * 100.0,
            result.pruning_ratio() * 100.0,
            result.mean_weight_error(),
            proxy,
            profile.paper_compression,
            profile.coeff_sparsity * 100.0,
        );
        t.push_record(Record::new([
            ("model", super::Cell::from(profile.name)),
            ("conv_mb", model.conv_size_mb_fp32().into()),
            ("compressed_mb", result.compressed_size_mb().into()),
            ("compression_x", result.compression_ratio().into()),
            ("sparsity_pct", (result.coeff_sparsity() * 100.0).into()),
            ("pruning_pct", (result.pruning_ratio() * 100.0).into()),
            ("weight_error", result.mean_weight_error().into()),
            ("proxy_top1", proxy.into()),
            ("paper_compression_x", profile.paper_compression.into()),
            (
                "paper_sparsity_pct",
                (profile.coeff_sparsity * 100.0).into(),
            ),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "paperComp/paperSpar: the paper's Table 1 'Ours' rows for comparison."
    );
    Ok(())
}
