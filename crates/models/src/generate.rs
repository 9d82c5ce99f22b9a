//! Parametric network generators for shapes the paper's zoo lacks.
//!
//! A generator spec is a name plus optional `key=value` parameters,
//! separated by commas: `grouped:blocks=4,groups=8`. The CLI and serve
//! daemon accept these prefixed with `gen:` (see [`crate::resolve`]).
//!
//! Four families are provided:
//!
//! - `grouped` — a conv stem followed by grouped 3×3 convolutions
//!   (ResNeXt-style cardinality), which exercise the dense fallback path
//!   since decomposition does not apply to grouped layers;
//! - `dilated` — a conv stem followed by dilated 3×3 convolutions with
//!   padding matched to the dilation so feature maps keep their size
//!   (DeepLab-style context aggregation);
//! - `bottleneck` — one stage of ResNet bottleneck blocks at a chosen
//!   width, reusing the exact stage builder the zoo uses;
//! - `vit` — a ViT-style block expressed as matmuls: a patchify stem and
//!   per block the QKV projection, the two attention matmuls `Q·Kᵀ`
//!   (tokens × tokens × dim) and `A·V` as pointwise layers over the token
//!   grid, the output projection, and a 4× MLP.

use crate::layer::LayerShape;
use crate::zoo::{bottleneck_stage, Model};

/// Names of the available generators, for error messages and docs.
pub const GENERATOR_NAMES: &[&str] = &["grouped", "dilated", "bottleneck", "vit"];

/// Parsed `key=value` parameters with typo detection against an allowlist.
struct Params {
    pairs: Vec<(String, usize)>,
}

impl Params {
    fn parse(spec: &str, allowed: &[&str]) -> Result<Params, String> {
        let mut pairs = vec![];
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            if !allowed.contains(&key) {
                return Err(format!(
                    "unknown parameter {key:?} (expected one of: {})",
                    allowed.join(", ")
                ));
            }
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate parameter {key:?}"));
            }
            let value: usize = value
                .parse()
                .map_err(|_| format!("parameter {key:?} has non-numeric value {value:?}"))?;
            if value == 0 {
                return Err(format!("parameter {key:?} must be positive"));
            }
            pairs.push((key.to_string(), value));
        }
        Ok(Params { pairs })
    }

    fn get(&self, key: &str, default: usize) -> usize {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(default)
    }
}

/// Generates a model from a spec like `grouped:blocks=4,groups=8` (the
/// part after the CLI's `gen:` prefix).
///
/// # Errors
///
/// Returns a human-readable message for unknown generator names, unknown
/// or malformed parameters, and parameter combinations that produce an
/// inconsistent network.
pub fn generate(spec: &str) -> Result<Model, String> {
    let (name, params) = match spec.split_once(':') {
        Some((n, p)) => (n.trim(), p),
        None => (spec.trim(), ""),
    };
    let model = match name {
        "grouped" => grouped(Params::parse(params, &["blocks", "groups", "c", "x"])?)?,
        "dilated" => dilated(Params::parse(params, &["blocks", "dilation", "c", "x"])?)?,
        "bottleneck" => bottleneck(Params::parse(params, &["blocks", "width", "x"])?)?,
        "vit" => vit(Params::parse(params, &["blocks", "dim", "patch", "x"])?)?,
        other => {
            return Err(format!(
                "unknown generator {other:?} (available: {})",
                GENERATOR_NAMES.join(", ")
            ))
        }
    };
    model
        .validate()
        .map_err(|e| format!("generated network is inconsistent: {e}"))?;
    Ok(model)
}

/// Conv stem + `blocks` grouped 3×3 convolutions at constant width.
fn grouped(p: Params) -> Result<Model, String> {
    let blocks = p.get("blocks", 3);
    let groups = p.get("groups", 4);
    let c = p.get("c", 64);
    let x = p.get("x", 32);
    if !c.is_multiple_of(groups) {
        return Err(format!("groups={groups} must divide c={c}"));
    }
    let mut layers = vec![LayerShape::conv("stem", 3, c, x, x, 3, 1, 1)];
    for b in 0..blocks {
        layers.push(LayerShape::grouped_conv(
            &format!("g{}", b + 1),
            c,
            c,
            x,
            x,
            3,
            1,
            1,
            groups,
        ));
    }
    Ok(Model::new(&format!("grouped-g{groups}x{blocks}"), layers))
}

/// Conv stem + `blocks` dilated 3×3 convolutions, padding matched to the
/// dilation so the map size is preserved.
fn dilated(p: Params) -> Result<Model, String> {
    let blocks = p.get("blocks", 3);
    let dilation = p.get("dilation", 2);
    let c = p.get("c", 64);
    let x = p.get("x", 32);
    let mut layers = vec![LayerShape::conv("stem", 3, c, x, x, 3, 1, 1)];
    for b in 0..blocks {
        layers.push(LayerShape::dilated_conv(
            &format!("d{}", b + 1),
            c,
            c,
            x,
            x,
            3,
            1,
            dilation,
            dilation,
        ));
    }
    Ok(Model::new(&format!("dilated-d{dilation}x{blocks}"), layers))
}

/// Conv stem + one stage of ResNet bottleneck blocks at `width`.
fn bottleneck(p: Params) -> Result<Model, String> {
    let blocks = p.get("blocks", 3);
    let width = p.get("width", 64);
    let x = p.get("x", 32);
    let mut layers = vec![LayerShape::conv("stem", 3, 64, x, x, 3, 1, 1)];
    bottleneck_stage(&mut layers, "stage1", 64, width, x, blocks, 1);
    Ok(Model::new(&format!("bottleneck-w{width}x{blocks}"), layers))
}

/// Patchify stem + `blocks` ViT encoder blocks as matmuls over the token
/// grid (`(x/patch)²` tokens of dimension `dim`).
fn vit(p: Params) -> Result<Model, String> {
    let blocks = p.get("blocks", 2);
    let dim = p.get("dim", 64);
    let patch = p.get("patch", 4);
    let x = p.get("x", 32);
    if !x.is_multiple_of(patch) {
        return Err(format!("patch={patch} must divide x={x}"));
    }
    let gs = x / patch;
    let tokens = gs
        .checked_mul(gs)
        .ok_or_else(|| format!("x={x}, patch={patch} gives too many tokens"))?;
    let too_wide = || format!("dim={dim} is too large");
    let qkv = dim.checked_mul(3).ok_or_else(too_wide)?;
    let mlp = dim.checked_mul(4).ok_or_else(too_wide)?;
    let mut layers = vec![LayerShape::conv("patchify", 3, dim, x, x, patch, patch, 0)];
    for b in 1..=blocks {
        layers.push(LayerShape::pwconv(&format!("blk{b}.qkv"), dim, qkv, gs, gs));
        // Q·Kᵀ: tokens×tokens scores from dim-wide reductions, then A·V.
        layers.push(LayerShape::pwconv(
            &format!("blk{b}.attn_qk"),
            dim,
            tokens,
            gs,
            gs,
        ));
        layers.push(LayerShape::pwconv(
            &format!("blk{b}.attn_av"),
            tokens,
            dim,
            gs,
            gs,
        ));
        layers.push(LayerShape::pwconv(
            &format!("blk{b}.proj"),
            dim,
            dim,
            gs,
            gs,
        ));
        layers.push(LayerShape::pwconv(
            &format!("blk{b}.mlp1"),
            dim,
            mlp,
            gs,
            gs,
        ));
        layers.push(LayerShape::pwconv(
            &format!("blk{b}.mlp2"),
            mlp,
            dim,
            gs,
            gs,
        ));
    }
    Ok(Model::new(&format!("vit-d{dim}x{blocks}"), layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn all_generators_validate_with_defaults() {
        for name in GENERATOR_NAMES {
            let m = generate(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            m.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(m.conv_macs() > 0, "{name} has no work");
        }
    }

    #[test]
    fn grouped_generator_honours_parameters() {
        let m = generate("grouped:blocks=5,groups=8,c=128,x=16").unwrap();
        assert_eq!(m.name(), "grouped-g8x5");
        let grouped: Vec<_> = m
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::GroupedConv { .. }))
            .collect();
        assert_eq!(grouped.len(), 5);
        assert_eq!(grouped[0].groups(), 8);
        assert_eq!(grouped[0].c, 128);
    }

    #[test]
    fn dilated_generator_preserves_map_size() {
        let m = generate("dilated:dilation=3").unwrap();
        for l in m.layers() {
            assert_eq!(l.out_x(), 32, "{}: map size changed", l.name);
        }
    }

    #[test]
    fn vit_attention_macs_match_closed_form() {
        let m = generate("vit:blocks=1,dim=64,patch=4,x=32").unwrap();
        let tokens = 64; // (32/4)²
        let qk = m
            .layers()
            .iter()
            .find(|l| l.name.ends_with("attn_qk"))
            .unwrap();
        assert_eq!(qk.macs(), tokens * tokens * 64);
        let av = m
            .layers()
            .iter()
            .find(|l| l.name.ends_with("attn_av"))
            .unwrap();
        assert_eq!(av.macs(), tokens * tokens * 64);
    }

    #[test]
    fn bad_specs_name_the_problem() {
        for (spec, needle) in [
            ("warp", "unknown generator"),
            ("grouped:blocks", "expected key=value"),
            ("grouped:beans=3", "unknown parameter"),
            ("grouped:blocks=0", "must be positive"),
            ("grouped:blocks=2,blocks=3", "duplicate parameter"),
            ("grouped:groups=7,c=64", "must divide"),
            ("vit:patch=5,x=32", "must divide"),
            ("grouped:blocks=x", "non-numeric"),
            ("dilated:dilation=9223372036854775808", "overflows"),
            ("vit:dim=6148914691236517206", "too large"),
            ("vit:dim=4611686018427387904", "too large"),
            ("vit:x=4294967296,patch=1", "too many tokens"),
        ] {
            let e = generate(spec).unwrap_err();
            assert!(e.contains(needle), "{spec:?}: got {e:?}, wanted {needle:?}");
        }
    }
}
