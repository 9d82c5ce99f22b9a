//! Exact layer tables for the six networks evaluated in the paper.
//!
//! CIFAR-10 models take 3×32×32 inputs; ImageNet models take 3×224×224.
//! The CIFAR variants follow the standard adaptations (3×3 stem without
//! the initial downsampling, stage spatial sizes 32/16/8/4). Only layer
//! *shapes* matter to the simulators; see `DESIGN.md` for the substitution
//! rationale.

use crate::layer::{LayerKind, LayerShape};

/// A CNN model: an ordered list of layers.
///
/// # Examples
///
/// ```
/// use escalate_models::Model;
///
/// let m = Model::resnet18_cifar();
/// assert_eq!(m.name(), "ResNet18");
/// assert!(m.conv_layers().count() > 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    name: String,
    layers: Vec<LayerShape>,
}

impl Model {
    /// Creates a model from a name and layer list.
    pub fn new(name: &str, layers: Vec<LayerShape>) -> Self {
        Model {
            name: name.to_string(),
            layers,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers, in execution order.
    pub fn layers(&self) -> &[LayerShape] {
        &self.layers
    }

    /// Only the convolutional layers (regular, depthwise, pointwise,
    /// grouped, dilated) — everything except the FC head. Grouped convs
    /// flow through here too: the compression planner routes them to the
    /// dense fallback, and the decomposed datapath rejects them with a
    /// typed `SimError::UnsupportedLayer`.
    pub fn conv_layers(&self) -> impl Iterator<Item = &LayerShape> {
        self.layers.iter().filter(|l| l.kind != LayerKind::Fc)
    }

    /// Total conv-layer weight parameters.
    fn conv_params(&self) -> usize {
        self.conv_layers().map(|l| l.weight_params()).sum()
    }

    /// Conv-layer model size in MiB at 32-bit floating point, the paper's
    /// baseline representation.
    pub fn conv_size_mb_fp32(&self) -> f64 {
        self.conv_params() as f64 * 4.0 / (1024.0 * 1024.0)
    }

    /// Total conv-layer MACs for one inference.
    pub fn conv_macs(&self) -> usize {
        self.conv_layers().map(|l| l.macs()).sum()
    }

    /// VGG16 adapted to CIFAR-10 (13 conv layers, 32×32 input).
    pub fn vgg16_cifar() -> Model {
        let cfg: &[(usize, usize, usize)] = &[
            // (c, k, spatial)
            (3, 64, 32),
            (64, 64, 32),
            (64, 128, 16),
            (128, 128, 16),
            (128, 256, 8),
            (256, 256, 8),
            (256, 256, 8),
            (256, 512, 4),
            (512, 512, 4),
            (512, 512, 4),
            (512, 512, 2),
            (512, 512, 2),
            (512, 512, 2),
        ];
        let mut layers: Vec<LayerShape> = cfg
            .iter()
            .enumerate()
            .map(|(i, &(c, k, sp))| {
                LayerShape::conv(&format!("conv{}", i + 1), c, k, sp, sp, 3, 1, 1)
            })
            .collect();
        layers.push(LayerShape::fc("fc", 512, 10));
        Model::new("VGG16", layers)
    }

    /// ResNet18 adapted to CIFAR-10 (BasicBlock ×`[2,2,2,2]`, 3×3 stem).
    pub fn resnet18_cifar() -> Model {
        let mut layers = vec![LayerShape::conv("conv1", 3, 64, 32, 32, 3, 1, 1)];
        basic_stage(&mut layers, "layer1", 64, 64, 32, 2, 1);
        basic_stage(&mut layers, "layer2", 64, 128, 32, 2, 2);
        basic_stage(&mut layers, "layer3", 128, 256, 16, 2, 2);
        basic_stage(&mut layers, "layer4", 256, 512, 8, 2, 2);
        layers.push(LayerShape::fc("fc", 512, 10));
        Model::new("ResNet18", layers)
    }

    /// ResNet152 adapted to CIFAR-10 (Bottleneck ×`[3,8,36,3]`, 3×3 stem).
    pub fn resnet152_cifar() -> Model {
        let mut layers = vec![LayerShape::conv("conv1", 3, 64, 32, 32, 3, 1, 1)];
        bottleneck_stage(&mut layers, "layer1", 64, 64, 32, 3, 1);
        bottleneck_stage(&mut layers, "layer2", 256, 128, 32, 8, 2);
        bottleneck_stage(&mut layers, "layer3", 512, 256, 16, 36, 2);
        bottleneck_stage(&mut layers, "layer4", 1024, 512, 8, 3, 2);
        layers.push(LayerShape::fc("fc", 2048, 10));
        Model::new("ResNet152", layers)
    }

    /// MobileNetV2 adapted to CIFAR-10 (stride-1 stem and first two stages).
    pub fn mobilenet_v2_cifar() -> Model {
        let mut layers = vec![LayerShape::conv("conv1", 3, 32, 32, 32, 3, 1, 1)];
        // (expansion t, out channels, repeats, stride) — strides adapted
        // for 32×32 inputs.
        let cfg: &[(usize, usize, usize, usize)] = &[
            (1, 16, 1, 1),
            (6, 24, 2, 1),
            (6, 32, 3, 2),
            (6, 64, 4, 2),
            (6, 96, 3, 1),
            (6, 160, 3, 2),
            (6, 320, 1, 1),
        ];
        let mut c = 32;
        let mut sp = 32;
        for (stage, &(t, out, n, s)) in cfg.iter().enumerate() {
            for rep in 0..n {
                let stride = if rep == 0 { s } else { 1 };
                inverted_residual(
                    &mut layers,
                    &format!("ir{}_{}", stage + 1, rep + 1),
                    c,
                    out,
                    sp,
                    t,
                    stride,
                );
                if stride == 2 {
                    sp /= 2;
                }
                c = out;
            }
        }
        layers.push(LayerShape::pwconv("conv_last", 320, 1280, sp, sp));
        layers.push(LayerShape::fc("fc", 1280, 10));
        Model::new("MobileNetV2", layers)
    }

    /// ResNet50 for ImageNet (Bottleneck ×`[3,4,6,3]`, 7×7 stem, 224×224).
    pub fn resnet50_imagenet() -> Model {
        let mut layers = vec![LayerShape::conv("conv1", 3, 64, 224, 224, 7, 2, 3)];
        // Max-pool takes 112×112 → 56×56 before layer1.
        bottleneck_stage(&mut layers, "layer1", 64, 64, 56, 3, 1);
        bottleneck_stage(&mut layers, "layer2", 256, 128, 56, 4, 2);
        bottleneck_stage(&mut layers, "layer3", 512, 256, 28, 6, 2);
        bottleneck_stage(&mut layers, "layer4", 1024, 512, 14, 3, 2);
        layers.push(LayerShape::fc("fc", 2048, 1000));
        Model::new("ResNet50", layers)
    }

    /// MobileNet (v1) for ImageNet (13 depthwise-separable blocks).
    pub fn mobilenet_imagenet() -> Model {
        let mut layers = vec![LayerShape::conv("conv1", 3, 32, 224, 224, 3, 2, 1)];
        // (in, out, spatial at block input, stride of the depthwise conv)
        let cfg: &[(usize, usize, usize, usize)] = &[
            (32, 64, 112, 1),
            (64, 128, 112, 2),
            (128, 128, 56, 1),
            (128, 256, 56, 2),
            (256, 256, 28, 1),
            (256, 512, 28, 2),
            (512, 512, 14, 1),
            (512, 512, 14, 1),
            (512, 512, 14, 1),
            (512, 512, 14, 1),
            (512, 512, 14, 1),
            (512, 1024, 14, 2),
            (1024, 1024, 7, 1),
        ];
        for (i, &(cin, cout, sp, s)) in cfg.iter().enumerate() {
            let n = i + 1;
            layers.push(LayerShape::dwconv(&format!("dw{n}"), cin, sp, sp, 3, s, 1));
            let out_sp = sp / s;
            layers.push(LayerShape::pwconv(
                &format!("pw{n}"),
                cin,
                cout,
                out_sp,
                out_sp,
            ));
        }
        layers.push(LayerShape::fc("fc", 1024, 1000));
        Model::new("MobileNet", layers)
    }

    /// Checks the structural consistency of a (possibly user-built) layer
    /// list: no layer's dilated kernel extent `dilation·(R−1)+1` or padded
    /// input extent `X+2·pad` may overflow `usize`, every layer must
    /// produce non-empty output, depthwise layers must have `K == C`, and
    /// — ignoring shortcut/downsample layers, whose names contain
    /// `"downsample"` — each conv layer's input channel count must match a
    /// producer earlier in the list (the previous conv layer's `K`, or any
    /// earlier layer's `K` for residual joins).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        for l in &self.layers {
            // Checked before anything calls `out_x`/`out_y`, which compute
            // these extents unchecked.
            let fits = |input: usize, taps: usize| {
                let kernel = l.dilation().checked_mul(taps.saturating_sub(1));
                let padded = l.pad.checked_mul(2).and_then(|p| p.checked_add(input));
                kernel.and_then(|k| k.checked_add(1)).is_some() && padded.is_some()
            };
            if !fits(l.x, l.r) || !fits(l.y, l.s) {
                return Err(format!(
                    "{}: dilated kernel or padded input extent overflows",
                    l.name
                ));
            }
        }
        let mut produced: Vec<usize> = vec![];
        let mut prev_out: Option<usize> = None;
        for l in self.conv_layers() {
            if l.out_x() == 0 || l.out_y() == 0 {
                return Err(format!(
                    "{}: kernel {}x{} cannot cover input {}x{}",
                    l.name, l.r, l.s, l.x, l.y
                ));
            }
            if l.kind == LayerKind::DwConv && l.k != l.c {
                return Err(format!(
                    "{}: depthwise layers need K == C ({} vs {})",
                    l.name, l.k, l.c
                ));
            }
            if let LayerKind::GroupedConv { groups } = l.kind {
                if groups == 0 {
                    return Err(format!("{}: groups must be positive", l.name));
                }
                if l.c % groups != 0 || l.k % groups != 0 {
                    return Err(format!(
                        "{}: groups={} must divide C={} and K={}",
                        l.name, groups, l.c, l.k
                    ));
                }
            }
            if let LayerKind::DilatedConv { dilation } = l.kind {
                if dilation == 0 {
                    return Err(format!("{}: dilation must be positive", l.name));
                }
            }
            let is_shortcut = l.name.contains("downsample");
            if !is_shortcut {
                let feeds = prev_out == Some(l.c) || produced.contains(&l.c) || produced.is_empty();
                if !feeds {
                    return Err(format!(
                        "{}: no earlier layer produces its {} input channels",
                        l.name, l.c
                    ));
                }
                prev_out = Some(l.k);
            }
            produced.push(l.k);
        }
        Ok(())
    }

    /// All six models evaluated in the paper, CIFAR-10 first.
    pub fn all_evaluated() -> Vec<Model> {
        vec![
            Model::vgg16_cifar(),
            Model::resnet18_cifar(),
            Model::resnet152_cifar(),
            Model::mobilenet_v2_cifar(),
            Model::resnet50_imagenet(),
            Model::mobilenet_imagenet(),
        ]
    }
}

/// Appends a stage of ResNet BasicBlocks (two 3×3 convs per block).
fn basic_stage(
    layers: &mut Vec<LayerShape>,
    name: &str,
    cin: usize,
    cout: usize,
    sp: usize,
    blocks: usize,
    stride: usize,
) {
    let mut c = cin;
    let mut s = stride;
    let mut x = sp;
    for b in 0..blocks {
        let out_x = x / s;
        layers.push(LayerShape::conv(
            &format!("{name}.{b}.conv1"),
            c,
            cout,
            x,
            x,
            3,
            s,
            1,
        ));
        layers.push(LayerShape::conv(
            &format!("{name}.{b}.conv2"),
            cout,
            cout,
            out_x,
            out_x,
            3,
            1,
            1,
        ));
        if s != 1 || c != cout {
            // Downsample shortcut: 1×1 strided conv.
            layers.push(LayerShape {
                name: format!("{name}.{b}.downsample"),
                kind: LayerKind::Conv,
                c,
                k: cout,
                x,
                y: x,
                r: 1,
                s: 1,
                stride: s,
                pad: 0,
            });
        }
        c = cout;
        x = out_x;
        s = 1;
    }
}

/// Appends a stage of ResNet Bottleneck blocks (1×1 → 3×3 → 1×1, ×4
/// expansion).
pub(crate) fn bottleneck_stage(
    layers: &mut Vec<LayerShape>,
    name: &str,
    cin: usize,
    width: usize,
    sp: usize,
    blocks: usize,
    stride: usize,
) {
    let expansion = 4;
    let cout = width * expansion;
    let mut c = cin;
    let mut s = stride;
    let mut x = sp;
    for b in 0..blocks {
        let out_x = x / s;
        layers.push(LayerShape::pwconv(
            &format!("{name}.{b}.conv1"),
            c,
            width,
            x,
            x,
        ));
        layers.push(LayerShape::conv(
            &format!("{name}.{b}.conv2"),
            width,
            width,
            x,
            x,
            3,
            s,
            1,
        ));
        layers.push(LayerShape::pwconv(
            &format!("{name}.{b}.conv3"),
            width,
            cout,
            out_x,
            out_x,
        ));
        if s != 1 || c != cout {
            layers.push(LayerShape {
                name: format!("{name}.{b}.downsample"),
                kind: LayerKind::Conv,
                c,
                k: cout,
                x,
                y: x,
                r: 1,
                s: 1,
                stride: s,
                pad: 0,
            });
        }
        c = cout;
        x = out_x;
        s = 1;
    }
}

/// Appends one MobileNetV2 inverted-residual block: 1×1 expand → 3×3
/// depthwise → 1×1 project. The expansion conv is skipped when `t == 1`.
fn inverted_residual(
    layers: &mut Vec<LayerShape>,
    name: &str,
    cin: usize,
    cout: usize,
    sp: usize,
    t: usize,
    stride: usize,
) {
    let hidden = cin * t;
    if t != 1 {
        layers.push(LayerShape::pwconv(
            &format!("{name}.expand"),
            cin,
            hidden,
            sp,
            sp,
        ));
    }
    layers.push(LayerShape::dwconv(
        &format!("{name}.dw"),
        hidden,
        sp,
        sp,
        3,
        stride,
        1,
    ));
    let out_sp = sp / stride;
    layers.push(LayerShape::pwconv(
        &format!("{name}.project"),
        hidden,
        cout,
        out_sp,
        out_sp,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_conv_size_matches_paper() {
        // Table 1: VGG16 CONV = 56.12 MB.
        let m = Model::vgg16_cifar();
        assert_eq!(m.conv_layers().count(), 13);
        assert!(
            (m.conv_size_mb_fp32() - 56.12).abs() < 0.1,
            "got {}",
            m.conv_size_mb_fp32()
        );
    }

    #[test]
    fn resnet18_conv_size_matches_paper() {
        // Table 1: ResNet18 CONV = 42.58 MB.
        let m = Model::resnet18_cifar();
        assert!(
            (m.conv_size_mb_fp32() - 42.58).abs() < 0.1,
            "got {}",
            m.conv_size_mb_fp32()
        );
    }

    #[test]
    fn resnet152_conv_size_close_to_paper() {
        // Table 1: ResNet152 CONV = 221.19 MB.
        let m = Model::resnet152_cifar();
        assert!(
            (m.conv_size_mb_fp32() - 221.19).abs() / 221.19 < 0.05,
            "got {}",
            m.conv_size_mb_fp32()
        );
    }

    #[test]
    fn mobilenet_v2_conv_size_close_to_paper() {
        // Table 1: MobileNetV2 CONV = 8.40 MB.
        let m = Model::mobilenet_v2_cifar();
        assert!(
            (m.conv_size_mb_fp32() - 8.40).abs() / 8.40 < 0.06,
            "got {}",
            m.conv_size_mb_fp32()
        );
    }

    #[test]
    fn resnet50_has_expected_structure() {
        let m = Model::resnet50_imagenet();
        // 1 stem + (3+4+6+3) blocks × 3 convs + 4 downsamples + fc.
        assert_eq!(m.layers().len(), 1 + 16 * 3 + 4 + 1);
        // Standard ResNet50 conv params ≈ 23.45 M.
        let p = m.conv_params() as f64 / 1e6;
        assert!((p - 23.45).abs() < 0.3, "got {p}M params");
    }

    #[test]
    fn mobilenet_alternates_dw_pw() {
        let m = Model::mobilenet_imagenet();
        assert_eq!(m.conv_layers().count(), 1 + 26);
        let dw = m
            .conv_layers()
            .filter(|l| l.kind == LayerKind::DwConv)
            .count();
        assert_eq!(dw, 13);
        // Standard MobileNet conv params ≈ 3.2 M.
        let p = m.conv_params() as f64 / 1e6;
        assert!((p - 3.2).abs() < 0.2, "got {p}M params");
    }

    #[test]
    fn spatial_dimensions_chain_consistently() {
        // Each layer's input size must equal the previous layer's output
        // size (ignoring shortcut/downsample layers and pooling drops).
        for m in Model::all_evaluated() {
            for l in m.conv_layers() {
                assert!(l.out_x() > 0, "{}: {l} produces empty output", m.name());
                assert!(l.c > 0 && l.k > 0);
            }
        }
    }

    #[test]
    fn mobilenet_v2_final_spatial_is_four() {
        let m = Model::mobilenet_v2_cifar();
        let last = m.conv_layers().last().unwrap();
        assert_eq!(
            last.x, 4,
            "CIFAR MobileNetV2 should end at 4x4, got {}",
            last.x
        );
    }

    #[test]
    fn first_layers_are_not_decomposable_stand_ins() {
        // The stem is still a Conv layer; the pipeline decides not to
        // compress it, but the shape itself is decomposable by kind.
        let m = Model::vgg16_cifar();
        assert!(m.layers()[0].is_decomposable());
    }

    #[test]
    fn all_zoo_models_validate() {
        for m in Model::all_evaluated() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        }
    }

    #[test]
    fn validate_rejects_broken_graphs() {
        // Channel mismatch: second layer expects 32 inputs, first makes 16.
        let bad = Model::new(
            "bad",
            vec![
                LayerShape::conv("a", 3, 16, 8, 8, 3, 1, 1),
                LayerShape::conv("b", 32, 16, 8, 8, 3, 1, 1),
            ],
        );
        let e = bad.validate().unwrap_err();
        assert!(e.contains("b"), "{e}");

        // Depthwise with K != C is impossible by construction via the
        // helper, but a hand-built shape can do it.
        let dw = Model::new(
            "dw",
            vec![LayerShape {
                name: "dw".into(),
                kind: LayerKind::DwConv,
                c: 8,
                k: 16,
                x: 8,
                y: 8,
                r: 3,
                s: 3,
                stride: 1,
                pad: 1,
            }],
        );
        assert!(dw.validate().unwrap_err().contains("depthwise"));

        // Kernel larger than the padded input.
        let tiny = Model::new("tiny", vec![LayerShape::conv("t", 3, 4, 2, 2, 7, 1, 0)]);
        assert!(tiny.validate().unwrap_err().contains("cannot cover"));
    }

    #[test]
    fn macs_are_positive_and_consistent() {
        for m in Model::all_evaluated() {
            assert!(m.conv_macs() > 0);
            let sum: usize = m.conv_layers().map(|l| l.macs()).sum();
            assert_eq!(sum, m.conv_macs());
        }
    }
}
