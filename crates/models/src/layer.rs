//! Layer-shape descriptions and arithmetic.
//!
//! Uses the paper's notation (§2.1): `C` input channels, `K` output
//! channels (filters), `R×S` kernel, `X×Y` input spatial size. Batch size
//! is 1 throughout, as in the paper's inference evaluation.

/// The kind of a CNN layer, determining how it is computed and whether
/// ESCALATE compresses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Regular convolution with full cross-channel reduction.
    Conv,
    /// Depthwise convolution (one kernel per input channel, `K == C`).
    DwConv,
    /// Pointwise (1×1) convolution.
    PwConv,
    /// Fully connected layer, treated as a 1×1 convolution on a 1×1 map.
    Fc,
    /// Grouped convolution: channels split into `groups` independent
    /// convolutions (`C/groups` inputs reduce into `K/groups` outputs per
    /// group). ESCALATE's kernel decomposition shares basis kernels across
    /// the *full* channel dimension, so grouped layers are not decomposed —
    /// they run on the dense fallback path.
    GroupedConv {
        /// Number of channel groups (divides both `C` and `K`).
        groups: usize,
    },
    /// Dilated convolution: `R×S` taps spread `dilation` positions apart.
    /// Dilation changes only the output geometry — the kernel still has
    /// `R·S` taps, so kernel decomposition applies unchanged.
    DilatedConv {
        /// Spacing between kernel taps (1 = a regular convolution).
        dilation: usize,
    },
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayerKind::Conv => "conv",
            LayerKind::DwConv => "dwconv",
            LayerKind::PwConv => "pwconv",
            LayerKind::Fc => "fc",
            LayerKind::GroupedConv { .. } => "gconv",
            LayerKind::DilatedConv { .. } => "dconv",
        };
        f.write_str(s)
    }
}

/// The shape of one CNN layer.
///
/// # Examples
///
/// ```
/// use escalate_models::LayerShape;
///
/// let l = LayerShape::conv("conv1", 3, 64, 32, 32, 3, 1, 1);
/// assert_eq!(l.out_x(), 32);
/// assert_eq!(l.macs(), 64 * 3 * 3 * 3 * 32 * 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerShape {
    /// Layer name, unique within a model.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Input channels `C`.
    pub c: usize,
    /// Output channels `K`.
    pub k: usize,
    /// Input rows `X`.
    pub x: usize,
    /// Input columns `Y`.
    pub y: usize,
    /// Kernel rows `R`.
    pub r: usize,
    /// Kernel columns `S`.
    pub s: usize,
    /// Stride (same in both spatial dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl LayerShape {
    /// A regular convolution layer with square kernels and inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: &str,
        c: usize,
        k: usize,
        x: usize,
        y: usize,
        rs: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        LayerShape {
            name: name.to_string(),
            kind: LayerKind::Conv,
            c,
            k,
            x,
            y,
            r: rs,
            s: rs,
            stride,
            pad,
        }
    }

    /// A depthwise convolution layer (`K == C`).
    pub fn dwconv(
        name: &str,
        c: usize,
        x: usize,
        y: usize,
        rs: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        LayerShape {
            name: name.to_string(),
            kind: LayerKind::DwConv,
            c,
            k: c,
            x,
            y,
            r: rs,
            s: rs,
            stride,
            pad,
        }
    }

    /// A pointwise (1×1) convolution layer.
    pub fn pwconv(name: &str, c: usize, k: usize, x: usize, y: usize) -> Self {
        LayerShape {
            name: name.to_string(),
            kind: LayerKind::PwConv,
            c,
            k,
            x,
            y,
            r: 1,
            s: 1,
            stride: 1,
            pad: 0,
        }
    }

    /// A fully connected layer viewed as a 1×1 convolution on a 1×1 input.
    pub fn fc(name: &str, c: usize, k: usize) -> Self {
        LayerShape {
            name: name.to_string(),
            kind: LayerKind::Fc,
            c,
            k,
            x: 1,
            y: 1,
            r: 1,
            s: 1,
            stride: 1,
            pad: 0,
        }
    }

    /// A grouped convolution layer (`groups` must divide `C` and `K`).
    #[allow(clippy::too_many_arguments)]
    pub fn grouped_conv(
        name: &str,
        c: usize,
        k: usize,
        x: usize,
        y: usize,
        rs: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Self {
        LayerShape {
            name: name.to_string(),
            kind: LayerKind::GroupedConv { groups },
            c,
            k,
            x,
            y,
            r: rs,
            s: rs,
            stride,
            pad,
        }
    }

    /// A dilated convolution layer with square kernels and inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn dilated_conv(
        name: &str,
        c: usize,
        k: usize,
        x: usize,
        y: usize,
        rs: usize,
        stride: usize,
        pad: usize,
        dilation: usize,
    ) -> Self {
        LayerShape {
            name: name.to_string(),
            kind: LayerKind::DilatedConv { dilation },
            c,
            k,
            x,
            y,
            r: rs,
            s: rs,
            stride,
            pad,
        }
    }

    /// Channel groups (1 for every kind but [`LayerKind::GroupedConv`]).
    pub fn groups(&self) -> usize {
        match self.kind {
            LayerKind::GroupedConv { groups } => groups.max(1),
            _ => 1,
        }
    }

    /// Kernel tap spacing (1 for every kind but
    /// [`LayerKind::DilatedConv`]).
    pub fn dilation(&self) -> usize {
        match self.kind {
            LayerKind::DilatedConv { dilation } => dilation.max(1),
            _ => 1,
        }
    }

    /// Effective kernel rows after dilation: `dilation·(R−1)+1`.
    fn effective_r(&self) -> usize {
        self.dilation() * self.r.saturating_sub(1) + 1
    }

    /// Effective kernel columns after dilation: `dilation·(S−1)+1`.
    fn effective_s(&self) -> usize {
        self.dilation() * self.s.saturating_sub(1) + 1
    }

    /// Output rows `X'`.
    pub fn out_x(&self) -> usize {
        escalate_tensor::conv::conv_out_size(self.x, self.effective_r(), self.stride, self.pad)
    }

    /// Output columns `Y'`.
    pub fn out_y(&self) -> usize {
        escalate_tensor::conv::conv_out_size(self.y, self.effective_s(), self.stride, self.pad)
    }

    /// Number of weight parameters.
    pub fn weight_params(&self) -> usize {
        match self.kind {
            LayerKind::DwConv => self.c * self.r * self.s,
            LayerKind::GroupedConv { .. } => self.k * (self.c / self.groups()) * self.r * self.s,
            _ => self.k * self.c * self.r * self.s,
        }
    }

    /// Number of multiply-accumulate operations for one inference.
    pub fn macs(&self) -> usize {
        let spatial = self.out_x() * self.out_y();
        self.weight_params() * spatial
    }

    /// Number of input activations.
    pub fn input_size(&self) -> usize {
        self.c * self.x * self.y
    }

    /// Number of output activations.
    pub fn output_size(&self) -> usize {
        self.k * self.out_x() * self.out_y()
    }

    /// Whether ESCALATE compresses this layer (the first convolutional
    /// layer of each network and FC layers use the dense fallback, §3.2 and
    /// §4.1).
    pub fn is_decomposable(&self) -> bool {
        match self.kind {
            LayerKind::Fc => false,
            // Basis kernels are shared across the full channel dimension;
            // a grouped layer's per-group reduction breaks that sharing,
            // so grouped convolutions stay on the dense fallback.
            LayerKind::GroupedConv { .. } => false,
            // A 1x1 kernel has RS = 1, so decomposition cannot shrink it;
            // pointwise layers instead fold into the coefficients (Eq. 5).
            _ => self.r * self.s > 1,
        }
    }
}

impl std::fmt::Display for LayerShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] C={} K={} {}x{} k={}x{} s={} p={}",
            self.name,
            self.kind,
            self.c,
            self.k,
            self.x,
            self.y,
            self.r,
            self.s,
            self.stride,
            self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_arithmetic() {
        let l = LayerShape::conv("l", 64, 128, 56, 56, 3, 1, 1);
        assert_eq!(l.out_x(), 56);
        assert_eq!(l.weight_params(), 128 * 64 * 9);
        assert_eq!(l.macs(), 128 * 64 * 9 * 56 * 56);
        assert!(l.is_decomposable());
    }

    #[test]
    fn strided_conv_output() {
        let l = LayerShape::conv("l", 3, 64, 224, 224, 7, 2, 3);
        assert_eq!(l.out_x(), 112);
        assert_eq!(l.out_y(), 112);
    }

    #[test]
    fn depthwise_arithmetic() {
        let l = LayerShape::dwconv("dw", 32, 112, 112, 3, 1, 1);
        assert_eq!(l.k, 32);
        assert_eq!(l.weight_params(), 32 * 9);
        assert_eq!(l.macs(), 32 * 9 * 112 * 112);
    }

    #[test]
    fn pointwise_is_not_decomposable_alone() {
        let l = LayerShape::pwconv("pw", 32, 64, 112, 112);
        assert!(!l.is_decomposable());
        assert_eq!(l.weight_params(), 32 * 64);
    }

    #[test]
    fn grouped_conv_arithmetic() {
        let l = LayerShape::grouped_conv("g", 64, 128, 56, 56, 3, 1, 1, 4);
        assert_eq!(l.groups(), 4);
        assert_eq!(l.dilation(), 1);
        assert_eq!(l.out_x(), 56);
        // Each filter only reduces C/groups input channels.
        assert_eq!(l.weight_params(), 128 * (64 / 4) * 9);
        assert_eq!(l.macs(), 128 * 16 * 9 * 56 * 56);
        assert!(!l.is_decomposable());
    }

    #[test]
    fn dilated_conv_arithmetic() {
        let l = LayerShape::dilated_conv("d", 64, 64, 56, 56, 3, 1, 2, 2);
        assert_eq!(l.dilation(), 2);
        assert_eq!(l.groups(), 1);
        // Effective extent 2*(3-1)+1 = 5, so with pad 2 the map is preserved.
        assert_eq!(l.effective_r(), 5);
        assert_eq!(l.out_x(), 56);
        // Parameter count is unchanged by dilation.
        assert_eq!(l.weight_params(), 64 * 64 * 9);
        assert!(l.is_decomposable());
    }

    #[test]
    fn dilated_conv_without_extra_pad_shrinks_output() {
        let plain = LayerShape::conv("p", 8, 8, 32, 32, 3, 1, 1);
        let dilated = LayerShape::dilated_conv("d", 8, 8, 32, 32, 3, 1, 1, 2);
        assert_eq!(plain.out_x(), 32);
        assert_eq!(dilated.out_x(), 30);
    }

    #[test]
    fn fc_as_unit_conv() {
        let l = LayerShape::fc("fc", 512, 10);
        assert_eq!(l.macs(), 5120);
        assert_eq!(l.output_size(), 10);
        assert!(!l.is_decomposable());
    }
}
