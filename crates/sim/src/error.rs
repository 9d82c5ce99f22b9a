//! Typed simulation errors.
//!
//! The trace-driven and detailed fidelities validate their inputs (the
//! workload must be decomposed, the feature map must match the layer
//! shape) and report violations as [`SimError`] values instead of
//! panicking, so the CLI can surface bad inputs as ordinary error
//! messages. `SimError` converts into
//! [`escalate_core::EscalateError`] for callers that mix simulation with
//! the compression pipeline.

use escalate_core::EscalateError;

/// An invalid input to one of the simulation fidelities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The workload runs on the dense fallback path and has no
    /// coefficient masks to simulate.
    NotDecomposed {
        /// Name of the offending layer.
        layer: String,
    },
    /// The input feature map is not a rank-3 `C×X×Y` tensor.
    BadFeatureMap {
        /// Name of the offending layer.
        layer: String,
        /// The tensor shape that was supplied.
        shape: Vec<usize>,
    },
    /// The layer kind is not supported by the decomposed datapath.
    UnsupportedLayer {
        /// Name of the offending layer.
        layer: String,
        /// The layer kind that cannot be simulated here.
        kind: String,
    },
    /// The feature map's dimensions disagree with the workload's shape.
    ShapeMismatch {
        /// Name of the offending layer.
        layer: String,
        /// `(C, X, Y)` the workload expects.
        expected: [usize; 3],
        /// `(C, X, Y)` the feature map provides.
        got: [usize; 3],
    },
    /// A basis count `M` outside `1..=MAX_M`.
    InvalidBasisCount {
        /// The rejected count.
        m: usize,
    },
    /// A PE-block count `N_PE` outside `1..=MAX_N_PE`.
    InvalidPeCount {
        /// The rejected count.
        n_pe: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotDecomposed { layer } => {
                write!(f, "layer {layer} is not decomposed; only decomposed workloads have coefficient masks to simulate")
            }
            SimError::UnsupportedLayer { layer, kind } => {
                write!(
                    f,
                    "layer {layer}: {kind} layers have no decomposed datapath; grouped \
                     convolutions run on the dense fallback instead"
                )
            }
            SimError::BadFeatureMap { layer, shape } => {
                write!(
                    f,
                    "layer {layer}: feature map must be a rank-3 C*X*Y tensor, got shape {shape:?}"
                )
            }
            SimError::ShapeMismatch {
                layer,
                expected,
                got,
            } => {
                write!(
                    f,
                    "layer {layer}: feature map is {}x{}x{} but the workload expects {}x{}x{}",
                    got[0], got[1], got[2], expected[0], expected[1], expected[2]
                )
            }
            SimError::InvalidBasisCount { m } => {
                write!(
                    f,
                    "basis count m = {m} is out of range: expected 1 to {}",
                    crate::config::MAX_M
                )
            }
            SimError::InvalidPeCount { n_pe } => {
                write!(
                    f,
                    "PE-block count n_pe = {n_pe} is out of range: expected 1 to {}",
                    crate::config::MAX_N_PE
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for EscalateError {
    fn from(e: SimError) -> Self {
        EscalateError::Simulation {
            what: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_names_the_layer() {
        let errs = [
            SimError::NotDecomposed {
                layer: "conv1".into(),
            },
            SimError::BadFeatureMap {
                layer: "conv1".into(),
                shape: vec![3, 4],
            },
            SimError::ShapeMismatch {
                layer: "conv1".into(),
                expected: [64, 8, 8],
                got: [32, 8, 8],
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(s.contains("conv1"), "{s}");
        }
    }

    #[test]
    fn converts_into_core_error() {
        let e = EscalateError::from(SimError::NotDecomposed { layer: "fc".into() });
        assert!(e.to_string().contains("fc"));
    }
}
