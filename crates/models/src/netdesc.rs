//! Line-oriented network-description format (`escalate-network/v1`).
//!
//! Workloads stop being compile-time constants here: a [`Model`] can be
//! serialised to a small text file and read back, so the simulators accept
//! networks the zoo never defined. The format is deliberately trivial to
//! write by hand:
//!
//! ```text
//! escalate-network/v1
//! # comments and blank lines are ignored
//! model tiny
//! layer conv conv1 c=3 k=16 x=32 y=32 r=3 s=3 stride=1 pad=1
//! layer gconv g1 c=16 k=16 x=32 y=32 r=3 s=3 stride=1 pad=1 groups=4
//! layer fc fc c=16 k=10 x=1 y=1 r=1 s=1 stride=1 pad=1
//! end
//! ```
//!
//! The first non-comment line must be the exact version string; `model`
//! names the network; each `layer` line carries a kind token (`conv`,
//! `dwconv`, `pwconv`, `fc`, `gconv`, `dconv`), a whitespace-free layer
//! name and `key=value` shape fields; the trailing `end` line guards
//! against truncated files. Reading runs [`Model::validate`], so a file
//! that parses but describes an inconsistent network is still rejected.

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::layer::{LayerKind, LayerShape};
use crate::zoo::Model;

/// The version line every description must start with.
pub const NETWORK_FORMAT_VERSION: &str = "escalate-network/v1";

/// Typed errors from parsing or writing a network description.
#[derive(Debug)]
pub enum NetworkError {
    /// The first line is not the supported version string.
    BadVersion {
        /// What the file's first line actually said.
        found: String,
    },
    /// No `model <name>` line before the first layer.
    MissingModelName,
    /// A line that could not be parsed.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A shape field that must be positive was zero.
    ZeroDim {
        /// 1-based line number in the input.
        line: usize,
        /// The offending field name.
        field: &'static str,
    },
    /// The file ended before the `end` line.
    Truncated,
    /// The description parsed but fails [`Model::validate`].
    Invalid(String),
    /// An underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::BadVersion { found } => write!(
                f,
                "unsupported network description version {found:?} (expected {NETWORK_FORMAT_VERSION:?})"
            ),
            NetworkError::MissingModelName => {
                f.write_str("missing \"model <name>\" line before the first layer")
            }
            NetworkError::BadLine { line, msg } => write!(f, "line {line}: {msg}"),
            NetworkError::ZeroDim { line, field } => {
                write!(f, "line {line}: field {field:?} must be positive")
            }
            NetworkError::Truncated => {
                f.write_str("truncated network description: missing \"end\" line")
            }
            NetworkError::Invalid(msg) => write!(f, "invalid network: {msg}"),
            NetworkError::Io(e) => write!(f, "i/o error reading network description: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<io::Error> for NetworkError {
    fn from(e: io::Error) -> Self {
        NetworkError::Io(e)
    }
}

/// Kind token used on `layer` lines; matches [`LayerKind`]'s `Display`.
fn kind_token(kind: LayerKind) -> &'static str {
    match kind {
        LayerKind::Conv => "conv",
        LayerKind::DwConv => "dwconv",
        LayerKind::PwConv => "pwconv",
        LayerKind::Fc => "fc",
        LayerKind::GroupedConv { .. } => "gconv",
        LayerKind::DilatedConv { .. } => "dconv",
    }
}

/// One parsed `key=value` field set for a layer line.
#[derive(Default)]
struct Fields {
    c: Option<usize>,
    k: Option<usize>,
    x: Option<usize>,
    y: Option<usize>,
    r: Option<usize>,
    s: Option<usize>,
    stride: Option<usize>,
    pad: Option<usize>,
    groups: Option<usize>,
    dilation: Option<usize>,
}

impl Fields {
    fn set(&mut self, line: usize, key: &str, value: usize) -> Result<(), NetworkError> {
        let slot = match key {
            "c" => &mut self.c,
            "k" => &mut self.k,
            "x" => &mut self.x,
            "y" => &mut self.y,
            "r" => &mut self.r,
            "s" => &mut self.s,
            "stride" => &mut self.stride,
            "pad" => &mut self.pad,
            "groups" => &mut self.groups,
            "dilation" => &mut self.dilation,
            other => {
                return Err(NetworkError::BadLine {
                    line,
                    msg: format!("unknown field {other:?}"),
                })
            }
        };
        if slot.is_some() {
            return Err(NetworkError::BadLine {
                line,
                msg: format!("duplicate field {key:?}"),
            });
        }
        *slot = Some(value);
        Ok(())
    }

    fn require(
        &self,
        line: usize,
        key: &'static str,
        value: Option<usize>,
        positive: bool,
    ) -> Result<usize, NetworkError> {
        let v = value.ok_or_else(|| NetworkError::BadLine {
            line,
            msg: format!("missing field {key:?}"),
        })?;
        if positive && v == 0 {
            return Err(NetworkError::ZeroDim { line, field: key });
        }
        Ok(v)
    }
}

fn parse_layer_line(line_no: usize, rest: &str) -> Result<LayerShape, NetworkError> {
    let mut tokens = rest.split_whitespace();
    let kind_tok = tokens.next().ok_or_else(|| NetworkError::BadLine {
        line: line_no,
        msg: "layer line needs a kind token".to_string(),
    })?;
    let name = tokens.next().ok_or_else(|| NetworkError::BadLine {
        line: line_no,
        msg: "layer line needs a name token".to_string(),
    })?;

    let mut fields = Fields::default();
    for tok in tokens {
        let (key, value) = tok.split_once('=').ok_or_else(|| NetworkError::BadLine {
            line: line_no,
            msg: format!("expected key=value, got {tok:?}"),
        })?;
        let value: usize = value.parse().map_err(|_| NetworkError::BadLine {
            line: line_no,
            msg: format!("field {key:?} has non-numeric value {value:?}"),
        })?;
        fields.set(line_no, key, value)?;
    }

    let kind = match kind_tok {
        "conv" => LayerKind::Conv,
        "dwconv" => LayerKind::DwConv,
        "pwconv" => LayerKind::PwConv,
        "fc" => LayerKind::Fc,
        "gconv" => LayerKind::GroupedConv {
            groups: fields.require(line_no, "groups", fields.groups, true)?,
        },
        "dconv" => LayerKind::DilatedConv {
            dilation: fields.require(line_no, "dilation", fields.dilation, true)?,
        },
        other => {
            return Err(NetworkError::BadLine {
                line: line_no,
                msg: format!("unknown layer kind {other:?}"),
            })
        }
    };
    if fields.groups.is_some() && !matches!(kind, LayerKind::GroupedConv { .. }) {
        return Err(NetworkError::BadLine {
            line: line_no,
            msg: format!("field \"groups\" is only valid on gconv layers, not {kind_tok}"),
        });
    }
    if fields.dilation.is_some() && !matches!(kind, LayerKind::DilatedConv { .. }) {
        return Err(NetworkError::BadLine {
            line: line_no,
            msg: format!("field \"dilation\" is only valid on dconv layers, not {kind_tok}"),
        });
    }

    Ok(LayerShape {
        name: name.to_string(),
        kind,
        c: fields.require(line_no, "c", fields.c, true)?,
        k: fields.require(line_no, "k", fields.k, true)?,
        x: fields.require(line_no, "x", fields.x, true)?,
        y: fields.require(line_no, "y", fields.y, true)?,
        r: fields.require(line_no, "r", fields.r, true)?,
        s: fields.require(line_no, "s", fields.s, true)?,
        stride: fields.require(line_no, "stride", fields.stride, true)?,
        pad: fields.require(line_no, "pad", fields.pad.or(Some(0)), false)?,
    })
}

impl Model {
    /// Parses an `escalate-network/v1` description and validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] naming the first problem: a wrong
    /// version line, a malformed or zero-dimension layer line, a missing
    /// `end` line, or a structurally inconsistent network.
    ///
    /// # Examples
    ///
    /// ```
    /// use escalate_models::Model;
    ///
    /// let text = "escalate-network/v1\nmodel tiny\n\
    ///             layer conv c1 c=3 k=8 x=16 y=16 r=3 s=3 stride=1 pad=1\nend\n";
    /// let m = Model::from_reader(text.as_bytes()).unwrap();
    /// assert_eq!(m.name(), "tiny");
    /// assert_eq!(m.layers().len(), 1);
    /// ```
    pub fn from_reader<R: Read>(reader: R) -> Result<Model, NetworkError> {
        let reader = BufReader::new(reader);
        let mut name: Option<String> = None;
        let mut layers: Vec<LayerShape> = vec![];
        let mut saw_version = false;
        let mut saw_end = false;

        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let line_no = i + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if !saw_version {
                if trimmed != NETWORK_FORMAT_VERSION {
                    return Err(NetworkError::BadVersion {
                        found: trimmed.to_string(),
                    });
                }
                saw_version = true;
                continue;
            }
            if trimmed == "end" {
                saw_end = true;
                break;
            }
            if let Some(rest) = trimmed.strip_prefix("model ") {
                let rest = rest.trim();
                if rest.is_empty() {
                    return Err(NetworkError::MissingModelName);
                }
                name = Some(rest.to_string());
            } else if let Some(rest) = trimmed.strip_prefix("layer ") {
                if name.is_none() {
                    return Err(NetworkError::MissingModelName);
                }
                layers.push(parse_layer_line(line_no, rest)?);
            } else {
                return Err(NetworkError::BadLine {
                    line: line_no,
                    msg: format!("expected \"model\", \"layer\" or \"end\", got {trimmed:?}"),
                });
            }
        }

        if !saw_version {
            return Err(NetworkError::BadVersion {
                found: String::new(),
            });
        }
        if !saw_end {
            return Err(NetworkError::Truncated);
        }
        let name = name.ok_or(NetworkError::MissingModelName)?;
        let model = Model::new(&name, layers);
        model.validate().map_err(NetworkError::Invalid)?;
        Ok(model)
    }

    /// Writes this model as an `escalate-network/v1` description.
    fn to_writer<W: Write>(&self, mut writer: W) -> Result<(), NetworkError> {
        writeln!(writer, "{NETWORK_FORMAT_VERSION}")?;
        writeln!(writer, "model {}", self.name().trim())?;
        for l in self.layers() {
            if l.name.split_whitespace().count() != 1 || l.name != l.name.trim() {
                return Err(NetworkError::Invalid(format!(
                    "layer name {:?} must be a single whitespace-free token",
                    l.name
                )));
            }
            write!(
                writer,
                "layer {} {} c={} k={} x={} y={} r={} s={} stride={} pad={}",
                kind_token(l.kind),
                l.name,
                l.c,
                l.k,
                l.x,
                l.y,
                l.r,
                l.s,
                l.stride,
                l.pad
            )?;
            match l.kind {
                LayerKind::GroupedConv { groups } => write!(writer, " groups={groups}")?,
                LayerKind::DilatedConv { dilation } => write!(writer, " dilation={dilation}")?,
                _ => {}
            }
            writeln!(writer)?;
        }
        writeln!(writer, "end")?;
        Ok(())
    }

    /// Serialises this model to an `escalate-network/v1` description
    /// string. The output round-trips through [`Model::from_reader`]
    /// bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Invalid`] when a layer name contains
    /// whitespace (the format stores names as single tokens).
    pub fn to_description(&self) -> Result<String, NetworkError> {
        let mut buf = Vec::new();
        self.to_writer(&mut buf)?;
        Ok(String::from_utf8(buf).expect("descriptions are ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(text: &str) -> Result<Model, NetworkError> {
        Model::from_reader(text.as_bytes())
    }

    #[test]
    fn zoo_models_round_trip() {
        for m in Model::all_evaluated() {
            let text = m.to_description().unwrap();
            let back = parse(&text).unwrap();
            assert_eq!(m, back, "{} did not round-trip", m.name());
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nescalate-network/v1\n# c\nmodel t\n\n\
                    layer conv c1 c=3 k=8 x=16 y=16 r=3 s=3 stride=1 pad=1\n# done\nend\n";
        let m = parse(text).unwrap();
        assert_eq!(m.layers().len(), 1);
    }

    #[test]
    fn bad_version_line_is_named() {
        let err = parse("escalate-network/v2\nmodel t\nend\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported network description version \"escalate-network/v2\" \
             (expected \"escalate-network/v1\")"
        );
        let empty = parse("").unwrap_err();
        assert!(empty
            .to_string()
            .contains("unsupported network description"));
    }

    #[test]
    fn zero_dims_are_rejected_with_field_name() {
        let text = "escalate-network/v1\nmodel t\n\
                    layer conv c1 c=0 k=8 x=16 y=16 r=3 s=3 stride=1 pad=1\nend\n";
        let err = parse(text).unwrap_err();
        assert_eq!(err.to_string(), "line 3: field \"c\" must be positive");
        // pad=0 is fine, stride=0 is not.
        let text = "escalate-network/v1\nmodel t\n\
                    layer conv c1 c=3 k=8 x=16 y=16 r=3 s=3 stride=0 pad=0\nend\n";
        let err = parse(text).unwrap_err();
        assert_eq!(err.to_string(), "line 3: field \"stride\" must be positive");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let text = "escalate-network/v1\nmodel t\n\
                    layer conv c1 c=3 k=8 x=16 y=16 r=3 s=3 stride=1 pad=1\n";
        let err = parse(text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "truncated network description: missing \"end\" line"
        );
    }

    #[test]
    fn malformed_layer_lines_are_rejected() {
        let base = "escalate-network/v1\nmodel t\n";
        for (line, needle) in [
            ("layer conv c1 c=3 k=8", "missing field \"x\""),
            ("layer conv c1 c=3 c=4", "duplicate field \"c\""),
            ("layer conv c1 q=3", "unknown field \"q\""),
            ("layer conv c1 c=three", "non-numeric value"),
            ("layer warp c1 c=3", "unknown layer kind \"warp\""),
            ("layer conv", "needs a name token"),
            (
                "layer gconv g c=4 k=4 x=8 y=8 r=3 s=3 stride=1 pad=1",
                "missing field \"groups\"",
            ),
            (
                "layer conv c1 c=3 k=8 x=8 y=8 r=3 s=3 stride=1 pad=1 groups=2",
                "only valid on gconv",
            ),
            ("weights blob", "expected \"model\", \"layer\" or \"end\""),
        ] {
            let err = parse(&format!("{base}{line}\nend\n")).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line:?}: got {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn layer_before_model_name_is_rejected() {
        let text = "escalate-network/v1\n\
                    layer conv c1 c=3 k=8 x=16 y=16 r=3 s=3 stride=1 pad=1\nend\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("missing \"model <name>\""));
    }

    #[test]
    fn invalid_networks_fail_validation_on_read() {
        // Parses fine, but the channel chain is broken.
        let text = "escalate-network/v1\nmodel t\n\
                    layer conv a c=3 k=16 x=16 y=16 r=3 s=3 stride=1 pad=1\n\
                    layer conv b c=32 k=16 x=16 y=16 r=3 s=3 stride=1 pad=1\nend\n";
        let err = parse(text).unwrap_err();
        assert!(matches!(err, NetworkError::Invalid(_)), "{err}");

        // Extents that overflow usize are rejected, not computed.
        for line in [
            "layer conv a c=3 k=16 x=16 y=16 r=3 s=3 stride=1 pad=9223372036854775808",
            "layer dconv a c=3 k=16 x=16 y=16 r=3 s=3 stride=1 dilation=9223372036854775808",
            "layer fc a c=3 k=16 x=1 y=1 r=1 s=1 stride=1 pad=9223372036854775808",
        ] {
            let err = parse(&format!("escalate-network/v1\nmodel t\n{line}\nend\n")).unwrap_err();
            assert!(
                matches!(&err, NetworkError::Invalid(m) if m.contains("overflows")),
                "{line:?}: {err}"
            );
        }
    }

    #[test]
    fn whitespace_layer_names_cannot_be_written() {
        let m = Model::new(
            "t",
            vec![LayerShape::conv("two words", 3, 8, 16, 16, 3, 1, 1)],
        );
        let err = m.to_description().unwrap_err();
        assert!(err.to_string().contains("whitespace-free"));
    }

    /// A layer chain whose channel counts feed each other, so the model
    /// always passes [`Model::validate`].
    fn arb_model() -> impl Strategy<Value = Model> {
        let kind = 0..5usize;
        let layer = (kind, 1..6usize, 1..5usize, 1..3usize, 1..3usize, 1..3usize);
        (0..1000usize, prop::collection::vec(layer, 1..8), 1..5usize).prop_map(
            |(name_id, specs, g)| {
                let name = format!("net{name_id}");
                let mut layers = vec![];
                let mut c = 4 * g;
                for (i, (kind, kmul, rs, stride, pad, dil)) in specs.into_iter().enumerate() {
                    // Keep spatial sizes comfortably larger than the
                    // (dilated) kernel so outputs stay non-empty.
                    let x = 32;
                    let k = 4 * g * kmul;
                    let lname = format!("l{i}");
                    let l = match kind {
                        0 => LayerShape::conv(&lname, c, k, x, x, rs, stride, pad),
                        1 => LayerShape::dwconv(&lname, c, x, x, rs, stride, pad),
                        2 => LayerShape::pwconv(&lname, c, k, x, x),
                        3 => LayerShape::grouped_conv(&lname, c, k, x, x, rs, stride, pad, g),
                        _ => LayerShape::dilated_conv(&lname, c, k, x, x, rs, stride, pad, dil),
                    };
                    c = l.k;
                    layers.push(l);
                }
                layers.push(LayerShape::fc("fc", c, 10));
                Model::new(&name, layers)
            },
        )
    }

    proptest! {
        #[test]
        fn described_models_round_trip(m in arb_model()) {
            prop_assert!(m.validate().is_ok());
            let text = m.to_description().unwrap();
            let back = parse(&text).unwrap();
            prop_assert_eq!(m, back);
        }
    }
}
