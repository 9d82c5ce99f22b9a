//! Serialization of compressed-model artifacts.
//!
//! A small, versioned binary format (no external dependencies) so a
//! compressed model can be produced once and re-loaded by the simulator,
//! the CLI, or downstream tools. The format stores exactly what the
//! accelerator consumes: per layer, the quantized basis kernels, the
//! ternary coefficient tensor with its per-filter scales, and the storage
//! accounting.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"ESCA"            4 bytes
//! version u32                currently 1
//! layers  u32
//! per layer:
//!   name            u32 len + UTF-8 bytes
//!   flags           u8  (bit 0: has quantized payload)
//!   stats           original_bits u64, compressed_bits u64,
//!                   original_params u64, remaining_params u64,
//!                   coeff_total u64, coeff_nnz u64, weight_error f32,
//!                   decomposed u8
//!   payload (when flagged):
//!     basis shape   3 × u32, basis scale f32, basis values i8 × (M·R·S)
//!     coeff shape   3 × u32 (K, C, M)
//!     w_pos         f32 × K
//!     quotient      u8 × K
//!     ternary       i8 × (K·C·M)
//! ```

use crate::pipeline::LayerCompression;
use crate::quant::{HybridQuantized, QuantizedBasis, TernaryCoeffs};
use escalate_tensor::Tensor;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"ESCA";
const VERSION: u32 = 1;

/// Errors raised by artifact (de)serialization.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not an artifact file or is corrupted.
    Format(String),
    /// The artifact was written by an incompatible version.
    Version(u32),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o failure: {e}"),
            ArtifactError::Format(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::Version(v) => write!(f, "unsupported artifact version {v}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// A serializable compressed layer: the accounting plus the optional
/// quantized payload (absent for the dense fallback layer).
#[derive(Debug, Clone)]
pub struct LayerArtifact {
    /// Storage/accuracy accounting.
    pub stats: LayerCompression,
    /// The quantized decomposed weights, when the layer was compressed.
    pub quantized: Option<HybridQuantized>,
}

/// Writes a list of layer artifacts to `w`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_artifacts<W: Write>(mut w: W, layers: &[LayerArtifact]) -> Result<(), ArtifactError> {
    w.write_all(MAGIC)?;
    put_u32(&mut w, VERSION)?;
    put_u32(&mut w, layers.len() as u32)?;
    for l in layers {
        put_str(&mut w, &l.stats.name)?;
        w.write_all(&[u8::from(l.quantized.is_some())])?;
        put_u64(&mut w, l.stats.original_bits as u64)?;
        put_u64(&mut w, l.stats.compressed_bits as u64)?;
        put_u64(&mut w, l.stats.original_params as u64)?;
        put_u64(&mut w, l.stats.remaining_params as u64)?;
        put_u64(&mut w, l.stats.coeff_total as u64)?;
        put_u64(&mut w, l.stats.coeff_nnz as u64)?;
        w.write_all(&l.stats.weight_error.to_le_bytes())?;
        w.write_all(&[u8::from(l.stats.decomposed)])?;
        if let Some(q) = &l.quantized {
            let [m, r, s] = q.basis.shape();
            put_u32(&mut w, m as u32)?;
            put_u32(&mut w, r as u32)?;
            put_u32(&mut w, s as u32)?;
            w.write_all(&q.basis.scale.to_le_bytes())?;
            w.write_all(&q.basis.q.iter().map(|&v| v as u8).collect::<Vec<_>>())?;
            let [k, c, cm] = q.coeffs.shape();
            put_u32(&mut w, k as u32)?;
            put_u32(&mut w, c as u32)?;
            put_u32(&mut w, cm as u32)?;
            for &v in &q.coeffs.w_pos {
                w.write_all(&v.to_le_bytes())?;
            }
            w.write_all(&q.coeffs.quotient_code)?;
            w.write_all(
                &q.coeffs
                    .ternary
                    .iter()
                    .map(|&v| v as u8)
                    .collect::<Vec<_>>(),
            )?;
        }
    }
    Ok(())
}

/// Reads a list of layer artifacts from `r`.
///
/// # Errors
///
/// Returns [`ArtifactError::Format`] for malformed input and
/// [`ArtifactError::Version`] for unknown versions.
pub fn read_artifacts<R: Read>(mut r: R) -> Result<Vec<LayerArtifact>, ArtifactError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ArtifactError::Format("bad magic".into()));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(ArtifactError::Version(version));
    }
    let n = get_u32(&mut r)? as usize;
    if n > 1_000_000 {
        return Err(ArtifactError::Format(format!(
            "implausible layer count {n}"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(&mut r)?;
        let has_payload = get_u8(&mut r)? != 0;
        let stats = LayerCompression {
            name,
            original_bits: get_u64(&mut r)? as usize,
            compressed_bits: get_u64(&mut r)? as usize,
            original_params: get_u64(&mut r)? as usize,
            remaining_params: get_u64(&mut r)? as usize,
            coeff_total: get_u64(&mut r)? as usize,
            coeff_nnz: get_u64(&mut r)? as usize,
            weight_error: get_f32(&mut r)?,
            decomposed: get_u8(&mut r)? != 0,
        };
        let quantized = if has_payload {
            let (m, rr, s) = (
                get_u32(&mut r)? as usize,
                get_u32(&mut r)? as usize,
                get_u32(&mut r)? as usize,
            );
            check_dims(&[m, rr, s])?;
            let scale = get_f32(&mut r)?;
            let mut q = vec![0u8; m * rr * s];
            r.read_exact(&mut q)?;
            let basis_vals: Vec<f32> = q.iter().map(|&b| (b as i8) as f32 * scale).collect();
            let basis = QuantizedBasis::quantize(&Tensor::from_vec(&[m, rr, s], basis_vals));
            let (k, c, cm) = (
                get_u32(&mut r)? as usize,
                get_u32(&mut r)? as usize,
                get_u32(&mut r)? as usize,
            );
            check_dims(&[k, c, cm])?;
            let mut w_pos = Vec::with_capacity(k);
            for _ in 0..k {
                w_pos.push(get_f32(&mut r)?);
            }
            let mut quotient_code = vec![0u8; k];
            r.read_exact(&mut quotient_code)?;
            let mut tern = vec![0u8; k * c * cm];
            r.read_exact(&mut tern)?;
            let ternary: Vec<i8> = tern.into_iter().map(|b| b as i8).collect();
            if ternary.iter().any(|&v| !(-1..=1).contains(&v)) {
                return Err(ArtifactError::Format(
                    "non-ternary coefficient value".into(),
                ));
            }
            Some(HybridQuantized {
                basis,
                coeffs: TernaryCoeffs {
                    ternary,
                    w_pos,
                    quotient_code,
                    shape: [k, c, cm],
                },
            })
        } else {
            None
        };
        out.push(LayerArtifact { stats, quantized });
    }
    Ok(out)
}

fn check_dims(dims: &[usize]) -> Result<(), ArtifactError> {
    let n: usize = dims.iter().product();
    if dims.contains(&0) || n > 1 << 30 {
        return Err(ArtifactError::Format(format!("implausible dims {dims:?}")));
    }
    Ok(())
}

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}
fn get_u8<R: Read>(r: &mut R) -> Result<u8, ArtifactError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}
fn get_u32<R: Read>(r: &mut R) -> Result<u32, ArtifactError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn get_u64<R: Read>(r: &mut R) -> Result<u64, ArtifactError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn get_f32<R: Read>(r: &mut R) -> Result<f32, ArtifactError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}
fn get_str<R: Read>(r: &mut R) -> Result<String, ArtifactError> {
    let len = get_u32(r)? as usize;
    if len > 1 << 16 {
        return Err(ArtifactError::Format(format!(
            "implausible name length {len}"
        )));
    }
    let mut b = vec![0u8; len];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| ArtifactError::Format("non-UTF-8 layer name".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compress_layer_artifact, CompressionConfig};
    use escalate_models::LayerShape;

    fn sample_artifacts() -> Vec<LayerArtifact> {
        let layer = LayerShape::conv("t", 8, 12, 8, 8, 3, 1, 1);
        let a = compress_layer_artifact(&layer, &CompressionConfig::default(), 0.8, 3).unwrap();
        vec![
            LayerArtifact {
                stats: a.stats.clone(),
                quantized: a.quantized.as_deref().cloned(),
            },
            LayerArtifact {
                stats: LayerCompression {
                    name: "dense".into(),
                    original_bits: 100,
                    compressed_bits: 25,
                    original_params: 3,
                    remaining_params: 3,
                    coeff_total: 0,
                    coeff_nnz: 0,
                    weight_error: 0.01,
                    decomposed: false,
                },
                quantized: None,
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let arts = sample_artifacts();
        let mut buf = Vec::new();
        write_artifacts(&mut buf, &arts).unwrap();
        let back = read_artifacts(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].stats.name, arts[0].stats.name);
        assert_eq!(back[0].stats.compressed_bits, arts[0].stats.compressed_bits);
        assert!((back[0].stats.weight_error - arts[0].stats.weight_error).abs() < 1e-9);
        let (qa, qb) = (
            arts[0].quantized.as_ref().unwrap(),
            back[0].quantized.as_ref().unwrap(),
        );
        assert_eq!(qa.coeffs.ternary, qb.coeffs.ternary);
        assert_eq!(qa.coeffs.quotient_code, qb.coeffs.quotient_code);
        assert_eq!(qa.coeffs.shape(), qb.coeffs.shape());
        for (a, b) in qa.coeffs.w_pos.iter().zip(&qb.coeffs.w_pos) {
            assert!((a - b).abs() < 1e-9);
        }
        // The basis survives the int8 roundtrip exactly (same grid).
        assert!(qa
            .basis
            .dequantize()
            .all_close(&qb.basis.dequantize(), 1e-5));
        assert!(back[1].quantized.is_none());
        assert!(!back[1].stats.decomposed);
    }

    #[test]
    fn format_is_byte_stable() {
        // Golden snapshot of a tiny artifact: any byte-level drift in the
        // format is a breaking change and must bump VERSION.
        let tern = crate::quant::TernaryCoeffs::ternarize(
            &escalate_tensor::Tensor::from_vec(&[1, 2, 1], vec![1.0, -1.0]),
            0.0,
        )
        .unwrap();
        let basis =
            crate::quant::QuantizedBasis::quantize(&escalate_tensor::Tensor::ones(&[1, 1, 1]));
        let art = LayerArtifact {
            stats: LayerCompression {
                name: "g".into(),
                original_bits: 64,
                compressed_bits: 8,
                original_params: 2,
                remaining_params: 2,
                coeff_total: 2,
                coeff_nnz: 2,
                weight_error: 0.5,
                decomposed: true,
            },
            quantized: Some(HybridQuantized {
                basis,
                coeffs: tern,
            }),
        };
        let mut buf = Vec::new();
        write_artifacts(&mut buf, &[art]).unwrap();
        let expected: Vec<u8> = vec![
            b'E', b'S', b'C', b'A', // magic
            1, 0, 0, 0, // version
            1, 0, 0, 0, // layer count
            1, 0, 0, 0, b'g', // name
            1,    // has payload
            64, 0, 0, 0, 0, 0, 0, 0, // original_bits
            8, 0, 0, 0, 0, 0, 0, 0, // compressed_bits
            2, 0, 0, 0, 0, 0, 0, 0, // original_params
            2, 0, 0, 0, 0, 0, 0, 0, // remaining_params
            2, 0, 0, 0, 0, 0, 0, 0, // coeff_total
            2, 0, 0, 0, 0, 0, 0, 0, // coeff_nnz
            0, 0, 0, 63, // weight_error 0.5f32
            1,  // decomposed
            1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, // basis shape 1x1x1
            4, 2, 1, 60,  // basis scale 1/127 f32
            127, // basis value
            1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, // coeff shape 1x2x1
            0, 0, 128, 63, // w_pos[0] = 1.0
            1,  // quotient code (w_neg/w_pos = 1.0)
            1, 255, // ternary +1, -1
        ];
        assert_eq!(buf, expected, "artifact byte layout drifted — bump VERSION");
        // And it still parses back.
        assert_eq!(read_artifacts(buf.as_slice()).unwrap().len(), 1);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let e = read_artifacts(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(e, ArtifactError::Format(_)));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_artifacts(buf.as_slice()),
            Err(ArtifactError::Version(99))
        ));
    }

    #[test]
    fn truncated_streams_fail_cleanly() {
        let arts = sample_artifacts();
        let mut buf = Vec::new();
        write_artifacts(&mut buf, &arts).unwrap();
        for cut in [3usize, 9, 20, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_artifacts(&buf[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupted_ternary_values_are_rejected() {
        let arts = sample_artifacts();
        let mut buf = Vec::new();
        write_artifacts(&mut buf, &arts).unwrap();
        // Flip the final ternary byte of layer 0's payload region to 7.
        // The payload's ternary block ends right before layer 1's record;
        // scan for a -1/0/1 byte run and corrupt inside it.
        let idx = buf.len() - 200;
        buf[idx] = 7;
        // Either a format error or (if we hit metadata) some other error —
        // never a silent success with an invalid coefficient.
        if let Ok(parsed) = read_artifacts(buf.as_slice()) {
            for l in parsed {
                if let Some(q) = l.quantized {
                    assert!(q.coeffs.ternary.iter().all(|&v| (-1..=1).contains(&v)));
                }
            }
        }
    }
}
