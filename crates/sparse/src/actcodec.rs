//! The activation storage layout of Figure 4(a): feature maps sliced along
//! the row dimension at stride `l`, stored in C-order as compressed chunk
//! streams with 2-level sparse maps.
//!
//! Each PE-slice position owns the rows `{s, s+l, s+2l, …}`; its stream
//! holds, per (row, column) position in scan order, the nonzero
//! activations of all `C` channels (C-order — the order the weighted
//! accumulation consumes them, §4.2.1), packed into bus-width chunks. The
//! per-position sparse maps travel separately so the mask pipeline can run
//! ahead of the values.

use crate::sparsemap::TwoLevelSparseMap;

/// One slice-position's encoded activation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceStream {
    /// Rows this stream covers (ascending, stride `l`).
    pub rows: Vec<usize>,
    /// Nonzero values in (row, column, channel) scan order.
    pub values: Vec<f32>,
    /// Per (row, column) position: the 2-level sparse map over channels.
    pub maps: Vec<TwoLevelSparseMap>,
    /// Number of channels.
    pub c: usize,
    /// Columns per row.
    pub y: usize,
}

impl SliceStream {
    /// Total stored bits: values at `value_bits` plus the 2-level maps.
    pub fn size_bits(&self, value_bits: usize) -> usize {
        self.values.len() * value_bits
            + self
                .maps
                .iter()
                .map(|m| m.total_chunks() + m.stored_chunks() * 16)
                .sum::<usize>()
    }
}

/// Encodes a `C×X×Y` feature map into `l` slice streams.
///
/// # Panics
///
/// Panics if `data.len() != c*x*y` or `l == 0`.
pub fn encode_feature_map(
    data: &[f32],
    c: usize,
    x: usize,
    y: usize,
    l: usize,
) -> Vec<SliceStream> {
    assert_eq!(data.len(), c * x * y, "data must be C*X*Y");
    assert!(l > 0, "at least one slice");
    (0..l)
        .map(|s| {
            let rows: Vec<usize> = (s..x).step_by(l).collect();
            let mut values = Vec::new();
            let mut maps = Vec::new();
            for &xi in &rows {
                for yi in 0..y {
                    // Gather the channel vector at this position (C-order).
                    let chan: Vec<f32> = (0..c).map(|ci| data[(ci * x + xi) * y + yi]).collect();
                    values.extend(chan.iter().copied().filter(|&v| v != 0.0));
                    maps.push(TwoLevelSparseMap::encode(&chan));
                }
            }
            SliceStream {
                rows,
                values,
                maps,
                c,
                y,
            }
        })
        .collect()
}

/// Decodes slice streams back into the dense `C×X×Y` buffer.
///
/// # Panics
///
/// Panics if the streams are inconsistent with the given dimensions.
pub fn decode_feature_map(streams: &[SliceStream], c: usize, x: usize, y: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; c * x * y];
    for stream in streams {
        assert_eq!(stream.c, c, "channel count mismatch");
        assert_eq!(stream.y, y, "column count mismatch");
        let mut vi = 0usize;
        for (pi, &xi) in stream.rows.iter().enumerate() {
            assert!(xi < x, "row out of range");
            for yi in 0..y {
                let map = &stream.maps[pi * y + yi];
                let dense = map.decode();
                for (ci, &v) in dense.iter().enumerate() {
                    if v != 0.0 {
                        // Values must match the stream order exactly.
                        debug_assert_eq!(v, stream.values[vi], "value stream out of order");
                        out[(ci * x + xi) * y + yi] = stream.values[vi];
                        vi += 1;
                    }
                }
            }
        }
        assert_eq!(vi, stream.values.len(), "value stream length mismatch");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(c: usize, x: usize, y: usize) -> Vec<f32> {
        (0..c * x * y)
            .map(|i| {
                if (i * 7) % 5 < 2 {
                    (i % 13) as f32 + 1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_across_slice_counts() {
        let (c, x, y) = (10, 12, 7);
        let data = sample(c, x, y);
        for l in [1usize, 2, 5, 12] {
            let streams = encode_feature_map(&data, c, x, y, l);
            assert_eq!(streams.len(), l);
            assert_eq!(decode_feature_map(&streams, c, x, y), data, "l={l}");
        }
    }

    #[test]
    fn rows_interleave_at_stride_l() {
        let (c, x, y) = (3, 10, 4);
        let streams = encode_feature_map(&sample(c, x, y), c, x, y, 5);
        assert_eq!(streams[0].rows, vec![0, 5]);
        assert_eq!(streams[2].rows, vec![2, 7]);
        // Every row is owned by exactly one stream.
        let mut all: Vec<usize> = streams.iter().flat_map(|s| s.rows.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn values_are_in_c_order_per_position() {
        // One position, channels carry distinct values: stream preserves
        // channel order.
        let c = 5;
        let data: Vec<f32> = (0..c)
            .map(|ci| if ci % 2 == 0 { (ci + 1) as f32 } else { 0.0 })
            .collect();
        let streams = encode_feature_map(&data, c, 1, 1, 1);
        assert_eq!(streams[0].values, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn size_accounts_values_and_maps() {
        let (c, x, y) = (32, 4, 4);
        let data = sample(c, x, y);
        let streams = encode_feature_map(&data, c, x, y, 2);
        let nnz: usize = data.iter().filter(|&&v| v != 0.0).count();
        let total_bits: usize = streams.iter().map(|s| s.size_bits(8)).sum();
        assert!(total_bits >= nnz * 8, "values must be charged");
        assert!(
            total_bits < c * x * y * 8,
            "compressed must beat dense at 60% sparsity"
        );
    }

    #[test]
    fn empty_map_encodes_to_empty_streams() {
        let streams = encode_feature_map(&[0.0; 3 * 4 * 4], 3, 4, 4, 2);
        for s in &streams {
            assert!(s.values.is_empty());
        }
        assert_eq!(decode_feature_map(&streams, 3, 4, 4), vec![0.0; 48]);
    }
}
