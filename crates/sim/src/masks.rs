//! Activation mask sources: where per-position nonzero patterns come from.
//!
//! Every simulation fidelity consumes the same thing per (output channel,
//! input position) pair — a bit mask of nonzero input channels — but the
//! fidelities obtain it differently: the sampling engine draws synthetic
//! Bernoulli masks from the layer's profiled sparsity, while the
//! trace-driven and detailed modes read real masks extracted from a
//! concrete `C×X×Y` feature map. [`MaskSource`] unifies the two behind one
//! cursor so the shared position loop in [`crate::context`] is written
//! once.

use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Extracts the per-position activation nonzero masks from a `C×X×Y`
/// feature map: element `[x*Y + y]` holds one bit per channel.
///
/// # Panics
///
/// Panics if `ifm` is not rank-3. Drivers validate shapes against the
/// workload first (see [`crate::context::LayerContext::validate_ifm`]),
/// which reports a typed [`crate::error::SimError`] instead.
pub fn position_masks(ifm: &escalate_tensor::Tensor) -> Vec<Vec<u64>> {
    let [c, x, y]: [usize; 3] = ifm.shape().try_into().expect("ifm must be C*X*Y");
    let words = c.div_ceil(64);
    let mut masks = vec![vec![0u64; words]; x * y];
    let data = ifm.as_slice();
    for ci in 0..c {
        for xi in 0..x {
            for yi in 0..y {
                if data[(ci * x + xi) * y + yi] != 0.0 {
                    masks[xi * y + yi][ci / 64] |= 1u64 << (ci % 64);
                }
            }
        }
    }
    masks
}

/// Mixes an input seed with a layer name (FNV-1a), giving each layer its
/// own independent RNG stream so layers can simulate in parallel while
/// staying bit-identical to a sequential run.
pub(crate) fn layer_seed(seed: u64, name: &str) -> u64 {
    seed ^ name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// A supply of per-position activation masks for one sampled channel walk.
///
/// The core loop walks positions `0..positions()` once per sampled output
/// channel. A [`MaskSource::Bernoulli`] source draws a fresh synthetic
/// mask on every call (one continuous RNG stream across channels — the
/// engine's historical draw order); a [`MaskSource::Trace`] source returns
/// the real mask of the requested position, identical for every channel.
pub enum MaskSource<'a> {
    /// Synthetic Bernoulli draws from the profiled activation sparsity.
    Bernoulli {
        /// Per-layer RNG stream (seeded via [`layer_seed`]).
        rng: StdRng,
        /// Input channel count `C`.
        c: usize,
        /// Probability that a channel is nonzero (`1 − sparsity`).
        keep_prob: f64,
        /// Positions sampled per channel.
        positions: usize,
    },
    /// Real per-position masks extracted from a feature map.
    Trace {
        /// One mask per input position (`X·Y` entries).
        masks: &'a [Vec<u64>],
    },
    /// A pre-drawn Bernoulli stream shared across design points (the
    /// derived-state cache of [`crate::shared`]): the masks the
    /// [`MaskSource::Bernoulli`] walk would draw, materialized
    /// back-to-back in stream order and replayed through a cursor. Like
    /// the live stream, the requested position index is ignored — each
    /// call returns the next mask.
    Materialized {
        /// The mask block, `channels × positions × words` words flat.
        words: Arc<Vec<u64>>,
        /// Words per mask (`⌈C/64⌉`).
        words_per_mask: usize,
        /// Next mask index in the stream.
        cursor: usize,
        /// Positions walked per channel.
        positions: usize,
    },
}

impl<'a> MaskSource<'a> {
    /// A synthetic source drawing `positions` masks per channel from the
    /// layer's RNG stream.
    pub fn bernoulli(
        layer_seed: u64,
        c: usize,
        keep_prob: f64,
        positions: usize,
    ) -> MaskSource<'static> {
        MaskSource::Bernoulli {
            rng: StdRng::seed_from_u64(layer_seed),
            c,
            keep_prob,
            positions,
        }
    }

    /// A trace source walking every position of a real feature map.
    pub fn trace(masks: &'a [Vec<u64>]) -> MaskSource<'a> {
        MaskSource::Trace { masks }
    }

    /// A source replaying a materialized mask block from its start:
    /// `words` must hold whole masks of `⌈c/64⌉` words, at least as many
    /// as the walk will consume.
    pub fn materialized(words: Arc<Vec<u64>>, c: usize, positions: usize) -> MaskSource<'static> {
        MaskSource::Materialized {
            words,
            words_per_mask: c.div_ceil(64),
            cursor: 0,
            positions,
        }
    }

    /// Positions walked per sampled channel.
    pub fn positions(&self) -> usize {
        match self {
            MaskSource::Bernoulli { positions, .. } => *positions,
            MaskSource::Trace { masks } => masks.len(),
            MaskSource::Materialized { positions, .. } => *positions,
        }
    }

    /// Writes the activation mask for position `pos` of the current
    /// channel walk into `buf`. Bernoulli sources draw the next mask of
    /// their RNG stream and materialized sources replay it (both ignore
    /// `pos`); trace sources copy the stored mask of `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the mask's word count.
    pub fn mask_into(&mut self, pos: usize, buf: &mut [u64]) {
        match self {
            MaskSource::Bernoulli {
                rng, c, keep_prob, ..
            } => draw_act_mask_into(rng, *c, *keep_prob, buf),
            MaskSource::Trace { masks } => buf.copy_from_slice(&masks[pos]),
            MaskSource::Materialized {
                words,
                words_per_mask,
                cursor,
                ..
            } => {
                let at = *cursor * *words_per_mask;
                *cursor += 1;
                buf.copy_from_slice(&words[at..at + *words_per_mask]);
            }
        }
    }
}

/// Draws a Bernoulli activation mask into a caller-owned buffer. Consumes
/// exactly one `next_u64` per input channel — the draw `gen_bool` makes —
/// so equal `(rng state, c, keep_prob)` always produce identical masks and
/// identical successor states. Each word is assembled branch-free from
/// the [`Bernoulli`] verdicts; words past `c` are zeroed.
///
/// # Panics
///
/// Panics if `mask` holds fewer than `c` bits, or if `c > 0` and
/// `keep_prob` is NaN (with `gen_bool`'s message).
pub(crate) fn draw_act_mask_into(rng: &mut StdRng, c: usize, keep_prob: f64, mask: &mut [u64]) {
    assert!(
        mask.len() * 64 >= c,
        "mask buffer shorter than {c} channels"
    );
    mask.fill(0);
    if c == 0 {
        return;
    }
    let p = keep_prob.clamp(0.0, 1.0);
    let coin =
        Bernoulli::new(p).unwrap_or_else(|_| panic!("gen_bool probability {p} not in [0, 1]"));
    for (wi, word) in mask.iter_mut().enumerate() {
        let bits = c.saturating_sub(wi * 64).min(64);
        let mut w = 0u64;
        for b in 0..bits {
            w |= u64::from(coin.sample(rng)) << b;
        }
        *word = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_tensor::Tensor;
    use rand::Rng;

    /// Reference per-bit draw (the historical form: one `gen_bool` branch
    /// per channel, allocating) the word-at-a-time [`draw_act_mask_into`]
    /// is compared against.
    fn draw_act_mask(rng: &mut StdRng, c: usize, words: usize, keep_prob: f64) -> Vec<u64> {
        let mut mask = vec![0u64; words];
        for ci in 0..c {
            if rng.gen_bool(keep_prob.clamp(0.0, 1.0)) {
                mask[ci / 64] |= 1u64 << (ci % 64);
            }
        }
        mask
    }

    /// The panic message of `f`, if it panicked.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(match err.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        })
    }

    #[test]
    fn word_draw_matches_per_bit_draw_at_the_edges() {
        let keeps = [0.0, 1.0, 0.5, 1e-20, 1.0 - f64::EPSILON / 2.0];
        for &c in &[0usize, 1, 63, 64, 65, 1024] {
            let words = c.div_ceil(64).max(1);
            for &keep in &keeps {
                for seed in [0u64, 1, 0xdead_beef] {
                    let mut r_ref = StdRng::seed_from_u64(seed);
                    let mut r_new = StdRng::seed_from_u64(seed);
                    let mut mask = vec![u64::MAX; words]; // deliberately dirty
                    for draw in 0..3 {
                        let expect = draw_act_mask(&mut r_ref, c, words, keep);
                        draw_act_mask_into(&mut r_new, c, keep, &mut mask);
                        assert_eq!(mask, expect, "c={c} keep={keep} seed={seed} draw {draw}");
                        assert_eq!(r_new, r_ref, "successor state c={c} keep={keep}");
                    }
                }
            }
        }
        // NaN panics with gen_bool's message whenever a bit is drawn, and
        // draws nothing (no panic) for an empty channel set — as before.
        for &c in &[0usize, 1, 64, 65] {
            let words = c.div_ceil(64).max(1);
            let reference = panic_message(|| {
                draw_act_mask(&mut StdRng::seed_from_u64(5), c, words, f64::NAN);
            });
            let fast = panic_message(|| {
                draw_act_mask_into(
                    &mut StdRng::seed_from_u64(5),
                    c,
                    f64::NAN,
                    &mut vec![0; words],
                );
            });
            assert_eq!(fast, reference, "c={c}");
            assert_eq!(reference.is_some(), c > 0, "c={c}");
        }
        assert_eq!(
            panic_message(|| {
                draw_act_mask_into(&mut StdRng::seed_from_u64(5), 3, f64::NAN, &mut [0]);
            })
            .as_deref(),
            Some("gen_bool probability NaN not in [0, 1]")
        );
    }

    #[test]
    fn bernoulli_source_matches_direct_stream() {
        // Walking a Bernoulli source position-by-position consumes the
        // same stream as drawing masks directly from the seeded RNG.
        let (c, sp) = (100usize, 5);
        let words = c.div_ceil(64);
        let mut source = MaskSource::bernoulli(42, c, 0.5, sp);
        let mut rng = StdRng::seed_from_u64(42);
        let mut buf = vec![0u64; words];
        for p in 0..2 * sp {
            let expect = draw_act_mask(&mut rng, c, words, 0.5);
            source.mask_into(p % sp, &mut buf);
            assert_eq!(buf, expect, "draw {p}");
        }
    }

    #[test]
    fn trace_source_returns_stored_masks() {
        let masks = vec![vec![0b101u64], vec![0b010u64], vec![0b111u64]];
        let mut source = MaskSource::trace(&masks);
        assert_eq!(source.positions(), 3);
        let mut buf = vec![u64::MAX]; // must be overwritten
        for (p, m) in masks.iter().enumerate() {
            source.mask_into(p, &mut buf);
            assert_eq!(&buf, m);
        }
    }

    #[test]
    fn materialized_source_replays_the_bernoulli_stream() {
        let (c, sp, ch) = (70usize, 4, 3);
        let words = c.div_ceil(64);
        let mut block = vec![0u64; ch * sp * words];
        let mut rng = StdRng::seed_from_u64(7);
        for m in block.chunks_mut(words) {
            draw_act_mask_into(&mut rng, c, 0.5, m);
        }
        let mut mat = MaskSource::materialized(Arc::new(block), c, sp);
        let mut bern = MaskSource::bernoulli(7, c, 0.5, sp);
        assert_eq!(mat.positions(), sp);
        let (mut b1, mut b2) = (vec![0u64; words], vec![0u64; words]);
        for i in 0..ch * sp {
            // Both sources ignore the position index and advance their
            // stream — the walk passes `i % sp` per channel.
            mat.mask_into(i % sp, &mut b1);
            bern.mask_into(i % sp, &mut b2);
            assert_eq!(b1, b2, "mask {i}");
        }
    }

    #[test]
    fn position_masks_match_tensor_nonzeros() {
        let (c, x, y) = (70, 3, 4);
        let ifm = Tensor::from_fn(&[c, x, y], |i| {
            if (i[0] + i[1] * 2 + i[2]) % 3 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let masks = position_masks(&ifm);
        assert_eq!(masks.len(), x * y);
        for xi in 0..x {
            for yi in 0..y {
                for ci in 0..c {
                    let bit = masks[xi * y + yi][ci / 64] >> (ci % 64) & 1 == 1;
                    assert_eq!(bit, ifm.get(&[ci, xi, yi]) != 0.0, "c={ci} x={xi} y={yi}");
                }
            }
        }
    }

    proptest::proptest! {
        /// The scratch-buffer mask draw must consume the identical RNG
        /// stream as the allocating reference for any `(c, keep_prob)`.
        #[test]
        fn scratch_mask_draw_matches_allocating(
            c in 1usize..300,
            keep_prob in 0.0f64..1.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let words = c.div_ceil(64);
            let mut r_alloc = StdRng::seed_from_u64(seed);
            let mut r_scratch = StdRng::seed_from_u64(seed);
            let reference = draw_act_mask(&mut r_alloc, c, words, keep_prob);
            let mut mask = vec![u64::MAX; words]; // deliberately dirty
            draw_act_mask_into(&mut r_scratch, c, keep_prob, &mut mask);
            proptest::prop_assert_eq!(&reference, &mask);
            // Both RNGs must land in the same state afterwards.
            proptest::prop_assert_eq!(
                draw_act_mask(&mut r_alloc, c, words, keep_prob),
                {
                    draw_act_mask_into(&mut r_scratch, c, keep_prob, &mut mask);
                    mask.clone()
                }
            );
        }
    }
}
