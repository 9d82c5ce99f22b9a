//! The process-wide derived-state caches every sampled simulation shares.
//!
//! Only the activations change from one input to the next; a layer's
//! coefficient masks are fixed. A design-space sweep, a one-shot
//! `simulate` over ten input seeds, and a warm serve daemon all
//! re-simulate the same layers many times, and three derived artifacts of
//! a layer simulation are *hardware-invariant* — they depend only on the
//! layer, the input seed, and host-fidelity knobs, never on bus widths,
//! PE counts, or buffer sizes:
//!
//! - the synthetic Bernoulli **activation masks**: a pure function of
//!   `(layer seed, C, keep probability, sampled positions, masks drawn)` —
//!   the RNG stream is fixed by the seed, and the walk consumes exactly
//!   `sampled_channels × positions` masks in stream order;
//! - the compiled [`LayerPlan`]: a pure function of
//!   `(C, M, sampled channel ids, coefficient mask words)` — the sampled
//!   channel *selection* depends on `cfg.sample_channels` (a host knob
//!   that is part of the sweep grid), but given the selection the plan is
//!   config-independent and input-seed-independent;
//! - the **folded walk sums** ([`WalkSums`]): the per-channel sums a walk
//!   produces depend on the masks, the plan, the MAC-row geometry, and
//!   the CA cost model's three config knobs (bus elements, look-ahead,
//!   look-aside) — but *not* on the PE count or buffer sizes, so design
//!   points that differ only in those skip the walk entirely and
//!   reassemble the aggregate bit-for-bit (the one mapping-dependent
//!   output, `max_block_time`, is a monotone positive multiple of the
//!   cached `max_mean_pos`).
//!
//! Everything else — [`crate::context::LayerContext`]'s `parallel_k` and
//! block/slice [`crate::dataflow::Mapping`], the traffic model — depends
//! on the hardware point and is deliberately *not* cached here.
//!
//! Sharing cannot change results: cached masks are regenerated from the
//! very RNG stream the uncached path would draw (bit-identical by
//! construction, keyed by everything that feeds the stream), and a cached
//! plan is only reused after [`LayerPlan::matches`] verified it
//! word-for-word against the requested masks — a fingerprint collision
//! falls back to a fresh build, never a wrong reuse. All three caches are
//! [`SingleFlightCache`]s, each with its own measured bound
//! ([`MASK_CACHE_CAP`], [`PLAN_CACHE_CAP`], [`WALK_CACHE_CAP`]), and each
//! counts its own lookups: `sim.mask_cache.{hits,misses,evictions}`,
//! `sim.plan_cache.*` and `sim.walk_cache.*`. The older lumped names are
//! still emitted because the benchmark reads them: `sweep.derived_hits` /
//! `sweep.derived_misses` count mask lookups and walk hits,
//! `sweep.walk_hits` counts walk hits alone, `sweep.derived_evictions`
//! counts all three caches' evictions; plan reuse also flows through the
//! `ca.plan_reuses` / `ca.plan_compiles` counters.

use crate::ca::LayerPlan;
use crate::config::SimConfig;
use crate::context::PositionAggregate;
use crate::masks::draw_act_mask_into;
use escalate_core::cache::{Lookup, SingleFlightCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Bound of the mask cache (entries). Mask keys include the input seed,
/// and a warm daemon gets no mask hits at all (0 in 15,882 lookups on a
/// traced perfbench `serve_warm`): a repeated walk is served by the walk
/// cache before its masks are drawn. The masks pay off in the 256-point
/// sweep grid (1713 hits against 141 misses), and 128 entries keep every
/// one of those reuses (a network contributes `layers × distinct
/// sample-channel settings` entries per input seed) while holding a block
/// per entry.
pub const MASK_CACHE_CAP: usize = 128;

/// Bound of the plan cache (entries). Plans are seed-invariant: a warm
/// daemon holds only ~140 of them, and 128 entries would cost the
/// 256-point sweep 34 recompiles, so 512 is nearly free and never
/// recompiles there.
pub const PLAN_CACHE_CAP: usize = 512;

/// Bound of the walk cache (entries). Walk keys include the input seed,
/// so the working set is `layers × input seeds × CA configs` rather than
/// the plan cache's `layers × M`. Distinct walks one process touches:
/// perfbench `serve_warm` 1507, `sweep_grid` 1854, `report --all` 3319,
/// and at most ~4.8k (the two sets' sum) for a daemon serving both the
/// report jobs and the `serve_warm` mix. LRU over a cyclic working set
/// larger than its bound evicts every key before its repeat (at 512, a
/// traced `serve_warm` hit 2033 of 17,915 walk lookups), so the bound
/// holds ~3.4× the largest measured set. An entry (key in the map and in
/// the recency index, slot, sums) is ~460 B resident, so a full cache
/// costs ~7.6 MB.
pub const WALK_CACHE_CAP: usize = 16384;

/// Everything that feeds the Bernoulli mask stream, floats by bit
/// pattern: `(layer seed, C, keep_prob bits, positions per channel,
/// channels walked)`.
type MaskKey = (u64, usize, u64, usize, usize);

/// Plan lookup key: geometry plus an FNV-1a fingerprint of the channel
/// ids and their coefficient mask words. The fingerprint narrows the
/// candidate; [`LayerPlan::matches`] decides.
type PlanKey = (usize, usize, u64);

/// Identity of one sampled channel × position walk — everything the
/// folded per-channel sums depend on, and nothing the mapping-dependent
/// extrapolation reads. `fp`/`fp2` are two independent FNV-1a
/// fingerprints (different offset bases) over the sampled channel ids
/// and their coefficient mask words; with every other component exact,
/// a wrong reuse needs a simultaneous 128-bit collision.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WalkKey {
    fp: u64,
    fp2: u64,
    c: usize,
    m: usize,
    layer_seed: u64,
    keep_prob_bits: u64,
    positions: usize,
    rs: usize,
    bus: usize,
    look_ahead: usize,
    look_aside: usize,
}

/// The hardware-invariant folded sums of one walk (see
/// [`PositionAggregate`] for the field semantics). `max_mean_pos` rather
/// than `max_block_time` is cached: the latter is `max_mean_pos ×
/// positions_per_slice`, and multiplying by the (positive) slice size is
/// monotone, so the caller reassembles it bit-for-bit for *its* mapping.
#[derive(Clone, Copy)]
pub struct WalkSums {
    /// Σ over sampled channels of the mean per-position MAC-row cycles.
    pub sum_pos_cycles: f64,
    /// Σ matched (activation, coefficient) pairs over all samples.
    pub sum_matched: f64,
    /// Σ concentration gather passes over all samples.
    pub sum_gather: f64,
    /// Σ MAC idle cycles over all samples.
    pub sum_idle: f64,
    /// Largest per-channel mean position cycles.
    pub max_mean_pos: f64,
}

struct DerivedCache {
    masks: SingleFlightCache<MaskKey, Arc<Vec<u64>>>,
    plans: SingleFlightCache<PlanKey, Arc<LayerPlan>>,
    walks: SingleFlightCache<WalkKey, WalkSums>,
}

fn derived_cache() -> &'static DerivedCache {
    static CACHE: OnceLock<DerivedCache> = OnceLock::new();
    CACHE.get_or_init(|| DerivedCache {
        masks: SingleFlightCache::new(MASK_CACHE_CAP),
        plans: SingleFlightCache::new(PLAN_CACHE_CAP),
        walks: SingleFlightCache::new(WALK_CACHE_CAP),
    })
}

/// One derived cache's counter names: hits, misses, evictions.
type CacheCounters = [&'static str; 3];

const MASK_COUNTERS: CacheCounters = [
    "sim.mask_cache.hits",
    "sim.mask_cache.misses",
    "sim.mask_cache.evictions",
];
const PLAN_COUNTERS: CacheCounters = [
    "sim.plan_cache.hits",
    "sim.plan_cache.misses",
    "sim.plan_cache.evictions",
];
const WALK_COUNTERS: CacheCounters = [
    "sim.walk_cache.hits",
    "sim.walk_cache.misses",
    "sim.walk_cache.evictions",
];

fn count_evictions(counters: CacheCounters, evicted: u64) {
    if evicted > 0 {
        escalate_obs::counter_add(counters[2], evicted);
        escalate_obs::counter_add("sweep.derived_evictions", evicted);
    }
}

/// Counts one lookup of a derived cache under its own names.
fn count_lookup<V>(counters: CacheCounters, look: &Lookup<V>) {
    escalate_obs::counter_add(counters[if look.hit { 0 } else { 1 }], 1);
    count_evictions(counters, look.evicted);
}

/// Re-bounds all three derived caches to `capacity` (`0` = unbounded;
/// `None` restores each cache's own bound: [`MASK_CACHE_CAP`],
/// [`PLAN_CACHE_CAP`], [`WALK_CACHE_CAP`]), evicting down to the new
/// bound immediately. Exists for eviction-pressure tests and
/// memory-conscious embedders.
pub fn set_derived_cache_capacity(capacity: Option<usize>) {
    let cache = derived_cache();
    let bound = |own: usize| capacity.unwrap_or(own);
    count_evictions(
        MASK_COUNTERS,
        cache.masks.set_capacity(bound(MASK_CACHE_CAP)),
    );
    count_evictions(
        PLAN_COUNTERS,
        cache.plans.set_capacity(bound(PLAN_CACHE_CAP)),
    );
    count_evictions(
        WALK_COUNTERS,
        cache.walks.set_capacity(bound(WALK_CACHE_CAP)),
    );
}

/// Total evictions the derived caches have performed since process start.
pub fn derived_cache_evictions() -> u64 {
    let cache = derived_cache();
    cache.masks.evictions() + cache.plans.evictions() + cache.walks.evictions()
}

/// Draws the full mask block the sampled walk will consume — `channels ×
/// positions` masks of `⌈C/64⌉` words, back-to-back in stream order —
/// from a fresh RNG at `layer_seed`. This is byte-for-byte the stream
/// [`crate::masks::MaskSource::bernoulli`] would produce, because the
/// walk consumes exactly one mask per (channel, position) in that order.
fn generate_masks(
    layer_seed: u64,
    c: usize,
    keep_prob: f64,
    positions: usize,
    channels: usize,
) -> Vec<u64> {
    let words = c.div_ceil(64);
    let mut rng = StdRng::seed_from_u64(layer_seed);
    let mut out = vec![0u64; channels * positions * words];
    for mask in out.chunks_mut(words.max(1)) {
        draw_act_mask_into(&mut rng, c, keep_prob, mask);
    }
    out
}

/// The materialized Bernoulli mask block for one `(layer, input seed,
/// fidelity)` walk, generated once across concurrent callers and shared.
/// Returns the shared words and whether this lookup hit.
pub fn cached_masks(
    layer_seed: u64,
    c: usize,
    keep_prob: f64,
    positions: usize,
    channels: usize,
) -> (Arc<Vec<u64>>, bool) {
    let key = (layer_seed, c, keep_prob.to_bits(), positions, channels);
    let look = derived_cache().masks.get_or_insert_with(key, || {
        Arc::new(generate_masks(
            layer_seed, c, keep_prob, positions, channels,
        ))
    });
    escalate_obs::counter_add(
        if look.hit {
            "sweep.derived_hits"
        } else {
            "sweep.derived_misses"
        },
        1,
    );
    count_lookup(MASK_COUNTERS, &look);
    (look.value, look.hit)
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// The shared compiled [`LayerPlan`] for `(c, m, channels, masks)`,
/// building and caching it on a miss. Returns the plan and whether the
/// lookup hit. A hit is only reported after [`LayerPlan::matches`]
/// verified the stored plan word-for-word against the requested masks; a
/// fingerprint collision builds an uncached plan instead of reusing.
pub fn cached_plan<'m>(
    c: usize,
    m: usize,
    channels: &[usize],
    mask: impl Fn(usize, usize) -> &'m [u64],
) -> (Arc<LayerPlan>, bool) {
    let mut fp = 0xcbf29ce484222325u64;
    for &k in channels {
        fp = fnv1a(fp, &(k as u64).to_le_bytes());
        for mi in 0..m {
            for &w in mask(k, mi) {
                fp = fnv1a(fp, &w.to_le_bytes());
            }
        }
    }
    let look = derived_cache().plans.get_or_insert_with((c, m, fp), || {
        Arc::new(LayerPlan::build(c, m, channels, &mask))
    });
    count_lookup(PLAN_COUNTERS, &look);
    if !look.hit {
        (look.value, false)
    } else if look.value.matches(c, m, channels, &mask) {
        (look.value, true)
    } else {
        (Arc::new(LayerPlan::build(c, m, channels, &mask)), false)
    }
}

/// Builds the [`WalkKey`] for a walk of `channels × positions` against
/// this layer's masks under `cfg`'s CA cost model. Everything the folded
/// sums read is captured: the coefficient masks and sampled channel ids
/// (double-fingerprinted), the activation mask stream identity, the
/// MAC-row geometry (`m`, `rs`), and the kernel's config-relevant knobs
/// (exactly the set [`crate::ca::PositionKernel::matches`] checks).
#[allow(clippy::too_many_arguments)]
pub fn walk_key<'m>(
    c: usize,
    m: usize,
    channels: &[usize],
    mask: impl Fn(usize, usize) -> &'m [u64],
    layer_seed: u64,
    keep_prob: f64,
    positions: usize,
    rs: usize,
    cfg: &SimConfig,
) -> WalkKey {
    let mut fp = 0xcbf29ce484222325u64;
    let mut fp2 = 0x84222325cbf29ce4u64;
    for &k in channels {
        fp = fnv1a(fp, &(k as u64).to_le_bytes());
        fp2 = fnv1a(fp2, &(k as u64).to_le_bytes());
        for mi in 0..m {
            for &w in mask(k, mi) {
                fp = fnv1a(fp, &w.to_le_bytes());
                fp2 = fnv1a(fp2, &w.to_le_bytes());
            }
        }
    }
    WalkKey {
        fp,
        fp2,
        c,
        m,
        layer_seed,
        keep_prob_bits: keep_prob.to_bits(),
        positions,
        rs,
        bus: cfg.bus_elems().max(1),
        look_ahead: cfg.look_ahead,
        look_aside: cfg.look_aside,
    }
}

/// The folded sums of the walk `key` identifies. A hit returns the sums
/// an earlier simulation published and counts as a derived hit and a walk
/// hit; a miss runs `walk` (once across concurrent callers), publishes
/// its sums, and also returns the walk's own aggregate.
pub fn cached_walk(
    key: WalkKey,
    walk: impl FnOnce() -> PositionAggregate,
) -> (WalkSums, Option<PositionAggregate>) {
    let mut walked = None;
    let look = derived_cache().walks.get_or_insert_with(key, || {
        let agg = walk();
        walked = Some(agg);
        WalkSums {
            sum_pos_cycles: agg.sum_pos_cycles,
            sum_matched: agg.sum_matched,
            sum_gather: agg.sum_gather,
            sum_idle: agg.sum_idle,
            max_mean_pos: agg.max_mean_pos,
        }
    });
    if look.hit {
        escalate_obs::counter_add("sweep.derived_hits", 1);
        escalate_obs::counter_add("sweep.walk_hits", 1);
    }
    count_lookup(WALK_COUNTERS, &look);
    (look.value, walked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn generated_masks_replay_the_bernoulli_stream() {
        let (c, sp, ch) = (100usize, 7, 3);
        let words = c.div_ceil(64);
        let block = generate_masks(99, c, 0.4, sp, ch);
        assert_eq!(block.len(), ch * sp * words);
        // The uncached walk draws the same stream mask by mask.
        let mut rng = StdRng::seed_from_u64(99);
        let mut buf = vec![0u64; words];
        for i in 0..ch * sp {
            draw_act_mask_into(&mut rng, c, 0.4, &mut buf);
            assert_eq!(&block[i * words..(i + 1) * words], &buf[..], "mask {i}");
        }
    }

    #[test]
    fn mask_cache_hits_on_identical_keys_only() {
        // Unique seeds so parallel tests sharing the process-global cache
        // cannot collide with these entries.
        let seed = 0xfeed_0001u64;
        let (a, hit_a) = cached_masks(seed, 70, 0.5, 4, 2);
        assert!(!hit_a, "first lookup must miss");
        let (b, hit_b) = cached_masks(seed, 70, 0.5, 4, 2);
        assert!(hit_b, "second lookup must hit");
        assert!(Arc::ptr_eq(&a, &b), "hit must share the same block");
        let (c, hit_c) = cached_masks(seed, 70, 0.5, 4, 3);
        assert!(!hit_c, "a different mask count is a different stream");
        assert_eq!(&c[..a.len()], &a[..], "longer block shares the prefix");
    }

    #[test]
    fn plan_cache_verifies_word_for_word_before_reuse() {
        let words = 2usize;
        let mk = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4 * words)
                .map(|_| rng.next_u64() & !(1 << 63))
                .collect()
        };
        let masks_a = mk(0xfeed_1001);
        let mask_a = |k: usize, mi: usize| &masks_a[(k % 2 * 2 + mi) * words..][..words];
        let (p1, hit1) = cached_plan(100, 2, &[0, 1], mask_a);
        assert!(!hit1);
        let (p2, hit2) = cached_plan(100, 2, &[0, 1], mask_a);
        assert!(hit2, "identical inputs must hit");
        assert!(Arc::ptr_eq(&p1, &p2));
        // Different masks (same geometry) must not reuse the plan.
        let masks_b = mk(0xfeed_1002);
        let mask_b = |k: usize, mi: usize| &masks_b[(k % 2 * 2 + mi) * words..][..words];
        let (p3, hit3) = cached_plan(100, 2, &[0, 1], mask_b);
        assert!(!hit3);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert!(p3.matches(100, 2, &[0, 1], mask_b));
    }

    /// A walk key unique to `seed`; the seeds sit far from every other
    /// test's so the process-global cache cannot mix them up.
    fn test_walk_key(seed: u64) -> WalkKey {
        WalkKey {
            fp: seed,
            fp2: !seed,
            c: 64,
            m: 6,
            layer_seed: seed,
            keep_prob_bits: 0.5f64.to_bits(),
            positions: 8,
            rs: 9,
            bus: 16,
            look_ahead: 2,
            look_aside: 1,
        }
    }

    #[test]
    fn repeated_walks_beyond_the_plan_bound_are_not_rewalked() {
        // A cyclic pass over more distinct walks than the plan cache
        // holds: a walk cache borrowing that bound evicts every key
        // before its repeat, so the second pass would walk again.
        const WALKS: u64 = 600;
        let seeds = (0..WALKS).map(|i| 0xfeed_2000_0000 + i);
        let walk_for = |seed: u64| PositionAggregate {
            sum_pos_cycles: seed as f64 * 1.25,
            sum_matched: (seed % 97) as f64 + 0.5,
            sum_gather: (seed % 13) as f64 / 3.0,
            sum_idle: seed as f64 / 7.0,
            max_mean_pos: (seed % 31) as f64 + 0.125,
            ..PositionAggregate::default()
        };
        let first: Vec<WalkSums> = seeds
            .clone()
            .map(|seed| {
                let (sums, walked) = cached_walk(test_walk_key(seed), || walk_for(seed));
                assert!(walked.is_some(), "first pass must walk seed {seed:#x}");
                sums
            })
            .collect();
        let mut rewalked = 0;
        for (seed, first) in seeds.zip(&first) {
            let (sums, walked) = cached_walk(test_walk_key(seed), || walk_for(seed));
            rewalked += usize::from(walked.is_some());
            let bits = |w: &WalkSums| {
                [
                    w.sum_pos_cycles,
                    w.sum_matched,
                    w.sum_gather,
                    w.sum_idle,
                    w.max_mean_pos,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&sums), bits(first), "seed {seed:#x}");
        }
        assert_eq!(rewalked, 0, "the second pass must read every walk");
    }

    #[test]
    fn default_bounds_are_restored_per_cache() {
        // Raising the bound evicts nothing, so tests sharing the cache
        // are undisturbed; `None` must then restore each cache's own
        // bound, not one borrowed from another cache.
        set_derived_cache_capacity(Some(1 << 20));
        set_derived_cache_capacity(None);
        let cache = derived_cache();
        assert_eq!(cache.masks.capacity(), MASK_CACHE_CAP);
        assert_eq!(cache.plans.capacity(), PLAN_CACHE_CAP);
        assert_eq!(cache.walks.capacity(), WALK_CACHE_CAP);
        assert_eq!(
            (MASK_CACHE_CAP, PLAN_CACHE_CAP, WALK_CACHE_CAP),
            (128, 512, 16384)
        );
    }
}
