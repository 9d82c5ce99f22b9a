//! Channel-accumulator cycle model: one input position through
//! Dilution-Concentration (paper §4.2, Figure 2(b)).
//!
//! For one output channel and one input position, the nonzero activations
//! of all `C` input channels stream over the 16-byte bus in chunks. Each
//! of the `M` CAs matches the stream against its own coefficient mask
//! with the bit-exact dilution model, folds survivors into its
//! concentration buffer, and reduces them through the adder tree. The CA
//! time for the position is the maximum of the bus streaming time and the
//! slowest CA's concentration drain.
//!
//! Two implementations produce the identical [`PositionCost`]:
//!
//! - [`position_cost_scalar`] walks activation bits one at a time and runs
//!   the full [`dilute_into`] + [`ConcentrationBuffer`] machinery for
//!   every (basis, word) pair — the reference model, kept for
//!   differential testing;
//! - [`PositionKernel`] is the batched word-parallel production path: a
//!   compiled [`LayerPlan`] holds every per-channel invariant (coefficient
//!   copies, union masks, per-basis nonzero-word skip tables),
//!   [`PositionKernel::cost_batch`] evaluates up to [`MAX_BATCH`]
//!   positions per pass over the bound coefficient words, concentration
//!   drains run on the bitmask
//!   [`MaskConcentration`](escalate_sparse::MaskConcentration) model, and
//!   on x86_64 the whole batch is recompiled with `popcnt`/`bmi2`/`avx2`
//!   enabled and dispatched at runtime.
//!   `tests/kernel_diff.rs` pins every path byte-for-byte equal to the
//!   scalar reference.
//!
//! The per-channel memo that rode along in earlier revisions is gone: on
//! the MobileNet grid its hit rate measured 0.0000 (revision ad1d5bd) because
//! Bernoulli-drawn multi-word activation masks essentially never repeat
//! within one channel bind, and the bit-identity contract forbids coarser
//! keying — so it was pure probe overhead and was deleted rather than
//! rekeyed (see DESIGN.md §2.2 for the verdict).

use crate::config::SimConfig;
use escalate_sparse::{dilute_into, ConcentrationBuffer, DilutionInput, MaskConcentration};

#[cfg(target_arch = "x86_64")]
use crate::simd;

/// Unit activation values: the timing model only cares which positions are
/// nonzero, so every nonzero activation streams as `1.0`.
static UNIT_ACTS: [f32; 64] = [1.0; 64];
/// All-positive coefficient signs (sign bits are irrelevant to timing).
static NO_SIGNS: [bool; 64] = [false; 64];

/// Positions evaluated per [`PositionKernel::cost_batch`] pass — the walk
/// in `run_positions` hands the kernel up to this many activation masks at
/// a time so coefficient words, skip tables, and the dispatch branch are
/// amortized across the batch.
pub const MAX_BATCH: usize = 8;

/// Reusable scratch state for [`position_cost_scalar`]: the concentration
/// buffer and the diluted-slot buffer, so the per-position hot loop
/// allocates nothing after warm-up.
///
/// A scratch is tied to the [`SimConfig`] it was built from (adder-tree
/// width and look-ahead/look-aside windows); build a new one when the
/// config changes.
#[derive(Debug, Clone)]
pub struct CaScratch {
    buf: ConcentrationBuffer,
    slots: Vec<Option<f32>>,
}

impl CaScratch {
    /// Creates scratch state for simulations under `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let bus = cfg.bus_elems().max(1);
        CaScratch {
            buf: ConcentrationBuffer::new(bus, cfg.look_ahead, cfg.look_aside),
            slots: Vec::with_capacity(64),
        }
    }
}

/// Per-position CA simulation result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PositionCost {
    /// Cycles the CA stage needs for this position.
    pub ca_cycles: u64,
    /// Matched (activation, coefficient) pairs accumulated.
    pub matched: u64,
    /// Dilution gather passes executed.
    pub gather_passes: u64,
    /// Bus cycles spent streaming the activation chunks.
    pub stream_cycles: u64,
}

/// Simulates one input position for one output channel.
///
/// `act_mask` has one bit per input channel (set = nonzero activation);
/// `coef_masks[m]` are the per-basis coefficient masks over the same
/// channels; `c` is the channel count.
///
/// # Panics
///
/// Panics if the mask word counts disagree with `c`.
pub fn position_cost(
    cfg: &SimConfig,
    c: usize,
    act_mask: &[u64],
    coef_masks: &[&[u64]],
) -> PositionCost {
    position_cost_scalar(cfg, c, act_mask, coef_masks, &mut CaScratch::new(cfg))
}

/// The scalar reference implementation of [`position_cost`] with
/// caller-owned scratch buffers: activation bits are walked one at a time
/// and every (basis, word) pair runs the full dilution + concentration
/// machinery. [`PositionKernel`] is the word-parallel production path;
/// this function is retained as the ground truth it is differentially
/// tested against (`tests/kernel_diff.rs`). Results are identical to
/// [`position_cost`].
///
/// # Panics
///
/// Panics if the mask word counts disagree with `c`, or (in debug builds)
/// if `scratch` was built from a config with a different bus width.
pub fn position_cost_scalar(
    cfg: &SimConfig,
    c: usize,
    act_mask: &[u64],
    coef_masks: &[&[u64]],
    scratch: &mut CaScratch,
) -> PositionCost {
    debug_assert_eq!(
        scratch.buf.width(),
        cfg.bus_elems().max(1),
        "scratch built from a different config"
    );
    let words = c.div_ceil(64);
    assert_eq!(act_mask.len(), words, "activation mask word count");
    for cm in coef_masks {
        assert_eq!(cm.len(), words, "coefficient mask word count");
    }

    // Chunk-skipping: the compressed activations are stored in bus-width
    // chunks, and the sparse maps stream ahead of the values (§4.2.2), so
    // a slice only requests the chunks whose positions intersect at least
    // one of its coefficient masks. At high coefficient sparsity most
    // chunks are skipped — this is where Dilution-Concentration converts
    // sparsity into time.
    let bus = cfg.bus_elems().max(1);
    let mut fetched_chunks = 0u64;
    {
        let mut in_chunk = 0usize;
        let mut chunk_needed = false;
        for wi in 0..words {
            let mut aw = act_mask[wi];
            while aw != 0 {
                let bit = aw.trailing_zeros() as usize;
                aw &= aw - 1;
                if !chunk_needed {
                    for cm in coef_masks {
                        if cm[wi] >> bit & 1 == 1 {
                            chunk_needed = true;
                            break;
                        }
                    }
                }
                in_chunk += 1;
                if in_chunk == bus {
                    if chunk_needed {
                        fetched_chunks += 1;
                    }
                    in_chunk = 0;
                    chunk_needed = false;
                }
            }
        }
        if in_chunk > 0 && chunk_needed {
            fetched_chunks += 1;
        }
    }
    // A position always costs at least one bus cycle, even when every
    // chunk was skipped: the sparse maps themselves stream ahead of the
    // values, so the CA spends a cycle discovering there is nothing to
    // fetch. This ≥ 1 floor is intentional and pinned by
    // `all_chunks_skipped_costs_the_one_cycle_floor`; the word-parallel
    // kernel preserves it exactly.
    let stream_cycles = fetched_chunks.max(1);

    let mut matched = 0u64;
    let mut gather_passes = 0u64;
    let mut worst_conc = 0u64;

    // One value per nonzero activation; the magnitudes are irrelevant to
    // timing, so use unit values.
    for cm in coef_masks {
        scratch.buf.reset();
        for (wi, (&aw, &cw)) in act_mask.iter().zip(cm.iter()).enumerate() {
            let width = (c - wi * 64).min(64);
            if aw == 0 {
                continue;
            }
            let out = dilute_into(
                &DilutionInput {
                    act_values: &UNIT_ACTS[..aw.count_ones() as usize],
                    act_map: aw,
                    coef_signs: &NO_SIGNS[..cw.count_ones() as usize],
                    coef_map: cw,
                    width,
                },
                &mut scratch.slots,
            );
            gather_passes += 1;
            matched += out.matched as u64;
            scratch.buf.push_slots(&scratch.slots);
        }
        let (_, stats) = scratch.buf.drain_sum();
        worst_conc = worst_conc.max(stats.rows_drained as u64);
    }

    PositionCost {
        ca_cycles: stream_cycles.max(worst_conc).max(1),
        matched,
        gather_passes,
        stream_cycles,
    }
}

/// A compiled per-(layer, config) table of everything the position walk
/// would otherwise re-derive per channel: flat copies of the `M`
/// coefficient masks for every sampled channel, their per-word unions
/// (the chunk-skip filter), and per-basis skip tables listing the words
/// whose coefficient mask is nonzero — the only words a basis can match
/// in, so the batch loop walks those and charges everything between them
/// as coalesced hole runs.
///
/// A plan is built once by [`LayerPlan::build`] and installed into a
/// [`PositionKernel`] ([`PositionKernel::install_plan`]); `run_positions`
/// caches it through the thread-local kernel cache and reuses it across
/// seeds and fidelities of the same layer. Reuse is gated by
/// [`LayerPlan::matches`], which compares the stored mask words for full
/// equality — never a hash — so a stale plan can never change results.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    c: usize,
    words: usize,
    m: usize,
    /// Sampled channel ids, in walk order (the reuse identity).
    channels: Vec<usize>,
    /// `channels × m × words` coefficient mask copies, flat.
    coef: Vec<u64>,
    /// `channels × words` per-word unions over the `m` masks, flat.
    union_mask: Vec<u64>,
    /// Concatenated per-(channel, basis) lists of nonzero-word indices.
    nz_words: Vec<u32>,
    /// `channels × m + 1` offsets into [`LayerPlan::nz_words`].
    nz_index: Vec<u32>,
}

impl LayerPlan {
    /// Compiles the plan for `channels` of a layer with `c` input channels
    /// and `m` bases; `mask(k, mi)` returns basis `mi` of channel `k`.
    ///
    /// # Panics
    ///
    /// Panics if a mask's word count disagrees with `c`.
    pub fn build<'m>(
        c: usize,
        m: usize,
        channels: &[usize],
        mask: impl Fn(usize, usize) -> &'m [u64],
    ) -> LayerPlan {
        let _span = escalate_obs::span("ca.plan_compile");
        let words = c.div_ceil(64);
        let mut plan = LayerPlan {
            c,
            words,
            m,
            channels: channels.to_vec(),
            coef: Vec::with_capacity(channels.len() * m * words),
            union_mask: vec![0u64; channels.len() * words],
            nz_words: Vec::new(),
            nz_index: Vec::with_capacity(channels.len() * m + 1),
        };
        plan.nz_index.push(0);
        for (ci, &k) in channels.iter().enumerate() {
            let union = &mut plan.union_mask[ci * words..(ci + 1) * words];
            for mi in 0..m {
                let cm = mask(k, mi);
                assert_eq!(cm.len(), words, "coefficient mask word count");
                or_words(union, cm);
                for (wi, &w) in cm.iter().enumerate() {
                    if w != 0 {
                        plan.nz_words.push(wi as u32);
                    }
                }
                plan.nz_index.push(plan.nz_words.len() as u32);
                plan.coef.extend_from_slice(cm);
            }
        }
        plan
    }

    /// Whether this plan was compiled from exactly these inputs: same
    /// geometry, same channel sample, and word-for-word identical masks.
    pub fn matches<'m>(
        &self,
        c: usize,
        m: usize,
        channels: &[usize],
        mask: impl Fn(usize, usize) -> &'m [u64],
    ) -> bool {
        if self.c != c || self.m != m || self.channels != channels {
            return false;
        }
        let words = self.words;
        for (ci, &k) in channels.iter().enumerate() {
            for mi in 0..m {
                let stored = &self.coef[(ci * m + mi) * words..(ci * m + mi + 1) * words];
                if stored != mask(k, mi) {
                    return false;
                }
            }
        }
        true
    }

    /// The channel ids this plan was compiled for, in walk order.
    pub fn channels(&self) -> &[usize] {
        &self.channels
    }
}

/// Per-word OR fold, through the AVX2 lane helper when the `simd` fast
/// path is live.
fn or_words(dst: &mut [u64], src: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    if simd::enabled() {
        // SAFETY: avx2 availability is part of `simd::enabled`.
        unsafe { simd::or_words_into(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// The dilution filter over compressed activations: the intersection bits
/// gathered at the activation positions (`gather_bits(inter, aw)`), built
/// with one rank popcount per survivor — or a single `pext` on the x86
/// fast path.
#[inline(always)]
fn filter_mask(inter: u64, aw: u64, fast: bool) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if fast {
        // SAFETY: the batch entry dispatched here only after
        // `simd::enabled()` confirmed bmi2.
        return unsafe { simd::pext(inter, aw) };
    }
    let _ = fast;
    let mut filter = 0u64;
    let mut bits = inter;
    while bits != 0 {
        let b = bits.trailing_zeros();
        bits &= bits - 1;
        let rank = (aw & ((1u64 << b) - 1)).count_ones();
        filter |= 1u64 << rank;
    }
    filter
}

/// The drain model behind the kernel: the bitmask
/// [`MaskConcentration`] when the adder tree is at most 64 wide (every
/// Table 2 configuration), the full slot buffer beyond that.
#[derive(Debug, Clone)]
enum DrainBuf {
    Bits(MaskConcentration),
    Slots(ConcentrationBuffer),
}

impl DrainBuf {
    fn new(bus: usize, la: usize, ls: usize) -> DrainBuf {
        if bus <= 64 {
            DrainBuf::Bits(MaskConcentration::new(bus, la, ls))
        } else {
            DrainBuf::Slots(ConcentrationBuffer::new(bus, la, ls))
        }
    }

    #[inline(always)]
    fn push_holes(&mut self, n: usize) {
        match self {
            DrainBuf::Bits(b) => b.push_holes(n),
            DrainBuf::Slots(s) => s.push_holes(n),
        }
    }

    #[inline(always)]
    fn push_mask(&mut self, mask: u64, n: usize) {
        match self {
            DrainBuf::Bits(b) => b.push_mask(mask, n),
            DrainBuf::Slots(s) => s.push_unit_mask(mask, n),
        }
    }

    /// Drains everything, returning the rows the adder tree consumed.
    #[inline(always)]
    fn drain(&mut self) -> u64 {
        match self {
            DrainBuf::Bits(b) => b.drain() as u64,
            DrainBuf::Slots(s) => {
                let before = s.stats().rows_drained;
                let (_, stats) = s.drain_sum();
                (stats.rows_drained - before) as u64
            }
        }
    }
}

/// The batched word-parallel position-cost kernel: the production
/// implementation of the Dilution-Concentration cycle model,
/// result-identical to [`position_cost_scalar`].
///
/// A kernel is built once per config ([`PositionKernel::new`]) and fed a
/// compiled [`LayerPlan`] ([`PositionKernel::install_plan`]); per channel
/// the walk calls [`PositionKernel::bind_planned`] and then
/// [`PositionKernel::cost_batch`] over the positions. The fast-path
/// layers, from the outside in:
///
/// 1. **Compiled plans** — coefficient copies, per-word unions, and
///    per-basis nonzero-word skip tables come precomputed from the
///    [`LayerPlan`], so binding a channel is a few memcpys;
/// 2. **Position batching** — up to [`MAX_BATCH`] positions per
///    [`PositionKernel::cost_batch`] call share one pass over the bound
///    coefficient words (basis-major loop) and one activation
///    popcount-prefix table;
/// 3. **Word-parallel arithmetic** — chunk-skipping is rank arithmetic
///    over `act ∩ union`, `matched` is popcount over the skip-table
///    words, dilution filters are one rank popcount per survivor (or one
///    `pext`), hole runs between matchable words coalesce into single
///    `push_holes` calls, trailing holes are elided (they can never
///    drain a row), and drains run on the bitmask
///    [`MaskConcentration`] rows;
/// 4. **`std::arch` dispatch** (x86_64) — the whole batch is
///    recompiled with `popcnt`/`bmi2`/`avx2` enabled and selected by a
///    runtime `is_x86_feature_detected!` gate, with the portable
///    `u64::count_ones` path as the everywhere-correct fallback.
#[derive(Debug, Clone)]
pub struct PositionKernel {
    bus: usize,
    look_ahead: usize,
    look_aside: usize,
    /// Bound-channel geometry (mirrors the plan entry).
    c: usize,
    words: usize,
    m: usize,
    /// Flat `m × words` copy of the bound channel's coefficient masks.
    coef: Vec<u64>,
    /// Per-word OR over the `m` coefficient masks.
    union_mask: Vec<u64>,
    /// Concatenated per-basis nonzero-word lists of the bound channel.
    nz_words: Vec<u32>,
    /// `m + 1` offsets into [`PositionKernel::nz_words`].
    nz_index: Vec<u32>,
    /// Installed layer plan, if any — shared when it came from the
    /// derived-state cache ([`crate::shared`]).
    plan: Option<std::sync::Arc<LayerPlan>>,
    /// Concentration drain model (bitmask rows for bus ≤ 64).
    conc: DrainBuf,
    /// Batch scratch: per-position activation popcount prefix sums,
    /// `n × (words + 1)`, flat.
    pref: Vec<u32>,
}

impl PositionKernel {
    /// Creates an unbound kernel for simulations under `cfg`. Install a
    /// plan and call [`PositionKernel::bind_planned`] before
    /// [`PositionKernel::cost`].
    pub fn new(cfg: &SimConfig) -> PositionKernel {
        let bus = cfg.bus_elems().max(1);
        PositionKernel {
            bus,
            look_ahead: cfg.look_ahead,
            look_aside: cfg.look_aside,
            c: 0,
            words: 0,
            m: 0,
            coef: Vec::new(),
            union_mask: Vec::new(),
            nz_words: Vec::new(),
            nz_index: Vec::new(),
            plan: None,
            conc: DrainBuf::new(bus, cfg.look_ahead, cfg.look_aside),
            pref: Vec::new(),
        }
    }

    /// Whether this kernel was built from an equivalent config (same bus
    /// width and concentration windows) and can be reused for simulations
    /// under `cfg` without reconstruction.
    pub fn matches(&self, cfg: &SimConfig) -> bool {
        self.bus == cfg.bus_elems().max(1)
            && self.look_ahead == cfg.look_ahead
            && self.look_aside == cfg.look_aside
    }

    /// Installs a compiled [`LayerPlan`]; [`PositionKernel::bind_planned`]
    /// then binds its channels by index. Replaces any previous plan and
    /// invalidates the current bind.
    pub fn install_plan(&mut self, plan: LayerPlan) {
        self.install_shared_plan(std::sync::Arc::new(plan));
    }

    /// [`PositionKernel::install_plan`] for a plan shared with other
    /// kernels (the derived-state cache hands these out); binding only
    /// reads the plan, so sharing cannot change results.
    pub fn install_shared_plan(&mut self, plan: std::sync::Arc<LayerPlan>) {
        self.c = 0;
        self.words = 0;
        self.m = 0;
        self.plan = Some(plan);
    }

    /// The installed plan, if any — callers probe it with
    /// [`LayerPlan::matches`] to decide between reuse and recompile.
    pub fn plan(&self) -> Option<&LayerPlan> {
        self.plan.as_deref()
    }

    /// Binds channel `idx` of the installed plan: copies its precompiled
    /// coefficient words, union, and skip tables into the bind slots.
    ///
    /// # Panics
    ///
    /// Panics if no plan is installed or `idx` is out of range.
    pub fn bind_planned(&mut self, idx: usize) {
        let plan = self.plan.as_ref().expect("no layer plan installed");
        assert!(idx < plan.channels.len(), "plan channel index out of range");
        let (words, m) = (plan.words, plan.m);
        self.c = plan.c;
        self.words = words;
        self.m = m;
        self.coef.clear();
        self.coef
            .extend_from_slice(&plan.coef[idx * m * words..(idx + 1) * m * words]);
        self.union_mask.clear();
        self.union_mask
            .extend_from_slice(&plan.union_mask[idx * words..(idx + 1) * words]);
        let lo = plan.nz_index[idx * m] as usize;
        let hi = plan.nz_index[(idx + 1) * m] as usize;
        self.nz_words.clear();
        self.nz_words.extend_from_slice(&plan.nz_words[lo..hi]);
        self.nz_index.clear();
        self.nz_index.extend(
            plan.nz_index[idx * m..=(idx + 1) * m]
                .iter()
                .map(|&o| o - lo as u32),
        );
    }

    /// The cost of one position under the bound channel's masks — a batch
    /// of one. The kernel is stateless across calls: repeated calls with
    /// the same mask recompute and return the identical cost.
    ///
    /// # Panics
    ///
    /// Panics if `act_mask` disagrees with the bound channel width or has
    /// bits at or above `c`.
    pub fn cost(&mut self, act_mask: &[u64]) -> PositionCost {
        let mut out = [PositionCost::default()];
        self.cost_batch(act_mask, 1, &mut out);
        out[0]
    }

    /// The costs of `n ≤ MAX_BATCH` positions in one pass over the bound
    /// coefficient words: `acts` holds the `n` activation masks
    /// back-to-back (`n × words` words), `out[..n]` receives the costs in
    /// position order. Results are identical to `n` separate
    /// [`PositionKernel::cost`] calls — batching changes speed, never
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_BATCH`], `acts` is not
    /// `n × words` long, `out` is shorter than `n`, or any mask has bits
    /// at or above `c`.
    pub fn cost_batch(&mut self, acts: &[u64], n: usize, out: &mut [PositionCost]) {
        #[cfg(target_arch = "x86_64")]
        if simd::enabled() {
            // SAFETY: popcnt/bmi2/avx2 presence verified by the runtime
            // gate inside `simd::enabled`.
            unsafe { self.cost_batch_x86(acts, n, out) };
            return;
        }
        self.cost_batch_impl(acts, n, out, false);
    }

    /// The batch body recompiled with the x86 bit-manipulation features
    /// enabled, so every `count_ones` is a hardware `popcnt` and the
    /// filter build is a `pext`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt", enable = "bmi2", enable = "avx2")]
    unsafe fn cost_batch_x86(&mut self, acts: &[u64], n: usize, out: &mut [PositionCost]) {
        self.cost_batch_impl(acts, n, out, true);
    }

    /// The shared batch body; `fast` routes the filter build through
    /// `pext` (only ever `true` under the `target_feature` entry).
    #[inline(always)]
    fn cost_batch_impl(&mut self, acts: &[u64], n: usize, out: &mut [PositionCost], fast: bool) {
        let words = self.words;
        assert!(
            (1..=MAX_BATCH).contains(&n),
            "batch of 1..=MAX_BATCH positions"
        );
        assert_eq!(acts.len(), n * words, "activation mask word count");
        assert!(out.len() >= n, "cost buffer shorter than the batch");
        if words > 0 {
            let tail = self.c - (words - 1) * 64;
            if tail < 64 {
                for b in 0..n {
                    assert_eq!(
                        acts[b * words + words - 1] >> tail,
                        0,
                        "activation map has bits beyond width"
                    );
                }
            }
        }
        let bus = self.bus;

        // One pass of popcount prefix sums per batch: pref[b][w] is the
        // number of activation bits strictly before word `w` of position
        // `b`. Hole runs between matchable words become one subtraction,
        // and every basis of every position reuses the same table.
        self.pref.clear();
        let mut nz_act_words = [0u64; MAX_BATCH];
        for b in 0..n {
            let mut acc = 0u32;
            self.pref.push(0);
            for &aw in &acts[b * words..(b + 1) * words] {
                acc += aw.count_ones();
                if aw != 0 {
                    nz_act_words[b] += 1;
                }
                self.pref.push(acc);
            }
        }

        // Streaming: chunk-skipping by rank arithmetic, per position.
        // Activation bit number `r` (counting set bits across all words)
        // lands in chunk `r / bus`, and a chunk is fetched iff it holds at
        // least one bit of `act ∩ union`. Needed bits are visited in rank
        // order, so chunk indices are non-decreasing and deduplication is
        // one compare.
        let mut stream = [0u64; MAX_BATCH];
        for b in 0..n {
            let act = &acts[b * words..(b + 1) * words];
            let mut fetched_chunks = 0u64;
            let mut last_chunk = u64::MAX; // sentinel: no chunk fetched yet
            let mut base = 0usize; // rank of this word's first activation bit
            for (wi, &aw) in act.iter().enumerate() {
                if aw == 0 {
                    continue;
                }
                let cnt = aw.count_ones() as usize;
                let needed = aw & self.union_mask[wi];
                if needed == aw {
                    // Every activation bit of this word is needed: the chunk
                    // range [base/bus, (base+cnt-1)/bus] is fetched wholesale.
                    let clo = (base / bus) as u64;
                    let chi = ((base + cnt - 1) / bus) as u64;
                    let lo = if last_chunk == u64::MAX {
                        clo
                    } else {
                        clo.max(last_chunk + 1)
                    };
                    if chi >= lo {
                        fetched_chunks += chi - lo + 1;
                        last_chunk = chi;
                    }
                } else if needed != 0 {
                    let mut bits = needed;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        let rank = (aw & ((1u64 << bit) - 1)).count_ones() as usize;
                        let chunk = ((base + rank) / bus) as u64;
                        if chunk != last_chunk {
                            fetched_chunks += 1;
                            last_chunk = chunk;
                        }
                    }
                }
                base += cnt;
            }
            // Same ≥ 1 floor as the scalar path: a position always costs
            // at least one bus cycle (see position_cost_scalar).
            stream[b] = fetched_chunks.max(1);
        }

        // Accumulation: basis-major over the batch, so each basis's
        // coefficient words and skip table are loaded once for all `n`
        // positions.
        let mut matched = [0u64; MAX_BATCH];
        let mut worst_conc = [0u64; MAX_BATCH];
        for mi in 0..self.m {
            let cw = &self.coef[mi * words..(mi + 1) * words];
            let nz = &self.nz_words[self.nz_index[mi] as usize..self.nz_index[mi + 1] as usize];
            for b in 0..n {
                let act = &acts[b * words..(b + 1) * words];
                let pref = &self.pref[b * (words + 1)..(b + 1) * (words + 1)];
                // `matched` per basis is popcount arithmetic over the words
                // the skip table says can match at all; a basis whose
                // intersection with the whole position is empty streams
                // only holes, and an all-hole stream drains zero rows —
                // skip its concentration entirely.
                let mut basis_matched = 0u64;
                for &wi in nz {
                    let wi = wi as usize;
                    basis_matched += (act[wi] & cw[wi]).count_ones() as u64;
                }
                matched[b] += basis_matched;
                if basis_matched == 0 {
                    continue;
                }
                // Walk only the matchable words; everything between them
                // dilutes to holes whose count is a prefix-sum
                // subtraction, coalesced into single pushes. Trailing
                // holes are elided entirely: holes after the last
                // survivor can never cause an adder-tree row to drain.
                let mut pending_holes = 0usize;
                let mut prev = 0usize;
                for &wi in nz {
                    let wi = wi as usize;
                    pending_holes += (pref[wi] - pref[prev]) as usize;
                    let aw = act[wi];
                    if aw != 0 {
                        let inter = aw & cw[wi];
                        let cnt = aw.count_ones() as usize;
                        if inter == 0 {
                            // Dilution word-skip: an empty intersection
                            // dilutes to all holes.
                            pending_holes += cnt;
                        } else {
                            if pending_holes > 0 {
                                self.conc.push_holes(pending_holes);
                                pending_holes = 0;
                            }
                            self.conc.push_mask(filter_mask(inter, aw, fast), cnt);
                        }
                    }
                    prev = wi + 1;
                }
                worst_conc[b] = worst_conc[b].max(self.conc.drain());
            }
        }

        for b in 0..n {
            out[b] = PositionCost {
                ca_cycles: stream[b].max(worst_conc[b]).max(1),
                matched: matched[b],
                // One dilution gather pass per (basis, nonzero word),
                // exactly as the scalar path counts them — including
                // skipped words and skipped bases, whose gathers the
                // hardware still schedules.
                gather_passes: nz_act_words[b] * self.m as u64,
                stream_cycles: stream[b],
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    /// A kernel bound to one channel with `coef_masks` the way the walk
    /// binds: through a one-channel [`LayerPlan`].
    fn bound(cfg: &SimConfig, c: usize, coef_masks: &[&[u64]]) -> PositionKernel {
        let mut kernel = PositionKernel::new(cfg);
        kernel.install_plan(LayerPlan::build(c, coef_masks.len(), &[0], |_, mi| {
            coef_masks[mi]
        }));
        kernel.bind_planned(0);
        kernel
    }

    /// Runs the same inputs through the scalar path and the bound kernel
    /// (twice — it is stateless), and requires all answers equal. Returns
    /// the agreed cost.
    fn cost_all_paths(
        cfg: &SimConfig,
        c: usize,
        act: &[u64],
        coef_masks: &[&[u64]],
    ) -> PositionCost {
        let scalar = position_cost(cfg, c, act, coef_masks);
        let mut kernel = bound(cfg, c, coef_masks);
        assert_eq!(kernel.cost(act), scalar, "word-parallel kernel");
        assert_eq!(kernel.cost(act), scalar, "repeat call (stateless)");
        scalar
    }

    #[test]
    fn dense_position_is_bus_bound() {
        // All 64 channels nonzero, all coefficients nonzero: 64 activations
        // over a 16-wide bus = 4 cycles, and the adder tree matches.
        let act = [u64::MAX];
        let coef = [u64::MAX];
        let cost = cost_all_paths(&cfg(), 64, &act, &[&coef, &coef]);
        assert_eq!(cost.stream_cycles, 4);
        assert_eq!(cost.ca_cycles, 4);
        assert_eq!(cost.matched, 128); // 64 per CA × 2 CAs
    }

    #[test]
    fn empty_activations_cost_one_cycle() {
        let act = [0u64];
        let coef = [u64::MAX];
        let cost = cost_all_paths(&cfg(), 64, &act, &[&coef]);
        assert_eq!(cost.ca_cycles, 1);
        assert_eq!(cost.matched, 0);
        assert_eq!(cost.gather_passes, 0);
    }

    #[test]
    fn all_chunks_skipped_costs_the_one_cycle_floor() {
        // Nonzero activations whose intersection with *every* basis is
        // empty: every chunk is skipped, yet the position still costs one
        // bus cycle — the ≥ 1 floor is intentional (the sparse maps stream
        // ahead of the values, so discovering "nothing to fetch" takes a
        // cycle). Behavior-pinning regression for the fast path.
        let act = [0x0000_0000_FFFF_FFFFu64];
        let hi = [0xFFFF_FFFF_0000_0000u64];
        let zero = [0u64];
        let cost = cost_all_paths(&cfg(), 64, &act, &[&hi, &zero, &hi]);
        assert_eq!(cost.stream_cycles, 1);
        assert_eq!(cost.ca_cycles, 1);
        assert_eq!(cost.matched, 0);
        assert_eq!(cost.gather_passes, 3); // one per (basis, nonzero word)
    }

    #[test]
    fn sparse_coefficients_reduce_matches_not_stream() {
        let act = [u64::MAX];
        let sparse_coef = [0x0101_0101_0101_0101u64]; // 8 of 64
        let dense_coef = [u64::MAX];
        let s = cost_all_paths(&cfg(), 64, &act, &[&sparse_coef]);
        let d = cost_all_paths(&cfg(), 64, &act, &[&dense_coef]);
        assert_eq!(s.stream_cycles, d.stream_cycles);
        assert!(s.matched < d.matched);
        assert!(s.ca_cycles <= d.ca_cycles);
    }

    #[test]
    fn multiword_channels_accumulate() {
        // 128 channels, half nonzero activations.
        let act = [0xAAAA_AAAA_AAAA_AAAAu64; 2];
        let coef = [u64::MAX; 2];
        let cost = cost_all_paths(&cfg(), 128, &act, &[&coef]);
        assert_eq!(cost.matched, 64);
        assert_eq!(cost.stream_cycles, 4); // 64 nonzeros / 16 per cycle
    }

    #[test]
    fn ca_time_covers_slowest_accumulator() {
        let act = [u64::MAX];
        let dense = [u64::MAX];
        let empty = [0u64];
        let mixed = cost_all_paths(&cfg(), 64, &act, &[&dense, &empty]);
        let only_dense = cost_all_paths(&cfg(), 64, &act, &[&dense]);
        assert_eq!(mixed.ca_cycles, only_dense.ca_cycles);
    }

    #[test]
    fn reused_scratch_matches_fresh_calls() {
        let cfg = cfg();
        let mut scratch = CaScratch::new(&cfg);
        let patterns: [([u64; 2], [u64; 2]); 4] = [
            ([u64::MAX; 2], [u64::MAX; 2]),
            ([0xAAAA_AAAA_AAAA_AAAA; 2], [0x0101_0101_0101_0101; 2]),
            ([0x00FF_00FF_00FF_00FF, 0], [u64::MAX, 0x0F0F]),
            ([0, 0], [u64::MAX; 2]),
        ];
        for (act, coef) in &patterns {
            let fresh = position_cost(&cfg, 128, act, &[&coef[..], &coef[..]]);
            let reused =
                position_cost_scalar(&cfg, 128, act, &[&coef[..], &coef[..]], &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn batched_costs_equal_single_calls() {
        let cfg = cfg();
        let coef = [0x0101_0101_0101_0101u64, 0x00F0_0000_0000_000Fu64];
        let mut kernel = bound(&cfg, 128, &[&coef[..]]);
        // 7 positions: a ragged tail over any batch split.
        let acts: Vec<[u64; 2]> = (0..7)
            .map(|i| [0xDEAD_BEEF_0BAD_F00Du64.rotate_left(i * 9), 0x1234 << i])
            .collect();
        let singles: Vec<PositionCost> = acts.iter().map(|a| kernel.cost(a)).collect();
        for n in [1usize, 2, 3, 7] {
            let flat: Vec<u64> = acts[..n].iter().flatten().copied().collect();
            let mut out = vec![PositionCost::default(); n];
            kernel.cost_batch(&flat, n, &mut out);
            assert_eq!(out, singles[..n], "batch of {n}");
        }
    }

    #[test]
    fn rebinding_changes_answers() {
        let act = [0x0F0F_0F0F_0F0F_0F0Fu64];
        let dense = [u64::MAX];
        let disjoint = [0xF0F0_F0F0_F0F0_F0F0u64];
        let mut kernel = bound(&cfg(), 64, &[&dense[..]]);
        assert_eq!(kernel.cost(&act).matched, 32);
        // Installing a plan over a disjoint basis must replace every table.
        kernel.install_plan(LayerPlan::build(64, 1, &[0], |_, _| &disjoint[..]));
        kernel.bind_planned(0);
        assert_eq!(kernel.cost(&act).matched, 0);
    }

    #[test]
    fn plan_binds_match_one_channel_plans() {
        let cfg = cfg();
        let masks: Vec<Vec<Vec<u64>>> = (0..3)
            .map(|k| {
                (0..2)
                    .map(|mi| vec![(0x9E37_79B9u64 << k).rotate_left(mi * 13 + k), 0x0FFF >> k])
                    .collect()
            })
            .collect();
        let channels = [2usize, 0, 1];
        let plan = LayerPlan::build(100, 2, &channels, |k, mi| &masks[k][mi]);
        assert_eq!(plan.channels(), &channels);
        assert!(plan.matches(100, 2, &channels, |k, mi| &masks[k][mi]));
        assert!(!plan.matches(100, 2, &[0, 1, 2], |k, mi| &masks[k][mi]));

        let act = [0xFFFF_0000_FFFF_0000u64, 0x0ABC];
        let mut planned = PositionKernel::new(&cfg);
        planned.install_plan(plan);
        for (idx, &k) in channels.iter().enumerate() {
            planned.bind_planned(idx);
            let refs: Vec<&[u64]> = masks[k].iter().map(Vec::as_slice).collect();
            let mut single = bound(&cfg, 100, &refs);
            assert_eq!(planned.cost(&act), single.cost(&act), "channel {k}");
        }
    }

    #[test]
    fn plan_matches_rejects_changed_masks() {
        let base = [vec![0xFFu64], vec![0x0Fu64]];
        let plan = LayerPlan::build(64, 2, &[0], |_, mi| &base[mi]);
        assert!(plan.matches(64, 2, &[0], |_, mi| &base[mi]));
        let tweaked = [vec![0xFFu64], vec![0x1Fu64]];
        assert!(!plan.matches(64, 2, &[0], |_, mi| &tweaked[mi]));
        assert!(!plan.matches(64, 1, &[0], |_, mi| &base[mi]));
        assert!(!plan.matches(128, 2, &[0], |_, mi| &base[mi]));
    }

    #[test]
    #[should_panic(expected = "mask word count")]
    fn word_count_mismatch_panics() {
        let act = [0u64; 2];
        let coef = [0u64];
        let _ = position_cost(&cfg(), 64, &act, &[&coef]);
    }

    #[test]
    #[should_panic(expected = "beyond width")]
    fn kernel_rejects_bits_beyond_c() {
        let coef = [u64::MAX];
        let mut kernel = bound(&cfg(), 40, &[&coef[..]]);
        let _ = kernel.cost(&[1u64 << 45]);
    }

    #[test]
    #[should_panic(expected = "no layer plan installed")]
    fn bind_planned_without_plan_panics() {
        let mut kernel = PositionKernel::new(&cfg());
        kernel.bind_planned(0);
    }
}
