//! The Concentration step (paper §4.2.3, Figure 6).
//!
//! Diluted chunks contain holes where coefficients were zero. Before the
//! survivors are fed to the reduction (adder) tree, the concentration
//! buffer folds chunks into rows of the tree's width and fills holes with
//! column-wise *look-ahead* (pull an element up from a later row of the
//! same column) and *look-aside* (pull from an adjacent column). Because
//! the sign has already been attached to each activation, elements may be
//! permuted arbitrarily.
//!
//! The adder tree consumes one row per cycle, so the number of drained rows
//! is the cycle cost of the weighted-accumulation stage; perfect
//! concentration reaches `ceil(matched / width)` cycles.

use std::collections::VecDeque;

/// A concentration buffer folding diluted slots into adder-tree rows.
///
/// The buffer recycles drained row storage into a free pool, so a
/// long-lived buffer (see [`ConcentrationBuffer::reset`]) reaches a
/// steady state where pushing and draining allocate nothing.
///
/// # Examples
///
/// ```
/// use escalate_sparse::ConcentrationBuffer;
///
/// let mut buf = ConcentrationBuffer::new(4, 2, 1);
/// buf.push_slots(&[Some(1.0), None, Some(2.0), None, None, Some(3.0)]);
/// let (sum, stats) = buf.drain_sum();
/// assert_eq!(sum, 6.0);
/// // 3 elements fit one row of width 4 after concentration.
/// assert_eq!(stats.rows_drained, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConcentrationBuffer {
    width: usize,
    look_ahead: usize,
    look_aside: usize,
    rows: VecDeque<Vec<Option<f32>>>,
    /// Drained/emptied row storage awaiting reuse.
    free: Vec<Vec<Option<f32>>>,
    /// Column cursor for folding incoming slots.
    cursor: usize,
    stats: ConcentrationStats,
}

/// Counters describing the work done by a concentration buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcentrationStats {
    /// Rows fed to the adder tree (one per cycle).
    pub rows_drained: usize,
    /// Total elements delivered.
    pub elements: usize,
    /// Holes filled by look-ahead moves.
    pub look_ahead_fills: usize,
    /// Holes filled by look-aside moves.
    pub look_aside_fills: usize,
    /// Barrier flushes (forced drains at position boundaries).
    pub barrier_flushes: usize,
}

impl ConcentrationStats {
    /// Occupancy of the drained rows in `[0, 1]`; 1.0 means every adder-tree
    /// input was used every cycle.
    pub fn occupancy(&self, width: usize) -> f64 {
        if self.rows_drained == 0 {
            return 1.0;
        }
        self.elements as f64 / (self.rows_drained * width) as f64
    }
}

impl ConcentrationBuffer {
    /// Creates a buffer feeding an adder tree of the given `width`.
    ///
    /// `look_ahead` is how many rows below the head a column may pull from;
    /// `look_aside` is how many neighbouring columns may donate an element.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, look_ahead: usize, look_aside: usize) -> Self {
        assert!(width > 0, "adder tree width must be positive");
        ConcentrationBuffer {
            width,
            look_ahead,
            look_aside,
            rows: VecDeque::new(),
            free: Vec::new(),
            cursor: 0,
            stats: ConcentrationStats::default(),
        }
    }

    /// Clears buffered rows, the fold cursor, and the statistics, keeping
    /// the row storage for reuse. A reset buffer behaves exactly like a
    /// freshly constructed one with the same geometry.
    pub fn reset(&mut self) {
        while let Some(row) = self.rows.pop_front() {
            self.free.push(row);
        }
        self.cursor = 0;
        self.stats = ConcentrationStats::default();
    }

    /// Adder-tree width this buffer feeds.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Folds a diluted chunk's slots into the buffer, `width` per row.
    pub fn push_slots(&mut self, slots: &[Option<f32>]) {
        for &slot in slots {
            if self.cursor == 0 {
                self.open_row();
            }
            let last = self.rows.back_mut().expect("row was just pushed");
            last[self.cursor] = slot;
            self.cursor = (self.cursor + 1) % self.width;
        }
    }

    /// Appends a fresh all-hole row, recycling drained storage.
    fn open_row(&mut self) {
        let row = match self.free.pop() {
            Some(mut row) => {
                row.fill(None);
                row
            }
            None => vec![None; self.width],
        };
        self.rows.push_back(row);
    }

    /// Pushes `n` hole slots: bit-exact equivalent of
    /// `push_slots(&[None; n])`, but costs `O(n / width)` row operations
    /// instead of `O(n)` slot writes.
    ///
    /// This is the dilution word-skip entry point: when a chunk's
    /// activation/coefficient intersection is empty, every diluted slot is
    /// a hole, so callers can skip the dilution gathers entirely and
    /// account for the stream's holes here. The holes still occupy buffer
    /// slots — they shape row packing and the look-ahead donor distances —
    /// so the drain model stays identical to the full dilution path.
    pub fn push_holes(&mut self, mut n: usize) {
        while n > 0 {
            if self.cursor == 0 {
                self.open_row();
            }
            let take = (self.width - self.cursor).min(n);
            self.cursor = (self.cursor + take) % self.width;
            n -= take;
        }
    }

    /// Pushes `n` unit-valued slots where slot `j` is `Some(1.0)` when bit
    /// `j` of `mask` is set and a hole otherwise: the timing-model
    /// equivalent of diluting a chunk of `n` unit activations whose filter
    /// mask is `mask`, writing only the `popcount(mask)` survivors.
    ///
    /// The drained *statistics* are bit-exact with the full dilution path
    /// because concentration only reads the `Some`/`None` pattern; the
    /// drained *sum* may differ in sign (dilution attaches coefficient
    /// signs to survivors, this entry point pushes `+1.0`), so it is for
    /// cost models that discard the sum.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `mask` has bits at or above `n`.
    pub fn push_unit_mask(&mut self, mask: u64, n: usize) {
        assert!(n <= 64, "unit-mask chunks are at most 64 slots");
        let limit = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        assert_eq!(mask & !limit, 0, "filter mask has bits beyond the chunk");
        let mut j = 0usize;
        while j < n {
            if self.cursor == 0 {
                self.open_row();
            }
            let take = (self.width - self.cursor).min(n - j);
            let keep = if take >= 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            let mut bits = (mask >> j) & keep;
            if bits != 0 {
                let row = self.rows.back_mut().expect("row was just pushed");
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    row[self.cursor + b] = Some(1.0);
                }
            }
            self.cursor = (self.cursor + take) % self.width;
            j += take;
        }
    }

    /// Number of buffered rows not yet drained.
    pub fn pending_rows(&self) -> usize {
        self.rows.len()
    }

    /// Concentrates and drains every buffered row, returning the sum of all
    /// delivered elements (the weighted accumulation this stage computes)
    /// and the cumulative statistics.
    pub fn drain_sum(&mut self) -> (f32, ConcentrationStats) {
        let mut sum = 0.0f32;
        while let Some(row_sum) = self.drain_row() {
            sum += row_sum;
        }
        (sum, self.stats)
    }

    /// Forces a barrier flush: everything buffered is drained (counted as a
    /// flush) so elements of different output positions never mix.
    pub fn barrier(&mut self) -> f32 {
        if self.rows.is_empty() && self.cursor == 0 {
            return 0.0;
        }
        self.stats.barrier_flushes += 1;
        let (sum, _) = self.drain_sum();
        self.cursor = 0;
        sum
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> ConcentrationStats {
        self.stats
    }

    /// Concentrates and drains exactly one adder-tree row, returning the
    /// partial sum of its elements, or `None` when the buffer is empty.
    /// This is the per-cycle operation of the hardware: one row enters the
    /// reduction tree per clock.
    pub fn drain_one(&mut self) -> Option<f32> {
        self.drain_row()
    }

    /// Concentrates the head row (fills holes via look-ahead/look-aside),
    /// removes it, and returns the sum of its elements. Returns `None`
    /// when empty.
    fn drain_row(&mut self) -> Option<f32> {
        if self.rows.is_empty() {
            self.cursor = 0;
            return None;
        }
        // Fill head-row holes.
        for col in 0..self.width {
            if self.rows[0][col].is_some() {
                continue;
            }
            if let Some((r, c, ahead)) = self.find_donor(col) {
                self.rows[0][col] = self.rows[r][c].take();
                if ahead {
                    self.stats.look_ahead_fills += 1;
                } else {
                    self.stats.look_aside_fills += 1;
                }
            }
        }
        let head = self.rows.pop_front().expect("buffer was non-empty");
        // Drop rows that have become entirely empty after donations,
        // recycling their storage.
        for _ in 0..self.rows.len() {
            let row = self.rows.pop_front().expect("iterating existing rows");
            if row.iter().any(Option::is_some) {
                self.rows.push_back(row);
            } else {
                self.free.push(row);
            }
        }
        if self.rows.is_empty() {
            self.cursor = 0;
        }
        let mut sum = 0.0f32;
        let mut count = 0usize;
        for &v in head.iter().flatten() {
            sum += v;
            count += 1;
        }
        self.free.push(head);
        if count == 0 {
            // An all-hole row costs no adder-tree cycle; recurse to the next.
            return self.drain_row();
        }
        self.stats.rows_drained += 1;
        self.stats.elements += count;
        Some(sum)
    }

    /// Finds a donor element for a hole in the head row at `col`:
    /// look-ahead first (same column, later rows), then look-aside
    /// (adjacent columns within `look_aside`, later rows). Returns
    /// `(row, col, was_look_ahead)`.
    fn find_donor(&self, col: usize) -> Option<(usize, usize, bool)> {
        let depth = self.rows.len().min(1 + self.look_ahead);
        for r in 1..depth {
            if self.rows[r][col].is_some() {
                return Some((r, col, true));
            }
        }
        for r in 1..depth {
            for d in 1..=self.look_aside {
                if col >= d && self.rows[r][col - d].is_some() {
                    return Some((r, col - d, false));
                }
                if col + d < self.width && self.rows[r][col + d].is_some() {
                    return Some((r, col + d, false));
                }
            }
        }
        None
    }
}

/// A bitmask twin of [`ConcentrationBuffer`] for cost-only streams: rows
/// are `u64` occupancy masks instead of `Vec<Option<f32>>`, so pushing and
/// draining are word operations with no per-slot storage. It models
/// exactly the unit-mask/hole streams the timing kernel feeds
/// ([`ConcentrationBuffer::push_unit_mask`] / `push_holes`) and returns
/// only what that kernel consumes: the drained-row count.
///
/// The drain semantics — per-column donor search order (look-ahead rows
/// first, then look-aside at distance 1..=`look_aside`, column−d before
/// column+d, per row), empty-row compaction after each head pop, all-hole
/// rows costing nothing — replicate [`ConcentrationBuffer::drain_sum`]
/// decision for decision, so `rows_drained` is bit-identical; the
/// differential tests below pin this over random push sequences.
///
/// Only widths up to 64 columns are supported (one word per row); callers
/// with wider adder trees fall back to [`ConcentrationBuffer`].
#[derive(Debug, Clone)]
pub struct MaskConcentration {
    width: usize,
    look_ahead: usize,
    look_aside: usize,
    /// Occupancy mask per row, oldest first (index 0 is the head).
    rows: Vec<u64>,
    /// Column cursor for folding incoming slots, as in the slot buffer.
    cursor: usize,
}

impl MaskConcentration {
    /// Creates a bitmask buffer feeding an adder tree of `width` columns.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    pub fn new(width: usize, look_ahead: usize, look_aside: usize) -> Self {
        assert!(width > 0, "adder tree width must be positive");
        assert!(width <= 64, "bitmask rows hold at most 64 columns");
        MaskConcentration {
            width,
            look_ahead,
            look_aside,
            rows: Vec::new(),
            cursor: 0,
        }
    }

    /// Adder-tree width this buffer feeds.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Clears buffered rows and the fold cursor, keeping the row storage.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.cursor = 0;
    }

    /// Pushes `n` hole slots — the counterpart of
    /// [`ConcentrationBuffer::push_holes`].
    pub fn push_holes(&mut self, mut n: usize) {
        while n > 0 {
            if self.cursor == 0 {
                self.rows.push(0);
            }
            let take = (self.width - self.cursor).min(n);
            self.cursor = (self.cursor + take) % self.width;
            n -= take;
        }
    }

    /// Pushes `n` slots where slot `j` is occupied when bit `j` of `mask`
    /// is set — the counterpart of
    /// [`ConcentrationBuffer::push_unit_mask`], folding whole bit spans
    /// into the row words instead of writing slots.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `mask` has bits at or above `n`.
    pub fn push_mask(&mut self, mask: u64, n: usize) {
        assert!(n <= 64, "unit-mask chunks are at most 64 slots");
        let limit = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        assert_eq!(mask & !limit, 0, "filter mask has bits beyond the chunk");
        let mut j = 0usize;
        while j < n {
            if self.cursor == 0 {
                self.rows.push(0);
            }
            let take = (self.width - self.cursor).min(n - j);
            let keep = if take >= 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            let bits = (mask >> j) & keep;
            if bits != 0 {
                let last = self.rows.last_mut().expect("row was just pushed");
                *last |= bits << self.cursor;
            }
            self.cursor = (self.cursor + take) % self.width;
            j += take;
        }
    }

    /// Number of buffered rows not yet drained.
    pub fn pending_rows(&self) -> usize {
        self.rows.len()
    }

    /// Concentrates and drains every buffered row, returning how many rows
    /// the adder tree consumed — bit-identical to
    /// [`ConcentrationStats::rows_drained`] of a [`ConcentrationBuffer`]
    /// fed the same hole/mask stream.
    ///
    /// Runs in `O(rows · (1 + look_ahead))`. The slot buffer drops every
    /// row emptied by donations after each head pop. Here the whole tail
    /// is compacted once, after the first pop; from then on only the
    /// popped head's look-ahead window is compacted, toward the tail, so
    /// the rows behind it stay in place.
    pub fn drain(&mut self) -> usize {
        let full = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let mut drained = 0usize;
        let mut start = 0usize; // head index into `rows` (drained prefix)
        while start < self.rows.len() {
            let live = &mut self.rows[start..];
            let depth = live.len().min(1 + self.look_ahead);
            if depth > 1 {
                // Donors available anywhere below the head? When the union
                // of the window rows is empty no hole can be filled, and
                // the whole fill loop is skipped.
                let mut avail = 0u64;
                for &r in &live[1..depth] {
                    avail |= r;
                }
                if avail != 0 {
                    // A hole is worth visiting only if some donor bit can
                    // reach it: same column, or within look-aside range.
                    let mut reach = avail;
                    for d in 1..=self.look_aside {
                        reach |= (avail << d) | (avail >> d);
                    }
                    let mut holes = !live[0] & full & reach;
                    'hole: while holes != 0 {
                        let col = holes.trailing_zeros() as usize;
                        holes &= holes - 1;
                        // Look-ahead: same column, nearest row first.
                        for r in 1..depth {
                            if live[r] >> col & 1 == 1 {
                                live[r] &= !(1u64 << col);
                                live[0] |= 1u64 << col;
                                continue 'hole;
                            }
                        }
                        // Look-aside: per row, distance 1..=ls, col−d
                        // before col+d — the slot buffer's exact order.
                        for r in 1..depth {
                            for d in 1..=self.look_aside {
                                if col >= d && live[r] >> (col - d) & 1 == 1 {
                                    live[r] &= !(1u64 << (col - d));
                                    live[0] |= 1u64 << col;
                                    continue 'hole;
                                }
                                if col + d < self.width && live[r] >> (col + d) & 1 == 1 {
                                    live[r] &= !(1u64 << (col + d));
                                    live[0] |= 1u64 << col;
                                    continue 'hole;
                                }
                            }
                        }
                    }
                }
            }
            let head = live[0];
            if head != 0 {
                drained += 1;
            }
            start += 1;
            // Drop rows emptied by donations, shifting the survivors toward
            // the tail. After the first pop that is the whole tail (the
            // pushed stream may hold hole rows anywhere); after later pops
            // (`start` only grows past 1) every row behind the head was
            // non-empty, and only the popped head's window can have lost
            // its last element.
            let end = if start == 1 {
                self.rows.len()
            } else {
                start + depth - 1
            };
            let mut w = end;
            for r in (start..end).rev() {
                let row = self.rows[r];
                if row != 0 {
                    w -= 1;
                    self.rows[w] = row;
                }
            }
            start = w;
        }
        self.rows.clear();
        self.cursor = 0;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_slots_drain_at_full_occupancy() {
        let mut buf = ConcentrationBuffer::new(4, 2, 1);
        let slots: Vec<Option<f32>> = (0..8).map(|i| Some(i as f32)).collect();
        buf.push_slots(&slots);
        let (sum, stats) = buf.drain_sum();
        assert_eq!(sum, 28.0);
        assert_eq!(stats.rows_drained, 2);
        assert_eq!(stats.occupancy(4), 1.0);
    }

    #[test]
    fn holes_are_filled_by_look_ahead() {
        let mut buf = ConcentrationBuffer::new(2, 4, 0);
        // Column 0 has holes in row 0; row 1 donates.
        buf.push_slots(&[None, Some(1.0), Some(2.0), Some(3.0)]);
        let (sum, stats) = buf.drain_sum();
        assert_eq!(sum, 6.0);
        assert!(stats.look_ahead_fills > 0);
        assert_eq!(stats.rows_drained, 2); // 3 elements, width 2 → 2 rows
    }

    #[test]
    fn look_aside_fills_when_column_is_empty() {
        let mut buf = ConcentrationBuffer::new(2, 4, 1);
        // Column 1 never gets an element except via look-aside.
        buf.push_slots(&[Some(1.0), None, Some(2.0), None, Some(3.0), None]);
        let (sum, stats) = buf.drain_sum();
        assert_eq!(sum, 6.0);
        assert!(
            stats.look_aside_fills > 0,
            "expected look-aside moves: {stats:?}"
        );
        // Perfect concentration: ceil(3/2) = 2 rows.
        assert_eq!(stats.rows_drained, 2);
    }

    #[test]
    fn no_moves_without_windows() {
        let mut buf = ConcentrationBuffer::new(2, 0, 0);
        buf.push_slots(&[Some(1.0), None, None, Some(2.0)]);
        let (sum, stats) = buf.drain_sum();
        assert_eq!(sum, 3.0);
        assert_eq!(stats.look_ahead_fills + stats.look_aside_fills, 0);
        assert_eq!(stats.rows_drained, 2); // one element per row: no packing
    }

    #[test]
    fn all_hole_rows_cost_nothing() {
        let mut buf = ConcentrationBuffer::new(4, 2, 1);
        buf.push_slots(&[None, None, None, None, Some(5.0)]);
        let (sum, stats) = buf.drain_sum();
        assert_eq!(sum, 5.0);
        assert_eq!(stats.rows_drained, 1);
    }

    #[test]
    fn barrier_flush_counts_and_resets() {
        let mut buf = ConcentrationBuffer::new(4, 2, 1);
        buf.push_slots(&[Some(1.0)]);
        let s1 = buf.barrier();
        assert_eq!(s1, 1.0);
        assert_eq!(buf.stats().barrier_flushes, 1);
        assert_eq!(buf.pending_rows(), 0);
        // A barrier on an empty buffer is free.
        assert_eq!(buf.barrier(), 0.0);
        assert_eq!(buf.stats().barrier_flushes, 1);
    }

    #[test]
    fn sum_is_preserved_regardless_of_windows() {
        let slots: Vec<Option<f32>> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    Some((i as f32) * 0.5 - 3.0)
                } else {
                    None
                }
            })
            .collect();
        let expect: f32 = slots.iter().flatten().sum();
        for (la, ls) in [(0, 0), (1, 0), (4, 1), (8, 2)] {
            let mut buf = ConcentrationBuffer::new(8, la, ls);
            buf.push_slots(&slots);
            let (sum, _) = buf.drain_sum();
            assert!((sum - expect).abs() < 1e-5, "la={la} ls={ls}");
        }
    }

    #[test]
    fn reset_matches_fresh_buffer() {
        let slots: Vec<Option<f32>> = (0..20)
            .map(|i| if i % 3 == 0 { Some(i as f32) } else { None })
            .collect();
        let mut reused = ConcentrationBuffer::new(4, 2, 1);
        reused.push_slots(&slots);
        let first = reused.drain_sum();
        // Leave a partially-filled row behind before resetting.
        reused.push_slots(&[Some(9.0)]);
        reused.reset();
        reused.push_slots(&slots);
        let again = reused.drain_sum();
        let mut fresh = ConcentrationBuffer::new(4, 2, 1);
        fresh.push_slots(&slots);
        assert_eq!(again, fresh.drain_sum());
        assert_eq!(again, first);
    }

    #[test]
    fn push_holes_matches_push_slots() {
        for &(width, la, ls) in &[(4usize, 2usize, 1usize), (2, 0, 0), (16, 4, 1), (3, 1, 2)] {
            for &n in &[0usize, 1, 2, 3, 5, 16, 33, 64, 100] {
                let mut fast = ConcentrationBuffer::new(width, la, ls);
                let mut slow = ConcentrationBuffer::new(width, la, ls);
                // Interleave holes between real chunks so row structure and
                // donor distances are exercised, not just empty drains.
                let lead: Vec<Option<f32>> = (0..width + 1).map(|i| Some(i as f32)).collect();
                fast.push_slots(&lead);
                slow.push_slots(&lead);
                fast.push_holes(n);
                slow.push_slots(&vec![None; n]);
                let tail = [Some(7.0), None, Some(8.0)];
                fast.push_slots(&tail);
                slow.push_slots(&tail);
                assert_eq!(fast.pending_rows(), slow.pending_rows(), "w={width} n={n}");
                assert_eq!(fast.drain_sum(), slow.drain_sum(), "w={width} n={n}");
            }
        }
    }

    #[test]
    fn push_unit_mask_matches_push_slots_pattern() {
        for &(width, la, ls) in &[(4usize, 2usize, 1usize), (2, 1, 0), (16, 4, 1)] {
            for &(mask, n) in &[
                (0u64, 5usize),
                (0b1, 1),
                (0b1010_1100, 8),
                (u64::MAX, 64),
                (0x8000_0000_0000_0001, 64),
                (0x00FF_00FF, 32),
            ] {
                let mut fast = ConcentrationBuffer::new(width, la, ls);
                let mut slow = ConcentrationBuffer::new(width, la, ls);
                // Offset the cursor so chunks straddle row boundaries.
                fast.push_slots(&[Some(9.0)]);
                slow.push_slots(&[Some(9.0)]);
                fast.push_unit_mask(mask, n);
                let slots: Vec<Option<f32>> = (0..n)
                    .map(|j| if mask >> j & 1 == 1 { Some(1.0) } else { None })
                    .collect();
                slow.push_slots(&slots);
                let (_, fs) = fast.drain_sum();
                let (_, ss) = slow.drain_sum();
                assert_eq!(fs, ss, "w={width} mask={mask:#x} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the chunk")]
    fn unit_mask_bits_beyond_chunk_panic() {
        let mut buf = ConcentrationBuffer::new(4, 2, 1);
        buf.push_unit_mask(0b100, 2);
    }

    /// Feeds the same hole/unit-mask stream to a slot buffer and a bitmask
    /// buffer and requires the drained-row counts to agree.
    fn diff_drain(width: usize, la: usize, ls: usize, ops: &[(u64, usize)]) {
        let mut slots = ConcentrationBuffer::new(width, la, ls);
        let mut bits = MaskConcentration::new(width, la, ls);
        for &(mask, n) in ops {
            if mask == 0 {
                slots.push_holes(n);
                bits.push_holes(n);
            } else {
                slots.push_unit_mask(mask, n);
                bits.push_mask(mask, n);
            }
        }
        let before = slots.stats().rows_drained;
        let (_, stats) = slots.drain_sum();
        assert_eq!(
            bits.drain(),
            stats.rows_drained - before,
            "w={width} la={la} ls={ls} ops={ops:?}"
        );
    }

    #[test]
    fn bitmask_buffer_matches_slot_buffer_on_patterns() {
        diff_drain(16, 4, 1, &[(0b1011, 4), (0, 7), (0xFFFF, 16), (0, 40)]);
        diff_drain(4, 2, 1, &[(0, 3), (1, 1), (0, 9), (0b11, 2)]);
        diff_drain(1, 0, 0, &[(1, 1), (0, 5), (1, 1)]);
        diff_drain(64, 8, 2, &[(u64::MAX, 64), (0, 64), (0xF0F0, 16)]);
        diff_drain(16, 0, 3, &[(0x8001, 16), (0, 2), (0x7, 3)]);
        // All-hole stream: zero rows either way.
        diff_drain(8, 4, 1, &[(0, 100)]);
    }

    #[test]
    fn bitmask_buffer_matches_slot_buffer_randomized() {
        // Deterministic LCG so the sweep needs no rand dependency.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for trial in 0..300 {
            let width = 1 + (next() % 64) as usize;
            let la = (next() % 6) as usize;
            let ls = (next() % 3) as usize;
            let ops: Vec<(u64, usize)> = (0..(1 + next() % 12))
                .map(|_| {
                    let n = 1 + (next() % 64) as usize;
                    let limit = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                    // Sparse-ish masks (self-AND) with occasional all-hole runs.
                    let mask = if next() % 4 == 0 {
                        0
                    } else {
                        next() & next() & limit
                    };
                    (mask, n)
                })
                .collect();
            let _ = trial;
            diff_drain(width, la, ls, &ops);
        }
    }

    /// The historical drain: identical donor fills, but every remaining
    /// row is re-compacted after each head pop (`O(rows²)` per drain).
    fn drain_full_compaction(buf: &mut MaskConcentration) -> usize {
        let full = if buf.width == 64 {
            u64::MAX
        } else {
            (1u64 << buf.width) - 1
        };
        let mut drained = 0usize;
        let mut start = 0usize;
        while start < buf.rows.len() {
            let live = &mut buf.rows[start..];
            let depth = live.len().min(1 + buf.look_ahead);
            if depth > 1 {
                let mut avail = 0u64;
                for &r in &live[1..depth] {
                    avail |= r;
                }
                if avail != 0 {
                    let mut reach = avail;
                    for d in 1..=buf.look_aside {
                        reach |= (avail << d) | (avail >> d);
                    }
                    let mut holes = !live[0] & full & reach;
                    'hole: while holes != 0 {
                        let col = holes.trailing_zeros() as usize;
                        holes &= holes - 1;
                        for r in 1..depth {
                            if live[r] >> col & 1 == 1 {
                                live[r] &= !(1u64 << col);
                                live[0] |= 1u64 << col;
                                continue 'hole;
                            }
                        }
                        for r in 1..depth {
                            for d in 1..=buf.look_aside {
                                if col >= d && live[r] >> (col - d) & 1 == 1 {
                                    live[r] &= !(1u64 << (col - d));
                                    live[0] |= 1u64 << col;
                                    continue 'hole;
                                }
                                if col + d < buf.width && live[r] >> (col + d) & 1 == 1 {
                                    live[r] &= !(1u64 << (col + d));
                                    live[0] |= 1u64 << col;
                                    continue 'hole;
                                }
                            }
                        }
                    }
                }
            }
            if live[0] != 0 {
                drained += 1;
            }
            start += 1;
            let mut w = start;
            for r in start..buf.rows.len() {
                let row = buf.rows[r];
                if row != 0 {
                    buf.rows[w] = row;
                    w += 1;
                }
            }
            buf.rows.truncate(w);
        }
        buf.rows.clear();
        buf.cursor = 0;
        drained
    }

    #[test]
    fn window_drain_matches_full_compaction_drain() {
        let mut state = 0x0dd_ba11_cafe_f00du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for trial in 0..4000 {
            let width = 1 + trial % 64;
            let la = [0usize, 1, 4, 8][trial / 64 % 4];
            let ls = [0usize, 1, 2][trial / 256 % 3];
            let mut fast = MaskConcentration::new(width, la, ls);
            // Leading hole rows on a third of the trials.
            if next() % 3 == 0 {
                fast.push_holes(width * (1 + (next() % 4) as usize));
            }
            for _ in 0..(1 + next() % 24) {
                let n = 1 + (next() % 64) as usize;
                let limit = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                match next() % 5 {
                    0 => fast.push_holes(n),
                    1 => fast.push_mask(next() & limit, n),
                    _ => fast.push_mask(next() & next() & next() & limit, n),
                }
            }
            let mut reference = fast.clone();
            let rows = fast.pending_rows();
            assert_eq!(
                fast.drain(),
                drain_full_compaction(&mut reference),
                "trial {trial}: w={width} la={la} ls={ls} rows={rows}"
            );
            assert_eq!(fast.pending_rows(), 0);
        }
    }

    #[test]
    fn bitmask_buffer_reset_and_reuse_matches_fresh() {
        let ops = [(0b1010u64, 4usize), (0, 6), (0xFF, 8)];
        let mut reused = MaskConcentration::new(6, 3, 1);
        reused.push_mask(0x1, 2);
        reused.reset();
        for &(mask, n) in &ops {
            if mask == 0 {
                reused.push_holes(n);
            } else {
                reused.push_mask(mask, n);
            }
        }
        let mut fresh = MaskConcentration::new(6, 3, 1);
        for &(mask, n) in &ops {
            if mask == 0 {
                fresh.push_holes(n);
            } else {
                fresh.push_mask(mask, n);
            }
        }
        assert_eq!(reused.pending_rows(), fresh.pending_rows());
        assert_eq!(reused.drain(), fresh.drain());
        // Drained buffers are empty and reusable without reset.
        assert_eq!(reused.pending_rows(), 0);
        reused.push_mask(0b11, 2);
        assert_eq!(reused.drain(), 1);
    }

    #[test]
    #[should_panic(expected = "at most 64 columns")]
    fn bitmask_buffer_rejects_wide_trees() {
        let _ = MaskConcentration::new(65, 4, 1);
    }

    #[test]
    fn deeper_lookahead_never_hurts_cycles() {
        let slots: Vec<Option<f32>> = (0..64)
            .map(|i| {
                if (i * 7) % 5 < 2 {
                    Some(i as f32)
                } else {
                    None
                }
            })
            .collect();
        let mut last = usize::MAX;
        for la in [0usize, 1, 2, 4, 8] {
            let mut buf = ConcentrationBuffer::new(4, la, 1);
            buf.push_slots(&slots);
            let (_, stats) = buf.drain_sum();
            assert!(stats.rows_drained <= last, "look-ahead {la} regressed");
            last = stats.rows_drained;
        }
    }
}
