//! Ablation: distributed reference-counted input buffers vs a unified
//! buffer (paper §4.3).
//!
//! Replays a Basis-First access trace (asynchronously progressing PE
//! slices reading the same activation chunks, skewed in time) against
//! (a) the ref-counted circular buffer, where a chunk is fetched once and
//! held until its last consumer reads it (fast slices stall when the
//! buffer fills), and (b) a unified FIFO buffer of the same capacity
//! without reference counts, which re-fetches chunks evicted before slow
//! slices caught up. DRAM fetches are the §4.3 cost; stalls are the price
//! the ref-counted design pays instead.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_sim::buffers::InputBuffer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// A unified FIFO buffer without reference counting.
struct UnifiedFifo {
    capacity: u32,
    used: u32,
    resident: VecDeque<(u64, u32)>,
    fetches: u64,
}

impl UnifiedFifo {
    fn new(capacity: u32) -> Self {
        UnifiedFifo {
            capacity,
            used: 0,
            resident: VecDeque::new(),
            fetches: 0,
        }
    }

    fn read(&mut self, id: u64, bytes: u32) {
        if self.resident.iter().any(|&(rid, _)| rid == id) {
            return;
        }
        while self.used + bytes > self.capacity {
            let (_, b) = self
                .resident
                .pop_front()
                .expect("chunk larger than capacity");
            self.used -= b;
        }
        self.resident.push_back((id, bytes));
        self.used += bytes;
        self.fetches += 1;
    }
}

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let chunks = 4096u64;
    let slices = 32u32;
    let chunk_bytes = 64u32;
    let mut rng = StdRng::seed_from_u64(42);

    tline!(
        t,
        "Serving one layer's trace ({chunks} chunks x {slices} skewed consumers)"
    );
    tline!(t);
    tline!(
        t,
        "{:>6} {:>10} | {:>12} {:>8} | {:>12} {:>9}",
        "skew",
        "capacity",
        "dist fetch",
        "stalls",
        "unif fetch",
        "extra DRAM"
    );
    for (skew, cap_chunks) in [(8u64, 16u32), (32, 16), (64, 32), (256, 64)] {
        // Per-slice lag: slice s starts reading chunk 0 at time lag[s].
        let lags: Vec<u64> = (0..slices).map(|_| rng.gen_range(0..=skew)).collect();

        // Distributed ref-counted buffer.
        let mut dist = InputBuffer::new(cap_chunks * chunk_bytes);
        let mut id_map: HashMap<u64, u64> = HashMap::new();
        let mut next_fetch = 0u64;
        let mut cursors = vec![0u64; slices as usize];
        let mut stalls = 0u64;
        let mut done = 0usize;
        let mut time = 0u64;
        while done < slices as usize {
            time += 1;
            done = 0;
            // Prefetch as far as capacity allows.
            while next_fetch < chunks {
                match dist.push(chunk_bytes, slices) {
                    Some(buf_id) => {
                        id_map.insert(next_fetch, buf_id);
                        next_fetch += 1;
                    }
                    None => break,
                }
            }
            for (s, cur) in cursors.iter_mut().enumerate() {
                if *cur >= chunks {
                    done += 1;
                    continue;
                }
                if *cur + lags[s] >= time {
                    continue; // this slice has not started yet
                }
                if let Some(&buf_id) = id_map.get(cur) {
                    let served = dist.request(buf_id);
                    debug_assert!(served, "resident chunk must serve");
                    *cur += 1;
                } else {
                    stalls += 1; // waiting for the producer (buffer full)
                }
            }
        }
        let dist_fetches = dist.stats().pushes;

        // Unified FIFO: same trace, no coordination.
        let mut uni = UnifiedFifo::new(cap_chunks * chunk_bytes);
        let mut cursors = vec![0u64; slices as usize];
        let mut done = 0usize;
        let mut time = 0u64;
        while done < slices as usize {
            time += 1;
            done = 0;
            for (s, cur) in cursors.iter_mut().enumerate() {
                if *cur >= chunks {
                    done += 1;
                    continue;
                }
                if *cur + lags[s] >= time {
                    continue;
                }
                uni.read(*cur, chunk_bytes);
                *cur += 1;
            }
        }

        tline!(
            t,
            "{:>6} {:>9}B | {:>12} {:>8} | {:>12} {:>8.1}x",
            skew,
            cap_chunks * chunk_bytes,
            dist_fetches,
            stalls,
            uni.fetches,
            uni.fetches as f64 / dist_fetches as f64,
        );
        t.push_record(Record::new([
            ("skew", Cell::from(skew)),
            (
                "capacity_bytes",
                Cell::from(u64::from(cap_chunks * chunk_bytes)),
            ),
            ("distributed_fetches", Cell::from(dist_fetches)),
            ("stalls", Cell::from(stalls)),
            ("unified_fetches", Cell::from(uni.fetches)),
            (
                "extra_dram_x",
                (uni.fetches as f64 / dist_fetches as f64).into(),
            ),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "The ref-counted circular queue fetches each chunk exactly once, stalling"
    );
    tline!(
        t,
        "fast slices when the skew exceeds the buffered window; the unified FIFO"
    );
    tline!(
        t,
        "re-fetches evicted chunks for the laggards, multiplying DRAM traffic."
    );
    Ok(())
}
