//! The distributed input-buffer design (paper §4.3, Figure 2(c)).
//!
//! Instead of one unified input buffer, ESCALATE gives each slice
//! position its own buffer shared by the slices at that position across
//! all PE blocks. Chunks of compressed activations live in a circular
//! queue; each chunk carries a reference count of the slices that still
//! need it and is evicted when the count reaches zero.
//!
//! The paper collects requests through an H-tree of arbitrators that
//! merge identical requests and prioritize earlier chunks. That network
//! is not modelled: each slice read is served individually, which the
//! simulators treat as stall-free (EXPERIMENTS.md, "Validation of the
//! simulator abstraction").

use std::collections::VecDeque;

/// One chunk of compressed activations in the circular queue.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk {
    id: u64,
    bytes: u32,
    /// Slices that have not consumed this chunk yet.
    refs: u32,
}

/// A reference-counted circular input buffer.
///
/// # Examples
///
/// ```
/// use escalate_sim::buffers::InputBuffer;
///
/// let mut buf = InputBuffer::new(1024);
/// let id = buf.push(64, 4).expect("fits");
/// // Four consumers read the chunk; it is evicted on the last read.
/// for _ in 0..4 {
///     assert!(buf.request(id));
/// }
/// assert_eq!(buf.occupancy_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct InputBuffer {
    capacity: u32,
    used: u32,
    next_id: u64,
    queue: VecDeque<Chunk>,
    stats: BufferStats,
}

/// Counters for one input buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Chunks admitted.
    pub pushes: u64,
    /// Individual slice reads satisfied.
    pub reads: u64,
    /// Chunks evicted after their last consumer.
    pub evictions: u64,
    /// Push attempts rejected for lack of space (DRAM stall pressure).
    pub rejections: u64,
    /// Bytes served to consumers (chunk bytes × reads).
    pub bytes_read: u64,
}

impl InputBuffer {
    /// Creates a buffer with the given byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        InputBuffer {
            capacity,
            used: 0,
            next_id: 0,
            queue: VecDeque::new(),
            stats: BufferStats::default(),
        }
    }

    /// Admits a chunk of `bytes` to be consumed by `consumers` slices.
    /// Returns its ID, or `None` when the buffer is full (the producer
    /// must stall).
    pub fn push(&mut self, bytes: u32, consumers: u32) -> Option<u64> {
        if bytes == 0 || consumers == 0 {
            return None;
        }
        if self.used + bytes > self.capacity {
            self.stats.rejections += 1;
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used += bytes;
        self.queue.push_back(Chunk {
            id,
            bytes,
            refs: consumers,
        });
        self.stats.pushes += 1;
        Some(id)
    }

    /// One slice requests chunk `id`. Returns `true` when served; the
    /// chunk is evicted when its last consumer has read it.
    pub fn request(&mut self, id: u64) -> bool {
        let Some(pos) = self.queue.iter().position(|c| c.id == id) else {
            return false;
        };
        self.stats.reads += 1;
        self.stats.bytes_read += self.queue[pos].bytes as u64;
        self.queue[pos].refs -= 1;
        if self.queue[pos].refs == 0 {
            self.used -= self.queue[pos].bytes;
            self.queue.remove(pos);
            self.stats.evictions += 1;
        }
        true
    }

    /// Bytes currently held.
    pub fn occupancy_bytes(&self) -> u32 {
        self.used
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_full_rejection() {
        let mut buf = InputBuffer::new(100);
        assert!(buf.push(60, 1).is_some());
        assert!(buf.push(60, 1).is_none());
        assert_eq!(buf.stats().rejections, 1);
        assert_eq!(buf.occupancy_bytes(), 60);
    }

    #[test]
    fn refcount_eviction() {
        let mut buf = InputBuffer::new(100);
        let id = buf.push(40, 3).unwrap();
        assert!(buf.request(id));
        assert!(buf.request(id));
        assert_eq!(buf.occupancy_bytes(), 40);
        assert_eq!(buf.stats().evictions, 0);
        assert!(buf.request(id));
        assert_eq!(buf.occupancy_bytes(), 0);
        assert_eq!(buf.stats().evictions, 1);
        // A fourth request misses.
        assert!(!buf.request(id));
    }

    #[test]
    fn eviction_frees_space_for_new_chunks() {
        let mut buf = InputBuffer::new(100);
        let a = buf.push(80, 1).unwrap();
        assert!(buf.push(30, 1).is_none());
        buf.request(a);
        assert!(buf.push(30, 1).is_some());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut buf = InputBuffer::new(1000);
        let ids: Vec<u64> = (0..5).map(|i| buf.push(10 + i, 1).unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Serving earliest-first drains the queue front-first: each read
        // evicts the current head, and every later chunk stays resident.
        let mut held: u32 = (0..5).map(|i| 10 + i).sum();
        for (served, (&id, bytes)) in ids.iter().zip(10..).enumerate() {
            assert!(buf.request(id));
            held -= bytes;
            assert_eq!(buf.occupancy_bytes(), held);
            assert_eq!(buf.stats().evictions, served as u64 + 1);
        }
        assert_eq!(buf.stats().evictions, ids.len() as u64);
    }

    #[test]
    fn zero_sized_pushes_rejected() {
        let mut buf = InputBuffer::new(10);
        assert!(buf.push(0, 1).is_none());
        assert!(buf.push(5, 0).is_none());
    }
}
