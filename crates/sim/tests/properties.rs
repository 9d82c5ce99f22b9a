//! Property-based tests for the accelerator component models.

use escalate_sim::buffers::InputBuffer;
use escalate_sim::psum::PsumBanks;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ref-counted buffer conserves chunks: every admitted chunk is
    /// evicted after exactly its consumer count of reads, and occupancy
    /// returns to zero.
    #[test]
    fn input_buffer_conserves_chunks(
        chunks in prop::collection::vec((1u32..64, 1u32..6), 1..20),
    ) {
        let cap: u32 = chunks.iter().map(|&(b, _)| b).sum::<u32>().max(1);
        let mut buf = InputBuffer::new(cap);
        let ids: Vec<(u64, u32)> = chunks
            .iter()
            .map(|&(bytes, consumers)| (buf.push(bytes, consumers).expect("fits"), consumers))
            .collect();
        for &(id, consumers) in &ids {
            for _ in 0..consumers {
                prop_assert!(buf.request(id));
            }
            prop_assert!(!buf.request(id), "chunk must be gone after last consumer");
        }
        prop_assert_eq!(buf.occupancy_bytes(), 0);
        prop_assert_eq!(buf.stats().evictions, ids.len() as u64);
        prop_assert_eq!(buf.stats().pushes, ids.len() as u64);
    }

    /// Psum accumulation is exact regardless of issue grouping, and the
    /// conflict cycles are bounded by the per-group worst case.
    #[test]
    fn psum_accumulation_is_grouping_invariant(
        writes in prop::collection::vec((0usize..64, -8i32..8), 1..80),
        banks in 1usize..9,
        group in 1usize..8,
    ) {
        let mut grouped = PsumBanks::new(banks, 64usize.div_ceil(banks));
        for g in writes.chunks(group) {
            let g: Vec<(usize, f32)> = g.iter().map(|&(a, v)| (a, v as f32)).collect();
            grouped.issue(&g);
        }
        let mut serial = PsumBanks::new(banks, 64usize.div_ceil(banks));
        for &(a, v) in &writes {
            serial.issue(&[(a, v as f32)]);
        }
        prop_assert_eq!(grouped.drain(), serial.drain());
        // Serial issue is conflict-free; grouped cycles never exceed the
        // serial count and never undercut the group count.
        prop_assert_eq!(serial.stats().conflict_cycles, 0);
        prop_assert!(grouped.stats().cycles() <= serial.stats().cycles());
        prop_assert!(grouped.stats().cycles() >= writes.len().div_ceil(group) as u64);
    }
}
