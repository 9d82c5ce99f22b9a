//! Plan units sharing one cache key whose compute fans out on the pool.
//!
//! The compute runs while its caller holds the key's slot lock, and fans
//! out with `par_iter`. If a caller waiting on that fan-out took any
//! queued job, it could take a sibling unit that asks for the same key
//! and block on the lock it already holds. Callers help only with work
//! they wait on, so the plan must finish; a watchdog turns a deadlock
//! into a failure.

use escalate_bench::experiments::ExpError;
use escalate_bench::plan::{execute, RunPlan, TableSink, UnitOutput, WorkUnit};
use escalate_core::cache::SingleFlightCache;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

struct SharedKey {
    cache: SingleFlightCache<u32, u64>,
    computes: AtomicUsize,
}

impl RunPlan for SharedKey {
    fn name(&self) -> &str {
        "shared-key"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok((0..6)
            .map(|i| WorkUnit {
                key: format!("u{i}"),
                seed: i as u64,
                index: i,
            })
            .collect())
    }

    fn run_unit(&self, _unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let look = self.cache.get_or_compute(7, || {
            self.computes.fetch_add(1, Ordering::Relaxed);
            let parts: Vec<u64> = (0..16u64)
                .into_par_iter()
                .map(|i| {
                    std::thread::sleep(Duration::from_millis(2));
                    i * i
                })
                .collect();
            Ok::<u64, ExpError>(parts.iter().sum())
        })?;
        assert_eq!(look.value, 1240);
        Ok(UnitOutput::default())
    }
}

/// Runs the plan on a pool of `width` threads under a 60 s watchdog.
pub fn finishes_at_width(width: usize) {
    assert_eq!(escalate_core::par::configure_threads(width), width);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let plan = SharedKey {
            cache: SingleFlightCache::new(0),
            computes: AtomicUsize::new(0),
        };
        let ran = execute(&plan, &mut TableSink::default()).map(|s| s.ran);
        tx.send((ran.map_err(|e| e.to_string()), plan.computes.into_inner()))
            .expect("watchdog waits");
    });
    let (ran, computes) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("plan units sharing a cache key deadlocked");
    assert_eq!(ran, Ok(6));
    assert_eq!(computes, 1, "the key is computed once");
}
