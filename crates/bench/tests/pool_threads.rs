//! Nested plans add jobs to the one pool, never threads: the innermost
//! units of a plan nested two deep see exactly the threads the process
//! had once the pool was warm. A thread count is process-wide, so this
//! test has its own binary.
#![cfg(target_os = "linux")]

use escalate_bench::experiments::ExpError;
use escalate_bench::plan::{execute, RunPlan, TableSink, UnitOutput, WorkUnit};
use rayon::prelude::*;
use std::sync::Mutex;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Four units; at `depth` 0 each records the thread count, otherwise
/// each runs the same plan one level shallower.
struct Nest<'a> {
    depth: usize,
    counts: &'a Mutex<Vec<usize>>,
}

impl RunPlan for Nest<'_> {
    fn name(&self) -> &str {
        "nest"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok((0..4)
            .map(|i| WorkUnit {
                key: format!("d{}u{i}", self.depth),
                seed: i as u64,
                index: i,
            })
            .collect())
    }

    fn run_unit(&self, _unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        if self.depth == 0 {
            self.counts.lock().expect("counts").push(threads());
        } else {
            let inner = Nest {
                depth: self.depth - 1,
                counts: self.counts,
            };
            execute(&inner, &mut TableSink::default())?;
        }
        Ok(UnitOutput::default())
    }
}

#[test]
fn nested_plans_add_no_threads() {
    assert_eq!(escalate_core::par::configure_threads(4), 4);
    // Workers start with the pool's first job.
    let warmup: Vec<usize> = (0..8usize).into_par_iter().map(|i| i + 1).collect();
    assert_eq!(warmup.len(), 8);
    let warm = threads();
    let counts = Mutex::new(Vec::new());
    let plan = Nest {
        depth: 2,
        counts: &counts,
    };
    let summary = execute(&plan, &mut TableSink::default()).expect("runs");
    assert_eq!(summary.ran, 4);
    let counts = counts.into_inner().expect("counts");
    assert_eq!(counts.len(), 64, "every innermost unit ran");
    assert!(
        counts.iter().all(|&n| n == warm),
        "the warm pool had {warm} threads, the innermost units saw {counts:?}"
    );
}
