//! The shared run-plan layer: one machinery for "enumerate work units,
//! run them deterministically in parallel, render to a sink".
//!
//! The experiment registry (paper figures), the design-space sweep, and
//! any future consumer (a served job queue, a pipelined-schedule study)
//! are the same shape: a [`RunPlan`] enumerates [`WorkUnit`]s — each
//! carrying a stable key and its own deterministic seed — [`execute`]
//! fans the pending units out over worker threads, and a [`UnitSink`]
//! consumes the outputs *sequentially in unit order*, each as soon as it
//! and every unit before it have finished (so output is byte-identical
//! to a serial run at any thread count, the same contract as
//! `core::par`). Sinks decide what persistence means: an in-memory
//! [`TableSink`] behind the `report` renderers (text and
//! `escalate-report/v1` JSON), the golden check/update sinks of the
//! report runner, a served job's client socket, or the append-only
//! [`jsonl::JsonlSink`] whose [`UnitSink::recorded`] set makes a run
//! resumable — already-recorded unit keys are skipped, not re-run, and
//! because the finished prefix reaches the sink while later units still
//! run, an interrupted run keeps every record it fed.
//!
//! Failure semantics: the first failing unit *in unit order* (or the
//! first sink write failure) aborts the run — earlier units' sink effects
//! persist, in-flight units finish and are discarded, and unclaimed units
//! never start.

pub mod jsonl;

pub use jsonl::JsonlSink;

use crate::experiments::{ExpError, Table};
use escalate_core::par::lock_recover;

/// One schedulable unit of work inside a [`RunPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Stable identity of the unit: the resume key a sink records, and
    /// the name failures are reported under. Two runs of the same plan
    /// with the same inputs must enumerate the same keys.
    pub key: String,
    /// The unit's own deterministic seed (derive via [`unit_seed`]); what
    /// makes a unit reproducible independently of which other units run.
    pub seed: u64,
    /// Position in the plan's enumeration order (the order sinks see).
    pub index: usize,
}

/// What one executed unit hands to the sink.
#[derive(Debug, Clone, Default)]
pub struct UnitOutput {
    /// Structured table fragment (text lines + typed records) — the
    /// report renderers consume this.
    pub table: Table,
    /// Stream records (one complete JSON object per line) for JSONL
    /// sinks. Each line should carry a `"key"` field equal to the unit's
    /// key so a later run can resume past it.
    pub jsonl: Vec<String>,
}

impl UnitOutput {
    /// An output that is just a table, with no stream records.
    pub fn from_table(table: Table) -> UnitOutput {
        UnitOutput {
            table,
            jsonl: Vec::new(),
        }
    }
}

/// A plan: work-unit enumeration separated from per-unit execution.
///
/// Implementations must be pure in the harness sense: `run_unit` derives
/// everything from the unit (key/seed/index) and the plan's own
/// configuration, never from execution order — that is what lets
/// [`execute`] fan units out in parallel and lets a resumed run skip
/// recorded units without changing the survivors.
pub trait RunPlan: Sync {
    /// Plan name, for error messages and logs.
    fn name(&self) -> &str;

    /// Enumerates the plan's units, in sink order.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] when the plan's inputs are invalid.
    fn units(&self) -> Result<Vec<WorkUnit>, ExpError>;

    /// Runs one unit.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] on pipeline failures.
    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError>;

    /// Optionally reorders *execution* of the pending units (the ones the
    /// sink has not recorded): returns a permutation of `0..pending.len()`
    /// giving the order workers should claim work in, or `None` for
    /// enumeration order. The sink feed always stays in unit order, so a
    /// schedule changes cache locality — units sharing expensive derived
    /// state run adjacently — but never a single output byte. A returned
    /// vector that is not a permutation of `0..pending.len()` is ignored.
    fn schedule(&self, _pending: &[&WorkUnit]) -> Option<Vec<usize>> {
        None
    }
}

/// Consumes executed units, sequentially in unit order.
pub trait UnitSink {
    /// Whether `key` is already recorded — recorded units are skipped by
    /// [`execute`] (the resume path). Default: nothing is recorded.
    fn recorded(&self, _key: &str) -> bool {
        false
    }

    /// Writes one unit's output.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] when the sink cannot persist the output.
    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError>;
}

/// What [`execute`] did: how many units ran vs. resumed past.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// Units that executed this run.
    pub ran: usize,
    /// Units skipped because the sink had already recorded their keys.
    pub skipped: usize,
}

/// The splitmix64 increment (the golden ratio in 64 bits).
const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: mixes one 64-bit value into one output.
fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of a splitmix64 stream: advances `state` and returns the
/// stream's next value.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    splitmix64_finalize(*state)
}

/// Derives a work unit's seed from a plan-level master seed and the
/// unit's enumeration index (splitmix64 finalizer): sample `i` draws the
/// same seed whether the plan enumerates 2 units or 2000, and regardless
/// of which units a resumed run skips.
pub fn unit_seed(master: u64, index: u64) -> u64 {
    splitmix64_finalize(master ^ index.wrapping_mul(SPLITMIX64_GAMMA))
}

/// Checks that `order` is a permutation of `0..n`.
fn is_permutation(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &i in order {
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// Drives a plan into a sink: enumerate, drop units the sink already
/// recorded, run the rest, and feed each unit to the sink *as soon as it
/// and every unit before it have finished and the calling thread is free*
/// — a JSONL stream grows while the run is still going, so an interrupted
/// run keeps its finished prefix, and a served job's client sees records
/// as they complete.
///
/// Units are jobs of one [`rayon::scope`] on the process-wide pool, queued
/// in [`RunPlan::schedule`] order (enumeration order when the plan has
/// none, or returns something that is not a permutation), so
/// cache-friendly neighbours run adjacently. The calling thread runs the
/// first scheduled unit itself, then feeds the sink strictly in unit
/// order, helping with the plan's queued units while the next one is
/// unfinished; idle pool workers take the rest. A plan executed inside a
/// unit (an experiment calling [`crate::run_model`]) queues its units on
/// the same pool, so nesting adds jobs, not threads, and on a one-thread
/// pool every unit runs on the caller in schedule order. Neither the
/// schedule nor the pool size can change a byte the sink sees. The price
/// of a schedule that strays far from unit order is that the fed prefix
/// can wait on its slowest scheduled group.
///
/// The first failing unit *in unit order* (or the first sink write
/// failure) aborts the run: running units finish, but units not yet
/// started never start and nothing later reaches the sink.
///
/// # Errors
///
/// Returns the first failing unit's error in unit order, or the sink's
/// own write failure (earlier units' sink effects persist).
///
/// # Panics
///
/// Propagates a panicking `run_unit` once the units already running have
/// finished; units not yet started never start.
pub fn execute(plan: &dyn RunPlan, sink: &mut dyn UnitSink) -> Result<ExecSummary, ExpError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let units = plan.units()?;
    let mut pending: Vec<&WorkUnit> = Vec::with_capacity(units.len());
    let mut skipped = 0usize;
    for unit in &units {
        if sink.recorded(&unit.key) {
            skipped += 1;
        } else {
            pending.push(unit);
        }
    }
    let ran = pending.len();
    let order: Vec<usize> = match plan.schedule(&pending) {
        Some(o) if is_permutation(&o, pending.len()) => o,
        _ => (0..pending.len()).collect(),
    };
    // One slot per pending unit, filled when that unit finishes.
    let slots: Vec<Mutex<Option<Result<UnitOutput, ExpError>>>> =
        pending.iter().map(|_| Mutex::new(None)).collect();
    // Set on the first error in unit order: units not yet started skip.
    let abort = AtomicBool::new(false);
    let run = |i: usize| {
        if !abort.load(Ordering::Relaxed) {
            *lock_recover(&slots[i]) = Some(plan.run_unit(pending[i]));
        }
    };
    rayon::scope(|s| {
        let Some((&first, rest)) = order.split_first() else {
            return Ok(ExecSummary { ran, skipped });
        };
        for &i in rest {
            s.spawn(move || run(i));
        }
        run(first);
        for (i, unit) in pending.iter().enumerate() {
            let out = loop {
                if let Some(out) = lock_recover(&slots[i]).take() {
                    break out;
                }
                // No unit is queued or running, yet this slot is empty:
                // its unit panicked, and the scope resumes that panic.
                if !s.help() {
                    return Err(ExpError::Msg(format!("{} panicked", unit.key)));
                }
            };
            if let Err(e) = out.and_then(|o| sink.write_unit(unit, o)) {
                abort.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(ExecSummary { ran, skipped })
    })
}

/// A sink that accumulates every unit's table in unit order — the
/// in-memory backend of the report renderers.
#[derive(Debug, Default)]
pub struct TableSink {
    /// Collected tables, in unit order.
    pub tables: Vec<Table>,
}

impl UnitSink for TableSink {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        self.tables.push(out.table);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tline;

    /// A cheap deterministic plan: unit i renders one line derived from
    /// its own seed.
    struct Toy {
        n: usize,
        master: u64,
    }

    impl RunPlan for Toy {
        fn name(&self) -> &str {
            "toy"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            Ok((0..self.n)
                .map(|i| WorkUnit {
                    key: format!("u{i}"),
                    seed: unit_seed(self.master, i as u64),
                    index: i,
                })
                .collect())
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            let mut t = Table::new("toy", "test");
            tline!(t, "{} -> {:016x}", unit.key, unit.seed);
            Ok(UnitOutput::from_table(t))
        }
    }

    #[test]
    fn unit_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| unit_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| unit_seed(42, i)).collect();
        assert_eq!(a, b, "same master + index must reproduce");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "64 units drew a colliding seed");
        assert_ne!(unit_seed(1, 0), unit_seed(2, 0), "master seed matters");
    }

    #[test]
    fn splitmix64_is_the_reference_stream() {
        // The published splitmix64 outputs from state 0.
        let mut state = 0;
        let stream: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            stream,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
        // Unit 1 of master seed 0 finalizes the stream's first state.
        assert_eq!(unit_seed(0, 1), stream[0]);
    }

    #[test]
    fn execute_preserves_unit_order_in_the_sink() {
        let plan = Toy { n: 8, master: 7 };
        let mut sink = TableSink::default();
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 8, skipped: 0 });
        let rendered: Vec<String> = sink.tables.iter().map(|t| t.lines()[0].clone()).collect();
        for (i, line) in rendered.iter().enumerate() {
            assert!(line.starts_with(&format!("u{i} ->")), "{line}");
        }
    }

    /// A sink that pretends some keys are already recorded.
    struct Skipping {
        have: Vec<String>,
        inner: TableSink,
    }

    impl UnitSink for Skipping {
        fn recorded(&self, key: &str) -> bool {
            self.have.iter().any(|k| k == key)
        }

        fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
            self.inner.write_unit(unit, out)
        }
    }

    #[test]
    fn execute_skips_exactly_the_recorded_keys() {
        // Interior keys, then the two ends of the plan.
        for (have, survivors) in [
            (["u1", "u3"], ["u0", "u2", "u4"]),
            (["u0", "u4"], ["u1", "u2", "u3"]),
        ] {
            let plan = Toy { n: 5, master: 3 };
            let mut sink = Skipping {
                have: have.map(String::from).to_vec(),
                inner: TableSink::default(),
            };
            let summary = execute(&plan, &mut sink).expect("runs");
            assert_eq!(summary, ExecSummary { ran: 3, skipped: 2 });
            let keys: Vec<&str> = sink
                .inner
                .tables
                .iter()
                .map(|t| t.lines()[0].split_whitespace().next().expect("key"))
                .collect();
            assert_eq!(keys, survivors, "survivors keep their order");
        }
    }

    struct Poisoned;

    impl RunPlan for Poisoned {
        fn name(&self) -> &str {
            "poisoned"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            Ok(["u0", "u-poison", "u2"]
                .iter()
                .enumerate()
                .map(|(i, k)| WorkUnit {
                    key: (*k).into(),
                    seed: unit_seed(0, i as u64),
                    index: i,
                })
                .collect())
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            if unit.key == "u-poison" {
                return Err(ExpError::Msg("poisoned unit".into()));
            }
            let mut t = Table::new("p", "t");
            tline!(t, "{}", unit.key);
            Ok(UnitOutput::from_table(t))
        }
    }

    #[test]
    fn first_failure_in_unit_order_aborts_after_earlier_writes() {
        let mut sink = TableSink::default();
        let err = execute(&Poisoned, &mut sink).expect_err("must fail");
        assert!(err.to_string().contains("poisoned unit"));
        // u0 (before the failure) reached the sink; u2 (after) did not.
        assert_eq!(sink.tables.len(), 1);
        assert_eq!(sink.tables[0].lines()[0], "u0");
    }

    /// A sink whose write fails on a chosen unit — exercises the abort
    /// path where the *sink*, not the unit, errors mid-stream (the
    /// disconnected-client case of a served job).
    struct FailingSink {
        fail_on: String,
        written: Vec<String>,
    }

    impl UnitSink for FailingSink {
        fn write_unit(&mut self, unit: &WorkUnit, _out: UnitOutput) -> Result<(), ExpError> {
            if unit.key == self.fail_on {
                return Err(ExpError::Msg(format!("sink lost {}", unit.key)));
            }
            self.written.push(unit.key.clone());
            Ok(())
        }
    }

    /// A plan with a custom execution schedule (reverse order, or a
    /// deliberately malformed one) that records what `schedule` was
    /// offered.
    struct Scheduled {
        inner: Toy,
        order: Vec<usize>,
        offered: std::sync::Mutex<Vec<String>>,
    }

    impl RunPlan for Scheduled {
        fn name(&self) -> &str {
            "scheduled"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            self.inner.units()
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            self.inner.run_unit(unit)
        }

        fn schedule(&self, pending: &[&WorkUnit]) -> Option<Vec<usize>> {
            *self.offered.lock().expect("lock") = pending.iter().map(|u| u.key.clone()).collect();
            Some(self.order.clone())
        }
    }

    #[test]
    fn schedule_sees_only_pending_units_and_never_changes_sink_order() {
        // u1/u3 are already recorded; the schedule is offered the other
        // three and reverses their execution order — the sink feed must
        // come out in unit order regardless.
        let plan = Scheduled {
            inner: Toy { n: 5, master: 9 },
            order: vec![2, 1, 0],
            offered: std::sync::Mutex::new(Vec::new()),
        };
        let mut sink = Skipping {
            have: vec!["u1".into(), "u3".into()],
            inner: TableSink::default(),
        };
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 3, skipped: 2 });
        assert_eq!(
            *plan.offered.lock().expect("lock"),
            ["u0", "u2", "u4"],
            "schedule is offered exactly the pending units"
        );
        let keys: Vec<&str> = sink
            .inner
            .tables
            .iter()
            .map(|t| t.lines()[0].split_whitespace().next().expect("key"))
            .collect();
        assert_eq!(keys, ["u0", "u2", "u4"], "sink order is unit order");
    }

    #[test]
    fn scheduled_and_unscheduled_runs_render_identically() {
        let plain = Toy { n: 8, master: 21 };
        let mut a = TableSink::default();
        execute(&plain, &mut a).expect("plain");
        let scheduled = Scheduled {
            inner: Toy { n: 8, master: 21 },
            order: (0..8).rev().collect(),
            offered: std::sync::Mutex::new(Vec::new()),
        };
        let mut b = TableSink::default();
        execute(&scheduled, &mut b).expect("scheduled");
        let render = |s: &TableSink| -> Vec<String> {
            s.tables.iter().map(|t| t.lines()[0].clone()).collect()
        };
        assert_eq!(render(&a), render(&b), "a schedule may not change bytes");
    }

    #[test]
    fn malformed_schedules_fall_back_to_enumeration_order() {
        for bad in [vec![0, 0, 2], vec![0, 1], vec![0, 1, 7]] {
            let plan = Scheduled {
                inner: Toy { n: 3, master: 1 },
                order: bad,
                offered: std::sync::Mutex::new(Vec::new()),
            };
            let mut sink = TableSink::default();
            let summary = execute(&plan, &mut sink).expect("runs");
            assert_eq!(summary, ExecSummary { ran: 3, skipped: 0 });
            assert_eq!(sink.tables.len(), 3, "all units still ran");
        }
    }

    #[test]
    fn execute_stops_feeding_after_a_sink_failure() {
        let plan = Toy { n: 6, master: 5 };
        let mut sink = FailingSink {
            fail_on: "u2".into(),
            written: Vec::new(),
        };
        let err = execute(&plan, &mut sink).expect_err("sink fails");
        assert!(err.to_string().contains("sink lost u2"));
        assert_eq!(sink.written, ["u0", "u1"], "writes stop at the failure");
    }

    #[test]
    fn unclaimed_units_never_start_after_a_failure() {
        // u0 fails at once while every later unit takes a while: the
        // abort must stop the claims long before the tail of the plan.
        struct FailsFirst {
            started: std::sync::atomic::AtomicUsize,
        }
        impl RunPlan for FailsFirst {
            fn name(&self) -> &str {
                "fails-first"
            }

            fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
                Toy { n: 100, master: 2 }.units()
            }

            fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
                self.started
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if unit.index == 0 {
                    return Err(ExpError::Msg("first unit failed".into()));
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(UnitOutput::default())
            }
        }
        let plan = FailsFirst {
            started: std::sync::atomic::AtomicUsize::new(0),
        };
        let mut sink = TableSink::default();
        let err = execute(&plan, &mut sink).expect_err("u0 fails");
        assert!(err.to_string().contains("first unit failed"));
        assert!(sink.tables.is_empty());
        let started = plan.started.into_inner();
        assert!(started < 100, "all {started} units started after the abort");
    }

    /// Every unit after the first blocks (for at most 10 s) until unit 0
    /// has reached the sink, and fails if it never does.
    #[derive(Default)]
    struct WaitsForPrefix {
        first_fed: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl RunPlan for WaitsForPrefix {
        fn name(&self) -> &str {
            "waits-for-prefix"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            Toy { n: 4, master: 6 }.units()
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            if unit.index > 0 {
                let fed = self.first_fed.lock().expect("lock");
                let (fed, _) = self
                    .cv
                    .wait_timeout_while(fed, std::time::Duration::from_secs(10), |fed| !*fed)
                    .expect("lock");
                if !*fed {
                    return Err(ExpError::Msg(format!(
                        "{} timed out waiting for u0 to reach the sink",
                        unit.key
                    )));
                }
            }
            Toy { n: 4, master: 6 }.run_unit(unit)
        }
    }

    /// A table sink that wakes [`WaitsForPrefix`] when unit 0 arrives.
    struct SignalsFirst<'a> {
        plan: &'a WaitsForPrefix,
        inner: TableSink,
    }

    impl UnitSink for SignalsFirst<'_> {
        fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
            if unit.index == 0 {
                *self.plan.first_fed.lock().expect("lock") = true;
                self.plan.cv.notify_all();
            }
            self.inner.write_unit(unit, out)
        }
    }

    #[test]
    fn finished_prefix_reaches_the_sink_before_later_units_finish() {
        let plan = WaitsForPrefix::default();
        let mut sink = SignalsFirst {
            plan: &plan,
            inner: TableSink::default(),
        };
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 4, skipped: 0 });
        assert_eq!(sink.inner.tables.len(), 4);
    }
}
