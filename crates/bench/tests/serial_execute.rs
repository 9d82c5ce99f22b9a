//! `plan::execute` on a one-thread pool, where it runs every unit on the
//! calling thread: the sink still sees unit order under any schedule, the
//! first failure in unit order still ends the run, and the finished prefix
//! still reaches the sink before later units run. The pool is
//! process-wide, so these tests live in their own binary and pin it to
//! one thread before anything else sizes it.

use escalate_bench::experiments::{ExpError, Table};
use escalate_bench::plan::{execute, RunPlan, UnitOutput, UnitSink, WorkUnit};
use std::sync::Mutex;

fn one_thread() {
    assert_eq!(escalate_core::par::configure_threads(1), 1);
}

/// Units `u0..u{n}`; `fail` names a failing unit; every unit logs that it
/// ran; `order` is the claim schedule.
struct Logged {
    n: usize,
    order: Vec<usize>,
    fail: Option<usize>,
    ran: Mutex<Vec<usize>>,
}

impl RunPlan for Logged {
    fn name(&self) -> &str {
        "logged"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok((0..self.n)
            .map(|i| WorkUnit {
                key: format!("u{i}"),
                seed: i as u64,
                index: i,
            })
            .collect())
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        self.ran.lock().expect("log").push(unit.index);
        if self.fail == Some(unit.index) {
            return Err(ExpError::Msg(format!("{} failed", unit.key)));
        }
        Ok(UnitOutput::from_table(Table::new(&unit.key, "test")))
    }

    fn schedule(&self, _pending: &[&WorkUnit]) -> Option<Vec<usize>> {
        Some(self.order.clone())
    }
}

/// Records the unit order it is fed and which units had run by then.
#[derive(Default)]
struct Fed {
    keys: Vec<String>,
    ran_before: Vec<usize>,
}

struct Watching<'a> {
    plan: &'a Logged,
    fed: Fed,
}

impl UnitSink for Watching<'_> {
    fn write_unit(&mut self, unit: &WorkUnit, _out: UnitOutput) -> Result<(), ExpError> {
        self.fed.keys.push(unit.key.clone());
        self.fed
            .ran_before
            .push(self.plan.ran.lock().expect("log").len());
        Ok(())
    }
}

fn run(plan: &Logged) -> (Result<usize, String>, Fed) {
    let mut sink = Watching {
        plan,
        fed: Fed::default(),
    };
    let result = execute(plan, &mut sink)
        .map(|s| s.ran)
        .map_err(|e| e.to_string());
    (result, sink.fed)
}

#[test]
fn a_one_thread_pool_feeds_unit_order_as_soon_as_the_prefix_is_done() {
    one_thread();
    let plan = Logged {
        n: 4,
        order: vec![3, 0, 1, 2],
        fail: None,
        ran: Mutex::new(Vec::new()),
    };
    let (result, fed) = run(&plan);
    assert_eq!(result, Ok(4));
    assert_eq!(*plan.ran.lock().expect("log"), [3, 0, 1, 2], "claim order");
    assert_eq!(fed.keys, ["u0", "u1", "u2", "u3"], "sink order");
    // u3 ran first but waited for u0..u2; each of those was fed as soon
    // as it ran.
    assert_eq!(fed.ran_before, [2, 3, 4, 4]);
}

#[test]
fn a_one_thread_pool_stops_at_the_first_failure_in_unit_order() {
    one_thread();
    // u2 fails first in claim order, but u0 and u1 (claimed after it) are
    // earlier in unit order: they run and reach the sink, the run ends at
    // u2, and u3 never starts.
    let plan = Logged {
        n: 4,
        order: vec![2, 0, 1, 3],
        fail: Some(2),
        ran: Mutex::new(Vec::new()),
    };
    let (result, fed) = run(&plan);
    assert_eq!(result, Err("u2 failed".to_string()));
    assert_eq!(fed.keys, ["u0", "u1"]);
    assert_eq!(*plan.ran.lock().expect("log"), [2, 0, 1]);
}
