#![warn(missing_docs)]

//! Zero-dependency observability layer for the ESCALATE workspace:
//! counters, log₂ histograms, and wall-clock timing spans, aggregated in a
//! thread-safe [`Registry`] and exportable as JSON.
//!
//! # Design
//!
//! The workspace's simulation hot paths must stay allocation-free, so this
//! crate follows two rules:
//!
//! 1. **No recorder installed → no work.** The process-global recorder
//!    slot ([`global`]) starts empty; every global helper ([`counter_add`],
//!    [`span`]) returns immediately — without reading the clock or
//!    allocating — when nothing is installed. Simulation outputs are
//!    bit-identical whether or not a recorder is present, because
//!    observers only *read* the event stream.
//! 2. **Hot loops aggregate locally, flush coarsely.** Per-event APIs on
//!    the [`Registry`] take one short mutex each; code on a per-position
//!    hot path (millions of events per layer) should fold events into
//!    plain local fields and flush once per layer — see
//!    `escalate_sim::observe::ObsObserver` for the canonical adapter, and
//!    [`SpanBatch`] for spans timed inside such a loop.
//!
//! Metric names are dot-separated static strings (`"sim.ca_adds"`,
//! `"pipeline.decompose"`); labeled variants append `/label`
//! (`"bench.accelerator/ESCALATE"`). Keys are stored in `BTreeMap`s so
//! every export is deterministically ordered.
//!
//! # Examples
//!
//! ```
//! use escalate_obs::Registry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! reg.counter_add("demo.events", 3);
//! reg.observe("demo.cycles", 17);
//! {
//!     let _timer = reg.span("demo.stage");
//!     // ... timed work ...
//! }
//! assert_eq!(reg.counter("demo.events"), 3);
//! let json = reg.to_json();
//! assert!(json.contains("\"demo.events\": 3"));
//! ```

pub mod histogram;
pub mod json;
pub mod jsonl;
pub mod registry;

pub use histogram::Histogram;
pub use json::JsonWriter;
pub use jsonl::{
    json_bool_field, json_f64_field, json_has_field, json_string_field, json_u64_field, JsonlWriter,
};
pub use registry::{Registry, Snapshot, SpanBatch, SpanStats, SpanTimer};

use std::sync::{Arc, RwLock};

/// The process-global recorder slot. Empty until [`install`] is called.
static GLOBAL: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// Installs `registry` as the process-global recorder, returning the
/// previously installed one (if any).
///
/// Everything wired through the global helpers — pipeline stage spans,
/// bench cache counters, the simulation engine's per-layer flushes —
/// starts recording into it. Installation is process-wide: concurrent
/// runs share one registry, so callers that need isolated numbers (tests,
/// libraries) should pass a [`Registry`] explicitly instead.
pub fn install(registry: Arc<Registry>) -> Option<Arc<Registry>> {
    GLOBAL
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .replace(registry)
}

/// Removes and returns the process-global recorder, if one was installed.
/// Subsequent global helpers become no-ops again.
pub fn uninstall() -> Option<Arc<Registry>> {
    GLOBAL
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
}

/// The installed global recorder, or `None`. The `Arc` clone is the only
/// cost when a recorder is installed; when none is, this is one read lock.
pub fn global() -> Option<Arc<Registry>> {
    GLOBAL
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Adds `v` to the named counter on the global recorder (no-op when none
/// is installed).
pub fn counter_add(name: &str, v: u64) {
    if let Some(reg) = global() {
        reg.counter_add(name, v);
    }
}

/// Adds `v` to the `name/label` counter on the global recorder (no-op
/// when none is installed).
pub fn counter_add_labeled(name: &str, label: &str, v: u64) {
    if let Some(reg) = global() {
        reg.counter_add_labeled(name, label, v);
    }
}

/// Records `v` into the named histogram on the global recorder (no-op
/// when none is installed).
pub fn observe(name: &str, v: u64) {
    if let Some(reg) = global() {
        reg.observe(name, v);
    }
}

/// Starts a timing span against the global recorder. When no recorder is
/// installed the returned guard holds nothing and never reads the clock.
pub fn span(name: &'static str) -> SpanTimer {
    SpanTimer::start(global(), name, None)
}

/// Starts a [`SpanBatch`] against the global recorder: a hot loop times
/// each instance locally and the batch records them all in one flush when
/// it drops. When no recorder is installed it never reads the clock.
pub fn span_batch(name: &'static str) -> SpanBatch {
    SpanBatch::start(global(), name)
}

/// [`span`] with a dynamic label: the span records under `name/label`.
/// The label is only copied when a recorder is installed.
pub fn span_labeled(name: &'static str, label: &str) -> SpanTimer {
    let reg = global();
    let label = reg.as_ref().map(|_| label.to_string());
    SpanTimer::start(reg, name, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-slot tests share one process-wide slot, so they run as one
    // test to avoid install/uninstall races between parallel test threads.
    #[test]
    fn global_slot_lifecycle() {
        // Nothing installed: helpers are no-ops.
        assert!(global().is_none());
        counter_add("t.noop", 1);
        observe("t.noop", 1);
        drop(span("t.noop"));
        drop(span_labeled("t.noop", "x"));
        span_batch("t.noop").time(|| ());

        let reg = Arc::new(Registry::new());
        assert!(install(Arc::clone(&reg)).is_none());
        counter_add("t.global", 2);
        counter_add_labeled("t.global", "lbl", 3);
        observe("t.hist", 9);
        drop(span("t.span"));
        drop(span_labeled("t.span", "x"));
        span_batch("t.batch").time(|| ());
        assert_eq!(reg.counter("t.global"), 2);
        assert_eq!(reg.counter("t.global/lbl"), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["t.hist"].count(), 1);
        assert_eq!(snap.spans["t.span"].count, 1);
        assert_eq!(snap.spans["t.span/x"].count, 1);
        assert_eq!(snap.spans["t.batch"].count, 1);

        // Replacing returns the old registry; uninstall empties the slot.
        let other = Arc::new(Registry::new());
        let prev = install(other).expect("previous registry returned");
        assert!(Arc::ptr_eq(&prev, &reg));
        assert!(uninstall().is_some());
        assert!(global().is_none());
        counter_add("t.after", 1); // no-op again
        assert_eq!(reg.counter("t.after"), 0);
    }
}
