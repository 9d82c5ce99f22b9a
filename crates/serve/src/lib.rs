//! `escalate serve`: a batching simulation daemon on the run-plan layer.
//!
//! The daemon speaks a hand-rolled line-JSON protocol over TCP
//! (`escalate-serve/v1`, one JSON object per line in both directions;
//! see [`proto`]). Clients submit `simulate` / `compress` / `report`
//! jobs; each accepted job compiles into a [`RunPlan`] and executes
//! through the run-plan layer's one executor ([`execute`]) over the
//! shared worker pool, streaming `escalate-run-manifest/v1` unit records
//! back down the socket as each unit and every unit before it complete. Identical configs in flight dedupe through the
//! bench crate's single-flight artifact cache; the job queue is
//! bounded, rejecting with a `retry_after_ms` hint under backpressure;
//! shutdown drains queued jobs before the listener exits.
//!
//! [`RunPlan`]: escalate_bench::plan::RunPlan
//! [`execute`]: escalate_bench::plan::execute

pub mod client;
pub mod job;
pub mod proto;
pub mod server;

pub use client::submit;
pub use job::CompiledJob;
pub use proto::{parse_request, read_frame, write_frame, Request};
pub use server::{start, Handle, ServeOptions, ServeSummary};
