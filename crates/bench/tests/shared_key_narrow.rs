//! Plan units sharing one cache key finish on a two-thread pool (see
//! `support/shared_key.rs`). The pool is sized once per process, so
//! each width has its own binary.

#[path = "support/shared_key.rs"]
mod shared_key;

#[test]
fn units_sharing_a_key_finish_on_two_threads() {
    shared_key::finishes_at_width(2);
}
