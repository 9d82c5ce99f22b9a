//! Process-wide threading knob for every parallel stage of the workspace
//! (compression units, simulation seeds, layers, the accelerator
//! comparison, and every run plan's units).
//!
//! All of them run on the vendored rayon shim's one persistent pool, so
//! one setting governs everything. Resolution order for its size:
//!
//! 1. An explicit request (`SimConfig::threads`, the CLI's `--threads`).
//! 2. The `ESCALATE_THREADS` environment variable.
//! 3. The machine's available parallelism.
//!
//! The pool is sized once per process, by the first [`configure_threads`]
//! call or the first parallel call. A run that asks for one thread in a
//! process whose pool is already wider (a test binary, the daemon) takes
//! the `threads == 1` forks at the layer and seed fan-outs instead, which
//! run on the caller without touching the pool; the determinism suites
//! compare every wider run against those forks.
//!
//! Every parallel stage is order-preserving and seeds its RNGs
//! independently per work item, so results are bit-identical for any
//! thread count, including 1.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "ESCALATE_THREADS";

/// Locks a mutex, recovering the data from a poisoned lock instead of
/// cascading the panic: every value the workspace's parallel stages share
/// behind a lock (cache slots, a plan's result slots, the daemon's queue)
/// is valid at every instant, so one panicking worker must not take the
/// others down.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses a positive-integer override from the environment.
///
/// `None` when `var` is unset. When it is set but not a positive integer
/// (garbage, `0`, negative), prints a one-line warning to stderr and
/// returns `None` so the caller falls back to its default — previously
/// such values were silently swallowed, which made a typo'd
/// `ESCALATE_THREADS=O8` indistinguishable from an unset one.
pub fn positive_env(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let parsed = parse_positive(&raw);
    if parsed.is_none() {
        eprintln!("warning: ignoring {var}={raw:?}: expected a positive integer");
    }
    parsed
}

/// The strict variant of [`positive_env`] for long-running entry points:
/// an invalid value is an error the caller must surface, not a warning
/// followed by a silent fallback. A one-shot run tolerates a fallback; a
/// daemon that starts with a half-parsed environment serves the wrong
/// configuration for its whole lifetime.
///
/// `Ok(None)` when `var` is unset, `Ok(Some(n))` for a positive integer.
///
/// # Errors
///
/// A set-but-invalid value returns a user-facing message naming the
/// variable and the offending value.
pub fn strict_positive_env(var: &str) -> Result<Option<u64>, String> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => parse_positive(&raw).map(Some).ok_or_else(|| {
            format!("{var}={raw:?}: expected a positive integer (refusing to fall back)")
        }),
    }
}

/// The pure parser behind [`positive_env`]: `Some(n)` for a positive
/// integer (surrounding whitespace allowed), `None` otherwise.
fn parse_positive(raw: &str) -> Option<u64> {
    raw.trim().parse::<u64>().ok().filter(|&n| n > 0)
}

fn env_threads() -> Option<usize> {
    positive_env(THREADS_ENV).map(|n| n as usize)
}

/// Resolves a requested thread count (`0` = auto) against the
/// `ESCALATE_THREADS` environment variable and the machine size.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Configures the global pool to `requested` threads (`0` = auto) and
/// returns the size the pool actually has.
///
/// The first call wins: the pool is built once per process, so harness
/// entry points call this before any parallel work, and a later call with
/// a different count changes nothing.
pub fn configure_threads(requested: usize) -> usize {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(resolve_threads(requested))
        .build_global();
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn auto_resolves_to_positive() {
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn parse_positive_accepts_only_positive_integers() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 12 "), Some(12));
        assert_eq!(parse_positive("0"), None);
        assert_eq!(parse_positive("-3"), None);
        assert_eq!(parse_positive("eight"), None);
        assert_eq!(parse_positive(""), None);
    }

    #[test]
    fn positive_env_warns_on_garbage_and_reads_valid_values() {
        // One test (not several) so the env mutations cannot race each
        // other under the parallel test runner; the variable names are
        // unique to this test.
        std::env::set_var("ESCALATE_PAR_TEST_BAD", "many");
        assert_eq!(positive_env("ESCALATE_PAR_TEST_BAD"), None);
        std::env::set_var("ESCALATE_PAR_TEST_ZERO", "0");
        assert_eq!(positive_env("ESCALATE_PAR_TEST_ZERO"), None);
        std::env::set_var("ESCALATE_PAR_TEST_OK", " 6 ");
        assert_eq!(positive_env("ESCALATE_PAR_TEST_OK"), Some(6));
        assert_eq!(positive_env("ESCALATE_PAR_TEST_UNSET"), None);
    }

    #[test]
    fn strict_positive_env_errors_instead_of_falling_back() {
        // Unique variable names so the env mutations cannot race other
        // tests under the parallel runner.
        std::env::set_var("ESCALATE_PAR_STRICT_BAD", "O8");
        let e = strict_positive_env("ESCALATE_PAR_STRICT_BAD").unwrap_err();
        assert!(e.contains("ESCALATE_PAR_STRICT_BAD") && e.contains("O8"));
        std::env::set_var("ESCALATE_PAR_STRICT_OK", "4");
        assert_eq!(strict_positive_env("ESCALATE_PAR_STRICT_OK"), Ok(Some(4)));
        assert_eq!(strict_positive_env("ESCALATE_PAR_STRICT_UNSET"), Ok(None));
    }

    #[test]
    fn configure_is_idempotent() {
        let first = configure_threads(2);
        let second = configure_threads(7);
        assert_eq!(first, second, "the first configuration must win");
        assert_eq!(first, rayon::current_num_threads());
    }
}
