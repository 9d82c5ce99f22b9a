//! `std::arch` fast paths for the position kernel.
//!
//! Everything here is a *speed* path, never a *result* path: each
//! intrinsic computes bit-for-bit what the portable code computes
//! (`_pext_u64` is exactly [`escalate_sparse::gather_bits`] with the
//! operands in pext order; `_mm256_or_si256` is four `|`s), so taking
//! the fast path can never change a simulation. `tests/kernel_diff.rs`
//! pins the equivalence by running the kernel with the dispatch forced
//! off against the default dispatch.
//!
//! Dispatch is resolved at runtime with `is_x86_feature_detected!` — the
//! same binary is correct on hosts without the instructions (they take
//! the portable path), and on non-x86_64 targets this module compiles to
//! the constant `false` gate with no `std::arch` use at all.

use std::sync::atomic::{AtomicU8, Ordering};

/// Cached detection verdict: 0 = unknown, 1 = unavailable, 2 = available.
static CAPS: AtomicU8 = AtomicU8::new(0);
/// Test override: when nonzero the fast path is forced off regardless of
/// host capabilities.
static FORCED_OFF: AtomicU8 = AtomicU8::new(0);

/// Whether this host has every instruction the fast path uses
/// (`popcnt` + `bmi2` + `avx2`). Detected once, then cached.
pub fn available() -> bool {
    match CAPS.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let ok = detect();
            CAPS.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
            ok
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("popcnt")
        && std::arch::is_x86_feature_detected!("bmi2")
        && std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// Forces the portable path when `on` is `false` (and restores runtime
/// dispatch when `true`). A process-global test knob: the differential
/// suite uses it to prove the two paths byte-identical on the same host.
pub fn set_enabled(on: bool) {
    FORCED_OFF.store(u8::from(!on), Ordering::Relaxed);
}

/// Whether the fast path will actually be taken: available on this host
/// and not forced off by [`set_enabled`].
pub fn enabled() -> bool {
    FORCED_OFF.load(Ordering::Relaxed) == 0 && available()
}

/// Parallel bit extract: bits of `data` at the set positions of `mask`,
/// packed toward bit 0 in order — identical to
/// `escalate_sparse::gather_bits(data, mask)`.
///
/// # Safety
///
/// The host must support `bmi2` (callers dispatch on [`enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
pub unsafe fn pext(data: u64, mask: u64) -> u64 {
    core::arch::x86_64::_pext_u64(data, mask)
}

/// `dst[i] |= src[i]` over whole 256-bit lanes (scalar tail) — the
/// per-word coefficient-union fold of `LayerPlan`/`bind`.
///
/// # Safety
///
/// The host must support `avx2` (callers dispatch on [`enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn or_words_into(dst: &mut [u64], src: &[u64]) {
    use core::arch::x86_64::{_mm256_loadu_si256, _mm256_or_si256, _mm256_storeu_si256};
    assert_eq!(dst.len(), src.len(), "union fold over equal word counts");
    let lanes = dst.len() / 4 * 4;
    for i in (0..lanes).step_by(4) {
        // SAFETY: i + 4 <= len on both slices; loadu/storeu take
        // unaligned pointers.
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_or_si256(d, s));
        }
    }
    for i in lanes..dst.len() {
        dst[i] |= src[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert_eq!(enabled(), available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pext_matches_gather_bits() {
        if !available() {
            return; // nothing to check on hosts without bmi2
        }
        let mut state = 0xfeed_5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..200 {
            let data = next();
            let mask = next();
            // SAFETY: availability checked above.
            let fast = unsafe { pext(data & mask, mask) };
            assert_eq!(fast, escalate_sparse::gather_bits(data & mask, mask));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn or_words_matches_scalar() {
        if !available() {
            return;
        }
        for len in [0usize, 1, 3, 4, 7, 8, 13] {
            let a: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
            let b: Vec<u64> = (0..len as u64).map(|i| !i.rotate_left(17)).collect();
            let mut fast = a.clone();
            // SAFETY: availability checked above.
            unsafe { or_words_into(&mut fast, &b) };
            let slow: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
            assert_eq!(fast, slow, "len={len}");
        }
    }
}
