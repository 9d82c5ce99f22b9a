//! Seeded synthetic weight and activation generators.
//!
//! There is no offline DNN-training ecosystem, so trained checkpoints are
//! replaced by synthetic tensors that preserve the properties the ESCALATE
//! pipeline and simulators actually consume:
//!
//! - **Weights** are generated with a controllable *effective kernel rank*:
//!   each 2-D kernel is a linear combination of `rank` shared latent
//!   kernels plus scaled Gaussian noise, mirroring the empirical low-rank
//!   structure kernel decomposition exploits (PENNI's observation), and the
//!   combination coefficients are long-tailed so that ternary pruning at a
//!   threshold produces realistic sparsity.
//! - **Activations** are Gaussian maps passed through a quantile threshold
//!   ("synthetic ReLU") that hits a requested sparsity exactly, with mild
//!   spatial correlation so nonzeros cluster the way feature maps do.
//!
//! # Two-phase generation
//!
//! Every Gaussian is a Box–Muller draw `sqrt(-2 ln u1) · cos(2π u2)`, and
//! each uniform consumes one `next_u64` of which only the top 24 bits
//! survive. So each generator works in bounded chunks of three phases:
//!
//! 1. draw the raw stream serially, in the fixed per-draw order, keeping
//!    each uniform's 24-bit index and each `gen_bool` verdict (as the sign
//!    bit it puts on its coefficient);
//! 2. turn the index pairs into Gaussians in batches;
//! 3. run the tail over the converted chunk: the coefficient magnitudes'
//!    `ln_1p` in one batch, the sign as an XOR of that bit, then the latent
//!    sums and noise, and finally the normalization.
//!
//! Phase 2 takes an AVX2+FMA kernel when the host has both (detected once
//! at runtime — the same condition under which glibc selects its FMA
//! `logf`/`cosf`). The kernel evaluates glibc 2.36's FMA `logf` and `cosf`
//! (the ARM optimized-routines algorithms and tables) eight lanes at a
//! time, so it reproduces the host libm bit for bit on the two domains it
//! sees; the tests check both exhaustively, over all 2^24 indices, against
//! the scalar expression. Phase 3's batch `ln_1p` is glibc 2.36's
//! `log1pf`, fdlibm's float algorithm, which the host libm builds without
//! FMA: the kernel performs its float operations in its order, eight lanes
//! at a time, and picks each lane's branch with a blend. Its inputs `|g|`
//! are at most the largest radius (`|cos| ≤ 1`, and rounding is
//! monotone), below `f32::from_bits(0x40B5_0000)`; an ignored test checks
//! every f32 from 0 up to that bound against the host libm, and the
//! default suite a sample of them. Other hosts and every batch tail
//! evaluate the scalar expression through the host libm.

use crate::layer::{LayerKind, LayerShape};
use escalate_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Kernels per weight-synthesis chunk: bounds the phase buffers at a few
/// hundred kernels' draws, whatever the layer size.
const CHUNK_KERNELS: usize = 256;
/// Gaussians per chunk of a plain Gaussian run (latent kernels, pointwise
/// weights, activation maps).
const CHUNK_DRAWS: usize = 4096;
/// `2^-24`, the scale `gen_range` applies to a uniform's 24-bit index.
const UNIT: f32 = 1.0 / (1u32 << 24) as f32;
/// `2π` rounded to `f32`, the Box–Muller angle scale.
const TWO_PI: f32 = 2.0 * std::f32::consts::PI;

/// The 24-bit index of one uniform: `gen_range` over an `f32` range keeps
/// the top 24 bits of one `next_u64`.
fn uniform_index(rng: &mut StdRng) -> u32 {
    (rng.next_u64() >> 40) as u32
}

/// `u1 = gen_range(f32::EPSILON..1.0)` for index `i`, including the guard
/// against rounding up to the excluded endpoint.
fn uniform_u1(i: u32) -> f32 {
    let v = f32::EPSILON + (1.0 - f32::EPSILON) * (i as f32 * UNIT);
    if v >= 1.0 {
        f32::EPSILON
    } else {
        v
    }
}

/// Box–Muller radius `sqrt(-2 ln u1)` for `u1` index `i`, through the host
/// libm.
fn radius(i: u32) -> f32 {
    (-2.0 * uniform_u1(i).ln()).sqrt()
}

/// Box–Muller angle term `cos(2π u2)` for `u2 = gen_range(0.0..1.0)` with
/// index `i`, through the host libm.
fn angle(i: u32) -> f32 {
    (TWO_PI * (i as f32 * UNIT)).cos()
}

/// Phase 1: draws one Gaussian's two uniform indices per slot, in the
/// order a per-draw Box–Muller consumes them.
fn draw_indices(rng: &mut StdRng, u1: &mut [u32], u2: &mut [u32]) {
    for (a, b) in u1.iter_mut().zip(u2) {
        *a = uniform_index(rng);
        *b = uniform_index(rng);
    }
}

/// Fills `out` with consecutive standard Gaussians from `rng`.
fn fill_gaussians(rng: &mut StdRng, out: &mut [f32]) {
    let n = out.len().min(CHUNK_DRAWS);
    let (mut u1, mut u2) = (vec![0u32; n], vec![0u32; n]);
    for chunk in out.chunks_mut(CHUNK_DRAWS) {
        let (u1, u2) = (&mut u1[..chunk.len()], &mut u2[..chunk.len()]);
        draw_indices(rng, u1, u2);
        box_muller(u1, u2, chunk);
    }
}

/// `out[j] = radius(u1[j]) · angle(u2[j])`: eight at a time through the
/// batch kernel when the host has it, the rest through the scalar
/// expression. Returns how many the batch kernel converted.
fn box_muller(u1: &[u32], u2: &[u32], out: &mut [f32]) -> usize {
    assert!(
        u1.len() == out.len() && u2.len() == out.len(),
        "one index pair per Gaussian"
    );
    #[cfg(target_arch = "x86_64")]
    let done = if simd::available() {
        // SAFETY: `available` checked the avx2 + fma the kernel needs.
        unsafe { simd::box_muller(u1, u2, out) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for ((g, &a), &b) in out[done..].iter_mut().zip(&u1[done..]).zip(&u2[done..]) {
        *g = radius(a) * angle(b);
    }
    done
}

/// The largest `ln_1p` input synthesis can produce, as bits: every `|g|`
/// is at most the largest radius (the radius and angle tests assert it),
/// and the batch kernel is checked against the host libm on every f32
/// from 0 up to it.
const MAX_MAGNITUDE: u32 = 0x40B5_0000;

/// `x[j] = x[j].ln_1p()` for values in `[0, f32::from_bits(MAX_MAGNITUDE)]`:
/// eight at a time through the batch kernel when the host has it, the
/// rest through the host libm. Returns how many the batch kernel
/// converted.
fn ln_1p(x: &mut [f32]) -> usize {
    debug_assert!(
        x.iter()
            .all(|v| (0.0..=f32::from_bits(MAX_MAGNITUDE)).contains(v)),
        "ln_1p input outside the range checked against the host libm"
    );
    #[cfg(target_arch = "x86_64")]
    let done = if simd::available() {
        // SAFETY: `available` checked the avx2 the kernel needs.
        unsafe { simd::ln_1p(x) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for v in &mut x[done..] {
        *v = v.ln_1p();
    }
    done
}

/// Phase 3's sums over one zeroed chunk of `rs`-element kernels: kernel
/// `j` becomes `Σ_l coefs[j][l] · latent_l + noise · n_j`, accumulated
/// from `+0` element by element in latent order, where `n_j` is the tail
/// of kernel `j`'s Gaussians. The kernel areas the benchmark networks
/// synthesize — 1×1, 3×3, 4×4 (the ViT patchify) and 7×7 — each get a
/// fixed-width copy of the loop, which the compiler unrolls; other areas
/// run it with a runtime width.
fn latent_sums(
    chunk: &mut [f32],
    coefs: &[f32],
    gauss: &[f32],
    latent: &[f32],
    rs: usize,
    noise: f32,
) {
    match rs {
        1 => latent_sums_of_width(chunk, coefs, gauss, latent, 1, noise),
        9 => latent_sums_of_width(chunk, coefs, gauss, latent, 9, noise),
        16 => latent_sums_of_width(chunk, coefs, gauss, latent, 16, noise),
        49 => latent_sums_of_width(chunk, coefs, gauss, latent, 49, noise),
        _ => latent_sums_of_width(chunk, coefs, gauss, latent, rs, noise),
    }
}

#[inline(always)]
fn latent_sums_of_width(
    chunk: &mut [f32],
    coefs: &[f32],
    gauss: &[f32],
    latent: &[f32],
    rs: usize,
    noise: f32,
) {
    let rank = latent.len() / rs;
    let kernels = chunk
        .chunks_exact_mut(rs)
        .zip(coefs.chunks_exact(rank))
        .zip(gauss.chunks_exact(2 * rank + rs));
    for ((kernel, coefs), g) in kernels {
        for (&coef, l) in coefs.iter().zip(latent.chunks_exact(rs)) {
            for (kv, &lv) in kernel.iter_mut().zip(l) {
                *kv += coef * lv;
            }
        }
        for (kv, &n) in kernel.iter_mut().zip(&g[2 * rank..]) {
            *kv += noise * n;
        }
    }
}

/// The AVX2+FMA batch kernels: glibc 2.36's FMA `logf` and `cosf` on the
/// domains Box–Muller feeds them, and its `log1pf` on the coefficient
/// magnitudes, eight lanes at a time.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{TWO_PI, UNIT};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether the host has AVX2 and FMA. Detected once, then cached.
    pub fn available() -> bool {
        static CAPS: OnceLock<bool> = OnceLock::new();
        *CAPS.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    // `__logf_data`: 1/c and ln c for the 16 subintervals of [0x1.66p-1,
    // 0x1.66p0), then ln 2 and the log1p polynomial A[0..3].
    static INVC: [f64; 16] = [
        f64::from_bits(0x3ff6_61ec_79f8_f3be),
        f64::from_bits(0x3ff5_71ed_4aaf_883d),
        f64::from_bits(0x3ff4_9539_f0f0_10b0),
        f64::from_bits(0x3ff3_c995_b0b8_0385),
        f64::from_bits(0x3ff3_0d19_0c88_64a5),
        f64::from_bits(0x3ff2_5e22_7b0b_8ea0),
        f64::from_bits(0x3ff1_bb4a_4a1a_343f),
        f64::from_bits(0x3ff1_2358_f08a_e5ba),
        f64::from_bits(0x3ff0_953f_4199_00a7),
        f64::from_bits(0x3ff0_0000_0000_0000),
        f64::from_bits(0x3fee_608c_fd9a_47ac),
        f64::from_bits(0x3fec_a4b3_1f02_6aa0),
        f64::from_bits(0x3feb_2036_576a_fce6),
        f64::from_bits(0x3fe9_c2d1_63a1_aa2d),
        f64::from_bits(0x3fe8_86e6_0378_41ed),
        f64::from_bits(0x3fe7_67dc_f553_4862),
    ];
    static LOGC: [f64; 16] = [
        f64::from_bits(0xbfd5_7bf7_808c_aade),
        f64::from_bits(0xbfd2_bef0_a7c0_6ddb),
        f64::from_bits(0xbfd0_1eae_7f51_3a67),
        f64::from_bits(0xbfcb_31d8_a682_24e9),
        f64::from_bits(0xbfc6_574f_0ac0_7758),
        f64::from_bits(0xbfc1_aa2b_c79c_8100),
        f64::from_bits(0xbfba_4e76_ce8c_0e5e),
        f64::from_bits(0xbfb1_973c_5a61_1ccc),
        f64::from_bits(0xbfa2_52f4_38e1_0c1e),
        0.0,
        f64::from_bits(0x3faa_a5aa_5df2_5984),
        f64::from_bits(0x3fbc_5e53_aa36_2eb4),
        f64::from_bits(0x3fc5_26e5_7720_db08),
        f64::from_bits(0x3fcb_c286_0d22_4770),
        f64::from_bits(0x3fd1_058b_c8a0_7ee1),
        f64::from_bits(0x3fd4_0430_57b6_ee09),
    ];
    const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
    const A0: f64 = f64::from_bits(0xbfd0_0ea3_48b8_8334);
    const A1: f64 = f64::from_bits(0x3fd5_575b_0be0_0b6a);
    const A2: f64 = f64::from_bits(0xbfdf_fffe_f20a_4123);

    // `__sincosf_table[0]`: 2/π scaled by 2^24, π/2, and the cos (C*)
    // and sin (S*) polynomials. Table 1 differs only in negated C*, which
    // the kernel applies as a sign flip of the result.
    const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
    const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
    const C0: f64 = 1.0;
    const C1: f64 = f64::from_bits(0xbfdf_ffff_fd0c_621c);
    const S1: f64 = f64::from_bits(0xbfc5_5554_5995_a603);
    const C2: f64 = f64::from_bits(0x3fa5_5553_e106_8f19);
    const S2: f64 = f64::from_bits(0x3f81_1076_0523_0bc4);
    const C3: f64 = f64::from_bits(0xbf56_c087_e89a_359d);
    const S3: f64 = f64::from_bits(0xbf29_94eb_3774_cf24);
    const C4: f64 = f64::from_bits(0x3ef9_9343_027b_f8c3);

    /// Converts the leading whole groups of eight draws
    /// (`out[j] = radius(u1[j]) · angle(u2[j])`) and returns how many.
    ///
    /// # Safety
    ///
    /// The host must support `avx2` and `fma` (callers dispatch on
    /// [`available`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn box_muller(u1: &[u32], u2: &[u32], out: &mut [f32]) -> usize {
        let groups = out
            .chunks_exact_mut(8)
            .zip(u1.chunks_exact(8).zip(u2.chunks_exact(8)));
        let mut done = 0;
        for (g, (a, b)) in groups {
            // SAFETY: each chunk holds exactly eight lanes; loadu/storeu
            // take unaligned pointers.
            unsafe {
                let a = _mm256_loadu_si256(a.as_ptr().cast());
                let b = _mm256_loadu_si256(b.as_ptr().cast());
                _mm256_storeu_ps(g.as_mut_ptr(), _mm256_mul_ps(radius(a), angle(b)));
            }
            done += 8;
        }
        done
    }

    /// `sqrt(-2 ln u1)` for eight `u1` indices.
    #[target_feature(enable = "avx2,fma")]
    pub fn radius(i: __m256i) -> __m256 {
        let eps = _mm256_set1_ps(f32::EPSILON);
        let unit = _mm256_mul_ps(_mm256_cvtepi32_ps(i), _mm256_set1_ps(UNIT));
        // A separate multiply and add, rounded as `gen_range` rounds them.
        let v = _mm256_add_ps(eps, _mm256_mul_ps(_mm256_set1_ps(1.0 - f32::EPSILON), unit));
        let u1 = _mm256_blendv_ps(v, eps, _mm256_cmp_ps::<_CMP_GE_OQ>(v, _mm256_set1_ps(1.0)));
        _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ln(u1)))
    }

    /// glibc's FMA `logf` for eight normal positive inputs (every `u1` is
    /// one): `x = 2^k·z` with `z` near a table center `c`, and
    /// `ln x = log1p(z/c − 1) + ln c + k·ln 2`.
    #[target_feature(enable = "avx2,fma")]
    fn ln(x: __m256) -> __m256 {
        let ix = _mm256_castps_si256(x);
        let tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(0x3f33_0000));
        let i = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), _mm256_set1_epi32(15));
        let k = _mm256_srai_epi32::<23>(tmp);
        let top = _mm256_and_si256(tmp, _mm256_set1_epi32(0xff80_0000_u32 as i32));
        let z = _mm256_castsi256_ps(_mm256_sub_epi32(ix, top));
        let lo = ln_f64(
            _mm256_castps256_ps128(z),
            _mm256_castsi256_si128(i),
            _mm256_castsi256_si128(k),
        );
        let hi = ln_f64(
            _mm256_extractf128_ps::<1>(z),
            _mm256_extracti128_si256::<1>(i),
            _mm256_extracti128_si256::<1>(k),
        );
        _mm256_set_m128(hi, lo)
    }

    /// The double-precision part of [`ln`] for four lanes: subinterval
    /// `i`, exponent `k` and reduced `z`.
    #[target_feature(enable = "avx2,fma")]
    fn ln_f64(z: __m128, i: __m128i, k: __m128i) -> __m128 {
        let z = _mm256_cvtps_pd(z);
        // SAFETY: `i` is masked to 0..16, within both 16-entry tables.
        let (invc, logc) = unsafe {
            (
                _mm256_i32gather_pd::<8>(INVC.as_ptr(), i),
                _mm256_i32gather_pd::<8>(LOGC.as_ptr(), i),
            )
        };
        let r = _mm256_fmsub_pd(z, invc, _mm256_set1_pd(1.0));
        let y0 = _mm256_fmadd_pd(_mm256_cvtepi32_pd(k), _mm256_set1_pd(LN2), logc);
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(A1), r, _mm256_set1_pd(A2));
        let y = _mm256_fmadd_pd(_mm256_set1_pd(A0), r2, y);
        _mm256_cvtpd_ps(_mm256_fmadd_pd(y, r2, _mm256_add_pd(y0, r)))
    }

    /// `cos(2π u2)` for eight `u2` indices.
    #[target_feature(enable = "avx2,fma")]
    pub fn angle(i: __m256i) -> __m256 {
        let unit = _mm256_mul_ps(_mm256_cvtepi32_ps(i), _mm256_set1_ps(UNIT));
        let x = _mm256_mul_ps(_mm256_set1_ps(TWO_PI), unit);
        let lo = cos_f64(_mm256_castps256_ps128(x));
        let hi = cos_f64(_mm256_extractf128_ps::<1>(x));
        _mm256_set_m128(hi, lo)
    }

    /// glibc's FMA `cosf` for four inputs in `[0, 2π]`: reduce by the
    /// quadrant `n`, evaluate the cos (even `n`) or sin (odd `n`)
    /// polynomial on the remainder, and apply the quadrant's sign.
    ///
    /// glibc takes a separate branch below π/4, but there `n = 0` and
    /// this path computes the same polynomial; below 2^-12, where glibc
    /// returns 1 outright, the polynomial also rounds to 1.
    #[target_feature(enable = "avx2,fma")]
    fn cos_f64(x: __m128) -> __m128 {
        let x = _mm256_cvtps_pd(x);
        let scaled = _mm256_cvttpd_epi32(_mm256_mul_pd(x, _mm256_set1_pd(HPI_INV)));
        let n = _mm_srai_epi32::<24>(_mm_add_epi32(scaled, _mm_set1_epi32(0x80_0000)));
        let xr = _mm256_fnmadd_pd(_mm256_cvtepi32_pd(n), _mm256_set1_pd(HPI), x);
        let x2 = _mm256_mul_pd(xr, xr);

        let x4 = _mm256_mul_pd(x2, x2);
        let c1 = _mm256_fmadd_pd(x2, _mm256_set1_pd(C1), _mm256_set1_pd(C0));
        let c2 = _mm256_fmadd_pd(x2, _mm256_set1_pd(C4), _mm256_set1_pd(C3));
        let c = _mm256_fmadd_pd(x4, _mm256_set1_pd(C2), c1);
        let cos = _mm256_fmadd_pd(_mm256_mul_pd(x4, x2), c2, c);

        let x3 = _mm256_mul_pd(x2, xr);
        let s1 = _mm256_fmadd_pd(x2, _mm256_set1_pd(S3), _mm256_set1_pd(S2));
        let s = _mm256_fmadd_pd(x3, _mm256_set1_pd(S1), xr);
        let sin = _mm256_fmadd_pd(_mm256_mul_pd(x3, x2), s1, s);

        // Bit 0 of `n` (moved to each lane's sign bit) picks the sin
        // polynomial. glibc's sign[n & 3] on the sin argument and its
        // negated-cos table for `n & 2` both negate exactly when bit 0 of
        // `n ^ (n >> 1)` is set. The sin polynomial is odd in its argument,
        // the cos one changes sign with all its coefficients, and
        // round-to-nearest is symmetric, so negating the result instead
        // gives the same bits.
        let wide =
            |v: __m128i| _mm256_castsi256_pd(_mm256_slli_epi64::<63>(_mm256_cvtepi32_epi64(v)));
        let poly = _mm256_blendv_pd(cos, sin, wide(n));
        let sign = wide(_mm_xor_si128(n, _mm_srli_epi32::<1>(n)));
        _mm256_cvtpd_ps(_mm256_xor_pd(poly, sign))
    }

    // glibc 2.36's `__log1pf`, fdlibm's float algorithm compiled to plain
    // SSE `mulss`/`addss`/`divss` (the host libm has no FMA variant of
    // it): ln 2 split high/low, and the polynomial Lp1..Lp7 in
    // `R = z·(Lp1 + z·(Lp2 + … + z·Lp7))`.
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const LP: [f32; 7] = [
        f32::from_bits(0x3f2a_aaab),
        f32::from_bits(0x3ecc_cccd),
        f32::from_bits(0x3e92_4925),
        f32::from_bits(0x3e63_8e29),
        f32::from_bits(0x3e3a_3325),
        f32::from_bits(0x3e1c_d04f),
        f32::from_bits(0x3e17_8897),
    ];

    /// Replaces the leading whole groups of eight values `x` with
    /// `x.ln_1p()` and returns how many.
    ///
    /// # Safety
    ///
    /// The host must support `avx2` (callers dispatch on [`available`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn ln_1p(x: &mut [f32]) -> usize {
        let mut done = 0;
        for v in x.chunks_exact_mut(8) {
            // SAFETY: each chunk holds exactly eight lanes; loadu/storeu
            // take unaligned pointers.
            unsafe { _mm256_storeu_ps(v.as_mut_ptr(), log1p(_mm256_loadu_ps(v.as_ptr()))) };
            done += 8;
        }
        done
    }

    /// glibc's `log1pf` for eight inputs in `[0, f32::from_bits(0x40B5_0000)]`,
    /// the range checked against the host libm, every branch evaluated and
    /// the lane's own picked by a blend. Each lane performs glibc's float
    /// operations in glibc's order, so it rounds the same.
    #[target_feature(enable = "avx2,fma")]
    fn log1p(x: __m256) -> __m256 {
        let (ps, epi) = (_mm256_set1_ps, _mm256_set1_epi32);
        let one = ps(1.0);
        let hx = _mm256_castps_si256(x);

        // x ≥ 0.41422: u = 1 + x = 2^k·m, c = the rounding error of u over
        // u, and f = m − 1 with m normalized into [√2/2, √2).
        let u = _mm256_add_ps(x, one);
        let hu = _mm256_castps_si256(u);
        let k = _mm256_sub_epi32(_mm256_srai_epi32::<23>(hu), epi(127));
        let c = _mm256_blendv_ps(
            _mm256_sub_ps(x, _mm256_sub_ps(u, one)),
            _mm256_sub_ps(one, _mm256_sub_ps(u, x)),
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, _mm256_setzero_si256())),
        );
        let c = _mm256_div_ps(c, u);
        let mant = _mm256_and_si256(hu, epi(0x7f_ffff));
        // All ones where m ≥ √2: halve m and count it in k.
        let halve = _mm256_cmpgt_epi32(mant, epi(0x35_04f6));
        let k = _mm256_sub_epi32(k, halve);
        let m = _mm256_or_si256(
            mant,
            _mm256_blendv_epi8(epi(0x3f80_0000), epi(0x3f00_0000), halve),
        );
        let hu = _mm256_blendv_epi8(
            mant,
            _mm256_srai_epi32::<2>(_mm256_sub_epi32(epi(0x80_0000), mant)),
            halve,
        );
        let f = _mm256_sub_ps(_mm256_castsi256_ps(m), one);

        // x < 0.41422: k = 0 and f = x.
        let small = _mm256_cmpgt_epi32(epi(0x3ed4_13d7), hx);
        let f = _mm256_blendv_ps(f, x, _mm256_castsi256_ps(small));
        let k = _mm256_andnot_si256(small, k);

        let hfsq = _mm256_mul_ps(_mm256_mul_ps(ps(0.5), f), f);
        let s = _mm256_div_ps(f, _mm256_add_ps(ps(2.0), f));
        let z = _mm256_mul_ps(s, s);
        let mut r = _mm256_mul_ps(ps(LP[6]), z);
        for &lp in LP[..6].iter().rev() {
            r = _mm256_mul_ps(_mm256_add_ps(r, ps(lp)), z);
        }
        let t = _mm256_mul_ps(_mm256_add_ps(r, hfsq), s);
        let kf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_mul_ps(kf, ps(LN2_HI));
        let lo = _mm256_add_ps(_mm256_mul_ps(kf, ps(LN2_LO)), c);
        let y = _mm256_blendv_ps(
            // k ≠ 0: k·ln2_hi − ((hfsq − ((c + k·ln2_lo) + s·(hfsq + R))) − f)
            _mm256_sub_ps(
                hi,
                _mm256_sub_ps(_mm256_sub_ps(hfsq, _mm256_add_ps(lo, t)), f),
            ),
            // k = 0: f − (hfsq − s·(hfsq + R))
            _mm256_sub_ps(f, _mm256_sub_ps(hfsq, t)),
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())),
        );

        // |f| < 2^-20 (glibc's `hu == 0`). Only the x ≥ 0.41422 branch gets
        // here, with m = 1 (u = 2^k) or m just below 1 after halving, so
        // k ≥ 1 and glibc's k = 0 returns never apply.
        let near = _mm256_andnot_si256(small, _mm256_cmpeq_epi32(hu, _mm256_setzero_si256()));
        let r = _mm256_mul_ps(_mm256_sub_ps(one, _mm256_mul_ps(ps(LP[0]), f)), hfsq);
        let y_near = _mm256_blendv_ps(
            _mm256_sub_ps(hi, _mm256_sub_ps(_mm256_sub_ps(r, lo), f)),
            // f = 0: k·ln2_hi + (c + k·ln2_lo)
            _mm256_add_ps(lo, hi),
            _mm256_cmp_ps::<_CMP_EQ_OQ>(f, _mm256_setzero_ps()),
        );
        let y = _mm256_blendv_ps(y, y_near, _mm256_castsi256_ps(near));

        // x < 2^-29: x itself. glibc returns x − x·x·0.5 (or x below
        // 2^-54), but x·x·0.5 is under half an ulp of x there.
        _mm256_blendv_ps(
            y,
            x,
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(epi(0x3100_0000), hx)),
        )
    }

    /// [`radius`] and [`angle`] over one group of eight indices, for the
    /// exhaustive tests.
    #[cfg(test)]
    pub fn lanes(i: [u32; 8], f: unsafe fn(__m256i) -> __m256) -> [f32; 8] {
        assert!(available(), "the batch kernel needs avx2 + fma");
        let mut out = [0.0f32; 8];
        // SAFETY: availability asserted above; loadu/storeu take
        // unaligned pointers to eight lanes.
        unsafe {
            let v = _mm256_loadu_si256(i.as_ptr().cast());
            _mm256_storeu_ps(out.as_mut_ptr(), f(v));
        }
        out
    }
}

/// Generates a synthetic weight tensor for a layer with a target effective
/// kernel rank.
///
/// For regular convolutions the result is `K×C×R×S`; for depthwise layers
/// `C×R×S`; for pointwise/FC layers `K×C` reshaped to `K×C×1×1`.
///
/// `rank` bounds the dimension of the subspace the kernels live in
/// (clamped to `R*S`); `noise` adds a full-rank perturbation of that
/// relative magnitude, so `noise = 0` gives exactly-rank-`rank` kernels.
///
/// # Examples
///
/// ```
/// use escalate_models::{LayerShape, synth};
///
/// let l = LayerShape::conv("l", 8, 16, 16, 16, 3, 1, 1);
/// let w = synth::weights(&l, 4, 0.0, 7);
/// assert_eq!(w.shape(), &[16, 8, 3, 3]);
/// ```
pub fn weights(layer: &LayerShape, rank: usize, noise: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let rs = layer.r * layer.s;
    let rank = rank.clamp(1, rs);
    let (k, c) = match layer.kind {
        LayerKind::DwConv => (1, layer.c),
        // Grouped filters only see their group's slice of the input.
        LayerKind::GroupedConv { .. } => (layer.k, layer.c / layer.groups()),
        _ => (layer.k, layer.c),
    };

    // Shared latent kernels, roughly orthogonal by random draw.
    let mut latent = vec![0.0f32; rank * rs];
    fill_gaussians(&mut rng, &mut latent);

    // Long-tailed combination coefficients: most kernels are dominated by
    // one or two latent components, which is what magnitude pruning of the
    // projected coefficients exploits. Per kernel the stream holds, for
    // each latent, two magnitude Gaussians and a sign, then R·S noise
    // Gaussians.
    let per_kernel = 2 * rank + rs;
    let mut data = vec![0.0f32; k * c * rs];
    let chunk_kernels = (k * c).min(CHUNK_KERNELS);
    let chunk_draws = chunk_kernels * per_kernel;
    let (mut u1, mut u2, mut gauss) = (
        vec![0u32; chunk_draws],
        vec![0u32; chunk_draws],
        vec![0.0f32; chunk_draws],
    );
    let (mut signs, mut coefs) = (
        vec![0u32; chunk_kernels * rank],
        vec![0.0f32; chunk_kernels * rank],
    );
    for chunk in data.chunks_mut(CHUNK_KERNELS * rs) {
        let n = chunk.len() / rs;
        let (u1, u2) = (&mut u1[..n * per_kernel], &mut u2[..n * per_kernel]);
        let gauss = &mut gauss[..n * per_kernel];
        let (signs, coefs) = (&mut signs[..n * rank], &mut coefs[..n * rank]);

        // Phase 1: the chunk's raw stream, serially. A coefficient's sign
        // is kept as the sign bit that negates it.
        let draws = u1
            .chunks_exact_mut(per_kernel)
            .zip(u2.chunks_exact_mut(per_kernel))
            .zip(signs.chunks_exact_mut(rank));
        for ((a, b), signs) in draws {
            let (mag_a, noise_a) = a.split_at_mut(2 * rank);
            let (mag_b, noise_b) = b.split_at_mut(2 * rank);
            let mags = mag_a.chunks_exact_mut(2).zip(mag_b.chunks_exact_mut(2));
            for ((a, b), sign) in mags.zip(signs) {
                draw_indices(&mut rng, a, b);
                *sign = u32::from(!rng.gen_bool(0.5)) << 31;
            }
            draw_indices(&mut rng, noise_a, noise_b);
        }
        // Phase 2: the chunk's Gaussians, batched.
        box_muller(u1, u2, gauss);
        // Phase 3: the tail. Laplace-like heavy-tailed coefficients, sign ·
        // exp-distributed magnitude, with the magnitudes' `ln_1p` batched.
        for (coefs, g) in coefs
            .chunks_exact_mut(rank)
            .zip(gauss.chunks_exact(per_kernel))
        {
            for (coef, m) in coefs.iter_mut().zip(g.chunks_exact(2)) {
                *coef = m[0].abs();
            }
        }
        ln_1p(coefs);
        let kernels = coefs
            .chunks_exact_mut(rank)
            .zip(gauss.chunks_exact(per_kernel))
            .zip(signs.chunks_exact(rank));
        for ((coefs, g), signs) in kernels {
            for ((coef, m), &sign) in coefs.iter_mut().zip(g.chunks_exact(2)).zip(signs) {
                // `-mag` is `mag` with its sign bit flipped.
                let mag = -*coef + m[1].abs().powi(2) * 0.4;
                *coef = f32::from_bits(mag.to_bits() ^ sign);
            }
        }
        latent_sums(chunk, coefs, gauss, &latent, rs, noise);
    }

    // Normalize to a He-like fan-in scale so outputs are well-conditioned.
    let fan_in = (c * rs) as f32;
    let scale = (2.0 / fan_in).sqrt();
    let norm: f32 = data.iter().map(|v| v * v).sum::<f32>().sqrt() / (data.len() as f32).sqrt();
    let adj = if norm > 0.0 { scale / norm } else { scale };
    for v in data.iter_mut() {
        *v *= adj;
    }

    match layer.kind {
        LayerKind::DwConv => Tensor::from_vec(&[layer.c, layer.r, layer.s], data),
        LayerKind::GroupedConv { .. } => {
            Tensor::from_vec(&[layer.k, layer.c / layer.groups(), layer.r, layer.s], data)
        }
        _ => Tensor::from_vec(&[layer.k, layer.c, layer.r, layer.s], data),
    }
}

/// Generates a synthetic pointwise weight matrix (`K×C`) for DSC layers.
pub fn pointwise_weights(c: usize, k: usize, seed: u64) -> escalate_tensor::Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
    let scale = (2.0 / c as f32).sqrt();
    let mut data = vec![0.0f32; k * c];
    fill_gaussians(&mut rng, &mut data);
    for v in data.iter_mut() {
        *v *= scale;
    }
    escalate_tensor::Matrix::from_vec(k, c, data)
}

/// Generates a synthetic input feature map (`C×X×Y`) with exactly the
/// requested sparsity (fraction of zeros), emulating post-ReLU activations.
///
/// Values are mildly spatially correlated (a 1-pole filter along rows) so
/// nonzeros cluster like real feature maps; the zero pattern comes from
/// thresholding at the requested quantile, and surviving values are
/// strictly positive like ReLU outputs.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use escalate_models::{LayerShape, synth};
///
/// let l = LayerShape::conv("l", 4, 8, 16, 16, 3, 1, 1);
/// let a = synth::activations(&l, 0.5, 42);
/// let zeros = a.as_slice().iter().filter(|&&v| v == 0.0).count();
/// assert!((zeros as f64 / a.len() as f64 - 0.5).abs() < 0.02);
/// ```
pub fn activations(layer: &LayerShape, sparsity: f64, seed: u64) -> Tensor {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
    let (c, x, y) = (layer.c, layer.x, layer.y);
    let mut data = vec![0.0f32; c * x * y];
    fill_gaussians(&mut rng, &mut data);
    // The 1-pole filter runs along each channel's rows in turn, restarting
    // per channel.
    for channel in data.chunks_exact_mut((x * y).max(1)) {
        let mut prev = 0.0f32;
        for v in channel {
            *v = 0.6 * prev + 0.8 * *v;
            prev = *v;
        }
    }
    // Threshold at the requested quantile. Selection finds the value a
    // full sort would put at `cut_idx`.
    let cut = if sparsity >= 1.0 {
        f32::INFINITY
    } else {
        let mut ranked = data.clone();
        let cut_idx =
            ((ranked.len() as f64 * sparsity) as usize).min(ranked.len().saturating_sub(1));
        *ranked.select_nth_unstable_by(cut_idx, f32::total_cmp).1
    };
    for v in data.iter_mut() {
        // Shift survivors to be positive (ReLU-like) with the threshold as 0.
        *v = if *v > cut { *v - cut } else { 0.0 };
    }
    Tensor::from_vec(&[c, x, y], data)
}

/// Deterministic per-layer seed derived from a base seed, layer index, and
/// sample index, so different experiments agree on workloads.
pub fn layer_seed(base: u64, layer_index: usize, sample: usize) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (layer_index as u64);
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB) ^ (sample as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_tensor::{linalg, Matrix};

    fn reshaped(layer: &LayerShape, w: &Tensor) -> Matrix {
        let rs = layer.r * layer.s;
        Matrix::from_vec(w.len() / rs, rs, w.as_slice().to_vec())
    }

    #[test]
    fn weights_have_requested_shape() {
        let l = LayerShape::conv("l", 4, 8, 8, 8, 3, 1, 1);
        assert_eq!(weights(&l, 3, 0.1, 1).shape(), &[8, 4, 3, 3]);
        let d = LayerShape::dwconv("d", 16, 8, 8, 3, 1, 1);
        assert_eq!(weights(&d, 3, 0.1, 1).shape(), &[16, 3, 3]);
        let g = LayerShape::grouped_conv("g", 16, 8, 8, 8, 3, 1, 1, 4);
        assert_eq!(weights(&g, 3, 0.1, 1).shape(), &[8, 4, 3, 3]);
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let l = LayerShape::conv("l", 4, 8, 8, 8, 3, 1, 1);
        assert_eq!(weights(&l, 3, 0.1, 7), weights(&l, 3, 0.1, 7));
        assert_ne!(weights(&l, 3, 0.1, 7), weights(&l, 3, 0.1, 8));
    }

    #[test]
    fn noiseless_weights_have_exact_rank() {
        let l = LayerShape::conv("l", 6, 12, 8, 8, 3, 1, 1);
        let w = weights(&l, 4, 0.0, 3);
        let m = reshaped(&l, &w);
        let f = linalg::truncated_svd(&m, 4).unwrap();
        // Rank-4 construction ⇒ rank-4 SVD reconstructs (nearly) exactly.
        assert!(f.captured_energy > 0.999, "captured {}", f.captured_energy);
    }

    #[test]
    fn noise_raises_effective_rank() {
        let l = LayerShape::conv("l", 6, 12, 8, 8, 3, 1, 1);
        let clean = reshaped(&l, &weights(&l, 2, 0.0, 3));
        let noisy = reshaped(&l, &weights(&l, 2, 0.5, 3));
        let ec = linalg::truncated_svd(&clean, 2).unwrap().captured_energy;
        let en = linalg::truncated_svd(&noisy, 2).unwrap().captured_energy;
        assert!(ec > en, "noise should spread energy: clean={ec} noisy={en}");
    }

    #[test]
    fn activations_hit_target_sparsity() {
        let l = LayerShape::conv("l", 8, 8, 32, 32, 3, 1, 1);
        for target in [0.0, 0.3, 0.5, 0.8] {
            let a = activations(&l, target, 11);
            assert!(
                (a.sparsity() - target).abs() < 0.02,
                "target {target}, got {}",
                a.sparsity()
            );
        }
    }

    #[test]
    fn activations_are_nonnegative() {
        let l = LayerShape::conv("l", 4, 4, 16, 16, 3, 1, 1);
        let a = activations(&l, 0.6, 5);
        assert!(a.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn full_sparsity_gives_zero_map() {
        let l = LayerShape::conv("l", 2, 2, 8, 8, 3, 1, 1);
        let a = activations(&l, 1.0, 5);
        assert_eq!(a.nnz(), 0);
    }

    /// 64-bit FNV-1a over the little-endian bit patterns of `values`.
    fn fnv1a(values: &[f32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn synthesized_bits_are_pinned() {
        // Every compression golden rests on these exact draws: a changed
        // RNG draw order or float op in the generators fails here in
        // milliseconds instead of in the full `report --all --check`.
        let conv = LayerShape::conv("c", 16, 32, 8, 8, 3, 1, 1);
        let pw = LayerShape::pwconv("p", 24, 16, 8, 8);
        let dw = LayerShape::dwconv("d", 32, 8, 8, 3, 1, 1);
        let grouped = LayerShape::grouped_conv("g", 16, 8, 8, 8, 3, 1, 1, 4);
        let first = LayerShape::conv("f", 3, 16, 32, 32, 7, 2, 3);
        let pw_clamped = LayerShape::pwconv("q", 12, 20, 4, 4);
        let noiseless = LayerShape::conv("z", 8, 12, 8, 8, 3, 1, 1);
        // 19·23 = 437 kernels: a multiple of neither the chunk size nor 8.
        let ragged = LayerShape::conv("t", 19, 23, 8, 8, 3, 1, 1);
        let maps = LayerShape::conv("a", 6, 8, 13, 11, 3, 1, 1);
        let digests = [
            fnv1a(weights(&conv, 6, 0.05, 42).as_slice()),
            fnv1a(weights(&pw, 1, 1.0, 7).as_slice()),
            fnv1a(weights(&dw, 6, 0.05, 11).as_slice()),
            fnv1a(weights(&grouped, 3, 0.1, 13).as_slice()),
            fnv1a(pointwise_weights(24, 40, 17).as_slice()),
            fnv1a(activations(&maps, 0.5, 19).as_slice()),
            fnv1a(activations(&maps, 0.9, 23).as_slice()),
            fnv1a(weights(&first, 49, 0.3, 29).as_slice()),
            fnv1a(weights(&pw_clamped, 4, 0.05, 31).as_slice()),
            fnv1a(weights(&noiseless, 2, 0.0, 37).as_slice()),
            fnv1a(weights(&ragged, 3, 0.05, 41).as_slice()),
            fnv1a(pointwise_weights(7, 9, 43).as_slice()),
        ];
        assert_eq!(
            digests,
            [
                0x87c1_c7c1_84ee_6ec9,
                0xb76b_17ee_daed_69e6,
                0xc5d4_3780_bdc2_4406,
                0x86e1_cdec_4aff_5e96,
                0x3582_cd1e_30c4_518c,
                0xab74_cd4b_1121_7f1d,
                0xec48_9475_373e_4990,
                0x753c_54eb_29e2_54d0,
                0x3032_49c4_b24e_9557,
                0x5362_76aa_bb56_d850,
                0x6919_ad31_a962_b4b5,
                0x45e7_117b_270e_ed36,
            ]
        );
    }

    /// Every `u1` or `u2` index, in groups of eight.
    #[cfg(target_arch = "x86_64")]
    fn index_groups() -> impl Iterator<Item = [u32; 8]> {
        (0..1u32 << 24)
            .step_by(8)
            .map(|base| std::array::from_fn(|j| base + j as u32))
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn batch_radius_matches_libm_on_every_u1() {
        if !simd::available() {
            return; // without avx2 + fma only the scalar expression runs
        }
        for group in index_groups() {
            let fast = simd::lanes(group, simd::radius);
            for (&i, got) in group.iter().zip(fast) {
                assert_eq!(got.to_bits(), radius(i).to_bits(), "u1 index {i}");
                // With |cos| ≤ 1 and monotone rounding, |g| ≤ the radius:
                // the exhaustive `ln_1p` test covers every magnitude.
                assert!(got <= f32::from_bits(MAX_MAGNITUDE), "u1 index {i}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn batch_angle_matches_libm_on_every_u2() {
        if !simd::available() {
            return;
        }
        for group in index_groups() {
            let fast = simd::lanes(group, simd::angle);
            for (&i, got) in group.iter().zip(fast) {
                assert_eq!(got.to_bits(), angle(i).to_bits(), "u2 index {i}");
                assert!(got.abs() <= 1.0, "u2 index {i}");
            }
        }
    }

    #[test]
    fn avx2_fma_hosts_take_the_batch_kernel() {
        // Guards the exhaustive tests above and below against passing
        // vacuously.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            let idx: Vec<u32> = (0..20).map(|i| i * 838_861).collect();
            assert_eq!(box_muller(&idx, &idx, &mut [0.0; 20]), 16);
            assert_eq!(ln_1p(&mut [0.5; 20]), 16);
        }
    }

    /// Runs the batched `ln_1p` over the values with bit patterns `bits`
    /// and asserts each equals the host libm's.
    fn assert_ln_1p_matches_libm(bits: impl Iterator<Item = u32>) {
        let mut want = Vec::with_capacity(4096);
        let mut bits = bits.peekable();
        while bits.peek().is_some() {
            want.clear();
            want.extend(bits.by_ref().take(4096).map(f32::from_bits));
            let mut got = want.clone();
            ln_1p(&mut got);
            for (&x, y) in want.iter().zip(got) {
                assert_eq!(
                    y.to_bits(),
                    x.ln_1p().to_bits(),
                    "ln_1p({x:e}), bits {:#x}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn batch_ln_1p_matches_libm_on_samples_and_branch_points() {
        // Every 4099th pattern of the reachable range, then ±256 ulps
        // around each of glibc's branch points: |x| < 2^-54, |x| < 2^-29,
        // x < 0.41422, the normalization edge m < √2 (hu < 0x3504f7) of
        // u = 1 + x for u in [1, 2), [2, 4) and [4, 8), and the inputs
        // with |f| < 2^-20 around x = 1 and x = 3 (u = 2, u = 4).
        let u_edge = |k: u32| (f32::from_bits((127 + k) << 23 | 0x35_04f7) - 1.0).to_bits();
        let points = [
            0x2480_0000,
            0x3100_0000,
            0x3ed4_13d7,
            u_edge(0),
            u_edge(1),
            u_edge(2),
            1.0f32.to_bits(),
            3.0f32.to_bits(),
        ];
        let around = points.into_iter().flat_map(|p| p - 256..=p + 256);
        assert_ln_1p_matches_libm((0..=MAX_MAGNITUDE).step_by(4099).chain(around));
    }

    #[test]
    #[ignore = "exhaustive over 1.09e9 inputs: run in release"]
    fn batch_ln_1p_matches_libm_on_every_reachable_input() {
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(4) as u32;
        let span = MAX_MAGNITUDE / threads + 1;
        std::thread::scope(|s| {
            for t in 0..threads {
                let lo = t * span;
                let hi = (lo + span - 1).min(MAX_MAGNITUDE);
                s.spawn(move || assert_ln_1p_matches_libm(lo..=hi));
            }
        });
    }

    /// The per-draw generators the two-phase ones replaced, kept as the
    /// differential oracle. They return the raw data in output order.
    mod oracle {
        use super::*;

        fn gaussian(rng: &mut StdRng) -> f32 {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        }

        pub fn weights(layer: &LayerShape, rank: usize, noise: f32, seed: u64) -> Vec<f32> {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
            let rs = layer.r * layer.s;
            let rank = rank.clamp(1, rs);
            let (k, c) = match layer.kind {
                LayerKind::DwConv => (1, layer.c),
                LayerKind::GroupedConv { .. } => (layer.k, layer.c / layer.groups()),
                _ => (layer.k, layer.c),
            };
            let latent: Vec<Vec<f32>> = (0..rank)
                .map(|_| (0..rs).map(|_| gaussian(&mut rng)).collect())
                .collect();
            let mut data = vec![0.0f32; k * c * rs];
            for kernel in data.chunks_exact_mut(rs) {
                for l in &latent {
                    let mag =
                        -gaussian(&mut rng).abs().ln_1p() + gaussian(&mut rng).abs().powi(2) * 0.4;
                    let coef = if rng.gen_bool(0.5) { mag } else { -mag };
                    for (kv, &lv) in kernel.iter_mut().zip(l) {
                        *kv += coef * lv;
                    }
                }
                for kv in kernel.iter_mut() {
                    *kv += noise * gaussian(&mut rng);
                }
            }
            let scale = (2.0 / (c * rs) as f32).sqrt();
            let norm: f32 =
                data.iter().map(|v| v * v).sum::<f32>().sqrt() / (data.len() as f32).sqrt();
            let adj = if norm > 0.0 { scale / norm } else { scale };
            data.iter().map(|v| v * adj).collect()
        }

        pub fn pointwise_weights(c: usize, k: usize, seed: u64) -> Vec<f32> {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
            let scale = (2.0 / c as f32).sqrt();
            (0..k * c).map(|_| gaussian(&mut rng) * scale).collect()
        }

        pub fn activations(layer: &LayerShape, sparsity: f64, seed: u64) -> Vec<f32> {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
            let (c, x, y) = (layer.c, layer.x, layer.y);
            let mut data = vec![0.0f32; c * x * y];
            for ci in 0..c {
                let mut prev = 0.0f32;
                for xi in 0..x {
                    for yi in 0..y {
                        let v = 0.6 * prev + 0.8 * gaussian(&mut rng);
                        prev = v;
                        data[(ci * x + xi) * y + yi] = v;
                    }
                }
            }
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let cut_idx =
                ((sorted.len() as f64 * sparsity) as usize).min(sorted.len().saturating_sub(1));
            let cut = if sparsity >= 1.0 {
                f32::INFINITY
            } else {
                sorted[cut_idx]
            };
            data.iter()
                .map(|&v| if v > cut { v - cut } else { 0.0 })
                .collect()
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A layer of every kind, at kernel side `rs` (1×1 for pointwise and
    /// FC layers).
    fn layer_of_kind(kind: usize, c: usize, k: usize, rs: usize) -> LayerShape {
        match kind {
            0 => LayerShape::conv("l", c, k, 8, 8, rs, 1, 0),
            1 => LayerShape::dwconv("l", c, 8, 8, rs, 1, 0),
            2 => LayerShape::pwconv("l", c, k, 8, 8),
            3 => LayerShape::fc("l", c, k),
            4 => LayerShape::grouped_conv("l", 2 * c, 2 * k, 8, 8, rs, 1, 0, 2),
            _ => LayerShape::dilated_conv("l", c, k, 16, 16, rs, 1, 0, 2),
        }
    }

    #[test]
    fn weights_match_the_per_draw_oracle_on_4x4_kernels() {
        // The ViT patchify's kernel area has its own fixed-width latent
        // sums, which the proptest below (sides 1, 3, 5, 7) never reaches.
        for kind in [0, 1, 4, 5] {
            for (i, rank) in [1, 6, 16, 18].into_iter().enumerate() {
                let layer = layer_of_kind(kind, 5, 3, 4);
                let seed = 0x4a4a + i as u64;
                assert_eq!(
                    bits(weights(&layer, rank, 0.05, seed).as_slice()),
                    bits(&oracle::weights(&layer, rank, 0.05, seed)),
                    "kind {kind}, rank {rank}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn weights_match_the_per_draw_oracle(
            kind in 0usize..6,
            side in 0usize..4,
            c in 1usize..24,
            k in 1usize..24,
            extra_rank in 0usize..51,
            noise in 0usize..3,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let layer = layer_of_kind(kind, c, k, [1, 3, 5, 7][side]);
            let rs = layer.r * layer.s;
            // Ranks 1..=R·S+2, so the clamp to R·S is exercised too.
            let rank = 1 + extra_rank % (rs + 2);
            let noise = [0.0, 0.05, 1.0][noise];
            let got = weights(&layer, rank, noise, seed);
            let want = oracle::weights(&layer, rank, noise, seed);
            proptest::prop_assert_eq!(bits(got.as_slice()), bits(&want));
        }

        #[test]
        fn pointwise_weights_match_the_per_draw_oracle(
            c in 1usize..80,
            k in 1usize..80,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let got = pointwise_weights(c, k, seed);
            proptest::prop_assert_eq!(
                bits(got.as_slice()),
                bits(&oracle::pointwise_weights(c, k, seed))
            );
        }

        #[test]
        fn activations_match_the_per_draw_oracle(
            c in 1usize..6,
            x in 1usize..40,
            y in 1usize..40,
            sparsity in 0u32..=20,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let layer = LayerShape::conv("a", c, 4, x, y, 3, 1, 1);
            let sparsity = f64::from(sparsity) / 20.0;
            let got = activations(&layer, sparsity, seed);
            proptest::prop_assert_eq!(
                bits(got.as_slice()),
                bits(&oracle::activations(&layer, sparsity, seed))
            );
        }
    }

    #[test]
    fn layer_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for layer in 0..50 {
            for sample in 0..10 {
                assert!(seen.insert(layer_seed(42, layer, sample)));
            }
        }
    }
}
