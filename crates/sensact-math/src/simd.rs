//! Register-blocked SIMD microkernels behind runtime feature detection.
//!
//! The GEMM entry points in [`kernels`](crate::kernels) dispatch into this
//! module when the host CPU supports a vector ISA and the problem is large
//! enough to amortize operand packing. The design is the classic
//! register-blocked formulation (BLIS/GotoBLAS): the `k` dimension is cut
//! into cache-sized blocks, `B` is packed into column panels of width `NR`,
//! `A` is packed into row panels of height `MR` with `alpha` folded in, and
//! an unrolled microkernel keeps an `MR × NR` tile of `C` in vector
//! registers across the whole `k` block.
//!
//! Three paths exist, selected once per process by [`cpu_features`]:
//!
//! - **AVX2+FMA** (`6×8` f64 tile, `6×16` f32 tile; 12 YMM accumulators):
//!   fused multiply-add changes rounding versus the scalar kernels (one
//!   rounding per step instead of two), so results differ from
//!   [`gemm_naive`](crate::kernels::gemm_naive) by a forward error bounded
//!   by `2·γ_{k+2}·(|αA|·|B|)_ij` — the conformance harness checks this
//!   bound analytically per element.
//! - **SSE2** (`4×4` f64 tile): multiply *then* add per step, in ascending
//!   `k` order — the exact rounding sequence of the scalar blocked kernel,
//!   so this path stays **bitwise identical** to it.
//! - **scalar**: the caller falls back to the blocked kernel in
//!   [`kernels`](crate::kernels); forced everywhere by setting the
//!   `SENSACT_FORCE_SCALAR` environment variable (satisfied by any value
//!   other than `0`/empty).
//!
//! [`conv3d_direct`] is the direct 3-D convolution behind `sensact_nn`'s
//! f64 conv inference: an AVX2+FMA tile of 4 output channels × 8 positions,
//! or its scalar twin (multiply then add, same tap order) everywhere else.
//!
//! The int8 quantized path shares the symmetric max-abs/127 grid of
//! `sensact_nn`'s `fake_quantize` and accumulates exactly in 32-bit integers
//! (`_mm256_madd_epi16` under AVX2), so its only error is the quantization
//! itself — also bounded analytically in the conformance harness.

use std::sync::OnceLock;

/// Register-tile height of the AVX2+FMA microkernels (12 YMM accumulators
/// out of 16 architectural registers — the classic 6-row DGEMM shape).
pub const MR_FMA: usize = 6;
/// Register-tile height of the SSE2 microkernel.
pub const MR_SSE: usize = 4;
/// Columns per packed B panel on the AVX2 f64 path.
pub const NR_F64: usize = 8;
/// Columns per packed B panel on the SSE2 f64 path.
pub const NR_SSE: usize = 4;
/// Columns per packed B panel on the AVX2 f32 path.
pub const NR_F32: usize = 16;

/// `k`-block depth: panels of `KC` rows of B (2 KiB per f64 column panel)
/// stay L1/L2-resident while a C tile is updated.
const KC: usize = 256;

/// Minimum `m*n*k` before packing overhead pays for itself.
const SIMD_MIN_OPS: usize = 1 << 14;

/// Largest microkernel tile in scalar lanes (edge tiles stage through a
/// stack buffer of this size).
const MAX_TILE: usize = MR_FMA * NR_F32;

/// CPU feature detection results, resolved once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 available.
    pub avx2: bool,
    /// FMA3 available.
    pub fma: bool,
    /// SSE2 available (baseline on x86_64).
    pub sse2: bool,
    /// `SENSACT_FORCE_SCALAR` was set: all SIMD paths are disabled.
    pub forced_scalar: bool,
}

impl CpuFeatures {
    /// Whether any f64 SIMD path may be taken.
    pub fn simd_f64(&self) -> bool {
        !self.forced_scalar && ((self.avx2 && self.fma) || self.sse2)
    }

    /// Whether the f32 SIMD path may be taken (requires AVX2+FMA).
    pub fn simd_f32(&self) -> bool {
        !self.forced_scalar && self.avx2 && self.fma
    }

    /// Whether the vectorized int8 dot path may be taken.
    pub fn simd_int8(&self) -> bool {
        !self.forced_scalar && self.avx2
    }

    /// Name of the ISA path GEMM dispatch takes on this host.
    pub fn isa_name(&self) -> &'static str {
        if self.forced_scalar {
            "scalar"
        } else if self.avx2 && self.fma {
            "avx2+fma"
        } else if self.sse2 {
            "sse2"
        } else {
            "scalar"
        }
    }
}

/// Detected CPU features (cached after the first call; reads
/// `SENSACT_FORCE_SCALAR` once).
pub fn cpu_features() -> &'static CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    FEATURES.get_or_init(detect)
}

/// Whether an f64 GEMM of this shape takes a SIMD path on this host — the
/// exact gate the f64 GEMM entry points apply. The blocked deconv lowering
/// in `sensact_nn` pins its per-block calls to the whole layer's choice
/// through this predicate, so blocking never changes an element's rounding.
pub fn simd_f64_eligible(m: usize, n: usize, k: usize) -> bool {
    let ops = m.saturating_mul(n).saturating_mul(k);
    cpu_features().simd_f64() && n != 0 && k != 0 && ops >= SIMD_MIN_OPS
}

/// Name of the ISA path GEMM dispatch takes on this host
/// (`"avx2+fma"`, `"sse2"` or `"scalar"`).
pub fn isa_name() -> &'static str {
    cpu_features().isa_name()
}

fn detect() -> CpuFeatures {
    let forced_scalar = std::env::var("SENSACT_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
            sse2: std::arch::is_x86_feature_detected!("sse2"),
            forced_scalar,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
            sse2: false,
            forced_scalar,
        }
    }
}

/// How the B operand is stored in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BLayout {
    /// Row-major `[k × n]` (plain GEMM).
    RowMajor,
    /// Row-major `[n × k]`, i.e. `B` transposed (the `gemm_transb` shape).
    Transposed,
}

/// Signature of an `MR × NR` microkernel: accumulate `kc` packed steps into
/// the C tile at `c` with row stride `ldc`.
type PanelKernel = unsafe fn(usize, *const f64, *const f64, *mut f64, usize);
#[cfg(target_arch = "x86_64")]
type PanelKernelF32 = unsafe fn(usize, *const f32, *const f32, *mut f32, usize);

// ---------------------------------------------------------------------------
// f64 path
// ---------------------------------------------------------------------------

/// SIMD GEMM attempt: `C = alpha*A*B + beta*C` (`b_layout` selects the
/// `gemm_transb` operand shape). Returns `false` — leaving `c` untouched —
/// when no SIMD path applies and the caller must run its scalar kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_f64(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    b_layout: BLayout,
) -> bool {
    if !simd_f64_eligible(m, n, k) {
        return false;
    }
    let ops = m.saturating_mul(n).saturating_mul(k);
    crate::kernels::scale_c(beta, c);
    let nthreads = crate::kernels::threads()
        .min(m)
        .min((ops / crate::kernels::PAR_MIN_OPS).max(1))
        .max(1);
    if nthreads > 1 {
        // Parallel over row bands: each thread owns a disjoint horizontal
        // slice of A and C and packs its own panels (B packing is repeated
        // per band — bounded overhead versus the saved wall-clock).
        let band = m.div_ceil(nthreads).div_ceil(MR_FMA) * MR_FMA;
        std::thread::scope(|scope| {
            for (a_band, c_band) in a.chunks(band * k).zip(c.chunks_mut(band * n)) {
                scope.spawn(move || {
                    let rows = c_band.len() / n;
                    gemm_f64_serial(rows, n, k, alpha, a_band, b, c_band, b_layout);
                });
            }
        });
    } else {
        gemm_f64_serial(m, n, k, alpha, a, b, c, b_layout);
    }
    true
}

/// Serial packed-panel driver (C pre-scaled by beta; computes `C += αAB`).
#[allow(clippy::too_many_arguments)]
fn gemm_f64_serial(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    b_layout: BLayout,
) {
    let f = cpu_features();
    #[cfg(target_arch = "x86_64")]
    if f.avx2 && f.fma {
        return gemm_panels::<MR_FMA, NR_F64>(
            m,
            n,
            k,
            alpha,
            a,
            b,
            c,
            b_layout,
            kernel_6x8_f64_fma,
        );
    }
    #[cfg(target_arch = "x86_64")]
    if f.sse2 {
        return gemm_panels::<MR_SSE, NR_SSE>(
            m,
            n,
            k,
            alpha,
            a,
            b,
            c,
            b_layout,
            kernel_4x4_f64_sse2,
        );
    }
    // Unreachable when simd_f64() gated the call, but keep a correct
    // portable fallback: the caller's scalar kernel semantics.
    let _ = f;
    crate::kernels::gemm_rows_scaled(n, k, alpha, a, b, c, b_layout == BLayout::Transposed);
}

/// Pack one `NR`-wide column panel of B for the `[k0, k0+kc)` block.
#[allow(clippy::too_many_arguments)]
fn pack_b_panel<const NR: usize>(
    n: usize,
    k: usize,
    k0: usize,
    kc: usize,
    j0: usize,
    b: &[f64],
    bp: &mut [f64],
    b_layout: BLayout,
) {
    let nr = (n - j0).min(NR);
    for kk in 0..kc {
        let dst = &mut bp[kk * NR..(kk + 1) * NR];
        match b_layout {
            BLayout::RowMajor => {
                let src = &b[(k0 + kk) * n + j0..];
                dst[..nr].copy_from_slice(&src[..nr]);
            }
            BLayout::Transposed => {
                for (l, d) in dst.iter_mut().take(nr).enumerate() {
                    *d = b[(j0 + l) * k + k0 + kk];
                }
            }
        }
        dst[nr..].fill(0.0);
    }
}

/// Pack one `MR`-high row panel of A (alpha folded in, short panels
/// zero-padded).
#[allow(clippy::too_many_arguments)]
fn pack_a_panel<const MR: usize>(
    k: usize,
    k0: usize,
    kc: usize,
    i0: usize,
    mr: usize,
    alpha: f64,
    a: &[f64],
    ap: &mut [f64],
) {
    for kk in 0..kc {
        let dst = &mut ap[kk * MR..(kk + 1) * MR];
        for (r, d) in dst.iter_mut().take(mr).enumerate() {
            *d = alpha * a[(i0 + r) * k + k0 + kk];
        }
        dst[mr..].fill(0.0);
    }
}

thread_local! {
    /// Per-thread packing scratch (B panels, A panel). Reused across GEMM
    /// dispatches: small calls would otherwise spend more on allocating
    /// (and, for wide panels, page-faulting) the packing buffers than on
    /// the arithmetic itself.
    static PACK_F64: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Packed-panel GEMM driver, generic over the tile shape and microkernel.
#[allow(clippy::too_many_arguments)]
fn gemm_panels<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    b_layout: BLayout,
    kernel: PanelKernel,
) {
    PACK_F64.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (bp, ap) = &mut *scratch;
        gemm_panels_in::<MR, NR>(m, n, k, alpha, a, b, c, b_layout, kernel, bp, ap);
    });
}

/// [`gemm_panels`] body with caller-provided packing scratch. Every packed
/// region is fully written (short panels zero-padded) before the microkernel
/// reads it, so stale scratch contents are harmless.
#[allow(clippy::too_many_arguments)]
fn gemm_panels_in<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    b_layout: BLayout,
    kernel: PanelKernel,
    bp: &mut Vec<f64>,
    ap: &mut Vec<f64>,
) {
    let np = n.div_ceil(NR);
    if bp.len() < np * KC.min(k) * NR {
        bp.resize(np * KC.min(k) * NR, 0.0);
    }
    if ap.len() < KC.min(k) * MR {
        ap.resize(KC.min(k) * MR, 0.0);
    }
    for k0 in (0..k).step_by(KC) {
        let kc = (k0 + KC).min(k) - k0;
        for jp in 0..np {
            pack_b_panel::<NR>(
                n,
                k,
                k0,
                kc,
                jp * NR,
                b,
                &mut bp[jp * kc * NR..(jp + 1) * kc * NR],
                b_layout,
            );
        }
        for i0 in (0..m).step_by(MR) {
            let mr = (m - i0).min(MR);
            pack_a_panel::<MR>(k, k0, kc, i0, mr, alpha, a, &mut ap[..kc * MR]);
            for jp in 0..np {
                let j0 = jp * NR;
                let nr = (n - j0).min(NR);
                let bpp = bp[jp * kc * NR..].as_ptr();
                if mr == MR && nr == NR {
                    // Full tile: accumulate straight into C.
                    unsafe { kernel(kc, ap.as_ptr(), bpp, c.as_mut_ptr().add(i0 * n + j0), n) };
                } else {
                    // Edge tile: stage through a stack tile so the kernel
                    // never reads or writes past the valid C region. The
                    // padded A rows / B columns are zero, so the dead lanes
                    // accumulate zeros and are simply not copied back.
                    let mut tile = [0.0f64; MAX_TILE];
                    for r in 0..mr {
                        tile[r * NR..r * NR + nr]
                            .copy_from_slice(&c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr]);
                    }
                    unsafe { kernel(kc, ap.as_ptr(), bpp, tile.as_mut_ptr(), NR) };
                    for r in 0..mr {
                        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr]
                            .copy_from_slice(&tile[r * NR..r * NR + nr]);
                    }
                }
            }
        }
    }
}

/// AVX2+FMA `6×8` f64 microkernel: 12 YMM accumulators hold the C tile, one
/// broadcast + two FMAs per row per `k` step (ascending `k`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_6x8_f64_fma(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; MR_FMA];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_pd(c.add(r * ldc));
        row[1] = _mm256_loadu_pd(c.add(r * ldc + 4));
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(kk * NR_F64));
        let b1 = _mm256_loadu_pd(bp.add(kk * NR_F64 + 4));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_broadcast_sd(&*ap.add(kk * MR_FMA + r));
            row[0] = _mm256_fmadd_pd(av, b0, row[0]);
            row[1] = _mm256_fmadd_pd(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_pd(c.add(r * ldc), row[0]);
        _mm256_storeu_pd(c.add(r * ldc + 4), row[1]);
    }
}

/// SSE2 `4×4` f64 microkernel. Multiply **then** add per step, ascending
/// `k` — the same rounding sequence as the scalar blocked kernel, so this
/// path is bitwise identical to it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn kernel_4x4_f64_sse2(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc: [[__m128d; 2]; MR_SSE] = [
        [_mm_loadu_pd(c), _mm_loadu_pd(c.add(2))],
        [_mm_loadu_pd(c.add(ldc)), _mm_loadu_pd(c.add(ldc + 2))],
        [
            _mm_loadu_pd(c.add(2 * ldc)),
            _mm_loadu_pd(c.add(2 * ldc + 2)),
        ],
        [
            _mm_loadu_pd(c.add(3 * ldc)),
            _mm_loadu_pd(c.add(3 * ldc + 2)),
        ],
    ];
    for kk in 0..kc {
        let b0 = _mm_loadu_pd(bp.add(kk * NR_SSE));
        let b1 = _mm_loadu_pd(bp.add(kk * NR_SSE + 2));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm_set1_pd(*ap.add(kk * MR_SSE + r));
            row[0] = _mm_add_pd(row[0], _mm_mul_pd(av, b0));
            row[1] = _mm_add_pd(row[1], _mm_mul_pd(av, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm_storeu_pd(c.add(r * ldc), row[0]);
        _mm_storeu_pd(c.add(r * ldc + 2), row[1]);
    }
}

// ---------------------------------------------------------------------------
// f32 path
// ---------------------------------------------------------------------------

/// SIMD f32 GEMM attempt (AVX2+FMA only). Returns `false` — leaving `c`
/// untouched — when the caller must run the scalar f32 kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_f32(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    b_layout: BLayout,
) -> bool {
    let f = cpu_features();
    let ops = m.saturating_mul(n).saturating_mul(k);
    if !f.simd_f32() || n == 0 || k == 0 || ops < SIMD_MIN_OPS {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        crate::kernels::scale_c_f32(beta, c);
        gemm_panels_f32(m, n, k, alpha, a, b, c, b_layout, kernel_6x16_f32_fma);
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, beta);
        false
    }
}

/// f32 packed-panel driver (`6×16` tiles; mirrors [`gemm_panels`]).
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
fn gemm_panels_f32(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    b_layout: BLayout,
    kernel: PanelKernelF32,
) {
    const MR: usize = MR_FMA;
    const NR: usize = NR_F32;
    thread_local! {
        /// Per-thread f32 packing scratch; same rationale as [`PACK_F64`].
        static PACK_F32: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    }
    let np = n.div_ceil(NR);
    PACK_F32.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (bp, ap) = &mut *scratch;
        if bp.len() < np * KC.min(k) * NR {
            bp.resize(np * KC.min(k) * NR, 0.0);
        }
        if ap.len() < KC.min(k) * MR {
            ap.resize(KC.min(k) * MR, 0.0);
        }
        for k0 in (0..k).step_by(KC) {
            let kc = (k0 + KC).min(k) - k0;
            for jp in 0..np {
                let j0 = jp * NR;
                let nr = (n - j0).min(NR);
                let panel = &mut bp[jp * kc * NR..(jp + 1) * kc * NR];
                for kk in 0..kc {
                    let dst = &mut panel[kk * NR..(kk + 1) * NR];
                    match b_layout {
                        BLayout::RowMajor => {
                            dst[..nr]
                                .copy_from_slice(&b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + nr]);
                        }
                        BLayout::Transposed => {
                            for (l, d) in dst.iter_mut().take(nr).enumerate() {
                                *d = b[(j0 + l) * k + k0 + kk];
                            }
                        }
                    }
                    dst[nr..].fill(0.0);
                }
            }
            for i0 in (0..m).step_by(MR) {
                let mr = (m - i0).min(MR);
                for kk in 0..kc {
                    let dst = &mut ap[kk * MR..(kk + 1) * MR];
                    for (r, d) in dst.iter_mut().take(mr).enumerate() {
                        *d = alpha * a[(i0 + r) * k + k0 + kk];
                    }
                    dst[mr..].fill(0.0);
                }
                for jp in 0..np {
                    let j0 = jp * NR;
                    let nr = (n - j0).min(NR);
                    let bpp = bp[jp * kc * NR..].as_ptr();
                    if mr == MR && nr == NR {
                        unsafe { kernel(kc, ap.as_ptr(), bpp, c.as_mut_ptr().add(i0 * n + j0), n) };
                    } else {
                        let mut tile = [0.0f32; MAX_TILE];
                        for r in 0..mr {
                            tile[r * NR..r * NR + nr]
                                .copy_from_slice(&c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr]);
                        }
                        unsafe { kernel(kc, ap.as_ptr(), bpp, tile.as_mut_ptr(), NR) };
                        for r in 0..mr {
                            c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr]
                                .copy_from_slice(&tile[r * NR..r * NR + nr]);
                        }
                    }
                }
            }
        }
    });
}

/// AVX2+FMA `6×16` f32 microkernel (12 YMM accumulators, 8 lanes each).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_6x16_f32_fma(kc: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR_FMA];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(kk * NR_F32));
        let b1 = _mm256_loadu_ps(bp.add(kk * NR_F32 + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_broadcast_ss(&*ap.add(kk * MR_FMA + r));
            row[0] = _mm256_fmadd_ps(av, b0, row[0]);
            row[1] = _mm256_fmadd_ps(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

// ---------------------------------------------------------------------------
// Direct convolution
// ---------------------------------------------------------------------------

/// Output channels per vector of the direct-conv tile (one YMM of f64).
/// [`conv3d_direct`] takes its weights packed in groups of this many.
pub const CONV_LANES: usize = 4;

/// Output positions per direct-conv tile: 8 YMM accumulators, enough
/// independent FMA chains to cover the FMA latency.
const CONV_POS: usize = 8;

/// Direct ("implicit-GEMM") 3-D convolution of one row over an input that
/// needs no bounds tests (zero padding already materialised).
///
/// - `input`: the padded input row;
/// - `taps`: offset in `input` of each kernel tap from an output position's
///   origin, in reduction order;
/// - `grid`: `(extent, step)` of the output positions along z, y and x —
///   position `(z, y, x)` has its origin at `z·step_z + y·step_y + x·step_x`;
/// - `weights`: packed `[cout.div_ceil(CONV_LANES)][taps.len()][CONV_LANES]`,
///   lanes past `cout` zero;
/// - `bias`: one per output channel (`cout = bias.len()`);
/// - `out`: `[cout × positions]`, fully overwritten.
///
/// Every output element starts at its bias and takes one multiply-add per
/// tap, in `taps` order: fused (one rounding) on AVX2+FMA hosts, a multiply
/// then an add on every other host and under `SENSACT_FORCE_SCALAR`. Its
/// bits depend only on that path and its own operands — never on the
/// position tile or channel group it lands in, nor on how many rows the
/// caller runs — so batched callers are bitwise equal to per-row ones.
///
/// # Panics
///
/// Panics if the slice lengths disagree or a tap would read past `input`.
pub fn conv3d_direct(
    input: &[f64],
    taps: &[usize],
    grid: [(usize, usize); 3],
    weights: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    let vol: usize = grid.iter().map(|g| g.0).product();
    let cout = bias.len();
    let group_len = taps.len() * CONV_LANES;
    assert_eq!(
        weights.len(),
        cout.div_ceil(CONV_LANES) * group_len,
        "conv3d_direct: weights must be packed [cout/4][taps][4]"
    );
    assert_eq!(out.len(), cout * vol, "conv3d_direct: out must be cout*vol");
    if vol == 0 || cout == 0 || taps.is_empty() {
        for (o, &b) in out.chunks_exact_mut(vol.max(1)).zip(bias) {
            o.fill(b);
        }
        return;
    }
    let reach: usize = grid.iter().map(|&(e, step)| (e - 1) * step).sum();
    let max_tap = taps.iter().copied().max().unwrap_or(0);
    assert!(
        reach + max_tap < input.len(),
        "conv3d_direct: a tap reads past the padded input"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let f = cpu_features();
        if !f.forced_scalar && f.avx2 && f.fma {
            // SAFETY: AVX2+FMA was detected; every tile origin is at most
            // `reach` and every tap at most `max_tap`, whose sum is asserted
            // in bounds above, and `weights` holds `taps.len()` lane groups
            // per channel group.
            return unsafe { conv_rows_fma(input, taps, grid, weights, bias, out) };
        }
    }
    conv_rows(taps, grid, weights, bias, out, |origins, w, seed, tile| {
        conv_tile_scalar(input, origins, taps, w, seed, tile)
    });
}

/// Accumulator tile of the direct conv: `CONV_LANES` output channels for
/// each of `CONV_POS` positions.
type ConvTile = [[f64; CONV_LANES]; CONV_POS];

/// Driver of [`conv3d_direct`] (arguments validated): walk the output
/// positions in tiles of `CONV_POS`, fill each channel group's tile with
/// `tile_fn` and store its live lanes. Inlined into each ISA path, so the
/// tile function inlines too.
#[inline(always)]
fn conv_rows(
    taps: &[usize],
    grid: [(usize, usize); 3],
    weights: &[f64],
    bias: &[f64],
    out: &mut [f64],
    mut tile_fn: impl FnMut(&[usize; CONV_POS], &[f64], &[f64; CONV_LANES], &mut ConvTile),
) {
    let (cout, group_len) = (bias.len(), taps.len() * CONV_LANES);
    let [(ed, step_z), (eh, step_y), (ew, step_x)] = grid;
    let vol = ed * eh * ew;
    let (mut z, mut y, mut x) = (0, 0, 0);
    let mut origins = [0usize; CONV_POS];
    let mut tile: ConvTile = [[0.0; CONV_LANES]; CONV_POS];
    for p0 in (0..vol).step_by(CONV_POS) {
        let np = (vol - p0).min(CONV_POS);
        for o in &mut origins[..np] {
            *o = z * step_z + y * step_y + x * step_x;
            x += 1;
            if x == ew {
                (x, y) = (0, y + 1);
                if y == eh {
                    (y, z) = (0, z + 1);
                }
            }
        }
        // Dead lanes of a short tile repeat its last position, so they read
        // in bounds; their results are not stored.
        let last = origins[np - 1];
        origins[np..].fill(last);
        for c0 in (0..cout).step_by(CONV_LANES) {
            let w = &weights[c0 * taps.len()..][..group_len];
            let seed = std::array::from_fn(|l| bias.get(c0 + l).copied().unwrap_or(0.0));
            tile_fn(&origins, w, &seed, &mut tile);
            for l in 0..(cout - c0).min(CONV_LANES) {
                let o = &mut out[(c0 + l) * vol + p0..][..np];
                for (dst, acc) in o.iter_mut().zip(&tile) {
                    *dst = acc[l];
                }
            }
        }
    }
}

/// [`conv_rows`] with the AVX2+FMA tile, compiled for AVX2+FMA as a whole.
///
/// # Safety
///
/// The host must support AVX2 and FMA, and the arguments must pass the
/// checks in [`conv3d_direct`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_rows_fma(
    input: &[f64],
    taps: &[usize],
    grid: [(usize, usize); 3],
    weights: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    conv_rows(taps, grid, weights, bias, out, |origins, w, seed, tile| {
        // SAFETY: the caller's contract (see above).
        unsafe { conv_tile_fma(input.as_ptr(), origins, taps, w.as_ptr(), seed, tile) }
    });
}

/// Scalar twin of [`conv_tile_fma`]: the same per-element sequence with a
/// multiply then an add per tap.
fn conv_tile_scalar(
    x: &[f64],
    origins: &[usize; CONV_POS],
    taps: &[usize],
    w: &[f64],
    seed: &[f64; CONV_LANES],
    tile: &mut ConvTile,
) {
    *tile = [*seed; CONV_POS];
    for (&off, wt) in taps.iter().zip(w.chunks_exact(CONV_LANES)) {
        for (acc, &o) in tile.iter_mut().zip(origins) {
            let xv = x[o + off];
            for (a, &wl) in acc.iter_mut().zip(wt) {
                *a += wl * xv;
            }
        }
    }
}

/// AVX2+FMA direct-conv tile: `CONV_POS` YMM accumulators of `CONV_LANES`
/// output channels, seeded with the bias; per tap one weight-vector load
/// and, per position, one broadcast + one FMA.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_tile_fma(
    x: *const f64,
    origins: &[usize; CONV_POS],
    taps: &[usize],
    w: *const f64,
    seed: &[f64; CONV_LANES],
    tile: &mut ConvTile,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_loadu_pd(seed.as_ptr()); CONV_POS];
    let rows = origins.map(|o| x.add(o));
    for (t, &off) in taps.iter().enumerate() {
        let wv = _mm256_loadu_pd(w.add(t * CONV_LANES));
        for (a, r) in acc.iter_mut().zip(&rows) {
            *a = _mm256_fmadd_pd(_mm256_broadcast_sd(&*r.add(off)), wv, *a);
        }
    }
    for (a, dst) in acc.iter().zip(tile.iter_mut()) {
        _mm256_storeu_pd(dst.as_mut_ptr(), *a);
    }
}

// ---------------------------------------------------------------------------
// int8 path
// ---------------------------------------------------------------------------

/// Signed 16-bit dot product over `len` entries, exact in integer
/// arithmetic. Values are int8-range (`|x| ≤ 127`), so the i32 lanes of the
/// AVX2 `madd` accumulation cannot overflow for `k < 2^20`.
pub(crate) fn dot_i16(x: &[i16], y: &[i16]) -> i64 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if cpu_features().simd_int8() {
        return unsafe { dot_i16_avx2(x.as_ptr(), y.as_ptr(), x.len()) };
    }
    x.iter()
        .zip(y)
        .map(|(&a, &b)| a as i64 * b as i64)
        .sum::<i64>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i16_avx2(x: *const i16, y: *const i16, len: usize) -> i64 {
    use std::arch::x86_64::*;
    let chunks = len / 16;
    let mut acc = _mm256_setzero_si256();
    for t in 0..chunks {
        let xv = _mm256_loadu_si256(x.add(t * 16) as *const __m256i);
        let yv = _mm256_loadu_si256(y.add(t * 16) as *const __m256i);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut sum: i64 = lanes.iter().map(|&v| v as i64).sum();
    for t in chunks * 16..len {
        sum += *x.add(t) as i64 * *y.add(t) as i64;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm_blocked, gemm_naive};
    use crate::rng::StdRng;

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_f64() * 2.0 - 1.0).collect()
    }

    /// Forward-error bound for the FMA path versus the naive kernel:
    /// both orderings satisfy |ĉ - c| ≤ γ_{k+2}(|αA||B|)_ij + |βc0| terms,
    /// so their difference is within twice that.
    fn fma_bound(m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64]) -> Vec<f64> {
        let abs_a: Vec<f64> = a.iter().map(|x| (alpha * x).abs()).collect();
        let abs_b: Vec<f64> = b.iter().map(|x| x.abs()).collect();
        let mut bound = vec![0.0; m * n];
        gemm_naive(m, n, k, 1.0, &abs_a, &abs_b, 0.0, &mut bound);
        let gamma = 2.0 * (k as f64 + 2.0) * f64::EPSILON;
        for x in bound.iter_mut() {
            *x = *x * gamma + 1e-300;
        }
        bound
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_panel_path_is_bitwise_vs_blocked() {
        if !cpu_features().sse2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x55E2);
        for &(m, n, k) in &[(4, 4, 8), (7, 9, 300), (64, 33, 257), (1, 16, 40)] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            gemm_blocked(m, n, k, 1.25, &a, &b, 0.0, &mut c_ref);
            let mut c = vec![0.0; m * n];
            gemm_panels::<MR_SSE, NR_SSE>(
                m,
                n,
                k,
                1.25,
                &a,
                &b,
                &mut c,
                BLayout::RowMajor,
                kernel_4x4_f64_sse2,
            );
            assert_eq!(c_ref, c, "sse2 path not bitwise at {m}x{n}x{k}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_panel_path_is_within_forward_error_bound() {
        let f = cpu_features();
        if !(f.avx2 && f.fma) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xF3A);
        for &(m, n, k) in &[(6, 8, 16), (13, 21, 300), (64, 64, 64), (3, 100, 257)] {
            let alpha = -0.75;
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, n, k, alpha, &a, &b, 0.0, &mut c_ref);
            let mut c = vec![0.0; m * n];
            gemm_panels::<MR_FMA, NR_F64>(
                m,
                n,
                k,
                alpha,
                &a,
                &b,
                &mut c,
                BLayout::RowMajor,
                kernel_6x8_f64_fma,
            );
            let bound = fma_bound(m, n, k, alpha, &a, &b);
            for (i, ((&x, &y), &tol)) in c_ref.iter().zip(&c).zip(&bound).enumerate() {
                assert!(
                    (x - y).abs() <= tol,
                    "fma diff {} > bound {tol} at {i} ({m}x{n}x{k})",
                    (x - y).abs()
                );
            }
        }
    }

    /// Both direct-conv paths over a 1-D "volume" (grid z = y = 1) with a
    /// ragged channel group (6 channels) and a ragged position tile (13
    /// positions): the scalar twin is bitwise equal to bias-then-taps
    /// multiply-add in `taps` order, the FMA path within the FMA bound.
    #[test]
    fn conv3d_direct_paths_match_the_tap_order() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let (cout, vol, taps) = (6usize, 13usize, [0usize, 1, 2, 5, 9]);
        let input = random_mat(&mut rng, 2 * vol + 10);
        let w_raw = random_mat(&mut rng, cout * taps.len());
        let bias = random_mat(&mut rng, cout);
        let mut packed = vec![0.0; 2 * taps.len() * CONV_LANES];
        for (i, p) in packed.iter_mut().enumerate() {
            let co = i / (taps.len() * CONV_LANES) * CONV_LANES + i % CONV_LANES;
            if co < cout {
                *p = w_raw[co * taps.len() + i / CONV_LANES % taps.len()];
            }
        }
        let grid = [(1, 0), (1, 0), (vol, 2)];
        // Both orders are within γ_{k+2}·(|bias| + Σ|terms|) of exact.
        let gamma = 2.0 * (taps.len() + 2) as f64 * f64::EPSILON;
        let (mut want, mut bound) = (vec![0.0; cout * vol], vec![0.0; cout * vol]);
        for co in 0..cout {
            for p in 0..vol {
                let (mut acc, mut mag) = (bias[co], bias[co].abs());
                for (t, &off) in taps.iter().enumerate() {
                    let term = w_raw[co * taps.len() + t] * input[2 * p + off];
                    acc += term;
                    mag += term.abs();
                }
                want[co * vol + p] = acc;
                bound[co * vol + p] = gamma * mag;
            }
        }
        let mut scalar = vec![f64::NAN; cout * vol];
        conv_rows(
            &taps,
            grid,
            &packed,
            &bias,
            &mut scalar,
            |o, w, seed, tile| conv_tile_scalar(&input, o, &taps, w, seed, tile),
        );
        assert_eq!(scalar, want, "scalar twin is not bias-then-taps in order");
        let mut host = vec![f64::NAN; cout * vol];
        conv3d_direct(&input, &taps, grid, &packed, &bias, &mut host);
        for ((&h, &w), &b) in host.iter().zip(&want).zip(&bound) {
            assert!((h - w).abs() <= b, "host path {h} vs {w}");
        }
    }

    #[test]
    fn dot_i16_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(0xD07);
        for len in [0usize, 1, 15, 16, 17, 64, 257] {
            let x: Vec<i16> = (0..len)
                .map(|_| (rng.random_range(0..255u32) as i16) - 127)
                .collect();
            let y: Vec<i16> = (0..len)
                .map(|_| (rng.random_range(0..255u32) as i16) - 127)
                .collect();
            let reference: i64 = x.iter().zip(&y).map(|(&a, &b)| a as i64 * b as i64).sum();
            assert_eq!(dot_i16(&x, &y), reference, "len {len}");
        }
    }

    #[test]
    fn feature_report_is_coherent() {
        let f = cpu_features();
        // The name must be one of the three documented paths, and forcing
        // scalar implies every simd_* gate is closed.
        assert!(["avx2+fma", "sse2", "scalar"].contains(&f.isa_name()));
        if f.forced_scalar {
            assert!(!f.simd_f64() && !f.simd_f32() && !f.simd_int8());
            assert_eq!(f.isa_name(), "scalar");
        }
        assert_eq!(isa_name(), f.isa_name());
    }
}
