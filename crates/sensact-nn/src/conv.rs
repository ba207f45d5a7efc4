//! 3-D convolution and transposed convolution over voxel grids.
//!
//! These are the workhorses of the R-MAE occupancy autoencoder (paper §III):
//! a strided [`Conv3d`] encoder over the (sparse) voxelized point cloud and a
//! [`Deconv3d`] decoder that upsamples back to full resolution for occupancy
//! prediction.
//!
//! Tensors are laid out `[batch, channels * depth * height * width]` with the
//! spatial dimensions carried by the layer configuration.
//!
//! [`Conv3d`]'s f64 inference runs the direct kernel
//! [`sensact_math::simd::conv3d_direct`]: each input row is copied once into
//! a zero-padded volume and every output element is its bias plus one
//! multiply-add per tap in `(ci, kd, kh, kw)` order (fused on AVX2+FMA
//! hosts). An element's bits therefore depend only on the host path, never
//! on batch size or position, so batched serving equals per-row serving bit
//! for bit. Its backward pass and the f32/int8 forwards lower onto the GEMM
//! kernels in `sensact_math::kernels` through `im2col`.
//!
//! [`Deconv3d`]'s forward lowers in balanced blocks of input positions into
//! one per-thread scratch sized for L2: each block runs through the
//! packed-panel GEMM and is folded onto the output before the next one
//! starts, so the column panel is still cache-resident.
//!
//! The original gather-formulation loops (which skip all-zero input voxels —
//! the "spatially sparse" trick the paper's encoder relies on) are kept as
//! [`Conv3d::forward_reference`] / [`Deconv3d::forward_reference`] for
//! equivalence testing and benchmarking.

use crate::init::Initializer;
use crate::layers::Layer;
use crate::tensor::Tensor;
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use sensact_math::kernels;
use sensact_math::kernels::Precision as RunPrecision;
use sensact_math::simd;
use std::ops::Range;

/// Column-panel f64s one lowering block may unfold (128 KiB): the panel, the
/// GEMM's packed copy of it and the block's output tile stay L2-resident
/// between unfold, GEMM and fold.
const BLOCK_COL_LEN: usize = 16 * 1024;

/// Number of balanced blocks to lower `len` positions in, each unfolding a
/// `patch`-wide column panel of about [`BLOCK_COL_LEN`] f64s at most.
///
/// `eligible(n)` is the SIMD gate of the GEMM a block of `n` positions runs
/// (monotone in `n`). When the whole layer would take the SIMD path, the
/// count shrinks until the smallest block takes it too, so blocking never
/// changes which kernel — and so which rounding — an output element gets.
fn lowering_blocks(len: usize, patch: usize, eligible: impl Fn(usize) -> bool) -> usize {
    let mut blocks = (len * patch).div_ceil(BLOCK_COL_LEN).clamp(1, len.max(1));
    if eligible(len) {
        while blocks > 1 && !eligible(len / blocks) {
            blocks -= 1;
        }
    }
    blocks
}

/// Positions of block `b` out of `blocks` balanced blocks over `len`.
fn block_range(len: usize, blocks: usize, b: usize) -> Range<usize> {
    b * len / blocks..(b + 1) * len / blocks
}

thread_local! {
    /// Lowering scratch shared by every conv/deconv forward on the thread:
    /// the packed weights plus the zero-padded input row (conv), or the
    /// transposed input row plus one block's column panel (deconv). It grows
    /// to the largest layer's need once, so models add no per-layer buffers.
    static LOWERING_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` on the first `len` f64s of the thread's lowering scratch.
fn with_lowering_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    LOWERING_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        f(&mut scratch[..len])
    })
}

/// Valid kernel taps `lo..hi` at coordinate `o`: tap `t` touches position
/// `o·stride + t - pad` on the other side, which must lie in `0..extent`.
#[inline]
fn tap_range(o: usize, stride: usize, pad: usize, kernel: usize, extent: usize) -> Range<usize> {
    let lo = pad.saturating_sub(o * stride).min(kernel);
    let hi = (extent + pad).saturating_sub(o * stride).clamp(lo, kernel);
    lo..hi
}

/// Spatial extents of a 3-D feature volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims3 {
    /// Depth (z).
    pub d: usize,
    /// Height (y).
    pub h: usize,
    /// Width (x).
    pub w: usize,
}

impl Dims3 {
    /// Construct from depth/height/width.
    pub fn new(d: usize, h: usize, w: usize) -> Self {
        Dims3 { d, h, w }
    }

    /// Number of voxels.
    pub fn volume(&self) -> usize {
        self.d * self.h * self.w
    }
}

fn conv_out(extent: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (extent + 2 * pad - kernel) / stride + 1
}

fn deconv_out(extent: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (extent - 1) * stride + kernel - 2 * pad
}

/// Strided 3-D convolution.
#[derive(Debug, Clone)]
pub struct Conv3d {
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    in_dims: Dims3,
    out_dims: Dims3,
    /// Weights `[cout, cin, k, k, k]` flattened.
    weights: Vec<f64>,
    bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cached_input: Option<Tensor>,
    /// Lazily-built f32 copy of `weights` for the reduced-precision forward
    /// path; invalidated whenever the parameters become mutable.
    weights_f32: Option<Vec<f32>>,
}

impl Conv3d {
    /// Convolution with cubic kernel `kernel`, stride and zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces an empty output volume.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_dims: Dims3,
        init: &mut Initializer,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            in_dims.d + 2 * pad >= kernel
                && in_dims.h + 2 * pad >= kernel
                && in_dims.w + 2 * pad >= kernel,
            "kernel larger than padded input"
        );
        let out_dims = Dims3::new(
            conv_out(in_dims.d, kernel, stride, pad),
            conv_out(in_dims.h, kernel, stride, pad),
            conv_out(in_dims.w, kernel, stride, pad),
        );
        let fan_in = cin * kernel * kernel * kernel;
        let wcount = cout * fan_in;
        Conv3d {
            cin,
            cout,
            kernel,
            stride,
            pad,
            in_dims,
            out_dims,
            weights: init.he(fan_in, wcount),
            bias: vec![0.0; cout],
            grad_w: vec![0.0; wcount],
            grad_b: vec![0.0; cout],
            cached_input: None,
            weights_f32: None,
        }
    }

    /// Output spatial dimensions.
    pub fn out_dims(&self) -> Dims3 {
        self.out_dims
    }

    /// Input spatial dimensions.
    pub fn in_dims(&self) -> Dims3 {
        self.in_dims
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.cout
    }

    #[inline]
    fn widx(&self, co: usize, ci: usize, kd: usize, kh: usize, kw: usize) -> usize {
        (((co * self.cin + ci) * self.kernel + kd) * self.kernel + kh) * self.kernel + kw
    }

    #[inline]
    fn in_idx(&self, c: usize, z: usize, y: usize, x: usize) -> usize {
        ((c * self.in_dims.d + z) * self.in_dims.h + y) * self.in_dims.w + x
    }

    #[inline]
    fn out_idx(&self, c: usize, z: usize, y: usize, x: usize) -> usize {
        ((c * self.out_dims.d + z) * self.out_dims.h + y) * self.out_dims.w + x
    }

    /// Patch length of the im2col matrix: `cin * kernel³`.
    #[inline]
    fn patch_len(&self) -> usize {
        self.cin * self.kernel * self.kernel * self.kernel
    }

    /// Unfold output positions `positions` of one batch row into `col`, laid
    /// out `[positions.len(), cin*k³]` row-major. Out-of-bounds (padding)
    /// taps are written as zero, so the buffer never needs pre-clearing.
    /// Bounds are resolved once per position into valid tap ranges, so the
    /// innermost loop is a plain copy along x.
    fn im2col(&self, xrow: &[f64], positions: Range<usize>, col: &mut [f64]) {
        let k = self.kernel;
        let (s, pad) = (self.stride, self.pad);
        let (ind, od) = (self.in_dims, self.out_dims);
        assert_eq!(col.len(), positions.len() * self.patch_len());
        for (p, dst) in positions.zip(col.chunks_exact_mut(self.patch_len())) {
            let (oz, oy, ox) = (p / (od.h * od.w), p / od.w % od.h, p % od.w);
            let zs = tap_range(oz, s, pad, k, ind.d);
            let ys = tap_range(oy, s, pad, k, ind.h);
            let xs = tap_range(ox, s, pad, k, ind.w);
            if zs.len() < k || ys.len() < k || xs.len() < k {
                dst.fill(0.0);
            }
            if xs.is_empty() {
                continue;
            }
            let x0 = ox * s + xs.start - pad;
            for ci in 0..self.cin {
                for kd in zs.clone() {
                    for kh in ys.clone() {
                        let src = self.in_idx(ci, oz * s + kd - pad, oy * s + kh - pad, x0);
                        let q = ((ci * k + kd) * k + kh) * k;
                        for (d, &v) in dst[q + xs.start..q + xs.end].iter_mut().zip(&xrow[src..]) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }

    /// Fold a `[out_volume, cin*k³]` column-gradient buffer back onto the
    /// input gradient row (scatter-add; padding taps are dropped).
    fn col2im_add(&self, col: &[f64], grad_row: &mut [f64]) {
        let k = self.kernel;
        let ckk = self.patch_len();
        let mut p = 0;
        for oz in 0..self.out_dims.d {
            for oy in 0..self.out_dims.h {
                for ox in 0..self.out_dims.w {
                    let src = &col[p * ckk..(p + 1) * ckk];
                    let mut q = 0;
                    for ci in 0..self.cin {
                        for kd in 0..k {
                            let z = oz * self.stride + kd;
                            for kh in 0..k {
                                let y = oy * self.stride + kh;
                                for kw in 0..k {
                                    let x = ox * self.stride + kw;
                                    if z >= self.pad
                                        && y >= self.pad
                                        && x >= self.pad
                                        && z - self.pad < self.in_dims.d
                                        && y - self.pad < self.in_dims.h
                                        && x - self.pad < self.in_dims.w
                                    {
                                        grad_row[self.in_idx(
                                            ci,
                                            z - self.pad,
                                            y - self.pad,
                                            x - self.pad,
                                        )] += src[q];
                                    }
                                    q += 1;
                                }
                            }
                        }
                    }
                    p += 1;
                }
            }
        }
    }

    /// Reference gather-formulation forward pass (sparse-friendly: all-zero
    /// input voxels are skipped entirely). Kept for equivalence tests and as
    /// the naive baseline in the kernel benchmarks; the production
    /// [`Layer::forward`] runs the direct kernel instead.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        let in_feat = self.cin * self.in_dims.volume();
        assert_eq!(input.shape()[1], in_feat, "Conv3d: input feature mismatch");
        let out_feat = self.cout * self.out_dims.volume();
        let mut out = Tensor::zeros(vec![batch, out_feat]);
        let k = self.kernel;
        for b in 0..batch {
            let xrow = input.row(b);
            let orow = out.row_mut(b);
            // Bias first.
            for co in 0..self.cout {
                let base = co * self.out_dims.volume();
                for v in &mut orow[base..base + self.out_dims.volume()] {
                    *v = self.bias[co];
                }
            }
            // Gather formulation: scatter each nonzero input voxel into the
            // outputs it contributes to (sparse-friendly).
            for ci in 0..self.cin {
                for z in 0..self.in_dims.d {
                    for y in 0..self.in_dims.h {
                        for x in 0..self.in_dims.w {
                            let xv = xrow[self.in_idx(ci, z, y, x)];
                            if xv == 0.0 {
                                continue;
                            }
                            // Output positions (oz, oy, ox) with kernel offset
                            // (kd, kh, kw) satisfying oz*s - p + kd == z, etc.
                            for kd in 0..k {
                                let zp = z + self.pad;
                                if zp < kd || !(zp - kd).is_multiple_of(self.stride) {
                                    continue;
                                }
                                let oz = (zp - kd) / self.stride;
                                if oz >= self.out_dims.d {
                                    continue;
                                }
                                for kh in 0..k {
                                    let yp = y + self.pad;
                                    if yp < kh || !(yp - kh).is_multiple_of(self.stride) {
                                        continue;
                                    }
                                    let oy = (yp - kh) / self.stride;
                                    if oy >= self.out_dims.h {
                                        continue;
                                    }
                                    for kw in 0..k {
                                        let xp = x + self.pad;
                                        if xp < kw || !(xp - kw).is_multiple_of(self.stride) {
                                            continue;
                                        }
                                        let ox = (xp - kw) / self.stride;
                                        if ox >= self.out_dims.w {
                                            continue;
                                        }
                                        for co in 0..self.cout {
                                            orow[self.out_idx(co, oz, oy, ox)] +=
                                                xv * self.weights[self.widx(co, ci, kd, kh, kw)];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The f64 inference forward behind [`Layer::forward`], [`forward_with_precision`](Conv3d::forward_with_precision)`(F64)`
    /// and the batched forwards: every `(input row, output row)` pair runs
    /// through [`simd::conv3d_direct`], which writes the output row in place.
    ///
    /// Per call, the weights are packed into channel groups and, when the
    /// layer pads, each input row is copied once into a zero-padded volume,
    /// both in the thread's lowering scratch. Each output element is its
    /// bias plus one multiply-add per tap in `(ci, kd, kh, kw)` order, so a
    /// row's bits never depend on how many rows share the call.
    fn forward_rows<'a, 'b>(&self, pairs: impl IntoIterator<Item = (&'a [f64], &'b mut [f64])>) {
        let (k, s, pad, cout) = (self.kernel, self.stride, self.pad, self.cout);
        let (ind, od) = (self.in_dims, self.out_dims);
        let padded = Dims3::new(ind.d + 2 * pad, ind.h + 2 * pad, ind.w + 2 * pad);
        let (pw, plane, chan) = (padded.w, padded.h * padded.w, padded.volume());
        let mut taps = Vec::with_capacity(self.patch_len());
        for ci in 0..self.cin {
            for kd in 0..k {
                for kh in 0..k {
                    taps.extend((0..k).map(|kw| ci * chan + kd * plane + kh * pw + kw));
                }
            }
        }
        let grid = [(od.d, s * plane), (od.h, s * pw), (od.w, s)];
        let lanes = simd::CONV_LANES;
        let packed_len = cout.div_ceil(lanes) * taps.len() * lanes;
        let padded_len = if pad == 0 { 0 } else { self.cin * chan };
        let (in_feat, out_feat) = (self.in_features(), self.out_features());
        with_lowering_scratch(packed_len + padded_len, |scratch| {
            let (packed, xpad) = scratch.split_at_mut(packed_len);
            // packed[g][t][l] = W[g·lanes + l, t], zero past cout.
            for (g, group) in packed.chunks_exact_mut(taps.len() * lanes).enumerate() {
                for (t, lane) in group.chunks_exact_mut(lanes).enumerate() {
                    for (l, w) in lane.iter_mut().enumerate() {
                        let co = g * lanes + l;
                        *w = if co < cout {
                            self.weights[co * taps.len() + t]
                        } else {
                            0.0
                        };
                    }
                }
            }
            xpad.fill(0.0);
            for (x, o) in pairs {
                assert_eq!(x.len(), in_feat, "Conv3d: input feature mismatch");
                assert_eq!(
                    o.len(),
                    out_feat,
                    "Conv3d: output row must be cout * out_volume"
                );
                let src: &[f64] = if pad == 0 {
                    x
                } else {
                    // Rows (ci, z, y) of the input land inside the border.
                    let mut rows = x.chunks_exact(ind.w);
                    for ci in 0..self.cin {
                        for z in pad..pad + ind.d {
                            for y in pad..pad + ind.h {
                                let at = ci * chan + z * plane + y * pw + pad;
                                let row = rows.next().expect("sized by the assert above");
                                // Short rows: element moves beat a memcpy call.
                                for (d, v) in xpad[at..at + ind.w].iter_mut().zip(row) {
                                    *d = *v;
                                }
                            }
                        }
                    }
                    xpad
                };
                simd::conv3d_direct(src, &taps, grid, packed, &self.bias, o);
            }
        });
    }

    /// [`forward_rows`](Conv3d::forward_rows) over the rows of a batch
    /// tensor.
    fn forward_f64(&self, input: &Tensor) -> Tensor {
        let (in_feat, out_feat) = (self.in_features(), self.out_features());
        assert_eq!(input.shape()[1], in_feat, "Conv3d: input feature mismatch");
        let mut out = Tensor::zeros(vec![input.shape()[0], out_feat]);
        self.forward_rows(
            input
                .as_slice()
                .chunks_exact(in_feat)
                .zip(out.as_mut_slice().chunks_exact_mut(out_feat)),
        );
        out
    }

    /// Inference forward pass at a runtime-selected numeric precision (the
    /// mixed-precision mode a loop's
    /// `StageContext::precision` carries):
    ///
    /// - [`RunPrecision::F64`] — the production direct kernel, the same
    ///   code as [`Layer::forward`].
    /// - [`RunPrecision::F32`] — weights cast once into a cached f32 copy,
    ///   the im2col buffer cast per batch, lowered onto the f32 SIMD GEMM.
    /// - [`RunPrecision::Int8`] — weights and columns quantized to the
    ///   symmetric int8 grid (the same grid as
    ///   [`fake_quantize`](crate::quant::fake_quantize) at 8 bits) with exact
    ///   integer accumulation.
    ///
    /// Inference-only: does not cache the input for [`Layer::backward`].
    pub fn forward_with_precision(&mut self, input: &Tensor, precision: RunPrecision) -> Tensor {
        if precision == RunPrecision::F64 {
            return self.forward_f64(input);
        }
        let batch = input.shape()[0];
        let in_feat = self.cin * self.in_dims.volume();
        assert_eq!(input.shape()[1], in_feat, "Conv3d: input feature mismatch");
        let vol = self.out_dims.volume();
        let ckk = self.patch_len();
        let mut out = Tensor::zeros(vec![batch, self.cout * vol]);
        let mut col = vec![0.0; vol * ckk];
        match precision {
            RunPrecision::F64 => unreachable!("lowered by forward_f64 above"),
            RunPrecision::F32 => {
                if self.weights_f32.is_none() {
                    self.weights_f32 = Some(self.weights.iter().map(|w| *w as f32).collect());
                }
                let mut colf = vec![0.0f32; vol * ckk];
                let mut outf = vec![0.0f32; self.cout * vol];
                for b in 0..batch {
                    self.im2col(input.row(b), 0..vol, &mut col);
                    for (dst, src) in colf.iter_mut().zip(&col) {
                        *dst = *src as f32;
                    }
                    for co in 0..self.cout {
                        outf[co * vol..(co + 1) * vol].fill(self.bias[co] as f32);
                    }
                    let wf = self.weights_f32.as_ref().expect("built above");
                    kernels::gemm_transb_f32(self.cout, vol, ckk, 1.0, wf, &colf, 1.0, &mut outf);
                    for (dst, src) in out.row_mut(b).iter_mut().zip(&outf) {
                        *dst = *src as f64;
                    }
                }
            }
            RunPrecision::Int8 => {
                let mut prod = vec![0.0; self.cout * vol];
                for b in 0..batch {
                    self.im2col(input.row(b), 0..vol, &mut col);
                    // Integer accumulation is exact; the bias is added after
                    // dequantization so it is not quantized away.
                    let _ = kernels::gemm_transb_int8(
                        self.cout,
                        vol,
                        ckk,
                        &self.weights,
                        &col,
                        &mut prod,
                    );
                    let orow = out.row_mut(b);
                    for co in 0..self.cout {
                        for (dst, src) in orow[co * vol..(co + 1) * vol]
                            .iter_mut()
                            .zip(&prod[co * vol..(co + 1) * vol])
                        {
                            *dst = self.bias[co] + *src;
                        }
                    }
                }
            }
        }
        out
    }

    /// Feature count of one input row (`cin · in_volume`).
    pub fn in_features(&self) -> usize {
        self.cin * self.in_dims.volume()
    }

    /// Feature count of one output row (`cout · out_volume`).
    pub fn out_features(&self) -> usize {
        self.cout * self.out_dims.volume()
    }

    /// Cross-loop batched inference at full precision: `rows.len()`
    /// independent input rows through one call (weights packed once), each
    /// bitwise identical to its per-row forward — see
    /// [`forward_batch_with_precision`](Conv3d::forward_batch_with_precision).
    pub fn forward_batch(&mut self, rows: &[&[f64]], out: &mut [f64]) {
        self.forward_batch_with_precision(rows, RunPrecision::F64, out);
    }

    /// Cross-loop batched inference forward: `rows` are independent input
    /// rows (one per leased loop), `out` receives the stacked output rows
    /// (`rows.len() × cout·out_volume`, fully overwritten). Numerics per
    /// precision:
    ///
    /// - [`RunPrecision::F64`] — the direct kernel row by row: **bitwise
    ///   identical** to the per-row forward for every batch size, because
    ///   an element's rounding depends only on its own taps and the host
    ///   path ([`simd::conv3d_direct`]).
    /// - [`RunPrecision::F32`] — all members' im2col panels stacked into one
    ///   f32 GEMM; each element stays within the same analytic
    ///   single-precision envelope as the per-row f32 path (the bound
    ///   depends only on the reduction depth `cin·k³`).
    /// - [`RunPrecision::Int8`] — one stacked quantized GEMM. The column
    ///   grid is shared across the batch (max-abs over the stacked panels),
    ///   so elements may differ from the per-row path within the sum of the
    ///   two analytic quantization bounds.
    pub fn forward_batch_with_precision(
        &mut self,
        rows: &[&[f64]],
        precision: RunPrecision,
        out: &mut [f64],
    ) {
        let batch = rows.len();
        let (in_feat, out_feat) = (self.in_features(), self.out_features());
        assert_eq!(
            out.len(),
            batch * out_feat,
            "Conv3d::forward_batch: output must be batch * cout * out_volume"
        );
        if precision == RunPrecision::F64 {
            return self.forward_rows(rows.iter().copied().zip(out.chunks_exact_mut(out_feat)));
        }
        if batch == 0 {
            return;
        }
        let (cout, vol, ckk) = (self.cout, self.out_dims.volume(), self.patch_len());
        let panel = vol * ckk;
        let mut col = vec![0.0; batch * panel];
        for (row, c) in rows.iter().zip(col.chunks_exact_mut(panel)) {
            assert_eq!(
                row.len(),
                in_feat,
                "Conv3d::forward_batch: input row feature mismatch"
            );
            self.im2col(row, 0..vol, c);
        }
        // Gathered [cout × batch·vol] panel: item t owns columns t·vol..(t+1)·vol.
        let nn = batch * vol;
        let mut prod = vec![0.0; cout * nn];
        match precision {
            RunPrecision::F64 => unreachable!("run by forward_rows above"),
            RunPrecision::F32 => {
                let wf = self
                    .weights_f32
                    .get_or_insert_with(|| self.weights.iter().map(|w| *w as f32).collect());
                let colf: Vec<f32> = col.iter().map(|v| *v as f32).collect();
                // Pre-filled with the bias (beta = 1 keeps it, matching the
                // per-row path).
                let mut outf = vec![0.0f32; cout * nn];
                for (o, &b) in outf.chunks_exact_mut(nn).zip(&self.bias) {
                    o.fill(b as f32);
                }
                kernels::gemm_transb_f32(cout, nn, ckk, 1.0, wf, &colf, 1.0, &mut outf);
                for (p, v) in prod.iter_mut().zip(&outf) {
                    *p = *v as f64;
                }
            }
            RunPrecision::Int8 => {
                let _ = kernels::gemm_transb_int8(cout, nn, ckk, &self.weights, &col, &mut prod);
                for (p, &b) in prod.chunks_exact_mut(nn).zip(&self.bias) {
                    p.iter_mut().for_each(|v| *v += b);
                }
            }
        }
        for (t, orow) in out.chunks_exact_mut(out_feat).enumerate() {
            for (co, o) in orow.chunks_exact_mut(vol).enumerate() {
                o.copy_from_slice(&prod[co * nn + t * vol..co * nn + (t + 1) * vol]);
            }
        }
    }

    /// Scatter-free batched inference at full precision: like
    /// [`forward_batch`](Conv3d::forward_batch) but each item's output row
    /// is an independent caller-owned buffer (`outs[t]`, fully
    /// overwritten). This is the serving fast path: the batch planner hands
    /// the leases' own feature buffers to the kernel, with no stacked copy.
    /// Bitwise identical to the per-row forward for every batch size.
    pub fn forward_batch_into(&mut self, rows: &[&[f64]], outs: &mut [&mut [f64]]) {
        assert_eq!(
            rows.len(),
            outs.len(),
            "Conv3d::forward_batch_into: one output row per input row"
        );
        self.forward_rows(rows.iter().copied().zip(outs.iter_mut().map(|o| &mut **o)));
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = self.forward_f64(input);
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv3d::backward before forward");
        let batch = input.shape()[0];
        let vol = self.out_dims.volume();
        let ckk = self.patch_len();
        let mut grad_in = Tensor::zeros(vec![batch, self.cin * self.in_dims.volume()]);
        let mut col = vec![0.0; vol * ckk];
        let mut gcol = vec![0.0; vol * ckk];
        for b in 0..batch {
            let grow = grad_out.row(b);
            for co in 0..self.cout {
                self.grad_b[co] += grow[co * vol..(co + 1) * vol].iter().sum::<f64>();
            }
            self.im2col(input.row(b), 0..vol, &mut col);
            // grad_w += g [cout, P] · col [P, cin*k³]  (beta = 1 accumulates)
            kernels::gemm(self.cout, ckk, vol, 1.0, grow, &col, 1.0, &mut self.grad_w);
            // grad_col = gᵀ W : [P, cin*k³]
            kernels::gemm_transa(
                vol,
                ckk,
                self.cout,
                1.0,
                grow,
                &self.weights,
                0.0,
                &mut gcol,
            );
            self.col2im_add(&gcol, grad_in.row_mut(b));
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        // The caller may mutate the weights (optimizer step, quantization) —
        // the reduced-precision copy must be rebuilt.
        self.weights_f32 = None;
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn macs(&self, batch: usize) -> u64 {
        // Dense upper bound: every output voxel visits the full kernel.
        (batch
            * self.cout
            * self.out_dims.volume()
            * self.cin
            * self.kernel
            * self.kernel
            * self.kernel) as u64
    }

    fn name(&self) -> &'static str {
        "Conv3d"
    }
}

impl StageState for Conv3d {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        s.put_f64s("weights", &self.weights);
        s.put_f64s("bias", &self.bias);
        // The f32 panel itself is a pure function of the weights, but
        // *whether it exists* is state: a resumed layer must take the same
        // lazy-init branch the original would have.
        s.put_bool("f32_panel", self.weights_f32.is_some());
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        let weights = s.get_f64s("weights")?;
        if weights.len() != self.weights.len() {
            return Err(CheckpointError::BadValue(format!("{ns}.weights")));
        }
        let bias = s.get_f64s("bias")?;
        if bias.len() != self.bias.len() {
            return Err(CheckpointError::BadValue(format!("{ns}.bias")));
        }
        self.weights = weights;
        self.bias = bias;
        // Per-step transients (gradients, cached activations) do not travel;
        // a checkpoint always lands between forward/backward pairs.
        self.cached_input = None;
        self.weights_f32 = s
            .get_bool("f32_panel")?
            .then(|| self.weights.iter().map(|w| *w as f32).collect());
        Ok(())
    }
}

/// Transposed 3-D convolution (deconvolution) for decoder upsampling.
#[derive(Debug, Clone)]
pub struct Deconv3d {
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    in_dims: Dims3,
    out_dims: Dims3,
    /// Weights `[cin, cout, k, k, k]` flattened.
    weights: Vec<f64>,
    bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cached_input: Option<Tensor>,
}

impl Deconv3d {
    /// Transposed convolution with cubic kernel, stride and padding.
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces an empty output volume: every
    /// input extent must be non-zero and satisfy
    /// `(extent - 1)·stride + kernel > 2·pad`.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_dims: Dims3,
        init: &mut Initializer,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let fits = |extent: usize| extent > 0 && (extent - 1) * stride + kernel > 2 * pad;
        assert!(
            fits(in_dims.d) && fits(in_dims.h) && fits(in_dims.w),
            "deconv output is empty: padding trims the whole upsampled input"
        );
        let out_dims = Dims3::new(
            deconv_out(in_dims.d, kernel, stride, pad),
            deconv_out(in_dims.h, kernel, stride, pad),
            deconv_out(in_dims.w, kernel, stride, pad),
        );
        let fan_in = cin * kernel * kernel * kernel;
        let wcount = cin * cout * kernel * kernel * kernel;
        Deconv3d {
            cin,
            cout,
            kernel,
            stride,
            pad,
            in_dims,
            out_dims,
            weights: init.he(fan_in, wcount),
            bias: vec![0.0; cout],
            grad_w: vec![0.0; wcount],
            grad_b: vec![0.0; cout],
            cached_input: None,
        }
    }

    /// Output spatial dimensions.
    pub fn out_dims(&self) -> Dims3 {
        self.out_dims
    }

    #[inline]
    fn widx(&self, ci: usize, co: usize, kd: usize, kh: usize, kw: usize) -> usize {
        (((ci * self.cout + co) * self.kernel + kd) * self.kernel + kh) * self.kernel + kw
    }

    #[inline]
    fn in_idx(&self, c: usize, z: usize, y: usize, x: usize) -> usize {
        ((c * self.in_dims.d + z) * self.in_dims.h + y) * self.in_dims.w + x
    }

    #[inline]
    fn out_idx(&self, c: usize, z: usize, y: usize, x: usize) -> usize {
        ((c * self.out_dims.d + z) * self.out_dims.h + y) * self.out_dims.w + x
    }

    /// Iterate contributions of input voxel (z,y,x) to output voxels.
    #[inline]
    fn scatter_targets(
        &self,
        z: usize,
        y: usize,
        x: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize, usize, usize)> + '_ {
        // Output position = in*stride - pad + k_offset.
        let k = self.kernel;
        let (s, p) = (self.stride, self.pad);
        let out = self.out_dims;
        (0..k).flat_map(move |kd| {
            (0..k).flat_map(move |kh| {
                (0..k).filter_map(move |kw| {
                    let oz = z * s + kd;
                    let oy = y * s + kh;
                    let ox = x * s + kw;
                    if oz < p || oy < p || ox < p {
                        return None;
                    }
                    let (oz, oy, ox) = (oz - p, oy - p, ox - p);
                    if oz >= out.d || oy >= out.h || ox >= out.w {
                        return None;
                    }
                    Some((kd, kh, kw, oz, oy, ox))
                })
            })
        })
    }

    /// Patch length of the column buffer: `cout * kernel³`.
    #[inline]
    fn patch_len(&self) -> usize {
        self.cout * self.kernel * self.kernel * self.kernel
    }

    /// Blocks of input positions the lowering runs in (see
    /// [`lowering_blocks`]; the block GEMM is `n × cout·k³ × cin`).
    fn lowering_blocks(&self) -> usize {
        let (cin, cokk) = (self.cin, self.patch_len());
        lowering_blocks(self.in_dims.volume(), cokk, |n| {
            simd::simd_f64_eligible(n, cokk, cin)
        })
    }

    /// Scatter the `[positions.len(), cout*k³]` column block of input
    /// positions `positions` onto an output row (add-accumulate; taps
    /// landing in the padding margin are dropped). An input position adds
    /// at most once to each output, and positions are folded in ascending
    /// order, so every output accumulates in the same order however the
    /// positions are blocked. Bounds are resolved once per position into
    /// valid tap ranges, so the innermost loop is a plain add along x.
    fn col2out_add(&self, col: &[f64], positions: Range<usize>, orow: &mut [f64]) {
        let k = self.kernel;
        let (s, pad) = (self.stride, self.pad);
        let (ind, od) = (self.in_dims, self.out_dims);
        assert_eq!(col.len(), positions.len() * self.patch_len());
        for (p, src) in positions.zip(col.chunks_exact(self.patch_len())) {
            let (z, y, x) = (p / (ind.h * ind.w), p / ind.w % ind.h, p % ind.w);
            let zs = tap_range(z, s, pad, k, od.d);
            let ys = tap_range(y, s, pad, k, od.h);
            let xs = tap_range(x, s, pad, k, od.w);
            if xs.is_empty() {
                continue;
            }
            for (co, taps) in src.chunks_exact(k * k * k).enumerate() {
                for kd in zs.clone() {
                    for kh in ys.clone() {
                        let t = (kd * k + kh) * k;
                        let o = self.out_idx(
                            co,
                            z * s + kd - pad,
                            y * s + kh - pad,
                            x * s + xs.start - pad,
                        );
                        for (d, &v) in orow[o..].iter_mut().zip(&taps[t + xs.start..t + xs.end]) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }

    /// Gather an output-shaped gradient into a `[in_volume, cout*k³]` column
    /// buffer (full overwrite; out-of-bounds taps become zero).
    fn out2col(&self, grow: &[f64], col: &mut [f64]) {
        let k = self.kernel;
        let (s, p) = (self.stride, self.pad);
        let cokk = self.patch_len();
        let mut pi = 0;
        for z in 0..self.in_dims.d {
            for y in 0..self.in_dims.h {
                for x in 0..self.in_dims.w {
                    let dst = &mut col[pi * cokk..(pi + 1) * cokk];
                    let mut j = 0;
                    for co in 0..self.cout {
                        for kd in 0..k {
                            let oz = z * s + kd;
                            for kh in 0..k {
                                let oy = y * s + kh;
                                for kw in 0..k {
                                    let ox = x * s + kw;
                                    dst[j] = if oz < p
                                        || oy < p
                                        || ox < p
                                        || oz - p >= self.out_dims.d
                                        || oy - p >= self.out_dims.h
                                        || ox - p >= self.out_dims.w
                                    {
                                        0.0
                                    } else {
                                        grow[self.out_idx(co, oz - p, oy - p, ox - p)]
                                    };
                                    j += 1;
                                }
                            }
                        }
                    }
                    pi += 1;
                }
            }
        }
    }

    /// Reference scatter-formulation forward pass (skips all-zero input
    /// voxels). Kept for equivalence tests and benchmarking; the production
    /// [`Layer::forward`] lowers to GEMM + column scatter instead.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        assert_eq!(
            input.shape()[1],
            self.cin * self.in_dims.volume(),
            "Deconv3d: input feature mismatch"
        );
        let mut out = Tensor::zeros(vec![batch, self.cout * self.out_dims.volume()]);
        for b in 0..batch {
            let xrow = input.row(b);
            let orow = out.row_mut(b);
            for co in 0..self.cout {
                let base = co * self.out_dims.volume();
                for v in &mut orow[base..base + self.out_dims.volume()] {
                    *v = self.bias[co];
                }
            }
            for ci in 0..self.cin {
                for z in 0..self.in_dims.d {
                    for y in 0..self.in_dims.h {
                        for x in 0..self.in_dims.w {
                            let xv = xrow[self.in_idx(ci, z, y, x)];
                            if xv == 0.0 {
                                continue;
                            }
                            for (kd, kh, kw, oz, oy, ox) in self.scatter_targets(z, y, x) {
                                for co in 0..self.cout {
                                    orow[self.out_idx(co, oz, oy, ox)] +=
                                        xv * self.weights[self.widx(ci, co, kd, kh, kw)];
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl StageState for Deconv3d {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        s.put_f64s("weights", &self.weights);
        s.put_f64s("bias", &self.bias);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        let weights = s.get_f64s("weights")?;
        if weights.len() != self.weights.len() {
            return Err(CheckpointError::BadValue(format!("{ns}.weights")));
        }
        let bias = s.get_f64s("bias")?;
        if bias.len() != self.bias.len() {
            return Err(CheckpointError::BadValue(format!("{ns}.bias")));
        }
        self.weights = weights;
        self.bias = bias;
        self.cached_input = None;
        Ok(())
    }
}

impl Layer for Deconv3d {
    /// Blocked lowering: the input row is transposed once to `Xᵀ`
    /// (`[in_volume, cin]`), so each block of input positions is a
    /// contiguous row band. Per block, the columns `Xᵀ·W` run through the
    /// packed-panel [`gemm`](kernels::gemm) into the thread's lowering
    /// scratch and are folded onto the output before the next block starts.
    /// Blocks keep the whole layer's SIMD/scalar path.
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let batch = input.shape()[0];
        let pin = self.in_dims.volume();
        assert_eq!(
            input.shape()[1],
            self.cin * pin,
            "Deconv3d: input feature mismatch"
        );
        let (cin, vol, cokk) = (self.cin, self.out_dims.volume(), self.patch_len());
        let mut out = Tensor::zeros(vec![batch, self.cout * vol]);
        let blocks = self.lowering_blocks();
        let span = pin.div_ceil(blocks);
        with_lowering_scratch(pin * cin + span * cokk, |scratch| {
            let (xt, col) = scratch.split_at_mut(pin * cin);
            for b in 0..batch {
                kernels::transpose_into(cin, pin, input.row(b), xt);
                let orow = out.row_mut(b);
                for (o, &bias) in orow.chunks_exact_mut(vol).zip(&self.bias) {
                    o.fill(bias);
                }
                for blk in 0..blocks {
                    let r = block_range(pin, blocks, blk);
                    let col = &mut col[..r.len() * cokk];
                    // col[p, j] = Σ_ci Xᵀ[p, ci] · W[ci, j]: weights are
                    // [cin, cout*k³] row-major, so this is the plain GEMM.
                    let xt_band = &xt[r.start * cin..r.end * cin];
                    kernels::gemm(r.len(), cokk, cin, 1.0, xt_band, &self.weights, 0.0, col);
                    self.col2out_add(col, r, orow);
                }
            }
        });
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Deconv3d::backward before forward");
        let batch = input.shape()[0];
        let pin = self.in_dims.volume();
        let vol = self.out_dims.volume();
        let cokk = self.patch_len();
        let mut grad_in = Tensor::zeros(vec![batch, self.cin * pin]);
        let mut gcol = vec![0.0; pin * cokk];
        for b in 0..batch {
            let xrow = input.row(b);
            let grow = grad_out.row(b);
            for co in 0..self.cout {
                self.grad_b[co] += grow[co * vol..(co + 1) * vol].iter().sum::<f64>();
            }
            self.out2col(grow, &mut gcol);
            // grad_w += x [cin, Pin] · gcol [Pin, cout*k³]  (beta = 1 accumulates)
            kernels::gemm(self.cin, cokk, pin, 1.0, xrow, &gcol, 1.0, &mut self.grad_w);
            // grad_in[ci, p] = Σ_j W[ci, j] · gcol[p, j] — transposed-B GEMM.
            kernels::gemm_transb(
                self.cin,
                pin,
                cokk,
                1.0,
                &self.weights,
                &gcol,
                0.0,
                grad_in.row_mut(b),
            );
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn macs(&self, batch: usize) -> u64 {
        (batch
            * self.cin
            * self.in_dims.volume()
            * self.cout
            * self.kernel
            * self.kernel
            * self.kernel) as u64
    }

    fn name(&self) -> &'static str {
        "Deconv3d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_dims() {
        let mut init = Initializer::new(0);
        let c = Conv3d::new(1, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut init);
        assert_eq!(c.out_dims(), Dims3::new(4, 4, 4));
        let c2 = Conv3d::new(1, 2, 3, 1, 1, Dims3::new(5, 5, 5), &mut init);
        assert_eq!(c2.out_dims(), Dims3::new(5, 5, 5));
    }

    #[test]
    fn deconv_inverts_conv_dims() {
        let mut init = Initializer::new(0);
        let c = Conv3d::new(1, 4, 4, 2, 1, Dims3::new(8, 8, 8), &mut init);
        let d = Deconv3d::new(4, 1, 4, 2, 1, c.out_dims(), &mut init);
        assert_eq!(d.out_dims(), Dims3::new(8, 8, 8));
    }

    #[test]
    fn conv_identity_kernel_passthrough() {
        let mut init = Initializer::new(0);
        let mut c = Conv3d::new(1, 1, 1, 1, 0, Dims3::new(3, 3, 3), &mut init);
        // 1x1x1 kernel with weight 1, bias 0 is the identity.
        c.weights = vec![1.0];
        c.bias = vec![0.0];
        let x = Tensor::from_vec(vec![1, 27], (0..27).map(|i| i as f64).collect());
        let y = c.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_counts_kernel_sum() {
        let mut init = Initializer::new(0);
        let mut c = Conv3d::new(1, 1, 3, 1, 0, Dims3::new(3, 3, 3), &mut init);
        c.weights = vec![1.0; 27];
        c.bias = vec![0.0];
        let x = Tensor::full(vec![1, 27], 1.0);
        let y = c.forward(&x, false);
        // Single valid position sums all 27 ones.
        assert_eq!(y.len(), 1);
        assert_eq!(y[0], 27.0);
    }

    #[test]
    fn conv_gradient_check() {
        let mut init = Initializer::new(5);
        let mut c = Conv3d::new(1, 2, 2, 1, 0, Dims3::new(3, 3, 3), &mut init);
        let mut x = Tensor::zeros(vec![1, 27]);
        for i in 0..27 {
            x[i] = (i as f64 * 0.37).sin() * 0.5 + 0.1;
        }
        let out = c.forward(&x, false);
        let grad_in = c.backward(&out);
        let eps = 1e-5;
        for i in (0..27).step_by(5) {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let lp: f64 = c
                .forward(&p, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = c
                .forward(&m, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "conv grad {i}: numeric {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn conv_weight_gradient_check() {
        let mut init = Initializer::new(6);
        let mut c = Conv3d::new(1, 1, 2, 1, 0, Dims3::new(3, 3, 3), &mut init);
        let mut x = Tensor::zeros(vec![1, 27]);
        for i in 0..27 {
            x[i] = ((i * 7 % 13) as f64 - 6.0) / 6.0;
        }
        let out = c.forward(&x, false);
        c.zero_grad();
        let _ = c.forward(&x, false);
        let _ = c.backward(&out);
        let mut grads = vec![];
        c.visit_params(&mut |_, g| grads.push(g.to_vec()));
        let eps = 1e-6;
        let wi = 3;
        c.weights[wi] += eps;
        let lp: f64 = c
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        c.weights[wi] -= 2.0 * eps;
        let lm: f64 = c
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        c.weights[wi] += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - grads[0][wi]).abs() < 1e-5,
            "weight grad: numeric {numeric} vs analytic {}",
            grads[0][wi]
        );
    }

    #[test]
    fn deconv_gradient_check() {
        let mut init = Initializer::new(8);
        let mut d = Deconv3d::new(2, 1, 2, 2, 0, Dims3::new(2, 2, 2), &mut init);
        assert_eq!(d.out_dims(), Dims3::new(4, 4, 4));
        let mut x = Tensor::zeros(vec![1, 16]);
        for i in 0..16 {
            x[i] = (i as f64 * 0.7).cos() * 0.4;
        }
        let out = d.forward(&x, false);
        let grad_in = d.backward(&out);
        let eps = 1e-5;
        for i in 0..16 {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let lp: f64 = d
                .forward(&p, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = d
                .forward(&m, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "deconv grad {i}: numeric {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn sparse_input_skips_work_but_matches_dense_result() {
        // Zeros in the input must not change the linear result (bias-only).
        let mut init = Initializer::new(9);
        let mut c = Conv3d::new(1, 2, 3, 1, 1, Dims3::new(4, 4, 4), &mut init);
        let zero = Tensor::zeros(vec![1, 64]);
        let y = c.forward(&zero, false);
        // Every output equals its channel bias.
        for co in 0..2 {
            for v in &y.as_slice()[co * 64..(co + 1) * 64] {
                assert_eq!(*v, c.bias[co]);
            }
        }
    }

    #[test]
    fn macs_and_params_positive() {
        let mut init = Initializer::new(0);
        let c = Conv3d::new(2, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut init);
        assert_eq!(c.param_count(), 4 * 2 * 27 + 4);
        assert!(c.macs(1) > 0);
        let d = Deconv3d::new(4, 2, 4, 2, 1, Dims3::new(4, 4, 4), &mut init);
        assert_eq!(d.param_count(), 4 * 2 * 64 + 2);
        assert!(d.macs(1) > 0);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn conv_rejects_oversized_kernel() {
        let mut init = Initializer::new(0);
        let _ = Conv3d::new(1, 1, 5, 1, 0, Dims3::new(3, 3, 3), &mut init);
    }

    /// `(1 - 1)·1 + 1 - 2·1` underflows: the padding trims the whole output.
    #[test]
    #[should_panic(expected = "deconv output is empty")]
    fn deconv_rejects_padding_that_trims_the_whole_output() {
        let mut init = Initializer::new(0);
        let _ = Deconv3d::new(1, 1, 1, 1, 1, Dims3::new(1, 1, 1), &mut init);
    }

    #[test]
    #[should_panic(expected = "deconv output is empty")]
    fn deconv_rejects_zero_extent() {
        let mut init = Initializer::new(0);
        let _ = Deconv3d::new(1, 1, 3, 2, 0, Dims3::new(2, 0, 2), &mut init);
    }

    use sensact_math::rng::StdRng;

    /// Random input with a sparse fraction of exact zeros, so the reference
    /// path's zero-skip branch is exercised too.
    fn sparse_input(rng: &mut StdRng, batch: usize, feat: usize) -> Tensor {
        let data: Vec<f64> = (0..batch * feat)
            .map(|_| {
                if rng.random::<bool>() {
                    0.0
                } else {
                    rng.random_range(-1.0..1.0)
                }
            })
            .collect();
        Tensor::from_vec(vec![batch, feat], data)
    }

    /// Seeded `Conv3d` geometries around the direct kernel's tile edges
    /// (cout not a multiple of its 4 lanes, output volumes not a multiple of
    /// its 8-position tile): every output is within 1e-12 of the gather
    /// reference, and `forward_batch`, `forward_batch_into` and a batch
    /// tensor through `Layer::forward` are bitwise equal to per-row calls.
    #[test]
    fn prop_direct_conv_matches_reference_and_is_batch_invariant() {
        const BATCHES: [usize; 5] = [1, 2, 5, 33, 64];
        let mut rng = StdRng::seed_from_u64(0xD1EC7);
        let (mut cases, mut ragged_cout, mut ragged_tile) = (0, 0, 0);
        while cases < 24 {
            let cin = rng.random_range(1..4usize);
            let cout = rng.random_range(1..18usize);
            let kernel = rng.random_range(1..5usize);
            let stride = rng.random_range(1..4usize);
            let pad = rng.random_range(0..3usize);
            let lo = kernel.saturating_sub(2 * pad).max(1);
            let mut extent = || rng.random_range(lo..lo + 5);
            let dims = Dims3::new(extent(), extent(), extent());
            let mut init = Initializer::new(rng.next_u64());
            let mut c = Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
            if c.macs(1) > 60_000 {
                continue; // keep the 64-row batches cheap
            }
            cases += 1;
            ragged_cout += usize::from(cout > 4 && !cout.is_multiple_of(4));
            ragged_tile += usize::from(!c.out_dims.volume().is_multiple_of(8));
            for b in c.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let what = format!("cin {cin} cout {cout} k {kernel} s {stride} p {pad} {dims:?}");
            let x = sparse_input(&mut rng, 64, c.in_features());
            let per_row: Vec<f64> = (0..64)
                .flat_map(|b| {
                    let row = Tensor::from_vec(vec![1, x.shape()[1]], x.row(b).to_vec());
                    c.forward(&row, false).as_slice().to_vec()
                })
                .collect();
            assert_within_1e12(&c.forward(&x, false), &c.forward_reference(&x), &what);
            assert_bitwise(c.forward(&x, false).as_slice(), &per_row, &what);
            let out_feat = c.out_features();
            for batch in BATCHES {
                let rows: Vec<&[f64]> = (0..batch).map(|b| x.row(b)).collect();
                let want = &per_row[..batch * out_feat];
                let mut out = vec![f64::NAN; batch * out_feat];
                c.forward_batch(&rows, &mut out);
                assert_bitwise(&out, want, &format!("forward_batch({batch}) {what}"));
                let mut out = vec![f64::NAN; batch * out_feat];
                let mut views: Vec<&mut [f64]> = out.chunks_mut(out_feat).collect();
                c.forward_batch_into(&rows, &mut views);
                assert_bitwise(&out, want, &format!("forward_batch_into({batch}) {what}"));
            }
        }
        assert!(
            ragged_cout > 0 && ragged_tile > 0,
            "{ragged_cout} {ragged_tile}"
        );
    }

    #[test]
    fn precision_forward_routes_through_matching_kernels() {
        let mut rng = StdRng::seed_from_u64(0xF0DD);
        let mut init = Initializer::new(0xBEEF);
        let mut c = Conv3d::new(2, 3, 3, 1, 1, Dims3::new(6, 6, 6), &mut init);
        for b in c.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let vol_in = Dims3::new(6, 6, 6).volume();
        let x = sparse_input(&mut rng, 2, 2 * vol_in);
        let reference = c.forward(&x, false);

        // f64 mode is the production path, bit for bit.
        let out64 = c.forward_with_precision(&x, RunPrecision::F64);
        assert_eq!(out64.as_slice(), reference.as_slice());

        // f32 mode stays within a coarse single-precision envelope.
        let max_ref = reference
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let out32 = c.forward_with_precision(&x, RunPrecision::F32);
        for (a, b) in out32.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + max_ref),
                "f32 conv drifted: {a} vs {b}"
            );
        }

        // int8 mode stays within the analytic quantization bound
        // k·(max|W|·s_col/2 + (max|col| + s_col/2)·s_w/2), using the input's
        // max-abs as an upper proxy for the column buffer's.
        let ckk = 2 * 27;
        let wmax = c.weights.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let inmax = x.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let (sw, sc) = (wmax / 127.0, inmax / 127.0);
        let bound = ckk as f64 * (wmax * sc / 2.0 + (inmax + sc / 2.0) * sw / 2.0) + 1e-12;
        let out8 = c.forward_with_precision(&x, RunPrecision::Int8);
        for (a, b) in out8.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (a - b).abs() <= bound,
                "int8 conv outside bound {bound}: {a} vs {b}"
            );
        }

        // The f32 weight cache is invalidated when params become mutable.
        assert!(c.weights_f32.is_some());
        c.visit_params(&mut |_, _| {});
        assert!(c.weights_f32.is_none());
    }

    /// The serving plane's conv guarantee: batching N loops' rows through
    /// one stacked GEMM is bitwise identical (f64) to running each row
    /// alone, for every batch size including ragged tails, and the
    /// reduced-precision paths stay inside their analytic envelopes.
    #[test]
    fn batched_forward_matches_per_row_forward() {
        let mut rng = StdRng::seed_from_u64(0xBA7C2);
        let dims = Dims3::new(8, 8, 8);
        let mut init = Initializer::new(0x5EED);
        let mut c = Conv3d::new(1, 4, 3, 2, 1, dims, &mut init);
        for b in c.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let in_feat = c.in_features();
        let out_feat = c.out_features();
        for &batch in &[1usize, 2, 3, 7, 13] {
            let x = sparse_input(&mut rng, batch, in_feat);
            let reference = c.forward_with_precision(&x, RunPrecision::F64);
            let rows: Vec<&[f64]> = (0..batch).map(|b| x.row(b)).collect();

            let mut out = vec![f64::NAN; batch * out_feat];
            c.forward_batch(&rows, &mut out);
            assert!(
                reference
                    .as_slice()
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "batched f64 conv not bitwise at batch={batch}"
            );

            // The scatter-free serving variant writes each row into its own
            // caller-owned buffer — same bits as the per-row forward.
            let mut per_item: Vec<Vec<f64>> = vec![vec![f64::NAN; out_feat]; batch];
            let mut views: Vec<&mut [f64]> =
                per_item.iter_mut().map(|v| v.as_mut_slice()).collect();
            c.forward_batch_into(&rows, &mut views);
            for (t, row) in per_item.iter().enumerate() {
                let want = &reference.as_slice()[t * out_feat..(t + 1) * out_feat];
                assert!(
                    row.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "forward_batch_into not bitwise at batch={batch} row {t}"
                );
            }

            // f32: same analytic envelope as the per-row f32 path.
            let max_ref = reference
                .as_slice()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            let mut out32 = vec![f64::NAN; batch * out_feat];
            c.forward_batch_with_precision(&rows, RunPrecision::F32, &mut out32);
            for (a, b) in reference.as_slice().iter().zip(&out32) {
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + max_ref),
                    "batched f32 conv drifted at batch={batch}: {a} vs {b}"
                );
            }

            // int8: the batch shares one column grid, so bound against f64
            // with the stacked-panel scales (analytic tier, PR 6 form).
            let ckk = 27;
            let wmax = c.weights.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let inmax = x.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let (sw, sc) = (wmax / 127.0, inmax / 127.0);
            let bound = ckk as f64 * (wmax * sc / 2.0 + (inmax + sc / 2.0) * sw / 2.0) + 1e-12;
            let mut out8 = vec![f64::NAN; batch * out_feat];
            c.forward_batch_with_precision(&rows, RunPrecision::Int8, &mut out8);
            for (a, b) in reference.as_slice().iter().zip(&out8) {
                assert!(
                    (a - b).abs() <= bound,
                    "batched int8 conv outside bound {bound} at batch={batch}: {a} vs {b}"
                );
            }
        }
        // Empty batch is a no-op, not a panic.
        c.forward_batch(&[], &mut []);
        c.forward_batch_into(&[], &mut []);
    }

    /// Conv weights (and the f32 panel's existence) restore bit-exactly:
    /// both precision paths of a restored layer match the original.
    #[test]
    fn conv_checkpoint_round_trips_weights_and_panel() {
        let mut rng = StdRng::seed_from_u64(0xCC01);
        let dims = Dims3::new(4, 4, 4);
        let mut init_a = Initializer::new(7);
        let mut a = Conv3d::new(2, 3, 3, 1, 1, dims, &mut init_a);
        for b in a.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let x = sparse_input(&mut rng, 2, 2 * dims.volume());
        // Build the lazy f32 panel so its presence must survive the trip.
        let _ = a.forward_with_precision(&x, RunPrecision::F32);
        let mut ckpt = Checkpoint::new("conv");
        a.save_state(&mut ckpt, "enc");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        // Differently-initialized twin with the same architecture.
        let mut init_b = Initializer::new(991);
        let mut b = Conv3d::new(2, 3, 3, 1, 1, dims, &mut init_b);
        b.restore_state(&ckpt, "enc").unwrap();
        assert!(b.weights_f32.is_some(), "panel presence must be restored");
        for prec in [RunPrecision::F64, RunPrecision::F32, RunPrecision::Int8] {
            let ya = a.forward_with_precision(&x, prec);
            let yb = b.forward_with_precision(&x, prec);
            assert_eq!(ya.as_slice(), yb.as_slice(), "{prec:?} path diverged");
        }
        // Architecture mismatch is a typed error, not a panic.
        let mut tiny = Conv3d::new(1, 1, 1, 1, 0, dims, &mut init_b);
        assert!(matches!(
            tiny.restore_state(&ckpt, "enc"),
            Err(CheckpointError::BadValue(_))
        ));
    }

    #[test]
    fn deconv_checkpoint_round_trips_weights() {
        let mut rng = StdRng::seed_from_u64(0xDC02);
        let dims = Dims3::new(2, 2, 2);
        let mut init_a = Initializer::new(8);
        let mut a = Deconv3d::new(2, 1, 2, 2, 0, dims, &mut init_a);
        for b in a.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let mut ckpt = Checkpoint::new("deconv");
        a.save_state(&mut ckpt, "dec");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        let mut init_b = Initializer::new(552);
        let mut b = Deconv3d::new(2, 1, 2, 2, 0, dims, &mut init_b);
        b.restore_state(&ckpt, "dec").unwrap();
        let x = sparse_input(&mut rng, 1, 2 * dims.volume());
        assert_eq!(
            a.forward(&x, false).as_slice(),
            b.forward(&x, false).as_slice()
        );
    }

    #[test]
    fn prop_gemm_deconv_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xDC4301);
        for _ in 0..24 {
            let cin = rng.random_range(1..3usize);
            let cout = rng.random_range(1..4usize);
            let kernel = rng.random_range(2..4usize);
            let stride = rng.random_range(1..3usize);
            let pad = rng.random_range(0..2usize);
            let d = rng.random_range(2..5usize);
            let h = rng.random_range(2..5usize);
            let w = rng.random_range(2..5usize);
            let mut init = Initializer::new(rng.next_u64());
            let mut dc = Deconv3d::new(
                cin,
                cout,
                kernel,
                stride,
                pad,
                Dims3::new(d, h, w),
                &mut init,
            );
            for b in dc.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let batch = rng.random_range(1..3usize);
            let x = sparse_input(&mut rng, batch, cin * d * h * w);
            let fast = dc.forward(&x, false);
            let reference = dc.forward_reference(&x);
            assert_eq!(fast.shape(), reference.shape());
            for (a, b) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "deconv mismatch: {a} vs {b} (k={kernel} s={stride} p={pad})"
                );
            }
        }
    }

    fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{what}: not bitwise equal"
        );
    }

    fn assert_within_1e12(fast: &Tensor, reference: &Tensor, what: &str) {
        assert_eq!(fast.shape(), reference.shape(), "{what}: shape");
        for (a, b) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() <= 1e-12, "{what}: {a} vs {b}");
        }
    }

    /// The four R-MAE layers at `RmaeConfig::full()` (a 60×36×4 grid,
    /// channels (8, 16), built like `RmaeModel::new`), chained on one
    /// sparse occupancy grid: every layer is within 1e-12 of its reference.
    #[test]
    fn rmae_full_shapes_match_reference() {
        let mut rng = StdRng::seed_from_u64(0x4A3E);
        let mut init = Initializer::new(0xF011);
        let dims = Dims3::new(4, 36, 60);
        let mut conv1 = Conv3d::new(1, 8, 3, 2, 1, dims, &mut init);
        let mid = conv1.out_dims();
        let mut conv2 = Conv3d::new(8, 16, 3, 1, 1, mid, &mut init);
        let mut deconv1 = Deconv3d::new(16, 8, 3, 1, 1, mid, &mut init);
        let mut deconv2 = Deconv3d::new(8, 1, 4, 2, 1, mid, &mut init);
        assert_eq!(deconv2.out_dims(), dims);
        for bias in [
            &mut conv1.bias,
            &mut conv2.bias,
            &mut deconv1.bias,
            &mut deconv2.bias,
        ] {
            bias.iter_mut()
                .for_each(|b| *b = rng.random_range(-0.5..0.5));
        }
        // The deconv shape really is split into several blocks.
        assert!(deconv1.lowering_blocks() > 1);
        let x = sparse_input(&mut rng, 1, dims.volume());
        let h1 = conv1.forward(&x, false);
        assert_within_1e12(&h1, &conv1.forward_reference(&x), "rmae conv1");
        let h2 = conv2.forward(&h1, false);
        assert_within_1e12(&h2, &conv2.forward_reference(&h1), "rmae conv2");
        let h3 = deconv1.forward(&h2, false);
        assert_within_1e12(&h3, &deconv1.forward_reference(&h2), "rmae deconv1");
        let h4 = deconv2.forward(&h3, false);
        assert_within_1e12(&h4, &deconv2.forward_reference(&h3), "rmae deconv2");
    }

    /// Wide patches: a one-channel conv over 64 input channels (1 728 taps
    /// per element), and a deconv whose block sizes from the L2 budget alone
    /// would fall under the SIMD gate, so the block count must shrink to
    /// keep the whole layer's kernel path.
    #[test]
    fn wide_patch_layers_match_reference() {
        let mut rng = StdRng::seed_from_u64(0x4A3F);
        let mut init = Initializer::new(0xF012);
        let mut wide = Conv3d::new(64, 1, 3, 1, 1, Dims3::new(4, 4, 4), &mut init);
        let x = sparse_input(&mut rng, 1, wide.in_features());
        assert_within_1e12(
            &wide.forward(&x, false),
            &wide.forward_reference(&x),
            "wide conv",
        );
        let mut dwide = Deconv3d::new(1, 64, 3, 1, 1, Dims3::new(4, 4, 4), &mut init);
        let x = sparse_input(&mut rng, 1, 64);
        assert_within_1e12(
            &dwide.forward(&x, false),
            &dwide.forward_reference(&x),
            "wide deconv",
        );
    }

    #[test]
    fn lowering_blocks_tile_positions_and_keep_the_kernel_path() {
        for &(len, patch, m) in &[
            (64usize, 1728usize, 1usize),
            (1080, 216, 16),
            (385, 81, 5),
            (7, 5000, 1),
        ] {
            let eligible = |n: usize| simd::simd_f64_eligible(m, n, patch);
            let blocks = lowering_blocks(len, patch, eligible);
            assert_eq!(block_range(len, blocks, 0).start, 0);
            assert_eq!(block_range(len, blocks, blocks - 1).end, len);
            for b in 0..blocks {
                let r = block_range(len, blocks, b);
                assert!(!r.is_empty());
                assert_eq!(
                    eligible(r.len()),
                    eligible(len),
                    "len {len} patch {patch} block {b}"
                );
                if b + 1 < blocks {
                    assert_eq!(r.end, block_range(len, blocks, b + 1).start);
                }
            }
        }
    }
}
