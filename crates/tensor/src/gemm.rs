//! Register-blocked, rayon-parallel single-precision GEMM.
//!
//! Convolution via `im2col` reduces to `C[m×n] = A[m×k] · B[k×n]`; the
//! backward pass additionally needs the `Aᵀ·B` and `A·Bᵀ` forms. All three
//! run one micro-kernel and differ only in how they address the operands:
//!
//! * **A** is a strided view: element `(i, p)` lives at `a[i·rs + p·ks]`
//!   (`rs = k, ks = 1` for NN/NT, `rs = 1, ks = m` for TN). Each strip
//!   of `MR = 4` rows is gathered into a `k × MR` buffer, every value
//!   splatted across `LANES = 4` floats so the kernel multiplies straight
//!   from memory instead of broadcasting a scalar per step.
//! * **B** is packed into panels of `NR = 8` columns, each a contiguous
//!   zero-padded `k×NR` block: row-major `B` (NN, TN) is read row by row,
//!   NT's `[n×k]` `B` column by column. A task packs at most
//!   `PACK_ELEMS` (64 KiB) at a time (a column block of `B`), and every
//!   strip sweeps the block before the next one is packed. Packing costs
//!   `k·n` copies per task against `rows·k·n` multiply-adds.
//! * Each `MR×NR` tile of `C` is summed in a fixed-size `[[f32; NR]; MR]`
//!   accumulator. At 4×8 that is eight SSE registers, which LLVM keeps in
//!   registers on baseline x86-64 (no `target_feature`, no `unsafe`);
//!   larger tiles spill.
//!
//! Row blocks of `C`, aligned to `MR`, are split across rayon tasks above
//! `PAR_THRESHOLD` output elements; each task owns a disjoint `&mut` row
//! block and its own packing buffers, so there is no sharing.
//!
//! **Arithmetic contract.** Every element of `C` receives
//! `c += (Σ_p a_ip·b_pj)`, the sum taken in increasing `p` from `0.0`
//! with separate multiply and add (no FMA). Lanes of a tile never mix, so
//! the result does not depend on tiling, tile edges, column blocks or
//! thread count. This is the order of a plain dot product per element,
//! and — whenever `C` is zero on entry — also the order of the row-AXPY
//! (`i-k-j`) loops, zero skipping included: for finite `B`, adding the
//! skipped `±0.0` products to a sum that started at `+0.0` never changes
//! it.

use rayon::prelude::*;
use std::ops::Range;

/// Transpose interpretation of a GEMM operand pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmLayout {
    /// `C = A·B`
    NN,
    /// `C = Aᵀ·B`
    TN,
    /// `C = A·Bᵀ`
    NT,
}

/// Minimum number of output elements before spawning parallel tasks;
/// below this the rayon overhead dominates.
const PAR_THRESHOLD: usize = 16 * 1024;

/// Rows of `C` per register tile.
const MR: usize = 4;

/// Columns of `C` per register tile (the `B` panel width).
const NR: usize = 8;

/// Width of one SSE/NEON register in `f32`s; `A` values are stored
/// splatted to this width.
const LANES: usize = 4;

/// Most `B` elements one task packs at a time (64 KiB): bounds the
/// scratch to a column block of `B` while keeping blocks wide enough that
/// `C` is walked in long row segments.
const PACK_ELEMS: usize = 16 * 1024;

/// Read-only strided view of the logical `[m×k]` operand `A`: element
/// `(i, p)` is `data[i * rs + p * ks]`.
#[derive(Clone, Copy)]
struct StridedA<'a> {
    data: &'a [f32],
    rs: usize,
    ks: usize,
}

/// `C[m×n] += A[m×k] · B[k×n]` (row-major, `C` must be pre-sized `m*n`).
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    let a = StridedA {
        data: a,
        rs: k,
        ks: 1,
    };
    blocked(m, k, n, a, b, false, c);
}

/// `C[m×n] += Aᵀ·B` where `A` is stored `[k×m]` and `B` is `[k×n]`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    let a = StridedA {
        data: a,
        rs: 1,
        ks: m,
    };
    blocked(m, k, n, a, b, false, c);
}

/// `C[m×n] += A·Bᵀ` where `A` is `[m×k]` and `B` is stored `[n×k]`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    assert_eq!(c.len(), m * n, "C size");
    let a = StridedA {
        data: a,
        rs: k,
        ks: 1,
    };
    blocked(m, k, n, a, b, true, c);
}

/// Common body of the three layouts: split `C` into `MR`-aligned row
/// blocks, one per rayon task above [`PAR_THRESHOLD`] (a single block
/// below it), and run [`row_block`] on each. `b_transposed` selects `B`
/// stored `[n×k]` instead of `[k×n]`.
fn blocked(
    m: usize,
    k: usize,
    n: usize,
    a: StridedA,
    b: &[f32],
    b_transposed: bool,
    c: &mut [f32],
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let tasks = if m * n >= PAR_THRESHOLD {
        rayon::current_num_threads()
    } else {
        1
    };
    let rows = m.div_ceil(tasks).next_multiple_of(MR);
    c.par_chunks_mut(rows * n)
        .enumerate()
        .for_each(|(t, c_blk)| row_block(t * rows, k, n, a, b, b_transposed, c_blk));
}

/// Compute the rows of `C` starting at row `i0` that `c_blk` holds.
///
/// `B` is packed a column block at a time (at most [`PACK_ELEMS`] floats);
/// within a block, each `MR`-row strip of `A` is gathered once and swept
/// across the block panel by panel.
fn row_block(
    i0: usize,
    k: usize,
    n: usize,
    a: StridedA,
    b: &[f32],
    b_transposed: bool,
    c_blk: &mut [f32],
) {
    let nc = (PACK_ELEMS / k / NR).max(1) * NR;
    let mut panels = Vec::new();
    let mut a_strip = vec![[[0.0f32; LANES]; MR]; k];
    for jc in (0..n).step_by(nc) {
        let cols = jc..n.min(jc + nc);
        pack_panels(k, n, b, b_transposed, cols.clone(), &mut panels);
        for (r0, c_strip) in (0..).step_by(MR).zip(c_blk.chunks_mut(MR * n)) {
            let h = c_strip.len() / n;
            pack_strip(a, i0 + r0, h, &mut a_strip);
            for (j0, panel) in cols.clone().step_by(NR).zip(panels.chunks_exact(k * NR)) {
                let acc = tile(&a_strip, panel);
                let w = NR.min(n - j0);
                for (r, acc_row) in acc.iter().enumerate().take(h) {
                    let c_seg = &mut c_strip[r * n + j0..r * n + j0 + w];
                    for (c_v, &s) in c_seg.iter_mut().zip(acc_row) {
                        *c_v += s;
                    }
                }
            }
        }
    }
}

/// Gather `A` rows `i..i + h` into `strip`, one `MR`-row group per `p`,
/// each value splatted across [`LANES`] so the kernel multiplies straight
/// from memory instead of broadcasting a scalar every step. Rows past `h`
/// repeat row `i + h - 1`; their sums are discarded.
fn pack_strip(a: StridedA, i: usize, h: usize, strip: &mut [[[f32; LANES]; MR]]) {
    for (p, a_p) in strip.iter_mut().enumerate() {
        for (r, a_rp) in a_p.iter_mut().enumerate() {
            *a_rp = [a.data[(i + r.min(h - 1)) * a.rs + p * a.ks]; LANES];
        }
    }
}

/// Copy columns `cols` of `B` into `panels` as consecutive `k×NR`
/// row-major panels, zero-padding the lanes past the last column. Both
/// layouts read `B` sequentially.
fn pack_panels(
    k: usize,
    n: usize,
    b: &[f32],
    b_transposed: bool,
    cols: Range<usize>,
    panels: &mut Vec<f32>,
) {
    panels.clear();
    panels.resize(cols.len().div_ceil(NR) * k * NR, 0.0);
    if b_transposed {
        let b_cols = b[cols.start * k..cols.end * k].chunks_exact(k);
        for (j, b_col) in b_cols.enumerate() {
            let panel = &mut panels[j / NR * k * NR..];
            for (dst, &v) in panel[j % NR..].iter_mut().step_by(NR).zip(b_col) {
                *dst = v;
            }
        }
    } else {
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            // Chunk `q` starts at row `p` of panel `q`.
            let dsts = panels[p * NR..].chunks_mut(k * NR);
            for (dst, src) in dsts.zip(b_row[cols.clone()].chunks(NR)) {
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = v;
                }
            }
        }
    }
}

/// The micro-kernel: sums of an `MR`-row `A` strip against a `k×NR`
/// panel, each accumulated in `p` order from `0.0`.
#[inline(always)]
fn tile(a_strip: &[[[f32; LANES]; MR]], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a_p, b_p) in a_strip.iter().zip(panel.chunks_exact(NR)) {
        for (acc_row, a_ip) in acc.iter_mut().zip(a_p) {
            for (j, (s, &b_v)) in acc_row.iter_mut().zip(b_p).enumerate() {
                *s += a_ip[j % LANES] * b_v;
            }
        }
    }
    acc
}

/// Dispatching front-end over the three layouts.
///
/// Dimension convention: `m`,`n` are the logical output dims of `C`, `k` is
/// the contraction length; operand storage layouts per variant are
/// documented on [`gemm_nn`], [`gemm_tn`], [`gemm_nt`].
pub fn gemm(layout: GemmLayout, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    match layout {
        GemmLayout::NN => gemm_nn(m, k, n, a, b, c),
        GemmLayout::TN => gemm_tn(m, k, n, a, b, c),
        GemmLayout::NT => gemm_nt(m, k, n, a, b, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn rand_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-3, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn nn_matches_naive_small_and_parallel_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(3, 4, 5), (1, 1, 1), (17, 9, 33), (64, 128, 300)] {
            let a = rand_mat(&mut rng, m * k);
            let b = rand_mat(&mut rng, k * n);
            let mut c = vec![0.0; m * n];
            gemm_nn(m, k, n, &a, &b, &mut c);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        for (m, k, n) in [(4, 6, 5), (31, 7, 65), (128, 64, 200)] {
            // A stored [k x m]; logical op is transpose(A)*B.
            let a_t = rand_mat(&mut rng, k * m);
            let b = rand_mat(&mut rng, k * n);
            let mut a = vec![0.0; m * k];
            for p in 0..k {
                for i in 0..m {
                    a[i * k + p] = a_t[p * m + i];
                }
            }
            let mut c = vec![0.0; m * n];
            gemm_tn(m, k, n, &a_t, &b, &mut c);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(9);
        for (m, k, n) in [(4, 6, 5), (33, 17, 9), (100, 80, 160)] {
            let a = rand_mat(&mut rng, m * k);
            // B stored [n x k]; logical op is A*transpose(B).
            let b_t = rand_mat(&mut rng, n * k);
            let mut b = vec![0.0; k * n];
            for j in 0..n {
                for p in 0..k {
                    b[p * n + j] = b_t[j * k + p];
                }
            }
            let mut c = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, &b_t, &mut c);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0]; // identity 2x2
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm_nn(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let mut rng = StdRng::seed_from_u64(10);
        let (m, k, n) = (6, 5, 4);
        let a = rand_mat(&mut rng, m * k);
        let b = rand_mat(&mut rng, k * n);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(GemmLayout::NN, m, k, n, &a, &b, &mut c1);
        gemm_nn(m, k, n, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn zero_dims_leave_c_untouched() {
        for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
            for (m, k, n) in [(0, 3, 5), (4, 0, 5), (4, 3, 0), (0, 0, 0)] {
                let a = vec![1.0; m * k];
                let b = vec![1.0; k * n];
                let mut c = vec![-0.0f32; m * n];
                gemm(layout, m, k, n, &a, &b, &mut c);
                assert!(
                    c.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()),
                    "{layout:?} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "C size")]
    fn short_c_is_rejected() {
        let mut c = vec![0.0; 5];
        gemm_nn(2, 2, 3, &[1.0; 4], &[1.0; 6], &mut c);
    }

    /// The pre-blocking loops, kept as the bit-identity oracle: NN and TN
    /// are row AXPYs (`i-k-j`, skipping zero `a_ip`), NT a dot product
    /// per element.
    mod oracle {
        pub fn nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
            for (i, c_row) in c.chunks_mut(n).enumerate().take(m) {
                for (p, &a_ip) in a[i * k..(i + 1) * k].iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    for (c_v, &b_v) in c_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                        *c_v += a_ip * b_v;
                    }
                }
            }
        }

        pub fn tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
            for (i, c_row) in c.chunks_mut(n).enumerate().take(m) {
                for p in 0..k {
                    let a_ip = a[p * m + i];
                    if a_ip == 0.0 {
                        continue;
                    }
                    for (c_v, &b_v) in c_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                        *c_v += a_ip * b_v;
                    }
                }
            }
        }

        pub fn nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
            for (i, c_row) in c.chunks_mut(n).enumerate().take(m) {
                let a_row = &a[i * k..(i + 1) * k];
                for (j, c_v) in c_row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(&b[j * k..(j + 1) * k]) {
                        acc += x * y;
                    }
                    *c_v += acc;
                }
            }
        }
    }

    type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

    const PAIRS: [(GemmLayout, Kernel); 3] = [
        (GemmLayout::NN, oracle::nn),
        (GemmLayout::TN, oracle::tn),
        (GemmLayout::NT, oracle::nt),
    ];

    /// Full tiles, ragged row and column edges, `k = 1`, `m` or `n` below
    /// one tile, both sides of `PAR_THRESHOLD`, a `k` so long that a
    /// packed column block is one panel, and a `tiny_vgg` conv shape that
    /// packs `B` in several column blocks.
    const SHAPES: [(usize, usize, usize); 13] = [
        (4, 5, 8),
        (8, 16, 32),
        (7, 9, 13),
        (5, 3, 17),
        (6, 1, 11),
        (1, 7, 1),
        (3, 20, 5),
        (2, 33, 300),
        (127, 12, 129),
        (128, 9, 128),
        (133, 10, 131),
        (5, 2100, 19),
        (16, 144, 1024),
    ];

    /// Operand with about a third exact zeros (like post-ReLU activations)
    /// among signed values, so `0·b` products of both signs occur.
    fn sparse_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(-1.0f32..1.0) {
                v if v < -0.4 => 0.0,
                v => v,
            })
            .collect()
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} elem {idx}: {x} vs {y}");
        }
    }

    #[test]
    fn kernels_are_bit_identical_to_oracle_on_zero_c() {
        let mut rng = StdRng::seed_from_u64(11);
        for (layout, oracle) in PAIRS {
            for (m, k, n) in SHAPES {
                for sparse in [false, true] {
                    let gen = if sparse { sparse_mat } else { rand_mat };
                    let a = gen(&mut rng, m * k);
                    let b = gen(&mut rng, k * n);
                    let mut got = vec![0.0; m * n];
                    let mut want = vec![0.0; m * n];
                    gemm(layout, m, k, n, &a, &b, &mut got);
                    oracle(m, k, n, &a, &b, &mut want);
                    let what = format!("{layout:?} {m}x{k}x{n} sparse={sparse}");
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn nt_is_bit_identical_to_oracle_on_nonzero_c() {
        let mut rng = StdRng::seed_from_u64(12);
        for (m, k, n) in SHAPES {
            let a = sparse_mat(&mut rng, m * k);
            let b = rand_mat(&mut rng, k * n);
            let c0 = rand_mat(&mut rng, m * n);
            let mut got = c0.clone();
            let mut want = c0;
            // Two calls, like per-sample dW accumulation in conv backward.
            for _ in 0..2 {
                gemm_nt(m, k, n, &a, &b, &mut got);
                oracle::nt(m, k, n, &a, &b, &mut want);
            }
            assert_same_bits(&got, &want, &format!("NT {m}x{k}x{n}"));
        }
    }
}
