//! Real-input transforms exploiting Hermitian symmetry.
//!
//! The M2L grids are real in physical space, so their spectra satisfy
//! `X[k] = conj(X[n − k])` and only half of the frequencies are
//! independent. These plans store (and the batched Hadamard multiplies)
//! only `kz ∈ 0..=n/2` — `n³/2 + O(n²)` entries instead of `n³` — which
//! halves both spectrum memory and the per-interaction flops of the
//! V-list translation.
//!
//! The 3-D transform runs its y and x passes column-batched: the 1-D
//! butterflies sweep the contiguous `kz` (y pass) or `(ky, kz)` (x pass)
//! rows of the spectrum in place, with no per-line gather or scatter.
//! Its pruned variants skip the lines the M2L never needs: a source grid
//! is zero outside the corner cube `[0, keep)³`, and a target reads back
//! only that cube.
//!
//! Conventions match [`crate::FftPlan`] / [`crate::Fft3`]: the forward
//! transform is unnormalized, the inverse carries the `1/n` (or `1/n³`)
//! factor, so `inverse(forward(x)) == x`.

use crate::complex::Complex;
use crate::fft1d::{FftPlan, FftScratch};

/// Reusable scratch for the `_with` variants of [`RFft3`]: the packed
/// half-length signal and the [`FftScratch`] work buffer of the 1-D
/// passes. A default (empty) scratch works for any plan; buffers warm on
/// first use and are then reused allocation-free.
#[derive(Default)]
pub struct RFftScratch {
    z: Vec<Complex>,
    fs: FftScratch,
}

impl RFftScratch {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        self.z.capacity() * std::mem::size_of::<Complex>() + self.fs.memory_bytes()
    }
}

/// 1-D real-to-complex / complex-to-real transform for even `n` (the z
/// rows of [`RFft3`]). The forward pass packs adjacent real pairs into a
/// length-`n/2` complex signal, runs one half-length complex FFT, and
/// untangles the even/odd sub-spectra — the classic trick that makes a
/// real transform cost about half a complex one.
pub(crate) struct RealFftPlan {
    n: usize,
    half: FftPlan,
    /// `e^{-2πik/n}` for `k ∈ 0..=n/2` (forward untangling twiddles).
    tw: Vec<Complex>,
}

impl RealFftPlan {
    /// Plan a real transform of even length `n >= 2`.
    pub(crate) fn new(n: usize) -> RealFftPlan {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "real FFT length must be even"
        );
        let tw = (0..=n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        RealFftPlan {
            n,
            half: FftPlan::new(n / 2),
            tw,
        }
    }

    /// Forward DFT of a real signal: writes `X[k]` for `k ∈ 0..=n/2`
    /// into `spec` (the remaining frequencies are `conj(X[n − k])`).
    pub(crate) fn forward_with(&self, x: &[f64], spec: &mut [Complex], sc: &mut RFftScratch) {
        let (n, m) = (self.n, self.n / 2);
        assert_eq!(x.len(), n, "real input length");
        assert_eq!(spec.len(), m + 1, "half-spectrum length");
        sc.z.clear();
        sc.z.extend((0..m).map(|j| Complex::new(x[2 * j], x[2 * j + 1])));
        self.half.forward_with(&mut sc.z, &mut sc.fs);
        // Z is m-periodic: append Z[0] as Z[m] instead of indexing mod m.
        sc.z.push(sc.z[0]);
        let z = &sc.z;
        for k in 0..=m {
            let (zk, zc) = (z[k], z[m - k].conj());
            let ze = (zk + zc).scale(0.5);
            let d = zk - zc;
            // Zo = d / (2i) = (d.im − i·d.re) / 2.
            let zo = Complex::new(d.im, -d.re).scale(0.5);
            spec[k] = ze + self.tw[k] * zo;
        }
    }

    /// Inverse DFT onto a real signal from the *conjugate* of its half
    /// spectrum (the conjugate trick of [`FftPlan::inverse_with`], folded
    /// into the untangling and the output), unnormalized (`n·x`) times
    /// `scale` — the 3-D inverse folds its whole `1/n³` into this pass.
    pub(crate) fn backward_conj(
        &self,
        cspec: &[Complex],
        x: &mut [f64],
        scale: f64,
        sc: &mut RFftScratch,
    ) {
        let (n, m) = (self.n, self.n / 2);
        assert_eq!(cspec.len(), m + 1, "half-spectrum length");
        assert_eq!(x.len(), n, "real output length");
        sc.z.clear();
        sc.z.extend((0..m).map(|k| {
            let (yk, yc) = (cspec[k], cspec[m - k].conj());
            // conj(Ze + i·Zo) of the packed inverse: Ze − i·Zo here.
            let zo = self.tw[k] * (yk - yc);
            (yk + yc) + Complex::new(zo.im, -zo.re)
        }));
        self.half.forward_with(&mut sc.z, &mut sc.fs);
        for (j, v) in sc.z.iter().enumerate() {
            x[2 * j] = v.re * scale;
            x[2 * j + 1] = -v.im * scale;
        }
    }
}

/// 3-D real transform on an `n×n×n` grid, half spectrum along z.
///
/// Real layout matches [`crate::Fft3`]: `data[(ix·n + iy)·n + iz]`, z
/// fastest. The spectrum keeps `kz ∈ 0..=n/2`:
/// `spec[(kx·n + ky)·h + kz]` with `h = n/2 + 1` — `n²·(n/2+1)` entries.
/// The discarded half is recovered from Hermitian symmetry
/// `X[kx,ky,kz] = conj(X[−kx,−ky,−kz mod n])` by the inverse.
pub struct RFft3 {
    n: usize,
    /// Half-spectrum z extent (`n/2 + 1`).
    h: usize,
    rplan: RealFftPlan,
    cplan: FftPlan,
}

impl RFft3 {
    /// Plan transforms for an `n×n×n` grid (`n` even).
    pub fn new(n: usize) -> RFft3 {
        RFft3 {
            n,
            h: n / 2 + 1,
            rplan: RealFftPlan::new(n),
            cplan: FftPlan::new(n),
        }
    }

    /// Grid side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Real grid points (`n³`).
    pub fn len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// True when the grid is empty (never: sides are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Half-spectrum entries (`n²·(n/2 + 1)`).
    pub fn spectrum_len(&self) -> usize {
        self.n * self.n * self.h
    }

    /// Forward transform of a real grid into its half spectrum.
    ///
    /// # Panics
    /// Panics if `real.len() != n³` or `spec.len() != spectrum_len()`.
    pub fn forward(&self, real: &[f64], spec: &mut [Complex]) {
        self.forward_with(real, spec, &mut RFftScratch::default());
    }

    /// [`Self::forward`] reusing caller-owned scratch: alloc-free once
    /// warmed, bitwise identical results.
    pub fn forward_with(&self, real: &[f64], spec: &mut [Complex], sc: &mut RFftScratch) {
        self.forward_pruned_with(real, spec, self.n, sc);
    }

    /// [`Self::forward_with`] for a grid that is zero outside the corner
    /// cube `[0, keep)³`: the z rows and y lines that are all zero are
    /// skipped. Equal (`==`) to the full transform of the same grid.
    ///
    /// # Panics
    /// Panics on the size mismatches of [`Self::forward`] or `keep > n`.
    pub fn forward_pruned_with(
        &self,
        real: &[f64],
        spec: &mut [Complex],
        keep: usize,
        sc: &mut RFftScratch,
    ) {
        let (n, h) = (self.n, self.h);
        assert_eq!(real.len(), n * n * n, "real grid size");
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum size");
        assert!(keep <= n, "support exceeds the grid");
        let plane = n * h;
        // z: real-to-complex per contiguous row inside the support.
        for (xy, row) in spec.chunks_exact_mut(h).enumerate() {
            if xy / n < keep && xy % n < keep {
                self.rplan.forward_with(&real[xy * n..][..n], row, sc);
            } else {
                row.fill(Complex::ZERO);
            }
        }
        // y: batched across the kz row of each nonzero x plane; x:
        // batched across every (ky, kz).
        for block in spec[..keep * plane].chunks_exact_mut(plane) {
            self.cplan.cols(block, h, &mut sc.fs);
        }
        self.cplan.cols(spec, plane, &mut sc.fs);
    }

    /// Inverse transform of a half spectrum onto a real grid (normalized
    /// by `1/n³`). `spec` is consumed as scratch (overwritten with
    /// intermediate passes).
    ///
    /// # Panics
    /// Panics if `spec.len() != spectrum_len()` or `real.len() != n³`.
    pub fn inverse(&self, spec: &mut [Complex], real: &mut [f64]) {
        self.inverse_with(spec, real, &mut RFftScratch::default());
    }

    /// [`Self::inverse`] reusing caller-owned scratch (see
    /// [`Self::forward_with`]).
    pub fn inverse_with(&self, spec: &mut [Complex], real: &mut [f64], sc: &mut RFftScratch) {
        self.inverse_pruned_with(spec, real, self.n, sc);
    }

    /// [`Self::inverse_with`] computing only the rows `ix, iy < keep` of
    /// `real` (the rest is left untouched): the y lines and z rows whose
    /// outputs would be discarded are skipped. The kept rows equal the
    /// full inverse bit for bit.
    ///
    /// # Panics
    /// Panics on the size mismatches of [`Self::inverse`] or `keep > n`.
    pub fn inverse_pruned_with(
        &self,
        spec: &mut [Complex],
        real: &mut [f64],
        keep: usize,
        sc: &mut RFftScratch,
    ) {
        let (n, h) = (self.n, self.h);
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum size");
        assert_eq!(real.len(), n * n * n, "real grid size");
        assert!(keep <= n, "support exceeds the grid");
        let plane = n * h;
        // Conjugate trick: forward passes; the z rows conjugate back.
        spec.iter_mut().for_each(|v| *v = v.conj());
        self.cplan.cols(spec, plane, &mut sc.fs);
        for block in spec[..keep * plane].chunks_exact_mut(plane) {
            self.cplan.cols(block, h, &mut sc.fs);
        }
        let scale = 1.0 / (n * n * n) as f64;
        let kept = |&(xy, _): &(usize, _)| xy / n < keep && xy % n < keep;
        for (xy, row) in spec.chunks_exact(h).enumerate().filter(kept) {
            self.rplan
                .backward_conj(row, &mut real[xy * n..][..n], scale, sc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::Fft3;

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    /// The 1-D half spectrum must equal the first n/2+1 entries of the
    /// full complex DFT of the same (real) signal.
    #[test]
    fn r2c_matches_full_complex_dft() {
        for n in [2usize, 4, 8, 12, 16, 20] {
            let x = rand_real(n, n as u64);
            let plan = RealFftPlan::new(n);
            let mut spec = vec![Complex::ZERO; n / 2 + 1];
            plan.forward_with(&x, &mut spec, &mut RFftScratch::default());
            let full: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
            let want = crate::fft1d::naive_dft(&full);
            for k in 0..=n / 2 {
                assert!(
                    (spec[k] - want[k]).abs() < 1e-10 * n as f64,
                    "n={n} k={k}: {:?} vs {:?}",
                    spec[k],
                    want[k]
                );
            }
            // The discarded frequencies really are redundant.
            for k in n / 2 + 1..n {
                assert!((want[k] - want[n - k].conj()).abs() < 1e-10 * n as f64);
            }
        }
    }

    #[test]
    fn r2c_roundtrip_1d() {
        for n in [2usize, 4, 6, 8, 12, 24] {
            let x = rand_real(n, 7 * n as u64);
            let (plan, sc) = (RealFftPlan::new(n), &mut RFftScratch::default());
            let mut spec = vec![Complex::ZERO; n / 2 + 1];
            plan.forward_with(&x, &mut spec, sc);
            let mut back = vec![0.0; n];
            let cspec: Vec<Complex> = spec.iter().map(|v| v.conj()).collect();
            plan.backward_conj(&cspec, &mut back, 1.0 / n as f64, sc);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-12, "n={n}: {a} vs {b}");
            }
        }
    }

    /// 3-D half spectrum vs the full complex transform, and the 3-D
    /// round trip — the property pair the batched M2L relies on.
    #[test]
    fn rfft3_matches_full_transform_and_roundtrips() {
        for n in [4usize, 6, 8, 10, 12, 14] {
            let x = rand_real(n * n * n, 31 + n as u64);
            let r = RFft3::new(n);
            let mut spec = vec![Complex::ZERO; r.spectrum_len()];
            r.forward(&x, &mut spec);

            let full = Fft3::new(n);
            let mut want: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
            full.forward(&mut want);
            let h = n / 2 + 1;
            for kx in 0..n {
                for ky in 0..n {
                    for kz in 0..h {
                        let got = spec[(kx * n + ky) * h + kz];
                        let w = want[(kx * n + ky) * n + kz];
                        assert!(
                            (got - w).abs() < 1e-9 * n as f64,
                            "n={n} ({kx},{ky},{kz}): {got:?} vs {w:?}"
                        );
                    }
                }
            }

            let mut back = vec![0.0; n * n * n];
            r.inverse(&mut spec, &mut back);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-11, "n={n}: {a} vs {b}");
            }
        }
    }

    /// The pruned transforms equal the full ones on every kept output:
    /// the forward on a grid supported in `[0, n/2)³`, the inverse on the
    /// rows `ix, iy < n/2` (and it leaves every other row untouched).
    #[test]
    fn pruned_transforms_equal_full_on_kept_outputs() {
        for n in [4usize, 6, 8, 10, 12, 14, 16] {
            let (keep, r) = (n / 2, RFft3::new(n));
            let mut x = rand_real(n * n * n, 17 + n as u64);
            for (i, v) in x.iter_mut().enumerate() {
                if i / (n * n) >= keep || i / n % n >= keep || i % n >= keep {
                    *v = 0.0;
                }
            }
            let mut full = vec![Complex::ZERO; r.spectrum_len()];
            r.forward(&x, &mut full);
            let mut pruned = vec![Complex::new(9.0, 9.0); r.spectrum_len()];
            let sc = &mut RFftScratch::default();
            r.forward_pruned_with(&x, &mut pruned, keep, sc);
            assert!(full == pruned, "n={n}: pruned forward differs");

            let mut want = vec![0.0; n * n * n];
            r.inverse(&mut full.clone(), &mut want);
            let mut got = vec![7.0; n * n * n];
            r.inverse_pruned_with(&mut full, &mut got, keep, sc);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let kept = i / (n * n) < keep && i / n % n < keep;
                assert_eq!(*g, if kept { *w } else { 7.0 }, "n={n} at {i}");
            }
        }
    }

    /// Pointwise products of half spectra + c2r inverse must reproduce
    /// the full complex circular convolution — the Hadamard identity the
    /// batched V-list uses.
    #[test]
    fn half_spectrum_convolution_matches_complex_path() {
        let n = 8;
        let a = rand_real(n * n * n, 3);
        let b = rand_real(n * n * n, 5);
        let r = RFft3::new(n);
        let mut ah = vec![Complex::ZERO; r.spectrum_len()];
        let mut bh = vec![Complex::ZERO; r.spectrum_len()];
        r.forward(&a, &mut ah);
        r.forward(&b, &mut bh);
        for (x, y) in ah.iter_mut().zip(&bh) {
            *x *= *y;
        }
        let mut got = vec![0.0; n * n * n];
        r.inverse(&mut ah, &mut got);

        let full = Fft3::new(n);
        let ac: Vec<Complex> = a.iter().map(|&v| Complex::real(v)).collect();
        let bc: Vec<Complex> = b.iter().map(|&v| Complex::real(v)).collect();
        let want = crate::fft3d::convolve3(&full, &ac, &bc);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w.re).abs() < 1e-10 && w.im.abs() < 1e-10);
        }
    }
}
