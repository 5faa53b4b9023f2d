//! 3-D FFT on a cubic grid, built from 1-D passes along each axis (the
//! y and x passes column-batched, as in [`crate::RFft3`]).
//!
//! Layout: `data[(ix * n + iy) * n + iz]` — z fastest, matching the grid
//! embedding used by the M2L convolution.

use crate::complex::Complex;
use crate::fft1d::{FftPlan, FftScratch};

/// A cached 3-D transform plan for an `n×n×n` grid.
pub struct Fft3 {
    n: usize,
    plan: FftPlan,
}

impl Fft3 {
    /// Plan transforms for an `n×n×n` grid.
    pub fn new(n: usize) -> Fft3 {
        Fft3 {
            n,
            plan: FftPlan::new(n),
        }
    }

    /// Grid side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of grid points (`n³`).
    pub fn len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// True when the grid is empty (never: sides are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward 3-D DFT.
    ///
    /// # Panics
    /// Panics if `data.len() != n³`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.transform(data, true);
    }

    /// In-place inverse 3-D DFT (normalized by `1/n³`).
    ///
    /// # Panics
    /// Panics if `data.len() != n³`.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.transform(data, false);
    }

    fn transform(&self, data: &mut [Complex], fwd: bool) {
        let n = self.n;
        assert_eq!(data.len(), n * n * n, "grid size mismatch");
        let sc = &mut FftScratch::default();
        // The inverse is the conjugated forward (see `FftPlan::inverse_with`).
        if !fwd {
            data.iter_mut().for_each(|v| *v = v.conj());
        }
        // z lines are contiguous; the y and x passes run column-batched
        // across the contiguous z (resp. y·z) extent of each slab.
        for line in data.chunks_exact_mut(n) {
            self.plan.cols(line, 1, sc);
        }
        for slab in data.chunks_exact_mut(n * n) {
            self.plan.cols(slab, n, sc);
        }
        self.plan.cols(data, n * n, sc);
        if !fwd {
            let inv = 1.0 / (n * n * n) as f64;
            data.iter_mut().for_each(|v| *v = v.conj().scale(inv));
        }
    }
}

/// Circular 3-D convolution via FFT: returns `a ⊛ b` on the `n×n×n` torus.
///
/// Used by tests and by the M2L operator verification; production M2L keeps
/// `b` (the kernel grid) pre-transformed.
pub fn convolve3(fft: &Fft3, a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    let mut ah = a.to_vec();
    let mut bh = b.to_vec();
    fft.forward(&mut ah);
    fft.forward(&mut bh);
    for (x, y) in ah.iter_mut().zip(&bh) {
        *x *= *y;
    }
    fft.inverse(&mut ah);
    ah
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(n: usize, x: usize, y: usize, z: usize) -> usize {
        (x * n + y) * n + z
    }

    #[test]
    fn roundtrip() {
        let n = 4;
        let fft = Fft3::new(n);
        let x: Vec<Complex> = (0..n * n * n)
            .map(|i| Complex::new((i % 7) as f64 - 3.0, (i % 5) as f64))
            .collect();
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn impulse_is_flat_spectrum() {
        let n = 4;
        let fft = Fft3::new(n);
        let mut x = vec![Complex::ZERO; n * n * n];
        x[0] = Complex::ONE;
        fft.forward(&mut x);
        for v in x {
            assert!((v - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_with_shifted_impulse_shifts() {
        let n = 4;
        let fft = Fft3::new(n);
        let mut a = vec![Complex::ZERO; n * n * n];
        a[idx(n, 1, 2, 3)] = Complex::real(2.0);
        let mut b = vec![Complex::ZERO; n * n * n];
        b[idx(n, 1, 0, 0)] = Complex::ONE; // shift by +1 in x
        let c = convolve3(&fft, &a, &b);
        for (i, v) in c.iter().enumerate() {
            let want = if i == idx(n, 2, 2, 3) { 2.0 } else { 0.0 };
            assert!((v.re - want).abs() < 1e-10 && v.im.abs() < 1e-10, "at {i}");
        }
    }

    #[test]
    fn convolution_matches_direct_sum() {
        let n = 3;
        let fft = Fft3::new(n);
        let a: Vec<Complex> = (0..27).map(|i| Complex::real((i % 4) as f64)).collect();
        let b: Vec<Complex> = (0..27)
            .map(|i| Complex::real(((i * 3) % 5) as f64))
            .collect();
        let c = convolve3(&fft, &a, &b);
        // Direct circular convolution.
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let mut want = 0.0;
                    for i in 0..n {
                        for j in 0..n {
                            for k in 0..n {
                                let ai = idx(n, i, j, k);
                                let bi = idx(n, (x + n - i) % n, (y + n - j) % n, (z + n - k) % n);
                                want += a[ai].re * b[bi].re;
                            }
                        }
                    }
                    let got = c[idx(n, x, y, z)];
                    assert!((got.re - want).abs() < 1e-9 && got.im.abs() < 1e-9);
                }
            }
        }
    }
}
