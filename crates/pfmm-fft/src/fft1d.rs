//! 1-D FFT: one mixed-radix Cooley–Tukey plan for every length.
//!
//! A plan factors `n` into radix-4/2/3/5 stages with hard-coded
//! butterflies plus a generic `O(r²)` one for other odd primes, with every
//! stage's twiddles precomputed. Stages run in Stockham (self-sorting)
//! order between the data and one work buffer, so there is no
//! digit-reversal pass, and each stage's inner loop runs across `cols`
//! interleaved columns (element `j` of column `c` at `data[j·cols + c]`):
//! one code path transforms a single line or a batch of strided lines.

use crate::complex::Complex;

/// Reusable scratch for [`FftPlan::forward_with`] /
/// [`FftPlan::inverse_with`]: the Stockham ping-pong buffer. A default
/// (empty) scratch works for any plan — the buffer grows on first use and
/// is then reused, so warmed transforms are allocation-free.
#[derive(Default)]
pub struct FftScratch {
    work: Vec<Complex>,
}

impl FftScratch {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        self.work.capacity() * std::mem::size_of::<Complex>()
    }
}

/// One decimation-in-frequency stage: radix `r` on sub-transforms of
/// length `r·m`.
struct Stage {
    r: usize,
    m: usize,
    /// `e^{-2πi·p·u/(r·m)}` at `[p·(r−1) + u − 1]` for `p < m`, `1 ≤ u < r`.
    tw: Vec<Complex>,
    /// `e^{-2πi·k/r}` (read by the generic odd-prime butterfly).
    roots: Vec<Complex>,
}

/// A cached transform plan for a fixed length.
///
/// ```
/// use pfmm_fft::{Complex, FftPlan};
///
/// let plan = FftPlan::new(12); // mixed radix: 4 · 3
/// let x: Vec<Complex> = (0..12).map(|i| Complex::real(i as f64)).collect();
/// let mut y = x.clone();
/// plan.forward(&mut y);
/// plan.inverse(&mut y);
/// for (a, b) in x.iter().zip(&y) {
///     assert!((*a - *b).abs() < 1e-10);
/// }
/// ```
pub struct FftPlan {
    n: usize,
    stages: Vec<Stage>,
}

impl FftPlan {
    /// Plan a transform of length `n` (`n >= 1`).
    pub fn new(n: usize) -> FftPlan {
        assert!(n >= 1, "FFT length must be positive");
        let cis = |k: usize, len: usize| {
            Complex::cis(-2.0 * std::f64::consts::PI * (k % len) as f64 / len as f64)
        };
        let (mut rest, mut stages) = (n, Vec::new());
        while rest > 1 {
            // Radix 4, 2, 3, 5 first; then the smallest (prime) divisor.
            let divides = |r: &usize| rest.is_multiple_of(*r);
            let r = [4, 2, 3, 5].into_iter().find(divides);
            let r = r.unwrap_or_else(|| (7..).step_by(2).find(divides).expect("rest > 1"));
            let m = rest / r;
            let tw = (0..m)
                .flat_map(|p| (1..r).map(move |u| cis(p * u, rest)))
                .collect();
            let roots = (0..r).map(|k| cis(k, r)).collect();
            stages.push(Stage { r, m, tw, roots });
            rest = m;
        }
        FftPlan { n, stages }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan length is zero (never: lengths are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT: `X[k] = Σ_j x[j] e^{-2πi jk/n}`.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.forward_with(data, &mut FftScratch::default());
    }

    /// [`Self::forward`] reusing caller-owned scratch: alloc-free once
    /// the scratch has warmed to this plan's size, bitwise identical.
    pub fn forward_with(&self, data: &mut [Complex], sc: &mut FftScratch) {
        assert_eq!(data.len(), self.n, "plan/buffer length mismatch");
        self.cols(data, 1, sc);
    }

    /// In-place inverse DFT (normalized by `1/n`).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.inverse_with(data, &mut FftScratch::default());
    }

    /// [`Self::inverse`] reusing caller-owned scratch (see
    /// [`Self::forward_with`]).
    pub fn inverse_with(&self, data: &mut [Complex], sc: &mut FftScratch) {
        assert_eq!(data.len(), self.n, "plan/buffer length mismatch");
        // The conjugate trick: IDFT(x) = conj(DFT(conj(x))) / n.
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.cols(data, 1, sc);
        let inv = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.conj().scale(inv);
        }
    }

    /// Forward-transform the `cols` interleaved columns of `data`
    /// (element `j` of column `c` at `data[j·cols + c]`) in place.
    /// Inverses use the conjugate trick around this (see
    /// [`Self::inverse_with`]), so every butterfly has one direction.
    pub(crate) fn cols(&self, data: &mut [Complex], cols: usize, sc: &mut FftScratch) {
        let len = self.n * cols;
        assert_eq!(data.len(), len, "plan/buffer length mismatch");
        if sc.work.len() < len {
            sc.work.resize(len, Complex::ZERO);
        }
        let work = &mut sc.work[..len];
        let (mut s, mut in_work) = (cols, false);
        for st in &self.stages {
            let (x, y) = if in_work {
                (&*work, &mut *data)
            } else {
                (&*data, &mut *work)
            };
            match st.r {
                4 => stage(st, s, x, y, bf4),
                2 => stage(st, s, x, y, bf2),
                3 => stage(st, s, x, y, bf3),
                5 => stage(st, s, x, y, bf5),
                _ => generic(st, s, x, y),
            }
            in_work = !in_work;
            s *= st.r;
        }
        if in_work {
            data.copy_from_slice(work);
        }
    }
}

/// One Stockham DIF stage over `s` interleaved columns: reads the `R`
/// rows `p + t·m` of `x`, writes rows `R·p + u` of `y` twiddled by
/// `w^{p·u}`.
#[inline(always)]
fn stage<const R: usize>(
    st: &Stage,
    s: usize,
    x: &[Complex],
    y: &mut [Complex],
    bf: impl Fn(&mut [Complex; R]),
) {
    let m = st.m;
    for p in 0..m {
        let tw = &st.tw[p * (R - 1)..(p + 1) * (R - 1)];
        let w: [Complex; R] =
            std::array::from_fn(|u| if u == 0 { Complex::ONE } else { tw[u - 1] });
        let src: [&[Complex]; R] = std::array::from_fn(|t| &x[s * (p + t * m)..][..s]);
        let dst = &mut y[s * R * p..][..s * R];
        for q in 0..s {
            let mut a: [Complex; R] = std::array::from_fn(|t| src[t][q]);
            bf(&mut a);
            dst[q] = a[0];
            for u in 1..R {
                dst[q + s * u] = a[u] * w[u];
            }
        }
    }
}

/// The generic odd-prime stage: a direct `O(r²)` DFT per butterfly.
fn generic(st: &Stage, s: usize, x: &[Complex], y: &mut [Complex]) {
    let (r, m) = (st.r, st.m);
    for p in 0..m {
        for u in 0..r {
            for q in 0..s {
                let mut acc = Complex::ZERO;
                for t in 0..r {
                    acc += x[q + s * (p + t * m)] * st.roots[t * u % r];
                }
                y[q + s * (r * p + u)] = match u {
                    0 => acc,
                    _ => acc * st.tw[p * (r - 1) + u - 1],
                };
            }
        }
    }
}

/// `-i·z`: the quarter-turn of the forward DFT.
#[inline(always)]
fn rot(z: Complex) -> Complex {
    Complex::new(z.im, -z.re)
}

#[inline(always)]
fn bf2(a: &mut [Complex; 2]) {
    *a = [a[0] + a[1], a[0] - a[1]];
}

#[inline(always)]
fn bf3(a: &mut [Complex; 3]) {
    const S3: f64 = 0.866_025_403_784_438_6; // sin(2π/3)
    let (t1, t2) = (a[1] + a[2], a[1] - a[2]);
    let mid = a[0] - t1.scale(0.5);
    let r = rot(t2.scale(S3));
    *a = [a[0] + t1, mid + r, mid - r];
}

#[inline(always)]
fn bf4(a: &mut [Complex; 4]) {
    let (t0, t1) = (a[0] + a[2], a[0] - a[2]);
    let (t2, t3) = (a[1] + a[3], rot(a[1] - a[3]));
    *a = [t0 + t2, t1 + t3, t0 - t2, t1 - t3];
}

#[inline(always)]
fn bf5(a: &mut [Complex; 5]) {
    const C1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
    const C2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
    const S1: f64 = 0.951_056_516_295_153_6; // sin(2π/5)
    const S2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
    let (t1, t2) = (a[1] + a[4], a[2] + a[3]);
    let (t3, t4) = (a[1] - a[4], a[2] - a[3]);
    let b1 = a[0] + t1.scale(C1) + t2.scale(C2);
    let b2 = a[0] + t1.scale(C2) + t2.scale(C1);
    let r1 = rot(t3.scale(S1) + t4.scale(S2));
    let r2 = rot(t3.scale(S2) - t4.scale(S1));
    *a = [a[0] + t1 + t2, b1 + r1, b2 + r2, b2 - r2, b1 - r1];
}

/// Reference DFT used by tests (O(n²)).
#[doc(hidden)]
pub fn naive_dft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &v) in x.iter().enumerate() {
                acc +=
                    v * Complex::cis(-2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        // Small deterministic LCG; avoids pulling rand into this substrate.
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                Complex::new(a, b)
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x:?} vs {y:?}");
        }
    }

    /// Every length up to 64 (every radix, the generic primes 7..61, and
    /// their mixtures) plus two large primes: forward against the
    /// reference DFT and forward∘inverse against the identity.
    #[test]
    fn matches_naive_dft_and_roundtrips_every_length() {
        for n in (1usize..=64).chain([97, 127]) {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, n as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            assert_close(&y, &naive_dft(&x), 1e-12 * n as f64);
            plan.inverse(&mut y);
            assert_close(&y, &x, 1e-13 * n as f64);
        }
    }

    /// The column-batched transform equals the per-line transform of
    /// each column, bit for bit.
    #[test]
    fn column_batch_equals_per_line_bitwise() {
        for n in [4usize, 6, 8, 10, 12, 14, 16] {
            let plan = FftPlan::new(n);
            let cols = 5;
            let x = rand_signal(n * cols, 3 * n as u64);
            let mut batch = x.clone();
            plan.cols(&mut batch, cols, &mut FftScratch::default());
            for c in 0..cols {
                let mut line: Vec<Complex> = (0..n).map(|j| x[j * cols + c]).collect();
                plan.forward(&mut line);
                for j in 0..n {
                    assert_eq!(batch[j * cols + c], line[j], "n={n}");
                }
            }
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 16;
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::ONE;
        FftPlan::new(n).forward(&mut x);
        for v in x {
            assert!((v - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 32;
        let x = rand_signal(n, 5);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x;
        FftPlan::new(n).forward(&mut y);
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }
}
