//! Property-based tests of the FFT substrate.

use proptest::prelude::*;

use pfmm_fft::{Complex, Fft3, FftPlan};

fn arb_signal(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n..=n)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Forward∘inverse is the identity for any length (every hard-coded
    /// radix and the generic odd-prime butterfly covered by the range).
    #[test]
    fn roundtrip_any_length(n in 1usize..70, seed in 0u64..1000) {
        let plan = FftPlan::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = (i as f64 + seed as f64) * 0.7;
                Complex::new(t.sin(), t.cos())
            })
            .collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// The DFT is linear: F(αx + y) == αF(x) + F(y).
    #[test]
    fn linearity(x in arb_signal(24), y in arb_signal(24), alpha in -3.0f64..3.0) {
        let plan = FftPlan::new(24);
        let mut lhs: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(a, b)| a.scale(alpha) + *b)
            .collect();
        plan.forward(&mut lhs);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.forward(&mut fy);
        for ((l, a), b) in lhs.iter().zip(&fx).zip(&fy) {
            let want = a.scale(alpha) + *b;
            prop_assert!((*l - want).abs() < 1e-9);
        }
    }

    /// Parseval: energy is conserved up to the 1/n normalization.
    #[test]
    fn parseval(x in arb_signal(32)) {
        let plan = FftPlan::new(32);
        let te: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x;
        plan.forward(&mut y);
        let fe: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 32.0;
        prop_assert!((te - fe).abs() < 1e-9 * te.max(1.0));
    }

    /// A time shift multiplies the spectrum by a unit-modulus phase —
    /// magnitudes are invariant.
    #[test]
    fn shift_preserves_magnitudes(x in arb_signal(16), shift in 1usize..16) {
        let plan = FftPlan::new(16);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut shifted: Vec<Complex> = x[shift..].to_vec();
        shifted.extend_from_slice(&x[..shift]);
        plan.forward(&mut shifted);
        for (a, b) in fx.iter().zip(&shifted) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-9);
        }
    }

    /// 3-D roundtrip on small grids.
    #[test]
    fn fft3_roundtrip(n in 2usize..7, seed in 0u64..100) {
        let fft = Fft3::new(n);
        let x: Vec<Complex> = (0..n * n * n)
            .map(|i| Complex::new(((i as f64 + seed as f64) * 0.31).sin(), 0.2))
            .collect();
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }
}
