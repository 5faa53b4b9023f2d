//! Micro-benchmarks of the FFT substrate: the mixed-radix 1-D transform at
//! the M2L line lengths and the 3-D grids the M2L diagonalization uses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pfmm_fft::{Complex, Fft3, FftPlan};
use std::hint::black_box;

fn signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");

    // The 1-D line lengths of the M2L torus sides `n = 2p` at orders
    // 4..=8: radix 4·2, 2·5, 4·3, 2·7 (generic odd prime), 4·4.
    for n in [8usize, 10, 12, 14, 16] {
        let plan = FftPlan::new(n);
        let x = signal(n);
        g.bench_function(format!("forward_{n}"), |b| {
            b.iter_batched(
                || x.clone(),
                |mut v| {
                    plan.forward(&mut v);
                    black_box(v)
                },
                BatchSize::SmallInput,
            )
        });
    }

    // The M2L grids: order 4 → 8³, order 6 → 12³, order 8 → 16³.
    for n in [8usize, 12, 16] {
        let fft = Fft3::new(n);
        let x = signal(n * n * n);
        g.bench_function(format!("fft3_forward_{n}cubed"), |b| {
            b.iter_batched(
                || x.clone(),
                |mut v| {
                    fft.forward(&mut v);
                    black_box(v)
                },
                BatchSize::SmallInput,
            )
        });
    }

    g.finish();
}

criterion_group!(benches, bench_fft);
criterion_main!(benches);
