//! Host ceilings measured in the same run (FMA peak, STREAM triad) and
//! timed micro-calls into the kernel, FFT and GEMM layers.

use std::hint::black_box;
use std::time::Instant;

use pfmm_fft::{Complex, RFft3, RFftScratch};
use pfmm_kernels::{Kernel, Tiles, LANE};
use pfmm_linalg::{gemm_acc_scaled, Matrix};

use crate::stats::median;

/// The SIMD tier `pfmm_kernels::tile` dispatches to on this host (same
/// runtime feature test).
pub fn tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let fma = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if fma && std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if fma {
            return "avx2";
        }
    }
    "portable"
}

/// Independent accumulator chains: enough to cover FMA latency × issue
/// width at every tier (8 zmm / 16 ymm registers).
const CHAINS: usize = 64;

#[inline(always)]
fn fma_body(iters: u64, seed: f64) -> f64 {
    let mut acc = [seed; CHAINS];
    let (m, a) = (black_box(1.0 - 1e-12), black_box(1e-12));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(m, a);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn fma_avx512(iters: u64, seed: f64) -> f64 {
    fma_body(iters, seed)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64, seed: f64) -> f64 {
    fma_body(iters, seed)
}

/// Portable tier: separate multiply and add (a software `mul_add` would
/// measure libm, not the hardware).
fn mul_add_portable(iters: u64, seed: f64) -> f64 {
    let mut acc = [seed; CHAINS];
    let (m, a) = (black_box(1.0 - 1e-12), black_box(1e-12));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * m + a;
        }
    }
    acc.iter().sum()
}

fn fma_loop(iters: u64, seed: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    match tier() {
        // SAFETY: `tier` verified avx512f, avx2 and fma at runtime.
        "avx512" => return unsafe { fma_avx512(iters, seed) },
        // SAFETY: `tier` verified avx2 and fma at runtime.
        "avx2" => return unsafe { fma_avx2(iters, seed) },
        _ => {}
    }
    mul_add_portable(iters, seed)
}

/// Peak multiply-add rate over `threads` concurrent threads, GF/s (best
/// of several timed rounds).
pub fn fma_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for k in 0..threads {
                s.spawn(move || black_box(fma_loop(black_box(ITERS), k as f64)));
            }
        });
        let secs = t.elapsed().as_secs_f64();
        let flops = (2 * CHAINS as u64 * ITERS * threads as u64) as f64;
        best = best.max(flops / secs * 1e-9);
    }
    best
}

/// Last-level cache bytes from CPUID (deterministic cache parameters,
/// Intel leaf 4 / AMD leaf 0x8000001D); `None` when unavailable.
pub fn llc_bytes() -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let max_ext = __cpuid_count(0x8000_0000, 0).eax;
        let leaf = if __cpuid_count(0, 0).eax >= 4 {
            4
        } else if max_ext >= 0x8000_001D {
            0x8000_001D
        } else {
            return None;
        };
        let mut best: Option<(u32, usize)> = None;
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            let size = ways * parts * line * sets;
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, size));
            }
        }
        best.map(|(_, s)| s)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// STREAM-triad bandwidth (`a = b + s·c`, 24 bytes per element), GB/s,
/// over `threads` threads. The three arrays together span at least four
/// times the last-level cache. Returns `(GB/s, llc bytes, array bytes)`.
pub fn triad_gbs(threads: usize) -> (f64, usize, usize) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let total = (4 * llc).max(64 << 20);
    let n = total / 24;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads);
    let mut best = 0.0f64;
    for _ in 0..6 {
        let s = black_box(3.0);
        let t = Instant::now();
        std::thread::scope(|sc| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = y + s * z;
                    }
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        best = best.max(24.0 * n as f64 / secs * 1e-9);
    }
    black_box(&a);
    (best, llc, 8 * n)
}

/// A tiny deterministic generator for micro-call inputs.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Repeat `f` in blocks for about `budget_s`, returning the median
/// seconds per call.
fn per_call_secs(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let per_block = ((budget_s / 9.0 / once) as usize).max(1);
    let blocks: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_block {
                f();
            }
            t.elapsed().as_secs_f64() / per_block as f64
        })
        .collect();
    median(&blocks)
}

/// `pfmm_kernels::Tiles` rate on one U-list edge of `q` targets against
/// `q` sources (real pairs × the kernel's flops per pair), GF/s.
pub fn tile_gflops(kernel: &dyn Kernel, q: usize) -> f64 {
    let tk = kernel
        .as_tile_kernel()
        .expect("built-in kernels provide tile microkernels");
    let (sd, td) = (kernel.source_dim(), kernel.target_dim());
    let ns = q.div_ceil(LANE) * LANE;
    let mut st = 7u64;
    let mut plane = |n: usize, pad: f64| -> Vec<f64> {
        (0..n)
            .map(|i| if i < q { lcg(&mut st) } else { pad })
            .collect()
    };
    let (tx, ty, tz) = (plane(q, 0.0), plane(q, 0.0), plane(q, 0.0));
    let (sx, sy, sz) = (plane(ns, -1e9), plane(ns, -1e9), plane(ns, -1e9));
    let den: Vec<f64> = (0..sd * ns)
        .map(|i| if i % ns < q { lcg(&mut st) - 0.5 } else { 0.0 })
        .collect();
    let mut out = vec![0.0; q * td];
    let secs = per_call_secs(0.25, || {
        let t = Tiles {
            tx: &tx,
            ty: &ty,
            tz: &tz,
            sx: &sx,
            sy: &sy,
            sz: &sz,
            den: &den,
        };
        tk.eval_tiles(black_box(t), &mut out);
    });
    black_box(&out);
    (q * q) as f64 * kernel.flops_per_pair() as f64 / secs * 1e-9
}

/// One forward `pfmm_fft::RFft3` of the order's M2L grid (`2·order` per
/// side), µs.
pub fn rfft3_us(order: usize) -> f64 {
    let fft = RFft3::new(2 * order);
    let mut st = 11u64;
    let real: Vec<f64> = (0..fft.len()).map(|_| lcg(&mut st)).collect();
    let mut spec = vec![Complex::ZERO; fft.spectrum_len()];
    let mut sc = RFftScratch::default();
    let secs = per_call_secs(0.25, || {
        fft.forward_with(black_box(&real), &mut spec, &mut sc)
    });
    black_box(&spec);
    secs * 1e6
}

/// `pfmm_linalg::gemm_acc_scaled` rate on the up/down translation shape:
/// a square surface operator (`surface_size(order)·dim`) against 64
/// right-hand sides, GF/s.
pub fn gemm_gflops(order: usize, dim: usize) -> f64 {
    let n = pfmm_core::surface::surface_size(order) * dim;
    let m = 64;
    let mut st = 13u64;
    let a = Matrix::from_fn(n, n, |_, _| lcg(&mut st) - 0.5);
    let x: Vec<f64> = (0..n * m).map(|_| lcg(&mut st) - 0.5).collect();
    let mut y = vec![0.0; n * m];
    let secs = per_call_secs(0.25, || gemm_acc_scaled(&a, black_box(&x), &mut y, m, 0.5));
    black_box(&y);
    2.0 * (n * n * m) as f64 / secs * 1e-9
}
