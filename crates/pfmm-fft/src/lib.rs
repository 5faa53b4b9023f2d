//! Fast Fourier transforms for the FFT-diagonalized V-list translation.
//!
//! The KIFMM's V-list (M2L) operator is a convolution on the regular grid
//! carrying the equivalent densities; diagonalizing it requires a 3-D FFT
//! (paper §IV: "It is based on a Fast Fourier Transform-based
//! diagonalization of the T operator"). No external FFT crate is used —
//! this substrate implements one mixed-radix Cooley–Tukey plan for every
//! length (radix-4/2/3/5 butterflies plus a generic odd-prime one), and
//! the 3-D tensor transforms built from column-batched 1-D passes, with
//! pruned variants for the M2L's corner-supported grids.

pub mod complex;
pub mod fft1d;
pub mod fft3d;
pub mod rfft;

pub use complex::Complex;
pub use fft1d::{FftPlan, FftScratch};
pub use fft3d::Fft3;
pub use rfft::{RFft3, RFftScratch};
