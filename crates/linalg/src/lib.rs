//! # sa-linalg — numerics for the SecureAngle reproduction
//!
//! Self-contained numerical kernels used across the workspace:
//!
//! * [`complex`] — `C64`, double-precision complex numbers (baseband IQ
//!   samples, Figure 1(b) of the paper);
//! * [`matrix`] — small dense complex matrices (antenna correlation
//!   matrices are at most 16×16);
//! * [`eigen`] — Hermitian eigendecomposition (Householder tridiagonal +
//!   implicit-shift QL, with the cyclic Jacobi method kept as reference
//!   oracle), the core of MUSIC's eigenstructure analysis;
//! * [`fft`] — the OFDM modem's 64-point radix-2 FFT (`const`
//!   bit-reversal, one static twiddle table), with a naive DFT oracle;
//! * [`bessel`] — integer-order `J_n` for the circular-array phase-mode
//!   transform;
//! * [`stats`] — means, percentiles and Student-t confidence intervals
//!   (the paper's Fig-5 error bars and §2.3.1 accuracy claims).
//!
//! Everything is written against stable Rust with no unsafe code and no
//! external numerics dependencies; sizes are small enough that clarity and
//! verifiability win over optimisation (hot paths recycle buffers instead
//! — see [`eigen::EighWorkspace`] and `docs/BENCHMARKS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bessel;
pub mod complex;
pub mod eigen;
pub mod fft;
pub mod matrix;
pub mod stats;

pub use complex::{c64, C64};
pub use eigen::{eigh, EigH};
pub use matrix::CMat;
