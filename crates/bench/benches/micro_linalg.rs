//! Microbenches for the numerical kernels: Hermitian eigendecomposition
//! (the heart of MUSIC), FFT (the heart of the OFDM modem), and the
//! matrix products that dominate covariance estimation.

use criterion::{criterion_group, criterion_main, Criterion};
use sa_linalg::complex::C64;
use sa_linalg::eigen::{eigh, eigh_jacobi};
use sa_linalg::fft::{fft64, ifft64, FFT_LEN};
use sa_linalg::CMat;

fn hermitian(n: usize, seed: u64) -> CMat {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let g = CMat::from_fn(n, n, |_, _| C64::new(next(), next()));
    &g + &g.hermitian()
}

fn bench_eigh(c: &mut Criterion) {
    // The production path: Householder tridiagonal + implicit-shift QL.
    let mut group = c.benchmark_group("eigh_tridiag");
    for n in [4usize, 8, 16] {
        let a = hermitian(n, 42);
        group.bench_function(format!("{n}x{n}"), |b| b.iter(|| eigh(&a)));
    }
    group.finish();
    // The cyclic Jacobi reference oracle, same inputs — the before/after
    // of the PR-5 eigensolver swap reads straight off these two groups.
    let mut group = c.benchmark_group("eigh_jacobi");
    for n in [4usize, 8, 16] {
        let a = hermitian(n, 42);
        group.bench_function(format!("{n}x{n}"), |b| b.iter(|| eigh_jacobi(&a)));
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    // The modem's one transform size, in place on a copy of the input.
    let mut group = c.benchmark_group("fft64");
    let x: [C64; FFT_LEN] = std::array::from_fn(|i| C64::new((i as f64).sin(), (i as f64).cos()));
    group.bench_function("forward", |b| {
        b.iter(|| {
            let mut y = x;
            fft64(&mut y);
            y
        })
    });
    group.bench_function("inverse", |b| {
        b.iter(|| {
            let mut y = x;
            ifft64(&mut y);
            y
        })
    });
    group.finish();
}

fn bench_covariance(c: &mut Criterion) {
    use sa_sigproc::covariance::{sample_covariance, smooth_fb};
    let mut group = c.benchmark_group("covariance");
    // 8x128 is the fleet's shape: 8 antennas, `snapshot_cap` 128.
    for (m, n) in [(8usize, 128usize), (8, 512), (8, 2048), (16, 512)] {
        let x = CMat::from_fn(m, n, |i, t| C64::cis(0.3 * i as f64 + 0.11 * t as f64));
        group.bench_function(format!("sample_{m}x{n}"), |b| {
            b.iter(|| sample_covariance(&x))
        });
    }
    let x = CMat::from_fn(8, 512, |i, t| C64::cis(0.3 * i as f64 + 0.11 * t as f64));
    let r = sample_covariance(&x);
    group.bench_function("smooth_fb_8_to_6", |b| b.iter(|| smooth_fb(&r, 6)));
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let a = hermitian(16, 7);
    let b_ = hermitian(16, 9);
    c.bench_function("matmul_16x16", |b| b.iter(|| a.matmul(&b_)));
}

criterion_group!(
    benches,
    bench_eigh,
    bench_fft,
    bench_covariance,
    bench_matmul
);
criterion_main!(benches);
