//! Complex additive white Gaussian noise.
//!
//! Every receive chain in the simulated WARP front end adds thermal noise;
//! experiment SNRs are set by scaling this noise relative to the received
//! signal power. Sampling uses a caller-supplied RNG so that every
//! experiment in the workspace is reproducible from a seed.

use rand::Rng;
use sa_linalg::complex::C64;

/// Draw one circularly-symmetric complex Gaussian sample with total
/// variance `sigma2` (i.e. each of I and Q has variance `sigma2 / 2`).
pub fn cn_sample<R: Rng + ?Sized>(rng: &mut R, sigma2: f64) -> C64 {
    let s = (sigma2 / 2.0).sqrt();
    C64::new(s * gaussian(rng), s * gaussian(rng))
}

/// Fill a buffer with CN(0, sigma2) noise.
pub fn cn_vector<R: Rng + ?Sized>(rng: &mut R, n: usize, sigma2: f64) -> Vec<C64> {
    (0..n).map(|_| cn_sample(rng, sigma2)).collect()
}

/// Add CN(0, sigma2) noise to a signal in place.
pub fn add_noise<R: Rng + ?Sized>(rng: &mut R, x: &mut [C64], sigma2: f64) {
    for z in x.iter_mut() {
        *z += cn_sample(rng, sigma2);
    }
}

/// Standard normal sample by Box–Muller (the `rand` crate is kept to its
/// core `Rng` trait; we do not depend on `rand_distr`). Public because
/// the channel's temporal-evolution model needs real Gaussian draws too.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iq::mean_power;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn noise_power_matches_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let v = cn_vector(&mut rng, 200_000, 2.5);
        let p = mean_power(&v);
        assert!((p - 2.5).abs() < 0.03, "measured power {} far from 2.5", p);
    }

    #[test]
    fn iq_components_are_balanced_and_centred() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let v = cn_vector(&mut rng, 200_000, 1.0);
        let mi: f64 = v.iter().map(|z| z.re).sum::<f64>() / v.len() as f64;
        let mq: f64 = v.iter().map(|z| z.im).sum::<f64>() / v.len() as f64;
        let pi: f64 = v.iter().map(|z| z.re * z.re).sum::<f64>() / v.len() as f64;
        let pq: f64 = v.iter().map(|z| z.im * z.im).sum::<f64>() / v.len() as f64;
        assert!(mi.abs() < 0.01 && mq.abs() < 0.01, "nonzero mean {mi},{mq}");
        assert!((pi - 0.5).abs() < 0.01, "I variance {pi}");
        assert!((pq - 0.5).abs() < 0.01, "Q variance {pq}");
    }

    #[test]
    fn circular_symmetry_no_iq_correlation() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let v = cn_vector(&mut rng, 200_000, 1.0);
        let c: f64 = v.iter().map(|z| z.re * z.im).sum::<f64>() / v.len() as f64;
        assert!(c.abs() < 0.01, "I/Q correlation {c}");
    }

    #[test]
    fn seeded_rng_is_reproducible() {
        let a = cn_vector(&mut ChaCha8Rng::seed_from_u64(42), 16, 1.0);
        let b = cn_vector(&mut ChaCha8Rng::seed_from_u64(42), 16, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn add_noise_raises_power_by_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut x = vec![sa_linalg::c64(1.0, 0.0); 100_000];
        add_noise(&mut rng, &mut x, 0.5);
        let p = mean_power(&x);
        assert!((p - 1.5).abs() < 0.02, "power after noise {p}");
    }
}
