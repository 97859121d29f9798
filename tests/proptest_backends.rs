//! Scan-backend equivalence properties (root seam test): on randomized
//! array/source/SNR scenarios, the production coarse-to-fine scan must
//! agree with the exhaustive-grid oracle on the peak *set* (to within
//! its refinement tolerance plus the grid quantisation), pin its
//! continuous bearings to the truth at comfortable SNR, and both scans
//! must be bit-deterministic (same covariance in, byte-identical
//! estimate out).

use proptest::prelude::*;
use sa_aoa::estimator::{AoaConfig, AoaEngine, ReferenceSetup, ScanBackend};
use sa_aoa::pseudospectrum::angle_diff_deg;
use sa_aoa::SourceCount;
use sa_array::geometry::{broadside_deg_to_azimuth, Array};
use sa_linalg::{CMat, C64};

/// Deterministic multi-source snapshots: independent QPSK-like symbol
/// streams per source (incoherent — the clean MUSIC regime), plus
/// deterministic per-element "noise" from a counter-based stream, so
/// identical scenarios reproduce bit-identical covariances.
fn snapshots(array: &Array, sources: &[(f64, f64)], n: usize, noise_var: f64, seed: u64) -> CMat {
    let steers: Vec<Vec<C64>> = sources.iter().map(|&(az, _)| array.steering(az)).collect();
    let stream = |src: u64, t: usize| -> C64 {
        let k = (t as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((seed ^ src).wrapping_mul(1442695040888963407))
            >> 61;
        C64::cis(std::f64::consts::FRAC_PI_4 + std::f64::consts::FRAC_PI_2 * (k % 4) as f64)
    };
    let sigma = noise_var.sqrt();
    CMat::from_fn(array.len(), n, |m, t| {
        let mut acc: C64 = sources
            .iter()
            .enumerate()
            .map(|(p, &(_, gain))| steers[p][m] * stream(p as u64 + 1, t) * gain)
            .sum();
        // Counter-based pseudo-noise: uniform phase, fixed magnitude —
        // enough to set the eigenvalue floor, fully deterministic.
        let h = (m as u64 + 17)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((t as u64).wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add(seed.wrapping_mul(0x94d049bb133111eb));
        let phase = (h >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
        acc += C64::from_polar(sigma, phase);
        acc
    })
}

fn estimate_with(
    scan: ScanBackend,
    array: &Array,
    r: &CMat,
    n: usize,
    n_src: usize,
) -> sa_aoa::AoaEstimate {
    let cfg = AoaConfig {
        source_count: SourceCount::Fixed(n_src),
        ..AoaConfig::default()
    };
    let setup = ReferenceSetup {
        scan,
        ..ReferenceSetup::default()
    };
    AoaEngine::reference(array, &cfg, setup).estimate_cov(r, n)
}

/// Whether an estimate's spectrum samples every cell of the default 1°
/// grid — true of the exhaustive oracle, false of the decimated scans.
fn on_full_grid(est: &sa_aoa::AoaEstimate) -> bool {
    let a = &est.spectrum.angles_deg;
    a.len() >= 2 && (a[1] - a[0] - ReferenceSetup::default().grid_step_deg).abs() < 1e-9
}

/// The ULA sweep's contract for one scenario (see
/// `backends_agree_with_exhaustive_oracle_on_ulas`).
fn check_ula_case(
    m: usize,
    n_src_raw: usize,
    snr_idx: usize,
    seed: u64,
    theta0: f64,
) -> Result<(), TestCaseError> {
    let snr_db = [0.0f64, 5.0, 10.0, 20.0][snr_idx];
    let noise_var = 10f64.powf(-snr_db / 10.0);
    let array = Array::paper_linear(m);
    // Resolvable source count shrinks with the smoothed aperture;
    // keep ≥ 30° separation and distinct powers so ranking is
    // unambiguous.
    let n_src = n_src_raw.min((m / 4).max(1));
    let thetas: Vec<f64> = (0..n_src).map(|i| theta0 + 40.0 * i as f64).collect();
    let gains = [1.0f64, 0.55, 0.3];
    let sources: Vec<(f64, f64)> = thetas
        .iter()
        .zip(gains)
        .map(|(&t, g)| (broadside_deg_to_azimuth(t), g))
        .collect();
    let x = snapshots(&array, &sources, 128, noise_var, seed);
    let r = sa_sigproc::sample_covariance(&x);

    let oracle = estimate_with(ScanBackend::Exhaustive, &array, &r, 128, n_src);
    let c2f = estimate_with(ScanBackend::CoarseToFine, &array, &r, 128, n_src);
    prop_assert!(
        on_full_grid(&oracle),
        "oracle spectrum is not on the full grid"
    );

    // Shared pipeline stages are identical regardless of backend.
    prop_assert_eq!(c2f.n_sources, oracle.n_sources);
    prop_assert_eq!(&c2f.eigenvalues, &oracle.eigenvalues);

    // Coarse-to-fine geometry is only contractual above the noise
    // floor: at 0 dB, noise can raise a spurious lobe right next to
    // a true peak, suppress the adjacent coarse local-max test, and
    // legitimately hide a sub-stride peak from any decimated scan.
    // From 5 dB up the off-peak spectrum is flat, so every
    // prominent oracle peak either survives (within the 1° grid
    // cell — the oracle is quantised, the refinement continuous) or
    // was absorbed into a *stronger* peak inside the fine-rescan
    // window (a shoulder merging into a dominant lobe). Isolated
    // peaks must never vanish. The contract covers ranking-relevant
    // peaks — within 10 dB of the strongest oracle peak; sidelobes
    // further down can hide between coarse samples (same sub-stride
    // mechanism as the 0 dB exemption, just driven by the lobe
    // floor rather than the noise floor) and never influence the
    // bearing or spoof verdicts.
    if snr_db >= 5.0 {
        // Absorption reach scales with the coarse stride: the
        // dominant lobe's window spans ±(stride−1) grid cells
        // around a coarse sample that is itself up to a stride from
        // the sidelobe, so ~2 strides. The stride is read off the
        // coarse-to-fine spectrum's own grid step.
        let a = &c2f.spectrum.angles_deg;
        let absorb_deg = 2.0 * (a[1] - a[0]);
        let oracle_peaks = oracle.spectrum.find_peaks(3.0, 8);
        let strongest = oracle_peaks
            .iter()
            .map(|p| p.value)
            .fold(f64::NEG_INFINITY, f64::max);
        for p in oracle_peaks.iter().filter(|p| p.value >= strongest / 10.0) {
            let matched = c2f
                .ranked_peaks
                .iter()
                .any(|q| (q.angle_deg - p.angle_deg).abs() <= 1.0);
            let absorbed = c2f.ranked_peaks.iter().any(|q| {
                q.music_value >= p.value && (q.angle_deg - p.angle_deg).abs() <= absorb_deg
            });
            prop_assert!(
                matched || absorbed,
                "oracle peak {}° (value {}) missing from coarse-to-fine {:?}",
                p.angle_deg,
                p.value,
                c2f.ranked_peaks
            );
        }
        prop_assert!(
            (c2f.bearing_deg() - oracle.bearing_deg()).abs() <= 1.0,
            "c2f bearing {} vs oracle {}",
            c2f.bearing_deg(),
            oracle.bearing_deg()
        );
    }

    // Coarse-to-fine bearings are continuous (refined off the grid).
    // At comfortable SNR pin them to the *truth* tighter than the
    // oracle's own quantisation.
    if snr_db >= 10.0 {
        if n_src == 1 {
            // Truth bound scaled by what the aperture can deliver:
            // 10× the stochastic-CRLB sigma for this (M, SNR, N) —
            // the engine spatially smooths ULAs, so the effective
            // aperture is smaller than M and the full-aperture
            // bound is deliberately optimistic — floored at 0.5°.
            // The ≤1° oracle pin above stays the tight check; this
            // one certifies the refined estimate is unbiased.
            let snr_lin = 10f64.powf(snr_db / 10.0);
            let tol = (10.0 * sa_aoa::crlb_sigma_deg(snr_lin, 128, m)).max(0.5);
            prop_assert!(
                (c2f.bearing_deg() - thetas[0]).abs() <= tol,
                "c2f bearing {} vs truth {} (m={}, tol={})",
                c2f.bearing_deg(),
                thetas[0],
                m,
                tol
            );
        } else {
            // Per-source visibility: the scenario SNR is the
            // strongest source's; the deliberately weaker sources
            // (gain 0.55 / 0.3 → −5.2 / −10.5 dB relative) are only
            // contractually recoverable once their *own* SNR
            // clears 10 dB.
            for (i, &t) in thetas.iter().enumerate() {
                let src_snr_db = snr_db + 20.0 * gains[i].log10();
                if src_snr_db < 10.0 {
                    continue;
                }
                prop_assert!(
                    c2f.ranked_peaks
                        .iter()
                        .any(|q| (q.angle_deg - t).abs() <= 1.5),
                    "source {}° ({} dB) missing from coarse-to-fine {:?}",
                    t,
                    src_snr_db,
                    c2f.ranked_peaks
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ULA sweep: M ∈ 2..=16 antennas, 1–3 well-separated sources,
    /// SNR ∈ {0, 5, 10, 20} dB.
    #[test]
    fn backends_agree_with_exhaustive_oracle_on_ulas(
        m in 2usize..=16,
        n_src_raw in 1usize..=3,
        snr_idx in 0usize..4,
        seed in 0u64..1_000,
        theta0 in -55.0f64..=-30.0,
    ) {
        check_ula_case(m, n_src_raw, snr_idx, seed, theta0)?;
    }

    /// Production octagon path (Davies virtual ULA): both scans agree on
    /// the bearing and are bit-deterministic across fresh engines.
    #[test]
    fn backends_deterministic_and_consistent_on_octagon(
        az_deg in 0.0f64..360.0,
        snr_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let snr_db = [0.0f64, 5.0, 10.0, 20.0][snr_idx];
        let noise_var = 10f64.powf(-snr_db / 10.0);
        let array = Array::paper_octagon();
        let sources = [(az_deg.to_radians(), 1.0)];
        let x = snapshots(&array, &sources, 128, noise_var, seed);
        let r = sa_sigproc::sample_covariance(&x);

        let oracle = estimate_with(ScanBackend::Exhaustive, &array, &r, 128, 1);
        prop_assert!(on_full_grid(&oracle), "oracle spectrum is not on the full grid");
        for backend in [ScanBackend::Exhaustive, ScanBackend::CoarseToFine] {
            let a = estimate_with(backend, &array, &r, 128, 1);
            let b = estimate_with(backend, &array, &r, 128, 1);
            prop_assert_eq!(
                format!("{:?}", a),
                format!("{:?}", b),
                "backend {:?} not bit-deterministic",
                backend
            );
            if snr_db >= 5.0 {
                prop_assert!(
                    angle_diff_deg(a.bearing_deg(), oracle.bearing_deg(), true) <= 1.5,
                    "backend {:?}: bearing {} vs oracle {}",
                    backend, a.bearing_deg(), oracle.bearing_deg()
                );
            }
        }
    }
}

/// The minimal failing input of the ULA sweep under a fixed stride-6
/// coarse scan: a 15-element ULA (11-element smoothed aperture) at
/// 5 dB, three sources from −40.4°. Its oracle peak at −40° fell
/// between coarse samples; the aperture-scaled stride keeps it.
#[test]
fn coarse_stride_keeps_the_15_element_ula_peak() {
    check_ula_case(15, 3, 1, 0, -40.40).unwrap();
}
