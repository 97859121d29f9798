//! Experiment E8 — ablations of the design choices (§2.1–2.2).
//!
//! * **E8a calibration** — the §2.2 claim: without cancelling the
//!   per-chain downconverter phases, AoA is inoperable.
//! * **E8b decorrelation** — MUSIC with and without forward–backward /
//!   spatial smoothing (and mode space vs the physical circular
//!   manifold) on coherent indoor multipath.
//! * **E8c source count** — AIC vs MDL vs fixed-K.
//! * **E8d grid resolution** — scan-step sweep.
//! * **E8e Equation 1** — the paper's two-antenna arcsin method in pure
//!   line-of-sight vs real multipath.
//!
//! E8a–E8d ablate the paper's 1° MUSIC scan, so every variant observes
//! through a reference engine ([`AoaEngine::reference`]) on the
//! exhaustive oracle ([`ScanBackend::Exhaustive`]), not the production
//! coarse-to-fine scan: bearings stay quantised to the swept grid (E8d)
//! and the no-smoothing verdicts are made on the full grid (E8b).

use crate::sim::{ApArray, Testbed};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_aoa::estimator::{
    AoaConfig, AoaEngine, CircularHandling, ReferenceSetup, ScanBackend, Smoothing,
};
use sa_aoa::pseudospectrum::angle_diff_deg;
use sa_aoa::source_count::SourceCount;
use sa_array::calib::Calibration;
use serde::Serialize;

/// Error statistics for one pipeline variant.
#[derive(Debug, Clone, Serialize)]
pub struct VariantStats {
    /// Variant label.
    pub variant: String,
    /// Median absolute bearing error, degrees.
    pub median_error_deg: f64,
    /// 90th-percentile absolute error, degrees.
    pub p90_error_deg: f64,
    /// Number of (client, packet) trials.
    pub n: usize,
}

/// The E8 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// E8a: calibrated vs uncalibrated.
    pub calibration: Vec<VariantStats>,
    /// E8b: smoothing variants.
    pub smoothing: Vec<VariantStats>,
    /// E8c: source-count policies.
    pub source_count: Vec<VariantStats>,
    /// E8d: grid steps (label carries the step).
    pub grid: Vec<VariantStats>,
    /// E8e: Equation-1 two-antenna method, LoS vs multipath.
    pub equation_one: Vec<VariantStats>,
}

/// Clients used for the sweeps (a spread of easy/hard cases).
const CLIENTS: [usize; 6] = [1, 5, 7, 10, 12, 16];

/// Run all ablations with `packets` packets per client per variant.
pub fn run(seed: u64, packets: usize) -> AblationResult {
    AblationResult {
        calibration: ablate_calibration(seed, packets),
        smoothing: ablate_smoothing(seed, packets),
        source_count: ablate_source_count(seed, packets),
        grid: ablate_grid(seed, packets),
        equation_one: ablate_equation_one(seed, packets),
    }
}

/// Collect bearing errors over `CLIENTS` × packets through a variant
/// engine: `variant` edits the testbed AP's AoA configuration and a
/// reference setup that starts on the exhaustive oracle.
fn errors_with(
    seed: u64,
    packets: usize,
    strip_calibration: bool,
    variant: impl Fn(&mut AoaConfig, &mut ReferenceSetup),
) -> Vec<f64> {
    let mut tb = Testbed::single_ap(ApArray::Circular, seed);
    if strip_calibration {
        tb.nodes[0].ap.set_calibration(Calibration::identity(8));
    }
    let ap = &tb.nodes[0].ap;
    let mut cfg = ap.config().aoa;
    let mut setup = ReferenceSetup {
        scan: ScanBackend::Exhaustive,
        ..ReferenceSetup::default()
    };
    variant(&mut cfg, &mut setup);
    // `AccessPoint::observe`, one packet at a time, on the variant
    // engine; `process` drains the batch, so one batch serves the sweep.
    let mut batch = ap.batch_with_engine(AoaEngine::reference(&ap.config().array, &cfg, setup));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xab1a);
    let mut errors = Vec::new();
    for &id in &CLIENTS {
        let truth = tb.office.ground_truth_azimuth_deg(id);
        for p in 0..packets {
            let buf = tb.client_capture(0, id, p as u16, 0.0, &mut rng);
            let staged = ap
                .decode_capture(&buf)
                .and_then(|d| batch.push_predecoded(&buf, &d));
            if staged.is_ok() {
                let obs = batch.process().pop().expect("one observation per packet");
                errors.push(angle_diff_deg(obs.bearing_deg, truth, true));
            }
        }
    }
    errors
}

fn stats(variant: &str, errors: &[f64]) -> VariantStats {
    VariantStats {
        variant: variant.to_string(),
        median_error_deg: sa_linalg::stats::median(errors),
        p90_error_deg: sa_linalg::stats::percentile(errors, 0.9),
        n: errors.len(),
    }
}

fn ablate_calibration(seed: u64, packets: usize) -> Vec<VariantStats> {
    vec![
        stats(
            "calibrated (§2.2)",
            &errors_with(seed, packets, false, |_, _| {}),
        ),
        stats("uncalibrated", &errors_with(seed, packets, true, |_, _| {})),
    ]
}

fn ablate_smoothing(seed: u64, packets: usize) -> Vec<VariantStats> {
    vec![
        stats(
            "mode space + FB + spatial (default)",
            &errors_with(seed, packets, false, |_, _| {}),
        ),
        stats(
            "mode space + FB only",
            &errors_with(seed, packets, false, |_, s| {
                s.smoothing = Smoothing::ForwardBackward;
            }),
        ),
        stats(
            "mode space, no smoothing",
            &errors_with(seed, packets, false, |_, s| {
                s.smoothing = Smoothing::None;
            }),
        ),
        stats(
            "physical circular manifold",
            &errors_with(seed, packets, false, |_, s| {
                s.circular = CircularHandling::Physical;
                s.smoothing = Smoothing::None;
            }),
        ),
    ]
}

fn ablate_source_count(seed: u64, packets: usize) -> Vec<VariantStats> {
    vec![
        stats(
            "MDL (default)",
            &errors_with(seed, packets, false, |c, _| {
                c.source_count = SourceCount::Mdl;
            }),
        ),
        stats(
            "AIC",
            &errors_with(seed, packets, false, |c, _| {
                c.source_count = SourceCount::Aic;
            }),
        ),
        stats(
            "fixed K=1",
            &errors_with(seed, packets, false, |c, _| {
                c.source_count = SourceCount::Fixed(1);
            }),
        ),
        stats(
            "fixed K=3",
            &errors_with(seed, packets, false, |c, _| {
                c.source_count = SourceCount::Fixed(3);
            }),
        ),
    ]
}

fn ablate_grid(seed: u64, packets: usize) -> Vec<VariantStats> {
    [0.25, 0.5, 1.0, 2.0, 5.0]
        .iter()
        .map(|&step| {
            stats(
                &format!("grid {step} deg"),
                &errors_with(seed, packets, false, |_, s| {
                    s.grid_step_deg = step;
                }),
            )
        })
        .collect()
}

fn ablate_equation_one(seed: u64, packets: usize) -> Vec<VariantStats> {
    use sa_aoa::two_antenna::two_antenna_bearing;
    use sa_array::geometry::Array;
    use sa_channel::apply::{apply_channel, ApplyConfig};
    use sa_channel::pattern::TxAntenna;
    use sa_channel::plan::FloorPlan;
    use sa_channel::trace::{trace_paths, TraceConfig};
    use sa_linalg::complex::ZERO;
    use sa_phy::ppdu::Transmitter;

    let office = crate::office::Office::paper_figure4();
    let array = Array::paper_linear(2);
    let tx = Transmitter::new(sa_phy::Modulation::Qpsk);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xe91);

    let mut los_errors = Vec::new();
    let mut mp_errors = Vec::new();
    for &id in &CLIENTS {
        let pos = office.client(id).position;
        let truth_broadside =
            crate::experiments::fig7::fold_to_broadside_deg(office.ground_truth_azimuth_deg(id));
        for p in 0..packets {
            let wave = {
                let payload = vec![p as u8; 16];
                let mut w = vec![ZERO; 40];
                w.extend(tx.encode(&payload));
                w
            };
            for (free_space, errs) in [(true, &mut los_errors), (false, &mut mp_errors)] {
                let empty = FloorPlan::new();
                let plan = if free_space { &empty } else { &office.plan };
                let paths = trace_paths(plan, pos, office.ap_position, &TraceConfig::default());
                let out = apply_channel(
                    &paths,
                    &TxAntenna::Omni,
                    &array,
                    &wave,
                    &ApplyConfig::default(),
                );
                let mut x1 = out.snapshots.row(0);
                let mut x2 = out.snapshots.row(1);
                let nv = 2e-9;
                sa_sigproc::noise::add_noise(&mut rng, &mut x1, nv);
                sa_sigproc::noise::add_noise(&mut rng, &mut x2, nv);
                let est = two_antenna_bearing(&x1, &x2);
                errs.push((est.theta.to_degrees() - truth_broadside).abs());
            }
        }
    }
    vec![
        stats("Eq. 1, pure line of sight", &los_errors),
        stats("Eq. 1, office multipath", &mp_errors),
    ]
}

/// Render E8.
pub fn render(r: &AblationResult) -> String {
    let mut out = String::new();
    out.push_str("E8 — ablations (median / p90 absolute bearing error, deg)\n");
    for (title, group) in [
        ("a) array calibration (§2.2)", &r.calibration),
        ("b) coherent-multipath decorrelation", &r.smoothing),
        ("c) source-count estimator", &r.source_count),
        ("d) scan-grid resolution", &r.grid),
        ("e) Equation 1 (two antennas)", &r.equation_one),
    ] {
        out.push_str(&format!("\n{}\n", title));
        out.push_str("variant                              | median | p90   | n\n");
        out.push_str("-------------------------------------+--------+-------+----\n");
        for v in group {
            out.push_str(&format!(
                "{:<37}| {:6.2} | {:5.1} | {}\n",
                v.variant, v.median_error_deg, v.p90_error_deg, v.n
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matters() {
        let r = ablate_calibration(61, 2);
        let cal = &r[0];
        let uncal = &r[1];
        assert!(
            uncal.median_error_deg > 3.0 * cal.median_error_deg.max(1.0),
            "uncalibrated {:.1} vs calibrated {:.1}",
            uncal.median_error_deg,
            cal.median_error_deg
        );
    }

    #[test]
    fn equation_one_breaks_down_under_multipath() {
        let r = ablate_equation_one(63, 2);
        let los = &r[0];
        let mp = &r[1];
        assert!(
            los.median_error_deg < 3.0,
            "LoS Eq.1 error {:.2}",
            los.median_error_deg
        );
        assert!(
            mp.median_error_deg > 2.0 * los.median_error_deg.max(0.5),
            "multipath {:.1} vs LoS {:.1}",
            mp.median_error_deg,
            los.median_error_deg
        );
    }

    #[test]
    fn default_smoothing_is_at_least_as_good() {
        let r = ablate_smoothing(65, 2);
        let default = &r[0];
        let none = &r[2];
        assert!(
            default.median_error_deg <= none.median_error_deg + 1.0,
            "default {:.1} vs none {:.1}",
            default.median_error_deg,
            none.median_error_deg
        );
    }

    #[test]
    fn grid_sweep_has_all_steps() {
        let r = ablate_grid(67, 1);
        assert_eq!(r.len(), 5);
        for v in &r {
            assert!(v.n > 0);
        }
    }
}
