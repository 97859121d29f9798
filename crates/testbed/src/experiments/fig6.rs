//! Experiment E3 — Figure 6: stability of AoA signatures over time.
//!
//! Paper: "each subplot of Figure 6 is composed of pseudospectra
//! generated from packets recorded zero, one, 10, 100 and 1000 seconds,
//! as well as one hour and one day later, all from the same client …
//! the direct-path peak is quite stable while the multipath reflection
//! peaks (smaller peaks) sometimes vary. From minute to minute,
//! pseudospectra are quite stable."
//!
//! Clients 2 (another room), 5 (near, same room) and 10 (far, same
//! room), linear AP arrangement — exactly the paper's pick.

use crate::sim::{ApArray, Testbed};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_aoa::pseudospectrum::angle_diff_deg;
use secureangle::signature::AoaSignature;
use serde::Serialize;

/// The paper's capture schedule, seconds.
pub const TIME_POINTS_S: [f64; 7] = [0.0, 1.0, 10.0, 100.0, 1000.0, 3600.0, 86_400.0];

/// One pseudospectrum capture at one time point.
#[derive(Debug, Clone, Serialize)]
pub struct SpectrumCapture {
    /// Seconds after the first capture.
    pub dt_s: f64,
    /// Scan angles, degrees (broadside convention, linear array).
    pub angles_deg: Vec<f64>,
    /// Spectrum in dB (peak = 0, floored at −30 dB) — the paper's y-axis.
    pub db: Vec<f64>,
    /// Direct-path (strongest-peak) bearing, degrees.
    pub peak_deg: f64,
    /// Match score against the dt = 0 signature.
    pub score_vs_t0: f64,
}

/// One client's Fig-6 subplot.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Client {
    /// Client id.
    pub client: usize,
    /// Captures at each time point (same order as [`TIME_POINTS_S`]).
    pub captures: Vec<SpectrumCapture>,
    /// Maximum drift of the strongest peak across time, degrees.
    pub max_peak_drift_deg: f64,
    /// Minimum self-match score across time.
    pub min_score: f64,
}

/// The full Fig-6 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Result {
    /// Per-client subplots (clients 2, 5, 10).
    pub clients: Vec<Fig6Client>,
}

/// Run E3 on the paper's three clients.
pub fn run(seed: u64) -> Fig6Result {
    run_for_clients(seed, &[2, 5, 10])
}

/// Run E3 for an arbitrary client set.
pub fn run_for_clients(seed: u64, ids: &[usize]) -> Fig6Result {
    let tb = Testbed::single_ap(ApArray::Linear(8), seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF166);

    let mut clients = Vec::with_capacity(ids.len());
    for &id in ids {
        let mut captures: Vec<SpectrumCapture> = Vec::with_capacity(TIME_POINTS_S.len());
        let mut base_sig: Option<AoaSignature> = None;
        for &dt in &TIME_POINTS_S {
            let buf = tb.client_capture(0, id, 1, dt, &mut rng);
            let obs = tb.nodes[0]
                .ap
                .observe(&buf)
                .unwrap_or_else(|e| panic!("client {} dt {}: {}", id, dt, e));
            let sig = obs.signature.clone();
            let score = match &base_sig {
                None => {
                    base_sig = Some(sig.clone());
                    1.0
                }
                Some(b) => b.compare(&sig).score,
            };
            let spec = sig.spectrum();
            captures.push(SpectrumCapture {
                dt_s: dt,
                angles_deg: spec.angles_deg.clone(),
                db: spec.db(-30.0),
                peak_deg: obs.bearing_deg,
                score_vs_t0: score,
            });
        }
        let p0 = captures[0].peak_deg;
        let max_drift = captures
            .iter()
            .map(|c| angle_diff_deg(c.peak_deg, p0, false))
            .fold(0.0, f64::max);
        let min_score = captures
            .iter()
            .map(|c| c.score_vs_t0)
            .fold(f64::INFINITY, f64::min);
        clients.push(Fig6Client {
            client: id,
            captures,
            max_peak_drift_deg: max_drift,
            min_score,
        });
    }
    Fig6Result { clients }
}

/// Render a text version of Fig 6: per client, the peak bearing and the
/// self-match score at each time offset.
pub fn render(r: &Fig6Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 6 — AoA signature stability (linear 8-antenna array)\n");
    for c in &r.clients {
        out.push_str(&format!("\nclient {}:\n", c.client));
        out.push_str("      Δt | peak bearing (deg) | match vs t0\n");
        out.push_str("---------+--------------------+------------\n");
        for cap in &c.captures {
            let label = match cap.dt_s {
                dt if dt < 1.0 => "0 s".to_string(),
                dt if dt < 3600.0 => format!("{:.0} s", dt),
                dt if dt < 86_400.0 => "1 hour".to_string(),
                _ => "1 day".to_string(),
            };
            out.push_str(&format!(
                "{:>8} | {:18.1} | {:10.3}\n",
                label, cap.peak_deg, cap.score_vs_t0
            ));
        }
        out.push_str(&format!(
            "max direct-peak drift: {:.1} deg; min self-match: {:.3}\n",
            c.max_peak_drift_deg, c.min_score
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_peak_is_stable_for_near_client() {
        let r = run_for_clients(11, &[5]);
        let c = &r.clients[0];
        assert_eq!(c.captures.len(), TIME_POINTS_S.len());
        // The paper's core observation: the direct-path peak barely
        // moves even a day later.
        assert!(
            c.max_peak_drift_deg <= 6.0,
            "direct peak drifted {} deg",
            c.max_peak_drift_deg
        );
        // Minute-scale spectra are "quite stable": scores stay high for
        // the early captures.
        for cap in c.captures.iter().take(4) {
            assert!(
                cap.score_vs_t0 > 0.6,
                "dt {} score {}",
                cap.dt_s,
                cap.score_vs_t0
            );
        }
    }

    #[test]
    fn long_horizons_change_more_than_short() {
        let r = run_for_clients(13, &[10]);
        let c = &r.clients[0];
        let early = c.captures[1].score_vs_t0; // 1 s
        let day = c.captures.last().unwrap().score_vs_t0;
        assert!(
            day <= early + 0.05,
            "1-day score {} unexpectedly above 1-s score {}",
            day,
            early
        );
    }

    #[test]
    fn render_contains_all_time_labels() {
        let r = run_for_clients(15, &[2]);
        let txt = render(&r);
        for label in ["0 s", "1 s", "1 hour", "1 day"] {
            assert!(txt.contains(label), "missing {}", label);
        }
    }
}
