//! Experiment E7 — RSS signalprints vs AoA signatures (§4).
//!
//! The paper's related-work argument, made quantitative: "attackers with
//! directional antennas can subvert RSS-based systems" while the same
//! attacker cannot move its angle-of-arrival. For each attacker
//! position, the directional attacker aims at the AP and power-controls
//! so the AP's received power matches the victim's; we then ask both
//! detectors — RSS signalprint and SecureAngle — whether they flag the
//! injected frames.

use crate::sim::{ApArray, Testbed};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use secureangle::attacker::{Attacker, AttackerGear};
use secureangle::rss::{RssDetector, RssPrint};
use serde::Serialize;

/// One attacker position's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct RssTrial {
    /// Attacker stand-in client id (position source).
    pub position_of: usize,
    /// RSS error after power matching, dB.
    pub rss_error_db: f64,
    /// Did the RSS detector flag the attacker?
    pub rss_flagged: bool,
    /// SecureAngle match score of the attacker.
    pub aoa_score: f64,
    /// Did SecureAngle flag the attacker?
    pub aoa_flagged: bool,
}

/// The E7 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct RssBaselineResult {
    /// Victim client id.
    pub victim: usize,
    /// Per-packet RSS jitter (std dev, dB) of the *legitimate* victim —
    /// sets the floor for any usable RSS tolerance.
    pub victim_rss_std_db: f64,
    /// RSS tolerance used, dB.
    pub rss_tolerance_db: f64,
    /// Trials.
    pub trials: Vec<RssTrial>,
    /// Fraction of attackers the RSS detector missed.
    pub rss_miss_rate: f64,
    /// Fraction of attackers SecureAngle missed.
    pub aoa_miss_rate: f64,
}

/// Run E7: victim trains both detectors; a directional, power-matching
/// attacker tries from every other client position.
pub fn run(seed: u64, victim: usize) -> RssBaselineResult {
    let tb = Testbed::single_ap(ApArray::Circular, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x255b);
    let aoa_threshold = secureangle::spoof::SPOOF_THRESHOLD;

    // --- Train both detectors on the victim -------------------------
    let victim_pos = tb.office.client(victim).position;
    let buf = tb.client_capture(0, victim, 0, 0.0, &mut rng);
    let obs = tb.nodes[0].ap.observe(&buf).expect("victim training");
    let profile_sig = obs.signature.clone();

    // Victim RSS statistics over a few packets (for the print and its
    // natural jitter).
    let mut rss_samples = Vec::new();
    for p in 0..8 {
        let buf = tb.client_capture(0, victim, 1 + p, 0.0, &mut rng);
        if let Ok(o) = tb.nodes[0].ap.observe(&buf) {
            rss_samples.push(o.rss_db);
        }
    }
    let victim_rss_mean = sa_linalg::stats::mean(&rss_samples);
    let victim_rss_std = sa_linalg::stats::std_dev(&rss_samples);
    // Tolerance: 3× the victim's own jitter, at least 3 dB — tighter
    // would false-flag the victim itself.
    let tol = (3.0 * victim_rss_std).max(3.0);
    let mut rss_det = RssDetector::new(tol, 0.2);
    rss_det.train(
        Testbed::client_mac(victim),
        RssPrint::single(victim_rss_mean),
    );

    // --- Attack from every other position ----------------------------
    let ap_pos = tb.nodes[0].ap.config().position;
    let victim_rx_pow = tb.rx_power_from(0, victim_pos);
    let frame = tb.client_frame(victim, 500);
    let mut trials = Vec::new();
    for other in tb.office.clients.clone() {
        if other.id == victim {
            continue;
        }
        let mut attacker = Attacker::new(
            other.position,
            AttackerGear::Directional {
                gain_dbi: 14.0,
                order: 4.0,
            },
            Testbed::client_mac(victim),
        );
        let own_pow = tb.rx_power_from(0, other.position);
        if own_pow <= 0.0 {
            continue;
        }
        // The directional pattern changes the effective radiated power;
        // account for boresight gain when power matching (the attacker
        // calibrates with its real antenna, so it would too).
        let antenna = attacker.antenna_toward(ap_pos);
        let boresight = antenna.power_gain(other.position.azimuth_to(ap_pos));
        attacker.match_rss(victim_rx_pow, own_pow * boresight);

        let buf = tb.capture(
            0,
            attacker.position,
            &antenna,
            attacker.tx_power,
            &frame,
            0.0,
            &mut rng,
        );
        let Ok(obs) = tb.nodes[0].ap.observe(&buf) else {
            continue;
        };
        let rss_verdict = rss_det.check(Testbed::client_mac(victim), &RssPrint::single(obs.rss_db));
        let aoa_score = profile_sig.compare(&obs.signature).score;
        trials.push(RssTrial {
            position_of: other.id,
            rss_error_db: (obs.rss_db - victim_rss_mean).abs(),
            rss_flagged: rss_verdict.is_mismatch(),
            aoa_score,
            aoa_flagged: aoa_score < aoa_threshold,
        });
    }

    let n = trials.len().max(1) as f64;
    RssBaselineResult {
        victim,
        victim_rss_std_db: victim_rss_std,
        rss_tolerance_db: tol,
        rss_miss_rate: trials.iter().filter(|t| !t.rss_flagged).count() as f64 / n,
        aoa_miss_rate: trials.iter().filter(|t| !t.aoa_flagged).count() as f64 / n,
        trials,
    }
}

/// Render E7.
pub fn render(r: &RssBaselineResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E7 — RSS signalprint vs SecureAngle under a power-matching directional attacker (victim: client {})\n",
        r.victim
    ));
    out.push_str(&format!(
        "victim RSS jitter: {:.2} dB; RSS tolerance: {:.2} dB\n",
        r.victim_rss_std_db, r.rss_tolerance_db
    ));
    out.push_str("attacker at | RSS err(dB) | RSS flags? | AoA score | AoA flags?\n");
    out.push_str("------------+-------------+------------+-----------+-----------\n");
    for t in &r.trials {
        out.push_str(&format!(
            "client {:4} | {:11.2} | {:^10} | {:9.3} | {:^9}\n",
            t.position_of,
            t.rss_error_db,
            if t.rss_flagged { "yes" } else { "NO" },
            t.aoa_score,
            if t.aoa_flagged { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "\nRSS miss rate: {:.1}%   AoA miss rate: {:.1}%   (paper: directional antennas subvert RSS; AoA holds)\n",
        100.0 * r.rss_miss_rate,
        100.0 * r.aoa_miss_rate
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_subverted_aoa_is_not() {
        let r = run(51, 5);
        assert!(r.trials.len() >= 15, "only {} trials", r.trials.len());
        // The headline comparison: the power-matching attacker slips
        // past RSS far more often than past the AoA signature.
        assert!(
            r.rss_miss_rate > r.aoa_miss_rate + 0.3,
            "RSS miss {:.2} vs AoA miss {:.2}",
            r.rss_miss_rate,
            r.aoa_miss_rate
        );
        assert!(
            r.aoa_miss_rate < 0.25,
            "AoA missed too many: {:.2}",
            r.aoa_miss_rate
        );
    }

    #[test]
    fn power_matching_actually_matches() {
        let r = run(53, 5);
        let median_err =
            sa_linalg::stats::median(&r.trials.iter().map(|t| t.rss_error_db).collect::<Vec<_>>());
        assert!(
            median_err < r.rss_tolerance_db,
            "median RSS error {:.2} dB exceeds tolerance {:.2}",
            median_err,
            r.rss_tolerance_db
        );
    }
}
