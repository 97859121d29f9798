//! Experiment E5 — address-spoofing detection (§2.3.2).
//!
//! "The experimental hypothesis being that there is a significant
//! difference between `S_cl` and an attacker's signature, so that they
//! can be discriminated from each other." This experiment quantifies
//! that hypothesis: train a signature per victim, measure match-score
//! distributions for (a) the victim's own later frames and (b) frames
//! injected by attackers at other positions with each equipment class of
//! the §1 threat model, then compute the ROC and equal-error rate.

use crate::sim::{ApArray, Testbed};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::pattern::TxAntenna;
use secureangle::attacker::{Attacker, AttackerGear};
use serde::Serialize;

/// Score samples for one attacker-gear class.
#[derive(Debug, Clone, Serialize)]
pub struct GearScores {
    /// Gear label.
    pub gear: String,
    /// Match scores of attack frames against the victim profile.
    pub scores: Vec<f64>,
    /// Detection rate at the default threshold.
    pub detection_rate: f64,
}

/// The E5 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct SpoofingResult {
    /// Scores of legitimate re-measurements against their own profiles.
    pub legit_scores: Vec<f64>,
    /// Per-gear attack scores.
    pub attacks: Vec<GearScores>,
    /// The detector threshold used for the detection/false-alarm rates.
    pub threshold: f64,
    /// False-alarm rate on legitimate frames at the threshold.
    pub false_alarm_rate: f64,
    /// Equal-error rate over all attack classes pooled.
    pub equal_error_rate: f64,
    /// Threshold achieving the EER.
    pub eer_threshold: f64,
}

/// Run E5.
///
/// * `victims` — client ids to train and attack (each victim is attacked
///   from every *other* client position);
/// * `legit_packets` — per-victim legitimate re-measurements.
pub fn run(seed: u64, victims: &[usize], legit_packets: usize) -> SpoofingResult {
    let tb = Testbed::single_ap(ApArray::Circular, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5b00f);
    let threshold = secureangle::spoof::SPOOF_THRESHOLD;

    let gears = [
        ("omni", AttackerGear::Omni),
        (
            "directional 14 dBi",
            AttackerGear::Directional {
                gain_dbi: 14.0,
                order: 4.0,
            },
        ),
        ("8-element array", AttackerGear::Array { n_elements: 8 }),
    ];

    let mut legit_scores = Vec::new();
    let mut attack_scores: Vec<Vec<f64>> = vec![Vec::new(); gears.len()];

    for &victim in victims {
        // Train the profile from one authentication-time packet.
        let buf = tb.client_capture(0, victim, 0, 0.0, &mut rng);
        let train_obs = tb.nodes[0].ap.observe(&buf).expect("training capture");
        let profile = train_obs.signature.clone();

        // Legitimate re-measurements, spread over a session with
        // environment churn (same cadence as the Fig-5 campaign) — the
        // matcher must tolerate exactly this drift.
        for p in 0..legit_packets {
            let dt_s = 15.0 * (1 + p) as f64;
            let buf = tb.client_capture(0, victim, 1 + p as u16, dt_s, &mut rng);
            if let Ok(obs) = tb.nodes[0].ap.observe(&buf) {
                legit_scores.push(profile.compare(&obs.signature).score);
            }
        }

        // Attacks from every other client position, with each gear.
        let frame = tb.client_frame(victim, 999); // spoofed source MAC
        let ap_pos = tb.nodes[0].ap.config().position;
        for other in tb.office.clients.clone() {
            if other.id == victim {
                continue;
            }
            for (gi, (_, gear)) in gears.iter().enumerate() {
                let mut attacker =
                    Attacker::new(other.position, *gear, Testbed::client_mac(victim));
                // Power-match the victim so RSS cannot give the attacker
                // away — isolates the AoA signature's contribution.
                let victim_pow = tb.rx_power_from(0, tb.office.client(victim).position);
                let own_pow = tb.rx_power_from(0, other.position);
                if own_pow > 0.0 {
                    attacker.match_rss(victim_pow, own_pow);
                }
                let antenna = match gear {
                    AttackerGear::Omni => TxAntenna::Omni,
                    _ => attacker.antenna_toward(ap_pos),
                };
                // The injection happens some minutes after training.
                let buf = tb.capture(
                    0,
                    attacker.position,
                    &antenna,
                    attacker.tx_power,
                    &frame,
                    120.0,
                    &mut rng,
                );
                if let Ok(obs) = tb.nodes[0].ap.observe(&buf) {
                    attack_scores[gi].push(profile.compare(&obs.signature).score);
                }
            }
        }
    }

    let false_alarm_rate = legit_scores.iter().filter(|&&s| s < threshold).count() as f64
        / legit_scores.len().max(1) as f64;
    let attacks: Vec<GearScores> = gears
        .iter()
        .zip(attack_scores.iter())
        .map(|((name, _), scores)| GearScores {
            gear: name.to_string(),
            detection_rate: scores.iter().filter(|&&s| s < threshold).count() as f64
                / scores.len().max(1) as f64,
            scores: scores.clone(),
        })
        .collect();

    let pooled: Vec<f64> = attack_scores.iter().flatten().copied().collect();
    let (eer, eer_thr) = equal_error_rate(&legit_scores, &pooled);

    SpoofingResult {
        legit_scores,
        attacks,
        threshold,
        false_alarm_rate,
        equal_error_rate: eer,
        eer_threshold: eer_thr,
    }
}

/// Equal-error rate: the operating point where the false-alarm rate on
/// legitimate scores equals the miss rate on attack scores. Returns
/// `(rate, threshold)`.
pub fn equal_error_rate(legit: &[f64], attack: &[f64]) -> (f64, f64) {
    if legit.is_empty() || attack.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut candidates: Vec<f64> = legit.iter().chain(attack.iter()).copied().collect();
    candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut best = (f64::INFINITY, 0.0, 0.0); // |fa − miss|, rate, thr
    for &thr in &candidates {
        let fa = legit.iter().filter(|&&s| s < thr).count() as f64 / legit.len() as f64;
        let miss = attack.iter().filter(|&&s| s >= thr).count() as f64 / attack.len() as f64;
        let gap = (fa - miss).abs();
        if gap < best.0 {
            best = (gap, (fa + miss) / 2.0, thr);
        }
    }
    (best.1, best.2)
}

/// Render E5 as a summary table.
pub fn render(r: &SpoofingResult) -> String {
    let mut out = String::new();
    out.push_str("E5 — address-spoofing detection (signature match scores)\n");
    let lm = sa_linalg::stats::mean(&r.legit_scores);
    out.push_str(&format!(
        "legitimate frames: n = {}, mean score {:.3}, false-alarm rate {:.1}% @ thr {:.2}\n",
        r.legit_scores.len(),
        lm,
        100.0 * r.false_alarm_rate,
        r.threshold
    ));
    out.push_str("attacker gear      | n    | mean score | detection rate\n");
    out.push_str("-------------------+------+------------+---------------\n");
    for g in &r.attacks {
        out.push_str(&format!(
            "{:<19}| {:4} | {:10.3} | {:12.1}%\n",
            g.gear,
            g.scores.len(),
            sa_linalg::stats::mean(&g.scores),
            100.0 * g.detection_rate
        ));
    }
    out.push_str(&format!(
        "pooled equal-error rate: {:.1}% at threshold {:.3}\n",
        100.0 * r.equal_error_rate,
        r.eer_threshold
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eer_of_separable_distributions_is_zero() {
        let legit = vec![0.9, 0.95, 0.85];
        let attack = vec![0.1, 0.2, 0.3];
        let (eer, thr) = equal_error_rate(&legit, &attack);
        assert!(eer < 0.01, "eer {}", eer);
        assert!(thr > 0.3 && thr < 0.9);
    }

    #[test]
    fn eer_of_identical_distributions_is_half() {
        let xs = vec![0.5, 0.6, 0.7, 0.8];
        let (eer, _) = equal_error_rate(&xs, &xs);
        assert!((eer - 0.5).abs() < 0.15, "eer {}", eer);
    }

    #[test]
    fn small_run_discriminates() {
        // Two victims, few packets — the shape must already be visible:
        // legit scores above attack scores on average, detection over
        // 60%, false alarms modest.
        let r = run(31, &[5, 9], 4);
        assert!(!r.legit_scores.is_empty());
        let lm = sa_linalg::stats::mean(&r.legit_scores);
        for g in &r.attacks {
            assert!(!g.scores.is_empty());
            let am = sa_linalg::stats::mean(&g.scores);
            assert!(
                lm > am + 0.1,
                "{}: legit {:.3} vs attack {:.3}",
                g.gear,
                lm,
                am
            );
            assert!(
                g.detection_rate > 0.6,
                "{}: detection {:.2}",
                g.gear,
                g.detection_rate
            );
        }
        assert!(
            r.false_alarm_rate < 0.4,
            "false alarms {:.2}",
            r.false_alarm_rate
        );
        assert!(r.equal_error_rate < 0.3, "EER {:.2}", r.equal_error_rate);
    }
}
