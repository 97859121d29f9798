//! Experiment E10 — mobility tracking (paper §5 future work,
//! implemented).
//!
//! A client walks a waypoint route through the office at ~1.3 m/s,
//! transmitting twice a second. Three APs localize each packet; an α–β
//! tracker smooths the fixes into a trace. We report raw-fix RMSE vs
//! tracked RMSE against the ground-truth path — the quantitative version
//! of "track the mobility trace with multiple APs".

use crate::sim::Testbed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::geom::{pt, Point};
use sa_channel::pattern::TxAntenna;
use secureangle::localize::{localize, BearingObservation};
use secureangle::tracking::MobilityTracker;
use serde::Serialize;

/// One sample along the walk.
#[derive(Debug, Clone, Serialize)]
pub struct MobilitySample {
    /// Time since the walk started, seconds.
    pub t_s: f64,
    /// Ground-truth position.
    pub truth: (f64, f64),
    /// Raw multilateration fix (None if localization failed).
    pub raw_fix: Option<(f64, f64)>,
    /// Tracked (smoothed) position.
    pub tracked: Option<(f64, f64)>,
}

/// The E10 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MobilityResult {
    /// Per-packet samples.
    pub samples: Vec<MobilitySample>,
    /// RMSE of the raw fixes, meters.
    pub raw_rmse_m: f64,
    /// RMSE of the tracked trace, meters.
    pub tracked_rmse_m: f64,
    /// Fraction of packets that produced a usable fix.
    pub fix_rate: f64,
}

/// The walked route: a loop through the AP's room and the corridor area.
pub fn route() -> Vec<Point> {
    vec![
        pt(10.0, 4.0),
        pt(18.0, 4.0),
        pt(20.5, 9.0),
        pt(16.0, 11.0),
        pt(10.5, 7.5),
        pt(10.0, 4.0),
    ]
}

/// Position along a waypoint route after walking `dist` meters.
fn position_at(route: &[Point], dist: f64) -> Point {
    let mut remaining = dist;
    for w in route.windows(2) {
        let seg_len = w[0].dist(w[1]);
        if remaining <= seg_len {
            let t = remaining / seg_len;
            return pt(
                w[0].x + t * (w[1].x - w[0].x),
                w[0].y + t * (w[1].y - w[0].y),
            );
        }
        remaining -= seg_len;
    }
    *route.last().expect("route has points")
}

/// Run E10: walk the route at `speed` m/s with a fix attempt every
/// `period_s` seconds.
pub fn run(seed: u64, speed: f64, period_s: f64) -> MobilityResult {
    let tb = Testbed::multi_ap(seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x30b1);
    let route = route();
    let total_len: f64 = route.windows(2).map(|w| w[0].dist(w[1])).sum();
    let n_steps = (total_len / (speed * period_s)).floor() as usize;

    let mut tracker = MobilityTracker::new();
    let mut samples = Vec::with_capacity(n_steps);
    let mut raw_sq = 0.0;
    let mut raw_n = 0usize;
    let mut trk_sq = 0.0;
    let mut trk_n = 0usize;

    for k in 0..n_steps {
        let t_s = k as f64 * period_s;
        let truth = position_at(&route, speed * t_s);
        let frame = tb.client_frame(1, k as u16);

        // Each AP measures a bearing for this packet.
        let mut bearings = Vec::new();
        for node in 0..tb.nodes.len() {
            let buf = tb.capture(node, truth, &TxAntenna::Omni, 1.0, &frame, t_s, &mut rng);
            if let Ok(obs) = tb.nodes[node].ap.observe(&buf) {
                if let Some(az) = obs.global_azimuth {
                    bearings.push(BearingObservation {
                        ap_position: tb.nodes[node].ap.config().position,
                        azimuth: az,
                    });
                }
            }
        }

        let raw_fix = localize(&bearings).ok().map(|f| f.position);
        let tracked = raw_fix.map(|f| tracker.update(f, period_s).position);

        if let Some(f) = raw_fix {
            raw_sq += f.dist(truth).powi(2);
            raw_n += 1;
        }
        if let Some(p) = tracked {
            trk_sq += p.dist(truth).powi(2);
            trk_n += 1;
        }
        samples.push(MobilitySample {
            t_s,
            truth: (truth.x, truth.y),
            raw_fix: raw_fix.map(|f| (f.x, f.y)),
            tracked: tracked.map(|p| (p.x, p.y)),
        });
    }

    MobilityResult {
        raw_rmse_m: (raw_sq / raw_n.max(1) as f64).sqrt(),
        tracked_rmse_m: (trk_sq / trk_n.max(1) as f64).sqrt(),
        fix_rate: raw_n as f64 / n_steps.max(1) as f64,
        samples,
    }
}

/// Render E10.
pub fn render(r: &MobilityResult) -> String {
    let mut out = String::new();
    out.push_str("E10 — mobility tracking (3 APs, walking client)\n");
    out.push_str(&format!(
        "packets: {}   fix rate: {:.0}%\nraw multilateration RMSE: {:.2} m\nalpha-beta tracked RMSE:  {:.2} m\n",
        r.samples.len(),
        100.0 * r.fix_rate,
        r.raw_rmse_m,
        r.tracked_rmse_m
    ));
    out.push_str("\n    t(s) | truth        | raw fix      | tracked\n");
    out.push_str("---------+--------------+--------------+-------------\n");
    for s in r.samples.iter().step_by((r.samples.len() / 12).max(1)) {
        let fmt = |p: &Option<(f64, f64)>| match p {
            Some((x, y)) => format!("({:5.1},{:5.1})", x, y),
            None => "    lost     ".to_string(),
        };
        out.push_str(&format!(
            "{:8.1} | ({:5.1},{:5.1}) | {} | {}\n",
            s.t_s,
            s.truth.0,
            s.truth.1,
            fmt(&s.raw_fix),
            fmt(&s.tracked)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_interpolation() {
        let r = vec![pt(0.0, 0.0), pt(10.0, 0.0), pt(10.0, 5.0)];
        assert!(position_at(&r, 0.0).dist(pt(0.0, 0.0)) < 1e-12);
        assert!(position_at(&r, 5.0).dist(pt(5.0, 0.0)) < 1e-12);
        assert!(position_at(&r, 12.0).dist(pt(10.0, 2.0)) < 1e-12);
        assert!(position_at(&r, 99.0).dist(pt(10.0, 5.0)) < 1e-12);
    }

    #[test]
    fn walking_client_is_tracked() {
        let r = run(81, 1.3, 1.0);
        assert!(r.samples.len() > 10);
        assert!(r.fix_rate > 0.8, "fix rate {:.2}", r.fix_rate);
        assert!(
            r.tracked_rmse_m < 2.5,
            "tracked RMSE {:.2} m",
            r.tracked_rmse_m
        );
        // Tracking should not be dramatically worse than raw fixes (it
        // lags a moving target slightly but suppresses outliers).
        assert!(
            r.tracked_rmse_m < r.raw_rmse_m * 1.5 + 0.5,
            "tracked {:.2} vs raw {:.2}",
            r.tracked_rmse_m,
            r.raw_rmse_m
        );
    }

    #[test]
    fn render_has_summary() {
        let r = run(83, 1.3, 2.0);
        let txt = render(&r);
        assert!(txt.contains("RMSE"));
        assert!(txt.contains("fix rate"));
    }
}
