//! Client mobility tracking (paper §5 future work).
//!
//! "We also plan to test our applications with client mobility and track
//! the mobility trace with multiple APs." Multi-AP bearing fixes arrive
//! a few per second with metre-level scatter; an α–β tracker (the
//! fixed-gain steady-state Kalman filter for constant-velocity targets)
//! smooths them into a trace and predicts through missed fixes. Chosen
//! over a full Kalman filter deliberately: fixed gains have no
//! covariance bookkeeping to tune or to go inconsistent, which suits the
//! fence's fail-closed philosophy — the tracker only ever *smooths*,
//! decisions still come from measurements.

use sa_channel::geom::{pt, Point};

/// Position gain α ∈ (0, 1]: how much of each fix's innovation is
/// absorbed.
const ALPHA: f64 = 0.5;
/// Velocity gain β ∈ (0, α]: how fast velocity follows.
const BETA: f64 = 0.2;
/// Maximum believable speed, m/s — brisk indoor walking, with margin;
/// innovations implying more are treated as outlier fixes (a
/// false-positive AoA intersection) and only lightly absorbed.
const MAX_SPEED: f64 = 3.0;

const _: () = assert!(0.0 < ALPHA && ALPHA <= 1.0 && 0.0 < BETA && BETA <= ALPHA);

/// One smoothed track point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    /// Smoothed position.
    pub position: Point,
    /// Velocity estimate, m/s per axis.
    pub velocity: (f64, f64),
    /// True if the innovation was clamped as an outlier.
    pub outlier: bool,
}

/// An α–β tracker over localization fixes.
#[derive(Debug, Clone, Default)]
pub struct MobilityTracker {
    state: Option<TrackPoint>,
}

impl MobilityTracker {
    /// New tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state, if any fix has been absorbed.
    pub fn state(&self) -> Option<&TrackPoint> {
        self.state.as_ref()
    }

    /// Predict the position `dt` seconds ahead of the last update.
    pub fn predict(&self, dt: f64) -> Option<Point> {
        self.state.as_ref().map(|s| {
            pt(
                s.position.x + s.velocity.0 * dt,
                s.position.y + s.velocity.1 * dt,
            )
        })
    }

    /// Absorb a fix taken `dt` seconds after the previous one.
    /// The first fix initialises the track at zero velocity.
    ///
    /// `dt` is clamped at zero: multi-AP observation windows can close
    /// out of order, so a fix may carry the same (or an earlier)
    /// timestamp as the previous one. Such a fix is absorbed as a
    /// **position-only** update — no prediction, no velocity change —
    /// with the innovation clamped to the static ±1 m envelope, instead
    /// of panicking or letting `β·i/dt` blow the velocity up.
    pub fn update(&mut self, fix: Point, dt: f64) -> TrackPoint {
        let dt = dt.max(0.0);
        let next = match &self.state {
            None => TrackPoint {
                position: fix,
                velocity: (0.0, 0.0),
                outlier: false,
            },
            Some(s) => {
                // Predict (a no-op when dt == 0).
                let px = s.position.x + s.velocity.0 * dt;
                let py = s.position.y + s.velocity.1 * dt;
                // Innovation, with outlier clamping: a fix implying an
                // impossible jump is shrunk to the max-speed envelope.
                let mut ix = fix.x - px;
                let mut iy = fix.y - py;
                let jump = ix.hypot(iy);
                let limit = MAX_SPEED * dt + 1.0;
                let outlier = jump > limit;
                if outlier {
                    let scale = limit / jump;
                    ix *= scale;
                    iy *= scale;
                }
                let velocity = if dt > 0.0 {
                    (s.velocity.0 + BETA * ix / dt, s.velocity.1 + BETA * iy / dt)
                } else {
                    s.velocity
                };
                TrackPoint {
                    position: pt(px + ALPHA * ix, py + ALPHA * iy),
                    velocity,
                    outlier,
                }
            }
        };
        self.state = Some(next);
        next
    }

    /// Reset the track (client deauthenticated / lost).
    pub fn reset(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fix_initialises() {
        let mut t = MobilityTracker::new();
        assert!(t.state().is_none());
        let s = t.update(pt(3.0, 4.0), 0.0);
        assert_eq!(s.position, pt(3.0, 4.0));
        assert_eq!(s.velocity, (0.0, 0.0));
        assert!(!s.outlier);
    }

    #[test]
    fn converges_to_stationary_target_under_noise() {
        let mut t = MobilityTracker::new();
        let target = pt(5.0, 5.0);
        // Deterministic "noise" pattern around the target.
        let offsets = [0.4, -0.3, 0.2, -0.4, 0.3, -0.2, 0.1, -0.1];
        let mut last = t.update(target, 0.0);
        for (i, &o) in offsets.iter().cycle().take(64).enumerate() {
            let fix = pt(target.x + o, target.y - o * 0.5);
            last = t.update(fix, 0.5 + (i % 2) as f64 * 0.0);
        }
        assert!(
            last.position.dist(target) < 0.4,
            "converged to {:?}",
            last.position
        );
        assert!(last.velocity.0.abs() < 0.5 && last.velocity.1.abs() < 0.5);
    }

    #[test]
    fn follows_constant_velocity_and_predicts() {
        let mut t = MobilityTracker::new();
        // Walk +x at 1 m/s, one fix per second.
        for k in 0..30 {
            t.update(pt(k as f64, 2.0), 1.0);
        }
        let s = *t.state().unwrap();
        assert!((s.velocity.0 - 1.0).abs() < 0.15, "vx {}", s.velocity.0);
        assert!(s.velocity.1.abs() < 0.1);
        let p = t.predict(2.0).unwrap();
        assert!((p.x - 31.0).abs() < 0.7, "predicted x {}", p.x);
    }

    #[test]
    fn outlier_fix_is_clamped() {
        let mut t = MobilityTracker::new();
        t.update(pt(0.0, 0.0), 0.0);
        t.update(pt(0.2, 0.0), 1.0);
        // A bogus fix 40 m away, 0.5 s later: cannot be real motion.
        let s = t.update(pt(40.0, 0.0), 0.5);
        assert!(s.outlier);
        assert!(
            s.position.x < 3.0,
            "outlier dragged the track to x = {}",
            s.position.x
        );
    }

    #[test]
    fn zero_dt_fix_is_position_only() {
        // Two APs' windows can close simultaneously: the second fix
        // arrives with dt == 0 and must not panic, spike the velocity,
        // or trip the outlier gate for a nearby fix.
        let mut t = MobilityTracker::new();
        t.update(pt(0.0, 0.0), 0.0);
        t.update(pt(1.0, 0.0), 1.0);
        let v_before = t.state().unwrap().velocity;
        let s = t.update(pt(1.3, 0.1), 0.0);
        assert!(!s.outlier, "near fix at dt=0 flagged as outlier");
        assert_eq!(s.velocity, v_before, "dt=0 must not touch velocity");
        // Blended toward the fix from the current track position.
        assert!(s.position.x > 0.5 && s.position.x < 1.3);
        assert!(s.position.x.is_finite() && s.velocity.0.is_finite());
    }

    #[test]
    fn negative_dt_is_clamped_to_position_only() {
        // An out-of-order window (earlier timestamp than the last fix)
        // behaves exactly like dt == 0.
        let mut t = MobilityTracker::new();
        t.update(pt(0.0, 0.0), 0.0);
        t.update(pt(1.0, 0.0), 1.0);
        let v_before = t.state().unwrap().velocity;
        let s = t.update(pt(1.2, 0.0), -0.5);
        assert_eq!(s.velocity, v_before);
        assert!(s.position.x.is_finite() && s.position.y.is_finite());
        // A far fix at dt <= 0 is still outlier-clamped to the static
        // envelope rather than dragging the track.
        let s = t.update(pt(40.0, 0.0), 0.0);
        assert!(s.outlier);
        assert!(
            s.position.x < 3.0,
            "outlier dragged track to {}",
            s.position.x
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut t = MobilityTracker::new();
        t.update(pt(1.0, 1.0), 0.0);
        t.reset();
        assert!(t.state().is_none());
        assert!(t.predict(1.0).is_none());
    }
}
