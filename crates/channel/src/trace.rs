//! Image-method ray tracer: direct path plus first- and second-order
//! specular reflections.
//!
//! The multipath profile that makes the paper's AoA signatures unique —
//! "the combined direct path and reflection path AoAs form the unique
//! signature for each client" (§1) — is produced here. For every wall we
//! mirror the transmitter to an image source; a valid reflection exists
//! when the ray from the receiver to the image crosses the wall within
//! its extent. Second order repeats the construction through ordered
//! wall pairs. Each surviving path records:
//!
//! * arrival azimuth at the receiver (the AoA the array sees),
//! * departure azimuth at the transmitter (what a directional attacker
//!   antenna weights),
//! * propagation delay, and
//! * a complex gain: free-space spreading `λ/(4πd)`, reflection
//!   coefficients, wall through-losses, and carrier phase `e^{−j2πd/λ}`.

use crate::geom::{Point, Segment};
use crate::plan::FloorPlan;
use sa_linalg::complex::C64;

/// Classification of a propagation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Direct (possibly through walls) transmitter→receiver path.
    Direct,
    /// Specular reflection of the given order (1 or 2).
    Reflection(u8),
    /// Knife-edge diffraction around a wall corner. Activated only when
    /// the direct path is heavily obstructed; this is what lets the
    /// paper's pillar-blocked client 11 still show "a little bit smaller
    /// value close to the true angle" — energy bends around the pillar
    /// edge and arrives from just beside the true bearing.
    Diffracted,
}

/// One propagation path between a transmitter and a receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Arrival azimuth at the receiver (radians, global frame): the
    /// direction *from which* energy arrives.
    pub arrival_az: f64,
    /// Departure azimuth at the transmitter (radians, global frame).
    pub departure_az: f64,
    /// Total geometric length, meters.
    pub length: f64,
    /// Propagation delay, seconds.
    pub delay_s: f64,
    /// Complex amplitude gain (spreading × materials × carrier phase).
    pub gain: C64,
    /// Path class.
    pub kind: PathKind,
}

/// Ray-tracing configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Carrier wavelength, meters.
    pub wavelength: f64,
    /// Include second-order (double-bounce) reflections.
    pub second_order: bool,
    /// Include corner diffraction when the direct path is obstructed by
    /// more than [`TraceConfig::diffraction_gate_db`].
    pub diffraction: bool,
    /// Direct-path through-loss (dB) above which corner-diffracted
    /// paths are traced. Diffraction is negligible next to a clear LoS,
    /// so tracing it only for shadowed links keeps path lists tight.
    pub diffraction_gate_db: f64,
    /// Discard paths weaker than this many dB below the strongest
    /// (keeps the path list and the synthesis cost bounded).
    pub keep_rel_db: f64,
    /// Hard cap on the number of returned paths (strongest kept).
    pub max_paths: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            wavelength: sa_array::geometry::wavelength(sa_array::geometry::DEFAULT_CARRIER_HZ),
            second_order: true,
            diffraction: true,
            diffraction_gate_db: 8.0,
            // Paths more than ~26 dB below the strongest are below the
            // MUSIC noise floor at realistic packet SNRs and only blur
            // the subspace model; measured office channels concentrate
            // the energy in a handful of significant components.
            keep_rel_db: 26.0,
            max_paths: 10,
        }
    }
}

/// Speed of light (m/s), re-exported for delay arithmetic.
pub use sa_array::geometry::SPEED_OF_LIGHT;

/// Trace all propagation paths from `tx` to `rx` through `plan`.
///
/// Always returns at least the direct path (however attenuated), so a
/// fully-enclosed client still produces a signal — matching the paper's
/// client 11, "completely blocked by the pillar", which still yields a
/// bearing. Paths are sorted strongest-first.
pub fn trace_paths(plan: &FloorPlan, tx: Point, rx: Point, cfg: &TraceConfig) -> Vec<Path> {
    assert!(
        tx.dist(rx) > 1e-6,
        "trace_paths: transmitter and receiver coincide"
    );
    let mut paths = Vec::new();

    // --- Direct path ------------------------------------------------
    {
        let d = tx.dist(rx);
        let loss_db = plan.through_loss_db(tx, rx, &[]);
        let amp = spreading(d, cfg.wavelength) * db_amp(-loss_db);
        paths.push(Path {
            arrival_az: rx.azimuth_to(tx),
            departure_az: tx.azimuth_to(rx),
            length: d,
            delay_s: d / SPEED_OF_LIGHT,
            gain: C64::from_polar(amp, phase(d, cfg.wavelength)),
            kind: PathKind::Direct,
        });
    }

    // --- First-order reflections -------------------------------------
    let walls = plan.walls();
    for (wi, w) in walls.iter().enumerate() {
        if let Some(p) = reflection_point(&w.segment, tx, rx) {
            let d1 = tx.dist(p);
            let d2 = p.dist(rx);
            let d = d1 + d2;
            if d < 1e-6 {
                continue;
            }
            // Obstructions on both legs; the reflecting wall itself is
            // excluded (its effect is the reflection coefficient).
            let loss_db = plan.through_loss_db(tx, p, &[wi]) + plan.through_loss_db(p, rx, &[wi]);
            let amp = spreading(d, cfg.wavelength) * w.material.reflection * db_amp(-loss_db);
            paths.push(Path {
                arrival_az: rx.azimuth_to(p),
                departure_az: tx.azimuth_to(p),
                length: d,
                delay_s: d / SPEED_OF_LIGHT,
                gain: C64::from_polar(amp, phase(d, cfg.wavelength)),
                kind: PathKind::Reflection(1),
            });
        }
    }

    // --- Second-order reflections -------------------------------------
    if cfg.second_order {
        for (wi, w1) in walls.iter().enumerate() {
            let img1 = w1.segment.mirror(tx);
            for (wj, w2) in walls.iter().enumerate() {
                if wi == wj {
                    continue;
                }
                let img2 = w2.segment.mirror(img1);
                // Bounce points: last wall first (from the receiver side).
                let Some(p2) = reflection_point_img(&w2.segment, img2, rx) else {
                    continue;
                };
                let Some(p1) = reflection_point_img(&w1.segment, img1, p2) else {
                    continue;
                };
                // p1 must be illuminated from tx via w1: the segment
                // tx→p1 then p1→p2 then p2→rx is the physical path.
                let d = tx.dist(p1) + p1.dist(p2) + p2.dist(rx);
                if d < 1e-6 {
                    continue;
                }
                let loss_db = plan.through_loss_db(tx, p1, &[wi])
                    + plan.through_loss_db(p1, p2, &[wi, wj])
                    + plan.through_loss_db(p2, rx, &[wj]);
                let amp = spreading(d, cfg.wavelength)
                    * w1.material.reflection
                    * w2.material.reflection
                    * db_amp(-loss_db);
                paths.push(Path {
                    arrival_az: rx.azimuth_to(p2),
                    departure_az: tx.azimuth_to(p1),
                    length: d,
                    delay_s: d / SPEED_OF_LIGHT,
                    gain: C64::from_polar(amp, phase(d, cfg.wavelength)),
                    kind: PathKind::Reflection(2),
                });
            }
        }
    }

    // --- Corner diffraction (shadowed links only) ----------------------
    let direct_loss_db = plan.through_loss_db(tx, rx, &[]);
    if cfg.diffraction && direct_loss_db > cfg.diffraction_gate_db {
        for corner in unique_corners(plan) {
            let d1 = tx.dist(corner);
            let d2 = corner.dist(rx);
            if d1 < 1e-6 || d2 < 1e-6 {
                continue;
            }
            // Deviation from the straight line at the corner: 0 = the
            // corner lies on the LoS (maximal diffraction), growing as
            // the path bends further around it.
            let dir_in = tx.azimuth_to(corner);
            let dir_out = corner.azimuth_to(rx);
            let bend = wrap_angle(dir_out - dir_in).abs();
            // Empirical knife-edge-style loss: 6 dB at grazing incidence
            // plus 0.45 dB per degree of bend (matches the 12–25 dB the
            // Fresnel-parameter model gives for our pillar geometries; a
            // 90° bend is ~46 dB down — effectively gone).
            let diff_loss_db = 6.0 + 0.45 * bend.to_degrees();
            if diff_loss_db > cfg.keep_rel_db + 30.0 {
                continue;
            }
            let leg_loss_db =
                plan.through_loss_db(tx, corner, &[]) + plan.through_loss_db(corner, rx, &[]);
            let d = d1 + d2;
            let amp = spreading(d, cfg.wavelength) * db_amp(-(diff_loss_db + leg_loss_db));
            paths.push(Path {
                arrival_az: rx.azimuth_to(corner),
                departure_az: tx.azimuth_to(corner),
                length: d,
                delay_s: d / SPEED_OF_LIGHT,
                gain: C64::from_polar(amp, phase(d, cfg.wavelength)),
                kind: PathKind::Diffracted,
            });
        }
    }

    // --- Pruning -------------------------------------------------------
    paths.sort_by(|a, b| b.gain.norm_sqr().partial_cmp(&a.gain.norm_sqr()).unwrap());
    let best = paths[0].gain.norm_sqr().max(f64::MIN_POSITIVE);
    let floor = best * db_amp(-cfg.keep_rel_db).powi(2);
    // Always keep the direct path (index may move after sort).
    let direct = paths
        .iter()
        .position(|p| p.kind == PathKind::Direct)
        .expect("direct path always present");
    let mut kept: Vec<Path> = paths
        .iter()
        .enumerate()
        .filter(|&(i, p)| i == direct || p.gain.norm_sqr() >= floor)
        .map(|(_, p)| *p)
        .collect();
    kept.truncate(cfg.max_paths.max(1));
    kept
}

/// Free-space amplitude spreading factor `λ / (4πd)` (Friis, amplitude
/// domain), clamped at a quarter wavelength to avoid the near-field
/// singularity.
fn spreading(d: f64, wavelength: f64) -> f64 {
    wavelength / (4.0 * std::f64::consts::PI * d.max(wavelength / 4.0))
}

/// Carrier phase accumulated over distance `d` (negative: delay).
fn phase(d: f64, wavelength: f64) -> f64 {
    -2.0 * std::f64::consts::PI * d / wavelength
}

/// Convert dB to an amplitude factor.
fn db_amp(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Specular reflection point of tx→wall→rx, if the mirrored ray crosses
/// the wall segment and tx/rx are on the same side of the wall plane
/// (a same-side requirement: a "reflection" through the wall is really a
/// transmission and is handled by the direct path's through-loss).
fn reflection_point(wall: &Segment, tx: Point, rx: Point) -> Option<Point> {
    let side_tx = wall.side(tx);
    let side_rx = wall.side(rx);
    if side_tx * side_rx <= 0.0 {
        return None; // opposite sides or on the wall plane
    }
    let img = wall.mirror(tx);
    reflection_point_img(wall, img, rx)
}

/// Reflection point given a precomputed image source: the crossing of
/// segment `img→rx` with the wall, if inside the wall's extent.
fn reflection_point_img(wall: &Segment, img: Point, rx: Point) -> Option<Point> {
    let ray = Segment { a: rx, b: img };
    if ray.is_degenerate() {
        return None;
    }
    wall.intersect(&ray, false).map(|i| i.point)
}

/// All distinct wall endpoints (shared rectangle corners deduplicated).
fn unique_corners(plan: &FloorPlan) -> Vec<Point> {
    let mut corners: Vec<Point> = Vec::with_capacity(plan.len() * 2);
    for w in plan.walls() {
        for p in [w.segment.a, w.segment.b] {
            if !corners.iter().any(|c| c.dist(p) < 1e-9) {
                corners.push(p);
            }
        }
    }
    corners
}

/// Wrap an angle to `(−π, π]`.
fn wrap_angle(a: f64) -> f64 {
    let w = a.rem_euclid(2.0 * std::f64::consts::PI);
    if w > std::f64::consts::PI {
        w - 2.0 * std::f64::consts::PI
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{pt, seg, Rect};
    use crate::plan::{CONCRETE, DRYWALL, METAL};

    fn cfg() -> TraceConfig {
        TraceConfig::default()
    }

    #[test]
    fn free_space_single_direct_path() {
        let plan = FloorPlan::new();
        let paths = trace_paths(&plan, pt(3.0, 4.0), pt(0.0, 0.0), &cfg());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.kind, PathKind::Direct);
        assert!((p.length - 5.0).abs() < 1e-12);
        // Arrival at origin from (3,4): azimuth atan2(4,3).
        assert!((p.arrival_az - 4f64.atan2(3.0)).abs() < 1e-12);
        // Departure is the reverse direction.
        assert!(
            ((p.departure_az - (p.arrival_az - std::f64::consts::PI))
                .rem_euclid(2.0 * std::f64::consts::PI))
            .abs()
                < 1e-9
        );
    }

    /// Received power of a path relative to unit transmit power, dB.
    fn power_db(p: &Path) -> f64 {
        10.0 * p.gain.norm_sqr().log10()
    }

    #[test]
    fn friis_power_scaling() {
        let plan = FloorPlan::new();
        let p1 = power_db(&trace_paths(&plan, pt(2.0, 0.0), pt(0.0, 0.0), &cfg())[0]);
        let p2 = power_db(&trace_paths(&plan, pt(4.0, 0.0), pt(0.0, 0.0), &cfg())[0]);
        // Doubling distance costs 6 dB.
        assert!((p1 - p2 - 6.0206).abs() < 0.01, "Δ = {}", p1 - p2);
    }

    #[test]
    fn single_wall_produces_one_reflection() {
        let mut plan = FloorPlan::new();
        // Wall along y = 2, tx and rx below it.
        plan.add_wall(seg(pt(-10.0, 2.0), pt(10.0, 2.0)), METAL);
        let tx = pt(2.0, 0.0);
        let rx = pt(0.0, 0.0);
        let paths = trace_paths(&plan, tx, rx, &cfg());
        assert_eq!(paths.len(), 2, "paths: {:#?}", paths);
        let refl = paths
            .iter()
            .find(|p| p.kind == PathKind::Reflection(1))
            .unwrap();
        // Image of tx at (2, 4): path length |(2,4)−(0,0)| = √20.
        assert!((refl.length - 20f64.sqrt()).abs() < 1e-9);
        // Arrival azimuth from rx toward bounce point (1, 2).
        assert!((refl.arrival_az - 2f64.atan2(1.0)).abs() < 1e-9);
        // Reflection is weaker than the LoS path.
        assert!(power_db(refl) < power_db(&paths[0]));
    }

    #[test]
    fn reflection_respects_wall_extent() {
        let mut plan = FloorPlan::new();
        // Short wall far to the right: mirror crossing misses its extent.
        plan.add_wall(seg(pt(8.0, 2.0), pt(10.0, 2.0)), METAL);
        let paths = trace_paths(&plan, pt(2.0, 0.0), pt(0.0, 0.0), &cfg());
        assert_eq!(paths.len(), 1, "no reflection should exist");
    }

    #[test]
    fn wall_between_attenuates_direct() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(1.0, -5.0), pt(1.0, 5.0)), CONCRETE);
        let free = trace_paths(&FloorPlan::new(), pt(2.0, 0.0), pt(0.0, 0.0), &cfg());
        let blocked = trace_paths(&plan, pt(2.0, 0.0), pt(0.0, 0.0), &cfg());
        let d_free = power_db(&free[0]);
        let d_blk = power_db(blocked.iter().find(|p| p.kind == PathKind::Direct).unwrap());
        assert!(
            (d_free - d_blk - CONCRETE.transmission_db).abs() < 1e-6,
            "loss {} expected {}",
            d_free - d_blk,
            CONCRETE.transmission_db
        );
    }

    #[test]
    fn opposite_side_reflection_suppressed() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(-10.0, 1.0), pt(10.0, 1.0)), METAL);
        // tx above the wall, rx below: transmission, not reflection.
        let paths = trace_paths(&plan, pt(0.0, 2.0), pt(0.0, 0.0), &cfg());
        assert!(
            paths.iter().all(|p| p.kind == PathKind::Direct),
            "paths: {:#?}",
            paths
        );
    }

    #[test]
    fn box_room_yields_second_order() {
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(-5.0, -5.0, 5.0, 5.0), CONCRETE);
        let paths = trace_paths(&plan, pt(2.0, 1.0), pt(-2.0, -1.0), &cfg());
        let n1 = paths
            .iter()
            .filter(|p| p.kind == PathKind::Reflection(1))
            .count();
        let n2 = paths
            .iter()
            .filter(|p| p.kind == PathKind::Reflection(2))
            .count();
        assert!(n1 >= 3, "first-order count {}", n1);
        assert!(n2 >= 1, "second-order count {}", n2);
        // Direct is the strongest (shortest, no reflection loss).
        assert_eq!(paths[0].kind, PathKind::Direct);
        // All delays consistent with their lengths.
        for p in &paths {
            assert!((p.delay_s * SPEED_OF_LIGHT - p.length).abs() < 1e-9);
        }
    }

    #[test]
    fn second_order_can_be_disabled() {
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(-5.0, -5.0, 5.0, 5.0), CONCRETE);
        let cfg1 = TraceConfig {
            second_order: false,
            ..cfg()
        };
        let paths = trace_paths(&plan, pt(2.0, 1.0), pt(-2.0, -1.0), &cfg1);
        assert!(paths.iter().all(|p| p.kind != PathKind::Reflection(2)));
    }

    #[test]
    fn pruning_keeps_direct_even_when_weak() {
        let mut plan = FloorPlan::new();
        // Heavy concrete box around the tx: direct path −64 dB from
        // walls, a strong outside metal reflector gives a louder bounce.
        plan.add_rect(Rect::new(1.5, -0.5, 2.5, 0.5), CONCRETE);
        plan.add_wall(seg(pt(-10.0, 3.0), pt(10.0, 3.0)), METAL);
        let cfg1 = TraceConfig {
            keep_rel_db: 10.0,
            ..cfg()
        };
        let paths = trace_paths(&plan, pt(2.0, 0.0), pt(0.0, 0.0), &cfg1);
        assert!(
            paths.iter().any(|p| p.kind == PathKind::Direct),
            "direct must survive pruning: {:#?}",
            paths
        );
    }

    #[test]
    fn max_paths_cap_respected() {
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(-6.0, -6.0, 6.0, 6.0), METAL);
        plan.add_rect(Rect::new(-4.0, -4.0, 4.0, 4.0), DRYWALL);
        let cfg1 = TraceConfig {
            max_paths: 5,
            keep_rel_db: 120.0,
            ..cfg()
        };
        let paths = trace_paths(&plan, pt(1.0, 2.0), pt(-1.0, -2.0), &cfg1);
        assert!(paths.len() <= 5);
    }

    #[test]
    fn delay_ordering_matches_length_ordering() {
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(-5.0, -5.0, 5.0, 5.0), CONCRETE);
        let paths = trace_paths(&plan, pt(3.0, 2.0), pt(-3.0, -2.0), &cfg());
        let direct = paths.iter().find(|p| p.kind == PathKind::Direct).unwrap();
        for p in &paths {
            if p.kind != PathKind::Direct {
                assert!(p.length > direct.length, "reflection shorter than LoS?");
            }
        }
    }

    #[test]
    #[should_panic(expected = "coincide")]
    fn coincident_endpoints_panic() {
        let plan = FloorPlan::new();
        let _ = trace_paths(&plan, pt(1.0, 1.0), pt(1.0, 1.0), &cfg());
    }

    #[test]
    fn blocked_link_gets_diffracted_paths_near_the_edge() {
        // An opaque metal slab between tx and rx, its free corner at
        // (0, 0.5) — only a shallow bend is needed to round it.
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(0.0, -8.0), pt(0.0, 0.5)), METAL);
        let tx = pt(3.0, 0.0);
        let rx = pt(-3.0, 0.0);
        let paths = trace_paths(&plan, tx, rx, &cfg());
        let diff: Vec<_> = paths
            .iter()
            .filter(|p| p.kind == PathKind::Diffracted)
            .collect();
        assert!(!diff.is_empty(), "expected diffraction: {:#?}", paths);
        // The diffracted arrival comes from the slab's free corner
        // (0, 0.5): azimuth from rx = atan2(0.5, 3).
        let want = (0.5f64).atan2(3.0);
        assert!(
            diff.iter().any(|p| (p.arrival_az - want).abs() < 1e-9),
            "no arrival from the corner: {:#?}",
            diff
        );
        // Diffracted (≈8 + 0.6·19 ≈ 19 dB) beats the through-metal
        // direct (30 dB).
        let direct = paths.iter().find(|p| p.kind == PathKind::Direct).unwrap();
        let best_diff = diff.iter().map(|p| p.gain.abs()).fold(0.0f64, f64::max);
        assert!(
            best_diff > direct.gain.abs(),
            "diffraction should dominate a blocked LoS"
        );
    }

    #[test]
    fn clear_link_traces_no_diffraction() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(0.0, 5.0), pt(5.0, 5.0)), CONCRETE);
        let paths = trace_paths(&plan, pt(3.0, 0.0), pt(-3.0, 0.0), &cfg());
        assert!(
            paths.iter().all(|p| p.kind != PathKind::Diffracted),
            "no diffraction expected on a clear LoS"
        );
    }

    #[test]
    fn diffraction_can_be_disabled() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(0.0, -8.0), pt(0.0, 2.0)), CONCRETE);
        let cfg1 = TraceConfig {
            diffraction: false,
            ..cfg()
        };
        let paths = trace_paths(&plan, pt(3.0, 0.0), pt(-3.0, 0.0), &cfg1);
        assert!(paths.iter().all(|p| p.kind != PathKind::Diffracted));
    }

    #[test]
    fn larger_bend_means_weaker_diffraction() {
        // Two receivers behind the same slab, one requiring a sharper
        // bend around the corner at (0, 0.5).
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(0.0, -8.0), pt(0.0, 0.5)), METAL);
        let tx = pt(3.0, 0.0);
        let shallow = trace_paths(&plan, tx, pt(-6.0, 1.0), &cfg());
        let sharp = trace_paths(&plan, tx, pt(-3.0, -1.5), &cfg());
        let best = |ps: &[Path]| {
            ps.iter()
                .filter(|p| p.kind == PathKind::Diffracted)
                .map(|p| {
                    // Normalise out the spreading so only the bend loss
                    // is compared.
                    p.gain.abs() * p.length
                })
                .fold(0.0f64, f64::max)
        };
        let (a, b) = (best(&shallow), best(&sharp));
        assert!(a > 0.0 && b > 0.0, "both should diffract");
        assert!(a > b, "shallow bend {} should beat sharp bend {}", a, b);
    }
}
