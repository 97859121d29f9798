//! Floor plans: walls with materials.
//!
//! The simulated counterpart of the paper's office testbed (Fig 4): a
//! set of wall segments, each with a reflection coefficient (how much
//! field amplitude a specular bounce keeps) and a transmission loss (how
//! many dB a path crossing the wall loses). The large cement pillar that
//! blocks clients 11 and 12 in the paper is four concrete segments.

use crate::geom::{Point, Rect, Segment};

/// Electromagnetic surface properties of a wall at 2.4 GHz.
///
/// `reflection` is an *effective specular* amplitude coefficient: it
/// folds in the diffuse-scattering loss of rough office surfaces, so it
/// is lower than the ideal Fresnel value for the material. (An ideally
/// smooth concrete slab reflects ~0.6 of the field amplitude, but a real
/// painted office wall scatters much of that energy out of the specular
/// direction; measured specular components are typically 6–10 dB below
/// the Fresnel prediction.) The experiments only rely on the *ordering*
/// (metal > concrete > drywall > glass) and rough magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Effective specular amplitude reflection coefficient in `[0, 1]`.
    pub reflection: f64,
    /// Through-transmission loss, dB (positive number).
    pub transmission_db: f64,
    /// Display name for diagnostics.
    pub name: &'static str,
}

/// Interior drywall / plasterboard partition.
pub const DRYWALL: Material = Material {
    reflection: 0.22,
    transmission_db: 4.0,
    name: "drywall",
};

/// Structural concrete (the paper's pillar and exterior walls).
pub const CONCRETE: Material = Material {
    reflection: 0.40,
    transmission_db: 16.0,
    name: "concrete",
};

/// Glass (windows).
pub const GLASS: Material = Material {
    reflection: 0.18,
    transmission_db: 2.5,
    name: "glass",
};

/// Metal (whiteboards, cabinets, elevator doors) — strong reflector
/// even after roughness/edge losses, near-opaque.
pub const METAL: Material = Material {
    reflection: 0.80,
    transmission_db: 30.0,
    name: "metal",
};

/// One wall: a segment plus its material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Geometry.
    pub segment: Segment,
    /// Surface properties.
    pub material: Material,
}

/// A floor plan: the wall set the ray tracer works against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloorPlan {
    walls: Vec<Wall>,
}

impl FloorPlan {
    /// Empty plan (free space).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one wall. Degenerate (zero-length) segments are rejected.
    pub fn add_wall(&mut self, segment: Segment, material: Material) -> &mut Self {
        assert!(!segment.is_degenerate(), "add_wall: degenerate segment");
        self.walls.push(Wall { segment, material });
        self
    }

    /// Add the four edges of a rectangle (a room outline or a solid
    /// obstacle such as the paper's pillar).
    pub fn add_rect(&mut self, rect: Rect, material: Material) -> &mut Self {
        for e in rect.edges() {
            self.add_wall(e, material);
        }
        self
    }

    /// The walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Number of walls.
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// True if the plan has no walls.
    pub fn is_empty(&self) -> bool {
        self.walls.is_empty()
    }

    /// Total through-loss (dB) accumulated by a straight path from `a`
    /// to `b`, excluding walls whose indices appear in `exclude`
    /// (used by the ray tracer to avoid counting the reflecting wall as
    /// an obstruction of its own bounce).
    pub fn through_loss_db(&self, a: Point, b: Point, exclude: &[usize]) -> f64 {
        let path = Segment { a, b };
        if path.is_degenerate() {
            return 0.0;
        }
        let mut loss = 0.0;
        for (i, w) in self.walls.iter().enumerate() {
            if exclude.contains(&i) {
                continue;
            }
            if path.intersect(&w.segment, false).is_some() {
                loss += w.material.transmission_db;
            }
        }
        loss
    }

    /// True if the straight path from `a` to `b` crosses no wall at all
    /// (unobstructed line of sight).
    pub fn has_clear_los(&self, a: Point, b: Point) -> bool {
        self.through_loss_db(a, b, &[]) == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{pt, seg};

    #[test]
    fn empty_plan_is_free_space() {
        let plan = FloorPlan::new();
        assert!(plan.is_empty());
        assert!(plan.has_clear_los(pt(0.0, 0.0), pt(10.0, 10.0)));
        assert_eq!(plan.through_loss_db(pt(0.0, 0.0), pt(10.0, 0.0), &[]), 0.0);
    }

    #[test]
    fn single_wall_attenuates_crossing_path() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(5.0, -5.0), pt(5.0, 5.0)), DRYWALL);
        let loss = plan.through_loss_db(pt(0.0, 0.0), pt(10.0, 0.0), &[]);
        assert!((loss - DRYWALL.transmission_db).abs() < 1e-12);
        assert!(!plan.has_clear_los(pt(0.0, 0.0), pt(10.0, 0.0)));
        // A path on one side does not cross.
        assert!(plan.has_clear_los(pt(0.0, 0.0), pt(4.0, 0.0)));
    }

    #[test]
    fn multiple_walls_accumulate() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(2.0, -5.0), pt(2.0, 5.0)), DRYWALL);
        plan.add_wall(seg(pt(4.0, -5.0), pt(4.0, 5.0)), CONCRETE);
        let loss = plan.through_loss_db(pt(0.0, 0.0), pt(6.0, 0.0), &[]);
        assert!((loss - (DRYWALL.transmission_db + CONCRETE.transmission_db)).abs() < 1e-12);
    }

    #[test]
    fn exclusion_skips_named_walls() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(2.0, -5.0), pt(2.0, 5.0)), CONCRETE);
        let loss = plan.through_loss_db(pt(0.0, 0.0), pt(6.0, 0.0), &[0]);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn rect_adds_four_walls() {
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(0.0, 0.0, 2.0, 1.0), CONCRETE);
        assert_eq!(plan.len(), 4);
        // A path through the rectangle crosses two of them.
        let loss = plan.through_loss_db(pt(-1.0, 0.5), pt(3.0, 0.5), &[]);
        assert!((loss - 2.0 * CONCRETE.transmission_db).abs() < 1e-12);
    }

    #[test]
    fn parallel_touch_does_not_count() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(0.0, 0.0), pt(10.0, 0.0)), METAL);
        // Path collinear with the wall: parallel ⇒ no crossing.
        assert!(plan.has_clear_los(pt(0.0, 0.0), pt(10.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_wall_rejected() {
        let mut plan = FloorPlan::new();
        plan.add_wall(seg(pt(1.0, 1.0), pt(1.0, 1.0)), DRYWALL);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberately checks the catalogue constants
    fn material_catalogue_sane() {
        for m in [DRYWALL, CONCRETE, GLASS, METAL] {
            assert!((0.0..=1.0).contains(&m.reflection), "{}", m.name);
            assert!(m.transmission_db >= 0.0);
        }
        assert!(CONCRETE.transmission_db > DRYWALL.transmission_db);
        assert!(METAL.reflection > CONCRETE.reflection);
    }
}
