//! 2-D geometry primitives for the indoor propagation model.
//!
//! The evaluation floor plan (paper Fig 4) is two-dimensional — the
//! paper's bearings are azimuth-only — so points, segments, mirror
//! images (for the image-method ray tracer) and segment intersections
//! are all we need.

/// A point (or vector) in the plan, meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// x coordinate, meters.
    pub x: f64,
    /// y coordinate, meters.
    pub y: f64,
}

/// Shorthand constructor.
pub const fn pt(x: f64, y: f64) -> Point {
    Point { x, y }
}

impl Point {
    /// Euclidean distance to another point.
    pub fn dist(&self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Azimuth (radians, CCW from +x) of the direction from `self`
    /// toward `other`.
    pub fn azimuth_to(&self, other: Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// Component-wise subtraction as a vector.
    pub fn sub(&self, other: Point) -> Point {
        pt(self.x - other.x, self.y - other.y)
    }

    /// Dot product, treating points as vectors.
    pub fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component).
    pub fn cross(&self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

/// Shorthand constructor.
pub const fn seg(a: Point, b: Point) -> Segment {
    Segment { a, b }
}

/// Result of a proper segment–segment intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Intersection {
    /// The intersection point.
    pub point: Point,
    /// Parameter along the first segment, `0..=1`.
    pub t: f64,
    /// Parameter along the second segment, `0..=1`.
    pub u: f64,
}

impl Segment {
    /// Segment length.
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// True for zero-length (degenerate) segments.
    pub fn is_degenerate(&self) -> bool {
        self.len() < 1e-12
    }

    /// Mirror a point across the infinite line through this segment —
    /// the image-source construction of the ray tracer.
    pub fn mirror(&self, p: Point) -> Point {
        let d = self.b.sub(self.a);
        let len2 = d.dot(d);
        debug_assert!(len2 > 1e-24, "mirror across degenerate segment");
        let ap = p.sub(self.a);
        let t = ap.dot(d) / len2;
        let foot = pt(self.a.x + t * d.x, self.a.y + t * d.y);
        pt(2.0 * foot.x - p.x, 2.0 * foot.y - p.y)
    }

    /// Intersection with another segment, if the segments properly cross
    /// (both parameters strictly inside `(eps, 1 − eps)` unless
    /// `inclusive`). Parallel/collinear pairs return `None`.
    pub fn intersect(&self, other: &Segment, inclusive: bool) -> Option<Intersection> {
        let r = self.b.sub(self.a);
        let s = other.b.sub(other.a);
        let denom = r.cross(s);
        if denom.abs() < 1e-15 {
            return None; // parallel or collinear
        }
        let qp = other.a.sub(self.a);
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let eps = 1e-9;
        let (lo, hi) = if inclusive {
            (-eps, 1.0 + eps)
        } else {
            (eps, 1.0 - eps)
        };
        if t >= lo && t <= hi && u >= lo && u <= hi {
            Some(Intersection {
                point: pt(self.a.x + t * r.x, self.a.y + t * r.y),
                t,
                u,
            })
        } else {
            None
        }
    }

    /// Which side of the (directed) line a→b the point lies on:
    /// positive = left, negative = right, ~0 = on the line.
    pub fn side(&self, p: Point) -> f64 {
        self.b.sub(self.a).cross(p.sub(self.a))
    }
}

/// A closed axis-aligned rectangle, used for fence regions and obstacle
/// outlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Construct from corner coordinates (any order).
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            min: pt(x0.min(x1), y0.min(y1)),
            max: pt(x0.max(x1), y0.max(y1)),
        }
    }

    /// True if the point is inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The four edges, counter-clockwise from the bottom edge.
    pub fn edges(&self) -> [Segment; 4] {
        let Rect { min, max } = *self;
        [
            seg(pt(min.x, min.y), pt(max.x, min.y)),
            seg(pt(max.x, min.y), pt(max.x, max.y)),
            seg(pt(max.x, max.y), pt(min.x, max.y)),
            seg(pt(min.x, max.y), pt(min.x, min.y)),
        ]
    }
}

/// Point-in-polygon by ray casting (even–odd rule). Vertices in order
/// (either winding); the polygon closes itself.
pub fn point_in_polygon(p: Point, vertices: &[Point]) -> bool {
    let n = vertices.len();
    if n < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let (vi, vj) = (vertices[i], vertices[j]);
        if ((vi.y > p.y) != (vj.y > p.y))
            && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
        {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_and_azimuths() {
        assert!((pt(0.0, 0.0).dist(pt(3.0, 4.0)) - 5.0).abs() < 1e-12);
        assert!((pt(0.0, 0.0).azimuth_to(pt(1.0, 0.0))).abs() < 1e-12);
        assert!(
            (pt(0.0, 0.0).azimuth_to(pt(0.0, 2.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12
        );
        assert!(
            (pt(1.0, 1.0).azimuth_to(pt(0.0, 0.0)) + 3.0 * std::f64::consts::FRAC_PI_4).abs()
                < 1e-12
        );
    }

    #[test]
    fn mirror_across_axes() {
        let x_axis = seg(pt(0.0, 0.0), pt(10.0, 0.0));
        let m = x_axis.mirror(pt(3.0, 4.0));
        assert!((m.x - 3.0).abs() < 1e-12 && (m.y + 4.0).abs() < 1e-12);

        let diag = seg(pt(0.0, 0.0), pt(1.0, 1.0));
        let m = diag.mirror(pt(2.0, 0.0));
        assert!((m.x - 0.0).abs() < 1e-12 && (m.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_is_involution() {
        let w = seg(pt(1.0, -2.0), pt(4.0, 5.0));
        let p = pt(-3.0, 2.5);
        let mm = w.mirror(w.mirror(p));
        assert!(p.dist(mm) < 1e-12);
    }

    #[test]
    fn mirror_point_on_line_is_fixed() {
        let w = seg(pt(0.0, 0.0), pt(2.0, 2.0));
        let p = pt(1.0, 1.0);
        assert!(w.mirror(p).dist(p) < 1e-12);
    }

    #[test]
    fn crossing_segments_intersect() {
        let a = seg(pt(0.0, 0.0), pt(2.0, 2.0));
        let b = seg(pt(0.0, 2.0), pt(2.0, 0.0));
        let i = a.intersect(&b, false).expect("must cross");
        assert!(i.point.dist(pt(1.0, 1.0)) < 1e-12);
        assert!((i.t - 0.5).abs() < 1e-12);
        assert!((i.u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let a = seg(pt(0.0, 0.0), pt(2.0, 0.0));
        let b = seg(pt(0.0, 1.0), pt(2.0, 1.0));
        assert!(a.intersect(&b, true).is_none());
    }

    #[test]
    fn touching_at_endpoint_depends_on_inclusive() {
        let a = seg(pt(0.0, 0.0), pt(1.0, 1.0));
        let b = seg(pt(1.0, 1.0), pt(2.0, 0.0));
        assert!(a.intersect(&b, false).is_none());
        assert!(a.intersect(&b, true).is_some());
    }

    #[test]
    fn near_miss_does_not_intersect() {
        let a = seg(pt(0.0, 0.0), pt(1.0, 0.0));
        let b = seg(pt(0.5, 0.1), pt(0.5, 1.0));
        assert!(a.intersect(&b, true).is_none());
    }

    #[test]
    fn rect_contains_and_edges() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert!(r.contains(pt(1.0, 1.0)));
        assert!(r.contains(pt(0.0, 0.0)));
        assert!(!r.contains(pt(-0.1, 1.0)));
        assert!(!r.contains(pt(1.0, 2.1)));
        let edges = r.edges();
        assert_eq!(edges.len(), 4);
        let perimeter: f64 = edges.iter().map(|e| e.len()).sum();
        assert!((perimeter - 12.0).abs() < 1e-12);
    }

    #[test]
    fn polygon_containment() {
        // L-shaped polygon.
        let poly = [
            pt(0.0, 0.0),
            pt(4.0, 0.0),
            pt(4.0, 2.0),
            pt(2.0, 2.0),
            pt(2.0, 4.0),
            pt(0.0, 4.0),
        ];
        assert!(point_in_polygon(pt(1.0, 1.0), &poly));
        assert!(point_in_polygon(pt(3.0, 1.0), &poly));
        assert!(point_in_polygon(pt(1.0, 3.0), &poly));
        assert!(!point_in_polygon(pt(3.0, 3.0), &poly)); // the notch
        assert!(!point_in_polygon(pt(-1.0, 1.0), &poly));
        assert!(!point_in_polygon(pt(5.0, 5.0), &poly));
    }

    #[test]
    fn degenerate_polygon_is_empty() {
        assert!(!point_in_polygon(pt(0.0, 0.0), &[]));
        assert!(!point_in_polygon(
            pt(0.0, 0.0),
            &[pt(1.0, 1.0), pt(2.0, 2.0)]
        ));
    }

    #[test]
    fn side_sign_convention() {
        let s = seg(pt(0.0, 0.0), pt(1.0, 0.0));
        assert!(s.side(pt(0.5, 1.0)) > 0.0); // left
        assert!(s.side(pt(0.5, -1.0)) < 0.0); // right
        assert!(s.side(pt(0.5, 0.0)).abs() < 1e-12);
    }
}
