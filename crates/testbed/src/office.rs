//! The paper's Figure-4 office testbed, as a floor plan.
//!
//! The paper's figure is a schematic: 20 numbered Soekris clients spread
//! over an office floor around a WARP AP, with a large cement pillar
//! near clients 11/12. The precise coordinates are not published, so
//! this module encodes a floor plan *consistent with every statement the
//! paper makes about it*:
//!
//! * client 5 is near the AP in the same room; client 10 is far away in
//!   the same room; client 2 is in another room nearby (§3.2);
//! * client 11 is completely blocked by the cement pillar; client 12 is
//!   partially blocked (grazing line of sight past the pillar corner);
//!   client 6 is far away with strong multipath (§3.1);
//! * ground-truth bearings cover the full 0–360° range (Fig 5's x-axis);
//! * the environment is multi-room with interior walls, so many clients
//!   are heard through drywall.
//!
//! Geometry: a 30 m × 16 m floor, exterior concrete, interior drywall
//! partitions with door gaps, the AP at (15, 8).

use sa_channel::geom::{pt, Point, Rect, Segment};
use sa_channel::plan::{FloorPlan, CONCRETE, DRYWALL};

/// One testbed client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSpec {
    /// Paper's client number, 1–20.
    pub id: usize,
    /// Position on the floor plan, meters.
    pub position: Point,
    /// What the paper says about this client (empty for unremarkable
    /// ones).
    pub note: &'static str,
}

/// The office testbed: floor plan + AP + clients.
#[derive(Debug, Clone)]
pub struct Office {
    /// Walls.
    pub plan: FloorPlan,
    /// Primary AP position (the "AP" marker of Fig 4).
    pub ap_position: Point,
    /// Secondary AP positions for multi-AP experiments (virtual fence /
    /// localization, §2.3.1 — "more than two access points").
    pub extra_ap_positions: Vec<Point>,
    /// The 20 clients.
    pub clients: Vec<ClientSpec>,
    /// Building outline (the virtual-fence polygon).
    pub outline: Vec<Point>,
}

impl Office {
    /// Build the Figure-4 testbed.
    pub fn paper_figure4() -> Self {
        let mut plan = FloorPlan::new();

        // Exterior: concrete shell, 30 × 16 m.
        plan.add_rect(Rect::new(0.0, 0.0, 30.0, 16.0), CONCRETE);

        // Interior drywall partitions with door gaps.
        // Wall A: x = 8, gap at y ∈ (7, 9).
        plan.add_wall(
            Segment {
                a: pt(8.0, 0.0),
                b: pt(8.0, 7.0),
            },
            DRYWALL,
        );
        plan.add_wall(
            Segment {
                a: pt(8.0, 9.0),
                b: pt(8.0, 16.0),
            },
            DRYWALL,
        );
        // Wall B: x = 22, gap at y ∈ (6.5, 9.5).
        plan.add_wall(
            Segment {
                a: pt(22.0, 0.0),
                b: pt(22.0, 6.5),
            },
            DRYWALL,
        );
        plan.add_wall(
            Segment {
                a: pt(22.0, 9.5),
                b: pt(22.0, 16.0),
            },
            DRYWALL,
        );
        // Wall C: y = 12 across the middle block, gap at x ∈ (14, 16).
        plan.add_wall(
            Segment {
                a: pt(8.0, 12.0),
                b: pt(14.0, 12.0),
            },
            DRYWALL,
        );
        plan.add_wall(
            Segment {
                a: pt(16.0, 12.0),
                b: pt(22.0, 12.0),
            },
            DRYWALL,
        );

        // The large cement pillar: a 0.9 m square straddling the AP→11
        // line of sight (offset slightly off the ray's 45° diagonal so
        // the ray crosses wall interiors, not exactly a corner), fully
        // shadowing client 11 while client 12's line of sight grazes
        // past its corner.
        plan.add_rect(Rect::new(12.81, 9.49, 13.71, 10.39), CONCRETE);

        let clients = vec![
            ClientSpec {
                id: 1,
                position: pt(19.0, 10.5),
                note: "",
            },
            ClientSpec {
                id: 2,
                position: pt(5.5, 9.5),
                note: "another room nearby the AP (Fig 6)",
            },
            ClientSpec {
                id: 3,
                position: pt(20.5, 8.3),
                note: "",
            },
            ClientSpec {
                id: 4,
                position: pt(18.0, 12.8),
                note: "office above wall C",
            },
            ClientSpec {
                id: 5,
                position: pt(17.5, 6.5),
                note: "same room, near the AP (Fig 6)",
            },
            ClientSpec {
                id: 6,
                position: pt(27.5, 2.0),
                note: "far away, strong multipath (Fig 5 outlier)",
            },
            ClientSpec {
                id: 7,
                position: pt(13.0, 5.0),
                note: "",
            },
            ClientSpec {
                id: 8,
                position: pt(16.5, 3.5),
                note: "",
            },
            ClientSpec {
                id: 9,
                position: pt(10.5, 6.0),
                note: "",
            },
            ClientSpec {
                id: 10,
                position: pt(21.0, 1.0),
                note: "same room, far from the AP (Fig 6)",
            },
            ClientSpec {
                id: 11,
                position: pt(11.5, 11.5),
                note: "completely blocked by the pillar (Fig 5)",
            },
            ClientSpec {
                id: 12,
                position: pt(10.2, 10.8),
                note: "partially blocked by the pillar (Figs 5, 7)",
            },
            ClientSpec {
                id: 13,
                position: pt(8.6, 13.0),
                note: "",
            },
            ClientSpec {
                id: 14,
                position: pt(25.0, 12.5),
                note: "",
            },
            ClientSpec {
                id: 15,
                position: pt(27.0, 8.0),
                note: "through the wall-B doorway",
            },
            ClientSpec {
                id: 16,
                position: pt(4.0, 4.0),
                note: "",
            },
            ClientSpec {
                id: 17,
                position: pt(3.0, 13.0),
                note: "",
            },
            ClientSpec {
                id: 18,
                position: pt(24.0, 6.8),
                note: "",
            },
            ClientSpec {
                id: 19,
                position: pt(12.5, 2.0),
                note: "",
            },
            ClientSpec {
                id: 20,
                position: pt(6.0, 1.5),
                note: "",
            },
        ];

        Self {
            plan,
            ap_position: pt(15.0, 8.0),
            extra_ap_positions: vec![pt(25.0, 13.5), pt(5.0, 3.0)],
            clients,
            outline: vec![pt(0.0, 0.0), pt(30.0, 0.0), pt(30.0, 16.0), pt(0.0, 16.0)],
        }
    }

    /// A campus-hall scenario for fleet-scale serving: one large open
    /// concrete hall (36 m × 20 m) with `n_clients` clients laid out by
    /// a deterministic position stream (splitmix64 with a fixed seed —
    /// the layout is a pure function of `n_clients`). Unlike
    /// [`Office::paper_figure4`] this is not a paper figure; it exists
    /// to drive thousands of clients through a deployment while keeping
    /// every capture decodable: no point of the hall is more than ~21 m
    /// line-of-sight from the primary AP at (18, 10). Client ids are
    /// `1..=n_clients` and carry no paper notes. The hall supplies
    /// seven `extra_ap_positions`, so
    /// [`Office::deployment_ap_positions`] serves its full `1..=8`
    /// range from the hall itself.
    pub fn campus(n_clients: usize) -> Self {
        assert!(n_clients >= 1, "campus needs at least one client");
        const W: f64 = 36.0;
        const H: f64 = 20.0;
        const MARGIN: f64 = 1.5;
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(0.0, 0.0, W, H), CONCRETE);

        // splitmix64 layout stream; evaluation order (x then y) is part
        // of the layout contract.
        let mut state: u64 = 0xcafe_f00d_5eed_0001;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let clients = (1..=n_clients)
            .map(|id| {
                let x = MARGIN + next() * (W - 2.0 * MARGIN);
                let y = MARGIN + next() * (H - 2.0 * MARGIN);
                ClientSpec {
                    id,
                    position: pt(x, y),
                    note: "",
                }
            })
            .collect();

        Self {
            plan,
            ap_position: pt(18.0, 10.0),
            extra_ap_positions: vec![
                pt(6.0, 4.0),
                pt(30.0, 16.0),
                pt(6.0, 16.0),
                pt(30.0, 4.0),
                pt(18.0, 3.0),
                pt(18.0, 17.0),
                pt(3.0, 10.0),
            ],
            clients,
            outline: vec![pt(0.0, 0.0), pt(W, 0.0), pt(W, H), pt(0.0, H)],
        }
    }

    /// AP positions for an `n`-AP deployment (§2.3.1 scale-out): the
    /// primary Fig-4 AP first, then the two extra multi-AP positions,
    /// then further corners and mid-walls of the floor. Note the
    /// primary and the two extras all sit near the line `y = x/2 +
    /// 0.5`, so 3-AP deployments are ill-conditioned for clients along
    /// it (e.g. client 1) — the fourth AP breaks the collinearity;
    /// deployments that care about localization accuracy should run
    /// four or more. Supports up to eight APs; panics outside `1..=8`.
    pub fn deployment_ap_positions(&self, n: usize) -> Vec<Point> {
        assert!(
            (1..=8).contains(&n),
            "deployment supports 1..=8 APs, asked for {}",
            n
        );
        let mut all = vec![self.ap_position];
        all.extend(self.extra_ap_positions.iter().copied());
        all.extend([
            pt(5.0, 13.0),
            pt(25.0, 3.0),
            pt(15.0, 2.0),
            pt(15.0, 14.0),
            pt(2.0, 8.0),
        ]);
        all.truncate(n);
        all
    }

    /// Client spec by paper id (1–20). Panics on unknown ids.
    pub fn client(&self, id: usize) -> &ClientSpec {
        self.clients
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("no client {}", id))
    }

    /// The virtual-fence polygon: the building outline inset by a safety
    /// margin. Localization blurs positions by a meter or so, so fencing
    /// the wall line itself would admit outside transmitters whose fixes
    /// land fractionally inside; a deployment fences the usable interior
    /// instead. All 20 clients sit inside this polygon.
    pub fn fence_polygon(&self) -> Vec<Point> {
        const MARGIN: f64 = 0.75;
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.outline {
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
        vec![
            pt(x0 + MARGIN, y0 + MARGIN),
            pt(x1 - MARGIN, y0 + MARGIN),
            pt(x1 - MARGIN, y1 - MARGIN),
            pt(x0 + MARGIN, y1 - MARGIN),
        ]
    }

    /// Ground-truth azimuth (degrees, `[0, 360)`, global frame) from the
    /// primary AP to a client.
    pub fn ground_truth_azimuth_deg(&self, id: usize) -> f64 {
        self.ap_position
            .azimuth_to(self.client(id).position)
            .to_degrees()
            .rem_euclid(360.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_channel::geom::point_in_polygon;

    #[test]
    fn twenty_distinct_clients() {
        let o = Office::paper_figure4();
        assert_eq!(o.clients.len(), 20);
        let ids: std::collections::HashSet<_> = o.clients.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 20);
        for c in &o.clients {
            assert!((1..=20).contains(&c.id));
        }
    }

    #[test]
    fn all_clients_inside_the_building() {
        let o = Office::paper_figure4();
        for c in &o.clients {
            assert!(
                point_in_polygon(c.position, &o.outline),
                "client {} outside the building",
                c.id
            );
        }
        assert!(point_in_polygon(o.ap_position, &o.outline));
        for &p in &o.extra_ap_positions {
            assert!(point_in_polygon(p, &o.outline));
        }
    }

    #[test]
    fn all_clients_inside_the_fence_polygon() {
        let o = Office::paper_figure4();
        let fence = o.fence_polygon();
        for c in &o.clients {
            assert!(
                point_in_polygon(c.position, &fence),
                "client {} outside the fence margin",
                c.id
            );
        }
    }

    #[test]
    fn ground_truth_bearings_cover_the_circle() {
        // Fig 5's x-axis spans 0–360°: at least one client per quadrant.
        let o = Office::paper_figure4();
        let mut quadrants = [false; 4];
        for c in &o.clients {
            let az = o.ground_truth_azimuth_deg(c.id);
            quadrants[(az / 90.0) as usize % 4] = true;
        }
        assert_eq!(quadrants, [true; 4], "bearing coverage is incomplete");
    }

    #[test]
    fn client_11_is_fully_blocked_by_the_pillar() {
        let o = Office::paper_figure4();
        let c11 = o.client(11).position;
        let loss = o.plan.through_loss_db(o.ap_position, c11, &[]);
        // Two pillar-wall crossings of concrete.
        assert!(
            loss >= 2.0 * CONCRETE.transmission_db - 1e-9,
            "client 11 loss only {} dB",
            loss
        );
    }

    #[test]
    fn client_12_grazes_the_pillar() {
        // Partial blockage: the direct ray itself squeaks past (no
        // pillar crossing), but it passes within half a metre of the
        // pillar corner, so pillar reflections are strong and nearby.
        let o = Office::paper_figure4();
        let c12 = o.client(12).position;
        let loss = o.plan.through_loss_db(o.ap_position, c12, &[]);
        assert!(
            loss < 2.0 * CONCRETE.transmission_db,
            "client 12 should not be doubly blocked ({} dB)",
            loss
        );
        // Distance from the LoS segment to the pillar corner < 0.5 m.
        let corner = pt(12.81, 9.49);
        let d = distance_point_segment(corner, o.ap_position, c12);
        assert!(d < 0.5, "grazing distance {} m", d);
    }

    #[test]
    fn near_and_far_clients_match_the_papers_text() {
        let o = Office::paper_figure4();
        let distance_to = |id| o.ap_position.dist(o.client(id).position);
        assert!(distance_to(5) < 3.5, "client 5 should be near");
        assert!(distance_to(10) > 8.0, "client 10 should be far");
        assert!(distance_to(6) > 12.0, "client 6 should be farthest-ish");
        // Client 2 is behind wall A.
        let loss = o
            .plan
            .through_loss_db(o.ap_position, o.client(2).position, &[]);
        assert!(loss > 0.0, "client 2 should be in another room");
    }

    #[test]
    fn client_15_sees_the_ap_through_the_doorway() {
        let o = Office::paper_figure4();
        assert!(o.plan.has_clear_los(o.ap_position, o.client(15).position));
    }

    #[test]
    fn ground_truth_values_snapshot() {
        // Pin a few derived bearings so accidental geometry edits fail
        // loudly (experiments depend on these).
        let o = Office::paper_figure4();
        assert!((o.ground_truth_azimuth_deg(3) - 3.1).abs() < 0.1);
        assert!((o.ground_truth_azimuth_deg(11) - 135.0).abs() < 0.1);
        assert!((o.ground_truth_azimuth_deg(15) - 0.0).abs() < 0.1);
        assert!((o.ground_truth_azimuth_deg(7) - 236.3).abs() < 0.1);
    }

    #[test]
    fn deployment_positions_are_distinct_and_inside() {
        let o = Office::paper_figure4();
        for n in 1..=8 {
            let aps = o.deployment_ap_positions(n);
            assert_eq!(aps.len(), n);
            assert_eq!(aps[0], o.ap_position, "primary AP must come first");
            for (i, &a) in aps.iter().enumerate() {
                assert!(point_in_polygon(a, &o.outline), "AP {} outside", i);
                for &b in &aps[..i] {
                    assert!(a.dist(b) > 3.0, "APs too close: {:?} vs {:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn campus_layout_is_a_pure_function_of_client_count() {
        let a = Office::campus(50);
        let b = Office::campus(50);
        assert_eq!(a.clients.len(), 50);
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            assert_eq!(ca, cb);
        }
        // A prefix of a larger campus matches the smaller one: the
        // stream is consumed in id order.
        let big = Office::campus(200);
        for (ca, cb) in a.clients.iter().zip(&big.clients) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn campus_clients_fit_the_hall_and_the_fence() {
        let o = Office::campus(300);
        let fence = o.fence_polygon();
        let ids: std::collections::HashSet<_> = o.clients.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 300);
        for c in &o.clients {
            assert!(point_in_polygon(c.position, &o.outline));
            assert!(point_in_polygon(c.position, &fence));
            // Decodability bound: every client is within line-of-sight
            // budget of the primary AP.
            assert!(o.ap_position.dist(c.position) < 21.0);
        }
    }

    #[test]
    fn campus_serves_the_full_ap_range() {
        let o = Office::campus(10);
        for n in 1..=8 {
            let aps = o.deployment_ap_positions(n);
            assert_eq!(aps.len(), n);
            assert_eq!(aps[0], o.ap_position);
            for (i, &a) in aps.iter().enumerate() {
                assert!(point_in_polygon(a, &o.outline), "AP {} outside", i);
                for &b in &aps[..i] {
                    assert!(a.dist(b) > 3.0, "APs too close: {:?} vs {:?}", a, b);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn too_many_deployment_aps_panics() {
        let o = Office::paper_figure4();
        let _ = o.deployment_ap_positions(9);
    }

    #[test]
    #[should_panic(expected = "no client 21")]
    fn unknown_client_panics() {
        let o = Office::paper_figure4();
        let _ = o.client(21);
    }

    fn distance_point_segment(p: Point, a: Point, b: Point) -> f64 {
        let ab = b.sub(a);
        let t = (p.sub(a).dot(ab) / ab.dot(ab)).clamp(0.0, 1.0);
        let proj = pt(a.x + t * ab.x, a.y + t * ab.y);
        p.dist(proj)
    }
}
