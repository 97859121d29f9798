//! Testbed simulation driver: office + APs + packet captures.
//!
//! Wires the whole stack together the way the paper's prototype is
//! wired: clients encode OFDM frames, the geometric channel carries them
//! to each AP's antenna array, the RF front end adds its impairments and
//! noise, and each [`AccessPoint`] runs detection → calibration →
//! correlation → MUSIC. Experiments drive this with deterministic seeds.

use crate::office::Office;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_array::geometry::Array;
use sa_array::rf::FrontEnd;
use sa_channel::apply::{apply_channel, ApplyConfig};
use sa_channel::geom::Point;
use sa_channel::pattern::TxAntenna;
use sa_channel::temporal::TemporalModel;
use sa_channel::trace::{trace_paths, Path, TraceConfig};
use sa_linalg::complex::ZERO;
use sa_linalg::CMat;
use sa_mac::{AccessControlList, AclPolicy, Frame, MacAddr};
use sa_phy::ppdu::Transmitter;
use sa_phy::Modulation;
use secureangle::pipeline::{AccessPoint, ApConfig};

/// Simulation-wide parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Client modulation.
    pub modulation: Modulation,
    /// Per-chain complex noise variance (absolute; the channel produces
    /// absolute Friis-scaled powers). The default puts a ~5 m in-room
    /// client at roughly 30 dB SNR and the farthest through-wall clients
    /// in the low teens — consistent with a short-range office WLAN.
    pub noise_floor: f64,
    /// Ray-tracing parameters.
    pub trace: TraceConfig,
    /// Temporal channel evolution (Fig 6).
    pub temporal: TemporalModel,
    /// Payload bytes carried by test frames.
    pub payload_len: usize,
    /// Idle lead-in samples before the packet in each capture.
    pub lead_in: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            modulation: Modulation::Qpsk,
            noise_floor: 2e-9,
            trace: TraceConfig::default(),
            temporal: TemporalModel::default(),
            payload_len: 18,
            lead_in: 120,
        }
    }
}

/// One AP with its front end.
#[derive(Debug)]
pub struct ApNode {
    /// The SecureAngle access point.
    pub ap: AccessPoint,
    /// Its RF front end (per-chain offsets + noise).
    pub front_end: FrontEnd,
}

/// A fully-wired testbed.
#[derive(Debug)]
pub struct Testbed {
    /// The floor plan and client roster.
    pub office: Office,
    /// Simulation parameters.
    pub cfg: SimConfig,
    /// AP nodes; node 0 is the primary (Fig 4 "AP").
    pub nodes: Vec<ApNode>,
}

/// Which array the AP(s) use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApArray {
    /// The paper's circular arrangement (octagon, Figs 4–5).
    Circular,
    /// The paper's linear arrangement (λ/2 ULA, Figs 6–7), with the
    /// given element count.
    Linear(usize),
}

impl Testbed {
    /// Single-AP testbed with the chosen array, calibrated, all 20
    /// clients on the ACL. Deterministic in `seed`.
    pub fn single_ap(array: ApArray, seed: u64) -> Self {
        Self::build(array, false, seed)
    }

    /// Three-AP testbed (primary + the two extra positions) for the
    /// virtual-fence / localization experiments.
    pub fn multi_ap(seed: u64) -> Self {
        Self::build(ApArray::Circular, true, seed)
    }

    /// An `n_aps`-node deployment testbed: circular arrays at
    /// [`Office::deployment_ap_positions`], every AP calibrated against
    /// its own front end, all 20 clients on every ACL. Node 0 is the
    /// primary Fig-4 AP. Deterministic in `seed`.
    pub fn deployment(n_aps: usize, seed: u64) -> Self {
        let office = Office::paper_figure4();
        let positions = office.deployment_ap_positions(n_aps);
        Self::build_at(ApArray::Circular, office, positions, seed)
    }

    /// A fleet-scale campus-hall testbed: four circular-array APs over
    /// [`Office::campus`]'s `n_clients` clients, every client on every
    /// ACL. The client layout is a pure function of `n_clients`; the RF
    /// build (front ends, calibration) is deterministic in `seed`.
    pub fn campus(n_clients: usize, seed: u64) -> Self {
        Self::campus_with(n_clients, 4, seed)
    }

    /// [`Testbed::campus`] with an explicit AP count (`1..=8`, from
    /// [`Office::deployment_ap_positions`] over the campus hall).
    pub fn campus_with(n_clients: usize, n_aps: usize, seed: u64) -> Self {
        let office = Office::campus(n_clients);
        let positions = office.deployment_ap_positions(n_aps);
        Self::build_at(ApArray::Circular, office, positions, seed)
    }

    fn build(array: ApArray, multi: bool, seed: u64) -> Self {
        let office = Office::paper_figure4();
        let mut positions = vec![office.ap_position];
        if multi {
            positions.extend(office.extra_ap_positions.iter().copied());
        }
        Self::build_at(array, office, positions, seed)
    }

    fn build_at(array: ApArray, office: Office, positions: Vec<Point>, seed: u64) -> Self {
        let cfg = SimConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let mut nodes = Vec::with_capacity(positions.len());
        for pos in positions {
            let arr = match array {
                ApArray::Circular => Array::paper_octagon(),
                ApArray::Linear(n) => Array::paper_linear(n),
            };
            let mut acl = AccessControlList::new(AclPolicy::AllowListed);
            for c in &office.clients {
                acl.add(client_mac(c.id));
            }
            let mut ap_cfg = ApConfig::paper_prototype(pos);
            ap_cfg.array = arr;
            ap_cfg.modulation = cfg.modulation;
            let mut ap = AccessPoint::new(ap_cfg, acl);
            let front_end = FrontEnd::random(ap.config().array.len(), cfg.noise_floor, &mut rng);
            ap.calibrate(&front_end, &mut rng);
            nodes.push(ApNode { ap, front_end });
        }

        Self { office, cfg, nodes }
    }

    /// The MAC address of a testbed client.
    pub fn client_mac(id: usize) -> MacAddr {
        client_mac(id)
    }

    /// A data frame as client `id` would send it.
    pub fn client_frame(&self, id: usize, seq: u16) -> Frame {
        let payload: Vec<u8> = (0..self.cfg.payload_len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(id as u8))
            .collect();
        Frame::data(
            client_mac(id),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            seq,
            &payload,
        )
    }

    /// Trace the paths from a transmit position to AP node `node`,
    /// optionally evolved forward `dt_s` seconds of environment time.
    pub fn paths_to(&self, node: usize, from: Point, dt_s: f64, rng: &mut ChaCha8Rng) -> Vec<Path> {
        let ap_pos = self.nodes[node].ap.config().position;
        let base = trace_paths(&self.office.plan, from, ap_pos, &self.cfg.trace);
        if dt_s > 0.0 {
            self.cfg.temporal.evolve(&base, dt_s, rng)
        } else {
            base
        }
    }

    /// Produce the multi-antenna capture AP node `node` records for a
    /// frame transmitted from `from`.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        &self,
        node: usize,
        from: Point,
        antenna: &TxAntenna,
        tx_power: f64,
        frame: &Frame,
        dt_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> CMat {
        let tx = Transmitter::new(self.cfg.modulation);
        let wave = tx.encode(&frame.encode());
        let mut padded = vec![ZERO; self.cfg.lead_in];
        padded.extend_from_slice(&wave);
        padded.extend_from_slice(&vec![ZERO; 80]);

        let paths = self.paths_to(node, from, dt_s, rng);
        let ap = &self.nodes[node].ap;
        let out = apply_channel(
            &paths,
            antenna,
            &ap.config().array,
            &padded,
            &ApplyConfig {
                tx_power,
                cfo_rad_per_sample: cfo_for(rng),
                array_orientation: ap.config().orientation,
                ..Default::default()
            },
        );
        self.nodes[node].front_end.receive(&out.snapshots, rng)
    }

    /// Convenience: client `id` transmits one frame (omni, unit power)
    /// to AP node `node`; returns the capture.
    pub fn client_capture(
        &self,
        node: usize,
        id: usize,
        seq: u16,
        dt_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> CMat {
        let frame = self.client_frame(id, seq);
        self.capture(
            node,
            self.office.client(id).position,
            &TxAntenna::Omni,
            1.0,
            &frame,
            dt_s,
            rng,
        )
    }

    /// Captures of **one** transmission at **every** AP node: the same
    /// frame from the same position, carried to each node over its own
    /// traced channel with its own front-end noise. This is the unit a
    /// multi-AP deployment ingests — `result[k]` is what node `k`
    /// recorded. Order of nodes is fixed, so the draw sequence (and the
    /// captures) are deterministic in `rng`.
    pub fn transmission(
        &self,
        from: Point,
        antenna: &TxAntenna,
        tx_power: f64,
        frame: &Frame,
        dt_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<CMat> {
        let nodes: Vec<usize> = (0..self.nodes.len()).collect();
        self.transmission_for(&nodes, from, antenna, tx_power, frame, dt_s, rng)
    }

    /// [`Testbed::transmission`] for a *subset* of the AP nodes —
    /// `result[k]` is what `nodes[k]` recorded. This is the capture
    /// unit for a deployment under churn: after an AP is removed (or
    /// before a joiner is added), windows carry captures for the live
    /// membership only. RNG draws happen only for the listed nodes, in
    /// list order, so the captures are deterministic in `rng` given the
    /// same node list.
    #[allow(clippy::too_many_arguments)]
    pub fn transmission_for(
        &self,
        nodes: &[usize],
        from: Point,
        antenna: &TxAntenna,
        tx_power: f64,
        frame: &Frame,
        dt_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<CMat> {
        nodes
            .iter()
            .map(|&node| self.capture(node, from, antenna, tx_power, frame, dt_s, rng))
            .collect()
    }

    /// One observation window of deployment traffic: each listed client
    /// transmits once (omni, unit power, frame sequence `seq`), in
    /// order, at environment time `dt_s`. Returns one
    /// transmission-worth of per-node captures per client —
    /// `result[i][k]` is node `k`'s capture of client `clients[i]`.
    pub fn window_traffic(
        &self,
        clients: &[usize],
        seq: u16,
        dt_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<CMat>> {
        let nodes: Vec<usize> = (0..self.nodes.len()).collect();
        self.window_traffic_for(&nodes, clients, seq, dt_s, rng)
    }

    /// [`Testbed::window_traffic`] heard by a *subset* of the AP nodes
    /// (`result[i][k]` is `nodes[k]`'s capture of client `clients[i]`)
    /// — the churn-scenario generator: drive a deployment whose live
    /// membership no longer matches the full testbed.
    pub fn window_traffic_for(
        &self,
        nodes: &[usize],
        clients: &[usize],
        seq: u16,
        dt_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<CMat>> {
        clients
            .iter()
            .map(|&id| {
                let frame = self.client_frame(id, seq);
                self.transmission_for(
                    nodes,
                    self.office.client(id).position,
                    &TxAntenna::Omni,
                    1.0,
                    &frame,
                    dt_s,
                    rng,
                )
            })
            .collect()
    }

    /// A deterministic per-AP clock-skew profile for an `n_aps`
    /// deployment: returns `(window_offset, seq_offset)` per AP, with
    /// window offsets alternating `±max_offset_windows` (scaled down
    /// across the fleet so not every AP sits at the extreme) and seq
    /// offsets spread as if each AP's packet counter had been running
    /// since a different boot time. Deterministic in `seed`; node 0 is
    /// left unskewed (the reference the paper's prototype would sync
    /// against).
    pub fn skew_profile(n_aps: usize, max_offset_windows: i64, seed: u64) -> Vec<(i64, u64)> {
        (0..n_aps)
            .map(|k| {
                if k == 0 {
                    (0, 0)
                } else {
                    let magnitude = 1 + (k as i64 + seed as i64) % max_offset_windows.max(1);
                    let sign = if k % 2 == 1 { 1 } else { -1 };
                    let seq = (seed ^ k as u64).wrapping_mul(2654435761) % 1000;
                    (sign * magnitude, seq)
                }
            })
            .collect()
    }

    /// Total received power (linear) node `node` would measure from a
    /// unit-power transmitter at `from` — used by RSS experiments and
    /// attackers probing for power matching.
    pub fn rx_power_from(&self, node: usize, from: Point) -> f64 {
        let ap_pos = self.nodes[node].ap.config().position;
        trace_paths(&self.office.plan, from, ap_pos, &self.cfg.trace)
            .iter()
            .map(|p| p.gain.norm_sqr())
            .sum()
    }
}

/// Deterministic testbed MAC for a client id.
fn client_mac(id: usize) -> MacAddr {
    MacAddr::local_from_index(id as u32)
}

/// Small random residual CFO per packet (± ~2 kHz at 20 MHz sampling):
/// Soekris client oscillators are not locked to the AP.
fn cfo_for<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (rng.gen::<f64>() - 0.5) * 2.0 * 6.3e-4
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_aoa::pseudospectrum::angle_diff_deg;

    #[test]
    fn testbed_builds_and_calibrates() {
        let tb = Testbed::single_ap(ApArray::Circular, 1);
        assert_eq!(tb.nodes.len(), 1);
        assert_eq!(tb.nodes[0].ap.config().array.len(), 8);
        // Calibration is non-identity (front end has random offsets).
        let cal = tb.nodes[0].ap.calibration();
        assert!(cal
            .corrections()
            .iter()
            .skip(1)
            .any(|c| (c.arg()).abs() > 1e-3));
    }

    #[test]
    fn multi_ap_has_three_nodes() {
        let tb = Testbed::multi_ap(2);
        assert_eq!(tb.nodes.len(), 3);
    }

    #[test]
    fn client_5_bearing_recovers_ground_truth() {
        let tb = Testbed::single_ap(ApArray::Circular, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let buf = tb.client_capture(0, 5, 1, 0.0, &mut rng);
        let obs = tb.nodes[0].ap.observe(&buf).expect("observation");
        let truth = tb.office.ground_truth_azimuth_deg(5);
        assert!(
            angle_diff_deg(obs.bearing_deg, truth, true) < 4.0,
            "bearing {} truth {}",
            obs.bearing_deg,
            truth
        );
        // Frame decodes and carries the right MAC.
        assert_eq!(obs.frame.as_ref().unwrap().src, Testbed::client_mac(5));
    }

    #[test]
    fn far_client_is_still_detected() {
        let tb = Testbed::single_ap(ApArray::Circular, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let buf = tb.client_capture(0, 6, 1, 0.0, &mut rng);
        let obs = tb.nodes[0].ap.observe(&buf);
        assert!(obs.is_ok(), "client 6 undetected: {:?}", obs.err());
    }

    #[test]
    fn linear_testbed_reports_broadside_angles() {
        let tb = Testbed::single_ap(ApArray::Linear(8), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let buf = tb.client_capture(0, 5, 1, 0.0, &mut rng);
        let obs = tb.nodes[0].ap.observe(&buf).expect("observation");
        assert!(obs.bearing_deg.abs() <= 90.0, "bearing {}", obs.bearing_deg);
        assert!(
            obs.global_azimuth.is_none(),
            "ULA has no unambiguous azimuth"
        );
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let tb = Testbed::single_ap(ApArray::Circular, 9);
        let mut r1 = ChaCha8Rng::seed_from_u64(10);
        let mut r2 = ChaCha8Rng::seed_from_u64(10);
        let b1 = tb.client_capture(0, 7, 1, 0.0, &mut r1);
        let b2 = tb.client_capture(0, 7, 1, 0.0, &mut r2);
        assert!(b1.approx_eq(&b2, 0.0));
    }

    #[test]
    fn deployment_testbed_spreads_aps_and_stays_deterministic() {
        let tb = Testbed::deployment(4, 21);
        assert_eq!(tb.nodes.len(), 4);
        let expected = tb.office.deployment_ap_positions(4);
        for (node, &want) in tb.nodes.iter().zip(&expected) {
            assert_eq!(node.ap.config().position, want);
        }
        // Window traffic is deterministic in the rng and covers every node.
        let mut r1 = ChaCha8Rng::seed_from_u64(22);
        let mut r2 = ChaCha8Rng::seed_from_u64(22);
        let w1 = tb.window_traffic(&[5, 7], 1, 0.0, &mut r1);
        let w2 = tb.window_traffic(&[5, 7], 1, 0.0, &mut r2);
        assert_eq!(w1.len(), 2);
        assert_eq!(w1[0].len(), 4);
        for (a, b) in w1.iter().flatten().zip(w2.iter().flatten()) {
            assert!(a.approx_eq(b, 0.0));
        }
    }

    #[test]
    fn every_node_hears_a_window_transmission() {
        let tb = Testbed::deployment(4, 23);
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let w = tb.window_traffic(&[5], 1, 0.0, &mut rng);
        for (node, cap) in w[0].iter().enumerate() {
            let obs = tb.nodes[node]
                .ap
                .observe(cap)
                .unwrap_or_else(|e| panic!("node {}: {}", node, e));
            assert_eq!(obs.frame.unwrap().src, Testbed::client_mac(5));
        }
    }

    #[test]
    fn subset_traffic_matches_the_listed_nodes() {
        let tb = Testbed::deployment(4, 25);
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let w = tb.window_traffic_for(&[0, 2, 3], &[5, 7], 1, 0.0, &mut rng);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].len(), 3);
        // Every listed node decodes the right client.
        for (slot, &node) in [0usize, 2, 3].iter().enumerate() {
            let obs = tb.nodes[node].ap.observe(&w[0][slot]).expect("observation");
            assert_eq!(obs.frame.unwrap().src, Testbed::client_mac(5));
        }
        // Deterministic in the rng given the same node list.
        let mut r2 = ChaCha8Rng::seed_from_u64(26);
        let w2 = tb.window_traffic_for(&[0, 2, 3], &[5, 7], 1, 0.0, &mut r2);
        for (a, b) in w.iter().flatten().zip(w2.iter().flatten()) {
            assert!(a.approx_eq(b, 0.0));
        }
    }

    #[test]
    fn skew_profile_is_bounded_and_deterministic() {
        let p = Testbed::skew_profile(6, 2, 42);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], (0, 0), "node 0 is the unskewed reference");
        assert!(p.iter().any(|&(w, _)| w > 0));
        assert!(p.iter().any(|&(w, _)| w < 0));
        for &(w, _) in &p {
            assert!(w.abs() <= 2, "offset {} beyond bound", w);
        }
        assert_eq!(p, Testbed::skew_profile(6, 2, 42));
        assert_ne!(p, Testbed::skew_profile(6, 2, 43));
    }

    #[test]
    fn campus_testbed_scales_and_decodes() {
        let tb = Testbed::campus_with(40, 3, 31);
        assert_eq!(tb.nodes.len(), 3);
        assert_eq!(tb.office.clients.len(), 40);
        // The farthest-from-primary client still decodes at every node.
        let far = tb
            .office
            .clients
            .iter()
            .max_by(|a, b| {
                let da = tb.office.ap_position.dist(a.position);
                let db = tb.office.ap_position.dist(b.position);
                da.partial_cmp(&db).unwrap()
            })
            .unwrap()
            .id;
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let w = tb.window_traffic(&[far], 1, 0.0, &mut rng);
        for (node, cap) in w[0].iter().enumerate() {
            let obs = tb.nodes[node]
                .ap
                .observe(cap)
                .unwrap_or_else(|e| panic!("node {}: {}", node, e));
            assert_eq!(obs.frame.unwrap().src, Testbed::client_mac(far));
        }
    }

    #[test]
    fn rx_power_decreases_with_distance() {
        let tb = Testbed::single_ap(ApArray::Circular, 11);
        let p5 = tb.rx_power_from(0, tb.office.client(5).position);
        let p6 = tb.rx_power_from(0, tb.office.client(6).position);
        assert!(p5 > p6, "near client should be louder");
    }

    #[test]
    fn evolved_capture_differs_but_decodes() {
        let tb = Testbed::single_ap(ApArray::Circular, 12);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let buf = tb.client_capture(0, 5, 1, 3600.0, &mut rng);
        let obs = tb.nodes[0].ap.observe(&buf).expect("evolved observation");
        assert!(obs.frame.is_some());
    }
}
