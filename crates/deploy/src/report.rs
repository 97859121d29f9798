//! Deployment observability: per-packet reports, per-AP statistics,
//! fused window results and the final [`DeploymentReport`].

use sa_channel::geom::Point;
use sa_mac::MacAddr;
use sa_telemetry::TelemetrySnapshot;
use secureangle::localize::Fix;
use secureangle::pipeline::{BearingReport, FrameVerdict};
use secureangle::spoof::ConsensusVerdict;
use secureangle::tracking::TrackPoint;

/// Defines a block of `u64` counters with the plumbing every such block
/// used to hand-roll: the struct itself, field-wise [`absorb`]
/// (folding), and a [`for_each`] visitor that names every counter — the
/// single source of truth telemetry snapshots are built from, so a
/// newly added field can never silently miss `absorb` or the exported
/// snapshot.
///
/// [`absorb`]: ApStats::absorb
/// [`for_each`]: ApStats::for_each
macro_rules! counter_block {
    (
        $(#[$struct_meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: u64, )+
        }
    ) => {
        $(#[$struct_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $name {
            /// Fold another counter block into this one, field-wise.
            pub fn absorb(&mut self, other: &$name) {
                $( self.$field += other.$field; )+
            }

            /// Visit every counter as a `(name, value)` pair, in
            /// declaration order. Telemetry snapshots are built from
            /// it, so the visitor is exhaustive by construction.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($field), self.$field); )+
            }
        }
    };
}

/// One AP worker's processed packet, as delivered to the fusion stage:
/// the core crate's `(mac, azimuth, confidence, seq)`
/// [`BearingReport`] (when the packet yielded one) plus the AP's own
/// enforcement verdict and presentation bearing.
#[derive(Debug, Clone, PartialEq)]
pub struct ApPacket {
    /// Which AP observed it (index into the deployment's AP list).
    pub ap_id: usize,
    /// Observation window the packet belongs to.
    pub window: u64,
    /// Transmission sequence number within the window (assigned by the
    /// coordinator; identical across APs for the same transmission).
    pub seq: u64,
    /// Claimed source MAC, if the frame decoded (kept even when no
    /// bearing report exists, so enforcement verdicts stay
    /// attributable).
    pub mac: Option<MacAddr>,
    /// The fusion-ready bearing record
    /// ([`secureangle::Observation::bearing_report`]): present when
    /// the frame decoded *and* the array gives an unambiguous global
    /// azimuth.
    pub report: Option<BearingReport>,
    /// Bearing in the array's presentation convention, degrees
    /// (available even without a [`BearingReport`]).
    pub bearing_deg: f64,
    /// Received signal strength, dB.
    pub rss_db: f64,
    /// This AP's own enforcement verdict for the frame.
    pub verdict: FrameVerdict,
}

counter_block! {
    /// Counters for one AP worker (per window, and summed over the
    /// run). Defined through `counter_block!`, which also generates
    /// [`ApStats::absorb`] and [`ApStats::for_each`] so the three can
    /// never drift apart.
    pub struct ApStats {
    /// Windows processed.
    pub windows: u64,
    /// Captures handed to this worker.
    pub packets: u64,
    /// Captures that produced an observation.
    pub observed: u64,
    /// Captures rejected before DSP (bad shape / no packet at the
    /// decoded extent).
    pub observe_failures: u64,
    /// Frames admitted by this AP's enforcement.
    pub admitted: u64,
    /// Frames dropped as suspected spoofs (including quarantine).
    pub dropped_spoof: u64,
    /// Frames dropped for other reasons (decode, ACL).
    pub dropped_other: u64,
    /// Signature profiles auto-trained by this worker.
    pub trained: u64,
    /// Fusion-ready bearing reports published (decoded frame + an
    /// unambiguous global azimuth).
    pub bearings: u64,
    /// Times the report channel was full when this worker tried to
    /// publish (the send then blocked; nothing is dropped).
    pub backpressure_events: u64,
    /// Report delivery attempts lost on the lossy link (every dropped
    /// attempt, including ones later recovered by a retransmit).
    pub report_drops: u64,
    /// Retransmit attempts performed after a dropped delivery.
    pub report_retransmits: u64,
    /// Whole window reports abandoned after the retry budget ran out:
    /// the window's bearing data from this AP never reached fusion
    /// (only the end-of-window marker did).
    pub reports_lost: u64,
    /// Window reports from this AP excluded because their label
    /// drifted beyond the skew tolerance. Counted by the *coordinator*
    /// (the worker cannot see its own clock error); a steady climb
    /// here is the drifting-clock signature — see the failure-mode
    /// table in `docs/DEPLOYMENT.md`.
    pub skew_rejections: u64,
    /// End-of-window markers from this AP lost on the control path
    /// ([`crate::FaultEvent::MarkerLoss`]): the coordinator never heard
    /// this AP finish those windows. Each closed when a later marker, a
    /// flush reply or the worker's exit notice showed the window's
    /// dispatch number finished.
    pub markers_lost: u64,
    /// Window reports from this AP rejected because their payload
    /// failed the report-wire checksum (on-path corruption: bit-flipped
    /// bearings, stale-seq replays, garbage confidence). Counted by the
    /// coordinator; the whole payload is excluded from fusion.
    pub reports_corrupt: u64,
    /// Windows this AP's worker spent wedged: its DSP produced nothing
    /// and the end-of-window marker arrived flagged stalled. A run of
    /// these longer than `STALL_WATCHDOG_WINDOWS`
    /// gets the worker reaped.
    pub windows_stalled: u64,
    /// Times this AP was quarantined by the health layer (excluded from
    /// fusion/consensus until a clean streak earned re-admission).
    pub quarantined: u64,
    /// Times this AP was re-admitted after quarantine.
    pub readmitted: u64,
    }
}

/// One client's fused result for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientFix {
    /// The client (claimed source MAC).
    pub mac: MacAddr,
    /// Distinct APs that contributed a bearing.
    pub n_aps: usize,
    /// Total bearing observations fused.
    pub n_bearings: usize,
    /// Least-squares intersection of the bearings, if the geometry
    /// allowed one.
    pub fix: Option<Fix>,
    /// The client's smoothed track point after absorbing this fix.
    pub track: Option<TrackPoint>,
    /// Cross-AP consensus verdict for the fused fix.
    pub consensus: ConsensusVerdict,
    /// APs whose own enforcement admitted the client's frame(s).
    pub admitted_aps: usize,
    /// APs whose own enforcement flagged a spoof.
    pub flagged_aps: usize,
    /// Mean per-bearing confidence.
    pub mean_confidence: f64,
    /// Live APs the deployment fielded when the window was submitted —
    /// the denominator for "how partial was this client's view"
    /// (`n_aps < expected_aps` means lost reports, skew rejections, or
    /// the client simply being out of range of some APs).
    pub expected_aps: usize,
}

/// One AP's bearing-residual evidence for one window, measured against
/// the fused fixes its bearings fed. Order-independent aggregates
/// (max + threshold counts, never float sums), so the values do not
/// depend on the order clients are fused in — the health layer can
/// consume them without breaking determinism.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ApBearingError {
    /// The AP.
    pub ap_id: usize,
    /// Bearings from this AP that fed a fused fix this window.
    pub bearings: u32,
    /// Of those, how many missed their fused fix by more than the
    /// health layer's warn threshold
    /// (`BEARING_ERR_WARN_DEG`).
    pub over_warn: u32,
    /// Worst residual this window, degrees.
    pub max_err_deg: f64,
}

/// Everything fusion produced for one closed observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedWindow {
    /// The window number.
    pub window: u64,
    /// Per-client fused results, ordered by MAC.
    pub clients: Vec<ClientFix>,
    /// Packet reports that fed this window.
    pub packets: usize,
    /// Bearing observations fused.
    pub bearings: usize,
    /// Clients whose bearings could not be intersected
    /// (degenerate geometry).
    pub localize_failures: usize,
    /// Live APs expected to report when the window was submitted.
    pub expected_aps: usize,
    /// APs whose report data for this window was lost on the link
    /// (retries exhausted — fusion saw only their end-of-window
    /// marker).
    pub lost_reports: usize,
    /// AP reports excluded because their window label drifted beyond
    /// the skew tolerance.
    pub skew_rejected: usize,
    /// APs whose end-of-window marker for this window was lost: the
    /// window closed when a later message from each showed the window's
    /// dispatch finished, without ever hearing its marker.
    pub markers_lost: usize,
    /// AP reports rejected because their payload failed the wire
    /// checksum.
    pub corrupt_reports: usize,
    /// APs whose worker was wedged this window (marker flagged stalled,
    /// no payload).
    pub stalled_aps: usize,
    /// APs excluded from this window by the health layer's quarantine.
    pub quarantined_aps: usize,
    /// Per-AP bearing-residual evidence against this window's fused
    /// fixes, ordered by AP id — the health layer's byzantine-bias
    /// signal. Empty when no bearings fused.
    pub ap_bearing_errors: Vec<ApBearingError>,
}

/// Deployment-wide running counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeployMetrics {
    /// Windows fused.
    pub windows: u64,
    /// Client transmissions ingested.
    pub transmissions: u64,
    /// Transmissions whose reference capture failed stage 1 (nothing
    /// was dispatched for them).
    pub decode_failures: u64,
    /// Per-AP captures dispatched to workers.
    pub packets_dispatched: u64,
    /// Bearing observations fused.
    pub fused_bearings: u64,
    /// Localization fixes produced.
    pub fixes: u64,
    /// Fusion groups whose geometry was degenerate.
    pub localize_failures: u64,
    /// Cross-AP consensus spoof flags raised.
    pub consensus_flags: u64,
    /// Times a submit found a worker with
    /// [`crate::DeployConfig::channel_capacity`] windows in flight (the
    /// submit then waited at the window gate until one completed).
    pub ingest_backpressure_events: u64,
    /// Times a worker found the report channel full (summed over
    /// workers; each send then blocked).
    pub report_backpressure_events: u64,
    /// High-water mark of packet reports buffered in the fusion stage
    /// across all in-flight windows — the fusion queue depth.
    pub max_fusion_queue_depth: usize,
    /// Window reports whose data was lost on the lossy link (summed
    /// over APs; each cost one AP's bearings for one window).
    pub reports_lost: u64,
    /// Window reports rejected because their label drifted beyond the
    /// skew tolerance.
    pub skew_rejections: u64,
    /// End-of-window markers lost on the control path (summed over
    /// APs; each window closed on a later marker, a flush reply or the
    /// worker's exit notice).
    pub markers_lost: u64,
    /// Windows fused with at least one live AP's data missing (lost,
    /// rejected, or the AP died mid-window).
    pub degraded_windows: u64,
    /// Worker threads that died without a shutdown order (panic or
    /// channel loss). Their windows closed without them.
    pub worker_losses: u64,
    /// APs added to the deployment mid-run.
    pub aps_added: u64,
    /// APs removed from the deployment mid-run.
    pub aps_removed: u64,
    /// Window reports rejected for a failed wire checksum (summed over
    /// APs).
    pub reports_corrupt: u64,
    /// Stalled AP-windows observed (summed over APs): a marker arrived
    /// flagged stalled with no payload.
    pub windows_stalled: u64,
    /// Quarantine events: an AP's health score fell below the
    /// quarantine threshold and it was excluded from fusion/consensus.
    pub aps_quarantined: u64,
    /// Re-admission events after quarantine.
    pub aps_readmitted: u64,
    /// Workers reaped by the stall watchdog (a run of stalled windows
    /// hit `STALL_WATCHDOG_WINDOWS`). Distinct
    /// from `worker_losses`, which counts uncommanded deaths.
    pub watchdog_reaps: u64,
}

impl DeployMetrics {
    /// Visit every fleet-wide *counter* as a `(name, value)` pair, in
    /// declaration order. `max_fusion_queue_depth` is deliberately
    /// excluded: it is a high-water mark, not a monotonic counter, and
    /// the telemetry snapshot exports it as a gauge instead.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("windows", self.windows);
        f("transmissions", self.transmissions);
        f("decode_failures", self.decode_failures);
        f("packets_dispatched", self.packets_dispatched);
        f("fused_bearings", self.fused_bearings);
        f("fixes", self.fixes);
        f("localize_failures", self.localize_failures);
        f("consensus_flags", self.consensus_flags);
        f(
            "ingest_backpressure_events",
            self.ingest_backpressure_events,
        );
        f(
            "report_backpressure_events",
            self.report_backpressure_events,
        );
        f("reports_lost", self.reports_lost);
        f("skew_rejections", self.skew_rejections);
        f("markers_lost", self.markers_lost);
        f("degraded_windows", self.degraded_windows);
        f("worker_losses", self.worker_losses);
        f("aps_added", self.aps_added);
        f("aps_removed", self.aps_removed);
        f("reports_corrupt", self.reports_corrupt);
        f("windows_stalled", self.windows_stalled);
        f("aps_quarantined", self.aps_quarantined);
        f("aps_readmitted", self.aps_readmitted);
        f("watchdog_reaps", self.watchdog_reaps);
    }
}

/// One client's whole-run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSummary {
    /// The client MAC.
    pub mac: MacAddr,
    /// Fixes produced across all windows.
    pub fixes: u64,
    /// Mean localization residual over those fixes, meters.
    pub mean_residual_m: f64,
    /// Cross-AP consensus flags accumulated.
    pub consensus_flags: usize,
    /// The trained consensus reference position, if any.
    pub reference: Option<Point>,
    /// Final smoothed track point.
    pub last_track: Option<TrackPoint>,
}

/// The final report a [`crate::Deployment`] hands back from
/// [`crate::Deployment::finish`].
///
/// For a seeded run every field is byte-deterministic **except** the
/// scheduling-observability counters — queue high-water mark and
/// backpressure event counts — which measure how the worker threads
/// happened to interleave and legitimately vary run to run. The
/// link-health counters (`report_drops`, `reports_lost`,
/// `skew_rejections`, `degraded_windows`) *are* deterministic: loss
/// draws come from per-AP seeded streams, not from scheduling.
///
/// Reading the counters (see `docs/DEPLOYMENT.md` for the full
/// failure-mode table):
///
/// ```
/// use sa_deploy::{ApStats, DeployMetrics, DeploymentReport};
/// # let report = DeploymentReport {
/// #     n_aps: 2,
/// #     metrics: DeployMetrics::default(),
/// #     per_ap: vec![ApStats::default(); 2],
/// #     clients: Vec::new(),
/// #     telemetry: Default::default(),
/// # };
/// for (ap, stats) in report.per_ap.iter().enumerate() {
///     let attempts = stats.packets.max(1);
///     if stats.reports_lost > 0 || stats.report_drops * 10 > attempts {
///         println!("ap{ap}: lossy uplink ({} drops, {} windows lost)",
///                  stats.report_drops, stats.reports_lost);
///     }
/// }
/// if report.metrics.degraded_windows > 0 {
///     println!("{} windows fused with missing APs", report.metrics.degraded_windows);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Size of the AP id space: every AP that was ever a member,
    /// including ones removed (or lost) mid-run. Live membership at
    /// finish is `n_aps − metrics.aps_removed − metrics.worker_losses`.
    pub n_aps: usize,
    /// Deployment-wide counters.
    pub metrics: DeployMetrics,
    /// Per-AP worker statistics (index = stable AP id; removed APs keep
    /// their slot with the stats they accumulated before leaving).
    pub per_ap: Vec<ApStats>,
    /// Per-client summaries, ordered by MAC.
    pub clients: Vec<ClientSummary>,
    /// The telemetry snapshot: every per-AP and fleet counter above
    /// under hierarchical names (`ap.*` labeled by AP id, `fleet.*`),
    /// per-stage latency histograms, and store-occupancy gauges. Empty when
    /// [`crate::DeployConfig::telemetry`] is disabled (the default), so
    /// reports from telemetry-free runs compare byte-identical to
    /// earlier releases.
    pub telemetry: TelemetrySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ap_stats_absorb_sums_every_field() {
        let a = ApStats {
            windows: 1,
            packets: 2,
            observed: 3,
            observe_failures: 4,
            admitted: 5,
            dropped_spoof: 6,
            dropped_other: 7,
            trained: 8,
            bearings: 9,
            backpressure_events: 10,
            report_drops: 11,
            report_retransmits: 12,
            reports_lost: 13,
            skew_rejections: 14,
            markers_lost: 15,
            reports_corrupt: 16,
            windows_stalled: 17,
            quarantined: 18,
            readmitted: 19,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(b.windows, 2);
        assert_eq!(b.packets, 4);
        assert_eq!(b.observed, 6);
        assert_eq!(b.observe_failures, 8);
        assert_eq!(b.admitted, 10);
        assert_eq!(b.dropped_spoof, 12);
        assert_eq!(b.dropped_other, 14);
        assert_eq!(b.trained, 16);
        assert_eq!(b.bearings, 18);
        assert_eq!(b.backpressure_events, 20);
        assert_eq!(b.report_drops, 22);
        assert_eq!(b.report_retransmits, 24);
        assert_eq!(b.reports_lost, 26);
        assert_eq!(b.skew_rejections, 28);
        assert_eq!(b.markers_lost, 30);
        assert_eq!(b.reports_corrupt, 32);
        assert_eq!(b.windows_stalled, 34);
        assert_eq!(b.quarantined, 36);
        assert_eq!(b.readmitted, 38);
        // for_each visits the same fields absorb folds — exhaustive by
        // construction (both come out of the counter_block! macro), and
        // the visited sum doubles along with the fields.
        let (mut names_a, mut sum_a) = (Vec::new(), 0u64);
        a.for_each(|name, v| {
            names_a.push(name);
            sum_a += v;
        });
        let mut sum_b = 0u64;
        b.for_each(|_, v| sum_b += v);
        assert_eq!(names_a.len(), 19);
        assert_eq!(names_a[0], "windows");
        assert_eq!(names_a[14], "markers_lost");
        assert_eq!(names_a[18], "readmitted");
        assert_eq!(sum_b, 2 * sum_a);
    }

    #[test]
    fn deploy_metrics_for_each_covers_every_counter() {
        let mut m = DeployMetrics {
            max_fusion_queue_depth: 999,
            ..Default::default()
        };
        // Give every u64 field a distinct value via the visitor's own
        // field list, then check the visited sum matches.
        m.windows = 1;
        m.transmissions = 2;
        m.decode_failures = 3;
        m.packets_dispatched = 4;
        m.fused_bearings = 5;
        m.fixes = 6;
        m.localize_failures = 7;
        m.consensus_flags = 8;
        m.ingest_backpressure_events = 9;
        m.report_backpressure_events = 10;
        m.reports_lost = 11;
        m.skew_rejections = 12;
        m.markers_lost = 13;
        m.degraded_windows = 14;
        m.worker_losses = 15;
        m.aps_added = 16;
        m.aps_removed = 17;
        m.reports_corrupt = 18;
        m.windows_stalled = 19;
        m.aps_quarantined = 20;
        m.aps_readmitted = 21;
        m.watchdog_reaps = 22;
        let mut names = Vec::new();
        let mut sum = 0u64;
        m.for_each(|name, v| {
            names.push(name);
            sum += v;
        });
        assert_eq!(names.len(), 22);
        assert_eq!(sum, (1..=22).sum::<u64>());
        // The high-water mark is a gauge, not a counter: never visited.
        assert!(!names.contains(&"max_fusion_queue_depth"));
    }
}
