//! The deployment coordinator: inline stage-1 decode, N AP worker
//! threads, skew-tolerant window scheduling, AP churn, and the fusion
//! drain.
//!
//! Each transmission goes to every live worker as soon as it decodes,
//! one message per packet, and the window's numbered end message
//! follows its last packet. The worker queues are unbounded; the window
//! gate in [`Deployment::submit_window`] bounds them in windows.
//!
//! Windows close on end-of-window markers (never wall clocks), but the
//! markers are no longer assumed perfect: workers stamp them with their
//! own skewed clocks (checked by [`crate::align::SkewAligner`]), their
//! payloads may be lost on the lossy report link (the window closes
//! anyway, with that AP's bearings missing), the markers *themselves*
//! may be lost (each dispatch is numbered, so a later marker, a flush
//! reply or the worker's exit reveals exactly which), and workers may
//! join, leave, or die mid-run (a window never waits on an AP that is
//! no longer live). All of it is deterministic for a seeded run.
//!
//! The coordinator learns about its workers from one inbox, and every
//! wait on it is a blocking receive. Each worker thread, however it
//! ends, sends `Exited` as its last message. Each `(AP, window)`
//! settles into one outcome in its window's ledger, which the
//! close condition, the fused counts, the consensus slack and the
//! health evidence all read.

use crate::align::SkewAligner;
use crate::config::{ApSkew, DeployConfig, DeployError};
use crate::faults::payload_checksum;
use crate::fusion::{bearing_err_deg, Fusion};
use crate::health::{ApWindowEvidence, FleetHealth, HealthAction, BEARING_ERR_WARN_DEG};
use crate::report::{ApStats, DeployMetrics, DeploymentReport, FusedWindow};
use crate::telemetry::{self, WorkerTap};
use crate::worker::{run_worker, CoordinatorMsg, WindowDone, WorkerCfg, WorkerMsg, WorkerPacket};
use sa_channel::geom::Point;
use sa_linalg::CMat;
use sa_mac::MacAddr;
use sa_phy::Modulation;
use sa_telemetry::{Histogram, Registry, StageTimer, TelemetrySnapshot};
use secureangle::pipeline::decode_reference;
use secureangle::AccessPoint;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One client transmission as every live AP heard it: `per_ap[k]` is
/// the `k`-th *live* AP's multi-antenna capture of the same frame.
/// Captures are reference-counted so staging a transmission is cheap.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// One capture per live AP, in live-AP order.
    pub per_ap: Vec<Arc<CMat>>,
}

impl Transmission {
    /// Wrap raw per-AP captures (e.g. from
    /// `sa_testbed::Testbed::transmission`).
    pub fn new(captures: Vec<CMat>) -> Self {
        Self {
            per_ap: captures.into_iter().map(Arc::new).collect(),
        }
    }
}

/// One AP's slot in the deployment. AP ids are stable for the life of
/// the deployment and never reused; a removed or crashed AP keeps its
/// slot (for stats attribution) with `alive = false`.
struct WorkerSlot {
    tx: Option<Sender<WorkerMsg>>,
    /// Windows whose end message went to the worker and that have not
    /// completed yet (no report, lost-marker notice or exit): what the
    /// window gate in [`Deployment::submit_window`] bounds.
    in_flight: usize,
    join: Option<JoinHandle<(AccessPoint, ApStats)>>,
    alive: bool,
    /// The worker's `Exited` message has arrived (after all its
    /// reports). A dead worker's membership ends later, at the first
    /// window it failed to report, in [`Deployment::collect_window`].
    exited: bool,
    /// Run totals captured when the worker left early (removed or
    /// reaped); `None` while running or if the thread panicked.
    final_stats: Option<ApStats>,
}

/// Reports buffered for one not-yet-closed window — one cell of the
/// coordinator's reorder buffer.
#[derive(Default)]
struct WindowBin {
    /// AP ids that were live when the window was submitted: the close
    /// condition. An AP that dies afterward stops being waited on.
    expected: Vec<usize>,
    /// The window's ledger, by AP id. An expected AP missing here has
    /// not reported — yet, or ever, if its worker died.
    settled: BTreeMap<usize, Settled>,
    packets: Vec<crate::report::ApPacket>,
}

/// How one `(AP, window)` settled; written once.
#[derive(Clone, Copy)]
struct Settled {
    delivery: Delivery,
    /// The marker arrived flagged stalled (wedged DSP, empty payload).
    stalled: bool,
    /// The worker's counters for the window (zero for a lost marker).
    stats: ApStats,
}

/// What became of one AP's end-of-window marker and payload. Anything
/// but `Fused` means its data never usably arrived.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// Passed every check (withheld instead if quarantined at close).
    Fused,
    /// The payload was lost on the link; only the marker arrived.
    Lost,
    /// The window label drifted beyond the skew tolerance.
    SkewRejected,
    /// The payload failed the wire checksum.
    Corrupt,
    /// The marker itself was lost, revealed by a later marker, a flush
    /// reply or the worker's exit.
    MarkerLost,
}

/// A running multi-AP deployment (see the crate docs for the data
/// flow). Construction spawns one worker thread per AP; dropping
/// without [`Deployment::finish`] shuts the workers down but discards
/// their state.
///
/// ```no_run
/// use sa_deploy::{ApSkew, DeployConfig, Deployment, LinkConfig, Transmission};
/// # fn aps() -> Vec<secureangle::AccessPoint> { Vec::new() }
/// # fn spare_ap() -> secureangle::AccessPoint { unimplemented!() }
/// # fn captures(_n: usize) -> Vec<Transmission> { Vec::new() }
///
/// // A degraded-mode deployment: 10% report loss with 3 retransmits,
/// // tolerate up to ±2 windows of per-AP clock skew.
/// let cfg = DeployConfig {
///     link: LinkConfig { loss_rate: 0.10, retry_limit: 3, seed: 7 },
///     max_skew_windows: 2,
///     ..DeployConfig::default()
/// };
/// let skews = vec![ApSkew { window_offset: 2, seq_offset: 40, drift_ppw: 0.0 }; 4];
/// let mut deployment = Deployment::with_skews(aps(), cfg, skews);
///
/// deployment.submit_window(captures(deployment.live_aps())).unwrap();
/// let fused = deployment.collect_window().unwrap();
/// assert!(fused.lost_reports <= fused.expected_aps);
///
/// // Mid-run churn: a new AP joins (consensus re-baselines), a flaky
/// // one is pulled. Windows already in flight still close.
/// let new_id = deployment.add_ap(spare_ap());
/// let _flaky = deployment.remove_ap(0).unwrap();
/// assert!(new_id > 0);
///
/// let (report, _aps) = deployment.finish();
/// println!("{} windows, {} degraded", report.metrics.windows,
///          report.metrics.degraded_windows);
/// ```
pub struct Deployment {
    cfg: DeployConfig,
    modulation: Modulation,
    slots: Vec<WorkerSlot>,
    /// The coordinator's one inbox: every worker's reports and exits.
    up_tx: SyncSender<CoordinatorMsg>,
    up_rx: Receiver<CoordinatorMsg>,
    fusion: Fusion,
    aligner: SkewAligner,
    /// The AP immune system: per-AP scores, quarantine membership, and
    /// the stall watchdog. Inert when [`crate::HealthConfig::enabled`]
    /// is off (the default).
    health: FleetHealth,
    /// Windows submitted but not yet collected, in order.
    pending: VecDeque<u64>,
    next_window: u64,
    bins: BTreeMap<u64, WindowBin>,
    metrics: DeployMetrics,
    per_ap_window_stats: Vec<ApStats>,
    /// The stage-histogram registry; `None` when
    /// [`DeployConfig::telemetry`] is disabled (the default).
    registry: Option<Registry>,
    /// `stage.decode` histogram handle (`None` with telemetry off).
    decode_hist: Option<Arc<Histogram>>,
}

impl Deployment {
    /// Spawn a deployment over the given APs with synchronized clocks.
    /// All APs must share one modulation (the shared decode runs once
    /// per transmission) and have a circular array if their bearings
    /// are to contribute global azimuths. Panics on an empty AP list or
    /// mixed modulations.
    pub fn new(aps: Vec<AccessPoint>, cfg: DeployConfig) -> Self {
        let skews = vec![ApSkew::NONE; aps.len()];
        Self::with_skews(aps, cfg, skews)
    }

    /// [`Deployment::new`] with a per-AP clock-skew model: `skews[k]`
    /// is AP `k`'s [`ApSkew`]. Panics if the lengths differ.
    pub fn with_skews(aps: Vec<AccessPoint>, cfg: DeployConfig, skews: Vec<ApSkew>) -> Self {
        assert!(!aps.is_empty(), "deployment needs at least one AP");
        assert_eq!(aps.len(), skews.len(), "one ApSkew per AP required");
        let modulation = aps[0].config().modulation;
        assert!(
            aps.iter().all(|ap| ap.config().modulation == modulation),
            "deployment APs must share one modulation"
        );
        let (mut registry, fusion_taps) = telemetry::build(cfg.telemetry).unzip();
        let decode_hist = registry.as_mut().map(|r| r.histogram("stage.decode", &[]));

        let n_aps = aps.len();
        let positions = aps.iter().map(|ap| ap.config().position).collect();
        let mut fusion = Fusion::new(positions, cfg.clone());
        let (up_tx, up_rx) = sync_channel(cfg.channel_capacity.max(1));
        let mut aligner = SkewAligner::new(cfg.max_skew_windows);
        let mut health = FleetHealth::new(cfg.health);
        let slots = aps
            .into_iter()
            .zip(skews)
            .enumerate()
            .map(|(ap_id, (ap, skew))| {
                aligner.add_ap();
                health.add_ap();
                let tap = worker_tap(registry.as_mut(), ap_id);
                spawn_worker(ap_id, ap, &cfg, skew, up_tx.clone(), tap)
            })
            .collect();

        if let Some(taps) = fusion_taps {
            fusion.attach_telemetry(taps);
        }
        Self {
            fusion,
            registry,
            decode_hist,
            cfg,
            health,
            modulation,
            slots,
            up_tx,
            up_rx,
            aligner,
            pending: VecDeque::new(),
            next_window: 0,
            bins: BTreeMap::new(),
            metrics: DeployMetrics::default(),
            per_ap_window_stats: vec![ApStats::default(); n_aps],
        }
    }

    /// Number of *live* APs — the capture count
    /// [`Deployment::submit_window`] expects per transmission.
    pub fn live_aps(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// The ids of the live APs, ascending — `live_ap_ids()[k]` is the
    /// AP that hears `Transmission::per_ap[k]`.
    pub fn live_ap_ids(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(id, _)| id)
            .collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeployConfig {
        &self.cfg
    }

    /// AP positions, by stable AP id (including retired APs).
    pub fn ap_positions(&self) -> &[Point] {
        self.fusion.ap_positions()
    }

    /// Running deployment-wide counters.
    pub fn metrics(&self) -> &DeployMetrics {
        &self.metrics
    }

    /// Per-AP statistics accumulated so far (from closed windows only;
    /// the final totals come back in the [`DeploymentReport`]).
    pub fn per_ap_stats(&self) -> &[ApStats] {
        &self.per_ap_window_stats
    }

    /// A client's trained consensus reference position.
    pub fn reference(&self, mac: &MacAddr) -> Option<Point> {
        self.fusion.reference(mac)
    }

    /// Add an AP to the running deployment (synchronized clock). The
    /// new AP participates from the next submitted window; windows
    /// already in flight close with their original membership. Returns
    /// the new AP's stable id. Consensus references re-baseline: fused
    /// geometry shifts with membership, so every client retrains its
    /// reference from its next clean fix. Panics if the AP's modulation
    /// differs from the deployment's.
    pub fn add_ap(&mut self, ap: AccessPoint) -> usize {
        assert_eq!(
            ap.config().modulation,
            self.modulation,
            "deployment APs must share one modulation"
        );
        let ap_id = self.slots.len();
        self.aligner.add_ap();
        self.health.add_ap();
        self.fusion.add_ap(ap.config().position);
        self.per_ap_window_stats.push(ApStats::default());
        let tap = worker_tap(self.registry.as_mut(), ap_id);
        self.slots.push(spawn_worker(
            ap_id,
            ap,
            &self.cfg,
            ApSkew::NONE,
            self.up_tx.clone(),
            tap,
        ));
        self.metrics.aps_added += 1;
        self.fusion.rebaseline();
        ap_id
    }

    /// Remove a live AP from the running deployment, returning it with
    /// its trained state. The worker first drains every window already
    /// dispatched to it — a mid-run removal never stalls or abandons an
    /// in-flight window — then shuts down. Windows submitted afterward
    /// expect one fewer capture. Consensus references re-baseline.
    ///
    /// Errors: [`DeployError::UnknownAp`] if the id is not live,
    /// [`DeployError::LastAp`] if this is the last live AP, and
    /// [`DeployError::WorkerLost`] if the worker dies while draining.
    pub fn remove_ap(&mut self, ap_id: usize) -> Result<AccessPoint, DeployError> {
        if !self.slots.get(ap_id).is_some_and(|s| s.alive) {
            return Err(DeployError::UnknownAp { ap_id });
        }
        if self.live_aps() == 1 {
            return Err(DeployError::LastAp);
        }
        // Hang up, then drain: the worker finishes its queue, and its
        // exit notice settles any lost tail marker.
        self.slots[ap_id].tx = None;
        self.drain_until_exited(&[ap_id]);
        // Anything still outstanding means the worker died (a crash or a
        // panic): a worker loss, and its AP is not handed back.
        let finished = self.aligner.pending(ap_id) == 0;
        match self.end_membership(ap_id) {
            Some(ap) if finished => {
                self.metrics.aps_removed += 1;
                Ok(ap)
            }
            _ => {
                self.metrics.worker_losses += 1;
                Err(DeployError::WorkerLost {
                    window: self.next_window,
                })
            }
        }
    }

    /// Current health score for `ap_id`, `[0, 1]` (1.0 when the health
    /// layer is disabled or the AP has a clean record).
    pub fn health_score(&self, ap_id: usize) -> f64 {
        self.health.score(ap_id)
    }

    /// Ids of the APs currently quarantined by the health layer,
    /// ascending (always empty when health is disabled).
    pub fn quarantined_aps(&self) -> Vec<usize> {
        self.health.quarantined_aps()
    }

    /// Ingest one observation window of traffic: run the shared stage-1
    /// decode per transmission and stream each decoded transmission's
    /// per-AP captures (plus the shared [`secureangle::DecodedPacket`])
    /// to every live worker as soon as it decodes, so the workers' DSP
    /// overlaps the decode of the rest of the window; an end message
    /// follows the last one. Returns the window number. Transmissions
    /// whose reference capture contains no detectable packet are
    /// counted in [`DeployMetrics::decode_failures`] and skipped
    /// fleet-wide.
    ///
    /// Before the window's first packet goes out, the call routes the
    /// inbox while any live worker has
    /// [`DeployConfig::channel_capacity`] windows in flight (each wait
    /// counts in [`DeployMetrics::ingest_backpressure_events`]). Each
    /// of those windows has been sent whole, so its worker completes it
    /// without further input, and the wait ends.
    pub fn submit_window(&mut self, transmissions: Vec<Transmission>) -> Result<u64, DeployError> {
        let live = self.live_ap_ids();
        if live.is_empty() {
            return Err(DeployError::WorkerLost {
                window: self.next_window,
            });
        }
        for t in &transmissions {
            if t.per_ap.len() != live.len() {
                return Err(DeployError::ApCountMismatch {
                    expected: live.len(),
                    got: t.per_ap.len(),
                });
            }
        }
        let window = self.next_window;
        self.next_window += 1;
        self.wait_for_room(&live);
        self.bins.insert(
            window,
            WindowBin {
                expected: live.clone(),
                ..WindowBin::default()
            },
        );

        // Stage 1, inline, once per transmission (reference capture =
        // the first live AP's), in sequence order, each result sent on
        // at once. An exited worker is still a *member* — its
        // membership ends at the collect of its first unreported window
        // — so the dispatch is accounted identically whether its exit
        // arrived before this send, during it, or not yet at all: *when*
        // a crash is noticed never changes a byte.
        let mut first_seq = None;
        for (seq, t) in transmissions.into_iter().enumerate() {
            self.metrics.transmissions += 1;
            let decoded = {
                let _span = StageTimer::start(self.decode_hist.as_deref());
                decode_reference(&t.per_ap[0], self.modulation)
            };
            let Ok(decoded) = decoded else {
                self.metrics.decode_failures += 1;
                continue;
            };
            let seq = seq as u64;
            first_seq.get_or_insert(seq);
            let decoded = Arc::new(decoded);
            self.metrics.packets_dispatched += live.len() as u64;
            for (&ap_id, buffer) in live.iter().zip(t.per_ap) {
                let packet = WorkerPacket {
                    buffer,
                    decoded: decoded.clone(),
                    seq,
                };
                self.send_to_worker(ap_id, WorkerMsg::Packet { window, packet });
            }
        }
        for &ap_id in &live {
            let dispatch = self.aligner.note_dispatch(ap_id, window, first_seq);
            if self.send_to_worker(ap_id, WorkerMsg::End { window, dispatch }) {
                self.slots[ap_id].in_flight += 1;
            }
        }
        self.pending.push_back(window);
        Ok(window)
    }

    /// The window gate: route the inbox until no live worker of `live`
    /// has [`DeployConfig::channel_capacity`] windows in flight. The
    /// worker queues are unbounded, so this is the one bound on them; a
    /// bound counted in packets could leave the coordinator waiting on
    /// a worker that drains packets without sending anything.
    fn wait_for_room(&mut self, live: &[usize]) {
        let cap = self.cfg.channel_capacity.max(1);
        let full = |slot: &WorkerSlot| slot.tx.is_some() && slot.in_flight >= cap;
        for &ap_id in live {
            if full(&self.slots[ap_id]) {
                self.metrics.ingest_backpressure_events += 1;
                while full(&self.slots[ap_id]) {
                    self.route_next();
                }
            }
        }
    }

    /// Block for the next inbox message and route it.
    fn route_next(&mut self) {
        let msg = self.up_rx.recv().expect("the coordinator holds a sender");
        self.route(msg);
    }

    /// Apply one inbox message to the ledger and the worker slots.
    fn route(&mut self, msg: CoordinatorMsg) {
        match msg {
            CoordinatorMsg::Window(done) => {
                self.window_completed(done.ap_id);
                self.settle_report(done);
            }
            // Lost in transit: the coordinator never heard it, so only
            // the window gate counts it.
            CoordinatorMsg::MarkerLost { ap_id } => self.window_completed(ap_id),
            CoordinatorMsg::Flushed { ap_id, finished } => self.settle_lost(ap_id, finished),
            CoordinatorMsg::Exited { ap_id, finished } => {
                self.settle_lost(ap_id, finished);
                let slot = &mut self.slots[ap_id];
                slot.tx = None;
                slot.exited = true;
            }
        }
    }

    /// One of AP `ap_id`'s in-flight windows completed.
    fn window_completed(&mut self, ap_id: usize) {
        let slot = &mut self.slots[ap_id];
        slot.in_flight = slot.in_flight.saturating_sub(1);
    }

    /// Settle one worker report in its window's ledger: settle the
    /// earlier dispatches it proves lost, map it to its dispatch
    /// record, and reject labels beyond the skew tolerance.
    fn settle_report(&mut self, done: WindowDone) {
        self.settle_lost(done.ap_id, done.dispatch);
        let aligned = self
            .aligner
            .align(done.ap_id, done.dispatch, done.label, done.seq_base);
        let Some(aligned) = aligned else {
            // Unattributable (nothing outstanding for the AP — e.g. it
            // was reaped and forgotten): discard.
            return;
        };
        let Some(bin) = self.bins.get_mut(&aligned.global) else {
            return;
        };
        if done.stalled {
            // Wedged DSP: the marker closed the window but the payload
            // is empty. A run of these trips the stall watchdog.
            self.metrics.windows_stalled += 1;
        }
        let delivery = if done.lost {
            self.metrics.reports_lost += 1;
            Delivery::Lost
        } else if !aligned.accepted {
            self.metrics.skew_rejections += 1;
            self.per_ap_window_stats[done.ap_id].skew_rejections += 1;
            Delivery::SkewRejected
        } else if payload_checksum(done.label, done.seq_base, &done.packets) != done.checksum {
            // Wire corruption: the payload does not match the checksum
            // the worker computed when it sent it. Reject the whole
            // payload — a bit-flipped bearing must never be fused.
            self.metrics.reports_corrupt += 1;
            self.per_ap_window_stats[done.ap_id].reports_corrupt += 1;
            Delivery::Corrupt
        } else {
            let mut packets = done.packets;
            for p in &mut packets {
                p.window = aligned.global;
                p.seq = (p.seq as i64 - aligned.seq_delta) as u64;
                if let Some(r) = &mut p.report {
                    r.seq = p.seq;
                }
            }
            bin.packets.extend(packets);
            Delivery::Fused
        };
        bin.settled.insert(
            done.ap_id,
            Settled {
                delivery,
                stalled: done.stalled,
                stats: done.stats,
            },
        );
        let depth: usize = self.bins.values().map(|b| b.packets.len()).sum();
        self.metrics.max_fusion_queue_depth = self.metrics.max_fusion_queue_depth.max(depth);
    }

    /// Close the books on every `(AP, window)` that AP `ap_id`'s
    /// worker has finished (dispatch numbers below `finished`) without
    /// its end-of-window marker arriving: the marker was lost. The AP
    /// counts as reported — so the window can close — but contributed
    /// no bearings, and the loss earns consensus slack in
    /// [`Deployment::collect_window`].
    fn settle_lost(&mut self, ap_id: usize, finished: u64) {
        for window in self.aligner.settle_before(ap_id, finished) {
            self.metrics.markers_lost += 1;
            self.per_ap_window_stats[ap_id].markers_lost += 1;
            if let Some(bin) = self.bins.get_mut(&window) {
                bin.settled.entry(ap_id).or_insert(Settled {
                    delivery: Delivery::MarkerLost,
                    stalled: false,
                    stats: ApStats::default(),
                });
            }
        }
    }

    /// Send `msg` to a worker unless it is gone (its `Exited` is then on
    /// the way). Never blocks: the worker queues are unbounded, and
    /// [`Deployment::wait_for_room`] bounds them in windows. Returns
    /// whether the message went out.
    fn send_to_worker(&mut self, ap_id: usize, msg: WorkerMsg) -> bool {
        let slot = &mut self.slots[ap_id];
        let sent = slot.tx.as_ref().is_some_and(|tx| tx.send(msg).is_ok());
        if !sent {
            slot.tx = None;
        }
        sent
    }

    /// Route the inbox until each of `ap_ids`' workers has sent its
    /// last message, `Exited`. A worker's sends block on a full inbox,
    /// so joining a thread before then could deadlock; every join goes
    /// through here first.
    fn drain_until_exited(&mut self, ap_ids: &[usize]) {
        while ap_ids.iter().any(|&k| !self.slots[k].exited) {
            self.route_next();
        }
    }

    /// End a live AP's membership — the one exit shared by removal,
    /// worker loss and the stall watchdog: join its (already exited)
    /// thread, keep its run totals for the report, forget its
    /// outstanding dispatches, retire it from fusion and the health
    /// layer, and re-baseline the consensus once. Returns the AP if the
    /// thread returned it; each caller counts its own kind of exit.
    fn end_membership(&mut self, ap_id: usize) -> Option<AccessPoint> {
        let slot = &mut self.slots[ap_id];
        debug_assert!(slot.alive, "AP {ap_id} ended its membership twice");
        slot.alive = false;
        slot.tx = None;
        let ap = match slot.join.take().map(JoinHandle::join) {
            Some(Ok((ap, stats))) => {
                slot.final_stats = Some(stats);
                Some(ap)
            }
            _ => None,
        };
        self.aligner.forget_ap(ap_id);
        self.fusion.retire_ap(ap_id);
        self.health.mark_dead(ap_id);
        self.fusion.rebaseline();
        ap
    }

    /// Reap a *live* worker whose stall run hit the watchdog: hang up
    /// its input channel (the worker drains its queue and exits
    /// normally at the next receive), route its reports until its
    /// `Exited` message arrives, end its membership. Deterministic —
    /// triggered by a window count, never a wall clock, and counted in
    /// [`DeployMetrics::watchdog_reaps`] rather than `worker_losses`.
    fn watchdog_reap(&mut self, ap_id: usize) {
        if !self.slots[ap_id].alive {
            return;
        }
        self.slots[ap_id].tx = None;
        self.drain_until_exited(&[ap_id]);
        self.end_membership(ap_id);
        self.metrics.watchdog_reaps += 1;
    }

    /// Is window `w`'s bin closable: every AP expected at submit has
    /// either settled in the ledger, exited (it will never report
    /// again), or is no longer live.
    fn closable(&self, window: u64) -> bool {
        match self.bins.get(&window) {
            Some(bin) => bin.expected.iter().all(|&k| {
                bin.settled.contains_key(&k) || !self.slots[k].alive || self.slots[k].exited
            }),
            None => true,
        }
    }

    /// Block until the oldest in-flight window has closed — every AP
    /// that was live at submit has reported (or died) — then fuse and
    /// return it. Reports for later windows that arrive in the meantime
    /// are buffered in the reorder buffer (their depth shows up in
    /// [`DeployMetrics::max_fusion_queue_depth`]). A window whose data
    /// is partial (lost reports, skew rejections, dead APs) is fused
    /// from the bearings that survived; see [`FusedWindow::lost_reports`]
    /// and [`FusedWindow::skew_rejected`].
    ///
    /// A lost marker at the tail of an AP's queue has no later marker
    /// to reveal it, so before the first blocking wait — once the inbox
    /// holds nothing more — each AP still silent on the window is asked
    /// once for a flush reply. The reply follows everything the AP had
    /// queued, so it settles the window either way, and every wait
    /// here ends.
    pub fn collect_window(&mut self) -> Result<FusedWindow, DeployError> {
        let window = self
            .pending
            .pop_front()
            .ok_or(DeployError::NothingSubmitted)?;
        let mut asked = false;
        while !self.closable(window) {
            if let Ok(msg) = self.up_rx.try_recv() {
                self.route(msg);
            } else if asked {
                self.route_next();
            } else {
                asked = true;
                let bin = &self.bins[&window];
                let silent: Vec<usize> = bin
                    .expected
                    .iter()
                    .copied()
                    .filter(|k| !bin.settled.contains_key(k))
                    .collect();
                for k in silent {
                    self.send_to_worker(k, WorkerMsg::Flush);
                }
            }
        }

        let bin = self.bins.remove(&window).unwrap_or_default();
        // Membership end for exited workers, at the first window each
        // one failed to report. Collects run strictly in window order,
        // so this lands at the same window on every rerun, no matter
        // *when* the exit arrived. A worker that reported everything it
        // was dispatched is never swept.
        for &k in &bin.expected {
            if !bin.settled.contains_key(&k) && self.slots[k].alive && self.slots[k].exited {
                // The AP object itself is dropped: a crashed worker's
                // state is not trusted. Its counters are still real.
                self.end_membership(k);
                self.metrics.worker_losses += 1;
            }
        }
        for (&ap_id, s) in &bin.settled {
            self.per_ap_window_stats[ap_id].absorb(&s.stats);
            self.metrics.report_backpressure_events += s.stats.backpressure_events;
        }
        // Quarantine filter, read at collect time (deterministic at any
        // pipelining depth): a quarantined AP's packets are withheld
        // from fusion (still scored for its readmission), it leaves the
        // expected-AP denominator, and its losses earn no slack.
        let quarantined: Vec<usize> = bin
            .expected
            .iter()
            .copied()
            .filter(|&k| self.health.is_quarantined(k))
            .collect();
        let (mut packets, withheld): (Vec<_>, Vec<_>) = bin
            .packets
            .into_iter()
            .partition(|p| !quarantined.contains(&p.ap_id));
        // Down-weighting: a degraded AP's report confidence is scaled by
        // its health score (exactly 1.0 when healthy, so clean runs stay
        // byte-identical). Only confidence-weighted fusion
        // (`weight_bearings_by_confidence`, off by default) lets that
        // move a fix; otherwise it shows only in
        // `ClientFix::mean_confidence` and the flight-recorder evidence.
        if self.health.enabled() {
            for p in &mut packets {
                if let Some(r) = &mut p.report {
                    r.confidence *= self.health.weight(p.ap_id);
                }
            }
        }
        // Degradation the coordinator *knows* about — and the only
        // thing that earns consensus slack downstream: each expected,
        // unquarantined AP counts once if it never settled (a dead
        // worker), was stalled, or delivered anything but a fused
        // report.
        let missing_aps = bin
            .expected
            .iter()
            .filter(|k| !quarantined.contains(k))
            .filter(|k| {
                bin.settled
                    .get(k)
                    .is_none_or(|s| s.delivery != Delivery::Fused || s.stalled)
            })
            .count();
        if missing_aps > 0 {
            self.metrics.degraded_windows += 1;
        }
        let count = |d: Delivery| bin.settled.values().filter(|s| s.delivery == d).count();
        let mut fused = self.fusion.fuse_window_degraded(
            window,
            packets,
            bin.expected.len() - quarantined.len(),
            missing_aps,
            quarantined.len(),
        );
        fused.lost_reports = count(Delivery::Lost);
        fused.skew_rejected = count(Delivery::SkewRejected);
        fused.markers_lost = count(Delivery::MarkerLost);
        fused.corrupt_reports = count(Delivery::Corrupt);
        fused.stalled_aps = bin.settled.values().filter(|s| s.stalled).count();
        fused.quarantined_aps = quarantined.len();
        self.metrics.windows += 1;
        self.metrics.fused_bearings += fused.bearings as u64;
        self.metrics.localize_failures += fused.localize_failures as u64;
        for c in &fused.clients {
            if c.fix.is_some() {
                self.metrics.fixes += 1;
            }
            if c.consensus.is_spoof() {
                self.metrics.consensus_flags += 1;
            }
        }
        if self.health.enabled() {
            self.observe_health(&bin.settled, &withheld, &fused);
        }
        Ok(fused)
    }

    /// Fold one fused window's per-AP evidence into the health layer
    /// and apply the resulting actions. The evidence is assembled from
    /// order-independent aggregates (flags, counts, maxima), so the
    /// scores — and every quarantine/readmit/reap decision — are
    /// byte-deterministic at any pipelining depth. `withheld` are the
    /// quarantined APs' packets, kept out of fusion.
    fn observe_health(
        &mut self,
        settled: &BTreeMap<usize, Settled>,
        withheld: &[crate::report::ApPacket],
        fused: &FusedWindow,
    ) {
        let mut ev = vec![ApWindowEvidence::default(); self.slots.len()];
        for e in &fused.ap_bearing_errors {
            let x = &mut ev[e.ap_id];
            x.bearings = e.bearings;
            x.over_warn = e.over_warn;
            x.max_err_deg = e.max_err_deg;
        }
        for (&k, s) in settled {
            ev[k].unavailable = s.delivery != Delivery::Fused;
            ev[k].stalled = s.stalled;
        }
        // A quarantined AP's withheld packets are scored against the
        // *untainted* fused fixes: a clean streak here is what earns
        // its re-admission.
        for p in withheld {
            let Some(r) = &p.report else { continue };
            let Some(fix) = fused
                .clients
                .iter()
                .find(|c| c.mac == r.mac)
                .and_then(|c| c.fix.as_ref())
            else {
                continue;
            };
            let err = bearing_err_deg(self.ap_positions()[p.ap_id], fix.position, r.azimuth);
            let x = &mut ev[p.ap_id];
            x.bearings += 1;
            if err > BEARING_ERR_WARN_DEG {
                x.over_warn += 1;
            }
            if err > x.max_err_deg {
                x.max_err_deg = err;
            }
        }
        for action in self.health.observe_window(&ev) {
            match action {
                HealthAction::Quarantine(k) => {
                    self.metrics.aps_quarantined += 1;
                    self.per_ap_window_stats[k].quarantined += 1;
                    // Fused geometry shifts without the outlier —
                    // stale references would false-flag every client.
                    self.fusion.rebaseline();
                }
                HealthAction::Readmit(k) => {
                    self.metrics.aps_readmitted += 1;
                    self.per_ap_window_stats[k].readmitted += 1;
                    self.fusion.rebaseline();
                }
                HealthAction::Reap(k) => self.watchdog_reap(k),
            }
        }
    }

    /// A point-in-time [`TelemetrySnapshot`]: fleet and per-AP counters
    /// built from the deterministic [`DeployMetrics`]/[`ApStats`]
    /// sources, health and fusion occupancy gauges, and every per-stage
    /// latency histogram recorded so far. Empty when telemetry is
    /// disabled. While the run is live the per-AP counters reflect
    /// *closed windows* (the full-run totals, including in-flight work,
    /// arrive in [`DeploymentReport::telemetry`] from
    /// [`Deployment::finish`]).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.build_snapshot(&self.per_ap_window_stats, &[])
    }

    /// The snapshot behind [`Deployment::telemetry_snapshot`] and
    /// [`Deployment::finish`], over the given per-AP totals. Only
    /// `finish` has the APs' signature stores back in hand, so only it
    /// passes `(ap_id, trained clients)` pairs for the
    /// `store.occupancy` gauge.
    fn build_snapshot(
        &self,
        per_ap: &[ApStats],
        store_occupancy: &[(usize, usize)],
    ) -> TelemetrySnapshot {
        let Some(registry) = &self.registry else {
            return TelemetrySnapshot::default();
        };
        let mut s = registry.snapshot();
        self.metrics
            .for_each(|name, v| s.push_counter(format!("fleet.{name}"), &[], v));
        for (ap_id, stats) in per_ap.iter().enumerate() {
            let ap = ap_id.to_string();
            let labels = [("ap", ap.as_str())];
            stats.for_each(|name, v| s.push_counter(format!("ap.{name}"), &labels, v));
            // The health score is a ratio in [0, 1]; gauges are
            // integers, so it is exported in milli-units (1000 =
            // perfectly healthy).
            let milli = (self.health.score(ap_id) * 1000.0).round() as i64;
            s.push_gauge("ap.health_score".into(), &labels, milli);
        }
        for &(ap_id, trained) in store_occupancy {
            let ap = ap_id.to_string();
            s.push_gauge("store.occupancy".into(), &[("ap", &ap)], trained as i64);
        }
        for (name, v) in [
            (
                "fleet.max_fusion_queue_depth",
                self.metrics.max_fusion_queue_depth as u64,
            ),
            ("fusion.rebaselines", self.fusion.rebaseline_count()),
            (
                "fusion.tracked_clients",
                self.fusion.tracked_clients() as u64,
            ),
            (
                "recorder.clients",
                self.fusion.recorder().map_or(0, |r| r.client_count()) as u64,
            ),
        ] {
            s.push_gauge(name.into(), &[], v as i64);
        }
        s.sort();
        s
    }

    /// Render the flight recorder's per-client post-mortem for `mac`:
    /// one block per recorded window (oldest first) showing the
    /// bearings, fix, reference and consensus verdict that produced
    /// each decision — the evidence trail behind a spoof flag. `None`
    /// when the flight recorder is off or has nothing for this client.
    pub fn explain(&self, mac: &MacAddr) -> Option<String> {
        let events = self.fusion.recorder()?.events(*mac)?;
        let flags = events.iter().filter(|e| e.verdict.is_spoof()).count();
        let mut out = format!(
            "client {mac}: {} recorded window(s), {} spoof verdict(s)\n",
            events.len(),
            flags
        );
        for e in events {
            out.push_str(&e.render());
        }
        Some(out)
    }

    /// Submit one window and immediately collect it — the synchronous
    /// convenience path. [`Deployment::run_stream`] pipelines several
    /// windows in flight instead.
    pub fn run_window(
        &mut self,
        transmissions: Vec<Transmission>,
    ) -> Result<FusedWindow, DeployError> {
        self.submit_window(transmissions)?;
        self.collect_window()
    }

    /// Number of windows currently submitted but not yet collected.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Run a sequence of windows with up to
    /// [`DeployConfig::windows_in_flight`] of them in flight. Within a
    /// window the workers' DSP already overlaps the decode (each packet
    /// goes out as it decodes); across windows, while the workers finish
    /// window *w*, the coordinator already runs stage-1 decode for
    /// *w+1* (and beyond, up to the depth) instead of idling until the
    /// fuse. Fused windows come back in submission order and are
    /// byte-identical to the depth-1 (submit-then-collect) loop —
    /// streaming changes the overlap, never the numbers.
    ///
    /// On an error the windows fused so far are lost to the caller;
    /// in-flight ones remain collectable via
    /// [`Deployment::collect_window`] (and [`Deployment::finish`] still
    /// drains them).
    pub fn run_stream(
        &mut self,
        windows: Vec<Vec<Transmission>>,
    ) -> Result<Vec<FusedWindow>, DeployError> {
        let depth = self.cfg.windows_in_flight.max(1);
        let mut out = Vec::with_capacity(windows.len());
        for transmissions in windows {
            while self.pending.len() >= depth {
                out.push(self.collect_window()?);
            }
            self.submit_window(transmissions)?;
        }
        while !self.pending.is_empty() {
            out.push(self.collect_window()?);
        }
        Ok(out)
    }

    /// Drain any in-flight windows, shut the workers down, and return
    /// the final report together with the still-live APs (whose trained
    /// signature stores and quarantine state survive the deployment;
    /// APs removed mid-run were already handed back by
    /// [`Deployment::remove_ap`], and crashed APs' state is gone).
    pub fn finish(mut self) -> (DeploymentReport, Vec<AccessPoint>) {
        // Hang up *before* the drain, as in `remove_ap`: each worker
        // finishes its queue and its exit notice settles any lost tail
        // marker.
        for slot in &mut self.slots {
            slot.tx = None;
        }
        while !self.pending.is_empty() {
            if self.collect_window().is_err() {
                break;
            }
        }
        // A worker may still be parked sending its exit notice.
        self.drain_until_exited(&(0..self.slots.len()).collect::<Vec<_>>());
        let mut per_ap = Vec::with_capacity(self.slots.len());
        let mut store_occupancy = Vec::new();
        let mut aps = Vec::new();
        for (ap_id, slot) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            let mut stats = match slot.join.map(JoinHandle::join) {
                Some(Ok((ap, stats))) => {
                    // Store occupancy, readable now that the AP's
                    // trained signature store is back in hand.
                    store_occupancy.push((ap_id, ap.spoof.trained_count()));
                    aps.push(ap);
                    stats
                }
                // Removed or reaped earlier: use the captured totals,
                // falling back to the closed-window view for a panicked
                // worker whose totals died with it.
                _ => slot.final_stats.unwrap_or(self.per_ap_window_stats[ap_id]),
            };
            // Counters only the coordinator can see (a worker cannot
            // observe its own clock error, wire corruption, or
            // quarantine status) are grafted onto the worker-side
            // totals here.
            stats.skew_rejections = self.per_ap_window_stats[ap_id].skew_rejections;
            stats.reports_corrupt = self.per_ap_window_stats[ap_id].reports_corrupt;
            stats.quarantined = self.per_ap_window_stats[ap_id].quarantined;
            stats.readmitted = self.per_ap_window_stats[ap_id].readmitted;
            per_ap.push(stats);
        }
        // The final snapshot uses the *full-run* per-AP totals (richer
        // than the closed-window view the live snapshot uses). Disabled
        // telemetry yields the empty default snapshot, keeping reports
        // byte-stable.
        let report_telemetry = self.build_snapshot(&per_ap, &store_occupancy);
        let report = DeploymentReport {
            n_aps: per_ap.len(),
            metrics: self.metrics,
            per_ap,
            clients: self.fusion.client_summaries(),
            telemetry: report_telemetry,
        };
        (report, aps)
    }
}

/// The per-AP stage-histogram handles for one worker, when telemetry
/// is on.
fn worker_tap(registry: Option<&mut Registry>, ap_id: usize) -> Option<WorkerTap> {
    let registry = registry?;
    let ap = ap_id.to_string();
    Some(WorkerTap {
        dsp: registry.histogram("stage.worker_dsp", &[("ap", &ap)]),
        enforce: registry.histogram("stage.enforce", &[("ap", &ap)]),
    })
}

/// Spawn one AP worker thread.
fn spawn_worker(
    ap_id: usize,
    ap: AccessPoint,
    cfg: &DeployConfig,
    skew: ApSkew,
    up: SyncSender<CoordinatorMsg>,
    tap: Option<WorkerTap>,
) -> WorkerSlot {
    let (tx, rx) = channel();
    let wcfg = WorkerCfg {
        snapshot_cap: cfg.snapshot_cap,
        auto_train_signatures: cfg.auto_train_signatures,
        skew,
        link: cfg.link,
        tap,
        faults: crate::faults::ApFaults::new(
            cfg.faults
                .as_ref()
                .map(|p| p.for_ap(ap_id))
                .unwrap_or_default(),
        ),
    };
    let join = std::thread::Builder::new()
        .name(format!("sa-deploy-ap{}", ap_id))
        .spawn(move || run_worker(ap_id, ap, wcfg, rx, up))
        .expect("spawn AP worker");
    WorkerSlot {
        tx: Some(tx),
        in_flight: 0,
        join: Some(join),
        alive: true,
        exited: false,
        final_stats: None,
    }
}
