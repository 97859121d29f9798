//! The per-AP worker thread: the DSP half of the pipeline, driven by
//! pre-decoded packets from the coordinator, one message per decoded
//! transmission.
//!
//! Each capture is staged, processed and enforced as it arrives, so the
//! worker's DSP overlaps the coordinator's stage-1 decode of the rest of
//! the window; the window's end message then publishes its reports.
//! Deployment realism lives at this layer's edges: the worker stamps
//! its reports with *local* window/sequence labels (its own clock, see
//! [`ApSkew`]) and publishes them over a lossy link model
//! ([`LinkConfig`]) with bounded retransmission. Both are deterministic
//! per AP — the skew is a pure function of the window number and the
//! loss stream is seeded per AP — so a seeded deployment run stays
//! byte-reproducible no matter how the threads interleave.

use crate::config::{ApSkew, LinkConfig};
use crate::faults::{corrupt_payload, payload_checksum, ApFaults, WindowFaults};
use crate::report::{ApPacket, ApStats};
use crate::telemetry::WorkerTap;
use sa_linalg::CMat;
use sa_telemetry::StageTimer;
use secureangle::pipeline::{DecodedPacket, DropReason, FrameVerdict, Observation};
use secureangle::spoof::SpoofVerdict;
use secureangle::AccessPoint;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// One pre-decoded capture for a worker: the AP's own buffer plus the
/// shared stage-1 result.
pub(crate) struct WorkerPacket {
    pub buffer: Arc<CMat>,
    pub decoded: Arc<DecodedPacket>,
    pub seq: u64,
}

/// Coordinator → worker messages, on an unbounded channel (the
/// coordinator bounds it in windows, not packets). The worker exits
/// once the coordinator hangs up and the queue is drained.
pub(crate) enum WorkerMsg {
    /// One decoded transmission of `window`, sent as soon as it
    /// decodes. A window's packets arrive in `seq` order.
    Packet { window: u64, packet: WorkerPacket },
    /// The window's last message, after its last packet (the only one
    /// for a window with none). `dispatch` is this AP's dispatch number
    /// for the window, echoed on its marker.
    End { window: u64, dispatch: u64 },
    /// Reply with [`CoordinatorMsg::Flushed`] once everything queued
    /// before this request is done.
    Flush,
}

/// Worker → coordinator, on one shared inbox. One sender's messages
/// stay in order, so a worker's `Exited` follows its last report.
#[allow(clippy::large_enum_variant)] // nearly every message is a `Window`; boxing would only add an allocation
pub(crate) enum CoordinatorMsg {
    Window(WindowDone),
    /// A window whose marker was lost in transit: it settles nothing.
    /// It still travels because every coordinator wait is a blocking
    /// receive, and one waiting at the window gate for this AP to
    /// complete a window must wake when it does; `ap_id` is read only
    /// for that count.
    MarkerLost {
        ap_id: usize,
    },
    /// Reply to [`WorkerMsg::Flush`]: the worker has finished its
    /// dispatches numbered below `finished`, so any of them still owed
    /// lost its marker.
    Flushed {
        ap_id: usize,
        finished: u64,
    },
    /// The thread ended (hung-up input, crash or panic); sent by
    /// [`ExitNotice`]. `finished` as in [`CoordinatorMsg::Flushed`]: a
    /// crashed worker's count stops below the window it died in.
    Exited {
        ap_id: usize,
        finished: u64,
    },
}

/// One `(AP, window)` report — the whole window's packet reports plus
/// the worker's counters. Batching the reports keeps the channel
/// wake-up cost per *window* instead of per packet, which matters once
/// windows carry dozens of packets.
///
/// The window is identified by the echoed `dispatch` number; the
/// worker's **local** `label` (skewed clock) is checked against the
/// offset the coordinator's aligner learned. `lost: true` means the
/// report's packet payload was dropped by the lossy link after
/// exhausting retries — the marker itself models the reliable control
/// path, so windows still close.
pub(crate) struct WindowDone {
    pub ap_id: usize,
    /// The dispatch number of the window this marker closes.
    pub dispatch: u64,
    /// Local window label (global + skew).
    pub label: i64,
    /// Local sequence label of the window's first *dispatched* packet
    /// (`None` for an empty window) — lets the aligner recover the
    /// per-window sequence delta exactly.
    pub seq_base: Option<u64>,
    pub packets: Vec<ApPacket>,
    pub stats: ApStats,
    /// The packet payload was lost on the link (packets is empty).
    pub lost: bool,
    /// The worker was wedged for this window (fault-injected stall):
    /// no DSP ran and the payload is empty, but the marker still rides
    /// the live control path so the window closes. A run of these
    /// trips the coordinator's stall watchdog.
    pub stalled: bool,
    /// Report-wire checksum over `(label, seq_base, packets)`, computed
    /// before any injected wire corruption. The coordinator recomputes
    /// and rejects the whole payload on mismatch
    /// ([`ApStats::reports_corrupt`]).
    pub checksum: u64,
}

/// Sends [`CoordinatorMsg::Exited`] when dropped — on return or during
/// a panic's unwind — after every send [`run_worker`] made.
struct ExitNotice {
    ap_id: usize,
    up: SyncSender<CoordinatorMsg>,
    /// Dispatches finished so far (one past the last finished number).
    finished: u64,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        // An error means the coordinator is gone.
        let _ = self.up.send(CoordinatorMsg::Exited {
            ap_id: self.ap_id,
            finished: self.finished,
        });
    }
}

pub(crate) struct WorkerCfg {
    pub snapshot_cap: usize,
    pub auto_train_signatures: bool,
    pub skew: ApSkew,
    pub link: LinkConfig,
    /// Stage-latency histogram handles (`stage.worker_dsp`,
    /// `stage.enforce`, labeled by AP) — `None` unless telemetry is on,
    /// so the disabled path costs one branch per span and reads no
    /// clock. Timing is write-only: nothing downstream ever reads it,
    /// keeping fused output byte-identical with telemetry on or off.
    pub tap: Option<WorkerTap>,
    /// This AP's slice of the deployment's scripted fault plan
    /// ([`crate::faults::FaultPlan`]); empty when no plan is attached.
    /// Every fault is a pure function of the window number, so faulted
    /// runs stay byte-reproducible.
    pub faults: ApFaults,
}

/// Deterministic per-AP loss stream: splitmix64 over `seed ^ ap_id`.
/// Self-contained so the deploy crate keeps its runtime dependency set
/// free of RNG crates (`rand`/`rand_chacha` are dev-dependencies here,
/// used only by tests). The stream advances once per delivery attempt,
/// in the worker's own FIFO order, making loss decisions independent
/// of thread interleaving.
struct LossStream {
    state: u64,
}

impl LossStream {
    fn new(seed: u64, ap_id: usize) -> Self {
        Self {
            state: seed ^ (ap_id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `p` (draws one word even at p = 0 or 1, so
    /// the stream position is the attempt count; the caller
    /// short-circuits `p == 0` for byte-compat with reliable links).
    fn dropped(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The window a worker is part-way through: opened by the window's
/// first message, which resolves its scripted faults, and closed by its
/// [`WorkerMsg::End`].
struct OpenWindow {
    faults: WindowFaults,
    stats: ApStats,
    /// Local window label (global + skew).
    label: i64,
    /// Local sequence label of the window's first packet.
    seq_base: Option<u64>,
    reports: Vec<ApPacket>,
    /// The window's summed per-packet `process` time, nanoseconds
    /// (clocked only with telemetry on).
    dsp_ns: u64,
}

/// The open window, opened by this message if none is. Faults are a
/// pure function of the plan and the window number, so nothing here
/// depends on scheduling. `None` means the worker crashes here: it dies
/// mid-window with no payload and no marker, and only the exit notice,
/// which does not count this window, reaches the coordinator.
fn open_window<'w>(
    open: &'w mut Option<OpenWindow>,
    window: u64,
    cfg: &WorkerCfg,
) -> Option<&'w mut OpenWindow> {
    if open.is_none() {
        let faults = if cfg.faults.is_empty() {
            WindowFaults::default()
        } else {
            cfg.faults.at(window)
        };
        if faults.crash {
            return None;
        }
        *open = Some(OpenWindow {
            faults,
            stats: ApStats {
                windows: 1,
                windows_stalled: u64::from(faults.stall),
                ..ApStats::default()
            },
            label: cfg.skew.window_label(window) + faults.extra_label,
            seq_base: None,
            reports: Vec::new(),
            dsp_ns: 0,
        });
    }
    open.as_mut()
}

impl OpenWindow {
    /// Enforce one observation and assemble its report. Reports carry
    /// the worker's local labels — the coordinator's aligner maps them
    /// back to global numbering.
    fn enforce(
        &mut self,
        ap_id: usize,
        ap: &mut AccessPoint,
        cfg: &WorkerCfg,
        obs: &Observation,
        seq: u64,
    ) {
        let stats = &mut self.stats;
        stats.observed += 1;
        let verdict = {
            let _span = StageTimer::start(cfg.tap.as_ref().map(|t| &*t.enforce));
            ap.enforce(obs)
        };
        match verdict {
            FrameVerdict::Admit { spoof } => {
                stats.admitted += 1;
                if cfg.auto_train_signatures && spoof == SpoofVerdict::Untrained {
                    if let Some(frame) = &obs.frame {
                        ap.train_client(frame.src, obs);
                        stats.trained += 1;
                    }
                }
            }
            FrameVerdict::Drop(DropReason::SpoofSuspected { .. })
            | FrameVerdict::Drop(DropReason::Quarantined) => stats.dropped_spoof += 1,
            FrameVerdict::Drop(_) => stats.dropped_other += 1,
        }
        let local_seq = cfg.skew.seq_label(seq);
        let report = obs.bearing_report(local_seq);
        if report.is_some() {
            stats.bearings += 1;
        }
        self.reports.push(ApPacket {
            ap_id,
            window: self.label.max(0) as u64,
            seq: local_seq,
            mac: obs.frame.as_ref().map(|f| f.src),
            report,
            bearing_deg: obs.bearing_deg,
            rss_db: obs.rss_db,
            verdict,
        });
    }

    /// Close the window: apply its end-of-window faults and publish its
    /// reports with the marker for dispatch `dispatch`. The publish path
    /// models the lossy report link: each delivery attempt may drop
    /// (deterministic per-AP stream), the worker retries up to the
    /// configured budget, and an exhausted budget abandons the payload —
    /// the marker still goes out so the coordinator never stalls on this
    /// AP. The window's stats fold into `totals`. Returns `false` once
    /// the coordinator is gone.
    fn close(
        self,
        ap_id: usize,
        dispatch: u64,
        cfg: &WorkerCfg,
        loss: &mut LossStream,
        totals: &mut ApStats,
        tx: &SyncSender<CoordinatorMsg>,
    ) -> bool {
        let OpenWindow {
            faults: wf,
            mut stats,
            label,
            seq_base,
            mut reports,
            dsp_ns,
        } = self;
        if !wf.stall {
            if let Some(tap) = &cfg.tap {
                tap.dsp.record(dsp_ns);
            }
        }

        // Byzantine bias: the AP itself lies about its bearings, so the
        // bias lands *before* the checksum (the wire bytes are "valid")
        // and only the cross-AP health score can catch it.
        if wf.bias_rad != 0.0 {
            for p in &mut reports {
                p.bearing_deg += wf.bias_rad.to_degrees();
                if let Some(r) = &mut p.report {
                    r.azimuth += wf.bias_rad;
                }
            }
        }

        // Marker loss: the whole end-of-window message vanishes, and
        // only a later marker, flush reply or exit notice reveals it.
        if wf.marker_lost {
            stats.markers_lost += 1;
            totals.absorb(&stats);
            return tx.send(CoordinatorMsg::MarkerLost { ap_id }).is_ok();
        }

        // Lossy-link publish: roll each delivery attempt; an exhausted
        // retry budget abandons the payload but still sends the marker.
        let mut payload = Some(reports);
        if cfg.link.loss_rate > 0.0 {
            for attempt in 0..=cfg.link.retry_limit {
                if loss.dropped(cfg.link.loss_rate) {
                    stats.report_drops += 1;
                    if attempt < cfg.link.retry_limit {
                        stats.report_retransmits += 1;
                    } else {
                        stats.reports_lost += 1;
                        payload = None;
                    }
                } else {
                    break;
                }
            }
        }
        // Burst link loss: the whole payload (retries and all) is gone
        // for the faulted span; the marker still closes the window.
        if wf.burst_loss && payload.is_some() {
            stats.reports_lost += 1;
            payload = None;
        }
        let lost = payload.is_none();
        let mut packets_out = payload.unwrap_or_default();
        // Checksum the payload as sent, then apply any injected wire
        // corruption *after* — the coordinator's recompute catches it.
        let checksum = payload_checksum(label, seq_base, &packets_out);
        if let Some(mode) = wf.corrupt {
            corrupt_payload(&mut packets_out, mode);
        }
        let done = WindowDone {
            ap_id,
            dispatch,
            label,
            seq_base,
            packets: packets_out,
            stats,
            lost,
            stalled: wf.stall,
            checksum,
        };
        let delivered = match tx.try_send(CoordinatorMsg::Window(done)) {
            Ok(()) => true,
            Err(TrySendError::Full(CoordinatorMsg::Window(mut done))) => {
                done.stats.backpressure_events += 1;
                stats.backpressure_events += 1;
                tx.send(CoordinatorMsg::Window(done)).is_ok()
            }
            Err(_) => false,
        };
        totals.absorb(&stats);
        delivered
    }
}

/// The worker loop. Each decoded transmission arrives as its own
/// [`WorkerMsg::Packet`] and is staged, processed and enforced at once,
/// in seq order, while its staged window is still in cache: one capture
/// through a one-packet `PacketBatch` (the AoA engine survives from
/// packet to packet via `batch_with_engine`/`into_engine`), which gives
/// the observation a whole-window batch would. The window's
/// [`WorkerMsg::End`] then publishes its reports to fusion (see
/// [`OpenWindow::close`]). Returns the AP (with its trained state) and
/// the run totals when the coordinator hangs up; its last message is
/// always [`CoordinatorMsg::Exited`].
pub(crate) fn run_worker(
    ap_id: usize,
    mut ap: AccessPoint,
    cfg: WorkerCfg,
    rx: Receiver<WorkerMsg>,
    tx: SyncSender<CoordinatorMsg>,
) -> (AccessPoint, ApStats) {
    // Dropped after the return value is built, or during a panic's
    // unwind, so `Exited` is this thread's last message either way.
    let mut exit = ExitNotice {
        ap_id,
        up: tx.clone(),
        finished: 0,
    };
    let mut engine = None;
    let mut totals = ApStats::default();
    let mut loss = LossStream::new(cfg.link.seed, ap_id);
    let mut open = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Flush => {
                let reply = CoordinatorMsg::Flushed {
                    ap_id,
                    finished: exit.finished,
                };
                if tx.send(reply).is_err() {
                    break;
                }
            }
            WorkerMsg::Packet { window, packet: p } => {
                let Some(w) = open_window(&mut open, window, &cfg) else {
                    return (ap, totals);
                };
                w.seq_base.get_or_insert(cfg.skew.seq_label(p.seq));
                if w.faults.stall {
                    // Wedged DSP: the capture is dropped on the floor,
                    // but the marker still goes out (flagged stalled)
                    // on the live control path so the window closes.
                    continue;
                }
                w.stats.packets += 1;
                let mut batch = match engine.take() {
                    Some(e) => ap.batch_with_engine(e),
                    None => ap.batch(),
                };
                batch.set_snapshot_cap(cfg.snapshot_cap);
                let obs = match batch.push_predecoded(&p.buffer, &p.decoded) {
                    Ok(()) => {
                        let t0 = cfg.tap.is_some().then(Instant::now);
                        let obs = batch.process().pop();
                        if let Some(t0) = t0 {
                            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            w.dsp_ns = w.dsp_ns.saturating_add(ns);
                        }
                        obs
                    }
                    Err(_) => None,
                };
                engine = Some(batch.into_engine());
                match obs {
                    Some(obs) => w.enforce(ap_id, &mut ap, &cfg, &obs, p.seq),
                    None => w.stats.observe_failures += 1,
                }
            }
            WorkerMsg::End { window, dispatch } => {
                if open_window(&mut open, window, &cfg).is_none() {
                    return (ap, totals);
                }
                let w = open.take().expect("opened above");
                // The window's work is done, whatever becomes of its marker.
                exit.finished = dispatch + 1;
                if !w.close(ap_id, dispatch, &cfg, &mut loss, &mut totals, &tx) {
                    break;
                }
            }
        }
    }
    (ap, totals)
}
