//! Skew-tolerant window alignment: the pure state machine behind the
//! coordinator's reorder buffer.
//!
//! Workers stamp their reports with *local* window and sequence labels
//! (see [`crate::ApSkew`]): real APs free-run on their own clocks, so
//! the label an AP puts on a window is `global + offset + drift`. The
//! coordinator cannot fuse on labels — it must map each report back to
//! the global window it was dispatched for, and it must do so
//! deterministically so seeded runs stay byte-reproducible.
//!
//! Two facts make robust alignment possible without synchronized
//! clocks:
//!
//! 1. **Per-AP delivery is FIFO.** A worker processes dispatched
//!    windows in order and reports (or abandons) them in order, so the
//!    *n*-th end-of-window marker from an AP corresponds to the *n*-th
//!    window dispatched **to that AP** — churn-safe, because the
//!    aligner tracks dispatches per AP.
//! 2. **Clock models are learnable at association.** The first report
//!    from an AP reveals its constant epoch offset (the deployment-
//!    scale analogue of 802.11 TSF sync at association), and every
//!    accepted report after it refines a per-AP *drift-rate* estimate,
//!    so a slowly wandering oscillator stays aligned instead of walking
//!    out of tolerance. Labels are checked against
//!    `global + offset + round(drift · elapsed)`; a label that still
//!    deviates beyond the configured tolerance is *rejected* — the
//!    window closes (the FIFO marker is trusted), but the bearings
//!    stamped with the wandering clock are kept out of fusion rather
//!    than being fused into the wrong window. The sequence-label
//!    channel (packet counters never drift) doubles as a cross-check
//!    that keeps marker-gap detection honest under drift.
//!
//! The aligner is deliberately pure (no channels, no threads) so the
//! alignment policy itself is property-testable: see
//! `tests/proptest_alignment.rs`.

use std::collections::VecDeque;

/// One dispatched window awaiting its report from one AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DispatchRecord {
    /// Global window number.
    global: u64,
    /// Global sequence number of the first packet dispatched for the
    /// window (`None` when the window carried no packets for this AP).
    first_seq: Option<u64>,
}

#[derive(Debug, Default)]
struct ApAlignState {
    /// FIFO of windows dispatched to this AP, not yet reported.
    dispatched: VecDeque<DispatchRecord>,
    /// Learned constant window offset (`local label − global`), set by
    /// the AP's first report.
    window_offset: Option<i64>,
    /// Global window of the offset-learning report — the anchor the
    /// drift estimate measures elapsed windows from.
    anchor: u64,
    /// Learned drift rate, windows of extra label skew per elapsed
    /// window, refined from every accepted report after the anchor.
    drift_est: f64,
    /// Learned constant sequence-label offset (`local − global`).
    /// Sequence counters do not drift, so this is the cross-check that
    /// distinguishes a marker gap from a clock jump.
    seq_offset: Option<i64>,
}

/// The result of aligning one worker report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aligned {
    /// The global window this report belongs to (FIFO ground truth).
    pub global: u64,
    /// Whether the report's window label sits within tolerance of the
    /// learned offset. Rejected reports still close their window — only
    /// their packet payload is excluded from fusion.
    pub accepted: bool,
    /// Label deviation from the learned clock model
    /// (`global + offset + round(drift · elapsed)`), windows. Zero for
    /// a skew-free, constant-offset or *learned-rate* drifting AP;
    /// grows only when the clock jumps or drifts faster than the
    /// tolerance lets the rate be learned.
    pub deviation: i64,
    /// Sequence-label delta for this window: subtract it from a local
    /// sequence label to recover the global sequence. `0` when the
    /// window carried no packets.
    pub seq_delta: i64,
}

/// Maps per-AP locally-stamped window labels back to global window
/// numbers, tolerating bounded clock skew and drift.
///
/// ```
/// use sa_deploy::align::SkewAligner;
/// let mut aligner = SkewAligner::new(2);
/// let ap = aligner.add_ap();
/// // Global windows 0 and 1 dispatched; the AP's clock runs 5 ahead.
/// aligner.note_dispatch(ap, 0, Some(0));
/// aligner.note_dispatch(ap, 1, Some(0));
/// let a = aligner.align(ap, 5, Some(40)).unwrap();
/// assert!((a.global, a.accepted, a.seq_delta) == (0, true, 40));
/// let b = aligner.align(ap, 6, Some(40)).unwrap();
/// assert!((b.global, b.accepted) == (1, true));
/// ```
#[derive(Debug, Default)]
pub struct SkewAligner {
    tolerance: u64,
    aps: Vec<ApAlignState>,
}

impl SkewAligner {
    /// New aligner with the given label tolerance
    /// ([`crate::DeployConfig::max_skew_windows`]).
    pub fn new(tolerance: u64) -> Self {
        Self {
            tolerance,
            aps: Vec::new(),
        }
    }

    /// Register a new AP; returns its id (ids are never reused).
    pub fn add_ap(&mut self) -> usize {
        self.aps.push(ApAlignState::default());
        self.aps.len() - 1
    }

    /// Record that global window `global` was dispatched to AP `ap`,
    /// with `first_seq` the global sequence of its first packet (if
    /// any). Must be called in dispatch order.
    pub fn note_dispatch(&mut self, ap: usize, global: u64, first_seq: Option<u64>) {
        self.aps[ap]
            .dispatched
            .push_back(DispatchRecord { global, first_seq });
    }

    /// Windows dispatched to AP `ap` still awaiting a report.
    pub fn pending(&self, ap: usize) -> usize {
        self.aps[ap].dispatched.len()
    }

    /// Drop AP `ap`'s outstanding dispatches (the worker died or was
    /// removed; its reports are never coming).
    pub fn forget_ap(&mut self, ap: usize) {
        self.aps[ap].dispatched.clear();
    }

    /// Align one report from AP `ap`: `window_label` is the worker's
    /// local window stamp, `seq_base` the local sequence label of the
    /// window's first dispatched packet. Returns `None` if nothing is
    /// outstanding for the AP (a protocol violation — the report is
    /// unattributable and must be discarded).
    pub fn align(
        &mut self,
        ap: usize,
        window_label: i64,
        seq_base: Option<u64>,
    ) -> Option<Aligned> {
        let (skipped, aligned) = self.align_gaps(ap, window_label, seq_base, 0);
        debug_assert!(skipped.is_empty(), "gap detection is off at max_gap 0");
        aligned
    }

    /// [`SkewAligner::align`] with marker-gap detection
    /// ([`crate::DeployConfig::marker_timeout_windows`]): when the
    /// label aligns `d` windows *ahead* of the AP's FIFO front with
    /// `1 ≤ d ≤ max_gap` — and at least `d + 1` windows are outstanding,
    /// so the label provably names a dispatched window — the `d`
    /// skipped windows' markers are declared lost. Their global window
    /// numbers are returned for the coordinator to close without this
    /// AP, and the report aligns to the `(d+1)`-th record with zero
    /// deviation. `max_gap = 0` disables detection (every deviation is
    /// clock skew), which is exactly [`SkewAligner::align`].
    ///
    /// Gap detection is drift-aware: labels are compared against the
    /// learned clock model (constant offset *plus* the drift rate
    /// refined from accepted reports), and a candidate gap is
    /// cross-checked on the sequence-label channel — packet counters
    /// never drift, so when both the report and the claimed dispatch
    /// record carry sequence labels and the constant sequence offset is
    /// already learned, a mismatch unmasks the jump as clock skew and
    /// nothing is skipped.
    pub fn align_gaps(
        &mut self,
        ap: usize,
        window_label: i64,
        seq_base: Option<u64>,
        max_gap: u64,
    ) -> (Vec<u64>, Option<Aligned>) {
        let tolerance = self.tolerance;
        let state = &mut self.aps[ap];
        let Some(front) = state.dispatched.front().copied() else {
            return (Vec::new(), None);
        };
        let offset = match state.window_offset {
            Some(o) => o,
            None => {
                let o = window_label - front.global as i64;
                state.window_offset = Some(o);
                state.anchor = front.global;
                o
            }
        };
        let (anchor, drift_est) = (state.anchor, state.drift_est);
        let predict = |global: u64| -> i64 {
            let elapsed = global as i64 - anchor as i64;
            global as i64 + offset + (drift_est * elapsed as f64).round() as i64
        };
        let mut skipped = Vec::new();
        if max_gap > 0 {
            let ahead = window_label - predict(front.global);
            if ahead >= 1 && ahead as u64 <= max_gap && state.dispatched.len() > ahead as usize {
                // The label claims the record `ahead` deep in the FIFO.
                // Confirm on the sequence channel before declaring the
                // intervening markers lost.
                let candidate = state.dispatched[ahead as usize];
                let confirmed = match (seq_base, candidate.first_seq, state.seq_offset) {
                    (Some(local), Some(global), Some(learned)) => {
                        local as i64 - global as i64 == learned
                    }
                    _ => true,
                };
                if confirmed {
                    for _ in 0..ahead {
                        skipped.push(
                            state
                                .dispatched
                                .pop_front()
                                .expect("guarded by len() above")
                                .global,
                        );
                    }
                }
            }
        }
        let Some(record) = state.dispatched.pop_front() else {
            return (skipped, None);
        };
        let deviation = window_label - predict(record.global);
        let seq_delta = match (seq_base, record.first_seq) {
            (Some(local), Some(global)) => local as i64 - global as i64,
            _ => 0,
        };
        let accepted = deviation.unsigned_abs() <= tolerance;
        if accepted {
            // Refine the clock model from trusted reports only: the
            // constant sequence offset on first sight, the drift rate
            // from the raw (offset-relative) deviation over elapsed
            // windows since the anchor.
            if let (Some(local), Some(global)) = (seq_base, record.first_seq) {
                state.seq_offset.get_or_insert(local as i64 - global as i64);
            }
            let elapsed = record.global as i64 - anchor as i64;
            if elapsed > 0 {
                state.drift_est =
                    (window_label - (record.global as i64 + offset)) as f64 / elapsed as f64;
            }
        }
        (
            skipped,
            Some(Aligned {
                global: record.global,
                accepted,
                deviation,
                seq_delta,
            }),
        )
    }

    /// Declare every outstanding dispatch for AP `ap` marker-lost and
    /// return their global window numbers. The coordinator calls this
    /// when the worker's `Exited` message arrives after an ordered
    /// shutdown (the worker processed its whole queue, so no later
    /// marker will ever reveal a tail gap); on a healthy run the queue
    /// is already empty and this is a no-op.
    pub fn take_outstanding(&mut self, ap: usize) -> Vec<u64> {
        self.aps[ap]
            .dispatched
            .drain(..)
            .map(|r| r.global)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_offset_is_learned_and_accepted() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        for w in 0..5 {
            a.note_dispatch(ap, w, Some(w * 10));
        }
        for w in 0..5i64 {
            let r = a.align(ap, w - 7, Some((w as u64 * 10) + 3)).unwrap();
            assert_eq!(r.global, w as u64);
            assert!(r.accepted, "window {} rejected: {:?}", w, r);
            assert_eq!(r.deviation, 0);
            assert_eq!(r.seq_delta, 3);
        }
        assert_eq!(a.pending(ap), 0);
    }

    #[test]
    fn linear_drift_is_learned_and_stays_accepted() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        for w in 0..12 {
            a.note_dispatch(ap, w, None);
        }
        // A full window of drift gained per window (label = 2w): the
        // rate is learned from the first in-tolerance deviation, and
        // the model keeps every later report aligned — under the old
        // constant-offset-only policy window 3 onward was rejected.
        for w in 0..12i64 {
            let r = a.align(ap, w + w, None).unwrap();
            assert_eq!(r.global, w as u64);
            assert!(r.accepted, "window {}: {:?}", w, r);
            assert!(r.deviation.unsigned_abs() <= 1, "window {}: {:?}", w, r);
        }
    }

    #[test]
    fn drift_steeper_than_tolerance_is_rejected_not_learned() {
        let mut a = SkewAligner::new(1);
        let ap = a.add_ap();
        for w in 0..6 {
            a.note_dispatch(ap, w, None);
        }
        // Three windows of skew gained per window: the very first
        // drifted label already exceeds the tolerance, so the rate is
        // never learned from an accepted report and every later label
        // stays rejected (still attributed to its FIFO window).
        for w in 0..6i64 {
            let r = a.align(ap, w * 4, None).unwrap();
            assert_eq!(r.global, w as u64);
            assert_eq!(r.accepted, w == 0, "window {}: {:?}", w, r);
            assert_eq!(r.deviation, 3 * w);
        }
    }

    #[test]
    fn per_ap_offsets_are_independent() {
        let mut a = SkewAligner::new(1);
        let ap0 = a.add_ap();
        let ap1 = a.add_ap();
        a.note_dispatch(ap0, 0, None);
        a.note_dispatch(ap1, 0, None);
        assert!(a.align(ap0, 100, None).unwrap().accepted);
        assert!(a.align(ap1, -100, None).unwrap().accepted);
    }

    #[test]
    fn unattributable_report_is_refused() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        assert!(a.align(ap, 0, None).is_none());
    }

    #[test]
    fn marker_gap_within_tolerance_skips_and_aligns() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        for w in 0..4 {
            a.note_dispatch(ap, w, Some(w * 10));
        }
        // Window 0's marker arrives (offset learned as 0, sequence
        // offset learned as 3), then windows 1 and 2's markers are
        // lost: the next marker is labelled 3 and its sequence label
        // confirms the gap (33 − 30 matches the learned offset).
        let (skipped, r) = a.align_gaps(ap, 0, Some(3), 2);
        assert!(skipped.is_empty());
        assert_eq!(r.unwrap().global, 0);
        let (skipped, r) = a.align_gaps(ap, 3, Some(33), 2);
        assert_eq!(skipped, vec![1, 2], "both gapped windows close");
        let r = r.unwrap();
        assert_eq!(r.global, 3);
        assert!(r.accepted);
        assert_eq!(r.deviation, 0);
        assert_eq!(r.seq_delta, 3);
        assert_eq!(a.pending(ap), 0);
    }

    #[test]
    fn seq_channel_contradiction_vetoes_a_gap() {
        let mut a = SkewAligner::new(3);
        let ap = a.add_ap();
        for w in 0..4 {
            a.note_dispatch(ap, w, Some(w * 10));
        }
        // Learn offset 0 and sequence offset 5.
        let (s, r) = a.align_gaps(ap, 0, Some(5), 2);
        assert!(s.is_empty());
        assert!(r.unwrap().accepted);
        // A label 2 ahead whose sequence label does NOT match the
        // learned sequence offset for the claimed record: sequence
        // counters never drift, so the jump is clock skew — nothing is
        // skipped and the report aligns to the FIFO front with the
        // full deviation.
        let (s, r) = a.align_gaps(ap, 3, Some(99), 2);
        assert!(s.is_empty());
        let r = r.unwrap();
        assert_eq!(r.global, 1);
        assert_eq!(r.deviation, 2);
        assert!(r.accepted, "within the ±3 tolerance: skew, not a gap");
    }

    #[test]
    fn gap_beyond_tolerance_falls_back_to_skew_rejection() {
        let mut a = SkewAligner::new(1);
        let ap = a.add_ap();
        for w in 0..5 {
            a.note_dispatch(ap, w, None);
        }
        let (_, r) = a.align_gaps(ap, 0, None, 1);
        assert!(r.unwrap().accepted);
        // A 3-window jump exceeds max_gap 1: treated as clock skew on
        // the FIFO front (window 1), which also exceeds the ±1
        // alignment tolerance → rejected, nothing skipped.
        let (skipped, r) = a.align_gaps(ap, 4, None, 1);
        assert!(skipped.is_empty());
        let r = r.unwrap();
        assert_eq!(r.global, 1);
        assert!(!r.accepted);
        assert_eq!(r.deviation, 3);
    }

    #[test]
    fn gap_detection_never_outruns_the_fifo() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        a.note_dispatch(ap, 0, None);
        a.note_dispatch(ap, 1, None);
        let (_, r) = a.align_gaps(ap, 0, None, 3);
        assert!(r.unwrap().accepted);
        // Label claims 2 windows ahead but only window 1 is
        // outstanding: a gap would pop past the queue, so it is treated
        // as skew instead.
        let (skipped, r) = a.align_gaps(ap, 3, None, 3);
        assert!(skipped.is_empty());
        let r = r.unwrap();
        assert_eq!(r.global, 1);
        assert_eq!(r.deviation, 2);
    }

    #[test]
    fn take_outstanding_drains_the_queue() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        for w in 3..6 {
            a.note_dispatch(ap, w, None);
        }
        assert_eq!(a.take_outstanding(ap), vec![3, 4, 5]);
        assert_eq!(a.pending(ap), 0);
        assert!(a.take_outstanding(ap).is_empty());
    }

    #[test]
    fn forget_ap_clears_outstanding_dispatches() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        a.note_dispatch(ap, 0, None);
        a.note_dispatch(ap, 1, None);
        assert_eq!(a.pending(ap), 2);
        a.forget_ap(ap);
        assert_eq!(a.pending(ap), 0);
        assert!(a.align(ap, 0, None).is_none());
    }
}
