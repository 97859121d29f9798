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
//! Two facts make exact alignment possible without synchronized
//! clocks:
//!
//! 1. **Every dispatch is numbered.** The coordinator numbers each
//!    window it dispatches to an AP (`0, 1, 2, …` per AP, on the
//!    control path, independent of the AP's clock), and the worker
//!    echoes that number on its end-of-window marker. A worker
//!    processes its dispatches in order, so a marker numbered `d` — or
//!    a flush reply or exit notice saying `d` dispatches are finished —
//!    proves that every earlier dispatch still outstanding lost its
//!    marker ([`SkewAligner::settle_before`]), for a gap of any length.
//! 2. **Clock models are learnable at association.** The first report
//!    from an AP reveals its constant epoch offset (the deployment-
//!    scale analogue of 802.11 TSF sync at association), and every
//!    accepted report after it refines a per-AP *drift-rate* estimate,
//!    so a slowly wandering oscillator stays aligned instead of walking
//!    out of tolerance. Labels are checked against
//!    `global + offset + round(drift · elapsed)`; a label that still
//!    deviates beyond the configured tolerance is *rejected* — the
//!    window closes (the numbered marker is trusted), but the bearings
//!    stamped with the wandering clock are kept out of fusion rather
//!    than being fused into the wrong window.
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
    /// Windows dispatched to this AP, not yet settled, oldest first.
    dispatched: VecDeque<DispatchRecord>,
    /// Dispatch number of the oldest outstanding record: how many of
    /// this AP's dispatches have settled.
    settled: u64,
    /// Learned constant window offset (`local label − global`), set by
    /// the AP's first report.
    window_offset: Option<i64>,
    /// Global window of the offset-learning report — the anchor the
    /// drift estimate measures elapsed windows from.
    anchor: u64,
    /// Learned drift rate, windows of extra label skew per elapsed
    /// window, refined from every accepted report after the anchor.
    drift_est: f64,
}

/// The result of aligning one worker report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aligned {
    /// The global window this report belongs to (its dispatch record).
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
/// assert_eq!(aligner.note_dispatch(ap, 0, Some(0)), 0);
/// assert_eq!(aligner.note_dispatch(ap, 1, Some(0)), 1);
/// let a = aligner.align(ap, 0, 5, Some(40)).unwrap();
/// assert!((a.global, a.accepted, a.seq_delta) == (0, true, 40));
/// let b = aligner.align(ap, 1, 6, Some(40)).unwrap();
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
    /// any). Must be called in dispatch order. Returns the dispatch
    /// number the worker echoes on its marker.
    pub fn note_dispatch(&mut self, ap: usize, global: u64, first_seq: Option<u64>) -> u64 {
        let state = &mut self.aps[ap];
        state
            .dispatched
            .push_back(DispatchRecord { global, first_seq });
        state.settled + state.dispatched.len() as u64 - 1
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

    /// The one marker-loss rule: settle every dispatch to AP `ap`
    /// numbered below `dispatch` that is still outstanding, and return
    /// their global windows — their markers were lost. A worker
    /// finishes its dispatches in order, so any message from it that
    /// shows dispatch `dispatch − 1` finished (the marker numbered
    /// `dispatch`, or a flush reply or exit notice carrying the count
    /// `dispatch`) proves it.
    pub fn settle_before(&mut self, ap: usize, dispatch: u64) -> Vec<u64> {
        let state = &mut self.aps[ap];
        let n = dispatch
            .saturating_sub(state.settled)
            .min(state.dispatched.len() as u64);
        state.settled += n;
        state
            .dispatched
            .drain(..n as usize)
            .map(|r| r.global)
            .collect()
    }

    /// Align one report from AP `ap`: `dispatch` is the dispatch number
    /// the worker echoed, `window_label` its local window stamp,
    /// `seq_base` the local sequence label of the window's first
    /// dispatched packet. Call [`SkewAligner::settle_before`] first:
    /// the report must answer the AP's oldest outstanding dispatch.
    /// Returns `None` otherwise (a protocol violation — the report is
    /// unattributable and must be discarded).
    pub fn align(
        &mut self,
        ap: usize,
        dispatch: u64,
        window_label: i64,
        seq_base: Option<u64>,
    ) -> Option<Aligned> {
        let tolerance = self.tolerance;
        let state = &mut self.aps[ap];
        if state.settled != dispatch {
            return None;
        }
        let record = state.dispatched.pop_front()?;
        state.settled += 1;
        let offset = match state.window_offset {
            Some(o) => o,
            None => {
                let o = window_label - record.global as i64;
                state.window_offset = Some(o);
                state.anchor = record.global;
                o
            }
        };
        let elapsed = record.global as i64 - state.anchor as i64;
        let predicted =
            record.global as i64 + offset + (state.drift_est * elapsed as f64).round() as i64;
        let deviation = window_label - predicted;
        let seq_delta = match (seq_base, record.first_seq) {
            (Some(local), Some(global)) => local as i64 - global as i64,
            _ => 0,
        };
        let accepted = deviation.unsigned_abs() <= tolerance;
        if accepted && elapsed > 0 {
            // Refine the drift rate from trusted reports only: the raw
            // (offset-relative) deviation over elapsed windows since
            // the anchor.
            state.drift_est =
                (window_label - (record.global as i64 + offset)) as f64 / elapsed as f64;
        }
        Some(Aligned {
            global: record.global,
            accepted,
            deviation,
            seq_delta,
        })
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
            assert_eq!(a.note_dispatch(ap, w, Some(w * 10)), w);
        }
        for w in 0..5i64 {
            let r = a
                .align(ap, w as u64, w - 7, Some((w as u64 * 10) + 3))
                .unwrap();
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
            let r = a.align(ap, w as u64, w + w, None).unwrap();
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
        // stays rejected (still attributed to its dispatch record).
        for w in 0..6i64 {
            let r = a.align(ap, w as u64, w * 4, None).unwrap();
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
        // Dispatch numbers count per AP.
        assert_eq!(a.note_dispatch(ap0, 0, None), 0);
        assert_eq!(a.note_dispatch(ap0, 1, None), 1);
        assert_eq!(a.note_dispatch(ap1, 1, None), 0);
        assert!(a.align(ap0, 0, 100, None).unwrap().accepted);
        assert_eq!(a.align(ap1, 0, -99, None).unwrap().global, 1);
    }

    #[test]
    fn unattributable_report_is_refused() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        assert!(a.align(ap, 0, 0, None).is_none());
        // A report for a dispatch other than the oldest outstanding one
        // is refused too: the caller settles earlier dispatches first.
        a.note_dispatch(ap, 0, None);
        a.note_dispatch(ap, 1, None);
        assert!(a.align(ap, 1, 1, None).is_none());
        assert_eq!(a.pending(ap), 2);
    }

    #[test]
    fn marker_gap_within_tolerance_skips_and_aligns() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        for w in 0..4 {
            a.note_dispatch(ap, w, Some(w * 10));
        }
        // Window 0's marker arrives (offset learned as 0), then windows
        // 1 and 2's markers are lost: the next marker echoes dispatch 3,
        // which settles both gapped windows and aligns with no
        // deviation.
        assert!(a.settle_before(ap, 0).is_empty());
        assert_eq!(a.align(ap, 0, 0, Some(3)).unwrap().global, 0);
        assert_eq!(
            a.settle_before(ap, 3),
            vec![1, 2],
            "both gapped windows close"
        );
        let r = a.align(ap, 3, 3, Some(33)).unwrap();
        assert_eq!(r.global, 3);
        assert!(r.accepted);
        assert_eq!(r.deviation, 0);
        assert_eq!(r.seq_delta, 3);
        assert_eq!(a.pending(ap), 0);
    }

    #[test]
    fn gap_before_the_first_report_learns_from_the_right_record() {
        let mut a = SkewAligner::new(1);
        let ap = a.add_ap();
        for w in 0..5 {
            a.note_dispatch(ap, w, None);
        }
        // The clock runs 2 ahead and the markers of windows 0..=2 are
        // lost. Dispatch 3's marker settles them and learns the offset
        // from window 3 itself, so window 4 aligns with no deviation.
        assert_eq!(a.settle_before(ap, 3), vec![0, 1, 2]);
        let r = a.align(ap, 3, 5, None).unwrap();
        assert_eq!((r.global, r.accepted, r.deviation), (3, true, 0));
        let r = a.align(ap, 4, 6, None).unwrap();
        assert_eq!((r.global, r.accepted, r.deviation), (4, true, 0));
    }

    #[test]
    fn skew_check_still_rejects_after_a_long_gap() {
        let mut a = SkewAligner::new(1);
        let ap = a.add_ap();
        for w in 0..8 {
            a.note_dispatch(ap, w, None);
        }
        assert!(a.align(ap, 0, 0, None).unwrap().accepted);
        // A gap of any length settles exactly; the label check then runs
        // against the numbered record, and a clock 3 windows off is
        // rejected there.
        assert_eq!(a.settle_before(ap, 6), vec![1, 2, 3, 4, 5]);
        let r = a.align(ap, 6, 9, None).unwrap();
        assert_eq!(r.global, 6);
        assert!(!r.accepted);
        assert_eq!(r.deviation, 3);
    }

    #[test]
    fn gap_detection_never_outruns_the_fifo() {
        let mut a = SkewAligner::new(2);
        let ap = a.add_ap();
        a.note_dispatch(ap, 0, None);
        a.note_dispatch(ap, 1, None);
        assert!(a.align(ap, 0, 0, None).unwrap().accepted);
        // An exit count past every dispatch settles only what is
        // outstanding, and a count already settled settles nothing.
        assert!(a.settle_before(ap, 1).is_empty());
        assert_eq!(a.settle_before(ap, 9), vec![1]);
        assert!(a.settle_before(ap, 9).is_empty());
        assert_eq!(a.pending(ap), 0);
        // Numbering carries on after the settled records.
        assert_eq!(a.note_dispatch(ap, 2, None), 2);
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
        assert!(a.align(ap, 0, 0, None).is_none());
    }
}
