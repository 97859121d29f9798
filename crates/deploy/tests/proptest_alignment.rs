//! Property-based tests for the skew-tolerant window aligner: whatever
//! per-AP clock offsets and drifts a deployment is configured with,
//! alignment must map every report back to the window it was dispatched
//! for, deterministically, and must accept every label that stays
//! within tolerance of the learned offset.

use proptest::prelude::*;
use sa_deploy::align::{Aligned, SkewAligner};
use sa_deploy::ApSkew;

/// Run one AP's full report stream through an aligner and collect the
/// outcomes.
fn run_ap(aligner: &mut SkewAligner, ap: usize, skew: &ApSkew, n_windows: u64) -> Vec<Aligned> {
    (0..n_windows)
        .map(|w| {
            aligner
                .align(ap, w, skew.window_label(w), Some(skew.seq_label(w * 3)))
                .expect("dispatched")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any constant per-AP offset — however large, whatever the
    /// tolerance — aligns exactly: the offset is learned from the first
    /// report, every later label matches it, every report is accepted
    /// and mapped to its dispatch-order global window, and the sequence
    /// delta recovers the global sequence numbers.
    #[test]
    fn constant_offsets_align_exactly_for_any_magnitude(
        offsets in proptest::collection::vec((-10_000i64..10_000, 0u64..10_000), 1..5),
        n_windows in 1u64..24,
        tolerance in 0u64..4,
    ) {
        let mut aligner = SkewAligner::new(tolerance);
        let skews: Vec<ApSkew> = offsets
            .iter()
            .map(|&(w, s)| ApSkew { window_offset: w, seq_offset: s, drift_ppw: 0.0 })
            .collect();
        for ap in 0..skews.len() {
            prop_assert_eq!(aligner.add_ap(), ap);
            for w in 0..n_windows {
                aligner.note_dispatch(ap, w, Some(w * 3));
            }
        }
        for (ap, skew) in skews.iter().enumerate() {
            for (w, got) in run_ap(&mut aligner, ap, skew, n_windows).iter().enumerate() {
                prop_assert_eq!(got.global, w as u64);
                prop_assert!(got.accepted, "ap {} window {} rejected: {:?}", ap, w, got);
                prop_assert_eq!(got.deviation, 0);
                // local seq − delta recovers the global seq.
                let local = skew.seq_label(w as u64 * 3) as i64;
                prop_assert_eq!((local - got.seq_delta) as u64, w as u64 * 3);
            }
        }
    }

    /// Alignment is a pure function of each AP's own report stream:
    /// interleaving the APs' reports differently (windows-outer vs
    /// APs-outer) produces identical per-AP outcomes. This is the
    /// determinism the deployment's byte-reproducibility rests on —
    /// thread scheduling decides the interleaving at run time.
    #[test]
    fn alignment_is_independent_of_cross_ap_interleaving(
        offsets in proptest::collection::vec(-50i64..50, 2..5),
        n_windows in 1u64..16,
        tolerance in 0u64..4,
    ) {
        let skews: Vec<ApSkew> = offsets
            .iter()
            .map(|&w| ApSkew { window_offset: w, seq_offset: 0, drift_ppw: 0.0 })
            .collect();
        let build = || {
            let mut a = SkewAligner::new(tolerance);
            for ap in 0..skews.len() {
                a.add_ap();
                for w in 0..n_windows {
                    a.note_dispatch(ap, w, None);
                }
            }
            a
        };
        // Order A: AP-major. Order B: window-major.
        let mut order_a = build();
        let mut got_a = vec![Vec::new(); skews.len()];
        for (ap, skew) in skews.iter().enumerate() {
            got_a[ap] = run_ap(&mut order_a, ap, skew, n_windows);
        }
        let mut order_b = build();
        let mut got_b = vec![Vec::new(); skews.len()];
        for w in 0..n_windows {
            for (ap, skew) in skews.iter().enumerate() {
                got_b[ap].push(order_b.align(ap, w, skew.window_label(w), None).expect("dispatched"));
            }
        }
        for ap in 0..skews.len() {
            prop_assert_eq!(&got_a[ap], &got_b[ap], "ap {} diverged across interleavings", ap);
        }
    }

    /// Gentle drift: the label wanders by `trunc(drift · w)` windows,
    /// slowly enough that every step stays inside a ≥2-window
    /// tolerance. The aligner learns the rate from accepted reports,
    /// so *no* window is ever rejected — however long the run — and
    /// the residual deviation against the learned model stays bounded.
    /// Under the old constant-offset-only policy the accumulated drift
    /// eventually walked every such AP out of tolerance.
    #[test]
    fn learned_drift_keeps_a_gently_wandering_clock_accepted(
        offset in -100i64..100,
        drift in -0.4f64..0.4,
        tolerance in 2u64..5,
        n_windows in 1u64..64,
    ) {
        let skew = ApSkew { window_offset: offset, seq_offset: 0, drift_ppw: drift };
        let mut aligner = SkewAligner::new(tolerance);
        let ap = aligner.add_ap();
        for w in 0..n_windows {
            aligner.note_dispatch(ap, w, None);
        }
        for w in 0..n_windows {
            let got = aligner.align(ap, w, skew.window_label(w), None).expect("dispatched");
            prop_assert_eq!(got.global, w);
            prop_assert!(
                got.deviation.unsigned_abs() <= 2,
                "window {} deviation {} under learned drift",
                w, got.deviation
            );
            prop_assert!(got.accepted, "window {} rejected: {:?}", w, got);
        }
    }

    /// Steep drift: a clock gaining more skew per window than the
    /// tolerance allows never produces an accepted drifted report, so
    /// the rate is never learned and every drifted label is rejected —
    /// while still being attributed to its FIFO global window for
    /// per-AP blame.
    #[test]
    fn drift_steeper_than_tolerance_stays_rejected(
        offset in -100i64..100,
        drift in 2.0f64..4.0,
        tolerance in 0u64..2,
        n_windows in 2u64..32,
    ) {
        let skew = ApSkew { window_offset: offset, seq_offset: 0, drift_ppw: drift };
        let mut aligner = SkewAligner::new(tolerance);
        let ap = aligner.add_ap();
        for w in 0..n_windows {
            aligner.note_dispatch(ap, w, None);
        }
        for w in 0..n_windows {
            let got = aligner.align(ap, w, skew.window_label(w), None).expect("dispatched");
            prop_assert_eq!(got.global, w);
            prop_assert_eq!(got.accepted, w == 0, "window {}: {:?}", w, got);
        }
    }
}
