//! The stage-histogram registry.
//!
//! A [`Registry`] maps hierarchical, dot-separated metric names (plus an
//! optional label set) to shared [`Histogram`]s. Its owner registers
//! through `&mut self`; the returned handles are `Arc`-backed atomics,
//! so the *record* path — on whichever thread holds a handle — never
//! touches the registry again: register once at setup, record lock-free
//! on the hot path, and call [`Registry::snapshot`] to read every
//! histogram out in one deterministically ordered
//! [`TelemetrySnapshot`]. Counters and gauges are not registered here:
//! their owners already keep them as plain values and push them into a
//! snapshot ([`TelemetrySnapshot::push_counter`]) when one is taken.

use crate::histogram::Histogram;
use crate::snapshot::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Metric identity: `(name, labels as given)`. Labels are part of the
/// key, so `stage.worker_dsp{ap=0}` and `stage.worker_dsp{ap=1}` are
/// distinct instruments.
type Key = (String, Vec<(String, String)>);

/// The registry: get-or-create histograms by `(name, labels)`, snapshot
/// them all at once. One owner registers; the histograms it hands out
/// are what threads share.
#[derive(Debug, Default)]
pub struct Registry {
    histograms: BTreeMap<Key, Arc<Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the histogram `name{labels}`. Registering the same
    /// identity twice returns the same instance. Per-thread callers
    /// should register distinct labels (e.g. `ap="3"`) and let
    /// [`TelemetrySnapshot::merged_histogram`] fold them, rather than
    /// share one instance across cores.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = (
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        self.histograms.entry(key).or_default().clone()
    }

    /// A point-in-time copy of every registered histogram, ordered by
    /// `(name, labels)`; the snapshot's counters and gauges are empty.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            histograms: self
                .histograms
                .iter()
                .map(|((name, labels), h)| h.snapshot(name, labels))
                .collect(),
            ..TelemetrySnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_shares_the_atomic() {
        let mut r = Registry::new();
        let a = r.histogram("stage.worker_dsp", &[("ap", "0")]);
        let b = r.histogram("stage.worker_dsp", &[("ap", "0")]);
        a.record(3);
        b.record(4);
        assert_eq!(a.count(), 2);
        // A different label set is a different instrument.
        assert_eq!(r.histogram("stage.worker_dsp", &[("ap", "1")]).count(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut r = Registry::new();
        r.histogram("stage.x", &[("ap", "1")]).record(100);
        r.histogram("stage.x", &[("ap", "0")]).record(50);
        r.histogram("a.first", &[]).record(1);
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty());
        let names: Vec<&str> = s.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["a.first", "stage.x", "stage.x"]);
        // AP 0 sorts before AP 1.
        assert_eq!(s.histograms[1].labels, [("ap".into(), "0".into())]);
        let merged = s.merged_histogram("stage.x").expect("present");
        assert_eq!(merged.count, 2);
    }
}
