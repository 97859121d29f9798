//! The unified counter/gauge/histogram registry.
//!
//! A [`Registry`] maps hierarchical, dot-separated metric names (plus an
//! optional label set) to shared atomic instruments. Registration takes
//! a lock; the returned [`Counter`]/[`Gauge`]/histogram handles are
//! `Arc`-backed atomics, so the *record* path never touches the
//! registry again — register once at setup, mutate lock-free on the hot
//! path, and call [`Registry::snapshot`] to read everything out in one
//! coherent, deterministically ordered [`TelemetrySnapshot`].

use crate::histogram::Histogram;
use crate::snapshot::{CounterSample, GaugeSample, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric identity: `(name, sorted-or-as-given labels)`. Labels are part
/// of the key, so `decode.packets{ap=0}` and `decode.packets{ap=1}` are
/// distinct instruments.
type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    (
        name.to_string(),
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

/// A monotonically increasing counter handle (cloned `Arc` onto the hot
/// path; all operations are relaxed atomics).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value — for mirroring an externally maintained
    /// total (e.g. a deterministic stats struct) into the registry.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a signed instantaneous value (queue depth, occupancy,
/// health score).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Overwrite with a fractional value scaled to milli-units (the
    /// registry convention for ratio gauges such as health scores:
    /// `0.35` is stored as `350`).
    #[inline]
    pub fn set_milli(&self, v: f64) {
        self.set((v * 1000.0).round() as i64);
    }

    /// Ratchet up to `v` if it exceeds the current value (high-water
    /// marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<Key, Counter>,
    gauges: BTreeMap<Key, Gauge>,
    histograms: BTreeMap<Key, Arc<Histogram>>,
}

/// The registry: get-or-create instruments by `(name, labels)`, snapshot
/// them all at once. Shareable across threads behind an `Arc`; all
/// methods take `&self`.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`. Registering the same
    /// identity twice returns a handle to the same underlying atomic.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        inner.counters.entry(key(name, labels)).or_default().clone()
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        inner.gauges.entry(key(name, labels)).or_default().clone()
    }

    /// Get or create the histogram `name{labels}`. Per-shard callers
    /// should register distinct labels (e.g. `shard="3"`) and let
    /// [`TelemetrySnapshot::merged_histogram`] fold them, rather than
    /// share one instance across cores.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        inner
            .histograms
            .entry(key(name, labels))
            .or_default()
            .clone()
    }

    /// A coherent point-in-time copy of every registered instrument,
    /// ordered by `(name, labels)` — the ordering is deterministic, so
    /// two snapshots of identical state render identically.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        TelemetrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|((name, labels), c)| CounterSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((name, labels), g)| GaugeSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|((name, labels), h)| h.snapshot(name, labels))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_shares_the_atomic() {
        let r = Registry::new();
        let a = r.counter("decode.packets", &[("ap", "0")]);
        let b = r.counter("decode.packets", &[("ap", "0")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        // A different label set is a different instrument.
        let c = r.counter("decode.packets", &[("ap", "1")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_ops() {
        let r = Registry::new();
        let g = r.gauge("queue.depth", &[]);
        g.set(5);
        g.add(-2);
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("z.last", &[]).inc();
        r.counter("a.first", &[]).add(2);
        r.gauge("m.middle", &[]).set(-3);
        r.histogram("stage.x", &[("shard", "1")]).record(100);
        r.histogram("stage.x", &[("shard", "0")]).record(50);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(s.counters[0].value, 2);
        assert_eq!(s.gauges[0].value, -3);
        assert_eq!(s.histograms.len(), 2);
        // Shard 0 sorts before shard 1.
        assert_eq!(s.histograms[0].labels, [("shard".into(), "0".into())]);
        let merged = s.merged_histogram("stage.x").expect("present");
        assert_eq!(merged.count, 2);
    }
}
