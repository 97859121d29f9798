//! [`TelemetrySnapshot`]: one point-in-time view of a subsystem's
//! counters, gauges and [`crate::Registry`] histograms, and its export
//! surfaces (Prometheus text exposition, JSON document).
//!
//! Snapshots are plain data — `Clone + PartialEq + Default` — ordered
//! deterministically by `(name, labels)`, so two snapshots of identical
//! state compare and render identically. A disabled-telemetry
//! deployment carries `TelemetrySnapshot::default()` (all vectors
//! empty), which keeps `Debug`-formatted reports byte-stable.

use crate::histogram::HistogramSnapshot;
use serde::{Serialize, Value};

/// One counter reading: `name{labels} = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Hierarchical dot-separated metric name (e.g. `decode.packets`).
    pub name: String,
    /// Label set (may be empty).
    pub labels: Vec<(String, String)>,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge reading: `name{labels} = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Hierarchical dot-separated metric name (e.g. `store.occupancy`).
    pub name: String,
    /// Label set (may be empty).
    pub labels: Vec<(String, String)>,
    /// Gauge value at snapshot time.
    pub value: i64,
}

/// A point-in-time copy of counters, gauges and histograms, each sorted
/// by `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Counter readings, sorted by `(name, labels)`.
    pub counters: Vec<CounterSample>,
    /// Gauge readings, sorted by `(name, labels)`.
    pub gauges: Vec<GaugeSample>,
    /// Histogram snapshots, sorted by `(name, labels)` — one entry per
    /// instance (per AP for the worker stages); use
    /// [`TelemetrySnapshot::merged_histogram`] for the cross-AP
    /// aggregate.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Add a counter reading. Samples may arrive in any order; call
    /// [`TelemetrySnapshot::sort`] once they are all in.
    pub fn push_counter(&mut self, name: String, labels: &[(&str, &str)], value: u64) {
        self.counters.push(CounterSample {
            name,
            labels: owned(labels),
            value,
        });
    }

    /// Add a gauge reading (see [`TelemetrySnapshot::push_counter`]).
    pub fn push_gauge(&mut self, name: String, labels: &[(&str, &str)], value: i64) {
        self.gauges.push(GaugeSample {
            name,
            labels: owned(labels),
            value,
        });
    }

    /// Order every sample kind by `(name, labels)`, compared as strings
    /// (so `ap="10"` sorts before `ap="2"`). Exports render in this
    /// order.
    pub fn sort(&mut self) {
        self.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// True when nothing was ever registered — the disabled-telemetry
    /// shape.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of counter `name` summed across all label sets
    /// (`None` if no instance exists).
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut hit = false;
        let mut total = 0u64;
        for c in self.counters.iter().filter(|c| c.name == name) {
            hit = true;
            total += c.value;
        }
        hit.then_some(total)
    }

    /// The value of gauge `name` with exactly the given labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| {
                g.name == name
                    && g.labels.len() == labels.len()
                    && g.labels
                        .iter()
                        .zip(labels)
                        .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            })
            .map(|g| g.value)
    }

    /// All per-AP instances of histogram `name`, folded into one
    /// aggregate (label-free). `None` if no instance exists.
    pub fn merged_histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for h in self.histograms.iter().filter(|h| h.name == name) {
            match &mut merged {
                Some(m) => m.merge(h),
                None => {
                    let mut m = h.clone();
                    m.labels.clear();
                    merged = Some(m);
                }
            }
        }
        merged
    }

    /// Render as Prometheus text exposition (see [`crate::expo`]).
    pub fn to_prometheus(&self) -> String {
        crate::expo::render(self)
    }

    /// Render as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("Value rendering is infallible")
    }
}

fn owned(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn labels_value(labels: &[(String, String)]) -> Value {
    Value::Object(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

impl Serialize for TelemetrySnapshot {
    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("labels".into(), labels_value(&c.labels)),
                    ("value".into(), Value::UInt(c.value)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|g| {
                Value::Object(vec![
                    ("name".into(), Value::Str(g.name.clone())),
                    ("labels".into(), labels_value(&g.labels)),
                    ("value".into(), Value::Int(g.value)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                // Sparse bucket encoding: only non-empty buckets, as
                // [index, count] pairs — 64 mostly-zero slots would
                // dominate the document otherwise.
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(c)]))
                    .collect();
                Value::Object(vec![
                    ("name".into(), Value::Str(h.name.clone())),
                    ("labels".into(), labels_value(&h.labels)),
                    ("count".into(), Value::UInt(h.count)),
                    ("sum".into(), Value::UInt(h.sum)),
                    ("max".into(), Value::UInt(h.max)),
                    ("p50".into(), h.p50().map_or(Value::Null, Value::UInt)),
                    ("p90".into(), h.p90().map_or(Value::Null, Value::UInt)),
                    ("p99".into(), h.p99().map_or(Value::Null, Value::UInt)),
                    ("buckets".into(), Value::Array(buckets)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "schema".into(),
                Value::Str("secureangle-telemetry-v1".into()),
            ),
            ("counters".into(), Value::Array(counters)),
            ("gauges".into(), Value::Array(gauges)),
            ("histograms".into(), Value::Array(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> TelemetrySnapshot {
        let mut r = Registry::new();
        let h = r.histogram("stage.decode", &[]);
        for v in [100u64, 900, 40_000] {
            h.record(v);
        }
        let mut s = r.snapshot();
        s.push_counter("decode.packets".into(), &[("ap", "1")], 7);
        s.push_counter("decode.packets".into(), &[("ap", "0")], 10);
        s.push_gauge("store.occupancy".into(), &[], 42);
        s.sort();
        s
    }

    #[test]
    fn sort_orders_by_name_then_labels_as_strings() {
        let mut s = TelemetrySnapshot::default();
        for ap in ["2", "10", "1"] {
            s.push_counter("ap.windows".into(), &[("ap", ap)], 0);
        }
        s.push_counter("a.first".into(), &[], 0);
        s.sort();
        let keys: Vec<String> = s
            .counters
            .iter()
            .map(|c| format!("{}{:?}", c.name, c.labels))
            .collect();
        assert_eq!(
            keys,
            [
                "a.first[]",
                "ap.windows[(\"ap\", \"1\")]",
                "ap.windows[(\"ap\", \"10\")]",
                "ap.windows[(\"ap\", \"2\")]",
            ]
        );
    }

    #[test]
    fn counter_total_sums_label_sets() {
        let s = sample();
        assert_eq!(s.counter_total("decode.packets"), Some(17));
        assert_eq!(s.counter_total("missing"), None);
        assert_eq!(s.gauge_value("store.occupancy", &[]), Some(42));
        assert_eq!(s.gauge_value("store.occupancy", &[("x", "y")]), None);
    }

    #[test]
    fn default_is_empty_and_stable() {
        let s = TelemetrySnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s, TelemetrySnapshot::default());
        assert_eq!(
            format!("{s:?}"),
            format!("{:?}", TelemetrySnapshot::default())
        );
    }

    #[test]
    fn json_document_has_the_schema_header() {
        let s = sample();
        let json = s.to_json();
        assert!(json.contains("secureangle-telemetry-v1"));
        assert!(json.contains("decode.packets"));
        assert!(json.contains("\"p99\""));
        // Round-trips through the in-repo parser (string-identical once
        // re-rendered; Int/UInt variant differences render the same).
        let reparsed = crate::json::parse(&json).expect("own JSON parses");
        assert_eq!(
            crate::json::render_pretty(&reparsed),
            crate::json::render_pretty(&s.to_value())
        );
    }
}
