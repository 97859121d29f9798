//! The metric tables and the result line.
//!
//! Every metric the command can print is named here once, with its
//! unit; `BENCHMARK.json` must list exactly these (pinned by the tests
//! below), and a result line is refused unless every metric of its
//! table was measured.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// Printed by the untraced run (`--trace 0`).
pub const END_TO_END: [Def; 11] = [
    ("captures_per_s", "1/s"),
    ("window_p50_ms", "ms"),
    ("window_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fix_err_p50_m", "m"),
    ("fix_err_p90_m", "m"),
    ("fix_frac", "frac"),
    ("spoof_catch_frac", "frac"),
    ("legit_unflagged_frac", "frac"),
    ("captures_ok_frac", "frac"),
];

/// Printed by the traced run (`--trace 1`).
pub const PER_LAYER: [Def; 45] = [
    ("decode.us_per_tx_p50", "us"),
    ("decode.us_per_tx_p95", "us"),
    ("decode.calls", "count"),
    ("decode.failures", "count"),
    ("decode.share", "frac"),
    ("dsp.us_per_capture_p50", "us"),
    ("dsp.us_per_capture_p95", "us"),
    ("dsp.push_us_per_capture", "us"),
    ("dsp.process_us_per_capture", "us"),
    ("dsp.bearings_per_capture", "frac"),
    ("dsp.observe_failures", "count"),
    ("dsp.share", "frac"),
    ("enforce.us_per_obs", "us"),
    ("enforce.admit_frac", "frac"),
    ("enforce.trains", "count"),
    ("enforce.share", "frac"),
    ("fusion.us_per_window", "us"),
    ("fusion.us_per_client", "us"),
    ("fusion.fixes_per_client", "frac"),
    ("fusion.localize_failures", "count"),
    ("fusion.share", "frac"),
    ("deploy.submit_us_per_window", "us"),
    ("deploy.collect_wait_us_per_window", "us"),
    ("deploy.cpu_busy_frac", "frac"),
    ("deploy.ingest_backpressure", "count"),
    ("deploy.report_backpressure", "count"),
    ("deploy.max_fusion_queue_depth", "count"),
    ("deploy.reports_lost", "count"),
    ("deploy.reports_corrupt", "count"),
    ("deploy.skew_rejections", "count"),
    ("deploy.windows_stalled", "count"),
    ("deploy.quarantines", "count"),
    ("deploy.readmissions", "count"),
    ("deploy.rebaselines", "count"),
    ("telemetry.snapshot_us", "us"),
    ("telemetry.export_us", "us"),
    ("telemetry.bytes", "bytes"),
    ("stage.decode.p50_us", "us"),
    ("stage.worker_dsp.p50_us", "us"),
    ("stage.enforce.p50_us", "us"),
    ("stage.fusion_drain.p50_us", "us"),
    ("stage.consensus.p50_us", "us"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("host.matmul_16x16_ns", "ns"),
];

/// Measured values, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of `defs`, each with all its digits. Fails if a
    /// metric is missing or not finite, or a value was set that `defs`
    /// does not name.
    pub fn result_line(
        &self,
        defs: &[Def],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self.0.keys().find(|k| !defs.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the table"));
        }
        let mut metrics = Vec::with_capacity(defs.len());
        for &(name, unit) in defs {
            let v = self
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// The `"name"`/`"unit"` pairs of one array in `BENCHMARK.json`. The
    /// file is small and ours, so a string scan is enough.
    fn listed(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .split(&format!("\"{f}\""))
                        .nth(1)
                        .and_then(|rest| rest.split('"').nth(1))
                        .map(str::to_string)
                };
                (field("name").expect("every entry is named"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let json = benchmark_json();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = listed(&json, key);
            let expect: Vec<(String, Option<String>)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(listed, expect, "{key} in BENCHMARK.json");
        }
        let workloads = listed(&json, "workloads");
        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        let expect: Vec<&str> = crate::workload::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let json = benchmark_json();
        let mut all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|k| listed(&json, k))
            .map(|(n, _)| n)
            .collect();
        for n in &all {
            assert!(is_name(n), "bad metric or workload name {n:?}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }

    #[test]
    fn result_line_carries_every_metric_and_refuses_gaps() {
        let mut v = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            v.set(name, 1.0 + i as f64 / 3.0);
        }
        let line = v.result_line(&END_TO_END, true, 5, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        // All the digits: 1 + 1/3 is not rounded.
        assert!(line.contains("1.3333333333333333"));
        assert!(v.result_line(&PER_LAYER, true, 5, 0).is_err());
        v.set("window_p50_ms", f64::NAN);
        assert!(v.result_line(&END_TO_END, true, 5, 0).is_err());
    }
}
