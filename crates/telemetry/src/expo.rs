//! Prometheus text exposition: rendering a [`TelemetrySnapshot`] in the
//! text format scrapers expect, plus [`parse_exposition`] — a small
//! in-repo validator used by the CI smoke and tests (the container has
//! no real Prometheus to scrape with).
//!
//! Naming: hierarchical dot names become underscore names under an
//! `sa_` namespace prefix (`decode.packets` → `sa_decode_packets`);
//! any character outside `[A-Za-z0-9_]` is mapped to `_`. Label values
//! are escaped per the exposition spec (`\\`, `\"`, `\n`). Histograms
//! render as Prometheus *summaries*: `quantile`-labelled sample lines
//! plus `_sum`/`_count`, with the exact maximum as an extra `_max`
//! gauge.

use crate::snapshot::TelemetrySnapshot;
use std::fmt::Write as _;

/// Map a hierarchical metric name to a Prometheus-safe one: `sa_`
/// prefix, dots (and anything else outside `[A-Za-z0-9_]`) to
/// underscores.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("sa_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline get backslash escapes.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_key(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Map a label key to a valid label name: anything outside
/// `[A-Za-z0-9_]` becomes `_`, and a key that is empty or starts with a
/// digit gets a leading `_` (the exposition grammar, and
/// [`parse_exposition`], reject both).
fn sanitize_label_key(k: &str) -> String {
    let mut out: String = k
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if !out.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
        out.insert(0, '_');
    }
    out
}

/// Render the snapshot as Prometheus text exposition. Output is
/// deterministic: samples appear in snapshot order (sorted by
/// `(name, labels)`), with one `# TYPE` line per distinct metric.
pub fn render(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut last_type_line = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let line = format!("# TYPE {name} {kind}\n");
        if line != last_type_line {
            out.push_str(&line);
            last_type_line = line;
        }
    };

    for c in &snapshot.counters {
        let name = sanitize_name(&c.name);
        type_line(&mut out, &name, "counter");
        let _ = writeln!(out, "{}{} {}", name, label_block(&c.labels, None), c.value);
    }
    for g in &snapshot.gauges {
        let name = sanitize_name(&g.name);
        type_line(&mut out, &name, "gauge");
        let _ = writeln!(out, "{}{} {}", name, label_block(&g.labels, None), g.value);
    }
    for h in &snapshot.histograms {
        let name = sanitize_name(&h.name);
        type_line(&mut out, &name, "summary");
        for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
            let _ = writeln!(
                out,
                "{}{} {}",
                name,
                label_block(&h.labels, Some(("quantile", q))),
                v.unwrap_or(0)
            );
        }
        let block = label_block(&h.labels, None);
        let _ = writeln!(out, "{name}_sum{block} {}", h.sum);
        let _ = writeln!(out, "{name}_count{block} {}", h.count);
        let _ = writeln!(out, "{name}_max{block} {}", h.max);
    }
    out
}

/// One sample line from a parsed exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Metric name as it appears on the wire (already sanitized).
    pub name: String,
    /// Label pairs, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(block: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = block.chars().peekable();
    loop {
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let key: String = {
            let mut k = String::new();
            while let Some(&c) = chars.peek() {
                if c == '=' {
                    break;
                }
                k.push(c);
                chars.next();
            }
            k
        };
        if !valid_metric_name(&key) {
            return Err(format!("line {line_no}: bad label key {key:?}"));
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("line {line_no}: expected =\" after label key"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("line {line_no}: bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("line {line_no}: unterminated label value")),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            None => return Ok(labels),
            Some(c) => return Err(format!("line {line_no}: expected ',' got {c:?}")),
        }
    }
}

/// Parse (and thereby validate) a Prometheus text exposition. Returns
/// every sample line; malformed input — bad metric/label names,
/// unterminated label blocks, non-numeric values — is an `Err` naming
/// the offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: bad TYPE metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {line_no}: bad TYPE kind {kind:?}"));
                }
            }
            continue;
        }
        // `name{labels} value` or `name value`.
        let (ident, value_str) = match line.find('{') {
            Some(_) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
                (&line[..close + 1], line[close + 1..].trim())
            }
            None => {
                let mut it = line.splitn(2, char::is_whitespace);
                let name = it.next().unwrap_or("");
                (name, it.next().unwrap_or("").trim())
            }
        };
        let (name, labels) = match ident.find('{') {
            Some(open) => (
                &ident[..open],
                parse_labels(&ident[open + 1..ident.len() - 1], line_no)?,
            ),
            None => (ident, Vec::new()),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {line_no}: bad sample value {value_str:?}"))?;
        samples.push(ParsedSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn names_are_sanitized_into_the_sa_namespace() {
        assert_eq!(sanitize_name("decode.packets"), "sa_decode_packets");
        assert_eq!(sanitize_name("ap.3.fusion-drain"), "sa_ap_3_fusion_drain");
    }

    #[test]
    fn label_values_are_escaped_and_parse_back() {
        let tricky = "a\\b\"c\nd";
        assert_eq!(escape_label_value(tricky), "a\\\\b\\\"c\\nd");
        let mut s = TelemetrySnapshot::default();
        s.push_counter("odd.metric".into(), &[("path", tricky)], 5);
        let text = s.to_prometheus();
        let samples = parse_exposition(&text).expect("own exposition parses");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "sa_odd_metric");
        assert_eq!(
            samples[0].labels,
            [("path".to_string(), tricky.to_string())]
        );
        assert_eq!(samples[0].value, 5.0);
    }

    #[test]
    fn full_registry_round_trips() {
        let mut r = Registry::new();
        let h = r.histogram("stage.decode", &[("shard", "0")]);
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let mut s = r.snapshot();
        s.push_counter("decode.packets".into(), &[("ap", "0")], 3);
        s.push_counter("decode.packets".into(), &[("ap", "1")], 4);
        s.push_gauge("queue.depth".into(), &[], -2);
        let text = s.to_prometheus();
        let samples = parse_exposition(&text).expect("valid exposition");
        // 2 counters + 1 gauge + (3 quantiles + sum + count + max).
        assert_eq!(samples.len(), 9);
        assert!(text.contains("# TYPE sa_decode_packets counter"));
        assert!(text.contains("# TYPE sa_queue_depth gauge"));
        assert!(text.contains("# TYPE sa_stage_decode summary"));
        assert!(text.contains("sa_stage_decode_count{shard=\"0\"} 3"));
        let quantile = samples
            .iter()
            .find(|s| s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.5"))
            .expect("p50 sample present");
        assert_eq!(quantile.name, "sa_stage_decode");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_exposition("sa_ok 1\n").is_ok());
        assert!(parse_exposition("1bad_name 1\n").is_err());
        assert!(parse_exposition("sa_x{k=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("sa_x not_a_number\n").is_err());
        assert!(parse_exposition("# TYPE sa_x frobnicator\n").is_err());
    }
}
