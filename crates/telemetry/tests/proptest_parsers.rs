//! Fuzz suite for the exported text formats: `expo::parse_exposition`
//! and `json::parse` must turn any input into `Ok` or `Err` — never a
//! panic or a stack overflow — and must read back exactly what the
//! snapshot renderers write.

use proptest::collection::vec;
use proptest::prelude::*;
use sa_telemetry::expo::parse_exposition;
use sa_telemetry::json::{self, MAX_DEPTH};
use sa_telemetry::{Registry, TelemetrySnapshot};

/// Pieces of both grammars, `|`-separated, so random concatenations
/// reach deep into the parsers instead of failing on the first byte.
const FRAGMENTS: &str = "{|}|[|]|\"|\\|\\u|\\n|:|,|=|#|# TYPE |\n| |0|-1|1.5e3|e|null|true|\
                         false|sa_x|quantile|\"k\"|k=\"v\"|NaN|+Inf|counter|\u{e9}|\u{1f600}|\t";

/// A string mixing grammar fragments with arbitrary characters.
fn fuzz_text() -> impl Strategy<Value = String> {
    let fragments: Vec<&str> = FRAGMENTS.split('|').collect();
    vec((0usize..fragments.len() + 1, any::<char>()), 0..96).prop_map(move |parts| {
        parts
            .into_iter()
            .map(|(i, c)| fragments.get(i).map_or(c.to_string(), |f| f.to_string()))
            .collect()
    })
}

/// A short string over `alphabet`, plus arbitrary characters.
fn text_over(alphabet: &'static str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    vec((0usize..chars.len() + 1, any::<char>()), len).prop_map(move |parts| {
        parts
            .into_iter()
            .map(|(i, c)| chars.get(i).copied().unwrap_or(c))
            .collect()
    })
}

fn labels() -> impl Strategy<Value = Vec<(String, String)>> {
    vec(
        (
            text_over("ap_shard.9-", 0..6),
            text_over("\\\"\n{}=,# 0a\u{e9}", 0..10),
        ),
        0..3,
    )
}

fn as_refs(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

/// A random snapshot: counters, gauges and histograms with hostile
/// names and label values.
fn snapshot() -> impl Strategy<Value = TelemetrySnapshot> {
    let name = || text_over("abc.xyz_-9", 1..10);
    (
        vec((name(), labels(), any::<u64>()), 0..5),
        vec((name(), labels(), any::<i64>()), 0..5),
        vec((name(), labels(), vec(0u64..1_000_000, 0..6)), 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| {
            let mut registry = Registry::new();
            for (name, labels, samples) in &histograms {
                let h = registry.histogram(name, &as_refs(labels));
                for &v in samples {
                    h.record(v);
                }
            }
            let mut s = registry.snapshot();
            for (name, labels, v) in counters {
                s.push_counter(name, &as_refs(&labels), v);
            }
            for (name, labels, v) in gauges {
                s.push_gauge(name, &as_refs(&labels), v);
            }
            s.sort();
            s
        })
}

/// A fixed, realistic snapshot in both export formats.
fn rendered_sample() -> (String, String) {
    let mut registry = Registry::new();
    for (shard, v) in [("0", 1_200u64), ("1", 90_000)] {
        registry
            .histogram("stage.decode", &[("shard", shard)])
            .record(v);
    }
    let mut s = registry.snapshot();
    s.push_counter("fleet.windows".into(), &[], 12);
    s.push_counter("ap.packets".into(), &[("ap", "10")], 96);
    s.push_counter("ap.packets".into(), &[("ap", "2")], 95);
    s.push_gauge("ap.health_score".into(), &[("ap", "q\"\\\n\u{e9}")], -3);
    s.sort();
    (s.to_prometheus(), s.to_json())
}

/// Apply `(op, position, byte)` edits — 0 replaces, 1 inserts, 2
/// deletes — and read the result back as (lossy) UTF-8.
fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, pos, byte) in edits {
        if bytes.is_empty() {
            bytes.push(byte);
            continue;
        }
        let at = pos % bytes.len();
        match op {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn every_truncation_of_a_real_export_is_handled() {
    let (prom, json_text) = rendered_sample();
    assert!(parse_exposition(&prom).is_ok());
    assert!(json::parse(&json_text).is_ok());
    for (cut, _) in prom.char_indices() {
        let _ = parse_exposition(&prom[..cut]);
    }
    for (cut, _) in json_text.char_indices().skip(1) {
        // A JSON prefix is never a complete document: the top-level
        // object is still open.
        assert!(json::parse(&json_text[..cut]).is_err(), "prefix {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_text_never_panics(text in fuzz_text()) {
        let _ = parse_exposition(&text);
        let _ = json::parse(&text);
    }

    #[test]
    fn byte_edits_of_a_real_export_never_panic(
        edits in vec((0u8..3, any::<usize>(), any::<u8>()), 1..8),
    ) {
        let (prom, json_text) = rendered_sample();
        let _ = parse_exposition(&mutate(&prom, &edits));
        let _ = json::parse(&mutate(&json_text, &edits));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error(
        depth in MAX_DEPTH + 1..20_000,
        (open, close) in prop_oneof![
            Just(("[", "]")),
            Just(("{\"k\":", "}")),
            Just(("[{\"a\":", "}]")),
        ],
        closed in any::<bool>(),
    ) {
        let mut text = open.repeat(depth);
        if closed {
            text.push_str("null");
            text.push_str(&close.repeat(depth));
        }
        prop_assert!(json::parse(&text).is_err());
        let braces = format!("sa_x{}{} 1", "{".repeat(depth), "}".repeat(depth));
        prop_assert!(parse_exposition(&braces).is_err());
    }

    #[test]
    fn nesting_within_the_cap_parses(depth in 1..MAX_DEPTH + 1) {
        let text = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        prop_assert!(json::parse(&text).is_ok());
    }

    #[test]
    fn own_renderings_round_trip(s in snapshot()) {
        let prom = s.to_prometheus();
        let samples = parse_exposition(&prom).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(
            samples.len(),
            s.counters.len() + s.gauges.len() + 6 * s.histograms.len()
        );
        let scalars = s
            .counters
            .iter()
            .map(|c| (&c.labels, c.value as f64))
            .chain(s.gauges.iter().map(|g| (&g.labels, g.value as f64)));
        for (sample, (labels, value)) in samples.iter().zip(scalars) {
            prop_assert_eq!(sample.value, value);
            let values: Vec<&String> = sample.labels.iter().map(|(_, v)| v).collect();
            let expected: Vec<&String> = labels.iter().map(|(_, v)| v).collect();
            prop_assert_eq!(values, expected);
        }

        let json_text = s.to_json();
        let doc = json::parse(&json_text).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(json::render_pretty(&doc), json_text);
    }
}
