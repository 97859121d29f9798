//! Every metric `BENCHMARK.json` names is well formed and is printed, as
//! a number, on the result line of the command it describes.

use std::process::Command;

/// The `"name"` values of one array in `BENCHMARK.json` (a string scan:
/// the file is small, ours, and the vendored JSON crate cannot parse).
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// The result line of one short run: the last line of standard output.
fn result_line(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args([
            "--workload",
            "fleet_degraded",
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "run failed:\n{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_benchmark_name_is_printed_by_the_command() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let line = result_line(trace);
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        let listed = names(&json, key);
        assert!(!listed.is_empty());
        for name in listed {
            assert!(well_formed(&name), "malformed name {name:?}");
            let key = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&key)
                .unwrap_or_else(|| panic!("{name} not printed with --trace {trace}"));
            let value = line[at + key.len()..].split(',').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "{name} = {value:?}");
        }
    }
}
