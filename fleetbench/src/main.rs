//! Fleet benchmark for the SecureAngle deployment.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <office_1024|campus_short|fleet_degraded> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` drives a `sa_deploy::Deployment` from this one thread in
//! a closed loop at `windows_in_flight = 2` for `S` seconds, checks every
//! fused window, and prints the end-to-end metrics. `--trace 1` is the
//! separate traced invocation: it alternates blocks of untraced and
//! traced windows (the difference is `trace.overhead_frac`), reads the
//! program's own stage histograms, replays the same inputs serially
//! through each layer's public functions with spans around every call,
//! writes the spans to `.bench_trace/`, and prints the per-layer
//! metrics. Either way the last line of standard output is the JSON
//! result; failed output checks exit non-zero.

mod check;
mod drive;
mod host;
mod metrics;
mod stats;
mod trace;
mod workload;

use check::Ledger;
use drive::{drive, Run, Stop};
use metrics::Values;
use sa_deploy::{DeployConfig, DeployMetrics, TelemetryConfig};
use sa_telemetry::TelemetrySnapshot;
use std::time::Instant;
use trace::{LayerCounts, Replay, Tracer};
use workload::{Inputs, Kind};

/// Latency samples a run needs for its p95 to have ten beyond it.
const MIN_LATENCY_WINDOWS: usize = 200;
/// Throughput is the median over this many equal-count blocks.
const THROUGHPUT_BLOCKS: usize = 20;
/// Layer self time must cover this share of the replay's wall time.
const MIN_COVERAGE: f64 = 0.95;
/// Replay windows a traced run makes at the least.
const MIN_REPLAY_WINDOWS: u64 = 8;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// A finished run: its result line and whether every check passed.
struct Outcome {
    line: String,
    correct: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or(format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fleetbench --workload <{}> --seed N --seconds S --trace <0|1>",
                workload::ALL.map(|(n, _)| n).join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", host::facts(args.seed));
    let matmul_ns = host::matmul_16x16_ns();
    println!("calibration: matmul_16x16 {matmul_ns:.1} ns");

    let t0 = Instant::now();
    let inputs = Inputs::generate(args.kind, args.seed);
    println!(
        "gen_s {:.3} (load generation, not a metric): {} input windows of {} transmissions",
        t0.elapsed().as_secs_f64(),
        inputs.windows.len(),
        inputs.windows[0].txs.len()
    );

    let outcome = if args.trace {
        traced(&args, &inputs, matmul_ns)
    } else {
        end_to_end(&args, &inputs)
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.line);
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Print the failed checks; true when there were none.
fn report_checks(failures: &[String]) -> bool {
    for f in failures {
        println!("CHECK FAILED: {f}");
    }
    failures.is_empty()
}

/// The untraced run: set-up timed several times, then the closed loop.
fn end_to_end(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let kind = args.kind;
    let cfg = kind.config(args.seed);
    let mut setups = Vec::new();
    let mut dep = None;
    let mut warm = 0;
    for _ in 0..kind.setups() {
        if let Some(d) = dep.take() {
            let _ = sa_deploy::Deployment::finish(d);
        }
        let t0 = Instant::now();
        let (d, w) = workload::set_up(kind, args.seed, cfg.clone(), inputs)?;
        setups.push(t0.elapsed().as_secs_f64());
        dep = Some(d);
        warm = w;
    }
    let mut dep = dep.expect("at least one set-up");
    println!(
        "setup: {} set-ups, {warm} warm-up windows each, median {:.4} s",
        setups.len(),
        stats::median(&setups)
    );

    let mut ledger = Ledger::new(inputs);
    let stop = Stop {
        seconds: args.seconds,
        min_windows: kind.accuracy_windows().max(MIN_LATENCY_WINDOWS),
    };
    let run = drive(
        &mut dep,
        inputs,
        &mut 0,
        stop,
        &mut ledger,
        None,
        kind.exports_telemetry(),
    )?;
    let _ = dep.finish();
    let acc = ledger.finish(true);

    let lat = stats::sorted(run.latency_ms.clone());
    if !stats::supports(lat.len(), 95.0) {
        return Err(format!("{} windows cannot support a p95", lat.len()));
    }
    let tail = stats::tail(&lat).expect("p95 is supported");
    println!(
        "loop: {} windows in {:.2} s, closed loop at depth {}; latency p50 {:.3} ms, p95 {:.3} ms, p{} {:.3} ms (n={})",
        lat.len(),
        run.wall_s,
        cfg.windows_in_flight,
        stats::quantile(&lat, 0.5),
        stats::quantile(&lat, 0.95),
        tail.pct,
        tail.value,
        tail.n
    );
    println!(
        "accuracy over the first {} windows: {}; fix error over {} fixes",
        ledger.accuracy.len(),
        ledger.counts(),
        acc.fixes
    );
    let (per_window, chain) = ledger.digests();
    for (w, d) in &per_window {
        println!("digest window {w} {d:016x}");
    }
    println!("digest chain {chain:016x}");
    let correct = report_checks(&ledger.failures);

    let mut v = Values::default();
    v.set("captures_per_s", throughput(&run));
    v.set("window_p50_ms", stats::quantile(&lat, 0.5));
    v.set("window_p95_ms", stats::quantile(&lat, 0.95));
    v.set("setup_s", stats::median(&setups));
    v.set("peak_rss_mb", host::peak_rss_mb()?);
    v.set("fix_err_p50_m", acc.fix_err_p50_m);
    v.set("fix_err_p90_m", acc.fix_err_p90_m);
    v.set("fix_frac", acc.fix_frac);
    v.set("spoof_catch_frac", acc.spoof_catch_frac);
    v.set("legit_unflagged_frac", acc.legit_unflagged_frac);
    v.set("captures_ok_frac", acc.captures_ok_frac);
    print_metrics(&v, &metrics::END_TO_END);
    Ok(Outcome {
        line: v.result_line(&metrics::END_TO_END, correct, lat.len() as u64, 0)?,
        correct,
    })
}

/// Per-AP captures fused per second: the median over equal-count
/// blocks of collected windows, so one stalled stretch moves one block.
fn throughput(run: &Run) -> f64 {
    let t = &run.collected_s;
    let n = t.len();
    let blocks = THROUGHPUT_BLOCKS.min((n - 1) / 4).max(1);
    let rates: Vec<f64> = (0..blocks)
        .map(|j| {
            let (lo, hi) = (j * (n - 1) / blocks, (j + 1) * (n - 1) / blocks);
            let captures: u64 = run.captures[lo + 1..=hi].iter().sum();
            captures as f64 / (t[hi] - t[lo])
        })
        .collect();
    stats::median(&rates)
}

fn print_metrics(v: &Values, defs: &[metrics::Def]) {
    for (name, unit) in defs {
        if let Some(x) = v.get(name) {
            println!("metric {name} {x} {unit}");
        }
    }
}

/// Median of a histogram's samples, interpolated within its log2
/// bucket (the snapshot's own `p50` is the bucket floor), microseconds.
fn hist_p50_us(snap: &TelemetrySnapshot, stage: &str) -> f64 {
    let Some(h) = snap.merged_histogram(stage) else {
        return 0.0;
    };
    let rank = h.count.div_ceil(2).max(1);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c > 0 && seen + c >= rank {
            let lo = sa_telemetry::histogram::bucket_floor(i) as f64;
            let hi = if i == 0 { 0.0 } else { 2.0 * lo };
            let within = (rank - seen) as f64 / c as f64;
            return (lo + within * (hi - lo)).min(h.max as f64) / 1e3;
        }
        seen += c;
    }
    h.max as f64 / 1e3
}

/// A deployment-wide counter reported as its change over the traced blocks.
type FleetCounter = (&'static str, fn(&DeployMetrics) -> u64);

/// The traced run: untraced and traced blocks alternating over two
/// deployments for half the time, then the serial layer replay.
fn traced(args: &Args, inputs: &Inputs, matmul_ns: f64) -> Result<Outcome, String> {
    let kind = args.kind;
    let cfg = kind.config(args.seed);
    let traced_cfg = DeployConfig {
        telemetry: TelemetryConfig::full(),
        ..cfg.clone()
    };
    let (mut plain, _) = workload::set_up(kind, args.seed, cfg.clone(), inputs)?;
    let (mut traced, _) = workload::set_up(kind, args.seed, traced_cfg, inputs)?;
    let mut tracer = Tracer::new();
    let mut plain_ledger = Ledger::new(inputs);
    let mut traced_ledger = Ledger::new(inputs);
    let (mut plain_cursor, mut traced_cursor) = (0u64, 0u64);
    let base = *traced.metrics();
    let rebaselines = |s: &TelemetrySnapshot| s.gauge_value("fusion.rebaselines", &[]).unwrap_or(0);
    let base_rebaselines = rebaselines(&traced.telemetry_snapshot());
    let block = Stop {
        seconds: 0.0,
        min_windows: kind.block_windows(),
    };

    // Blocks run P T T P P T T P …, so drift hits both sides alike.
    let start = Instant::now();
    let (mut plain_per_window, mut traced_per_window) = (Vec::new(), Vec::new());
    let (mut plain_cpu_s, mut plain_wall_s) = (0.0, 0.0);
    let mut traced_runs = Vec::new();
    let mut i = 0usize;
    while i < 4 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        if matches!(i % 4, 0 | 3) {
            let cpu0 = host::cpu_seconds()?;
            let r = drive(
                &mut plain,
                inputs,
                &mut plain_cursor,
                block,
                &mut plain_ledger,
                None,
                kind.exports_telemetry(),
            )?;
            plain_cpu_s += host::cpu_seconds()? - cpu0;
            plain_wall_s += r.wall_s;
            plain_per_window.push(r.wall_s / r.latency_ms.len() as f64);
        } else {
            let r = drive(
                &mut traced,
                inputs,
                &mut traced_cursor,
                block,
                &mut traced_ledger,
                Some(&mut tracer),
                true,
            )?;
            traced_per_window.push(r.wall_s / r.latency_ms.len() as f64);
            traced_runs.push(r);
        }
        i += 1;
    }
    let snap = traced.telemetry_snapshot();
    let m = *traced.metrics();
    let _ = plain.finish();
    let _ = traced.finish();
    plain_ledger.finish(false);
    traced_ledger.finish(false);

    let mut v = Values::default();
    let mut set = |name: &'static str, x: f64| v.set(name, x);
    let all = |f: fn(&Run) -> &Vec<f64>| -> Vec<f64> {
        traced_runs
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    };
    set(
        "deploy.submit_us_per_window",
        stats::mean(&all(|r| &r.submit_us)),
    );
    set(
        "deploy.collect_wait_us_per_window",
        stats::mean(&all(|r| &r.collect_us)),
    );
    set(
        "deploy.cpu_busy_frac",
        stats::ratio(plain_cpu_s, plain_wall_s * host::nproc() as f64),
    );
    let counters: [FleetCounter; 8] = [
        ("deploy.ingest_backpressure", |m| {
            m.ingest_backpressure_events
        }),
        ("deploy.report_backpressure", |m| {
            m.report_backpressure_events
        }),
        ("deploy.reports_lost", |m| m.reports_lost),
        ("deploy.reports_corrupt", |m| m.reports_corrupt),
        ("deploy.skew_rejections", |m| m.skew_rejections),
        ("deploy.windows_stalled", |m| m.windows_stalled),
        ("deploy.quarantines", |m| m.aps_quarantined),
        ("deploy.readmissions", |m| m.aps_readmitted),
    ];
    for (name, counter) in counters {
        set(name, (counter(&m) - counter(&base)) as f64);
    }
    set(
        "deploy.max_fusion_queue_depth",
        m.max_fusion_queue_depth as f64,
    );
    set(
        "deploy.rebaselines",
        (rebaselines(&snap) - base_rebaselines) as f64,
    );
    set(
        "telemetry.snapshot_us",
        stats::median(&all(|r| &r.snapshot_us)),
    );
    set("telemetry.export_us", stats::median(&all(|r| &r.export_us)));
    set("telemetry.bytes", stats::median(&all(|r| &r.export_bytes)));
    for (stage, name) in [
        ("stage.decode", "stage.decode.p50_us"),
        ("stage.worker_dsp", "stage.worker_dsp.p50_us"),
        ("stage.enforce", "stage.enforce.p50_us"),
        ("stage.fusion_drain", "stage.fusion_drain.p50_us"),
        ("stage.consensus", "stage.consensus.p50_us"),
    ] {
        set(name, hist_p50_us(&snap, stage));
    }
    set(
        "trace.overhead_frac",
        stats::median(&traced_per_window) / stats::median(&plain_per_window) - 1.0,
    );
    set("host.matmul_16x16_ns", matmul_ns);
    println!(
        "deploy blocks: {} untraced / {} traced blocks of {} windows; per-window wall {:.3} ms untraced, {:.3} ms traced",
        plain_per_window.len(),
        traced_per_window.len(),
        kind.block_windows(),
        stats::median(&plain_per_window) * 1e3,
        stats::median(&traced_per_window) * 1e3,
    );

    // The serial layer replay, for the rest of the time.
    let mut replay = Replay::new(workload::build_aps(kind, args.seed), &cfg);
    replay.warm_up(inputs, 2 * inputs.clean().count() as u64);
    let mut counts = LayerCounts::default();
    let replay_start = Instant::now();
    let mut k = 0u64;
    while k < MIN_REPLAY_WINDOWS || start.elapsed().as_secs_f64() < args.seconds {
        replay.window(k, inputs.window(k), &mut tracer, &mut counts);
        k += 1;
    }
    println!(
        "replay: {k} windows in {:.2} s",
        replay_start.elapsed().as_secs_f64()
    );
    trace::layer_metrics(&tracer, &counts, &mut set);

    let path = std::path::PathBuf::from(".bench_trace").join(format!(
        "{}-seed{}.jsonl",
        kind.name(),
        args.seed
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    );

    print_cross_check(&v, &tracer);
    let mut failures: Vec<String> = plain_ledger
        .failures
        .iter()
        .chain(&traced_ledger.failures)
        .cloned()
        .collect();
    let coverage = v.get("trace.coverage_frac").unwrap_or(0.0);
    if coverage < MIN_COVERAGE {
        failures.push(format!(
            "layer self time covers {coverage:.3} of the replay, under {MIN_COVERAGE}"
        ));
    }
    let correct = report_checks(&failures);
    print_metrics(&v, &metrics::PER_LAYER);
    Ok(Outcome {
        line: v.result_line(
            &metrics::PER_LAYER,
            correct,
            plain_cursor + traced_cursor + k,
            0,
        )?,
        correct,
    })
}

/// The program's own stage histograms beside the outside-in numbers.
fn print_cross_check(v: &Values, tracer: &Tracer) {
    let get = |n: &str| v.get(n).unwrap_or(0.0);
    let process = tracer.durations_us("dsp.process");
    let process_p50 = if process.is_empty() {
        0.0
    } else {
        stats::median(&process)
    };
    println!("cross-check: program stage histograms (p50) vs outside-in replay");
    println!(
        "  stage.decode       {:>10.1} us  | decode per transmission p50   {:>10.1} us",
        get("stage.decode.p50_us"),
        get("decode.us_per_tx_p50")
    );
    println!(
        "  stage.worker_dsp   {:>10.1} us  | dsp.process per AP-window p50 {:>10.1} us",
        get("stage.worker_dsp.p50_us"),
        process_p50
    );
    println!(
        "  stage.enforce      {:>10.2} us  | enforce per observation       {:>10.2} us",
        get("stage.enforce.p50_us"),
        get("enforce.us_per_obs")
    );
    println!(
        "  stage.fusion_drain {:>10.1} us  | fusion per window             {:>10.1} us",
        get("stage.fusion_drain.p50_us"),
        get("fusion.us_per_window")
    );
    println!(
        "  stage.consensus    {:>10.2} us  | (inside fusion)",
        get("stage.consensus.p50_us")
    );
    println!(
        "layer shares of replay wall: decode {:.3}, dsp {:.3}, enforce {:.3}, fusion {:.3}; coverage {:.4}",
        get("decode.share"),
        get("dsp.share"),
        get("enforce.share"),
        get("fusion.share"),
        get("trace.coverage_frac")
    );
}
