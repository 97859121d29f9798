//! The closed-loop load generator: one caller thread keeps
//! `windows_in_flight` windows submitted, collecting the oldest before
//! it submits the next. The deployment's own worker threads are the
//! program under test; this loop adds none.

use crate::check::Ledger;
use crate::trace::Tracer;
use crate::workload::Inputs;
use sa_deploy::Deployment;
use std::collections::VecDeque;
use std::time::Instant;

/// When a loop stops submitting: after `seconds` *and* `min_windows`.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub seconds: f64,
    pub min_windows: usize,
}

/// What one loop measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Submit-to-collected latency per window, ms.
    pub latency_ms: Vec<f64>,
    /// When each window was collected, seconds from the loop's start.
    pub collected_s: Vec<f64>,
    /// Per-AP captures in each collected window.
    pub captures: Vec<u64>,
    /// Caller time inside `submit_window` per window, µs.
    pub submit_us: Vec<f64>,
    /// Caller time blocked in `collect_window` per window, µs.
    pub collect_us: Vec<f64>,
    /// `telemetry_snapshot` per exported window, µs.
    pub snapshot_us: Vec<f64>,
    /// Prometheus + JSON rendering per exported window, µs.
    pub export_us: Vec<f64>,
    /// Exported bytes per window.
    pub export_bytes: Vec<f64>,
    /// Loop wall time, seconds.
    pub wall_s: f64,
}

/// A window in flight.
struct Pending {
    k: u64,
    submitted: Instant,
    root: Option<usize>,
    decode_failed: u64,
}

/// Drive `dep` through measured windows `*cursor..` until `stop`, then
/// drain it. Every fused window goes to `ledger`. With `export`, each
/// collected window is followed by a telemetry snapshot rendered as
/// Prometheus text and JSON. With a tracer, each window gets a `window`
/// root span with `deploy.submit`, `deploy.collect` and
/// `telemetry.export` children.
pub fn drive(
    dep: &mut Deployment,
    inputs: &Inputs,
    cursor: &mut u64,
    stop: Stop,
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
    export: bool,
) -> Result<Run, String> {
    let depth = dep.config().windows_in_flight.max(1);
    let mut run = Run::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now();
    let mut submitted = 0usize;
    while submitted < stop.min_windows || start.elapsed().as_secs_f64() < stop.seconds {
        let k = *cursor;
        *cursor += 1;
        let input = inputs.window(k);
        let decode_before = dep.metrics().decode_failures;
        let root = tracer.as_deref_mut().map(|t| t.open("window", k, None));
        let t0 = Instant::now();
        dep.submit_window(input.txs.clone())
            .map_err(|e| format!("submit_window: {e}"))?;
        let t1 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.span("deploy.submit", k, root, t0, t1);
        }
        run.submit_us.push((t1 - t0).as_nanos() as f64 / 1e3);
        inflight.push_back(Pending {
            k,
            submitted: t0,
            root,
            decode_failed: dep.metrics().decode_failures - decode_before,
        });
        submitted += 1;
        while dep.pending_windows() >= depth {
            collect(
                dep,
                inputs,
                &mut inflight,
                &mut run,
                start,
                ledger,
                tracer.as_deref_mut(),
                export,
            )?;
        }
    }
    while dep.pending_windows() > 0 {
        collect(
            dep,
            inputs,
            &mut inflight,
            &mut run,
            start,
            ledger,
            tracer.as_deref_mut(),
            export,
        )?;
    }
    run.wall_s = start.elapsed().as_secs_f64();
    Ok(run)
}

#[allow(clippy::too_many_arguments)]
fn collect(
    dep: &mut Deployment,
    inputs: &Inputs,
    inflight: &mut VecDeque<Pending>,
    run: &mut Run,
    start: Instant,
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
    export: bool,
) -> Result<(), String> {
    let observe_before: u64 = dep.per_ap_stats().iter().map(|s| s.observe_failures).sum();
    let t0 = Instant::now();
    let fused = dep
        .collect_window()
        .map_err(|e| format!("collect_window: {e}"))?;
    let t1 = Instant::now();
    let p = inflight
        .pop_front()
        .expect("a collected window was submitted");
    run.latency_ms
        .push((t1 - p.submitted).as_nanos() as f64 / 1e6);
    run.collected_s.push((t1 - start).as_secs_f64());
    run.collect_us.push((t1 - t0).as_nanos() as f64 / 1e3);
    let input = inputs.window(p.k);
    run.captures.push(input.captures());
    if let Some(t) = tracer.as_deref_mut() {
        t.span("deploy.collect", p.k, p.root, t0, t1);
    }
    if export {
        let t2 = Instant::now();
        let snap = dep.telemetry_snapshot();
        let t3 = Instant::now();
        let prom = snap.to_prometheus();
        let json = snap.to_json();
        let t4 = Instant::now();
        let bytes = std::hint::black_box(prom.len() + json.len());
        run.snapshot_us.push((t3 - t2).as_nanos() as f64 / 1e3);
        run.export_us.push((t4 - t3).as_nanos() as f64 / 1e3);
        run.export_bytes.push(bytes as f64);
        if let Some(t) = tracer.as_deref_mut() {
            t.span("telemetry.export", p.k, p.root, t2, t4);
        }
    }
    if let (Some(t), Some(root)) = (tracer, p.root) {
        t.close(root);
    }
    let observe_failed = dep
        .per_ap_stats()
        .iter()
        .map(|s| s.observe_failures)
        .sum::<u64>()
        - observe_before;
    ledger.on_fused(dep, input, fused, p.decode_failed, observe_failed);
    Ok(())
}
