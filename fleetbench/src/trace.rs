//! Spans recorded from the benchmark's own side of each layer boundary,
//! kept in memory and written out when the run ends, and the serial
//! layer replay that feeds them.
//!
//! The replay drives the same inputs through each layer's public entry
//! points, one at a time on the caller's thread: `decode_reference` per
//! transmission; `batch_with_engine` + `push_predecoded` (`dsp.push`)
//! and `process` (`dsp.process`) per AP; `enforce`/`train_client` per
//! AP (`enforce`); `Fusion::fuse_window` per window (`fusion`). It
//! builds the `ApPacket`s fusion consumes from its own observations and
//! verdicts, exactly as a worker does.

use crate::stats;
use crate::workload::{Inputs, Window};
use sa_aoa::estimator::AoaEngine;
use sa_deploy::{ApPacket, DeployConfig, Fusion};
use sa_phy::Modulation;
use secureangle::pipeline::{decode_reference, FrameVerdict};
use secureangle::spoof::SpoofVerdict;
use secureangle::AccessPoint;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Spans of one window share its id.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub window: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, window: u64, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.record(name, window, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Record a span measured by the caller.
    pub fn span(
        &mut self,
        name: &'static str,
        window: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.record(name, window, parent, s, e)
    }

    fn record(
        &mut self,
        name: &'static str,
        window: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            window,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Total self time of the spans named `name`, microseconds.
    pub fn self_total_us(&self, own: &[u64], name: &str) -> f64 {
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &n)| n as f64 / 1e3)
            .sum()
    }

    /// Write one JSON object per span, one per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"window\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.window, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer names the replay records, in pipeline order.
pub const REPLAY_LAYERS: [&str; 5] = ["decode", "dsp.push", "dsp.process", "enforce", "fusion"];

/// Work counted at the replay's layer boundaries.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub decode_calls: u64,
    pub decode_failures: u64,
    pub captures: u64,
    pub observe_failures: u64,
    pub bearings: u64,
    pub observations: u64,
    pub admitted: u64,
    pub trains: u64,
    pub windows: u64,
    pub clients: u64,
    pub fixes: u64,
    pub localize_failures: u64,
    /// (push + process) per capture for each AP-window, microseconds.
    pub dsp_us_per_capture: Vec<f64>,
}

/// A serial copy of the pipeline for the layer replay: its own APs
/// (trained by the replay itself, as workers train theirs), one AoA
/// engine per AP, and a fusion stage.
pub struct Replay {
    aps: Vec<AccessPoint>,
    engines: Vec<Option<AoaEngine>>,
    fusion: Fusion,
    modulation: Modulation,
    snapshot_cap: usize,
    auto_train: bool,
}

impl Replay {
    pub fn new(aps: Vec<AccessPoint>, cfg: &DeployConfig) -> Self {
        let positions = aps.iter().map(|ap| ap.config().position).collect();
        let engines = aps
            .iter()
            .map(|ap| Some(ap.batch().into_engine()))
            .collect();
        Replay {
            modulation: aps[0].config().modulation,
            engines,
            aps,
            fusion: Fusion::new(positions, cfg.clone()),
            snapshot_cap: cfg.snapshot_cap,
            auto_train: cfg.auto_train_signatures,
        }
    }

    /// Train signatures and consensus references on the clean inputs,
    /// untraced, so the traced windows see a steady state.
    pub fn warm_up(&mut self, inputs: &Inputs, windows: u64) {
        let clean: Vec<&Window> = inputs.clean().collect();
        let mut scratch = Tracer::new();
        let mut counts = LayerCounts::default();
        for w in 0..windows {
            self.window(
                w,
                clean[w as usize % clean.len()],
                &mut scratch,
                &mut counts,
            );
        }
    }

    /// Replay one window through every layer, recording a `replay` root
    /// span with one child span per layer call.
    pub fn window(&mut self, id: u64, input: &Window, tr: &mut Tracer, counts: &mut LayerCounts) {
        let root = tr.open("replay", id, None);
        let decoded: Vec<_> = input
            .txs
            .iter()
            .map(|t| {
                let t0 = Instant::now();
                let d = decode_reference(&t.per_ap[0], self.modulation).ok();
                tr.span("decode", id, Some(root), t0, Instant::now());
                d
            })
            .collect();
        counts.decode_calls += decoded.len() as u64;
        counts.decode_failures += decoded.iter().filter(|d| d.is_none()).count() as u64;

        let mut packets = Vec::new();
        for k in 0..self.aps.len() {
            let t0 = Instant::now();
            let engine = self.engines[k]
                .take()
                .expect("engine returned after every window");
            let mut batch = self.aps[k].batch_with_engine(engine);
            batch.set_snapshot_cap(self.snapshot_cap);
            let mut seqs = Vec::with_capacity(decoded.len());
            let mut captures = 0u64;
            for (seq, (t, d)) in input.txs.iter().zip(&decoded).enumerate() {
                let Some(d) = d else { continue };
                captures += 1;
                match batch.push_predecoded(&t.per_ap[k], d) {
                    Ok(()) => seqs.push(seq as u64),
                    Err(_) => counts.observe_failures += 1,
                }
            }
            let t1 = Instant::now();
            tr.span("dsp.push", id, Some(root), t0, t1);
            let observations = batch.process();
            self.engines[k] = Some(batch.into_engine());
            let t2 = Instant::now();
            tr.span("dsp.process", id, Some(root), t1, t2);
            counts.captures += captures;
            if captures > 0 {
                counts
                    .dsp_us_per_capture
                    .push((t2 - t0).as_nanos() as f64 / 1e3 / captures as f64);
            }

            let ap = &mut self.aps[k];
            for (obs, &seq) in observations.iter().zip(&seqs) {
                let verdict = ap.enforce(obs);
                if let FrameVerdict::Admit { spoof } = verdict {
                    counts.admitted += 1;
                    if self.auto_train && spoof == SpoofVerdict::Untrained {
                        if let Some(frame) = &obs.frame {
                            ap.train_client(frame.src, obs);
                            counts.trains += 1;
                        }
                    }
                }
                let report = obs.bearing_report(seq);
                counts.bearings += u64::from(report.is_some());
                packets.push(ApPacket {
                    ap_id: k,
                    window: id,
                    seq,
                    mac: obs.frame.as_ref().map(|f| f.src),
                    report,
                    bearing_deg: obs.bearing_deg,
                    rss_db: obs.rss_db,
                    verdict,
                });
            }
            counts.observations += observations.len() as u64;
            tr.span("enforce", id, Some(root), t2, Instant::now());
        }

        let t0 = Instant::now();
        let fused = self.fusion.fuse_window(id, packets);
        tr.span("fusion", id, Some(root), t0, Instant::now());
        counts.windows += 1;
        counts.clients += fused.clients.len() as u64;
        counts.fixes += fused.clients.iter().filter(|c| c.fix.is_some()).count() as u64;
        counts.localize_failures += fused.localize_failures as u64;
        tr.close(root);
    }
}

/// The per-layer metrics the replay spans and counts give.
pub fn layer_metrics(tr: &Tracer, c: &LayerCounts, set: &mut impl FnMut(&'static str, f64)) {
    let own = tr.self_ns();
    let replay_us = tr.self_total_us(&own, "replay")
        + REPLAY_LAYERS
            .iter()
            .map(|l| tr.self_total_us(&own, l))
            .sum::<f64>();
    let layer_us = |name: &str| tr.self_total_us(&own, name);

    let decode = stats::sorted(tr.durations_us("decode"));
    set("decode.us_per_tx_p50", stats::quantile(&decode, 0.5));
    set("decode.us_per_tx_p95", stats::quantile(&decode, 0.95));
    set("decode.calls", c.decode_calls as f64);
    set("decode.failures", c.decode_failures as f64);
    set("decode.share", stats::ratio(layer_us("decode"), replay_us));

    let dsp = stats::sorted(c.dsp_us_per_capture.clone());
    let captures = c.captures as f64;
    set("dsp.us_per_capture_p50", stats::quantile(&dsp, 0.5));
    set("dsp.us_per_capture_p95", stats::quantile(&dsp, 0.95));
    set(
        "dsp.push_us_per_capture",
        stats::ratio(layer_us("dsp.push"), captures),
    );
    set(
        "dsp.process_us_per_capture",
        stats::ratio(layer_us("dsp.process"), captures),
    );
    set(
        "dsp.bearings_per_capture",
        stats::ratio(c.bearings as f64, captures),
    );
    set("dsp.observe_failures", c.observe_failures as f64);
    set(
        "dsp.share",
        stats::ratio(layer_us("dsp.push") + layer_us("dsp.process"), replay_us),
    );

    set(
        "enforce.us_per_obs",
        stats::ratio(layer_us("enforce"), c.observations as f64),
    );
    set(
        "enforce.admit_frac",
        stats::ratio(c.admitted as f64, c.observations as f64),
    );
    set("enforce.trains", c.trains as f64);
    set(
        "enforce.share",
        stats::ratio(layer_us("enforce"), replay_us),
    );

    set(
        "fusion.us_per_window",
        stats::ratio(layer_us("fusion"), c.windows as f64),
    );
    set(
        "fusion.us_per_client",
        stats::ratio(layer_us("fusion"), c.clients as f64),
    );
    set(
        "fusion.fixes_per_client",
        stats::ratio(c.fixes as f64, c.clients as f64),
    );
    set("fusion.localize_failures", c.localize_failures as f64);
    set("fusion.share", stats::ratio(layer_us("fusion"), replay_us));

    let layers: f64 = REPLAY_LAYERS.iter().map(|l| layer_us(l)).sum();
    set("trace.coverage_frac", stats::ratio(layers, replay_us));
}
