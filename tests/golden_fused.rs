//! Golden fused-output test: a fixed 3-AP office deployment over three
//! windows (train, normal traffic, and a window where an attacker on
//! the AP0→victim ray injects with the victim's MAC) must keep
//! producing exactly the recorded bytes. The digest covers the
//! `Debug` rendering of every fused window and of the deployment
//! report with its scheduling-dependent counters masked, so any
//! refactor of decode, DSP, enforcement or fusion that claims to be
//! output-preserving is held to it. A second digest pins the telemetry
//! export of the same run (mid-run and final snapshots in both formats,
//! plus the victim's flight-recorder post-mortem).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::geom::pt;
use sa_channel::pattern::TxAntenna;
use sa_deploy::{
    DeployConfig, Deployment, DeploymentReport, TelemetryConfig, TelemetrySnapshot, Transmission,
};
use sa_testbed::Testbed;

const SEED: u64 = 1_207;
const CLIENTS: [usize; 6] = [2, 5, 7, 11, 14, 19];
const VICTIM: usize = 7;

/// Digest of the fused windows and the masked report. Change it only
/// together with a change that is meant to alter fused output, and say
/// why in that change.
const GOLDEN: u64 = 0xac60_1f37_c6f8_c26e;

/// Digest of the telemetry export of the same run with
/// `TelemetryConfig::full()` (see [`stable_telemetry`]). Same rule as
/// [`GOLDEN`]: it changes only with a change meant to alter exported
/// names, labels, values or order.
const GOLDEN_TELEMETRY: u64 = 0x8a8d_d92f_4738_3936;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Queue depths and backpressure counts depend on thread scheduling;
/// everything else in the report is deterministic.
fn masked_report(r: &DeploymentReport) -> String {
    let mut r = r.clone();
    r.metrics.max_fusion_queue_depth = 0;
    r.metrics.report_backpressure_events = 0;
    r.metrics.ingest_backpressure_events = 0;
    for ap in &mut r.per_ap {
        ap.backpressure_events = 0;
    }
    r.telemetry = Default::default();
    format!("{:?}", r)
}

/// The deterministic part of a snapshot, rendered: the Prometheus and
/// JSON exports without the scheduling-dependent samples (the same
/// mask as [`masked_report`]), and histograms reduced to name, labels
/// and count, because their sums, buckets and maxima are wall-clock.
fn stable_telemetry(s: &TelemetrySnapshot) -> String {
    let mut s = s.clone();
    s.counters.retain(|c| !c.name.contains("backpressure"));
    s.gauges
        .retain(|g| g.name != "fleet.max_fusion_queue_depth");
    let mut out = String::new();
    for h in std::mem::take(&mut s.histograms) {
        out.push_str(&format!("{} {:?} {}\n", h.name, h.labels, h.count));
    }
    out.push_str(&s.to_prometheus());
    out.push_str(&s.to_json());
    out
}

struct Run {
    /// Fused windows and the masked report.
    fused: String,
    /// Mid-run snapshot after window 1, the victim's post-mortem, and
    /// the final snapshot (empty with telemetry off).
    telemetry: String,
}

fn run(telemetry: TelemetryConfig) -> Run {
    let tb = Testbed::deployment(3, SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x901d);
    let others: Vec<usize> = CLIENTS.iter().copied().filter(|&c| c != VICTIM).collect();
    let w0 = tb.window_traffic(&CLIENTS, 0, 0.0, &mut rng);
    let w1 = tb.window_traffic(&CLIENTS, 1, 0.0, &mut rng);
    let mut w2 = tb.window_traffic(&others, 2, 0.0, &mut rng);

    let vpos = tb.office.client(VICTIM).position;
    let az = tb.nodes[0].ap.config().position.azimuth_to(vpos);
    let apos = pt(vpos.x + 3.5 * az.cos(), vpos.y + 3.5 * az.sin());
    let tx_power = tb.rx_power_from(0, vpos) / tb.rx_power_from(0, apos);
    let frame = tb.client_frame(VICTIM, 99);
    w2.push(tb.transmission(apos, &TxAntenna::Omni, tx_power, &frame, 0.0, &mut rng));

    let aps = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        telemetry,
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    let mut fused = String::new();
    let mut exported = String::new();
    for (i, w) in [w0, w1, w2].into_iter().enumerate() {
        let txs = w.into_iter().map(Transmission::new).collect();
        let window = deployment.run_window(txs).expect("window");
        fused.push_str(&format!("{:?}\n", window));
        if i == 1 {
            exported.push_str(&stable_telemetry(&deployment.telemetry_snapshot()));
        }
    }
    if let Some(text) = deployment.explain(&Testbed::client_mac(VICTIM)) {
        exported.push_str(&text);
    }
    let (report, _) = deployment.finish();
    fused.push_str(&masked_report(&report));
    exported.push_str(&stable_telemetry(&report.telemetry));
    Run {
        fused,
        telemetry: exported,
    }
}

#[test]
fn fused_output_matches_the_recorded_digest() {
    let rendered = run(TelemetryConfig::disabled()).fused;
    assert!(
        rendered.contains("Spoof"),
        "the attack window raised no flag"
    );
    assert_eq!(fnv1a(rendered.as_bytes()), GOLDEN, "fused output changed");
}

#[test]
fn telemetry_export_matches_the_recorded_digest() {
    let run = run(TelemetryConfig::full());
    assert_eq!(
        fnv1a(run.fused.as_bytes()),
        GOLDEN,
        "telemetry changed fused output"
    );
    assert!(
        run.telemetry.contains("SPOOF"),
        "the post-mortem carries no spoof verdict:\n{}",
        run.telemetry
    );
    assert_eq!(
        fnv1a(run.telemetry.as_bytes()),
        GOLDEN_TELEMETRY,
        "telemetry export changed: {:#x}",
        fnv1a(run.telemetry.as_bytes())
    );
}
