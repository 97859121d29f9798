//! Golden fused-output test: a fixed 3-AP office deployment over three
//! windows (train, normal traffic, and a window where an attacker on
//! the AP0→victim ray injects with the victim's MAC) must keep
//! producing exactly the recorded bytes. The digest covers the
//! `Debug` rendering of every fused window and of the deployment
//! report with its scheduling-dependent counters masked, so any
//! refactor of decode, DSP, enforcement or fusion that claims to be
//! output-preserving is held to it.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::geom::pt;
use sa_channel::pattern::TxAntenna;
use sa_deploy::{DeployConfig, Deployment, DeploymentReport, Transmission};
use sa_testbed::Testbed;

const SEED: u64 = 1_207;
const CLIENTS: [usize; 6] = [2, 5, 7, 11, 14, 19];
const VICTIM: usize = 7;

/// Digest of the fused windows and the masked report. Change it only
/// together with a change that is meant to alter fused output, and say
/// why in that change.
const GOLDEN: u64 = 0xb14c_8abd_8b83_0d2d;

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

fn rendered_run() -> String {
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
    let mut deployment = Deployment::new(aps, DeployConfig::default());
    let mut out = String::new();
    for w in [w0, w1, w2] {
        let txs = w.into_iter().map(Transmission::new).collect();
        let fused = deployment.run_window(txs).expect("window");
        out.push_str(&format!("{:?}\n", fused));
    }
    let (report, _) = deployment.finish();
    out.push_str(&masked_report(&report));
    out
}

#[test]
fn fused_output_matches_the_recorded_digest() {
    let rendered = rendered_run();
    assert!(
        rendered.contains("Spoof"),
        "the attack window raised no flag"
    );
    assert_eq!(fnv1a(rendered.as_bytes()), GOLDEN, "fused output changed");
}
