//! Address-spoofing detection, end to end (paper §2.3.2).
//!
//! A legitimate client authenticates and its AoA signature is trained.
//! It keeps sending traffic (admitted). Then an attacker with a 14 dBi
//! directional antenna — TJ-Maxx style — stands elsewhere, spoofs the
//! victim's MAC *and* power-matches the victim's RSS. The MAC-layer ACL
//! admits every spoofed frame; the RSS check admits them too; the AoA
//! signature flags them.
//!
//! ```text
//! cargo run --release --example spoof_detection [-- --seed 7]
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_testbed::{ApArray, Testbed};
use secureangle::attacker::{Attacker, AttackerGear};
use secureangle::rss::{RssDetector, RssPrint};

fn main() {
    let seed: u64 = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(2010);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut tb = Testbed::single_ap(ApArray::Circular, seed);
    let victim = 5usize;
    let victim_mac = Testbed::client_mac(victim);
    let attacker_pos_client = 16usize; // attacker stands at client 16's spot

    // --- Train on the victim's authentication frame. -------------------
    let buf = tb.client_capture(0, victim, 0, 0.0, &mut rng);
    let obs = tb.nodes[0].ap.observe(&buf).expect("training frame");
    let victim_rss = obs.rss_db;
    tb.nodes[0].ap.train_client(victim_mac, &obs);
    let mut rss_det = RssDetector::new(4.0, 0.2);
    rss_det.train(victim_mac, RssPrint::single(victim_rss));
    println!(
        "trained client {} ({}) at bearing {:.1} deg, RSS {:.1} dB\n",
        victim, victim_mac, obs.bearing_deg, victim_rss
    );

    // --- Victim sends 5 legitimate frames, ingested as one batch. -------
    // `observe_batch` stages every capture through a single PacketBatch:
    // the AoA engine (manifold + steering table + eigensolver workspace)
    // is built once and shared across all five packets. Enforcement then
    // runs per observation, in arrival order.
    println!("victim traffic (5-packet batch):");
    let bufs: Vec<_> = (1..=5u16)
        .map(|seq| tb.client_capture(0, victim, seq, seq as f64 * 10.0, &mut rng))
        .collect();
    for (i, result) in tb.nodes[0].ap.observe_batch(&bufs).into_iter().enumerate() {
        let obs = result.expect("victim frame");
        let verdict = tb.nodes[0].ap.enforce(&obs);
        let rss_v = rss_det.check(victim_mac, &RssPrint::single(obs.rss_db));
        println!(
            "  seq {:2}: bearing {:6.1} deg | AoA: {:<28} | RSS: {:?}",
            i + 1,
            obs.bearing_deg,
            format!("{:?}", verdict),
            rss_v
        );
        assert!(verdict.admitted(), "legitimate frame was dropped!");
    }

    // --- Attacker injects with the victim's MAC. -------------------------
    let attacker_pos = tb.office.client(attacker_pos_client).position;
    let mut attacker = Attacker::new(
        attacker_pos,
        AttackerGear::Directional {
            gain_dbi: 14.0,
            order: 4.0,
        },
        victim_mac,
    );
    // Power-match: probe what the AP hears from each position.
    let victim_pow = tb.rx_power_from(0, tb.office.client(victim).position);
    let own_pow = tb.rx_power_from(0, attacker_pos);
    let ap_pos = tb.nodes[0].ap.config().position;
    let antenna = attacker.antenna_toward(ap_pos);
    let boresight = antenna.power_gain(attacker_pos.azimuth_to(ap_pos));
    attacker.match_rss(victim_pow, own_pow * boresight);
    println!(
        "\nattacker at client {}'s position, 14 dBi beam aimed at the AP, tx power x{:.2}:",
        attacker_pos_client, attacker.tx_power
    );

    let frame = tb.client_frame(victim, 100); // spoofed src == victim MAC
    let inj_bufs: Vec<_> = (1..=5)
        .map(|seq| {
            tb.capture(
                0,
                attacker_pos,
                &antenna,
                attacker.tx_power,
                &frame,
                seq as f64,
                &mut rng,
            )
        })
        .collect();
    let mut flagged = 0;
    for (i, result) in tb.nodes[0]
        .ap
        .observe_batch(&inj_bufs)
        .into_iter()
        .enumerate()
    {
        let obs = result.expect("attack frame");
        let verdict = tb.nodes[0].ap.enforce(&obs);
        let rss_v = rss_det.check(victim_mac, &RssPrint::single(obs.rss_db));
        let aoa_flag = !verdict.admitted();
        if aoa_flag {
            flagged += 1;
        }
        println!(
            "  inj {:2}: bearing {:6.1} deg | AoA: {:<28} | RSS: {:?}",
            i + 1,
            obs.bearing_deg,
            format!("{:?}", verdict),
            rss_v
        );
    }
    println!(
        "\nSecureAngle flagged {}/5 injected frames; the ACL alone would have admitted all of them.",
        flagged
    );
    let spoof = &tb.nodes[0].ap.spoof;
    println!(
        "signature store: {} trained client(s), {} flags on {}",
        spoof.trained_count(),
        spoof.flag_count(&victim_mac),
        victim_mac,
    );
    assert!(flagged >= 4, "detector should flag the attacker");
}
