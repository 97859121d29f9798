//! Office survey: the paper's Figure-4 testbed end to end.
//!
//! Recreates the Fig-5 measurement campaign: every one of the 20 Soekris
//! clients sends packets to the circular-array AP, and the survey prints
//! ground truth vs estimated bearing with confidence intervals —
//! including the paper's trouble spots (the pillar-blocked clients 11
//! and 12, and far-away client 6).
//!
//! ```text
//! cargo run --release --example office_survey [-- --seed 7 --packets 10]
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_testbed::experiments::fig5;
use sa_testbed::{ApArray, Testbed};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn main() {
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(2010);
    let packets: usize = arg("--packets").and_then(|s| s.parse().ok()).unwrap_or(10);

    println!(
        "Surveying the Figure-4 office: 20 clients x {} packets (seed {})\n",
        packets, seed
    );
    let result = fig5::run(seed, packets);
    print!("{}", fig5::render(&result));

    // Sketch the floor plan with client positions, for orientation.
    println!("\nfloor plan (AP = 'A', clients = hex ids, pillar = '#'):");
    let office = sa_testbed::Office::paper_figure4();
    let (w, h) = (60usize, 24usize);
    let mut grid = vec![vec![' '; w]; h];
    for (r, row) in grid.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            let x = c as f64 / (w - 1) as f64 * 30.0;
            let y = (h - 1 - r) as f64 / (h - 1) as f64 * 16.0;
            if !(0.3..=29.7).contains(&x) || !(0.3..=15.7).contains(&y) {
                *cell = '.';
            }
            if (12.81..=13.71).contains(&x) && (9.49..=10.39).contains(&y) {
                *cell = '#';
            }
        }
    }
    let place = |grid: &mut Vec<Vec<char>>, x: f64, y: f64, ch: char| {
        let c = ((x / 30.0) * (w - 1) as f64).round() as usize;
        let r = h - 1 - ((y / 16.0) * (h - 1) as f64).round() as usize;
        grid[r.min(h - 1)][c.min(w - 1)] = ch;
    };
    for cl in &office.clients {
        let ch = std::char::from_digit(cl.id as u32 % 36, 36).unwrap_or('?');
        place(&mut grid, cl.position.x, cl.position.y, ch);
    }
    place(&mut grid, office.ap_position.x, office.ap_position.y, 'A');
    for row in grid {
        println!("  {}", row.into_iter().collect::<String>());
    }
    println!("  (ids in base-36: clients 10..20 print as a..k)");

    // --- Batched ingest: all 20 clients through one PacketBatch. --------
    // Production traffic arrives many-packets-at-a-time; the batched path
    // builds the AoA engine (manifold, steering table, eigen workspace)
    // once and shares it across the whole batch, then trains the
    // signature store from the resulting observations.
    println!("\nbatched ingest: one frame from each of the 20 clients, one PacketBatch:");
    let mut tb = Testbed::single_ap(ApArray::Circular, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xba7c4);
    let bufs: Vec<_> = (1..=20)
        .map(|c| tb.client_capture(0, c, 1, 0.0, &mut rng))
        .collect();
    let observations = tb.nodes[0].ap.observe_batch(&bufs);
    for (i, result) in observations.iter().enumerate() {
        let client = i + 1;
        let mac = Testbed::client_mac(client);
        match result {
            Ok(obs) => {
                tb.nodes[0].ap.train_client(mac, obs);
                let truth = tb.nodes[0]
                    .ap
                    .config()
                    .position
                    .azimuth_to(tb.office.client(client).position)
                    .to_degrees()
                    .rem_euclid(360.0);
                println!(
                    "  client {:2} ({}): bearing {:6.1} deg (truth {:6.1})",
                    client, mac, obs.bearing_deg, truth
                );
            }
            Err(e) => println!("  client {:2} ({}): no observation ({})", client, mac, e),
        }
    }
    println!(
        "\nsignature store: {} trained clients",
        tb.nodes[0].ap.spoof.trained_count()
    );
}
