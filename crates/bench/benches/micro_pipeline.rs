//! Microbenches for the packet-facing pipeline stages: Schmidl–Cox
//! scanning of a WARP-sized buffer, OFDM encode/decode, MAC framing,
//! calibration, the channel simulator itself, and the headline
//! batched-vs-single AP ingest comparison (`ap_pipeline`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_linalg::complex::ZERO;
use sa_phy::ppdu::{Receiver, Transmitter};
use sa_phy::Modulation;
use sa_sigproc::schmidl_cox::SchmidlCox;

fn bench_schmidl_cox_scan(c: &mut Criterion) {
    // The paper's WARP captures 0.4 ms at 20 MHz = 8000 samples.
    let tx = Transmitter::new(Modulation::Qpsk);
    let wave = tx.encode(&[0xA5; 64]);
    let mut buf = vec![ZERO; 8000];
    buf[2000..2000 + wave.len()].copy_from_slice(&wave);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    sa_sigproc::noise::add_noise(&mut rng, &mut buf, 1e-4);
    let sc = SchmidlCox::new(sa_phy::preamble::SC_HALF_LEN);
    c.bench_function("schmidl_cox_scan_8000_samples", |b| {
        b.iter(|| sc.detect(&buf))
    });
    // What the receiver runs: stop at the first detection's region.
    c.bench_function("schmidl_cox_first_8000_samples", |b| {
        b.iter(|| sc.detect_first(&buf))
    });
}

fn bench_ofdm_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("ofdm");
    for (label, m) in [
        ("bpsk", Modulation::Bpsk),
        ("qpsk", Modulation::Qpsk),
        ("qam16", Modulation::Qam16),
    ] {
        let tx = Transmitter::new(m);
        let rx = Receiver::new(m);
        let payload: Vec<u8> = (0..256u32).map(|i| (i * 7 % 251) as u8).collect();
        group.bench_function(format!("encode_256B_{label}"), |b| {
            b.iter(|| tx.encode(&payload))
        });
        let wave = tx.encode(&payload);
        let mut buf = vec![ZERO; wave.len() + 200];
        buf[100..100 + wave.len()].copy_from_slice(&wave);
        group.bench_function(format!("decode_256B_{label}"), |b| {
            b.iter(|| rx.decode(&buf).expect("decode"))
        });
    }
    // One office-sized capture as stage-1 decode sees it: a 1024-B QPSK
    // frame after a 120-sample lead-in, CFO 0.01 rad/sample, 30 dB SNR,
    // in a 7 400-sample row.
    let tx = Transmitter::new(Modulation::Qpsk);
    let rx = Receiver::new(Modulation::Qpsk);
    let payload: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 251) as u8).collect();
    let wave = tx.encode(&payload);
    let mut buf = vec![ZERO; 7400];
    buf[120..120 + wave.len()].copy_from_slice(&wave);
    sa_sigproc::iq::apply_cfo(&mut buf, 0.01);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let noise = sa_sigproc::iq::mean_power(&wave) / 1e3;
    sa_sigproc::noise::add_noise(&mut rng, &mut buf, noise);
    assert_eq!(rx.decode(&buf).expect("office capture").payload, payload);
    group.bench_function("decode_1024B_qpsk_office", |b| {
        b.iter(|| rx.decode(&buf).expect("decode"))
    });
    group.finish();
}

fn bench_mac_framing(c: &mut Criterion) {
    use sa_mac::{Frame, MacAddr};
    let f = Frame::data(
        MacAddr::local_from_index(1),
        MacAddr::BROADCAST,
        MacAddr::local_from_index(0),
        7,
        &[0x42; 256],
    );
    c.bench_function("mac_frame_encode_256B", |b| b.iter(|| f.encode()));
    let wire = f.encode();
    c.bench_function("mac_frame_decode_256B", |b| {
        b.iter(|| Frame::decode(&wire).expect("decode"))
    });
}

fn bench_calibration(c: &mut Criterion) {
    use sa_array::calib::Calibration;
    use sa_array::rf::FrontEnd;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let fe = FrontEnd::random(8, 1e-4, &mut rng);
    let capture = fe.receive_calibration_tone(1024, 1.0, &mut rng);
    c.bench_function("calibration_from_1024_sample_tone", |b| {
        b.iter(|| Calibration::from_tone_capture(&capture))
    });
    let cal = Calibration::from_tone_capture(&capture);
    let window = sa_linalg::CMat::from_fn(8, 512, |m, t| {
        sa_linalg::C64::cis(0.1 * m as f64 + 0.2 * t as f64)
    });
    c.bench_function("calibration_apply_8x512", |b| {
        b.iter_batched(
            || window.clone(),
            |mut w| cal.apply(&mut w),
            BatchSize::SmallInput,
        )
    });
}

fn bench_channel_simulation(c: &mut Criterion) {
    use sa_channel::apply::{apply_channel, ApplyConfig};
    use sa_channel::pattern::TxAntenna;
    use sa_channel::trace::{trace_paths, TraceConfig};
    let office = sa_testbed::Office::paper_figure4();
    let array = sa_array::geometry::Array::paper_octagon();

    c.bench_function("ray_trace_office_client10", |b| {
        b.iter(|| {
            trace_paths(
                &office.plan,
                office.client(10).position,
                office.ap_position,
                &TraceConfig::default(),
            )
        })
    });

    let paths = trace_paths(
        &office.plan,
        office.client(10).position,
        office.ap_position,
        &TraceConfig::default(),
    );
    let wave: Vec<sa_linalg::C64> = (0..520)
        .map(|t| sa_linalg::C64::cis(0.23 * t as f64))
        .collect();
    c.bench_function("apply_channel_8ant_520_samples", |b| {
        b.iter(|| {
            apply_channel(
                &paths,
                &TxAntenna::Omni,
                &array,
                &wave,
                &ApplyConfig::default(),
            )
        })
    });
}

/// The tentpole comparison: 16 packets through the synchronous
/// single-packet path (`AccessPoint::observe` per capture, which
/// rebuilds the AoA setup each time) vs the same 16 packets staged
/// through one `PacketBatch` (engine built once, buffers recycled).
/// Both closures do identical signal-processing work per iteration, so
/// the two `x16` numbers divide directly into a per-packet comparison.
fn bench_ap_batched_vs_single(c: &mut Criterion) {
    let caps: Vec<sa_bench::BenchCapture> = (0..4)
        .map(|i| sa_bench::capture_circular(5 + 3 * i, 2010 + i as u64))
        .collect();
    let ap = &caps[0].testbed.nodes[0].ap;
    // 16 captures cycling over 4 distinct clients.
    let buffers: Vec<&sa_linalg::CMat> = (0..16).map(|i| &caps[i % 4].buffer).collect();

    let mut group = c.benchmark_group("ap_pipeline");
    group.bench_function("observe_single_packet", |b| {
        b.iter(|| ap.observe(buffers[0]).expect("observation"))
    });
    group.bench_function("observe_x16_single_path", |b| {
        b.iter(|| {
            buffers
                .iter()
                .map(|buf| ap.observe(buf).expect("observation"))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("observe_x16_batched", |b| {
        b.iter(|| {
            let mut batch = ap.batch();
            for buf in &buffers {
                let decoded = ap.decode_capture(buf).expect("decoded packet");
                batch.push_predecoded(buf, &decoded).expect("staged packet");
            }
            batch.process()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_schmidl_cox_scan,
    bench_ofdm_roundtrip,
    bench_mac_framing,
    bench_calibration,
    bench_channel_simulation,
    bench_ap_batched_vs_single
);
criterion_main!(benches);
