//! Microbenches for the packet-facing pipeline stages: Schmidl–Cox
//! scanning of a WARP-sized buffer, OFDM encode/decode, MAC framing,
//! calibration, the channel simulator itself, the headline
//! batched-vs-single AP ingest comparison (`ap_pipeline`), and the two
//! ingest hot loops — stage-1 decode and the staging gather — on
//! captures read from memory (`*_cold`).

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
    // The same capture as fleetbench meets it: one of a ring of copies
    // too large to stay cached, so every decode reads its row from
    // memory.
    let ring = cold_ring(&[buf], |b| std::mem::size_of_val(&b[..]));
    let mut next = 0;
    group.bench_function("decode_1024B_qpsk_office_cold", |b| {
        b.iter(|| {
            next = (next + 1) % ring.len();
            rx.decode(&ring[next]).expect("decode")
        })
    });
    group.finish();
}

/// Bytes of captures a cold-cache row cycles through. fleetbench cycles
/// 90–250 MB of pre-generated inputs, so its captures come from memory;
/// every other row here re-reads one capture that stays in cache.
const COLD_RING_BYTES: usize = 64 << 20;

/// Copies of `distinct`, in turn, until they fill [`COLD_RING_BYTES`].
fn cold_ring<T: Clone>(distinct: &[T], bytes: impl Fn(&T) -> usize) -> Vec<T> {
    let each = distinct.iter().map(&bytes).min().expect("captures").max(1);
    let n = COLD_RING_BYTES.div_ceil(each).max(distinct.len());
    (0..n)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect()
}

/// `PacketBatch::push_predecoded` as fleetbench's deployments run it
/// (`snapshot_cap` 128), one capture per iteration from a cold ring:
/// office's 1024-B frames (a wide stride) and campus's 64-B frames (a
/// narrow one). The push is the gather of the 8×128 window out of a
/// capture the AP has not touched since its decode.
fn bench_push_predecoded_cold(c: &mut Criterion) {
    use sa_testbed::Testbed;
    let mut group = c.benchmark_group("pipeline");
    for (label, mut tb) in [
        ("office", Testbed::deployment(4, 1)),
        ("campus", Testbed::campus_with(200, 4, 1)),
    ] {
        tb.cfg.payload_len = if label == "office" { 1024 } else { 64 };
        let ap = &tb.nodes[0].ap;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let captures: Vec<(sa_linalg::CMat, secureangle::pipeline::DecodedPacket)> = tb
            .office
            .clients
            .iter()
            .take(8)
            .map(|client| {
                let buf = tb.client_capture(0, client.id, 1, 0.0, &mut rng);
                let decoded = ap.decode_capture(&buf).expect("decoded packet");
                (buf, decoded)
            })
            .collect();
        let ring = cold_ring(&captures, |(buf, _)| std::mem::size_of_val(buf.data()));
        let mut engine = Some(ap.batch().into_engine());
        let mut next = 0;
        group.bench_function(format!("push_predecoded_cold_{label}"), |b| {
            b.iter(|| {
                next = (next + 1) % ring.len();
                let (buf, decoded) = &ring[next];
                let mut batch = ap.batch_with_engine(engine.take().expect("engine"));
                batch.set_snapshot_cap(128);
                batch.push_predecoded(buf, decoded).expect("staged packet");
                engine = Some(batch.into_engine());
            })
        });
    }
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
    bench_ap_batched_vs_single,
    bench_push_predecoded_cold
);
criterion_main!(benches);
