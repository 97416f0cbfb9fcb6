//! Wire-protocol benchmarks: encode and decode throughput for compact
//! heartbeat batches, bytes-per-beat, the CRC-32 primitive
//! (slicing-by-8), and end-to-end collector ingest at 64 connections.
//!
//! Results are recorded in `BENCH_wire.json` at the repo root. This bench
//! runs in CI (quick mode — the compat criterion harness measures each
//! point for ~300 ms) so the beat path cannot silently rot.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hb_net::frame::{FrameDecoder, FrameEvent};
use hb_net::wire::{BatchEncoder, BeatBatch, Frame, WireBeat};
use hb_net::{Collector, CollectorConfig, CollectorState, TcpBackend, TcpBackendConfig};
use heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// A realistic batch: monotone seq, ~1 ms period with deterministic
/// jitter, untagged, single-threaded — the stream shape the compact
/// encoding is designed around.
fn batch(n: usize) -> BeatBatch {
    let mut ts = 1_700_000_000_000_000_000u64;
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    BeatBatch {
        dropped_total: 42,
        beats: (0..n as u64)
            .map(|i| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ts += 1_000_000 - 128_000 + (lcg >> 40) % 256_000;
                WireBeat {
                    record: HeartbeatRecord::new(i, ts, Tag::NONE, BeatThreadId(0)),
                    scope: BeatScope::Global,
                }
            })
            .collect(),
    }
}

fn encode_with(encoder: &mut BatchEncoder, batch: &BeatBatch) -> usize {
    encoder.begin_compact(batch.dropped_total);
    for beat in &batch.beats {
        encoder.push(beat);
    }
    encoder.finish().len()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode_v3");
    for n in [1usize, 64, 256, 1024] {
        let data = batch(n);
        let mut encoder = BatchEncoder::new();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| std::hint::black_box(encode_with(&mut encoder, data)));
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode_v3");
    for n in [1usize, 64, 256, 1024] {
        let bytes = Frame::Beats(batch(n)).encode();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &bytes, |b, bytes| {
            b.iter(|| std::hint::black_box(Frame::decode(bytes).unwrap()));
        });
    }
    group.finish();
}

/// The zero-copy path the reactor actually runs: incremental decode to a
/// borrowing view, iterated without materializing a Vec.
fn bench_decode_view(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode_view_v3");
    for n in [64usize, 1024] {
        let bytes = Frame::Beats(batch(n)).encode();
        let mut decoder = FrameDecoder::new();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &bytes, |b, bytes| {
            b.iter(|| {
                decoder.push(bytes);
                match decoder.next_event().unwrap().unwrap() {
                    FrameEvent::Beats(view) => {
                        let mut acc = 0u64;
                        for beat in view.iter() {
                            acc = acc.wrapping_add(beat.record.timestamp_ns);
                        }
                        std::hint::black_box(acc)
                    }
                    FrameEvent::Control(_) => unreachable!(),
                }
            });
        });
    }
    group.finish();
}

/// Bytes-per-beat, printed once so runs record it.
fn report_bytes_per_beat(c: &mut Criterion) {
    // Piggy-back on a trivial benchmark group so the numbers appear in
    // every bench run's output.
    let mut group = c.benchmark_group("wire_bytes_per_beat");
    for n in [64usize, 1024] {
        let data = batch(n);
        let mut encoder = BatchEncoder::new();
        let v3 = encode_with(&mut encoder, &data);
        println!(
            "wire_bytes_per_beat/{n}: v3 {:.2} B/beat",
            v3 as f64 / n as f64
        );
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| {
                std::hint::black_box(encode_with(&mut encoder, data));
            });
        });
    }
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for len in [64usize, 4096, 65536] {
        let data = vec![0xA5u8; len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &data, |b, data| {
            b.iter(|| std::hint::black_box(hb_net::crc::crc32(data)));
        });
    }
    group.finish();
}

/// Beats pumped per connection per iteration (matches the collector bench).
const BURST: u64 = 64;

/// A collector plus `n` connected producers.
struct Rig {
    _collector: Collector,
    state: Arc<CollectorState>,
    backends: Vec<Arc<TcpBackend>>,
    seq: u64,
}

impl Rig {
    fn new(connections: usize) -> Rig {
        let collector =
            Collector::with_config("127.0.0.1:0", "127.0.0.1:0", CollectorConfig::default())
                .expect("bind collector");
        let ingest = collector.ingest_addr().to_string();
        let backends: Vec<Arc<TcpBackend>> = (0..connections)
            .map(|i| {
                Arc::new(TcpBackend::with_config(
                    ingest.clone(),
                    format!("bench-{i}"),
                    TcpBackendConfig {
                        queue_capacity: 1 << 16,
                        ..TcpBackendConfig::default()
                    },
                ))
            })
            .collect();
        let state = collector.state();
        Rig {
            _collector: collector,
            state,
            backends,
            seq: 0,
        }
    }

    fn ingested(&self) -> u64 {
        self.state
            .snapshots()
            .iter()
            .map(|s| s.total_beats + s.producer_dropped)
            .sum()
    }

    fn pump(&mut self) {
        for backend in &self.backends {
            for k in 0..BURST {
                let seq = self.seq + k;
                let record =
                    HeartbeatRecord::new(seq, seq * 1_000_000, Tag::NONE, BeatThreadId(0));
                backend.on_beat("bench", &record, BeatScope::Global);
            }
        }
        self.seq += BURST;
        let goal = self.seq * self.backends.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while self.ingested() < goal {
            assert!(
                std::time::Instant::now() < deadline,
                "ingest stalled: {}/{goal} beats accounted for after 60s",
                self.ingested()
            );
            std::thread::yield_now();
        }
    }
}

/// End-to-end collector ingest at 64 connections.
fn bench_ingest_framing(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_ingest_framing");
    group.sample_size(10);
    let mut rig = Rig::new(64);
    group.throughput(Throughput::Elements(64 * BURST));
    group.bench_with_input(
        BenchmarkId::from_parameter("v3_64conn"),
        &"v3_64conn",
        |b, _| b.iter(|| rig.pump()),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_decode_view,
    report_bytes_per_beat,
    bench_crc,
    bench_ingest_framing
);
criterion_main!(benches);
