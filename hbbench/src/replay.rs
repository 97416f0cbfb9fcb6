//! Single-threaded layer replays for traced runs.
//!
//! Each replay pushes a workload's own seeded batches through one layer's
//! public function, one span per call under a per-batch `replay` parent,
//! so per-layer self time per beat falls out of the span arithmetic.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use hb_net::frame::FrameEvent;
use hb_net::{BatchEncoder, CollectorConfig, CollectorState, FrameDecoder, WireBeat};
use heartbeats::observe::Interest;

use crate::trace::{self, Tracer, ROOT};

/// Passes over the replay batches.
const PASSES: usize = 8;

/// Per-layer results of the replays, in catalog units.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `wire.encode_ns_per_beat` (CRC included).
    pub encode_ns_per_beat: f64,
    /// `wire.bytes_per_beat`.
    pub bytes_per_beat: f64,
    /// `crc.ns_per_byte`.
    pub crc_ns_per_byte: f64,
    /// `frame.decode_ns_per_beat` (CRC included).
    pub decode_ns_per_beat: f64,
    /// `collector.ingest_ns_per_beat`.
    pub ingest_ns_per_beat: f64,
    /// `subscribe.fanout_ns_per_batch`.
    pub fanout_ns_per_batch: f64,
    /// `health.assess_ns`.
    pub health_ns: f64,
    /// `net.loopback_ns_per_frame`.
    pub loopback_ns_per_frame: f64,
}

impl Layers {
    /// Inserts the replayed metrics.
    pub fn record(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        metrics.insert("wire.encode_ns_per_beat", self.encode_ns_per_beat);
        metrics.insert("wire.bytes_per_beat", self.bytes_per_beat);
        metrics.insert("crc.ns_per_byte", self.crc_ns_per_byte);
        metrics.insert("frame.decode_ns_per_beat", self.decode_ns_per_beat);
        metrics.insert("collector.ingest_ns_per_beat", self.ingest_ns_per_beat);
        metrics.insert("subscribe.fanout_ns_per_batch", self.fanout_ns_per_batch);
        metrics.insert("health.assess_ns", self.health_ns);
        metrics.insert("net.loopback_ns_per_frame", self.loopback_ns_per_frame);
    }

    /// CRC cost per beat for frames of `bytes_per_beat`.
    pub fn crc_ns_per_beat(&self) -> f64 {
        self.crc_ns_per_byte * self.bytes_per_beat
    }
}

/// Which layers a workload's beats pass through (the rest read 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct Path {
    /// The producer encodes with `BatchEncoder` (a `TcpBackend`).
    pub encode: bool,
    /// A beats subscriber receives every batch.
    pub fanout: bool,
    /// Observers query health.
    pub health: bool,
}

/// Replays `frames` (encoded compact beat frames, in stream order) through
/// every layer on `path`. When `path.encode` is set, `batches` are also
/// encoded. The loopback probe writes `frames_per_write` frames per
/// `write`, as the workload's producer does. Spans go to `tracer`.
pub fn run(
    tracer: &mut Tracer,
    path: Path,
    config: &CollectorConfig,
    app: &str,
    batches: &[Vec<WireBeat>],
    frames: &[Vec<u8>],
    frames_per_write: usize,
) -> Layers {
    assert!(tracer.enabled(), "replays are timed through spans");
    let first = tracer.len();
    let mut layers = Layers::default();
    let mut batch = 0u64;
    let mut next_batch = || {
        batch += 1;
        batch
    };

    if path.encode {
        let mut encoder = BatchEncoder::new();
        for _ in 0..PASSES {
            for beats in batches {
                let id = next_batch();
                let parent = tracer.open("replay", ROOT, id);
                tracer.time("wire.encode", parent, id, || {
                    encoder.begin_compact(0);
                    for beat in beats {
                        encoder.push(beat);
                    }
                    std::hint::black_box(encoder.finish());
                });
                tracer.close(parent);
            }
        }
    }

    let decoded: Vec<Vec<WireBeat>> = frames.iter().map(|f| decode(f)).collect();
    let beats: u64 = decoded.iter().map(|b| b.len() as u64).sum();
    let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
    layers.bytes_per_beat = bytes as f64 / beats.max(1) as f64;

    for _ in 0..PASSES {
        for frame in frames {
            let id = next_batch();
            let parent = tracer.open("replay", ROOT, id);
            let payload = &frame[hb_net::wire::HEADER_LEN..];
            tracer.time("crc", parent, id, || {
                std::hint::black_box(hb_net::crc::crc32(std::hint::black_box(payload)))
            });
            tracer.close(parent);
        }
    }

    let mut decoder = FrameDecoder::new();
    for _ in 0..PASSES {
        for frame in frames {
            let id = next_batch();
            let parent = tracer.open("replay", ROOT, id);
            tracer.time("frame.decode", parent, id, || {
                decoder.push(frame);
                let mut sum = 0u64;
                while let Some(event) = decoder.next_event().expect("replayed frames decode") {
                    if let FrameEvent::Beats(view) = event {
                        sum = view.iter().fold(sum, |acc, b| acc ^ b.record.seq);
                    }
                }
                std::hint::black_box(sum)
            });
            tracer.close(parent);
        }
    }

    // Ingest: one state per pass so every pass sees the same registry
    // growth; the batches stay monotone within a pass.
    let mut full = None;
    for _ in 0..PASSES {
        let state = CollectorState::new(config.clone());
        let handle = state.hello(app, 1, heartbeats::DEFAULT_WINDOW as u32);
        for batch_beats in &decoded {
            let id = next_batch();
            let parent = tracer.open("replay", ROOT, id);
            tracer.time("collector.ingest", parent, id, || {
                state.ingest_batch_with(&handle, 0, batch_beats.iter().copied())
            });
            tracer.close(parent);
        }
        full = Some(state);
    }

    if path.fanout {
        for _ in 0..PASSES {
            let state = CollectorState::new(CollectorConfig {
                sub_queue_capacity: 1 << 16,
                ..config.clone()
            });
            let handle = state.hello(app, 1, heartbeats::DEFAULT_WINDOW as u32);
            let sub = state
                .subscribe_local(app, Interest::BEATS, Duration::ZERO)
                .expect("local subscription");
            for batch_beats in &decoded {
                let id = next_batch();
                let parent = tracer.open("replay", ROOT, id);
                tracer.time("subscribe.ingest", parent, id, || {
                    state.ingest_batch_with(&handle, 0, batch_beats.iter().copied())
                });
                tracer.time("subscribe.drain", parent, id, || {
                    std::hint::black_box(sub.drain().len())
                });
                tracer.close(parent);
            }
        }
    }

    if path.health {
        let state = full.as_ref().expect("ingest replay ran");
        for id in 0..(PASSES as u64 * 256) {
            let parent = tracer.open("replay", ROOT, id);
            tracer.time("health.assess", parent, id, || {
                std::hint::black_box(state.health(app).expect("replayed app is known"))
            });
            tracer.close(parent);
        }
    }

    layers.loopback_ns_per_frame = loopback(tracer, frames, frames_per_write, &mut next_batch);

    let spans = tracer.spans_since(first);
    let by_name = trace::self_time_by_name(spans);
    let total = |name: &str| by_name.get(name).map(|&(ns, _)| ns as f64).unwrap_or(0.0);
    let calls = |name: &str| by_name.get(name).map(|&(_, n)| n as f64).unwrap_or(0.0);
    let passes = PASSES as f64;
    if path.encode {
        let encoded: usize = batches.iter().map(Vec::len).sum();
        layers.encode_ns_per_beat = total("wire.encode") / (encoded as f64 * passes);
    }
    layers.crc_ns_per_byte = total("crc") / (bytes as f64 * passes);
    layers.decode_ns_per_beat = total("frame.decode") / (beats as f64 * passes);
    layers.ingest_ns_per_beat = total("collector.ingest") / (beats as f64 * passes);
    if path.fanout {
        let ingest_per_batch = total("collector.ingest") / calls("collector.ingest");
        let subscribed = total("subscribe.ingest") + total("subscribe.drain");
        layers.fanout_ns_per_batch =
            (subscribed / calls("subscribe.ingest") - ingest_per_batch).max(0.0);
    }
    if path.health {
        layers.health_ns = total("health.assess") / calls("health.assess");
    }
    layers
}

fn decode(frame: &[u8]) -> Vec<WireBeat> {
    let mut decoder = FrameDecoder::new();
    decoder.push(frame);
    match decoder.next_event().expect("replayed frames decode") {
        Some(FrameEvent::Beats(view)) => view.iter().collect(),
        _ => panic!("replay input holds one beats frame per entry"),
    }
}

/// The kernel floor: the frames written to and read back from a loopback
/// TCP connection on one thread, `per_write` frames per `write`. Returns
/// ns per frame.
fn loopback(
    tracer: &mut Tracer,
    frames: &[Vec<u8>],
    per_write: usize,
    next_batch: &mut impl FnMut() -> u64,
) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback probe");
    let mut tx =
        TcpStream::connect(listener.local_addr().expect("probe addr")).expect("connect probe");
    let (mut rx, _) = listener.accept().expect("accept probe");
    tx.set_nodelay(true).ok();
    let writes: Vec<Vec<u8>> = frames
        .chunks(per_write.max(1))
        .map(|c| c.concat())
        .collect();
    let mut buf = vec![0u8; writes.iter().map(Vec::len).max().unwrap_or(0)];
    let first = tracer.len();
    for _ in 0..PASSES {
        for bytes in &writes {
            let id = next_batch();
            let parent = tracer.open("replay", ROOT, id);
            tracer.time("net.loopback", parent, id, || {
                tx.write_all(bytes).expect("loopback write");
                rx.read_exact(&mut buf[..bytes.len()])
                    .expect("loopback read");
            });
            tracer.close(parent);
        }
    }
    let by_name = trace::self_time_by_name(tracer.spans_since(first));
    let total = by_name
        .get("net.loopback")
        .map(|&(ns, _)| ns as f64)
        .unwrap_or(0.0);
    total / (frames.len() * PASSES).max(1) as f64
}
