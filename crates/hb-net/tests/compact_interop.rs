//! Cross-version interop for the compact (version-3) beat framing.
//!
//! Four quadrants, over real loopback sockets:
//!
//! * v3 producer ↔ v3 collector — negotiates compact framing via the
//!   hello acknowledgment and delivers beats.
//! * v3 producer ↔ "v2 collector" (a silent server that, like every
//!   pre-v3 collector, never writes on the ingest socket) — the producer
//!   falls back cleanly to the fixed-width version-2 encoding.
//! * v2 producer (compact negotiation disabled) ↔ v3 collector — the
//!   collector decodes the legacy frames.
//! * A raw byte-level v2 client (hand-encoded `Frame::encode` stream,
//!   exactly what an old binary emits) ↔ v3 collector.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hb_net::frame::{FrameDecoder, FrameEvent};
use hb_net::wire::{BeatBatch, Frame, Hello, WireBeat};
use hb_net::{Collector, TcpBackend, TcpBackendConfig};
use heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Tag};

fn record(seq: u64) -> HeartbeatRecord {
    HeartbeatRecord::new(seq, 1_000_000 * seq + 500, Tag::NONE, BeatThreadId(0))
}

/// Spins until `cond` holds or panics after a generous deadline.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn v3_client_negotiates_compact_with_v3_collector() {
    let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let backend = TcpBackend::with_config(
        collector.ingest_addr().to_string(),
        "compact-app",
        TcpBackendConfig::default(),
    );
    for i in 0..500u64 {
        backend.on_beat("compact-app", &record(i), BeatScope::Global);
    }
    let state = collector.state();
    wait_for("all beats ingested", || {
        state
            .snapshot("compact-app")
            .map(|s| s.total_beats + s.producer_dropped >= 500)
            .unwrap_or(false)
    });
    assert!(
        backend.negotiated_compact(),
        "a v3 collector acks the hello, so the connection must run compact"
    );
    let snap = state.snapshot("compact-app").unwrap();
    assert_eq!(snap.total_beats + snap.producer_dropped, 500);
    // Timestamps survived the delta encoding: the windowed rate is the
    // nominal 1 kHz of `record`'s 1 ms spacing.
    let rate = snap.rate_bps.expect("enough beats for a rate");
    assert!((rate - 1_000.0).abs() < 1.0, "rate {rate}");
    drop(backend);
    collector.shutdown();
}

#[test]
fn v3_client_falls_back_cleanly_against_v2_collector() {
    // A faithful stand-in for every pre-v3 collector: accepts, reads,
    // never writes on the ingest socket.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Vec<u8> {
            let (mut conn, _) = listener.accept().unwrap();
            conn.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
            let mut received = Vec::new();
            let mut buf = [0u8; 4096];
            while !stop.load(Ordering::Relaxed) {
                match conn.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => received.extend_from_slice(&buf[..n]),
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
            received
        })
    };

    let backend = TcpBackend::with_config(
        addr.to_string(),
        "fallback-app",
        TcpBackendConfig {
            negotiate_timeout: Duration::from_millis(30),
            ..TcpBackendConfig::default()
        },
    );
    for i in 0..100u64 {
        backend.on_beat("fallback-app", &record(i), BeatScope::Global);
    }
    wait_for("beats flushed to the silent server", || backend.sent() >= 100);
    assert!(
        !backend.negotiated_compact(),
        "no hello-ack means the v2 fallback"
    );
    drop(backend); // sends Bye, closes the socket
    stop.store(true, Ordering::Relaxed);
    let received = server.join().unwrap();

    // Everything on the wire must decode under pre-v3 rules: producer
    // kinds only, all version-1 headers, no compact frames.
    let mut decoder = FrameDecoder::new();
    decoder.push(&received);
    let mut beats_seen = 0u64;
    let mut hello_seen = false;
    loop {
        match decoder.next_event().unwrap() {
            Some(FrameEvent::Beats(view)) => {
                assert!(!view.is_compact(), "fallback must use fixed-width framing");
                beats_seen += view.len() as u64;
            }
            Some(FrameEvent::Control(Frame::Hello(hello))) => {
                assert_eq!(hello.app, "fallback-app");
                hello_seen = true;
            }
            Some(FrameEvent::Control(Frame::Bye)) => {}
            Some(FrameEvent::Control(other)) => panic!("unexpected frame {other:?}"),
            None => break,
        }
    }
    assert!(hello_seen);
    assert_eq!(beats_seen, 100);
    assert!(!decoder.has_partial(), "stream ended on a frame boundary");
    // Every header byte 4 in the stream: the producer stamped only
    // versions a v2 decoder accepts (per-kind stamping: hello/beats/bye
    // are all version 1).
    let mut at = 0;
    while at + 14 <= received.len() {
        let (_, payload_len, _) = Frame::decode_header(&received[at..]).unwrap();
        assert!(received[at + 4] <= 2, "frame at {at} claims version {}", received[at + 4]);
        at += 14 + payload_len;
    }
}

#[test]
fn v2_client_interops_with_v3_collector() {
    let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let backend = TcpBackend::with_config(
        collector.ingest_addr().to_string(),
        "legacy-app",
        TcpBackendConfig {
            prefer_compact: false, // a v2-era producer
            ..TcpBackendConfig::default()
        },
    );
    for i in 0..200u64 {
        backend.on_beat("legacy-app", &record(i), BeatScope::Global);
    }
    let state = collector.state();
    wait_for("legacy beats ingested", || {
        state
            .snapshot("legacy-app")
            .map(|s| s.total_beats + s.producer_dropped >= 200)
            .unwrap_or(false)
    });
    assert!(!backend.negotiated_compact());
    drop(backend);
    collector.shutdown();
}

#[test]
fn raw_v2_byte_stream_is_accepted_by_v3_collector() {
    // Exactly the bytes an old client binary would send: Frame::encode's
    // fixed-width batch after a hello, no reads at all.
    let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(collector.ingest_addr()).unwrap();
    let mut bytes = Frame::Hello(Hello {
        app: "raw-v2".into(),
        pid: 42,
        default_window: 20,
    })
    .encode();
    Frame::Beats(BeatBatch {
        dropped_total: 3,
        beats: (0..64)
            .map(|i| WireBeat {
                record: record(i),
                scope: BeatScope::Global,
            })
            .collect(),
    })
    .encode_into(&mut bytes);
    conn.write_all(&bytes).unwrap();
    conn.flush().unwrap();

    let state = collector.state();
    wait_for("raw v2 beats ingested", || {
        state
            .snapshot("raw-v2")
            .map(|s| s.total_beats == 64)
            .unwrap_or(false)
    });
    let snap = state.snapshot("raw-v2").unwrap();
    assert_eq!(snap.pid, 42);
    assert_eq!(snap.producer_dropped, 3);
    drop(conn);
    collector.shutdown();
}
