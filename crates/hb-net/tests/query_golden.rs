//! Golden transcript of the query port's line protocol.
//!
//! Drives every line command against a deterministic collector (telemetry
//! off, one reactor shard, fixed beat timestamps, clocks that cannot expire
//! within a test) over a real socket, and compares the bytes that come
//! back with `golden/query_lines.txt`. Only the fields that read the wall
//! clock are masked: `uptime_s=` in `STATS`, `hb_collector_uptime_seconds`
//! in `METRICS`, and `silent_ms=` in `HEALTH`. Any other change to what a
//! human sees over `nc` fails here.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hb_net::health::HealthConfig;
use hb_net::{BeatBatch, Collector, CollectorConfig, Frame, Hello, WireBeat};
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

const GOLDEN: &str = include_str!("golden/query_lines.txt");

/// Every command, in order. The blank line is answered with nothing and
/// counted nowhere; `QUIT` closes the connection, ending the transcript.
const COMMANDS: &[&str] = &[
    "PING",
    "VERSION",
    "HELP",
    "LIST",
    "GET alpha",
    "GET beta",
    "GET ghost",
    "GET",
    "HISTORY alpha",
    "HISTORY alpha 2",
    "HISTORY ghost",
    "HISTORY",
    "HEALTH alpha",
    "HEALTH ghost",
    "HEALTH",
    "",
    "STATS",
    "METRICS",
    "HEATMAP",
    "HEATMAP 4 250",
    "NONSENSE",
    "STATS",
    "QUIT",
];

fn beat(seq: u64, timestamp_ns: u64, scope: BeatScope) -> WireBeat {
    WireBeat {
        record: HeartbeatRecord::new(seq, timestamp_ns, Tag::NONE, BeatThreadId(0)),
        scope,
    }
}

/// Replaces the value after each `key` (up to the next space or newline)
/// with `<masked>`.
fn mask(text: &str, key: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let value_at = at + key.len();
        out.push_str(&rest[..value_at]);
        out.push_str("<masked>");
        rest = &rest[value_at..];
        let end = rest.find([' ', '\n']).unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn line_protocol_matches_golden_transcript() {
    let hour = Duration::from_secs(3600);
    let collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            shards: 4,
            io_threads: 1,
            stale_after: hour,
            idle_timeout: hour,
            health: HealthConfig {
                window: hour,
                ..HealthConfig::default()
            },
            telemetry: false,
            ..CollectorConfig::default()
        },
    )
    .unwrap();
    let state = collector.state();

    // alpha: registered and fed in-process — 10 beats/s, one local beat.
    state.hello("alpha", 11, 4);
    let mut alpha: Vec<WireBeat> = (0..6)
        .map(|i| beat(i, i * 100_000_000, BeatScope::Global))
        .collect();
    alpha.push(beat(0, 250_000_000, BeatScope::Local));
    state.ingest_batch("alpha", 2, alpha);

    // beta: a real producer connection (kept open) with a declared target.
    let mut producer = TcpStream::connect(collector.ingest_addr()).unwrap();
    let mut frames = Frame::Hello(Hello {
        app: "beta".into(),
        pid: 22,
        default_window: 8,
    })
    .encode();
    Frame::Target {
        min_bps: 5.0,
        max_bps: 15.0,
    }
    .encode_into(&mut frames);
    Frame::Beats(BeatBatch {
        dropped_total: 3,
        beats: (0..5)
            .map(|i| beat(i, 1_000_000_000 + i * 50_000_000, BeatScope::Global))
            .collect(),
    })
    .encode_into(&mut frames);
    producer.write_all(&frames).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.snapshot("beta").map(|s| s.total_beats) != Some(5) {
        assert!(Instant::now() < deadline, "beta's beats never landed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut observer = TcpStream::connect(collector.query_addr()).unwrap();
    observer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let script: String = COMMANDS.iter().map(|c| format!("{c}\n")).collect();
    observer.write_all(script.as_bytes()).unwrap();
    let mut transcript = String::new();
    observer.read_to_string(&mut transcript).unwrap();

    let masked = mask(
        &mask(
            &mask(&transcript, "uptime_s="),
            "\nhb_collector_uptime_seconds ",
        ),
        "silent_ms=",
    );
    assert!(
        masked == GOLDEN,
        "line protocol drifted from tests/golden/query_lines.txt; got:\n{masked}"
    );
    drop(producer);
}
