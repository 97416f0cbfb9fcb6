//! `RemoteReader` against a live collector: answers for the right
//! application, agreement with the collector's own view, and replies that
//! outgrow one frame.

use std::time::{Duration, Instant};

use hb_net::wire::MAX_PAYLOAD;
use hb_net::{Collector, CollectorConfig, RemoteReader, UpstreamConfig, WireBeat};
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// `n` global beats 10 ms apart, starting at `t0_ns`.
fn beats(n: u64, t0_ns: u64) -> Vec<WireBeat> {
    (0..n)
        .map(|i| WireBeat {
            record: HeartbeatRecord::new(i, t0_ns + i * 10_000_000, Tag::NONE, BeatThreadId(0)),
            scope: BeatScope::Global,
        })
        .collect()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A collector holding apps `a`, `b` and `c`, and a reader on it.
fn abc_collector() -> (Collector, RemoteReader) {
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let state = collector.state();
    for (app, n) in [("a", 3), ("b", 5), ("c", 7)] {
        state.ingest_batch(app, 0, beats(n, 0));
    }
    let reader = RemoteReader::connect(collector.query_addr().to_string()).unwrap();
    (collector, reader)
}

/// A name with a space is no application, not the app before the space.
#[test]
fn a_name_with_a_space_is_not_its_first_word() {
    let (_collector, reader) = abc_collector();
    assert_eq!(reader.snapshot("a b").unwrap(), None);
}

/// A name that smuggles a second command must not leave a stray reply
/// behind for the next query to pick up.
#[test]
fn an_injected_command_leaves_no_stray_reply() {
    let (_collector, reader) = abc_collector();
    let injected = reader.snapshot("a\nGET b").unwrap();
    let c = reader.snapshot("c").unwrap().expect("c is known");
    assert_eq!(c.app, "c");
    assert_eq!(c.total_beats, 7);
    assert_eq!(injected, None);
}

/// On a leaf that relays to a parent, the remote reading equals the local
/// one: every STATS counter (uptime aside, it reads the clock) including
/// the uplink's, and a quiescent app's full snapshot.
#[test]
fn remote_stats_and_snapshot_equal_the_local_reading() {
    let root = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let leaf = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            upstream: Some(UpstreamConfig {
                tick: Duration::from_millis(1),
                ..UpstreamConfig::new(root.ingest_addr().to_string(), "edge")
            }),
            ..CollectorConfig::default()
        },
    )
    .unwrap();
    let state = leaf.state();
    state.ingest_batch("cam", 4, beats(40, 1_000));
    state.ingest_batch("mic", 0, beats(3, 0));
    wait_until("the leaf to relay every beat", || {
        let stats = state.stats();
        stats.upstream_connected == 1 && stats.upstream_forwarded == 43
    });
    wait_until("the root to apply them", || {
        root.state()
            .snapshot("edge/cam")
            .is_some_and(|s| s.total_beats == 40)
    });

    let reader = RemoteReader::connect(leaf.query_addr().to_string()).unwrap();
    let mut remote = reader.stats().unwrap();
    let local = state.stats();
    assert!(remote.has_upstream);
    assert!(remote.upstream_forwarded > 0);
    assert!(remote.uptime_s <= local.uptime_s);
    remote.uptime_s = local.uptime_s;
    assert_eq!(remote, local);

    let snapshot = reader.snapshot("cam").unwrap().expect("cam is known");
    assert!(snapshot.mean_interval_ns.is_some(), "the mean interval travels");
    assert_eq!(Some(snapshot), state.snapshot("cam"));
}

/// A METRICS export larger than one frame's payload comes back whole.
#[test]
fn metrics_larger_than_one_frame_come_back_whole() {
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let state = collector.state();
    let apps: Vec<String> = (0..1500)
        .map(|i| format!("{}-{i:04}", "registry-filler".repeat(12)))
        .collect();
    for app in &apps {
        state.ingest_batch(app, 0, beats(2, 0));
    }
    let reader = RemoteReader::connect(collector.query_addr().to_string()).unwrap();
    let text = reader.metrics().unwrap();
    assert!(
        text.len() > MAX_PAYLOAD,
        "the export ({} bytes) must outgrow one frame",
        text.len()
    );
    for app in &apps {
        let series = format!("hb_app_beats_total{{app=\"{app}\"}} 2\n");
        assert!(text.contains(&series), "missing {series:?}");
    }
    assert!(text.ends_with('\n'), "the export ends on a full line");
    assert_eq!(reader.apps().unwrap(), {
        let mut sorted = apps.clone();
        sorted.sort();
        sorted
    });
}
