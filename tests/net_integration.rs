//! End-to-end loopback tests of the network telemetry subsystem:
//! producer (`TcpBackend`) → collector daemon → observer (`RemoteReader`
//! driving a `control` monitor), plus the backpressure guarantees when the
//! collector is down.

use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::control::{RateMonitor, RateSource};
use app_heartbeats::heartbeats::{Backend, HeartbeatBuilder};
use app_heartbeats::net::{Collector, RemoteReader, TcpBackend, TcpBackendConfig};

/// Polls `probe` until it returns `Some` or the timeout elapses.
fn wait_for<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return Some(value);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn producer_collector_observer_loopback() {
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").expect("bind collector");

    // Producer: a heartbeat-instrumented app mirroring to the collector.
    let backend = Arc::new(TcpBackend::with_config(
        collector.ingest_addr().to_string(),
        "pipeline",
        TcpBackendConfig {
            default_window: 20,
            ..TcpBackendConfig::default()
        },
    ));
    let hb = HeartbeatBuilder::new("pipeline")
        .window(20)
        .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
        .build()
        .expect("build heartbeat");
    hb.set_target_rate(30.0, 35.0).expect("set target");

    const BEATS: u64 = 150;
    for _ in 0..BEATS {
        std::thread::sleep(Duration::from_millis(1));
        hb.heartbeat();
    }
    hb.flush().expect("flush backends");

    // Observer: a remote reader over the query port.
    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    reader.ping().expect("collector answers ping");

    // All beats eventually land in the collector registry.
    let snapshot = wait_for(Duration::from_secs(10), || {
        reader
            .snapshot("pipeline")
            .ok()
            .flatten()
            .filter(|s| s.total_beats >= BEATS)
    })
    .expect("collector received all beats");
    assert_eq!(snapshot.total_beats, BEATS);
    assert!(snapshot.alive, "app beat recently, must be alive");
    assert_eq!(snapshot.producer_dropped, 0, "collector was up throughout");

    // The collector's windowed rate tracks the producer's local estimate
    // within 10% (both are computed from the same beat timestamps).
    let local_rate = hb.current_rate(0).expect("local rate");
    let remote_rate = snapshot.rate_bps.expect("remote rate");
    assert!(
        (remote_rate - local_rate).abs() / local_rate < 0.10,
        "remote {remote_rate} vs local {local_rate}"
    );

    // Target propagation: the initial goal and a later change both arrive.
    assert_eq!(snapshot.target, Some((30.0, 35.0)));
    hb.set_target_rate(50.0, 60.0).expect("retarget");
    hb.flush().expect("flush target");
    let updated = wait_for(Duration::from_secs(5), || {
        reader
            .snapshot("pipeline")
            .ok()
            .flatten()
            .filter(|s| s.target == Some((50.0, 60.0)))
    });
    assert!(updated.is_some(), "target change must reach the collector");

    // The remote app drives a control-layer monitor exactly like a local
    // reader would.
    let remote = reader.app("pipeline");
    assert_eq!(remote.name(), "pipeline");
    assert_eq!(remote.total_beats(), BEATS);
    assert_eq!(remote.target(), Some((50.0, 60.0)));
    let mut monitor = RateMonitor::new(remote).with_check_every(1);
    let observation = monitor.poll().expect("observation from remote source");
    assert_eq!(observation.beat, BEATS);
    assert!(observation.rate_bps.is_some());

    // The producer-side stats account for every beat.
    let stats = wait_for(Duration::from_secs(5), || {
        let stats = backend.stats();
        (stats.mirrored == BEATS).then_some(stats)
    })
    .expect("all beats shipped");
    assert_eq!(stats.dropped, 0);

    // Registry listing and Prometheus export expose the app.
    assert_eq!(reader.apps().expect("LIST"), vec!["pipeline".to_string()]);
    let metrics = reader.metrics().expect("METRICS");
    assert!(metrics.contains("hb_app_beats_total{app=\"pipeline\"} 150"));
    assert!(metrics.contains("hb_app_target_min_bps{app=\"pipeline\"} 50"));
}

#[test]
fn on_beat_never_blocks_when_collector_is_down() {
    // Reserve a port, then free it so nothing listens there.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let dead_addr = placeholder.local_addr().expect("addr").to_string();
    drop(placeholder);

    let backend = Arc::new(TcpBackend::new(dead_addr, "orphan"));
    let hb = HeartbeatBuilder::new("orphan")
        .capacity(1 << 14)
        .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
        .build()
        .expect("build heartbeat");

    const BEATS: u64 = 100_000;
    let start = Instant::now();
    for _ in 0..BEATS {
        hb.heartbeat();
    }
    let elapsed = start.elapsed();
    assert_eq!(hb.total_beats(), BEATS, "every beat lands in local history");
    assert!(
        elapsed < Duration::from_secs(10),
        "100k beats into a dead collector took {elapsed:?}; the hot path must not block"
    );

    let stats = hb.backend_stats();
    assert!(
        stats.dropped > 0,
        "with no collector, the bounded queue must shed beats"
    );
    assert_eq!(
        stats.mirrored, 0,
        "nothing can have been delivered to a dead collector"
    );
    assert!(backend.dropped_beats() > 0);
    assert!(!backend.is_connected());
}

#[test]
fn multiple_apps_share_one_collector() {
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").expect("bind collector");
    let ingest = collector.ingest_addr().to_string();

    let apps = ["svc-a", "svc-b", "svc-c"];
    let handles: Vec<_> = apps
        .iter()
        .map(|name| {
            let ingest = ingest.clone();
            let name = name.to_string();
            std::thread::spawn(move || {
                let backend = Arc::new(TcpBackend::with_config(
                    ingest,
                    name.clone(),
                    TcpBackendConfig::default(),
                ));
                let hb = HeartbeatBuilder::new(name)
                    .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
                    .build()
                    .expect("build heartbeat");
                for _ in 0..50 {
                    std::thread::sleep(Duration::from_micros(500));
                    hb.heartbeat();
                }
                hb.flush().expect("flush");
                // Wait for delivery before dropping the backend.
                let deadline = Instant::now() + Duration::from_secs(10);
                while backend.sent() < 50 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert_eq!(backend.sent(), 50);
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("producer thread");
    }

    let state = collector.state();
    let names = state.app_names();
    assert_eq!(names, apps.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for app in apps {
        let snap = state.snapshot(app).expect("snapshot");
        assert_eq!(snap.total_beats, 50, "{app} delivered every beat");
    }
}
