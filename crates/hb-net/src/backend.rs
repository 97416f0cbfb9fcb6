//! [`TcpBackend`] — mirrors a heartbeat stream to a remote collector over
//! TCP without ever blocking the producer's hot path.
//!
//! `on_beat` only pushes the record into a bounded in-memory queue; a
//! dedicated flusher thread drains the queue in batches, maintains the
//! connection (including reconnection with backoff) and ships
//! [`Frame`]s. When the collector is slow or down the queue fills and the
//! backend sheds the *oldest* queued beats, counting every loss — the
//! freshest telemetry is the most valuable, and the producer never stalls.
//!
//! On every (re)connect the flusher sends its hello and reads the
//! collector's [`Frame::HelloAck`] before shipping anything. An ack naming
//! [`wire::VERSION`] opens the connection. An ack naming any other version,
//! or no ack within two seconds, is a failed connect: the flusher
//! retries after the backoff, counting the beats it sheds meanwhile, as for
//! any other failed connect. Reading the ack also keeps it from sitting
//! unread in the receive buffer, where it would turn the eventual close
//! into a reset that can discard beats still in flight.

use std::collections::VecDeque;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use heartbeats::{Backend, BackendStats, BeatScope, HeartbeatRecord};

use crate::frame::{FrameDecoder, FrameWriter};
use crate::wire::{self, BatchEncoder, Frame, Hello, WireBeat};

/// The longest a socket write may block, and the longest the flusher waits
/// for the collector's [`Frame::HelloAck`] after sending its hello.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// Tuning knobs for a [`TcpBackend`].
#[derive(Debug, Clone)]
pub struct TcpBackendConfig {
    /// Maximum beats buffered while the collector is unreachable or slow;
    /// beyond this the oldest queued beat is shed (and counted).
    pub queue_capacity: usize,
    /// Maximum beats drained from the queue per flush. A flush ships as one
    /// [`Frame::Beats`] unless its records overflow a frame, in which case
    /// it continues in another.
    pub batch_max: usize,
    /// Delay between reconnection attempts while the collector is down.
    pub reconnect_backoff: Duration,
    /// The rate window advertised in the hello frame so the collector's
    /// server-side estimate matches the producer's default window.
    pub default_window: u32,
    /// Process id advertised in the hello frame.
    pub pid: u32,
}

impl Default for TcpBackendConfig {
    fn default() -> Self {
        TcpBackendConfig {
            queue_capacity: 8192,
            batch_max: 512,
            reconnect_backoff: Duration::from_millis(100),
            default_window: heartbeats::DEFAULT_WINDOW as u32,
            pid: std::process::id(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<WireBeat>,
    /// Configured bound on `queue` (a `VecDeque`'s real allocation may be
    /// larger than requested, so the bound is tracked explicitly).
    capacity: usize,
    /// Latest declared target; `dirty` marks it unsent (set on change and on
    /// reconnect so goals survive collector restarts).
    target: Option<(f64, f64)>,
    target_dirty: bool,
    stop: bool,
    /// True while the flusher waits on `wake`: `on_beat` notifies only
    /// then (clearing it), so a busy flusher costs the producer no futex
    /// syscall per beat.
    parked: bool,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
    wake: Condvar,
    dropped: AtomicU64,
    sent: AtomicU64,
    connected: AtomicBool,
}

/// A [`Backend`] that ships heartbeats to an `hb-collector` over TCP.
///
/// The constructor does not require the collector to be up: the flusher
/// connects lazily and keeps retrying, buffering (and eventually shedding)
/// beats in the meantime. All backpressure is visible through
/// [`Backend::stats`].
///
/// ```
/// use std::sync::Arc;
/// use hb_net::{Collector, TcpBackend};
/// use heartbeats::{Backend, HeartbeatBuilder};
///
/// let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
/// let backend = Arc::new(TcpBackend::new(
///     collector.ingest_addr().to_string(),
///     "doc app", // names are sanitized to the wire's rules
/// ));
/// assert_eq!(backend.app(), "doc-app");
///
/// let hb = HeartbeatBuilder::new("doc-app")
///     .backend(Arc::clone(&backend) as Arc<dyn Backend>)
///     .build()
///     .unwrap();
/// hb.heartbeat();
/// hb.flush().unwrap(); // best effort: nudges the flusher thread
/// assert_eq!(hb.total_beats(), 1);
/// ```
#[derive(Debug)]
pub struct TcpBackend {
    app: String,
    shared: Arc<Shared>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl TcpBackend {
    /// Creates a backend for application `app` shipping to `addr`
    /// (`host:port`) with default tuning.
    pub fn new(addr: impl Into<String>, app: impl Into<String>) -> Self {
        Self::with_config(addr, app, TcpBackendConfig::default())
    }

    /// Creates a backend with explicit tuning.
    ///
    /// The application name is sanitized to the wire's rules (no
    /// whitespace/control/quote characters, bounded length) and
    /// `batch_max` is raised to at least 1.
    pub fn with_config(
        addr: impl Into<String>,
        app: impl Into<String>,
        mut config: TcpBackendConfig,
    ) -> Self {
        let addr = addr.into();
        let app = wire::sanitize_app_name(&app.into());
        config.batch_max = config.batch_max.max(1);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(config.queue_capacity.min(1 << 16)),
                capacity: config.queue_capacity.max(1),
                target: None,
                target_dirty: false,
                stop: false,
                parked: false,
            }),
            wake: Condvar::new(),
            dropped: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            connected: AtomicBool::new(false),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            let app = app.clone();
            std::thread::Builder::new()
                .name(format!("hb-net-flusher-{app}"))
                .spawn(move || flusher_loop(&shared, &addr, &app, &config))
                .expect("failed to spawn hb-net flusher thread")
        };
        TcpBackend {
            app,
            shared,
            flusher: Some(flusher),
        }
    }

    /// The application name announced to the collector.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Beats successfully handed to the TCP stream so far.
    pub fn sent(&self) -> u64 {
        self.shared.sent.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Beats shed under backpressure (queue overflow or dead connection).
    pub fn dropped_beats(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Whether the flusher currently holds a live connection.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Beats currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.shared.inner.lock().unwrap_or_else(|e| e.into_inner()).queue.len()
    }
}

impl Backend for TcpBackend {
    fn on_beat(&self, _app: &str, record: &HeartbeatRecord, scope: BeatScope) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.queue.len() >= inner.capacity {
            // Drop-oldest: fresh telemetry is worth more than stale.
            inner.queue.pop_front();
            self.shared.dropped.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        inner.queue.push_back(WireBeat {
            record: *record,
            scope,
        });
        let parked = std::mem::take(&mut inner.parked);
        drop(inner);
        if parked {
            self.shared.wake.notify_one();
        }
    }

    fn on_target_change(&self, _app: &str, min_bps: f64, max_bps: f64) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.target = Some((min_bps, max_bps));
        inner.target_dirty = true;
        drop(inner);
        self.shared.wake.notify_one();
    }

    fn flush(&self) -> heartbeats::Result<()> {
        // Best effort: give the flusher a moment to drain, but never block
        // the caller on a dead collector.
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let drained = {
                let inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.queue.is_empty() && !inner.target_dirty
            };
            if drained || !self.is_connected() || Instant::now() >= deadline {
                return Ok(());
            }
            self.shared.wake.notify_one();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            mirrored: self.sent(),
            dropped: self.dropped_beats(),
        }
    }
}

impl Drop for TcpBackend {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.stop = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

enum Work {
    /// Drained work to ship (the beats are in the caller's batch buffer).
    Batch { target: Option<(f64, f64)> },
    /// Stop requested and nothing left to ship.
    Shutdown,
}

/// Waits for work and moves up to `batch_max` queued beats into `batch`
/// (empty on entry). A queue that fits one batch is swapped with `batch`
/// whole, so the two buffers trade places and keep their capacity.
fn collect_work(
    shared: &Shared,
    config: &TcpBackendConfig,
    batch: &mut VecDeque<WireBeat>,
) -> Work {
    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if !inner.queue.is_empty() || inner.target_dirty {
            if inner.queue.len() <= config.batch_max {
                std::mem::swap(&mut inner.queue, batch);
            } else {
                batch.extend(inner.queue.drain(..config.batch_max));
            }
            let target = if inner.target_dirty {
                inner.target_dirty = false;
                inner.target
            } else {
                None
            };
            return Work::Batch { target };
        }
        if inner.stop {
            return Work::Shutdown;
        }
        // Every transition out of "empty queue, no dirty target, not
        // stopping" signals `wake` (`on_beat` while `parked`,
        // `on_target_change`, `flush`, drop), so an idle flusher parks
        // indefinitely instead of spinning on a timed re-check — with
        // hundreds of mostly-idle producers on one host, periodic wakeups
        // alone were measurable scheduler load.
        inner.parked = true;
        inner = shared.wake.wait(inner).unwrap_or_else(|e| e.into_inner());
        inner.parked = false;
    }
}

fn flusher_loop(shared: &Shared, addr: &str, app: &str, config: &TcpBackendConfig) {
    let mut connection: Option<FrameWriter<TcpStream>> = None;
    let mut last_attempt: Option<Instant> = None;
    let mut encoder = BatchEncoder::new();
    let mut beats = VecDeque::new();
    loop {
        beats.clear();
        let target = match collect_work(shared, config, &mut beats) {
            Work::Batch { target } => target,
            Work::Shutdown => break,
        };

        // (Re)establish the connection, rate-limited by the backoff.
        if connection.is_none() {
            let due = last_attempt
                .map(|t| t.elapsed() >= config.reconnect_backoff)
                .unwrap_or(true);
            if due {
                last_attempt = Some(Instant::now());
                connection = try_connect(addr, app, config);
                if connection.is_some() {
                    // Re-announce the goal after every (re)connect.
                    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    if inner.target.is_some() {
                        inner.target_dirty = true;
                    }
                }
                shared
                    .connected
                    .store(connection.is_some(), Ordering::Relaxed); // ordering: advisory flag/stat; no payload is published with it
            }
        }

        let Some(writer) = connection.as_mut() else {
            // Collector unreachable: shed this batch (counted) and let the
            // target stay pending for the next successful connect.
            shared
                .dropped
                .fetch_add(beats.len() as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            if let Some(t) = target {
                let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.target = Some(t);
                inner.target_dirty = true;
            }
            // Avoid a hot spin while down: nap one backoff unless stopping.
            let inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if !inner.stop {
                let _ = shared
                    .wake
                    .wait_timeout(inner, config.reconnect_backoff)
                    .unwrap_or_else(|e| e.into_inner());
            }
            continue;
        };

        let sent_len = beats.len() as u64;
        let result = ship(writer, &mut encoder, &beats, target, shared);
        match result {
            Ok(()) => {
                shared.sent.fetch_add(sent_len, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            }
            Err(_) => {
                // The batch is lost with the connection; count it and retry
                // the link on the next pass.
                shared.dropped.fetch_add(sent_len, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                connection = None;
                shared.connected.store(false, Ordering::Relaxed); // ordering: advisory flag/stat; no payload is published with it
            }
        }
    }
    // Orderly goodbye if we still hold a link.
    if let Some(writer) = connection.as_mut() {
        let _ = writer.write_frame(&Frame::Bye);
        let _ = writer.flush();
    }
    // Anything left in the queue at shutdown is lost; account for it.
    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    let remaining = inner.queue.len() as u64;
    if remaining > 0 {
        inner.queue.clear();
        shared.dropped.fetch_add(remaining, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }
    shared.connected.store(false, Ordering::Relaxed); // ordering: advisory flag/stat; no payload is published with it
}

/// Connects, sends the hello and completes the handshake. `None` is a
/// failed connect.
fn try_connect(addr: &str, app: &str, config: &TcpBackendConfig) -> Option<FrameWriter<TcpStream>> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(SOCKET_TIMEOUT)).ok();
    let mut writer = FrameWriter::new(stream);
    writer
        .write_frame(&Frame::Hello(Hello {
            app: app.to_string(),
            pid: config.pid,
            default_window: config.default_window,
        }))
        .ok()?;
    writer.flush().ok()?;
    read_hello_ack(writer.get_ref()).then_some(writer)
}

/// Reads the collector's answer to the hello: true only for a
/// [`Frame::HelloAck`] naming [`wire::VERSION`] that arrives within
/// [`SOCKET_TIMEOUT`]. A different version, any other frame, a decode
/// error, EOF or the deadline all mean the connect failed.
fn read_hello_ack(stream: &TcpStream) -> bool {
    let deadline = Instant::now() + SOCKET_TIMEOUT;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 64];
    let mut reader = stream;
    let accepted = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break false;
        }
        match reader.read(&mut buf) {
            Ok(0) => break false,
            Ok(n) => {
                decoder.push(&buf[..n]);
                match decoder.next_frame() {
                    Ok(None) => {}
                    Ok(Some(Frame::HelloAck { max_version })) => {
                        break max_version == wire::VERSION
                    }
                    Ok(Some(_)) | Err(_) => break false,
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    // The flusher never reads again; restore the blocking default so the
    // socket's behavior is unsurprising to future code.
    stream.set_read_timeout(None).ok();
    accepted
}

/// Ships one drained flush: an optional target frame plus the beats,
/// coalesced by the streaming [`BatchEncoder`] into one beats frame (or
/// more, if the records overflow one).
fn ship(
    writer: &mut FrameWriter<TcpStream>,
    encoder: &mut BatchEncoder,
    beats: &VecDeque<WireBeat>,
    target: Option<(f64, f64)>,
    shared: &Shared,
) -> crate::error::Result<()> {
    if let Some((min_bps, max_bps)) = target {
        writer.write_frame(&Frame::Target { min_bps, max_bps })?;
    }
    if !beats.is_empty() {
        let dropped_total = shared.dropped.load(Ordering::Relaxed); // ordering: drop total piggybacks on the batch frame; cross-thread exactness is not required
        encoder.begin_compact(dropped_total);
        for beat in beats {
            if !encoder.push(beat) {
                // The frame filled mid-flush (only possible when the
                // records are near their varint worst case): seal and ship
                // it, then continue in a fresh frame — no beat is ever
                // silently lost to the frame bound.
                writer.write_encoded(encoder.finish())?;
                encoder.begin_compact(dropped_total);
                let pushed = encoder.push(beat);
                debug_assert!(pushed, "an empty frame must accept a record");
            }
        }
        writer.write_encoded(encoder.finish())?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{BeatThreadId, Tag};

    fn record(seq: u64) -> HeartbeatRecord {
        HeartbeatRecord::new(seq, seq * 1_000, Tag::NONE, BeatThreadId(0))
    }

    #[test]
    fn on_beat_never_blocks_without_a_collector() {
        // Grab a port with no listener behind it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::with_config(
            addr.to_string(),
            "orphan",
            TcpBackendConfig {
                queue_capacity: 64,
                ..TcpBackendConfig::default()
            },
        );
        let start = Instant::now();
        for i in 0..10_000u64 {
            backend.on_beat("orphan", &record(i), BeatScope::Global);
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "10k beats into a dead collector must not stall"
        );
        assert!(backend.queue_len() <= 64);
        drop(backend);
    }

    #[test]
    fn dropped_counter_reflects_shedding() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::with_config(
            addr.to_string(),
            "shed",
            TcpBackendConfig {
                queue_capacity: 16,
                reconnect_backoff: Duration::from_millis(10),
                ..TcpBackendConfig::default()
            },
        );
        for i in 0..1_000u64 {
            backend.on_beat("shed", &record(i), BeatScope::Global);
        }
        // Queue overflow alone guarantees visible drops immediately.
        assert!(backend.dropped_beats() > 0);
        let stats = backend.stats();
        assert_eq!(stats.mirrored, 0, "nothing can have been sent");
        drop(backend);
    }

    #[test]
    fn drop_accounts_for_unsent_queue() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::new(addr.to_string(), "leftover");
        for i in 0..100u64 {
            backend.on_beat("leftover", &record(i), BeatScope::Global);
        }
        let shared = Arc::clone(&backend.shared);
        drop(backend);
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 100);
        assert!(shared.inner.lock().unwrap().queue.is_empty());
    }

    /// Runs a backend against a raw listener that reads each hello and
    /// then answers with `HelloAck { max_version }`, or never answers when
    /// `answer` is `None`. The handshake must fail: no frame follows the
    /// hello, the backend never reports a connection, and every queued beat
    /// is counted as dropped.
    fn assert_handshake_refused(answer: Option<u8>) {
        use crate::frame::FrameReader;
        use std::io::Write;

        const BEATS: u64 = 100;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let after_hello = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&after_hello);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut reader = FrameReader::new(stream.try_clone().unwrap());
                    assert!(matches!(reader.read_frame(), Ok(Some(Frame::Hello(_)))));
                    if let Some(max_version) = answer {
                        stream
                            .write_all(&Frame::HelloAck { max_version }.encode())
                            .unwrap();
                    }
                    while let Ok(Some(frame)) = reader.read_frame() {
                        seen.lock().unwrap().push(frame);
                    }
                });
            }
        });

        let backend = TcpBackend::with_config(
            addr.to_string(),
            "refused",
            TcpBackendConfig {
                reconnect_backoff: Duration::from_millis(10),
                ..TcpBackendConfig::default()
            },
        );
        for i in 0..BEATS {
            backend.on_beat("refused", &record(i), BeatScope::Global);
        }
        let deadline = Instant::now() + 4 * SOCKET_TIMEOUT;
        while backend.dropped_beats() < BEATS {
            assert!(
                !backend.is_connected(),
                "a refused handshake must not connect"
            );
            assert!(
                Instant::now() < deadline,
                "dropped only {}",
                backend.dropped_beats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!backend.is_connected());
        assert_eq!(backend.dropped_beats(), BEATS);
        assert_eq!(backend.sent(), 0);
        drop(backend);
        assert_eq!(*after_hello.lock().unwrap(), Vec::<Frame>::new());
    }

    #[test]
    fn hello_ack_with_another_version_is_a_failed_connect() {
        assert_handshake_refused(Some(2));
    }

    #[test]
    fn missing_hello_ack_is_a_failed_connect() {
        assert_handshake_refused(None);
    }

    #[test]
    fn flush_returns_quickly_when_disconnected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::new(addr.to_string(), "flush");
        backend.on_beat("flush", &record(0), BeatScope::Global);
        let start = Instant::now();
        backend.flush().unwrap();
        assert!(start.elapsed() < Duration::from_millis(500));
    }
}
