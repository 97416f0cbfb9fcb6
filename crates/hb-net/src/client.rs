//! Observer-side client for the collector's query port.
//!
//! [`RemoteReader`] speaks only binary frames over one persistent
//! connection: every query ([`apps`](RemoteReader::apps),
//! [`snapshot`](RemoteReader::snapshot), [`stats`](RemoteReader::stats),
//! [`metrics`](RemoteReader::metrics), [`ping`](RemoteReader::ping),
//! [`history`](RemoteReader::history), [`health`](RemoteReader::health)) is
//! one [`Query`] frame answered by [`Reply`] fragments (see
//! [`crate::query`]), and the **push-subscription plane**
//! ([`subscribe`](RemoteReader::subscribe) → [`Subscription`]) shares the
//! socket. The line protocol stays for humans on `nc`; this client never
//! sends a line. [`RemoteApp`] narrows the reader to a single application
//! and implements [`heartbeats::Observe`] — so a `control::RateMonitor` or
//! `control::ControlLoop` (whose `RateSource`/`HealthSource` traits have
//! blanket impls for every `Observe`) drives adaptation from a collector
//! exactly the way it drives from an in-process
//! [`heartbeats::HeartbeatReader`], holds its actuator when the collector
//! says the application stalled, and reacts to *pushed* health transitions
//! instead of polling.
//!
//! ## Connection demultiplexing
//!
//! Queries are strict request/response, but an active subscription makes
//! the collector write [`Frame::Event`]s at its own pace, interleaved with
//! query replies on the same socket. The first `subscribe` therefore
//! upgrades the connection: a demux thread owns the read side, routes
//! events to their [`Subscription`] queues, and forwards every other frame
//! into a pipe the synchronous query path reads — so polls and pushes
//! coexist on one connection without ever blocking each other.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use heartbeats::observe::{
    EventStream, Observe, ObserveError, ObserveEvent, ObserveEventKind, ObserveFilter,
    ObserveStream, ObservedBeat, ObservedHealth, ObservedSnapshot,
};

use crate::collector::AppSnapshot;
use crate::error::{NetError, Result};
use crate::frame::FrameReader;
use crate::health::{HealthReport, HealthStatus};
use crate::query::{read_reply, CollectorStats, HistoryChunk, Query, Reply};
use crate::telemetry::{self, HistoSnapshot, LatencyHisto};
use crate::wire::{self, EventFrame, EventPayload, Frame, SubStatus, SubscribeReq};

/// How long a synchronous query waits for its reply before treating the
/// connection as dead (both the direct socket timeout and the demux pipe's
/// wait bound, per frame).
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Client-side bound on one subscription's undelivered events; beyond it
/// the oldest is shed and counted ([`Subscription::lost`]).
const SUB_QUEUE_CAPACITY: usize = 8192;

/// A read-only client of a collector's query port.
///
/// One `RemoteReader` holds one persistent connection; every query is one
/// [`Query`] → [`Reply`] round trip on it, reconnecting transparently if
/// the collector restarts. [`subscribe`](RemoteReader::subscribe) opens a
/// push subscription multiplexed over the same connection.
///
/// ```
/// use hb_net::{Collector, RemoteReader};
///
/// let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
/// let reader = RemoteReader::connect(collector.query_addr().to_string()).unwrap();
///
/// reader.ping().unwrap();
/// assert_eq!(reader.apps().unwrap(), Vec::<String>::new());
/// // Unknown applications answer None, not an error.
/// assert_eq!(reader.snapshot("nobody").unwrap(), None);
/// assert_eq!(reader.health("nobody").unwrap(), None);
/// ```
#[derive(Debug)]
pub struct RemoteReader {
    addr: String,
    conn: Mutex<Option<Conn>>,
    /// The live demux, once a subscription upgraded the connection.
    demux: Mutex<Option<Arc<DemuxShared>>>,
    next_sub: AtomicU32,
}

/// One client connection: a reply source plus the write half. In direct
/// mode the source *is* the socket; in demux mode it is the pipe the demux
/// thread forwards non-event frames into.
#[derive(Debug)]
struct Conn {
    source: ReplySource,
    writer: TcpStream,
    /// Set in demux mode, so a failed query can tear the demux down with it
    /// (its subscriptions then close instead of silently starving).
    demux: Option<Arc<DemuxShared>>,
}

/// Where synchronous query replies come from.
#[derive(Debug)]
enum ReplySource {
    Direct(FrameReader<BufReader<TcpStream>>),
    Pipe(Arc<FramePipe>),
}

impl ReplySource {
    /// The next frame addressed to the query path; end-of-stream is
    /// [`NetError::UnexpectedEof`].
    fn next_frame(&mut self) -> Result<Frame> {
        match self {
            ReplySource::Direct(reader) => reader.read_frame()?.ok_or(NetError::UnexpectedEof),
            ReplySource::Pipe(pipe) => pipe.next_frame(),
        }
    }
}

/// A frame queue between the demux thread and the synchronous query path:
/// blocking reads with a bounded wait, explicit end-of-stream.
#[derive(Debug, Default)]
struct FramePipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    frames: VecDeque<Frame>,
    eof: bool,
}

impl FramePipe {
    fn push(&self, frame: Frame) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.frames.push_back(frame);
        drop(state);
        self.ready.notify_all();
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.eof = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocking pop with the reply timeout; a timeout surfaces as
    /// `TimedOut` (the query path then reconnects).
    fn next_frame(&self) -> Result<Frame> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return Ok(frame);
            }
            if state.eof {
                return Err(NetError::UnexpectedEof);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "reply timed out",
                )));
            }
            let (guard, _) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }
}

/// State shared between the demux thread, the reader, and subscriptions.
#[derive(Debug)]
struct DemuxShared {
    pipe: Arc<FramePipe>,
    subs: Mutex<HashMap<u32, Arc<SubShared>>>,
    alive: AtomicBool,
    /// Write half kept for teardown (`shutdown` unblocks the demux read).
    stream: TcpStream,
}

impl DemuxShared {
    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire) // ordering: pairs with the Release stores that clear alive, so a dead handle stays dead
    }

    /// Tears the demuxed connection down: the socket shutdown unblocks the
    /// demux thread, which then closes the pipe and every subscription.
    fn shutdown(&self) {
        self.alive.store(false, Ordering::Release); // ordering: publishes the dead state to is_alive()'s Acquire load
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn route(&self, event: EventFrame) {
        let subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sub) = subs.get(&event.sub_id) {
            sub.push(event);
        }
        // Unknown ids: the subscription lapsed while events were in flight.
    }

    fn close_all(&self) {
        self.alive.store(false, Ordering::Release); // ordering: publishes the dead state to is_alive()'s Acquire load
        self.pipe.close();
        let mut subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        for sub in subs.values() {
            sub.close();
        }
        subs.clear();
    }
}

/// Events awaiting a subscription's reader, plus how many readers are
/// blocked waiting for one.
#[derive(Debug, Default)]
struct SubQueue {
    events: VecDeque<EventFrame>,
    waiters: usize,
}

/// One subscription's client-side event queue.
#[derive(Debug, Default)]
struct SubShared {
    queue: Mutex<SubQueue>,
    ready: Condvar,
    closed: AtomicBool,
    lost: AtomicU64,
    /// Wire-faithful delivery lag: the collector's enqueue wall clock
    /// (`sent_at_ns`) to this process's receive wall clock. Spans the
    /// collector pump, the kernel, and the wire — see
    /// [`Subscription::delivery_lag`] for the clock-agreement caveat.
    lag: LatencyHisto,
}

impl SubShared {
    fn push(&self, event: EventFrame) {
        if self.closed.load(Ordering::Acquire) { // ordering: pairs with the Release in close(); everything enqueued before close stays visible
            return;
        }
        // sent_at_ns == 0 marks a pre-telemetry collector: no lag sample.
        if event.sent_at_ns > 0 {
            self.lag
                .record(telemetry::wall_clock_ns().saturating_sub(event.sent_at_ns));
        }
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.events.len() >= SUB_QUEUE_CAPACITY {
            queue.events.pop_front();
            self.lost.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        queue.events.push_back(event);
        // A condvar notify is a futex syscall even with nobody waiting;
        // the demux thread pays it only while a reader is blocked.
        let waiting = queue.waiters > 0;
        drop(queue);
        if waiting {
            self.ready.notify_all();
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release); // ordering: publishes closure; pairs with the Acquire loads on the event path
        self.ready.notify_all();
    }

    fn try_next(&self) -> Option<EventFrame> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .pop_front()
    }

    fn wait_next(&self, timeout: Duration) -> Option<EventFrame> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(event) = queue.events.pop_front() {
                return Some(event);
            }
            if self.closed.load(Ordering::Acquire) { // ordering: pairs with the Release in close()
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            queue.waiters += 1;
            let (guard, _) = self
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
            queue.waiters -= 1;
        }
    }
}

/// The demux thread: owns the socket's read side, routes events to their
/// subscriptions, forwards every other frame (query replies, acks) into
/// the pipe the synchronous path reads.
fn demux_loop(stream: TcpStream, shared: Arc<DemuxShared>) {
    // Blocking reads: teardown goes through DemuxShared::shutdown.
    stream.set_read_timeout(None).ok();
    let mut frames = FrameReader::new(BufReader::with_capacity(64 * 1024, stream));
    // EOF, a dead socket or a corrupt frame ends the connection: there is
    // no resynchronization.
    while let Ok(Some(frame)) = frames.read_frame() {
        match frame {
            Frame::Event(event) => shared.route(event),
            other => shared.pipe.push(other),
        }
    }
    shared.close_all();
}

impl RemoteReader {
    /// Connects to a collector query port (`host:port`). Fails fast if the
    /// collector is unreachable; later failures reconnect transparently.
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        let reader = RemoteReader {
            addr: addr.into(),
            conn: Mutex::new(None),
            demux: Mutex::new(None),
            next_sub: AtomicU32::new(1),
        };
        let conn = reader.open()?;
        *reader.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(conn);
        Ok(reader)
    }

    fn open(&self) -> Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
        stream.set_write_timeout(Some(REPLY_TIMEOUT)).ok();
        let source = ReplySource::Direct(FrameReader::new(BufReader::new(stream.try_clone()?)));
        Ok(Conn {
            source,
            writer: stream,
            demux: None,
        })
    }

    /// Sends `request` bytes (one encoded frame) and collects the response
    /// with `read`. A failure drops the connection; on a demuxed connection
    /// it tears the demux down too, closing its subscriptions — they must
    /// not starve silently behind a dead socket. A query then retries once
    /// on a fresh connection. Subscription control is `pinned` to its
    /// demuxed connection and never retried: replayed onto a reconnected
    /// plain socket, it would make the collector push events into a reply
    /// stream with no demux thread to split them out, corrupting every
    /// later query.
    fn exchange<T>(
        &self,
        pinned: Option<&Arc<DemuxShared>>,
        request: &[u8],
        read: impl Fn(&mut ReplySource) -> Result<T>,
    ) -> Result<T> {
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        for attempt in 0..2 {
            if let Some(demux) = pinned {
                let bound = guard.as_ref().and_then(|conn| conn.demux.as_ref());
                if !bound.is_some_and(|bound| Arc::ptr_eq(bound, demux)) {
                    return Err(NetError::Protocol(
                        "subscription connection was replaced mid-request".into(),
                    ));
                }
            }
            if guard.is_none() {
                *guard = Some(self.open()?);
            }
            let conn = guard.as_mut().expect("connection just established");
            let outcome = conn
                .writer
                .write_all(request)
                .map_err(NetError::from)
                .and_then(|()| read(&mut conn.source));
            match outcome {
                Ok(value) => return Ok(value),
                Err(err) => {
                    if let Some(demux) = conn.demux.take() {
                        demux.shutdown();
                    }
                    *guard = None; // drop the stale connection
                    if attempt == 1 || pinned.is_some() {
                        return Err(err);
                    }
                }
            }
        }
        unreachable!("loop returns on success or second failure")
    }

    /// Upgrades the connection to demux mode (idempotent): spawns the demux
    /// thread and switches the synchronous path onto the forwarding pipe.
    fn ensure_demux(&self) -> Result<Arc<DemuxShared>> {
        let mut demux_guard = self.demux.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(demux) = demux_guard.as_ref() {
            if demux.is_alive() {
                return Ok(Arc::clone(demux));
            }
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(REPLY_TIMEOUT)).ok();
        let pipe = Arc::new(FramePipe::default());
        let shared = Arc::new(DemuxShared {
            pipe: Arc::clone(&pipe),
            subs: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
            stream: stream.try_clone()?,
        });
        let read_side = stream.try_clone()?;
        {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hb-net-demux".into())
                .spawn(move || demux_loop(read_side, shared))
                .map_err(|err| NetError::Io(std::io::Error::other(err)))?;
        }
        // Switch the synchronous path onto the demuxed connection — one
        // socket now serves interleaved polls and pushes.
        let mut conn = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        *conn = Some(Conn {
            source: ReplySource::Pipe(pipe),
            writer: stream,
            demux: Some(Arc::clone(&shared)),
        });
        drop(conn);
        *demux_guard = Some(Arc::clone(&shared));
        Ok(shared)
    }

    /// Opens a push subscription: the collector streams matching
    /// [`EventFrame`]s (snapshots, health transitions, raw beats — per
    /// `filter.interests`) over this reader's connection until the
    /// [`Subscription`] is dropped or explicitly
    /// [`unsubscribe`](Subscription::unsubscribe)d. Queries keep working on
    /// the same connection while the subscription is live.
    ///
    /// `pattern` selects applications by glob
    /// ([`glob_match`](crate::wire::glob_match): `*` wildcards).
    pub fn subscribe(
        self: &Arc<Self>,
        pattern: &str,
        filter: &ObserveFilter,
    ) -> Result<Subscription> {
        if !wire::valid_subscribe_pattern(pattern) {
            return Err(NetError::Protocol(format!(
                "invalid subscription pattern {pattern:?}"
            )));
        }
        if filter.interests.is_empty() {
            return Err(NetError::Protocol(
                "subscription filter selects no event classes".into(),
            ));
        }
        let demux = self.ensure_demux()?;
        let sub_id = self.next_sub.fetch_add(1, Ordering::Relaxed); // ordering: sub-id allocation; only atomicity matters
        let shared = Arc::new(SubShared::default());
        demux
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sub_id, Arc::clone(&shared));
        let request = Frame::Subscribe(SubscribeReq {
            sub_id,
            pattern: pattern.to_string(),
            interests: filter.interests.bits(),
            min_interval_ns: filter.min_interval.as_nanos().min(u64::MAX as u128) as u64,
            resume_from: 0,
        })
        .encode();
        let ack = self.exchange(Some(&demux), &request, ReplySource::next_frame);
        let cleanup = |demux: &DemuxShared| {
            demux
                .subs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&sub_id);
        };
        match ack {
            Ok(Frame::SubAck {
                sub_id: acked,
                status,
            }) if acked == sub_id => match status {
                SubStatus::Ok => Ok(Subscription {
                    reader: Arc::clone(self),
                    demux,
                    shared,
                    sub_id,
                    done: false,
                }),
                SubStatus::InvalidFilter => {
                    cleanup(&demux);
                    Err(NetError::Protocol(format!(
                        "collector rejected subscription filter (pattern {pattern:?})"
                    )))
                }
                SubStatus::TooManySubscriptions => {
                    cleanup(&demux);
                    Err(NetError::Unsupported(
                        "collector's per-connection subscription bound reached".into(),
                    ))
                }
            },
            Ok(other) => {
                cleanup(&demux);
                Err(NetError::BadResponse(format!(
                    "expected a subscription ack, got {other:?}"
                )))
            }
            Err(err) => {
                cleanup(&demux);
                Err(err)
            }
        }
    }

    /// One [`Query`] → [`Reply`] round trip: the shared path of every query
    /// method.
    fn query(&self, query: Query) -> Result<Reply> {
        let request = Frame::Query(query).encode();
        self.exchange(None, &request, |source| read_reply(|| source.next_frame()))
    }

    /// Names of all applications the collector knows about.
    pub fn apps(&self) -> Result<Vec<String>> {
        match self.query(Query::List)? {
            Reply::Apps(names) => Ok(names),
            other => Err(unexpected(other)),
        }
    }

    /// Snapshot of one application, or `None` if the collector has never
    /// seen it — including any name the wire rules forbid, which no
    /// collector can know (answered locally instead of sending a frame the
    /// collector would reject).
    pub fn snapshot(&self, app: &str) -> Result<Option<AppSnapshot>> {
        if !wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query(Query::Get { app: app.into() })? {
            Reply::Snapshot(snap) => Ok(Some(snap)),
            Reply::UnknownApp => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// The Prometheus text export.
    pub fn metrics(&self) -> Result<String> {
        match self.query(Query::Metrics)? {
            Reply::Text(text) => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Collector-wide counters (`STATS`): connection, frame and error
    /// totals plus the size of the reactor's I/O thread pool.
    pub fn stats(&self) -> Result<CollectorStats> {
        match self.query(Query::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Round-trip liveness probe of the collector itself.
    pub fn ping(&self) -> Result<()> {
        match self.query(Query::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The collector's retained history for `app`: the most recent `limit`
    /// samples (`0` = all retained), chronological, with the total ever
    /// ingested. `None` if the collector has never seen the application
    /// (wire-invalid names included, as with [`snapshot`](Self::snapshot)).
    pub fn history(&self, app: &str, limit: u32) -> Result<Option<HistoryChunk>> {
        if !wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query(Query::History {
            app: app.into(),
            limit,
        })? {
            Reply::History(chunk) => Ok(Some(chunk)),
            Reply::UnknownApp => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// The collector's windowed health classification of `app`, or `None`
    /// if the collector has never seen the application (wire-invalid names
    /// included, as with [`snapshot`](Self::snapshot)).
    pub fn health(&self, app: &str) -> Result<Option<HealthReport>> {
        if !wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query(Query::Health {
            app: Some(app.into()),
        })? {
            Reply::Health { report, .. } => Ok(Some(report)),
            Reply::UnknownApp => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Narrows this reader to one application as an
    /// [`Observe`] source for control loops (the
    /// blanket `RateSource`/`HealthSource` impls in `control` apply). The
    /// reader is shared; snapshots and subscriptions go over the same
    /// connection.
    pub fn app(self: &Arc<Self>, app: impl Into<String>) -> RemoteApp {
        RemoteApp {
            reader: Arc::clone(self),
            app: app.into(),
        }
    }
}

/// A live push subscription on a collector — the handle returned by
/// [`RemoteReader::subscribe`].
///
/// Events are delivered by the connection's demux thread into a bounded
/// queue this handle drains: [`try_next`](Self::try_next) for non-blocking
/// control loops, [`next_timeout`](Self::next_timeout) with a deadline, or
/// the blocking [`Iterator`] (which ends when the subscription closes —
/// explicit [`unsubscribe`](Self::unsubscribe), connection loss, or drop).
///
/// Dropping the handle unsubscribes best-effort; `unsubscribe` does it
/// synchronously and reports the collector's acknowledgment.
#[derive(Debug)]
pub struct Subscription {
    reader: Arc<RemoteReader>,
    demux: Arc<DemuxShared>,
    shared: Arc<SubShared>,
    sub_id: u32,
    done: bool,
}

impl Subscription {
    /// The connection-scoped subscription id.
    pub fn sub_id(&self) -> u32 {
        self.sub_id
    }

    /// Returns the next delivered event without blocking.
    pub fn try_next(&self) -> Option<EventFrame> {
        self.shared.try_next()
    }

    /// Waits up to `timeout` for the next event.
    pub fn next_timeout(&self, timeout: Duration) -> Option<EventFrame> {
        self.shared.wait_next(timeout)
    }

    /// True once no further event can ever arrive (unsubscribed or the
    /// demuxed connection died) and the queue is drained.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire) // ordering: pairs with the Release in close()
            && self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .events
                .is_empty()
    }

    /// Events shed client-side because this handle fell behind the stream
    /// (the collector's own shedding is visible in its `events_dropped`
    /// counter).
    pub fn lost(&self) -> u64 {
        self.shared.lost.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Observed end-to-end delivery lag: collector enqueue wall clock
    /// ([`EventFrame::sent_at_ns`]) to this process's receive wall clock,
    /// one sample per event received so far. Meaningful to the extent the
    /// two hosts' clocks agree (same host: exact; NTP-synced: tens of
    /// microseconds); skew that would make a lag negative clamps the
    /// sample to zero, and events from collectors that predate stamping
    /// (`sent_at_ns == 0`) record nothing.
    pub fn delivery_lag(&self) -> HistoSnapshot {
        self.shared.lag.snapshot()
    }

    /// Cancels the subscription synchronously: sends the unsubscribe,
    /// waits for the collector's ack, and closes the local queue — after
    /// this returns, no further events are delivered.
    pub fn unsubscribe(mut self) -> Result<()> {
        self.close_now()
    }

    fn close_now(&mut self) -> Result<()> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        // Stop delivery and drop anything undrained first: "unsubscribe →
        // no further events" holds even for events already in flight.
        self.shared.close();
        self.demux
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.sub_id);
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .clear();
        if !self.demux.is_alive() {
            return Ok(()); // the connection died; nothing to tell anyone
        }
        let request = Frame::Unsubscribe {
            sub_id: self.sub_id,
        }
        .encode();
        match self
            .reader
            .exchange(Some(&self.demux), &request, ReplySource::next_frame)?
        {
            Frame::SubAck { .. } => Ok(()),
            other => Err(NetError::BadResponse(format!(
                "expected an unsubscribe ack, got {other:?}"
            ))),
        }
    }
}

impl Iterator for Subscription {
    type Item = EventFrame;

    /// Blocks until the next event; `None` once the subscription closes.
    fn next(&mut self) -> Option<EventFrame> {
        loop {
            if let Some(event) = self.shared.wait_next(Duration::from_millis(250)) {
                return Some(event);
            }
            if self.shared.closed.load(Ordering::Acquire) || self.done { // ordering: pairs with the Release in close()
                return None;
            }
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let _ = self.close_now(); // best effort; the ack may never come
    }
}

/// The error for a reply of the wrong kind.
fn unexpected(reply: Reply) -> NetError {
    NetError::BadResponse(format!("unexpected reply {reply:?}"))
}

/// One application as seen through a collector — an
/// [`Observe`] source for remote control loops.
///
/// Network failures surface as "no data" (`None` snapshots,
/// [`ObservedHealth::NoSignal`]) rather than panics: a controller treats an
/// unreachable collector the same way it treats an application that has not
/// beaten yet.
#[derive(Debug, Clone)]
pub struct RemoteApp {
    reader: Arc<RemoteReader>,
    app: String,
}

impl RemoteApp {
    /// The underlying shared reader.
    pub fn reader(&self) -> &Arc<RemoteReader> {
        &self.reader
    }

    /// Fetches the current snapshot, if the collector knows the app.
    pub fn snapshot(&self) -> Option<AppSnapshot> {
        self.reader.snapshot(&self.app).ok().flatten()
    }

    /// Fetches the collector's windowed health report, if the collector
    /// knows the app.
    pub fn health(&self) -> Option<HealthReport> {
        self.reader.health(&self.app).ok().flatten()
    }
}

/// Maps the collector's wire health classification onto the
/// transport-neutral one (identical levels, stable numeric encodings).
fn observed_status(status: HealthStatus) -> ObservedHealth {
    ObservedHealth::from_u8(status.as_u8()).expect("encodings are aligned")
}

/// Translates one wire event into the transport-neutral observation event.
fn observed_event(event: EventFrame) -> ObserveEvent {
    let kind = match event.payload {
        EventPayload::Snapshot {
            total_beats,
            producer_dropped,
            rate_bps,
            target,
            alive,
        } => ObserveEventKind::Snapshot(ObservedSnapshot {
            total_beats,
            rate_bps,
            target,
            dropped: producer_dropped,
            alive,
        }),
        EventPayload::HealthTransition { from, to, .. } => ObserveEventKind::Health {
            from: observed_status(from),
            to: observed_status(to),
        },
        EventPayload::Beats {
            dropped_total,
            beats,
        } => ObserveEventKind::Beats {
            beats: beats
                .into_iter()
                .map(|beat| ObservedBeat {
                    record: beat.record,
                    scope: beat.scope,
                })
                .collect(),
            dropped_total,
        },
    };
    ObserveEvent {
        app: event.app,
        kind,
    }
}

/// [`EventStream`] adapter over a live [`Subscription`], narrowed to one
/// application.
///
/// The narrowing matters for names containing `*`: application names may
/// legally contain it, but subscription patterns interpret it as a
/// wildcard, so a literal subscription to `cam*` also matches `cam1` on
/// the collector. Filtering here keeps the single-app contract exact.
struct RemoteEventStream {
    sub: Subscription,
    app: String,
}

impl RemoteEventStream {
    fn only_own(&self, event: EventFrame) -> Option<ObserveEvent> {
        (event.app == self.app).then(|| observed_event(event))
    }
}

impl EventStream for RemoteEventStream {
    fn try_next(&mut self) -> Option<ObserveEvent> {
        while let Some(event) = self.sub.try_next() {
            if let Some(event) = self.only_own(event) {
                return Some(event);
            }
        }
        None
    }

    fn wait_next(&mut self, timeout: Duration) -> Option<ObserveEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let event = self.sub.next_timeout(remaining)?;
            if let Some(event) = self.only_own(event) {
                return Some(event);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    fn is_closed(&self) -> bool {
        self.sub.is_closed()
    }
}

impl Observe for RemoteApp {
    fn name(&self) -> &str {
        &self.app
    }

    fn snapshot(&self) -> Option<ObservedSnapshot> {
        RemoteApp::snapshot(self).map(|snap| ObservedSnapshot {
            total_beats: snap.total_beats,
            rate_bps: snap.rate_bps,
            target: snap.target,
            dropped: snap.producer_dropped,
            alive: snap.alive,
        })
    }

    fn health(&self) -> ObservedHealth {
        // An unreachable collector and an unknown application both mean "no
        // trustworthy signal" — exactly what NoSignal tells a guarded
        // control loop to hold on.
        match RemoteApp::health(self).map(|report| report.status) {
            Some(status) => observed_status(status),
            None => ObservedHealth::NoSignal,
        }
    }

    // rate(): the default (snapshot's rate) is correct — the collector
    // tracks the producer-declared window; remote observers cannot
    // re-window retroactively.

    fn can_rewindow(&self) -> bool {
        // Tells generic samplers one snapshot round trip carries the whole
        // coherent (total, rate, target) measurement.
        false
    }

    fn subscribe(
        &self,
        filter: &ObserveFilter,
    ) -> std::result::Result<ObserveStream, ObserveError> {
        // Exact-name pattern: this handle observes one application. The
        // collector originates the events — true push, zero polling.
        let sub = self
            .reader
            .subscribe(&self.app, filter)
            .map_err(|err| match err {
                NetError::Unsupported(msg) => ObserveError::Unsupported(msg),
                other => ObserveError::Transport(other.to_string()),
            })?;
        Ok(ObserveStream::new(Box::new(RemoteEventStream {
            sub,
            app: self.app.clone(),
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameDecoder;
    use std::net::TcpListener;

    /// Runs `check` against a stand-in collector that answers every query
    /// frame with the raw `reply` bytes. The reader's first connection is
    /// served, and so is its retry after a reply it rejects; a final
    /// connection without a query stops the stand-in.
    fn with_canned_collector(reply: Vec<u8>, check: impl FnOnce(&RemoteReader)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                let mut frames = FrameReader::new(stream.try_clone().unwrap());
                let mut answered = false;
                while let Ok(Some(Frame::Query(_))) = frames.read_frame() {
                    if stream.write_all(&reply).is_err() {
                        break;
                    }
                    answered = true;
                }
                if !answered {
                    break;
                }
            }
        });
        let reader = RemoteReader::connect(addr.to_string()).unwrap();
        check(&reader);
        drop(reader);
        drop(TcpStream::connect(addr).unwrap());
        server.join().unwrap();
    }

    fn reply_frames(reply: &Reply) -> Vec<u8> {
        let mut bytes = Vec::new();
        reply.encode_frames(&mut bytes);
        bytes
    }

    /// The body of a reply small enough for one frame.
    fn reply_body(reply: &Reply) -> Vec<u8> {
        let mut decoder = FrameDecoder::new();
        decoder.push(&reply_frames(reply));
        match decoder.next_frame().unwrap() {
            Some(Frame::Reply { more: false, body }) => body,
            other => panic!("expected one reply frame, got {other:?}"),
        }
    }

    fn body_frame(body: Vec<u8>) -> Vec<u8> {
        Frame::Reply { more: false, body }.encode()
    }

    fn sparse_snapshot() -> AppSnapshot {
        AppSnapshot {
            app: "fresh".into(),
            pid: 0,
            window: 2,
            total_beats: 0,
            local_beats: 0,
            rate_bps: None,
            mean_interval_ns: None,
            target: None,
            producer_dropped: 0,
            last_timestamp_ns: None,
            connections: 0,
            alive: false,
        }
    }

    fn sample_stats() -> CollectorStats {
        CollectorStats {
            apps: 3,
            connections: 280,
            frames: 9000,
            protocol_errors: 1,
            io_threads: 2,
            evicted: 5,
            queries: 17,
            subscriptions: 4,
            events: 60,
            events_dropped: 6,
            uptime_s: 12.5,
            cross_shard: 0,
            origins: 2,
            origins_up: 1,
            has_upstream: true,
            upstream_connected: 1,
            upstream_forwarded: 700,
            upstream_dropped: 8,
            upstream_events: 9,
            upstream_reconnects: 10,
            upstream_retransmits: 11,
        }
    }

    #[test]
    fn snapshot_line_with_missing_data() {
        // A snapshot with no rate, interval, target or timestamp yet: every
        // absent field must come back absent, not as zero.
        let snap = sparse_snapshot();
        with_canned_collector(reply_frames(&Reply::Snapshot(snap.clone())), |reader| {
            assert_eq!(reader.snapshot("fresh").unwrap(), Some(snap));
        });
    }

    #[test]
    fn malformed_snapshot_lines_are_rejected() {
        let body = reply_body(&Reply::Snapshot(sparse_snapshot()));
        let mut half_target = body.clone();
        half_target[41..49].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        let mut bad_alive = body.clone();
        bad_alive[78] = 2;
        let mut trailing = body.clone();
        trailing.push(0);
        let truncated = body[..body.len() - 1].to_vec();
        for reply in [
            body_frame(half_target),
            body_frame(bad_alive),
            body_frame(trailing),
            body_frame(truncated),
            body_frame(vec![]),
            reply_frames(&Reply::Stats(sample_stats())),
            Frame::Bye.encode(),
        ] {
            with_canned_collector(reply.clone(), |reader| {
                assert!(reader.snapshot("fresh").is_err(), "reply: {reply:?}");
            });
        }
    }

    #[test]
    fn stats_line_roundtrip() {
        let stats = sample_stats();
        with_canned_collector(reply_frames(&Reply::Stats(stats.clone())), |reader| {
            let remote = reader.stats().unwrap();
            assert_eq!(remote, stats);
            assert_eq!(remote.uptime_s.to_bits(), 12.5f64.to_bits());
        });
    }

    #[test]
    fn malformed_stats_lines_are_rejected() {
        let body = reply_body(&Reply::Stats(sample_stats()));
        let mut bad_upstream_flag = body.clone();
        bad_upstream_flag[161] = 2;
        let mut trailing = body.clone();
        trailing.push(0);
        let truncated = body[..body.len() - 1].to_vec();
        for reply in [
            body_frame(bad_upstream_flag),
            body_frame(trailing),
            body_frame(truncated),
            body_frame(vec![7]),
            reply_frames(&Reply::Snapshot(sparse_snapshot())),
            reply_frames(&Reply::UnknownApp),
        ] {
            with_canned_collector(reply.clone(), |reader| {
                assert!(reader.stats().is_err(), "reply: {reply:?}");
            });
        }
    }

    #[test]
    fn wire_invalid_names_answer_none_locally() {
        // No collector could ever know a wire-invalid name (the decoder
        // rejects it), so the client answers None without a round trip —
        // the listener here never even accepts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let reader = RemoteReader::connect(listener.local_addr().unwrap().to_string()).unwrap();
        for bad in ["two words", "", "quo\"te", "line\nbreak", "a\nGET b"] {
            assert!(reader.snapshot(bad).unwrap().is_none(), "{bad:?}");
            assert!(reader.history(bad, 0).unwrap().is_none(), "{bad:?}");
            assert!(reader.health(bad).unwrap().is_none(), "{bad:?}");
        }
    }

    #[test]
    fn connect_to_dead_port_fails_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(RemoteReader::connect(addr.to_string()).is_err());
    }
}
