//! A sharded event-driven reactor: the engine behind the collector daemon.
//!
//! PR 1's collector spawned one OS thread per producer and per observer
//! connection, which caps a single daemon at a few hundred sockets and makes
//! shutdown a join-everything affair. PR 2 inverted that with a fixed epoll
//! pool; this revision shards the pool so ingest scales with cores:
//!
//! * **Independent shards** — each I/O thread owns its *own* epoll instance,
//!   timer wheel, and connection table; nothing readiness-related is shared
//!   between threads. Shard 0 additionally owns every listener (the
//!   **acceptor**) and distributes accepted connections round-robin via
//!   per-shard handoff queues.
//! * **Wakers** — each shard owns a `ShardWaker`: an `eventfd` in its
//!   epoll set. Every cross-thread handoff of work signals the owning
//!   shard's waker: a connection handoff or migration, a push-subscription
//!   event queued by another shard's ingest, a frame pushed onto a
//!   federation link's outbox, and shutdown. The shard wakes at once and
//!   installs the connection or runs a pump pass, instead of finding the
//!   work when its poll times out. An `armed` flag makes concurrent
//!   signals share one `write`; a signal from the shard's own thread only
//!   sets a thread-local "pump due" flag and makes no syscall.
//! * **One periodic sweep** — the poll timeout bounds neither delivery nor
//!   handoff. It only paces a sweep pass, once per timeout, for work
//!   nothing signals: silence sweeps over health subscriptions and
//!   dead-route collection ([`Handler::on_sweep`]), plus idle eviction.
//! * **Connection re-homing** — a [`Handler`] may report a preferred
//!   [`home_shard`](Handler::home_shard) once it learns who the peer is
//!   (the collector does this at `Hello`, hashing the application name).
//!   The reactor then migrates the whole connection — socket, handler,
//!   pending output — to that shard, so steady-state traffic for one
//!   application is always served by one thread and per-shard state needs
//!   no cross-thread locks.
//! * **Vectored I/O** — reads use `readv` to fill a large scratch buffer in
//!   one syscall, and writes drain the segmented [`OutBuf`] with one
//!   `writev` covering many queued frames (including shared
//!   encode-once event segments) instead of one syscall per frame.
//! * **Per-connection state machines** — the reactor performs all socket
//!   I/O; a [`Handler`] consumes the bytes and appends responses to an
//!   [`OutBuf`] that the reactor drains as the socket allows, toggling
//!   `EPOLLOUT` interest only while bytes are pending.
//! * **Timer wheel** — a per-shard hashed wheel evicts connections that have
//!   been idle longer than the configured timeout.
//!
//! On non-Linux targets (`cfg(not(target_os = "linux"))`) the same loop runs
//! against a degraded poller that treats every registered socket as possibly
//! ready after a short sleep, and vectored calls fall back to the portable
//! `std` equivalents. Linux gets real `epoll`/`readv`/`writev` via the
//! workspace's `libc` shim.

use std::cell::{Cell, OnceCell};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::telemetry::{Level, ReactorThreads, ThreadStats};

thread_local! {
    /// Index of the reactor shard this thread runs, when it is an I/O
    /// thread. Lets shard-partitioned owners (the collector registry,
    /// per-shard telemetry) pick their partition without passing a shard
    /// index through every callback.
    static CURRENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// The waker of the shard this thread runs, when it is an I/O thread.
    static SHARD_WAKER: OnceCell<Arc<ShardWaker>> = const { OnceCell::new() };
    /// Set when this I/O thread queued pump work for its own shard: the
    /// loop runs a pump pass before it parks again.
    static PUMP_DUE: Cell<bool> = const { Cell::new(false) };
}

/// The reactor shard index of the calling thread, or `None` when the caller
/// is not a reactor I/O thread (e.g. an embedded producer or a test).
pub fn current_shard() -> Option<usize> {
    CURRENT_SHARD.with(|cell| cell.get())
}

/// The waker of the calling thread's shard, or `None` off the reactor.
/// Work that a shard's handlers pump (a subscriber queue, a link outbox)
/// records the waker of the shard that created it and signals it on every
/// push.
pub(crate) fn current_waker() -> Option<Arc<ShardWaker>> {
    SHARD_WAKER.with(|cell| cell.get().cloned())
}

/// Wakes one reactor shard out of its poll when another thread hands it
/// work: an `eventfd` registered in the shard's epoll set, plus an `armed`
/// flag so that concurrent signals share one `write`.
///
/// Why no signal is lost: a signaller queues its work first (under that
/// queue's mutex) and then swaps `armed` to true. Only the swap that finds
/// it false writes the eventfd. The woken shard reads the eventfd, then
/// swaps `armed` back to false, then drains its queues. Every operation on
/// `armed` is a read-modify-write, so signals and disarms are totally
/// ordered. A signal ordered before the disarm skipped its write, but its
/// releasing swap is in the release sequence that the disarm's acquire
/// reads from, so the drain that follows sees its work. A signal ordered
/// after the disarm finds `armed` false and writes, so the shard wakes
/// again. The read comes before the disarm so that it can only consume
/// writes whose work the drain will see.
#[derive(Debug)]
pub(crate) struct ShardWaker {
    armed: AtomicBool,
    fd: sys::WakeFd,
}

impl ShardWaker {
    fn new() -> io::Result<ShardWaker> {
        Ok(ShardWaker {
            armed: AtomicBool::new(false),
            fd: sys::WakeFd::new()?,
        })
    }

    /// Signals the shard that work is queued for it. From the shard's own
    /// thread this only marks a pump as due; elsewhere the first signal
    /// since the shard last woke writes the eventfd.
    pub(crate) fn wake(&self) {
        let own = SHARD_WAKER.with(|cell| cell.get().is_some_and(|w| std::ptr::eq(&**w, self)));
        if own {
            PUMP_DUE.with(|due| due.set(true));
            return;
        }
        // ordering: Release publishes the queued work to the disarm's Acquire in reset() (see the type docs)
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.fd.notify();
        }
    }

    /// Consumes a wake: drains the eventfd, then disarms, in that order
    /// (see the type docs).
    fn reset(&self) {
        self.fd.drain();
        self.armed.swap(false, Ordering::AcqRel); // ordering: Acquire pairs with every signaller's Release swap, so the drain after this sees their work
    }
}

/// One segment of queued outbound bytes: either privately owned or a shared
/// reference to an encode-once buffer fanned out to many connections.
enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(vec) => vec,
            Seg::Shared(arc) => arc,
        }
    }
}

/// Segmented outbound buffer drained by the reactor with vectored writes.
///
/// Plain response bytes accumulate in an owned tail (amortized, reusing its
/// capacity across flushes exactly like the old `Vec<u8>` buffer), while
/// [`push_shared`](OutBuf::push_shared) queues an `Arc<[u8]>` segment
/// *without copying it* — the mechanism behind encode-once subscription
/// fan-out: one encoded `Event` frame is referenced by every subscriber's
/// buffer and written to each socket straight from the shared allocation.
/// [`writev`] drains many segments per syscall.
///
/// [`writev`]: https://man7.org/linux/man-pages/man2/writev.2.html
pub struct OutBuf {
    /// Closed segments awaiting flush, oldest first.
    segs: VecDeque<Seg>,
    /// Flushed prefix of `segs.front()`.
    head_at: usize,
    /// Total bytes held by `segs` (including the flushed prefix).
    closed_bytes: usize,
    /// Open owned segment that plain writes append to in place.
    tail: Vec<u8>,
    /// Flushed prefix of `tail`; non-zero only while `segs` is empty.
    tail_at: usize,
}

impl OutBuf {
    /// Creates an empty buffer.
    pub fn new() -> OutBuf {
        OutBuf {
            segs: VecDeque::new(),
            head_at: 0,
            closed_bytes: 0,
            tail: Vec::new(),
            tail_at: 0,
        }
    }

    /// Bytes queued but not yet written to the socket.
    pub fn pending(&self) -> usize {
        self.closed_bytes - self.head_at + self.tail.len() - self.tail_at
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Appends plain bytes (copied into the owned tail).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.tail.extend_from_slice(bytes);
    }

    /// Queues a shared segment by reference — no copy. Interleaving with
    /// plain writes preserves order: the open tail is closed first.
    pub fn push_shared(&mut self, bytes: Arc<[u8]>) {
        if bytes.is_empty() {
            return;
        }
        self.rotate_tail();
        self.closed_bytes += bytes.len();
        self.segs.push_back(Seg::Shared(bytes));
    }

    /// Append-only access to the owned tail, for encoders that write into a
    /// `Vec<u8>` in place. Callers must only append; bytes already present
    /// may have been flushed.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.tail
    }

    /// Closes the open tail into the segment queue so a shared segment can
    /// be queued behind it.
    fn rotate_tail(&mut self) {
        if self.tail.len() > self.tail_at {
            if self.tail_at > 0 {
                self.tail.drain(..self.tail_at);
                self.tail_at = 0;
            }
            let seg = std::mem::take(&mut self.tail);
            self.closed_bytes += seg.len();
            self.segs.push_back(Seg::Owned(seg));
        } else {
            self.tail.clear();
            self.tail_at = 0;
        }
    }

    /// Marks `n` pending bytes as written, oldest first.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            if let Some(front) = self.segs.front() {
                let avail = front.bytes().len() - self.head_at;
                if n >= avail {
                    n -= avail;
                    self.closed_bytes -= front.bytes().len();
                    self.head_at = 0;
                    self.segs.pop_front();
                } else {
                    self.head_at += n;
                    n = 0;
                }
            } else {
                self.tail_at += n.min(self.tail.len() - self.tail_at);
                n = 0;
            }
        }
    }

    /// Drops everything, keeping the tail's capacity for reuse.
    fn reset(&mut self) {
        self.segs.clear();
        self.head_at = 0;
        self.closed_bytes = 0;
        self.tail.clear();
        self.tail_at = 0;
    }

    /// Reclaims the flushed prefix of the tail once it crosses the
    /// compaction threshold (a connection that never fully drains must not
    /// grow its buffer by lifetime traffic).
    fn compact(&mut self) {
        if self.segs.is_empty() && self.tail_at >= OUT_COMPACT_THRESHOLD {
            self.tail.drain(..self.tail_at);
            self.tail_at = 0;
        }
    }

    /// Pending byte ranges in write order, for vectored writes (and for
    /// tests elsewhere in the crate that inspect a handler's output).
    pub(crate) fn iter_slices(&self) -> impl Iterator<Item = &[u8]> {
        let head_at = self.head_at;
        let tail = &self.tail[self.tail_at..]; // hb-lint: allow(index): tail_at <= tail.len(): advanced only by consumed byte counts
        self.segs
            .iter()
            .enumerate()
            .map(move |(i, seg)| {
                let bytes = seg.bytes();
                if i == 0 {
                    &bytes[head_at..] // hb-lint: allow(index): head_at <= first segment len: advanced only by consumed byte counts
                } else {
                    bytes
                }
            })
            .chain(std::iter::once(tail).filter(|slice| !slice.is_empty()))
    }
}

impl Default for OutBuf {
    fn default() -> Self {
        OutBuf::new()
    }
}

impl std::fmt::Debug for OutBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutBuf")
            .field("pending", &self.pending())
            .field("segments", &self.segs.len())
            .finish()
    }
}

impl Write for OutBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A per-connection protocol state machine driven by the reactor.
///
/// The reactor owns the socket and performs all I/O; implementations only
/// transform bytes. Each callback may append response bytes to `out`; the
/// reactor flushes them as socket writability allows.
pub trait Handler: Send {
    /// Called with freshly read bytes. Return `false` to close the
    /// connection once `out` has been flushed.
    ///
    /// `input` may be **empty**: the reactor issues one empty call when a
    /// connection is installed on a shard (fresh accept or migration), so a
    /// handler holding buffered-but-undecoded bytes can finish processing
    /// them on its new home thread.
    fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool;

    /// Called when the peer cleanly closed its end of the stream.
    fn on_eof(&mut self, _out: &mut OutBuf) {}

    /// Called exactly once when the connection is discarded for any reason
    /// (handler-requested close, peer EOF, I/O error, idle eviction,
    /// reactor shutdown).
    fn on_close(&mut self) {}

    /// The shard this connection would like to live on, once known.
    /// Checked after every [`on_data`](Self::on_data); when it names a
    /// different shard (modulo the shard count) the reactor migrates the
    /// connection there. Return `None` (the default) to stay put.
    fn home_shard(&self) -> Option<usize> {
        None
    }

    /// True if this connection wants [`on_pump`](Self::on_pump) callbacks —
    /// the hook push-subscription handlers use to move events that
    /// originated on *other* connections (producer ingest) into this
    /// connection's outbound buffer, from which the normal `EPOLLOUT` path
    /// drains them. Checked after every [`on_data`](Self::on_data), so a
    /// handler may become pumpable mid-life (e.g. when its first
    /// subscription arrives); the connection leaves the pump list on the
    /// first pass that finds it false.
    fn wants_pump(&self) -> bool {
        false
    }

    /// Called on every pump pass of this connection's shard while
    /// [`wants_pump`](Self::wants_pump) is true. A pass runs as soon as the
    /// work it pumps is signalled through the shard's `ShardWaker` —
    /// whoever queues that work must signal it — and once per poll timeout
    /// after [`on_sweep`](Self::on_sweep). `pending_out` is the
    /// connection's current outbound backlog, so a handler can hold off
    /// enqueueing more for a slow consumer. Return `false` to close.
    fn on_pump(&mut self, _out: &mut OutBuf, _pending_out: usize) -> bool {
        true
    }

    /// Called once per poll timeout, just before that pass's
    /// [`on_pump`](Self::on_pump), while the connection is pumpable:
    /// periodic work that no other thread signals, such as silence sweeps
    /// and dead-route collection.
    fn on_sweep(&mut self) {}

    /// True if this connection must never be idle-evicted — e.g. an
    /// observer holding an active push subscription, which is legitimately
    /// silent between events. Consulted when the idle timer fires, so the
    /// exemption follows the subscription's lifetime.
    fn keep_alive(&self) -> bool {
        false
    }
}

/// Creates a fresh [`Handler`] for each accepted connection.
pub type HandlerFactory = Arc<dyn Fn(SocketAddr) -> Box<dyn Handler> + Send + Sync>;

/// One listening socket plus the factory producing handlers for the
/// connections it accepts.
pub struct ListenerSpec {
    /// The bound listener (the reactor switches it to non-blocking mode).
    pub listener: TcpListener,
    /// Handler factory invoked once per accepted connection.
    pub factory: HandlerFactory,
}

impl std::fmt::Debug for ListenerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListenerSpec")
            .field("listener", &self.listener)
            .finish_non_exhaustive()
    }
}

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of I/O shards serving all connections (clamped to >= 1).
    pub io_threads: usize,
    /// Connections idle longer than this are evicted; `Duration::ZERO`
    /// disables idle eviction.
    pub idle_timeout: Duration,
    /// Upper bound on bytes queued toward one peer; a connection whose
    /// outbound buffer exceeds this is dropped as a slow consumer.
    pub max_outbound: usize,
    /// When set, each I/O thread registers its utilization counters
    /// (busy/wait ns, loop iterations, dispatches) here at spawn, in thread
    /// index order. `None` (the default) skips the bookkeeping entirely.
    pub thread_stats: Option<Arc<ReactorThreads>>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            io_threads: 2,
            idle_timeout: Duration::from_secs(60),
            max_outbound: 4 << 20,
            thread_stats: None,
        }
    }
}

/// Number of slots in the idle-eviction timer wheel.
const WHEEL_SLOTS: usize = 64;

/// Period of the sweep pass ([`Handler::on_sweep`] plus a pump over every
/// pumpable connection) and the longest a shard parks in its poll. Handoffs,
/// pushed events and shutdown wake the shard through its [`ShardWaker`], so
/// this bounds only the silence sweeps, dead-route collection and the
/// timer-wheel granularity drift.
const POLL_TIMEOUT: Duration = Duration::from_millis(20);

/// Poller token of each shard's wake eventfd (connection tokens count up
/// from the listener count and never reach it).
const WAKE_TOKEN: u64 = u64::MAX;

/// Bytes read from one connection per readiness event before yielding to
/// others (fairness bound; level-triggered polling re-notifies).
const READ_BUDGET: usize = 256 * 1024;

/// Size of the per-shard scratch read buffer, filled by one scatter-read
/// (`readv`) per loop turn.
const READ_CHUNK: usize = 128 * 1024;

/// Compact a connection's outbound buffer once its flushed prefix crosses
/// this threshold.
const OUT_COMPACT_THRESHOLD: usize = 64 * 1024;

/// Upper bound on segments handed to one `writev` call (well under the
/// kernel's `IOV_MAX` of 1024; level-triggered polling retries the rest).
const MAX_WRITE_IOVECS: usize = 64;

/// A connection in flight between shards: freshly accepted (acceptor →
/// round-robin target) or migrating to its handler's home shard.
struct Injected {
    stream: TcpStream,
    handler: Box<dyn Handler>,
    out: OutBuf,
}

/// What other threads hand one shard: connections in flight toward it,
/// and the waker they signal after queueing one.
struct Inbox {
    handoff: Mutex<Vec<Injected>>,
    waker: Arc<ShardWaker>,
}

impl Inbox {
    /// Queues a connection for this shard and wakes it to install it.
    fn hand_off(&self, injected: Injected) {
        // hb-lint: allow(panic): handoff-queue mutex poisoning implies a prior panic on another shard; propagating it is the only sane response
        self.handoff.lock().unwrap().push(injected);
        self.waker.wake();
    }

    /// Takes every queued connection.
    fn take(&self) -> Vec<Injected> {
        // hb-lint: allow(panic): handoff-queue mutex poisoning implies a prior panic on another shard; propagating it is the only sane response
        std::mem::take(&mut *self.handoff.lock().unwrap())
    }
}

/// Per-shard inboxes, indexed by shard.
type Inboxes = Arc<Vec<Inbox>>;

/// A fixed pool of I/O shards multiplexing listeners and connections.
pub struct Reactor {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    evicted: Arc<AtomicU64>,
    inboxes: Inboxes,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("io_threads", &self.threads.len())
            .field("evicted", &self.evicted.load(Ordering::Relaxed)) // ordering: monitoring read; staleness is acceptable
            .finish()
    }
}

impl Reactor {
    /// Starts `config.io_threads` independent shard loops. Shard 0 owns
    /// `listeners` and hands accepted connections round-robin to the rest.
    ///
    /// `evicted` is shared so the owner (e.g. the collector registry) can
    /// export the idle-eviction counter without reaching into the reactor.
    pub fn spawn(
        listeners: Vec<ListenerSpec>,
        config: ReactorConfig,
        evicted: Arc<AtomicU64>,
    ) -> io::Result<Reactor> {
        let stop = Arc::new(AtomicBool::new(false));
        let io_threads = config.io_threads.max(1);
        for spec in &listeners {
            spec.listener.set_nonblocking(true)?;
        }
        let mut acceptor_listeners: Vec<(TcpListener, HandlerFactory)> = listeners
            .into_iter()
            .map(|spec| (spec.listener, spec.factory))
            .collect();
        let inboxes: Inboxes = Arc::new(
            (0..io_threads)
                .map(|_| {
                    Ok(Inbox {
                        handoff: Mutex::new(Vec::new()),
                        waker: Arc::new(ShardWaker::new()?),
                    })
                })
                .collect::<io::Result<_>>()?,
        );

        let mut threads = Vec::with_capacity(io_threads);
        for index in 0..io_threads {
            let spawned = (|| {
                // Only the acceptor shard registers listeners; everyone else
                // receives connections through its handoff queue.
                let own = if index == 0 {
                    std::mem::take(&mut acceptor_listeners)
                } else {
                    Vec::new()
                };
                // Registration order matches spawn order, so stats index N
                // is always thread `hb-reactor-N`.
                let stats = config.thread_stats.as_ref().map(|threads| threads.register());
                let io_thread = IoThread::build(
                    index,
                    Arc::clone(&inboxes),
                    own,
                    config.clone(),
                    Arc::clone(&stop),
                    Arc::clone(&evicted),
                    stats,
                )?;
                std::thread::Builder::new()
                    .name(format!("hb-reactor-{index}"))
                    .spawn(move || {
                        CURRENT_SHARD.with(|cell| cell.set(Some(index)));
                        SHARD_WAKER.with(|cell| {
                            let _ = cell.set(Arc::clone(&io_thread.waker));
                        });
                        io_thread.run()
                    })
                    .map_err(io::Error::other)
            })();
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(err) => {
                    // Don't leak the threads already running: stop and join
                    // them before reporting the failure.
                    stop.store(true, Ordering::SeqCst); // ordering: shutdown flag; SeqCst keeps the rare path simple
                    for handle in threads {
                        let _ = handle.join();
                    }
                    return Err(err);
                }
            }
        }
        Ok(Reactor {
            stop,
            threads,
            evicted,
            inboxes,
        })
    }

    /// Number of I/O shards actually serving connections.
    pub fn io_threads(&self) -> usize {
        self.threads.len()
    }

    /// Connections evicted by the idle timer so far.
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Signals all I/O shards to stop and joins them. The thread count is
    /// fixed, so this never races connection churn (unlike joining
    /// per-connection threads).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst); // ordering: shutdown flag; SeqCst keeps the rare path simple
        for inbox in self.inboxes.iter() {
            inbox.waker.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // A migration can land in a handoff queue after its target shard
        // drained for the last time; fire the close callbacks now that all
        // threads are joined.
        for inbox in self.inboxes.iter() {
            for mut injected in inbox.take() {
                injected.handler.on_close();
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// State of one multiplexed connection.
struct Conn {
    stream: TcpStream,
    handler: Box<dyn Handler>,
    /// Bytes queued toward the peer.
    out: OutBuf,
    /// Registered interest: (readable, writable). Read interest is dropped
    /// once the connection is closing — level-triggered `EPOLLIN` on a
    /// half-closed peer would otherwise spin the loop until the output
    /// drains.
    interest: (bool, bool),
    /// Close once the outbound buffer drains.
    closing: bool,
    /// Whether the connection is on its shard's pump list.
    pumped: bool,
    last_active: Instant,
}

/// One I/O shard: an epoll instance plus the connections it owns.
struct IoThread {
    shard: usize,
    inboxes: Inboxes,
    /// This shard's waker (also in `inboxes`), registered in `poller`.
    waker: Arc<ShardWaker>,
    /// Round-robin cursor for distributing accepted connections (acceptor
    /// shard only).
    next_rr: usize,
    poller: sys::Poller,
    listeners: Vec<(TcpListener, HandlerFactory)>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    wheel: TimerWheel,
    config: ReactorConfig,
    stop: Arc<AtomicBool>,
    evicted: Arc<AtomicU64>,
    scratch: Vec<u8>,
    /// Tokens of the connections whose handler wants pump passes, so a
    /// wake-driven pass never scans the whole connection table.
    pumpable: Vec<u64>,
    /// This thread's utilization counters, when the owner asked for them.
    stats: Option<Arc<ThreadStats>>,
}

impl IoThread {
    /// Creates the poller and registers the wake eventfd and the listeners
    /// up front, so fd exhaustion (or any epoll failure) surfaces as a
    /// `Reactor::spawn` error instead of a panic inside an already-running
    /// I/O thread.
    fn build(
        shard: usize,
        inboxes: Inboxes,
        listeners: Vec<(TcpListener, HandlerFactory)>,
        config: ReactorConfig,
        stop: Arc<AtomicBool>,
        evicted: Arc<AtomicU64>,
        stats: Option<Arc<ThreadStats>>,
    ) -> io::Result<Self> {
        let wheel_tick = if config.idle_timeout.is_zero() {
            Duration::from_secs(3600)
        } else {
            (config.idle_timeout / WHEEL_SLOTS as u32).max(Duration::from_millis(1))
        };
        let waker = inboxes
            .get(shard)
            .map(|inbox| Arc::clone(&inbox.waker))
            .ok_or_else(|| io::Error::other("reactor shard index out of range"))?;
        let poller = sys::Poller::new()?;
        poller.register(waker.fd.raw(), WAKE_TOKEN, true, false)?;
        for (index, (listener, _)) in listeners.iter().enumerate() {
            poller.register(sys::raw_fd(listener), index as u64, true, false)?;
        }
        let next_token = listeners.len() as u64;
        Ok(IoThread {
            shard,
            inboxes,
            waker,
            next_rr: 0,
            poller,
            listeners,
            conns: HashMap::new(),
            next_token,
            wheel: TimerWheel::new(WHEEL_SLOTS, wheel_tick),
            config,
            stop,
            evicted,
            scratch: vec![0u8; READ_CHUNK],
            pumpable: Vec::new(),
            stats,
        })
    }

    fn run(mut self) {
        let listener_count = self.listeners.len() as u64;
        let mut events = Vec::with_capacity(128);
        let mut next_sweep = Instant::now() + POLL_TIMEOUT;
        let mut timeout = POLL_TIMEOUT;
        while !self.stop.load(Ordering::SeqCst) { // ordering: shutdown flag; SeqCst keeps the rare path simple
            events.clear();
            // Three clock reads per iteration split the loop into a parked
            // span (inside the poller) and a busy span (everything else) —
            // at most once per POLL_TIMEOUT when idle.
            let parked_at = self.stats.as_ref().map(|_| Instant::now());
            let due = PUMP_DUE.with(|due| due.get());
            let wait_result = self
                .poller
                .wait(&mut events, if due { Duration::ZERO } else { timeout });
            let busy_at = match (&self.stats, parked_at) {
                (Some(stats), Some(parked_at)) => {
                    let now = Instant::now();
                    stats.add_wait(now.duration_since(parked_at));
                    Some(now)
                }
                _ => None,
            };
            if let Err(err) = wait_result {
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                break; // poller broken; bail out rather than spin
            }
            let woken = events.iter().any(|event| event.token == WAKE_TOKEN);
            if woken {
                self.waker.reset();
                self.drain_handoff();
            }
            for event in &events {
                if event.token == WAKE_TOKEN {
                    continue;
                } else if event.token < listener_count {
                    self.accept_all(event.token as usize);
                } else {
                    self.drive(event.token, event.readable, event.writable);
                }
            }
            let now = Instant::now();
            let sweep = now >= next_sweep;
            if sweep {
                next_sweep = now + POLL_TIMEOUT;
            }
            let due = PUMP_DUE.with(|due| due.replace(false));
            if woken || due || sweep {
                self.pump(sweep);
            }
            self.evict_idle(now);
            timeout = next_sweep.saturating_duration_since(now);
            if let (Some(stats), Some(busy_at)) = (&self.stats, busy_at) {
                stats.add_busy(busy_at.elapsed());
                stats.add_loop(events.len() - usize::from(woken));
            }
        }

        // Orderly teardown: every live connection gets its close callback,
        // including connections still parked in this shard's handoff queue.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
        for mut injected in self.inbox().take() {
            injected.handler.on_close();
        }
    }

    /// This shard's own inbox.
    fn inbox(&self) -> &Inbox {
        &self.inboxes[self.shard] // hb-lint: allow(index): shard < inboxes.len(): checked in build, one inbox per shard
    }

    /// Installs connections other shards handed to this one (fresh accepts
    /// from the acceptor, migrations toward their home shard).
    fn drain_handoff(&mut self) {
        for conn in self.inbox().take() {
            self.install(conn);
        }
    }

    /// Registers a handed-off connection with this shard's poller and gives
    /// the handler one empty `on_data` call to finish processing any bytes
    /// it buffered before the move.
    fn install(&mut self, injected: Injected) {
        let Injected {
            stream,
            mut handler,
            out,
        } = injected;
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(sys::raw_fd(&stream), token, true, false)
            .is_err()
        {
            handler.on_close();
            return; // fd table full or similar; drop the socket
        }
        let mut conn = Conn {
            stream,
            handler,
            out,
            interest: (true, false),
            closing: false,
            pumped: false,
            last_active: Instant::now(),
        };
        if !conn.handler.on_data(&[], &mut conn.out) {
            conn.closing = true;
        }
        Self::enlist_pumpable(&mut self.pumpable, token, &mut conn);
        self.conns.insert(token, conn);
        if !self.config.idle_timeout.is_zero() {
            self.wheel.insert(token);
        }
        self.flush_conn(token);
    }

    /// Puts a connection on the pump list once its handler asks for pump
    /// passes (checked after every `on_data`).
    fn enlist_pumpable(pumpable: &mut Vec<u64>, token: u64, conn: &mut Conn) {
        if !conn.pumped && !conn.closing && conn.handler.wants_pump() {
            conn.pumped = true;
            pumpable.push(token);
        }
    }

    /// Drains the accept queue of listener `index` (level-triggered polling
    /// re-notifies if more arrive while we work), distributing connections
    /// round-robin across all shards.
    fn accept_all(&mut self, index: usize) {
        loop {
            let Some((listener, factory)) = self.listeners.get(index) else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if sys::set_nonblocking(&stream).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let injected = Injected {
                        stream,
                        handler: factory(peer),
                        out: OutBuf::new(),
                    };
                    let target = self.next_rr % self.inboxes.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    match self.inboxes.get(target) {
                        Some(inbox) if target != self.shard => inbox.hand_off(injected),
                        _ => self.install(injected),
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Advances one connection's state machine for a readiness event.
    fn drive(&mut self, token: u64, readable: bool, _writable: bool) {
        let mut dead = false;
        let mut migrate: Option<usize> = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // already closed this iteration
            };
            if readable && !conn.closing {
                conn.last_active = Instant::now();
                let mut budget = READ_BUDGET;
                loop {
                    match sys::read_scattered(&conn.stream, &mut self.scratch) {
                        Ok(0) => {
                            conn.handler.on_eof(&mut conn.out);
                            conn.closing = true;
                            break;
                        }
                        Ok(n) => {
                            if !conn.handler.on_data(&self.scratch[..n], &mut conn.out) { // hb-lint: allow(index): read() never returns more than scratch.len()
                                conn.closing = true;
                                break;
                            }
                            if let Some(home) = conn.handler.home_shard() {
                                let target = home % self.inboxes.len();
                                if target != self.shard {
                                    migrate = Some(target);
                                    break;
                                }
                            }
                            budget = budget.saturating_sub(n);
                            if budget == 0 {
                                break; // fairness: let other connections run
                            }
                            if n < self.scratch.len() {
                                break; // socket drained; skip the WouldBlock read
                            }
                        }
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                        Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                Self::enlist_pumpable(&mut self.pumpable, token, conn);
            }
        }
        if dead {
            self.close(token);
        } else if let Some(target) = migrate {
            self.migrate(token, target);
        } else {
            // Flush opportunistically whether or not EPOLLOUT fired.
            self.flush_conn(token);
        }
    }

    /// Moves a connection — socket, handler, pending output — to its home
    /// shard's handoff queue and wakes that shard. The timer-wheel and
    /// pump-list tokens lapse on their own; no close callback fires,
    /// because the connection lives on.
    fn migrate(&mut self, token: u64, target: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(sys::raw_fd(&conn.stream));
            let injected = Injected {
                stream: conn.stream,
                handler: conn.handler,
                out: conn.out,
            };
            self.inboxes[target].hand_off(injected); // hb-lint: allow(index): target < inboxes.len(): reduced modulo the shard count in drive()
        }
    }

    /// Writes as much pending output as the socket accepts — one vectored
    /// write covering many segments per attempt — and closes the connection
    /// on error, completion-of-close, or slow-consumer overflow.
    fn flush_conn(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.out.pending() > 0 {
                match sys::write_gathered(&conn.stream, conn.out.iter_slices()) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out.consume(n);
                        conn.last_active = Instant::now();
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                if conn.out.pending() == 0 {
                    conn.out.reset();
                    if conn.closing {
                        dead = true;
                    }
                } else if conn.out.pending() > self.config.max_outbound {
                    dead = true; // slow consumer
                } else {
                    conn.out.compact();
                }
                if !dead {
                    let desired = (!conn.closing, conn.out.pending() > 0);
                    if desired != conn.interest {
                        conn.interest = desired;
                        let fd = sys::raw_fd(&conn.stream);
                        let _ = self.poller.modify(fd, token, desired.0, desired.1);
                    }
                }
            }
        }
        if dead {
            self.close(token);
        }
    }

    /// Gives every connection on the pump list a chance to move externally
    /// produced bytes (push-subscription events, link frames) into its
    /// outbound buffer, then flushes. Runs when the shard is woken or its
    /// own thread queued pump work, and on every sweep, which first calls
    /// each handler's `on_sweep`. Connections that closed, migrated or
    /// stopped wanting pumps leave the list here.
    fn pump(&mut self, sweep: bool) {
        let mut tokens = std::mem::take(&mut self.pumpable);
        tokens.retain(|&token| {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false; // closed or migrated since it was listed
            };
            if conn.closing || !conn.handler.wants_pump() {
                conn.pumped = false;
                return false;
            }
            if sweep {
                conn.handler.on_sweep();
            }
            let pending = conn.out.pending();
            if !conn.handler.on_pump(&mut conn.out, pending) {
                conn.closing = true;
            }
            // Touch the timer wheel only on actual delivery: a static
            // backlog toward a stuck peer must still idle out once the
            // keep-alive exemption lapses.
            if conn.out.pending() > pending {
                conn.last_active = Instant::now();
            }
            self.flush_conn(token);
            true
        });
        // Nothing in a pass lists new connections (only `on_data` does).
        self.pumpable = tokens;
    }

    /// Removes a connection, deregistering it and firing `on_close` once.
    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(sys::raw_fd(&conn.stream));
            conn.handler.on_close();
        }
    }

    /// Advances the timer wheel and evicts connections idle past the
    /// timeout. Active connections found in a fired slot are re-armed.
    fn evict_idle(&mut self, now: Instant) {
        if self.config.idle_timeout.is_zero() {
            return;
        }
        let idle_timeout = self.config.idle_timeout;
        let mut evict = Vec::new();
        self.wheel.advance(now, |token, wheel| {
            let Some(conn) = self.conns.get(&token) else {
                return; // connection already gone; let the timer lapse
            };
            let idle = now.duration_since(conn.last_active);
            if conn.handler.keep_alive() {
                // An active push subscription is legitimately silent between
                // events — exempt it while the subscription lives, but keep
                // it on the wheel so eviction resumes when it lapses.
                wheel.insert_after(token, idle_timeout);
            } else if idle >= idle_timeout {
                evict.push(token);
            } else {
                wheel.insert_after(token, idle_timeout - idle);
            }
        });
        for token in evict {
            let peer = self
                .conns
                .get(&token)
                .and_then(|conn| conn.stream.peer_addr().ok());
            self.close(token);
            self.evicted.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            match peer {
                Some(peer) => crate::log!(
                    Level::Warn,
                    "evicted idle connection peer={peer} after {:?}",
                    idle_timeout
                ),
                None => crate::log!(Level::Warn, "evicted idle connection"),
            }
        }
    }
}

/// A hashed timer wheel tracking connection idle deadlines at coarse
/// granularity.
///
/// Each slot holds the tokens whose deadline falls in that tick. Insertions
/// go `slots - 1` ticks ahead (≈ the idle timeout); when a slot fires, its
/// tokens are handed to the callback, which either lets them lapse (evict /
/// already gone) or re-arms them further along the wheel. O(1) insert, O(1)
/// amortized advance, no per-connection timers.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    current: usize,
    tick: Duration,
    last_advance: Instant,
}

/// Re-arm view handed to the advance callback (borrowing rules prevent
/// handing out `&mut TimerWheel` while a slot is being drained).
struct WheelRearm<'w> {
    slots: &'w mut [Vec<u64>],
    current: usize,
    tick: Duration,
}

impl WheelRearm<'_> {
    /// Re-inserts a token to fire after roughly `delay`.
    fn insert_after(&mut self, token: u64, delay: Duration) {
        let ticks = (delay.as_nanos() / self.tick.as_nanos().max(1)) as usize;
        let ahead = ticks.clamp(1, self.slots.len() - 1);
        let slot = (self.current + ahead) % self.slots.len();
        self.slots[slot].push(token); // hb-lint: allow(index): slot was reduced modulo slots.len()
    }
}

impl TimerWheel {
    fn new(slots: usize, tick: Duration) -> Self {
        TimerWheel {
            slots: (0..slots.max(2)).map(|_| Vec::new()).collect(),
            current: 0,
            tick,
            last_advance: Instant::now(),
        }
    }

    /// Arms a new token to fire one full rotation from now.
    fn insert(&mut self, token: u64) {
        let slots = self.slots.len();
        self.slots[(self.current + slots - 1) % slots].push(token); // hb-lint: allow(index): index was reduced modulo slots.len()
    }

    /// Fires every slot whose tick has elapsed since the last advance.
    fn advance(&mut self, now: Instant, mut callback: impl FnMut(u64, &mut WheelRearm<'_>)) {
        // After a long stall (suspend, debugger) don't replay every missed
        // tick — two rotations visit every slot at least twice.
        let max_lag = self.tick * (2 * self.slots.len() as u32);
        if now.duration_since(self.last_advance) > max_lag {
            self.last_advance = now - max_lag;
        }
        while now.duration_since(self.last_advance) >= self.tick {
            self.last_advance += self.tick;
            self.current = (self.current + 1) % self.slots.len();
            let fired = std::mem::take(&mut self.slots[self.current]); // hb-lint: allow(index): current was reduced modulo slots.len()
            let current = self.current;
            let tick = self.tick;
            let mut rearm = WheelRearm {
                slots: &mut self.slots,
                current,
                tick,
            };
            for token in fired {
                callback(token, &mut rearm);
            }
        }
    }
}

/// Linux poller: real `epoll` plus vectored `readv`/`writev` through the
/// workspace `libc` shim.
#[cfg(target_os = "linux")]
mod sys {
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::time::Duration;

    use super::MAX_WRITE_IOVECS;

    /// One readiness notification.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        pub token: u64,
        pub readable: bool,
        pub writable: bool,
    }

    /// An `epoll` instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = 0;
        if readable {
            // RDHUP rides with read interest: on a half-closed peer it is
            // level-triggered and would spin a write-only connection.
            bits |= libc::EPOLLIN | libc::EPOLLRDHUP;
        }
        if writable {
            bits |= libc::EPOLLOUT;
        }
        bits
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            let mut event = libc::epoll_event {
                events: interest_bits(readable, writable),
                u64: token,
            };
            let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(libc::EPOLL_CTL_ADD, fd, token, readable, writable)
        }

        pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(libc::EPOLL_CTL_MOD, fd, token, readable, writable)
        }

        pub fn deregister(&self, fd: i32) -> io::Result<()> {
            let rc = unsafe {
                libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut())
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut buf = [libc::epoll_event::default(); 128];
            let n = unsafe {
                libc::epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    // Round up: a sub-millisecond wait must not become a
                    // zero-timeout spin until the deadline.
                    timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            for raw in buf.iter().take(n as usize) {
                // Copy out of the packed struct before touching the fields.
                let (bits, token) = ({ raw.events }, { raw.u64 });
                events.push(Event {
                    token,
                    readable: bits
                        & (libc::EPOLLIN | libc::EPOLLHUP | libc::EPOLLRDHUP | libc::EPOLLERR)
                        != 0,
                    writable: bits & (libc::EPOLLOUT | libc::EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                libc::close(self.epfd);
            }
        }
    }

    /// A shard's wake `eventfd` (non-blocking, so neither side ever
    /// stalls on it).
    #[derive(Debug)]
    pub struct WakeFd(File);

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            let fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: eventfd just returned this fd and nothing else owns it.
            Ok(WakeFd(unsafe { File::from_raw_fd(fd) }))
        }

        pub fn raw(&self) -> i32 {
            self.0.as_raw_fd()
        }

        /// Makes the fd readable. The only possible failure is a counter
        /// at its maximum, which is readable already.
        pub fn notify(&self) {
            let _ = (&self.0).write(&1u64.to_ne_bytes());
        }

        /// Zeroes the counter so the fd stops polling readable.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            let _ = (&self.0).read(&mut buf);
        }
    }

    /// Raw fd of any socket-like object.
    pub fn raw_fd(socket: &impl AsRawFd) -> i32 {
        socket.as_raw_fd()
    }

    /// Switches a stream to non-blocking mode via `fcntl(O_NONBLOCK)`.
    pub fn set_nonblocking(stream: &TcpStream) -> io::Result<()> {
        let fd = stream.as_raw_fd();
        let flags = unsafe { libc::fcntl(fd, libc::F_GETFL, 0) };
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if unsafe { libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    // hb-lint: hot-path — per-readiness syscall wrappers; iovec arrays live
    // on the stack so no poll cycle ever touches the allocator.
    /// One scatter-read (`readv`) filling `scratch` through two iovecs —
    /// a single syscall can deliver the whole buffer.
    pub fn read_scattered(stream: &TcpStream, scratch: &mut [u8]) -> io::Result<usize> {
        let fd = stream.as_raw_fd();
        let split = scratch.len() / 2;
        let (lo, hi) = scratch.split_at_mut(split);
        let iov = [
            libc::iovec {
                iov_base: lo.as_mut_ptr() as *mut libc::c_void,
                iov_len: lo.len(),
            },
            libc::iovec {
                iov_base: hi.as_mut_ptr() as *mut libc::c_void,
                iov_len: hi.len(),
            },
        ];
        let n = unsafe { libc::readv(fd, iov.as_ptr(), 2) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// One gather-write (`writev`) draining up to [`MAX_WRITE_IOVECS`]
    /// buffer segments with a single syscall.
    pub fn write_gathered<'a>(
        stream: &TcpStream,
        slices: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        let fd = stream.as_raw_fd();
        let mut iov = [libc::iovec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        }; MAX_WRITE_IOVECS];
        let mut count = 0;
        for slice in slices {
            if count == iov.len() {
                break;
            }
            iov[count] = libc::iovec { // hb-lint: allow(index): count == iov.len() breaks the loop just above
                iov_base: slice.as_ptr() as *mut libc::c_void,
                iov_len: slice.len(),
            };
            count += 1;
        }
        if count == 0 {
            return Ok(0);
        }
        let n = unsafe { libc::writev(fd, iov.as_ptr(), count as i32) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
    // hb-lint: end-hot-path
}

/// Degraded fallback poller for targets without `epoll`: after a short
/// sleep, every registered descriptor is reported as possibly readable (and
/// writable if write interest is set). Sockets are non-blocking, so spurious
/// readiness costs one `WouldBlock` per socket per tick. Vectored I/O falls
/// back to the portable `std` equivalents.
#[cfg(not(target_os = "linux"))]
mod sys {
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use super::MAX_WRITE_IOVECS;

    /// One readiness notification.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        pub token: u64,
        pub readable: bool,
        pub writable: bool,
    }

    /// Registration table standing in for an epoll instance.
    #[derive(Debug, Default)]
    pub struct Poller {
        registered: std::cell::RefCell<HashMap<i32, (u64, bool, bool)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        pub fn register(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.registered.borrow_mut().insert(fd, (token, readable, writable));
            Ok(())
        }

        pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.register(fd, token, readable, writable)
        }

        pub fn deregister(&self, fd: i32) -> io::Result<()> {
            self.registered.borrow_mut().remove(&fd);
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            std::thread::sleep(timeout.min(Duration::from_millis(2)));
            for (&_fd, &(token, readable, writable)) in self.registered.borrow().iter() {
                events.push(Event {
                    token,
                    readable,
                    writable,
                });
            }
            Ok(())
        }
    }

    /// Wake surrogate: the fallback poller reports every registration after
    /// each short sleep, so a shard notices its wake flag within one tick
    /// without any descriptor.
    #[derive(Debug)]
    pub struct WakeFd;

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            Ok(WakeFd)
        }

        pub fn raw(&self) -> i32 {
            -1
        }

        pub fn notify(&self) {}

        pub fn drain(&self) {}
    }

    /// Raw fd surrogate: fallback registrations are keyed per socket object.
    pub fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
        socket.as_raw_fd()
    }

    /// Switches a stream to non-blocking mode (std portable path).
    pub fn set_nonblocking(stream: &TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)
    }

    /// Portable stand-in for `readv`: one plain read into `scratch`.
    pub fn read_scattered(stream: &TcpStream, scratch: &mut [u8]) -> io::Result<usize> {
        (&mut &*stream).read(scratch)
    }

    /// Portable stand-in for `writev`: `std`'s vectored write.
    pub fn write_gathered<'a>(
        stream: &TcpStream,
        slices: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        let bufs: Vec<io::IoSlice<'_>> = slices
            .take(MAX_WRITE_IOVECS)
            .map(io::IoSlice::new)
            .collect();
        if bufs.is_empty() {
            return Ok(0);
        }
        (&mut &*stream).write_vectored(&bufs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::Mutex;

    /// Echo handler recording lifecycle callbacks.
    struct Echo {
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Handler for Echo {
        fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
            out.extend_from_slice(input);
            // A line containing "quit" asks for a handler-initiated close.
            !input.windows(4).any(|w| w == b"quit")
        }

        fn on_eof(&mut self, _out: &mut OutBuf) {
            self.log.lock().unwrap().push("eof".into());
        }

        fn on_close(&mut self) {
            self.log.lock().unwrap().push("close".into());
        }
    }

    fn echo_reactor(config: ReactorConfig) -> (Reactor, SocketAddr, Arc<Mutex<Vec<String>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let factory_log = Arc::clone(&log);
        let spec = ListenerSpec {
            listener,
            factory: Arc::new(move |_| {
                Box::new(Echo {
                    log: Arc::clone(&factory_log),
                }) as Box<dyn Handler>
            }),
        };
        let reactor =
            Reactor::spawn(vec![spec], config, Arc::new(AtomicU64::new(0))).unwrap();
        (reactor, addr, log)
    }

    #[test]
    fn out_buf_orders_owned_and_shared_segments() {
        let mut out = OutBuf::new();
        out.extend_from_slice(b"aa");
        out.push_shared(Arc::from(&b"SHARED"[..]));
        out.extend_from_slice(b"zz");
        assert_eq!(out.pending(), 10);
        let flat: Vec<u8> = out.iter_slices().flatten().copied().collect();
        assert_eq!(flat, b"aaSHAREDzz");

        // Partial consumption crosses segment boundaries correctly.
        out.consume(4);
        let flat: Vec<u8> = out.iter_slices().flatten().copied().collect();
        assert_eq!(flat, b"AREDzz");
        assert_eq!(out.pending(), 6);
        out.consume(6);
        assert!(out.is_empty());
    }

    #[test]
    fn out_buf_shares_segments_without_copying() {
        let payload: Arc<[u8]> = Arc::from(&b"encode-once"[..]);
        let mut queues: Vec<OutBuf> = (0..8).map(|_| OutBuf::new()).collect();
        for out in &mut queues {
            out.push_shared(Arc::clone(&payload));
        }
        // 8 queues + the original: references, not copies.
        assert_eq!(Arc::strong_count(&payload), 9);
        for out in &mut queues {
            assert_eq!(out.pending(), payload.len());
            out.consume(payload.len());
            out.reset();
        }
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn out_buf_write_impl_appends_to_tail() {
        let mut out = OutBuf::new();
        write!(out, "STATS apps={}", 3).unwrap();
        assert_eq!(out.pending(), 12);
        let flat: Vec<u8> = out.iter_slices().flatten().copied().collect();
        assert_eq!(flat, b"STATS apps=3");
    }

    #[test]
    fn echoes_bytes_back() {
        let (_reactor, addr, _log) = echo_reactor(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"heartbeat").unwrap();
        let mut buf = [0u8; 9];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"heartbeat");
    }

    #[test]
    fn thread_stats_track_wait_busy_and_dispatches() {
        let threads = Arc::new(ReactorThreads::new());
        let (_reactor, addr, _log) = echo_reactor(ReactorConfig {
            io_threads: 2,
            thread_stats: Some(Arc::clone(&threads)),
            ..ReactorConfig::default()
        });
        assert_eq!(threads.snapshot().len(), 2, "one entry per I/O thread");
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"tick").unwrap();
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snaps = threads.snapshot();
            let total_loops: u64 = snaps.iter().map(|s| s.loops).sum();
            let total_dispatches: u64 = snaps.iter().map(|s| s.dispatches).sum();
            let waited: u64 = snaps.iter().map(|s| s.wait_ns).sum();
            if total_loops > 0 && total_dispatches > 0 && waited > 0 {
                for snap in &snaps {
                    let u = snap.utilization();
                    assert!((0.0..=1.0).contains(&u), "utilization out of range: {u}");
                }
                break;
            }
            assert!(Instant::now() < deadline, "thread stats never advanced");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn handler_requested_close_closes_after_flush() {
        let (_reactor, addr, log) = echo_reactor(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"quit").unwrap();
        // The response still arrives, then the peer closes.
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"quit");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if log.lock().unwrap().iter().any(|e| e == "close") {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("on_close never fired");
    }

    #[test]
    fn peer_eof_fires_eof_then_close() {
        let (_reactor, addr, log) = echo_reactor(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"bye").unwrap();
        // Drain the echo before dropping: closing with the reply still
        // unsent would race the reactor's write into an RST, which is a
        // connection *error* (close without eof), not the clean FIN this
        // test pins.
        let mut buf = [0u8; 3];
        stream.read_exact(&mut buf).unwrap();
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let log = log.lock().unwrap();
                if log.contains(&"close".to_string()) {
                    assert!(log.contains(&"eof".to_string()), "eof precedes close: {log:?}");
                    break;
                }
            }
            assert!(Instant::now() < deadline, "close never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn idle_connections_are_evicted() {
        let (reactor, addr, log) = echo_reactor(ReactorConfig {
            idle_timeout: Duration::from_millis(200),
            ..ReactorConfig::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.evicted_total() == 0 {
            assert!(Instant::now() < deadline, "idle eviction never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(log.lock().unwrap().contains(&"close".to_string()));
        drop(stream);
    }

    #[test]
    fn active_connections_survive_the_idle_wheel() {
        let (reactor, addr, _log) = echo_reactor(ReactorConfig {
            idle_timeout: Duration::from_millis(300),
            ..ReactorConfig::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Keep talking for several multiples of the idle timeout.
        let until = Instant::now() + Duration::from_millis(1200);
        let mut buf = [0u8; 1];
        while Instant::now() < until {
            stream.write_all(b"x").unwrap();
            stream.read_exact(&mut buf).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(reactor.evicted_total(), 0, "active connection was evicted");
    }

    #[test]
    fn shutdown_closes_live_connections() {
        let (mut reactor, addr, log) = echo_reactor(ReactorConfig::default());
        let _streams: Vec<TcpStream> =
            (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Give the reactor a moment to accept them all.
        let deadline = Instant::now() + Duration::from_secs(5);
        std::thread::sleep(Duration::from_millis(100));
        reactor.shutdown();
        while log.lock().unwrap().iter().filter(|e| *e == "close").count() < 8 {
            assert!(
                Instant::now() < deadline,
                "shutdown must close every accepted connection: {:?}",
                log.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn io_thread_count_is_fixed_and_configurable() {
        let (reactor, addr, _log) = echo_reactor(ReactorConfig {
            io_threads: 3,
            ..ReactorConfig::default()
        });
        assert_eq!(reactor.io_threads(), 3);
        // Connection churn does not change the thread count.
        for _ in 0..32 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"ping").unwrap();
        }
        assert_eq!(reactor.io_threads(), 3);
    }

    /// Echo handler that records which shard served each non-empty chunk
    /// and, once primed, asks to live on a fixed home shard.
    struct ShardProbe {
        served_by: Arc<Mutex<Vec<usize>>>,
        home: Option<usize>,
        want_home: Option<usize>,
    }

    impl Handler for ShardProbe {
        fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
            if !input.is_empty() {
                self.served_by
                    .lock()
                    .unwrap()
                    .push(current_shard().expect("reactor thread"));
                self.home = self.want_home;
                out.extend_from_slice(input);
            }
            true
        }

        fn home_shard(&self) -> Option<usize> {
            self.home
        }
    }

    fn probe_reactor(
        io_threads: usize,
        want_home: Option<usize>,
    ) -> (Reactor, SocketAddr, Arc<Mutex<Vec<usize>>>) {
        let served_by = Arc::new(Mutex::new(Vec::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = ListenerSpec {
            listener,
            factory: {
                let served_by = Arc::clone(&served_by);
                Arc::new(move |_| {
                    Box::new(ShardProbe {
                        served_by: Arc::clone(&served_by),
                        home: None,
                        want_home,
                    }) as Box<dyn Handler>
                })
            },
        };
        let reactor = Reactor::spawn(
            vec![spec],
            ReactorConfig {
                io_threads,
                ..ReactorConfig::default()
            },
            Arc::new(AtomicU64::new(0)),
        )
        .unwrap();
        (reactor, addr, served_by)
    }

    #[test]
    fn accepted_connections_are_distributed_across_shards() {
        let (_reactor, addr, served_by) = probe_reactor(2, None);
        let mut streams: Vec<TcpStream> = (0..4)
            .map(|_| {
                let s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                s
            })
            .collect();
        let mut buf = [0u8; 1];
        for stream in &mut streams {
            stream.write_all(b"x").unwrap();
            stream.read_exact(&mut buf).unwrap();
        }
        let shards = served_by.lock().unwrap().clone();
        assert_eq!(shards.len(), 4);
        assert!(
            shards.contains(&0) && shards.contains(&1),
            "round-robin must use both shards: {shards:?}"
        );
    }

    #[test]
    fn connections_migrate_to_their_home_shard() {
        let (_reactor, addr, served_by) = probe_reactor(2, Some(1));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        // First chunk is served wherever round-robin placed us and primes
        // the home-shard request; subsequent chunks must run on shard 1.
        for _ in 0..3 {
            stream.write_all(b"m").unwrap();
            stream.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], b'm', "echo must survive migration");
        }
        let shards = served_by.lock().unwrap().clone();
        assert_eq!(shards.len(), 3);
        assert_eq!(
            &shards[1..],
            &[1, 1],
            "post-migration chunks must be served by the home shard: {shards:?}"
        );
    }

    /// A handler fed by an external queue through the pump path, with an
    /// eviction exemption while `keep` is set — the shape of a collector
    /// observer holding an active subscription.
    struct Pumped {
        source: Arc<Mutex<Vec<u8>>>,
        keep: Arc<AtomicBool>,
    }

    impl Handler for Pumped {
        fn on_data(&mut self, _input: &[u8], _out: &mut OutBuf) -> bool {
            true
        }

        fn wants_pump(&self) -> bool {
            true
        }

        fn on_pump(&mut self, out: &mut OutBuf, _pending_out: usize) -> bool {
            let mut source = self.source.lock().unwrap();
            out.extend_from_slice(&source);
            source.clear();
            true
        }

        fn keep_alive(&self) -> bool {
            self.keep.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn pump_delivers_externally_produced_bytes() {
        let source = Arc::new(Mutex::new(Vec::new()));
        let keep = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = ListenerSpec {
            listener,
            factory: {
                let source = Arc::clone(&source);
                let keep = Arc::clone(&keep);
                Arc::new(move |_| {
                    Box::new(Pumped {
                        source: Arc::clone(&source),
                        keep: Arc::clone(&keep),
                    }) as Box<dyn Handler>
                })
            },
        };
        let _reactor = Reactor::spawn(
            vec![spec],
            ReactorConfig::default(),
            Arc::new(AtomicU64::new(0)),
        )
        .unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Give the reactor a moment to accept, then inject bytes from
        // "somewhere else" — no inbound traffic ever arrives on the socket.
        std::thread::sleep(Duration::from_millis(50));
        source.lock().unwrap().extend_from_slice(b"pushed!");
        let mut buf = [0u8; 7];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pushed!");
    }

    #[test]
    fn keep_alive_connections_survive_idle_eviction_until_released() {
        let source = Arc::new(Mutex::new(Vec::new()));
        let keep = Arc::new(AtomicBool::new(true));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = ListenerSpec {
            listener,
            factory: {
                let source = Arc::clone(&source);
                let keep = Arc::clone(&keep);
                Arc::new(move |_| {
                    Box::new(Pumped {
                        source: Arc::clone(&source),
                        keep: Arc::clone(&keep),
                    }) as Box<dyn Handler>
                })
            },
        };
        let reactor = Reactor::spawn(
            vec![spec],
            ReactorConfig {
                idle_timeout: Duration::from_millis(150),
                ..ReactorConfig::default()
            },
            Arc::new(AtomicU64::new(0)),
        )
        .unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        // Far past the idle timeout: the keep-alive exemption holds.
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(
            reactor.evicted_total(),
            0,
            "keep-alive connection must not be evicted while exempt"
        );
        // Release the exemption: eviction resumes on the next wheel pass.
        keep.store(false, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.evicted_total() == 0 {
            assert!(
                Instant::now() < deadline,
                "released connection must be evicted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stream);
    }

    /// Work queued for a pump handler from a foreign thread, shaped like a
    /// subscriber queue: the handler records its shard's waker when it is
    /// installed, and every push signals it.
    #[derive(Default)]
    struct PushSource {
        pushed: Mutex<VecDeque<Instant>>,
        waker: Mutex<Option<Arc<ShardWaker>>>,
        delays: Mutex<Vec<Duration>>,
    }

    impl PushSource {
        fn push(&self) {
            self.pushed.lock().unwrap().push_back(Instant::now());
            if let Some(waker) = &*self.waker.lock().unwrap() {
                waker.wake();
            }
        }
    }

    /// Pump handler fed by a [`PushSource`]; only the connection that lands
    /// on shard 1 attaches to it.
    struct PushSink {
        source: Arc<PushSource>,
        attached: bool,
    }

    impl Handler for PushSink {
        fn on_data(&mut self, _input: &[u8], _out: &mut OutBuf) -> bool {
            if !self.attached && current_shard() == Some(1) {
                self.attached = true;
                *self.source.waker.lock().unwrap() = current_waker();
            }
            true
        }

        fn wants_pump(&self) -> bool {
            self.attached
        }

        fn on_pump(&mut self, out: &mut OutBuf, _pending_out: usize) -> bool {
            let now = Instant::now();
            let mut pushed = self.source.pushed.lock().unwrap();
            let mut delays = self.source.delays.lock().unwrap();
            for at in pushed.drain(..) {
                delays.push(now.duration_since(at));
                out.extend_from_slice(b"e");
            }
            true
        }
    }

    #[test]
    fn cross_shard_push_wakes_the_pump_at_once() {
        const ITEMS: usize = 120;
        let source = Arc::new(PushSource::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = ListenerSpec {
            listener,
            factory: {
                let source = Arc::clone(&source);
                Arc::new(move |_| {
                    Box::new(PushSink {
                        source: Arc::clone(&source),
                        attached: false,
                    }) as Box<dyn Handler>
                })
            },
        };
        let _reactor = Reactor::spawn(
            vec![spec],
            ReactorConfig {
                io_threads: 2,
                ..ReactorConfig::default()
            },
            Arc::new(AtomicU64::new(0)),
        )
        .unwrap();
        // Round-robin puts the first connection on shard 0 and the second
        // on shard 1; neither ever sends a byte.
        let _first = TcpStream::connect(addr).unwrap();
        let mut second = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while source.waker.lock().unwrap().is_none() {
            assert!(
                Instant::now() < deadline,
                "no connection attached on shard 1"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..ITEMS {
            source.push();
            std::thread::sleep(Duration::from_millis(1));
        }
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut delivered = [0u8; ITEMS];
        second.read_exact(&mut delivered).unwrap();
        let mut delays = source.delays.lock().unwrap().clone();
        assert_eq!(delays.len(), ITEMS);
        delays.sort();
        let median = delays[ITEMS / 2];
        assert!(
            median < POLL_TIMEOUT / 4,
            "median push-to-pump delay {median:?}: the pump must not wait for the poll timeout"
        );
    }

    #[test]
    fn wheel_rearms_active_tokens() {
        let tick = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(8, tick);
        let t0 = wheel.last_advance;
        wheel.insert(42);
        let mut fired = Vec::new();
        // After one full rotation the token fires; re-arm it once.
        wheel.advance(t0 + tick * 7, |token, rearm| {
            fired.push(token);
            rearm.insert_after(token, tick * 3);
        });
        assert_eq!(fired, vec![42]);
        // It must fire again roughly 3 ticks later.
        fired.clear();
        wheel.advance(t0 + tick * 11, |token, _| fired.push(token));
        assert_eq!(fired, vec![42]);
    }
}
