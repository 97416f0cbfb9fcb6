//! One typed model of the query port: every observer question is a
//! [`Query`], every answer a [`Reply`], and [`execute`] is the only code
//! that turns one into the other.
//!
//! The port speaks two codecs over one socket, told apart by the frame
//! magic (see `docs/WIRE.md`):
//!
//! * **Lines** for humans (`nc`): [`Query::parse_line`] reads a command
//!   line and [`Reply::write_line`] renders the answer.
//! * **Frames** for programs: a [`Frame::Query`] carries a tag byte plus
//!   the query's arguments. The answer travels as [`Frame::Reply`]
//!   fragments ([`Reply::encode_frames`], reassembled by [`read_reply`]),
//!   every fragment but the last flagged `more`, so a reply larger than
//!   [`MAX_PAYLOAD`] still crosses whole.
//!
//! Replies no client method decodes (`HELP`, `HEATMAP`, `TRACE`,
//! `METRICS`, all-app `HEALTH`) are rendered collector-side into
//! [`Reply::Text`].

use std::fmt::{self, Display};
use std::io::{self, Write};
use std::time::Duration;

use crate::collector::{AppSnapshot, CollectorState};
use crate::error::{NetError, Result};
use crate::health::{HealthReason, HealthReport, HealthStatus, HistorySample};
use crate::telemetry;
use crate::wire::{
    get_name, get_opt_f64, put_name, put_opt_f64, put_u16, put_u32, put_u64, read_le, read_u16,
    read_u32, read_u64, Frame, MAX_NAME_LEN, MAX_PAYLOAD, VERSION,
};

/// Encoded size of one [`HistorySample`] in a [`Reply::History`] body.
pub const SAMPLE_LEN: usize = 40;

/// Most history samples one [`Frame::Reply`] fragment carries beside the
/// fragment flags, the reply tag, the totals and a maximal name. Collector
/// history rings are clamped to it, so a full ring answers in one frame.
pub const MAX_HISTORY_SAMPLES: usize = (MAX_PAYLOAD - 16 - MAX_NAME_LEN) / SAMPLE_LEN;

/// Largest reply body [`read_reply`] reassembles; a peer sending more is
/// treated as broken rather than buffered without bound.
const MAX_REPLY_LEN: usize = 64 * MAX_PAYLOAD;

/// The `HELP` response: every query-port command, one per line.
const HELP_TEXT: &str = "\
HELP                 this command list
PING                 liveness probe; answers PONG
VERSION              the collector's wire-protocol version (VERSION <n>)
LIST                 application names (APPS <n>, one name per line, END)
GET <app>            one-line snapshot of an application
HISTORY <app> [n]    recent beat samples, newest n (default all retained), END-terminated
HEALTH [app]         windowed health classification; without <app>, all applications, END-terminated
METRICS              Prometheus text export, END-terminated
STATS                one-line collector-wide counters
HEATMAP [b] [w_ms]   app x time-bucket beat-rate matrix from the history rings (default 8 buckets x 1000 ms), END-terminated
TRACE [n]            newest n in-process journal entries (default 64), END-terminated
QUIT                 close the connection
binary               wire-protocol query frames (magic HBWT) are answered in kind; Subscribe opens a push subscription; see docs/WIRE.md";

/// One query-port command. The frame tag of each variant is listed in
/// `docs/WIRE.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Liveness probe.
    Ping,
    /// The collector's wire-protocol version: a diagnostic, and the one
    /// query `queries_total` does not count.
    Version,
    /// The command list.
    Help,
    /// Names of every registered application.
    List,
    /// One application's snapshot.
    Get {
        /// Application name.
        app: String,
    },
    /// One application's retained history ring.
    History {
        /// Application name.
        app: String,
        /// Most recent samples wanted; `0` means all retained.
        limit: u32,
    },
    /// The windowed health classification of one application, or of all.
    Health {
        /// Application name; `None` asks for every application.
        app: Option<String>,
    },
    /// The Prometheus text export.
    Metrics,
    /// Collector-wide counters.
    Stats,
    /// The app × time-bucket beat-rate matrix.
    Heatmap {
        /// Bucket count, clamped to `1..=64`.
        buckets: u32,
        /// Bucket width in milliseconds; `0` means the default (1000).
        width_ms: u64,
    },
    /// The newest in-process journal entries.
    Trace {
        /// Entries wanted.
        limit: u32,
    },
    /// Close the connection after the reply.
    Quit,
}

/// Parses an optional numeric line argument, saturating at `u32::MAX`.
fn number_arg(token: Option<&str>) -> Option<u32> {
    let value: u64 = token?.parse().ok()?;
    Some(u32::try_from(value).unwrap_or(u32::MAX))
}

impl Query {
    /// Parses one trimmed, non-blank command line. An unknown command or a
    /// missing required argument yields the message the line protocol
    /// answers with as `ERR <message>` (no query runs, so no [`Reply`]).
    pub fn parse_line(line: &str) -> std::result::Result<Query, String> {
        let mut parts = line.split_whitespace();
        Ok(match parts.next().unwrap_or_default() {
            "PING" => Query::Ping,
            "VERSION" => Query::Version,
            "HELP" => Query::Help,
            "LIST" => Query::List,
            "GET" => Query::Get {
                app: parts.next().unwrap_or_default().to_string(),
            },
            "HISTORY" => match parts.next() {
                Some(app) => Query::History {
                    app: app.to_string(),
                    limit: number_arg(parts.next()).unwrap_or(0),
                },
                None => return Err("usage: HISTORY <app> [limit]".into()),
            },
            "HEALTH" => Query::Health {
                app: parts.next().map(str::to_string),
            },
            "METRICS" => Query::Metrics,
            "STATS" => Query::Stats,
            "HEATMAP" => Query::Heatmap {
                buckets: number_arg(parts.next()).unwrap_or(8),
                width_ms: parts.next().and_then(|n| n.parse().ok()).unwrap_or(0),
            },
            "TRACE" => Query::Trace {
                limit: number_arg(parts.next()).unwrap_or(64),
            },
            "QUIT" => Query::Quit,
            other => return Err(format!("unknown command {other} (try HELP)")),
        })
    }

    /// Appends the [`Frame::Query`] payload: a tag byte plus the arguments.
    pub(crate) fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Query::Ping => buf.push(1),
            Query::Version => buf.push(2),
            Query::Help => buf.push(3),
            Query::List => buf.push(4),
            Query::Get { app } => {
                buf.push(5);
                put_name(buf, app);
            }
            Query::History { app, limit } => {
                buf.push(6);
                put_u32(buf, *limit);
                put_name(buf, app);
            }
            Query::Health { app } => {
                buf.push(7);
                if let Some(app) = app {
                    put_name(buf, app);
                }
            }
            Query::Metrics => buf.push(8),
            Query::Stats => buf.push(9),
            Query::Heatmap { buckets, width_ms } => {
                buf.push(10);
                put_u32(buf, *buckets);
                put_u64(buf, *width_ms);
            }
            Query::Trace { limit } => {
                buf.push(11);
                put_u32(buf, *limit);
            }
            Query::Quit => buf.push(12),
        }
    }

    /// Decodes a [`Frame::Query`] payload; names are validated like every
    /// other name on the wire.
    pub(crate) fn decode_payload(payload: &[u8]) -> Result<Query> {
        let Some((&tag, args)) = payload.split_first() else {
            return Err(NetError::Protocol("empty query frame".into()));
        };
        let (query, end) = match tag {
            1 => (Query::Ping, 0),
            2 => (Query::Version, 0),
            3 => (Query::Help, 0),
            4 => (Query::List, 0),
            5 => {
                let (app, end) = get_name(args, 0)?;
                (Query::Get { app }, end)
            }
            6 => {
                let (app, end) = get_name(args, 4)?;
                let limit = read_u32(args, 0)?;
                (Query::History { app, limit }, end)
            }
            7 if args.is_empty() => (Query::Health { app: None }, 0),
            7 => {
                let (app, end) = get_name(args, 0)?;
                (Query::Health { app: Some(app) }, end)
            }
            8 => (Query::Metrics, 0),
            9 => (Query::Stats, 0),
            10 => {
                let (buckets, width_ms) = (read_u32(args, 0)?, read_u64(args, 4)?);
                (Query::Heatmap { buckets, width_ms }, 12)
            }
            11 => (Query::Trace { limit: read_u32(args, 0)? }, 4),
            12 => (Query::Quit, 0),
            other => return Err(NetError::Protocol(format!("unknown query tag {other}"))),
        };
        ensure_consumed(end, args.len(), query)
    }
}

/// Succeeds with `value` only if a decode consumed all `len` bytes.
fn ensure_consumed<T>(end: usize, len: usize, value: T) -> Result<T> {
    if end == len {
        Ok(value)
    } else {
        Err(NetError::Protocol("query or reply payload has trailing bytes".into()))
    }
}

/// Reads a byte that must be 0 or 1.
fn read_bool(bytes: &[u8], at: usize) -> Result<bool> {
    match bytes.get(at) {
        Some(0) => Ok(false),
        Some(1) => Ok(true),
        _ => Err(NetError::Protocol(format!("bad boolean byte at {at}"))),
    }
}

/// UTF-8 text from `at` to the end of `bytes`.
fn read_text(bytes: &[u8], at: usize) -> Result<String> {
    let text = bytes.get(at..).unwrap_or_default().to_vec();
    String::from_utf8(text).map_err(|_| NetError::Protocol("reply text is not UTF-8".into()))
}

/// A slice of one application's collector-side history ring, as returned
/// for a [`Query::History`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryChunk {
    /// The application the history belongs to.
    pub app: String,
    /// Samples ever pushed into the ring, including those already
    /// overwritten — `total - samples.len()` is the number lost to the
    /// ring's bound.
    pub total: u64,
    /// The retained samples, chronological.
    pub samples: Vec<HistorySample>,
}

/// Collector-wide counters, built once by [`CollectorState::stats`] and
/// read whole by `STATS`, [`Reply::Stats`] and the Prometheus export.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorStats {
    /// Applications currently registered.
    pub apps: u64,
    /// Producer connections accepted since the collector started.
    pub connections: u64,
    /// Frames ingested since start.
    pub frames: u64,
    /// Producer connections dropped for protocol violations.
    pub protocol_errors: u64,
    /// Size of the reactor's fixed I/O thread pool: the reactor shards the
    /// collector resolved at startup (`STATS` prints it as both
    /// `io_threads=` and `shards=`).
    pub io_threads: u64,
    /// Connections evicted by the idle timer.
    pub evicted: u64,
    /// Observer requests answered (query lines and frames; `VERSION`,
    /// subscription control and pushed events not included).
    pub queries: u64,
    /// Push subscriptions currently registered.
    pub subscriptions: u64,
    /// Events enqueued toward subscribers since start (never below
    /// `events_dropped`).
    pub events: u64,
    /// Events shed because a subscriber queue was full.
    pub events_dropped: u64,
    /// Collector uptime in seconds.
    pub uptime_s: f64,
    /// Beats ingested on a shard other than the application's home shard —
    /// a debug counter that should stay at zero.
    pub cross_shard: u64,
    /// Federation child links this collector has ever seen.
    pub origins: u64,
    /// Federation child links currently connected.
    pub origins_up: u64,
    /// True when this collector relays to a parent; the `upstream_*`
    /// counters below are zero otherwise.
    pub has_upstream: bool,
    /// 1 while this collector's own uplink to its parent is established.
    pub upstream_connected: u64,
    /// Beats this collector forwarded to its parent.
    pub upstream_forwarded: u64,
    /// Beats shed from the upstream tap (exactly accounted upward).
    pub upstream_dropped: u64,
    /// Propagated-subscription events forwarded to the parent.
    pub upstream_events: u64,
    /// Uplink re-establishments after the first connect.
    pub upstream_reconnects: u64,
    /// Rollup events re-sent after a reconnect.
    pub upstream_retransmits: u64,
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answers [`Query::Ping`].
    Pong,
    /// Answers [`Query::Version`].
    Version(u8),
    /// Answers [`Query::List`]: names, sorted.
    Apps(Vec<String>),
    /// Answers [`Query::Get`] for a known application.
    Snapshot(AppSnapshot),
    /// Answers [`Query::History`] for a known application.
    History(HistoryChunk),
    /// Answers [`Query::Health`] for one known application.
    Health {
        /// The application the report describes.
        app: String,
        /// The windowed anomaly detector's verdict.
        report: HealthReport,
    },
    /// Answers [`Query::Stats`].
    Stats(CollectorStats),
    /// Text rendered collector-side, `END`-terminated on the line protocol:
    /// `HELP`, `METRICS`, `HEATMAP`, `TRACE` and all-app `HEALTH`.
    Text(String),
    /// `GET`, `HISTORY` or `HEALTH` named an application the collector has
    /// never seen.
    UnknownApp,
    /// Answers [`Query::Quit`]; the collector then closes the connection.
    Bye,
}

/// Displays an optional value, or `na` when absent.
struct Na<T>(Option<T>);

impl<T: Display> Display for Na<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("na"),
        }
    }
}

/// Formats one health report as the single-line `HEALTH` response.
fn format_health(app: &str, report: &HealthReport) -> String {
    let reasons: Vec<&str> = report.reasons.iter().map(|r| r.as_str()).collect();
    let reasons = if reasons.is_empty() { "none".to_string() } else { reasons.join(",") };
    format!(
        "HEALTH app={app} status={} reasons={reasons} beats={} rate={} jitter={} \
         missing={} duplicated={} reordered={} silent_ms={}",
        report.status, report.window_beats, Na(report.window_rate_bps), Na(report.jitter_cv),
        report.missing, report.duplicated, report.reordered, report.silent_ns / 1_000_000,
    )
}

impl Reply {
    /// Renders the reply for the line protocol, byte for byte what a human
    /// on `nc` sees.
    pub fn write_line(&self, out: &mut impl Write) -> io::Result<()> {
        match self {
            Reply::Pong => writeln!(out, "PONG"),
            Reply::Version(version) => writeln!(out, "VERSION {version}"),
            Reply::Apps(names) => {
                writeln!(out, "APPS {}", names.len())?;
                for name in names {
                    writeln!(out, "{name}")?;
                }
                writeln!(out, "END")
            }
            Reply::Snapshot(s) => writeln!(
                out,
                "APP name={} pid={} total={} local={} rate={} target={} dropped={} last_ns={} \
                 window={} connections={} alive={}",
                s.app, s.pid, s.total_beats, s.local_beats, Na(s.rate_bps),
                Na(s.target.map(|(min, max)| format!("{min},{max}"))), s.producer_dropped,
                Na(s.last_timestamp_ns), s.window, s.connections, u8::from(s.alive),
            ),
            Reply::History(chunk) => {
                let count = chunk.samples.len();
                writeln!(out, "HISTORY app={} total={} count={count}", chunk.app, chunk.total)?;
                for s in &chunk.samples {
                    writeln!(
                        out,
                        "S seq={} ts={} tag={} interval={} rate={}",
                        s.seq, s.timestamp_ns, s.tag, s.interval_ns, Na(s.rate_bps)
                    )?;
                }
                writeln!(out, "END")
            }
            Reply::Health { app, report } => writeln!(out, "{}", format_health(app, report)),
            Reply::Stats(s) => {
                write!(
                    out,
                    "COLLECTOR apps={} connections={} frames={} errors={} io_threads={} \
                     evicted={} queries={} subs={} events={} events_dropped={} uptime_s={:.3} \
                     shards={} cross_shard={} origins={} origins_up={}",
                    s.apps, s.connections, s.frames, s.protocol_errors, s.io_threads,
                    s.evicted, s.queries, s.subscriptions, s.events, s.events_dropped, s.uptime_s,
                    s.io_threads, s.cross_shard, s.origins, s.origins_up,
                )?;
                if s.has_upstream {
                    write!(
                        out,
                        " upstream_connected={} upstream_forwarded={} upstream_dropped={} \
                         upstream_events={} upstream_reconnects={} upstream_retransmits={}",
                        s.upstream_connected, s.upstream_forwarded, s.upstream_dropped,
                        s.upstream_events, s.upstream_reconnects, s.upstream_retransmits,
                    )?;
                }
                writeln!(out)
            }
            Reply::Text(text) => {
                out.write_all(text.as_bytes())?;
                writeln!(out, "END")
            }
            Reply::UnknownApp => writeln!(out, "ERR unknown app"),
            Reply::Bye => writeln!(out, "BYE"),
        }
    }

    /// Appends the reply body: a tag byte plus the variant's fields, in the
    /// order `docs/WIRE.md` lists them.
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Pong => buf.push(1),
            Reply::Version(version) => buf.extend_from_slice(&[2, *version]),
            Reply::Apps(names) => {
                buf.push(3);
                put_u32(buf, names.len() as u32);
                for name in names {
                    put_name(buf, name);
                }
            }
            Reply::Snapshot(s) => {
                buf.push(4);
                put_u32(buf, s.pid);
                put_u32(buf, s.window);
                put_u64(buf, s.total_beats);
                put_u64(buf, s.local_beats);
                put_opt_f64(buf, s.rate_bps);
                put_opt_f64(buf, s.mean_interval_ns);
                put_opt_f64(buf, s.target.map(|(min, _)| min));
                put_opt_f64(buf, s.target.map(|(_, max)| max));
                put_u64(buf, s.producer_dropped);
                buf.push(u8::from(s.last_timestamp_ns.is_some()));
                put_u64(buf, s.last_timestamp_ns.unwrap_or(0));
                put_u32(buf, s.connections);
                buf.push(u8::from(s.alive));
                put_name(buf, &s.app);
            }
            Reply::History(chunk) => {
                buf.push(5);
                put_u64(buf, chunk.total);
                put_u32(buf, chunk.samples.len() as u32);
                put_name(buf, &chunk.app);
                for sample in &chunk.samples {
                    put_u64(buf, sample.seq);
                    put_u64(buf, sample.timestamp_ns);
                    put_u64(buf, sample.tag);
                    put_u64(buf, sample.interval_ns);
                    put_opt_f64(buf, sample.rate_bps);
                }
            }
            Reply::Health { app, report } => {
                buf.push(6);
                buf.push(report.status.as_u8());
                put_u16(buf, HealthReason::pack(&report.reasons));
                put_u32(buf, report.window_beats);
                put_u32(buf, report.missing);
                put_u32(buf, report.duplicated);
                put_u32(buf, report.reordered);
                put_u64(buf, report.silent_ns);
                put_opt_f64(buf, report.window_rate_bps);
                put_opt_f64(buf, report.jitter_cv);
                put_name(buf, app);
            }
            Reply::Stats(s) => {
                buf.push(7);
                for counter in [
                    s.apps, s.connections, s.frames, s.protocol_errors, s.io_threads, s.evicted,
                    s.queries, s.subscriptions, s.events, s.events_dropped, s.cross_shard,
                    s.origins, s.origins_up, s.upstream_connected,
                    s.upstream_forwarded, s.upstream_dropped, s.upstream_events,
                    s.upstream_reconnects, s.upstream_retransmits, s.uptime_s.to_bits(),
                ] {
                    put_u64(buf, counter);
                }
                buf.push(u8::from(s.has_upstream));
            }
            Reply::Text(text) => {
                buf.push(8);
                buf.extend_from_slice(text.as_bytes());
            }
            Reply::UnknownApp => buf.push(9),
            Reply::Bye => buf.push(10),
        }
    }

    /// Decodes a reassembled reply body (field offsets as in
    /// `docs/WIRE.md`, counted after the tag byte).
    fn decode_body(body: &[u8]) -> Result<Reply> {
        let Some((&tag, b)) = body.split_first() else {
            return Err(NetError::Protocol("empty reply".into()));
        };
        let (reply, end) = match tag {
            1 => (Reply::Pong, 0),
            2 => (Reply::Version(read_le::<1>(b, 0)?[0]), 1),
            3 => {
                let mut names = Vec::new();
                let mut at = 4;
                for _ in 0..read_u32(b, 0)? {
                    let (name, next) = get_name(b, at)?;
                    names.push(name);
                    at = next;
                }
                (Reply::Apps(names), at)
            }
            4 => {
                let target = match (get_opt_f64(b, 40)?, get_opt_f64(b, 48)?) {
                    (Some(min), Some(max)) => Some((min, max)),
                    (None, None) => None,
                    _ => return Err(NetError::Protocol("half a target range".into())),
                };
                let (app, end) = get_name(b, 78)?;
                let snap = AppSnapshot {
                    app,
                    pid: read_u32(b, 0)?,
                    window: read_u32(b, 4)?,
                    total_beats: read_u64(b, 8)?,
                    local_beats: read_u64(b, 16)?,
                    rate_bps: get_opt_f64(b, 24)?,
                    mean_interval_ns: get_opt_f64(b, 32)?,
                    target,
                    producer_dropped: read_u64(b, 56)?,
                    last_timestamp_ns: read_bool(b, 64)?.then_some(read_u64(b, 65)?),
                    connections: read_u32(b, 73)?,
                    alive: read_bool(b, 77)?,
                };
                (Reply::Snapshot(snap), end)
            }
            5 => {
                let (total, count) = (read_u64(b, 0)?, read_u32(b, 8)? as usize);
                let (app, at) = get_name(b, 12)?;
                if b.len() != at + count * SAMPLE_LEN {
                    return Err(NetError::Protocol(format!(
                        "history of {count} samples should be {} bytes, got {}",
                        at + count * SAMPLE_LEN,
                        b.len()
                    )));
                }
                let mut samples = Vec::with_capacity(count);
                for at in (at..b.len()).step_by(SAMPLE_LEN) {
                    samples.push(HistorySample {
                        seq: read_u64(b, at)?,
                        timestamp_ns: read_u64(b, at + 8)?,
                        tag: read_u64(b, at + 16)?,
                        interval_ns: read_u64(b, at + 24)?,
                        rate_bps: get_opt_f64(b, at + 32)?,
                    });
                }
                (Reply::History(HistoryChunk { app, total, samples }), b.len())
            }
            6 => {
                let byte = read_le::<1>(b, 0)?[0];
                let status = HealthStatus::from_u8(byte).ok_or_else(|| {
                    NetError::Protocol(format!("invalid health status byte {byte}"))
                })?;
                let report = HealthReport {
                    status,
                    reasons: HealthReason::unpack(read_u16(b, 1)?),
                    window_beats: read_u32(b, 3)?,
                    missing: read_u32(b, 7)?,
                    duplicated: read_u32(b, 11)?,
                    reordered: read_u32(b, 15)?,
                    silent_ns: read_u64(b, 19)?,
                    window_rate_bps: get_opt_f64(b, 27)?,
                    jitter_cv: get_opt_f64(b, 35)?,
                };
                let (app, end) = get_name(b, 43)?;
                (Reply::Health { app, report }, end)
            }
            7 => {
                let c = |i: usize| read_u64(b, 8 * i);
                let stats = CollectorStats {
                    apps: c(0)?,
                    connections: c(1)?,
                    frames: c(2)?,
                    protocol_errors: c(3)?,
                    io_threads: c(4)?,
                    evicted: c(5)?,
                    queries: c(6)?,
                    subscriptions: c(7)?,
                    events: c(8)?,
                    events_dropped: c(9)?,
                    cross_shard: c(10)?,
                    origins: c(11)?,
                    origins_up: c(12)?,
                    upstream_connected: c(13)?,
                    upstream_forwarded: c(14)?,
                    upstream_dropped: c(15)?,
                    upstream_events: c(16)?,
                    upstream_reconnects: c(17)?,
                    upstream_retransmits: c(18)?,
                    uptime_s: f64::from_bits(c(19)?),
                    has_upstream: read_bool(b, 160)?,
                };
                (Reply::Stats(stats), 161)
            }
            8 => (Reply::Text(read_text(b, 0)?), b.len()),
            9 => (Reply::UnknownApp, 0),
            10 => (Reply::Bye, 0),
            other => return Err(NetError::Protocol(format!("unknown reply tag {other}"))),
        };
        ensure_consumed(end, b.len(), reply)
    }

    /// Appends the reply as one or more [`Frame::Reply`] frames, every one
    /// but the last flagged `more`.
    pub fn encode_frames(&self, buf: &mut Vec<u8>) {
        let mut body = Vec::new();
        self.encode_body(&mut body);
        // One payload byte per fragment goes to the flags.
        let mut parts = body.chunks(MAX_PAYLOAD - 1).peekable();
        while let Some(part) = parts.next() {
            let more = parts.peek().is_some();
            Frame::Reply { more, body: part.to_vec() }.encode_into(buf);
        }
    }
}

/// Reassembles one reply from the frames `next` yields, up to and
/// including the first fragment without `more`. Any other frame, or a
/// body beyond 64 × [`MAX_PAYLOAD`], is a bad response.
pub fn read_reply(mut next: impl FnMut() -> Result<Frame>) -> Result<Reply> {
    let mut body = Vec::new();
    loop {
        let Frame::Reply { more, body: part } = next()? else {
            return Err(NetError::BadResponse("expected a reply frame".into()));
        };
        if body.len() + part.len() > MAX_REPLY_LEN {
            return Err(NetError::BadResponse(format!("reply exceeds {MAX_REPLY_LEN} bytes")));
        }
        body.extend_from_slice(&part);
        if !more {
            return Reply::decode_body(&body);
        }
    }
}

/// Answers one query against the collector's state — the single place
/// every query-port request, line or frame, is executed. Counts it in
/// `queries_total` (except [`Query::Version`]) and times it in the `query`
/// pipeline stage.
pub fn execute(state: &CollectorState, query: Query) -> Reply {
    let telemetry = state.stage_telemetry();
    let started = telemetry.start();
    // VERSION is a diagnostic, not an observation poll: it must not disturb
    // the "zero requests while pushed" accounting.
    if query != Query::Version {
        state.count_query();
    }
    let reply = match query {
        Query::Ping => Reply::Pong,
        Query::Version => Reply::Version(VERSION),
        Query::Help => Reply::Text(format!("{HELP_TEXT}\n")),
        Query::List => Reply::Apps(state.app_names()),
        Query::Get { app } => state.snapshot(&app).map_or(Reply::UnknownApp, Reply::Snapshot),
        Query::History { app, limit } => match state.history(&app, limit as usize) {
            Some((total, samples)) => Reply::History(HistoryChunk { app, total, samples }),
            None => Reply::UnknownApp,
        },
        Query::Health { app: Some(app) } => match state.health(&app) {
            Some(report) => Reply::Health { app, report },
            None => Reply::UnknownApp,
        },
        Query::Health { app: None } => Reply::Text(
            state
                .healths()
                .iter()
                .map(|(app, report)| format_health(app, report) + "\n")
                .collect(),
        ),
        Query::Metrics => Reply::Text(state.prometheus()),
        Query::Stats => Reply::Stats(state.stats()),
        Query::Heatmap { buckets, width_ms } => {
            let buckets = buckets.clamp(1, 64);
            let width_ms = if width_ms == 0 { 1000 } else { width_ms };
            let rows = state.heatmap(buckets as usize, Duration::from_millis(width_ms));
            let mut text =
                format!("HEATMAP apps={} buckets={buckets} width_ms={width_ms}\n", rows.len());
            for (app, rates) in &rows {
                let rates: Vec<String> = rates.iter().map(|r| format!("{r:.3}")).collect();
                text.push_str(&format!("R app={app} rates={}\n", rates.join(",")));
            }
            Reply::Text(text)
        }
        Query::Trace { limit } => {
            let entries = telemetry::journal().latest(limit as usize);
            let mut text = format!("TRACE count={}\n", entries.len());
            for e in &entries {
                text.push_str(&format!("J ts_ms={} level={} {}\n", e.ts_ms, e.level, e.message));
            }
            Reply::Text(text)
        }
        Query::Quit => Reply::Bye,
    };
    telemetry.observe(&telemetry.query, started);
    reply
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_body(reply: &Reply) -> Result<Reply> {
        let mut body = Vec::new();
        reply.encode_body(&mut body);
        Reply::decode_body(&body)
    }

    #[test]
    fn parse_line_applies_the_line_defaults() {
        let parse = |line: &str| Query::parse_line(line);
        assert_eq!(parse("GET"), Ok(Query::Get { app: String::new() }));
        assert_eq!(parse("GET  cam extra"), Ok(Query::Get { app: "cam".into() }));
        let history = |limit| Ok(Query::History { app: "cam".into(), limit });
        assert_eq!(parse("HISTORY cam"), history(0));
        assert_eq!(parse("HISTORY cam -3"), history(0));
        assert_eq!(parse("HISTORY cam 99999999999"), history(u32::MAX));
        assert_eq!(parse("HEALTH"), Ok(Query::Health { app: None }));
        assert_eq!(parse("HEATMAP"), Ok(Query::Heatmap { buckets: 8, width_ms: 0 }));
        assert_eq!(parse("HEATMAP 0 250"), Ok(Query::Heatmap { buckets: 0, width_ms: 250 }));
        assert_eq!(parse("TRACE"), Ok(Query::Trace { limit: 64 }));
        assert_eq!(parse("HISTORY"), Err("usage: HISTORY <app> [limit]".into()));
        assert_eq!(parse("get cam"), Err("unknown command get (try HELP)".into()));
    }

    #[test]
    fn queries_and_replies_roundtrip_through_their_encodings() {
        let queries = [
            Query::Ping,
            Query::History { app: "cam".into(), limit: 7 },
            Query::Health { app: None },
            Query::Health { app: Some("cam".into()) },
            Query::Heatmap { buckets: 3, width_ms: 250 },
            Query::Trace { limit: 9 },
        ];
        for query in queries {
            let mut payload = Vec::new();
            query.encode_payload(&mut payload);
            assert_eq!(Query::decode_payload(&payload).unwrap(), query);
        }
        let snapshot = AppSnapshot {
            app: "cam".into(),
            pid: 7,
            window: 20,
            total_beats: 500,
            local_beats: 3,
            rate_bps: Some(29.97),
            mean_interval_ns: Some(33_366_700.0),
            target: Some((30.0, 35.0)),
            producer_dropped: 12,
            last_timestamp_ns: None,
            connections: 1,
            alive: true,
        };
        for reply in [
            Reply::Version(VERSION),
            Reply::Apps(vec!["a".into(), "b".into()]),
            Reply::Snapshot(snapshot),
            Reply::Text("HEALTH app=cam\n".into()),
            Reply::UnknownApp,
        ] {
            assert_eq!(roundtrip_body(&reply).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for payload in [&[][..], &[0], &[13], &[1, 0], &[5, 3, 0, b'c'], &[6, 1, 0]] {
            assert!(Query::decode_payload(payload).is_err(), "{payload:?}");
        }
        let mut snapshot = Vec::new();
        Reply::Snapshot(AppSnapshot {
            app: "cam".into(),
            pid: 0,
            window: 0,
            total_beats: 0,
            local_beats: 0,
            rate_bps: None,
            mean_interval_ns: None,
            target: Some((1.0, 2.0)),
            producer_dropped: 0,
            last_timestamp_ns: None,
            connections: 0,
            alive: false,
        })
        .encode_body(&mut snapshot);
        let mut half_target = snapshot.clone();
        half_target[49..57].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut bad_alive = snapshot.clone();
        bad_alive[78] = 2;
        for body in [&[][..], &[0], &[12], &[1, 0], &[8, 0xFF], &half_target, &bad_alive] {
            assert!(Reply::decode_body(body).is_err(), "{body:?}");
        }
    }

    #[test]
    fn read_reply_accepts_only_reply_frames() {
        assert!(matches!(
            read_reply(|| Ok(Frame::Bye)),
            Err(NetError::BadResponse(_))
        ));
        let mut parts = vec![
            Frame::Reply { more: false, body: vec![] },
            Frame::Reply { more: true, body: vec![1] },
        ];
        assert_eq!(read_reply(|| Ok(parts.pop().unwrap())).unwrap(), Reply::Pong);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // allocates MAX_REPLY_LEN bytes
    fn read_reply_bounds_the_reassembled_body() {
        let fragment = vec![b'x'; MAX_PAYLOAD - 1];
        let outcome = read_reply(|| Ok(Frame::Reply { more: true, body: fragment.clone() }));
        assert!(matches!(outcome, Err(NetError::BadResponse(msg)) if msg.contains("exceeds")));
    }
}
