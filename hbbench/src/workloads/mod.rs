//! The three workloads and the machinery they share: set-up timing, the
//! pacing wait, measurement windows and the result they hand back.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hb_net::{CollectorConfig, CollectorState, FaultConfig, ThreadStatsSnapshot};

use crate::ledger::Ledger;
use crate::seed::Rng;
use crate::stats;
use crate::sys::{self, ProcSample};
use crate::trace::Span;

pub mod ingest_saturate;
pub mod paced_observe;
pub mod relay_query;

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured interval.
    pub seconds: f64,
    /// Traced run: an untraced half, a traced half, then layer replays.
    pub trace: bool,
    /// Set-ups performed; `setup_s` is their median.
    pub setups: usize,
    /// How long to wait for in-flight beats once the load stops.
    pub drain: Duration,
    /// Route the producer through a fault-injecting proxy
    /// (`paced_observe` only; used by the ledger tests).
    pub proxy: Option<FaultConfig>,
}

impl Params {
    /// Benchmark defaults for `seed`, `seconds` and `trace`.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            trace,
            setups: 40,
            drain: Duration::from_secs(10),
            proxy: None,
        }
    }

    /// The measured phases: one untraced phase, or an untraced and a
    /// traced half.
    pub fn phases(&self) -> Vec<(Phase, Duration)> {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            vec![(Phase::Plain, half), (Phase::Traced, half)]
        } else {
            vec![(Phase::Plain, Duration::from_secs_f64(self.seconds))]
        }
    }
}

/// Which half of a run a measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not measured (warm-up and drain).
    Warmup,
    /// Span recording off: the end-to-end numbers.
    Plain,
    /// Span recording on: the per-layer numbers.
    Traced,
}

/// What a run hands back to the printer.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run measured, by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations offered (beats, plus queries where there are any).
    pub attempted: u64,
    /// Operations that failed: beats not delivered and queries failed.
    pub failed: u64,
    /// The correctness ledger.
    pub ledger: Ledger,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Human-readable report lines (the budget tables).
    pub report: Vec<String>,
    /// Every set-up time, in seconds.
    pub setup_times: Vec<f64>,
    /// Per-window end-to-end statistics of the untraced phase.
    pub windows: WindowStats,
}

impl Outcome {
    /// Folds a further repetition of the same workload into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ledger.extend(other.ledger);
        self.report.extend(other.report);
        self.setup_times.extend(other.setup_times);
        self.windows.extend(other.windows);
        self.spans.extend(other.spans);
        for (key, value) in other.metrics {
            self.metrics.entry(key).or_insert(value);
        }
    }
}

/// Milliseconds from nanoseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Builds the rig `setups` times (dropping all but the last) and returns
/// it with every set-up time in seconds.
pub fn timed_setups<T>(setups: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(setups);
    let mut rig = None;
    for _ in 0..setups.max(1) {
        drop(rig.take());
        let started = Instant::now();
        rig = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (rig.expect("at least one set-up"), times)
}

/// Longest single sleep of the pacing wait. Sleeping in short slices lets
/// the generator poll completion counters while it waits for its next
/// tick, so lags are observed to within about this resolution.
pub const SLICE: Duration = Duration::from_micros(50);

/// Waits until `epoch + due_ns`, calling `poll` before every sleep slice.
pub fn pace_until(epoch: Instant, due_ns: u64, mut poll: impl FnMut(u64)) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        poll(now);
        if now >= due_ns {
            return;
        }
        std::thread::sleep(SLICE.min(Duration::from_nanos(due_ns - now)));
    }
}

/// Polls `done` every slice until it holds or `timeout` passes; returns
/// whether it held.
pub fn wait_for(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(SLICE);
    }
}

/// Counters captured at a phase boundary.
#[derive(Debug, Clone)]
pub struct Mark {
    at: Instant,
    proc: ProcSample,
    gen_cpu_ns: u64,
    gen_inside_ns: u64,
    frames: u64,
    accounted: u64,
    reactors: Vec<ThreadStatsSnapshot>,
    shards: Vec<u64>,
}

impl Mark {
    /// Captures the counters of `states` (summed) and of the calling
    /// (generator) thread, which has so far spent `inside_ns` of CPU time
    /// inside calls into the system (heartbeat bursts, socket writes).
    pub fn take(states: &[&CollectorState], inside_ns: u64) -> Mark {
        Mark {
            at: Instant::now(),
            proc: ProcSample::now(),
            gen_cpu_ns: sys::thread_cpu_ns(),
            gen_inside_ns: inside_ns,
            frames: states.iter().map(|s| s.frames_total()).sum(),
            accounted: states.last().map(|s| s.beats_accounted()).unwrap_or(0),
            reactors: states
                .iter()
                .flat_map(|s| s.reactor_threads().snapshot())
                .collect(),
            shards: states
                .iter()
                .flat_map(|s| s.shard_counters().into_iter().map(|(_, frames)| frames))
                .collect(),
        }
    }
}

/// The counters of one measured phase.
#[derive(Debug, Clone)]
pub struct Window {
    /// Phase start.
    pub start: Mark,
    /// Phase end.
    pub end: Mark,
}

impl Window {
    /// Wall-clock length.
    pub fn secs(&self) -> f64 {
        (self.end.at - self.start.at).as_secs_f64()
    }

    /// Beats accounted at the last collector during the phase.
    pub fn accounted(&self) -> u64 {
        self.end.accounted - self.start.accounted
    }

    /// Frames decoded by every collector during the phase.
    pub fn frames(&self) -> u64 {
        self.end.frames - self.start.frames
    }

    /// CPU time the system spent during the phase, in ns: every thread of
    /// the process, minus the generator thread's own bookkeeping (pacing,
    /// polling, frame stamping) — its time inside calls into the system
    /// stays in.
    pub fn cpu_ns(&self) -> u64 {
        let others = self.end.proc.since(&self.start.proc).others_cpu_ns;
        others + (self.end.gen_inside_ns - self.start.gen_inside_ns)
    }

    /// Share of the phase the generator thread spent on a CPU.
    pub fn gen_cpu_share(&self) -> f64 {
        (self.end.gen_cpu_ns - self.start.gen_cpu_ns) as f64 / 1e9 / self.secs()
    }

    /// Inserts the per-layer metrics every workload derives from its
    /// counters: process, generator, collector frames and reactor.
    pub fn record_layers(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        let others = self.end.proc.since(&self.start.proc).others_cpu_ns;
        let generator = self.end.gen_cpu_ns - self.start.gen_cpu_ns;
        metrics.insert("proc.cpu_s", (others + generator) as f64 / 1e9);
        metrics.insert(
            "proc.ctx_switches_invol",
            self.end.proc.since(&self.start.proc).ctx_invol as f64,
        );
        metrics.insert("gen.cpu_share", self.gen_cpu_share());
        metrics.insert("collector.frames", self.frames() as f64);
        let (mut busy, mut total, mut loops, mut dispatches) = (0u64, 0u64, 0u64, 0u64);
        for (after, before) in self.end.reactors.iter().zip(&self.start.reactors) {
            busy += after.busy_ns - before.busy_ns;
            total += (after.busy_ns + after.wait_ns) - (before.busy_ns + before.wait_ns);
            loops += after.loops - before.loops;
            dispatches += after.dispatches - before.dispatches;
        }
        metrics.insert("reactor.busy_share", busy as f64 / total.max(1) as f64);
        metrics.insert(
            "reactor.dispatches_per_loop",
            dispatches as f64 / loops.max(1) as f64,
        );
        let per_shard: Vec<u64> = self
            .end
            .shards
            .iter()
            .zip(&self.start.shards)
            .map(|(a, b)| a - b)
            .collect();
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        metrics.insert(
            "reactor.shard_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
}

/// Length of the sub-windows a measured phase is cut into. The end-to-end
/// metrics are medians over these windows (40 in a 10 s run), so a
/// scheduling stall that disturbs a few windows does not move them.
pub const WINDOW_NS: u64 = 250_000_000;

/// Whether tick `k` of a paced phase over `range` opens a new window: every
/// `ticks_per_window` ticks, except that a tail shorter than half a window
/// joins the last window instead of forming a short one.
pub fn window_starts(range: &std::ops::Range<u64>, k: u64, ticks_per_window: u64) -> bool {
    let offset = k - range.start;
    offset.is_multiple_of(ticks_per_window)
        && (offset == 0 || range.end - k >= ticks_per_window / 2)
}

/// Per-window end-to-end statistics of one phase.
#[derive(Debug, Default)]
pub struct WindowStats {
    rates: Vec<f64>,
    cpu_per_beat: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    samples: usize,
    tails_supported: bool,
}

impl WindowStats {
    /// Adds one window: its counters, the beats it offered and its
    /// delivery-lag samples (ns).
    pub fn push(&mut self, window: &Window, beats: u64, lags: &mut [u64]) {
        if self.rates.is_empty() {
            self.tails_supported = true;
        }
        self.rates.push(window.accounted() as f64 / window.secs());
        self.cpu_per_beat
            .push(window.cpu_ns() as f64 / beats.max(1) as f64);
        let (p50, p99) = stats::p50_p99(lags);
        self.p50_ms.push(ms(p50.unwrap_or(0)));
        self.p90_ms.push(ms(stats::tail(lags, 0.9).unwrap_or(0)));
        self.p99_ms.push(ms(p99.unwrap_or(0)));
        self.tails_supported &= p99.is_some();
        self.samples += lags.len();
    }

    /// Median delivery lag p50 over the windows, in ms.
    pub fn lag_p50_ms(&self) -> f64 {
        stats::median_f64(&self.p50_ms)
    }

    /// Median CPU ns per beat over the windows.
    pub fn cpu_ns_per_beat(&self) -> f64 {
        stats::median_f64(&self.cpu_per_beat)
    }

    /// Appends another phase's windows.
    pub fn extend(&mut self, other: WindowStats) {
        if self.rates.is_empty() {
            self.tails_supported = other.tails_supported;
        } else {
            self.tails_supported &= other.tails_supported || other.rates.is_empty();
        }
        self.rates.extend(other.rates);
        self.cpu_per_beat.extend(other.cpu_per_beat);
        self.p50_ms.extend(other.p50_ms);
        self.p90_ms.extend(other.p90_ms);
        self.p99_ms.extend(other.p99_ms);
        self.samples += other.samples;
    }

    /// One report line per statistic, listing every window's value.
    pub fn describe(&self) -> Vec<String> {
        let list = |values: &[f64]| {
            values
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        vec![
            format!("windows ingest_beats_per_s  {}", list(&self.rates)),
            format!("windows cpu_ns_per_beat     {}", list(&self.cpu_per_beat)),
            format!("windows delivery_lag_ms_p50 {}", list(&self.p50_ms)),
            format!("windows delivery_lag_ms_p90 {}", list(&self.p90_ms)),
            format!("windows delivery_lag_ms_p99 {}", list(&self.p99_ms)),
            format!(
                "delivery_lag_ms_p99 {:.4} (median over windows; reported, not gated)",
                stats::median_f64(&self.p99_ms)
            ),
        ]
    }

    /// Inserts the end-to-end metrics (medians over the windows) and
    /// records in `ledger` whether every window supported its p99.
    pub fn record(&self, metrics: &mut BTreeMap<&'static str, f64>, ledger: &mut Ledger) {
        metrics.insert("ingest_beats_per_s", stats::median_f64(&self.rates));
        metrics.insert("cpu_ns_per_beat", self.cpu_ns_per_beat());
        metrics.insert("delivery_lag_ms_p50", self.lag_p50_ms());
        metrics.insert("delivery_lag_ms_p90", stats::median_f64(&self.p90_ms));
        ledger.holds(
            "every window supports its p99",
            self.tails_supported,
            format!(
                "{} lag samples in {} windows",
                self.samples,
                self.rates.len()
            ),
        );
    }
}

/// Inserts `<name>_p50`/`<name>_p99` (in ms) for nanosecond `samples`;
/// returns false when the sample cannot support a p99.
pub fn insert_lag_ms(
    metrics: &mut BTreeMap<&'static str, f64>,
    p50: &'static str,
    p99: &'static str,
    samples: &mut [u64],
) -> bool {
    let (median, tail) = stats::p50_p99(samples);
    metrics.insert(p50, ms(median.unwrap_or(0)));
    metrics.insert(p99, ms(tail.unwrap_or(0)));
    tail.is_some()
}

/// Relative change of `traced` over `plain`.
pub fn overhead(plain: f64, traced: f64) -> f64 {
    if plain > 0.0 {
        (traced - plain) / plain
    } else {
        0.0
    }
}

/// The report line comparing the untraced and traced halves.
pub fn overhead_line(lag_p50: [f64; 2], cpu_per_beat: [f64; 2]) -> String {
    format!(
        "tracing overhead: delivery_lag_ms_p50 {:.4} -> {:.4} ({:+.1}%), cpu_ns_per_beat {:.1} -> {:.1} ({:+.1}%)",
        lag_p50[0],
        lag_p50[1],
        100.0 * overhead(lag_p50[0], lag_p50[1]),
        cpu_per_beat[0],
        cpu_per_beat[1],
        100.0 * overhead(cpu_per_beat[0], cpu_per_beat[1]),
    )
}

/// Connects a raw producer socket to `addr`: sends the `Hello` and waits
/// for the collector's `HelloAck`, which must allow compact frames.
pub fn connect_producer(addr: std::net::SocketAddr, app: &str) -> std::net::TcpStream {
    use hb_net::{Frame, FrameReader, Hello};
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect producer");
    stream.set_nodelay(true).ok();
    let hello = Frame::Hello(Hello {
        app: app.to_string(),
        pid: std::process::id(),
        default_window: heartbeats::DEFAULT_WINDOW as u32,
    });
    stream.write_all(&hello.encode()).expect("send hello");
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    match FrameReader::new(&stream).read_frame() {
        Ok(Some(Frame::HelloAck { max_version })) => {
            assert!(
                max_version >= 3,
                "collector refuses compact frames (v{max_version})"
            )
        }
        other => panic!("expected a HelloAck, got {other:?}"),
    }
    stream
}

/// A seeded `prefix-xxxxxx` name whose home reactor shard, under
/// `config`, is `shard` (folded onto the shard count).
pub fn seeded_app_on_shard(
    config: &CollectorConfig,
    rng: &mut Rng,
    prefix: &str,
    shard: usize,
) -> String {
    let state = CollectorState::new(config.clone());
    let shard = shard % state.io_threads();
    loop {
        let name = rng.name(prefix);
        if state.home_reactor_shard(&state.handle(&name)) == shard {
            return name;
        }
    }
}

/// Tick ranges of a paced run: the warm-up, then one range per phase.
pub fn tick_schedule(
    p: &Params,
    warmup_ticks: u64,
    tick_ns: u64,
) -> Vec<(Phase, std::ops::Range<u64>)> {
    let mut schedule = vec![(Phase::Warmup, 0..warmup_ticks)];
    for (phase, length) in p.phases() {
        let start = schedule.last().map(|(_, r)| r.end).unwrap_or(0);
        let ticks = (length.as_nanos() as u64 / tick_ns).max(1);
        schedule.push((phase, start..start + ticks));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_tails_join_the_last_window() {
        let starts = |range: std::ops::Range<u64>| -> Vec<u64> {
            range
                .clone()
                .filter(|&k| window_starts(&range, k, 250))
                .collect()
        };
        assert_eq!(starts(100..1100), vec![100, 350, 600, 850]);
        // 800 ticks: a 50-tick tail joins the third window.
        assert_eq!(starts(0..800), vec![0, 250, 500]);
        // 900 ticks: a 150-tick tail is a window of its own.
        assert_eq!(starts(0..900), vec![0, 250, 500, 750]);
        assert_eq!(starts(0..100), vec![0]);
    }
}
