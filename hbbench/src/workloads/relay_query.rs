//! `relay_query`: relay writes against query reads. One raw producer
//! socket feeds a leaf collector at 512 000 beats/s (open loop, 8
//! pre-encoded 64-beat frames per 1 ms tick); the leaf relays upstream to
//! a root; one closed-loop client queries the root with a seeded mix
//! (snapshot 50 %, health 20 %, stats 20 %, metrics 10 %). Both collectors
//! run one reactor thread, so relay apply and query rendering share the
//! root's.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hb_net::{Collector, CollectorConfig, RemoteReader, UpstreamConfig};

use super::{
    connect_producer, insert_lag_ms, ms, overhead, pace_until, tick_schedule, timed_setups,
    wait_for, window_starts, Mark, Outcome, Params, Phase, Window, WindowStats, WINDOW_NS,
};
use crate::budget::Budget;
use crate::ledger::{self, Ledger};
use crate::replay::{self, Path};
use crate::seed::{FrameStream, Rng, FRAME_BEATS};
use crate::stats;
use crate::sys;
use crate::trace::{Span, Tracer, ROOT};

/// Frames written per tick. At twice this rate a two-CPU host sometimes
/// falls behind the query client badly enough that the leaf's uplink tap
/// sheds beats, and a workload must not fail operations.
const FRAMES_PER_TICK: u64 = 8;
/// Tick length.
const TICK_NS: u64 = 1_000_000;
/// Unmeasured ticks before the first phase.
const WARMUP_TICKS: u64 = 300;
/// Per-kind query metrics, in mix order.
const QUERY_P50_KEYS: [&str; 4] = [
    "client.query_us_p50.snapshot",
    "client.query_us_p50.health",
    "client.query_us_p50.stats",
    "client.query_us_p50.metrics",
];
/// Per-kind query span names, in mix order.
const QUERY_SPANS: [&str; 4] = [
    "client.query.snapshot",
    "client.query.health",
    "client.query.stats",
    "client.query.metrics",
];
/// Frames stamped for the layer replays.
const REPLAY_FRAMES: usize = 1024;

/// Draws the seeded query mix: snapshot 50 %, health 20 %, stats 20 %,
/// metrics 10 %.
pub fn query_mix(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| match rng.below(10) {
            0..=4 => 0,
            5 | 6 => 1,
            7 | 8 => 2,
            _ => 3,
        })
        .collect()
}

fn leaf_config(root: &Collector, node: &str) -> CollectorConfig {
    CollectorConfig {
        io_threads: 1,
        upstream: Some(UpstreamConfig::new(root.ingest_addr().to_string(), node)),
        ..CollectorConfig::default()
    }
}

struct Rig {
    root: Collector,
    leaf: Collector,
    node: String,
    app: String,
    producer: TcpStream,
    stream: FrameStream,
    reader: Arc<RemoteReader>,
    /// Beats written during set-up.
    primed: u64,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let mut rng = Rng::new(seed, 4);
        let node = rng.name("edge");
        let app = rng.name("relay");
        let root = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads: 1,
                ..CollectorConfig::default()
            },
        )
        .expect("bind root");
        let leaf = Collector::with_config("127.0.0.1:0", "127.0.0.1:0", leaf_config(&root, &node))
            .expect("bind leaf");
        let mut stream = FrameStream::new(&mut rng, 900, 155);
        let mut producer = connect_producer(leaf.ingest_addr(), &app);
        let mut frame = Vec::new();
        let primed = stream.stamp(&mut frame) as u64;
        producer.write_all(&frame).expect("prime the relay");
        let root_state = root.state();
        assert!(
            wait_for(Duration::from_secs(10), || root_state.beats_accounted()
                >= primed),
            "the relay never delivered the priming frame"
        );
        let reader = Arc::new(
            RemoteReader::connect(root.query_addr().to_string()).expect("connect query client"),
        );
        Rig {
            root,
            leaf,
            node,
            app,
            producer,
            stream,
            reader,
            primed,
        }
    }
}

/// What the query client measured.
struct Queried {
    /// `(phase, kind, ns)` per query.
    samples: Vec<(Phase, u8, u64)>,
    failed: u64,
    /// Query-thread CPU time per phase slot (plain, traced), in ns.
    cpu_ns: [u64; 2],
    spans: Vec<Span>,
}

fn phase_code(phase: Phase) -> u8 {
    match phase {
        Phase::Warmup => 0,
        Phase::Plain => 1,
        Phase::Traced => 2,
    }
}

fn phase_of(code: u8) -> Phase {
    match code {
        1 => Phase::Plain,
        2 => Phase::Traced,
        _ => Phase::Warmup,
    }
}

fn query_loop(
    reader: Arc<RemoteReader>,
    app: String,
    mix: Vec<u8>,
    epoch: Instant,
    trace: bool,
    phase: Arc<AtomicU8>,
    stop: Arc<AtomicBool>,
) -> Queried {
    let mut tracer = Tracer::new(epoch, 2, trace);
    let mut out = Queried {
        samples: Vec::with_capacity(1 << 20),
        failed: 0,
        cpu_ns: [0; 2],
        spans: Vec::new(),
    };
    let mut current = Phase::Warmup;
    let mut cpu_at = sys::thread_cpu_ns();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        // ordering: advisory stop flag
        let now_phase = phase_of(phase.load(Ordering::Relaxed)); // ordering: advisory phase flag
        if now_phase != current {
            let cpu = sys::thread_cpu_ns();
            if current != Phase::Warmup {
                out.cpu_ns[usize::from(current == Phase::Traced)] += cpu - cpu_at;
            }
            cpu_at = cpu;
            current = now_phase;
        }
        let kind = mix[i % mix.len()];
        i += 1;
        let span = if current == Phase::Traced {
            tracer.open(QUERY_SPANS[kind as usize], ROOT, i as u64)
        } else {
            ROOT
        };
        let started = Instant::now();
        let ok = match kind {
            0 => matches!(reader.snapshot(&app), Ok(Some(s)) if s.app == app),
            1 => matches!(reader.health(&app), Ok(Some(_))),
            2 => matches!(reader.stats(), Ok(s) if s.protocol_errors == 0),
            _ => matches!(reader.metrics(), Ok(text) if text.contains("hb_")),
        };
        let ns = started.elapsed().as_nanos() as u64;
        tracer.close(span);
        if ok {
            out.samples.push((current, kind, ns));
        } else {
            out.failed += 1;
        }
    }
    if current != Phase::Warmup {
        out.cpu_ns[usize::from(current == Phase::Traced)] += sys::thread_cpu_ns() - cpu_at;
    }
    out.spans = tracer.into_spans();
    out
}

/// Tracks when a collector has accounted for each batch.
struct BatchWatch {
    acc0: u64,
    next: usize,
    done_ns: Vec<u64>,
}

impl BatchWatch {
    fn poll(&mut self, accounted: u64, emitted: usize, now: u64) {
        let accounted = accounted - self.acc0;
        while self.next < emitted && accounted >= (self.next as u64 + 1) * FRAME_BEATS as u64 {
            self.done_ns[self.next] = now;
            self.next += 1;
        }
    }
}

/// Runs `relay_query`.
pub fn run(p: &Params) -> Outcome {
    let (rig, setup_times) = timed_setups(p.setups, || Rig::new(p.seed));
    let Rig {
        mut root,
        mut leaf,
        node,
        app,
        mut producer,
        mut stream,
        reader,
        primed,
    } = rig;
    let (root_state, leaf_state) = (root.state(), leaf.state());
    let root_app = format!("{node}/{app}");

    let schedule = tick_schedule(p, WARMUP_TICKS, TICK_NS);
    let ticks_per_window = WINDOW_NS / TICK_NS;
    let total_ticks = schedule.last().map(|(_, r)| r.end).unwrap_or(0);
    let total_batches = (total_ticks * FRAMES_PER_TICK) as usize;

    let epoch = Instant::now() + Duration::from_millis(2);
    let phase_flag = Arc::new(AtomicU8::new(phase_code(Phase::Warmup)));
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let mix = query_mix(&mut Rng::new(p.seed, 5), 4096);
        let (reader, app, phase_flag, stop) = (
            Arc::clone(&reader),
            root_app.clone(),
            Arc::clone(&phase_flag),
            Arc::clone(&stop),
        );
        let trace = p.trace;
        thread::Builder::new()
            .name("relay-query".into())
            .spawn(move || query_loop(reader, app, mix, epoch, trace, phase_flag, stop))
            .expect("spawn query client")
    };

    let mut tracer = Tracer::new(epoch, 1, p.trace);
    let mut leaf_watch = BatchWatch {
        acc0: leaf_state.beats_accounted(),
        next: 0,
        done_ns: vec![0; total_batches],
    };
    let mut root_watch = BatchWatch {
        acc0: root_state.beats_accounted(),
        next: 0,
        done_ns: vec![0; total_batches],
    };
    let mut late = vec![0u64; total_ticks as usize];
    let mut buf = Vec::with_capacity(FRAMES_PER_TICK as usize * 1024);
    let mut sent = primed;
    let mut inside_ns = 0u64;
    let mut phases = Vec::new();
    for (phase, range) in &schedule {
        let traced = *phase == Phase::Traced;
        phase_flag.store(phase_code(*phase), Ordering::Relaxed); // ordering: advisory phase flag
        let mut marks = Vec::new();
        for k in range.clone() {
            let emitted = (k * FRAMES_PER_TICK) as usize;
            pace_until(epoch, k * TICK_NS, |now| {
                leaf_watch.poll(leaf_state.beats_accounted(), emitted, now);
                root_watch.poll(root_state.beats_accounted(), emitted, now);
            });
            if *phase != Phase::Warmup && window_starts(range, k, ticks_per_window) {
                marks.push(Mark::take(&[&leaf_state, &root_state], inside_ns));
            }
            let now = epoch.elapsed().as_nanos() as u64;
            late[k as usize] = now - k * TICK_NS;
            let parent = if traced {
                tracer.open("gen.tick", ROOT, k)
            } else {
                ROOT
            };
            let span = if traced {
                tracer.open("gen.stamp", parent, k)
            } else {
                ROOT
            };
            buf.clear();
            for _ in 0..FRAMES_PER_TICK {
                sent += stream.stamp(&mut buf) as u64;
            }
            tracer.close(span);
            let span = if traced {
                tracer.open("net.write", parent, k)
            } else {
                ROOT
            };
            let cpu_started = sys::thread_cpu_ns();
            producer.write_all(&buf).expect("write frames");
            inside_ns += sys::thread_cpu_ns() - cpu_started;
            tracer.close(span);
            tracer.close(parent);
        }
        if *phase != Phase::Warmup {
            marks.push(Mark::take(&[&leaf_state, &root_state], inside_ns));
            phases.push((*phase, range.clone(), marks));
        }
    }
    phase_flag.store(phase_code(Phase::Warmup), Ordering::Relaxed); // ordering: advisory phase flag
    let drained = wait_for(p.drain, || {
        let now = epoch.elapsed().as_nanos() as u64;
        leaf_watch.poll(leaf_state.beats_accounted(), total_batches, now);
        root_watch.poll(root_state.beats_accounted(), total_batches, now);
        root_watch.next == total_batches
    });
    stop.store(true, Ordering::Relaxed); // ordering: advisory stop flag
    let queried = client.join().expect("query client thread");

    let leaf_applied = leaf_state
        .snapshot(&app)
        .map(|s| s.total_beats)
        .unwrap_or(0);
    let root_applied = root_state
        .snapshot(&root_app)
        .map(|s| s.total_beats)
        .unwrap_or(0);
    let tap_dropped = leaf_state
        .upstream_tap()
        .map(|t| t.dropped_beats())
        .unwrap_or(0);
    let mut ledger = Ledger::new();
    ledger::check_relay(&mut ledger, sent, leaf_applied, root_applied, tap_dropped);
    ledger.holds(
        "drained",
        drained,
        format!("{}/{total_batches} batches at the root", root_watch.next),
    );
    ledger.equal(
        "protocol_errors == 0 (leaf + root)",
        leaf_state.protocol_errors() + root_state.protocol_errors(),
        0,
    );
    ledger.equal("failed queries == 0", queried.failed, 0);
    let queries = queried.samples.len() as u64 + queried.failed;
    let mut out = Outcome {
        attempted: sent + queries,
        failed: sent.saturating_sub(root_applied) + queried.failed,
        setup_times,
        ..Outcome::default()
    };

    let m = &mut out.metrics;
    let mut lag_p50 = [0.0; 2];
    let mut cpu_per_beat = [0.0; 2];
    let mut query_cpu_per_beat = 0.0;
    for (phase, range, marks) in &phases {
        let slot = usize::from(*phase == Phase::Traced);
        let lags_of = |ticks_in: std::ops::Range<u64>| {
            let (mut relay, mut hop, mut apply) = (Vec::new(), Vec::new(), Vec::new());
            for j in (ticks_in.start * FRAMES_PER_TICK) as usize
                ..(ticks_in.end * FRAMES_PER_TICK) as usize
            {
                let due = j as u64 / FRAMES_PER_TICK * TICK_NS;
                let (at_leaf, at_root) = (leaf_watch.done_ns[j], root_watch.done_ns[j]);
                if at_root > 0 {
                    relay.push(at_root - due);
                }
                if at_leaf > 0 {
                    apply.push(at_leaf - due);
                    if at_root > 0 {
                        hop.push(at_root.saturating_sub(at_leaf));
                    }
                }
            }
            (relay, hop, apply)
        };
        let mut windows = WindowStats::default();
        for (w, pair) in marks.windows(2).enumerate() {
            let first = range.start + w as u64 * ticks_per_window;
            let last = w + 2 == marks.len();
            let window_ticks = first..if last {
                range.end
            } else {
                first + ticks_per_window
            };
            let beats =
                (window_ticks.end - window_ticks.start) * FRAMES_PER_TICK * FRAME_BEATS as u64;
            let (mut relay, _, _) = lags_of(window_ticks);
            let window = Window {
                start: pair[0].clone(),
                end: pair[1].clone(),
            };
            windows.push(&window, beats, &mut relay);
        }
        lag_p50[slot] = windows.lag_p50_ms();
        cpu_per_beat[slot] = windows.cpu_ns_per_beat();
        let whole = Window {
            start: marks[0].clone(),
            end: marks[marks.len() - 1].clone(),
        };
        let beats = (range.end - range.start) * FRAMES_PER_TICK * FRAME_BEATS as u64;
        let mut late: Vec<u64> = range.clone().map(|k| late[k as usize]).collect();
        late.sort_unstable();
        let late_p99 = ms(stats::tail(&late, 0.99).unwrap_or(0));
        if *phase == Phase::Plain {
            out.windows = std::mem::take(&mut windows);
            if !p.trace {
                out.report.push(format!(
                    "gen.late_ms_p99 {late_p99:.4}  gen.cpu_share {:.4}  queries {}",
                    whole.gen_cpu_share(),
                    queried.samples.len()
                ));
            }
            continue;
        }
        whole.record_layers(m);
        m.insert("gen.late_ms_p99", late_p99);
        let (_, mut hop, mut apply) = lags_of(range.clone());
        insert_lag_ms(
            m,
            "upstream.hop_lag_ms_p50",
            "upstream.hop_lag_ms_p99",
            &mut hop,
        );
        apply.sort_unstable();
        m.insert(
            "collector.apply_lag_ms_p50",
            ms(stats::percentile(&apply, 0.5).unwrap_or(0)),
        );
        query_cpu_per_beat = queried.cpu_ns[1] as f64 / beats as f64;
        let mut all: Vec<u64> = Vec::new();
        for (k, key) in QUERY_P50_KEYS.iter().enumerate() {
            let mut of_kind: Vec<u64> = queried
                .samples
                .iter()
                .filter(|(ph, kind, _)| *ph == Phase::Traced && *kind as usize == k)
                .map(|&(_, _, ns)| ns)
                .collect();
            all.extend_from_slice(&of_kind);
            of_kind.sort_unstable();
            m.insert(
                key,
                stats::percentile(&of_kind, 0.5).unwrap_or(0) as f64 / 1e3,
            );
        }
        let (p50, p99) = stats::p50_p99(&mut all);
        m.insert("client.query_us_p50", p50.unwrap_or(0) as f64 / 1e3);
        m.insert("client.query_us_p99", p99.unwrap_or(0) as f64 / 1e3);
    }
    if let Some(up) = leaf_state.upstream_stats() {
        m.insert("upstream.retransmits", up.retransmits() as f64);
        m.insert("upstream.reconnects", up.reconnects() as f64);
    }
    m.insert("upstream.dropped", tap_dropped as f64);
    m.insert(
        "collector.protocol_errors",
        (leaf_state.protocol_errors() + root_state.protocol_errors()) as f64,
    );

    if p.trace {
        let mut replay_stream = FrameStream::new(&mut Rng::new(p.seed, 6), 900, 155);
        let frames: Vec<Vec<u8>> = (0..REPLAY_FRAMES)
            .map(|_| {
                let mut frame = Vec::new();
                replay_stream.stamp(&mut frame);
                frame
            })
            .collect();
        let path = Path {
            health: true,
            ..Path::default()
        };
        let layers = replay::run(
            &mut tracer,
            path,
            &leaf_config(&root, &node),
            &app,
            &[],
            &frames,
            FRAMES_PER_TICK as usize,
        );
        layers.record(m);
        let crc = layers.crc_ns_per_beat();
        let cpu = Budget::new(
            "relay_query CPU budget",
            "ns/beat",
            "cpu_ns_per_beat (traced phase)",
            cpu_per_beat[1],
        )
        .row(
            "net.loopback x2 (producer->leaf, leaf->root)",
            2.0 * layers.loopback_ns_per_frame / FRAME_BEATS as f64,
        )
        .row("crc x2", 2.0 * crc)
        .row(
            "frame.decode (excl. crc) x2",
            2.0 * (layers.decode_ns_per_beat - crc),
        )
        .row(
            "collector.ingest x2 (leaf ingest, root apply)",
            2.0 * layers.ingest_ns_per_beat,
        )
        .row(
            "client queries (query thread CPU per beat)",
            query_cpu_per_beat,
        );
        let lag = Budget::new(
            "relay_query latency budget",
            "ms",
            "delivery_lag_ms_p50 (traced phase)",
            lag_p50[1],
        )
        .row(
            "collector.apply_lag_ms_p50 (due -> leaf)",
            m["collector.apply_lag_ms_p50"],
        )
        .row(
            "upstream.hop_lag_ms_p50 (leaf -> root)",
            m["upstream.hop_lag_ms_p50"],
        );
        m.insert("budget.layer_sum_ns_per_beat", cpu.sum());
        m.insert("budget.residual_share", cpu.residual_share());
        m.insert("trace.overhead_lag_share", overhead(lag_p50[0], lag_p50[1]));
        m.insert(
            "trace.overhead_cpu_share",
            overhead(cpu_per_beat[0], cpu_per_beat[1]),
        );
        out.report.extend(lag.render());
        out.report.extend(cpu.render());
        out.report.push(super::overhead_line(lag_p50, cpu_per_beat));
    }
    out.ledger = ledger;
    let mut spans = tracer.into_spans();
    spans.extend(queried.spans);
    out.spans = spans;
    drop(producer);
    drop(reader);
    leaf.shutdown();
    root.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_matches_its_shares() {
        let mix = query_mix(&mut Rng::new(9, 5), 100_000);
        let share = |k: u8| mix.iter().filter(|&&x| x == k).count() as f64 / mix.len() as f64;
        for (kind, want) in [(0, 0.5), (1, 0.2), (2, 0.2), (3, 0.1)] {
            assert!(
                (share(kind) - want).abs() < 0.01,
                "kind {kind}: {}",
                share(kind)
            );
        }
        assert_eq!(mix, query_mix(&mut Rng::new(9, 5), 100_000));
    }
}
