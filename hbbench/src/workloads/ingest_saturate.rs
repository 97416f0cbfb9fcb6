//! `ingest_saturate`: collector capacity. One generator thread drives two
//! raw sockets, each a different app homed on a different reactor shard,
//! with v3 compact frames pre-encoded at set-up. Closed loop: a socket
//! gets its next chunk only while fewer than [`WINDOW_FRAMES`] of its
//! frames are undecoded by its shard, so a slow shard never holds back
//! the other. Producer layers, encoding and subscriptions are bypassed;
//! reactor, frame decode, CRC and ingest carry the load.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hb_net::{Collector, CollectorConfig, CollectorState};

use super::{
    connect_producer, ms, overhead, seeded_app_on_shard, timed_setups, wait_for, Mark, Outcome,
    Params, Phase, Window, WindowStats, SLICE, WINDOW_NS,
};
use crate::budget::Budget;
use crate::ledger::Ledger;
use crate::replay::{self, Path};
use crate::seed::{FrameStream, Rng, FRAME_BEATS};
use crate::stats;
use crate::sys;
use crate::trace::{Tracer, ROOT};

/// Frames per write.
const CHUNK_FRAMES: usize = 8;
/// Frames in flight allowed per socket.
const WINDOW_FRAMES: u64 = 128;
/// Unmeasured load before the first phase.
const WARMUP: Duration = Duration::from_millis(500);
/// Upper bound on chunks written per second (about 50 M beats/s), for
/// sizing sample buffers.
const MAX_CHUNKS_PER_S: u64 = 100_000;
/// Frames stamped for the layer replays.
const REPLAY_FRAMES: usize = 1024;

struct Rig {
    collector: Collector,
    state: Arc<CollectorState>,
    apps: Vec<String>,
    sockets: Vec<TcpStream>,
    streams: Vec<FrameStream>,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let collector =
            Collector::with_config("127.0.0.1:0", "127.0.0.1:0", CollectorConfig::default())
                .expect("bind collector");
        let state = collector.state();
        let mut rng = Rng::new(seed, 2);
        // One app per reactor shard, so both shards carry load.
        let apps: Vec<String> = (0..state.io_threads().min(2))
            .map(|shard| {
                seeded_app_on_shard(&CollectorConfig::default(), &mut rng, "ingest", shard)
            })
            .collect();
        let streams = apps
            .iter()
            .map(|_| FrameStream::new(&mut rng, 100, 64))
            .collect();
        let sockets = apps
            .iter()
            .map(|app| connect_producer(collector.ingest_addr(), app))
            .collect();
        Rig {
            collector,
            state,
            apps,
            sockets,
            streams,
        }
    }
}

/// Runs `ingest_saturate`.
pub fn run(p: &Params) -> Outcome {
    let (rig, setup_times) = timed_setups(p.setups, || Rig::new(p.seed));
    let Rig {
        mut collector,
        state,
        apps,
        mut sockets,
        mut streams,
    } = rig;
    let n = sockets.len();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 1, p.trace);
    let acc0 = state.beats_accounted();
    // Socket `s` carries the app homed on reactor shard `s`; that shard's
    // decoded-frame counter tells how much of its stream is in.
    let frames0: Vec<u64> = state.shard_counters().iter().map(|&(_, f)| f).collect();
    let mut sent_frames = vec![0u64; n];
    let mut pending: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); n];
    let mut buf = Vec::with_capacity(CHUNK_FRAMES * 1024);
    let mut chunk = 0u64;
    let mut inside_ns = 0u64;

    let mut schedule = vec![(Phase::Warmup, WARMUP)];
    schedule.extend(p.phases());
    let mut phases = Vec::new();
    for (phase, length) in schedule {
        let traced = phase == Phase::Traced;
        let started = Instant::now();
        let end = started + length;
        let mut next_window = started + Duration::from_nanos(WINDOW_NS);
        let mut marks = vec![Mark::take(&[&state], inside_ns)];
        // Sample buffers are sized up front for a generous chunk rate, so
        // they never reallocate: untouched capacity costs no RSS, while
        // growth by reallocation made `peak_rss_mb` jump between runs.
        let window_capacity = (MAX_CHUNKS_PER_S * WINDOW_NS / 1_000_000_000) as usize;
        let mut lags: Vec<Vec<u64>> = vec![Vec::with_capacity(window_capacity)];
        let mut late =
            Vec::with_capacity((MAX_CHUNKS_PER_S as f64 * length.as_secs_f64()) as usize);
        loop {
            let instant = Instant::now();
            if instant >= end {
                break;
            }
            // A tail shorter than half a window joins the last window.
            if instant >= next_window && end - instant >= Duration::from_nanos(WINDOW_NS / 2) {
                marks.push(Mark::take(&[&state], inside_ns));
                lags.push(Vec::with_capacity(window_capacity));
                next_window += Duration::from_nanos(WINDOW_NS);
            }
            let decoded = state.shard_counters();
            let now = epoch.elapsed().as_nanos() as u64;
            let window_lags = lags.last_mut().expect("one window per phase at least");
            let mut wrote = false;
            for s in 0..n {
                let done = decoded[s].1 - frames0[s];
                while let Some(&(covers, at)) = pending[s].front() {
                    if done < covers {
                        break;
                    }
                    window_lags.push(now - at);
                    pending[s].pop_front();
                }
                if sent_frames[s] - done + CHUNK_FRAMES as u64 > WINDOW_FRAMES {
                    continue;
                }
                chunk += 1;
                let parent = if traced {
                    tracer.open("gen.chunk", ROOT, chunk)
                } else {
                    ROOT
                };
                let span = if traced {
                    tracer.open("gen.stamp", parent, chunk)
                } else {
                    ROOT
                };
                buf.clear();
                for _ in 0..CHUNK_FRAMES {
                    streams[s].stamp(&mut buf);
                }
                tracer.close(span);
                let span = if traced {
                    tracer.open("net.write", parent, chunk)
                } else {
                    ROOT
                };
                let cpu_started = sys::thread_cpu_ns();
                sockets[s].write_all(&buf).expect("write frames");
                inside_ns += sys::thread_cpu_ns() - cpu_started;
                tracer.close(span);
                tracer.close(parent);
                sent_frames[s] += CHUNK_FRAMES as u64;
                let written = epoch.elapsed().as_nanos() as u64;
                pending[s].push_back((sent_frames[s], written));
                late.push(written - now);
                wrote = true;
            }
            if !wrote {
                std::thread::sleep(SLICE);
            }
        }
        marks.push(Mark::take(&[&state], inside_ns));
        if phase != Phase::Warmup {
            phases.push((phase, marks, lags, late));
        }
    }
    let sent_per: Vec<u64> = sent_frames.iter().map(|f| f * FRAME_BEATS as u64).collect();
    let sent: u64 = sent_per.iter().sum();
    let drained = wait_for(p.drain, || state.beats_accounted() - acc0 >= sent);

    let mut ledger = Ledger::new();
    let accounted = state.beats_accounted() - acc0;
    ledger.equal("sent == beats_accounted", sent, accounted);
    ledger.holds(
        "drained",
        drained,
        format!("{accounted}/{sent} beats accounted"),
    );
    for (app, &app_sent) in apps.iter().zip(&sent_per) {
        let applied = state.snapshot(app).map(|s| s.total_beats).unwrap_or(0);
        ledger.equal("app sent == app applied", app_sent, applied);
    }
    ledger.equal("protocol_errors == 0", state.protocol_errors(), 0);
    let mut out = Outcome {
        attempted: sent,
        failed: sent.saturating_sub(accounted),
        setup_times,
        ..Outcome::default()
    };

    let m = &mut out.metrics;
    let mut lag_p50 = [0.0; 2];
    let mut cpu_per_beat = [0.0; 2];
    for (phase, marks, mut lags, mut late) in phases {
        let slot = usize::from(phase == Phase::Traced);
        let mut windows = WindowStats::default();
        for (pair, window_lags) in marks.windows(2).zip(lags.iter_mut()) {
            let window = Window {
                start: pair[0].clone(),
                end: pair[1].clone(),
            };
            windows.push(&window, window.accounted(), window_lags);
        }
        lag_p50[slot] = windows.lag_p50_ms();
        cpu_per_beat[slot] = windows.cpu_ns_per_beat();
        let whole = Window {
            start: marks[0].clone(),
            end: marks[marks.len() - 1].clone(),
        };
        late.sort_unstable();
        let late_p99 = ms(stats::tail(&late, 0.99).unwrap_or(0));
        if phase == Phase::Plain {
            out.windows = std::mem::take(&mut windows);
            if !p.trace {
                out.report.push(format!(
                    "gen.late_ms_p99 {late_p99:.4}  gen.cpu_share {:.4}  apps {apps:?}",
                    whole.gen_cpu_share()
                ));
            }
            continue;
        }
        whole.record_layers(m);
        m.insert("gen.late_ms_p99", late_p99);
        let mut all: Vec<u64> = lags.concat();
        all.sort_unstable();
        m.insert(
            "collector.apply_lag_ms_p50",
            ms(stats::percentile(&all, 0.5).unwrap_or(0)),
        );
    }
    m.insert("collector.protocol_errors", state.protocol_errors() as f64);

    if p.trace {
        let mut replay_stream = FrameStream::new(&mut Rng::new(p.seed, 3), 100, 64);
        let frames: Vec<Vec<u8>> = (0..REPLAY_FRAMES)
            .map(|_| {
                let mut frame = Vec::new();
                replay_stream.stamp(&mut frame);
                frame
            })
            .collect();
        let layers = replay::run(
            &mut tracer,
            Path::default(),
            &CollectorConfig::default(),
            &apps[0],
            &[],
            &frames,
            CHUNK_FRAMES,
        );
        layers.record(m);
        let crc = layers.crc_ns_per_beat();
        let cpu = Budget::new(
            "ingest_saturate CPU budget",
            "ns/beat",
            "cpu_ns_per_beat (traced phase)",
            cpu_per_beat[1],
        )
        .row(
            "net.loopback (write + read, per beat)",
            layers.loopback_ns_per_frame / FRAME_BEATS as f64,
        )
        .row("crc", crc)
        .row("frame.decode (excl. crc)", layers.decode_ns_per_beat - crc)
        .row("collector.ingest", layers.ingest_ns_per_beat);
        m.insert("budget.layer_sum_ns_per_beat", cpu.sum());
        m.insert("budget.residual_share", cpu.residual_share());
        m.insert("trace.overhead_lag_share", overhead(lag_p50[0], lag_p50[1]));
        m.insert(
            "trace.overhead_cpu_share",
            overhead(cpu_per_beat[0], cpu_per_beat[1]),
        );
        out.report.extend(cpu.render());
        out.report.push(super::overhead_line(lag_p50, cpu_per_beat));
        out.report
            .push(format!("apps {apps:?} (one per reactor shard)"));
    }
    out.ledger = ledger;
    out.spans = tracer.into_spans();
    drop(sockets);
    collector.shutdown();
    out
}
