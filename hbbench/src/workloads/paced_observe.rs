//! `paced_observe`: the paper's use case. One application beats through a
//! real `Heartbeat` with a `TcpBackend` attached — a burst of 50 beats
//! every 1 ms (open loop, 50 000 beats/s) — while one remote observer
//! subscribed with `Interest::BEATS` receives every beat.
//!
//! Load generator: the app thread and the observer thread, over the
//! backend's connection and the observer's connection. The backend
//! flusher, the observer's demux thread and the reactor shards belong to
//! the system under test.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hb_net::wire::EventPayload;
use hb_net::{
    BatchEncoder, Collector, CollectorConfig, CollectorState, FaultConfig, FaultProxy,
    HistoSnapshot, RemoteReader, Subscription, TcpBackend,
};
use heartbeats::observe::{Interest, ObserveFilter};
use heartbeats::{Backend, Heartbeat, HeartbeatBuilder, Tag};

use super::{
    insert_lag_ms, ms, overhead, pace_until, seeded_app_on_shard, tick_schedule, timed_setups,
    wait_for, window_starts, Mark, Outcome, Params, Phase, Window, WindowStats, WINDOW_NS,
};
use crate::budget::Budget;
use crate::ledger::{self, Ledger};
use crate::replay::{self, Path};
use crate::seed::{self, Rng};
use crate::stats;
use crate::sys;
use crate::trace::{Tracer, ROOT};

/// Beats per tick.
const BURST: u64 = 50;
/// Tick length.
const TICK_NS: u64 = 1_000_000;
/// Unmeasured ticks before the first phase.
const WARMUP_TICKS: u64 = 200;

struct Rig {
    collector: Collector,
    state: Arc<CollectorState>,
    backend: Arc<TcpBackend>,
    hb: Heartbeat,
    sub: Subscription,
    _reader: Arc<RemoteReader>,
    _proxy: Option<FaultProxy>,
    /// Beats the subscriber received during set-up.
    primed: u64,
}

impl Rig {
    fn new(app: &str, proxy: Option<&FaultConfig>) -> Rig {
        let collector =
            Collector::with_config("127.0.0.1:0", "127.0.0.1:0", CollectorConfig::default())
                .expect("bind collector");
        let state = collector.state();
        let proxy =
            proxy.map(|cfg| FaultProxy::spawn(collector.ingest_addr().to_string(), cfg.clone()));
        let target = proxy
            .as_ref()
            .map(|p| p.addr().to_string())
            .unwrap_or_else(|| collector.ingest_addr().to_string());
        let reader = Arc::new(
            RemoteReader::connect(collector.query_addr().to_string()).expect("connect observer"),
        );
        let sub = reader
            .subscribe(app, &ObserveFilter::new(Interest::BEATS))
            .expect("subscribe to beats");
        let backend = Arc::new(TcpBackend::new(target, app));
        let hb = HeartbeatBuilder::new(app)
            .backend(Arc::clone(&backend) as Arc<dyn Backend>)
            .build()
            .expect("build heartbeat");
        // The priming beat connects the backend, negotiates compact framing
        // and proves the push path end to end.
        hb.heartbeat();
        let primed = sub
            .next_timeout(Duration::from_secs(5))
            .map(|event| beats_in(&event.payload).len() as u64)
            .unwrap_or(0);
        Rig {
            collector,
            state,
            backend,
            hb,
            sub,
            _reader: reader,
            _proxy: proxy,
            primed,
        }
    }
}

fn beats_in(payload: &EventPayload) -> &[hb_net::WireBeat] {
    match payload {
        EventPayload::Beats { beats, .. } => beats,
        _ => &[],
    }
}

/// The per-beat receive-time buffer, kept across repetitions. Allocated
/// afresh each time, this one large buffer lands in the peak RSS or not
/// depending on the allocator's state, which moved `peak_rss_mb` by 0.7
/// MiB between otherwise identical runs.
static RECV_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// What the observer thread saw.
struct Observed {
    /// Receive time (ns since the epoch) per beat index, `u64::MAX` if
    /// never received.
    recv_ns: Vec<u64>,
    received: u64,
    delivery: HistoSnapshot,
    lost: u64,
    spans: Vec<crate::trace::Span>,
}

#[allow(clippy::too_many_arguments)]
fn observe(
    sub: Subscription,
    base: u64,
    mut recv_ns: Vec<u64>,
    epoch: Instant,
    trace: bool,
    tracing: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    expect: Arc<AtomicU64>,
) -> Observed {
    let mut tracer = Tracer::new(epoch, 2, trace);
    let capacity = recv_ns.len();
    let mut received = 0u64;
    let mut quiet_since: Option<Instant> = None;
    loop {
        let traced = tracing.load(Ordering::Relaxed); // ordering: advisory phase flag
        let span = if traced {
            tracer.open("client.next_event", ROOT, received)
        } else {
            ROOT
        };
        let event = sub.next_timeout(Duration::from_millis(20));
        tracer.close(span);
        match event {
            Some(event) => {
                quiet_since = None;
                let now = epoch.elapsed().as_nanos() as u64;
                for beat in beats_in(&event.payload) {
                    let index = beat.record.seq.wrapping_sub(base) as usize;
                    if index < capacity {
                        recv_ns[index] = now;
                        received += 1;
                    }
                }
            }
            None if stop.load(Ordering::Acquire) => {
                // ordering: pairs with the Release store after `expect`
                if received >= expect.load(Ordering::Relaxed) {
                    break;
                }
                let since = *quiet_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_secs(2) {
                    break;
                }
            }
            None => {}
        }
    }
    Observed {
        recv_ns,
        received,
        delivery: sub.delivery_lag(),
        lost: sub.lost(),
        spans: tracer.into_spans(),
    }
}

/// Tracks when the collector has accounted for each tick's beats.
struct ShipWatch {
    acc0: u64,
    next: usize,
    done_ns: Vec<u64>,
}

impl ShipWatch {
    fn poll(&mut self, state: &CollectorState, emitted: usize, now: u64) {
        let accounted = state.beats_accounted() - self.acc0;
        while self.next < emitted && accounted >= (self.next as u64 + 1) * BURST {
            self.done_ns[self.next] = now;
            self.next += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Tick {
    start_ns: u64,
    burst_ns: u64,
    bare_ns: u64,
}

/// Runs `paced_observe`.
pub fn run(p: &Params) -> Outcome {
    let mut rng = Rng::new(p.seed, 1);
    // The observer's subscription connection is the collector's second
    // accept (`RemoteReader::subscribe` opens a fresh connection), so the
    // round-robin acceptor hands it to reactor shard 1; the app is homed
    // on shard 0. The push path then runs on a shard that no producer
    // traffic wakes: the paper's external observer, independent of the
    // application.
    let app = seeded_app_on_shard(&CollectorConfig::default(), &mut rng, "paced", 0);
    let tags: Vec<Tag> = (0..4096).map(|_| rng.tag()).collect();
    let (rig, setup_times) = timed_setups(p.setups, || Rig::new(&app, p.proxy.as_ref()));
    let Rig {
        mut collector,
        state,
        backend,
        hb,
        sub,
        _reader,
        _proxy,
        primed,
    } = rig;

    let schedule = tick_schedule(p, WARMUP_TICKS, TICK_NS);
    let total = schedule.last().map(|(_, r)| r.end).unwrap_or(0) as usize;
    let ticks_per_window = WINDOW_NS / TICK_NS;

    let epoch = Instant::now() + Duration::from_millis(2);
    let base = hb.total_beats();
    let tracing = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let expect = Arc::new(AtomicU64::new(u64::MAX));
    let observer = {
        let (tracing, stop, expect) =
            (Arc::clone(&tracing), Arc::clone(&stop), Arc::clone(&expect));
        let mut recv_ns = std::mem::take(&mut *RECV_NS.lock().expect("receive buffer lock"));
        recv_ns.clear();
        recv_ns.resize(total * BURST as usize, u64::MAX);
        let trace = p.trace;
        thread::Builder::new()
            .name("paced-observer".into())
            .spawn(move || observe(sub, base, recv_ns, epoch, trace, tracing, stop, expect))
            .expect("spawn observer")
    };

    let bare = HeartbeatBuilder::new(format!("{app}-bare"))
        .build()
        .expect("build bare heartbeat");
    let mut tracer = Tracer::new(epoch, 1, p.trace);
    let mut ticks = vec![Tick::default(); total];
    let mut watch = ShipWatch {
        acc0: state.beats_accounted(),
        next: 0,
        done_ns: vec![0; total],
    };
    let mut queue_max = 0usize;
    let mut inside_ns = 0u64;
    let mut phases = Vec::new();
    for (phase, range) in &schedule {
        let traced = *phase == Phase::Traced;
        tracing.store(traced, Ordering::Relaxed); // ordering: advisory phase flag
        let mut marks = Vec::new();
        for k in range.clone() {
            let emitted = k as usize;
            pace_until(epoch, k * TICK_NS, |now| watch.poll(&state, emitted, now));
            if *phase != Phase::Warmup && window_starts(range, k, ticks_per_window) {
                marks.push(Mark::take(&[&state], inside_ns));
            }
            let tick_span = if traced {
                tracer.open("tick", ROOT, k)
            } else {
                ROOT
            };
            let started = Instant::now();
            let cpu_started = sys::thread_cpu_ns();
            let span = if traced {
                tracer.open("heartbeats+backend", tick_span, k)
            } else {
                ROOT
            };
            for i in 0..BURST {
                hb.heartbeat_tagged(tags[((k * BURST + i) % 4096) as usize]);
            }
            let burst_ns = started.elapsed().as_nanos() as u64;
            inside_ns += sys::thread_cpu_ns() - cpu_started;
            tracer.close(span);
            let tick = &mut ticks[k as usize];
            tick.start_ns = started.saturating_duration_since(epoch).as_nanos() as u64;
            tick.burst_ns = burst_ns;
            if traced {
                let span = tracer.open("heartbeats", tick_span, k);
                let bare_started = Instant::now();
                for i in 0..BURST {
                    bare.heartbeat_tagged(tags[((k * BURST + i) % 4096) as usize]);
                }
                tick.bare_ns = bare_started.elapsed().as_nanos() as u64;
                tracer.close(span);
                let len = tracer.time("backend.queue_len", tick_span, k, || backend.queue_len());
                queue_max = queue_max.max(len);
                tracer.close(tick_span);
            }
        }
        if *phase != Phase::Warmup {
            marks.push(Mark::take(&[&state], inside_ns));
            phases.push((*phase, range.clone(), marks));
        }
    }
    tracing.store(false, Ordering::Relaxed); // ordering: advisory phase flag
    let drained = wait_for(p.drain, || {
        let now = epoch.elapsed().as_nanos() as u64;
        watch.poll(&state, total, now);
        watch.next == total
    });

    let produced = hb.total_beats();
    let applied = state.snapshot(&app).map(|s| s.total_beats).unwrap_or(0);
    let shed = backend.dropped_beats();
    expect.store(applied.saturating_sub(primed), Ordering::Relaxed); // ordering: published by the Release below
    stop.store(true, Ordering::Release); // ordering: pairs with the observer's Acquire
    let observed = observer.join().expect("observer thread");
    let received = primed + observed.received;

    let mut out = Outcome {
        attempted: produced,
        failed: produced.saturating_sub(received),
        setup_times,
        ..Outcome::default()
    };
    let mut ledger = Ledger::new();
    ledger::check_paced(&mut ledger, produced, applied, shed, received);
    ledger.holds(
        "drained",
        drained,
        format!("{}/{total} ticks accounted", watch.next),
    );
    ledger.equal("protocol_errors == 0", state.protocol_errors(), 0);
    ledger.equal("observer lost == 0", observed.lost, 0);

    let m = &mut out.metrics;
    let mut observe_p50 = [0.0; 2];
    let mut cpu_per_beat = [0.0; 2];
    for (phase, range, marks) in &phases {
        let slot = usize::from(*phase == Phase::Traced);
        let lags_of = |ticks_in: std::ops::Range<u64>| -> (Vec<u64>, Vec<u64>) {
            let (mut observe, mut push) = (Vec::new(), Vec::new());
            for k in ticks_in {
                let shipped = watch.done_ns[k as usize];
                for i in 0..BURST {
                    let recv = observed.recv_ns[(k * BURST + i) as usize];
                    if recv != u64::MAX {
                        observe.push(recv.saturating_sub(k * TICK_NS));
                        if shipped > 0 {
                            push.push(recv.saturating_sub(shipped));
                        }
                    }
                }
            }
            (observe, push)
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
            let beats = (window_ticks.end - window_ticks.start) * BURST;
            let (mut observe, _) = lags_of(window_ticks);
            let window = Window {
                start: pair[0].clone(),
                end: pair[1].clone(),
            };
            windows.push(&window, beats, &mut observe);
        }
        observe_p50[slot] = windows.lag_p50_ms();
        cpu_per_beat[slot] = windows.cpu_ns_per_beat();
        let whole = Window {
            start: marks[0].clone(),
            end: marks[marks.len() - 1].clone(),
        };
        let mut late: Vec<u64> = range
            .clone()
            .map(|k| ticks[k as usize].start_ns.saturating_sub(k * TICK_NS))
            .collect();
        late.sort_unstable();
        let late_p99 = ms(stats::tail(&late, 0.99).unwrap_or(0));
        if *phase == Phase::Plain {
            out.windows = std::mem::take(&mut windows);
            if !p.trace {
                out.report.push(format!(
                    "gen.late_ms_p99 {late_p99:.4}  gen.cpu_share {:.4}  app {app}",
                    whole.gen_cpu_share()
                ));
            }
            continue;
        }
        whole.record_layers(m);
        m.insert("gen.late_ms_p99", late_p99);
        let (_, mut push) = lags_of(range.clone());
        let mut ship: Vec<u64> = range
            .clone()
            .filter(|&k| watch.done_ns[k as usize] > 0)
            .map(|k| watch.done_ns[k as usize] - k * TICK_NS)
            .collect();
        insert_lag_ms(
            m,
            "backend.ship_lag_ms_p50",
            "backend.ship_lag_ms_p99",
            &mut ship,
        );
        insert_lag_ms(
            m,
            "subscribe.push_lag_ms_p50",
            "subscribe.push_lag_ms_p99",
            &mut push,
        );
        let mut calls: Vec<u64> = range
            .clone()
            .map(|k| ticks[k as usize].burst_ns / BURST)
            .collect();
        let mut bares: Vec<u64> = range
            .clone()
            .map(|k| ticks[k as usize].bare_ns / BURST)
            .collect();
        calls.sort_unstable();
        bares.sort_unstable();
        let call = stats::percentile(&calls, 0.5).unwrap_or(0) as f64;
        let bare_ns = stats::percentile(&bares, 0.5).unwrap_or(0) as f64;
        m.insert("heartbeats.beat_call_ns_p50", call);
        m.insert("heartbeats.beat_ns_p50", bare_ns);
        m.insert("backend.enqueue_ns_p50", (call - bare_ns).max(0.0));
        m.insert("backend.queue_len_max", queue_max as f64);
        m.insert(
            "backend.beats_per_frame",
            whole.accounted() as f64 / whole.frames().max(1) as f64,
        );
    }
    m.insert("backend.dropped", shed as f64);
    m.insert("collector.protocol_errors", state.protocol_errors() as f64);
    m.insert(
        "subscribe.events_dropped",
        state.events_dropped_total() as f64,
    );
    m.insert(
        "client.delivery_lag_ms_p50",
        ms(stats::histo_percentile(&observed.delivery, 0.5).unwrap_or(0)),
    );

    if p.trace {
        let batches = seed::paced_batches(&mut rng, 256, BURST, TICK_NS);
        let mut encoder = BatchEncoder::new();
        let frames: Vec<Vec<u8>> = batches
            .iter()
            .map(|beats| {
                encoder.begin_compact(0);
                for beat in beats {
                    encoder.push(beat);
                }
                encoder.finish().to_vec()
            })
            .collect();
        let path = Path {
            encode: true,
            fanout: true,
            health: false,
        };
        let layers = replay::run(
            &mut tracer,
            path,
            &CollectorConfig::default(),
            &app,
            &batches,
            &frames,
            1,
        );
        layers.record(m);

        let per_frame = m["backend.beats_per_frame"].max(1.0);
        let crc = layers.crc_ns_per_beat();
        let cpu = Budget::new(
            "paced_observe CPU budget",
            "ns/beat",
            "cpu_ns_per_beat (traced phase)",
            cpu_per_beat[1],
        )
        .row("heartbeats.beat_ns_p50", m["heartbeats.beat_ns_p50"])
        .row("backend.enqueue_ns_p50", m["backend.enqueue_ns_p50"])
        .row("wire.encode (excl. crc)", layers.encode_ns_per_beat - crc)
        .row("crc x2 (encode, decode)", 2.0 * crc)
        .row(
            "net.loopback (per frame / beats per frame)",
            layers.loopback_ns_per_frame / per_frame,
        )
        .row("frame.decode (excl. crc)", layers.decode_ns_per_beat - crc)
        .row("collector.ingest", layers.ingest_ns_per_beat)
        .row(
            "subscribe.fanout (per batch / beats per frame)",
            layers.fanout_ns_per_batch / per_frame,
        );
        let lag = Budget::new(
            "paced_observe latency budget",
            "ms",
            "delivery_lag_ms_p50 (traced phase)",
            observe_p50[1],
        )
        .row("backend.ship_lag_ms_p50", m["backend.ship_lag_ms_p50"])
        .row("subscribe.push_lag_ms_p50", m["subscribe.push_lag_ms_p50"]);
        m.insert("budget.layer_sum_ns_per_beat", cpu.sum());
        m.insert("budget.residual_share", cpu.residual_share());
        out.report.extend(lag.render());
        out.report.extend(cpu.render());
        m.insert(
            "trace.overhead_lag_share",
            overhead(observe_p50[0], observe_p50[1]),
        );
        m.insert(
            "trace.overhead_cpu_share",
            overhead(cpu_per_beat[0], cpu_per_beat[1]),
        );
        out.report
            .push(super::overhead_line(observe_p50, cpu_per_beat));
    }

    out.ledger = ledger;
    let mut spans = tracer.into_spans();
    spans.extend(observed.spans);
    out.spans = spans;
    *RECV_NS.lock().expect("receive buffer lock") = observed.recv_ns;
    drop(hb);
    drop(backend);
    collector.shutdown();
    out
}
