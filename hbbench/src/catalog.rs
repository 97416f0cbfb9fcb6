//! The benchmark's workloads and metrics: the one list that `--list`, the
//! result printer and `BENCHMARK.json` must agree on.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists.
    pub why: &'static str,
}

/// Every workload.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paced_observe",
        why: "an app beats 50k/s through Heartbeat+TcpBackend while a remote subscriber reacts: producer layers and the push path",
    },
    Workload {
        name: "ingest_saturate",
        why: "two raw sockets replay pre-encoded v3 frames in a closed loop: collector capacity (reactor, decode, CRC, ingest)",
    },
    Workload {
        name: "relay_query",
        why: "512k beats/s through a leaf to a root while a closed-loop client queries the root: relay writes against query reads",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_beats_per_s", "1/s", Higher, 0.25),
    e2e("delivery_lag_ms_p50", "ms", Lower, 0.25),
    e2e("delivery_lag_ms_p90", "ms", Lower, 0.25),
    e2e("cpu_ns_per_beat", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not pass through reads 0 on that workload.
pub const PER_LAYER: &[Metric] = &[
    layer("heartbeats.beat_ns_p50", "ns", Lower),
    layer("heartbeats.beat_call_ns_p50", "ns", Lower),
    layer("backend.enqueue_ns_p50", "ns", Lower),
    layer("backend.ship_lag_ms_p50", "ms", Lower),
    layer("backend.ship_lag_ms_p99", "ms", Lower),
    layer("backend.queue_len_max", "count", Lower),
    layer("backend.beats_per_frame", "count", Higher),
    layer("backend.dropped", "count", Lower),
    layer("wire.encode_ns_per_beat", "ns", Lower),
    layer("wire.bytes_per_beat", "B", Lower),
    layer("frame.decode_ns_per_beat", "ns", Lower),
    layer("crc.ns_per_byte", "ns", Lower),
    layer("collector.ingest_ns_per_beat", "ns", Lower),
    layer("collector.apply_lag_ms_p50", "ms", Lower),
    layer("collector.protocol_errors", "count", Lower),
    layer("collector.frames", "count", Lower),
    layer("reactor.busy_share", "ratio", Lower),
    layer("reactor.dispatches_per_loop", "count", Higher),
    layer("reactor.shard_skew", "ratio", Lower),
    layer("net.loopback_ns_per_frame", "ns", Lower),
    layer("subscribe.push_lag_ms_p50", "ms", Lower),
    layer("subscribe.push_lag_ms_p99", "ms", Lower),
    layer("subscribe.fanout_ns_per_batch", "ns", Lower),
    layer("subscribe.events_dropped", "count", Lower),
    layer("client.delivery_lag_ms_p50", "ms", Lower),
    layer("client.query_us_p50", "us", Lower),
    layer("client.query_us_p99", "us", Lower),
    layer("client.query_us_p50.snapshot", "us", Lower),
    layer("client.query_us_p50.health", "us", Lower),
    layer("client.query_us_p50.stats", "us", Lower),
    layer("client.query_us_p50.metrics", "us", Lower),
    layer("health.assess_ns", "ns", Lower),
    layer("upstream.hop_lag_ms_p50", "ms", Lower),
    layer("upstream.hop_lag_ms_p99", "ms", Lower),
    layer("upstream.dropped", "count", Lower),
    layer("upstream.retransmits", "count", Lower),
    layer("upstream.reconnects", "count", Lower),
    layer("gen.late_ms_p99", "ms", Lower),
    layer("gen.cpu_share", "ratio", Lower),
    layer("proc.cpu_s", "s", Lower),
    layer("proc.ctx_switches_invol", "count", Lower),
    layer("budget.layer_sum_ns_per_beat", "ns", Lower),
    layer("budget.residual_share", "ratio", Lower),
    layer("trace.overhead_lag_share", "ratio", Lower),
    layer("trace.overhead_cpu_share", "ratio", Lower),
    layer("failed_ratio", "ratio", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `--list` text: one line per workload and per metric.
pub fn listing() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("workload  {:<34} {}\n", w.name, w.why));
    }
    for (kind, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in metrics {
            let bound = m.bound.map(|b| format!("  bound {b}")).unwrap_or_default();
            out.push_str(&format!(
                "{kind:<11}{:<34} {:<6} {}{bound}\n",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
