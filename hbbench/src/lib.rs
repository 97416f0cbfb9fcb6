//! # hb-perfbench — the repository's benchmark
//!
//! One command runs a named, seeded workload against the heartbeat
//! telemetry stack, checks that every beat and query is accounted for, and
//! prints every end-to-end metric by name with its unit. A traced run
//! adds per-layer numbers: spans around every call the benchmark makes
//! into a layer, counters the program already exposes, and
//! single-threaded replays of the workload's own batches through each
//! layer's public function. See `README.md` next to this crate.

pub mod budget;
pub mod catalog;
pub mod ledger;
pub mod replay;
pub mod seed;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

use catalog::{END_TO_END, PER_LAYER};
use workloads::{Outcome, Params};

/// Repetitions of an untraced run. Each builds the workload afresh and
/// measures an equal share of the run, so one repetition's thread
/// placement does not decide the run's numbers.
pub const REPS: usize = 5;

/// Runs `workload` (a [`catalog::WORKLOADS`] name): [`REPS`] fresh rigs
/// sharing the measured time when untraced, one rig when traced. The
/// end-to-end metrics are medians over every window of every repetition.
pub fn run(workload: &str, params: &Params) -> Outcome {
    let once = |p: &Params| match workload {
        "paced_observe" => workloads::paced_observe::run(p),
        "ingest_saturate" => workloads::ingest_saturate::run(p),
        "relay_query" => workloads::relay_query::run(p),
        other => panic!("unknown workload {other}"),
    };
    let reps = if params.trace { 1 } else { REPS };
    let per_rep = Params {
        seconds: params.seconds / reps as f64,
        setups: params.setups.div_ceil(reps),
        ..params.clone()
    };
    // Each repetition runs on a fresh thread, so the generator thread's
    // placement is drawn anew with the rest of the rig.
    let rep = || {
        std::thread::scope(|scope| {
            scope
                .spawn(|| once(&per_rep))
                .join()
                .expect("workload thread")
        })
    };
    let mut out = rep();
    for _ in 1..reps {
        out.absorb(rep());
    }
    out.windows.record(&mut out.metrics, &mut out.ledger);
    out.report.extend(out.windows.describe());
    out.metrics
        .insert("setup_s", stats::median_f64(&out.setup_times));
    out.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
    out.metrics.insert(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's table (end-to-end when untraced, per-layer when traced).
/// Per-layer metrics of layers the workload does not use read 0. An
/// end-to-end metric that is missing, zero or not finite makes the run
/// incorrect.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.ledger.all_ok();
    let mut metrics = String::new();
    for (i, metric) in table.iter().enumerate() {
        let value = out.metrics.get(metric.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if !trace && value <= 0.0 {
            correct = false;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    )
}
