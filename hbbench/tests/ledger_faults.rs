//! The correctness ledger must see beats the first hop loses.
//!
//! `TcpBackend` counts a batch as sent once the kernel accepted its bytes,
//! so a connection reset between producer and collector can lose beats
//! that neither side counts as dropped. A short `paced_observe` run with
//! the producer behind a resetting `FaultProxy` must report that loss.

use std::time::Duration;

use hb_net::FaultConfig;
use hb_perfbench::workloads::Params;

fn short_run(proxy: FaultConfig) -> hb_perfbench::workloads::Outcome {
    let params = Params {
        setups: 1,
        drain: Duration::from_secs(1),
        proxy: Some(proxy),
        ..Params::new(7, 1.0, false)
    };
    hb_perfbench::run("paced_observe", &params)
}

#[test]
fn resets_on_the_first_hop_show_as_lost_beats() {
    let out = short_run(FaultConfig {
        fragment_prob: 1_500,
        reset_prob: 200,
        ..FaultConfig::passthrough(0xC0FFEE)
    });
    for check in out.ledger.checks() {
        eprintln!("{} {} ({})", check.name, check.ok, check.detail);
    }
    assert!(out.failed > 0, "lost beats must count as failed");
    assert!(out.metrics["failed_ratio"] > 0.0);
    assert!(
        out.ledger
            .checks()
            .iter()
            .any(|c| c.name == "produced == applied + backend_dropped" && !c.ok),
        "beats lost without being counted as dropped must fail the first-hop check"
    );
    assert!(!hb_perfbench::result_json(&out, false).contains("\"correct\": true"));
}

#[test]
fn a_clean_proxy_loses_nothing() {
    let out = short_run(FaultConfig::passthrough(0xC0FFEE));
    for check in out.ledger.checks() {
        assert!(check.ok, "{} failed: {}", check.name, check.detail);
    }
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 50_000);
}
