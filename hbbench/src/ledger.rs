//! Correctness checks: every beat offered is accounted for, hop by hop.
//!
//! Each workload closes its run by comparing the counts each layer reports
//! (beats produced, shed, applied, relayed, received). A check that fails
//! marks the run incorrect; lost beats also count as failed operations.

/// One named equality (or bound) the run must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What is compared.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

/// Collects checks for one run.
#[derive(Debug, Default)]
pub struct Ledger {
    checks: Vec<Check>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Records `lhs == rhs`.
    pub fn equal(&mut self, name: &'static str, lhs: u64, rhs: u64) {
        self.checks.push(Check {
            name,
            ok: lhs == rhs,
            detail: format!("{lhs} vs {rhs}"),
        });
    }

    /// Records a condition that must hold.
    pub fn holds(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Appends the checks of another run.
    pub fn extend(&mut self, other: Ledger) {
        self.checks.extend(other.checks);
    }

    /// True when every check held.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The recorded checks.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }
}

/// The first-hop ledger of a paced producer:
/// produced == applied + shed by the backend, and the subscriber received
/// exactly what the collector applied.
pub fn check_paced(ledger: &mut Ledger, produced: u64, applied: u64, shed: u64, received: u64) {
    ledger.equal(
        "produced == applied + backend_dropped",
        produced,
        applied + shed,
    );
    ledger.equal("subscriber_received == applied", received, applied);
}

/// The relay ledger: everything the leaf applied reached the root or was
/// counted as shed by the uplink.
pub fn check_relay(ledger: &mut Ledger, sent: u64, leaf: u64, root: u64, uplink_shed: u64) {
    ledger.equal("sent == leaf_applied", sent, leaf);
    ledger.equal(
        "leaf_applied == root_applied + upstream_dropped",
        leaf,
        root + uplink_shed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_ledger_flags_silent_loss_and_subscriber_gaps() {
        let mut clean = Ledger::new();
        check_paced(&mut clean, 100, 90, 10, 90);
        assert!(clean.all_ok());

        let mut leak = Ledger::new();
        check_paced(&mut leak, 100, 85, 10, 85);
        assert!(
            !leak.all_ok(),
            "5 beats vanished between producer and collector"
        );

        let mut gap = Ledger::new();
        check_paced(&mut gap, 100, 100, 0, 99);
        assert!(!gap.all_ok(), "the subscriber missed a beat");
    }

    #[test]
    fn relay_ledger_counts_uplink_shedding() {
        let mut ledger = Ledger::new();
        check_relay(&mut ledger, 640, 640, 576, 64);
        assert!(ledger.all_ok());
        check_relay(&mut ledger, 640, 640, 576, 0);
        assert!(!ledger.all_ok());
    }
}
