//! Shared trace configuration.

use crate::artifact::ReprobeBudget;
use crate::stopping::StoppingPoints;
use serde::{Deserialize, Serialize};

/// Configuration shared by all tracing algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Stopping points n_k controlling per-hop/per-vertex probing.
    pub stopping: StoppingPoints,
    /// Largest TTL probed before giving up on reaching the destination.
    pub max_ttl: u8,
    /// Hard cap on probes sent by one trace: a run that hits it reports
    /// `budget_exhausted` rather than looping forever (e.g. when node
    /// control hunts flows through a vertex that per-packet balancing
    /// keeps moving).
    pub probe_budget: u64,
    /// Cap on probes spent hunting flow IDs for one vertex during a single
    /// node-control episode.
    pub node_control_attempts: u64,
    /// MDA-Lite meshing-test effort φ ≥ 2 (Sec. 2.3.2): flow IDs generated
    /// per vertex when testing a hop pair for meshing.
    pub phi: u32,
    /// Seed for the trace's own randomness (flow ID draws).
    pub seed: u64,
    /// Route-change audit budget. `Some` arms the post-stopping-rule
    /// audit/recovery protocol ([`crate::artifact::RouteAudit`]); `None`
    /// (the default) keeps the classic trust-the-evidence behaviour.
    pub reprobe: Option<ReprobeBudget>,
}

impl TraceConfig {
    /// Defaults: 95 % stopping points, φ = 2.
    ///
    /// Cheap enough to call once per destination: the stopping table is
    /// built once per process (about 2 ms, on the first call of
    /// [`StoppingPoints::mda95`]) and cloned here after that.
    pub fn new(seed: u64) -> Self {
        Self {
            stopping: StoppingPoints::mda95(),
            max_ttl: 40,
            probe_budget: 1_000_000,
            node_control_attempts: 50_000,
            phi: 2,
            seed,
            reprobe: None,
        }
    }

    /// Arms the route-change audit with `budget`.
    pub fn with_reprobe(mut self, budget: ReprobeBudget) -> Self {
        self.reprobe = Some(budget);
        self
    }

    /// Replaces the stopping points.
    pub fn with_stopping(mut self, stopping: StoppingPoints) -> Self {
        self.stopping = stopping;
        self
    }

    /// Sets the meshing-test effort φ.
    pub fn with_phi(mut self, phi: u32) -> Self {
        assert!(phi >= 2, "the meshing test requires phi >= 2");
        self.phi = phi;
        self
    }

    /// Sets the probe budget.
    pub fn with_probe_budget(mut self, budget: u64) -> Self {
        self.probe_budget = budget;
        self
    }

    /// The default mid-path start TTL for Doubletree-style stop-set
    /// probing when no destination-distance evidence exists yet: a
    /// fifth of the TTL horizon (8 under the default `max_ttl` of 40,
    /// matching the near-source prefix lengths Donnet et al. report),
    /// never below 1.
    pub fn default_start_ttl(&self) -> u8 {
        (self.max_ttl / 5).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = TraceConfig::new(1);
        assert_eq!(c.phi, 2);
        assert_eq!(c.stopping.n(1), 6);
        assert!(c.probe_budget > 10_000);
        assert_eq!(c.default_start_ttl(), 8);
    }

    #[test]
    fn start_ttl_never_below_one() {
        let mut c = TraceConfig::new(1);
        c.max_ttl = 3;
        assert_eq!(c.default_start_ttl(), 1);
    }

    #[test]
    #[should_panic(expected = "phi >= 2")]
    fn phi_lower_bound() {
        let _ = TraceConfig::new(1).with_phi(1);
    }
}
