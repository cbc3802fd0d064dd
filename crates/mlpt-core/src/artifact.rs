//! Route-change artifact detection and bounded re-trace recovery.
//!
//! MDA assumption (1) — "no routing changes during measurement" — is the
//! one assumption the stopping rules cannot police from inside a single
//! round: a route flap mid-trace leaves *committed* evidence (the
//! per-flow `(flow, TTL) → interface` bindings in [`Discovery`]) silently
//! contradicting the network. Viger et al. taxonomize the resulting
//! artifacts as loops, cycles and diamonds that were never really there.
//!
//! [`RouteAudit`] is the detector sessions run after their stopping rule
//! fires: it replays one probe per committed vertex (smallest recorded
//! flow, ascending TTL) and compares each firsthand answer against the
//! committed binding. The first contradiction is classified
//! ([`ArtifactKind`]), the suffix from the contradicted TTL is
//! invalidated ([`Discovery::invalidate_from`]), and the session re-enters
//! its MDA rounds at that TTL only — never from the top. Both the audit
//! probes and the number of re-entries are bounded by [`ReprobeBudget`];
//! exhaustion finalizes as the honest
//! [`PartialReason::RouteChanged`] instead of chasing a flapping route
//! forever.
//!
//! Contradictions of *adopted* stop-set predictions (secondhand evidence
//! merged by a single-flow trace, PR 7) are not route changes: they are
//! stale-stop hits — counted separately, repaired in place with the
//! firsthand truth, and queued for eviction from the shared stop set so a
//! flapped prefix cannot keep serving stale predictions.
//!
//! Determinism rule: every decision here — which probes the audit sends,
//! how a contradiction is classified, whether recovery re-enters or
//! finalizes partial — is a pure function of the session's own committed
//! state and the replies it receives. The sweep scheduler (any of the
//! four admission modes) decides only *when* audit rounds go on the
//! wire, never *what* they contain or conclude.

use crate::discovery::Discovery;
use crate::prober::{ProbeObservation, ProbeSpec};
use crate::trace::PartialReason;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The Viger et al. artifact class assigned to a detected contradiction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// The same `(flow, TTL)` now resolves to a different interface than
    /// the committed evidence — the generic route-change signature.
    FlowHopMismatch,
    /// The contradicting responder already appears at a *smaller* TTL on
    /// the same flow's path: the classic post-change loop artifact.
    TtlLoop,
    /// A committed diamond branch was invalidated and never answered
    /// again anywhere on the re-traced path (counted at finalize).
    VanishedBranch,
}

/// Bounds on the recovery protocol: how many audit probes a session may
/// spend re-verifying committed evidence, and how many times it may
/// re-enter MDA rounds after a confirmed contradiction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReprobeBudget {
    /// Total audit probes across all audit passes.
    pub max_reprobes: u64,
    /// Total recovery re-entries before finalizing
    /// [`PartialReason::RouteChanged`].
    pub max_recoveries: u32,
}

impl Default for ReprobeBudget {
    fn default() -> Self {
        Self {
            max_reprobes: 256,
            max_recoveries: 4,
        }
    }
}

/// Per-session route-health counters, surfaced through
/// `TraceSession::route_health` and rolled into the sweep stats when the
/// session finalizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteHealth {
    /// Firsthand `(flow, TTL)` contradictions classified as plain
    /// mismatches.
    pub flow_hop_mismatches: u64,
    /// Contradictions classified as TTL loops.
    pub ttl_loops: u64,
    /// Committed branches that vanished across a recovery.
    pub vanished_branches: u64,
    /// Recovery re-entries performed.
    pub recoveries: u32,
    /// Audit probes charged against the [`ReprobeBudget`].
    pub reprobes_sent: u64,
    /// Adopted stop-set predictions contradicted by firsthand replies.
    pub stale_stop_hits: u64,
    /// True if the session finalized as
    /// [`PartialReason::RouteChanged`].
    pub route_changed_partial: bool,
}

impl RouteHealth {
    /// Total artifacts detected, across all classes.
    pub fn artifacts(&self) -> u64 {
        self.flow_hop_mismatches + self.ttl_loops + self.vanished_branches
    }
}

/// What an audit pass concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Every answered audit probe matched its committed binding.
    Clean,
    /// A firsthand contradiction at `at_ttl`: the suffix was invalidated
    /// and the session should re-enter its rounds at that TTL.
    Recover {
        /// First contradicted TTL; everything at and beyond it was wiped.
        at_ttl: u8,
    },
    /// A contradiction was found but the recovery budget is spent: the
    /// session must finalize as [`PartialReason::RouteChanged`].
    Exhausted {
        /// The contradicted TTL; the suffix from here was invalidated.
        at_ttl: u8,
    },
}

/// The audit + recovery state machine a session drives after its own
/// stopping rule fires. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct RouteAudit {
    budget: ReprobeBudget,
    reprobes_used: u64,
    recoveries_used: u32,
    health: RouteHealth,
    partial: Option<PartialReason>,
    /// `(ttl, interface)` pairs wiped by suffix invalidation, pending the
    /// vanished-branch check at finalize.
    pending_vanished: Vec<(u8, Ipv4Addr)>,
    /// Stop-set entries contradicted by firsthand evidence, to be evicted
    /// from the shared set via the session's contribution.
    evictions: Vec<(u8, Ipv4Addr)>,
    clean: bool,
    finalized: bool,
}

impl RouteAudit {
    /// A fresh audit under `budget`.
    pub fn new(budget: ReprobeBudget) -> Self {
        Self {
            budget,
            reprobes_used: 0,
            recoveries_used: 0,
            health: RouteHealth::default(),
            partial: None,
            pending_vanished: Vec::new(),
            evictions: Vec::new(),
            clean: false,
            finalized: false,
        }
    }

    /// Builds the next audit round: one probe per committed vertex
    /// (ascending TTL, each re-probed on the smallest flow recorded to
    /// reach it), truncated to the remaining reprobe budget. Returns
    /// `None` when the audit is over — the last pass came back clean, a
    /// partial was finalized, the budget is spent, or there is nothing
    /// committed to verify.
    pub fn start(&mut self, state: &Discovery) -> Option<Vec<ProbeSpec>> {
        if self.clean || self.partial.is_some() {
            return None;
        }
        let remaining = self.budget.max_reprobes.saturating_sub(self.reprobes_used);
        if remaining == 0 {
            return None;
        }
        let mut specs = Vec::new();
        'hops: for ttl in 1..=state.max_observed_ttl() {
            for vertex in state.vertices_at(ttl) {
                let Some(&flow) = state.flows_at(ttl, *vertex).first() else {
                    continue;
                };
                specs.push(ProbeSpec::new(flow, ttl));
                if specs.len() as u64 >= remaining {
                    break 'hops;
                }
            }
        }
        if specs.is_empty() {
            self.clean = true;
            return None;
        }
        self.reprobes_used += specs.len() as u64;
        self.health.reprobes_sent = self.reprobes_used;
        Some(specs)
    }

    /// Digests one audit round. `adopted` maps TTLs to interfaces whose
    /// committed record came *secondhand* from a stop-set prediction
    /// (empty for sessions that never adopt). Unanswered probes are
    /// inconclusive, stale adopted entries are repaired in place, and the
    /// first firsthand contradiction classifies an artifact, invalidates
    /// the suffix and decides recovery-versus-partial.
    pub fn absorb(
        &mut self,
        specs: &[ProbeSpec],
        results: &[Option<ProbeObservation>],
        state: &mut Discovery,
        destination: Ipv4Addr,
        adopted: &BTreeMap<u8, Ipv4Addr>,
    ) -> AuditVerdict {
        for (spec, result) in specs.iter().zip(results) {
            let Some(obs) = result.as_ref() else {
                continue; // timeout: inconclusive, never an artifact
            };
            let Some(committed) = state.flow_vertex(spec.ttl, spec.flow) else {
                continue; // binding already invalidated earlier this pass
            };
            if obs.responder == committed {
                continue;
            }
            if adopted.get(&spec.ttl) == Some(&committed) {
                // A stale stop-set prediction, not a route change: replace
                // the secondhand record with the firsthand truth and queue
                // the shared-set eviction.
                self.health.stale_stop_hits += 1;
                self.evictions.push((spec.ttl, committed));
                state.remove_record(spec.flow, spec.ttl);
                if committed == destination {
                    state.invalidate_destination_ttl(spec.ttl);
                }
                state.record(spec.flow, spec.ttl, obs.responder, obs.at_destination);
                continue;
            }
            // Firsthand contradiction: a real route-change artifact.
            let is_loop = obs.responder != destination
                && (1..spec.ttl).any(|t| state.flow_vertex(t, spec.flow) == Some(obs.responder));
            if is_loop {
                self.health.ttl_loops += 1;
            } else {
                self.health.flow_hop_mismatches += 1;
            }
            // The contradicted interface is the mismatch artifact itself
            // (already counted above): evict its stale stop-set entry,
            // but only *collaterally* wiped branches can count as
            // vanished at finalize.
            let wiped = state.invalidate_from(spec.ttl);
            self.pending_vanished.extend(
                wiped
                    .into_iter()
                    .filter(|&(ttl, iface)| !(ttl == spec.ttl && iface == committed)),
            );
            if !self.evictions.contains(&(spec.ttl, committed)) {
                self.evictions.push((spec.ttl, committed));
            }
            state.record(spec.flow, spec.ttl, obs.responder, obs.at_destination);
            if self.recoveries_used < self.budget.max_recoveries {
                self.recoveries_used += 1;
                self.health.recoveries = self.recoveries_used;
                return AuditVerdict::Recover { at_ttl: spec.ttl };
            }
            self.partial = Some(PartialReason::RouteChanged { at_ttl: spec.ttl });
            self.health.route_changed_partial = true;
            return AuditVerdict::Exhausted { at_ttl: spec.ttl };
        }
        self.clean = true;
        AuditVerdict::Clean
    }

    /// Settles the vanished-branch count: every interface wiped by a
    /// suffix invalidation that never answered again anywhere on the
    /// re-traced path is a [`ArtifactKind::VanishedBranch`], and its
    /// stale `(ttl, interface)` stop-set entries are queued for eviction.
    /// Idempotent; call once the audit has concluded.
    pub fn finalize(&mut self, state: &Discovery) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let mut vanished = BTreeSet::new();
        for &(ttl, addr) in &self.pending_vanished {
            if state.has_vertex(addr) {
                continue;
            }
            vanished.insert(addr);
            if !self.evictions.contains(&(ttl, addr)) {
                self.evictions.push((ttl, addr));
            }
        }
        self.health.vanished_branches += vanished.len() as u64;
    }

    /// The health counters as they stand.
    pub fn health(&self) -> RouteHealth {
        self.health
    }

    /// The partial reason, if recovery was exhausted.
    pub fn partial(&self) -> Option<PartialReason> {
        self.partial
    }

    /// Stop-set entries contradicted by firsthand evidence, in detection
    /// order.
    pub fn evictions(&self) -> &[(u8, Ipv4Addr)] {
        &self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_wire::FlowId;

    const DEST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn obs(spec: ProbeSpec, responder: Ipv4Addr) -> ProbeObservation {
        ProbeObservation {
            flow: spec.flow,
            ttl: spec.ttl,
            responder,
            at_destination: responder == DEST,
            ip_id: 0,
            reply_ttl: 64,
            mpls: Vec::new(),
            timestamp: 0,
        }
    }

    fn committed_state() -> Discovery {
        let mut state = Discovery::new();
        state.record(FlowId(1), 1, ip(1), false);
        state.record(FlowId(1), 2, ip(2), false);
        state.record(FlowId(2), 2, ip(3), false);
        state.record(FlowId(1), 3, DEST, true);
        state
    }

    #[test]
    fn clean_pass_ends_the_audit() {
        let mut state = committed_state();
        let mut audit = RouteAudit::new(ReprobeBudget::default());
        let specs = audit.start(&state).expect("committed evidence to audit");
        assert_eq!(specs.len(), 4, "one audit probe per committed vertex");
        let results: Vec<_> = specs
            .iter()
            .map(|s| Some(obs(*s, state.flow_vertex(s.ttl, s.flow).unwrap())))
            .collect();
        let verdict = audit.absorb(&specs, &results, &mut state, DEST, &BTreeMap::new());
        assert_eq!(verdict, AuditVerdict::Clean);
        assert!(audit.start(&state).is_none(), "clean audit is over");
        audit.finalize(&state);
        assert_eq!(audit.health().artifacts(), 0);
        assert!(audit.partial().is_none());
    }

    #[test]
    fn firsthand_contradiction_recovers_at_the_contradicted_ttl() {
        let mut state = committed_state();
        let mut audit = RouteAudit::new(ReprobeBudget::default());
        let specs = audit.start(&state).unwrap();
        let results: Vec<_> = specs
            .iter()
            .map(|s| {
                let committed = state.flow_vertex(s.ttl, s.flow).unwrap();
                if s.ttl == 2 && s.flow == FlowId(1) {
                    Some(obs(*s, ip(7))) // route changed under flow 1
                } else {
                    Some(obs(*s, committed))
                }
            })
            .collect();
        let verdict = audit.absorb(&specs, &results, &mut state, DEST, &BTreeMap::new());
        assert_eq!(verdict, AuditVerdict::Recover { at_ttl: 2 });
        assert_eq!(audit.health().flow_hop_mismatches, 1);
        assert_eq!(audit.health().recoveries, 1);
        // Suffix invalidated, fresh firsthand evidence recorded at TTL 2.
        assert_eq!(state.flow_vertex(2, FlowId(1)), Some(ip(7)));
        assert_eq!(state.flow_vertex(3, FlowId(1)), None);
        assert_eq!(state.destination_ttl(), None);
        // The prefix survives untouched.
        assert_eq!(state.flow_vertex(1, FlowId(1)), Some(ip(1)));
    }

    #[test]
    fn loop_shaped_contradictions_classify_as_ttl_loops() {
        let mut state = committed_state();
        let mut audit = RouteAudit::new(ReprobeBudget::default());
        let specs = audit.start(&state).unwrap();
        let results: Vec<_> = specs
            .iter()
            .map(|s| {
                let committed = state.flow_vertex(s.ttl, s.flow).unwrap();
                if s.ttl == 2 && s.flow == FlowId(1) {
                    Some(obs(*s, ip(1))) // the TTL-1 router answers again
                } else {
                    Some(obs(*s, committed))
                }
            })
            .collect();
        audit.absorb(&specs, &results, &mut state, DEST, &BTreeMap::new());
        assert_eq!(audit.health().ttl_loops, 1);
        assert_eq!(audit.health().flow_hop_mismatches, 0);
    }

    #[test]
    fn recovery_exhaustion_finalizes_route_changed_partial() {
        let mut state = committed_state();
        let mut audit = RouteAudit::new(ReprobeBudget {
            max_reprobes: 64,
            max_recoveries: 0,
        });
        let specs = audit.start(&state).unwrap();
        let results: Vec<_> = specs
            .iter()
            .map(|s| {
                let committed = state.flow_vertex(s.ttl, s.flow).unwrap();
                if s.ttl == 2 && s.flow == FlowId(1) {
                    Some(obs(*s, ip(7)))
                } else {
                    Some(obs(*s, committed))
                }
            })
            .collect();
        let verdict = audit.absorb(&specs, &results, &mut state, DEST, &BTreeMap::new());
        assert_eq!(verdict, AuditVerdict::Exhausted { at_ttl: 2 });
        assert_eq!(
            audit.partial(),
            Some(PartialReason::RouteChanged { at_ttl: 2 })
        );
        assert!(audit.health().route_changed_partial);
        assert!(audit.start(&state).is_none(), "partial audit is over");
    }

    #[test]
    fn stale_adopted_entries_repair_in_place_without_recovery() {
        let mut state = committed_state();
        let mut adopted = BTreeMap::new();
        adopted.insert(2u8, ip(2)); // TTL-2 binding came from the stop set
        let mut audit = RouteAudit::new(ReprobeBudget::default());
        let specs = audit.start(&state).unwrap();
        let results: Vec<_> = specs
            .iter()
            .map(|s| {
                let committed = state.flow_vertex(s.ttl, s.flow).unwrap();
                if s.ttl == 2 && s.flow == FlowId(1) {
                    Some(obs(*s, ip(8))) // firsthand truth disagrees
                } else {
                    Some(obs(*s, committed))
                }
            })
            .collect();
        let verdict = audit.absorb(&specs, &results, &mut state, DEST, &adopted);
        assert_eq!(
            verdict,
            AuditVerdict::Clean,
            "stale hit is not a route change"
        );
        assert_eq!(audit.health().stale_stop_hits, 1);
        assert_eq!(audit.health().artifacts(), 0);
        assert_eq!(audit.evictions(), &[(2, ip(2))]);
        // Repaired in place: the firsthand truth replaces the stale record
        // and the rest of the trace survives.
        assert_eq!(state.flow_vertex(2, FlowId(1)), Some(ip(8)));
        assert_eq!(state.flow_vertex(3, FlowId(1)), Some(DEST));
    }

    #[test]
    fn vanished_branches_count_at_finalize() {
        let mut state = committed_state();
        let mut audit = RouteAudit::new(ReprobeBudget::default());
        let specs = audit.start(&state).unwrap();
        let results: Vec<_> = specs
            .iter()
            .map(|s| {
                let committed = state.flow_vertex(s.ttl, s.flow).unwrap();
                if s.ttl == 2 && s.flow == FlowId(1) {
                    Some(obs(*s, ip(7)))
                } else {
                    Some(obs(*s, committed))
                }
            })
            .collect();
        audit.absorb(&specs, &results, &mut state, DEST, &BTreeMap::new());
        // Recovery re-discovers TTL 3 but ip(3) (the other TTL-2 branch)
        // never answers again.
        state.record(FlowId(1), 3, DEST, true);
        audit.finalize(&state);
        assert_eq!(audit.health().vanished_branches, 1);
        assert!(audit.evictions().contains(&(2, ip(3))));
        audit.finalize(&state); // idempotent
        assert_eq!(audit.health().vanished_branches, 1);
    }

    #[test]
    fn reprobe_budget_truncates_audit_rounds() {
        let state = committed_state();
        let mut audit = RouteAudit::new(ReprobeBudget {
            max_reprobes: 2,
            max_recoveries: 4,
        });
        let specs = audit.start(&state).unwrap();
        assert_eq!(specs.len(), 2, "round truncated to remaining budget");
        assert!(
            audit.start(&state).is_none(),
            "budget spent: no further audit rounds"
        );
    }
}
