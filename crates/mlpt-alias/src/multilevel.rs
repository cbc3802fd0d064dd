//! Multilevel MDA-Lite Paris Traceroute (MMLPT).
//!
//! The paper's third contribution: "for the first time, a Traceroute tool
//! that provides a router-level view of multipath routes" (Sec. 4). The
//! multilevel tracer runs MDA-Lite, then — hop by hop, among the
//! addresses found at that hop, since "the aliases of a given router are
//! to be found among the addresses found at a given hop" — applies the
//! alias-resolution rounds and collapses the IP-level topology to the
//! router level.

use crate::evidence::EvidenceBase;
use crate::resolver::AliasPartition;
use crate::rounds::{AliasRoundsSession, RoundReport, RoundsConfig};
use mlpt_core::config::TraceConfig;
use mlpt_core::prober::{ProbeLog, Prober, TransportProber};
use mlpt_core::session::{
    drive_probes, MdaLiteSession, ProbeOutcome, ProbeRequest, ProbeSession, SessionState,
    TraceProbeSession, TraceSession,
};
use mlpt_core::stopset::{StopContribution, StopSnapshot};
use mlpt_core::trace::Trace;
use mlpt_topo::router::collapse;
use mlpt_topo::{MultipathTopology, RouterMap};
use mlpt_wire::transport::PacketTransport;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Configuration for a multilevel trace.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// The underlying MDA-Lite trace configuration.
    pub trace: TraceConfig,
    /// The alias-resolution protocol configuration.
    pub rounds: RoundsConfig,
}

impl MultilevelConfig {
    /// Creates a configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            trace: TraceConfig::new(seed),
            rounds: RoundsConfig::default(),
        }
    }
}

/// Result of a multilevel trace: the IP-level trace plus router-level
/// inference.
#[derive(Debug, Clone)]
pub struct MultilevelTrace {
    /// The underlying IP-level multipath trace.
    pub trace: Trace,
    /// Per-hop round reports (only hops with ≥ 2 candidate addresses).
    pub hop_reports: BTreeMap<u8, Vec<RoundReport>>,
    /// Final alias sets merged across hops.
    pub router_map: RouterMap,
    /// Probes spent on alias resolution (beyond the trace itself).
    pub alias_probes: u64,
    /// The discovered IP-level topology (None if destination unreached).
    pub ip_topology: Option<MultipathTopology>,
    /// The router-level topology after collapsing alias sets.
    pub router_topology: Option<MultipathTopology>,
}

impl MultilevelTrace {
    /// Final partition for one hop, if alias resolution ran there.
    pub fn final_partition(&self, ttl: u8) -> Option<&AliasPartition> {
        self.hop_reports
            .get(&ttl)
            .and_then(|r| r.last())
            .map(|r| &r.partition)
    }

    /// Sizes of all identified routers (the Fig. 12 metric).
    pub fn router_sizes(&self) -> Vec<usize> {
        self.router_map.router_sizes()
    }
}

/// The direct-probing comparator campaign for one hop: the MIDAR-style
/// Round 1–10 reports and the evidence base they judged against (trace +
/// indirect rounds + the direct campaign itself), as Table 2 consumes
/// them.
#[derive(Debug, Clone)]
pub struct DirectComparison {
    /// Per-round reports of the direct campaign.
    pub reports: Vec<RoundReport>,
    /// The evidence base after the campaign, seeded from everything the
    /// session had observed when the campaign started.
    pub evidence: EvidenceBase,
}

/// Everything a finished [`MultilevelSession`] produced: the multilevel
/// trace itself plus the raw material the surveys aggregate.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// The multilevel trace (what [`trace_multilevel`] returns).
    pub multilevel: MultilevelTrace,
    /// Final per-hop evidence bases of the indirect alias rounds — the
    /// bit-for-bit IP-ID series the equivalence tests compare.
    pub hop_evidence: BTreeMap<u8, EvidenceBase>,
    /// Per-hop direct comparator campaigns (empty unless enabled via
    /// [`MultilevelSession::with_direct_comparison`]).
    pub direct: BTreeMap<u8, DirectComparison>,
    /// The full observation log, in probing order.
    pub log: ProbeLog,
    /// Wire-level packets spent on the direct comparator campaigns.
    pub direct_wire_probes: u64,
}

/// Internal stage of a [`MultilevelSession`].
enum Phase {
    /// MDA-Lite tracing (boxed: the trace state machine is much larger
    /// than the rounds stage, and the phase moves through
    /// `mem::replace` on every poll).
    Trace(Box<TraceProbeSession<MdaLiteSession>>),
    /// One hop's alias-resolution rounds (`comparator` = the Table 2
    /// direct campaign rather than the trace's own indirect rounds).
    Rounds {
        ttl: u8,
        session: AliasRoundsSession,
        comparator: bool,
    },
    /// Every remaining hop's rounds session at once, advanced in
    /// lockstep waves (see [`MultilevelSession::with_hop_fanout`]).
    Fanned(FannedRounds),
    Done,
}

/// The per-hop fan-out stage: one [`AliasRoundsSession`] per
/// multi-candidate hop, all in flight at once. Each parent round is the
/// concatenation of every live sub-session's current protocol round, in
/// ascending-TTL order — a *protocol-fixed* interleaving, so any
/// conforming driver (and any admission policy, budget or retry
/// schedule of the sweep engine) produces the identical per-destination
/// wire sequence. The parent slices the delivered results back to the
/// sub-sessions span by span; each sub-session observes exactly the
/// slots of its own requests, in its own request order, just as it
/// would alone.
struct FannedRounds {
    /// Whether these are the Table 2 direct-comparator campaigns.
    comparator: bool,
    /// `(ttl, session)` in ascending-TTL order — also the wave's
    /// concatenation order.
    subs: Vec<(u8, AliasRoundsSession)>,
    /// Request spans of the armed wave: `(sub index, start, end)`.
    spans: Vec<(usize, usize, usize)>,
    /// The armed wave's concatenated request list.
    requests: Vec<ProbeRequest>,
    /// True while a wave is armed and awaiting replies.
    armed: bool,
}

impl FannedRounds {
    fn new(comparator: bool, subs: Vec<(u8, AliasRoundsSession)>) -> Self {
        Self {
            comparator,
            subs,
            spans: Vec::new(),
            requests: Vec::new(),
            armed: false,
        }
    }

    /// Arms the next wave: polls every sub-session and concatenates the
    /// live ones's rounds. Returns false once every sub-session has
    /// finished.
    fn arm(&mut self) -> bool {
        if self.armed {
            return true;
        }
        self.requests.clear();
        self.spans.clear();
        for (idx, (_ttl, session)) in self.subs.iter_mut().enumerate() {
            if session.poll() == SessionState::Probing {
                let start = self.requests.len();
                self.requests.extend_from_slice(session.next_rounds());
                self.spans.push((idx, start, self.requests.len()));
            }
        }
        self.armed = !self.requests.is_empty();
        self.armed
    }

    /// Distributes one delivered wave back to its sub-sessions.
    fn deliver(&mut self, results: &mut [Option<ProbeOutcome>]) {
        debug_assert_eq!(
            results.len(),
            self.requests.len(),
            "one result slot per fanned request"
        );
        for &(idx, start, end) in &self.spans {
            if let Some(slice) = results.get_mut(start..end) {
                self.subs[idx].1.on_replies(slice);
            }
        }
        self.armed = false;
    }
}

/// Multilevel MDA-Lite Paris Traceroute as one resumable sans-IO
/// [`ProbeSession`]: the MDA-Lite trace, then — hop by hop — the
/// Round 0–10 alias protocol, then (optionally) the MIDAR-style direct
/// comparator campaigns, all behind one `poll`/`next_rounds`/
/// `on_replies` surface the sweep engine can interleave across
/// destinations.
///
/// The session keeps its own [`ProbeLog`] (the observations a blocking
/// run would find in its prober's log), so each alias stage seeds its
/// evidence base from exactly the data the legacy implementation saw at
/// the same point: trace observations plus every earlier stage's
/// probing.
pub struct MultilevelSession {
    destination: Ipv4Addr,
    config: MultilevelConfig,
    comparator: Option<RoundsConfig>,
    /// Run all of a phase's per-hop rounds sessions concurrently instead
    /// of hop after hop (see [`with_hop_fanout`](Self::with_hop_fanout)).
    hop_fanout: bool,
    /// Caller-supplied admission cost hint, used until the trace phase
    /// discovers the real hop widths.
    cost_hint: Option<u64>,
    phase: Phase,
    log: ProbeLog,
    trace: Option<Trace>,
    /// Multi-candidate hops in ascending TTL order, fixed after tracing.
    hops: Vec<(u8, BTreeSet<Ipv4Addr>)>,
    next_alias: usize,
    next_direct: usize,
    hop_reports: BTreeMap<u8, Vec<RoundReport>>,
    hop_evidence: BTreeMap<u8, EvidenceBase>,
    direct: BTreeMap<u8, DirectComparison>,
    /// Wire packets per protocol phase, fed by `note_wire_probes`.
    trace_wire: u64,
    alias_wire: u64,
    direct_wire: u64,
    /// The trace phase's shared-stop-set contribution, stashed when the
    /// trace session is consumed so the sweep engine can still harvest
    /// it after the alias phases finish.
    trace_stops: Option<StopContribution>,
}

impl MultilevelSession {
    /// Creates a session tracing (then alias-resolving) towards
    /// `destination`.
    pub fn new(destination: Ipv4Addr, config: MultilevelConfig) -> Self {
        let trace_session = MdaLiteSession::new(destination, config.trace.clone());
        Self {
            destination,
            config,
            comparator: None,
            hop_fanout: false,
            cost_hint: None,
            phase: Phase::Trace(Box::new(TraceProbeSession::new(trace_session))),
            log: ProbeLog::default(),
            trace: None,
            hops: Vec::new(),
            next_alias: 0,
            next_direct: 0,
            hop_reports: BTreeMap::new(),
            hop_evidence: BTreeMap::new(),
            direct: BTreeMap::new(),
            trace_wire: 0,
            alias_wire: 0,
            direct_wire: 0,
            trace_stops: None,
        }
    }

    /// Enables the Table 2 comparator: after the indirect rounds, each
    /// multi-candidate hop gets a probing campaign under `rounds`
    /// (typically [`crate::rounds::ProbeMethod::Direct`] with the same
    /// round counts), judged over all evidence gathered so far.
    pub fn with_direct_comparison(mut self, rounds: RoundsConfig) -> Self {
        self.comparator = Some(rounds);
        self
    }

    /// Enables per-hop fan-out: once the trace completes, every
    /// multi-candidate hop's Round 0–10 session starts at once and the
    /// session emits *waves* — each parent round concatenates every
    /// hop's current protocol round in ascending-TTL order — instead of
    /// finishing one hop before starting the next. Round 0 is
    /// probe-free, so a destination with H wide hops needs `rounds`
    /// round-trips instead of `H × rounds`, which is what stops a
    /// single wide destination from serializing a sweep's tail. The comparator campaigns (if
    /// enabled) fan out the same way, in a second wave phase after every
    /// indirect hop has finished.
    ///
    /// The interleaving is part of the protocol, not the schedule (the
    /// same argument as the MBT's within-hop probe order): the wave
    /// sequence is fixed by the trace outcome alone, so fanned results
    /// are bit-identical across admission policies, budgets and retry
    /// schedules — property-tested in `tests/alias_equivalence.rs`.
    /// Relative to the hop-sequential pipeline the per-destination wire
    /// *order* does change, so fanned and sequential runs are distinct
    /// (deterministic) protocol variants: every hop's evidence base
    /// seeds from the wave phase's start (trace evidence for the
    /// indirect waves; trace + all indirect rounds for the comparator
    /// waves) rather than from whatever earlier hops had probed.
    pub fn with_hop_fanout(mut self, enabled: bool) -> Self {
        self.hop_fanout = enabled;
        self
    }

    /// Sets the admission cost hint reported before the trace phase
    /// completes (callers often know the scenario topology — e.g. the
    /// router survey — long before the trace rediscovers it). Once the
    /// trace finishes, [`predicted_cost`](ProbeSession::predicted_cost)
    /// switches to the exact alias cost computed from the discovered hop
    /// widths.
    pub fn with_cost_hint(mut self, hint: u64) -> Self {
        self.cost_hint = Some(hint);
        self
    }

    /// The hops eligible for alias resolution: at least two non-star,
    /// non-destination addresses (the paper: "the aliases of a given
    /// router are to be found among the addresses found at a given
    /// hop").
    fn hop_candidates(trace: &Trace) -> Vec<(u8, BTreeSet<Ipv4Addr>)> {
        let destination = trace.destination;
        let mut hops = Vec::new();
        for ttl in 1..=trace.discovery.max_observed_ttl() {
            let candidates: BTreeSet<Ipv4Addr> = trace
                .discovery
                .vertices_at(ttl)
                .iter()
                .copied()
                .filter(|&a| a != destination && !mlpt_topo::is_star(a))
                .collect();
            if candidates.len() >= 2 {
                hops.push((ttl, candidates));
            }
        }
        hops
    }

    /// Selects the next stage after the trace or a finished rounds
    /// stage: remaining indirect hops first, then comparator hops.
    fn next_stage(&mut self) -> Phase {
        if self.hop_fanout {
            return self.next_fanned_stage();
        }
        let trace = self.trace.as_ref().expect("stage selection after trace");
        if self.next_alias < self.hops.len() {
            let (ttl, candidates) = &self.hops[self.next_alias];
            self.next_alias += 1;
            let base = EvidenceBase::from_log(&self.log, candidates);
            return Phase::Rounds {
                ttl: *ttl,
                session: AliasRoundsSession::new(
                    trace,
                    candidates,
                    base,
                    self.config.rounds.clone(),
                ),
                comparator: false,
            };
        }
        if let Some(rounds) = &self.comparator {
            if self.next_direct < self.hops.len() {
                let (ttl, candidates) = &self.hops[self.next_direct];
                self.next_direct += 1;
                let base = EvidenceBase::from_log(&self.log, candidates);
                return Phase::Rounds {
                    ttl: *ttl,
                    session: AliasRoundsSession::new(trace, candidates, base, rounds.clone()),
                    comparator: true,
                };
            }
        }
        Phase::Done
    }

    /// The fan-out counterpart of [`next_stage`](Self::next_stage): all
    /// remaining indirect hops start at once, then (after every one of
    /// them finished) all comparator hops at once.
    fn next_fanned_stage(&mut self) -> Phase {
        let trace = self.trace.as_ref().expect("stage selection after trace");
        if self.next_alias < self.hops.len() {
            let subs: Vec<(u8, AliasRoundsSession)> = self.hops[self.next_alias..]
                .iter()
                .map(|(ttl, candidates)| {
                    let base = EvidenceBase::from_log(&self.log, candidates);
                    (
                        *ttl,
                        AliasRoundsSession::new(
                            trace,
                            candidates,
                            base,
                            self.config.rounds.clone(),
                        ),
                    )
                })
                .collect();
            self.next_alias = self.hops.len();
            return Phase::Fanned(FannedRounds::new(false, subs));
        }
        if let Some(rounds) = &self.comparator {
            if self.next_direct < self.hops.len() {
                let subs: Vec<(u8, AliasRoundsSession)> = self.hops[self.next_direct..]
                    .iter()
                    .map(|(ttl, candidates)| {
                        let base = EvidenceBase::from_log(&self.log, candidates);
                        (
                            *ttl,
                            AliasRoundsSession::new(trace, candidates, base, rounds.clone()),
                        )
                    })
                    .collect();
                self.next_direct = self.hops.len();
                return Phase::Fanned(FannedRounds::new(true, subs));
            }
        }
        Phase::Done
    }

    /// Consumes the finished session into its outcome. Call only after
    /// [`poll`](ProbeSession::poll) has returned
    /// [`SessionState::Finished`].
    pub fn finish(mut self) -> MultilevelOutcome {
        debug_assert!(
            matches!(self.phase, Phase::Done),
            "finish on an unfinished session"
        );
        let trace = self
            .trace
            .take()
            .expect("a finished multilevel session holds its trace");

        // An address can appear at several hops; transitive closure
        // merges the per-hop verdicts exactly as the survey's
        // aggregation does.
        let hop_maps: Vec<RouterMap> = self
            .hop_reports
            .values()
            .filter_map(|reports| reports.last())
            .map(|last| last.partition.to_router_map())
            .collect();
        let router_map = RouterMap::aggregate(&hop_maps);

        let ip_topology = trace.to_topology();
        let router_topology = ip_topology.as_ref().map(|topo| collapse(topo, &router_map));

        MultilevelOutcome {
            multilevel: MultilevelTrace {
                trace,
                hop_reports: self.hop_reports,
                router_map,
                alias_probes: self.alias_wire,
                ip_topology,
                router_topology,
            },
            hop_evidence: self.hop_evidence,
            direct: self.direct,
            log: self.log,
            direct_wire_probes: self.direct_wire,
        }
    }
}

impl ProbeSession for MultilevelSession {
    fn poll(&mut self) -> SessionState {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Done) {
                Phase::Done => return SessionState::Finished,
                Phase::Trace(mut session) => {
                    if session.poll() == SessionState::Probing {
                        self.phase = Phase::Trace(session);
                        return SessionState::Probing;
                    }
                    self.trace_stops = session.stop_contribution();
                    let trace = session.into_inner().take_trace(self.trace_wire);
                    self.hops = Self::hop_candidates(&trace);
                    self.trace = Some(trace);
                    self.phase = self.next_stage();
                }
                Phase::Rounds {
                    ttl,
                    mut session,
                    comparator,
                } => {
                    if session.poll() == SessionState::Probing {
                        self.phase = Phase::Rounds {
                            ttl,
                            session,
                            comparator,
                        };
                        return SessionState::Probing;
                    }
                    let (reports, evidence) = session.into_parts();
                    if comparator {
                        self.direct
                            .insert(ttl, DirectComparison { reports, evidence });
                    } else {
                        self.hop_reports.insert(ttl, reports);
                        self.hop_evidence.insert(ttl, evidence);
                    }
                    self.phase = self.next_stage();
                }
                Phase::Fanned(mut fanned) => {
                    if fanned.arm() {
                        self.phase = Phase::Fanned(fanned);
                        return SessionState::Probing;
                    }
                    // Every hop finished: harvest in TTL order.
                    let comparator = fanned.comparator;
                    for (ttl, session) in fanned.subs {
                        let (reports, evidence) = session.into_parts();
                        if comparator {
                            self.direct
                                .insert(ttl, DirectComparison { reports, evidence });
                        } else {
                            self.hop_reports.insert(ttl, reports);
                            self.hop_evidence.insert(ttl, evidence);
                        }
                    }
                    self.phase = self.next_stage();
                }
            }
        }
    }

    fn next_rounds(&self) -> &[ProbeRequest] {
        match &self.phase {
            Phase::Trace(session) => session.next_rounds(),
            Phase::Rounds { session, .. } => session.next_rounds(),
            Phase::Fanned(fanned) => &fanned.requests,
            Phase::Done => &[],
        }
    }

    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
        // Log every delivered observation first, in request order — the
        // stream a blocking prober would have accumulated — then forward
        // to the stage that emitted the round.
        for result in results.iter() {
            match result {
                Some(ProbeOutcome::Udp(obs)) => self.log.indirect.push(obs.clone()),
                Some(ProbeOutcome::Echo(obs)) => self.log.direct.push(obs.clone()),
                None => {}
            }
        }
        match &mut self.phase {
            Phase::Trace(session) => session.on_replies(results),
            Phase::Rounds { session, .. } => session.on_replies(results),
            Phase::Fanned(fanned) => fanned.deliver(results),
            Phase::Done => {}
        }
    }

    fn destination(&self) -> Ipv4Addr {
        self.destination
    }

    fn note_wire_probes(&mut self, count: u64) {
        match &self.phase {
            Phase::Trace(_) => self.trace_wire += count,
            Phase::Rounds {
                comparator: false, ..
            }
            | Phase::Fanned(FannedRounds {
                comparator: false, ..
            }) => self.alias_wire += count,
            Phase::Rounds {
                comparator: true, ..
            }
            | Phase::Fanned(FannedRounds {
                comparator: true, ..
            }) => self.direct_wire += count,
            Phase::Done => {}
        }
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        // Adoption happens at admission, while the session is still in
        // its trace phase; the alias phases never consult the set.
        if let Phase::Trace(session) = &mut self.phase {
            session.adopt_stop_set(snapshot);
        }
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        match &mut self.phase {
            Phase::Trace(session) => session.stop_contribution(),
            _ => self.trace_stops.take(),
        }
    }

    fn should_retry(&self, request: &ProbeRequest) -> bool {
        match &self.phase {
            Phase::Trace(session) => session.should_retry(request),
            _ => true,
        }
    }

    fn predicted_cost(&self) -> u64 {
        if self.trace.is_none() {
            // Hop widths unknown until the trace completes: report the
            // caller's hint (0 = no estimate, sorts last).
            return self.cost_hint.unwrap_or(0);
        }
        // The exact remaining campaign cost from the discovered widths:
        // the in-flight stage's own estimate plus every not-yet-started
        // hop under the indirect and (if enabled) comparator configs.
        let mut cost = match &self.phase {
            Phase::Rounds { session, .. } => session.predicted_cost(),
            Phase::Fanned(fanned) => fanned
                .subs
                .iter()
                .map(|(_, session)| session.predicted_cost())
                .sum(),
            Phase::Trace(_) | Phase::Done => 0,
        };
        for (_, candidates) in &self.hops[self.next_alias.min(self.hops.len())..] {
            cost += self.config.rounds.predicted_probes(candidates.len());
        }
        if let Some(rounds) = &self.comparator {
            for (_, candidates) in &self.hops[self.next_direct.min(self.hops.len())..] {
                cost += rounds.predicted_probes(candidates.len());
            }
        }
        cost
    }
}

/// Runs Multilevel MDA-Lite Paris Traceroute over a packet transport —
/// the blocking driver over [`MultilevelSession`].
pub fn trace_multilevel<T: PacketTransport>(
    prober: &mut TransportProber<T>,
    config: &MultilevelConfig,
) -> MultilevelTrace {
    let mut session = MultilevelSession::new(prober.destination(), config.clone());
    drive_probes(&mut session, prober);
    session.finish().multilevel
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_sim::{RouterProfile, SimNetwork};
    use mlpt_topo::diamond::{all_diamond_metrics, find_diamonds};
    use mlpt_topo::graph::addr;
    use mlpt_topo::RouterId;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// 1-4-1 diamond; middle interfaces pair into two routers.
    fn grouped() -> (MultipathTopology, RouterMap) {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)]);
        b.add_hop([addr(2, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        let topo = b.build().unwrap();
        let routers = RouterMap::from_alias_sets([
            vec![addr(1, 0), addr(1, 1)],
            vec![addr(1, 2), addr(1, 3)],
        ]);
        (topo, routers)
    }

    #[test]
    fn multilevel_resolves_and_collapses() {
        let (topo, routers) = grouped();
        let net = SimNetwork::builder(topo.clone())
            .routers(routers.clone())
            .seed(21)
            .build();
        let mut prober = TransportProber::new(net, SRC, topo.destination());
        let result = trace_multilevel(&mut prober, &MultilevelConfig::new(21));

        // IP level: 4-wide diamond.
        let ip = result.ip_topology.as_ref().unwrap();
        assert_eq!(ip.hop(1).len(), 4);

        // Router level: collapsed to 2-wide.
        let router = result.router_topology.as_ref().unwrap();
        assert_eq!(router.hop(1).len(), 2, "four interfaces → two routers");

        // Ground truth agreement.
        assert!(result.router_map.are_aliases(addr(1, 0), addr(1, 1)));
        assert!(result.router_map.are_aliases(addr(1, 2), addr(1, 3)));
        assert!(!result.router_map.are_aliases(addr(1, 1), addr(1, 2)));

        // The diamond narrowed but did not disappear.
        let before = all_diamond_metrics(ip).pop().unwrap();
        let after = all_diamond_metrics(router).pop().unwrap();
        assert_eq!(before.max_width, 4);
        assert_eq!(after.max_width, 2);

        assert!(result.alias_probes > 0);
        assert_eq!(result.router_sizes(), vec![2, 2]);
    }

    #[test]
    fn single_router_hop_dissolves_diamond() {
        // All four middle interfaces belong to one router: the router-level
        // view must be a straight path (Table 3's "one path" case).
        let (topo, _) = grouped();
        let routers =
            RouterMap::from_alias_sets([vec![addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)]]);
        let net = SimNetwork::builder(topo.clone())
            .routers(routers)
            .seed(33)
            .build();
        let mut prober = TransportProber::new(net, SRC, topo.destination());
        let result = trace_multilevel(&mut prober, &MultilevelConfig::new(33));
        let router = result.router_topology.as_ref().unwrap();
        assert!(find_diamonds(router).is_empty(), "diamond must dissolve");
    }

    #[test]
    fn singleton_routers_preserve_diamond() {
        // Every interface its own router (simulator default): the
        // router-level view equals the IP-level view.
        let (topo, _) = grouped();
        let net = SimNetwork::builder(topo.clone()).seed(44).build();
        let mut prober = TransportProber::new(net, SRC, topo.destination());
        let result = trace_multilevel(&mut prober, &MultilevelConfig::new(44));
        let ip = result.ip_topology.as_ref().unwrap();
        let router = result.router_topology.as_ref().unwrap();
        assert_eq!(ip.hop(1).len(), router.hop(1).len());
    }

    #[test]
    fn mpls_labels_alone_group_constant_id_routers() {
        use mlpt_sim::{IpIdProfile, MplsProfile};
        // Constant-zero IP IDs everywhere (MBT helpless), but stable MPLS
        // labels distinguish the two routers.
        let (topo, routers) = grouped();
        let profile_a = RouterProfile {
            ipid: IpIdProfile::constant_zero(),
            mpls: Some(MplsProfile {
                label: 111,
                stable: true,
            }),
            ..RouterProfile::well_behaved()
        };
        let profile_b = RouterProfile {
            ipid: IpIdProfile::constant_zero(),
            mpls: Some(MplsProfile {
                label: 222,
                stable: true,
            }),
            ..RouterProfile::well_behaved()
        };
        let net = SimNetwork::builder(topo.clone())
            .routers(routers)
            .profile(RouterId(0), profile_a)
            .profile(RouterId(1), profile_b)
            .seed(55)
            .build();
        let mut prober = TransportProber::new(net, SRC, topo.destination());
        let result = trace_multilevel(&mut prober, &MultilevelConfig::new(55));
        assert!(result.router_map.are_aliases(addr(1, 0), addr(1, 1)));
        assert!(result.router_map.are_aliases(addr(1, 2), addr(1, 3)));
        assert!(!result.router_map.are_aliases(addr(1, 0), addr(1, 2)));
    }

    /// With a single multi-candidate hop there is nothing to interleave:
    /// the fanned wave sequence degenerates to the hop's own rounds, so
    /// fan-out is bit-identical to the hop-sequential pipeline.
    #[test]
    fn single_hop_fanout_is_bit_identical() {
        let (topo, routers) = grouped();
        let run = |fanout: bool| {
            let net = SimNetwork::builder(topo.clone())
                .routers(routers.clone())
                .seed(21)
                .build();
            let mut prober = TransportProber::new(net, SRC, topo.destination());
            let mut session = MultilevelSession::new(topo.destination(), MultilevelConfig::new(21))
                .with_hop_fanout(fanout);
            drive_probes(&mut session, &mut prober);
            session.finish()
        };
        let sequential = run(false);
        let fanned = run(true);
        assert_eq!(fanned.multilevel.trace, sequential.multilevel.trace);
        assert_eq!(
            fanned.multilevel.hop_reports,
            sequential.multilevel.hop_reports
        );
        assert_eq!(fanned.hop_evidence, sequential.hop_evidence);
        assert_eq!(
            fanned.multilevel.alias_probes,
            sequential.multilevel.alias_probes
        );
        assert_eq!(
            fanned.multilevel.router_map,
            sequential.multilevel.router_map
        );
    }

    /// 1-4-4-1: two wide hops. Fan-out must cut the alias phase's
    /// round-trip chain from 2 x rounds to rounds probing waves while
    /// still resolving both hops' routers correctly and spending the
    /// same per-hop logical probe counts.
    #[test]
    fn two_hop_fanout_overlaps_round_trips() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)]);
        b.add_hop([addr(2, 0), addr(2, 1), addr(2, 2), addr(2, 3)]);
        b.add_hop([addr(3, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        b.connect_unmeshed(2);
        let topo = b.build().unwrap();
        let routers = RouterMap::from_alias_sets([
            vec![addr(1, 0), addr(1, 1)],
            vec![addr(1, 2), addr(1, 3)],
            vec![addr(2, 0), addr(2, 1)],
            vec![addr(2, 2), addr(2, 3)],
        ]);
        let run = |fanout: bool| {
            let net = SimNetwork::builder(topo.clone())
                .routers(routers.clone())
                .seed(21)
                .build();
            let mut prober = TransportProber::new(net, SRC, topo.destination());
            let mut session = MultilevelSession::new(topo.destination(), MultilevelConfig::new(21))
                .with_hop_fanout(fanout);
            // Count parent round-trips by hand (drive_probes hides them).
            let mut rounds = 0usize;
            let mut requests: Vec<ProbeRequest> = Vec::new();
            while session.poll() == SessionState::Probing {
                rounds += 1;
                requests.clear();
                requests.extend_from_slice(session.next_rounds());
                let mut results: Vec<Option<ProbeOutcome>> = Vec::new();
                let before = prober.probes_sent();
                for request in &requests {
                    match request {
                        ProbeRequest::Udp(spec) => {
                            results.push(prober.probe(spec.flow, spec.ttl).map(ProbeOutcome::Udp))
                        }
                        ProbeRequest::Echo { target } => {
                            results.push(prober.direct_probe(*target).map(ProbeOutcome::Echo))
                        }
                    }
                }
                session.note_wire_probes(prober.probes_sent() - before);
                session.on_replies(&mut results);
            }
            (session.finish(), rounds)
        };
        let (sequential, sequential_rounds) = run(false);
        let (fanned, fanned_rounds) = run(true);

        // Both hops report all 11 rounds either way.
        for outcome in [&sequential, &fanned] {
            assert_eq!(
                outcome
                    .multilevel
                    .hop_reports
                    .keys()
                    .copied()
                    .collect::<Vec<_>>(),
                vec![2, 3]
            );
            assert!(outcome
                .multilevel
                .hop_reports
                .values()
                .all(|r| r.len() == 11));
        }
        // Round 0 is probe-free, so each hop probes for 10 waves: the
        // fanned alias phase takes 10 round-trips where the sequential
        // one takes 20 — the traces are identical, so the difference in
        // parent round-trips is exactly the alias chain cut in half.
        assert_eq!(sequential_rounds - fanned_rounds, 10);
        // Same logical probe spend per hop (the campaigns are
        // reply-independent), same router-level verdicts as the ground
        // truth that generated the IP IDs.
        for ttl in [2u8, 3] {
            assert_eq!(
                sequential.multilevel.hop_reports[&ttl]
                    .last()
                    .unwrap()
                    .cumulative_probes,
                fanned.multilevel.hop_reports[&ttl]
                    .last()
                    .unwrap()
                    .cumulative_probes,
            );
        }
        for (a, b) in [
            (addr(1, 0), addr(1, 1)),
            (addr(1, 2), addr(1, 3)),
            (addr(2, 0), addr(2, 1)),
            (addr(2, 2), addr(2, 3)),
        ] {
            assert!(fanned.multilevel.router_map.are_aliases(a, b));
        }
        assert!(!fanned
            .multilevel
            .router_map
            .are_aliases(addr(1, 0), addr(1, 2)));
    }

    #[test]
    fn hop_reports_cover_multi_vertex_hops_only() {
        let (topo, routers) = grouped();
        let net = SimNetwork::builder(topo.clone())
            .routers(routers)
            .seed(66)
            .build();
        let mut prober = TransportProber::new(net, SRC, topo.destination());
        let result = trace_multilevel(&mut prober, &MultilevelConfig::new(66));
        assert!(result.hop_reports.contains_key(&2));
        assert!(!result.hop_reports.contains_key(&1), "single-vertex hop");
        assert_eq!(result.hop_reports[&2].len(), 11, "rounds 0..=10");
    }
}
