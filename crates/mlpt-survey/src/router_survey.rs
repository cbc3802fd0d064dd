//! The router-level survey (Sec. 5.2) and the alias-resolution
//! evaluation (Sec. 4.2).
//!
//! Re-traces the load-balanced scenarios with Multilevel MDA-Lite Paris
//! Traceroute, yielding per trace an IP-level and a router-level
//! topology, and aggregates:
//!
//! * Fig. 5 — precision/recall of each alias round against Round 10 and
//!   the cumulative probing cost;
//! * Table 2 — indirect (MMLPT) vs direct (MIDAR-style) verdicts over
//!   the union of identified router sets;
//! * Fig. 12 — router sizes, per-trace ("distinct") and after transitive
//!   closure across traces ("aggregated");
//! * Table 3 — what alias resolution does to each unique diamond;
//! * Figs. 13 & 14 — max-width distributions before/after resolution.
//!
//! Scenarios run through the **concurrent sweep engine**: each worker
//! chunk builds one [`mlpt_sim::MultiNetwork`] whose lanes are the
//! per-scenario simulators and streams one [`MultilevelSession`] per
//! destination — trace, Round 0–10 alias
//! rounds and (optionally) the direct comparator campaigns all
//! interleaved across destinations under the engine's streaming
//! admission and in-flight budget. Scenarios whose topologies share
//! interface addresses (the 48/56/96-wide core structures are shared
//! across routes by construction) are split into address-disjoint
//! sub-sweeps, because echo probes route by interface address. Per-lane
//! determinism makes every aggregate bit-identical to a blocking
//! one-scenario-at-a-time loop, which a test pins.

use crate::generator::{SyntheticInternet, TraceScenario};
use crate::parallel::{sweep_chunks, sweep_engine};
use mlpt_alias::evidence::EvidenceBase;
use mlpt_alias::multilevel::{MultilevelConfig, MultilevelOutcome, MultilevelSession};
use mlpt_alias::resolver::{judge_set, SeriesSource, SetVerdict};
use mlpt_alias::rounds::{ProbeMethod, RoundsConfig};
use mlpt_core::prelude::*;
use mlpt_stats::{Histogram, JointHistogram};
use mlpt_topo::diamond::{all_diamond_metrics, find_diamonds};
use mlpt_topo::{DiamondKey, MultipathTopology, RouterMap};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::Ipv4Addr;
use std::ops::Range;

/// Destinations sharing one simulated network per sweep chunk.
const SWEEP_CHUNK: usize = 32;
/// In-flight probe budget per sweep engine (the streaming-admission
/// headroom).
const SWEEP_IN_FLIGHT: usize = 512;

/// What happened to an IP-level diamond at the router level (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResolutionCase {
    /// No aliases inside: the diamond is unchanged.
    NoChange,
    /// It narrowed (and/or shortened) into a single smaller diamond.
    SingleSmaller,
    /// It split into a series of smaller diamonds.
    MultipleSmaller,
    /// It dissolved into a straight path of routers.
    OnePath,
}

impl ResolutionCase {
    /// Label as in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            ResolutionCase::NoChange => "No change",
            ResolutionCase::SingleSmaller => "Single smaller diamond",
            ResolutionCase::MultipleSmaller => "Multiple smaller diamonds",
            ResolutionCase::OnePath => "One path (no diamond)",
        }
    }
}

/// Classifies one diamond's fate; also returns the span's max interior
/// width after collapsing (the Fig. 14 "after" coordinate).
pub fn classify_resolution(
    ip: &MultipathTopology,
    router: &MultipathTopology,
    diamond: &mlpt_topo::Diamond,
) -> (ResolutionCase, usize) {
    let d = diamond.divergence_hop;
    let c = diamond.convergence_hop;
    let before: Vec<usize> = (d + 1..c).map(|h| ip.hop(h).len()).collect();
    let after: Vec<usize> = (d + 1..c).map(|h| router.hop(h).len()).collect();
    let after_max = after.iter().copied().max().unwrap_or(1);

    if before == after {
        return (ResolutionCase::NoChange, after_max);
    }
    // Count the segments of consecutive multi-vertex hops remaining.
    let mut segments = 0usize;
    let mut in_segment = false;
    for &w in &after {
        if w >= 2 {
            if !in_segment {
                segments += 1;
                in_segment = true;
            }
        } else {
            in_segment = false;
        }
    }
    let case = match segments {
        0 => ResolutionCase::OnePath,
        1 => ResolutionCase::SingleSmaller,
        _ => ResolutionCase::MultipleSmaller,
    };
    (case, after_max)
}

/// One Fig. 5 data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundMetric {
    /// Round number.
    pub round: u32,
    /// Pairwise precision against Round 10.
    pub precision: f64,
    /// Pairwise recall against Round 10.
    pub recall: f64,
    /// Cumulative alias probes ÷ trace probes (aggregated over traces).
    pub probe_ratio: f64,
}

/// Table 2: counts of (indirect verdict, direct verdict) over the union
/// of router sets identified by either method.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictMatrix {
    counts: BTreeMap<(String, String), u64>,
    /// Total sets considered.
    pub total: u64,
}

impl VerdictMatrix {
    fn key(v: SetVerdict) -> String {
        match v {
            SetVerdict::Accept => "accept".into(),
            SetVerdict::Reject => "reject".into(),
            SetVerdict::Unable => "unable".into(),
        }
    }

    /// Records one set's verdict pair.
    pub fn record(&mut self, indirect: SetVerdict, direct: SetVerdict) {
        *self
            .counts
            .entry((Self::key(indirect), Self::key(direct)))
            .or_insert(0) += 1;
        self.total += 1;
    }

    /// Portion of sets with this verdict pair.
    pub fn portion(&self, indirect: SetVerdict, direct: SetVerdict) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c = self
            .counts
            .get(&(Self::key(indirect), Self::key(direct)))
            .copied()
            .unwrap_or(0);
        c as f64 / self.total as f64
    }

    /// Merges another matrix.
    pub fn merge(&mut self, other: &VerdictMatrix) {
        for (k, v) in &other.counts {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
        self.total += other.total;
    }
}

/// Configuration of the router-level survey.
#[derive(Debug, Clone)]
pub struct RouterSurveyConfig {
    /// Scenarios to re-trace.
    pub scenarios: usize,
    /// Worker threads (each drives a whole sweep chunk).
    pub workers: usize,
    /// Seed for the tracing side.
    pub trace_seed: u64,
    /// Alias-resolution protocol (rounds, replies, MBT parameters).
    pub rounds: RoundsConfig,
    /// Whether to run the direct-probing comparator for Table 2
    /// (roughly doubles alias probing cost).
    pub with_direct_comparison: bool,
}

impl Default for RouterSurveyConfig {
    fn default() -> Self {
        Self {
            scenarios: 300,
            workers: crate::parallel::default_workers(),
            trace_seed: 0x5E52,
            rounds: RoundsConfig::default(),
            with_direct_comparison: true,
        }
    }
}

/// Aggregated router-level survey results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterSurveyReport {
    /// Scenarios traced.
    pub traces: usize,
    /// Ids of the scenarios that contributed a trace, in source order —
    /// the streamed sweep reports rows under source indices, so this is
    /// ascending regardless of completion order (regression-tested).
    pub scenario_ids: Vec<usize>,
    /// Traces with at least one multi-interface alias set found.
    pub traces_with_aliases: usize,
    /// Sizes of distinct routers — alias sets deduplicated by exact
    /// membership across traces (Fig. 12 a).
    pub router_sizes_distinct: Vec<usize>,
    /// Router sizes after cross-trace transitive closure (Fig. 12 b).
    pub router_sizes_aggregated: Vec<usize>,
    /// Fig. 5 series.
    pub round_metrics: Vec<RoundMetric>,
    /// Table 2 matrix (empty when the comparator is disabled).
    pub verdicts: VerdictMatrix,
    /// Table 3 portions over unique diamonds.
    pub resolution_counts: BTreeMap<ResolutionCase, u64>,
    /// Fig. 13 (a): unique-diamond max widths at the IP level.
    pub width_before: Histogram,
    /// Fig. 13 (b): max widths of router-level diamonds.
    pub width_after: Histogram,
    /// Fig. 14: joint (before, after) widths for diamonds that changed.
    pub width_change: JointHistogram,
}

impl RouterSurveyReport {
    /// Table 3 portion for one case.
    pub fn resolution_portion(&self, case: ResolutionCase) -> f64 {
        let total: u64 = self.resolution_counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.resolution_counts.get(&case).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Portion of unique diamonds where *some* resolution happened
    /// (the paper: 41.9 %).
    pub fn some_resolution_portion(&self) -> f64 {
        1.0 - self.resolution_portion(ResolutionCase::NoChange)
    }
}

/// Per-scenario partial result.
struct PerScenario {
    pair_sets: Vec<BTreeSet<(Ipv4Addr, Ipv4Addr)>>, // per round
    probes_per_round: Vec<u64>,
    trace_probes: u64,
    router_map: RouterMap,
    verdicts: VerdictMatrix,
    diamonds: Vec<(DiamondKey, ResolutionCase, usize, usize)>, // key, case, before, after
    router_diamond_widths: Vec<usize>,
}

/// Shared Fig. 5 / Table 3 / Figs. 13–14 post-processing of one
/// multilevel trace.
fn scenario_tail(
    result: &mlpt_alias::multilevel::MultilevelTrace,
    verdicts: VerdictMatrix,
    num_rounds: usize,
) -> PerScenario {
    // Fig. 5 inputs: pair sets and probes per round across hops.
    let mut pair_sets: Vec<BTreeSet<(Ipv4Addr, Ipv4Addr)>> = vec![BTreeSet::new(); num_rounds + 1];
    let mut probes_per_round = vec![0u64; num_rounds + 1];
    for reports in result.hop_reports.values() {
        for (r, report) in reports.iter().enumerate() {
            pair_sets[r].extend(report.partition.pairs());
            probes_per_round[r] += report.cumulative_probes;
        }
    }

    // Table 3 / Figs. 13-14 inputs.
    let mut diamonds = Vec::new();
    let mut router_diamond_widths = Vec::new();
    if let (Some(ip), Some(router)) = (&result.ip_topology, &result.router_topology) {
        for d in find_diamonds(ip) {
            let m = mlpt_topo::diamond::diamond_metrics(ip, &d);
            let (case, after_width) = classify_resolution(ip, router, &d);
            diamonds.push((m.key, case, m.max_width, after_width));
        }
        for m in all_diamond_metrics(router) {
            router_diamond_widths.push(m.max_width);
        }
    }

    PerScenario {
        pair_sets,
        probes_per_round,
        trace_probes: result.trace.probes_sent,
        router_map: result.router_map.clone(),
        verdicts,
        diamonds,
        router_diamond_widths,
    }
}

/// Records the Table 2 verdicts for one hop: the union of router sets
/// either method identified, judged under both series sources over the
/// campaign's final evidence.
fn record_verdicts(
    verdicts: &mut VerdictMatrix,
    base: &EvidenceBase,
    indirect_partition: Option<&mlpt_alias::resolver::AliasPartition>,
    direct_partition: Option<&mlpt_alias::resolver::AliasPartition>,
    mbt: &mlpt_alias::mbt::MbtParams,
) {
    let mut sets: BTreeSet<BTreeSet<Ipv4Addr>> = BTreeSet::new();
    if let Some(p) = indirect_partition {
        sets.extend(p.routers().cloned());
    }
    if let Some(p) = direct_partition {
        sets.extend(p.routers().cloned());
    }
    for set in sets {
        let vi = judge_set(base, &set, SeriesSource::Indirect, mbt);
        let vd = judge_set(base, &set, SeriesSource::Direct, mbt);
        verdicts.record(vi, vd);
    }
}

/// One scenario's row from a finished sweep session.
fn streamed_scenario(outcome: MultilevelOutcome, config: &RouterSurveyConfig) -> PerScenario {
    let num_rounds = config.rounds.rounds as usize;
    let mut verdicts = VerdictMatrix::default();
    // The comparator campaigns ran inside the session (seeded from its
    // log at exactly the points a blocking loop seeds them); judge the
    // same set unions over their final evidence.
    for (ttl, comparison) in &outcome.direct {
        record_verdicts(
            &mut verdicts,
            &comparison.evidence,
            outcome.multilevel.final_partition(*ttl),
            comparison.reports.last().map(|r| &r.partition),
            &config.rounds.mbt,
        );
    }
    scenario_tail(&outcome.multilevel, verdicts, num_rounds)
}

fn trace_seed_of(config: &RouterSurveyConfig, id: usize) -> u64 {
    config.trace_seed ^ (id as u64).wrapping_mul(0xC0FF_EE11)
}

/// Cost hint for one scenario's admission, before its trace has run: the
/// survey knows the ground-truth topology, so the alias campaigns'
/// probe cost follows from the hop widths exactly as
/// [`RoundsConfig::predicted_probes`] models them (the comparator, when
/// enabled, runs a second campaign of the same size per hop). The trace
/// itself is dwarfed by the alias phase and left out of the hint; a
/// wrong hint could only cost schedule quality, never correctness.
pub fn scenario_cost_hint(
    scenario: &TraceScenario,
    rounds: &RoundsConfig,
    comparator: bool,
) -> u64 {
    let topology = &scenario.topology;
    let mut hint = 0u64;
    for hop in 0..topology.num_hops().saturating_sub(1) {
        let width = topology.hop(hop).len();
        if width >= 2 {
            let campaign = rounds.predicted_probes(width);
            hint += if comparator { campaign * 2 } else { campaign };
        }
    }
    hint
}

/// Partitions scenarios into groups whose topologies share no interface
/// addresses, greedily in input order. Lanes of one
/// [`mlpt_sim::MultiNetwork`] must own disjoint address sets — UDP
/// probes route by (unique) destination, but echo probes route by
/// interface, and the synthetic Internet deliberately shares its wide
/// core structures across routes.
/// Returns indices into `scenarios`.
pub fn disjoint_scenario_groups(scenarios: &[&TraceScenario]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(Vec<usize>, HashSet<u32>)> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let addrs: HashSet<u32> = scenario
            .topology
            .all_addresses()
            .iter()
            .map(|&a| u32::from(a))
            .collect();
        match groups
            .iter_mut()
            .find(|(_, taken)| taken.is_disjoint(&addrs))
        {
            Some((members, taken)) => {
                members.push(i);
                taken.extend(addrs);
            }
            None => groups.push((vec![i], addrs)),
        }
    }
    groups.into_iter().map(|(members, _)| members).collect()
}

/// One worker chunk of the sweep path: every diamond-carrying scenario
/// of `ids` becomes a [`MultilevelSession`] lane; address-disjoint
/// groups share one engine each.
fn sweep_chunk(
    internet: &SyntheticInternet,
    config: &RouterSurveyConfig,
    ids: Range<usize>,
) -> Vec<Option<PerScenario>> {
    let scenarios: Vec<TraceScenario> = ids.map(|id| internet.scenario(id)).collect();
    let mut rows: Vec<Option<PerScenario>> = Vec::new();
    rows.resize_with(scenarios.len(), || None);

    let active: Vec<usize> = (0..scenarios.len())
        .filter(|&i| scenarios[i].has_diamond)
        .collect();
    let active_refs: Vec<&TraceScenario> = active.iter().map(|&i| &scenarios[i]).collect();

    for group in disjoint_scenario_groups(&active_refs) {
        // Indices into `scenarios` of this address-disjoint sub-sweep.
        let members: Vec<usize> = group.into_iter().map(|g| active[g]).collect();
        let mut engine = sweep_engine(
            members
                .iter()
                .map(|&i| (&scenarios[i], trace_seed_of(config, scenarios[i].id))),
            SWEEP_IN_FLIGHT,
        );
        let sessions = members.iter().map(|&i| {
            let seed = trace_seed_of(config, scenarios[i].id);
            let mut session = MultilevelSession::new(
                scenarios[i].topology.destination(),
                MultilevelConfig {
                    trace: TraceConfig::new(seed),
                    rounds: config.rounds.clone(),
                },
            )
            // The engine's gather pass caps each lane by its predicted
            // cost, so the hint shapes batches even under streaming
            // admission.
            .with_cost_hint(scenario_cost_hint(
                &scenarios[i],
                &config.rounds,
                config.with_direct_comparison,
            ));
            if config.with_direct_comparison {
                session = session.with_direct_comparison(RoundsConfig {
                    method: ProbeMethod::Direct,
                    ..config.rounds.clone()
                });
            }
            session
        });
        engine.run_sessions_with(sessions, |index, session, _wire_probes| {
            rows[members[index]] = Some(streamed_scenario(session.finish(), config));
        });
    }
    rows
}

/// Runs the router-level survey.
pub fn run_router_survey(
    internet: &SyntheticInternet,
    config: &RouterSurveyConfig,
) -> RouterSurveyReport {
    aggregate(sweep_rows(internet, config), config.rounds.rounds as usize)
}

/// Runs every scenario on the sweep engine, one row per scenario in
/// index order (`None` for scenarios without a diamond).
///
/// Chunks of scenarios share engines; worker threads scale across
/// chunks. Chunking and admission are pure scheduling — rows come back
/// under source indices, so the report is identical however the sweep
/// is sliced.
fn sweep_rows(
    internet: &SyntheticInternet,
    config: &RouterSurveyConfig,
) -> Vec<Option<PerScenario>> {
    sweep_chunks(config.scenarios, config.workers, SWEEP_CHUNK, |ids| {
        sweep_chunk(internet, config, ids)
    })
}

/// Folds the per-scenario rows (in scenario order) into the report.
fn aggregate(rows: Vec<Option<PerScenario>>, num_rounds: usize) -> RouterSurveyReport {
    let mut global_pairs: Vec<BTreeSet<(Ipv4Addr, Ipv4Addr)>> =
        vec![BTreeSet::new(); num_rounds + 1];
    let mut probes_per_round = vec![0u64; num_rounds + 1];
    let mut trace_probes_total = 0u64;
    let mut distinct_router_sets: BTreeSet<BTreeSet<Ipv4Addr>> = BTreeSet::new();
    let mut maps = Vec::new();
    let mut verdicts = VerdictMatrix::default();
    let mut unique_diamonds: BTreeMap<DiamondKey, (ResolutionCase, usize, usize)> = BTreeMap::new();
    let mut width_after = Histogram::new();
    let mut traces_with_aliases = 0usize;
    let mut traces = 0usize;
    let mut scenario_ids = Vec::new();

    for (id, row) in rows.into_iter().enumerate() {
        let Some(row) = row else { continue };
        traces += 1;
        scenario_ids.push(id);
        for (r, pairs) in row.pair_sets.iter().enumerate() {
            global_pairs[r].extend(pairs.iter().copied());
        }
        for (r, p) in row.probes_per_round.iter().enumerate() {
            probes_per_round[r] += p;
        }
        trace_probes_total += row.trace_probes;
        let mut any_alias = false;
        for set in row.router_map.alias_sets().into_values() {
            if set.len() >= 2 {
                any_alias = true;
                distinct_router_sets.insert(set);
            }
        }
        if any_alias {
            traces_with_aliases += 1;
        }
        maps.push(row.router_map);
        verdicts.merge(&row.verdicts);
        for (key, case, before, after) in row.diamonds {
            unique_diamonds.entry(key).or_insert((case, before, after));
        }
        for w in row.router_diamond_widths {
            width_after.record(w as u64);
        }
    }

    // Fig. 5 series.
    let reference = global_pairs.last().cloned().unwrap_or_default();
    let mut round_metrics = Vec::new();
    for (r, pairs) in global_pairs.iter().enumerate() {
        let tp = pairs.intersection(&reference).count() as f64;
        let precision = if pairs.is_empty() {
            1.0
        } else {
            tp / pairs.len() as f64
        };
        let recall = if reference.is_empty() {
            1.0
        } else {
            tp / reference.len() as f64
        };
        let probe_ratio = if trace_probes_total == 0 {
            0.0
        } else {
            probes_per_round[r] as f64 / trace_probes_total as f64
        };
        round_metrics.push(RoundMetric {
            round: r as u32,
            precision,
            recall,
            probe_ratio,
        });
    }

    // Fig. 12 (b): aggregated sizes.
    let aggregated = RouterMap::aggregate(&maps);
    let router_sizes_aggregated: Vec<usize> = aggregated
        .router_sizes()
        .into_iter()
        .filter(|&s| s >= 2)
        .collect();

    // Table 3 / Fig. 13 (a) / Fig. 14.
    let mut resolution_counts: BTreeMap<ResolutionCase, u64> = BTreeMap::new();
    let mut width_before = Histogram::new();
    let mut width_change = JointHistogram::new();
    for (case, before, after) in unique_diamonds.values() {
        *resolution_counts.entry(*case).or_insert(0) += 1;
        width_before.record(*before as u64);
        if *case != ResolutionCase::NoChange {
            width_change.record(*before as u64, *after as u64);
        }
    }

    let router_sizes_distinct: Vec<usize> =
        distinct_router_sets.iter().map(BTreeSet::len).collect();

    RouterSurveyReport {
        traces,
        scenario_ids,
        traces_with_aliases,
        router_sizes_distinct,
        router_sizes_aggregated,
        round_metrics,
        verdicts,
        resolution_counts,
        width_before,
        width_after,
        width_change,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::InternetConfig;
    use mlpt_alias::multilevel::trace_multilevel;
    use mlpt_alias::rounds::run_rounds;
    use mlpt_topo::TopologyBuilder;

    /// One scenario on the blocking reference path: its own prober,
    /// trace + rounds + comparator driven sequentially.
    fn blocking_scenario(
        internet: &SyntheticInternet,
        config: &RouterSurveyConfig,
        id: usize,
    ) -> Option<PerScenario> {
        let num_rounds = config.rounds.rounds as usize;
        let scenario = internet.scenario(id);
        if !scenario.has_diamond {
            return None;
        }
        let seed = trace_seed_of(config, id);
        let mut prober = TransportProber::new(
            scenario.build_network(seed),
            scenario.source,
            scenario.topology.destination(),
        );
        let ml_config = MultilevelConfig {
            trace: TraceConfig::new(seed),
            rounds: config.rounds.clone(),
        };
        let result = trace_multilevel(&mut prober, &ml_config);

        // Table 2: judge the union of router sets under both methods.
        let mut verdicts = VerdictMatrix::default();
        if config.with_direct_comparison {
            let trace = &result.trace;
            for ttl in 1..=trace.discovery.max_observed_ttl() {
                let candidates: BTreeSet<Ipv4Addr> = trace
                    .discovery
                    .vertices_at(ttl)
                    .iter()
                    .copied()
                    .filter(|&a| a != trace.destination && !mlpt_topo::is_star(a))
                    .collect();
                if candidates.len() < 2 {
                    continue;
                }
                // Evidence so far (trace + indirect rounds) …
                let mut base = EvidenceBase::from_log(prober.log(), &candidates);
                // … plus a direct-probing campaign of the same size.
                let direct_cfg = RoundsConfig {
                    method: ProbeMethod::Direct,
                    ..config.rounds.clone()
                };
                let direct_reports =
                    run_rounds(&mut prober, trace, &candidates, &mut base, &direct_cfg);

                let indirect_partition = result.final_partition(ttl);
                let direct_partition = direct_reports.last().map(|r| &r.partition);
                record_verdicts(
                    &mut verdicts,
                    &base,
                    indirect_partition,
                    direct_partition,
                    &config.rounds.mbt,
                );
            }
        }

        Some(scenario_tail(&result, verdicts, num_rounds))
    }

    /// The blocking reference rows: [`blocking_scenario`] for every
    /// scenario, in order.
    fn blocking_rows(
        internet: &SyntheticInternet,
        config: &RouterSurveyConfig,
    ) -> Vec<Option<PerScenario>> {
        (0..config.scenarios)
            .map(|id| blocking_scenario(internet, config, id))
            .collect()
    }

    #[test]
    fn classify_resolution_cases() {
        use mlpt_topo::graph::addr;
        // IP: 1-2-2-1 (length-3 diamond).
        let mut b = TopologyBuilder::default();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0), addr(2, 1)]);
        b.add_hop([addr(3, 0)]);
        for i in 0..3 {
            b.connect_unmeshed(i);
        }
        let ip = b.build().unwrap();
        let diamond = find_diamonds(&ip)[0];

        // No change: collapse with empty router map.
        let same = mlpt_topo::router::collapse(&ip, &RouterMap::new());
        assert_eq!(
            classify_resolution(&ip, &same, &diamond).0,
            ResolutionCase::NoChange
        );

        // Single smaller: collapse second hop only.
        let routers = RouterMap::from_alias_sets([vec![addr(2, 0), addr(2, 1)]]);
        let collapsed = mlpt_topo::router::collapse(&ip, &routers);
        assert_eq!(
            classify_resolution(&ip, &collapsed, &diamond).0,
            ResolutionCase::SingleSmaller
        );

        // One path: collapse both hops.
        let routers = RouterMap::from_alias_sets([
            vec![addr(1, 0), addr(1, 1)],
            vec![addr(2, 0), addr(2, 1)],
        ]);
        let collapsed = mlpt_topo::router::collapse(&ip, &routers);
        assert_eq!(
            classify_resolution(&ip, &collapsed, &diamond).0,
            ResolutionCase::OnePath
        );
    }

    #[test]
    fn classify_multiple_smaller() {
        use mlpt_topo::graph::addr;
        // IP: 1-2-2-2-1 (length-4); collapsing the middle hop splits it.
        let mut b = TopologyBuilder::default();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0), addr(2, 1)]);
        b.add_hop([addr(3, 0), addr(3, 1)]);
        b.add_hop([addr(4, 0)]);
        for i in 0..4 {
            b.connect_unmeshed(i);
        }
        let ip = b.build().unwrap();
        let diamond = find_diamonds(&ip)[0];
        let routers = RouterMap::from_alias_sets([vec![addr(2, 0), addr(2, 1)]]);
        let collapsed = mlpt_topo::router::collapse(&ip, &routers);
        assert_eq!(
            classify_resolution(&ip, &collapsed, &diamond).0,
            ResolutionCase::MultipleSmaller
        );
    }

    /// The acceptance gate: the streamed sweep path is a pure scheduling
    /// change. Every aggregate — the Fig. 5 series, the Table 2 verdict
    /// matrix, the Table 3 resolution counts, the Fig. 12 router sizes
    /// and the Fig. 13/14 width histograms — is identical to a blocking
    /// one-scenario-at-a-time loop, bit for bit.
    #[test]
    fn streamed_and_legacy_paths_agree() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(3));
        let base = RouterSurveyConfig {
            scenarios: 24,
            workers: 5, // deliberately uneven chunks: four of 5, one of 4
            trace_seed: 99,
            rounds: RoundsConfig {
                rounds: 3,
                replies_per_round: 8,
                ..RoundsConfig::default()
            },
            with_direct_comparison: true,
        };
        let streamed = run_router_survey(&internet, &base);
        let blocking = aggregate(blocking_rows(&internet, &base), base.rounds.rounds as usize);
        assert!(streamed.traces > 3, "population too small to mean much");
        assert_eq!(streamed.traces, blocking.traces);
        assert_eq!(streamed.scenario_ids, blocking.scenario_ids);
        assert_eq!(streamed.traces_with_aliases, blocking.traces_with_aliases);
        assert_eq!(
            streamed.router_sizes_distinct,
            blocking.router_sizes_distinct
        );
        assert_eq!(
            streamed.router_sizes_aggregated,
            blocking.router_sizes_aggregated
        );
        assert_eq!(streamed.round_metrics, blocking.round_metrics);
        assert_eq!(streamed.verdicts, blocking.verdicts);
        assert_eq!(streamed.resolution_counts, blocking.resolution_counts);
        assert_eq!(streamed.width_before, blocking.width_before);
        assert_eq!(streamed.width_after, blocking.width_after);
        assert_eq!(streamed.width_change, blocking.width_change);
        assert!(
            streamed.verdicts.total > 0,
            "the comparator must have judged some sets"
        );
    }

    /// Chunking (which follows the worker count) is pure scheduling on
    /// the streamed path: rows come back under source indices, so
    /// scenarios are reported in source order and the report is
    /// identical however the sweep is sliced.
    #[test]
    fn streamed_rows_keep_source_order() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(7));
        let run = |workers: usize| {
            run_router_survey(
                &internet,
                &RouterSurveyConfig {
                    scenarios: 18,
                    workers,
                    trace_seed: 5,
                    rounds: RoundsConfig {
                        rounds: 2,
                        replies_per_round: 6,
                        ..RoundsConfig::default()
                    },
                    with_direct_comparison: false,
                },
            )
        };
        let a = run(1); // one chunk of 18
        let b = run(4); // chunks of 5, 5, 5 and 3
        assert!(
            a.scenario_ids.windows(2).all(|w| w[0] < w[1]),
            "rows must be in ascending source order: {:?}",
            a.scenario_ids
        );
        assert_eq!(a.scenario_ids, b.scenario_ids);
        assert_eq!(a.round_metrics, b.round_metrics);
        assert_eq!(a.router_sizes_distinct, b.router_sizes_distinct);
        assert_eq!(a.resolution_counts, b.resolution_counts);
    }

    /// Scenarios that traverse the shared core structures overlap in
    /// interface addresses; the grouper must keep them out of each
    /// other's sweeps (echo probes route by interface).
    #[test]
    fn disjoint_groups_respect_shared_cores() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(7));
        // Find two scenarios sharing core addresses (below 0x4000_0000).
        let uses_core = |s: &TraceScenario| {
            s.topology
                .all_addresses()
                .iter()
                .any(|a| u32::from(*a) < 0x4000_0000)
        };
        let mut core_users: Vec<TraceScenario> = Vec::new();
        for id in 0..4000 {
            let s = internet.scenario(id);
            if uses_core(&s) {
                core_users.push(s);
                if core_users.len() >= 2 {
                    break;
                }
            }
        }
        assert!(core_users.len() >= 2, "core structures too rare");
        let refs: Vec<&TraceScenario> = core_users.iter().collect();
        let groups = disjoint_scenario_groups(&refs);
        if core_users[0]
            .topology
            .all_addresses()
            .intersection(&core_users[1].topology.all_addresses())
            .next()
            .is_some()
        {
            assert_eq!(groups.len(), 2, "overlapping scenarios must split");
        }
        // Every scenario lands in exactly one group.
        let mut all: Vec<usize> = groups.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1]);
    }

    /// Small end-to-end survey exercising the whole pipeline.
    #[test]
    fn small_router_survey() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(3));
        let config = RouterSurveyConfig {
            scenarios: 30,
            workers: 4,
            trace_seed: 99,
            rounds: RoundsConfig {
                rounds: 4,
                replies_per_round: 12,
                ..RoundsConfig::default()
            },
            with_direct_comparison: true,
        };
        let report = run_router_survey(&internet, &config);
        assert!(report.traces > 5, "some scenarios must carry diamonds");
        assert_eq!(report.round_metrics.len(), 5);

        // Final round defines the reference: precision = recall = 1.
        let last = report.round_metrics.last().unwrap();
        assert_eq!(last.precision, 1.0);
        assert_eq!(last.recall, 1.0);
        // Probe ratios grow monotonically.
        for w in report.round_metrics.windows(2) {
            assert!(w[1].probe_ratio >= w[0].probe_ratio);
        }

        // Router sizes: mostly 2 (generator pairs interfaces).
        if !report.router_sizes_distinct.is_empty() {
            let two = report
                .router_sizes_distinct
                .iter()
                .filter(|&&s| s == 2)
                .count() as f64
                / report.router_sizes_distinct.len() as f64;
            assert!(two > 0.4, "size-2 share {two}");
        }

        // Table 3 portions sum to 1.
        let total: f64 = [
            ResolutionCase::NoChange,
            ResolutionCase::SingleSmaller,
            ResolutionCase::MultipleSmaller,
            ResolutionCase::OnePath,
        ]
        .iter()
        .map(|&c| report.resolution_portion(c))
        .sum();
        assert!((total - 1.0).abs() < 1e-9 || total == 0.0);
    }
}
