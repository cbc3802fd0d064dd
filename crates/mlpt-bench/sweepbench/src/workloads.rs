//! The three sweep workloads, each set up from a seed and swept through
//! the public engine API exactly as the CLI or the survey drives it.

use crate::tracing::{Capture, Clock, Meter, Span, TracedSession, TracedTransport};
use mlpt_alias::multilevel::{MultilevelConfig, MultilevelSession};
use mlpt_alias::rounds::{ProbeMethod, RoundsConfig};
use mlpt_core::prelude::*;
use mlpt_core::{MdaLiteSession, MdaSession, ProbeSession};
use mlpt_sim::{FaultPlan, MultiNetwork, SimNetwork};
use mlpt_survey::router_survey::{disjoint_scenario_groups, scenario_cost_hint};
use mlpt_survey::{InternetConfig, SyntheticInternet, TraceScenario};
use mlpt_topo::diamond::all_diamond_metrics;
use mlpt_topo::{canonical, MultipathTopology, RouterMap};
use mlpt_wire::transport::SplitTransport;
use std::net::Ipv4Addr;

/// `meshed-lite`: lanes, shards and budget of
/// `mlpt sweep --topology meshed --algo lite --destinations 200 --shards 2`.
const MESHED_LANES: usize = 200;
const MESHED_SHARDS: usize = 2;
const MESHED_BUDGET: usize = 1024;

/// `survey-mda`: the IP survey's sweep path, one engine over every
/// scenario, with reply loss, retries and the stall watchdog.
const SURVEY_SCENARIOS: usize = 1000;
const SURVEY_BUDGET: usize = 256;
const SURVEY_REPLY_LOSS: f64 = 0.02;
const SURVEY_RETRIES: u8 = 2;
const SURVEY_STALL_ROUNDS: u32 = 8;

/// `alias-multilevel`: the scenarios `mlpt alias` resolves, in its
/// address-disjoint sub-sweeps.
const ALIAS_SCENARIOS: usize = 256;
const ALIAS_BUDGET: usize = 1024;

/// The vantage point of the canonical-topology sweeps (the CLI's).
const CLI_SOURCE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MeshedLite,
    SurveyMda,
    AliasMultilevel,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MeshedLite,
        Workload::SurveyMda,
        Workload::AliasMultilevel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshedLite => "meshed-lite",
            Workload::SurveyMda => "survey-mda",
            Workload::AliasMultilevel => "alias-multilevel",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input sets one run sweeps, each at least once: enough that a
    /// run's counts (crossings above all) average over several draws of
    /// the random streams, as many as fit in one run of the benchmark's
    /// length (a sweep takes about 6, 3 and 1.6 s respectively).
    pub fn input_sets(self) -> usize {
        match self {
            Workload::MeshedLite => 3,
            Workload::SurveyMda => 6,
            Workload::AliasMultilevel => 9,
        }
    }

    /// Generates the inputs: networks, destinations and per-destination
    /// seeds, all from `seed`.
    pub fn prepare(self, seed: u64) -> Prepared {
        match self {
            Workload::MeshedLite => prepare_meshed(seed),
            Workload::SurveyMda => prepare_survey(seed),
            Workload::AliasMultilevel => prepare_alias(seed),
        }
    }
}

/// What one destination should have produced.
pub struct Truth {
    pub topology: MultipathTopology,
    pub routers: Option<RouterMap>,
}

/// One destination's session input.
struct Target {
    destination: Ipv4Addr,
    seed: u64,
    cost_hint: u64,
}

enum Inputs {
    Meshed {
        shards: Vec<MultiNetwork>,
        config: TraceConfig,
    },
    Survey {
        net: MultiNetwork,
    },
    Alias {
        groups: Vec<(MultiNetwork, Vec<usize>)>,
        rounds: RoundsConfig,
    },
}

/// A workload's generated inputs, ready for one sweep.
pub struct Prepared {
    inputs: Inputs,
    targets: Vec<Target>,
    source: Ipv4Addr,
    pub truth: Vec<Truth>,
}

impl Prepared {
    pub fn destinations(&self) -> usize {
        self.targets.len()
    }
}

fn prepare_meshed(seed: u64) -> Prepared {
    let topologies: Vec<MultipathTopology> = (0..MESHED_LANES)
        .map(|i| canonical::meshed().translated(0x0100_0000 * (i as u32 + 1)))
        .collect();
    let lanes: Vec<SimNetwork> = topologies
        .iter()
        .enumerate()
        .map(|(i, topology)| {
            SimNetwork::builder(topology.clone())
                .seed(seed.wrapping_add(i as u64))
                .faults(FaultPlan::none())
                .build()
        })
        .collect();
    let net = MultiNetwork::new(lanes)
        .expect("translated lanes have distinct destinations")
        .with_workers(1);
    let shards = net.split_by(MESHED_SHARDS, |d| shard_of(d, MESHED_SHARDS));
    let targets = topologies
        .iter()
        .enumerate()
        .map(|(i, topology)| Target {
            destination: topology.destination(),
            seed: seed.wrapping_add(i as u64),
            cost_hint: 0,
        })
        .collect();
    let config = TraceConfig::new(seed)
        .with_stopping(StoppingPoints::mda95())
        .with_phi(2);
    Prepared {
        inputs: Inputs::Meshed { shards, config },
        targets,
        source: CLI_SOURCE,
        truth: topologies
            .into_iter()
            .map(|topology| Truth {
                topology,
                routers: None,
            })
            .collect(),
    }
}

/// The survey's per-scenario trace seed.
fn survey_trace_seed(seed: u64, id: usize) -> u64 {
    seed ^ (id as u64).wrapping_mul(0x9E37_79B9)
}

fn scenario_network(scenario: &TraceScenario, seed: u64, faults: FaultPlan) -> SimNetwork {
    let mut builder = SimNetwork::builder(scenario.topology.clone())
        .routers(scenario.routers.clone())
        .faults(faults)
        .seed(seed);
    for (router, profile) in &scenario.profiles {
        builder = builder.profile(*router, *profile);
    }
    builder.build()
}

fn prepare_survey(seed: u64) -> Prepared {
    let internet = SyntheticInternet::new(InternetConfig::default());
    let scenarios: Vec<TraceScenario> = (0..SURVEY_SCENARIOS)
        .map(|id| internet.scenario(id))
        .collect();
    let faults = FaultPlan::with_loss(0.0, SURVEY_REPLY_LOSS);
    let lanes = scenarios
        .iter()
        .map(|s| scenario_network(s, survey_trace_seed(seed, s.id), faults))
        .collect();
    let net = MultiNetwork::new(lanes).expect("synthetic-Internet destinations are unique");
    let targets = scenarios
        .iter()
        .map(|s| Target {
            destination: s.topology.destination(),
            seed: survey_trace_seed(seed, s.id),
            cost_hint: 0,
        })
        .collect();
    Prepared {
        inputs: Inputs::Survey { net },
        targets,
        source: single_source(&scenarios),
        truth: scenarios
            .into_iter()
            .map(|s| Truth {
                topology: s.topology,
                routers: None,
            })
            .collect(),
    }
}

fn prepare_alias(seed: u64) -> Prepared {
    let internet = SyntheticInternet::new(InternetConfig::default());
    let scenarios: Vec<TraceScenario> = (0..ALIAS_SCENARIOS)
        .map(|id| internet.scenario(id))
        .collect();
    let rounds = RoundsConfig {
        rounds: 10,
        replies_per_round: 30,
        method: ProbeMethod::Indirect,
        ..RoundsConfig::default()
    };
    let refs: Vec<&TraceScenario> = scenarios.iter().collect();
    let groups = disjoint_scenario_groups(&refs)
        .into_iter()
        .map(|members| {
            let lanes = members
                .iter()
                .map(|&i| {
                    scenario_network(
                        &scenarios[i],
                        seed.wrapping_add(i as u64),
                        FaultPlan::none(),
                    )
                })
                .collect();
            let net = MultiNetwork::new(lanes).expect("disjoint groups have unique destinations");
            (net, members)
        })
        .collect();
    let targets = scenarios
        .iter()
        .map(|s| Target {
            destination: s.topology.destination(),
            seed: seed.wrapping_add(s.id as u64),
            cost_hint: scenario_cost_hint(s, &rounds, false),
        })
        .collect();
    Prepared {
        inputs: Inputs::Alias { groups, rounds },
        targets,
        source: single_source(&scenarios),
        truth: scenarios
            .into_iter()
            .map(|s| Truth {
                topology: s.topology,
                routers: Some(s.routers),
            })
            .collect(),
    }
}

fn single_source(scenarios: &[TraceScenario]) -> Ipv4Addr {
    let source = scenarios[0].source;
    assert!(
        scenarios.iter().all(|s| s.source == source),
        "the synthetic Internet has a single vantage point"
    );
    source
}

/// One destination's result: what traced and untraced sweeps must agree
/// on bit for bit, and what is checked against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct DestResult {
    pub trace: Trace,
    /// Probes the engine put on the wire for this destination.
    pub wire_probes: u64,
    /// Diamonds the sink's analysis found (`survey-mda` only).
    pub diamonds: Option<usize>,
    /// Inferred alias sets (`alias-multilevel` only).
    pub routers: Option<RouterMap>,
}

/// Everything one sweep produced.
pub struct SweepRun {
    pub results: Vec<DestResult>,
    /// Per-shard engine counters (one entry for single-engine sweeps;
    /// sub-sweeps merge into it).
    pub shard_stats: Vec<SweepStats>,
    pub stats: SweepStats,
    /// Per-crossing batch sizes as the engine logged them (single
    /// engines only: the sharded engine does not expose them).
    pub engine_batches: Option<Vec<u32>>,
    /// `(pulled, reported)` ns per destination since the sweep's epoch.
    pub window: Vec<(u64, u64)>,
    pub spans: Vec<Span>,
    /// Per traced transport, in shard (or sub-sweep) order.
    pub captures: Vec<Capture>,
    pub cpu_s: f64,
}

impl SweepRun {
    /// First destination pulled to last result reported, in ns.
    pub fn wall_ns(&self) -> (u64, u64) {
        let start = self.window.iter().map(|w| w.0).min().unwrap_or(0);
        let end = self.window.iter().map(|w| w.1).max().unwrap_or(0);
        (start, end)
    }
}

/// A transport the sweep can run over: the bare simulator, or the
/// simulator behind the tracing wrapper.
trait Net: SplitTransport + Send {
    fn into_trace(self) -> Option<(Vec<Span>, Capture)>;
}

impl Net for MultiNetwork {
    fn into_trace(self) -> Option<(Vec<Span>, Capture)> {
        None
    }
}

impl Net for TracedTransport<MultiNetwork> {
    fn into_trace(self) -> Option<(Vec<Span>, Capture)> {
        Some(self.into_parts())
    }
}

/// Engine output before assembly.
struct Driven {
    results: Vec<Option<DestResult>>,
    shard_stats: Vec<SweepStats>,
    stats: SweepStats,
    engine_batches: Option<Vec<u32>>,
    /// Spans and capture of each traced transport.
    traced: Vec<(Vec<Span>, Capture)>,
}

fn traces_of<T: Net>(transports: Vec<T>) -> Vec<(Vec<Span>, Capture)> {
    transports.into_iter().filter_map(Net::into_trace).collect()
}

/// Runs one sweep over freshly prepared inputs, traced or not.
pub fn sweep(prepared: Prepared, traced: bool) -> SweepRun {
    let clock = Clock::start();
    let meter = Meter::new(clock, prepared.destinations(), traced);
    let cpu_before = crate::host::cpu_seconds();
    let Prepared {
        inputs,
        targets,
        source,
        ..
    } = prepared;
    let driven = match inputs {
        Inputs::Meshed { shards, config } => {
            let sessions = (0..targets.len()).map(|i| {
                meter.pull(i, || {
                    let session = MdaLiteSession::new(
                        targets[i].destination,
                        TraceConfig {
                            seed: targets[i].seed,
                            ..config.clone()
                        },
                    );
                    boxed(session, i, &meter)
                })
            });
            if traced {
                let shards = wrap_all(shards, clock);
                run_meshed(shards, source, sessions, &meter)
            } else {
                run_meshed(shards, source, sessions, &meter)
            }
        }
        Inputs::Survey { net } => {
            let sessions = (0..targets.len()).map(|i| {
                meter.pull(i, || {
                    let session =
                        MdaSession::new(targets[i].destination, TraceConfig::new(targets[i].seed));
                    boxed(session, i, &meter)
                })
            });
            if traced {
                run_survey(
                    TracedTransport::new(net, 0, clock),
                    source,
                    sessions,
                    &meter,
                )
            } else {
                run_survey(net, source, sessions, &meter)
            }
        }
        Inputs::Alias { groups, rounds } => {
            let make = |i: usize| {
                MultilevelSession::new(
                    targets[i].destination,
                    MultilevelConfig {
                        trace: TraceConfig::new(targets[i].seed),
                        rounds: rounds.clone(),
                    },
                )
                .with_hop_fanout(false)
                .with_cost_hint(targets[i].cost_hint)
            };
            match meter.store().cloned() {
                Some(store) => {
                    let groups = groups
                        .into_iter()
                        .enumerate()
                        .map(|(g, (net, members))| (TracedTransport::new(net, g, clock), members))
                        .collect();
                    run_alias(
                        groups,
                        source,
                        targets.len(),
                        &meter,
                        |i| TracedSession::new(make(i), i, &store),
                        TracedSession::into_inner,
                    )
                }
                None => run_alias(groups, source, targets.len(), &meter, make, |s| s),
            }
        }
    };
    let cpu_s = crate::host::cpu_seconds() - cpu_before;
    let (window, mut spans) = meter.into_parts();
    let mut captures = Vec::new();
    for (transport_spans, capture) in driven.traced {
        spans.extend(transport_spans);
        captures.push(capture);
    }
    SweepRun {
        results: driven
            .results
            .into_iter()
            .map(|r| r.expect("every destination reports exactly once"))
            .collect(),
        shard_stats: driven.shard_stats,
        stats: driven.stats,
        engine_batches: driven.engine_batches,
        window,
        spans,
        captures,
        cpu_s,
    }
}

fn boxed<S: TraceSession + 'static>(session: S, id: usize, meter: &Meter) -> Box<dyn TraceSession> {
    match meter.store() {
        Some(store) => Box::new(TracedSession::new(session, id, store)),
        None => Box::new(session),
    }
}

fn wrap_all(nets: Vec<MultiNetwork>, clock: Clock) -> Vec<TracedTransport<MultiNetwork>> {
    nets.into_iter()
        .enumerate()
        .map(|(k, net)| TracedTransport::new(net, k, clock))
        .collect()
}

fn trace_result(trace: Trace) -> DestResult {
    DestResult {
        wire_probes: trace.probes_sent,
        trace,
        diamonds: None,
        routers: None,
    }
}

fn run_meshed<T: Net>(
    shards: Vec<T>,
    source: Ipv4Addr,
    sessions: impl Iterator<Item = Box<dyn TraceSession>>,
    meter: &Meter,
) -> Driven {
    let mut results: Vec<Option<DestResult>> = vec![None; MESHED_LANES];
    let mut engine = ShardedSweepEngine::new(shards, source).with_config(SweepConfig {
        max_in_flight: MESHED_BUDGET,
        admission: Admission::Streaming,
        ..SweepConfig::default()
    });
    engine.run_stream_with(sessions, |index, trace| {
        meter.report(index, || results[index] = Some(trace_result(trace)));
    });
    Driven {
        results,
        shard_stats: engine.shard_stats().into_iter().copied().collect(),
        stats: *engine.stats(),
        engine_batches: None,
        traced: traces_of(engine.into_transports()),
    }
}

fn run_survey<T: Net>(
    net: T,
    source: Ipv4Addr,
    sessions: impl Iterator<Item = Box<dyn TraceSession>>,
    meter: &Meter,
) -> Driven {
    let mut results: Vec<Option<DestResult>> = vec![None; SURVEY_SCENARIOS];
    let mut engine = SweepEngine::new(net, source).with_config(SweepConfig {
        max_in_flight: SURVEY_BUDGET,
        admission: Admission::Streaming,
        retries: SURVEY_RETRIES,
        retry: RetryPolicy::default(),
        stall_rounds: SURVEY_STALL_ROUNDS,
        ..SweepConfig::default()
    });
    engine.run_stream_with(sessions, |index, trace| {
        meter.report(index, || {
            // The survey's per-trace analysis: the discovered topology
            // and its diamonds.
            let diamonds = trace.to_topology().map(|t| all_diamond_metrics(&t).len());
            results[index] = Some(DestResult {
                diamonds: Some(diamonds.unwrap_or(0)),
                ..trace_result(trace)
            });
        });
    });
    let stats = *engine.stats();
    Driven {
        results,
        shard_stats: vec![stats],
        stats,
        engine_batches: Some(engine.cycle_batches().to_vec()),
        traced: traces_of(vec![engine.into_transport()]),
    }
}

fn run_alias<T: Net, S: ProbeSession>(
    groups: Vec<(T, Vec<usize>)>,
    source: Ipv4Addr,
    destinations: usize,
    meter: &Meter,
    make: impl Fn(usize) -> S,
    unwrap: impl Fn(S) -> MultilevelSession,
) -> Driven {
    let mut results: Vec<Option<DestResult>> = vec![None; destinations];
    let mut stats = SweepStats::default();
    let mut batches = Vec::new();
    let mut transports = Vec::new();
    for (net, members) in groups {
        let mut engine = SweepEngine::new(net, source).with_config(SweepConfig {
            max_in_flight: ALIAS_BUDGET,
            admission: Admission::Streaming,
            ..SweepConfig::default()
        });
        let sessions = members.iter().map(|&i| meter.pull(i, || make(i)));
        engine.run_sessions_with(sessions, |index, session, wire_probes| {
            let id = members[index];
            let outcome = meter.finish(id, || unwrap(session).finish());
            meter.report(id, || {
                results[id] = Some(DestResult {
                    trace: outcome.multilevel.trace,
                    wire_probes,
                    diamonds: None,
                    routers: Some(outcome.multilevel.router_map),
                });
            });
        });
        stats.merge(engine.stats());
        batches.extend_from_slice(engine.cycle_batches());
        transports.push(engine.into_transport());
    }
    Driven {
        results,
        shard_stats: vec![stats],
        stats,
        engine_batches: Some(batches),
        traced: traces_of(transports),
    }
}
