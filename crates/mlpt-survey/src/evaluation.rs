//! The five-way algorithm comparison (Sec. 2.4.2: Fig. 4 and Table 1).
//!
//! "For each of these, we ran five variants of Paris Traceroute
//! successively: two with the MDA; one with the MDA-Lite and φ = 2; one
//! with the MDA-Lite and φ = 4; and one with just a single flow ID. …
//! For each topology, the first run with the MDA serves as the basis for
//! comparing the other algorithms. We calculate the ratio of vertices
//! discovered, edges discovered, and packets sent."

//! The five variant runs of every diamond-bearing scenario execute on
//! the **concurrent sweep engine**: scenarios are chunked, each chunk
//! shares one [`mlpt_sim::MultiNetwork`] per variant pass (a fresh
//! same-seeded network per run, so every run sees the same network
//! conditions, as back-to-back runs on a stable network would), and the
//! chunk's sessions stream into one [`SweepEngine`] per pass. Because
//! sweep traces are bit-identical to sequential ones and traces are
//! reported under their stream index, the ratios are identical to a
//! blocking one-run-at-a-time loop (a test pins this) — and independent
//! of chunking, worker count and admission order.

use crate::generator::{SyntheticInternet, TraceScenario};
use crate::parallel::{sweep_chunks, sweep_engine};
use mlpt_core::prelude::*;
use mlpt_core::TraceSession;
use mlpt_stats::{EmpiricalCdf, RatioSummary};
use serde::{Deserialize, Serialize};

/// Scenarios per sweep chunk (each chunk shares one network per variant
/// pass and streams its sessions into one engine).
const SWEEP_CHUNK: usize = 64;
/// In-flight probe budget per sweep engine.
const SWEEP_IN_FLIGHT: usize = 256;

/// Which of the five runs a ratio series belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Second MDA run (the variability baseline).
    SecondMda,
    /// MDA-Lite with φ = 2.
    MdaLitePhi2,
    /// MDA-Lite with φ = 4.
    MdaLitePhi4,
    /// Single flow identifier.
    SingleFlow,
}

/// All variants in presentation order.
pub const VARIANTS: [Variant; 4] = [
    Variant::SecondMda,
    Variant::MdaLitePhi2,
    Variant::MdaLitePhi4,
    Variant::SingleFlow,
];

impl Variant {
    /// Human-readable label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Variant::SecondMda => "Second MDA",
            Variant::MdaLitePhi2 => "MDA-Lite 2",
            Variant::MdaLitePhi4 => "MDA-Lite 4",
            Variant::SingleFlow => "Single flow ID",
        }
    }
}

/// Per-trace discovery ratios of one variant against the first MDA run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRatios {
    /// Vertices(variant) / Vertices(first MDA).
    pub vertices: f64,
    /// Edges(variant) / Edges(first MDA).
    pub edges: f64,
    /// Packets(variant) / Packets(first MDA).
    pub packets: f64,
}

/// Raw counts of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunCounts {
    /// Vertices discovered.
    pub vertices: u64,
    /// Edges discovered.
    pub edges: u64,
    /// Probe packets sent.
    pub packets: u64,
}

/// Configuration of the evaluation campaign.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// Scenarios to consider (only diamond-bearing ones are measured,
    /// mirroring the paper's "pairs … for which diamonds had been
    /// discovered").
    pub scenarios: usize,
    /// Worker threads.
    pub workers: usize,
    /// Seed for the tracing side.
    pub trace_seed: u64,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        Self {
            scenarios: 500,
            workers: crate::parallel::default_workers(),
            trace_seed: 0xE7A1,
        }
    }
}

/// Results: per-variant ratio series (Fig. 4) and aggregate ratios
/// (Table 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluationOutcome {
    /// Diamond-bearing traces measured.
    pub measured_traces: usize,
    /// Per-variant per-trace ratio records, in variant order
    /// (SecondMda, MdaLitePhi2, MdaLitePhi4, SingleFlow).
    pub ratios: Vec<Vec<TraceRatios>>,
    /// Table 1 aggregates: Σvariant / ΣfirstMda for vertices, edges,
    /// packets, same variant order.
    pub aggregates: Vec<(f64, f64, f64)>,
}

impl EvaluationOutcome {
    /// Ratio records for one variant.
    pub fn ratios_of(&self, variant: Variant) -> &[TraceRatios] {
        let idx = VARIANTS.iter().position(|&v| v == variant).expect("known");
        &self.ratios[idx]
    }

    /// Fig. 4 CDF for one variant and metric selector.
    pub fn cdf<F: Fn(&TraceRatios) -> f64>(&self, variant: Variant, f: F) -> EmpiricalCdf {
        EmpiricalCdf::from_iter(self.ratios_of(variant).iter().map(f))
    }

    /// Table 1 row for one variant: (vertices, edges, packets).
    pub fn aggregate_of(&self, variant: Variant) -> (f64, f64, f64) {
        let idx = VARIANTS.iter().position(|&v| v == variant).expect("known");
        self.aggregates[idx]
    }
}

fn counts(trace: &Trace) -> RunCounts {
    // Count over the completed topology rather than raw flow witnesses:
    // a hop behind a single vertex determines its edges without needing a
    // flow observed at both TTLs (the MDA routinely leaves those edges
    // implicit, the MDA-Lite's completion step makes them explicit — the
    // topologies are the same and must count the same).
    match trace.to_topology() {
        Some(topo) => {
            let vertices = topo
                .hops()
                .iter()
                .flatten()
                .filter(|a| !mlpt_topo::is_star(**a))
                .count() as u64;
            RunCounts {
                vertices,
                edges: topo.total_edges() as u64,
                packets: trace.probes_sent,
            }
        }
        None => RunCounts {
            vertices: trace.total_vertices() as u64,
            edges: trace.total_edges() as u64,
            packets: trace.probes_sent,
        },
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}

/// A scenario's base seed: the *network* seed of all five of its runs
/// ("same network conditions per run"). Shared with the blocking
/// reference loop in the tests, whose bit-identity with the sweep
/// depends on them agreeing.
fn scenario_base_seed(trace_seed: u64, id: usize) -> u64 {
    trace_seed ^ (id as u64).wrapping_mul(0xD1B5_4A32)
}

/// The trace seed of one variant run of one scenario.
fn variant_seed(trace_seed: u64, id: usize, variant: usize) -> u64 {
    scenario_base_seed(trace_seed, id).wrapping_add(1 + variant as u64)
}

/// The sans-IO session of one variant run (the sweep-engine analogue of
/// the blocking `trace_mda`/`trace_mda_lite`/`trace_single_flow` calls).
fn variant_session(scenario: &TraceScenario, seed: u64, variant: usize) -> Box<dyn TraceSession> {
    let destination = scenario.topology.destination();
    let cfg = TraceConfig::new(seed);
    match variant {
        0 | 1 => Box::new(MdaSession::new(destination, cfg)),
        2 => Box::new(MdaLiteSession::new(destination, cfg.with_phi(2))),
        3 => Box::new(MdaLiteSession::new(destination, cfg.with_phi(4))),
        _ => Box::new(SingleFlowSession::new(destination, cfg, FlowId(0))),
    }
}

/// First-MDA counts plus each variant's counts, or None if the
/// scenario carried no diamond.
type PerScenario = Option<(RunCounts, [RunCounts; 4])>;

/// Runs the five variants over every diamond-bearing scenario.
pub fn evaluate_scenarios(
    internet: &SyntheticInternet,
    config: &EvaluationConfig,
) -> EvaluationOutcome {
    aggregate(sweep_rows(internet, config))
}

/// Runs every scenario's five variants on the sweep engine, one row per
/// scenario in index order.
///
/// Worker threads scale across scenario chunks; inside a chunk the five
/// variants run as five streamed sweeps, each over a fresh same-seeded
/// network per scenario (same conditions per run). Traces land under
/// their stream index, so rows are in scenario order no matter how
/// admission interleaves or which worker claims the chunk.
fn sweep_rows(internet: &SyntheticInternet, config: &EvaluationConfig) -> Vec<PerScenario> {
    sweep_chunks(config.scenarios, config.workers, SWEEP_CHUNK, |ids| {
        let scenarios: Vec<TraceScenario> = ids.map(|id| internet.scenario(id)).collect();
        let kept: Vec<&TraceScenario> = scenarios.iter().filter(|s| s.has_diamond).collect();
        // counts_of[variant][kept index]
        let mut counts_of: Vec<Vec<Option<RunCounts>>> = vec![vec![None; kept.len()]; 5];
        if !kept.is_empty() {
            for (variant, slot) in counts_of.iter_mut().enumerate() {
                // Network seed: the scenario's base seed — same
                // conditions for all five runs of a scenario.
                let mut engine = sweep_engine(
                    kept.iter()
                        .map(|&s| (s, scenario_base_seed(config.trace_seed, s.id))),
                    SWEEP_IN_FLIGHT,
                );
                let sessions = kept.iter().map(|s| {
                    variant_session(s, variant_seed(config.trace_seed, s.id, variant), variant)
                });
                engine.run_stream_with(sessions, |index, trace| {
                    slot[index] = Some(counts(&trace));
                });
            }
        }
        // Re-align the kept rows with the chunk's full id range.
        let mut kept_iter = 0usize;
        scenarios
            .iter()
            .map(|s| {
                if !s.has_diamond {
                    return None;
                }
                let k = kept_iter;
                kept_iter += 1;
                let take = |v: usize| counts_of[v][k].expect("variant run completed");
                Some((take(0), [take(1), take(2), take(3), take(4)]))
            })
            .collect()
    })
}

/// Folds the per-scenario rows (in scenario order) into the Fig. 4
/// series and Table 1 aggregates.
fn aggregate(rows: Vec<PerScenario>) -> EvaluationOutcome {
    let mut ratios: Vec<Vec<TraceRatios>> = vec![Vec::new(); 4];
    let mut aggregates: Vec<(RatioSummary, RatioSummary, RatioSummary)> =
        vec![Default::default(); 4];
    let mut measured_traces = 0usize;
    for row in rows.into_iter().flatten() {
        measured_traces += 1;
        let (first, variants) = row;
        for (i, v) in variants.iter().enumerate() {
            ratios[i].push(TraceRatios {
                vertices: ratio(v.vertices, first.vertices),
                edges: ratio(v.edges, first.edges),
                packets: ratio(v.packets, first.packets),
            });
            aggregates[i]
                .0
                .record(v.vertices as f64, first.vertices as f64);
            aggregates[i].1.record(v.edges as f64, first.edges as f64);
            aggregates[i]
                .2
                .record(v.packets as f64, first.packets as f64);
        }
    }

    EvaluationOutcome {
        measured_traces,
        ratios,
        aggregates: aggregates
            .into_iter()
            .map(|(v, e, p)| (v.ratio(), e.ratio(), p.ratio()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::InternetConfig;

    fn small_eval() -> EvaluationOutcome {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(9));
        let config = EvaluationConfig {
            scenarios: 60,
            workers: 4,
            trace_seed: 5,
        };
        evaluate_scenarios(&internet, &config)
    }

    /// The blocking reference: one full trace (and one simulator) per
    /// run, scenario by scenario.
    fn blocking_rows(internet: &SyntheticInternet, config: &EvaluationConfig) -> Vec<PerScenario> {
        (0..config.scenarios)
            .map(|id| {
                let scenario = internet.scenario(id);
                if !scenario.has_diamond {
                    return None;
                }
                let base_seed = scenario_base_seed(config.trace_seed, id);
                let run = |variant: usize| -> RunCounts {
                    // Each run sees the same network conditions (same
                    // network seed) but uses its own flow randomness,
                    // like back-to-back runs on a stable network.
                    let mut prober = TransportProber::new(
                        scenario.build_network(base_seed),
                        scenario.source,
                        scenario.topology.destination(),
                    );
                    let cfg = TraceConfig::new(variant_seed(config.trace_seed, id, variant));
                    counts(&match variant {
                        0 | 1 => trace_mda(&mut prober, &cfg),
                        2 => trace_mda_lite(&mut prober, &cfg.with_phi(2)),
                        3 => trace_mda_lite(&mut prober, &cfg.with_phi(4)),
                        _ => trace_single_flow(&mut prober, &cfg, FlowId(0)),
                    })
                };
                Some((run(0), [run(1), run(2), run(3), run(4)]))
            })
            .collect()
    }

    fn outcomes_equal(a: &EvaluationOutcome, b: &EvaluationOutcome) {
        assert_eq!(a.measured_traces, b.measured_traces);
        assert_eq!(a.ratios, b.ratios);
        assert_eq!(a.aggregates, b.aggregates);
    }

    /// The sweep-engine path reproduces a blocking one-run-at-a-time
    /// loop exactly: same per-run traces, so same ratios, bit for bit.
    #[test]
    fn sweep_and_legacy_paths_agree() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(21));
        let base = EvaluationConfig {
            scenarios: 30,
            workers: 4, // deliberately uneven chunks: 8, 8, 8 and 6
            trace_seed: 11,
        };
        let sweep = evaluate_scenarios(&internet, &base);
        let blocking = aggregate(blocking_rows(&internet, &base));
        outcomes_equal(&sweep, &blocking);
    }

    /// Regression for the ordering audit: scenario/variant output order
    /// is pinned by stream indices, so the outcome is identical however
    /// admission interleaves — across worker counts and the chunk sizes
    /// they imply.
    #[test]
    fn outcome_independent_of_admission_order() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(23));
        let run = |workers: usize| {
            evaluate_scenarios(
                &internet,
                &EvaluationConfig {
                    scenarios: 24,
                    workers,
                    trace_seed: 3,
                },
            )
        };
        let a = run(1); // one chunk of 24
        let b = run(5); // chunks of 5, 5, 5, 5 and 4
        outcomes_equal(&a, &b);
    }

    #[test]
    fn discovery_parity_and_packet_savings() {
        let out = small_eval();
        assert!(out.measured_traces > 20);

        // Table 1 shape: MDA-Lite within a few percent of the MDA on
        // vertices/edges, and clearly cheaper in packets.
        let (v2, e2, p2) = out.aggregate_of(Variant::SecondMda);
        let (vl, el, pl) = out.aggregate_of(Variant::MdaLitePhi2);
        let (vs, es, ps) = out.aggregate_of(Variant::SingleFlow);

        assert!((v2 - 1.0).abs() < 0.05, "second MDA vertices {v2}");
        assert!((e2 - 1.0).abs() < 0.05, "second MDA edges {e2}");
        assert!((p2 - 1.0).abs() < 0.15, "second MDA packets {p2}");

        assert!((vl - 1.0).abs() < 0.06, "lite vertices {vl}");
        assert!((el - 1.0).abs() < 0.08, "lite edges {el}");
        assert!(pl < 0.9, "lite packets must be cheaper: {pl}");

        assert!(vs < 0.8, "single flow discovers far fewer vertices: {vs}");
        assert!(es < 0.6, "single flow discovers far fewer edges: {es}");
        assert!(ps < 0.12, "single flow sends a tiny fraction: {ps}");
    }

    #[test]
    fn phi4_similar_to_phi2() {
        let out = small_eval();
        let (v2, e2, p2) = out.aggregate_of(Variant::MdaLitePhi2);
        let (v4, e4, p4) = out.aggregate_of(Variant::MdaLitePhi4);
        assert!((v2 - v4).abs() < 0.03);
        assert!((e2 - e4).abs() < 0.04);
        // φ = 4 spends slightly more on the meshing test.
        assert!(p4 >= p2 * 0.95);
    }

    #[test]
    fn cdfs_have_full_population() {
        let out = small_eval();
        for variant in VARIANTS {
            let cdf = out.cdf(variant, |r| r.packets);
            assert_eq!(cdf.len(), out.measured_traces);
        }
        // Single-flow packet ratios concentrate near zero.
        let single = out.cdf(Variant::SingleFlow, |r| r.packets);
        assert!(single.quantile(0.9).is_some_and(|q| q < 0.2));
    }
}
