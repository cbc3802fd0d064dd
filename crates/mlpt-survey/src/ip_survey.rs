//! The IP-level survey (Sec. 5.1).
//!
//! Traces every scenario with the full MDA (as the paper's survey did,
//! using libparistraceroute's MDA with default parameters), extracts
//! diamonds, and aggregates the metric distributions behind Figs. 7–11,
//! plus the Fig. 2 meshing-detection-failure analysis.
//!
//! Scenarios are traced by the **concurrent sweep engine**: destinations
//! are grouped into chunks of up to 128, each chunk shares one
//! [`mlpt_sim::MultiNetwork`] whose lanes are the per-scenario
//! simulators, and one [`mlpt_core::SweepEngine`] *streams*
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
use crate::parallel::{sweep_chunks, sweep_engine};
use mlpt_core::prelude::*;
use mlpt_core::{MdaSession, TraceSession};
use mlpt_stats::{EmpiricalCdf, Histogram, JointHistogram};
use mlpt_topo::diamond::{all_diamond_metrics, find_diamonds, meshing_miss_probability};
use serde::{Deserialize, Serialize};

/// Destinations sharing one simulated network per sweep chunk.
const SWEEP_CHUNK: usize = 128;
/// In-flight probe budget per sweep engine (the streaming-admission
/// headroom).
const SWEEP_IN_FLIGHT: usize = 256;

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
}

impl Default for IpSurveyConfig {
    fn default() -> Self {
        Self {
            scenarios: 1000,
            workers: crate::parallel::default_workers(),
            trace_seed: 0xA11A,
            phi: 2,
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
    sweep_chunks(config.scenarios, config.workers, SWEEP_CHUNK, |ids| {
        // One generator pass per scenario: the lane, destination and
        // source all come from the same materialisation.
        let scenarios: Vec<_> = ids.map(|id| internet.scenario(id)).collect();
        let mut engine = sweep_engine(
            scenarios.iter().map(|s| (s, trace_seed_of(config, s.id))),
            SWEEP_IN_FLIGHT,
        );
        let sessions = scenarios.iter().map(|scenario| {
            Box::new(MdaSession::new(
                scenario.topology.destination(),
                TraceConfig::new(trace_seed_of(config, scenario.id)),
            )) as Box<dyn TraceSession>
        });
        // Analyse each trace as it completes; indices pin results to
        // stream order, independent of completion order.
        let mut per: Vec<Option<PerTrace>> = (0..scenarios.len()).map(|_| None).collect();
        engine.run_stream_with(sessions, |index, trace| {
            per[index] = Some(analyse(&trace, config.phi));
        });
        per.into_iter()
            .map(|p| p.expect("every streamed session reports a trace"))
            .collect()
    })
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
    for (id, t) in per_trace.into_iter().enumerate() {
        report.exploitable += usize::from(t.exploitable);
        report.load_balanced += usize::from(t.load_balanced);
        for m in t.diamonds {
            report.diamonds.record(id, m);
        }
        report.meshing_miss_measured.extend(t.meshing_miss.iter());
        report.meshing_miss_distinct.extend(t.meshing_miss);
    }
    // Distinct view: a pair's value is identical across repeat
    // encounters of the same structure, so deduplicating the values
    // approximates the population shape.
    report.meshing_miss_distinct.sort_by(f64::total_cmp);
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
            workers: 6, // deliberately uneven chunks: five of 7, one of 5
            trace_seed: 5,
            phi: 2,
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

    /// Chunking (which follows the worker count) is pure scheduling:
    /// the report is identical however the sweep is sliced.
    #[test]
    fn report_independent_of_chunking_and_budget() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(13));
        let run = |workers: usize| {
            run_ip_survey(
                &internet,
                &IpSurveyConfig {
                    scenarios: 30,
                    workers,
                    trace_seed: 9,
                    phi: 2,
                },
            )
        };
        let a = run(1); // one chunk of 30
        let b = run(4); // chunks of 8, 8, 8 and 6
        assert_eq!(a.exploitable, b.exploitable);
        assert_eq!(a.load_balanced, b.load_balanced);
        assert_eq!(a.diamonds.measured_count(), b.diamonds.measured_count());
        assert_eq!(a.meshing_miss_measured, b.meshing_miss_measured);
        assert_eq!(a.meshing_miss_distinct, b.meshing_miss_distinct);
    }

    /// `workers: 0` runs as one worker instead of panicking.
    #[test]
    fn zero_workers_run_as_one() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(17));
        let run = |workers: usize| {
            run_ip_survey(
                &internet,
                &IpSurveyConfig {
                    scenarios: 12,
                    workers,
                    trace_seed: 4,
                    phi: 2,
                },
            )
        };
        let zero = run(0);
        let one = run(1);
        assert_eq!(zero.traces, 12);
        assert_eq!(zero.exploitable, one.exploitable);
        assert_eq!(zero.load_balanced, one.load_balanced);
        assert_eq!(
            zero.diamonds.measured_count(),
            one.diamonds.measured_count()
        );
        assert_eq!(zero.meshing_miss_measured, one.meshing_miss_measured);
        assert_eq!(zero.meshing_miss_distinct, one.meshing_miss_distinct);
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
