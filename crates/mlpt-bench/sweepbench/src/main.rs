//! Sweep benchmark for the mlpt engine.
//!
//! ```text
//! cargo run --release --manifest-path crates/mlpt-bench/sweepbench/Cargo.toml -- \
//!     --workload meshed-lite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload repeatedly for `--seconds`, checks every result
//! against the simulator's ground truth and prints one metric per line,
//! then a JSON summary as the last line. `--trace 0` reports the
//! end-to-end metrics from untraced sweeps; `--trace 1` alternates
//! untraced and traced sweeps and reports the per-layer metrics. Either
//! way the run asserts that traced and untraced sweeps agree bit for
//! bit. See README.md beside this file.

mod arith;
mod check;
mod host;
mod tracing;
mod wire;
mod workloads;

use arith::{max_overlap, max_share, median, self_time, supported_percentile};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracing::{Layer, Span};
use workloads::{DestResult, SweepRun, Truth, Workload};

/// Set-ups timed before the first sweep.
const EXTRA_SETUPS: usize = 6;

/// Where traced runs write their spans, relative to the working
/// directory (the checkout root).
const SPAN_DIR: &str = ".bench_spans";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Printed beside the value (sample counts, per-shard figures).
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Why a run reports no numbers.
struct Failure {
    attempted: usize,
    failed: usize,
    reason: String,
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// One sweep with its set-up time and its ground truth.
struct Measured {
    setup_s: f64,
    truth: Vec<Truth>,
    run: SweepRun,
}

fn measure(workload: Workload, seed: u64, traced: bool) -> Measured {
    let start = Instant::now();
    let mut prepared = workload.prepare(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let truth = std::mem::take(&mut prepared.truth);
    let run = workloads::sweep(prepared, traced);
    Measured {
        setup_s,
        truth,
        run,
    }
}

/// What traced and untraced sweeps of one seed must agree on.
struct Fingerprint {
    results: Vec<DestResult>,
    shard_stats: Vec<mlpt_core::SweepStats>,
    engine_batches: Option<Vec<u32>>,
}

impl Fingerprint {
    fn of(run: &SweepRun) -> Self {
        Fingerprint {
            results: run.results.clone(),
            shard_stats: run.shard_stats.clone(),
            engine_batches: run.engine_batches.clone(),
        }
    }

    /// Names the first part that differs.
    fn diff(&self, other: &Fingerprint) -> Option<String> {
        if self.shard_stats != other.shard_stats {
            return Some("engine counters differ".into());
        }
        if self.engine_batches != other.engine_batches {
            return Some("per-crossing batch sizes differ".into());
        }
        let first = self
            .results
            .iter()
            .zip(&other.results)
            .position(|(a, b)| a != b);
        match first {
            Some(id) => Some(format!("destination {id}'s result differs")),
            None if self.results.len() != other.results.len() => {
                Some("destination counts differ".into())
            }
            None => None,
        }
    }
}

/// Checks one sweep against ground truth and the reference fingerprint;
/// returns the ground-truth report.
fn verify(m: &Measured, reference: &Fingerprint, what: &str) -> Result<check::CheckReport, String> {
    let report = check::check(&m.run.results, &m.truth);
    if let Some(defect) = report.defects.first() {
        return Err(format!(
            "{what}: {defect} ({} defects)",
            report.defects.len()
        ));
    }
    if let Some(diff) = reference.diff(&Fingerprint::of(&m.run)) {
        return Err(format!("{what} disagrees with the first sweep: {diff}"));
    }
    if !m.run.captures.is_empty() {
        check_captures(&m.run).map_err(|e| format!("{what}: {e}"))?;
    }
    Ok(report)
}

type Reasons = std::collections::BTreeMap<&'static str, usize>;

/// Destinations whose trace did not complete.
fn incomplete(reasons: &Reasons) -> usize {
    check::INCOMPLETE
        .iter()
        .filter_map(|r| reasons.get(r))
        .sum()
}

fn reasons_note(reasons: &Reasons) -> String {
    if reasons.is_empty() {
        return "every destination matched ground truth".into();
    }
    let parts: Vec<String> = reasons.iter().map(|(r, n)| format!("{r} {n}")).collect();
    format!(
        "destinations short of ground truth, all input sets: {}",
        parts.join(", ")
    )
}

/// The traced transports must have seen exactly the crossings the
/// engines counted.
fn check_captures(run: &SweepRun) -> Result<(), String> {
    let seen: Vec<u32> = run
        .captures
        .iter()
        .flat_map(|c| c.crossings.iter().map(|&(_, n)| n))
        .collect();
    if let Some(batches) = &run.engine_batches {
        if &seen != batches {
            return Err("transport saw other crossings than the engine logged".into());
        }
    }
    if seen.len() as u64 != run.stats.dispatch_cycles
        || seen.iter().map(|&n| u64::from(n)).sum::<u64>() != run.stats.probes_sent
    {
        return Err("transport crossings do not add up to the engine's counters".into());
    }
    Ok(())
}

/// End-to-end figures of one untraced sweep.
struct EndToEnd {
    wall_s: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    cpu_s: f64,
}

fn end_to_end(m: &Measured) -> Result<EndToEnd, String> {
    let (start, end) = m.run.wall_ns();
    let latencies: Vec<f64> = m
        .run
        .window
        .iter()
        .map(|&(pulled, reported)| (reported - pulled) as f64 / 1e6)
        .collect();
    let percentile = |p: f64| {
        supported_percentile(&latencies, p).ok_or_else(|| {
            format!(
                "{} destinations cannot support a p{} latency",
                latencies.len(),
                p * 100.0
            )
        })
    };
    Ok(EndToEnd {
        wall_s: (end - start) as f64 / 1e9,
        latency_p50_ms: percentile(0.50)?,
        latency_p95_ms: percentile(0.95)?,
        cpu_s: m.run.cpu_s,
    })
}

/// The seed of input set `set` of the run: runs of different seeds
/// never share an input set.
fn input_seed(args: &Args, set: usize) -> u64 {
    args.seed
        .wrapping_mul(args.workload.input_sets() as u64)
        .wrapping_add(set as u64)
}

/// One input set's reference sweep and what its untraced sweeps measured.
struct InputSet {
    reference: Fingerprint,
    stats: mlpt_core::SweepStats,
    report: check::CheckReport,
    sweeps: Vec<EndToEnd>,
}

/// Mean over input sets of the per-set median of `f`.
fn across_sets(sets: &[InputSet], f: impl Fn(&EndToEnd) -> f64) -> f64 {
    mean_of_medians(sets.iter().map(|set| set.sweeps.iter().map(&f).collect()))
}

/// Mean of the medians of each group of values.
fn mean_of_medians(groups: impl Iterator<Item = Vec<f64>>) -> f64 {
    let medians: Vec<f64> = groups.map(|values| median(&values)).collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Whether a run that has made `sweeps` sweeps goes on: it sweeps every
/// input set at least once and fills its time.
fn keep_going(args: &Args, sweeps: usize, deadline: Instant) -> bool {
    sweeps < args.workload.input_sets() || Instant::now() < deadline
}

fn run_untraced(args: &Args) -> Result<Outcome, Failure> {
    let fail = |attempted, failed, reason| Failure {
        attempted,
        failed,
        reason,
    };
    // Set-up is timed on its own a few times first; this also lets the
    // allocator and caches settle before the first timed sweep.
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|i| {
            let start = Instant::now();
            let set = i % args.workload.input_sets();
            std::hint::black_box(args.workload.prepare(input_seed(args, set)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    // The first sweep of a process runs on a cold allocator and caches
    // and reads up to a third slower: it only becomes input set 0's
    // reference, untimed.
    let new_set = |m: &Measured| InputSet {
        reference: Fingerprint::of(&m.run),
        stats: m.run.stats,
        report: check::CheckReport::default(),
        sweeps: Vec::new(),
    };
    let mut sets = vec![new_set(&measure(args.workload, input_seed(args, 0), false))];
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut sweeps, mut attempted, mut failed) = (0usize, 0usize, 0usize);
    while keep_going(args, sweeps, deadline) {
        let k = sweeps % args.workload.input_sets();
        let m = measure(args.workload, input_seed(args, k), false);
        setups.push(m.setup_s);
        if sets.len() == k {
            sets.push(new_set(&m));
        }
        let set = &mut sets[k];
        sweeps += 1;
        set.report = verify(
            &m,
            &set.reference,
            &format!("sweep {sweeps} (input set {k})"),
        )
        .map_err(|e| fail(attempted, failed, e))?;
        attempted += m.run.results.len();
        failed += incomplete(&set.report.shortfalls);
        set.sweeps
            .push(end_to_end(&m).map_err(|e| fail(attempted, failed, e))?);
    }
    let peak_rss_mb = host::peak_rss_mb();

    // Tracing must not change what the program does.
    let traced = measure(args.workload, input_seed(args, 0), true);
    verify(&traced, &sets[0].reference, "traced sweep (input set 0)")
        .map_err(|e| fail(attempted, failed, e))?;

    let destinations = sets[0].reference.results.len() as f64;
    let inputs = sets.len() as f64;
    let probes: u64 = sets.iter().map(|s| s.stats.probes_sent).sum();
    let crossings: u64 = sets.iter().map(|s| s.stats.dispatch_cycles).sum();
    let wall_s = across_sets(&sets, |s| s.wall_s);
    let (matched, compared) = sets.iter().fold((0, 0), |(m, c), s| {
        (m + s.report.matched, c + s.report.compared)
    });
    let mut shortfalls = Reasons::new();
    for set in &sets {
        for (reason, n) in &set.report.shortfalls {
            *shortfalls.entry(reason).or_insert(0) += n;
        }
    }
    let samples = format!("{destinations} samples per sweep");
    let metrics = vec![
        metric("wall_s", wall_s, "s"),
        metric("probes_per_s", probes as f64 / inputs / wall_s, "1/s"),
        metric("dests_per_s", destinations / wall_s, "1/s"),
        Metric {
            note: samples.clone(),
            ..metric(
                "dest_latency_p50_ms",
                across_sets(&sets, |s| s.latency_p50_ms),
                "ms",
            )
        },
        Metric {
            note: samples,
            ..metric(
                "dest_latency_p95_ms",
                across_sets(&sets, |s| s.latency_p95_ms),
                "ms",
            )
        },
        metric(
            "probes_per_dest",
            probes as f64 / inputs / destinations,
            "count",
        ),
        metric("crossings", crossings as f64 / inputs, "count"),
        metric("truth_agreement", matched as f64 / compared as f64, "ratio"),
        Metric {
            note: format!("median of {} set-ups", setups.len()),
            ..metric("setup_s", median(&setups), "s")
        },
        metric("cpu_s", across_sets(&sets, |s| s.cpu_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "{sweeps} untraced sweeps over {} input sets of {destinations} destinations; \
                 figures are means over the sets of per-set medians; \
                 a traced sweep agreed bit for bit",
                sets.len()
            ),
            format!(
                "wall_s per sweep, by input set: {}",
                sets.iter()
                    .map(|s| {
                        let walls: Vec<String> = s
                            .sweeps
                            .iter()
                            .map(|e| format!("{:.3}", e.wall_s))
                            .collect();
                        walls.join(" ")
                    })
                    .collect::<Vec<_>>()
                    .join(" | ")
            ),
            reasons_note(&shortfalls),
        ],
    })
}

/// Sums span durations of one layer, in seconds.
fn layer_s(spans: &[Span], layer: Layer) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Per-layer figures of one traced sweep, in report order:
/// `(name, value, unit)`.
type LayerFigures = Vec<(&'static str, f64, &'static str)>;

fn per_layer(run: &SweepRun, untraced_wall_s: f64, figures: &wire::WireFigures) -> LayerFigures {
    let spans = &run.spans;
    let stats = &run.stats;
    let probes = stats.probes_sent as f64;
    let (start, end) = run.wall_ns();
    let wall_s = (end - start) as f64 / 1e9;
    let polls = spans.iter().filter(|s| s.layer == Layer::Poll).count() as f64;
    let poll_s = layer_s(spans, Layer::Poll);
    let on_replies_s = layer_s(spans, Layer::OnReplies);
    let send_s = layer_s(spans, Layer::Send);
    let recv_s = layer_s(spans, Layer::Recv);
    let intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    let engine_self_s = self_time((start, end), &intervals) as f64 / 1e9;

    let mut crossings: Vec<(u64, u32)> = run
        .captures
        .iter()
        .flat_map(|c| c.crossings.iter().copied())
        .collect();
    crossings.sort_unstable();
    let batches: Vec<u32> = crossings.iter().map(|&(_, n)| n).collect();
    let sum = |f: fn(&tracing::Capture) -> u64| run.captures.iter().map(f).sum::<u64>() as f64;

    // A shard is busy from its first send to its last receive.
    let mut shard_busy = 0u64;
    for shard in 0..run.captures.len() as u32 {
        let own = spans
            .iter()
            .filter(|s| s.id == shard && matches!(s.layer, Layer::Send | Layer::Recv));
        let first = own.clone().map(|s| s.start).min();
        let last = own.map(|s| s.end).max();
        if let (Some(first), Some(last)) = (first, last) {
            shard_busy += last - first;
        }
    }
    let shard_probes: Vec<u64> = run.shard_stats.iter().map(|s| s.probes_sent).collect();

    vec![
        ("session.new_s", layer_s(spans, Layer::New), "s"),
        ("session.poll_s", poll_s, "s"),
        ("session.polls", polls, "count"),
        ("session.poll_ns_per_call", poll_s * 1e9 / polls, "ns"),
        (
            "session.ns_per_probe",
            (poll_s + on_replies_s) * 1e9 / probes,
            "ns",
        ),
        ("session.on_replies_s", on_replies_s, "s"),
        ("session.finish_s", layer_s(spans, Layer::Finish), "s"),
        ("engine.self_s", engine_self_s, "s"),
        (
            "engine.self_ns_per_probe",
            engine_self_s * 1e9 / probes,
            "ns",
        ),
        (
            "engine.probes_per_crossing",
            probes / stats.dispatch_cycles as f64,
            "count",
        ),
        (
            "engine.tail_probes_per_crossing",
            arith::tail_probes_per_crossing(&batches, 0.10),
            "count",
        ),
        (
            "engine.live_sessions_max",
            max_overlap(&run.window) as f64,
            "count",
        ),
        (
            "engine.probes_timed_out",
            stats.probes_timed_out as f64,
            "count",
        ),
        (
            "engine.retries_exhausted",
            stats.retries_exhausted as f64,
            "count",
        ),
        (
            "engine.reply_yield",
            stats.replies_delivered as f64 / probes,
            "ratio",
        ),
        ("sim.send_s", send_s, "s"),
        ("sim.recv_s", recv_s, "s"),
        ("sim.ns_per_probe", (send_s + recv_s) * 1e9 / probes, "ns"),
        (
            "wire.encode_ns_per_probe",
            figures.encode_ns_per_probe,
            "ns",
        ),
        ("wire.parse_ns_per_reply", figures.parse_ns_per_reply, "ns"),
        (
            "wire.bytes_per_probe",
            sum(|c| c.probe_bytes) / sum(|c| c.probes),
            "B",
        ),
        (
            "wire.bytes_per_reply",
            sum(|c| c.reply_bytes) / sum(|c| c.replies),
            "B",
        ),
        ("shard.max_share", max_share(&shard_probes), "ratio"),
        (
            "shard.barrier_stalls",
            stats.generation_barrier_stalls as f64,
            "count",
        ),
        (
            "shard.busy_over_wall",
            shard_busy as f64 / 1e9 / wall_s,
            "ratio",
        ),
        ("survey.analyse_s", layer_s(spans, Layer::Sink), "s"),
        (
            "trace.overhead_share",
            wall_s / untraced_wall_s - 1.0,
            "ratio",
        ),
    ]
}

fn run_traced(args: &Args) -> Result<Outcome, Failure> {
    let fail = |attempted, failed, reason| Failure {
        attempted,
        failed,
        reason,
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // Per input set: the reference fingerprint and each pair's figures.
    let mut sets: Vec<(Fingerprint, Vec<LayerFigures>)> = Vec::new();
    let (mut pairs, mut attempted, mut failed) = (0usize, 0usize, 0usize);
    let mut shortfalls = Reasons::new();
    let mut last_traced: Option<SweepRun> = None;
    // Captured probes and replies `mlpt-wire`'s own parsers reject.
    let mut unparsable = (0usize, 0usize);
    while keep_going(args, pairs, deadline) {
        let k = pairs % args.workload.input_sets();
        let seed = input_seed(args, k);
        let plain = measure(args.workload, seed, false);
        if sets.len() == k {
            sets.push((Fingerprint::of(&plain.run), Vec::new()));
        }
        pairs += 1;
        let report = verify(&plain, &sets[k].0, &format!("untraced sweep {pairs}"))
            .map_err(|e| fail(attempted, failed, e))?;
        let traced = measure(args.workload, seed, true);
        verify(&traced, &sets[k].0, &format!("traced sweep {pairs}"))
            .map_err(|e| fail(attempted, failed, e))?;
        attempted += plain.run.results.len() + traced.run.results.len();
        failed += 2 * incomplete(&report.shortfalls);
        if pairs <= args.workload.input_sets() {
            for (reason, n) in report.shortfalls {
                *shortfalls.entry(reason).or_insert(0) += n;
            }
        }
        let plain_wall = end_to_end(&plain)
            .map_err(|e| fail(attempted, failed, e))?
            .wall_s;
        let wire = wire::replay(&traced.run.captures).map_err(|e| fail(attempted, failed, e))?;
        unparsable.0 += wire.unparsable_probes;
        unparsable.1 += wire.unparsable_replies;
        sets[k].1.push(per_layer(&traced.run, plain_wall, &wire));
        last_traced = Some(traced.run);
    }
    let last = last_traced.expect("at least one traced sweep ran");
    let spans_file = write_spans(args, &last).map_err(|e| fail(attempted, failed, e))?;
    let shard_probes: Vec<String> = last
        .shard_stats
        .iter()
        .map(|s| s.probes_sent.to_string())
        .collect();
    let metrics = (0..sets[0].1[0].len())
        .map(|i| {
            let (name, _, unit) = sets[0].1[0][i];
            let per_set = sets
                .iter()
                .map(|(_, runs)| runs.iter().map(|r| r[i].1).collect());
            let mut m = metric(name, mean_of_medians(per_set), unit);
            if name == "shard.max_share" {
                m.note = format!(
                    "per-shard probes {}, last traced sweep",
                    shard_probes.join("/")
                );
            }
            m
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "{pairs} untraced/traced sweep pairs over {} input sets agreed bit for bit; \
                 figures are means over the sets of per-set medians of the traced sweeps",
                sets.len()
            ),
            reasons_note(&shortfalls),
            format!(
                "wire replay: {} captured probes and {} replies that mlpt-wire's parsers reject",
                unparsable.0, unparsable.1
            ),
            format!("spans of the last traced sweep: {spans_file}"),
        ],
    })
}

/// Writes the last traced sweep's spans as tab-separated lines.
fn write_spans(args: &Args, run: &SweepRun) -> Result<String, String> {
    let path = format!("{SPAN_DIR}/{}.tsv", args.workload.name());
    let (start, end) = run.wall_ns();
    let mut text = String::new();
    let _ = writeln!(text, "# {}", host_line());
    let _ = writeln!(text, "layer\tparent\tid\tstart_ns\tend_ns\tcount");
    let _ = writeln!(
        text,
        "engine.sweep\t-\t-\t{start}\t{end}\t{}",
        run.stats.probes_sent
    );
    for span in &run.spans {
        let _ = writeln!(
            text,
            "{}\tengine.sweep\t{}\t{}\t{}\t{}",
            span.layer.name(),
            span.id,
            span.start,
            span.end,
            span.count
        );
    }
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

fn host_line() -> String {
    format!(
        "host: nproc {}, build profile {}, traffic through the in-process simulator (mlpt-sim), no real link",
        host::nproc(),
        host::profile()
    )
}

fn json_summary(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} trace {} seconds {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("# {}", host_line());
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let outcome = outcome.and_then(|o| match o.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(Failure {
            attempted: o.attempted,
            failed: o.failed,
            reason: format!("{} is not a finite number", m.name),
        }),
        None => Ok(o),
    });
    match outcome {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.metrics {
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                };
                println!("{:<34} {:>16.6} {}{note}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                json_summary(true, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("sweepbench: check failed: {}", failure.reason);
            println!(
                "{}",
                json_summary(false, failure.attempted, failure.failed, &[])
            );
            ExitCode::FAILURE
        }
    }
}
