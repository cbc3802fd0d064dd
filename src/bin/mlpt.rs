//! `mlpt` — Multilevel MDA-Lite Paris Traceroute, command-line edition.
//!
//! The paper's deliverable is a command-line traceroute with multipath
//! discovery and an option for a router-level view. This binary is that
//! tool, pointed at the Fakeroute simulator (no raw sockets are available
//! in this environment; the tracing stack is transport-agnostic).
//!
//! ```text
//! mlpt trace  [--topology NAME | --scenario N] [--algo mda|lite|single]
//!             [--stopping 95|99|veitch] [--phi K] [--seed S] [--loss P]
//!             [--json] [--pcap FILE]
//! mlpt multilevel [--topology NAME | --scenario N] [--rounds R] [--seed S]
//! mlpt topologies
//! ```

use mlpt::alias::rounds::RoundsConfig;
use mlpt::prelude::*;
use mlpt::sim::{FaultPlan, FaultSchedule, TopologySchedule};
use mlpt::survey::{InternetConfig, SyntheticInternet};
use mlpt::topo::{canonical, is_star};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        exit(2);
    };
    match command.as_str() {
        "trace" => cmd_trace(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "alias" => cmd_alias(&args[1..]),
        "multilevel" => cmd_multilevel(&args[1..]),
        "topologies" => cmd_topologies(),
        "-h" | "--help" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "mlpt — Multilevel MDA-Lite Paris Traceroute (over the Fakeroute simulator)

commands:
  trace        multipath trace at the IP level
               --topology NAME   canonical topology (see `mlpt topologies`)
               --scenario N      synthetic-Internet scenario number
               --algo ALGO       mda | lite (default) | single
               --stopping TABLE  95 (default) | 99 | veitch
               --phi K           MDA-Lite meshing effort (default 2)
               --seed S          trace seed (default 1)
               --loss P          inject reply loss probability
               --json            emit a machine-readable trace report
               --pcap FILE       write all probe/reply packets as pcap
               --draw            append an ASCII sketch of the topology
  sweep        trace many destinations concurrently over one transport;
               destinations stream into the engine as in-flight tokens
               free up, so batches stay full to the end of the list
               --topology NAME   canonical topology replicated per
                                 destination in disjoint address blocks;
                                 the special name `shared-prefix` builds
                                 a Doubletree family instead — all lanes
                                 share one near-source prefix
               --destinations N  concurrent destinations (default 8)
               --stdin           read the destination list from stdin
                                 instead: one canonical topology name per
                                 line (blank lines and # comments skipped)
               --algo ALGO       mda | lite (default) | single
               --max-in-flight P max probes in flight per dispatch
                                 (default 1024; --budget is an alias)
               --adaptive-budget AIMD budget controller: ramps up while
                                 replies are clean, multiplicatively backs
                                 off on loss/rate-limiting, per-lane fair
               --admission MODE  streaming (default) | eager (fixed
                                 table) | cost-aware (heaviest predicted
                                 sessions first; identical results) |
                                 cost-aware-windowed:K (same, over a
                                 sliding K-session window for unbounded
                                 --stdin streams)
               --stop-set        share a sweep-wide Doubletree stop set:
                                 later sessions start mid-path, probe
                                 backward to a shared-stop hit and elide
                                 the redundant near-source prefix
               --start-ttl T     fixed mid-path start TTL for --stop-set
                                 (default: adapt from committed
                                 destination TTLs)
               --workers W       simulator worker threads (default 1)
               --shards N        engine shards: destinations partition
                                 deterministically across N independent
                                 sweep engines driven on worker threads
                                 (default 1; results are bit-identical
                                 for any shard count)
               --cycle-gap T     virtual ticks between dispatch cycles
                                 (lets rate-limited routers refill;
                                 default 0)
               --loss P          inject reply loss probability
               --rate-limit N/W  ICMP rate limit: N replies per W ticks
                                 per router
               --fault-schedule NAME
                                 time-scheduled impairments per lane
                                 (midtrace-blackhole | flap |
                                 congestion-ramp | rate-limit-burst);
                                 overrides --loss/--rate-limit and arms
                                 the stall watchdog
               --topology-schedule NAME
                                 time-scheduled route changes per lane
                                 (route-flap | lb-regrow | lb-shrink |
                                 tunnel-reveal); arms the route audit
                                 (detection + bounded recovery) and the
                                 stall watchdog
               --reprobe-budget N
                                 audit probes per session for the route
                                 audit (default 256 when armed); arms
                                 the audit even without a schedule
               --probe-timeout T base probe deadline in virtual ticks
                                 (default 4096; exponential backoff on
                                 lossy retry waves)
               --max-retries R   retry waves per round for unanswered
                                 probes (default 0)
               --seed S          base seed (default 1)
               --json            emit a machine-readable sweep report
  alias        alias-resolution rounds for many destinations at once:
               each target is a synthetic-Internet scenario number; the
               full multilevel pipeline (trace + Round 0..R protocol)
               runs as one resumable session per destination, and all
               sessions stream concurrently through the sweep engine
               (scenarios sharing core interface addresses are split
               into address-disjoint sub-sweeps automatically)
               N [N ...]         scenario numbers, as positional args
               --stdin           read scenario numbers from stdin
                                 instead (one per line; # comments ok)
               --rounds R        alias-resolution rounds (default 10)
               --replies K       MBT replies attempted per address per
                                 round (default 30)
               --method M        indirect (MMLPT, default) | direct
                                 (MIDAR-style echo probing)
               --max-in-flight P max probes in flight per dispatch
                                 (default 1024)
               --adaptive-budget AIMD in-flight budget controller
               --admission MODE  streaming (default) | eager |
                                 cost-aware (wide-hop destinations start
                                 first, ordered by predicted alias cost
                                 from the scenario topology; results are
                                 identical, only the schedule changes) |
                                 cost-aware-windowed:K (sliding window)
               --stop-set        share a Doubletree stop set across the
                                 trace phases of the sweep
               --start-ttl T     fixed mid-path start TTL for --stop-set
               --fanout          run each destination's per-hop alias
                                 stages as one concurrent wave phase
                                 instead of hop after hop (deterministic
                                 protocol variant; cuts a wide
                                 destination's round-trip chain)
               --rate-limit N/W  ICMP rate limit: N replies per W ticks
                                 per router
               --fault-schedule NAME
                                 time-scheduled impairments per lane
                                 (midtrace-blackhole | flap |
                                 congestion-ramp | rate-limit-burst);
                                 overrides --rate-limit and arms the
                                 stall watchdog
               --probe-timeout T base probe deadline in virtual ticks
                                 (default 4096)
               --max-retries R   retry waves per round (default 0)
               --shards N        engine shards per sub-sweep (default 1;
                                 bit-identical for any shard count)
               --cycle-gap T     virtual ticks between dispatch cycles
               --seed S          base seed (default 1)
               --json            emit a machine-readable report
  multilevel   MDA-Lite trace + in-trace alias resolution (router view)
               --rounds R        alias-resolution rounds (default 10)
               (accepts the trace options above)
  topologies   list canonical topologies"
    );
}

struct Options {
    topology: Option<String>,
    scenario: Option<usize>,
    algo: String,
    stopping: String,
    phi: u32,
    seed: u64,
    loss: f64,
    rounds: u32,
    destinations: usize,
    budget: usize,
    adaptive: bool,
    admission: Admission,
    stop_set: bool,
    start_ttl: Option<u8>,
    stdin_list: bool,
    cycle_gap: u64,
    rate_limit: Option<(u32, u64)>,
    fault_schedule: Option<FaultSchedule>,
    topology_schedule: Option<TopologySchedule>,
    reprobe_budget: Option<u64>,
    probe_timeout: u64,
    max_retries: u8,
    workers: usize,
    shards: usize,
    json: bool,
    pcap: Option<String>,
    draw: bool,
}

/// Resolves a `--fault-schedule` preset name, exiting with the list of
/// known presets on an unknown name.
fn fault_schedule_preset(name: &str) -> FaultSchedule {
    FaultSchedule::preset(name).unwrap_or_else(|| {
        eprintln!(
            "unknown fault schedule {name} (one of: {})",
            FaultSchedule::preset_names().join(" | ")
        );
        exit(2);
    })
}

/// Resolves a `--topology-schedule` preset name, exiting with the list
/// of known presets on an unknown name.
fn topology_schedule_preset(name: &str) -> TopologySchedule {
    TopologySchedule::preset(name).unwrap_or_else(|| {
        eprintln!(
            "unknown topology schedule {name} (one of: {})",
            TopologySchedule::preset_names().join(" | ")
        );
        exit(2);
    })
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        topology: None,
        scenario: None,
        algo: "lite".into(),
        stopping: "95".into(),
        phi: 2,
        seed: 1,
        loss: 0.0,
        rounds: 10,
        destinations: 8,
        budget: 1024,
        adaptive: false,
        admission: Admission::Streaming,
        stop_set: false,
        start_ttl: None,
        stdin_list: false,
        cycle_gap: 0,
        rate_limit: None,
        fault_schedule: None,
        topology_schedule: None,
        reprobe_budget: None,
        probe_timeout: RetryPolicy::default().base_timeout,
        max_retries: 0,
        workers: 1,
        shards: 1,
        json: false,
        pcap: None,
        draw: false,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &String {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("{} needs a value", args[i]);
                exit(2);
            })
        };
        match args[i].as_str() {
            "--topology" => opts.topology = Some(need(i).clone()),
            "--scenario" => {
                opts.scenario = Some(need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--scenario needs a number");
                    exit(2);
                }))
            }
            "--algo" => opts.algo = need(i).clone(),
            "--stopping" => opts.stopping = need(i).clone(),
            "--phi" => opts.phi = need(i).parse().unwrap_or(2),
            "--seed" => opts.seed = need(i).parse().unwrap_or(1),
            "--loss" => opts.loss = need(i).parse().unwrap_or(0.0),
            "--rounds" => opts.rounds = need(i).parse().unwrap_or(10),
            "--destinations" => opts.destinations = need(i).parse().unwrap_or(8),
            "--budget" | "--max-in-flight" => opts.budget = need(i).parse().unwrap_or(1024),
            "--admission" => opts.admission = parse_admission(need(i)),
            "--stop-set" => {
                opts.stop_set = true;
                i += 1;
                continue;
            }
            "--start-ttl" => {
                opts.start_ttl = Some(need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--start-ttl needs a TTL (1..=255)");
                    exit(2);
                }))
            }
            "--cycle-gap" => opts.cycle_gap = need(i).parse().unwrap_or(0),
            "--rate-limit" => {
                let spec = need(i);
                let parsed = spec
                    .split_once('/')
                    .and_then(|(n, w)| Some((n.parse::<u32>().ok()?, w.parse::<u64>().ok()?)));
                match parsed {
                    Some((n, w)) if n > 0 && w > 0 => opts.rate_limit = Some((n, w)),
                    _ => {
                        eprintln!("--rate-limit needs N/W (replies per window ticks)");
                        exit(2);
                    }
                }
            }
            "--fault-schedule" => opts.fault_schedule = Some(fault_schedule_preset(need(i))),
            "--topology-schedule" => {
                opts.topology_schedule = Some(topology_schedule_preset(need(i)))
            }
            "--reprobe-budget" => {
                opts.reprobe_budget = Some(need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--reprobe-budget needs a probe count");
                    exit(2);
                }))
            }
            "--probe-timeout" => {
                opts.probe_timeout = need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--probe-timeout needs a tick count");
                    exit(2);
                })
            }
            "--max-retries" => {
                opts.max_retries = need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--max-retries needs a small number");
                    exit(2);
                })
            }
            "--adaptive-budget" => {
                opts.adaptive = true;
                i += 1;
                continue;
            }
            "--stdin" => {
                opts.stdin_list = true;
                i += 1;
                continue;
            }
            "--workers" => opts.workers = need(i).parse().unwrap_or(1),
            "--shards" => opts.shards = need(i).parse::<usize>().unwrap_or(1).max(1),
            "--json" => {
                opts.json = true;
                i += 1;
                continue;
            }
            "--draw" => {
                opts.draw = true;
                i += 1;
                continue;
            }
            "--pcap" => opts.pcap = Some(need(i).clone()),
            other => {
                eprintln!("unknown option: {other}");
                exit(2);
            }
        }
        i += 2;
    }
    opts
}

fn parse_admission(value: &str) -> Admission {
    if let Some(window) = value.strip_prefix("cost-aware-windowed:") {
        match window.parse::<usize>() {
            Ok(k) if k > 0 => return Admission::CostAwareWindowed(k),
            _ => {
                eprintln!(
                    "cost-aware-windowed needs a positive window, e.g. cost-aware-windowed:64"
                );
                exit(2);
            }
        }
    }
    match value {
        "streaming" => Admission::Streaming,
        "eager" => Admission::Eager,
        "cost-aware" => Admission::CostAware,
        other => {
            eprintln!(
                "unknown admission mode {other} \
                 (streaming|eager|cost-aware|cost-aware-windowed:K)"
            );
            exit(2);
        }
    }
}

fn admission_name(admission: Admission) -> String {
    match admission {
        Admission::Streaming => "streaming".into(),
        Admission::Eager => "eager".into(),
        Admission::CostAware => "cost-aware".into(),
        Admission::CostAwareWindowed(window) => format!("cost-aware-windowed:{window}"),
    }
}

/// The `stats` object of `sweep --json` and `alias --json`. The
/// destructuring names every field (no `..`, as in `SweepStats::merge`),
/// so a counter added to `SweepStats` cannot be left out of the report.
fn stats_json(stats: &SweepStats) -> serde_json::Value {
    let SweepStats {
        dispatch_cycles,
        probes_sent,
        replies_delivered,
        malformed_replies,
        mismatched_replies,
        max_batch,
        sessions_admitted,
        sessions_completed,
        sessions_deferred,
        clean_cycles,
        lossy_cycles,
        budget_backoffs,
        lane_backoffs,
        final_in_flight_budget,
        probes_timed_out,
        retries_exhausted,
        sessions_partial,
        max_lane_backoff_depth,
        probes_elided,
        stop_set_hits,
        retries_elided,
        artifacts_detected,
        route_recoveries,
        reprobes_sent,
        route_changed_partials,
        stop_set_stale_hits,
        stop_set_evictions,
        generation_barrier_stalls,
    } = *stats;
    serde_json::json!({
        "dispatch_cycles": dispatch_cycles,
        "probes_sent": probes_sent,
        "replies_delivered": replies_delivered,
        "malformed_replies": malformed_replies,
        "mismatched_replies": mismatched_replies,
        "max_batch": max_batch,
        "probes_per_dispatch": stats.probes_per_dispatch(),
        "sessions_admitted": sessions_admitted,
        "sessions_completed": sessions_completed,
        "sessions_deferred": sessions_deferred,
        "clean_cycles": clean_cycles,
        "lossy_cycles": lossy_cycles,
        "budget_backoffs": budget_backoffs,
        "lane_backoffs": lane_backoffs,
        "final_in_flight_budget": final_in_flight_budget,
        "probes_timed_out": probes_timed_out,
        "retries_exhausted": retries_exhausted,
        "retries_elided": retries_elided,
        "sessions_partial": sessions_partial,
        "max_lane_backoff_depth": max_lane_backoff_depth,
        "probes_elided": probes_elided,
        "stop_set_hits": stop_set_hits,
        "artifacts_detected": artifacts_detected,
        "route_recoveries": route_recoveries,
        "reprobes_sent": reprobes_sent,
        "route_changed_partials": route_changed_partials,
        "stop_set_stale_hits": stop_set_stale_hits,
        "stop_set_evictions": stop_set_evictions,
        "generation_barrier_stalls": generation_barrier_stalls,
    })
}

/// The `per_shard` array of `sweep --json` and `alias --json`: one
/// object of dispatch and backoff counters per engine shard.
fn per_shard_json(per_shard: &[SweepStats]) -> serde_json::Value {
    serde_json::Value::Array(
        per_shard
            .iter()
            .map(|s| {
                serde_json::json!({
                    "dispatch_cycles": s.dispatch_cycles,
                    "probes_sent": s.probes_sent,
                    "probes_timed_out": s.probes_timed_out,
                    "retries_exhausted": s.retries_exhausted,
                    "budget_backoffs": s.budget_backoffs,
                    "lane_backoffs": s.lane_backoffs,
                })
            })
            .collect(),
    )
}

/// Builds the sweep's shared-stop-set configuration from the CLI
/// flags: `--stop-set` arms it, `--start-ttl` pins a fixed mid-path
/// start TTL (otherwise the engine adapts it from committed
/// destination TTLs).
fn stop_set_config(stop_set: bool, start_ttl: Option<u8>) -> Option<StopSetConfig> {
    stop_set.then(|| {
        let mut cfg = StopSetConfig::default();
        if let Some(ttl) = start_ttl {
            cfg.start_ttl = ttl.max(1);
            cfg.adaptive_start = false;
        }
        cfg
    })
}

/// Resolves a canonical topology by CLI name.
fn canonical_topology(name: &str) -> mlpt::topo::MultipathTopology {
    match name {
        "simplest" => canonical::simplest_diamond(),
        "fig1-unmeshed" => canonical::fig1_unmeshed(),
        "fig1-meshed" => canonical::fig1_meshed(),
        "max-length-2" => canonical::max_length_2(),
        "symmetric" => canonical::symmetric(),
        "asymmetric" => canonical::asymmetric(),
        "meshed" => canonical::meshed(),
        other => {
            eprintln!("unknown topology {other}; see `mlpt topologies`");
            exit(2);
        }
    }
}

/// Resolves the target: a canonical topology or a synthetic scenario.
fn build_network(opts: &Options) -> (SimNetwork, Ipv4Addr, Ipv4Addr, Option<RouterMap>) {
    // mlpt: allow(MLPT-W004, reason = "parsing a static dotted-quad literal cannot fail")
    let source: Ipv4Addr = "192.0.2.1".parse().expect("static");
    if let Some(n) = opts.scenario {
        let internet = SyntheticInternet::new(InternetConfig::default());
        let scenario = internet.scenario(n);
        let destination = scenario.topology.destination();
        let truth = scenario.routers.clone();
        let net = scenario.build_network(opts.seed);
        return (net, source, destination, Some(truth));
    }
    let topology = canonical_topology(opts.topology.as_deref().unwrap_or("fig1-unmeshed"));
    let destination = topology.destination();
    let net = SimNetwork::builder(topology)
        .faults(if opts.loss > 0.0 {
            FaultPlan::with_loss(0.0, opts.loss)
        } else {
            FaultPlan::none()
        })
        .seed(opts.seed)
        .build();
    (net, source, destination, None)
}

fn stopping_points(name: &str) -> StoppingPoints {
    match name {
        "95" => StoppingPoints::mda95(),
        "99" => StoppingPoints::mda99(),
        "veitch" => StoppingPoints::veitch_table1(),
        other => {
            eprintln!("unknown stopping table {other} (95|99|veitch)");
            exit(2);
        }
    }
}

fn cmd_topologies() {
    println!("canonical topologies (from the paper):");
    println!("  simplest       1-2-1: the Sec. 3 validation diamond");
    println!("  fig1-unmeshed  1-4-2-1, single successors (Fig. 1 left)");
    println!("  fig1-meshed    1-4-2-1, full mesh between hops 2-3 (Fig. 1 right)");
    println!("  max-length-2   divergence, 28-interface hop, convergence (Sec. 2.4.1)");
    println!("  symmetric      1-5-10-5-1, uniform and unmeshed (Sec. 2.4.1)");
    println!("  asymmetric     width asymmetry 17; forces an MDA switch (Sec. 2.4.1)");
    println!("  meshed         five multi-vertex hops, 48 wide, meshed (Sec. 2.4.1)");
    println!("  shared-prefix  sweep-only family: 20 common hops + a 4-hop private");
    println!("                 suffix per destination (Doubletree stop-set workload)");
    println!("\nsynthetic scenarios: any index, e.g. `mlpt trace --scenario 7`");
}

/// Renders a hop line in classic traceroute style.
fn render_hops(trace: &Trace, routers: Option<&RouterMap>) {
    let last = trace
        .destination_ttl()
        .unwrap_or_else(|| trace.discovery.max_observed_ttl());
    for ttl in 1..=last {
        let vertices = trace.vertices_at(ttl);
        let mut parts: Vec<String> = Vec::new();
        if vertices.is_empty() {
            parts.push("*".into());
        }
        for &v in vertices {
            if is_star(v) {
                parts.push("*".into());
                continue;
            }
            let flows = trace.discovery.flows_reaching(ttl, v).len();
            match routers.and_then(|r| r.router_of(v)) {
                Some(router) => parts.push(format!("{v} [R{}] ({flows} flows)", router.0)),
                None => parts.push(format!("{v} ({flows} flows)")),
            }
        }
        println!("{ttl:>3}  {}", parts.join("\n     "));
    }
}

fn cmd_trace(args: &[String]) {
    let opts = parse_options(args);
    let (net, source, destination, _truth) = build_network(&opts);
    let capture = mlpt::sim::CapturingTransport::new(net);
    let mut prober = TransportProber::new(capture, source, destination);
    let config = TraceConfig::new(opts.seed)
        .with_stopping(stopping_points(&opts.stopping))
        .with_phi(opts.phi);

    let trace = match opts.algo.as_str() {
        "mda" => trace_mda(&mut prober, &config),
        "lite" => trace_mda_lite(&mut prober, &config),
        "single" => trace_single_flow(&mut prober, &config, FlowId(opts.seed as u16)),
        other => {
            eprintln!("unknown algorithm {other} (mda|lite|single)");
            exit(2);
        }
    };

    if let Some(path) = &opts.pcap {
        match prober
            .transport_mut()
            .write_pcap(std::path::Path::new(path))
        {
            Ok(()) => eprintln!("[pcap written to {path}]"),
            Err(e) => {
                eprintln!("failed to write pcap: {e}");
                exit(1);
            }
        }
    }
    if opts.json {
        let report = mlpt::core::TraceReport::from_trace(&trace);
        println!(
            "{}",
            // mlpt: allow(MLPT-W004, reason = "report types serialize infallibly (no maps with non-string keys, no custom Serialize)")
            serde_json::to_string_pretty(&report).expect("serializable")
        );
        return;
    }

    println!(
        "mlpt: {} to {destination}, stopping table {}, seed {}",
        match opts.algo.as_str() {
            "mda" => "MDA",
            "single" => "single-flow Paris traceroute",
            _ => "MDA-Lite",
        },
        opts.stopping,
        opts.seed
    );
    render_hops(&trace, None);
    if opts.draw {
        if let Some(topology) = trace.to_topology() {
            println!("\n{}", mlpt::topo::render_ascii(&topology).trim_end());
        }
    }
    println!(
        "\n{} probes; destination {}; {} vertices, {} edges{}",
        trace.probes_sent,
        if trace.reached_destination {
            "reached"
        } else {
            "NOT reached"
        },
        trace.total_vertices(),
        trace.total_edges(),
        match trace.switched {
            Some(SwitchReason::MeshingDetected { ttl }) =>
                format!("; switched to full MDA (meshing at ttl {ttl})"),
            Some(SwitchReason::AsymmetryDetected { ttl }) =>
                format!("; switched to full MDA (asymmetry at ttl {ttl})"),
            None => String::new(),
        }
    );
}

/// Traces many destinations concurrently: canonical topologies replicated
/// into disjoint address blocks (one lane per destination in a shared
/// simulator), their sessions *streamed* into the sweep engine over a
/// single transport — new destinations are admitted as in-flight tokens
/// free up, so batches stay full from the first probe to the last.
fn cmd_sweep(args: &[String]) {
    let opts = parse_options(args);
    // The destination list: one canonical-topology name per lane, either
    // streamed in on stdin (one per line) or --topology replicated
    // --destinations times.
    let names: Vec<String> = if opts.stdin_list {
        use std::io::BufRead;
        std::io::stdin()
            .lock()
            .lines()
            .map_while(Result::ok)
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    } else {
        let name = opts.topology.clone().unwrap_or("fig1-unmeshed".into());
        vec![name; opts.destinations]
    };
    if names.is_empty() {
        eprintln!("destination list is empty (--destinations must be at least 1)");
        exit(2);
    }
    if names.len() > 200 {
        eprintln!("destination list is capped at 200 (address-block replication)");
        exit(2);
    }
    // mlpt: allow(MLPT-W004, reason = "parsing a static dotted-quad literal cannot fail")
    let source: Ipv4Addr = "192.0.2.1".parse().expect("static");
    let mut config = TraceConfig::new(opts.seed)
        .with_stopping(stopping_points(&opts.stopping))
        .with_phi(opts.phi);
    // A mutation schedule (or an explicit budget) arms the route audit:
    // sessions re-verify committed evidence after their stopping rule
    // fires and re-trace contradicted suffixes under the bounded budget.
    if opts.topology_schedule.is_some() || opts.reprobe_budget.is_some() {
        config = config.with_reprobe(ReprobeBudget {
            max_reprobes: opts.reprobe_budget.unwrap_or(256),
            ..ReprobeBudget::default()
        });
    }
    // Under a mutation schedule, node-control hunts against branches
    // that no longer exist can otherwise grind through the whole u16
    // flow space before the exhaustion guard stops them; a tight
    // allowance keeps the sweep fast without affecting detection.
    if opts.topology_schedule.is_some() {
        config.node_control_attempts = 500;
    }
    let faults = {
        let mut plan = if opts.loss > 0.0 {
            FaultPlan::with_loss(0.0, opts.loss)
        } else {
            FaultPlan::none()
        };
        if let Some((replies, window)) = opts.rate_limit {
            let window_plan = FaultPlan::with_rate_limit_window(replies, window);
            plan.icmp_bucket_capacity = window_plan.icmp_bucket_capacity;
            plan.icmp_tokens_per_tick = window_plan.icmp_tokens_per_tick;
        }
        plan
    };

    // One lane per destination: the topology shifted into its own /8-ish
    // block, simulated with its own seed, clock and RNG streams. The
    // `shared-prefix` family is the exception: its lanes deliberately
    // share a near-source prefix of interface addresses (the Doubletree
    // stop-set workload), so it stays untranslated.
    let topologies: Vec<mlpt::topo::MultipathTopology> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            if name == "shared-prefix" {
                canonical::shared_prefix_lane(20, 4, i)
            } else {
                canonical_topology(name).translated(0x0100_0000 * (i as u32 + 1))
            }
        })
        .collect();
    let lanes: Vec<SimNetwork> = topologies
        .iter()
        .enumerate()
        .map(|(i, topo)| {
            let mut builder =
                SimNetwork::builder(topo.clone()).seed(opts.seed.wrapping_add(i as u64));
            builder = match &opts.fault_schedule {
                Some(schedule) => builder.fault_schedule(schedule.clone()),
                None => builder.faults(faults),
            };
            if let Some(schedule) = &opts.topology_schedule {
                builder = builder.topology_schedule(schedule.clone());
            }
            builder.build()
        })
        .collect();
    let net = match mlpt::sim::MultiNetwork::new(lanes) {
        Ok(net) => net
            .with_workers(opts.workers)
            .with_cycle_gap(opts.cycle_gap),
        Err(e) => {
            eprintln!("failed to assemble sweep network: {e}");
            exit(2);
        }
    };

    let sweep_config = SweepConfig {
        max_in_flight: opts.budget,
        admission: opts.admission,
        adaptive: opts.adaptive.then(AdaptiveBudget::default),
        retries: opts.max_retries,
        retry: RetryPolicy {
            base_timeout: opts.probe_timeout,
            ..RetryPolicy::default()
        },
        // A hostile schedule can black-hole a lane mid-trace; arm the
        // stall watchdog so that lane degrades to a partial trace
        // instead of burning its whole retry budget into the dark.
        stall_rounds: if opts.fault_schedule.is_some()
            || opts.topology_schedule.is_some()
            || opts.reprobe_budget.is_some()
        {
            8
        } else {
            0
        },
        stop_set: stop_set_config(opts.stop_set, opts.start_ttl),
        ..SweepConfig::default()
    };
    let algo = opts.algo.clone();
    if !matches!(algo.as_str(), "mda" | "lite" | "single") {
        eprintln!("unknown algorithm {algo} (mda|lite|single)");
        exit(2);
    }
    let sessions = topologies.iter().enumerate().map(|(i, topo)| {
        let destination = topo.destination();
        let session_config = TraceConfig {
            seed: opts.seed.wrapping_add(i as u64),
            ..config.clone()
        };
        match algo.as_str() {
            "mda" => {
                Box::new(MdaSession::new(destination, session_config)) as Box<dyn TraceSession>
            }
            "lite" => Box::new(MdaLiteSession::new(destination, session_config)),
            _ => Box::new(SingleFlowSession::new(
                destination,
                session_config,
                FlowId(opts.seed as u16),
            )),
        }
    });

    // Sharded or single engine: sharding is pure scheduling, so the
    // traces and every protocol-level counter are identical either way.
    let (traces, stats, per_shard): (Vec<_>, SweepStats, Option<Vec<SweepStats>>) =
        if opts.shards > 1 {
            let parts = net.split_by(opts.shards, |d| shard_of(d, opts.shards));
            let mut engine = ShardedSweepEngine::new(parts, source).with_config(sweep_config);
            let traces = engine.run_stream(sessions);
            let per = engine.shard_stats().into_iter().copied().collect();
            (traces, *engine.stats(), Some(per))
        } else {
            let mut engine = SweepEngine::new(net, source).with_config(sweep_config);
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats(), None)
        };

    if opts.json {
        let destinations: Vec<serde_json::Value> = traces
            .iter()
            .map(|t| {
                serde_json::json!({
                    "destination": t.destination.to_string(),
                    "reached": t.reached_destination,
                    "probes": t.probes_sent,
                    "vertices": t.total_vertices(),
                    "edges": t.total_edges(),
                    "switched": t.switched.is_some(),
                    "partial": t.outcome.is_partial(),
                })
            })
            .collect();
        let report = serde_json::json!({
            "topologies": names,
            "algo": opts.algo,
            "admission": admission_name(opts.admission),
            "adaptive_budget": opts.adaptive,
            "max_in_flight": opts.budget,
            "shards": opts.shards,
            "per_shard": per_shard.as_deref().map(per_shard_json),
            "destinations": destinations,
            "stats": stats_json(&stats),
        });
        println!(
            "{}",
            // mlpt: allow(MLPT-W004, reason = "report types serialize infallibly (no maps with non-string keys, no custom Serialize)")
            serde_json::to_string_pretty(&report).expect("serializable")
        );
        return;
    }

    println!(
        "mlpt sweep: {} destinations ({}), algo {}, base seed {}, {} admission{}",
        names.len(),
        if names.iter().all(|n| n == &names[0]) {
            names[0].clone()
        } else {
            "mixed topologies".into()
        },
        opts.algo,
        opts.seed,
        admission_name(opts.admission),
        if opts.adaptive {
            ", adaptive budget"
        } else {
            ""
        },
    );
    for trace in &traces {
        println!(
            "  {}  {} probes, {} vertices, {} edges{}{}{}",
            trace.destination,
            trace.probes_sent,
            trace.total_vertices(),
            trace.total_edges(),
            if trace.reached_destination {
                ""
            } else {
                "  [destination NOT reached]"
            },
            if trace.switched.is_some() {
                "  [switched to MDA]"
            } else {
                ""
            },
            match trace.outcome {
                mlpt::core::TraceOutcome::Complete => String::new(),
                mlpt::core::TraceOutcome::Partial { reason } => format!("  [partial: {reason}]"),
            },
        );
    }
    println!(
        "\n{} probes over {} transport dispatches ({:.1} probes/dispatch, largest batch {}); \
         {} replies, {} lost",
        stats.probes_sent,
        stats.dispatch_cycles,
        stats.probes_per_dispatch(),
        stats.max_batch,
        stats.replies_delivered,
        stats.probes_sent - stats.replies_delivered,
    );
    println!(
        "admission: {} admitted, {} completed, {} deferred; cycles {} clean / {} lossy",
        stats.sessions_admitted,
        stats.sessions_completed,
        stats.sessions_deferred,
        stats.clean_cycles,
        stats.lossy_cycles,
    );
    println!(
        "robustness: {} probes timed out, {} retries exhausted, {} partial sessions, \
         max lane backoff depth {}, {} artifacts detected, {} route recoveries, \
         {} reprobes, {} route-changed partials, {} stale stop hits",
        stats.probes_timed_out,
        stats.retries_exhausted,
        stats.sessions_partial,
        stats.max_lane_backoff_depth,
        stats.artifacts_detected,
        stats.route_recoveries,
        stats.reprobes_sent,
        stats.route_changed_partials,
        stats.stop_set_stale_hits,
    );
    if opts.stop_set {
        println!(
            "stop set: {} probes elided, {} stop-set hits, {} retries elided",
            stats.probes_elided, stats.stop_set_hits, stats.retries_elided,
        );
    }
    if let Some(per) = &per_shard {
        let probes: Vec<String> = per.iter().map(|s| s.probes_sent.to_string()).collect();
        println!(
            "sharding: {} engine shards, {} generation-barrier stalls; per-shard probes {}",
            per.len(),
            stats.generation_barrier_stalls,
            probes.join("/"),
        );
    }
    if opts.adaptive {
        println!(
            "adaptive budget: {} global backoffs, {} lane backoffs, final budget {}",
            stats.budget_backoffs, stats.lane_backoffs, stats.final_in_flight_budget,
        );
    }
}

/// Resolves router-level aliases for many destinations concurrently:
/// one [`MultilevelSession`] per synthetic-Internet scenario, streamed
/// through the sweep engine. Scenarios whose topologies share interface
/// addresses (the generator's wide core structures) are grouped into
/// address-disjoint sub-sweeps, because echo probes route by interface.
fn cmd_alias(args: &[String]) {
    use mlpt::alias::multilevel::{MultilevelConfig, MultilevelOutcome, MultilevelSession};
    use mlpt::alias::rounds::ProbeMethod;
    use mlpt::core::SweepStats;
    use mlpt::survey::router_survey::disjoint_scenario_groups;
    use mlpt::survey::TraceScenario;

    let mut targets: Vec<usize> = Vec::new();
    let mut stdin_list = false;
    let mut rounds = 10u32;
    let mut replies = 30u32;
    let mut method = ProbeMethod::Indirect;
    let mut budget = 1024usize;
    let mut adaptive = false;
    let mut admission = Admission::Streaming;
    let mut stop_set = false;
    let mut start_ttl: Option<u8> = None;
    let mut fanout = false;
    let mut rate_limit: Option<(u32, u64)> = None;
    let mut fault_schedule: Option<FaultSchedule> = None;
    let mut probe_timeout = RetryPolicy::default().base_timeout;
    let mut max_retries = 0u8;
    let mut shards = 1usize;
    let mut cycle_gap = 0u64;
    let mut seed = 1u64;
    let mut json = false;

    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &String {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("{} needs a value", args[i]);
                exit(2);
            })
        };
        match args[i].as_str() {
            "--stdin" => {
                stdin_list = true;
                i += 1;
                continue;
            }
            "--rounds" => rounds = need(i).parse().unwrap_or(10),
            "--replies" => replies = need(i).parse().unwrap_or(30),
            "--method" => {
                method = match need(i).as_str() {
                    "indirect" => ProbeMethod::Indirect,
                    "direct" => ProbeMethod::Direct,
                    other => {
                        eprintln!("unknown method {other} (indirect|direct)");
                        exit(2);
                    }
                }
            }
            "--budget" | "--max-in-flight" => budget = need(i).parse().unwrap_or(1024),
            "--adaptive-budget" => {
                adaptive = true;
                i += 1;
                continue;
            }
            "--admission" => admission = parse_admission(need(i)),
            "--stop-set" => {
                stop_set = true;
                i += 1;
                continue;
            }
            "--start-ttl" => {
                start_ttl = Some(need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--start-ttl needs a TTL (1..=255)");
                    exit(2);
                }))
            }
            "--fanout" => {
                fanout = true;
                i += 1;
                continue;
            }
            "--rate-limit" => {
                let spec = need(i);
                let parsed = spec
                    .split_once('/')
                    .and_then(|(n, w)| Some((n.parse::<u32>().ok()?, w.parse::<u64>().ok()?)));
                match parsed {
                    Some((n, w)) if n > 0 && w > 0 => rate_limit = Some((n, w)),
                    _ => {
                        eprintln!("--rate-limit needs N/W (replies per window ticks)");
                        exit(2);
                    }
                }
            }
            "--fault-schedule" => fault_schedule = Some(fault_schedule_preset(need(i))),
            "--probe-timeout" => {
                probe_timeout = need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--probe-timeout needs a tick count");
                    exit(2);
                })
            }
            "--max-retries" => {
                max_retries = need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--max-retries needs a small number");
                    exit(2);
                })
            }
            "--shards" => shards = need(i).parse::<usize>().unwrap_or(1).max(1),
            "--cycle-gap" => cycle_gap = need(i).parse().unwrap_or(0),
            "--seed" => seed = need(i).parse().unwrap_or(1),
            "--json" => {
                json = true;
                i += 1;
                continue;
            }
            other => match other.parse::<usize>() {
                Ok(id) => {
                    targets.push(id);
                    i += 1;
                    continue;
                }
                Err(_) => {
                    eprintln!("unknown option or target: {other}");
                    exit(2);
                }
            },
        }
        i += 2;
    }

    if stdin_list {
        use std::io::BufRead;
        for line in std::io::stdin().lock().lines().map_while(Result::ok) {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.parse::<usize>() {
                Ok(id) => targets.push(id),
                Err(_) => {
                    eprintln!("not a scenario number: {line}");
                    exit(2);
                }
            }
        }
    }
    if targets.is_empty() {
        eprintln!("no targets: pass scenario numbers as arguments or via --stdin");
        exit(2);
    }
    {
        let mut sorted = targets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != targets.len() {
            eprintln!("duplicate scenario numbers in the target list");
            exit(2);
        }
    }

    let faults = {
        let mut plan = FaultPlan::none();
        if let Some((n, w)) = rate_limit {
            let window = FaultPlan::with_rate_limit_window(n, w);
            plan.icmp_bucket_capacity = window.icmp_bucket_capacity;
            plan.icmp_tokens_per_tick = window.icmp_tokens_per_tick;
        }
        plan
    };
    let rounds_config = RoundsConfig {
        rounds,
        replies_per_round: replies,
        method,
        ..RoundsConfig::default()
    };
    let internet = SyntheticInternet::new(InternetConfig::default());
    let scenarios: Vec<TraceScenario> = targets.iter().map(|&id| internet.scenario(id)).collect();
    let refs: Vec<&TraceScenario> = scenarios.iter().collect();

    let mut outcomes: Vec<Option<MultilevelOutcome>> = Vec::new();
    outcomes.resize_with(scenarios.len(), || None);
    let mut stats = SweepStats::default();
    // Per-shard counters accumulated across sub-sweeps (shard i of every
    // sub-sweep merges into slot i).
    let mut per_shard: Vec<SweepStats> = vec![SweepStats::default(); shards];
    let mut sub_sweeps = 0usize;
    for group in disjoint_scenario_groups(&refs) {
        sub_sweeps += 1;
        let lanes: Vec<SimNetwork> = group
            .iter()
            .map(|&i| {
                let mut builder = SimNetwork::builder(scenarios[i].topology.clone())
                    .routers(scenarios[i].routers.clone())
                    .seed(seed.wrapping_add(targets[i] as u64));
                builder = match &fault_schedule {
                    Some(schedule) => builder.fault_schedule(schedule.clone()),
                    None => builder.faults(faults),
                };
                for (router, profile) in &scenarios[i].profiles {
                    builder = builder.profile(*router, *profile);
                }
                builder.build()
            })
            .collect();
        let net = match mlpt::sim::MultiNetwork::new(lanes) {
            Ok(net) => net.with_cycle_gap(cycle_gap),
            Err(e) => {
                eprintln!("failed to assemble alias sweep network: {e}");
                exit(2);
            }
        };
        let source = scenarios[group[0]].source;
        assert!(
            group.iter().all(|&i| scenarios[i].source == source),
            "alias sweeps assume a single vantage point"
        );
        let sweep_config = SweepConfig {
            max_in_flight: budget,
            admission,
            adaptive: adaptive.then(AdaptiveBudget::default),
            retries: max_retries,
            retry: RetryPolicy {
                base_timeout: probe_timeout,
                ..RetryPolicy::default()
            },
            stall_rounds: if fault_schedule.is_some() { 8 } else { 0 },
            stop_set: stop_set_config(stop_set, start_ttl),
            ..SweepConfig::default()
        };
        let sessions = group.iter().map(|&i| {
            MultilevelSession::new(
                scenarios[i].topology.destination(),
                MultilevelConfig {
                    trace: TraceConfig::new(seed.wrapping_add(targets[i] as u64)),
                    rounds: rounds_config.clone(),
                },
            )
            .with_hop_fanout(fanout)
            .with_cost_hint(mlpt::survey::scenario_cost_hint(
                &scenarios[i],
                &rounds_config,
                false,
            ))
        });
        if shards > 1 {
            // Sharded sub-sweep: lanes split by the same destination
            // hash that partitions the sessions — pure scheduling, the
            // outcomes are bit-identical to the single engine.
            let parts = net.split_by(shards, |d| shard_of(d, shards));
            let mut engine = ShardedSweepEngine::new(parts, source).with_config(sweep_config);
            engine.run_sessions_with(sessions, |idx, session, _wire| {
                outcomes[group[idx]] = Some(session.finish());
            });
            stats.merge(engine.stats());
            for (slot, shard) in per_shard.iter_mut().zip(engine.shard_stats()) {
                slot.merge(shard);
            }
        } else {
            let mut engine = SweepEngine::new(net, source).with_config(sweep_config);
            engine.run_sessions_with(sessions, |idx, session, _wire| {
                outcomes[group[idx]] = Some(session.finish());
            });
            stats.merge(engine.stats());
        }
    }

    let outcomes: Vec<MultilevelOutcome> = outcomes
        .into_iter()
        // mlpt: allow(MLPT-W004, reason = "invariant: run_sessions_with invokes the completion callback for every session, filling each slot")
        .map(|o| o.expect("every session reports"))
        .collect();

    if json {
        let per_scenario: Vec<serde_json::Value> = targets
            .iter()
            .zip(&outcomes)
            .map(|(&id, outcome)| {
                let hops: Vec<serde_json::Value> = outcome
                    .multilevel
                    .hop_reports
                    .iter()
                    .map(|(ttl, reports)| {
                        serde_json::json!({
                            "ttl": ttl,
                            "rounds": reports.iter().map(|r| {
                                serde_json::json!({
                                    "round": r.round,
                                    "routers": r.partition.routers().count(),
                                    "aliased_addresses": r.partition.routers()
                                        .map(|s| s.len()).sum::<usize>(),
                                    "cumulative_probes": r.cumulative_probes,
                                })
                            }).collect::<Vec<_>>(),
                        })
                    })
                    .collect();
                serde_json::json!({
                    "scenario": id,
                    "destination": outcome.multilevel.trace.destination.to_string(),
                    "trace_probes": outcome.multilevel.trace.probes_sent,
                    "alias_probes": outcome.multilevel.alias_probes,
                    "router_sizes": outcome.multilevel.router_sizes(),
                    "hops": hops,
                })
            })
            .collect();
        let report = serde_json::json!({
            "method": match method {
                ProbeMethod::Indirect => "indirect",
                ProbeMethod::Direct => "direct",
            },
            "rounds": rounds,
            "replies_per_round": replies,
            "admission": admission_name(admission),
            "hop_fanout": fanout,
            "sub_sweeps": sub_sweeps,
            "shards": shards,
            "per_shard": (shards > 1).then(|| per_shard_json(&per_shard)),
            "scenarios": per_scenario,
            "stats": stats_json(&stats),
        });
        println!(
            "{}",
            // mlpt: allow(MLPT-W004, reason = "report types serialize infallibly (no maps with non-string keys, no custom Serialize)")
            serde_json::to_string_pretty(&report).expect("serializable")
        );
        return;
    }

    println!(
        "mlpt alias: {} scenario(s), method {}, rounds 0..={rounds} x {replies} replies, \
         {} admission{}{}{}",
        targets.len(),
        match method {
            ProbeMethod::Indirect => "indirect",
            ProbeMethod::Direct => "direct",
        },
        admission_name(admission),
        if adaptive { ", adaptive budget" } else { "" },
        if fanout { ", hop fan-out" } else { "" },
        if sub_sweeps > 1 {
            format!(" ({sub_sweeps} address-disjoint sub-sweeps)")
        } else {
            String::new()
        },
    );
    for (&id, outcome) in targets.iter().zip(&outcomes) {
        println!(
            "scenario {id} ({}): trace {} probes, alias {} probes",
            outcome.multilevel.trace.destination,
            outcome.multilevel.trace.probes_sent,
            outcome.multilevel.alias_probes,
        );
        if outcome.multilevel.hop_reports.is_empty() {
            println!("  no multi-interface hops (nothing to resolve)");
            continue;
        }
        for (ttl, reports) in &outcome.multilevel.hop_reports {
            let sizes: Vec<String> = reports
                .iter()
                .map(|r| {
                    format!(
                        "r{}:{}/{}",
                        r.round,
                        r.partition.routers().count(),
                        r.partition.routers().map(|s| s.len()).sum::<usize>(),
                    )
                })
                .collect();
            let candidates = reports
                .first()
                .map_or(0, |r| r.partition.sets().iter().map(|s| s.len()).sum());
            println!(
                "  hop {ttl} ({candidates} addrs), routers/aliased per round: {}",
                sizes.join(" ")
            );
        }
    }
    println!(
        "\nsweep: {} probes over {} dispatches ({:.1} probes/dispatch, largest batch {}); \
         {} replies",
        stats.probes_sent,
        stats.dispatch_cycles,
        stats.probes_per_dispatch(),
        stats.max_batch,
        stats.replies_delivered,
    );
    println!(
        "admission: {} admitted, {} deferred, {} completed; cycles {} clean / {} lossy",
        stats.sessions_admitted,
        stats.sessions_deferred,
        stats.sessions_completed,
        stats.clean_cycles,
        stats.lossy_cycles,
    );
    println!(
        "robustness: {} probes timed out, {} retries exhausted, {} partial sessions, \
         max lane backoff depth {}, {} artifacts detected, {} route recoveries, \
         {} reprobes, {} route-changed partials, {} stale stop hits",
        stats.probes_timed_out,
        stats.retries_exhausted,
        stats.sessions_partial,
        stats.max_lane_backoff_depth,
        stats.artifacts_detected,
        stats.route_recoveries,
        stats.reprobes_sent,
        stats.route_changed_partials,
        stats.stop_set_stale_hits,
    );
    if stop_set {
        println!(
            "stop set: {} probes elided, {} stop-set hits, {} retries elided",
            stats.probes_elided, stats.stop_set_hits, stats.retries_elided,
        );
    }
    if shards > 1 {
        let probes: Vec<String> = per_shard
            .iter()
            .map(|s| s.probes_sent.to_string())
            .collect();
        println!(
            "sharding: {} engine shards, {} generation-barrier stalls; per-shard probes {}",
            shards,
            stats.generation_barrier_stalls,
            probes.join("/"),
        );
    }
    if adaptive {
        println!(
            "adaptive budget: {} global backoffs, {} lane backoffs, final budget {}",
            stats.budget_backoffs, stats.lane_backoffs, stats.final_in_flight_budget,
        );
    }
}

fn cmd_multilevel(args: &[String]) {
    let opts = parse_options(args);
    let (net, source, destination, truth) = build_network(&opts);
    let mut prober = TransportProber::new(net, source, destination);
    let config = MultilevelConfig {
        trace: TraceConfig::new(opts.seed)
            .with_stopping(stopping_points(&opts.stopping))
            .with_phi(opts.phi),
        rounds: RoundsConfig {
            rounds: opts.rounds,
            ..RoundsConfig::default()
        },
    };
    let result = trace_multilevel(&mut prober, &config);

    println!(
        "mlpt: multilevel MDA-Lite to {destination}, seed {}",
        opts.seed
    );
    render_hops(&result.trace, Some(&result.router_map));
    println!("\nalias sets (routers) inferred during the trace:");
    let mut any = false;
    for (router, set) in result.router_map.alias_sets() {
        if set.len() < 2 {
            continue;
        }
        any = true;
        let members: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        println!("  R{}: {}", router.0, members.join("  "));
    }
    if !any {
        println!("  (none — every interface looks like its own router)");
    }

    if let Some(truth) = truth {
        let inferred = &result.router_map;
        let mut agree = 0usize;
        let mut total = 0usize;
        let addresses: Vec<Ipv4Addr> = result.trace.all_addresses().into_iter().collect();
        for i in 0..addresses.len() {
            for j in i + 1..addresses.len() {
                total += 1;
                if inferred.are_aliases(addresses[i], addresses[j])
                    == truth.are_aliases(addresses[i], addresses[j])
                {
                    agree += 1;
                }
            }
        }
        if total > 0 {
            println!(
                "\nground truth agreement: {agree}/{total} address pairs ({:.1}%)",
                100.0 * agree as f64 / total as f64
            );
        }
    }

    if let (Some(ip), Some(router)) = (&result.ip_topology, &result.router_topology) {
        let ip_d = mlpt::topo::diamond::all_diamond_metrics(ip);
        let r_d = mlpt::topo::diamond::all_diamond_metrics(router);
        let ip_widths: Vec<usize> = ip_d.iter().map(|m| m.max_width).collect();
        let r_widths: Vec<usize> = r_d.iter().map(|m| m.max_width).collect();
        println!(
            "\ndiamonds: IP level {:?} wide → router level {:?} wide",
            ip_widths, r_widths
        );
    }
    println!(
        "\ntrace probes: {}; alias probes: {}",
        result.trace.probes_sent, result.alias_probes
    );

    // Per-hop round summary (Fig. 5 style, this trace only).
    if !result.hop_reports.is_empty() {
        let mut per_round: BTreeMap<u32, u64> = BTreeMap::new();
        for reports in result.hop_reports.values() {
            for r in reports {
                *per_round.entry(r.round).or_insert(0) += r.cumulative_probes;
            }
        }
        let rounds: Vec<String> = per_round.iter().map(|(r, p)| format!("r{r}:{p}")).collect();
        println!("alias probes by round: {}", rounds.join(" "));
    }
}
