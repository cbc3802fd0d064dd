//! Integration tests for the `mlpt` command-line tool.

use std::process::Command;

fn mlpt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlpt"))
}

#[test]
fn trace_prints_hops_and_summary() {
    let out = mlpt()
        .args(["trace", "--topology", "fig1-unmeshed", "--seed", "5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("MDA-Lite"), "{stdout}");
    assert!(stdout.contains("destination reached"), "{stdout}");
    // Four interfaces at ttl 2.
    let ttl2_block: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("2 "))
        .take_while(|l| !l.trim_start().starts_with("3 "))
        .collect();
    assert_eq!(ttl2_block.len(), 4, "{stdout}");
}

#[test]
fn json_output_is_valid_report() {
    let out = mlpt()
        .args(["trace", "--topology", "simplest", "--json", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: mlpt::core::TraceReport =
        serde_json::from_slice(&out.stdout).expect("valid TraceReport JSON");
    assert!(report.reached_destination);
    assert_eq!(report.hops.len(), 3);
    assert_eq!(report.max_width(), 2);
}

#[test]
fn pcap_output_is_openable() {
    let path = std::env::temp_dir().join("mlpt-cli-test.pcap");
    let out = mlpt()
        .args([
            "trace",
            "--topology",
            "simplest",
            "--pcap",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let bytes = std::fs::read(&path).expect("pcap written");
    assert_eq!(&bytes[0..4], &0xA1B2_C3D4u32.to_le_bytes());
    assert!(bytes.len() > 24, "empty capture");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn multilevel_reports_alias_sets() {
    let out = mlpt()
        .args([
            "multilevel",
            "--scenario",
            "3",
            "--seed",
            "2",
            "--rounds",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("alias sets"), "{stdout}");
    assert!(stdout.contains("ground truth agreement"), "{stdout}");
}

#[test]
fn meshed_topology_reports_switch() {
    let out = mlpt()
        .args(["trace", "--topology", "fig1-meshed", "--seed", "4"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("switched to full MDA (meshing"), "{stdout}");
}

#[test]
fn unknown_arguments_rejected() {
    assert!(!mlpt()
        .args(["trace", "--bogus"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!mlpt()
        .args(["frobnicate"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!mlpt()
        .args(["trace", "--topology", "no-such"])
        .output()
        .unwrap()
        .status
        .success());
}

#[test]
fn topologies_lists_all_seven() {
    let out = mlpt().arg("topologies").output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "simplest",
        "fig1-unmeshed",
        "fig1-meshed",
        "max-length-2",
        "symmetric",
        "asymmetric",
        "meshed",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn sweep_traces_all_destinations() {
    let out = mlpt()
        .args([
            "sweep",
            "--topology",
            "fig1-unmeshed",
            "--destinations",
            "5",
            "--algo",
            "mda",
            "--seed",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // One summary line per destination, each with its own address block.
    for block in ["  11.", "  12.", "  13.", "  14.", "  15."] {
        assert!(
            stdout.contains(block),
            "missing destination line {block}*: {stdout}"
        );
    }
    assert!(stdout.contains("probes/dispatch"), "{stdout}");
}

#[test]
fn sweep_json_reports_stats_and_destinations() {
    let out = mlpt()
        .args([
            "sweep",
            "--topology",
            "simplest",
            "--destinations",
            "3",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let dests = report["destinations"].as_array().expect("array");
    assert_eq!(dests.len(), 3);
    for d in dests {
        assert_eq!(d["reached"], serde_json::Value::Bool(true));
    }
    assert!(report["stats"]["probes_per_dispatch"].as_f64().unwrap() > 1.0);
    assert!(report["stats"]["dispatch_cycles"].as_u64().unwrap() >= 1);
}

#[test]
fn sweep_rejects_zero_destinations() {
    assert!(!mlpt()
        .args(["sweep", "--destinations", "0"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--stdin` streams a destination list (one canonical topology per
/// line; blanks and comments skipped) into the engine.
#[test]
fn sweep_reads_destination_list_from_stdin() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = mlpt()
        .args(["sweep", "--stdin", "--json", "--max-in-flight", "16"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"simplest\n# a comment\n\nfig1-meshed\nasymmetric\n")
        .expect("write list");
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["topologies"].as_array().expect("array").len(), 3);
    assert_eq!(report["admission"], "streaming");
    let dests = report["destinations"].as_array().expect("array");
    assert_eq!(dests.len(), 3);
    for d in dests {
        assert_eq!(d["reached"], serde_json::Value::Bool(true));
    }
    assert_eq!(report["stats"]["sessions_admitted"].as_u64(), Some(3));
    assert_eq!(report["stats"]["sessions_completed"].as_u64(), Some(3));
}

/// `--shards N` partitions the sweep across N engine shards; the
/// per-destination results and every protocol-level counter must be
/// bit-identical to the unsharded run — sharding is pure scheduling.
#[test]
fn sweep_sharded_output_matches_unsharded() {
    let base = [
        "sweep",
        "--topology",
        "fig1-meshed",
        "--destinations",
        "9",
        "--stop-set",
        "--seed",
        "5",
        "--json",
    ];
    let run = |extra: &[&str]| -> serde_json::Value {
        let out = mlpt()
            .args(base.iter().copied().chain(extra.iter().copied()))
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let plain = run(&[]);
    let sharded = run(&["--shards", "2"]);

    assert_eq!(plain["shards"].as_u64(), Some(1));
    assert_eq!(sharded["shards"].as_u64(), Some(2));
    assert_eq!(
        sharded["per_shard"]
            .as_array()
            .expect("per-shard array")
            .len(),
        2
    );
    // Per-destination outcomes are identical, in order.
    assert_eq!(plain["destinations"], sharded["destinations"]);
    // Protocol-level counters are shard-invariant; scheduling ones
    // (dispatch cycles, batch sizes, barrier stalls) may differ.
    for key in [
        "probes_sent",
        "replies_delivered",
        "probes_timed_out",
        "probes_elided",
        "stop_set_hits",
        "sessions_admitted",
        "sessions_completed",
        "sessions_partial",
    ] {
        assert_eq!(
            plain["stats"][key], sharded["stats"][key],
            "protocol counter {key} diverged under --shards 2"
        );
    }
    assert!(sharded["stats"]["generation_barrier_stalls"]
        .as_u64()
        .is_some());
}

/// The adaptive budget demonstrably backs off on a rate-limited sweep:
/// lossy cycles are detected, the budget drops below the ceiling, and
/// the summary reports the controller's counters.
#[test]
fn sweep_adaptive_budget_backs_off_on_rate_limited_lanes() {
    let args = |adaptive: bool| {
        let mut v = vec![
            "sweep",
            "--topology",
            "fig1-meshed",
            "--destinations",
            "4",
            "--algo",
            "mda",
            "--max-in-flight",
            "64",
            "--rate-limit",
            "3/12",
            "--cycle-gap",
            "12",
            "--json",
        ];
        if adaptive {
            v.push("--adaptive-budget");
        }
        v
    };
    let run = |adaptive: bool| -> serde_json::Value {
        let out = mlpt().args(args(adaptive)).output().expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert_eq!(fixed["adaptive_budget"], serde_json::Value::Bool(false));
    assert_eq!(adaptive["adaptive_budget"], serde_json::Value::Bool(true));
    assert!(adaptive["stats"]["lossy_cycles"].as_u64().unwrap() > 0);
    assert!(adaptive["stats"]["budget_backoffs"].as_u64().unwrap() > 0);
    assert!(
        adaptive["stats"]["final_in_flight_budget"]
            .as_u64()
            .unwrap()
            < 64
    );
    // Fewer probes burned into the rate limiter than the fixed budget.
    let probes = |r: &serde_json::Value| r["stats"]["probes_sent"].as_u64().unwrap();
    assert!(probes(&adaptive) <= probes(&fixed));
}

#[test]
fn sweep_eager_admission_mode_selectable() {
    let out = mlpt()
        .args([
            "sweep",
            "--topology",
            "simplest",
            "--destinations",
            "3",
            "--admission",
            "eager",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["admission"], "eager");
    assert!(!mlpt()
        .args(["sweep", "--admission", "bogus"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--fault-schedule` puts a sweep under a chaos preset: the run still
/// terminates, dark destinations are flagged partial in both output
/// modes, the robustness counters appear, and the whole thing is
/// deterministic — two identical invocations produce identical bytes.
#[test]
fn sweep_fault_schedule_reports_partials_deterministically() {
    let args = [
        "sweep",
        "--destinations",
        "2",
        "--algo",
        "mda",
        "--fault-schedule",
        "midtrace-blackhole",
        "--max-retries",
        "1",
        "--seed",
        "3",
    ];
    let out = mlpt().args(args).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[partial: stalled"), "{stdout}");
    assert!(stdout.contains("robustness:"), "{stdout}");
    assert!(stdout.contains("probes timed out"), "{stdout}");

    let json_args: Vec<&str> = args.iter().copied().chain(["--json"]).collect();
    let run = || mlpt().args(&json_args).output().expect("binary runs");
    let first = run();
    assert!(first.status.success());
    assert_eq!(
        first.stdout,
        run().stdout,
        "chaos sweeps must be replayable"
    );
    let report: serde_json::Value = serde_json::from_slice(&first.stdout).expect("valid JSON");
    assert!(report["stats"]["probes_timed_out"].as_u64().unwrap() > 0);
    assert!(report["stats"]["retries_exhausted"].as_u64().unwrap() > 0);
    assert!(report["stats"]["sessions_partial"].as_u64().unwrap() >= 1);
    assert!(report["stats"]["max_lane_backoff_depth"].as_u64().unwrap() > 0);
    let dests = report["destinations"].as_array().expect("array");
    assert!(dests
        .iter()
        .any(|d| d["partial"] == serde_json::Value::Bool(true)));

    // Unknown presets are rejected with the list of known ones.
    let bad = mlpt()
        .args(["sweep", "--fault-schedule", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("midtrace-blackhole"), "{stderr}");
}

/// `--max-retries` buys extra probe waves for unanswered deadlines: on
/// a lossy sweep with a fixed seed, retries spend strictly more probes
/// than none, and timed-out probes are counted either way.
#[test]
fn sweep_max_retries_spends_probes_on_timeouts() {
    let run = |retries: &str| -> serde_json::Value {
        let out = mlpt()
            .args([
                "sweep",
                "--topology",
                "fig1-meshed",
                "--destinations",
                "3",
                "--algo",
                "mda",
                "--loss",
                "0.3",
                "--seed",
                "7",
                "--max-retries",
                retries,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let plain = run("0");
    let retried = run("3");
    let probes = |r: &serde_json::Value| r["stats"]["probes_sent"].as_u64().unwrap();
    let timed_out = |r: &serde_json::Value| r["stats"]["probes_timed_out"].as_u64().unwrap();
    assert!(timed_out(&plain) > 0);
    assert!(timed_out(&retried) > 0);
    assert!(
        probes(&retried) > probes(&plain),
        "retry waves must cost probes: {} vs {}",
        probes(&retried),
        probes(&plain)
    );
    // Bad values are usage errors.
    assert!(!mlpt()
        .args(["sweep", "--max-retries", "many"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--probe-timeout` sets the base deadline in virtual ticks: under the
/// congestion-ramp schedule (whose reply latency climbs to 32 ticks) a
/// one-tick deadline writes late replies off as timeouts, while the
/// default deadline waits them out.
#[test]
fn sweep_probe_timeout_bounds_reply_latency() {
    let run = |timeout: &str| -> serde_json::Value {
        let out = mlpt()
            .args([
                "sweep",
                "--destinations",
                "2",
                "--algo",
                "mda",
                "--fault-schedule",
                "congestion-ramp",
                "--seed",
                "5",
                "--probe-timeout",
                timeout,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let tight = run("1");
    let patient = run("4096");
    let timed_out = |r: &serde_json::Value| r["stats"]["probes_timed_out"].as_u64().unwrap();
    assert!(
        timed_out(&tight) > timed_out(&patient),
        "a one-tick deadline must miss more replies: {} vs {}",
        timed_out(&tight),
        timed_out(&patient)
    );
    // Bad values are usage errors.
    assert!(!mlpt()
        .args(["sweep", "--probe-timeout", "forever"])
        .output()
        .unwrap()
        .status
        .success());
}

/// The alias sweep grows the same robustness surface: a chaos preset is
/// selectable, the text report carries the robustness line and the JSON
/// report the new counters.
#[test]
fn alias_fault_schedule_and_robustness_counters() {
    let out = mlpt()
        .args([
            "alias",
            "3",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--fault-schedule",
            "flap",
            "--max-retries",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("robustness:"), "{stdout}");
    let out = mlpt()
        .args([
            "alias",
            "3",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--fault-schedule",
            "flap",
            "--max-retries",
            "1",
            "--probe-timeout",
            "64",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    for key in [
        "probes_timed_out",
        "retries_exhausted",
        "sessions_partial",
        "max_lane_backoff_depth",
    ] {
        assert!(
            report["stats"][key].as_u64().is_some(),
            "stats must carry {key}"
        );
    }
    assert!(!mlpt()
        .args(["alias", "3", "--fault-schedule", "bogus"])
        .output()
        .unwrap()
        .status
        .success());
}

/// Cost-aware admission and per-hop fan-out are selectable on the alias
/// sweep; the JSON report records both, and the per-scenario numbers
/// match a plain streaming run (cost-aware scheduling must not change
/// results; fan-out keeps the per-hop probe accounting).
#[test]
fn alias_cost_aware_fanout_selectable_and_consistent() {
    let run = |extra: &[&str]| -> serde_json::Value {
        let mut args = vec![
            "alias",
            "3",
            "5",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = mlpt().args(&args).output().expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let streaming = run(&[]);
    let cost_aware = run(&["--admission", "cost-aware"]);
    assert_eq!(streaming["admission"], "streaming");
    assert_eq!(cost_aware["admission"], "cost-aware");
    assert_eq!(cost_aware["hop_fanout"], false);
    // Pure scheduling: identical per-scenario results and wire totals.
    assert_eq!(streaming["scenarios"], cost_aware["scenarios"]);
    assert_eq!(
        streaming["stats"]["probes_sent"],
        cost_aware["stats"]["probes_sent"]
    );
    let fanned = run(&["--fanout", "--admission", "cost-aware"]);
    assert_eq!(fanned["hop_fanout"], true);
    // The fan-out is a protocol variant: same scenarios, same per-hop
    // cumulative probe spend (campaigns are reply-independent).
    for (a, b) in streaming["scenarios"]
        .as_array()
        .unwrap()
        .iter()
        .zip(fanned["scenarios"].as_array().unwrap())
    {
        assert_eq!(a["scenario"], b["scenario"]);
        assert_eq!(a["trace_probes"], b["trace_probes"]);
        assert_eq!(a["alias_probes"], b["alias_probes"]);
    }
    assert!(!mlpt()
        .args(["alias", "3", "--admission", "bogus"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `mlpt alias` resolves several scenarios' routers through one streamed
/// sweep and reports per-round partition sizes plus engine counters.
#[test]
fn alias_resolves_scenarios_concurrently() {
    let out = mlpt()
        .args(["alias", "3", "5", "--rounds", "2", "--replies", "6"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mlpt alias: 2 scenario(s)"), "{stdout}");
    assert!(stdout.contains("method indirect"), "{stdout}");
    assert!(stdout.contains("routers/aliased per round"), "{stdout}");
    assert!(stdout.contains("admission: 2 admitted"), "{stdout}");
    assert!(stdout.contains("2 completed"), "{stdout}");
}

/// The JSON report carries per-round partition sizes and the sweep's
/// admission/backoff counters; the direct method is selectable.
#[test]
fn alias_json_reports_rounds_and_counters() {
    let out = mlpt()
        .args([
            "alias",
            "3",
            "--method",
            "direct",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["method"], "direct");
    assert_eq!(report["rounds"].as_u64(), Some(2));
    let scenarios = report["scenarios"].as_array().expect("array");
    assert_eq!(scenarios.len(), 1);
    let hops = scenarios[0]["hops"].as_array().expect("array");
    assert!(!hops.is_empty(), "scenario 3 carries a diamond");
    let rounds = hops[0]["rounds"].as_array().expect("array");
    assert_eq!(rounds.len(), 3, "rounds 0..=2");
    assert!(rounds.last().unwrap()["cumulative_probes"].as_u64() > Some(0));
    assert_eq!(report["stats"]["sessions_admitted"].as_u64(), Some(1));
    assert_eq!(report["stats"]["sessions_completed"].as_u64(), Some(1));
    assert!(report["stats"]["probes_per_dispatch"].as_f64() > Some(1.0));
}

/// The alias JSON carries the full four-bucket ledger: every probe put
/// on the wire ends as exactly one of timed out, delivered, malformed
/// or mismatched.
#[test]
fn alias_json_stats_partition_probes_sent() {
    let out = mlpt()
        .args([
            "alias",
            "3",
            "7",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--fault-schedule",
            "jitter-spread",
            "--probe-timeout",
            "4",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let stats = &report["stats"];
    let bucket = |key: &str| {
        stats[key]
            .as_u64()
            .unwrap_or_else(|| panic!("stats must carry {key}"))
    };
    assert!(
        bucket("probes_timed_out") > 0,
        "the jitter must cost deadlines"
    );
    assert_eq!(
        bucket("probes_timed_out")
            + bucket("replies_delivered")
            + bucket("malformed_replies")
            + bucket("mismatched_replies"),
        bucket("probes_sent")
    );
}

/// `--stdin` reads scenario numbers (comments and blanks skipped); bad
/// input and empty target lists are rejected.
#[test]
fn alias_reads_targets_from_stdin() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = mlpt()
        .args([
            "alias",
            "--stdin",
            "--rounds",
            "1",
            "--replies",
            "4",
            "--json",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"# targets\n3\n\n5\n")
        .expect("write list");
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["scenarios"].as_array().expect("array").len(), 2);

    // No targets at all: usage error.
    assert!(!mlpt().args(["alias"]).output().unwrap().status.success());
    // Duplicate targets would collide in one transport: rejected.
    assert!(!mlpt()
        .args(["alias", "3", "3"])
        .output()
        .unwrap()
        .status
        .success());
}
