//! Smoke-level integration of the survey pipeline and the experiment
//! harness: every paper artifact regenerates at small scale with sane
//! shapes.

use mlpt_bench::experiments;
use mlpt_bench::Scale;

/// The evaluation dataset reproduces Table 1's orderings at small scale.
#[test]
fn evaluation_orderings_hold() {
    use mlpt::survey::evaluation::Variant;
    use mlpt::survey::{evaluate_scenarios, EvaluationConfig, InternetConfig, SyntheticInternet};
    let internet = SyntheticInternet::new(InternetConfig::default());
    let out = evaluate_scenarios(
        &internet,
        &EvaluationConfig {
            scenarios: 80,
            workers: 4,
            trace_seed: 1,
        },
    );
    let (v_lite, e_lite, p_lite) = out.aggregate_of(Variant::MdaLitePhi2);
    let (v_single, e_single, p_single) = out.aggregate_of(Variant::SingleFlow);
    // Who wins, by roughly what factor.
    assert!(
        v_lite > 0.95 && e_lite > 0.92,
        "lite parity {v_lite}/{e_lite}"
    );
    assert!(p_lite < 0.9, "lite economy {p_lite}");
    assert!(v_single < 0.8 && e_single < 0.6, "single flow misses");
    assert!(p_single < 0.1, "single flow is cheap");
    assert!(p_single < p_lite && p_lite < 1.0, "cost ordering");
}

/// Every experiment id runs at small scale and emits non-empty output.
#[test]
fn all_experiments_run_small() {
    // The full battery is exercised piecewise to keep failures local;
    // "all" composition is checked by the ids list.
    for id in experiments::ALL_IDS {
        let results =
            experiments::run(id, Scale::Small).unwrap_or_else(|| panic!("unknown experiment {id}"));
        for r in &results {
            assert!(!r.text.trim().is_empty(), "{id}: empty text");
            assert!(!r.json.is_null(), "{id}: null json");
        }
    }
}

#[test]
fn unknown_experiment_rejected() {
    assert!(experiments::run("fig99", Scale::Small).is_none());
}

/// The fakeroute experiment respects the bound: analytic value within the
/// (small-scale, hence wide) confidence interval.
#[test]
fn fakeroute_validation_consistent() {
    let results = experiments::run("fakeroute", Scale::Small).unwrap();
    let json = &results[0].json;
    assert!(
        json["analytic_within_ci"].as_bool().unwrap(),
        "MDA must fail at the predicted rate: {json}"
    );
    let analytic = json["analytic"].as_f64().unwrap();
    assert!((analytic - 0.03125).abs() < 1e-9);
}

/// Fig. 5's qualitative claims: round 0 below round 10, a jump at round 1,
/// monotone probe cost.
#[test]
fn fig5_shape() {
    let results = experiments::run("fig5", Scale::Small).unwrap();
    let rounds = results[0].json["rounds"].as_array().unwrap();
    let recall0 = rounds[0]["recall"].as_f64().unwrap();
    let recall1 = rounds[1]["recall"].as_f64().unwrap();
    let recall_last = rounds.last().unwrap()["recall"].as_f64().unwrap();
    assert!(recall0 < recall_last, "round 0 must trail: {recall0}");
    assert!(recall1 > recall0, "first probing round must jump");
    assert_eq!(recall_last, 1.0);
    let ratios: Vec<f64> = rounds
        .iter()
        .map(|r| r["probe_ratio"].as_f64().unwrap())
        .collect();
    assert!(ratios.windows(2).all(|w| w[1] >= w[0]));
}

/// Table 3's dominant ordering: no-change > single-smaller > the rest.
#[test]
fn table3_ordering() {
    let results = experiments::run("table3", Scale::Small).unwrap();
    let portions = results[0].json["portions"].as_array().unwrap();
    let get = |label: &str| -> f64 {
        portions
            .iter()
            .find(|p| p["case"] == label)
            .map(|p| p["measured"].as_f64().unwrap())
            .unwrap_or(0.0)
    };
    let no_change = get("No change");
    let single = get("Single smaller diamond");
    let multiple = get("Multiple smaller diamonds");
    let one_path = get("One path (no diamond)");
    assert!(no_change > single, "{no_change} vs {single}");
    assert!(single > multiple);
    assert!(single > one_path);
    let total = no_change + single + multiple + one_path;
    assert!((total - 1.0).abs() < 1e-9);
}
