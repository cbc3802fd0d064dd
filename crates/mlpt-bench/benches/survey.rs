//! Survey-pipeline cost: scenario generation and end-to-end survey
//! throughput, which bound how fast the paper-scale experiments run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlpt_survey::{
    evaluate_scenarios, run_ip_survey, EvaluationConfig, InternetConfig, IpSurveyConfig,
    SyntheticInternet,
};

fn bench(c: &mut Criterion) {
    c.bench_function("generator/scenario", |b| {
        let internet = SyntheticInternet::new(InternetConfig::default());
        let mut id = 0usize;
        b.iter(|| {
            id += 1;
            black_box(internet.scenario(black_box(id)))
        });
    });

    c.bench_function("survey/ip_survey_40_scenarios", |b| {
        let internet = SyntheticInternet::new(InternetConfig::default());
        let config = IpSurveyConfig {
            scenarios: 40,
            workers: 4,
            trace_seed: 3,
            phi: 2,
        };
        b.iter(|| black_box(run_ip_survey(black_box(&internet), &config)));
    });

    c.bench_function("survey/evaluation_20_scenarios", |b| {
        let internet = SyntheticInternet::new(InternetConfig::default());
        let config = EvaluationConfig {
            scenarios: 20,
            workers: 4,
            trace_seed: 3,
        };
        b.iter(|| black_box(evaluate_scenarios(black_box(&internet), &config)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
