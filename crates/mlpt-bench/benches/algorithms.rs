//! Tracing-algorithm cost: wall time and (reported via criterion
//! throughput labels) probe counts on the paper's canonical topologies.
//! The probe-count comparisons themselves are experiment `fig1`/`fig3`;
//! these benches keep the implementations honest about CPU cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mlpt_core::prelude::*;
use mlpt_sim::SimNetwork;
use mlpt_topo::canonical;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    for (name, topo) in canonical::simulation_suite() {
        // The 48-wide meshed topology is heavy; trim its sample count.
        if name == "meshed" {
            group.sample_size(10);
        } else {
            group.sample_size(20);
        }
        group.bench_with_input(BenchmarkId::new("mda", name), &topo, |b, topo| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let net = SimNetwork::new(topo.clone(), seed);
                let mut prober = TransportProber::new(net, SRC, topo.destination());
                black_box(trace_mda(&mut prober, &TraceConfig::new(seed)))
            });
        });
        group.bench_with_input(BenchmarkId::new("mda_lite", name), &topo, |b, topo| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let net = SimNetwork::new(topo.clone(), seed);
                let mut prober = TransportProber::new(net, SRC, topo.destination());
                black_box(trace_mda_lite(&mut prober, &TraceConfig::new(seed)))
            });
        });
        group.bench_with_input(BenchmarkId::new("single_flow", name), &topo, |b, topo| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let net = SimNetwork::new(topo.clone(), seed);
                let mut prober = TransportProber::new(net, SRC, topo.destination());
                black_box(trace_single_flow(
                    &mut prober,
                    &TraceConfig::new(seed),
                    FlowId(9),
                ))
            });
        });
    }
    group.finish();

    c.bench_function("stopping/exact_table_alpha05_k128", |b| {
        b.iter(|| black_box(StoppingPoints::exact(0.05, 128)));
    });

    // The per-destination constructor: clones the process-wide 95 %
    // table, so it costs nanoseconds. A per-call table build would show
    // here as the millisecond figure of the entry above.
    c.bench_function("config/trace_config_new", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(TraceConfig::new(black_box(seed)))
        });
    });

    c.bench_function("analytic/mda_failure_meshed48", |b| {
        let topo = canonical::meshed();
        let nks = StoppingPoints::mda95();
        b.iter(|| {
            black_box(mlpt_sim::mda_failure_probability(
                black_box(&topo),
                nks.as_slice(),
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench
}
criterion_main!(benches);
