//! `serve_throughput`: wall-clock throughput of the continuous-batching
//! serving engine (`polca-serve`) in the split-pool topology
//! (disaggregated prefill/decode with KV transfer over the
//! interconnect), driven through `EngineKind::Batched` on a dense half
//! hour on a small row. The aggregated-pool engine is measured end to
//! end by `polca-benchmark`'s `serve_day` workload (see
//! `benchmark/README.md`).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca::DisaggregationConfig;
use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig, SimReport};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};

/// A dense half hour on a small row, served by split prefill/decode
/// pools.
fn run_split_row() -> SimReport {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let config = TraceConfig::paper_mix(5, SimTime::from_mins(30.0)).scaled(0.12);
    let sim_config = SimConfig {
        engine: DisaggregationConfig::default().batched_engine(true),
        ..SimConfig::default()
    };
    ClusterSim::new(row, sim_config, NoopController)
        .run(ArrivalGenerator::new(&config), SimTime::from_mins(30.0))
}

fn split_pools(c: &mut Criterion) {
    let start = Instant::now();
    let report = run_split_row();
    let wall = start.elapsed().as_secs_f64();
    let simulated_s = report.duration.as_secs();
    println!(
        "throughput {:<24} {:>12.0} simulated-seconds/sec  {:>12.0} events/sec  \
         ({} events over {simulated_s:.0} simulated s in {wall:.3} s)",
        "serve_split_pools",
        simulated_s / wall,
        report.events_processed as f64 / wall,
        report.events_processed,
    );
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function("split_pools_row_30min", |b| {
        b.iter(|| black_box(run_split_row().completed))
    });
    group.finish();
}

criterion_group!(serve_throughput, split_pools);
criterion_main!(serve_throughput);
