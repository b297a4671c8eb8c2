//! `sim_throughput`: wall-clock scaling of the parallel sweep runner.
//!
//! The offline criterion stand-in has no `Throughput` API, so this
//! bench prints its own rate line next to the timing output: a
//! multi-policy `OversubscriptionStudy` sweep at `jobs=1` vs `jobs=4`,
//! with the speedup factor. End-to-end engine speed is measured by
//! `polca-benchmark` (see `benchmark/README.md`).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca::{OversubscriptionStudy, PolicyKind};

fn sweep_scaling(c: &mut Criterion) {
    // A multi-policy study: all four Figure 17 policies at two
    // oversubscription levels. The first sweep warms the per-level
    // trace cache and the un-capped reference so both timed runs
    // measure simulation work, not synthesis.
    let study = OversubscriptionStudy::quick_demo(7);
    let cells: Vec<(PolicyKind, f64, f64)> = PolicyKind::all()
        .iter()
        .flat_map(|&kind| [(kind, 0.20, 1.0), (kind, 0.30, 1.0)])
        .collect();
    black_box(study.sweep(&cells, 1));
    let start = Instant::now();
    black_box(study.sweep(&cells, 1));
    let seq = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(study.sweep(&cells, 4));
    let par = start.elapsed().as_secs_f64();
    println!(
        "throughput sweep ({} cells)      jobs=1 {seq:.3} s  jobs=4 {par:.3} s  speedup {:.2}x",
        cells.len(),
        seq / par,
    );
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("sweep_8cells_jobs4", |b| {
        b.iter(|| black_box(study.sweep(&cells, 4).len()))
    });
    group.finish();
}

criterion_group!(sim_throughput, sweep_scaling);
criterion_main!(sim_throughput);
