//! Criterion: the executors on the same schedule — virtual-time
//! simulation throughput (the dataset-generation hot path) and the
//! sequential byte interpreter.

use criterion::{criterion_group, criterion_main, Criterion};
use pml_collectives::exec::{interp, sim};
use pml_collectives::{verify, Algorithm, AlltoallAlgo};
use pml_simnet::{CostModel, JobLayout};
use std::hint::black_box;

fn frontera_cost(ppn: u32) -> CostModel {
    let node = pml_clusters::by_name("Frontera").unwrap().spec.node.clone();
    CostModel::new(node, ppn)
}

fn bench_executors(c: &mut Criterion) {
    let p = 32u32;
    let block = 1024usize;
    let algo = Algorithm::Alltoall(AlltoallAlgo::Pairwise);
    let schedule = algo.schedule(p, block).unwrap();
    let unit = algo.schedule(p, 1).unwrap();
    let layout = JobLayout::new(4, 8);
    let cost = frontera_cost(8);
    let inputs = verify::alltoall_inputs(p, block);

    let mut g = c.benchmark_group("executors_pairwise_p32_1k");
    g.bench_function("sim_scaled", |b| {
        b.iter(|| black_box(sim::run_scaled(&unit, layout, &cost, block)))
    });
    g.bench_function("sim_direct", |b| {
        b.iter(|| black_box(sim::run(&schedule, layout, &cost)))
    });
    g.bench_function("interp", |b| {
        b.iter(|| black_box(interp::run(&schedule, &inputs)))
    });
    g.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
