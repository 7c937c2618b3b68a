//! Criterion benches of the Broadcast_Single_Bit primitive: per-instance
//! and batched throughput across network sizes, and the committee-scale
//! batches (n = 64, t = 21) the replicated log's n = 64 runs spend their
//! time in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvbc_bsb::{run_bsb_batch, BsbConfig, BsbInstance, NoopBsbHooks};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::{run_simulation, NodeCtx, NodeLogic, SimConfig};
use std::hint::black_box;

fn run_batch(n: usize, t: usize, instances: usize) -> Vec<Vec<bool>> {
    let logics: Vec<NodeLogic<Vec<bool>>> = (0..n)
        .map(|id| {
            Box::new(move |ctx: &mut NodeCtx| {
                let cfg = BsbConfig::new(t, "bench", vec![true; ctx.n()]);
                let insts: Vec<BsbInstance> = (0..instances)
                    .map(|i| BsbInstance {
                        source: i % ctx.n(),
                        input: (id == i % ctx.n()).then_some(i % 3 == 0),
                    })
                    .collect();
                run_bsb_batch(ctx, &cfg, &insts, &mut NoopBsbHooks)
            }) as NodeLogic<Vec<bool>>
        })
        .collect();
    run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs
}

fn bsb_single_instance(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsb_single_instance");
    group.sample_size(10);
    for (n, t) in [(4usize, 1usize), (7, 2), (13, 4)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_t{t}")),
            &(n, t),
            |b, &(n, t)| b.iter(|| black_box(run_batch(n, t, 1))),
        );
    }
    group.finish();
}

fn bsb_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsb_batched");
    group.sample_size(10);
    for instances in [16usize, 256, 4096] {
        group.throughput(Throughput::Elements(instances as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(instances),
            &instances,
            |b, &instances| b.iter(|| black_box(run_batch(4, 1, instances))),
        );
    }
    group.finish();
}

/// One whole batch (`1 + 3(t+1)` = 67 all-to-all rounds) at n = 64,
/// t = 21, in the two shapes a committee-scale generation runs: 63
/// instances (one Detected flag per peer) and 4096 (a diagnosis batch).
fn bsb_n64_t21(c: &mut Criterion) {
    let mut group = c.benchmark_group("n64_t21");
    group.sample_size(10);
    for instances in [63usize, 4096] {
        group.throughput(Throughput::Elements(instances as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(instances),
            &instances,
            |b, &instances| b.iter(|| black_box(run_batch(64, 21, instances))),
        );
    }
    group.finish();
}

criterion_group!(benches, bsb_single_instance, bsb_batched, bsb_n64_t21);
criterion_main!(benches);
