//! Simulator throughput: how fast the machine replays each workload, with
//! and without prefetching. (These benchmark the *reproduction's* code; the
//! paper's exhibits are regenerated by the `experiments` bench and the
//! binaries.)

use charlie::cache::CacheGeometry;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_workload_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_np");
    for w in Workload::ALL {
        let cfg = WorkloadConfig { refs_per_proc: 10_000, ..WorkloadConfig::default() };
        let trace = generate(w, &cfg);
        let refs = trace.total_accesses() as u64;
        let sim_cfg = SimConfig::paper(cfg.procs, 8);
        group.throughput(Throughput::Elements(refs));
        group.bench_with_input(BenchmarkId::from_parameter(w.name()), &trace, |b, t| {
            b.iter(|| simulate(&sim_cfg, t).expect("simulates"))
        });
    }
    group.finish();
}

fn bench_prefetched_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_pws");
    for w in [Workload::Mp3d, Workload::Pverify] {
        let cfg = WorkloadConfig { refs_per_proc: 10_000, ..WorkloadConfig::default() };
        let raw = generate(w, &cfg);
        let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Strategy::Pws);
        let trace = PreparedTrace::new(&raw, &plan);
        let sim_cfg = SimConfig::paper(cfg.procs, 8);
        group.throughput(Throughput::Elements(raw.total_accesses() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(w.name()), &trace, |b, t| {
            b.iter(|| simulate(&sim_cfg, *t).expect("simulates"))
        });
    }
    group.finish();
}

fn bench_bus_pressure(c: &mut Criterion) {
    // Same workload across the paper's latency sweep: how contention costs
    // simulation time (more queueing events).
    let mut group = c.benchmark_group("simulate_latency_sweep");
    let cfg = WorkloadConfig { refs_per_proc: 8_000, ..WorkloadConfig::default() };
    let trace = generate(Workload::Mp3d, &cfg);
    for lat in [4u64, 16, 32] {
        let sim_cfg = SimConfig::paper(cfg.procs, lat);
        group.bench_with_input(BenchmarkId::from_parameter(lat), &trace, |b, t| {
            b.iter(|| simulate(&sim_cfg, t).expect("simulates"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workload_replay, bench_prefetched_replay, bench_bus_pressure);
criterion_main!(benches);
