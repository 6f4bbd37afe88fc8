//! Microbenchmarks of the substrates: cache probing, bus arbitration,
//! trace generation and prefetch insertion.

use charlie::bus::{Bus, BusConfig, Priority};
use charlie::cache::protocol::BusOp;
use charlie::cache::{CacheArray, CacheGeometry, FilterCache, LineState};
use charlie::prefetch::{Strategy, TraceMarks};
use charlie::trace::{Addr, ProcId};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_cache_probe(c: &mut Criterion) {
    let geom = CacheGeometry::paper_default();
    let mut cache = CacheArray::new(geom);
    for i in 0..1024u64 {
        cache.fill(Addr::new(i * 32).line(32), LineState::Shared, false);
    }
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("probe_1024_resident", |b| {
        b.iter(|| {
            for i in 0..1024u64 {
                black_box(cache.probe(Addr::new(i * 32 + 4)));
            }
        })
    });
    group.bench_function("fill_evict_1024", |b| {
        let mut cache = CacheArray::new(geom);
        let mut tag = 0u64;
        b.iter(|| {
            for i in 0..1024u64 {
                cache.fill(Addr::new(tag * 32768 + i * 32).line(32), LineState::Shared, false);
            }
            tag = tag.wrapping_add(1);
        })
    });
    group.finish();
}

fn bench_filter_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("oracle_stream_4096", |b| {
        b.iter(|| {
            let mut f = FilterCache::new(CacheGeometry::paper_default());
            for i in 0..4096u64 {
                black_box(f.access(Addr::new(i * 4)));
            }
        })
    });
    group.finish();
}

fn bench_bus_arbitration(c: &mut Criterion) {
    let mut group = c.benchmark_group("bus");
    group.throughput(Throughput::Elements(256));
    group.bench_function("submit_grant_256", |b| {
        b.iter(|| {
            let mut bus = Bus::new(BusConfig::paper(8), 8);
            for i in 0..256u64 {
                bus.submit(
                    i,
                    ProcId((i % 8) as u8),
                    Addr::new(i * 32).line(32),
                    if i % 3 == 0 { BusOp::WriteBack } else { BusOp::Read },
                    if i % 2 == 0 { Priority::Demand } else { Priority::Prefetch },
                );
            }
            let mut t = 0;
            loop {
                match bus.try_grant(t) {
                    charlie::bus::GrantOutcome::Granted { completes_at, .. } => t = completes_at,
                    charlie::bus::GrantOutcome::BusyUntil(next)
                    | charlie::bus::GrantOutcome::WaitingUntil(next) => t = next,
                    charlie::bus::GrantOutcome::Idle => break,
                }
            }
            black_box(bus.stats().total_ops())
        })
    });
    group.finish();
}

fn bench_generation_and_insertion(c: &mut Criterion) {
    let cfg = WorkloadConfig { refs_per_proc: 5_000, ..WorkloadConfig::default() };
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements((cfg.refs_per_proc * cfg.procs) as u64));
    group.bench_function("generate_mp3d", |b| {
        b.iter(|| black_box(generate(Workload::Mp3d, &cfg)))
    });
    let trace = generate(Workload::Mp3d, &cfg);
    group.bench_function("plan_pws_mp3d", |b| {
        b.iter(|| {
            let marks = TraceMarks::new(&trace, CacheGeometry::paper_default());
            black_box(marks.plan(&trace, Strategy::Pws))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_probe,
    bench_filter_cache,
    bench_bus_arbitration,
    bench_generation_and_insertion
);
criterion_main!(benches);
