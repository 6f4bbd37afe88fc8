//! Hot-path microbenchmarks: the three inner-loop costs the perf work in
//! DESIGN.md §11 targets — set probing (LRU bookkeeping), snoop application
//! under sharing (the broadcast-vs-filtered scan), and raw event dispatch.
//!
//! These complement the `BENCH_charlie.json` macro slice: the macro bench
//! answers "how fast is a grid cell", these answer "which inner loop moved".

use charlie::cache::{CacheArray, CacheGeometry, LineState};
use charlie::sim::{simulate_counted, SimConfig};
use charlie::trace::{Addr, TraceBuilder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Probe + LRU-touch over a warm 4-way cache: exercises the one-pass set
/// search and the replacement-order update that `touch` performs on every hit.
fn bench_probe_touch(c: &mut Criterion) {
    let geom = CacheGeometry::new(32 * 1024, 32, 4).expect("4-way geometry");
    let mut cache = CacheArray::new(geom);
    for i in 0..1024u64 {
        cache.fill(Addr::new(i * 32).line(32), LineState::Shared, false);
    }
    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("probe_touch_4way_1024", |b| {
        b.iter(|| {
            for i in 0..1024u64 {
                let line = Addr::new(i * 32).line(32);
                if let charlie::cache::Probe::Hit { way, .. } = cache.probe_line(line) {
                    black_box(cache.frame_mut(line, way).state());
                }
            }
        })
    });
    group.finish();
}

/// A write-invalidation ping-pong across 8 processors: nearly every bus
/// grant snoops all caches, so this isolates `apply_snoops` cost.
fn bench_snoop_heavy(c: &mut Criterion) {
    let mut b = TraceBuilder::new(8);
    for p in 0..8usize {
        let mut pb = b.proc(p);
        for i in 0..400u64 {
            // Everyone hammers the same 8 shared lines: maximal snooping.
            pb.write(Addr::new((i % 8) * 32)).read(Addr::new(((i + 3) % 8) * 32)).work(3);
        }
    }
    let trace = b.build();
    let cfg = SimConfig::paper(8, 8);
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(5);
    group.bench_function("snoop_heavy_8p", |b| {
        b.iter(|| black_box(simulate_counted(&cfg, &trace).expect("healthy run")))
    });
    group.finish();
}

/// Private streaming reads on 8 processors: no sharing, so per-event
/// scheduler overhead (heap, transaction bookkeeping) dominates.
fn bench_event_dispatch(c: &mut Criterion) {
    let mut b = TraceBuilder::new(8);
    for p in 0..8usize {
        let mut pb = b.proc(p);
        for i in 0..2_000u64 {
            pb.read(Addr::new(0x10_0000 * (p as u64 + 1) + i * 32)).work(2);
        }
    }
    let trace = b.build();
    let cfg = SimConfig::paper(8, 8);
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(5);
    group.bench_function("event_dispatch_8p_private", |b| {
        b.iter(|| black_box(simulate_counted(&cfg, &trace).expect("healthy run")))
    });
    group.finish();
}

criterion_group!(hotpath, bench_probe_touch, bench_snoop_heavy, bench_event_dispatch);
criterion_main!(hotpath);
