//! Property tests over the prefetch-insertion pipeline.
//!
//! Besides the pipeline's own invariants, this suite pins the planner to
//! two references: the materialized [`apply`] output must equal a
//! per-event reference model of the original placement pass (kept here,
//! test-only), and the stream the simulator reads — a raw trace with a
//! plan merged in at its cursor — must equal that output event for event.
//! Debug builds run fewer cases of the costly reference properties than of
//! the invariants; release builds (`ci.sh`) run 512 of each.

use charlie::cache::{CacheGeometry, FilterCache};
use charlie::prefetch::{
    apply, apply_with_distance, HwPrefetchConfig, PreparedTrace, Strategy, TraceMarks,
};
use charlie::sim::{simulate, SimConfig};
use charlie::trace::{Addr, ProcTrace, SharingMap, Trace, TraceBuilder, TraceEvent};
use charlie::workloads::generate;
use charlie::{
    event_budget, run_sampled_on_prepared, Experiment, Lab, Protocol, RunConfig, RunSummary,
    SamplingConfig, Workload, WorkloadConfig,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Case count of the pipeline invariants: cheap, so 96 even in debug builds.
const CASES: u32 = if cfg!(debug_assertions) { 96 } else { 512 };

/// Case count of the reference and simulation properties, which rerun the
/// whole pipeline or the machine per case: fewer in debug builds.
const REFERENCE_CASES: u32 = if cfg!(debug_assertions) { 48 } else { 512 };

fn arb_raw_trace() -> impl proptest::strategy::Strategy<Value = Trace> {
    let per_proc = proptest::collection::vec(
        // (work, write, line, word, sync-point)
        (1u32..50, any::<bool>(), 0u64..512, 0u64..8, any::<bool>()),
        5..80,
    );
    proptest::collection::vec(per_proc, 2..=2).prop_map(|streams| {
        let mut b = TraceBuilder::new(streams.len());
        for (p, stream) in streams.iter().enumerate() {
            let mut pb = b.proc(p);
            let mut next_lock_free = true;
            for &(work, write, line, word, sync) in stream {
                pb.work(work);
                if sync {
                    if next_lock_free {
                        pb.lock(3);
                    } else {
                        pb.unlock(3);
                    }
                    next_lock_free = !next_lock_free;
                }
                let addr = Addr::new(0x4000 + line * 32 + word * 4);
                if write {
                    pb.write(addr);
                } else {
                    pb.read(addr);
                }
            }
            if !next_lock_free {
                pb.unlock(3);
            }
        }
        b.build()
    })
}

fn demand_sequence(t: &Trace, p: usize) -> Vec<(u64, bool)> {
    t.proc(p).accesses().map(|a| (a.addr.raw(), a.kind.is_write())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Inserting prefetches never reorders, adds or drops demand accesses.
    #[test]
    fn demand_stream_preserved(trace in arb_raw_trace(),
                               strategy in prop_oneof![
                                   Just(Strategy::Pref), Just(Strategy::Excl),
                                   Just(Strategy::Lpd), Just(Strategy::Pws)])
    {
        let out = apply(strategy, &trace, CacheGeometry::paper_default());
        for p in 0..trace.num_procs() {
            prop_assert_eq!(demand_sequence(&trace, p), demand_sequence(&out, p));
        }
        prop_assert!(out.validate().is_ok());
    }

    /// Every prefetch targets a line some later demand access touches — the
    /// oracle "never prefetches data that is not used".
    #[test]
    fn prefetches_are_always_used_later(trace in arb_raw_trace()) {
        let out = apply(Strategy::Pref, &trace, CacheGeometry::paper_default());
        for p in 0..out.num_procs() {
            let ev = out.proc(p).events();
            for (i, e) in ev.iter().enumerate() {
                if let TraceEvent::Prefetch { addr, .. } = e {
                    let line = addr.line(32);
                    let used = ev[i + 1..].iter().any(|later| {
                        later.as_access().is_some_and(|a| a.addr.line(32) == line)
                    });
                    prop_assert!(used, "P{p}: prefetch of {addr} never used");
                }
            }
        }
    }

    /// The number of prefetches PREF inserts equals the stream's
    /// uniprocessor miss count (the oracle is exact).
    #[test]
    fn pref_count_equals_filter_misses(trace in arb_raw_trace()) {
        let geometry = CacheGeometry::paper_default();
        let out = apply(Strategy::Pref, &trace, geometry);
        for p in 0..trace.num_procs() {
            let mut filter = charlie::cache::FilterCache::new(geometry);
            let misses = trace
                .proc(p)
                .accesses()
                .filter(|a| !filter.access(a.addr))
                .count();
            prop_assert_eq!(out.proc(p).num_prefetches(), misses);
        }
    }

    /// EXCL only flips prefetch modes; counts and placement stay identical.
    #[test]
    fn excl_differs_from_pref_only_in_mode(trace in arb_raw_trace()) {
        let geometry = CacheGeometry::paper_default();
        let pref = apply(Strategy::Pref, &trace, geometry);
        let excl = apply(Strategy::Excl, &trace, geometry);
        for p in 0..trace.num_procs() {
            let a = pref.proc(p).events();
            let b = excl.proc(p).events();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                match (x, y) {
                    (
                        TraceEvent::Prefetch { addr: ax, .. },
                        TraceEvent::Prefetch { addr: ay, .. },
                    ) => prop_assert_eq!(ax, ay),
                    _ => prop_assert_eq!(x, y),
                }
            }
        }
    }

    /// PWS is a superset of PREF on every processor.
    #[test]
    fn pws_superset_of_pref(trace in arb_raw_trace()) {
        let geometry = CacheGeometry::paper_default();
        let pref = apply(Strategy::Pref, &trace, geometry);
        let pws = apply(Strategy::Pws, &trace, geometry);
        for p in 0..trace.num_procs() {
            prop_assert!(pws.proc(p).num_prefetches() >= pref.proc(p).num_prefetches());
        }
    }

    /// No prefetch is hoisted across a synchronization event.
    #[test]
    fn prefetches_respect_sync_boundaries(trace in arb_raw_trace()) {
        let out = apply(Strategy::Lpd, &trace, CacheGeometry::paper_default());
        for p in 0..out.num_procs() {
            let ev = out.proc(p).events();
            // For every prefetch, the matching demand access (first later
            // access to the line) must be reachable without an intervening
            // sync *after* which the access sits... i.e. no sync strictly
            // between prefetch and its target access's original position
            // earlier than the prefetch insertion point. Equivalent check:
            // between the prefetch and the first later same-line access,
            // there is no sync event.
            for (i, e) in ev.iter().enumerate() {
                if let TraceEvent::Prefetch { addr, .. } = e {
                    let line = addr.line(32);
                    for later in &ev[i + 1..] {
                        if later.as_access().is_some_and(|a| a.addr.line(32) == line) {
                            break;
                        }
                        prop_assert!(
                            !later.is_sync(),
                            "P{p}: sync between prefetch of {addr} and its use"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference model: the original per-event pipeline. Every event gets a mark;
// the oracle, PWS filter and RMW lookahead each run over all events, and
// placement binary-searches a prefix-sum array per marked access.

/// Per-event prefetch decision of the reference model.
#[derive(Copy, Clone, Default)]
struct Mark {
    prefetch: bool,
    exclusive: bool,
}

const RMW_WINDOW: u64 = charlie::prefetch::rmw::RMW_WINDOW_CYCLES;

fn reference_marks(strategy: Strategy, trace: &Trace, geometry: CacheGeometry) -> Vec<Vec<Mark>> {
    let sharing = SharingMap::analyze(trace, geometry.block_bytes());
    let mut out = Vec::new();
    for (_, stream) in trace.iter() {
        let events = stream.events();
        let mut oracle = FilterCache::new(geometry);
        let mut pws = FilterCache::pws_default();
        let mut marks: Vec<Mark> = events
            .iter()
            .map(|ev| match ev {
                TraceEvent::Access(a) => {
                    let miss = !oracle.access(a.addr);
                    let extra = strategy.prefetches_write_shared()
                        && sharing.is_write_shared(a.addr.line(geometry.block_bytes()))
                        && !pws.access(a.addr);
                    Mark {
                        prefetch: miss || extra,
                        exclusive: strategy.exclusive_writes() && a.kind.is_write(),
                    }
                }
                _ => Mark::default(),
            })
            .collect();
        if strategy.exclusive_rmw() {
            for i in 0..events.len() {
                let Some(access) = events[i].as_access() else { continue };
                if !marks[i].prefetch || access.kind.is_write() {
                    continue;
                }
                let line = geometry.line(access.addr);
                let mut budget = RMW_WINDOW;
                for later in &events[i + 1..] {
                    if later.is_sync() {
                        break;
                    }
                    if later
                        .as_access()
                        .is_some_and(|a| a.kind.is_write() && geometry.line(a.addr) == line)
                    {
                        marks[i].exclusive = true;
                        break;
                    }
                    let cost = later.estimated_cycles();
                    if cost >= budget {
                        break;
                    }
                    budget -= cost;
                }
            }
        }
        out.push(marks);
    }
    out
}

/// The original placement: for each marked access, the largest index whose
/// prefix of estimated cycles leaves `distance` cycles, by binary search,
/// clamped to the last synchronization boundary.
fn reference_insert(stream: &ProcTrace, marks: &[Mark], distance: u64) -> ProcTrace {
    let events = stream.events();
    let mut prefix = vec![0u64];
    for ev in events {
        prefix.push(prefix.last().unwrap() + ev.estimated_cycles());
    }
    let mut insertions: Vec<(usize, TraceEvent)> = Vec::new();
    let mut boundary = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if let (TraceEvent::Access(a), true) = (ev, marks[i].prefetch) {
            let j = if prefix[i] <= distance {
                0
            } else {
                let target = prefix[i] - distance;
                prefix[..=i].partition_point(|&c| c <= target) - 1
            };
            insertions.push((
                j.max(boundary),
                TraceEvent::Prefetch { addr: a.addr, exclusive: marks[i].exclusive },
            ));
        }
        if ev.is_sync() {
            boundary = i + 1;
        }
    }
    let mut out = Vec::with_capacity(events.len() + insertions.len());
    let mut ins = insertions.into_iter().peekable();
    for (i, ev) in events.iter().enumerate() {
        while ins.peek().is_some_and(|&(j, _)| j == i) {
            out.push(ins.next().unwrap().1);
        }
        out.push(*ev);
    }
    out.extend(ins.map(|(_, e)| e));
    ProcTrace::from_events(out)
}

fn reference_apply(
    strategy: Strategy,
    trace: &Trace,
    geometry: CacheGeometry,
    distance: u64,
) -> Trace {
    if strategy == Strategy::NoPrefetch {
        return trace.clone();
    }
    let marks = reference_marks(strategy, trace, geometry);
    Trace::from_procs(
        trace.iter().zip(&marks).map(|((_, s), m)| reference_insert(s, m, distance)).collect(),
    )
}

/// One operation of a generated processor stream.
#[derive(Copy, Clone, Debug)]
enum Op {
    Work(u32),
    Access { write: bool, line: u64, word: u64 },
    ToggleLock,
    Barrier,
}

fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
    // 2048 lines = 64 KB: twice the cache, so conflicts occur.
    (0u8..11, 0u32..300, any::<bool>(), 0u64..2048, 0u64..8).prop_map(
        |(kind, n, write, line, word)| match kind {
            0..=2 => Op::Work(n),
            3..=8 => Op::Access { write, line, word },
            9 => Op::ToggleLock,
            _ => Op::Barrier,
        },
    )
}

/// Traces with the edge cases the planner must handle: empty streams,
/// accesses at index 0, zero-cost work, locks, and barriers (every
/// processor keeps the same number; a held lock is released first, so the
/// traces also simulate without deadlock).
fn arb_edge_trace() -> impl proptest::strategy::Strategy<Value = Trace> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 0..60), 1..=3).prop_map(
        |streams| {
            let barriers = streams
                .iter()
                .map(|ops| ops.iter().filter(|op| matches!(op, Op::Barrier)).count())
                .min()
                .unwrap_or(0);
            let mut b = TraceBuilder::new(streams.len());
            for (p, ops) in streams.iter().enumerate() {
                let mut pb = b.proc(p);
                let (mut held, mut next_barrier) = (false, 0u32);
                for &op in ops {
                    match op {
                        Op::Work(n) => {
                            pb.work(n);
                        }
                        Op::Access { write, line, word } => {
                            let addr = Addr::new(0x4000 + line * 32 + word * 4);
                            if write {
                                pb.write(addr);
                            } else {
                                pb.read(addr);
                            }
                        }
                        Op::ToggleLock => {
                            if held {
                                pb.unlock(3);
                            } else {
                                pb.lock(3);
                            }
                            held = !held;
                        }
                        Op::Barrier if (next_barrier as usize) < barriers => {
                            if held {
                                pb.unlock(3);
                                held = false;
                            }
                            pb.barrier(next_barrier);
                            next_barrier += 1;
                        }
                        Op::Barrier => {}
                    }
                }
                if held {
                    pb.unlock(3);
                }
            }
            let trace = b.build();
            trace.validate().expect("generated traces are valid");
            trace
        },
    )
}

fn arb_any_strategy() -> impl proptest::strategy::Strategy<Value = Strategy> {
    (0..Strategy::EXTENDED.len()).prop_map(|i| Strategy::EXTENDED[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(REFERENCE_CASES))]

    /// The planner reproduces the original per-event placement exactly,
    /// for every strategy and any distance.
    #[test]
    fn apply_matches_reference_placement(
        trace in arb_edge_trace(),
        distance in 0u64..=1000,
    ) {
        let geometry = CacheGeometry::paper_default();
        for strategy in Strategy::EXTENDED {
            let planned = apply_with_distance(strategy, &trace, geometry, distance);
            let reference = reference_apply(strategy, &trace, geometry, distance);
            prop_assert_eq!(planned, reference, "{} at distance {}", strategy, distance);
        }
    }

    /// What the simulator reads — the raw stream with the plan merged in at
    /// its cursor — is `apply`'s materialized trace event for event, and
    /// one set of marks serves every strategy.
    #[test]
    fn streamed_input_equals_materialized_trace(
        trace in arb_edge_trace(),
        distance in 0u64..=1000,
    ) {
        let geometry = CacheGeometry::paper_default();
        let marks = TraceMarks::new(&trace, geometry);
        for strategy in Strategy::EXTENDED {
            let plan = marks.plan_with_distance(&trace, strategy, distance);
            let prepared = PreparedTrace::new(&trace, &plan);
            let materialized = apply_with_distance(strategy, &trace, geometry, distance);
            prop_assert_eq!(prepared.total_prefetches(), materialized.total_prefetches());
            for p in 0..trace.num_procs() {
                let streamed: Vec<TraceEvent> = prepared.proc(p).iter().collect();
                prop_assert_eq!(
                    &streamed[..],
                    materialized.proc(p).events(),
                    "{} P{} at distance {}", strategy, p, distance
                );
            }
        }
    }

    /// The machine consumes the streamed plan exactly as it consumes the
    /// materialized trace: the reports are identical.
    #[test]
    fn simulating_the_stream_equals_simulating_the_copy(
        trace in arb_edge_trace(),
        strategy in arb_any_strategy(),
    ) {
        let geometry = CacheGeometry::paper_default();
        let plan = TraceMarks::new(&trace, geometry).plan(&trace, strategy);
        let cfg = SimConfig { num_procs: trace.num_procs(), ..SimConfig::default() };
        let streamed = simulate(&cfg, PreparedTrace::new(&trace, &plan)).unwrap();
        let copied = simulate(&cfg, &apply(strategy, &trace, geometry)).unwrap();
        prop_assert_eq!(streamed, copied);
    }
}

/// The Lab's streamed path and the materialized path agree on a sampled
/// MOESI run with a stride hardware prefetcher — the benchmark's sampled
/// configuration — summary for summary.
#[test]
fn lab_sampled_run_matches_run_on_applied_trace() {
    let cfg = RunConfig {
        procs: 4,
        refs_per_proc: 6_000,
        seed: 17,
        wall_limit_ms: 0,
        protocol: Protocol::Moesi,
        hw_prefetch: HwPrefetchConfig::stride(2, 4),
        sampling: Some(SamplingConfig {
            window_accesses: 256,
            period: 4,
            ..SamplingConfig::smarts()
        }),
        ..RunConfig::default()
    };
    let scfg = cfg.sampling.unwrap();
    let mut lab = Lab::new(cfg);
    for strategy in [Strategy::NoPrefetch, Strategy::Pws, Strategy::ExclRmw] {
        let exp = Experiment::paper(Workload::Water, strategy, 8);
        let raw = generate(
            exp.workload,
            &WorkloadConfig {
                procs: cfg.procs,
                refs_per_proc: cfg.refs_per_proc,
                seed: cfg.seed,
                layout: exp.layout,
            },
        );
        let applied = apply(strategy, &raw, cfg.geometry);
        let sim_cfg = SimConfig {
            geometry: cfg.geometry,
            max_events: event_budget((cfg.procs * cfg.refs_per_proc) as u64),
            wall_limit_ms: cfg.wall_limit_ms,
            hw_prefetch: cfg.hw_prefetch,
            protocol: cfg.protocol,
            ..SimConfig::paper(cfg.procs, exp.transfer_cycles)
        };
        let (report, sampled) = run_sampled_on_prepared(&sim_cfg, &applied, &scfg).unwrap();
        let expected = RunSummary {
            experiment: exp,
            report,
            prefetches_inserted: applied.total_prefetches() as u64,
            timeline: None,
            sampled: Some(sampled),
        };
        assert_eq!(lab.run(exp), &expected, "{exp}");
    }
}
