//! Synchronization edge cases: degenerate barriers, saturated lock
//! handoff, and measurement windows whose boundary lands amid sync events.
//!
//! These guard the corners the main suite's "realistic" traces rarely hit:
//! a single-participant barrier must be a no-op rather than a deadlock,
//! a lock contended by every processor at once must serialize (not drop or
//! duplicate) the critical sections, and warm-up accounting must stay
//! consistent when the boundary falls on synthesized synchronization
//! traffic instead of a trace access.

use charlie_sim::{simulate, SimConfig};
use charlie_trace::{Addr, TraceBuilder};

fn cfg(n: usize) -> SimConfig {
    SimConfig { num_procs: n, ..SimConfig::default() }
}

/// A barrier whose only participant is the whole machine: arrival is also
/// the last arrival, so it must complete immediately instead of parking
/// the processor forever.
#[test]
fn single_participant_barrier_completes() {
    let mut b = TraceBuilder::new(1);
    b.proc(0).work(5).barrier(0).read(Addr::new(0x100)).barrier(1).work(5);
    let report = simulate(&cfg(1), &b.build()).expect("no deadlock");
    assert!(report.cycles > 0);
    // The read after the first barrier retired: the machine got past it.
    assert!(report.reads >= 1);
    assert_eq!(report.per_proc.len(), 1);
    assert!(report.per_proc[0].finish_time > 0);
}

/// Back-to-back barriers with a single participant: each episode must
/// open and close independently (a stuck sense-reversal would wedge the
/// second one).
#[test]
fn repeated_single_participant_barriers_complete() {
    let mut b = TraceBuilder::new(1);
    {
        let mut p = b.proc(0);
        for episode in 0..10u32 {
            p.work(1).barrier(episode);
        }
    }
    let report = simulate(&cfg(1), &b.build()).expect("all episodes complete");
    assert!(report.cycles > 0);
}

/// Maximum contention: every processor pounds the same lock for several
/// rounds. The run must complete with every hand-off delivered, and the
/// critical sections must be serialized — the run can never be shorter
/// than the sum of all critical-section bodies.
#[test]
fn lock_handoff_under_max_contention() {
    const PROCS: usize = 8;
    const ROUNDS: u64 = 6;
    const CRIT_WORK: u64 = 40;
    let mut b = TraceBuilder::new(PROCS);
    for p in 0..PROCS {
        let mut pb = b.proc(p);
        for _ in 0..ROUNDS {
            pb.lock(0)
                .read(Addr::new(0x7000)) // shared counter: coherence traffic
                .work(CRIT_WORK as u32)
                .write(Addr::new(0x7000))
                .unlock(0);
        }
    }
    let report = simulate(&cfg(PROCS), &b.build()).expect("no lost hand-off");
    let serial_floor = PROCS as u64 * ROUNDS * CRIT_WORK;
    assert!(
        report.cycles >= serial_floor,
        "critical sections must serialize: {} cycles < {serial_floor} floor",
        report.cycles
    );
    // Every processor performed all its rounds (the synthesized lock
    // traffic comes on top of the traced accesses).
    assert!(report.writes >= PROCS as u64 * ROUNDS);
    for proc in &report.per_proc {
        assert!(proc.finish_time > 0);
        assert!(proc.stall_cycles > 0, "waiters must be charged stall time");
    }
}

/// The FIFO hand-off delivers the lock fairly: with two processors
/// alternating, neither can starve, and the interleaving stays legal even
/// when acquisition order differs from trace order.
#[test]
fn two_proc_lock_alternation_completes() {
    let mut b = TraceBuilder::new(2);
    for p in 0..2 {
        let mut pb = b.proc(p);
        for i in 0..20u64 {
            pb.lock(3).write(Addr::new(0x5000 + (i % 4) * 32)).unlock(3).work(1);
        }
    }
    let report = simulate(&cfg(2), &b.build()).expect("alternation completes");
    assert_eq!(report.per_proc.len(), 2);
    assert!(report.writes >= 40);
}

/// Warm-up boundary landing in the middle of synchronization traffic:
/// every processor's counted accesses include the synthesized lock/barrier
/// operations, so a boundary there must neither double-count nor lose
/// cycles — execution time matches the unwindowed run exactly and the
/// windowed counters stay internally consistent.
#[test]
fn measurement_window_boundary_on_sync_events() {
    const PROCS: usize = 4;
    let build = || {
        let mut b = TraceBuilder::new(PROCS);
        for p in 0..PROCS {
            let mut pb = b.proc(p);
            // Phase 1: a few private accesses, then a barrier storm with a
            // contended lock inside — dense synthesized sync traffic.
            for i in 0..8u64 {
                pb.read(Addr::new(0x10_000 * (p as u64 + 1) + i * 32));
            }
            pb.barrier(0).lock(1).write(Addr::new(0x9000)).unlock(1).barrier(1);
            // Phase 2: measured steady-state work.
            for i in 0..16u64 {
                pb.work(2).read(Addr::new(0x10_000 * (p as u64 + 1) + i * 32));
            }
        }
        b.build()
    };
    let trace = build();
    let cold = simulate(&cfg(PROCS), &trace).expect("unwindowed run");

    // Sweep the boundary across the sync region (8 trace accesses per proc
    // precede it; the lock/barrier machinery synthesizes more), so several
    // of these land exactly on synthesized sync accesses.
    for warmup in [6u64, 8, 9, 10, 11, 12] {
        let mut wcfg = cfg(PROCS);
        wcfg.warmup_accesses = warmup;
        let warm = simulate(&wcfg, &trace).expect("windowed run");
        assert_eq!(
            warm.cycles, cold.cycles,
            "warmup {warmup}: execution time must cover the whole run"
        );
        assert!(warm.measured_from > 0, "warmup {warmup}: window opened");
        assert!(
            warm.demand_accesses() < cold.demand_accesses(),
            "warmup {warmup}: pre-boundary accesses are excluded"
        );
        assert!(warm.demand_accesses() > 0, "warmup {warmup}: window not empty");
        for (i, proc) in warm.per_proc.iter().enumerate() {
            assert!(
                proc.finish_time >= proc.measured_from,
                "warmup {warmup}: proc {i} window inverted"
            );
            // A stall spanning the boundary is deliberately charged to the
            // measured window (see `open_stats_window`), so the window can
            // be over-filled by at most that one smeared wait — never by
            // more than the processor's whole runtime.
            assert!(
                proc.busy_cycles + proc.stall_cycles <= proc.finish_time,
                "warmup {warmup}: proc {i} double-counted busy/stall cycles"
            );
        }
    }
}

/// Processors that all write one line at once, with no other bus traffic,
/// must each retire their write. A fill completing in the same cycle as the
/// next writer's grant loses the line to that grant's snoop before its own
/// processor wakes. A writer's re-request waits out the uncontended latency
/// (100 − transfer cycles) before it can be granted, so once the writers
/// outnumber that gap in transfers, a re-request is always ready when the
/// next fill lands: every fill is stolen by the next writer and, without a
/// forward-progress guard, the run never ends. Found as Pverify/PREF
/// @32cy, 8p × 20k refs, seed 17896831245006598926: four last arrivals at
/// a barrier writing its counter while the other four wait.
#[test]
fn simultaneous_writers_to_one_line_make_progress() {
    // The smallest livelocking writer count at each transfer latency.
    for (transfer, procs) in [(16, 8), (24, 5), (32, 4), (44, 3), (64, 2), (100, 2)] {
        let mut b = TraceBuilder::new(procs);
        for p in 0..procs {
            b.proc(p).write(Addr::new(0x9000)).barrier(0).write(Addr::new(0x9004));
        }
        let budgeted = SimConfig { max_events: 1 << 16, ..SimConfig::paper(procs, transfer) };
        let report = simulate(&budgeted, &b.build())
            .unwrap_or_else(|e| panic!("{procs} writers @{transfer}cy must all retire: {e}"));
        assert!(report.writes >= 2 * procs as u64, "@{transfer}cy: {} writes", report.writes);
        assert!(report.demand_refills > 0, "@{transfer}cy: the fills really were stolen");
    }
}
