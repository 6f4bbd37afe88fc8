//! The event-driven multiprocessor machine: processors, coherent caches,
//! contended bus, prefetch buffers, and synchronization, wired together.
//!
//! # Timing model
//!
//! Integer cycles; a binary heap orders events `(time, sequence)`. Each
//! processor executes its trace greedily but *yields* whenever any other
//! event is scheduled at or before its local time, so coherence actions from
//! other processors are always applied in global time order.
//!
//! # Memory operations
//!
//! * Demand hit: 1 cycle.
//! * Demand miss: the processor stalls; a fill transaction spends the
//!   uncontended latency (address + memory lookup), queues for the data bus,
//!   and occupies it for the transfer latency. Snoops (invalidations,
//!   downgrades, the Illinois sharing wire) are applied when the transaction
//!   wins the bus.
//! * Write hit on a shared line: an invalidation-only upgrade transaction;
//!   the store retires when it completes. If a remote write invalidates the
//!   line while the upgrade is queued, the upgrade aborts and the store
//!   retries as an ordinary miss.
//! * Prefetch: occupies a slot in the lockup-free prefetch buffer and queues
//!   at prefetch priority; the processor continues. A demand access that
//!   catches its own prefetch in flight blocks for the *remaining* latency
//!   (and the transaction is promoted to demand priority).

use crate::check::{self, CoherenceViolation};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::{HwPrefetchStats, MissBreakdown, PrefetchStats, SimReport};
use crate::proc::{OutstandingPrefetch, PendingAccess, Proc, ProcStatus, Purpose};
use crate::sample::{CounterSnapshot, Gauges, Observability, Sampler, Timeline, TraceEmitter};
use crate::sampling::{SamplePlan, SampledWindow, WindowKind};
use crate::sharers::SharerTable;
use crate::sync::{BarrierState, LockTable};
use charlie_bus::{Bus, GrantOutcome, Priority, TxnId};
use charlie_cache::protocol::{self, BusOp, LocalAction};
use charlie_cache::{CacheArray, Probe};
use charlie_prefetch::{new_prefetcher, PreparedTrace, Prefetcher, ProcStream};
use charlie_trace::{Access, LineAddr, ProcId, TraceEvent};
use crate::wheel::EventWheel;
use fxhash::FxHashSet;

#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    /// Resume processor `proc` if its wake epoch still matches.
    Wake { proc: u8, epoch: u64 },
    /// Attempt a bus grant.
    BusCheck,
    /// A bus transaction's transfer finished.
    TxnDone(TxnId),
}

/// What to do when a transaction completes.
#[derive(Copy, Clone, Debug)]
enum TxnAction {
    DemandFill { proc: ProcId, line: LineAddr, op: BusOp },
    PrefetchFill { proc: ProcId, line: LineAddr, op: BusOp },
    Upgrade { proc: ProcId, line: LineAddr },
    WriteBack,
}

/// What one bus operation's snoop found among the requestor's peers.
struct Snoop {
    /// Another cache held a valid copy (the Illinois sharing wire).
    others: bool,
    /// The peer that supplied a dirty copy to a `Read`.
    dirty_supplier: Option<usize>,
}

/// Who a functional (fast-forward) fill is for.
#[derive(Copy, Clone, PartialEq, Eq)]
enum FillFor {
    /// A demand miss: the processor stalls for the unloaded latency.
    Demand,
    /// A software (`hw: false`) or hardware prefetch.
    Prefetch { hw: bool },
}

#[derive(Copy, Clone, Debug)]
struct TxnInfo {
    action: TxnAction,
    /// Submission time (fill latency measurement).
    issued_at: u64,
    /// Word the requesting access targets (drives false-sharing bookkeeping
    /// for invalidating transactions).
    word: u32,
    /// Illinois sharing wire, sampled at grant time.
    others_have_copy: bool,
    /// Upgrade found its line already invalidated at grant; it performs no
    /// coherence action and the store retries as a miss.
    aborted: bool,
}

/// Result of dispatching one step of a processor.
enum Flow {
    /// Progress was made; keep running (subject to the yield check).
    Continue,
    /// The processor blocked; stop running it.
    Blocked,
    /// The processor retired its whole trace.
    Finished,
}

/// Machine-wide tallies that end up in the [`SimReport`].
#[derive(Default)]
struct Tallies {
    reads: u64,
    writes: u64,
    miss: MissBreakdown,
    false_sharing_misses: u64,
    upgrades: u64,
    upgrades_aborted: u64,
    demand_refills: u64,
    victim_hits: u64,
    fill_latency: crate::metrics::LatencyStats,
    prefetch: PrefetchStats,
    hw: HwPrefetchStats,
}

/// How far (in cycles) a processor may run ahead of the next scheduled
/// event before yielding, *in fast-forward windows only*. Detailed windows
/// keep the strict `t_next <= t` yield that serializes coherence actions in
/// global time order; fast-forward trades that precision for long
/// uninterrupted bursts of trace execution. Local clocks therefore diverge
/// by at most this many cycles during fast-forward, which bounds the
/// approximation error of functional snoop ordering.
const FF_RUN_AHEAD: u64 = 4096;

/// Forward-progress guard: once a pending demand access has had this many
/// consecutive fills invalidated before it could retire, its next fill
/// retires it in the same step, ahead of the next bus grant's snoop.
///
/// Without it, a fill completing in the same cycle as the next grant loses
/// the line to that grant's snoop before its processor wakes (the wake is
/// queued behind the grant). A re-request waits out the uncontended latency
/// before it can be granted, so once the writers of one line outnumber that
/// gap in transfers, with no other demand traffic — e.g. the last arrivals
/// at a barrier writing its counter while the rest wait — a re-request is
/// always ready when the next fill lands, and the run never ends.
const STOLEN_FILL_LIMIT: u32 = 4;

/// State of an attached [`SamplePlan`]: the current window's position and
/// counter base, plus the per-window records handed back to the estimator.
struct PlanState {
    plan: SamplePlan,
    /// Index of the window currently filling.
    win_idx: u64,
    /// Demand accesses left before the current window closes.
    win_left: u64,
    /// Cycle the current window opened (monotone).
    win_start: u64,
    /// Counter base at the window open.
    base: CounterSnapshot,
    /// Classified-miss counter at the window open.
    base_misses: u64,
    records: Vec<SampledWindow>,
}

/// On-line hardware-prefetcher state, present only when
/// [`SimConfig::hw_prefetch`] is enabled. The disabled path costs a single
/// `Option` branch at each hook site and changes no behaviour — reports stay
/// bit-identical to a build without the hooks.
struct HwState {
    /// One predictor per processor (hardware sits beside each cache).
    preds: Vec<Box<dyn Prefetcher>>,
    /// Per processor: hardware-prefetched lines filled but not yet touched
    /// by a demand access. A line leaves as `useful` (demand hit) or
    /// `useless` (invalidated, evicted, or still here at end of run).
    unused: Vec<FxHashSet<LineAddr>>,
    /// Reusable prediction scratch buffer.
    candidates: Vec<LineAddr>,
}

/// The complete simulated machine for one run.
pub(crate) struct Machine<'t> {
    cfg: SimConfig,
    /// Each processor's input: its raw events with the prefetch plan's
    /// insertions merged in as they are read (`Proc::cursor`).
    streams: Vec<ProcStream<'t>>,
    heap: EventWheel<EventKind>,
    seq: u64,
    procs: Vec<Proc>,
    epochs: Vec<u64>,
    caches: Vec<CacheArray>,
    bus: Bus,
    /// Live transactions, indexed by [`TxnId::index`]. The bus recycles
    /// slots through [`Bus::release`], so this slab stays at the high-water
    /// mark of *concurrent* transactions (a handful per processor) instead
    /// of hashing an ever-growing id space.
    txns: Vec<Option<TxnInfo>>,
    locks: LockTable,
    barrier: BarrierState,
    /// Which caches hold a valid copy of each line; `snoop_peers` probes
    /// only these.
    sharers: SharerTable,
    /// Per processor: lines a prefetch brought in that vanished before any
    /// demand use (so a later tag-mismatch miss can be classified
    /// "prefetched").
    ghosts: Vec<FxHashSet<LineAddr>>,
    /// On-line hardware prefetchers; `None` (the default) is the zero-cost
    /// disabled path.
    hw: Option<HwState>,
    tallies: Tallies,
    done_count: usize,
    finish_time: u64,
    /// `(time, heap sequence)` of the single live scheduled BusCheck event
    /// (deduplication: without it, every submit adds a roaming check that is
    /// re-pushed on every BusyUntil, and event counts grow quadratically).
    /// The sequence makes the staleness test exact: a superseded entry that
    /// happens to share the live check's *time* must still be dropped, or it
    /// would run ahead of same-cycle completions pushed after it and snoop
    /// cache state that is one install behind the bus order.
    bus_check_at: Option<(u64, u64)>,
    /// Accesses still to retire before the statistics window opens
    /// (warm-up); `None` once it has opened.
    warmup_left: Option<u64>,
    /// Time the statistics window opened.
    measured_from: u64,
    /// Run the coherence invariant checker after each transaction
    /// (`check_invariants`, or unconditionally in debug builds).
    checking: bool,
    /// First invariant violation found; the event loop converts it into
    /// `SimError::InvariantViolation` before dispatching the next event.
    violation: Option<CoherenceViolation>,
    /// Structured trace sink (from [`Observability`], or constructed from
    /// `CHARLIE_DEBUG_LINE` for the legacy stderr coherence aid).
    tracer: Option<TraceEmitter>,
    /// Interval sampler recording the per-window [`Timeline`]; `None` (the
    /// default) costs one always-false compare per event.
    sampler: Option<Sampler>,
    /// Cached `sampler.next_at()` — `u64::MAX` when sampling is off — so
    /// the event loop's sampling check is a single branch-predictable
    /// compare.
    sample_next_at: u64,
    /// `CHARLIE_DEBUG_EVENTS` progress tracing, sampled once at
    /// construction so the event loop never touches the environment.
    debug_events: bool,
    /// `SimConfig::max_events` with the 0-disables-it sentinel folded into
    /// `u64::MAX`, so the watchdog is a single branch-predictable compare.
    event_budget: u64,
    /// Wall-clock deadline from `SimConfig::wall_limit_ms` (`None` = off),
    /// checked every 4096 events so the hot loop never reads the clock.
    wall_deadline: Option<std::time::Instant>,
    /// Sampled-simulation plan; `None` (the default) is the zero-cost path
    /// (one `Option` branch per retired access) and keeps every report
    /// bit-identical to a build without the hooks.
    plan: Option<PlanState>,
    /// The current plan window is fast-forward: misses fill functionally at
    /// the unloaded latency instead of queueing on the bus. Always `false`
    /// without a plan, so the detailed path is untouched.
    ff_active: bool,
    /// Transactions registered but not yet completed; lets the fast-forward
    /// conflict check skip the slab scan in the (dominant) drained case, and
    /// is the sampler's `outstanding_txns` gauge.
    live_txns: usize,
    /// Reusable barrier-release buffer: `retire_pending` drains the barrier
    /// waiter list into this instead of allocating a fresh `Vec` per
    /// barrier episode (the last per-episode allocation in the hot path).
    barrier_scratch: Vec<ProcId>,
}

/// Everything one machine run produces.
pub(crate) struct MachineOutput {
    pub report: SimReport,
    pub timeline: Option<Timeline>,
    /// Per-window records of an attached [`SamplePlan`]; empty without one.
    pub windows: Vec<SampledWindow>,
    /// Scheduler events processed (the throughput denominator).
    pub events: u64,
}

impl<'t> Machine<'t> {
    /// Builds the machine for one run of a trace that already passed
    /// validation. A `plan` must already have passed
    /// [`SamplePlan::validate`], and comes with `warmup_accesses == 0`:
    /// warm-up zeroes the tallies mid-run, which would corrupt the plan's
    /// counter deltas — sampled runs use warm windows instead.
    pub(crate) fn new(
        cfg: SimConfig,
        trace: PreparedTrace<'t>,
        obs: Observability,
        plan: Option<SamplePlan>,
    ) -> Result<Self, SimError> {
        if trace.num_procs() != cfg.num_procs {
            return Err(SimError::ProcCountMismatch {
                config: cfg.num_procs,
                trace: trace.num_procs(),
            });
        }
        if cfg.num_procs == 0 || cfg.num_procs > 64 {
            return Err(SimError::BadProcCount(cfg.num_procs));
        }
        let n = cfg.num_procs;
        let sampler = obs.sample.map(Sampler::new);
        let sample_next_at = sampler.as_ref().map_or(u64::MAX, Sampler::next_at);
        let hw = if cfg.hw_prefetch.is_enabled() {
            Some(HwState {
                preds: (0..n)
                    .map(|_| {
                        new_prefetcher(cfg.hw_prefetch, cfg.geometry.block_bytes())
                            .expect("enabled config yields a prefetcher")
                    })
                    .collect(),
                unused: vec![FxHashSet::default(); n],
                candidates: Vec::new(),
            })
        } else {
            None
        };
        Ok(Machine {
            cfg,
            streams: (0..n).map(|p| trace.proc(p)).collect(),
            // Live events are bounded by roughly one wake per processor
            // plus one completion per in-flight transaction plus the single
            // bus check: pre-size so steady state never reallocates.
            heap: EventWheel::new(),
            seq: 0,
            procs: vec![Proc::default(); n],
            epochs: vec![0; n],
            caches: (0..n)
                .map(|_| CacheArray::with_victim(cfg.geometry, cfg.victim_entries))
                .collect(),
            bus: Bus::new(cfg.bus, n),
            txns: Vec::with_capacity(4 * n),
            locks: LockTable::new(),
            barrier: BarrierState::new(n),
            sharers: SharerTable::new(n),
            ghosts: vec![FxHashSet::default(); n],
            hw,
            tallies: Tallies::default(),
            done_count: 0,
            finish_time: 0,
            bus_check_at: None,
            warmup_left: if cfg.warmup_accesses > 0 { Some(cfg.warmup_accesses) } else { None },
            measured_from: 0,
            checking: cfg.check_invariants || cfg!(debug_assertions),
            violation: None,
            tracer: obs.tracer.or_else(TraceEmitter::from_env),
            sampler,
            sample_next_at,
            debug_events: std::env::var_os("CHARLIE_DEBUG_EVENTS").is_some(),
            event_budget: if cfg.max_events == 0 { u64::MAX } else { cfg.max_events },
            wall_deadline: (cfg.wall_limit_ms > 0).then(|| {
                std::time::Instant::now() + std::time::Duration::from_millis(cfg.wall_limit_ms)
            }),
            ff_active: plan.as_ref().is_some_and(|plan| plan.kind_of(0) == WindowKind::Fast),
            plan: plan.map(|plan| PlanState {
                win_left: plan.window_accesses,
                win_idx: 0,
                win_start: 0,
                base: CounterSnapshot::default(),
                base_misses: 0,
                records: Vec::new(),
                plan,
            }),
            live_txns: 0,
            barrier_scratch: Vec::new(),
        })
    }

    pub(crate) fn run(mut self) -> Result<MachineOutput, SimError> {
        for p in 0..self.cfg.num_procs {
            let e = self.epochs[p];
            self.push(0, EventKind::Wake { proc: p as u8, epoch: e });
        }
        let mut events_processed: u64 = 0;
        let debug = self.debug_events;
        while self.done_count < self.cfg.num_procs {
            let Some((time, seq, kind)) = self.heap.pop() else {
                return Err(SimError::Deadlock);
            };
            events_processed += 1;
            // Close sampling windows whose boundary this event crossed
            // (before handling it: the event's effects belong to the next
            // window). A single compare against u64::MAX when disabled.
            if time >= self.sample_next_at {
                self.sample_tick(time);
            }
            if debug && events_processed.is_multiple_of(1 << 22) {
                let cursors: Vec<usize> = self.procs.iter().map(|p| p.cursor.position()).collect();
                let statuses: Vec<String> =
                    self.procs.iter().map(|p| format!("{:?}", p.status)).collect();
                eprintln!(
                    "[charlie-debug] events={events_processed} time={time} heap={} done={} cursors={cursors:?} statuses={statuses:?} pending_bus={}",
                    self.heap.len(),
                    self.done_count,
                    self.bus.pending(),
                );
            }
            // Watchdog: a deterministic event budget catches livelocked or
            // runaway runs that would otherwise wedge a whole batch.
            if events_processed > self.event_budget {
                let (retired, blocked) = self.progress();
                return Err(SimError::BudgetExceeded {
                    events: events_processed,
                    cycles: time,
                    retired,
                    blocked,
                });
            }
            // Wall-clock watchdog: sampled every 4096 events so the hot loop
            // only reads the clock when a deadline is actually armed.
            if events_processed & 0xFFF == 0 {
                if let Some(deadline) = self.wall_deadline {
                    if std::time::Instant::now() >= deadline {
                        let (retired, blocked) = self.progress();
                        return Err(SimError::WallClockExceeded {
                            limit_ms: self.cfg.wall_limit_ms,
                            events: events_processed,
                            cycles: time,
                            retired,
                            blocked,
                        });
                    }
                }
            }
            match kind {
                EventKind::Wake { proc, epoch } => self.on_wake(time, proc as usize, epoch),
                EventKind::BusCheck => self.on_bus_check(time, seq),
                EventKind::TxnDone(id) => self.on_txn_done(time, id),
            }
            if let Some(v) = self.violation.take() {
                return Err(SimError::InvariantViolation(v));
            }
        }
        if self.checking {
            // Per-transaction checks only re-verify touched lines; a final
            // sweep covers everything once more before the report is built.
            check::check_all_lines(self.cfg.protocol, &self.caches)
                .map_err(SimError::InvariantViolation)?;
            for p in 0..self.cfg.num_procs {
                check::check_prefetch_buffer(
                    p,
                    &self.caches[p],
                    self.procs[p].outstanding.lines(),
                    self.cfg.prefetch_buffer_depth,
                )
                .map_err(SimError::InvariantViolation)?;
            }
        }
        // Close the trailing partial plan window (a no-op when the run
        // ended exactly on a window boundary).
        let windows = if self.plan.is_some() {
            let finish = self.finish_time;
            if self.plan.as_ref().is_some_and(|ps| ps.win_left < ps.plan.window_accesses) {
                self.close_plan_window_at(finish);
            }
            std::mem::take(&mut self.plan.as_mut().expect("checked above").records)
        } else {
            Vec::new()
        };
        let (report, timeline) = self.into_report();
        Ok(MachineOutput { report, timeline, windows, events: events_processed })
    }

    /// The watchdogs' last-progress diagnostics: trace events retired
    /// machine-wide, and processors neither running nor done.
    fn progress(&self) -> (u64, usize) {
        let retired = self.procs.iter().map(|p| p.cursor.position() as u64).sum();
        let blocked = self
            .procs
            .iter()
            .filter(|p| !matches!(p.status, ProcStatus::Running | ProcStatus::Done))
            .count();
        (retired, blocked)
    }

    /// Reads the monotone counters the sampler windows over.
    fn counter_snapshot(&self) -> CounterSnapshot {
        let bus = self.bus.stats();
        CounterSnapshot {
            bus_busy: bus.busy_cycles,
            bus_ops: bus.total_ops(),
            bus_queueing: bus.queueing_cycles,
            prefetch_grants: bus.prefetch_grants,
            proc_busy: self.procs.iter().map(|p| p.stats.busy_cycles).sum(),
            proc_stall: self.procs.iter().map(|p| p.stats.stall_cycles).sum(),
            accesses: self.procs.iter().map(|p| p.stats.accesses).sum(),
            fills: self.tallies.fill_latency.count(),
            fill_buckets: *self.tallies.fill_latency.histogram(),
        }
    }

    /// Reads the instantaneous gauges recorded at a window close.
    fn gauges(&self) -> Gauges {
        debug_assert_eq!(
            self.live_txns,
            self.txns.iter().filter(|t| t.is_some()).count(),
            "live_txns must count the occupied transaction slots"
        );
        Gauges {
            bus_pending: self.bus.pending(),
            outstanding_txns: self.live_txns,
            prefetch_buffer: self.procs.iter().map(|p| p.outstanding.len()).sum(),
        }
    }

    /// Closes every sampling window whose boundary lies at or before `now`.
    /// Out of the event loop's hot path; only reached with a live sampler.
    #[cold]
    fn sample_tick(&mut self, now: u64) {
        while now >= self.sample_next_at {
            let boundary = self.sample_next_at;
            let snap = self.counter_snapshot();
            let gauges = self.gauges();
            let s = self.sampler.as_mut().expect("finite sample_next_at implies a sampler");
            s.close_at(boundary, snap, gauges);
            self.sample_next_at = s.next_at();
        }
    }

    /// One retired demand access under an attached plan: close the window
    /// when its access quota is exhausted.
    #[inline]
    fn plan_count(&mut self, p: usize) {
        let ps = self.plan.as_mut().expect("plan_count requires a plan");
        ps.win_left -= 1;
        if ps.win_left == 0 {
            let now = self.procs[p].t;
            self.close_plan_window_at(now);
        }
    }

    /// Closes the current plan window at cycle `now`: records its counter
    /// deltas, opens the next window, and switches the execution mode to
    /// the next window's kind. Out of the per-access hot path.
    #[cold]
    fn close_plan_window_at(&mut self, now: u64) {
        let snap = self.counter_snapshot();
        let misses = self.tallies.miss.cpu_misses();
        let ps = self.plan.as_mut().expect("closing a plan window without a plan");
        // Processor-local clocks diverge during fast-forward, so the close
        // cycle is clamped monotone; spans stay well-defined.
        let end = now.max(ps.win_start);
        let b = &ps.base;
        let mut fill_buckets = [0u64; 7];
        for (d, (n, o)) in
            fill_buckets.iter_mut().zip(snap.fill_buckets.iter().zip(b.fill_buckets.iter()))
        {
            *d = n - o;
        }
        ps.records.push(SampledWindow {
            index: ps.win_idx,
            kind: ps.plan.kind_of(ps.win_idx),
            start: ps.win_start,
            end,
            accesses: snap.accesses - b.accesses,
            misses: misses - ps.base_misses,
            proc_busy: snap.proc_busy - b.proc_busy,
            proc_stall: snap.proc_stall - b.proc_stall,
            bus_busy: snap.bus_busy - b.bus_busy,
            bus_ops: snap.bus_ops - b.bus_ops,
            bus_queueing: snap.bus_queueing - b.bus_queueing,
            fills: snap.fills - b.fills,
            fill_buckets,
        });
        ps.base = snap;
        ps.base_misses = misses;
        ps.win_start = end;
        ps.win_idx += 1;
        ps.win_left = ps.plan.window_accesses;
        self.ff_active = ps.plan.kind_of(ps.win_idx) == WindowKind::Fast;
    }

    /// Re-derives invariants 1–2 for `line` after a coherence action,
    /// latching the first violation (converted into an error by `run`).
    fn verify_line(&mut self, line: LineAddr) {
        if self.checking && self.violation.is_none() {
            self.violation = check::check_line(self.cfg.protocol, &self.caches, line).err();
        }
    }

    /// Re-derives invariants 3–4 for processor `p`'s prefetch buffer.
    fn verify_prefetch_buffer(&mut self, p: usize) {
        if self.checking && self.violation.is_none() {
            self.violation = check::check_prefetch_buffer(
                p,
                &self.caches[p],
                self.procs[p].outstanding.lines(),
                self.cfg.prefetch_buffer_depth,
            )
            .err();
        }
    }

    fn into_report(mut self) -> (SimReport, Option<Timeline>) {
        // Settle hardware-prefetch accounting so that
        // `useful + late + useless == issued` holds in every report:
        // still-unused fills end up useless, as do in-flight prefetches the
        // bus already granted. One still *queued* at end of run never
        // reached the bus — cancel its issue/fill charges instead, keeping
        // the bus-balance identity (reads == misses + fills + refills)
        // exact (bus operations are counted at grant time).
        if let Some(hw) = self.hw.as_mut() {
            for set in &mut hw.unused {
                self.tallies.hw.useless += set.len() as u64;
                set.clear();
            }
            for proc in &self.procs {
                for slot in proc.outstanding.slots().filter(|s| s.hw) {
                    if self.bus.is_queued(slot.txn) {
                        self.tallies.prefetch.executed -= 1;
                        self.tallies.prefetch.fills -= 1;
                        self.tallies.hw.issued -= 1;
                    } else {
                        self.tallies.hw.useless += 1;
                    }
                }
            }
        }
        // Close the trailing partial window before reading final counters
        // (a no-op if the run ended exactly on a boundary).
        let timeline = if self.sampler.is_some() {
            let snap = self.counter_snapshot();
            let gauges = self.gauges();
            let mut s = self.sampler.take().expect("checked above");
            s.close_at(self.finish_time, snap, gauges);
            Some(s.into_timeline())
        } else {
            None
        };
        let mut bus = *self.bus.stats();
        if self.measured_from > 0 {
            // Windowed busy cycles can still exceed the measured window by
            // the trailing overhang of the last grant: a posted write-back
            // nobody waits on may complete past the last processor's finish
            // time, and its full forward occupancy was accounted at grant.
            // Grants are serialized, every grant starts at or before
            // `finish_time`, and `measured_from <= finish_time`, so the
            // overhang is wholly inside the last grant's in-window
            // contribution — subtracting it is exact and guarantees
            // `bus_utilization() <= 1.0`. Cold (no-warm-up) runs keep their
            // raw counter: the first transaction's 92-cycle uncontended
            // head start already exceeds the largest possible overhang, so
            // the bound holds without adjustment and the golden grid stays
            // bit-identical.
            bus.busy_cycles = bus
                .busy_cycles
                .saturating_sub(self.bus.busy_until().saturating_sub(self.finish_time));
        }
        let report = SimReport {
            cycles: self.finish_time,
            measured_from: self.measured_from,
            reads: self.tallies.reads,
            writes: self.tallies.writes,
            miss: self.tallies.miss,
            false_sharing_misses: self.tallies.false_sharing_misses,
            upgrades: self.tallies.upgrades,
            upgrades_aborted: self.tallies.upgrades_aborted,
            demand_refills: self.tallies.demand_refills,
            victim_hits: self.tallies.victim_hits,
            fill_latency: self.tallies.fill_latency,
            prefetch: self.tallies.prefetch,
            hw_prefetch: self.tallies.hw,
            bus,
            per_proc: self.procs.into_iter().map(|p| p.stats).collect(),
        };
        (report, timeline)
    }

    // ---- event plumbing -------------------------------------------------

    #[inline]
    fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        self.seq += 1;
        self.heap.push(time, self.seq, kind);
        self.seq
    }

    /// Schedules a wake that is valid only while the target's epoch is
    /// unchanged (dropping stale wakes, e.g. extra prefetch-slot wakes).
    fn push_wake(&mut self, time: u64, proc: usize) {
        let epoch = self.epochs[proc];
        self.push(time, EventKind::Wake { proc: proc as u8, epoch });
    }

    fn on_wake(&mut self, now: u64, p: usize, epoch: u64) {
        if self.epochs[p] != epoch || matches!(self.procs[p].status, ProcStatus::Done) {
            return; // stale
        }
        match self.procs[p].status {
            ProcStatus::Running => {
                if now > self.procs[p].t {
                    self.procs[p].t = now;
                }
            }
            _ => {
                self.procs[p].resume(now);
                self.procs[p].waiting_txn = None;
                self.epochs[p] += 1;
            }
        }
        self.run_proc(p);
    }

    fn block_proc(&mut self, p: usize, status: ProcStatus) {
        self.procs[p].block(status);
        self.epochs[p] += 1;
    }

    // ---- processor execution --------------------------------------------

    fn run_proc(&mut self, p: usize) {
        loop {
            let flow = if self.procs[p].pending.is_some() {
                self.dispatch_pending(p)
            } else {
                self.dispatch_trace_event(p)
            };
            match flow {
                Flow::Blocked => return,
                Flow::Finished => {
                    self.procs[p].status = ProcStatus::Done;
                    self.procs[p].stats.finish_time = self.procs[p].t;
                    self.finish_time = self.finish_time.max(self.procs[p].t);
                    self.done_count += 1;
                    return;
                }
                Flow::Continue => {}
            }
            // Yield whenever any other event is due at or before local time.
            // Fast-forward windows relax the check by a run-ahead quantum:
            // with misses filling functionally there is no bus state to keep
            // in lockstep, and long uninterrupted bursts of trace execution
            // are where the fast-forward speedup comes from.
            let t = self.procs[p].t;
            if let Some(t_next) = self.heap.next_time() {
                let slack = if self.ff_active { FF_RUN_AHEAD } else { 0 };
                if t_next + slack <= t {
                    self.push_wake(t, p);
                    return;
                }
            }
        }
    }

    fn dispatch_trace_event(&mut self, p: usize) -> Flow {
        let Some(ev) = self.streams[p].get(self.procs[p].cursor) else {
            return Flow::Finished;
        };
        match ev {
            TraceEvent::Work(n) => {
                let proc = &mut self.procs[p];
                proc.t += u64::from(n);
                proc.stats.busy_cycles += u64::from(n);
                self.advance_cursor(p);
                Flow::Continue
            }
            TraceEvent::Access { addr, kind } => {
                self.procs[p].pending =
                    Some(PendingAccess::new(Access { addr: addr.unpack(), kind }, Purpose::Demand));
                Flow::Continue
            }
            TraceEvent::Prefetch { addr, exclusive } => {
                self.dispatch_prefetch(p, addr.unpack(), exclusive)
            }
            TraceEvent::LockAcquire(id) => {
                self.charge_dispatch_cycle(p);
                let addr = self.cfg.lock_addr(id);
                if self.locks.acquire(id, ProcId(p as u8)) {
                    self.procs[p].pending =
                        Some(PendingAccess::new(Access::write(addr), Purpose::LockAcquireWrite(id)));
                } else {
                    // Busy: one failed test read, then park (handled when the
                    // spin read retires).
                    self.procs[p].pending =
                        Some(PendingAccess::new(Access::read(addr), Purpose::LockSpinRead(id)));
                }
                Flow::Continue
            }
            TraceEvent::LockRelease(id) => {
                self.charge_dispatch_cycle(p);
                let addr = self.cfg.lock_addr(id);
                self.procs[p].pending =
                    Some(PendingAccess::new(Access::write(addr), Purpose::LockReleaseWrite(id)));
                Flow::Continue
            }
            TraceEvent::Barrier(id) => {
                self.charge_dispatch_cycle(p);
                let addr = self.cfg.barrier_counter_addr(id);
                self.procs[p].pending =
                    Some(PendingAccess::new(Access::write(addr), Purpose::BarrierArriveWrite(id)));
                Flow::Continue
            }
        }
    }

    /// Retires the trace event at `p`'s cursor.
    fn advance_cursor(&mut self, p: usize) {
        self.streams[p].advance(&mut self.procs[p].cursor);
    }

    fn charge_dispatch_cycle(&mut self, p: usize) {
        let proc = &mut self.procs[p];
        proc.t += 1;
        proc.stats.busy_cycles += 1;
    }

    /// The paper's CPU model: a data access costs one instruction cycle plus
    /// one data cycle when it hits — matching the off-line cost model the
    /// prefetch scheduler measures distances with.
    fn charge_access_cycles(&mut self, p: usize) {
        let proc = &mut self.procs[p];
        proc.t += 2;
        proc.stats.busy_cycles += 2;
    }

    fn dispatch_prefetch(&mut self, p: usize, addr: charlie_trace::Addr, exclusive: bool) -> Flow {
        let line = self.cfg.geometry.line(addr);
        // Buffer full: stall without charging the dispatch cycle (it is
        // charged when the prefetch actually issues on retry).
        let outstanding_full = self.procs[p].outstanding.len() >= self.cfg.prefetch_buffer_depth;
        let already_outstanding = self.procs[p].outstanding.contains(line);
        let resident =
            self.caches[p].probe_line(line).is_hit() || self.caches[p].probe_victim(line);

        if resident || already_outstanding {
            self.charge_dispatch_cycle(p);
            self.tallies.prefetch.executed += 1;
            if resident {
                self.tallies.prefetch.hits += 1;
            } else {
                self.tallies.prefetch.duplicates += 1;
            }
            if self.tracer.is_some() {
                let t = self.procs[p].t;
                let outcome = if resident { "hit" } else { "duplicate" };
                if let Some(tr) = &mut self.tracer {
                    tr.prefetch_with(t, p, line, "executed", "outcome", outcome);
                }
            }
            self.advance_cursor(p);
            return Flow::Continue;
        }
        // Fast-forward fills install instantly and never occupy a buffer
        // slot, so a full buffer (detailed-era stragglers) cannot stall.
        if outstanding_full && !self.ff_ready(line) {
            self.tallies.prefetch.buffer_stalls += 1;
            self.block_proc(p, ProcStatus::WaitPrefetchSlot);
            return Flow::Blocked;
        }
        self.charge_dispatch_cycle(p);
        self.tallies.prefetch.executed += 1;
        self.tallies.prefetch.fills += 1;
        let op = protocol::prefetch_op(self.cfg.protocol, exclusive);
        self.issue_prefetch(p, line, op, self.cfg.geometry.word_index(addr), false);
        self.advance_cursor(p);
        Flow::Continue
    }

    /// Fills `line` for a prefetch by `p`: functionally in a fast-forward
    /// window, otherwise as a bus transaction holding a prefetch-buffer
    /// slot until it completes. The caller has already counted it.
    fn issue_prefetch(&mut self, p: usize, line: LineAddr, op: BusOp, word: u32, hw: bool) {
        if self.ff_ready(line) {
            self.ff_fill(p, line, op, word, FillFor::Prefetch { hw });
            return;
        }
        let now = self.procs[p].t;
        let action = TxnAction::PrefetchFill { proc: ProcId(p as u8), line, op };
        let txn = self.submit_txn(now, p, line, op, action, word);
        self.trace_prefetch_issued(now, p, line, hw);
        self.procs[p].outstanding.insert(line, OutstandingPrefetch { txn, cpu_waiting: false, hw });
        self.verify_prefetch_buffer(p);
    }

    /// Traces a prefetch leaving for memory: software prefetches report the
    /// `issued` outcome of an `executed` instruction, hardware ones an
    /// `issued` prediction.
    fn trace_prefetch_issued(&mut self, now: u64, p: usize, line: LineAddr, hw: bool) {
        if let Some(tr) = &mut self.tracer {
            if hw {
                tr.prefetch(now, p, line, "issued");
            } else {
                tr.prefetch_with(now, p, line, "executed", "outcome", "issued");
            }
        }
    }

    // ---- on-line hardware prefetching -----------------------------------

    /// Lets processor `p`'s hardware prefetcher observe a retiring demand
    /// access (`was_miss`: it missed when first dispatched), then issues
    /// whatever the predictor proposes. No-op when hardware prefetching is
    /// off.
    fn hw_observe(&mut self, p: usize, addr: charlie_trace::Addr, line: LineAddr, was_miss: bool) {
        let Some(hw) = self.hw.as_mut() else { return };
        let mut candidates = std::mem::take(&mut hw.candidates);
        let trained = hw.preds[p].on_access(addr, line, was_miss, &mut candidates);
        if trained {
            self.tallies.hw.trained += 1;
            if self.tracer.is_some() {
                let t = self.procs[p].t;
                if let Some(tr) = &mut self.tracer {
                    tr.prefetch(t, p, line, "trained");
                }
            }
        }
        for i in 0..candidates.len() {
            self.hw_issue(p, candidates[i]);
        }
        candidates.clear();
        if let Some(hw) = self.hw.as_mut() {
            hw.candidates = candidates;
        }
    }

    /// Issues one hardware-predicted prefetch. Unlike the software path, a
    /// hardware engine never stalls the processor: predictions that find the
    /// buffer full, the line resident (main array or victim buffer), or a
    /// prefetch already outstanding are silently dropped.
    fn hw_issue(&mut self, p: usize, line: LineAddr) {
        if self.procs[p].outstanding.len() >= self.cfg.prefetch_buffer_depth
            || self.procs[p].outstanding.contains(line)
            || self.caches[p].probe_line(line).is_hit()
            || self.caches[p].probe_victim(line)
        {
            return;
        }
        // Hardware fills flow through the same prefetch counters as software
        // fills, preserving the bus-balance identity
        // (bus reads == misses + prefetch fills + demand refills).
        self.tallies.prefetch.executed += 1;
        self.tallies.prefetch.fills += 1;
        self.tallies.hw.issued += 1;
        self.issue_prefetch(p, line, BusOp::Read, 0, true);
    }

    /// A demand access touched `line` in processor `p`'s cache;
    /// `first_use`: a prefetch filled the frame and had not been used
    /// since. If a hardware prefetch brought it in, that prefetch graduates
    /// to `useful`.
    ///
    /// Every line in `unused[p]` was filled by a prefetch and not used
    /// since: invalidation and eviction remove it under that same frame
    /// condition. So a hit on any other frame skips the set lookup.
    fn hw_note_useful(&mut self, p: usize, line: LineAddr, first_use: bool, now: u64) {
        let Some(hw) = self.hw.as_mut() else { return };
        if !first_use {
            debug_assert!(
                !hw.unused[p].contains(&line),
                "unused hardware prefetch {line:?} on a used or demand-filled frame"
            );
            return;
        }
        if hw.unused[p].remove(&line) {
            self.tallies.hw.useful += 1;
            if let Some(tr) = &mut self.tracer {
                tr.prefetch(now, p, line, "useful");
            }
        }
    }

    /// Attempts to retire the pending access; blocks on misses/upgrades.
    fn dispatch_pending(&mut self, p: usize) -> Flow {
        let pa = self.procs[p].pending.expect("dispatch_pending requires a pending access");
        let addr = pa.access.addr;
        let is_write = pa.access.kind.is_write();
        let line = self.cfg.geometry.line(addr);
        let word = self.cfg.geometry.word_index(addr);
        let now = self.procs[p].t;

        match self.caches[p].probe_line(line) {
            Probe::Hit { way, state } => match protocol::local_access(self.cfg.protocol, state, is_write) {
                LocalAction::Hit(new_state) => {
                    let frame = self.caches[p].frame_mut(line, way);
                    let first_use = frame.filled_by_prefetch() && !frame.used_since_fill();
                    if is_write {
                        frame.record_write_retire(word);
                    } else {
                        frame.record_access(word, new_state);
                    }
                    if first_use {
                        if let Some(tr) = &mut self.tracer {
                            tr.prefetch(now, p, line, "used");
                        }
                    }
                    self.hw_note_useful(p, line, first_use, now);
                    self.charge_access_cycles(p);
                    self.count_access(p, is_write);
                    // The predictor observes every retiring demand access
                    // (`counted` records whether it originally missed) and
                    // may issue prefetches for what it expects next.
                    if self.hw.is_some() && matches!(pa.purpose, Purpose::Demand) {
                        self.hw_observe(p, addr, line, pa.counted);
                    }
                    self.retire_pending(p)
                }
                LocalAction::HitNeedsUpgrade => {
                    // Write-update: once the word broadcast completed, the
                    // store retires with the line still shared — plain
                    // `Shared` under Firefly (memory was updated in the
                    // broadcast), `SharedModified` under Dragon (the writer
                    // now owes the write-back); the completion path already
                    // set the frame state, so retire in place.
                    if pa.update_complete {
                        debug_assert!(self.cfg.protocol.is_update_based());
                        let frame = self.caches[p].frame_mut(line, way);
                        let first_use = frame.filled_by_prefetch() && !frame.used_since_fill();
                        frame.record_access(word, state);
                        self.hw_note_useful(p, line, first_use, now);
                        self.charge_access_cycles(p);
                        self.count_access(p, is_write);
                        if self.hw.is_some() && matches!(pa.purpose, Purpose::Demand) {
                            self.hw_observe(p, addr, line, pa.counted);
                        }
                        return self.retire_pending(p);
                    }
                    self.tallies.upgrades += 1;
                    let op = protocol::write_shared_op(self.cfg.protocol);
                    if self.ff_ready(line) {
                        return self.ff_upgrade(p, line, op, word);
                    }
                    let action = TxnAction::Upgrade { proc: ProcId(p as u8), line };
                    let txn = self.submit_txn(now, p, line, op, action, word);
                    self.procs[p].waiting_txn = Some(txn);
                    self.block_proc(p, ProcStatus::WaitMem);
                    Flow::Blocked
                }
                LocalAction::Miss(_) => unreachable!("probe hit cannot miss"),
            },
            probe @ (Probe::InvalidatedMatch { .. } | Probe::Miss) => {
                // Victim-buffer hit: swap the line back (one extra cycle) and
                // re-dispatch — it will now hit in the main array.
                if self.caches[p].probe_victim(line) {
                    self.tallies.victim_hits += 1;
                    if let Some(evicted) = self.caches[p].recall_from_victim(line) {
                        self.handle_eviction(p, evicted, now);
                    }
                    self.charge_dispatch_cycle(p);
                    return Flow::Continue;
                }
                // Own prefetch in flight for this line?
                if let Some(slot) = self.procs[p].outstanding.get_mut(line) {
                    // A hardware prefetch the demand stream catches up with
                    // was issued too late to hide the full latency.
                    let hw_late = slot.hw && !slot.cpu_waiting;
                    slot.cpu_waiting = true;
                    let txn = slot.txn;
                    if hw_late {
                        self.tallies.hw.late += 1;
                        if let Some(tr) = &mut self.tracer {
                            tr.prefetch(now, p, line, "late");
                        }
                    }
                    if !pa.counted {
                        self.tallies.miss.prefetch_in_progress += 1;
                        self.procs[p].pending.as_mut().expect("pending").counted = true;
                    }
                    self.bus.promote(txn);
                    if let Some(tr) = &mut self.tracer {
                        tr.prefetch(now, p, line, "promoted");
                    }
                    self.procs[p].waiting_txn = Some(txn);
                    self.block_proc(p, ProcStatus::WaitMem);
                    return Flow::Blocked;
                }
                if !pa.counted {
                    self.classify_miss(p, line, probe);
                    self.procs[p].pending.as_mut().expect("pending").counted = true;
                } else {
                    // The previous fill was invalidated under our feet; the
                    // miss is already classified but the refetch still costs
                    // a bus transaction.
                    self.tallies.demand_refills += 1;
                    self.procs[p].pending.as_mut().expect("pending").stolen_fills += 1;
                }
                // Write-update protocols: a write miss fills like a read and
                // then broadcasts the word (handled by the upgrade-as-update
                // path when the retried store finds the line shared).
                let op = if is_write {
                    protocol::write_miss_op(self.cfg.protocol)
                } else {
                    BusOp::Read
                };
                if self.ff_ready(line) {
                    // The still-pending access re-dispatches at once and hits.
                    self.ff_fill(p, line, op, word, FillFor::Demand);
                    return Flow::Continue;
                }
                let action = TxnAction::DemandFill { proc: ProcId(p as u8), line, op };
                let txn = self.submit_txn(now, p, line, op, action, word);
                self.procs[p].waiting_txn = Some(txn);
                self.block_proc(p, ProcStatus::WaitMem);
                Flow::Blocked
            }
        }
    }

    // ---- functional fast-forward --------------------------------------
    //
    // Fast-forward windows keep the machine's *state* exact — caches,
    // coherence, sharer table, lock/barrier order, prefetch classification —
    // while replacing every bus interaction with its immediate functional
    // effect: the same `snoop_peers` a detailed grant runs applies at the
    // requestor's local time, fills install instantly, and the processor is
    // charged the fixed unloaded latency. No bus transaction is submitted,
    // so the contended-timing machinery (arbitration, queueing, transfer
    // occupancy) is skipped entirely, and neither a dirty supplier nor a
    // dirty eviction posts a write-back. Transactions submitted in a
    // preceding detailed window keep draining through the event loop (a
    // dirty supplier they snoop still posts one), so mode transitions need
    // no flush.

    /// True when `line` may be handled functionally right now: fast-forward
    /// is on and no detailed-era transaction is in flight for it. A granted
    /// transaction snoops at grant time but installs at completion — an
    /// instant functional install interleaved between the two would leave
    /// stale coherence state behind (e.g. a Shared install racing a
    /// ReadExclusive), so conflicting accesses fall back to the detailed
    /// path and serialize on the bus. The slab drains within a few accesses
    /// of entering a fast window, after which this is a single compare.
    fn ff_ready(&self, line: LineAddr) -> bool {
        self.ff_active
            && (self.live_txns == 0
                || !self.txns.iter().flatten().any(|info| match info.action {
                    // A write-back carries no install and no snoop effect.
                    TxnAction::WriteBack => false,
                    TxnAction::DemandFill { line: l, .. }
                    | TxnAction::PrefetchFill { line: l, .. }
                    | TxnAction::Upgrade { line: l, .. } => l == line,
                }))
    }

    /// Fast-forward fill of `line` by `p`: snoop at the requestor's clock,
    /// then install at once. A demand miss pays the unloaded fill latency
    /// as stall; a prefetch lands ahead of demand by construction and never
    /// holds a buffer slot, so a hardware one awaits its useful/useless
    /// verdict like a detailed fill that completed before demand arrived.
    /// No write-back is posted for a dirty supplier: memory updates are
    /// free on a bus that is not being timed.
    fn ff_fill(&mut self, p: usize, line: LineAddr, op: BusOp, word: u32, by: FillFor) {
        let proc = ProcId(p as u8);
        let action = match by {
            FillFor::Demand => TxnAction::DemandFill { proc, line, op },
            FillFor::Prefetch { .. } => TxnAction::PrefetchFill { proc, line, op },
        };
        self.trace_snoop(self.procs[p].t, None, line, action);
        let snoop = self.snoop_peers(p, line, op, word, self.procs[p].t);
        match by {
            FillFor::Demand => {
                let lat = self.cfg.bus.total_latency;
                let proc = &mut self.procs[p];
                proc.t += lat;
                proc.stats.stall_cycles += lat;
                self.tallies.fill_latency.record(lat);
            }
            FillFor::Prefetch { hw } => self.trace_prefetch_issued(self.procs[p].t, p, line, hw),
        }
        let now = self.procs[p].t;
        self.install_fill(p, line, op, snoop.others, by != FillFor::Demand, now);
        if matches!(by, FillFor::Prefetch { hw: true }) {
            if let Some(hw) = self.hw.as_mut() {
                hw.unused[p].insert(line);
            }
        }
        self.verify_line(line);
    }

    /// Fast-forward upgrade: the coherence effect of the invalidation (or
    /// word broadcast) applies immediately and the store pays only the
    /// address-slot occupancy as stall.
    fn ff_upgrade(&mut self, p: usize, line: LineAddr, op: BusOp, word: u32) -> Flow {
        let lat = self.cfg.bus.invalidate_cycles;
        let proc = &mut self.procs[p];
        proc.t += lat;
        proc.stats.stall_cycles += lat;
        let now = proc.t;
        self.trace_snoop(now, None, line, TxnAction::Upgrade { proc: ProcId(p as u8), line });
        let snoop = self.snoop_peers(p, line, op, word, now);
        self.complete_upgrade(p, line, snoop.others);
        self.verify_line(line);
        Flow::Continue
    }

    fn count_access(&mut self, p: usize, is_write: bool) {
        if is_write {
            self.tallies.writes += 1;
        } else {
            self.tallies.reads += 1;
        }
        self.procs[p].stats.accesses += 1;
        if let Some(left) = &mut self.warmup_left {
            *left -= 1;
            if *left == 0 {
                let now = self.procs[p].t;
                self.open_stats_window(now);
            }
        }
        if self.plan.is_some() {
            self.plan_count(p);
        }
    }

    /// Warm-up complete: zero every counter so the report covers only the
    /// steady state from `now` on. Execution continues unchanged; a stall
    /// spanning the boundary is charged entirely to the measured window
    /// (a one-off smear bounded by one miss latency per processor).
    fn open_stats_window(&mut self, now: u64) {
        self.warmup_left = None;
        self.measured_from = now;
        self.tallies = Tallies::default();
        // Clip subsequent bus accounting to the window: a transfer granted
        // before `now` (or a queue wait begun before it) contributes only
        // its in-window portion, so windowed bus utilization stays <= 1.
        self.bus.open_window(now);
        if let Some(s) = &mut self.sampler {
            // Timeline windows cover the measured span only, so summed
            // deltas equal the final windowed counters.
            s.rebase(now);
            self.sample_next_at = s.next_at();
        }
        for proc in &mut self.procs {
            proc.stats.busy_cycles = 0;
            proc.stats.stall_cycles = 0;
            proc.stats.accesses = 0;
            proc.stats.measured_from = now;
        }
        if let Some(hw) = self.hw.as_mut() {
            // Hardware prefetches issued during warm-up must not classify
            // inside the window (their `issued` count was just zeroed):
            // forget unused fills and strip the hw flag off in-flight slots,
            // keeping `useful + late + useless == issued` exact per window.
            for set in &mut hw.unused {
                set.clear();
            }
            for proc in &mut self.procs {
                for slot in proc.outstanding.slots_mut() {
                    slot.hw = false;
                }
            }
        }
    }

    fn classify_miss(&mut self, p: usize, line: LineAddr, probe: Probe) {
        match probe {
            Probe::InvalidatedMatch { way } => {
                let frame = self.caches[p].frame(line, way);
                let prefetched = frame.filled_by_prefetch() && !frame.used_since_fill();
                let false_sharing =
                    frame.inval_word().is_some_and(|w| !frame.accessed_words().contains(w));
                if false_sharing {
                    self.tallies.false_sharing_misses += 1;
                }
                if prefetched {
                    self.tallies.miss.invalidation_prefetched += 1;
                } else {
                    self.tallies.miss.invalidation_not_prefetched += 1;
                }
                self.ghosts[p].remove(&line);
            }
            Probe::Miss => {
                let prefetched = self.ghosts[p].remove(&line);
                if prefetched {
                    self.tallies.miss.non_sharing_prefetched += 1;
                } else {
                    self.tallies.miss.non_sharing_not_prefetched += 1;
                }
            }
            Probe::Hit { .. } => unreachable!("hits are not misses"),
        }
    }

    /// Completes the pending access after a successful (hit) dispatch.
    fn retire_pending(&mut self, p: usize) -> Flow {
        let pa = self.procs[p].pending.take().expect("retiring without a pending access");
        let t = self.procs[p].t;
        match pa.purpose {
            Purpose::Demand | Purpose::LockAcquireWrite(_) | Purpose::BarrierLeaveRead(_) => {
                self.advance_cursor(p);
                Flow::Continue
            }
            Purpose::LockSpinRead(id) => {
                if self.procs[p].early_release {
                    // The hand-off already happened: take the lock now.
                    self.procs[p].early_release = false;
                    let addr = self.cfg.lock_addr(id);
                    self.procs[p].pending = Some(PendingAccess::new(
                        Access::write(addr),
                        Purpose::LockAcquireWrite(id),
                    ));
                    Flow::Continue
                } else {
                    // Lock is busy; park until hand-off.
                    self.block_proc(p, ProcStatus::WaitLock);
                    Flow::Blocked
                }
            }
            Purpose::LockReleaseWrite(id) => {
                if let Some(next) = self.locks.release(id, ProcId(p as u8)) {
                    let q = next.index();
                    if matches!(self.procs[q].status, ProcStatus::WaitLock) {
                        let addr = self.cfg.lock_addr(id);
                        self.procs[q].pending = Some(PendingAccess::new(
                            Access::write(addr),
                            Purpose::LockAcquireWrite(id),
                        ));
                        self.push_wake(t, q);
                    } else {
                        // The new owner is still finishing its spin read; it
                        // will see the hand-off when that read retires.
                        self.procs[q].early_release = true;
                    }
                }
                self.advance_cursor(p);
                Flow::Continue
            }
            Purpose::BarrierArriveWrite(id) => {
                if self.barrier.arrive(ProcId(p as u8)) {
                    let addr = self.cfg.barrier_flag_addr(id);
                    self.procs[p].pending =
                        Some(PendingAccess::new(Access::write(addr), Purpose::BarrierFlagWrite(id)));
                    Flow::Continue
                } else {
                    let addr = self.cfg.barrier_flag_addr(id);
                    self.procs[p].pending =
                        Some(PendingAccess::new(Access::read(addr), Purpose::BarrierSpinRead(id)));
                    Flow::Continue
                }
            }
            Purpose::BarrierSpinRead(id) => {
                if self.procs[p].early_release {
                    self.procs[p].early_release = false;
                    let addr = self.cfg.barrier_flag_addr(id);
                    self.procs[p].pending = Some(PendingAccess::new(
                        Access::read(addr),
                        Purpose::BarrierLeaveRead(id),
                    ));
                    Flow::Continue
                } else {
                    self.block_proc(p, ProcStatus::WaitBarrier);
                    Flow::Blocked
                }
            }
            Purpose::BarrierFlagWrite(id) => {
                // Reuse one scratch buffer per machine for the waiter list so
                // barrier-heavy workloads never allocate per episode.
                let mut waiters = std::mem::take(&mut self.barrier_scratch);
                self.barrier.drain_waiters_into(&mut waiters);
                for &q in &waiters {
                    let qi = q.index();
                    if matches!(self.procs[qi].status, ProcStatus::WaitBarrier) {
                        let addr = self.cfg.barrier_flag_addr(id);
                        self.procs[qi].pending = Some(PendingAccess::new(
                            Access::read(addr),
                            Purpose::BarrierLeaveRead(id),
                        ));
                        self.push_wake(t, qi);
                    } else {
                        // Still finishing its arrival spin read: it leaves
                        // as soon as that read retires.
                        self.procs[qi].early_release = true;
                    }
                }
                self.barrier_scratch = waiters;
                self.advance_cursor(p);
                Flow::Continue
            }
        }
    }

    // ---- bus handling -----------------------------------------------------

    /// Wakes `p` only if it is stalled on exactly transaction `id`; returns
    /// whether it was. Prevents a completion from resuming a processor that
    /// has since moved on to a different wait.
    fn wake_if_waiting(&mut self, now: u64, p: usize, id: TxnId) -> bool {
        if matches!(self.procs[p].status, ProcStatus::WaitMem)
            && self.procs[p].waiting_txn == Some(id)
        {
            self.procs[p].waiting_txn = None;
            self.push_wake(now, p);
            true
        } else {
            false
        }
    }

    /// Schedules a BusCheck at `t` unless one is already live at `t` or
    /// earlier. A check scheduled earlier supersedes a later one; the
    /// superseded heap entry is dropped as stale when popped (matched by
    /// `(time, sequence)`, so a later re-schedule at the same time cannot
    /// revalidate it).
    fn schedule_bus_check(&mut self, t: u64) {
        match self.bus_check_at {
            Some((existing, _)) if existing <= t => {}
            _ => {
                let seq = self.push(t, EventKind::BusCheck);
                self.bus_check_at = Some((t, seq));
            }
        }
    }

    fn on_bus_check(&mut self, now: u64, seq: u64) {
        if self.bus_check_at != Some((now, seq)) {
            return; // superseded by another check
        }
        self.bus_check_at = None;
        match self.bus.try_grant(now) {
            GrantOutcome::Granted { request, completes_at } => {
                if let Some(tr) = &mut self.tracer {
                    tr.bus_grant(now, &request, completes_at);
                }
                // Push the completion before snooping: apply_snoops may
                // schedule a BusCheck at `completes_at` (reflective
                // write-back submission), and that check must not outrank
                // this transaction's own completion in the same cycle — a
                // next-grant snoop ordered before the install would miss
                // the freshly filled copy and leave a stale sharer behind.
                self.push(completes_at, EventKind::TxnDone(request.id));
                self.apply_snoops(now, request.id, request.line);
                self.schedule_bus_check(completes_at);
            }
            GrantOutcome::BusyUntil(t) | GrantOutcome::WaitingUntil(t) => {
                self.schedule_bus_check(t);
            }
            GrantOutcome::Idle => {}
        }
    }

    /// Cross-checks the sharer table against a brute-force occupancy scan of
    /// every cache. An explicit assert, not a `debug_assert`: `--check`
    /// runs must exercise it in release builds.
    fn verify_sharer_mask(&self, line: LineAddr) {
        if !self.checking {
            return;
        }
        let mask = self.sharers.mask(line);
        for q in 0..self.cfg.num_procs {
            let tracked = mask & (1u64 << q) != 0;
            let resident = self.caches[q].state_of(line).is_some();
            assert_eq!(
                tracked, resident,
                "snoop filter out of sync for {line:?}: proc {q} tracked={tracked} resident={resident}"
            );
        }
    }

    /// Applies the coherence effect of `op` by `requestor` on `line` to
    /// every other cache holding it, in ascending processor order — the one
    /// snoop both execution modes share. A `Read` downgrades holders (a
    /// dirty one supplies the data), `ReadExclusive` and `Upgrade`
    /// invalidate them, and an `Update` broadcast hands them the word.
    /// `now` stamps the trace events of invalidated prefetches.
    fn snoop_peers(
        &mut self,
        requestor: usize,
        line: LineAddr,
        op: BusOp,
        word: u32,
        now: u64,
    ) -> Snoop {
        self.verify_sharer_mask(line);
        let mut snoop = Snoop { others: false, dirty_supplier: None };
        let mut holders = self.sharers.mask(line) & !(1u64 << requestor);
        while holders != 0 {
            let q = holders.trailing_zeros() as usize;
            holders &= holders - 1;
            let held = match op {
                BusOp::Read => {
                    let prev = self.caches[q].snoop_downgrade(line, self.cfg.protocol);
                    if prev.is_some_and(|prev| prev.is_dirty()) {
                        snoop.dirty_supplier = Some(q);
                    }
                    prev.is_some()
                }
                BusOp::ReadExclusive | BusOp::Upgrade => self.invalidate_in(now, q, line, word),
                BusOp::Update => self.caches[q].snoop_update(line, self.cfg.protocol).is_some(),
                BusOp::WriteBack => unreachable!("a write-back snoops no peer"),
            };
            snoop.others |= held;
        }
        snoop
    }

    /// Traces the snoop of `line` for `action` with every cache's state
    /// before it; `txn` is `None` for a fast-forward snoop.
    fn trace_snoop(&mut self, now: u64, txn: Option<TxnId>, line: LineAddr, action: TxnAction) {
        if self.tracer.as_ref().is_some_and(|t| t.wants_coherence(line)) {
            let states: Vec<_> =
                (0..self.cfg.num_procs).map(|q| self.caches[q].state_of(line)).collect();
            let action = format!("{action:?}");
            let states = format!("{states:?}");
            if let Some(tr) = &mut self.tracer {
                tr.snoop(now, txn, line, &action, &states);
            }
        }
    }

    /// Applies coherence effects at grant time (address broadcast): the
    /// peers' snoop, recorded for the completion, plus the reflective
    /// write-back of a dirty supplier.
    fn apply_snoops(&mut self, now: u64, id: TxnId, line: LineAddr) {
        let info = self.txns[id.index()].expect("granted txn is registered");
        self.trace_snoop(now, Some(id), line, info.action);
        let (proc, op) = match info.action {
            TxnAction::WriteBack => return,
            TxnAction::DemandFill { proc, op, .. } | TxnAction::PrefetchFill { proc, op, .. } => {
                (proc, op)
            }
            TxnAction::Upgrade { proc, .. } => {
                // If the line left the cache while this upgrade queued, abort
                // (the store will retry as a miss). A remote write that beat
                // it to the bus invalidates the line; under every protocol,
                // write-update included, the writer's own prefetch fill
                // (software or hardware) into the same set can evict it.
                if self.caches[proc.index()].state_of(line).is_none() {
                    self.tallies.upgrades_aborted += 1;
                    self.txns[id.index()].as_mut().expect("registered").aborted = true;
                    return;
                }
                (proc, protocol::write_shared_op(self.cfg.protocol))
            }
        };
        let snoop = self.snoop_peers(proc.index(), line, op, info.word, now);
        // Reflective memory (Illinois, Firefly): a dirty owner supplies the
        // data and memory is updated in the same breath — a posted
        // write-back that occupies the bus (the supplier does not stall).
        // Dragon and MOESI keep the data dirty in the supplier's cache and
        // defer the write-back to eviction. Posted even when the grant falls
        // inside a fast-forward window (a detailed-era straggler).
        if let Some(q) = snoop.dirty_supplier {
            if protocol::posts_reflective_writeback(self.cfg.protocol) {
                let at = self.bus.busy_until();
                self.submit_txn(at, q, line, BusOp::WriteBack, TxnAction::WriteBack, 0);
            }
        }
        self.txns[id.index()].as_mut().expect("registered").others_have_copy = snoop.others;
        self.verify_line(line);
    }

    /// Invalidates `line` in cache `q` (remote write of `word`, covering the
    /// victim buffer); returns whether a valid copy was present. Tracks
    /// killed-before-use prefetches.
    fn invalidate_in(&mut self, now: u64, q: usize, line: LineAddr, word: u32) -> bool {
        if let Some((_prev, unused_prefetch)) = self.caches[q].snoop_invalidate(line, word) {
            self.sharers.remove(q, line);
            if unused_prefetch {
                self.tallies.prefetch.wasted_invalidated += 1;
                self.ghosts[q].insert(line);
                if let Some(tr) = &mut self.tracer {
                    tr.prefetch(now, q, line, "wasted_invalidated");
                }
            }
            if let Some(hw) = self.hw.as_mut() {
                if hw.unused[q].remove(&line) {
                    self.tallies.hw.useless += 1;
                    if let Some(tr) = &mut self.tracer {
                        tr.prefetch(now, q, line, "useless");
                    }
                }
                // The predictor watches its cache lose lines (SMS untrains
                // the bit; others ignore it).
                hw.preds[q].on_invalidate(line);
            }
            true
        } else {
            false
        }
    }

    fn on_txn_done(&mut self, now: u64, id: TxnId) {
        let info = self.txns[id.index()].take().expect("completed txn is registered");
        self.live_txns -= 1;
        // The id is fully retired: no queue entry, no pending completion.
        // Give its slot back so the slab stays at the concurrency high-water
        // mark (anything submitted below may legitimately reuse it).
        self.bus.release(id);
        match info.action {
            TxnAction::WriteBack => {}
            TxnAction::DemandFill { proc, line, op } => {
                // Uniform window semantics: only fills *issued* inside the
                // measurement window contribute to the latency distribution
                // (a warm-up miss completing after the window opened would
                // otherwise smear its cold latency into the measured data).
                if info.issued_at >= self.measured_from {
                    self.tallies.fill_latency.record(now - info.issued_at);
                }
                let p = proc.index();
                self.install_fill(p, line, op, info.others_have_copy, false, now);
                let starved = self.procs[p]
                    .pending
                    .is_some_and(|pa| pa.stolen_fills >= STOLEN_FILL_LIMIT);
                if starved && self.procs[p].waiting_txn == Some(id) {
                    // Retire now, before anything else in this cycle can
                    // snoop the line away again.
                    self.on_wake(now, p, self.epochs[p]);
                } else {
                    let woke = self.wake_if_waiting(now, p, id);
                    debug_assert!(woke, "demand fill completion must find its waiter");
                }
            }
            TxnAction::PrefetchFill { proc, line, op } => {
                let p = proc.index();
                self.install_fill(p, line, op, info.others_have_copy, true, now);
                if let Some(tr) = &mut self.tracer {
                    tr.prefetch(now, p, line, "filled");
                }
                let slot = self.procs[p].outstanding.remove(line).expect("slot exists");
                if slot.hw && !slot.cpu_waiting {
                    // Landed ahead of demand: await its verdict (a `late`
                    // prefetch was already classified when promoted).
                    if let Some(hw) = self.hw.as_mut() {
                        hw.unused[p].insert(line);
                    }
                }
                if slot.cpu_waiting {
                    let woke = self.wake_if_waiting(now, p, id);
                    debug_assert!(woke, "in-progress waiter must still be stalled on the prefetch");
                } else if matches!(self.procs[p].status, ProcStatus::WaitPrefetchSlot) {
                    self.push_wake(now, p);
                }
            }
            TxnAction::Upgrade { proc, line } => {
                let p = proc.index();
                if !info.aborted {
                    self.complete_upgrade(p, line, info.others_have_copy);
                }
                let woke = self.wake_if_waiting(now, p, id);
                debug_assert!(woke, "upgrade completion must find its waiter");
            }
        }
        match info.action {
            TxnAction::WriteBack => {}
            TxnAction::DemandFill { proc, line, .. }
            | TxnAction::PrefetchFill { proc, line, .. }
            | TxnAction::Upgrade { proc, line } => {
                self.verify_line(line);
                // A prefetch fill just installed the line and released its
                // slot; an entry still aliasing it means the buffer
                // bookkeeping broke.
                self.verify_prefetch_buffer(proc.index());
            }
        }
    }

    /// Completes `p`'s upgrade of `line` once its peers have snooped it
    /// (`others`: any of them kept a copy). Invalidation protocols always
    /// end private-dirty (every peer was invalidated); write-update writers
    /// end shared (Firefly) or shared-modified (Dragon) when sharers remain,
    /// private-dirty when alone.
    fn complete_upgrade(&mut self, p: usize, line: LineAddr, others: bool) {
        let result = protocol::broadcast_result(self.cfg.protocol, others);
        if let Probe::Hit { way, .. } = self.caches[p].probe_line(line) {
            self.caches[p].frame_mut(line, way).downgrade(result);
        }
        if !result.can_write_silently() {
            // Sharers remain: flag the pending store so the retry observes
            // the completed broadcast, retires in the shared state and does
            // not broadcast again.
            if let Some(pa) = self.procs[p].pending.as_mut() {
                pa.update_complete = true;
            }
        }
    }

    /// Submits a bus transaction for processor `p`, parks its record in the
    /// id-indexed slab until completion and schedules a bus check. Prefetch
    /// fills queue at prefetch priority unless `prefetch_demand_priority` is
    /// set; everything else at demand.
    fn submit_txn(
        &mut self,
        now: u64,
        p: usize,
        line: LineAddr,
        op: BusOp,
        action: TxnAction,
        word: u32,
    ) -> TxnId {
        let priority = match action {
            TxnAction::PrefetchFill { .. } if !self.cfg.prefetch_demand_priority => {
                Priority::Prefetch
            }
            _ => Priority::Demand,
        };
        let txn = self.bus.submit(now, ProcId(p as u8), line, op, priority);
        // Slot indices are dense (the bus recycles them), so the slab only
        // grows to the high-water mark of concurrently live transactions.
        let idx = txn.index();
        if idx >= self.txns.len() {
            self.txns.resize(idx + 1, None);
        }
        debug_assert!(self.txns[idx].is_none(), "slab slot of {txn} still occupied");
        self.txns[idx] =
            Some(TxnInfo { issued_at: now, action, word, others_have_copy: false, aborted: false });
        self.live_txns += 1;
        self.schedule_bus_check(now);
        txn
    }

    fn install_fill(
        &mut self,
        p: usize,
        line: LineAddr,
        op: BusOp,
        others_have_copy: bool,
        by_prefetch: bool,
        now: u64,
    ) {
        let state = protocol::fill_state(self.cfg.protocol, op, others_have_copy);
        if self.tracer.as_ref().is_some_and(|t| t.wants_coherence(line)) {
            let op_s = format!("{op:?}");
            let state_s = format!("{state:?}");
            if let Some(tr) = &mut self.tracer {
                tr.fill(now, p, line, &op_s, &state_s, by_prefetch);
            }
        }
        if let Some(evicted) = self.caches[p].fill(line, state, by_prefetch) {
            self.handle_eviction(p, evicted, now);
        }
        self.sharers.add(p, line);
        self.ghosts[p].remove(&line);
    }

    /// A line left processor `p`'s cache hierarchy: write back if dirty,
    /// record prefetch waste.
    fn handle_eviction(&mut self, p: usize, evicted: charlie_cache::EvictedLine, now: u64) {
        self.sharers.remove(p, evicted.line);
        // Fast-forward: the memory update is functional and free — no posted
        // write-back is submitted to the (untimed) bus.
        if evicted.state.is_dirty() && !self.ff_active {
            self.submit_txn(now, p, evicted.line, BusOp::WriteBack, TxnAction::WriteBack, 0);
        }
        if evicted.prefetched_unused {
            self.tallies.prefetch.wasted_evicted += 1;
            self.ghosts[p].insert(evicted.line);
            if let Some(tr) = &mut self.tracer {
                tr.prefetch(now, p, evicted.line, "wasted_evicted");
            }
        }
        if let Some(hw) = self.hw.as_mut() {
            if hw.unused[p].remove(&evicted.line) {
                self.tallies.hw.useless += 1;
                if let Some(tr) = &mut self.tracer {
                    tr.prefetch(now, p, evicted.line, "useless");
                }
            }
        }
    }
}
