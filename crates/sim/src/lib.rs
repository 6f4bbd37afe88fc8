//! Event-driven bus-based multiprocessor simulator — a reimplementation of
//! the "Charlie" simulator used by Tullsen & Eggers, *"Limitations of Cache
//! Prefetching on a Bus-Based Multiprocessor"* (ISCA 1993).
//!
//! The machine consists of:
//!
//! * one in-order processor per trace stream (1 cycle/instruction, 1 cycle
//!   per cache-hit data access);
//! * a private, copy-back, lockup-free data cache per processor (default
//!   32 KB direct-mapped, 32-byte blocks) kept coherent with the Illinois
//!   write-invalidate protocol;
//! * a 16-deep prefetch buffer per processor;
//! * a split-transaction memory subsystem: 100-cycle unloaded latency whose
//!   contended data-transfer portion (4–32 cycles) is arbitrated round-robin
//!   with demand requests favoured over prefetches;
//! * trace-level lock and barrier synchronization enforced in simulated-time
//!   order, generating realistic coherence traffic.
//!
//! The [`SimReport`] exposes the paper's complete metric set: total / CPU /
//! adjusted-CPU miss rates, the Figure-3 miss-source breakdown, false-sharing
//! miss counts, bus utilization, processor utilization, and demand-fill
//! latency histograms.
//!
//! Setting the `CHARLIE_DEBUG_EVENTS` environment variable makes the engine
//! print a progress line (event counts, processor cursors and states, bus
//! queue depth) every ~4M events — useful when diagnosing a run that seems
//! stuck. Setting `CHARLIE_NO_SNOOP_FILTER` disables the sharer-tracking
//! snoop filter (see [`sharers`]) and falls back to probing every cache on
//! each bus grant; results are bit-identical either way.
//!
//! Time-resolved observability — an interval sampler producing a per-window
//! [`Timeline`] and a structured JSONL trace emitter with category filters —
//! lives in [`sample`] and is attached through [`simulate_observed`].
//! `CHARLIE_DEBUG_LINE=<substr>` still works as a shorthand: it traces
//! coherence events for matching line addresses to stderr (now in the
//! structured JSONL format).
//!
//! # Example
//!
//! ```
//! use charlie_sim::{simulate, SimConfig};
//! use charlie_trace::{Addr, TraceBuilder};
//!
//! let mut b = TraceBuilder::new(2);
//! // P0 writes a line, P1 then reads it (after a barrier).
//! b.proc(0).work(10).write(Addr::new(0x100)).barrier(0);
//! b.proc(1).barrier(0).read(Addr::new(0x100));
//! let trace = b.build();
//!
//! let cfg = SimConfig { num_procs: 2, ..SimConfig::default() };
//! let report = simulate(&cfg, &trace)?;
//! assert!(report.cycles > 100); // at least one memory fill
//! # Ok::<(), charlie_sim::SimError>(())
//! ```

pub mod check;
mod config;
mod error;
mod machine;
mod metrics;
mod proc;
pub mod sample;
pub mod sampling;
pub mod sharers;
mod sync;
mod wheel;

pub use check::CoherenceViolation;
pub use config::{Protocol, SimConfig, BARRIER_REGION_BASE, LOCK_REGION_BASE};
pub use sharers::SharerTable;
pub use error::SimError;
pub use charlie_prefetch::{HwPrefetchConfig, HwPrefetcherKind, PreparedTrace};
pub use metrics::{
    HwPrefetchStats, LatencyStats, MissBreakdown, PrefetchStats, ProcStats, SimReport,
    LATENCY_BUCKET_BOUNDS,
};
pub use sample::{
    Observability, SampleConfig, Timeline, TraceCategories, TraceEmitter, WindowSample,
};
pub use sampling::{SamplePlan, SampledWindow, Schedule, WindowKind};

/// Runs one simulation of `trace` on the machine described by `cfg`.
///
/// `trace` is a plain `&Trace` or a [`PreparedTrace`]: a raw trace with a
/// prefetch plan that the machine merges into each processor's stream as it
/// reads it. Every `simulate*` entry point takes either.
///
/// # Errors
///
/// Returns [`SimError`] if the trace fails validation, its processor count
/// does not match the configuration, or the machine deadlocks (which a
/// validated trace cannot cause).
pub fn simulate<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
) -> Result<SimReport, SimError> {
    Ok(machine::Machine::new(*cfg, trace.into())?.run()?.report)
}

/// [`simulate`], but additionally returns the number of scheduler events the
/// run processed — the denominator of the events/sec throughput metric the
/// benchmark harness records (see `charlie::bench`). The report is
/// bit-identical to [`simulate`]'s; the count is deterministic.
///
/// # Errors
///
/// Same failure modes as [`simulate`].
pub fn simulate_counted<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
) -> Result<(SimReport, u64), SimError> {
    let out = machine::Machine::new(*cfg, trace.into())?.run()?;
    Ok((out.report, out.events))
}

/// [`simulate`] with opt-in observability attachments (see
/// [`Observability`]): an interval sampler producing a per-window
/// [`Timeline`] and/or a structured JSONL [`TraceEmitter`]. With both
/// disabled (the default `Observability`) the report is bit-identical to
/// [`simulate`]'s and the timeline is `None`.
///
/// # Errors
///
/// Same failure modes as [`simulate`].
pub fn simulate_observed<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
    obs: Observability,
) -> Result<(SimReport, Option<Timeline>), SimError> {
    let out = machine::Machine::new_observed(*cfg, trace.into(), obs)?.run()?;
    Ok((out.report, out.timeline))
}

/// [`simulate_observed`] on a caller-validated trace (the `Lab` batch path).
///
/// # Errors
///
/// Same failure modes as [`simulate_prevalidated`].
pub fn simulate_observed_prevalidated<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
    obs: Observability,
) -> Result<(SimReport, Option<Timeline>), SimError> {
    let out = machine::Machine::new_prevalidated_observed(*cfg, trace.into(), obs)?.run()?;
    Ok((out.report, out.timeline))
}

/// [`simulate`] minus the upfront `trace.validate()` pass: the caller vouches
/// that `trace` already passed validation (e.g. a shared trace validated once
/// per batch instead of once per cell). Behaviour on an *invalid* trace is
/// unspecified but safe (typically [`SimError::Deadlock`] from unbalanced
/// synchronization).
///
/// # Errors
///
/// Same failure modes as [`simulate`] except [`SimError::InvalidTrace`].
pub fn simulate_prevalidated<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
) -> Result<SimReport, SimError> {
    Ok(machine::Machine::new_prevalidated(*cfg, trace.into())?.run()?.report)
}

/// [`simulate_counted`] on a caller-validated trace — the combination the
/// benchmark harness uses so its cells cost exactly what a `Lab` batch cell
/// costs.
///
/// # Errors
///
/// Same failure modes as [`simulate_prevalidated`].
pub fn simulate_counted_prevalidated<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
) -> Result<(SimReport, u64), SimError> {
    let out = machine::Machine::new_prevalidated(*cfg, trace.into())?.run()?;
    Ok((out.report, out.events))
}

/// The result of one sampled simulation pass: the (approximate) report, the
/// per-window records the estimator and phase clustering consume, and the
/// number of scheduler events processed (the sampled-speedup numerator).
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// The machine's report. In sampled mode its timing mixes detailed and
    /// fast-forward windows — use the window records, not this, for
    /// estimates; its *functional* counters (misses, access mix) are exact.
    pub report: SimReport,
    /// One record per access window, in order, tagged Fast/Warm/Detailed.
    pub windows: Vec<SampledWindow>,
    /// Scheduler events processed.
    pub events: u64,
}

/// Runs `trace` under sampled simulation: windows execute detailed or
/// functional-fast-forward according to `plan` (see [`SamplePlan`]), and one
/// [`SampledWindow`] is recorded per window. The machine's functional state
/// (caches, coherence, synchronization order) is maintained exactly in every
/// mode; only timing fidelity varies by window kind.
///
/// The configuration must have `warmup_accesses == 0`: sampled runs replace
/// the statistics warm-up with warm windows.
///
/// # Errors
///
/// Same failure modes as [`simulate`], plus [`SimError::InvalidTrace`]-style
/// validation of the plan itself (degenerate plans are rejected).
pub fn simulate_sampled<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
    plan: &SamplePlan,
) -> Result<SampledRun, SimError> {
    plan.validate().map_err(SimError::InvalidSamplePlan)?;
    if cfg.warmup_accesses != 0 {
        return Err(SimError::InvalidSamplePlan(
            "sampled simulation requires warmup_accesses == 0 (warm windows replace it)".into(),
        ));
    }
    let out = machine::Machine::new(*cfg, trace.into())?.with_plan(plan.clone()).run()?;
    Ok(SampledRun { report: out.report, windows: out.windows, events: out.events })
}

/// [`simulate_sampled`] on a caller-validated trace (the batch path).
///
/// # Errors
///
/// Same failure modes as [`simulate_sampled`] except trace validation.
pub fn simulate_sampled_prevalidated<'a>(
    cfg: &SimConfig,
    trace: impl Into<PreparedTrace<'a>>,
    plan: &SamplePlan,
) -> Result<SampledRun, SimError> {
    plan.validate().map_err(SimError::InvalidSamplePlan)?;
    if cfg.warmup_accesses != 0 {
        return Err(SimError::InvalidSamplePlan(
            "sampled simulation requires warmup_accesses == 0 (warm windows replace it)".into(),
        ));
    }
    let out =
        machine::Machine::new_prevalidated(*cfg, trace.into())?.with_plan(plan.clone()).run()?;
    Ok(SampledRun { report: out.report, windows: out.windows, events: out.events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::{Addr, Trace, TraceBuilder};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_procs: n, ..SimConfig::default() }
    }

    /// One processor, one read: a cold miss costing ~100 cycles.
    #[test]
    fn single_cold_miss_costs_total_latency() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.miss.cpu_misses(), 1);
        assert_eq!(r.miss.non_sharing_not_prefetched, 1);
        assert_eq!(r.reads, 1);
        // unloaded: 100 (fill) + 2 (instruction + data cycle on retire)
        assert_eq!(r.cycles, 102);
        assert_eq!(r.bus.reads, 1);
    }

    #[test]
    fn hit_after_fill_is_fast() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100)).read(Addr::new(0x104)).read(Addr::new(0x11c));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.miss.cpu_misses(), 1);
        assert_eq!(r.reads, 3);
        assert_eq!(r.cycles, 106); // 100 + 3 × 2-cycle hit retires
    }

    #[test]
    fn work_advances_time_without_traffic() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(500);
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.cycles, 500);
        assert_eq!(r.bus.total_ops(), 0);
        assert!((r.avg_processor_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_miss_uses_read_exclusive() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).write(Addr::new(0x100));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.bus.read_exclusives, 1);
        assert_eq!(r.bus.reads, 0);
        assert_eq!(r.writes, 1);
    }

    /// Illinois: read fill with no other holder is private-clean, so a
    /// subsequent write needs no upgrade.
    #[test]
    fn illinois_private_clean_write_is_silent() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100)).write(Addr::new(0x104));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.upgrades, 0);
        assert_eq!(r.bus.total_ops(), 1);
    }

    /// Two processors read-share, then one writes: upgrade + invalidation
    /// miss on the other side.
    #[test]
    fn upgrade_and_invalidation_miss() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).read(Addr::new(0x100)).barrier(0).write(Addr::new(0x100)).barrier(1);
        b.proc(1).read(Addr::new(0x100)).barrier(0).barrier(1).read(Addr::new(0x100));
        let r = simulate(&cfg(2), &b.build()).unwrap();
        // At least the data-line upgrade; barrier flag writes may add more.
        assert!(r.upgrades >= 1, "write hit on shared line upgrades");
        // P1's final read: tags match, state invalid → invalidation miss.
        assert!(r.miss.invalidation() >= 1);
        // Same word written as read → true sharing, not false sharing.
        assert_eq!(r.false_sharing_misses, 0);
    }

    /// False sharing: P0 writes word 0, P1 was using word 7 of the same line.
    #[test]
    fn false_sharing_is_detected() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).read(Addr::new(0x11c)).barrier(0).write(Addr::new(0x100)).barrier(1);
        b.proc(1).read(Addr::new(0x11c)).barrier(0).barrier(1).read(Addr::new(0x11c));
        let r = simulate(&cfg(2), &b.build()).unwrap();
        assert!(r.miss.invalidation() >= 1);
        assert!(r.false_sharing_misses >= 1, "remote write to an untouched word");
    }

    /// A prefetch hides the fill latency: the demand access hits.
    #[test]
    fn prefetch_hides_latency() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).prefetch(Addr::new(0x100)).work(150).read(Addr::new(0x100));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.miss.cpu_misses(), 0, "demand access must hit");
        assert_eq!(r.prefetch.fills, 1);
        assert_eq!(r.cycles, 153); // 1 (prefetch) + 150 (work) + 2 (hit)
    }

    /// Too-late prefetch: demand access arrives while the prefetch is still
    /// in flight → prefetch-in-progress miss, paying only the remainder.
    #[test]
    fn prefetch_in_progress_pays_remainder() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).prefetch(Addr::new(0x100)).work(50).read(Addr::new(0x100));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.miss.prefetch_in_progress, 1);
        assert_eq!(r.miss.adjusted_cpu_misses(), 0);
        // Fill completes at 101 (issued at t=1); read retires at 103.
        assert_eq!(r.cycles, 103);
        assert!(r.cycles < 1 + 50 + 101, "must be cheaper than a full miss");
    }

    /// A prefetched-but-unused line invalidated by a remote write shows up
    /// in the invalidation-prefetched miss category.
    #[test]
    fn invalidated_prefetch_classified() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).prefetch(Addr::new(0x100)).work(200).barrier(0).work(200).read(Addr::new(0x100));
        b.proc(1).work(10).barrier(0).write(Addr::new(0x100));
        let r = simulate(&cfg(2), &b.build()).unwrap();
        assert_eq!(r.prefetch.wasted_invalidated, 1);
        assert_eq!(r.miss.invalidation_prefetched, 1);
    }

    /// Prefetched line replaced before use (conflict with a demand fill).
    #[test]
    fn evicted_prefetch_classified() {
        let mut b = TraceBuilder::new(1);
        // 0x100 and 0x8100 conflict in a 32 KB direct-mapped cache.
        b.proc(0)
            .prefetch(Addr::new(0x100))
            .work(200)
            .read(Addr::new(0x8100))
            .read(Addr::new(0x100));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.prefetch.wasted_evicted, 1);
        assert_eq!(r.miss.non_sharing_prefetched, 1, "miss on the killed prefetch");
        assert_eq!(r.miss.non_sharing_not_prefetched, 1, "the conflicting demand miss");
    }

    /// Exclusive prefetch invalidates the remote copy at grant time.
    #[test]
    fn exclusive_prefetch_invalidates_remote() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).read(Addr::new(0x100)).barrier(0).work(300).read(Addr::new(0x100));
        b.proc(1).barrier(0).prefetch_exclusive(Addr::new(0x100)).work(300).barrier(1);
        b.proc(0).barrier(1);
        let r = simulate(&cfg(2), &b.build()).unwrap();
        // P0's second read finds its line invalidated by the exclusive
        // prefetch.
        assert!(r.miss.invalidation() >= 1);
    }

    /// Lock hand-off serializes the critical sections.
    #[test]
    fn locks_serialize() {
        let mut b = TraceBuilder::new(2);
        for p in 0..2 {
            b.proc(p).lock(0).work(1000).write(Addr::new(0x500)).unlock(0);
        }
        let r = simulate(&cfg(2), &b.build()).unwrap();
        // Two serialized 1000-cycle critical sections.
        assert!(r.cycles > 2000, "critical sections must serialize, got {}", r.cycles);
    }

    /// Barrier keeps a fast processor waiting for a slow one.
    #[test]
    fn barrier_synchronizes() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).work(10).barrier(0).work(5);
        b.proc(1).work(5000).barrier(0).work(5);
        let r = simulate(&cfg(2), &b.build()).unwrap();
        let f0 = r.per_proc[0].finish_time;
        let f1 = r.per_proc[1].finish_time;
        assert!(f0 >= 5000, "P0 must wait at the barrier (finished {f0})");
        assert!((f0 as i64 - f1 as i64).abs() < 500);
        assert!(r.per_proc[0].stall_cycles >= 4000);
    }

    /// Prefetch buffer depth limits outstanding prefetches.
    #[test]
    fn prefetch_buffer_fills_up() {
        let mut cfg2 = cfg(1);
        cfg2.prefetch_buffer_depth = 2;
        let mut b = TraceBuilder::new(1);
        let mut pb = b.proc(0);
        for i in 0..4u64 {
            pb.prefetch(Addr::new(0x1000 + i * 32));
        }
        pb.work(1000);
        let r = simulate(&cfg2, &b.build()).unwrap();
        assert!(r.prefetch.buffer_stalls >= 1, "4 prefetches through a 2-deep buffer must stall");
        assert_eq!(r.prefetch.fills, 4);
    }

    /// Duplicate prefetches and prefetches of resident lines are dropped.
    #[test]
    fn redundant_prefetches_dropped() {
        let mut b = TraceBuilder::new(1);
        b.proc(0)
            .read(Addr::new(0x100)) // brings the line in
            .prefetch(Addr::new(0x104)) // resident → dropped
            .prefetch(Addr::new(0x200))
            .prefetch(Addr::new(0x204)) // duplicate of in-flight → dropped
            .work(300);
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.prefetch.executed, 3);
        assert_eq!(r.prefetch.hits, 1);
        assert_eq!(r.prefetch.duplicates, 1);
        assert_eq!(r.prefetch.fills, 1);
    }

    /// Dirty eviction produces a write-back bus operation.
    #[test]
    fn dirty_eviction_writes_back() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).write(Addr::new(0x100)).read(Addr::new(0x8100)).work(200);
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.bus.writebacks, 1);
    }

    /// Reports are deterministic.
    #[test]
    fn deterministic_across_runs() {
        let mut b = TraceBuilder::new(2);
        for p in 0..2 {
            b.proc(p).lock(0).write(Addr::new(0x100)).unlock(0).barrier(0).read(Addr::new(0x200));
        }
        let t = b.build();
        let r1 = simulate(&cfg(2), &t).unwrap();
        let r2 = simulate(&cfg(2), &t).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn rejects_proc_count_mismatch() {
        let t = TraceBuilder::new(2).build();
        assert!(matches!(
            simulate(&cfg(3), &t),
            Err(SimError::ProcCountMismatch { config: 3, trace: 2 })
        ));
    }

    #[test]
    fn rejects_invalid_trace() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).unlock(7);
        assert!(matches!(simulate(&cfg(1), &b.build()), Err(SimError::InvalidTrace(_))));
    }

    /// Empty trace completes immediately.
    #[test]
    fn empty_trace_is_fine() {
        let t = TraceBuilder::new(2).build();
        let r = simulate(&cfg(2), &t).unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.demand_accesses(), 0);
    }

    /// Cache-to-cache: a dirty line read by another processor is supplied
    /// and both end up shared; the reader's later write upgrades.
    #[test]
    fn dirty_supply_downgrades_owner() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100)).barrier(0).work(500).write(Addr::new(0x100));
        b.proc(1).barrier(0).read(Addr::new(0x100)).work(500);
        let r = simulate(&cfg(2), &b.build()).unwrap();
        // P0's second write is a hit on a now-shared line → upgrade.
        assert_eq!(r.upgrades, 1);
    }

    /// Racing upgrades: two processors write the same shared line at the
    /// same moment; the bus serializes them, the loser's upgrade aborts (its
    /// line was invalidated while queued) and retries as a miss.
    #[test]
    fn racing_upgrades_abort_cleanly() {
        let mut b = TraceBuilder::new(2);
        for p in 0..2 {
            // Both read (line becomes shared), sync up, then both write
            // simultaneously.
            b.proc(p).read(Addr::new(0x100)).barrier(0).write(Addr::new(0x104 + p as u64 * 8));
        }
        let r = simulate(&cfg(2), &b.build()).unwrap();
        // One write wins the upgrade; the loser either aborted its queued
        // upgrade or missed outright after the winner's invalidation. (The
        // barrier release adds one more invalidation miss on the flag line.)
        assert!(r.upgrades >= 1);
        assert!(
            r.upgrades_aborted >= 1 || r.miss.invalidation() >= 2,
            "the loser must pay: aborted={} inval={}",
            r.upgrades_aborted,
            r.miss.invalidation()
        );
        assert_eq!(r.writes, 2 + 3, "both stores retire (plus 3 barrier sync writes)");
        // And the whole machine still balances.
        assert_eq!(
            r.bus.reads + r.bus.read_exclusives,
            r.miss.adjusted_cpu_misses() + r.prefetch.fills + r.demand_refills
        );
    }

    /// Fill-latency accounting: an unloaded fill takes exactly the 100-cycle
    /// total latency; contention pushes the mean above it.
    #[test]
    fn fill_latency_measures_queueing() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100));
        let r = simulate(&cfg(1), &b.build()).unwrap();
        assert_eq!(r.fill_latency.count(), 1);
        assert_eq!(r.fill_latency.min(), Some(100));
        assert_eq!(r.fill_latency.max(), Some(100));

        // Eight processors streaming on a slow bus: queueing dominates.
        let mut b = TraceBuilder::new(8);
        for p in 0..8 {
            let mut pb = b.proc(p);
            for i in 0..40u64 {
                pb.read(Addr::new(0x10_0000 * (p as u64 + 1) + i * 32));
            }
        }
        let crowded = simulate(&SimConfig::paper(8, 32), &b.build()).unwrap();
        assert!(
            crowded.fill_latency.mean() > 130.0,
            "queueing must raise the mean latency, got {:.1}",
            crowded.fill_latency.mean()
        );
        assert_eq!(crowded.fill_latency.count(), 8 * 40);
    }

    /// Write-update protocol: invalidation misses disappear entirely; the
    /// cost moves to word-broadcast bus traffic.
    #[test]
    fn write_update_eliminates_invalidation_misses() {
        let mk = || {
            let mut b = TraceBuilder::new(2);
            // Classic invalidation ping-pong: P0 writes, P1 reads, repeat.
            for round in 0..20u32 {
                b.proc(0).write(Addr::new(0x100)).work(50).barrier(2 * round);
                b.proc(1).work(10).barrier(2 * round);
                b.proc(1).read(Addr::new(0x100)).work(50).barrier(2 * round + 1);
                b.proc(0).work(10).barrier(2 * round + 1);
            }
            b.build()
        };
        let inval = simulate(&cfg(2), &mk()).unwrap();
        assert!(inval.miss.invalidation() >= 15, "ping-pong causes invalidation misses");

        let mut ucfg = cfg(2);
        ucfg.protocol = Protocol::WriteUpdate;
        let update = simulate(&ucfg, &mk()).unwrap();
        assert_eq!(update.miss.invalidation(), 0, "no invalidations under write-update");
        assert_eq!(update.false_sharing_misses, 0);
        assert!(
            update.upgrades > inval.upgrades,
            "every shared write broadcasts ({} vs {})",
            update.upgrades,
            inval.upgrades
        );
        assert!(update.cycles < inval.cycles, "ping-pong reads now hit");
    }

    /// Write-update: a processor that becomes the only holder takes
    /// exclusive ownership and stops broadcasting.
    #[test]
    fn write_update_sole_owner_goes_silent() {
        let mut ucfg = cfg(1);
        ucfg.protocol = Protocol::WriteUpdate;
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100)).write(Addr::new(0x100)).write(Addr::new(0x104));
        let r = simulate(&ucfg, &b.build()).unwrap();
        // Sole holder: the read fills private-clean, writes are silent.
        assert_eq!(r.upgrades, 0);
        assert_eq!(r.bus.total_ops(), 1);
    }

    /// Victim buffer: a conflict-evicted line is recalled cheaply instead of
    /// refetched from memory.
    #[test]
    fn victim_buffer_catches_conflicts() {
        let mk = || {
            let mut b = TraceBuilder::new(1);
            // 0x0 and 0x8000 alias in a 32 KB direct-mapped cache; ping-pong.
            let mut p = b.proc(0);
            for _ in 0..50 {
                p.read(Addr::new(0x0)).read(Addr::new(0x8000));
            }
            b.build()
        };
        let plain = simulate(&cfg(1), &mk()).unwrap();
        assert!(plain.miss.cpu_misses() >= 99, "ping-pong misses every time");
        assert_eq!(plain.victim_hits, 0);

        let mut vcfg = cfg(1);
        vcfg.victim_entries = 4;
        let with_victim = simulate(&vcfg, &mk()).unwrap();
        assert_eq!(with_victim.miss.cpu_misses(), 2, "only the two cold misses remain");
        assert!(with_victim.victim_hits >= 98);
        assert!(with_victim.cycles < plain.cycles / 4, "victim swaps are cheap");
    }

    /// Victim-buffered lines stay coherent: a remote write must invalidate
    /// them (the later local access misses and refetches).
    #[test]
    fn victim_buffer_is_coherent() {
        let mut vcfg = cfg(2);
        vcfg.victim_entries = 4;
        let mut b = TraceBuilder::new(2);
        b.proc(0)
            .read(Addr::new(0x0)) // cache 0x0...
            .read(Addr::new(0x8000)) // ...evict it to the victim buffer
            .barrier(0)
            .work(300)
            .read(Addr::new(0x4)); // stale victim copy must NOT satisfy this
        b.proc(1).barrier(0).write(Addr::new(0x0)).work(300);
        let r = simulate(&vcfg, &b.build()).unwrap();
        // The remote write must drop the buffered copy: P0's final read may
        // not be served from the victim buffer (that would read stale data),
        // and it misses as non-sharing (the dropped entry leaves no ghost).
        assert_eq!(r.victim_hits, 0, "stale victim copy must not satisfy the read");
        assert!(r.miss.non_sharing() >= 3, "the final read refetches from memory");
    }

    /// Warm-up windowing: cold misses are excluded from the measured rates
    /// while execution time still covers the whole run.
    #[test]
    fn warmup_excludes_cold_misses() {
        // 64 lines touched twice: cold pass (64 misses) then a warm pass.
        let mut b = TraceBuilder::new(1);
        {
            let mut p = b.proc(0);
            for pass in 0..2 {
                for i in 0..64u64 {
                    p.work(3).read(Addr::new(0x4000 + i * 32));
                }
                let _ = pass;
            }
        }
        let t = b.build();
        let cold = simulate(&cfg(1), &t).unwrap();
        assert_eq!(cold.miss.cpu_misses(), 64);

        let mut warm_cfg = cfg(1);
        warm_cfg.warmup_accesses = 64;
        let warm = simulate(&warm_cfg, &t).unwrap();
        assert_eq!(warm.miss.cpu_misses(), 0, "second pass is all hits");
        assert_eq!(warm.demand_accesses(), 64, "only the measured window counts");
        assert_eq!(warm.cycles, cold.cycles, "execution time covers the whole run");
        assert!(warm.measured_from > 0);
        assert!(
            warm.avg_processor_utilization() > 0.9,
            "steady state is all hits: util {:.2}",
            warm.avg_processor_utilization()
        );
        assert_eq!(warm.bus.total_ops(), 0, "bus stats reset at the boundary");
    }

    /// Contention: many processors missing simultaneously queue on the bus,
    /// so average miss latency exceeds the unloaded 100 cycles.
    #[test]
    fn bus_contention_stretches_execution() {
        let n = 8;
        let mk = |procs: usize| {
            let mut b = TraceBuilder::new(procs);
            for p in 0..procs {
                let mut pb = b.proc(p);
                for i in 0..50u64 {
                    // Distinct private lines per processor: pure capacity traffic.
                    pb.read(Addr::new(0x10_0000 * (p as u64 + 1) + i * 32));
                }
            }
            b.build()
        };
        let solo = simulate(&cfg(1), &mk(1)).unwrap();
        let crowd = simulate(&SimConfig::paper(n, 32), &mk(n)).unwrap();
        assert!(
            crowd.cycles > solo.cycles,
            "8 procs on a slow bus ({}) must be slower than 1 proc on a fast one ({})",
            crowd.cycles,
            solo.cycles
        );
        assert!(crowd.bus_utilization() > 0.5);
    }

    fn watchdog_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        for p in 0..2 {
            let mut pb = b.proc(p);
            for i in 0..200u64 {
                pb.work(2).read(Addr::new(0x1000 + i * 32)).write(Addr::new(0x9000));
            }
        }
        b.build()
    }

    /// Watchdog: a tiny event budget aborts with last-progress diagnostics.
    #[test]
    fn watchdog_trips_with_progress_metrics() {
        let mut wcfg = cfg(2);
        wcfg.max_events = 50;
        match simulate(&wcfg, &watchdog_trace()) {
            Err(SimError::BudgetExceeded { events, cycles, retired, blocked }) => {
                assert!(events > 50);
                assert!(cycles > 0);
                assert!(retired > 0, "some trace events retire before the budget trips");
                let _ = blocked;
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    /// The watchdog trips at the same event deterministically, so a re-run
    /// reproduces the exact same diagnostic.
    #[test]
    fn watchdog_is_deterministic() {
        let mut wcfg = cfg(2);
        wcfg.max_events = 123;
        let t = watchdog_trace();
        let a = simulate(&wcfg, &t).unwrap_err();
        let b = simulate(&wcfg, &t).unwrap_err();
        assert_eq!(a, b);
    }

    /// An ample budget must not perturb the run in any way: the report is
    /// bit-identical to an unbudgeted one.
    #[test]
    fn ample_budget_changes_nothing() {
        let t = watchdog_trace();
        let plain = simulate(&cfg(2), &t).unwrap();
        let mut wcfg = cfg(2);
        wcfg.max_events = 100_000_000;
        let budgeted = simulate(&wcfg, &t).unwrap();
        assert_eq!(plain, budgeted);
    }

    /// The wall-clock watchdog aborts a run that outlives its limit. A 1 ms
    /// limit against a trace large enough to need far longer (every access
    /// contends for one hot line, and debug builds run the invariant checker
    /// per transaction) trips reliably; the exact event count is timing-
    /// dependent, so only the error's shape is asserted.
    #[test]
    fn wall_clock_watchdog_trips() {
        let procs = 4;
        let mut b = TraceBuilder::new(procs);
        for p in 0..procs {
            let mut pb = b.proc(p);
            for i in 0..6000u64 {
                pb.read(Addr::new(0x1000 + (i % 64) * 32)).write(Addr::new(0x9000));
            }
        }
        let mut wcfg = SimConfig::paper(procs, 8);
        wcfg.wall_limit_ms = 1;
        match simulate(&wcfg, &b.build()) {
            Err(SimError::WallClockExceeded { limit_ms, events, .. }) => {
                assert_eq!(limit_ms, 1);
                assert!(events >= 4096, "first check happens at event 4096, got {events}");
            }
            other => panic!("expected WallClockExceeded, got {other:?}"),
        }
    }

    /// An ample wall-clock limit must not perturb the run: the report is
    /// bit-identical to an unlimited one.
    #[test]
    fn ample_wall_limit_changes_nothing() {
        let t = watchdog_trace();
        let plain = simulate(&cfg(2), &t).unwrap();
        let mut wcfg = cfg(2);
        wcfg.wall_limit_ms = 600_000;
        let limited = simulate(&wcfg, &t).unwrap();
        assert_eq!(plain, limited);
    }

    /// Invariant checking enabled explicitly: a healthy run passes and the
    /// report is bit-identical to an unchecked one (the checker only reads).
    #[test]
    fn invariant_checker_passes_healthy_runs_unchanged() {
        let mut b = TraceBuilder::new(4);
        for p in 0..4usize {
            let mut pb = b.proc(p);
            // Shared reads, private writes, prefetches, and a lock: exercise
            // every state transition under the checker's eye.
            for i in 0..50u64 {
                pb.work(1)
                    .read(Addr::new(0x2000 + i * 32))
                    .prefetch(Addr::new(0x4000 + (p as u64) * 0x1000 + i * 32))
                    .write(Addr::new(0x8000 + (p as u64) * 0x40));
            }
            pb.lock(0).write(Addr::new(0x600)).unlock(0).barrier(0);
        }
        let t = b.build();
        let plain = simulate(&cfg(4), &t).unwrap();
        let mut ccfg = cfg(4);
        ccfg.check_invariants = true;
        let checked = simulate(&ccfg, &t).unwrap();
        assert_eq!(plain, checked);
    }

    /// Tiny deterministic generator for the warm-up regression workloads
    /// (not a statistical RNG — just a reproducible mixer).
    struct Lcg(u64);
    impl Lcg {
        fn seeded(seed: u64) -> Self {
            Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
        }
        fn next(&mut self) -> u64 {
            self.0 =
                self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn pick(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A contended workload mixing all four bus-occupancy shapes: shared-line
    /// writes (2-cycle upgrades), reads of remote-dirty lines (reflective
    /// write-backs), private conflict writes (fills + eviction write-backs),
    /// and think-time jitter that desynchronizes retires from bus grants.
    fn contended_mixed_trace(seed: u64) -> (usize, Trace) {
        let mut rng = Lcg::seeded(seed);
        let n = [2usize, 4, 8][rng.pick(3) as usize];
        let accesses = 30 + rng.pick(50);
        let mut b = TraceBuilder::new(n);
        for p in 0..n {
            let mut pb = b.proc(p);
            for _ in 0..accesses {
                match rng.pick(10) {
                    0..=2 => {
                        pb.write(Addr::new(0x2000 + rng.pick(8) * 32));
                    }
                    3..=4 => {
                        pb.read(Addr::new(0x2000 + rng.pick(8) * 32));
                    }
                    5..=8 => {
                        pb.write(Addr::new(0x100_0000 * (p as u64 + 1) + rng.pick(6) * 0x8000));
                    }
                    _ => {
                        pb.work(1 + rng.pick(5) as u32);
                    }
                }
            }
        }
        (n, b.build())
    }

    /// Regression for the warm-up measurement-window bug: however late the
    /// measured window opens, reported bus utilization must stay ≤ 1.0.
    /// Before bus-side window clipping and the trailing-occupancy
    /// adjustment, a grant whose occupancy straddled `cycles` (a posted
    /// write-back completing after the last retire) was counted in full
    /// against a short measured window. With a 2-cycle upgrade at the
    /// window-opening retire (instead of a symmetric 32-cycle transfer) the
    /// over- and under-count no longer cancel, and these seeds reported
    /// utilizations up to 1.07.
    #[test]
    fn warmup_bus_utilization_never_exceeds_one() {
        let mut busiest = 0.0f64;
        for seed in [0u64, 12, 17] {
            let (n, t) = contended_mixed_trace(seed);
            let base = simulate(&SimConfig::paper(n, 32), &t).unwrap();
            let total = base.reads + base.writes;
            for tail in 1..15u64.min(total) {
                let mut wcfg = SimConfig::paper(n, 32);
                wcfg.warmup_accesses = total - tail;
                let r = simulate(&wcfg, &t).unwrap();
                let util = r.bus_utilization();
                assert!(
                    util <= 1.0,
                    "seed {seed} tail {tail}: utilization can never exceed 1.0, got {util:.4}"
                );
                busiest = busiest.max(util);
            }
        }
        assert!(busiest > 0.5, "tail windows should see real contention: {busiest:.3}");
    }

    /// The interval sampler is an observer: with sampling on, the report is
    /// bit-identical to an unsampled run, and the timeline's window deltas
    /// sum back to the final counters.
    #[test]
    fn sampling_does_not_perturb_reports() {
        let t = watchdog_trace();
        let plain = simulate(&cfg(2), &t).unwrap();
        let (observed, timeline) =
            simulate_observed(&cfg(2), &t, Observability::sampled(500)).unwrap();
        assert_eq!(plain, observed, "sampling must not perturb the simulation");
        let tl = timeline.expect("sampling was enabled");
        assert!(!tl.windows.is_empty());
        assert_eq!(tl.total_bus_busy(), observed.bus.busy_cycles);
        assert_eq!(tl.total_accesses(), observed.demand_accesses());
        // Windows tile the run: contiguous, ending at the final cycle.
        for pair in tl.windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(tl.windows.first().unwrap().start, 0);
        assert_eq!(tl.windows.last().unwrap().end, observed.cycles);
        // Default observability: no sampler, no timeline.
        let (unobserved, none) =
            simulate_observed(&cfg(2), &t, Observability::default()).unwrap();
        assert_eq!(plain, unobserved);
        assert!(none.is_none());
    }

    /// Sampling composes with warm-up: the sampler rebases when the window
    /// opens, so the timeline covers exactly `measured_from..cycles` and its
    /// sums match the windowed counters.
    #[test]
    fn sampling_rebases_at_warmup_boundary() {
        let mut b = TraceBuilder::new(1);
        {
            let mut p = b.proc(0);
            for _pass in 0..2 {
                for i in 0..64u64 {
                    p.work(3).read(Addr::new(0x4000 + i * 32));
                }
            }
        }
        let t = b.build();
        let mut warm_cfg = cfg(1);
        warm_cfg.warmup_accesses = 64;
        let plain = simulate(&warm_cfg, &t).unwrap();
        let (observed, timeline) =
            simulate_observed(&warm_cfg, &t, Observability::sampled(50)).unwrap();
        assert_eq!(plain, observed);
        let tl = timeline.expect("sampling was enabled");
        assert_eq!(
            tl.windows.first().unwrap().start,
            observed.measured_from,
            "warm-up windows are discarded at the rebase"
        );
        assert_eq!(tl.windows.last().unwrap().end, observed.cycles);
        assert_eq!(tl.total_accesses(), observed.demand_accesses());
        let busy_sum: u64 = tl.windows.iter().map(|w| w.proc_busy_cycles).sum();
        let busy_final: u64 = observed.per_proc.iter().map(|p| p.busy_cycles).sum();
        assert_eq!(busy_sum, busy_final);
    }

    /// A disabled hardware prefetcher (kind Off, or any kind at degree 0) is
    /// the zero-cost path: reports are bit-identical to the default config
    /// and the hardware counters stay empty.
    #[test]
    fn hw_prefetch_off_is_bit_identical() {
        let (n, t) = contended_mixed_trace(7);
        let plain = simulate(&SimConfig::paper(n, 32), &t).unwrap();
        assert!(plain.hw_prefetch.is_empty());
        for off in [
            HwPrefetchConfig::OFF,
            HwPrefetchConfig { kind: HwPrefetcherKind::Stride, degree: 0, distance: 4 },
            HwPrefetchConfig { kind: HwPrefetcherKind::Markov, degree: 0, distance: 0 },
        ] {
            let mut hcfg = SimConfig::paper(n, 32);
            hcfg.hw_prefetch = off;
            let r = simulate(&hcfg, &t).unwrap();
            assert_eq!(plain, r, "disabled hw prefetcher must not perturb anything ({off})");
        }
    }

    /// A stride prefetcher on a pure sequential stream covers most misses
    /// and speeds the run up; the accuracy accounting stays exact.
    #[test]
    fn hw_stride_covers_sequential_stream() {
        let mut b = TraceBuilder::new(1);
        {
            let mut p = b.proc(0);
            for i in 0..200u64 {
                p.work(20).read(Addr::new(0x10_0000 + i * 32));
            }
        }
        let t = b.build();
        let plain = simulate(&cfg(1), &t).unwrap();
        assert_eq!(plain.miss.cpu_misses(), 200, "every line is cold without prefetching");

        let mut hcfg = cfg(1);
        hcfg.hw_prefetch = HwPrefetchConfig::stride(2, 4);
        let r = simulate(&hcfg, &t).unwrap();
        assert!(r.hw_prefetch.issued > 100, "the stream trains the stride table");
        assert!(
            r.hw_prefetch.covered() > r.hw_prefetch.issued / 2,
            "most prefetches are demanded: {:?}",
            r.hw_prefetch
        );
        assert_eq!(
            r.hw_prefetch.useful + r.hw_prefetch.late + r.hw_prefetch.useless,
            r.hw_prefetch.issued,
            "every issued hardware prefetch is classified exactly once"
        );
        assert!(
            r.miss.adjusted_cpu_misses() < plain.miss.cpu_misses() / 2,
            "coverage must cut the adjusted miss count: {} vs {}",
            r.miss.adjusted_cpu_misses(),
            plain.miss.cpu_misses()
        );
        assert!(r.cycles < plain.cycles, "hidden latency shortens the run");
    }

    /// Every hardware prefetcher keeps both the accuracy identity and the
    /// machine-wide bus-balance identity on contended multi-processor
    /// workloads (which exercise invalidation and eviction of unused
    /// hardware fills), with and without a warm-up window.
    #[test]
    fn hw_prefetchers_keep_accounting_identities() {
        for kind in HwPrefetcherKind::ONLINE {
            for seed in [0u64, 12, 17] {
                let (n, t) = contended_mixed_trace(seed);
                let mut hcfg = SimConfig::paper(n, 32);
                hcfg.hw_prefetch =
                    HwPrefetchConfig { kind, degree: 2, distance: 4 };
                for warmup in [0u64, 40] {
                    hcfg.warmup_accesses = warmup;
                    let r = simulate(&hcfg, &t).unwrap();
                    let h = r.hw_prefetch;
                    assert_eq!(
                        h.useful + h.late + h.useless,
                        h.issued,
                        "{kind:?} seed {seed} warmup {warmup}: classification must partition {h:?}"
                    );
                    // The bus-balance identity is exact only without a
                    // warm-up window (fills issued before but granted after
                    // the boundary smear the windowed counters).
                    if warmup == 0 {
                        assert_eq!(
                            r.bus.reads + r.bus.read_exclusives,
                            r.miss.adjusted_cpu_misses() + r.prefetch.fills + r.demand_refills,
                            "{kind:?} seed {seed}: bus balance must hold"
                        );
                    }
                    // Deterministic like everything else in the machine.
                    assert_eq!(r, simulate(&hcfg, &t).unwrap());
                }
            }
        }
    }

    // ---- sampled simulation ------------------------------------------

    /// An all-detailed plan adds only window bookkeeping: the report must be
    /// bit-identical to the plain path's on contended multiprocessor runs.
    #[test]
    fn sampled_all_detailed_is_exact() {
        for seed in 0..20 {
            let (n, t) = contended_mixed_trace(seed);
            let cfg = SimConfig { num_procs: n, warmup_accesses: 0, ..SimConfig::default() };
            let exact = simulate(&cfg, &t).unwrap();
            let plan = SamplePlan::periodic(37, 1, 0);
            let run = simulate_sampled(&cfg, &t, &plan).unwrap();
            assert_eq!(run.report, exact, "seed {seed}: all-detailed must match exact");
            let total: u64 = run.windows.iter().map(|w| w.accesses).sum();
            assert_eq!(total, exact.reads + exact.writes, "seed {seed}: windows must tile");
            assert!(run.windows.iter().all(|w| w.kind == WindowKind::Detailed));
        }
    }

    /// Sampled runs keep functional state exact: window records tile the
    /// demand-access stream, every mode appears, the coherence checker stays
    /// green, and the run is deterministic.
    #[test]
    fn sampled_mixed_plan_is_consistent_and_deterministic() {
        for seed in 0..20 {
            let (n, t) = contended_mixed_trace(seed);
            let cfg = SimConfig {
                num_procs: n,
                warmup_accesses: 0,
                check_invariants: true,
                ..SimConfig::default()
            };
            let plan = SamplePlan::periodic(23, 4, 1);
            let a = simulate_sampled(&cfg, &t, &plan).unwrap();
            let b = simulate_sampled(&cfg, &t, &plan).unwrap();
            assert_eq!(a.report, b.report, "seed {seed}: sampled runs must be deterministic");
            assert_eq!(a.windows, b.windows, "seed {seed}");
            let total: u64 = a.windows.iter().map(|w| w.accesses).sum();
            assert_eq!(total, a.report.reads + a.report.writes, "seed {seed}: windows tile");
            // Every full window holds exactly the plan quota.
            for w in &a.windows[..a.windows.len() - 1] {
                assert_eq!(w.accesses, 23, "seed {seed} window {}", w.index);
            }
            // Fast windows submit no bus transactions of their own; the only
            // bus traffic they can carry is the preceding detailed window's
            // in-flight stragglers draining (plus rare conflict fallbacks),
            // so across the run the detailed/warm windows must account for
            // the overwhelming share of bus operations.
            let (fast_ops, slow_ops): (u64, u64) = a.windows.iter().fold((0, 0), |(f, s), w| {
                if w.kind == WindowKind::Fast {
                    (f + w.bus_ops, s)
                } else {
                    (f, s + w.bus_ops)
                }
            });
            assert!(
                fast_ops <= slow_ops,
                "seed {seed}: fast windows carried {fast_ops} bus ops vs {slow_ops} detailed"
            );
        }
    }

    /// Pure fast-forward: functionally complete (every access retires, the
    /// checker stays green) with zero bus traffic, and much cheaper in
    /// scheduler events than the detailed run.
    #[test]
    fn pure_fast_forward_is_functional_and_cheap() {
        for seed in 0..10 {
            let (n, t) = contended_mixed_trace(seed);
            let cfg = SimConfig {
                num_procs: n,
                warmup_accesses: 0,
                check_invariants: true,
                ..SimConfig::default()
            };
            let exact = simulate_counted(&cfg, &t).unwrap();
            let ff = simulate_sampled(&cfg, &t, &SamplePlan::fast_forward(16)).unwrap();
            assert_eq!(
                ff.report.reads + ff.report.writes,
                exact.0.reads + exact.0.writes,
                "seed {seed}: every access retires under fast-forward"
            );
            assert_eq!(ff.report.bus.total_ops(), 0, "seed {seed}: no bus traffic in pure FF");
            assert!(
                ff.events < exact.1,
                "seed {seed}: FF must process fewer events ({} vs {})",
                ff.events,
                exact.1
            );
        }
    }

    /// Software prefetching under fast-forward: the oracle trace's prefetch
    /// accounting stays a partition and the run completes.
    #[test]
    fn fast_forward_handles_prefetch_traces() {
        let mut b = TraceBuilder::new(2);
        for p in 0..2 {
            let mut pb = b.proc(p);
            for i in 0..40u64 {
                pb.prefetch(Addr::new(0x4000 + p as u64 * 0x100_000 + i * 32));
                pb.work(3);
                pb.read(Addr::new(0x4000 + p as u64 * 0x100_000 + i * 32));
                pb.write(Addr::new(0x9000 + (i % 4) * 32));
            }
        }
        let t = b.build();
        let cfg = SimConfig {
            num_procs: 2,
            warmup_accesses: 0,
            check_invariants: true,
            ..SimConfig::default()
        };
        let run = simulate_sampled(&cfg, &t, &SamplePlan::periodic(16, 3, 1)).unwrap();
        let pf = run.report.prefetch;
        assert_eq!(pf.executed, 80, "every prefetch dispatches");
        assert_eq!(
            pf.hits + pf.duplicates + pf.fills,
            pf.executed,
            "prefetch outcomes partition: {pf:?}"
        );
    }

    /// Degenerate plans and leftover statistics warm-up are rejected up
    /// front, not at panic depth.
    #[test]
    fn sampled_rejects_bad_plans() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100));
        let t = b.build();
        let cfg = SimConfig::default();
        let bad = SamplePlan::periodic(0, 4, 1);
        assert!(matches!(
            simulate_sampled(&cfg, &t, &bad),
            Err(SimError::InvalidSamplePlan(_))
        ));
        let warm = SimConfig { warmup_accesses: 10, ..SimConfig::default() };
        assert!(matches!(
            simulate_sampled(&warm, &t, &SamplePlan::periodic(8, 2, 0)),
            Err(SimError::InvalidSamplePlan(_))
        ));
    }
}

