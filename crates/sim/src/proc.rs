//! Per-processor runtime state.

use crate::metrics::ProcStats;
use charlie_bus::TxnId;
use charlie_trace::{Access, BarrierId, LineAddr, LockId};

/// Why the current in-flight access is being performed. Trace accesses carry
/// [`Purpose::Demand`]; the lock/barrier models synthesize the rest, and the
/// purpose decides what happens when the access retires.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Purpose {
    /// The access comes from the trace; retiring it advances the cursor.
    Demand,
    /// The test-and-set write that takes a lock.
    LockAcquireWrite(LockId),
    /// The failed test read of a busy lock (then the processor parks).
    LockSpinRead(LockId),
    /// The write that releases a lock (then hand-off happens).
    LockReleaseWrite(LockId),
    /// The write incrementing the barrier arrival counter.
    BarrierArriveWrite(BarrierId),
    /// The first spin test of the barrier flag (then the processor parks).
    BarrierSpinRead(BarrierId),
    /// The last arrival's write of the barrier release flag.
    BarrierFlagWrite(BarrierId),
    /// The read of the flag a released waiter performs on wake-up.
    BarrierLeaveRead(BarrierId),
}

/// An access the processor is currently trying to retire. The same pending
/// access is re-dispatched after every wait (fill completion, upgrade,
/// aborted upgrade) until it hits; `counted` ensures its miss is classified
/// only once.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct PendingAccess {
    pub access: Access,
    pub purpose: Purpose,
    pub counted: bool,
    /// Under the write-update protocol: the word broadcast for this store
    /// already completed, so the (still-shared) write may retire as a hit.
    pub update_complete: bool,
    /// Fills of this access invalidated by a peer before it could retire.
    pub stolen_fills: u32,
}

impl PendingAccess {
    pub(crate) fn new(access: Access, purpose: Purpose) -> Self {
        PendingAccess { access, purpose, counted: false, update_complete: false, stolen_fills: 0 }
    }
}

/// Processor scheduling status.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(crate) enum ProcStatus {
    /// Executing trace events.
    #[default]
    Running,
    /// Stalled on a memory transaction (demand fill, upgrade, or an
    /// in-progress prefetch it ran into).
    WaitMem,
    /// Stalled because the prefetch buffer is full.
    WaitPrefetchSlot,
    /// Parked on a busy lock.
    WaitLock,
    /// Parked at a barrier.
    WaitBarrier,
    /// Trace fully retired.
    Done,
}

/// A prefetch occupying a buffer slot.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct OutstandingPrefetch {
    /// Its bus transaction.
    pub txn: TxnId,
    /// A demand access is stalled waiting for this prefetch
    /// (prefetch-in-progress miss).
    pub cpu_waiting: bool,
    /// Issued by the on-line hardware prefetcher rather than a trace
    /// prefetch instruction; drives the hardware accuracy accounting.
    pub hw: bool,
}

/// The outstanding-prefetch window: line → slot, capacity enforced by the
/// machine. The buffer is at most 16 deep, so a linear scan of a small
/// vector beats hashing every lookup; iteration order is insertion order
/// and therefore deterministic.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefetchWindow {
    slots: Vec<(LineAddr, OutstandingPrefetch)>,
}

impl PrefetchWindow {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn contains(&self, line: LineAddr) -> bool {
        self.slots.iter().any(|(l, _)| *l == line)
    }

    /// Inserts a slot for `line`; the machine never inserts a duplicate
    /// (it checks [`PrefetchWindow::contains`] first).
    pub(crate) fn insert(&mut self, line: LineAddr, slot: OutstandingPrefetch) {
        debug_assert!(!self.contains(line), "duplicate prefetch slot for {line:?}");
        self.slots.push((line, slot));
    }

    pub(crate) fn get_mut(&mut self, line: LineAddr) -> Option<&mut OutstandingPrefetch> {
        self.slots.iter_mut().find(|(l, _)| *l == line).map(|(_, s)| s)
    }

    pub(crate) fn remove(&mut self, line: LineAddr) -> Option<OutstandingPrefetch> {
        let pos = self.slots.iter().position(|(l, _)| *l == line)?;
        Some(self.slots.remove(pos).1)
    }

    /// Occupied lines, in insertion order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.slots.iter().map(|(l, _)| *l)
    }

    /// Occupied slots, in insertion order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = &OutstandingPrefetch> + '_ {
        self.slots.iter().map(|(_, s)| s)
    }

    /// Mutable view of the occupied slots, in insertion order.
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = &mut OutstandingPrefetch> + '_ {
        self.slots.iter_mut().map(|(_, s)| s)
    }
}

/// Full runtime state of one simulated processor.
#[derive(Clone, Debug, Default)]
pub(crate) struct Proc {
    /// Local time (never behind the event that woke the processor).
    pub t: u64,
    /// Index of the next trace event to dispatch.
    pub cursor: usize,
    /// Access currently being retired, if any.
    pub pending: Option<PendingAccess>,
    /// Scheduling status.
    pub status: ProcStatus,
    /// Time the current blocking episode started (meaningful when blocked).
    pub block_start: u64,
    /// Timing and access counters.
    pub stats: ProcStats,
    /// Prefetch buffer: line → slot. Capacity enforced by the machine.
    pub outstanding: PrefetchWindow,
    /// The transaction this processor is stalled on when in `WaitMem`;
    /// completions wake the processor only when they match, so a stale
    /// completion can never resume a processor early.
    pub waiting_txn: Option<TxnId>,
    /// The lock hand-off / barrier release arrived while this processor was
    /// still finishing its spin read; consume it at spin-read retire instead
    /// of parking.
    pub early_release: bool,
}

impl Proc {
    /// Enters a blocked state at local time `t`.
    pub(crate) fn block(&mut self, status: ProcStatus) {
        debug_assert!(matches!(self.status, ProcStatus::Running), "blocking a non-running proc");
        self.status = status;
        self.block_start = self.t;
    }

    /// Resumes at global time `now`, accounting the stall.
    pub(crate) fn resume(&mut self, now: u64) {
        debug_assert!(
            !matches!(self.status, ProcStatus::Running | ProcStatus::Done),
            "resuming a non-blocked proc"
        );
        self.stats.stall_cycles += now.saturating_sub(self.block_start);
        self.status = ProcStatus::Running;
        if now > self.t {
            self.t = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::Addr;

    #[test]
    fn block_resume_accounts_stall() {
        let mut p = Proc { t: 100, ..Proc::default() };
        p.block(ProcStatus::WaitMem);
        assert_eq!(p.status, ProcStatus::WaitMem);
        p.resume(150);
        assert_eq!(p.status, ProcStatus::Running);
        assert_eq!(p.stats.stall_cycles, 50);
        assert_eq!(p.t, 150);
    }

    #[test]
    fn resume_never_rewinds_time() {
        let mut p = Proc { t: 100, ..Proc::default() };
        p.block(ProcStatus::WaitLock);
        p.resume(90); // wake scheduled at an earlier global event; keep local time
        assert_eq!(p.t, 100);
        assert_eq!(p.stats.stall_cycles, 0);
    }

    #[test]
    fn pending_access_starts_uncounted() {
        let pa = PendingAccess::new(Access::read(Addr::new(4)), Purpose::Demand);
        assert!(!pa.counted);
        assert_eq!(pa.purpose, Purpose::Demand);
    }
}
