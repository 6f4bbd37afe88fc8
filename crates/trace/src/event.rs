//! Trace events: the alphabet each per-processor stream is written in.

use crate::addr::{Addr, PackedAddr};
use std::fmt;

/// Whether a memory access reads or writes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// A demand data access: an address plus read/write direction.
///
/// This is a passive value type; fields are public by design.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// Byte address accessed.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// Creates a read access.
    pub const fn read(addr: Addr) -> Self {
        Access { addr, kind: AccessKind::Read }
    }

    /// Creates a write access.
    pub const fn write(addr: Addr) -> Self {
        Access { addr, kind: AccessKind::Write }
    }
}

/// Identifier of a lock object. Locks are modeled at trace level; the
/// simulator maps each lock to a dedicated cache line so that lock handoff
/// produces realistic coherence traffic.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LockId(pub u32);

/// Identifier of a barrier episode. All processors participate in every
/// barrier; episodes on each processor must appear in increasing `BarrierId`
/// order starting from 0 so the simulator can match them up.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BarrierId(pub u32);

/// One event in a processor's trace.
///
/// The CPU cost model follows the paper: one cycle per instruction, plus one
/// cycle per data access when it hits in the cache. [`TraceEvent::Work`]
/// represents a run of non-memory instructions; every other event costs at
/// least its single dispatch cycle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TraceEvent {
    /// `n` cycles of pure CPU work (non-memory instructions).
    Work(u32),
    /// A demand data access. The fields are inline rather than an
    /// [`Access`], and the address is packed into 48 bits, so the enum's
    /// tag fits beside them: an event is 8 bytes (pinned by a unit test
    /// below) where a 64-bit address would make it 16.
    Access {
        /// Byte address accessed.
        addr: PackedAddr,
        /// Read or write.
        kind: AccessKind,
    },
    /// A software cache prefetch of the line containing `addr`.
    ///
    /// `exclusive` selects the exclusive-mode prefetch of the paper's EXCL
    /// strategy: the line is fetched with read-exclusive semantics,
    /// invalidating other cached copies.
    Prefetch {
        /// Address whose line is prefetched.
        addr: PackedAddr,
        /// Fetch in exclusive (read-for-ownership) mode.
        exclusive: bool,
    },
    /// Acquire a lock; the simulator blocks until the lock is free.
    LockAcquire(LockId),
    /// Release a previously acquired lock.
    LockRelease(LockId),
    /// Barrier arrival; the simulator blocks until all processors arrive.
    Barrier(BarrierId),
}

impl TraceEvent {
    /// Estimated CPU cost of the event in cycles, assuming every access hits.
    ///
    /// This is the cost model the off-line prefetch scheduler uses to measure
    /// *prefetch distance* (the paper's "estimated number of CPU cycles
    /// between the prefetch and the actual access"). Synchronization events
    /// are charged their single dispatch cycle; waiting time is unknowable
    /// off-line.
    pub fn estimated_cycles(&self) -> u64 {
        match self {
            TraceEvent::Work(n) => u64::from(*n),
            // one instruction + one cache-hit data cycle
            TraceEvent::Access { .. } => 2,
            TraceEvent::Prefetch { .. } => 1,
            TraceEvent::LockAcquire(_) | TraceEvent::LockRelease(_) | TraceEvent::Barrier(_) => 1,
        }
    }

    /// Returns the contained access if this is an [`TraceEvent::Access`].
    pub fn as_access(&self) -> Option<Access> {
        match *self {
            TraceEvent::Access { addr, kind } => Some(Access { addr: addr.unpack(), kind }),
            _ => None,
        }
    }

    /// Returns `true` if the event is a synchronization operation (lock or
    /// barrier). Prefetch hoisting never crosses these.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            TraceEvent::LockAcquire(_) | TraceEvent::LockRelease(_) | TraceEvent::Barrier(_)
        )
    }
}

impl From<Access> for TraceEvent {
    /// # Panics
    ///
    /// Panics, naming the address, if it exceeds [`PackedAddr::MAX`].
    #[track_caller]
    fn from(a: Access) -> Self {
        TraceEvent::Access { addr: PackedAddr::pack(a.addr), kind: a.kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimated_cycles_model() {
        assert_eq!(TraceEvent::Work(17).estimated_cycles(), 17);
        assert_eq!(TraceEvent::from(Access::read(Addr::new(0))).estimated_cycles(), 2);
        assert_eq!(
            TraceEvent::Prefetch { addr: PackedAddr::pack(Addr::new(0)), exclusive: false }
                .estimated_cycles(),
            1
        );
        assert_eq!(TraceEvent::Barrier(BarrierId(0)).estimated_cycles(), 1);
        assert_eq!(TraceEvent::LockAcquire(LockId(3)).estimated_cycles(), 1);
    }

    #[test]
    fn event_is_eight_bytes() {
        // Traces hold millions of events; a 16-byte event doubles the
        // memory of a resident trace.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 8);
    }

    #[test]
    #[should_panic(expected = "address 0x1000000000000 exceeds the 48-bit")]
    fn access_past_48_bits_panics() {
        let _ = TraceEvent::from(Access::read(Addr::new(1 << 48)));
    }

    #[test]
    fn access_constructors() {
        let r = Access::read(Addr::new(8));
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.kind.is_write());
        let w = Access::write(Addr::new(8));
        assert!(w.kind.is_write());
    }

    #[test]
    fn sync_classification() {
        assert!(TraceEvent::Barrier(BarrierId(0)).is_sync());
        assert!(TraceEvent::LockAcquire(LockId(0)).is_sync());
        assert!(TraceEvent::LockRelease(LockId(0)).is_sync());
        assert!(!TraceEvent::Work(1).is_sync());
        assert!(!TraceEvent::from(Access::read(Addr::new(0))).is_sync());
    }

    #[test]
    fn as_access_extracts() {
        let ev = TraceEvent::from(Access::write(Addr::new(4)));
        assert_eq!(ev.as_access(), Some(Access::write(Addr::new(4))));
        assert_eq!(TraceEvent::Work(1).as_access(), None);
    }
}
