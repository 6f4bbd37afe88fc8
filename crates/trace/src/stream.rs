//! Per-processor event streams and the multiprocessor [`Trace`] bundle.

use crate::addr::ProcId;
use crate::event::{Access, TraceEvent};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// The event stream of a single processor.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProcTrace {
    events: Vec<TraceEvent>,
}

impl ProcTrace {
    /// Creates an empty stream.
    pub fn new() -> Self {
        ProcTrace::default()
    }

    /// Creates a stream from a pre-built event vector.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        ProcTrace { events }
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events as a slice.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over the demand accesses in stream order.
    pub fn accesses(&self) -> impl Iterator<Item = Access> + '_ {
        self.events.iter().filter_map(TraceEvent::as_access)
    }

    /// Number of demand accesses.
    pub fn num_accesses(&self) -> usize {
        self.accesses().count()
    }

    /// Number of prefetch events.
    pub fn num_prefetches(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Prefetch { .. })).count()
    }

    /// Total estimated CPU cycles of the stream, assuming all accesses hit.
    /// See [`TraceEvent::estimated_cycles`].
    pub fn estimated_cycles(&self) -> u64 {
        self.events.iter().map(TraceEvent::estimated_cycles).sum()
    }
}

impl FromIterator<TraceEvent> for ProcTrace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        ProcTrace { events: iter.into_iter().collect() }
    }
}

impl Extend<TraceEvent> for ProcTrace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

/// A complete multiprocessor trace: one [`ProcTrace`] per processor.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    procs: Vec<ProcTrace>,
}

impl Trace {
    /// Creates a trace with `num_procs` empty streams.
    pub fn new(num_procs: usize) -> Self {
        Trace { procs: vec![ProcTrace::new(); num_procs] }
    }

    /// Creates a trace from per-processor streams.
    pub fn from_procs(procs: Vec<ProcTrace>) -> Self {
        Trace { procs }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// The stream of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc(&self, p: usize) -> &ProcTrace {
        &self.procs[p]
    }

    /// Mutable access to the stream of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc_mut(&mut self, p: usize) -> &mut ProcTrace {
        &mut self.procs[p]
    }

    /// Iterates over `(ProcId, &ProcTrace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, &ProcTrace)> {
        self.procs.iter().enumerate().map(|(i, t)| (ProcId(i as u8), t))
    }

    /// Total demand accesses across all processors.
    pub fn total_accesses(&self) -> usize {
        self.procs.iter().map(ProcTrace::num_accesses).sum()
    }

    /// Total prefetch events across all processors.
    pub fn total_prefetches(&self) -> usize {
        self.procs.iter().map(ProcTrace::num_prefetches).sum()
    }

    /// Checks structural well-formedness of the synchronization events.
    ///
    /// # Errors
    ///
    /// Returns an error if any processor releases a lock it does not hold,
    /// finishes while still holding a lock, or if barrier episodes are not
    /// numbered `0, 1, 2, ...` consistently on every processor (including
    /// every processor executing the same number of barriers).
    pub fn validate(&self) -> Result<(), ValidateTraceError> {
        let mut barrier_counts = Vec::with_capacity(self.procs.len());
        for (p, t) in self.iter() {
            let mut held: HashSet<u32> = HashSet::new();
            let mut next_barrier = 0u32;
            for ev in t.events() {
                match ev {
                    TraceEvent::LockAcquire(l) if !held.insert(l.0) => {
                        return Err(ValidateTraceError::RecursiveAcquire { proc: p, lock: l.0 });
                    }
                    TraceEvent::LockAcquire(_) => {}
                    TraceEvent::LockRelease(l) if !held.remove(&l.0) => {
                        return Err(ValidateTraceError::ReleaseUnheld { proc: p, lock: l.0 });
                    }
                    TraceEvent::LockRelease(_) => {}
                    TraceEvent::Barrier(b) => {
                        if b.0 != next_barrier {
                            return Err(ValidateTraceError::BarrierOrder {
                                proc: p,
                                expected: next_barrier,
                                found: b.0,
                            });
                        }
                        next_barrier += 1;
                    }
                    _ => {}
                }
            }
            if let Some(&lock) = held.iter().next() {
                return Err(ValidateTraceError::HeldAtEnd { proc: p, lock });
            }
            barrier_counts.push(next_barrier);
        }
        if let Some(&first) = barrier_counts.first() {
            if let Some(p) = barrier_counts.iter().position(|&c| c != first) {
                return Err(ValidateTraceError::BarrierCountMismatch {
                    proc: ProcId(p as u8),
                    count: barrier_counts[p],
                    expected: first,
                });
            }
        }
        Ok(())
    }
}

/// Error returned by [`Trace::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidateTraceError {
    /// A processor acquired a lock it already holds.
    RecursiveAcquire {
        /// Offending processor.
        proc: ProcId,
        /// Lock id.
        lock: u32,
    },
    /// A processor released a lock it does not hold.
    ReleaseUnheld {
        /// Offending processor.
        proc: ProcId,
        /// Lock id.
        lock: u32,
    },
    /// A processor still holds a lock at the end of its stream.
    HeldAtEnd {
        /// Offending processor.
        proc: ProcId,
        /// Lock id.
        lock: u32,
    },
    /// Barrier ids did not appear in order `0, 1, 2, ...` on a processor.
    BarrierOrder {
        /// Offending processor.
        proc: ProcId,
        /// Barrier id expected next.
        expected: u32,
        /// Barrier id found.
        found: u32,
    },
    /// Processors execute different numbers of barriers.
    BarrierCountMismatch {
        /// Offending processor.
        proc: ProcId,
        /// Its barrier count.
        count: u32,
        /// Barrier count of processor 0.
        expected: u32,
    },
}

impl fmt::Display for ValidateTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateTraceError::RecursiveAcquire { proc, lock } => {
                write!(f, "{proc} acquires lock {lock} recursively")
            }
            ValidateTraceError::ReleaseUnheld { proc, lock } => {
                write!(f, "{proc} releases lock {lock} it does not hold")
            }
            ValidateTraceError::HeldAtEnd { proc, lock } => {
                write!(f, "{proc} still holds lock {lock} at end of trace")
            }
            ValidateTraceError::BarrierOrder { proc, expected, found } => {
                write!(f, "{proc} reaches barrier {found}, expected {expected}")
            }
            ValidateTraceError::BarrierCountMismatch { proc, count, expected } => {
                write!(f, "{proc} executes {count} barriers, expected {expected}")
            }
        }
    }
}

impl Error for ValidateTraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, PackedAddr};
    use crate::event::{BarrierId, LockId};

    fn acc(a: u64) -> TraceEvent {
        TraceEvent::from(Access::read(Addr::new(a)))
    }

    #[test]
    fn proc_trace_counts() {
        let t = ProcTrace::from_events(vec![
            TraceEvent::Work(5),
            acc(0x100),
            TraceEvent::Prefetch { addr: PackedAddr::pack(Addr::new(0x200)), exclusive: false },
            acc(0x200),
        ]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_accesses(), 2);
        assert_eq!(t.num_prefetches(), 1);
        assert_eq!(t.estimated_cycles(), 5 + 2 + 1 + 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn trace_totals() {
        let mut tr = Trace::new(2);
        tr.proc_mut(0).push(acc(0));
        tr.proc_mut(1).push(acc(4));
        tr.proc_mut(1)
            .push(TraceEvent::Prefetch { addr: PackedAddr::pack(Addr::new(8)), exclusive: true });
        assert_eq!(tr.num_procs(), 2);
        assert_eq!(tr.total_accesses(), 2);
        assert_eq!(tr.total_prefetches(), 1);
    }

    #[test]
    fn validate_ok() {
        let mut tr = Trace::new(2);
        for p in 0..2 {
            let t = tr.proc_mut(p);
            t.push(TraceEvent::LockAcquire(LockId(1)));
            t.push(acc(0x10));
            t.push(TraceEvent::LockRelease(LockId(1)));
            t.push(TraceEvent::Barrier(BarrierId(0)));
            t.push(TraceEvent::Barrier(BarrierId(1)));
        }
        assert_eq!(tr.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_release_unheld() {
        let mut tr = Trace::new(1);
        tr.proc_mut(0).push(TraceEvent::LockRelease(LockId(7)));
        assert_eq!(
            tr.validate(),
            Err(ValidateTraceError::ReleaseUnheld { proc: ProcId(0), lock: 7 })
        );
    }

    #[test]
    fn validate_rejects_recursive_acquire() {
        let mut tr = Trace::new(1);
        tr.proc_mut(0).push(TraceEvent::LockAcquire(LockId(7)));
        tr.proc_mut(0).push(TraceEvent::LockAcquire(LockId(7)));
        assert_eq!(
            tr.validate(),
            Err(ValidateTraceError::RecursiveAcquire { proc: ProcId(0), lock: 7 })
        );
    }

    #[test]
    fn validate_rejects_held_at_end() {
        let mut tr = Trace::new(1);
        tr.proc_mut(0).push(TraceEvent::LockAcquire(LockId(3)));
        assert_eq!(tr.validate(), Err(ValidateTraceError::HeldAtEnd { proc: ProcId(0), lock: 3 }));
    }

    #[test]
    fn validate_rejects_barrier_disorder() {
        let mut tr = Trace::new(1);
        tr.proc_mut(0).push(TraceEvent::Barrier(BarrierId(1)));
        assert!(matches!(tr.validate(), Err(ValidateTraceError::BarrierOrder { .. })));
    }

    #[test]
    fn validate_rejects_barrier_count_mismatch() {
        let mut tr = Trace::new(2);
        tr.proc_mut(0).push(TraceEvent::Barrier(BarrierId(0)));
        assert!(matches!(tr.validate(), Err(ValidateTraceError::BarrierCountMismatch { .. })));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: ProcTrace = vec![acc(0)].into_iter().collect();
        t.extend(vec![acc(4)]);
        assert_eq!(t.num_accesses(), 2);
    }
}
