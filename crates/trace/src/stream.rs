//! Per-processor event streams and the multiprocessor [`Trace`] bundle.

use crate::addr::{PackedAddr, ProcId};
use crate::event::{Access, AccessKind, BarrierId, LockId, TraceEvent};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// The event stream of a single processor.
///
/// A generated stream puts a short [`TraceEvent::Work`] in front of nearly
/// every access, so the stream stores such a gap inside the access that
/// follows it: one 8-byte slot where the logical events take two. A `Work`
/// keeps a slot of its own only when its gap is 0 or above 127 cycles, or
/// when no access follows it directly. The folding is invisible: `len`,
/// [`ProcTrace::events`] and equality all speak of the logical events, and
/// every way of building a stream folds the same way.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ProcTrace {
    slots: Vec<Slot>,
    /// Logical event count: the slots plus the gaps folded into them.
    len: usize,
}

/// One stored event: a logical [`TraceEvent`], except that an access also
/// carries the work gap in front of it. Variant for variant it mirrors
/// `TraceEvent`, so it stays 8 bytes (pinned by a unit test below).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Slot {
    Work(u32),
    Access { addr: PackedAddr, kind_gap: KindGap },
    Prefetch { addr: PackedAddr, exclusive: bool },
    LockAcquire(LockId),
    LockRelease(LockId),
    Barrier(BarrierId),
}

/// An access's kind and its folded work gap in one byte: the low bit is
/// set for a write, the other seven hold the gap (0 for none).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct KindGap(u8);

impl KindGap {
    /// The largest gap that folds.
    const MAX_GAP: u32 = 0x7f;

    fn new(kind: AccessKind, gap: u32) -> Self {
        debug_assert!(gap <= Self::MAX_GAP);
        KindGap((gap as u8) << 1 | u8::from(kind.is_write()))
    }

    #[inline]
    fn kind(self) -> AccessKind {
        if self.0 & 1 != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    #[inline]
    fn gap(self) -> u32 {
        u32::from(self.0 >> 1)
    }
}

impl Slot {
    /// The work gap folded in front of the slot's event; 0 for none.
    #[inline]
    fn gap(self) -> u32 {
        match self {
            Slot::Access { kind_gap, .. } => kind_gap.gap(),
            _ => 0,
        }
    }

    /// The slot's first event: its folded gap as a `Work`, if it has one,
    /// else its event.
    #[inline]
    fn head(self) -> TraceEvent {
        match self.gap() {
            0 => self.event(),
            gap => TraceEvent::Work(gap),
        }
    }

    /// The slot's event, without its folded gap.
    #[inline]
    fn event(self) -> TraceEvent {
        match self {
            Slot::Work(n) => TraceEvent::Work(n),
            Slot::Access { addr, kind_gap } => TraceEvent::Access { addr, kind: kind_gap.kind() },
            Slot::Prefetch { addr, exclusive } => TraceEvent::Prefetch { addr, exclusive },
            Slot::LockAcquire(l) => TraceEvent::LockAcquire(l),
            Slot::LockRelease(l) => TraceEvent::LockRelease(l),
            Slot::Barrier(b) => TraceEvent::Barrier(b),
        }
    }
}

/// A position in a [`ProcTrace`]'s logical events; see [`Slots::event`].
/// The default cursor is at the start.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct EventCursor {
    /// The slot holding the next event.
    slot: usize,
    /// Whether that slot's folded gap has been yielded already.
    gap_done: bool,
    /// Logical index of the next event.
    index: usize,
}

impl EventCursor {
    /// Logical index of the next event: how many events lie before it.
    #[inline]
    pub fn index(self) -> usize {
        self.index
    }
}

impl ProcTrace {
    /// Creates an empty stream.
    pub fn new() -> Self {
        ProcTrace::default()
    }

    /// Creates a stream from a pre-built event vector.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        events.into_iter().collect()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.len += 1;
        let slot = match ev {
            TraceEvent::Work(n) => Slot::Work(n),
            TraceEvent::Access { addr, kind } => {
                let gap = match self.slots.last() {
                    Some(&Slot::Work(n)) if (1..=KindGap::MAX_GAP).contains(&n) => {
                        self.slots.pop();
                        n
                    }
                    _ => 0,
                };
                Slot::Access { addr, kind_gap: KindGap::new(kind, gap) }
            }
            TraceEvent::Prefetch { addr, exclusive } => Slot::Prefetch { addr, exclusive },
            TraceEvent::LockAcquire(l) => Slot::LockAcquire(l),
            TraceEvent::LockRelease(l) => Slot::LockRelease(l),
            TraceEvent::Barrier(b) => Slot::Barrier(b),
        };
        self.slots.push(slot);
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored slots, 8 bytes each: what the stream costs in
    /// memory, where [`ProcTrace::len`] counts its events.
    pub fn stored_len(&self) -> usize {
        self.slots.len()
    }

    /// The events in order.
    pub fn events(&self) -> Events<'_> {
        Events { slots: self.slots.iter(), pending: None }
    }

    /// The stored slots, for walks that take a gap and the access after it
    /// in one step: they run over half as many items as
    /// [`ProcTrace::events`].
    pub fn slots(&self) -> Slots<'_> {
        Slots(&self.slots)
    }

    /// Iterates over the demand accesses in stream order.
    pub fn accesses(&self) -> impl Iterator<Item = Access> + '_ {
        self.indexed_accesses().map(|(_, access)| access)
    }

    /// Iterates over the demand accesses in stream order, each with its
    /// index in [`ProcTrace::events`]. Faster than filtering `events()`:
    /// it never unfolds a gap.
    pub fn indexed_accesses(&self) -> impl Iterator<Item = (usize, Access)> + '_ {
        let mut next = 0;
        self.slots.iter().filter_map(move |&slot| {
            // A folded gap comes before the access, one index earlier.
            let at = next + usize::from(slot.gap() > 0);
            next = at + 1;
            slot.event().as_access().map(|a| (at, a))
        })
    }

    /// Number of demand accesses.
    pub fn num_accesses(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::Access { .. })).count()
    }

    /// Number of prefetch events.
    pub fn num_prefetches(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::Prefetch { .. })).count()
    }

    /// Total estimated CPU cycles of the stream, assuming all accesses hit.
    /// See [`TraceEvent::estimated_cycles`].
    pub fn estimated_cycles(&self) -> u64 {
        self.slots.iter().map(|&s| u64::from(s.gap()) + s.event().estimated_cycles()).sum()
    }
}

impl fmt::Debug for ProcTrace {
    /// Prints the logical events, as a stream of unfolded events would.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcTrace").field("events", &self.events().collect::<Vec<_>>()).finish()
    }
}

/// The stored slots of a [`ProcTrace`], as [`ProcTrace::slots`] returns
/// them.
#[derive(Copy, Clone, Debug)]
pub struct Slots<'a>(&'a [Slot]);

impl Slots<'_> {
    /// Slot `k` as the work gap folded in front of its event (0 for none)
    /// and the event; `None` past the end. [`ProcTrace::events`] yields
    /// `Work(gap)` for a gap, then the event.
    #[inline]
    pub fn get(self, k: usize) -> Option<(u32, TraceEvent)> {
        self.0.get(k).map(|&slot| (slot.gap(), slot.event()))
    }

    /// The logical event at `at`; `None` past the end.
    #[inline]
    pub fn event(self, mut at: EventCursor) -> Option<TraceEvent> {
        self.step(&mut at)
    }

    /// Moves `at` past the event [`Slots::event`] returns there; at the end
    /// of the stream, leaves it there.
    #[inline]
    pub fn advance(self, at: &mut EventCursor) {
        self.step(at);
    }

    /// The event at `at`, moving `at` past it: a folded slot yields its gap
    /// first and its access on the next step.
    #[inline]
    fn step(self, at: &mut EventCursor) -> Option<TraceEvent> {
        let slot = *self.0.get(at.slot)?;
        at.index += 1;
        if slot.gap() > 0 && !at.gap_done {
            at.gap_done = true;
            return Some(slot.head());
        }
        at.gap_done = false;
        at.slot += 1;
        Some(slot.event())
    }
}

/// The events of a [`ProcTrace`] in order: the iterator
/// [`ProcTrace::events`] returns.
#[derive(Clone, Debug)]
pub struct Events<'a> {
    slots: std::slice::Iter<'a, Slot>,
    /// The event of the slot whose gap was yielded last, if not yet
    /// yielded itself.
    pending: Option<TraceEvent>,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        if let Some(ev) = self.pending.take() {
            return Some(ev);
        }
        let slot = *self.slots.next()?;
        if slot.gap() > 0 {
            self.pending = Some(slot.event());
        }
        Some(slot.head())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Each slot holds one event or two.
        let n = self.slots.len() + usize::from(self.pending.is_some());
        (n, Some(n + self.slots.len()))
    }
}

impl FromIterator<TraceEvent> for ProcTrace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut t = ProcTrace::new();
        t.extend(iter);
        t
    }
}

impl Extend<TraceEvent> for ProcTrace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        for ev in iter {
            self.push(ev);
        }
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

    fn work_then(gap: u32, ev: TraceEvent) -> ProcTrace {
        ProcTrace::from_events(vec![TraceEvent::Work(gap), ev])
    }

    #[test]
    fn slot_is_eight_bytes() {
        // The gap shares the access's kind byte, so folding it in costs
        // nothing: a stored slot is no larger than a logical event.
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn gaps_of_1_to_127_fold_into_the_access() {
        for gap in [1, 5, 127] {
            let t = work_then(gap, acc(0x40));
            assert_eq!((t.len(), t.stored_len()), (2, 1), "gap {gap}");
            assert_eq!(t.estimated_cycles(), u64::from(gap) + 2);
            assert_eq!(t.num_accesses(), 1);
        }
        let write = TraceEvent::from(Access::write(Addr::new(0x40)));
        assert_eq!(work_then(9, write).events().collect::<Vec<_>>()[1], write);
    }

    #[test]
    fn other_work_keeps_its_own_slot() {
        let prefetch =
            TraceEvent::Prefetch { addr: PackedAddr::pack(Addr::new(0x40)), exclusive: false };
        for t in [
            work_then(0, acc(0x40)),
            work_then(128, acc(0x40)),
            work_then(u32::MAX, acc(0x40)),
            work_then(5, prefetch),
            work_then(5, TraceEvent::Barrier(BarrierId(0))),
            work_then(5, TraceEvent::Work(5)),
            ProcTrace::from_events(vec![acc(0x40), TraceEvent::Work(5)]),
        ] {
            assert_eq!((t.len(), t.stored_len()), (2, 2), "{t:?}");
        }
        // In a run of work, only the last gap folds.
        let t = ProcTrace::from_events(vec![TraceEvent::Work(3), TraceEvent::Work(4), acc(0x40)]);
        assert_eq!((t.len(), t.stored_len()), (3, 2));
    }

    #[test]
    fn cursor_yields_the_folded_gap_first() {
        let t = work_then(7, acc(0x40));
        let slots = t.slots();
        let mut at = EventCursor::default();
        assert_eq!(slots.event(at), Some(TraceEvent::Work(7)));
        slots.advance(&mut at);
        assert_eq!((slots.event(at), at.index()), (Some(acc(0x40)), 1));
        slots.advance(&mut at);
        assert_eq!((slots.event(at), at.index()), (None, 2));
        assert_eq!(t.events().count(), 2);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: ProcTrace = vec![acc(0)].into_iter().collect();
        t.extend(vec![acc(4)]);
        assert_eq!(t.num_accesses(), 2);
    }
}
