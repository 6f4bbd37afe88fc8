//! Prefetch plans: a raw trace's oracle marks, computed once, and the
//! per-strategy insertion points derived from them.
//!
//! Every strategy starts from the same uniprocessor filter-cache pass
//! (§3.1) and changes one knob on top (§4.1), so [`TraceMarks`] computes
//! the oracle's misses — and, for PWS, the write-shared filter's — once per
//! raw trace, as sorted event indices. A strategy then costs one linear
//! placement pass that emits a [`PrefetchPlan`]: per processor, the raw
//! event index each prefetch goes in front of. The simulator merges the
//! plan into the raw stream as it reads it ([`PreparedTrace`]), so no
//! annotated copy of the trace is ever built; [`PreparedTrace::to_trace`]
//! materializes one for callers that need a [`Trace`].

use std::sync::OnceLock;

use crate::insert::{place, union};
use crate::oracle::oracle_misses;
use crate::pws::pws_extra;
use crate::{rmw, Strategy};
use charlie_cache::CacheGeometry;
use charlie_trace::{
    Access, EventCursor, PackedAddr, ProcTrace, SharingMap, Slots, Trace, TraceEvent,
    ValidateTraceError,
};

/// One software prefetch to stream into a processor's raw events.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Insertion {
    /// Index of the raw event the prefetch is issued in front of: a
    /// logical index, so it may fall between a work gap and the access
    /// the stream stores it with.
    pub at: u32,
    /// Fetch in exclusive (read-for-ownership) mode.
    pub exclusive: bool,
    /// Address whose line is prefetched.
    pub addr: PackedAddr,
}

/// A strategy's prefetches for one raw trace: per processor, the insertion
/// points in stream order. The default plan inserts nothing.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PrefetchPlan {
    procs: Vec<Vec<Insertion>>,
}

impl PrefetchPlan {
    /// The insertions for processor `p`, in stream order.
    pub fn proc(&self, p: usize) -> &[Insertion] {
        self.procs.get(p).map_or(&[], Vec::as_slice)
    }

    /// Total insertions over all processors.
    pub fn len(&self) -> usize {
        self.procs.iter().map(Vec::len).sum()
    }

    /// Whether the plan inserts nothing.
    pub fn is_empty(&self) -> bool {
        self.procs.iter().all(Vec::is_empty)
    }
}

/// The strategy-independent marks of one raw trace: the oracle's predicted
/// misses and the PWS filter's extra marks, each computed on first use and
/// then shared by every strategy planned from it. `Sync`, so one batch can
/// plan several strategies of the same trace on different threads.
#[derive(Debug)]
pub struct TraceMarks {
    geometry: CacheGeometry,
    /// Event count and [`ProcTrace::estimated_cycles`] of each stream: the
    /// fingerprint that rejects a plan of a different trace.
    fingerprint: Vec<(usize, u64)>,
    oracle: OnceLock<Vec<Vec<u32>>>,
    pws: OnceLock<Vec<Vec<u32>>>,
}

impl TraceMarks {
    /// Prepares (but does not yet compute) the marks of `trace` under the
    /// cache `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `trace` already contains prefetches.
    pub fn new(trace: &Trace, geometry: CacheGeometry) -> Self {
        assert_eq!(trace.total_prefetches(), 0, "input trace already contains prefetches");
        let fingerprint = trace.iter().map(|(_, s)| (s.len(), s.estimated_cycles())).collect();
        TraceMarks {
            geometry,
            fingerprint,
            oracle: OnceLock::new(),
            pws: OnceLock::new(),
        }
    }

    /// Plans `strategy` at its own prefetch distance.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is not the trace the marks were made for.
    pub fn plan(&self, trace: &Trace, strategy: Strategy) -> PrefetchPlan {
        self.plan_with_distance(trace, strategy, strategy.prefetch_distance())
    }

    /// Plans `strategy` with an explicit prefetch distance in estimated CPU
    /// cycles (the paper's §4.3 knob).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is not the trace the marks were made for.
    pub fn plan_with_distance(
        &self,
        trace: &Trace,
        strategy: Strategy,
        distance: u64,
    ) -> PrefetchPlan {
        assert!(
            trace.iter().map(|(_, s)| s.len()).eq(self.fingerprint.iter().map(|f| f.0)),
            "marks were computed for a different trace"
        );
        if strategy == Strategy::NoPrefetch {
            return PrefetchPlan::default();
        }
        let geometry = self.geometry;
        let oracle = self
            .oracle
            .get_or_init(|| trace.iter().map(|(_, s)| oracle_misses(s, geometry)).collect());
        let pws = strategy.prefetches_write_shared().then(|| {
            self.pws.get_or_init(|| {
                let sharing = SharingMap::analyze(trace, geometry.block_bytes());
                trace.iter().map(|(_, s)| pws_extra(s, geometry, &sharing)).collect()
            })
        });
        let procs = trace
            .iter()
            .enumerate()
            .map(|(p, (_, stream))| {
                let slots = stream.slots();
                let exclusive = |access: Access, next_slot: usize| {
                    if access.kind.is_write() {
                        strategy.exclusive_writes()
                    } else {
                        let later = (next_slot..).map_while(|k| slots.get(k));
                        strategy.exclusive_rmw() && rmw::write_follows(access, later, geometry)
                    }
                };
                let (inserts, cycles) = match pws {
                    Some(extra) => {
                        place(stream, &union(&oracle[p], &extra[p]), distance, exclusive)
                    }
                    None => place(stream, &oracle[p], distance, exclusive),
                };
                assert_eq!(
                    cycles, self.fingerprint[p].1,
                    "marks were computed for a different trace"
                );
                inserts
            })
            .collect();
        PrefetchPlan { procs }
    }
}

/// A raw trace together with the prefetch plan to stream into it: the
/// simulator's input. A plain `&Trace` converts into a view with no
/// insertions.
#[derive(Copy, Clone, Debug)]
pub struct PreparedTrace<'a> {
    raw: &'a Trace,
    plan: &'a PrefetchPlan,
}

/// The plan of a plain trace.
static NO_PLAN: PrefetchPlan = PrefetchPlan { procs: Vec::new() };

impl<'a> From<&'a Trace> for PreparedTrace<'a> {
    fn from(raw: &'a Trace) -> Self {
        PreparedTrace { raw, plan: &NO_PLAN }
    }
}

impl<'a> PreparedTrace<'a> {
    /// Pairs `raw` with a plan made from it.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different number of processors, or
    /// inserts past the end of a stream.
    pub fn new(raw: &'a Trace, plan: &'a PrefetchPlan) -> Self {
        assert!(
            plan.procs.is_empty() || plan.procs.len() == raw.num_procs(),
            "plan covers {} processors, trace has {}",
            plan.procs.len(),
            raw.num_procs()
        );
        for (p, inserts) in plan.procs.iter().enumerate() {
            debug_assert!(
                inserts.windows(2).all(|w| w[0].at <= w[1].at),
                "insertions out of order"
            );
            assert!(
                inserts.last().is_none_or(|i| (i.at as usize) < raw.proc(p).len()),
                "insertion past the end of processor {p}'s stream"
            );
        }
        PreparedTrace { raw, plan }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.raw.num_procs()
    }

    /// Processor `p`'s merged input stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc(&self, p: usize) -> ProcStream<'a> {
        ProcStream::new(self.raw.proc(p), self.plan.proc(p))
    }

    /// Prefetches over all processors: the raw trace's own plus the plan's.
    pub fn total_prefetches(&self) -> usize {
        self.raw.total_prefetches() + self.inserted()
    }

    /// Prefetches the plan inserts.
    pub fn inserted(&self) -> usize {
        self.plan.len()
    }

    /// [`Trace::validate`] of the merged trace. Insertions are prefetches,
    /// which synchronization rules never concern, so this validates the raw
    /// trace.
    ///
    /// # Errors
    ///
    /// As [`Trace::validate`].
    pub fn validate(&self) -> Result<(), ValidateTraceError> {
        self.raw.validate()
    }

    /// Materializes the merged trace.
    pub fn to_trace(&self) -> Trace {
        Trace::from_procs((0..self.num_procs()).map(|p| self.proc(p).iter().collect()).collect())
    }
}

/// One processor's input as the simulator reads it: raw events with a
/// plan's insertions merged in front of the events they name.
#[derive(Copy, Clone, Debug)]
pub struct ProcStream<'a> {
    events: Slots<'a>,
    inserts: &'a [Insertion],
}

/// A position in a [`ProcStream`]: the position in the raw events, and how
/// many insertions have been consumed.
#[derive(Copy, Clone, Debug, Default)]
pub struct StreamCursor {
    raw: EventCursor,
    inserted: usize,
}

impl StreamCursor {
    /// Events consumed so far, counting insertions: the index of the next
    /// event in the merged stream.
    pub fn position(self) -> usize {
        self.raw.index() + self.inserted
    }
}

impl<'a> ProcStream<'a> {
    pub(crate) fn new(events: &'a ProcTrace, inserts: &'a [Insertion]) -> Self {
        ProcStream { events: events.slots(), inserts }
    }

    /// The insertion due at `at`, if the next event is one.
    #[inline]
    fn insert_at(&self, at: StreamCursor) -> Option<&'a Insertion> {
        self.inserts.get(at.inserted).filter(|i| i.at as usize == at.raw.index())
    }

    /// The event at `at`; `None` past the end.
    #[inline]
    pub fn get(&self, at: StreamCursor) -> Option<TraceEvent> {
        match self.insert_at(at) {
            Some(i) => Some(TraceEvent::Prefetch { addr: i.addr, exclusive: i.exclusive }),
            None => self.events.event(at.raw),
        }
    }

    /// Moves `at` past the event [`ProcStream::get`] returns there.
    #[inline]
    pub fn advance(&self, at: &mut StreamCursor) {
        if self.insert_at(*at).is_some() {
            at.inserted += 1;
        } else {
            self.events.advance(&mut at.raw);
        }
    }

    /// The merged events in order.
    pub fn iter(self) -> impl Iterator<Item = TraceEvent> + 'a {
        let mut at = StreamCursor::default();
        std::iter::from_fn(move || {
            let ev = self.get(at)?;
            self.advance(&mut at);
            Some(ev)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::{Access, Addr, BarrierId, TraceBuilder};
    use proptest::prelude::{any, prop_assert_eq, prop_oneof, proptest, Just};
    use proptest::strategy::Strategy as Gen;

    /// Raw streams whose work gaps sometimes fold into the next access
    /// (1–127 cycles before it) and sometimes do not.
    fn arb_raw() -> impl Gen<Value = Vec<TraceEvent>> {
        let gap = prop_oneof![Just(0u32), 1u32..=127, Just(128), Just(u32::MAX)];
        let ev = (0u8..5, gap, 0u64..1 << 20, any::<bool>()).prop_map(|(pick, gap, raw, flag)| {
            let addr = Addr::new(raw);
            match pick {
                0 | 1 => TraceEvent::Work(gap),
                2 | 3 => {
                    TraceEvent::from(if flag { Access::write(addr) } else { Access::read(addr) })
                }
                _ => TraceEvent::Barrier(BarrierId(0)),
            }
        });
        proptest::collection::vec(ev, 0..60)
    }

    proptest! {
        /// With one or two insertions at every logical index, including
        /// between a folded gap and its access, the stream yields what a
        /// merge over the unfolded events does, and the cursor counts it.
        #[test]
        fn stream_merges_at_logical_indices(
            events in arb_raw(),
            counts in proptest::collection::vec(1usize..3, 60..61),
        ) {
            let (mut inserts, mut expected) = (Vec::new(), Vec::new());
            for (i, (&ev, &n)) in events.iter().zip(&counts).enumerate() {
                for k in 0..n {
                    let addr = PackedAddr::pack(Addr::new(i as u64 * 32));
                    inserts.push(Insertion { at: i as u32, exclusive: k == 1, addr });
                    expected.push(TraceEvent::Prefetch { addr, exclusive: k == 1 });
                }
                expected.push(ev);
            }
            let raw = ProcTrace::from_events(events);
            let stream = ProcStream::new(&raw, &inserts);
            let (mut at, mut seen) = (StreamCursor::default(), Vec::new());
            while let Some(ev) = stream.get(at) {
                prop_assert_eq!(at.position(), seen.len());
                seen.push(ev);
                stream.advance(&mut at);
            }
            prop_assert_eq!(seen, expected);
        }
    }

    #[test]
    fn insertion_is_twelve_bytes() {
        // A plan holds one insertion per prefetch; the packed address keeps
        // it at 12 bytes where a 64-bit one would take 16.
        assert_eq!(std::mem::size_of::<Insertion>(), 12);
    }

    #[test]
    fn cursor_counts_merged_events() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(5).read(Addr::new(0x40));
        let t = b.build();
        let plan = TraceMarks::new(&t, CacheGeometry::paper_default()).plan(&t, Strategy::Pref);
        let stream = PreparedTrace::new(&t, &plan).proc(0);
        let mut at = StreamCursor::default();
        let mut seen = Vec::new();
        while let Some(ev) = stream.get(at) {
            seen.push(ev);
            stream.advance(&mut at);
        }
        assert_eq!(at.position(), 3);
        assert!(matches!(seen[0], TraceEvent::Prefetch { .. }));
    }

    #[test]
    fn plain_trace_converts_without_insertions() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).prefetch(Addr::new(0x40)).read(Addr::new(0x40));
        let t = b.build();
        let view = PreparedTrace::from(&t);
        assert_eq!(view.to_trace(), t);
        assert_eq!(view.total_prefetches(), 1);
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn marks_reject_another_trace() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x40));
        let t = b.build();
        let marks = TraceMarks::new(&t, CacheGeometry::paper_default());
        let _ = marks.plan(&Trace::new(1), Strategy::Pref);
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn marks_reject_a_trace_of_the_same_length() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(5).read(Addr::new(0x40));
        let t = b.build();
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(6).read(Addr::new(0x40));
        let other = b.build();
        let marks = TraceMarks::new(&t, CacheGeometry::paper_default());
        let _ = marks.plan(&other, Strategy::Pref);
    }

    #[test]
    #[should_panic(expected = "already contains prefetches")]
    fn marks_reject_a_prefetched_trace() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).prefetch(Addr::new(0x40)).read(Addr::new(0x40));
        let _ = TraceMarks::new(&b.build(), CacheGeometry::paper_default());
    }

    #[test]
    #[should_panic(expected = "plan covers")]
    fn plan_must_match_processor_count() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).read(Addr::new(0x40));
        let t = b.build();
        let plan = TraceMarks::new(&t, CacheGeometry::paper_default()).plan(&t, Strategy::Pref);
        let _ = PreparedTrace::new(&Trace::new(3), &plan);
    }
}
