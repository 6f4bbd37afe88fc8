//! Off-line, compiler-emulating prefetch insertion — the paper's "ideal"
//! prefetcher (§3.1) and its strategy variants (§4.1).
//!
//! The pipeline mirrors the paper's methodology exactly:
//!
//! 1. each processor's demand-access stream is run through a *filter cache*
//!    of the same geometry as the real cache, marking the accesses that miss
//!    for uniprocessor reasons (leading references, capacity, conflicts) —
//!    the "oracle" that never prefetches data that is not used;
//! 2. a [`TraceEvent::Prefetch`] is inserted into the instruction stream a
//!    *prefetch distance* of estimated CPU cycles ahead of each marked
//!    access (never hoisted across a lock or barrier);
//! 3. strategy variants tweak one knob each:
//!    [`Strategy::Excl`] fetches predicted-write misses in exclusive mode,
//!    [`Strategy::Lpd`] stretches the distance from 100 to 400 cycles, and
//!    [`Strategy::Pws`] adds redundant prefetches for write-shared lines
//!    chosen by a 16-line fully-associative temporal-locality filter.
//!
//! Because step 1 is the same for every strategy, [`TraceMarks`] computes
//! it once per raw trace, and each strategy becomes a [`PrefetchPlan`] of
//! insertion points that the simulator streams into the raw trace
//! ([`PreparedTrace`]). [`apply`] materializes the same plan as a new trace.
//!
//! # Example
//!
//! ```
//! use charlie_prefetch::{apply, PreparedTrace, Strategy, TraceMarks};
//! use charlie_cache::CacheGeometry;
//! use charlie_trace::{Addr, TraceBuilder};
//!
//! let mut b = TraceBuilder::new(1);
//! b.proc(0).work(200).read(Addr::new(0x100));
//! let trace = b.build();
//! let marks = TraceMarks::new(&trace, CacheGeometry::paper_default());
//! let plan = marks.plan(&trace, Strategy::Pref);
//! assert_eq!(plan.len(), 1); // the cold miss gets covered
//! let with_pf = apply(Strategy::Pref, &trace, CacheGeometry::paper_default());
//! assert_eq!(with_pf, PreparedTrace::new(&trace, &plan).to_trace());
//! ```
//!
//! [`TraceEvent::Prefetch`]: charlie_trace::TraceEvent::Prefetch

pub mod hw;
mod insert;
mod oracle;
mod plan;
mod pws;
pub mod rmw;
mod strategy;

pub use hw::{new_prefetcher, HwPrefetchConfig, HwPrefetcherKind, Prefetcher};
pub use plan::{Insertion, PrefetchPlan, PreparedTrace, ProcStream, StreamCursor, TraceMarks};
pub use strategy::Strategy;

use charlie_cache::CacheGeometry;
use charlie_trace::Trace;

/// Applies `strategy` to a demand trace, returning a new trace with prefetch
/// events inserted. [`Strategy::NoPrefetch`] returns a plain copy.
///
/// The input trace must not already contain prefetch events (they would
/// confuse the distance estimation); the paper's pipeline always starts from
/// the raw trace. The simulator does not need the copy: it streams a
/// [`PrefetchPlan`] into the raw trace instead.
///
/// # Panics
///
/// Panics if `trace` already contains prefetch events.
pub fn apply(strategy: Strategy, trace: &Trace, geometry: CacheGeometry) -> Trace {
    apply_with_distance(strategy, trace, geometry, strategy.prefetch_distance())
}

/// Like [`apply`], with an explicit prefetch distance (in estimated CPU
/// cycles) overriding the strategy's default. The paper's §4.3 studies this
/// knob: too short loses to prefetch-in-progress misses, too long to
/// conflicts.
///
/// # Panics
///
/// Panics if `trace` already contains prefetch events.
pub fn apply_with_distance(
    strategy: Strategy,
    trace: &Trace,
    geometry: CacheGeometry,
    distance: u64,
) -> Trace {
    let plan = TraceMarks::new(trace, geometry).plan_with_distance(trace, strategy, distance);
    PreparedTrace::new(trace, &plan).to_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::{Addr, TraceBuilder, TraceEvent};

    fn geom() -> CacheGeometry {
        CacheGeometry::paper_default()
    }

    #[test]
    fn no_prefetch_is_identity() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100)).work(5);
        let t = b.build();
        let out = apply(Strategy::NoPrefetch, &t, geom());
        assert_eq!(out, t);
    }

    #[test]
    fn pref_covers_cold_misses_only() {
        let mut b = TraceBuilder::new(1);
        b.proc(0)
            .work(500)
            .read(Addr::new(0x100)) // cold miss → prefetched
            .read(Addr::new(0x104)) // same-line hit → not prefetched
            .read(Addr::new(0x100)); // hit → not prefetched
        let out = apply(Strategy::Pref, &b.build(), geom());
        assert_eq!(out.total_prefetches(), 1);
        assert_eq!(out.total_accesses(), 3, "demand accesses preserved");
    }

    #[test]
    fn excl_marks_write_misses_exclusive() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(500).write(Addr::new(0x100)).read(Addr::new(0x200));
        let out = apply(Strategy::Excl, &b.build(), geom());
        let prefetches: Vec<_> = out
            .proc(0)
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Prefetch { addr, exclusive } => Some((*addr, *exclusive)),
                _ => None,
            })
            .collect();
        assert_eq!(prefetches.len(), 2);
        assert!(prefetches.iter().any(|&(a, ex)| a == Addr::new(0x100) && ex));
        assert!(prefetches.iter().any(|&(a, ex)| a == Addr::new(0x200) && !ex));
    }

    #[test]
    fn pref_uses_shared_mode_even_for_writes() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(500).write(Addr::new(0x100));
        let out = apply(Strategy::Pref, &b.build(), geom());
        let ex: Vec<_> = out
            .proc(0)
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Prefetch { exclusive, .. } => Some(*exclusive),
                _ => None,
            })
            .collect();
        assert_eq!(ex, vec![false]);
    }

    #[test]
    fn pws_adds_redundant_write_shared_prefetches() {
        // Line 0x100 is write-shared (P0 writes, P1 reads). P1 touches it,
        // then floods far past the 16-line PWS filter, then touches it again:
        // the second touch is a uniprocessor *hit* (32 KB cache) but a PWS
        // filter miss → PWS adds a prefetch that PREF would not.
        let mut b = TraceBuilder::new(2);
        {
            let mut p0 = b.proc(0);
            p0.work(10).write(Addr::new(0x100));
            for i in 0..40u64 {
                p0.write(Addr::new(0x1000 + i * 32)); // make the flood lines write-shared too
            }
        }
        {
            let mut p1 = b.proc(1);
            p1.work(10).read(Addr::new(0x100));
            for i in 0..40u64 {
                p1.read(Addr::new(0x1000 + i * 32));
            }
            p1.work(200).read(Addr::new(0x100));
        }
        let t = b.build();
        let pref = apply(Strategy::Pref, &t, geom());
        let pws = apply(Strategy::Pws, &t, geom());
        assert!(
            pws.proc(1).num_prefetches() > pref.proc(1).num_prefetches(),
            "PWS must add prefetches beyond PREF ({} vs {})",
            pws.proc(1).num_prefetches(),
            pref.proc(1).num_prefetches()
        );
    }

    #[test]
    fn lpd_hoists_further_than_pref() {
        // A miss 250 estimated cycles into the stream: PREF (distance 100)
        // inserts mid-stream, LPD (distance 400) hoists to the start.
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(125).work(125).read(Addr::new(0x100));
        let t = b.build();
        let pref = apply(Strategy::Pref, &t, geom());
        let lpd = apply(Strategy::Lpd, &t, geom());
        let pos = |tr: &Trace| {
            tr.proc(0)
                .events()
                .iter()
                .position(|e| matches!(e, TraceEvent::Prefetch { .. }))
                .expect("prefetch present")
        };
        assert!(pos(&lpd) < pos(&pref), "LPD inserts earlier");
        assert_eq!(pos(&lpd), 0);
    }

    #[test]
    #[should_panic(expected = "already contains prefetches")]
    fn rejects_double_application() {
        let mut b = TraceBuilder::new(1);
        b.proc(0).work(500).read(Addr::new(0x100));
        let once = apply(Strategy::Pref, &b.build(), geom());
        let _ = apply(Strategy::Pref, &once, geom());
    }

    #[test]
    fn multi_proc_streams_processed_independently() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).work(500).read(Addr::new(0x100));
        b.proc(1).work(500).read(Addr::new(0x8000)).read(Addr::new(0x8100));
        let out = apply(Strategy::Pref, &b.build(), geom());
        assert_eq!(out.proc(0).num_prefetches(), 1);
        assert_eq!(out.proc(1).num_prefetches(), 2);
    }
}
