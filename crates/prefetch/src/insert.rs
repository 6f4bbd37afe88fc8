//! Placement of prefetch instructions into an event stream.

use crate::plan::Insertion;
use charlie_trace::{Access, ProcTrace, TraceEvent};

/// The sorted union of two ascending index lists.
pub(crate) fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Places one prefetch `distance` estimated CPU cycles ahead of each marked
/// access, in a single pass over the stream.
///
/// The distance is measured with the paper's off-line cost model
/// ([`charlie_trace::TraceEvent::estimated_cycles`]: 1 cycle/instruction,
/// accesses assumed to hit). Placement rules:
///
/// * the prefetch lands at the latest point that still leaves at least
///   `distance` cycles before the access (the paper argues for receiving
///   prefetched data "exactly on time");
/// * a prefetch is never hoisted across a lock or barrier operation (a
///   compiler would not move loads across synchronization);
/// * if the stream start or a synchronization boundary is closer than
///   `distance`, the prefetch is placed there.
///
/// Two cursors walk the stream: `lead` to each marked access, tracking the
/// cycles before it and the last synchronization boundary, and `trail` to
/// the latest point at least `distance` cycles behind it. Both only move
/// forward, because marks ascend and the cycle count never decreases.
/// `lead` then finishes the stream, so the pass also returns the stream's
/// [`ProcTrace::estimated_cycles`].
pub(crate) fn place(
    stream: &ProcTrace,
    marked: &[u32],
    distance: u64,
    mut exclusive: impl FnMut(usize, Access) -> bool,
) -> (Vec<Insertion>, u64) {
    let events = stream.events();
    assert!(
        marked.last().is_none_or(|&i| (i as usize) < events.len()),
        "marks must index the stream's events"
    );
    let mut out = Vec::with_capacity(marked.len());
    // Cycles before event `lead`; first index after the last sync before it.
    let (mut lead, mut lead_cycles, mut boundary) = (0usize, 0u64, 0usize);
    // Cycles before event `trail`.
    let (mut trail, mut trail_cycles) = (0usize, 0u64);
    for &i in marked {
        let i = i as usize;
        while lead < i {
            let ev = &events[lead];
            lead_cycles += ev.estimated_cycles();
            lead += 1;
            if ev.is_sync() {
                boundary = lead;
            }
        }
        let Some(access) = events[i].as_access() else { continue };
        let at = if lead_cycles <= distance {
            0
        } else {
            let target = lead_cycles - distance;
            while trail < i && trail_cycles + events[trail].estimated_cycles() <= target {
                trail_cycles += events[trail].estimated_cycles();
                trail += 1;
            }
            trail
        };
        out.push(Insertion {
            at: at.max(boundary) as u32,
            exclusive: exclusive(i, access),
            addr: access.addr,
        });
    }
    let total = lead_cycles + events[lead..].iter().map(TraceEvent::estimated_cycles).sum::<u64>();
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ProcStream;
    use charlie_trace::{Addr, BarrierId, TraceEvent};

    fn read(a: u64) -> TraceEvent {
        TraceEvent::Access(Access::read(Addr::new(a)))
    }

    /// Places prefetches for the accesses at `marked` (shared mode) and
    /// returns the merged stream.
    fn run(events: Vec<TraceEvent>, marked: &[u32], distance: u64) -> Vec<TraceEvent> {
        let stream = ProcTrace::from_events(events);
        let (inserts, total) = place(&stream, marked, distance, |_, _| false);
        assert_eq!(total, stream.estimated_cycles());
        ProcStream::new(stream.events(), &inserts).iter().collect()
    }

    fn prefetch_pos(out: &[TraceEvent]) -> usize {
        out.iter().position(|e| matches!(e, TraceEvent::Prefetch { .. })).expect("prefetch present")
    }

    #[test]
    fn exact_distance_placement() {
        // Events are atomic: the prefetch goes before the last event whose
        // prefix is ≤ 150 - 100 = 50, i.e. before the Work(150), giving
        // 150 ≥ 100 cycles.
        let out = run(vec![TraceEvent::Work(150), read(0x100)], &[1], 100);
        assert_eq!(prefetch_pos(&out), 0);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn fine_grained_work_gets_precise_placement() {
        // Ten Work(20) events then the access; distance 100 → five Work
        // events (100 cycles) remain after the prefetch.
        let mut events: Vec<TraceEvent> = (0..10).map(|_| TraceEvent::Work(20)).collect();
        events.push(read(0x100));
        assert_eq!(prefetch_pos(&run(events, &[10], 100)), 5);
    }

    #[test]
    fn short_stream_hoists_to_start() {
        let out = run(vec![TraceEvent::Work(10), read(0x100)], &[1], 100);
        assert_eq!(prefetch_pos(&out), 0);
    }

    #[test]
    fn never_hoists_across_sync() {
        let events = vec![
            TraceEvent::Work(500),
            TraceEvent::Barrier(BarrierId(0)),
            TraceEvent::Work(10),
            read(0x100),
        ];
        let out = run(events, &[3], 100);
        assert_eq!(prefetch_pos(&out), 2, "prefetch must stay after the barrier");
    }

    #[test]
    fn unmarked_stream_unchanged() {
        let events = vec![TraceEvent::Work(5), read(0x100)];
        assert_eq!(run(events.clone(), &[], 100), events);
    }

    #[test]
    fn demand_order_preserved_and_counts_add_up() {
        let events = vec![
            TraceEvent::Work(300),
            read(0x100),
            TraceEvent::Work(300),
            read(0x200),
            TraceEvent::Work(300),
            read(0x300),
        ];
        let out = run(events, &[1, 3, 5], 100);
        let addrs: Vec<u64> =
            out.iter().filter_map(|e| e.as_access().map(|a| a.addr.raw())).collect();
        assert_eq!(addrs, vec![0x100, 0x200, 0x300]);
        let pf = out.iter().filter(|e| matches!(e, TraceEvent::Prefetch { .. })).count();
        assert_eq!(pf, 3);
    }

    #[test]
    fn exclusive_flag_propagates() {
        let stream = ProcTrace::from_events(vec![
            TraceEvent::Work(10),
            TraceEvent::Access(Access::write(Addr::new(0x40))),
        ]);
        let (inserts, _) = place(&stream, &[1], 100, |_, a| a.kind.is_write());
        assert_eq!(inserts.len(), 1);
        assert!(inserts[0].exclusive);
        assert_eq!(inserts[0].at, 0);
    }

    #[test]
    #[should_panic(expected = "marks must index")]
    fn mark_length_mismatch_panics() {
        let stream = ProcTrace::from_events(vec![read(0)]);
        let _ = place(&stream, &[1], 100, |_, _| false);
    }

    #[test]
    fn union_merges_and_dedups() {
        assert_eq!(union(&[1, 3, 5], &[2, 3, 9]), vec![1, 2, 3, 5, 9]);
        assert_eq!(union(&[], &[4]), vec![4]);
        assert_eq!(union(&[4], &[]), vec![4]);
    }
}
