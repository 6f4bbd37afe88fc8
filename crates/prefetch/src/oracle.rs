//! The oracle miss predictor: a uniprocessor filter-cache pass.

use charlie_cache::{CacheGeometry, FilterCache};
use charlie_trace::{Access, ProcTrace};

/// Runs the stream's demand accesses through a uniprocessor cache of the
/// same geometry as the real cache and returns the indices of the events
/// that miss, ascending.
///
/// This emulates the paper's off-line oracle: it "very accurately predict\[s\]
/// non-sharing cache hits and misses and never prefetches data that is not
/// used" — it sees leading references, capacity and conflict misses, but by
/// construction cannot see invalidation misses (those depend on the other
/// processors).
pub(crate) fn oracle_misses(stream: &ProcTrace, geometry: CacheGeometry) -> Vec<u32> {
    let mut filter = FilterCache::new(geometry);
    marked_accesses(stream, |access| !filter.access(access.addr))
}

/// Indices of the accesses of `stream` that `mark` selects, ascending.
pub(crate) fn marked_accesses(
    stream: &ProcTrace,
    mut mark: impl FnMut(Access) -> bool,
) -> Vec<u32> {
    assert!(u32::try_from(stream.len()).is_ok(), "stream too long for u32 event indices");
    stream.indexed_accesses().filter(|&(_, a)| mark(a)).map(|(i, _)| i as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::{Addr, TraceBuilder};

    fn misses(build: impl FnOnce(&mut charlie_trace::ProcTraceBuilder<'_>)) -> Vec<u32> {
        let mut b = TraceBuilder::new(1);
        build(&mut b.proc(0));
        let t = b.build();
        oracle_misses(t.proc(0), CacheGeometry::paper_default())
    }

    #[test]
    fn cold_miss_marked_same_line_hit_not() {
        let m = misses(|p| {
            p.read(Addr::new(0x100)).read(Addr::new(0x104));
        });
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn conflict_misses_marked() {
        let m = misses(|p| {
            p.read(Addr::new(0x0)).read(Addr::new(0x8000)).read(Addr::new(0x0));
        });
        assert_eq!(m, vec![0, 1, 2], "all three conflict");
    }

    #[test]
    fn non_access_events_are_inert() {
        let m = misses(|p| {
            p.work(10).lock(0).read(Addr::new(0x40)).unlock(0).barrier(0);
        });
        assert_eq!(m, vec![2]);
    }

    #[test]
    fn writes_miss_like_reads() {
        let m = misses(|p| {
            p.write(Addr::new(0x40)).read(Addr::new(0x80)).write(Addr::new(0x44));
        });
        assert_eq!(m, vec![0, 1]);
    }
}
