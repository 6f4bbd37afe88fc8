//! The PWS write-shared temporal-locality filter (paper §4.1).

use crate::oracle::marked_indices;
use charlie_cache::{CacheGeometry, FilterCache};
use charlie_trace::{ProcTrace, SharingMap, TraceEvent};

/// Computes the extra prefetch marks PWS adds on top of the oracle's.
///
/// Each processor's references to *write-shared* lines are run through a
/// 16-line fully-associative filter; the filter's misses select the accesses
/// to prefetch redundantly. The premise (quoting the paper): "the longer a
/// shared cache line has resided in the cache without being accessed, the
/// more likely it is to have been invalidated". These prefetches are
/// *redundant in the uniprocessor sense* — the data would still be cached
/// were it not for invalidations — which is exactly why the oracle cannot
/// mark them.
///
/// Returns the indices of the marked events, ascending.
pub(crate) fn pws_extra(
    stream: &ProcTrace,
    geometry: CacheGeometry,
    sharing: &SharingMap,
) -> Vec<u32> {
    debug_assert_eq!(
        sharing.block_bytes(),
        geometry.block_bytes(),
        "sharing map and cache geometry must agree on block size"
    );
    let mut filter = FilterCache::pws_default();
    marked_indices(stream, |ev| match ev {
        TraceEvent::Access(a) if sharing.is_write_shared(a.addr.line(geometry.block_bytes())) => {
            !filter.access(a.addr)
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::{Addr, TraceBuilder};

    #[test]
    fn only_write_shared_lines_considered() {
        let mut b = TraceBuilder::new(2);
        // 0x100: write-shared; 0x2000: private to P0.
        b.proc(0).read(Addr::new(0x100)).read(Addr::new(0x2000));
        b.proc(1).write(Addr::new(0x100));
        let t = b.build();
        let geometry = CacheGeometry::paper_default();
        let sharing = SharingMap::analyze(&t, 32);
        let marks = pws_extra(t.proc(0), geometry, &sharing);
        assert_eq!(marks, vec![0], "only the write-shared cold ref marked");
    }

    #[test]
    fn filter_eviction_re_marks_distant_reuse() {
        let mut b = TraceBuilder::new(2);
        {
            let mut p0 = b.proc(0);
            p0.read(Addr::new(0x100));
            // 20 other write-shared lines flush the 16-line filter.
            for i in 1..=20u64 {
                p0.read(Addr::new(0x100 + i * 32));
            }
            p0.read(Addr::new(0x100)); // distant reuse → marked again
        }
        {
            let mut p1 = b.proc(1);
            for i in 0..=20u64 {
                p1.write(Addr::new(0x100 + i * 32));
            }
        }
        let t = b.build();
        let sharing = SharingMap::analyze(&t, 32);
        let marks = pws_extra(t.proc(0), CacheGeometry::paper_default(), &sharing);
        assert_eq!(marks.first(), Some(&0), "cold filter miss");
        assert_eq!(marks.last(), Some(&21), "reuse after filter eviction re-marked");
    }

    #[test]
    fn near_reuse_not_marked() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).read(Addr::new(0x100)).work(5).read(Addr::new(0x104));
        b.proc(1).write(Addr::new(0x100));
        let t = b.build();
        let sharing = SharingMap::analyze(&t, 32);
        let marks = pws_extra(t.proc(0), CacheGeometry::paper_default(), &sharing);
        assert_eq!(marks, vec![0], "good temporal locality → no extra prefetch");
    }
}
