//! Read-modify-write detection for exclusive prefetching.
//!
//! The paper's EXCL strategy barely beats PREF because "most of the leading
//! references to shared lines are not writes"; §4.3 then suggests the fix:
//! "a compiler might recognize when a read is followed immediately by a
//! write and make more effective use of the exclusive prefetch feature" —
//! fetching such lines exclusive up front saves the upgrade transaction the
//! write would otherwise need. [`Strategy::ExclRmw`] implements that
//! suggestion; this module provides the detection pass.
//!
//! [`Strategy::ExclRmw`]: crate::Strategy::ExclRmw

use charlie_cache::CacheGeometry;
use charlie_trace::{Access, TraceEvent};

/// How soon (in estimated CPU cycles) a write must follow the read for the
/// pair to count as a read-modify-write idiom.
pub const RMW_WINDOW_CYCLES: u64 = 50;

/// Whether a write to the line of `access` follows it within
/// [`RMW_WINDOW_CYCLES`], never looking across a lock or barrier. `later`
/// holds the stored slots after the access, as `(gap, event)` pairs the way
/// [`Slots::get`] gives them.
///
/// [`Slots::get`]: charlie_trace::Slots::get
pub fn write_follows(
    access: Access,
    later: impl Iterator<Item = (u32, TraceEvent)>,
    geometry: CacheGeometry,
) -> bool {
    let line = geometry.line(access.addr);
    let mut budget = RMW_WINDOW_CYCLES;
    for (gap, later) in later {
        // The gap is work in front of `later`: it only spends budget.
        let gap = u64::from(gap);
        if gap >= budget {
            return false;
        }
        budget -= gap;
        if later.is_sync() {
            return false;
        }
        if let Some(a) = later.as_access() {
            if a.kind.is_write() && geometry.line(a.addr) == line {
                return true;
            }
        }
        let cost = later.estimated_cycles();
        if cost >= budget {
            return false;
        }
        budget -= cost;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::{Addr, TraceBuilder};

    fn follows(build: impl FnOnce(&mut charlie_trace::ProcTraceBuilder<'_>)) -> bool {
        let mut b = TraceBuilder::new(1);
        build(&mut b.proc(0));
        let t = b.build();
        let slots = t.proc(0).slots();
        let later = (1..).map_while(|k| slots.get(k));
        match slots.get(0).and_then(|(_, ev)| ev.as_access()) {
            Some(access) => write_follows(access, later, CacheGeometry::paper_default()),
            None => false,
        }
    }

    #[test]
    fn read_then_write_same_line_marked_exclusive() {
        assert!(follows(|p| {
            p.read(Addr::new(0x100)).work(5).write(Addr::new(0x104));
        }));
    }

    #[test]
    fn read_without_write_stays_shared() {
        assert!(!follows(|p| {
            p.read(Addr::new(0x100)).work(5).read(Addr::new(0x104));
        }));
    }

    #[test]
    fn write_to_other_line_ignored() {
        assert!(!follows(|p| {
            p.read(Addr::new(0x100)).write(Addr::new(0x200));
        }));
    }

    #[test]
    fn window_limits_lookahead() {
        assert!(!follows(|p| {
            p.read(Addr::new(0x100)).work(500).write(Addr::new(0x104));
        }));
    }

    #[test]
    fn sync_stops_lookahead() {
        assert!(!follows(|p| {
            p.read(Addr::new(0x100)).lock(0).write(Addr::new(0x104)).unlock(0);
        }));
    }

    #[test]
    fn unmarked_reads_untouched() {
        // The second read hits (not marked), so it gets no prefetch even
        // though a write follows; the first read's prefetch is exclusive.
        let mut b = TraceBuilder::new(1);
        b.proc(0).read(Addr::new(0x100)).read(Addr::new(0x104)).write(Addr::new(0x108));
        let t = b.build();
        let plan = crate::TraceMarks::new(&t, CacheGeometry::paper_default())
            .plan(&t, crate::Strategy::ExclRmw);
        let inserts = plan.proc(0);
        assert_eq!(inserts.len(), 1);
        assert!(inserts[0].exclusive);
        assert_eq!(inserts[0].addr.unpack(), Addr::new(0x100));
    }

    #[test]
    fn non_access_never_detected() {
        // Work of 128 cycles keeps a slot of its own instead of folding
        // into the write, so the first slot holds no access.
        assert!(!follows(|p| {
            p.work(128).write(Addr::new(0x104));
        }));
    }
}
