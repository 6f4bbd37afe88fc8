//! Set-associative cache array with LRU replacement.
//!
//! The array stores [`CacheLine`] metadata only. Coherence *decisions* are
//! made by [`crate::protocol`]; the array provides the mechanics: probing,
//! filling with victim selection, snoop-driven state changes.

use crate::geometry::CacheGeometry;
use crate::line::CacheLine;
use crate::protocol::{self, Protocol};
use crate::state::LineState;
use crate::victim::{VictimBuffer, VictimEntry};
use charlie_trace::LineAddr;

/// Result of probing the array for a line.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Valid copy present.
    Hit {
        /// Way within the set.
        way: u32,
        /// Current coherence state.
        state: LineState,
    },
    /// The frame still holds the tag but the line was invalidated: the
    /// paper's *invalidation miss* ("the tags match, but the state has been
    /// marked invalid").
    InvalidatedMatch {
        /// Way within the set.
        way: u32,
    },
    /// No frame in the set matches the tag: a *non-sharing* miss (first use,
    /// or the line was replaced).
    Miss,
}

impl Probe {
    /// `true` for [`Probe::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, Probe::Hit { .. })
    }
}

/// A valid line displaced by a fill, reported so the caller can issue a
/// write-back and record prefetch-waste statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct EvictedLine {
    /// Address of the displaced line.
    pub line: LineAddr,
    /// Its state at eviction (dirty ⇒ write-back required).
    pub state: LineState,
    /// The displaced line had been brought in by a prefetch and never used by
    /// a demand access.
    pub prefetched_unused: bool,
}

/// Classified result of a single-pass search of one set.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum SetFind {
    /// Matching tag, valid state.
    Hit(u32),
    /// Matching tag, but the frame was invalidated.
    InvalidMatch(u32),
    /// No frame holds the tag.
    Miss,
}

/// A single processor's cache: tags, Illinois states, LRU, and the per-line
/// bookkeeping the paper's miss taxonomy requires.
///
/// See the crate-level example for typical use.
#[derive(Clone, Debug)]
pub struct CacheArray {
    geom: CacheGeometry,
    /// Ways per set (the stride of `ways` and `stamp`).
    assoc: usize,
    /// Every frame, set-major: set `s` owns `ways[s * assoc..(s + 1) * assoc]`.
    /// One flat allocation instead of two small vectors per set keeps a
    /// cache's construction to a handful of allocations.
    ways: Vec<CacheLine>,
    /// Per-frame last-use timestamps (larger = more recent). A touch is one
    /// store, and victim selection folds into the pass that searches the
    /// tags. Stamps within a set are unique (one monotonic clock, distinct
    /// initial values), so replacement order is exactly LRU order.
    stamp: Vec<u64>,
    /// Next timestamp to hand out.
    clock: u64,
    victim: VictimBuffer,
}

impl CacheArray {
    /// Creates an empty cache with the given geometry (no victim buffer).
    pub fn new(geom: CacheGeometry) -> Self {
        CacheArray::with_victim(geom, 0)
    }

    /// Creates an empty cache backed by a fully-associative victim buffer of
    /// `victim_entries` lines (a small fully-associative Jouppi buffer; 0 disables it).
    pub fn with_victim(geom: CacheGeometry, victim_entries: usize) -> Self {
        let a = u64::from(geom.associativity());
        let sets = geom.num_sets() as usize;
        CacheArray {
            geom,
            assoc: a as usize,
            ways: vec![CacheLine::new(); sets * a as usize],
            // Way 0 starts most recent, way a-1 least recent — the initial
            // order of the old MRU list, which tests pin.
            stamp: (0..sets).flat_map(|_| (0..a).rev()).collect(),
            clock: a,
            victim: VictimBuffer::new(victim_entries),
        }
    }

    /// The frames of set `set_idx` (index range into `ways`/`stamp`).
    #[inline]
    fn set_range(&self, set_idx: usize) -> std::ops::Range<usize> {
        set_idx * self.assoc..(set_idx + 1) * self.assoc
    }

    /// One pass over a set's frames: at most one frame can hold a given
    /// tag, so the first match wins and its validity classifies the result.
    #[inline]
    fn find_in(&self, set_idx: usize, tag: u64) -> SetFind {
        for (w, l) in self.ways[self.set_range(set_idx)].iter().enumerate() {
            if l.matches(tag) {
                return if l.state().is_valid() {
                    SetFind::Hit(w as u32)
                } else {
                    SetFind::InvalidMatch(w as u32)
                };
            }
        }
        SetFind::Miss
    }

    /// Victim selection in a single pass over a set: reuse the matching-tag
    /// frame if any (refill after invalidation), else the least-recently-used
    /// invalid frame, else the least-recently-used frame overall.
    fn victim_in(&self, set_idx: usize, tag: u64) -> u32 {
        let r = self.set_range(set_idx);
        let stamp = &self.stamp[r.clone()];
        let mut oldest = 0usize;
        let mut oldest_invalid: Option<usize> = None;
        for (w, l) in self.ways[r].iter().enumerate() {
            if l.matches(tag) {
                return w as u32;
            }
            if stamp[w] < stamp[oldest] {
                oldest = w;
            }
            if !l.state().is_valid() && oldest_invalid.is_none_or(|o| stamp[w] < stamp[o]) {
                oldest_invalid = Some(w);
            }
        }
        oldest_invalid.unwrap_or(oldest) as u32
    }

    #[inline]
    fn touch(&mut self, set_idx: usize, way: u32) {
        self.stamp[set_idx * self.assoc + way as usize] = self.clock;
        self.clock += 1;
    }

    #[inline]
    fn at(&self, set_idx: usize, way: u32) -> usize {
        set_idx * self.assoc + way as usize
    }

    /// Capacity of the victim buffer (0 = disabled).
    pub fn victim_capacity(&self) -> usize {
        self.victim.capacity()
    }

    /// Whether the victim buffer holds a valid copy of `line`.
    pub fn probe_victim(&self, line: LineAddr) -> bool {
        self.victim.contains(line)
    }

    /// Swaps `line` back from the victim buffer into the main array,
    /// preserving its state and bookkeeping. Returns the line that leaves
    /// the hierarchy (the displaced line's castout), if any.
    ///
    /// Returns `None` without effect when the line is not buffered — check
    /// [`CacheArray::probe_victim`] first if the distinction matters (a
    /// castout also yields `None`, so use the probe, not this return value,
    /// to detect victim hits).
    pub fn recall_from_victim(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let entry = self.victim.take(line)?;
        self.install_frame(entry)
    }

    /// Installs a preserved frame into the main array, spilling any
    /// displaced valid line into the victim buffer. Returns the castout
    /// leaving the hierarchy, if any.
    fn install_frame(&mut self, entry: VictimEntry) -> Option<EvictedLine> {
        let line = entry.line;
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        let way = self.victim_in(set_idx, tag);
        let displaced = {
            let frame = &self.ways[self.at(set_idx, way)];
            if frame.state().is_valid() && !frame.matches(tag) {
                Some(VictimEntry {
                    line: self.geom.line_from_parts(frame.tag(), set_idx as u64),
                    frame: *frame,
                })
            } else {
                None
            }
        };
        let i = self.at(set_idx, way);
        self.ways[i] = entry.frame;
        self.touch(set_idx, way);
        let castout = displaced.and_then(|d| self.spill(d));
        castout.map(|c| EvictedLine {
            line: c.line,
            state: c.frame.state(),
            prefetched_unused: c.frame.filled_by_prefetch() && !c.frame.used_since_fill(),
        })
    }

    /// Routes an evicted valid line through the victim buffer; returns the
    /// entry that actually leaves the hierarchy.
    fn spill(&mut self, entry: VictimEntry) -> Option<VictimEntry> {
        if self.victim.capacity() == 0 {
            Some(entry)
        } else {
            self.victim.insert(entry)
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    fn set_of(&self, line: LineAddr) -> usize {
        self.geom.set_index(line) as usize
    }

    /// Probes for `line` without modifying any state (not even LRU).
    pub fn probe_line(&self, line: LineAddr) -> Probe {
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        match self.find_in(set_idx, tag) {
            SetFind::Miss => Probe::Miss,
            SetFind::Hit(way) => Probe::Hit { way, state: self.ways[self.at(set_idx, way)].state() },
            SetFind::InvalidMatch(way) => Probe::InvalidatedMatch { way },
        }
    }

    /// Probes for the line containing byte address `addr`.
    pub fn probe(&self, addr: charlie_trace::Addr) -> Probe {
        self.probe_line(self.geom.line(addr))
    }

    /// Immutable view of a frame found by a probe.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range for the set of `line`.
    pub fn frame(&self, line: LineAddr, way: u32) -> &CacheLine {
        &self.ways[self.at(self.set_of(line), way)]
    }

    /// Mutable view of a frame found by a probe; also freshens LRU.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range for the set of `line`.
    pub fn frame_mut(&mut self, line: LineAddr, way: u32) -> &mut CacheLine {
        let set_idx = self.set_of(line);
        self.touch(set_idx, way);
        let i = self.at(set_idx, way);
        &mut self.ways[i]
    }

    /// Installs `line` in state `state`, evicting if necessary.
    ///
    /// Returns the displaced valid line, if any, so the caller can issue a
    /// write-back (dirty victim) and account for wasted prefetches.
    pub fn fill(&mut self, line: LineAddr, state: LineState, by_prefetch: bool) -> Option<EvictedLine> {
        // A stale buffered copy (e.g. the fill was issued before the victim
        // copy was noticed) must not linger.
        let _ = self.victim.take(line);
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        let way = self.victim_in(set_idx, tag);
        let displaced = {
            let frame = &self.ways[self.at(set_idx, way)];
            if frame.state().is_valid() && !frame.matches(tag) {
                Some(VictimEntry {
                    line: self.geom.line_from_parts(frame.tag(), set_idx as u64),
                    frame: *frame,
                })
            } else {
                None
            }
        };
        let i = self.at(set_idx, way);
        self.ways[i].fill(tag, state, by_prefetch);
        self.touch(set_idx, way);
        let castout = displaced.and_then(|d| self.spill(d));
        castout.map(|c| EvictedLine {
            line: c.line,
            state: c.frame.state(),
            prefetched_unused: c.frame.filled_by_prefetch() && !c.frame.used_since_fill(),
        })
    }

    /// Comprehensive invalidation snoop covering the main array *and* the
    /// victim buffer. Returns the pre-invalidation state and whether the
    /// killed copy was a never-used prefetch.
    pub fn snoop_invalidate(&mut self, line: LineAddr, word: u32) -> Option<(LineState, bool)> {
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        match self.find_in(set_idx, tag) {
            SetFind::Hit(way) => {
                let i = self.at(set_idx, way);
                let frame = &mut self.ways[i];
                let prev = frame.state();
                let unused = frame.filled_by_prefetch() && !frame.used_since_fill();
                frame.invalidate_by_remote_write(word);
                return Some((prev, unused));
            }
            SetFind::InvalidMatch(_) => return None,
            SetFind::Miss => {}
        }
        self.victim.take(line).map(|e| {
            (e.frame.state(), e.frame.filled_by_prefetch() && !e.frame.used_since_fill())
        })
    }

    /// Comprehensive remote-read downgrade snoop covering the main array and
    /// the victim buffer; returns the pre-snoop state of a valid copy. The
    /// target state is protocol-dependent (dirty suppliers keep ownership
    /// under Dragon/MOESI — see [`protocol::read_snoop_state`]).
    pub fn snoop_downgrade(&mut self, line: LineAddr, proto: Protocol) -> Option<LineState> {
        if let Some(prev) = self.downgrade_remote(line, proto) {
            return Some(prev);
        }
        self.victim.downgrade(line, proto)
    }

    /// Applies an update-broadcast snoop to a peer copy of `line` (main
    /// array and victim buffer): the copy absorbs the word and, under
    /// Dragon, an `Sm` peer cedes ownership to the writer. Returns the
    /// pre-snoop state of a valid copy.
    pub fn snoop_update(&mut self, line: LineAddr, proto: Protocol) -> Option<LineState> {
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        if let SetFind::Hit(way) = self.find_in(set_idx, tag) {
            let i = self.at(set_idx, way);
            let frame = &mut self.ways[i];
            let prev = frame.state();
            frame.downgrade(protocol::update_snoop_state(proto, prev));
            return Some(prev);
        }
        self.victim.update(line, proto)
    }

    /// Applies a remote invalidation (read-exclusive or upgrade snoop) for
    /// `line`, where the remote write targets word `word`.
    ///
    /// Returns the frame's pre-invalidation state if a valid copy was
    /// present (so the caller can tell whether data had to be supplied and
    /// whether a prefetched-unused line was killed), or `None` otherwise.
    pub fn invalidate_remote(&mut self, line: LineAddr, word: u32) -> Option<LineState> {
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        let SetFind::Hit(way) = self.find_in(set_idx, tag) else { return None };
        let i = self.at(set_idx, way);
        let frame = &mut self.ways[i];
        let prev = frame.state();
        frame.invalidate_by_remote_write(word);
        Some(prev)
    }

    /// Applies a remote-read downgrade snoop for `line` (valid copy drops to
    /// the protocol's read-snoop state — `Shared`, or `Sm`/`O` for a dirty
    /// supplier under Dragon/MOESI). Returns the pre-snoop state if a valid
    /// copy was present.
    pub fn downgrade_remote(&mut self, line: LineAddr, proto: Protocol) -> Option<LineState> {
        let tag = self.geom.tag(line);
        let set_idx = self.set_of(line);
        let SetFind::Hit(way) = self.find_in(set_idx, tag) else { return None };
        let i = self.at(set_idx, way);
        let frame = &mut self.ways[i];
        let prev = frame.state();
        frame.downgrade(protocol::read_snoop_state(proto, prev));
        Some(prev)
    }

    /// Current state of `line` if a valid copy is resident in the main
    /// array or the victim buffer.
    pub fn state_of(&self, line: LineAddr) -> Option<LineState> {
        match self.probe_line(line) {
            Probe::Hit { state, .. } => Some(state),
            _ => self.victim.iter().find(|(l, _)| *l == line).map(|(_, s)| s),
        }
    }

    /// Iterates over all valid resident lines (main array, then victim
    /// buffer) as `(LineAddr, LineState)`.
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineAddr, LineState)> + '_ {
        self.ways
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state().is_valid())
            .map(move |(i, l)| {
                (self.geom.line_from_parts(l.tag(), (i / self.assoc) as u64), l.state())
            })
            .chain(self.victim.iter())
    }

    /// Number of valid resident lines (including the victim buffer).
    pub fn num_valid(&self) -> usize {
        self.ways.iter().filter(|l| l.state().is_valid()).count() + self.victim.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::Addr;

    fn dm_cache() -> CacheArray {
        CacheArray::new(CacheGeometry::paper_default())
    }

    #[test]
    fn empty_cache_misses() {
        let c = dm_cache();
        assert_eq!(c.probe(Addr::new(0x1234)), Probe::Miss);
        assert_eq!(c.num_valid(), 0);
    }

    #[test]
    fn fill_hit_roundtrip() {
        let mut c = dm_cache();
        let line = Addr::new(0x1234).line(32);
        assert_eq!(c.fill(line, LineState::Shared, false), None);
        match c.probe(Addr::new(0x1220)) {
            Probe::Hit { state, .. } => assert_eq!(state, LineState::Shared),
            p => panic!("expected hit, got {p:?}"),
        }
        assert_eq!(c.num_valid(), 1);
        assert_eq!(c.state_of(line), Some(LineState::Shared));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_cache();
        let a = Addr::new(0x0000).line(32);
        let b = Addr::new(0x8000).line(32); // same set, different tag
        c.fill(a, LineState::PrivateDirty, false);
        let evicted = c.fill(b, LineState::Shared, false).expect("conflict eviction");
        assert_eq!(evicted.line, a);
        assert_eq!(evicted.state, LineState::PrivateDirty);
        assert!(!evicted.prefetched_unused);
        assert_eq!(c.probe_line(a), Probe::Miss);
        assert!(c.probe_line(b).is_hit());
    }

    #[test]
    fn eviction_reports_unused_prefetch() {
        let mut c = dm_cache();
        let a = Addr::new(0x0000).line(32);
        let b = Addr::new(0x8000).line(32);
        c.fill(a, LineState::PrivateClean, true); // prefetched, never used
        let evicted = c.fill(b, LineState::Shared, false).unwrap();
        assert!(evicted.prefetched_unused);
    }

    #[test]
    fn invalidation_match_probe() {
        let mut c = dm_cache();
        let line = Addr::new(0x40).line(32);
        c.fill(line, LineState::Shared, false);
        assert_eq!(c.invalidate_remote(line, 3), Some(LineState::Shared));
        match c.probe_line(line) {
            Probe::InvalidatedMatch { way } => {
                assert_eq!(c.frame(line, way).inval_word(), Some(3));
            }
            p => panic!("expected invalidated match, got {p:?}"),
        }
        // Second invalidation is a no-op.
        assert_eq!(c.invalidate_remote(line, 4), None);
    }

    #[test]
    fn refill_after_invalidation_reuses_frame() {
        let mut c = dm_cache();
        let line = Addr::new(0x40).line(32);
        c.fill(line, LineState::Shared, false);
        c.invalidate_remote(line, 0);
        assert_eq!(c.fill(line, LineState::Shared, false), None);
        assert!(c.probe_line(line).is_hit());
    }

    #[test]
    fn downgrade_remote_shares() {
        let mut c = dm_cache();
        let line = Addr::new(0x40).line(32);
        c.fill(line, LineState::PrivateDirty, false);
        assert_eq!(
            c.downgrade_remote(line, Protocol::WriteInvalidate),
            Some(LineState::PrivateDirty)
        );
        assert_eq!(c.state_of(line), Some(LineState::Shared));
        // Missing line: no-op.
        assert_eq!(c.downgrade_remote(Addr::new(0x9000).line(32), Protocol::WriteInvalidate), None);
    }

    #[test]
    fn downgrade_remote_keeps_ownership_under_moesi_and_dragon() {
        let mut c = dm_cache();
        let line = Addr::new(0x40).line(32);
        c.fill(line, LineState::PrivateDirty, false);
        assert_eq!(c.downgrade_remote(line, Protocol::Moesi), Some(LineState::PrivateDirty));
        assert_eq!(c.state_of(line), Some(LineState::Owned));

        let mut c = dm_cache();
        c.fill(line, LineState::PrivateDirty, false);
        assert_eq!(c.downgrade_remote(line, Protocol::Dragon), Some(LineState::PrivateDirty));
        assert_eq!(c.state_of(line), Some(LineState::SharedModified));
    }

    #[test]
    fn snoop_update_transfers_dragon_ownership() {
        let mut c = dm_cache();
        let line = Addr::new(0x40).line(32);
        c.fill(line, LineState::Shared, false);
        // Simulate an earlier local write that left this peer as Sm.
        if let Probe::Hit { way, .. } = c.probe_line(line) {
            c.frame_mut(line, way).downgrade(LineState::SharedModified);
        }
        assert_eq!(c.snoop_update(line, Protocol::Dragon), Some(LineState::SharedModified));
        assert_eq!(c.state_of(line), Some(LineState::Shared));
        // Firefly peers keep their shared copies untouched.
        assert_eq!(c.snoop_update(line, Protocol::WriteUpdate), Some(LineState::Shared));
        assert_eq!(c.state_of(line), Some(LineState::Shared));
        // Missing line: no-op.
        assert_eq!(c.snoop_update(Addr::new(0x9000).line(32), Protocol::Dragon), None);
    }

    #[test]
    fn lru_in_two_way_set() {
        let geom = CacheGeometry::new(64 * 32 * 2, 32, 2).unwrap(); // 64 sets, 2-way
        let mut c = CacheArray::new(geom);
        // Three lines mapping to set 0.
        let stride = 64 * 32; // set stride
        let a = Addr::new(0).line(32);
        let b = Addr::new(stride).line(32);
        let d = Addr::new(2 * stride).line(32);
        c.fill(a, LineState::Shared, false);
        c.fill(b, LineState::Shared, false);
        // Touch `a` so `b` becomes LRU.
        if let Probe::Hit { way, .. } = c.probe_line(a) {
            c.frame_mut(a, way).record_access(0, LineState::Shared);
        } else {
            panic!("a resident");
        }
        let evicted = c.fill(d, LineState::Shared, false).unwrap();
        assert_eq!(evicted.line, b, "LRU way must be evicted");
        assert!(c.probe_line(a).is_hit());
        assert!(c.probe_line(d).is_hit());
    }

    #[test]
    fn invalid_frame_preferred_over_eviction() {
        let geom = CacheGeometry::new(64 * 32 * 2, 32, 2).unwrap();
        let mut c = CacheArray::new(geom);
        let stride = 64 * 32;
        let a = Addr::new(0).line(32);
        let b = Addr::new(stride).line(32);
        let d = Addr::new(2 * stride).line(32);
        c.fill(a, LineState::Shared, false);
        c.fill(b, LineState::Shared, false);
        c.invalidate_remote(a, 0); // a's frame is now invalid (ghost)
        // Filling d should reuse a's frame, not evict b.
        assert_eq!(c.fill(d, LineState::Shared, false), None);
        assert!(c.probe_line(b).is_hit());
        assert!(c.probe_line(d).is_hit());
        assert_eq!(c.probe_line(a), Probe::Miss, "ghost frame overwritten");
    }

    #[test]
    fn iter_valid_lists_resident_lines() {
        let mut c = dm_cache();
        let l1 = Addr::new(0x40).line(32);
        let l2 = Addr::new(0x80).line(32);
        c.fill(l1, LineState::Shared, false);
        c.fill(l2, LineState::PrivateDirty, false);
        let mut lines: Vec<_> = c.iter_valid().collect();
        lines.sort();
        assert_eq!(lines, vec![(l1, LineState::Shared), (l2, LineState::PrivateDirty)]);
    }

    #[test]
    fn refill_same_tag_is_not_eviction() {
        let mut c = dm_cache();
        let line = Addr::new(0x40).line(32);
        c.fill(line, LineState::Shared, false);
        assert_eq!(c.fill(line, LineState::PrivateClean, false), None);
        assert_eq!(c.state_of(line), Some(LineState::PrivateClean));
    }
}
