//! Off-line sharing analysis over a complete trace.
//!
//! The paper's PWS strategy needs to know, before the simulation runs, which
//! cache lines are *write-shared* (accessed by more than one processor and
//! written by at least one of them). [`SharingMap`] computes that
//! classification at a chosen block granularity.

use crate::addr::{LineAddr, ProcMask};
use crate::stream::Trace;
use fxhash::FxHashMap;

/// Word-level refinement of [`LineClass::WriteShared`]: is the sharing real
/// or an artifact of the line granularity?
///
/// The distinction predicts restructurability: a line whose *words* are each
/// private (only the line is shared) can be fixed by padding — the paper's
/// §4.4 transformation — while true word-level sharing cannot.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum WordClass {
    /// Some word is itself accessed by several processors with a writer:
    /// true sharing; restructuring cannot remove it.
    TrueShared,
    /// Every word is effectively private (or read-only), yet the line is
    /// write-shared: pure false sharing; padding removes all coherence
    /// traffic.
    FalseShared,
}

/// Classification of a cache line's observed sharing behaviour.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum LineClass {
    /// Touched by exactly one processor.
    Private,
    /// Touched by several processors, never written.
    ReadShared,
    /// Touched by several processors and written by at least one.
    WriteShared,
}

#[derive(Copy, Clone, Default)]
struct LineInfo {
    accessors: ProcMask,
    writers: ProcMask,
}

/// Per-line sharing classification computed from a full trace.
///
/// # Example
///
/// ```
/// use charlie_trace::{Addr, LineClass, SharingMap, TraceBuilder};
///
/// let mut b = TraceBuilder::new(2);
/// b.proc(0).read(Addr::new(0x100)).write(Addr::new(0x200));
/// b.proc(1).read(Addr::new(0x100)).write(Addr::new(0x204));
/// let map = SharingMap::analyze(&b.build(), 32);
/// assert_eq!(map.classify(Addr::new(0x100).line(32)), LineClass::ReadShared);
/// assert_eq!(map.classify(Addr::new(0x200).line(32)), LineClass::WriteShared);
/// ```
#[derive(Clone, Default)]
pub struct SharingMap {
    block_bytes: u64,
    /// Fx-hashed: the maps are built once per trace from every demand
    /// access, and only ever answer lookups and order-free counts.
    lines: FxHashMap<LineAddr, LineInfo>,
}

impl SharingMap {
    /// Scans the whole trace and records, per line, which processors access
    /// and which write it. Prefetch events are ignored: sharing is a property
    /// of the demand reference stream.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn analyze(trace: &Trace, block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        let mut lines: FxHashMap<LineAddr, LineInfo> = FxHashMap::default();
        for (p, stream) in trace.iter() {
            for access in stream.accesses() {
                let info = lines.entry(access.addr.line(block_bytes)).or_default();
                info.accessors.insert(p);
                if access.kind.is_write() {
                    info.writers.insert(p);
                }
            }
        }
        SharingMap { block_bytes, lines }
    }

    /// The block size the analysis ran at, in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Classifies a line. Lines never touched in the trace count as
    /// [`LineClass::Private`].
    pub fn classify(&self, line: LineAddr) -> LineClass {
        match self.lines.get(&line) {
            None => LineClass::Private,
            Some(info) => {
                if info.accessors.count() <= 1 {
                    LineClass::Private
                } else if info.writers.is_empty() {
                    LineClass::ReadShared
                } else {
                    LineClass::WriteShared
                }
            }
        }
    }

    /// Convenience: `true` when [`SharingMap::classify`] is
    /// [`LineClass::WriteShared`].
    pub fn is_write_shared(&self, line: LineAddr) -> bool {
        self.classify(line) == LineClass::WriteShared
    }

    /// Number of distinct lines touched in the trace.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Counts lines in each class: `(private, read_shared, write_shared)`.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for (&line, _) in self.lines.iter() {
            match self.classify(line) {
                LineClass::Private => counts.0 += 1,
                LineClass::ReadShared => counts.1 += 1,
                LineClass::WriteShared => counts.2 += 1,
            }
        }
        counts
    }
}

#[derive(Clone, Default)]
struct WordInfo {
    accessors: ProcMask,
    writers: ProcMask,
}

/// Word-granularity sharing analysis: refines every write-shared line into
/// [`WordClass::TrueShared`] or [`WordClass::FalseShared`].
///
/// # Example
///
/// ```
/// use charlie_trace::{Addr, TraceBuilder, WordClass, WordSharingMap};
///
/// let mut b = TraceBuilder::new(2);
/// b.proc(0).write(Addr::new(0x100)); // word 0
/// b.proc(1).read(Addr::new(0x11c)); // word 7, same line
/// let map = WordSharingMap::analyze(&b.build(), 32);
/// assert_eq!(
///     map.classify_write_shared(Addr::new(0x100).line(32)),
///     Some(WordClass::FalseShared)
/// );
/// ```
#[derive(Clone)]
pub struct WordSharingMap {
    block_bytes: u64,
    lines: FxHashMap<LineAddr, Vec<WordInfo>>,
    line_map: SharingMap,
}

impl WordSharingMap {
    /// Scans the whole trace at word granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn analyze(trace: &Trace, block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        let words_per_line = (block_bytes / 4) as usize;
        let mut lines: FxHashMap<LineAddr, Vec<WordInfo>> = FxHashMap::default();
        for (p, stream) in trace.iter() {
            for access in stream.accesses() {
                let line = access.addr.line(block_bytes);
                let word = access.addr.word_in_line(block_bytes) as usize;
                let words =
                    lines.entry(line).or_insert_with(|| vec![WordInfo::default(); words_per_line]);
                words[word].accessors.insert(p);
                if access.kind.is_write() {
                    words[word].writers.insert(p);
                }
            }
        }
        WordSharingMap { block_bytes, lines, line_map: SharingMap::analyze(trace, block_bytes) }
    }

    /// The block size the analysis ran at.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// For a write-shared line, whether the sharing is true (some word is
    /// multi-processor with a writer) or false (only the line is shared).
    /// Returns `None` for lines that are not write-shared.
    pub fn classify_write_shared(&self, line: LineAddr) -> Option<WordClass> {
        if self.line_map.classify(line) != LineClass::WriteShared {
            return None;
        }
        let words = self.lines.get(&line)?;
        let true_shared = words.iter().any(|w| w.accessors.count() > 1 && !w.writers.is_empty());
        Some(if true_shared { WordClass::TrueShared } else { WordClass::FalseShared })
    }

    /// `(false_shared, true_shared)` counts over the write-shared lines.
    pub fn word_class_counts(&self) -> (usize, usize) {
        let mut fs = 0;
        let mut ts = 0;
        for &line in self.lines.keys() {
            match self.classify_write_shared(line) {
                Some(WordClass::FalseShared) => fs += 1,
                Some(WordClass::TrueShared) => ts += 1,
                None => {}
            }
        }
        (fs, ts)
    }

    /// Fraction of write-shared lines whose sharing is purely false — an
    /// off-line predictor of how much the §4.4 restructuring can help.
    pub fn false_sharing_potential(&self) -> f64 {
        let (fs, ts) = self.word_class_counts();
        if fs + ts == 0 {
            0.0
        } else {
            fs as f64 / (fs + ts) as f64
        }
    }
}

impl std::fmt::Debug for WordSharingMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (fs, ts) = self.word_class_counts();
        f.debug_struct("WordSharingMap")
            .field("block_bytes", &self.block_bytes)
            .field("false_shared_lines", &fs)
            .field("true_shared_lines", &ts)
            .finish()
    }
}

impl std::fmt::Debug for SharingMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p, r, w) = self.class_counts();
        f.debug_struct("SharingMap")
            .field("block_bytes", &self.block_bytes)
            .field("private", &p)
            .field("read_shared", &r)
            .field("write_shared", &w)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::builder::TraceBuilder;

    #[test]
    fn classify_untouched_is_private() {
        let map = SharingMap::analyze(&Trace::new(2), 32);
        assert_eq!(map.classify(Addr::new(0x100).line(32)), LineClass::Private);
        assert_eq!(map.num_lines(), 0);
    }

    #[test]
    fn single_writer_single_proc_is_private() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100)).read(Addr::new(0x104));
        let map = SharingMap::analyze(&b.build(), 32);
        assert_eq!(map.classify(Addr::new(0x100).line(32)), LineClass::Private);
    }

    #[test]
    fn false_sharing_words_still_write_shared_line() {
        // Two processors touching *different words* of one line is exactly
        // the false-sharing pattern; at line granularity it is write-shared.
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100));
        b.proc(1).read(Addr::new(0x11c));
        let map = SharingMap::analyze(&b.build(), 32);
        assert_eq!(map.classify(Addr::new(0x100).line(32)), LineClass::WriteShared);
        assert!(map.is_write_shared(Addr::new(0x11c).line(32)));
    }

    #[test]
    fn read_only_sharing() {
        let mut b = TraceBuilder::new(3);
        for p in 0..3 {
            b.proc(p).read(Addr::new(0x400));
        }
        let map = SharingMap::analyze(&b.build(), 32);
        assert_eq!(map.classify(Addr::new(0x400).line(32)), LineClass::ReadShared);
    }

    #[test]
    fn block_size_changes_classification() {
        // Accesses 64 bytes apart share a 128-byte line but not a 32-byte one.
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100));
        b.proc(1).read(Addr::new(0x140));
        let m32 = SharingMap::analyze(&b.build(), 32);
        assert_eq!(m32.classify(Addr::new(0x100).line(32)), LineClass::Private);
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100));
        b.proc(1).read(Addr::new(0x140));
        let m128 = SharingMap::analyze(&b.build(), 128);
        assert_eq!(m128.classify(Addr::new(0x100).line(128)), LineClass::WriteShared);
    }

    #[test]
    fn word_map_detects_pure_false_sharing() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100)); // word 0
        b.proc(1).write(Addr::new(0x104)); // word 1
        let m = WordSharingMap::analyze(&b.build(), 32);
        assert_eq!(
            m.classify_write_shared(Addr::new(0x100).line(32)),
            Some(WordClass::FalseShared)
        );
        assert_eq!(m.word_class_counts(), (1, 0));
        assert_eq!(m.false_sharing_potential(), 1.0);
    }

    #[test]
    fn word_map_detects_true_sharing() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100));
        b.proc(1).read(Addr::new(0x100)); // same word
        let m = WordSharingMap::analyze(&b.build(), 32);
        assert_eq!(
            m.classify_write_shared(Addr::new(0x100).line(32)),
            Some(WordClass::TrueShared)
        );
        assert_eq!(m.false_sharing_potential(), 0.0);
    }

    #[test]
    fn word_map_mixed_line_counts_as_true_sharing() {
        // One truly-shared word plus one falsely-shared word: padding alone
        // cannot fix the line, so it classifies as true sharing.
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x100)).write(Addr::new(0x104));
        b.proc(1).read(Addr::new(0x100)).read(Addr::new(0x108));
        let m = WordSharingMap::analyze(&b.build(), 32);
        assert_eq!(
            m.classify_write_shared(Addr::new(0x100).line(32)),
            Some(WordClass::TrueShared)
        );
    }

    #[test]
    fn word_map_ignores_non_write_shared_lines() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).read(Addr::new(0x100));
        b.proc(1).read(Addr::new(0x104)); // read-shared line
        b.proc(0).write(Addr::new(0x200)); // private line
        let m = WordSharingMap::analyze(&b.build(), 32);
        assert_eq!(m.classify_write_shared(Addr::new(0x100).line(32)), None);
        assert_eq!(m.classify_write_shared(Addr::new(0x200).line(32)), None);
        assert_eq!(m.word_class_counts(), (0, 0));
        assert_eq!(m.false_sharing_potential(), 0.0);
    }

    #[test]
    fn class_counts_sum_to_num_lines() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x0)).read(Addr::new(0x40)).read(Addr::new(0x80));
        b.proc(1).read(Addr::new(0x40)).write(Addr::new(0x80));
        let map = SharingMap::analyze(&b.build(), 32);
        let (p, r, w) = map.class_counts();
        assert_eq!(p + r + w, map.num_lines());
        assert_eq!((p, r, w), (1, 1, 1));
    }
}
