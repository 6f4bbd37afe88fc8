//! Summary statistics over traces, used for workload reporting (the paper's
//! Table 1) and generator calibration.

use crate::event::TraceEvent;
use crate::sharing::SharingMap;
use crate::stream::{ProcTrace, Trace};
use std::fmt;

/// Per-processor stream statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProcTraceStats {
    /// Demand reads.
    pub reads: u64,
    /// Demand writes.
    pub writes: u64,
    /// Prefetch events.
    pub prefetches: u64,
    /// Pure-CPU work cycles.
    pub work_cycles: u64,
    /// Lock acquires.
    pub lock_acquires: u64,
    /// Barrier arrivals.
    pub barriers: u64,
}

impl ProcTraceStats {
    /// Gathers statistics for one stream.
    pub fn gather(stream: &ProcTrace) -> Self {
        let mut s = ProcTraceStats::default();
        for ev in stream.events() {
            match ev {
                TraceEvent::Work(n) => s.work_cycles += u64::from(n),
                TraceEvent::Access { kind, .. } => {
                    if kind.is_write() {
                        s.writes += 1;
                    } else {
                        s.reads += 1;
                    }
                }
                TraceEvent::Prefetch { .. } => s.prefetches += 1,
                TraceEvent::LockAcquire(_) => s.lock_acquires += 1,
                TraceEvent::LockRelease(_) => {}
                TraceEvent::Barrier(_) => s.barriers += 1,
            }
        }
        s
    }

    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of demand accesses that write, in `[0, 1]`; 0 for an empty
    /// stream.
    pub fn write_fraction(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.writes as f64 / self.accesses() as f64
        }
    }
}

/// Whole-trace statistics: aggregate counters plus a line-granular sharing
/// profile at a chosen block size.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Per-processor breakdown.
    pub per_proc: Vec<ProcTraceStats>,
    /// Distinct lines touched.
    pub lines_touched: usize,
    /// Lines touched by one processor only.
    pub private_lines: usize,
    /// Lines read by several processors, never written.
    pub read_shared_lines: usize,
    /// Lines touched by several processors, written by at least one.
    pub write_shared_lines: usize,
    /// Block size the sharing profile was computed at.
    pub block_bytes: u64,
}

impl TraceStats {
    /// Gathers statistics at block granularity `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn gather(trace: &Trace, block_bytes: u64) -> Self {
        let per_proc = (0..trace.num_procs())
            .map(|p| ProcTraceStats::gather(trace.proc(p)))
            .collect::<Vec<_>>();
        let map = SharingMap::analyze(trace, block_bytes);
        let (private_lines, read_shared_lines, write_shared_lines) = map.class_counts();
        TraceStats {
            per_proc,
            lines_touched: map.num_lines(),
            private_lines,
            read_shared_lines,
            write_shared_lines,
            block_bytes,
        }
    }

    /// Total demand accesses over all processors.
    pub fn total_accesses(&self) -> u64 {
        self.per_proc.iter().map(ProcTraceStats::accesses).sum()
    }

    /// Total writes over all processors.
    pub fn total_writes(&self) -> u64 {
        self.per_proc.iter().map(|p| p.writes).sum()
    }

    /// Data-set size estimate: bytes spanned by touched lines.
    pub fn footprint_bytes(&self) -> u64 {
        self.lines_touched as u64 * self.block_bytes
    }

    /// Fraction of touched lines that are write-shared.
    pub fn write_shared_fraction(&self) -> f64 {
        if self.lines_touched == 0 {
            0.0
        } else {
            self.write_shared_lines as f64 / self.lines_touched as f64
        }
    }

    /// Returns the sharing class counts as `(private, read_shared,
    /// write_shared)`.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        (self.private_lines, self.read_shared_lines, self.write_shared_lines)
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} procs, {} accesses ({:.1}% writes), footprint {} KB",
            self.per_proc.len(),
            self.total_accesses(),
            100.0 * self.total_writes() as f64 / self.total_accesses().max(1) as f64,
            self.footprint_bytes() / 1024,
        )?;
        write!(
            f,
            "lines: {} private / {} read-shared / {} write-shared (of {})",
            self.private_lines, self.read_shared_lines, self.write_shared_lines, self.lines_touched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::builder::TraceBuilder;

    #[test]
    fn proc_stats_counts_every_event_kind() {
        let mut b = TraceBuilder::new(1);
        b.proc(0)
            .work(10)
            .read(Addr::new(0))
            .write(Addr::new(4))
            .write(Addr::new(8))
            .prefetch(Addr::new(0x40))
            .lock(0)
            .unlock(0)
            .barrier(0);
        let s = ProcTraceStats::gather(b.build().proc(0));
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.prefetches, 1);
        assert_eq!(s.work_cycles, 10);
        assert_eq!(s.lock_acquires, 1);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.accesses(), 3);
        assert!((s.write_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_write_fraction_is_zero() {
        assert_eq!(ProcTraceStats::default().write_fraction(), 0.0);
    }

    #[test]
    fn trace_stats_sharing_profile() {
        let mut b = TraceBuilder::new(2);
        b.proc(0).write(Addr::new(0x000)).read(Addr::new(0x100));
        b.proc(1).read(Addr::new(0x100)).write(Addr::new(0x104));
        let stats = TraceStats::gather(&b.build(), 32);
        assert_eq!(stats.lines_touched, 2);
        assert_eq!(stats.private_lines, 1);
        assert_eq!(stats.write_shared_lines, 1);
        assert_eq!(stats.footprint_bytes(), 64);
        assert!((stats.write_shared_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(stats.total_accesses(), 4);
        assert_eq!(stats.total_writes(), 2);
        // Display renders without panicking and mentions the line counts.
        let text = stats.to_string();
        assert!(text.contains("write-shared"));
    }
}
