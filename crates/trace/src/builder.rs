//! Fluent builders for constructing traces by hand (tests, examples, custom
//! workloads).

use crate::addr::{Addr, PackedAddr};
use crate::event::{Access, BarrierId, LockId, TraceEvent};
use crate::stream::{ProcTrace, Trace};

/// Builder for a multiprocessor [`Trace`].
///
/// Barriers are numbered automatically per processor: each call to
/// [`ProcTraceBuilder::barrier`] takes the episode id explicitly so the caller
/// can keep processors aligned.
///
/// Every method that takes an address panics, naming it, if the address
/// exceeds [`PackedAddr::MAX`].
///
/// # Example
///
/// ```
/// use charlie_trace::{Addr, TraceBuilder};
///
/// let mut b = TraceBuilder::new(2);
/// for p in 0..2 {
///     b.proc(p).work(8).read(Addr::new(0x1000 + p as u64 * 64)).barrier(0);
/// }
/// let trace = b.build();
/// assert!(trace.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    procs: Vec<ProcTrace>,
}

impl TraceBuilder {
    /// Creates a builder for `num_procs` processors.
    pub fn new(num_procs: usize) -> Self {
        TraceBuilder { procs: vec![ProcTrace::new(); num_procs] }
    }

    /// Returns the builder for processor `p`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc(&mut self, p: usize) -> ProcTraceBuilder<'_> {
        ProcTraceBuilder { stream: &mut self.procs[p] }
    }

    /// Finishes and returns the trace.
    pub fn build(self) -> Trace {
        Trace::from_procs(self.procs)
    }
}

/// Fluent builder for one processor's stream; obtained from
/// [`TraceBuilder::proc`].
#[derive(Debug)]
pub struct ProcTraceBuilder<'a> {
    stream: &'a mut ProcTrace,
}

impl ProcTraceBuilder<'_> {
    /// Appends `cycles` of pure CPU work.
    pub fn work(&mut self, cycles: u32) -> &mut Self {
        self.stream.push(TraceEvent::Work(cycles));
        self
    }

    /// Appends a read of `addr`.
    #[track_caller]
    pub fn read(&mut self, addr: Addr) -> &mut Self {
        self.stream.push(Access::read(addr).into());
        self
    }

    /// Appends a write of `addr`.
    #[track_caller]
    pub fn write(&mut self, addr: Addr) -> &mut Self {
        self.stream.push(Access::write(addr).into());
        self
    }

    /// Appends an arbitrary access.
    #[track_caller]
    pub fn access(&mut self, access: Access) -> &mut Self {
        self.stream.push(access.into());
        self
    }

    /// Appends a shared-mode prefetch of `addr`'s line.
    #[track_caller]
    pub fn prefetch(&mut self, addr: Addr) -> &mut Self {
        self.stream.push(TraceEvent::Prefetch { addr: PackedAddr::pack(addr), exclusive: false });
        self
    }

    /// Appends an exclusive-mode prefetch of `addr`'s line.
    #[track_caller]
    pub fn prefetch_exclusive(&mut self, addr: Addr) -> &mut Self {
        self.stream.push(TraceEvent::Prefetch { addr: PackedAddr::pack(addr), exclusive: true });
        self
    }

    /// Appends a lock acquire.
    pub fn lock(&mut self, id: u32) -> &mut Self {
        self.stream.push(TraceEvent::LockAcquire(LockId(id)));
        self
    }

    /// Appends a lock release.
    pub fn unlock(&mut self, id: u32) -> &mut Self {
        self.stream.push(TraceEvent::LockRelease(LockId(id)));
        self
    }

    /// Appends a barrier arrival for episode `id`.
    pub fn barrier(&mut self, id: u32) -> &mut Self {
        self.stream.push(TraceEvent::Barrier(BarrierId(id)));
        self
    }

    /// Appends a raw event.
    pub fn event(&mut self, ev: TraceEvent) -> &mut Self {
        self.stream.push(ev);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_events() {
        let mut b = TraceBuilder::new(1);
        b.proc(0)
            .work(3)
            .read(Addr::new(0x10))
            .write(Addr::new(0x14))
            .prefetch(Addr::new(0x40))
            .prefetch_exclusive(Addr::new(0x60))
            .lock(2)
            .unlock(2)
            .barrier(0);
        let t = b.build();
        let ev: Vec<TraceEvent> = t.proc(0).events().collect();
        assert_eq!(ev.len(), 8);
        assert_eq!(ev[0], TraceEvent::Work(3));
        let prefetch =
            |a, exclusive| TraceEvent::Prefetch { addr: PackedAddr::pack(Addr::new(a)), exclusive };
        assert_eq!(ev[3], prefetch(0x40, false));
        assert_eq!(ev[4], prefetch(0x60, true));
        assert_eq!(ev[5], TraceEvent::LockAcquire(LockId(2)));
        assert_eq!(ev[7], TraceEvent::Barrier(BarrierId(0)));
        assert!(t.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "address 0x1000000000000 exceeds the 48-bit")]
    fn builder_rejects_addresses_past_48_bits() {
        TraceBuilder::new(1).proc(0).prefetch(Addr::new(PackedAddr::MAX + 1));
    }

    #[test]
    fn builder_multi_proc() {
        let mut b = TraceBuilder::new(3);
        for p in 0..3 {
            b.proc(p).read(Addr::new(p as u64 * 0x100));
        }
        let t = b.build();
        assert_eq!(t.num_procs(), 3);
        assert_eq!(t.total_accesses(), 3);
    }
}
