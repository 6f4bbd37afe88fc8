//! Address-trace infrastructure for the `charlie` multiprocessor simulator.
//!
//! This crate defines the representation that every other crate in the
//! workspace consumes: per-processor streams of [`TraceEvent`]s (memory
//! accesses, software prefetches, pure-CPU work, and lock/barrier
//! synchronization), bundled into a multiprocessor [`Trace`].
//!
//! The design follows the methodology of Tullsen & Eggers, *"Limitations of
//! Cache Prefetching on a Bus-Based Multiprocessor"* (ISCA 1993): traces are
//! generated per processor, an off-line prefetching pass may insert
//! [`TraceEvent::Prefetch`] events, and a detailed simulator then replays the
//! streams while enforcing a legal interleaving of the synchronization events.
//!
//! # Example
//!
//! ```
//! use charlie_trace::{Addr, TraceBuilder};
//!
//! let mut b = TraceBuilder::new(2);
//! b.proc(0).work(10).read(Addr::new(0x1000)).write(Addr::new(0x1004)).barrier(0);
//! b.proc(1).work(4).read(Addr::new(0x2000)).barrier(0);
//! let trace = b.build();
//! assert_eq!(trace.num_procs(), 2);
//! assert_eq!(trace.proc(0).num_accesses(), 2);
//! ```

mod addr;
mod builder;
mod event;
pub mod io;
mod sharing;
mod stats;
mod stream;

pub use addr::{Addr, LineAddr, PackedAddr, ProcId, ProcMask};
pub use builder::{ProcTraceBuilder, TraceBuilder};
pub use event::{Access, AccessKind, BarrierId, LockId, TraceEvent};
pub use sharing::{LineClass, SharingMap, WordClass, WordSharingMap};
pub use stats::{ProcTraceStats, TraceStats};
pub use stream::{EventCursor, Events, ProcTrace, Slots, Trace, ValidateTraceError};
