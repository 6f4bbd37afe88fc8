//! Property tests for trace serialization: arbitrary traces round-trip
//! byte-exactly, and the parser never panics on arbitrary input. Also the
//! in-memory fold of work gaps into accesses: it loses nothing, every way
//! of building a stream folds alike, and it halves a generated trace.

use charlie::trace::io::{read_trace, write_trace};
use charlie::trace::{
    Access, Addr, BarrierId, LockId, PackedAddr, ProcTrace, Trace, TraceBuilder, TraceEvent,
};
use charlie::workloads::generate;
use charlie::{Workload, WorkloadConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Ev {
    Work(u32),
    Read(u64),
    Write(u64),
    Prefetch(u64, bool),
    Lock(u32),
    Unlock(u32),
    Barrier,
}

fn arb_trace() -> impl proptest::strategy::Strategy<Value = Trace> {
    let ev = prop_oneof![
        (1u32..1000).prop_map(Ev::Work),
        (0u64..=PackedAddr::MAX).prop_map(Ev::Read),
        (0u64..=PackedAddr::MAX).prop_map(Ev::Write),
        ((0u64..=PackedAddr::MAX), any::<bool>()).prop_map(|(a, e)| Ev::Prefetch(a, e)),
        (0u32..8).prop_map(Ev::Lock),
        (0u32..8).prop_map(Ev::Unlock),
        Just(Ev::Barrier),
    ];
    let per_proc = proptest::collection::vec(ev, 0..60);
    proptest::collection::vec(per_proc, 1..5).prop_map(|streams| {
        let mut b = TraceBuilder::new(streams.len());
        for (p, evs) in streams.iter().enumerate() {
            let mut pb = b.proc(p);
            let mut barrier = 0u32;
            for ev in evs {
                match *ev {
                    Ev::Work(n) => {
                        pb.work(n);
                    }
                    Ev::Read(a) => {
                        pb.read(Addr::new(a));
                    }
                    Ev::Write(a) => {
                        pb.write(Addr::new(a));
                    }
                    Ev::Prefetch(a, false) => {
                        pb.prefetch(Addr::new(a));
                    }
                    Ev::Prefetch(a, true) => {
                        pb.prefetch_exclusive(Addr::new(a));
                    }
                    Ev::Lock(l) => {
                        pb.lock(l);
                    }
                    Ev::Unlock(l) => {
                        pb.unlock(l);
                    }
                    Ev::Barrier => {
                        pb.barrier(barrier);
                        barrier += 1;
                    }
                }
            }
        }
        b.build()
    })
}

/// A logical event stream rich in the cases the fold must get right: work
/// gaps of 0, 1–127, 128 and `u32::MAX` cycles, runs of work, and work in
/// front of a prefetch, a sync event or the end of the stream.
fn arb_events() -> impl proptest::strategy::Strategy<Value = Vec<TraceEvent>> {
    let gap =
        prop_oneof![Just(0u32), 1u32..=127, Just(127), Just(128), Just(u32::MAX), 128u32..1000];
    // Four in eleven events are work and three accesses, so runs of work
    // and gaps before every other kind of event are common.
    let ev = (0u8..11, gap, 0u64..=PackedAddr::MAX, any::<bool>(), 0u32..4).prop_map(
        |(pick, gap, raw, flag, id)| {
            let addr = Addr::new(raw);
            match pick {
                0..=3 => TraceEvent::Work(gap),
                4..=6 => {
                    TraceEvent::from(if flag { Access::write(addr) } else { Access::read(addr) })
                }
                7 => TraceEvent::Prefetch { addr: PackedAddr::pack(addr), exclusive: flag },
                8 => TraceEvent::LockAcquire(LockId(id)),
                9 => TraceEvent::LockRelease(LockId(id)),
                _ => TraceEvent::Barrier(BarrierId(id)),
            }
        },
    );
    proptest::collection::vec(ev, 0..80)
}

fn write_one(stream: &ProcTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&Trace::from_procs(vec![stream.clone()]), &mut buf).expect("write succeeds");
    buf
}

/// The fold is what makes a resident trace small: a generated trace stores
/// barely more than one slot per demand access.
#[test]
fn generated_trace_stores_about_one_slot_per_reference() {
    let cfg =
        WorkloadConfig { procs: 8, refs_per_proc: 20_000, seed: 7, ..WorkloadConfig::default() };
    let trace = generate(Workload::Mp3d, &cfg);
    let (events, stored) =
        trace.iter().fold((0, 0), |(e, s), (_, t)| (e + t.len(), s + t.stored_len()));
    assert!(
        stored as f64 <= 0.55 * events as f64,
        "{stored} slots hold {events} events: the work gaps are not folded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reading a folded stream back yields exactly the events put in.
    #[test]
    fn folding_is_lossless(events in arb_events()) {
        let t = ProcTrace::from_events(events.clone());
        prop_assert_eq!(t.len(), events.len());
        prop_assert_eq!(t.events().collect::<Vec<_>>(), events.clone());
        prop_assert!(t.stored_len() <= events.len());
        let cycles: u64 = events.iter().map(TraceEvent::estimated_cycles).sum();
        prop_assert_eq!(t.estimated_cycles(), cycles);
        let accesses: Vec<_> =
            (0..).zip(&events).filter_map(|(i, ev)| ev.as_access().map(|a| (i, a))).collect();
        prop_assert_eq!(t.indexed_accesses().collect::<Vec<_>>(), accesses);
    }

    /// `push`, `from_events`, `extend` and `read_trace` store equal logical
    /// streams equally, so the derived equality compares events.
    #[test]
    fn every_construction_folds_alike(events in arb_events(), split in 0usize..80) {
        let from = ProcTrace::from_events(events.clone());
        let mut pushed = ProcTrace::new();
        for &ev in &events {
            pushed.push(ev);
        }
        let split = split.min(events.len());
        let mut extended: ProcTrace = events[..split].iter().copied().collect();
        extended.extend(events[split..].iter().copied());
        let read = read_trace(write_one(&from).as_slice()).expect("parse our own output");
        prop_assert_eq!(&pushed, &from);
        prop_assert_eq!(&extended, &from);
        prop_assert_eq!(read.proc(0), &from);
    }

    /// write → read → write reproduces the file byte for byte.
    #[test]
    fn rewrite_is_byte_identical(events in arb_events()) {
        let first = write_one(&ProcTrace::from_events(events));
        let back = read_trace(first.as_slice()).expect("parse our own output");
        let mut second = Vec::new();
        write_trace(&back, &mut second).expect("write succeeds");
        prop_assert_eq!(first, second);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// write → read is the identity on every trace (validity not required:
    /// serialization is structural).
    #[test]
    fn round_trip_is_identity(trace in arb_trace()) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write succeeds");
        let back = read_trace(buf.as_slice()).expect("parse our own output");
        prop_assert_eq!(back, trace);
    }

    /// Every address a trace event can hold survives packing into 48 bits.
    #[test]
    fn packed_addr_round_trips(raw in 0u64..=PackedAddr::MAX) {
        let packed = PackedAddr::new(Addr::new(raw)).expect("in range");
        prop_assert_eq!(packed.unpack(), Addr::new(raw));
        prop_assert_eq!(format!("{packed:?}"), format!("{:?}", Addr::new(raw)));
    }

    /// The parser returns errors — never panics — on arbitrary text.
    #[test]
    fn parser_never_panics(garbage in "\\PC*") {
        let _ = read_trace(garbage.as_bytes());
    }

    /// …including near-miss inputs that start like real traces.
    #[test]
    fn parser_survives_near_misses(lines in proptest::collection::vec("[a-zA-Z0-9 #x]{0,30}", 0..30)) {
        let text = format!("charlie-trace v1\nprocs 2\n{}", lines.join("\n"));
        let _ = read_trace(text.as_bytes());
    }

    /// Corruption properties over *real* serialized traces: whatever damage
    /// a faulty disk inflicts, the parser errors or parses — it never
    /// panics, and it never silently returns a trace with more events than
    /// the original (no phantom reads out of garbage).
    #[test]
    fn bit_flip_never_panics(trace in arb_trace(), at in 0usize..1_000_000, bit in 0u8..8) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write succeeds");
        if !buf.is_empty() {
            let i = at % buf.len();
            buf[i] ^= 1 << bit;
            if let Ok(parsed) = read_trace(buf.as_slice()) {
                // A surviving parse may differ (the flip can hit an address
                // digit) but must stay structurally sane.
                prop_assert!(parsed.num_procs() <= 64);
            }
        }
    }

    /// Mid-record truncation (a partial write / torn tail at any byte) is
    /// reported as an error or parses as a shorter trace — never a panic,
    /// never events the prefix does not contain.
    #[test]
    fn truncation_never_panics(trace in arb_trace(), at in 0usize..1_000_000) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write succeeds");
        let cut = at % (buf.len() + 1);
        if let Ok(parsed) = read_trace(&buf[..cut]) {
            prop_assert!(
                parsed.total_accesses() <= trace.total_accesses(),
                "a prefix cannot contain more accesses than the whole"
            );
        }
    }

    /// A garbage suffix appended to a valid trace (the flush-then-crash
    /// graft) must surface as a parse error pointing past the valid bytes,
    /// or parse only if the suffix happens to be valid event syntax — never
    /// panic, never corrupt the prefix events.
    #[test]
    fn garbage_suffix_never_panics(trace in arb_trace(), suffix in proptest::collection::vec(0u8..=255, 1..64)) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write succeeds");
        let clean_accesses = trace.total_accesses();
        buf.extend_from_slice(&suffix);
        match read_trace(buf.as_slice()) {
            Ok(parsed) => prop_assert!(parsed.total_accesses() >= clean_accesses),
            Err(e) => {
                // Diagnostics must carry position context for I/O-free
                // parse failures (Io covers invalid UTF-8 from read_line).
                let text = e.to_string();
                prop_assert!(
                    text.contains("byte offset") || text.contains("i/o error"),
                    "undiagnosed error: {}", text
                );
            }
        }
    }
}
