//! Property tests for trace serialization: arbitrary traces round-trip
//! byte-exactly, and the parser never panics on arbitrary input.

use charlie::trace::io::{read_trace, write_trace};
use charlie::trace::{Addr, PackedAddr, Trace, TraceBuilder};
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
