//! The sharer-tracking snoop filter must equal brute-force occupancy.
//!
//! The engine snoops only the caches its sharer table (see
//! `charlie::sim::SharerTable`) says hold the line, instead of probing all
//! `num_procs` caches on every bus operation. Skipped probes are no-ops
//! only if the table is exact, so with invariant checking on the machine
//! cross-checks the table against a scan of every cache before each snoop
//! and fails the run on the first disagreement. These tests drive that
//! check across machine sizes, workloads, prefetch strategies and all four
//! coherence protocols.

use charlie::prefetch::apply;
use charlie::sim::{simulate, Protocol, SimConfig};
use charlie::workloads::generate;
use charlie::{CacheGeometry, Layout, Strategy, Workload, WorkloadConfig};

/// Simulates one workload on a `procs`-processor machine with the
/// invariant checker (and with it the sharer-table cross-check) on.
fn run_checked(w: Workload, procs: usize, strategy: Strategy, protocol: Protocol) {
    let wcfg = WorkloadConfig {
        procs,
        refs_per_proc: 1_200,
        seed: 0xBEEF,
        layout: Layout::Interleaved,
    };
    let raw = generate(w, &wcfg);
    let prepared = apply(strategy, &raw, CacheGeometry::paper_default());
    let cfg = SimConfig { protocol, check_invariants: true, ..SimConfig::paper(procs, 8) };
    if let Err(e) = simulate(&cfg, &prepared) {
        panic!("{w}/{strategy}/{protocol} at {procs} procs: {e}");
    }
}

/// Every workload at 4, 8 and 16 processors.
#[test]
fn sharer_table_matches_occupancy_at_every_machine_size() {
    for w in Workload::ALL {
        for procs in [4usize, 8, 16] {
            run_checked(w, procs, Strategy::Pref, Protocol::WriteInvalidate);
        }
    }
}

/// Exclusive prefetches, write-invalidate upgrades and write-update
/// broadcasts each snoop differently; exercise each under every protocol.
#[test]
fn sharer_table_matches_occupancy_under_every_protocol() {
    for strategy in [Strategy::Excl, Strategy::Lpd, Strategy::Pws] {
        for protocol in Protocol::ALL {
            run_checked(Workload::Mp3d, 8, strategy, protocol);
        }
    }
}
