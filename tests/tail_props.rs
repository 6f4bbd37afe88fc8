//! An incremental [`SharedTail`] folds exactly what a one-shot
//! [`scan_shared`] folds, at every byte prefix of a shared journal.
//!
//! Each case writes a random interleaving of claim, renew, reclaim and
//! summary records from four workers, one byte at a time, with torn
//! fragments (a writer dying mid-append, sealed by the next append's
//! leading newline), CRC-corrupt lines, truncations back to an earlier
//! line boundary (same file, shrunk) and compactions (a new file renamed
//! over the old one). After every byte a tail refreshed at every byte must
//! equal the fold of a full scan; a second tail refreshed only between
//! records must too.
//!
//! Debug builds run a few cases; release builds (`ci.sh`) run many more.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use charlie::checkpoint::{
    compact_shared, encode_journal_header, encode_lease, encode_summary, frame_line, scan_shared,
    LeaseEvent, LeaseRecord, LeaseTable, SharedTail,
};
use charlie::prefetch::Strategy as Prefetch;
use charlie::{execute_cell, Experiment, RunConfig, RunSummary, Workload};
use proptest::prelude::*;

const KEY: &str = "tail-props";
const WORKERS: [&str; 4] = ["w0", "w1", "w2", "w3"];

fn cells() -> Vec<Experiment> {
    [Prefetch::NoPrefetch, Prefetch::Pref, Prefetch::Lpd]
        .into_iter()
        .map(|s| Experiment::paper(Workload::Water, s, 8))
        .collect()
}

/// One tiny summary per grid cell, plus one for a cell outside the grid.
fn summaries() -> &'static [RunSummary] {
    static SUMMARIES: OnceLock<Vec<RunSummary>> = OnceLock::new();
    SUMMARIES.get_or_init(|| {
        let cfg = RunConfig { procs: 1, refs_per_proc: 40, seed: 5, ..RunConfig::default() };
        let outside = Experiment::paper(Workload::Mp3d, Prefetch::Pws, 8);
        cells()
            .into_iter()
            .chain([outside])
            .map(|exp| execute_cell(&cfg, exp).expect("tiny cell runs"))
            .collect()
    })
}

fn scratch(case: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("charlie-tail-props-{}-{case}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// What the random program does next.
#[derive(Clone, Debug)]
enum Op {
    /// A framed lease record (cell 3 is outside the grid).
    Lease(LeaseRecord),
    /// A framed summary of `summaries()[i]`.
    Summary(usize),
    /// The first `len` bytes of a framed lease record, never finished.
    Torn(LeaseRecord, usize),
    /// A framed lease record with one payload byte changed.
    Corrupt(LeaseRecord, usize),
    /// Truncate to the `k`th line boundary (mod the lines written).
    Truncate(usize),
    /// Compact the journal (temp file renamed over it).
    Compact,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..16, 0u64..4, 0usize..4, 1u64..4, 0u64..1_000, 0usize..200).prop_map(
        |(kind, cell, worker, gen, deadline_ms, n)| {
            let event = match kind % 3 {
                0 => LeaseEvent::Claim,
                1 => LeaseEvent::Renew,
                _ => LeaseEvent::Reclaim,
            };
            let lease =
                LeaseRecord { event, cell, worker: WORKERS[worker].to_owned(), gen, deadline_ms };
            match kind {
                0..=8 => Op::Lease(lease),
                9..=11 => Op::Summary(n % summaries().len()),
                12 => Op::Torn(lease, n),
                13 => Op::Corrupt(lease, n),
                14 => Op::Truncate(n),
                _ => Op::Compact,
            }
        },
    )
}

/// A tail against a fresh full scan of the file as it stands.
fn check(path: &Path, cells: &[Experiment], tail: &mut SharedTail) {
    let full = LeaseTable::from_scan(&scan_shared(path, Some(KEY)).expect("full scan"), cells);
    let inc = tail.refresh().expect("incremental refresh");
    prop_assert_eq!(inc, &full, "at byte {}", std::fs::metadata(path).map_or(0, |m| m.len()));
}

/// Appends `bytes` one at a time, checking `every` after each byte.
fn append_bytewise(
    path: &Path,
    bytes: &[u8],
    cells: &[Experiment],
    every: &mut SharedTail,
) {
    let mut f = std::fs::OpenOptions::new().append(true).open(path).expect("open journal");
    for b in bytes {
        f.write_all(std::slice::from_ref(b)).expect("append");
        check(path, cells, every);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 300 }))]

    #[test]
    fn incremental_tail_equals_full_scan_at_every_prefix(ops in collection::vec(op(), 1..40)) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let path = scratch(CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let cells = cells();
        let mut every = SharedTail::new(&path, KEY, &cells);
        let mut between = SharedTail::new(&path, KEY, &cells);
        // A missing journal is an empty one.
        check(&path, &cells, &mut every);
        std::fs::write(&path, b"").expect("create journal");
        append_bytewise(&path, encode_journal_header(KEY).as_bytes(), &cells, &mut every);

        for op in ops {
            let content = std::fs::read(&path).expect("read journal");
            // Like `SharedAppender`, a record after a torn tail leads with
            // a sealing newline.
            let seal = if content.last().is_some_and(|&b| b != b'\n') { "\n" } else { "" };
            match op {
                Op::Lease(l) => {
                    let line = format!("{seal}{}", frame_line(&encode_lease(&l)));
                    append_bytewise(&path, line.as_bytes(), &cells, &mut every);
                }
                Op::Summary(i) => {
                    let line = format!("{seal}{}", frame_line(&encode_summary(&summaries()[i])));
                    append_bytewise(&path, line.as_bytes(), &cells, &mut every);
                }
                Op::Torn(l, len) => {
                    let line = format!("{seal}{}", frame_line(&encode_lease(&l)));
                    let cut = seal.len() + len % (line.len() - seal.len() - 1);
                    append_bytewise(&path, &line.as_bytes()[..cut], &cells, &mut every);
                }
                Op::Corrupt(l, at) => {
                    let mut line = format!("{seal}{}", frame_line(&encode_lease(&l))).into_bytes();
                    // Past the 9-byte CRC prefix, before the newline; the
                    // payload is ASCII, so XOR 1 keeps it valid UTF-8.
                    let i = seal.len() + 9 + at % (line.len() - seal.len() - 10);
                    line[i] ^= 1;
                    append_bytewise(&path, &line, &cells, &mut every);
                }
                Op::Truncate(k) => {
                    let ends: Vec<usize> = content
                        .iter()
                        .enumerate()
                        .filter(|&(_, &b)| b == b'\n')
                        .map(|(i, _)| i + 1)
                        .collect();
                    let len = ends[k % ends.len()];
                    let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
                    f.set_len(len as u64).expect("truncate");
                    check(&path, &cells, &mut every);
                }
                Op::Compact => {
                    compact_shared(&path, KEY, &cells).expect("compact");
                    check(&path, &cells, &mut every);
                }
            }
            check(&path, &cells, &mut between);
        }
        let _ = std::fs::remove_file(&path);
    }
}
