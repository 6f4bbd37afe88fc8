//! Golden checksums of whole simulation outputs across the coherence
//! protocols and execution modes.
//!
//! Each cell runs one small prefetched trace under one protocol, with the
//! hardware prefetcher off or at `stride(2,4)`, in one of three modes:
//! exact, a SMARTS-style periodic plan (fast, warm and detailed windows),
//! and pure fast-forward. The checksum covers the `Debug` rendering of the
//! full `SimReport` plus every `SampledWindow` record, so any change to
//! what the detailed or the fast-forward coherence path computes shows up
//! here — counters, histograms, per-processor records, window spans.
//!
//! The values were recorded before the detailed and fast-forward paths
//! were merged onto one snoop routine; they pin that the merge (and any
//! later refactor of the machine) changes no output.

use charlie::prefetch::{HwPrefetchConfig, PreparedTrace, TraceMarks};
use charlie::sim::{simulate, simulate_sampled, SamplePlan};
use charlie::workloads::generate;
use charlie::{CacheGeometry, Protocol, SimConfig, Strategy, Workload, WorkloadConfig};
use std::fmt::Write as _;

/// FNV-1a over `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `(cell name, checksum)` for every cell of the grid, in a fixed order.
fn grid() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (workload, strategy) in [(Workload::Mp3d, Strategy::Excl), (Workload::LocusRoute, Strategy::Lpd)] {
        let wcfg = WorkloadConfig { procs: 4, refs_per_proc: 2_000, seed: 7, ..WorkloadConfig::default() };
        let raw = generate(workload, &wcfg);
        let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, strategy);
        for protocol in Protocol::ALL {
            for hw in [HwPrefetchConfig::OFF, HwPrefetchConfig::stride(2, 4)] {
                let cfg = SimConfig { protocol, hw_prefetch: hw, ..SimConfig::paper(4, 16) };
                let prepared = || PreparedTrace::new(&raw, &plan);
                let cell = format!("{workload}/{strategy}/{}/{hw}", protocol.key_name());
                let exact = simulate(&cfg, prepared()).expect("exact run");
                out.push((format!("{cell}/exact"), fnv(&format!("{exact:?}"))));
                for (mode, sample_plan) in [
                    ("periodic", SamplePlan::periodic(128, 4, 1)),
                    ("fast_forward", SamplePlan::fast_forward(128)),
                ] {
                    let run = simulate_sampled(&cfg, prepared(), &sample_plan).expect("sampled run");
                    let text = format!("{:?}{:?}", run.report, run.windows);
                    out.push((format!("{cell}/{mode}"), fnv(&text)));
                }
            }
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("Mp3d/EXCL/illinois/off:0:0/exact", 0x0c30967f0b00ff74),
    ("Mp3d/EXCL/illinois/off:0:0/periodic", 0x41e2e19e8a1e8636),
    ("Mp3d/EXCL/illinois/off:0:0/fast_forward", 0x5f8bf3f91fb5ea30),
    ("Mp3d/EXCL/illinois/stride:2:4/exact", 0xe7a5b85876ea7972),
    ("Mp3d/EXCL/illinois/stride:2:4/periodic", 0xa2649cd4ff37265d),
    ("Mp3d/EXCL/illinois/stride:2:4/fast_forward", 0x44c9765d5f9719ae),
    ("Mp3d/EXCL/firefly/off:0:0/exact", 0xde24d2fd6a4e7a02),
    ("Mp3d/EXCL/firefly/off:0:0/periodic", 0x5aa15a8fd9b59f9f),
    ("Mp3d/EXCL/firefly/off:0:0/fast_forward", 0xe39a9857175e05fd),
    ("Mp3d/EXCL/firefly/stride:2:4/exact", 0x2d05cff0b27f8e55),
    ("Mp3d/EXCL/firefly/stride:2:4/periodic", 0xd58a73b813709415),
    ("Mp3d/EXCL/firefly/stride:2:4/fast_forward", 0x1efa84229e49dda3),
    ("Mp3d/EXCL/dragon/off:0:0/exact", 0x36c4f419a81bbaa1),
    ("Mp3d/EXCL/dragon/off:0:0/periodic", 0xc2013bdf381ba4ee),
    ("Mp3d/EXCL/dragon/off:0:0/fast_forward", 0xe39a9857175e05fd),
    ("Mp3d/EXCL/dragon/stride:2:4/exact", 0x0f19fb988a4d6d60),
    ("Mp3d/EXCL/dragon/stride:2:4/periodic", 0xf0155eee45d680b9),
    ("Mp3d/EXCL/dragon/stride:2:4/fast_forward", 0x1efa84229e49dda3),
    ("Mp3d/EXCL/moesi/off:0:0/exact", 0x15ae7c5c5d19083d),
    ("Mp3d/EXCL/moesi/off:0:0/periodic", 0x55958a1fc6f2069a),
    ("Mp3d/EXCL/moesi/off:0:0/fast_forward", 0x5f8bf3f91fb5ea30),
    ("Mp3d/EXCL/moesi/stride:2:4/exact", 0x3d58f1ab2d239784),
    ("Mp3d/EXCL/moesi/stride:2:4/periodic", 0xee14bf1e0ee52bf6),
    ("Mp3d/EXCL/moesi/stride:2:4/fast_forward", 0x44c9765d5f9719ae),
    ("LocusRoute/LPD/illinois/off:0:0/exact", 0x6e5eee05d8cb677f),
    ("LocusRoute/LPD/illinois/off:0:0/periodic", 0xa092b9a2e2b66d41),
    ("LocusRoute/LPD/illinois/off:0:0/fast_forward", 0x10c186c19a1a0a29),
    ("LocusRoute/LPD/illinois/stride:2:4/exact", 0xfcf41152eb4c59e1),
    ("LocusRoute/LPD/illinois/stride:2:4/periodic", 0xb7a25c7649a4b503),
    ("LocusRoute/LPD/illinois/stride:2:4/fast_forward", 0xa309a7660fff2156),
    ("LocusRoute/LPD/firefly/off:0:0/exact", 0xfb13ef76ea60b201),
    ("LocusRoute/LPD/firefly/off:0:0/periodic", 0x845527be9c838743),
    ("LocusRoute/LPD/firefly/off:0:0/fast_forward", 0x916ed8e57ccc0682),
    ("LocusRoute/LPD/firefly/stride:2:4/exact", 0x342c5bfe796169c0),
    ("LocusRoute/LPD/firefly/stride:2:4/periodic", 0x2511d9cc6048ca7f),
    ("LocusRoute/LPD/firefly/stride:2:4/fast_forward", 0x8eda77afc92f10d5),
    ("LocusRoute/LPD/dragon/off:0:0/exact", 0xb69b7146848f7053),
    ("LocusRoute/LPD/dragon/off:0:0/periodic", 0x6eb1641fcbb62acd),
    ("LocusRoute/LPD/dragon/off:0:0/fast_forward", 0x916ed8e57ccc0682),
    ("LocusRoute/LPD/dragon/stride:2:4/exact", 0x6da9c17babe28972),
    ("LocusRoute/LPD/dragon/stride:2:4/periodic", 0xa57d10366d1d4de6),
    ("LocusRoute/LPD/dragon/stride:2:4/fast_forward", 0x8eda77afc92f10d5),
    ("LocusRoute/LPD/moesi/off:0:0/exact", 0x09d621c92da70daa),
    ("LocusRoute/LPD/moesi/off:0:0/periodic", 0x2f8635859a1fc145),
    ("LocusRoute/LPD/moesi/off:0:0/fast_forward", 0x10c186c19a1a0a29),
    ("LocusRoute/LPD/moesi/stride:2:4/exact", 0x6c1118672570b3d5),
    ("LocusRoute/LPD/moesi/stride:2:4/periodic", 0xabce36a1ec1534a9),
    ("LocusRoute/LPD/moesi/stride:2:4/fast_forward", 0xa309a7660fff2156),
];

#[test]
fn every_protocol_and_mode_reproduces_its_golden_checksum() {
    let got = grid();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(c, h)| (c.to_owned(), h)).collect();
    if got != expected {
        let mut table = String::new();
        for (cell, h) in &got {
            writeln!(table, "    (\"{cell}\", 0x{h:016x}),").unwrap();
        }
        panic!("simulation outputs differ from the golden checksums; this run computed:\n{table}");
    }
}
