//! Protocol counterfactual: what if the machine updated instead of
//! invalidating?
//!
//! The paper's conclusion names "sharing traffic (invalidation misses)" as
//! "the biggest challenge to designers and users of parallel machine
//! memories". A Firefly-style write-update protocol removes invalidation
//! misses *by construction* — every shared write broadcasts its word — so
//! the comparison shows exactly how much of each workload's time the
//! invalidation misses cost, and what the broadcast traffic costs in
//! exchange as the bus gets slower.

use charlie::cache::CacheGeometry;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, Protocol, SimConfig};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use charlie::Table;

fn main() {
    let lab = charlie_bench::lab_from_env();
    let cfg = *lab.config();
    drop(lab);

    let mut t = Table::new(
        "Write-invalidate vs write-update (NP and PREF)",
        vec![
            "Workload",
            "Transfer",
            "Strategy",
            "inval MR (WI)",
            "time WU/WI",
            "bus util WI",
            "bus util WU",
        ],
    );
    for w in [Workload::Pverify, Workload::Mp3d, Workload::Water] {
        let wcfg = WorkloadConfig {
            procs: cfg.procs,
            refs_per_proc: cfg.refs_per_proc,
            seed: cfg.seed,
            ..WorkloadConfig::default()
        };
        let raw = generate(w, &wcfg);
        let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Strategy::Pref);
        let pref = PreparedTrace::new(&raw, &plan);
        for lat in [4u64, 16] {
            for (name, trace) in [("NP", PreparedTrace::from(&raw)), ("PREF", pref)] {
                let wi_cfg = SimConfig::paper(cfg.procs, lat);
                let wu_cfg = SimConfig { protocol: Protocol::WriteUpdate, ..wi_cfg };
                let wi = simulate(&wi_cfg, trace).expect("simulates");
                let wu = simulate(&wu_cfg, trace).expect("simulates");
                assert_eq!(wu.miss.invalidation(), 0, "write-update cannot invalidate");
                t.row(vec![
                    w.name().to_owned(),
                    format!("{lat} cycles"),
                    name.to_owned(),
                    format!("{:.2}%", 100.0 * wi.invalidation_miss_rate()),
                    format!("{:.3}", wu.cycles as f64 / wi.cycles as f64),
                    format!("{:.2}", wi.bus_utilization()),
                    format!("{:.2}", wu.bus_utilization()),
                ]);
            }
        }
    }
    charlie_bench::emit(&t);
}
