//! Effective memory latency under contention — the mechanism behind
//! Figure 2.
//!
//! §4.2: "prefetching causes an increase in memory latency due to increased
//! contention between processors on the bus". This binary prints the
//! demand-fill latency distribution (unloaded: 100 cycles) for NP and PWS
//! across the latency sweep, making the queueing directly visible.

use charlie::cache::CacheGeometry;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig, LATENCY_BUCKET_BOUNDS};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use charlie::Table;

fn main() {
    let lab = charlie_bench::lab_from_env();
    let cfg = *lab.config();
    drop(lab);

    let mut bucket_headers: Vec<String> = Vec::new();
    let mut low = 0;
    for b in LATENCY_BUCKET_BOUNDS {
        bucket_headers.push(format!("{}..{}", low + 1, b));
        low = b;
    }
    bucket_headers.push(format!(">{low}"));

    let mut headers = vec!["Workload".to_owned(), "Transfer".to_owned(), "Strategy".to_owned(), "mean".to_owned()];
    headers.extend(bucket_headers);
    let mut t = Table::new("Demand-fill latency distribution (cycles; unloaded = 100)", headers);

    for w in [Workload::Mp3d, Workload::Water] {
        let wcfg = WorkloadConfig {
            procs: cfg.procs,
            refs_per_proc: cfg.refs_per_proc,
            seed: cfg.seed,
            ..WorkloadConfig::default()
        };
        let raw = generate(w, &wcfg);
        let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Strategy::Pws);
        let pws = PreparedTrace::new(&raw, &plan);
        for lat in [4u64, 16, 32] {
            let sim_cfg = SimConfig::paper(cfg.procs, lat);
            for (name, trace) in [("NP", PreparedTrace::from(&raw)), ("PWS", pws)] {
                let r = simulate(&sim_cfg, trace).expect("simulates");
                let total = r.fill_latency.count().max(1) as f64;
                let mut cells = vec![
                    w.name().to_owned(),
                    format!("{lat}"),
                    name.to_owned(),
                    format!("{:.0}", r.fill_latency.mean()),
                ];
                for &count in r.fill_latency.histogram() {
                    cells.push(format!("{:.0}%", 100.0 * count as f64 / total));
                }
                t.row(cells);
            }
        }
    }
    charlie_bench::emit(&t);
}
