//! Arbitration-priority ablation.
//!
//! The paper's bus "favors blocking loads over prefetches" (§3.3). This
//! binary measures what that design choice is worth by letting prefetches
//! compete at demand priority: near saturation, prefetch traffic then delays
//! the loads processors are stalled on. The arbitration knob lives outside
//! [`charlie::Experiment`], so the (latency, arbitration) cells fan out
//! through [`charlie::parallel::map`] (`CHARLIE_JOBS` workers).

use charlie::cache::CacheGeometry;
use charlie::parallel;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use charlie::{Lab, Table};

const LATENCIES: [u64; 3] = [8, 16, 32];

fn main() {
    let lab = charlie_bench::lab_from_env();
    let cfg = *lab.config();
    drop(lab);
    let jobs = Lab::resolve_jobs(charlie_bench::jobs_from_env());

    let mut t = Table::new(
        "Arbitration ablation (PWS discipline): demand-over-prefetch priority vs flat priority",
        vec!["Workload", "Transfer", "rel. time (paper arb)", "rel. time (flat arb)"],
    );
    for w in [Workload::Mp3d, Workload::Pverify] {
        let wcfg = WorkloadConfig {
            procs: cfg.procs,
            refs_per_proc: cfg.refs_per_proc,
            seed: cfg.seed,
            ..WorkloadConfig::default()
        };
        let raw = generate(w, &wcfg);
        let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Strategy::Pws);
        let prepared = PreparedTrace::new(&raw, &plan);
        // Three independent simulations per latency: NP baseline, paper
        // arbitration, flat arbitration.
        let rows = parallel::map(&LATENCIES, jobs, |_, &lat| {
            let base = SimConfig::paper(cfg.procs, lat);
            let np = simulate(&base, &raw).expect("NP simulates").cycles as f64;
            let paper_arb = simulate(&base, prepared).expect("simulates").cycles as f64;
            let flat = SimConfig { prefetch_demand_priority: true, ..base };
            let flat_arb = simulate(&flat, prepared).expect("simulates").cycles as f64;
            (paper_arb / np, flat_arb / np)
        });
        for (&lat, &(paper_rel, flat_rel)) in LATENCIES.iter().zip(&rows) {
            t.row(vec![
                w.name().to_owned(),
                format!("{lat} cycles"),
                format!("{paper_rel:.3}"),
                format!("{flat_rel:.3}"),
            ]);
        }
    }
    charlie_bench::emit(&t);
}
