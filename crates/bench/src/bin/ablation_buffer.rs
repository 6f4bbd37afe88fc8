//! Prefetch-buffer-depth ablation.
//!
//! The paper simulates "a 16-deep prefetch instruction buffer, which was
//! sufficiently large to almost always prevent the processor from stalling
//! because the buffer was full" (§3.3). This sweep shows how shallow buffers
//! throttle the prefetching strategies; the depth cells fan out through
//! [`charlie::parallel::map`] (`CHARLIE_JOBS` workers).

use charlie::cache::CacheGeometry;
use charlie::parallel;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use charlie::{Lab, Table};

const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn main() {
    let lab = charlie_bench::lab_from_env();
    let cfg = *lab.config();
    drop(lab);
    let jobs = Lab::resolve_jobs(charlie_bench::jobs_from_env());

    let mut t = Table::new(
        "Prefetch-buffer-depth ablation (Mp3d, PWS, 8-cycle transfer)",
        vec!["Depth", "rel. time", "buffer stalls", "prefetch fills"],
    );
    let wcfg = WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        ..WorkloadConfig::default()
    };
    let raw = generate(Workload::Mp3d, &wcfg);
    let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Strategy::Pws);
    let prepared = PreparedTrace::new(&raw, &plan);
    let base = SimConfig::paper(cfg.procs, 8);
    let np = simulate(&base, &raw).expect("NP simulates").cycles as f64;
    let reports = parallel::map(&DEPTHS, jobs, |_, &depth| {
        let sim_cfg = SimConfig { prefetch_buffer_depth: depth, ..base };
        simulate(&sim_cfg, prepared).expect("simulates")
    });
    for (&depth, r) in DEPTHS.iter().zip(&reports) {
        t.row(vec![
            format!("{depth}"),
            format!("{:.3}", r.cycles as f64 / np),
            format!("{}", r.prefetch.buffer_stalls),
            format!("{}", r.prefetch.fills),
        ]);
    }
    charlie_bench::emit(&t);
}
