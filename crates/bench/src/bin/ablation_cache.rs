//! Conflict-remedy ablation: set associativity and victim caches.
//!
//! §4.3: the conflicts between prefetched data and the current working set
//! "would likely be reduced by a victim cache or a set-associative cache;
//! the primary result … would be a reduction in the performance degradations
//! seen in bus saturation." This runs Topopt (the conflict-ridden workload)
//! with 1-, 2- and 4-way caches, and separately with a direct-mapped cache
//! plus a 4- or 8-entry victim buffer. Geometry and victim depth live
//! outside [`charlie::Experiment`], so the cells fan out through
//! [`charlie::parallel::map`] (`CHARLIE_JOBS` workers).

use charlie::cache::CacheGeometry;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use charlie::{parallel, Experiment, Lab, RunConfig, Table};

const WAYS: [u32; 3] = [1, 2, 4];
const VICTIM_ENTRIES: [usize; 4] = [0, 2, 4, 8];

fn main() {
    let base = charlie_bench::lab_from_env();
    let base_cfg = *base.config();
    drop(base);
    let jobs = Lab::resolve_jobs(charlie_bench::jobs_from_env());

    let mut t = Table::new(
        "Associativity ablation (Topopt): prefetch conflicts shrink with ways",
        vec!["Ways", "NP CPU MR", "PREF rel. time @8", "PREF rel. time @32", "wasted pf @8"],
    );
    // Each associativity needs its own lab (geometry lives in RunConfig);
    // the three NP/PREF cells inside run through the lab's own batch engine.
    let way_rows = parallel::map(&WAYS, jobs, |_, &ways| {
        let geometry = CacheGeometry::new(32 * 1024, 32, ways).expect("valid geometry");
        let mut lab = Lab::new(RunConfig { geometry, ..base_cfg });
        let np =
            lab.run(Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8)).report.clone();
        let rel8 = lab.relative_time(Experiment::paper(Workload::Topopt, Strategy::Pref, 8));
        let rel32 = lab.relative_time(Experiment::paper(Workload::Topopt, Strategy::Pref, 32));
        let pf = lab.run(Experiment::paper(Workload::Topopt, Strategy::Pref, 8)).report.clone();
        (np, rel8, rel32, pf)
    });
    for (&ways, (np, rel8, rel32, pf)) in WAYS.iter().zip(&way_rows) {
        t.row(vec![
            format!("{ways}"),
            format!("{:.2}%", 100.0 * np.cpu_miss_rate()),
            format!("{rel8:.3}"),
            format!("{rel32:.3}"),
            format!("{}", pf.prefetch.wasted_evicted),
        ]);
    }
    charlie_bench::emit(&t);
    println!();

    let mut v = Table::new(
        "Victim-buffer ablation (Topopt, direct-mapped, PREF, 8-cycle transfer)",
        vec!["Victim entries", "rel. time", "victim hits", "CPU MR", "wasted pf"],
    );
    let wcfg = WorkloadConfig {
        procs: base_cfg.procs,
        refs_per_proc: base_cfg.refs_per_proc,
        seed: base_cfg.seed,
        ..WorkloadConfig::default()
    };
    let raw = generate(Workload::Topopt, &wcfg);
    let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Strategy::Pref);
    let prepared = PreparedTrace::new(&raw, &plan);
    let victim_rows = parallel::map(&VICTIM_ENTRIES, jobs, |_, &entries| {
        let sim_cfg = SimConfig {
            victim_entries: entries,
            ..SimConfig::paper(base_cfg.procs, 8)
        };
        let np = simulate(&sim_cfg, &raw).expect("NP simulates");
        let r = simulate(&sim_cfg, prepared).expect("simulates");
        (np, r)
    });
    for (&entries, (np, r)) in VICTIM_ENTRIES.iter().zip(&victim_rows) {
        v.row(vec![
            format!("{entries}"),
            format!("{:.3}", r.cycles as f64 / np.cycles as f64),
            format!("{}", r.victim_hits),
            format!("{:.2}%", 100.0 * r.cpu_miss_rate()),
            format!("{}", r.prefetch.wasted_evicted),
        ]);
    }
    charlie_bench::emit(&v);
}
