//! §4.3 prefetch-distance ablation.
//!
//! The paper argues "prefetching algorithms should strive to receive the
//! prefetched data exactly on time": short distances leave prefetches in
//! progress (cheap-but-real misses), long ones trade them for conflict
//! misses ("trading prefetch-in-progress misses for conflict misses is not
//! wise"). This sweep shows the trade-off directly. The distance knob lives
//! outside [`charlie::Experiment`], so the cells fan out through
//! [`charlie::parallel::map`] (`CHARLIE_JOBS` workers).

use charlie::cache::CacheGeometry;
use charlie::parallel;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig};
use charlie::workloads::{generate, Workload, WorkloadConfig};
use charlie::{Lab, Table};

const DISTANCES: [u64; 6] = [25, 50, 100, 200, 400, 800];

fn main() {
    let lab = charlie_bench::lab_from_env();
    let cfg = *lab.config();
    drop(lab);
    let jobs = Lab::resolve_jobs(charlie_bench::jobs_from_env());

    let mut t = Table::new(
        "Prefetch-distance ablation (PREF discipline, 8-cycle transfer)",
        vec!["Workload", "Distance", "rel. time", "in-progress MR", "non-shr MR", "wasted pf"],
    );
    for w in [Workload::Topopt, Workload::Mp3d] {
        let wcfg = WorkloadConfig {
            procs: cfg.procs,
            refs_per_proc: cfg.refs_per_proc,
            seed: cfg.seed,
            ..WorkloadConfig::default()
        };
        let raw = generate(w, &wcfg);
        let sim_cfg = SimConfig::paper(cfg.procs, 8);
        let np = simulate(&sim_cfg, &raw).expect("NP simulates");
        let marks = TraceMarks::new(&raw, CacheGeometry::paper_default());
        let reports = parallel::map(&DISTANCES, jobs, |_, &distance| {
            let plan = marks.plan_with_distance(&raw, Strategy::Pref, distance);
            simulate(&sim_cfg, PreparedTrace::new(&raw, &plan)).expect("simulates")
        });
        for (&distance, r) in DISTANCES.iter().zip(&reports) {
            let d = r.demand_accesses().max(1) as f64;
            t.row(vec![
                w.name().to_owned(),
                format!("{distance}"),
                format!("{:.3}", r.cycles as f64 / np.cycles as f64),
                format!("{:.2}%", 100.0 * r.miss.prefetch_in_progress as f64 / d),
                format!("{:.2}%", 100.0 * r.non_sharing_miss_rate()),
                format!("{}", r.prefetch.wasted_evicted + r.prefetch.wasted_invalidated),
            ]);
        }
    }
    charlie_bench::emit(&t);
}
