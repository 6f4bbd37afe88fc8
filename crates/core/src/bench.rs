//! Macro-benchmark harness: times a representative slice of the paper's
//! experiment grid and snapshots the numbers as JSON so the repository
//! carries a performance trajectory (`BENCH_charlie.json`) future changes
//! can be regressed against.
//!
//! The slice is Mp3d — the most coherence-intensive workload — across all
//! five prefetch strategies and all five paper transfer latencies: 25 cells,
//! the same shape as one Figure-2 panel. Cells run through the same
//! shared-trace pipeline a `Lab` batch uses; the harness records the
//! median cell wall-clock, scheduler events per second (from
//! [`charlie_sim::simulate_counted_prevalidated`]), peak RSS, and a
//! checksum over the reports proving two snapshots simulated identical
//! work.
//!
//! Run it via `charlie-cli bench [--quick]` or the `ci.sh` quick-bench
//! smoke stage; see EXPERIMENTS.md for how to compare snapshots.

use crate::Experiment;
use charlie_bus::BusConfig;
use charlie_prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie_sim::{simulate_counted_prevalidated, SimConfig};
use charlie_workloads::{generate, Layout, Workload, WorkloadConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Trace-size knobs for one slice run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SliceConfig {
    /// Demand references per processor.
    pub refs_per_proc: usize,
    /// Processors.
    pub procs: usize,
    /// Workload seed.
    pub seed: u64,
}

impl SliceConfig {
    /// The full-size slice: the experiment suite's defaults (what the
    /// checked-in before/after numbers are measured at).
    pub fn full() -> Self {
        SliceConfig { refs_per_proc: 160_000, procs: 8, seed: 0xC0FFEE }
    }

    /// A ~8× smaller slice for the CI smoke stage (seconds, not minutes).
    pub fn quick() -> Self {
        SliceConfig { refs_per_proc: 20_000, ..SliceConfig::full() }
    }
}

/// The benchmarked grid slice: Mp3d × all strategies × all paper latencies.
pub fn slice_experiments() -> Vec<Experiment> {
    let mut exps = Vec::new();
    for &transfer in &BusConfig::PAPER_SWEEP {
        for strategy in Strategy::ALL {
            exps.push(Experiment::paper(Workload::Mp3d, strategy, transfer));
        }
    }
    exps
}

/// One measured slice run, as recorded in `BENCH_charlie.json`.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// Name this run is filed under (`before`, `after`, `quick_baseline`…).
    pub label: String,
    /// Cells in the slice.
    pub cells: usize,
    /// Processors per cell.
    pub procs: usize,
    /// References per processor.
    pub refs_per_proc: usize,
    /// Median wall-clock of one cell (simulation plus its amortized share
    /// of the batch-shared generate/validate/apply work), ms.
    pub median_cell_ms: f64,
    /// Wall-clock of the whole slice, ms.
    pub total_ms: f64,
    /// Portion of `total_ms` spent inside the simulator proper, ms.
    pub sim_ms: f64,
    /// Scheduler events processed across the slice (deterministic).
    pub events: u64,
    /// `events / sim_ms` — the throughput number CI regresses against.
    pub events_per_sec: f64,
    /// Peak resident set of the process, KiB (`/proc/self/status` VmHWM;
    /// 0 where unavailable).
    pub peak_rss_kb: u64,
    /// Wrapping sum of every cell's simulated cycle count: two snapshots
    /// with equal checksums simulated bit-identical work.
    pub cycles_checksum: u64,
}

/// Runs the grid slice under `cfg` and measures it.
///
/// The slice executes through the same shared-trace pipeline a `Lab` batch
/// uses: the raw trace is generated and validated once (the slice is one
/// workload and layout), each strategy is applied once, and each cell
/// simulates prevalidated. A cell's wall-clock is its simulation plus its
/// amortized share of that shared preparation, so `median_cell_ms` is the
/// true marginal cost of one cell inside a full-grid regeneration.
pub fn run_slice(label: &str, cfg: &SliceConfig) -> Snapshot {
    let exps = slice_experiments();
    let mut cell_ms: Vec<f64> = Vec::with_capacity(exps.len());
    let mut sim_nanos: u128 = 0;
    let mut events: u64 = 0;
    let mut checksum: u64 = 0;
    let slice_start = Instant::now();
    let wcfg = WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        layout: Layout::Interleaved,
    };
    let gen_start = Instant::now();
    let raw = generate(Workload::Mp3d, &wcfg);
    raw.validate().expect("generated trace is valid");
    let gen_share_ns = gen_start.elapsed().as_nanos() as f64 / exps.len() as f64;
    let marks = TraceMarks::new(&raw, charlie_cache::CacheGeometry::paper_default());
    for strategy in Strategy::ALL {
        let apply_start = Instant::now();
        let plan = marks.plan(&raw, strategy);
        let prepared = PreparedTrace::new(&raw, &plan);
        let cells: Vec<&Experiment> =
            exps.iter().filter(|e| e.strategy == strategy).collect();
        let apply_share_ns = apply_start.elapsed().as_nanos() as f64 / cells.len() as f64;
        for exp in cells {
            let sim_cfg = SimConfig::paper(cfg.procs, exp.transfer_cycles);
            let sim_start = Instant::now();
            let (report, cell_events) = simulate_counted_prevalidated(&sim_cfg, prepared)
                .unwrap_or_else(|e| panic!("bench cell {exp}: {e}"));
            sim_nanos += sim_start.elapsed().as_nanos();
            events += cell_events;
            checksum =
                checksum.wrapping_add(report.cycles).wrapping_add(report.miss.cpu_misses());
            let cell_nanos =
                sim_start.elapsed().as_nanos() as f64 + apply_share_ns + gen_share_ns;
            cell_ms.push(cell_nanos / 1e6);
        }
    }
    let total_ms = slice_start.elapsed().as_nanos() as f64 / 1e6;
    let sim_ms = sim_nanos as f64 / 1e6;
    Snapshot {
        label: label.to_owned(),
        cells: exps.len(),
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        median_cell_ms: median(&mut cell_ms),
        total_ms,
        sim_ms,
        events,
        events_per_sec: if sim_ms > 0.0 { events as f64 * 1e3 / sim_ms } else { 0.0 },
        peak_rss_kb: peak_rss_kb(),
        cycles_checksum: checksum,
    }
}

/// Runs the grid slice under SMARTS sampling (DESIGN.md §17) and measures
/// it — the `sampled` entry in `BENCH_charlie.json`. Same 25 cells and
/// shared-trace pipeline as [`run_slice`], but each cell simulates through
/// [`crate::sampling::run_sampled_on_prepared`], so `events` counts the
/// sampled run's scheduler events (period-fold fewer than exact) and
/// `cycles_checksum` sums the *estimated* cycle counts: it proves two
/// sampled snapshots estimated identically, not that they match exact.
pub fn run_sampled_slice(
    label: &str,
    cfg: &SliceConfig,
    scfg: &crate::SamplingConfig,
) -> Snapshot {
    let exps = slice_experiments();
    let mut cell_ms: Vec<f64> = Vec::with_capacity(exps.len());
    let mut sim_nanos: u128 = 0;
    let mut events: u64 = 0;
    let mut checksum: u64 = 0;
    let slice_start = Instant::now();
    let wcfg = WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        layout: Layout::Interleaved,
    };
    let gen_start = Instant::now();
    let raw = generate(Workload::Mp3d, &wcfg);
    raw.validate().expect("generated trace is valid");
    let gen_share_ns = gen_start.elapsed().as_nanos() as f64 / exps.len() as f64;
    let marks = TraceMarks::new(&raw, charlie_cache::CacheGeometry::paper_default());
    for strategy in Strategy::ALL {
        let apply_start = Instant::now();
        let plan = marks.plan(&raw, strategy);
        let prepared = PreparedTrace::new(&raw, &plan);
        let cells: Vec<&Experiment> =
            exps.iter().filter(|e| e.strategy == strategy).collect();
        let apply_share_ns = apply_start.elapsed().as_nanos() as f64 / cells.len() as f64;
        for exp in cells {
            let sim_cfg = SimConfig::paper(cfg.procs, exp.transfer_cycles);
            let sim_start = Instant::now();
            let (report, summary) =
                crate::sampling::run_sampled_on_prepared(&sim_cfg, prepared, scfg)
                    .unwrap_or_else(|e| panic!("sampled bench cell {exp}: {e}"));
            sim_nanos += sim_start.elapsed().as_nanos();
            events += summary.events;
            checksum =
                checksum.wrapping_add(report.cycles).wrapping_add(report.miss.cpu_misses());
            let cell_nanos =
                sim_start.elapsed().as_nanos() as f64 + apply_share_ns + gen_share_ns;
            cell_ms.push(cell_nanos / 1e6);
        }
    }
    let total_ms = slice_start.elapsed().as_nanos() as f64 / 1e6;
    let sim_ms = sim_nanos as f64 / 1e6;
    Snapshot {
        label: label.to_owned(),
        cells: exps.len(),
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        median_cell_ms: median(&mut cell_ms),
        total_ms,
        sim_ms,
        events,
        events_per_sec: if sim_ms > 0.0 { events as f64 * 1e3 / sim_ms } else { 0.0 },
        peak_rss_kb: peak_rss_kb(),
        cycles_checksum: checksum,
    }
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Peak resident set size of the current process in KiB, from Linux
/// `/proc/self/status` (`VmHWM`). Returns 0 on other platforms.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

impl Snapshot {
    /// This snapshot as a JSON object (stable key order).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "{inner}\"cells\": {},", self.cells);
        let _ = writeln!(s, "{inner}\"procs\": {},", self.procs);
        let _ = writeln!(s, "{inner}\"refs_per_proc\": {},", self.refs_per_proc);
        let _ = writeln!(s, "{inner}\"median_cell_ms\": {:.2},", self.median_cell_ms);
        let _ = writeln!(s, "{inner}\"total_ms\": {:.2},", self.total_ms);
        let _ = writeln!(s, "{inner}\"sim_ms\": {:.2},", self.sim_ms);
        let _ = writeln!(s, "{inner}\"events\": {},", self.events);
        let _ = writeln!(s, "{inner}\"events_per_sec\": {:.0},", self.events_per_sec);
        let _ = writeln!(s, "{inner}\"peak_rss_kb\": {},", self.peak_rss_kb);
        let _ = writeln!(s, "{inner}\"cycles_checksum\": {}", self.cycles_checksum);
        let _ = write!(s, "{pad}}}");
        s
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} cells x {} refs/proc — median cell {:.1} ms, total {:.1} ms, {:.2} M events/s, peak RSS {} KiB",
            self.label,
            self.cells,
            self.refs_per_proc,
            self.median_cell_ms,
            self.total_ms,
            self.events_per_sec / 1e6,
            self.peak_rss_kb,
        )
    }
}

/// Renders a complete `BENCH_charlie.json` from named snapshots.
pub fn render_file(runs: &[&Snapshot]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"charlie grid slice: Mp3d x {NP,PREF,EXCL,LPD,PWS} x {4,8,16,24,32}cy\",\n");
    s.push_str("  \"runs\": {\n");
    for (i, run) in runs.iter().enumerate() {
        let _ = write!(s, "    \"{}\": {}", run.label, run.to_json(4));
        s.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// Extracts `runs.<label>.<key>` from a `BENCH_charlie.json` produced by
/// [`render_file`] with a deliberately naive scan (no JSON dependency):
/// finds the quoted label, then the first quoted key after it, then parses
/// the number that follows the colon.
pub fn extract_run_number(json: &str, label: &str, key: &str) -> Option<f64> {
    let label_at = json.find(&format!("\"{label}\""))?;
    let section = &json[label_at..];
    let key_at = section.find(&format!("\"{key}\""))?;
    let after_key = &section[key_at..];
    let colon = after_key.find(':')?;
    let tail = after_key[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(label: &str) -> Snapshot {
        Snapshot {
            label: label.into(),
            cells: 25,
            procs: 8,
            refs_per_proc: 20_000,
            median_cell_ms: 12.5,
            total_ms: 410.0,
            sim_ms: 395.5,
            events: 12_345_678,
            events_per_sec: 31_215_000.0,
            peak_rss_kb: 34_567,
            cycles_checksum: 987_654_321,
        }
    }

    #[test]
    fn slice_covers_all_strategies_and_latencies() {
        let exps = slice_experiments();
        assert_eq!(exps.len(), 25);
        assert!(exps.iter().all(|e| e.workload == Workload::Mp3d));
        for &t in &BusConfig::PAPER_SWEEP {
            assert_eq!(exps.iter().filter(|e| e.transfer_cycles == t).count(), 5);
        }
    }

    #[test]
    fn json_round_trips_through_the_naive_extractor() {
        let before = snap("before");
        let after = Snapshot { events_per_sec: 75_000_000.0, ..snap("after") };
        let file = render_file(&[&before, &after]);
        assert_eq!(extract_run_number(&file, "before", "events_per_sec"), Some(31_215_000.0));
        assert_eq!(extract_run_number(&file, "after", "events_per_sec"), Some(75_000_000.0));
        assert_eq!(extract_run_number(&file, "before", "cells"), Some(25.0));
        assert_eq!(extract_run_number(&file, "after", "median_cell_ms"), Some(12.5));
        assert_eq!(extract_run_number(&file, "missing", "cells"), None);
        assert_eq!(extract_run_number(&file, "before", "missing"), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tiny_slice_runs_and_measures() {
        let cfg = SliceConfig { refs_per_proc: 300, procs: 2, seed: 7 };
        let s = run_slice("test", &cfg);
        assert_eq!(s.cells, 25);
        assert!(s.events > 0);
        assert!(s.events_per_sec > 0.0);
        assert!(s.total_ms >= s.sim_ms);
        // Determinism: same slice, same events and checksum.
        let s2 = run_slice("test", &cfg);
        assert_eq!(s.events, s2.events);
        assert_eq!(s.cycles_checksum, s2.cycles_checksum);
    }
}
