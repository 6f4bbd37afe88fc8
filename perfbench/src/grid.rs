//! `exact_grid` and `sampled_grid`: the paper's five workloads × five
//! prefetch strategies × two transfer latencies (8 and 32 cycles), run as
//! one `Lab::run_batch` per round at `jobs = 1`.
//!
//! A round regenerates its traces from a fresh seed, so a run samples
//! several inputs and reports the median round.

use std::time::Instant;

use charlie::prefetch::{HwPrefetchConfig, Strategy};
use charlie::sim::{simulate_counted_prevalidated, SimConfig};
use charlie::trace::Trace;
use charlie::workloads::generate;
use charlie::{
    run_sampled_on_prepared, Experiment, Lab, Protocol, RunConfig, RunSummary, SamplingConfig,
    Workload, WorkloadConfig,
};

use crate::stats::{median, percentile, self_times, Tracer};
use crate::{refs, round_seed, set_guards, Args, Outcome, Reference, REF_SEED};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exact Illinois: the detailed event loop does most of the work.
    Exact,
    /// SMARTS sampling, MOESI and a stride hardware prefetcher on longer
    /// traces: fast-forward coherence and `prefetch::apply` dominate.
    Sampled,
}

const LATENCIES: [u64; 2] = [8, 32];
const PROCS: usize = 8;
const EXACT_REFS: usize = 20_000;
const SAMPLED_REFS: usize = 100_000;
/// Rounds a timed pass makes even when the time budget is already spent.
const MIN_ROUNDS: usize = 3;

/// The grid, workload-major, then strategy, then latency — the order the
/// traced pass walks it in.
fn cells() -> Vec<Experiment> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for s in Strategy::ALL {
            for t in LATENCIES {
                cells.push(Experiment::paper(w, s, t));
            }
        }
    }
    cells
}

fn config(mode: Mode, seed: u64) -> RunConfig {
    let base = RunConfig {
        procs: PROCS,
        seed,
        wall_limit_ms: 0,
        ..RunConfig::default()
    };
    match mode {
        Mode::Exact => RunConfig {
            refs_per_proc: EXACT_REFS,
            ..base
        },
        Mode::Sampled => RunConfig {
            refs_per_proc: SAMPLED_REFS,
            protocol: Protocol::Moesi,
            hw_prefetch: HwPrefetchConfig::stride(2, 4),
            sampling: Some(SamplingConfig::smarts()),
            ..base
        },
    }
}

/// One `Lab::run_batch` over the grid.
struct LabRound {
    wall_s: f64,
    /// Batch wall time minus the summed per-cell times: raw-trace
    /// generation and validation, the work before any cell can simulate.
    setup_s: f64,
    refs: u64,
    cell_ms: Vec<f64>,
    summaries: Vec<RunSummary>,
    failed: u64,
}

fn lab_round(cfg: &RunConfig, cells: &[Experiment]) -> LabRound {
    let mut lab = Lab::new(*cfg);
    let report = lab.run_batch(cells, 1);
    if let Some(failures) = report.failure_summary() {
        eprintln!("perfbench: seed {}: {failures}", cfg.seed);
    }
    let mut round = LabRound {
        wall_s: report.wall_nanos as f64 * 1e-9,
        setup_s: 0.0,
        refs: 0,
        cell_ms: Vec::new(),
        summaries: Vec::new(),
        failed: report.failures.len() as u64,
    };
    let mut cell_nanos = 0u128;
    for &exp in cells {
        if let Some(meta) = lab.meta(exp) {
            cell_nanos += meta.wall_nanos;
            round.cell_ms.push(meta.wall_nanos as f64 * 1e-6);
            let summary = lab.run(exp).clone();
            round.refs += refs(&summary);
            round.summaries.push(summary);
        }
    }
    round.setup_s = report.wall_nanos.saturating_sub(cell_nanos) as f64 * 1e-9;
    round
}

/// Counts gathered by the traced pass.
#[derive(Default)]
struct Counts {
    inserted: u64,
    events: u64,
    refs: u64,
    detailed_windows: u64,
    total_windows: u64,
    failed: u64,
}

/// Simulates `exp` on its prepared trace inside a `sim.run` (exact) or
/// `sampling.run` span, as `Lab` does; returns the summary and the
/// scheduler events processed.
fn traced_sim(
    cfg: &RunConfig,
    exp: Experiment,
    prepared: &Trace,
    tr: &mut Tracer,
) -> Result<(RunSummary, u64), String> {
    let sim_cfg = SimConfig {
        geometry: cfg.geometry,
        hw_prefetch: cfg.hw_prefetch,
        protocol: cfg.protocol,
        // The Lab's event budget, so a cell that livelocks fails here as it
        // does there instead of running forever.
        max_events: (1 << 20) + 128 * (cfg.procs * cfg.refs_per_proc) as u64,
        ..SimConfig::paper(cfg.procs, exp.transfer_cycles)
    };
    let (report, events, sampled) = match &cfg.sampling {
        None => {
            let (report, events) = tr
                .time("sim.run", || {
                    simulate_counted_prevalidated(&sim_cfg, prepared)
                })
                .map_err(|e| format!("{exp}: {e}"))?;
            (report, events, None)
        }
        Some(scfg) => {
            let (report, s) = tr
                .time("sampling.run", || {
                    run_sampled_on_prepared(&sim_cfg, prepared, scfg)
                })
                .map_err(|e| format!("{exp}: {e}"))?;
            (report, s.events, Some(s))
        }
    };
    let prefetches_inserted = prepared.total_prefetches() as u64;
    Ok((
        RunSummary {
            experiment: exp,
            report,
            prefetches_inserted,
            timeline: None,
            sampled,
        },
        events,
    ))
}

fn traced_raw(cfg: &RunConfig, exp: Experiment, tr: &mut Tracer) -> Result<Trace, String> {
    let wcfg = WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        layout: exp.layout,
    };
    let raw = tr.time("workloads.gen", || generate(exp.workload, &wcfg));
    tr.time("trace.validate", || raw.validate())
        .map_err(|e| format!("{exp}: {e}"))?;
    Ok(raw)
}

/// One cell through the chain `execute_cell` runs — generate, validate,
/// apply, simulate — each call in its own span.
pub fn traced_cell(
    cfg: &RunConfig,
    exp: Experiment,
    tr: &mut Tracer,
) -> Result<(RunSummary, u64), String> {
    let raw = traced_raw(cfg, exp, tr)?;
    let prepared = tr.time("prefetch.apply", || {
        charlie::prefetch::apply(exp.strategy, &raw, cfg.geometry)
    });
    traced_sim(cfg, exp, &prepared, tr)
}

/// The same cells as [`lab_round`], calling each layer's public function in
/// the order the Lab does (one raw trace per workload, one apply per
/// strategy), each inside its own span.
fn traced_round(
    cfg: &RunConfig,
    cells: &[Experiment],
    tr: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<RunSummary>, String> {
    let mut summaries = Vec::with_capacity(cells.len());
    for by_workload in cells.chunk_by(|a, b| (a.workload, a.layout) == (b.workload, b.layout)) {
        let raw = traced_raw(cfg, by_workload[0], tr)?;
        for by_strategy in by_workload.chunk_by(|a, b| a.strategy == b.strategy) {
            let strategy = by_strategy[0].strategy;
            let prepared = tr.time("prefetch.apply", || {
                charlie::prefetch::apply(strategy, &raw, cfg.geometry)
            });
            for &exp in by_strategy {
                let Ok((summary, events)) = traced_sim(cfg, exp, &prepared, tr) else {
                    c.failed += 1;
                    continue;
                };
                c.events += events;
                c.inserted += summary.prefetches_inserted;
                c.refs += refs(&summary);
                if let Some(s) = &summary.sampled {
                    c.detailed_windows += s.detailed_windows;
                    c.total_windows += s.total_windows;
                }
                summaries.push(summary);
            }
        }
    }
    Ok(summaries)
}

/// Largest relative error, in percent, of the sampled cycle estimates
/// against the stored exact cycles.
fn est_err_pct(summaries: &[RunSummary], exact: &[u64]) -> f64 {
    summaries
        .iter()
        .zip(exact)
        .map(|(s, &e)| (s.report.cycles as f64 - e as f64).abs() / e as f64 * 100.0)
        .fold(0.0, f64::max)
}

/// Exact cycles of every `sampled_grid` cell at [`REF_SEED`]: the same
/// configuration with sampling off.
pub fn exact_cycles_of_sampled_cells() -> Result<Vec<u64>, String> {
    let cfg = RunConfig {
        sampling: None,
        ..config(Mode::Sampled, REF_SEED)
    };
    let cells = cells();
    let round = lab_round(&cfg, &cells);
    if round.summaries.len() != cells.len() {
        return Err("exact reference run lost cells".into());
    }
    Ok(round.summaries.iter().map(|s| s.report.cycles).collect())
}

pub fn run(mode: Mode, args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let cells = cells();
    let mut out = Outcome::default();

    // Untimed warm-up at the reference seed; its output is checked.
    let warm = lab_round(&config(mode, REF_SEED), &cells);
    out.check(warm.failed == 0, || {
        format!("warm-up: {} cell(s) failed", warm.failed)
    });
    out.ref_checksum = crate::checksum(&warm.summaries);
    set_guards(&mut out, &warm.summaries);
    if mode == Mode::Sampled && reference.sampled_exact_cycles.len() == cells.len() {
        let err = est_err_pct(&warm.summaries, &reference.sampled_exact_cycles);
        println!("est_err_pct {err:.4} % (largest sampled cycle error at seed {REF_SEED})");
        out.set("sampling.est_err_pct", err);
    }
    if args.make_reference {
        return Ok(out);
    }

    let start = Instant::now();
    let mut rounds: Vec<LabRound> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut counts = Counts::default();
    let mut r = 0;
    while rounds.len() < if args.trace { 1 } else { MIN_ROUNDS } || start.elapsed() < args.budget()
    {
        let cfg = config(mode, round_seed(args.seed, r));
        r += 1;
        let round = lab_round(&cfg, &cells);
        out.attempted += cells.len() as u64;
        out.failed += round.failed;
        if args.trace {
            let failed_before = counts.failed;
            let root = out.tracer.enter("round");
            let traced = traced_round(&cfg, &cells, &mut out.tracer, &mut counts)?;
            out.tracer.exit(root);
            let s = &out.tracer.spans()[root];
            traced_walls.push((s.end_ns - s.start_ns) as f64 * 1e-9);
            let same = traced == round.summaries && counts.failed - failed_before == round.failed;
            out.check(same, || {
                format!("seed {}: traced reports differ from the Lab's", cfg.seed)
            });
        }
        rounds.push(round);
    }

    let rate: Vec<f64> = rounds.iter().map(|r| r.refs as f64 / r.wall_s).collect();
    // A failed cell has no `Lab::meta`, so its failed attempt and serial
    // retry would count as setup: such rounds stay out of the sample.
    let setup: Vec<f64> = rounds
        .iter()
        .filter(|r| r.failed == 0)
        .map(|r| r.setup_s)
        .collect();
    if setup.is_empty() {
        return Err("every round had a failed cell: no setup_s sample".into());
    }
    let cell_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cell_ms.iter().copied())
        .collect();
    out.set("refs_per_sec", median(&rate));
    out.set("setup_s", median(&setup));
    if !args.trace {
        out.set(
            "submit_p50_ms",
            percentile(&cell_ms, 0.5).ok_or("too few cells for p50")?,
        );
        out.set(
            "submit_p90_ms",
            percentile(&cell_ms, 0.9).ok_or("too few cells for p90")?,
        );
    } else {
        let n = rounds.len() as f64;
        let selfs = self_times(out.tracer.spans());
        let per_round = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 * 1e-9 / n;
        let layers = [
            "workloads.gen",
            "trace.validate",
            "prefetch.apply",
            "sim.run",
            "sampling.run",
        ];
        let layer_s: f64 = layers.iter().map(|l| per_round(l)).sum();
        let untraced_s = rounds.iter().map(|r| r.wall_s).sum::<f64>() / n;
        let traced_s = traced_walls.iter().sum::<f64>() / n;
        let sim_s = per_round("sim.run") + per_round("sampling.run");
        out.set("workloads.gen_s", per_round("workloads.gen"));
        out.set("trace.validate_s", per_round("trace.validate"));
        out.set("prefetch.apply_s", per_round("prefetch.apply"));
        out.set("prefetch.inserted", counts.inserted as f64 / n);
        out.set("sim.run_s", per_round("sim.run"));
        out.set("sampling.run_s", per_round("sampling.run"));
        out.set("sim.events", counts.events as f64 / n);
        out.set(
            "sim.ns_per_event",
            sim_s * 1e9 * n / counts.events.max(1) as f64,
        );
        out.set(
            "sim.events_per_ref",
            counts.events as f64 / counts.refs.max(1) as f64,
        );
        out.set("sim.refs_per_sec", counts.refs as f64 / n / sim_s);
        if mode == Mode::Sampled {
            out.set(
                "sampling.detailed_frac",
                counts.detailed_windows as f64 / counts.total_windows.max(1) as f64,
            );
        }
        out.set("lab.cell_p50_ms", median(&cell_ms));
        out.set("lab.overhead_s", untraced_s - layer_s);
        out.set("trace.overhead_s", traced_s - untraced_s);
        out.set("trace.unattributed_s", per_round("round"));
        out.set("trace.rounds", n);
    }
    Ok(out)
}
