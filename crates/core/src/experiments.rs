//! Reproductions of every table and figure in the paper's evaluation
//! (§4), its §3.3 and §4.3 sensitivity remarks, and the post-paper
//! extensions, behind one registry ([`EXHIBITS`]) that `charlie
//! experiments` drives: each [`Exhibit`] names the cells it reads, each
//! with the lab configuration it runs under, and renders from the memo
//! once a [`Labs`] has batched them.
//!
//! | Function | Paper exhibit |
//! |---|---|
//! | [`table1`] | Table 1 — workload characteristics |
//! | [`figure1`] | Figure 1 — total & CPU miss rates (8-cycle transfer) |
//! | [`table2`] | Table 2 — bus utilizations |
//! | [`figure2`] | Figure 2 — relative execution time vs. transfer latency |
//! | [`figure3`] | Figure 3 — sources of CPU misses |
//! | [`table3`] | Table 3 — invalidation & false-sharing miss rates |
//! | [`table4`] | Table 4 — miss rates, restructured programs |
//! | [`table5`] | Table 5 — execution times, restructured programs |
//! | [`processor_utilization`] | §4.2 — NP processor utilizations |
//! | [`paper_grid`] | all of the above, as `experiments_output.txt` holds them |

use crate::checkpoint::Journal;
use crate::lab::{self, BatchReport, Experiment, Lab, RunConfig};
use crate::report::{format_rate, Table};
use charlie_bus::BusConfig;
use charlie_cache::CacheGeometry;
use charlie_prefetch::{HwPrefetchConfig, PreparedTrace, Strategy, TraceMarks};
use charlie_sim::{simulate, Protocol, SimConfig, SimError, SimReport, LATENCY_BUCKET_BOUNDS};
use charlie_trace::{Trace, TraceStats, WordSharingMap};
use charlie_workloads::{generate, Layout, Workload, WorkloadConfig};
use std::collections::HashMap;
use std::fmt;

/// The transfer latency Figures 1 and 3 and Tables 3 and 4 are reported at.
pub const FIGURE_LATENCY: u64 = 8;

/// The workloads Figure 3 details.
pub const FIGURE3_WORKLOADS: [Workload; 3] = [Workload::Topopt, Workload::Pverify, Workload::Mp3d];

/// The strategies Tables 4 and 5 report for restructured programs.
pub const RESTRUCTURED_STRATEGIES: [Strategy; 3] =
    [Strategy::NoPrefetch, Strategy::Pref, Strategy::Pws];

/// The on-line hardware prefetcher configurations the head-to-head exhibit
/// compares against the oracle software strategies: each of the three
/// predictor families at degree 2 (the stride prefetcher at the paper
/// buffer's native lookahead of 4).
pub fn hw_prefetch_configs() -> [HwPrefetchConfig; 3] {
    [HwPrefetchConfig::stride(2, 4), HwPrefetchConfig::sms(2), HwPrefetchConfig::markov(2)]
}

fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Every experiment cell the paper's exhibits (Tables 1–5, Figures 1–3,
/// §4.2 utilizations) read: the full workload × strategy × transfer-latency
/// grid on the interleaved layout, plus the restructured cells of Tables 4
/// and 5. [`Lab::prefetch_all`](crate::Lab::prefetch_all) feeds this list to
/// the parallel engine so each exhibit function afterwards runs entirely
/// from the memo.
pub fn full_grid() -> Vec<Experiment> {
    let mut grid = Vec::new();
    for w in Workload::ALL {
        for s in Strategy::ALL {
            for lat in BusConfig::PAPER_SWEEP {
                grid.push(Experiment::paper(w, s, lat));
            }
        }
    }
    for w in Workload::ALL.into_iter().filter(|w| w.restructurable()) {
        for s in RESTRUCTURED_STRATEGIES {
            for lat in BusConfig::TABLE2_SWEEP {
                grid.push(Experiment::paper(w, s, lat).restructured());
            }
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// One exhibit `charlie experiments` can render.
pub struct Exhibit {
    /// The name the CLI takes.
    pub name: &'static str,
    /// The cells the exhibit reads, each with the lab configuration it
    /// runs under, for a driver whose shared lab runs `base`.
    pub cells: fn(base: &RunConfig) -> Vec<(RunConfig, Experiment)>,
    /// Renders the exhibit from the labs as text, or as CSV when `csv`.
    /// Cells from [`Exhibit::cells`] are memo lookups by then; the
    /// ablations whose knob exists only in [`SimConfig`] simulate here.
    pub render: fn(labs: &mut Labs, csv: bool) -> Result<String, Failures>,
}

/// Every exhibit `charlie experiments` renders. `all` is the paper's
/// evaluation (Tables 1–5, Figures 1–3, §4.2); the entries after it are
/// the §3.3 and §4.3 sensitivity remarks and the post-paper extensions.
pub static EXHIBITS: [Exhibit; 22] = [
    Exhibit {
        name: "table1",
        cells: |_| Vec::new(),
        render: |labs, csv| Ok(emit([table1(labs.shared())], csv)),
    },
    Exhibit {
        name: "figure1",
        cells: |base| on(base, grid(&Workload::ALL, &Strategy::ALL, &[FIGURE_LATENCY])),
        render: |labs, csv| Ok(emit([figure1(labs.shared())], csv)),
    },
    Exhibit {
        name: "table2",
        cells: |base| on(base, grid(&Workload::ALL, &Strategy::ALL, &BusConfig::TABLE2_SWEEP)),
        render: |labs, csv| Ok(emit([table2(labs.shared())], csv)),
    },
    Exhibit {
        name: "figure2",
        cells: |base| on(base, grid(&Workload::ALL, &Strategy::ALL, &BusConfig::PAPER_SWEEP)),
        render: |labs, csv| {
            let mut text = emit(figure2(labs.shared()), csv);
            if !csv {
                for w in Workload::ALL {
                    text.push_str(&format!("{}\n", figure2_chart(labs.shared(), w)));
                }
            }
            Ok(text)
        },
    },
    Exhibit {
        name: "figure3",
        cells: |base| on(base, grid(&FIGURE3_WORKLOADS, &Strategy::ALL, &[FIGURE_LATENCY])),
        render: |labs, csv| Ok(emit([figure3(labs.shared())], csv)),
    },
    Exhibit {
        name: "table3",
        cells: |base| on(base, grid(&Workload::ALL, &[Strategy::NoPrefetch], &[FIGURE_LATENCY])),
        render: |labs, csv| Ok(emit([table3(labs.shared())], csv)),
    },
    Exhibit {
        name: "table4",
        cells: |base| on(base, restructured(&[FIGURE_LATENCY])),
        render: |labs, csv| Ok(emit([table4(labs.shared())], csv)),
    },
    Exhibit {
        name: "table5",
        cells: |base| on(base, restructured(&BusConfig::TABLE2_SWEEP)),
        render: |labs, csv| Ok(emit([table5(labs.shared())], csv)),
    },
    Exhibit {
        name: "proc-util",
        cells: |base| on(base, grid(&Workload::ALL, &[Strategy::NoPrefetch], &[4, 32])),
        render: |labs, csv| Ok(emit([processor_utilization(labs.shared())], csv)),
    },
    Exhibit {
        name: "all",
        cells: |base| on(base, full_grid()),
        render: |labs, csv| {
            let lab = labs.shared();
            Ok(if csv { emit(paper_tables(lab), true) } else { paper_grid(lab) })
        },
    },
    Exhibit {
        name: "anchors",
        cells: |base| {
            on(base, grid(&Workload::ALL, &[Strategy::NoPrefetch], &BusConfig::TABLE2_SWEEP))
        },
        render: |labs, csv| Ok(emit([anchors(labs.shared())], csv)),
    },
    Exhibit {
        name: "cache-size",
        cells: |base| {
            let mut cells = Vec::new();
            for kb in CACHE_KB {
                let cfg = with_geometry(base, kb * 1024, 32, 1);
                cells.extend(on(&cfg, grid(&CACHE_SWEEP_WORKLOADS, &[Strategy::NoPrefetch], &[8])));
            }
            cells
        },
        render: |labs, csv| Ok(emit([cache_size_sweep(labs)], csv)),
    },
    Exhibit {
        name: "block-size",
        cells: |base| {
            let mut cells = Vec::new();
            for block in BLOCK_BYTES {
                let cfg = with_geometry(base, 32 * 1024, block, 1);
                cells.extend(on(&cfg, grid(&BLOCK_SWEEP_WORKLOADS, &[Strategy::NoPrefetch], &[8])));
            }
            cells
        },
        render: |labs, csv| Ok(emit([block_size_sweep(labs)], csv)),
    },
    Exhibit {
        name: "ablation-distance",
        cells: |base| {
            on(base, grid(&[Workload::Topopt, Workload::Mp3d], &[Strategy::NoPrefetch], &[8]))
        },
        render: |labs, csv| Ok(emit([ablation_distance(labs)?], csv)),
    },
    Exhibit {
        name: "ablation-cache",
        cells: |base| {
            let strategies = [Strategy::NoPrefetch, Strategy::Pref];
            let topopt = grid(&[Workload::Topopt], &strategies, &[8, 32]);
            let ways_cfg = |ways| with_geometry(base, 32 * 1024, 32, ways);
            WAYS.iter().flat_map(|&ways| on(&ways_cfg(ways), topopt.clone())).collect()
        },
        render: |labs, csv| Ok(emit(ablation_cache(labs)?, csv)),
    },
    Exhibit {
        name: "ablation-priority",
        cells: |base| {
            let strategies = [Strategy::NoPrefetch, Strategy::Pws];
            on(base, grid(&[Workload::Mp3d, Workload::Pverify], &strategies, &PRIORITY_LATENCIES))
        },
        render: |labs, csv| Ok(emit([ablation_priority(labs)?], csv)),
    },
    Exhibit {
        name: "ablation-buffer",
        cells: |base| on(base, grid(&[Workload::Mp3d], &[Strategy::NoPrefetch], &[8])),
        render: |labs, csv| Ok(emit([ablation_buffer(labs)?], csv)),
    },
    Exhibit {
        name: "excl-rmw",
        cells: |base| on(base, grid(&FIGURE3_WORKLOADS, &RMW_STRATEGIES, &[8])),
        render: |labs, csv| Ok(emit([excl_rmw(labs.shared())], csv)),
    },
    Exhibit {
        name: "latency-profile",
        cells: |base| {
            let strategies = [Strategy::NoPrefetch, Strategy::Pws];
            on(base, grid(&[Workload::Mp3d, Workload::Water], &strategies, &[4, 16, 32]))
        },
        render: |labs, csv| Ok(emit([latency_profile(labs.shared())], csv)),
    },
    Exhibit {
        name: "sharing",
        cells: |_| Vec::new(),
        render: |labs, csv| {
            let mut text = emit([sharing_analysis(labs.shared().config())], csv);
            if !csv {
                text.push_str(
                    "High false-sharing potential predicts that the §4.4 restructuring\n\
                     (the Padded layout) will pay off — compare Table 4's measured factors.\n",
                );
            }
            Ok(text)
        },
    },
    Exhibit {
        name: "hw-prefetch",
        cells: |base| {
            let strategies = [Strategy::NoPrefetch, Strategy::Pref];
            let mut cells = on(base, grid(&Workload::EXTENDED, &strategies, &[FIGURE_LATENCY]));
            let np = grid(&Workload::EXTENDED, &[Strategy::NoPrefetch], &[FIGURE_LATENCY]);
            for hw in hw_prefetch_configs() {
                cells.extend(on(&RunConfig { hw_prefetch: hw, ..*base }, np.clone()));
            }
            cells
        },
        render: |labs, csv| Ok(emit(hw_prefetch_head_to_head(labs), csv)),
    },
    Exhibit {
        name: "protocols",
        cells: |base| {
            let strategies = [Strategy::NoPrefetch, Strategy::Pref];
            let mut cells = on(base, grid(&Workload::ALL, &strategies, &[FIGURE_LATENCY]));
            for protocol in other_protocols() {
                let cfg = RunConfig { protocol, ..*base };
                cells.extend(on(&cfg, grid(&Workload::ALL, &strategies, &[FIGURE_LATENCY])));
            }
            cells
        },
        render: |labs, csv| Ok(emit(protocol_head_to_head(labs), csv)),
    },
];

/// The registered exhibit called `name`.
pub fn exhibit(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// Every cell of `exps`, on the lab configuration `cfg`.
fn on(cfg: &RunConfig, exps: Vec<Experiment>) -> Vec<(RunConfig, Experiment)> {
    exps.into_iter().map(|exp| (*cfg, exp)).collect()
}

/// The workload × strategy × latency grid, in that nesting order.
fn grid(workloads: &[Workload], strategies: &[Strategy], latencies: &[u64]) -> Vec<Experiment> {
    let mut cells = Vec::new();
    for &w in workloads {
        for &s in strategies {
            for &lat in latencies {
                cells.push(Experiment::paper(w, s, lat));
            }
        }
    }
    cells
}

/// The restructured cells Tables 4 and 5 read at `latencies`.
fn restructured(latencies: &[u64]) -> Vec<Experiment> {
    let restructurable: Vec<Workload> =
        Workload::ALL.into_iter().filter(|w| w.restructurable()).collect();
    grid(&restructurable, &RESTRUCTURED_STRATEGIES, latencies)
        .into_iter()
        .map(Experiment::restructured)
        .collect()
}

/// Renders tables the way `charlie experiments` prints them: each followed
/// by a blank line, or as CSV.
fn emit(tables: impl IntoIterator<Item = Table>, csv: bool) -> String {
    let render = |t: Table| if csv { t.to_csv() } else { format!("{t}\n") };
    tables.into_iter().map(render).collect()
}

/// The labs the exhibits render from: the shared lab of the driver's
/// machine, plus one private lab per other [`RunConfig`] a cell names
/// (another hardware prefetcher, protocol or cache geometry).
pub struct Labs {
    base: RunConfig,
    jobs: usize,
    labs: HashMap<RunConfig, Lab>,
}

impl Labs {
    /// Empty labs whose shared lab runs `base`, batching on `jobs` workers
    /// (0 = one per available core).
    pub fn new(base: RunConfig, jobs: usize) -> Labs {
        let labs = HashMap::from([(base, Lab::new(base))]);
        Labs { base, jobs: Lab::resolve_jobs(jobs), labs }
    }

    /// The shared lab.
    pub fn shared(&mut self) -> &mut Lab {
        self.lab(self.base)
    }

    /// The lab of `cfg`, created empty on first use.
    pub fn lab(&mut self, cfg: RunConfig) -> &mut Lab {
        self.labs.entry(cfg).or_insert_with(|| Lab::new(cfg))
    }

    /// Runs `cells` through one [`Lab::run_batch`] per distinct
    /// configuration, in order of first appearance. The shared lab's batch
    /// journals each completed cell to `journal`; private labs are not
    /// journaled.
    pub fn run(
        &mut self,
        cells: &[(RunConfig, Experiment)],
        mut journal: Option<&mut Journal>,
    ) -> Vec<BatchReport> {
        let mut configs: Vec<RunConfig> = Vec::new();
        for (cfg, _) in cells {
            if !configs.contains(cfg) {
                configs.push(*cfg);
            }
        }
        let (base, jobs) = (self.base, self.jobs);
        configs
            .into_iter()
            .map(|cfg| {
                let exps: Vec<Experiment> =
                    cells.iter().filter(|(c, _)| *c == cfg).map(|&(_, exp)| exp).collect();
                let lab = self.lab(cfg);
                match journal.as_deref_mut() {
                    Some(journal) if cfg == base => {
                        lab.run_batch_checkpointed(&exps, jobs, journal)
                    }
                    _ => lab.run_batch(&exps, jobs),
                }
            })
            .collect()
    }
}

/// Cells an exhibit simulated outside the labs that failed, one line each
/// naming the cell and its error.
#[derive(Debug)]
pub struct Failures(pub Vec<String>);

impl fmt::Display for Failures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} exhibit cell(s) failed:", self.0.len())?;
        for failure in &self.0 {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

/// Simulates `exp` on the lab machine `cfg` with one [`SimConfig`] knob
/// changed by `tweak`: how the ablations whose knob is neither an
/// [`Experiment`] axis nor a [`RunConfig`] field build their machine.
fn simulate_tweaked(
    cfg: &RunConfig,
    exp: Experiment,
    trace: PreparedTrace<'_>,
    tweak: impl FnOnce(&mut SimConfig),
) -> Result<SimReport, SimError> {
    let mut sim_cfg = lab::sim_config(cfg, exp);
    tweak(&mut sim_cfg);
    simulate(&sim_cfg, trace)
}

/// Applies `run` to every item on `jobs` workers, in input order; a failed
/// item is named by `label`.
fn sweep<T: Sync, U: Send>(
    items: &[T],
    jobs: usize,
    label: impl Fn(&T) -> String,
    run: impl Fn(&T) -> Result<U, SimError> + Sync,
) -> Result<Vec<U>, Failures> {
    let results = crate::parallel::map(items, jobs, |_, item| run(item));
    let mut failures = Vec::new();
    let mut done = Vec::new();
    for (item, result) in items.iter().zip(results) {
        match result {
            Ok(u) => done.push(u),
            Err(e) => failures.push(format!("{}: {e}", label(item))),
        }
    }
    if failures.is_empty() {
        Ok(done)
    } else {
        Err(Failures(failures))
    }
}

/// The lab machine's raw trace of `w` on the interleaved layout.
fn raw_trace(cfg: &RunConfig, w: Workload) -> Trace {
    generate(w, &lab::workload_config(cfg, Layout::Interleaved))
}

/// `base` with a `size_bytes`/`block_bytes`/`ways` cache.
fn with_geometry(base: &RunConfig, size_bytes: u64, block_bytes: u64, ways: u32) -> RunConfig {
    let geometry = CacheGeometry::new(size_bytes, block_bytes, ways).expect("valid geometry");
    RunConfig { geometry, ..*base }
}

// ---------------------------------------------------------------------------
// The paper's evaluation (§4)
// ---------------------------------------------------------------------------

/// Table 1: the workload suite. The paper lists data-set and shared-data
/// sizes and process counts; we report the measured equivalents of our
/// synthetic traces (footprint, shared footprint, references, processes).
pub fn table1(lab: &mut Lab) -> Table {
    let cfg = *lab.config();
    let mut t = Table::new(
        "Table 1: Workload used in experiments",
        vec!["Program", "Data Set", "Shared Data", "Refs/proc", "Processes"],
    );
    for w in Workload::ALL {
        let wcfg = WorkloadConfig {
            procs: cfg.procs,
            refs_per_proc: cfg.refs_per_proc,
            seed: cfg.seed,
            layout: Layout::Interleaved,
        };
        let trace = generate(w, &wcfg);
        let stats = TraceStats::gather(&trace, 32);
        let shared_kb =
            (stats.read_shared_lines + stats.write_shared_lines) as u64 * 32 / 1024;
        t.row(vec![
            w.name().to_owned(),
            format!("{} KB", stats.footprint_bytes() / 1024),
            format!("{} KB", shared_kb),
            format!("{}", cfg.refs_per_proc),
            format!("{}", cfg.procs),
        ]);
    }
    t
}

/// Figure 1: total, CPU and adjusted-CPU miss rates for the five workloads
/// under each prefetching strategy, at the 8-cycle data-transfer latency.
pub fn figure1(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 1: Total and CPU miss rates ({}-cycle data transfer)",
            FIGURE_LATENCY
        ),
        vec!["Workload", "Strategy", "Total MR", "CPU MR", "Adj CPU MR"],
    );
    for w in Workload::ALL {
        for s in Strategy::ALL {
            let r = &lab.run(Experiment::paper(w, s, FIGURE_LATENCY)).report;
            t.row(vec![
                w.name().to_owned(),
                s.name().to_owned(),
                pct(r.total_miss_rate()),
                pct(r.cpu_miss_rate()),
                pct(r.adjusted_cpu_miss_rate()),
            ]);
        }
    }
    t
}

/// Table 2: bus utilization for every workload × strategy at the
/// {4, 8, 16, 32}-cycle transfer latencies.
pub fn table2(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 2: Selected bus utilizations",
        vec!["Workload", "Strategy", "4 cycles", "8 cycles", "16 cycles", "32 cycles"],
    );
    for w in Workload::ALL {
        for s in Strategy::ALL {
            let mut cells = vec![w.name().to_owned(), s.name().to_owned()];
            for lat in BusConfig::TABLE2_SWEEP {
                let util = lab.run(Experiment::paper(w, s, lat)).report.bus_utilization();
                cells.push(format_rate(util.min(1.0)));
            }
            t.row(cells);
        }
    }
    t
}

/// Figure 2: execution time relative to NP as a function of the data-bus
/// transfer latency (4–32 cycles), one table per workload.
pub fn figure2(lab: &mut Lab) -> Vec<Table> {
    Workload::ALL.iter().map(|&w| figure2_for(lab, w)).collect()
}

/// One workload's Figure 2 panel as an ASCII chart (relative time vs.
/// transfer latency, one glyph per strategy).
pub fn figure2_chart(lab: &mut Lab, w: Workload) -> crate::AsciiChart {
    let mut chart = crate::AsciiChart::new(
        format!("{w}: execution time relative to NP vs data-transfer latency"),
        56,
        12,
    );
    for s in Strategy::PREFETCHING {
        let points: Vec<(f64, f64)> = BusConfig::PAPER_SWEEP
            .iter()
            .map(|&lat| (lat as f64, lab.relative_time(Experiment::paper(w, s, lat))))
            .collect();
        chart.series(s.name(), &points);
    }
    chart
}

/// One workload's Figure 2 panel.
pub fn figure2_for(lab: &mut Lab, w: Workload) -> Table {
    let mut t = Table::new(
        format!("Figure 2: execution time relative to NP — {w}"),
        vec!["Strategy", "4", "8", "16", "24", "32"],
    );
    for s in Strategy::PREFETCHING {
        let mut cells = vec![s.name().to_owned()];
        for lat in BusConfig::PAPER_SWEEP {
            let rel = lab.relative_time(Experiment::paper(w, s, lat));
            cells.push(format!("{rel:.3}"));
        }
        t.row(cells);
    }
    t
}

/// Figure 3: sources of CPU misses (per-category miss rates) for Topopt,
/// Pverify and Mp3d under every strategy, at the 8-cycle transfer latency.
pub fn figure3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        format!("Figure 3: Sources of CPU misses ({}-cycle data transfer)", FIGURE_LATENCY),
        vec![
            "Workload",
            "Strategy",
            "non-shr !pf",
            "non-shr pf",
            "inval !pf",
            "inval pf",
            "pf-in-prog",
            "CPU MR",
        ],
    );
    for w in FIGURE3_WORKLOADS {
        for s in Strategy::ALL {
            let r = &lab.run(Experiment::paper(w, s, FIGURE_LATENCY)).report;
            let d = r.demand_accesses().max(1) as f64;
            let m = r.miss;
            t.row(vec![
                w.name().to_owned(),
                s.name().to_owned(),
                pct(m.non_sharing_not_prefetched as f64 / d),
                pct(m.non_sharing_prefetched as f64 / d),
                pct(m.invalidation_not_prefetched as f64 / d),
                pct(m.invalidation_prefetched as f64 / d),
                pct(m.prefetch_in_progress as f64 / d),
                pct(r.cpu_miss_rate()),
            ]);
        }
    }
    t
}

/// Table 3: total invalidation and false-sharing miss rates per workload
/// (NP baseline, 8-cycle transfer).
pub fn table3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 3: Total Invalidation and False Sharing Miss Rates",
        vec!["Workload", "Total Inval MR", "Total FS MR", "FS share of inval"],
    );
    for w in Workload::ALL {
        let r = &lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report;
        let inval = r.invalidation_miss_rate();
        let fs = r.false_sharing_miss_rate();
        let share = if inval > 0.0 { fs / inval } else { 0.0 };
        t.row(vec![
            w.name().to_owned(),
            pct(inval),
            pct(fs),
            format!("{:.0}%", 100.0 * share),
        ]);
    }
    t
}

/// Table 4: miss rates for the restructured programs (Topopt and Pverify)
/// at the 8-cycle transfer latency.
pub fn table4(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 4: Miss rates for data transfer latency of 8 cycles, restructured programs",
        vec!["Workload", "Strategy", "CPU MR", "Total MR", "Total Inval MR", "Total FS MR"],
    );
    for w in Workload::ALL.into_iter().filter(|w| w.restructurable()) {
        for s in RESTRUCTURED_STRATEGIES {
            let exp = Experiment::paper(w, s, FIGURE_LATENCY).restructured();
            let r = &lab.run(exp).report;
            t.row(vec![
                format!("{w} (restr)"),
                s.name().to_owned(),
                pct(r.cpu_miss_rate()),
                pct(r.total_miss_rate()),
                pct(r.invalidation_miss_rate()),
                pct(r.false_sharing_miss_rate()),
            ]);
        }
    }
    t
}

/// Table 5: execution times of the restructured programs relative to the
/// restructured NP baseline, across transfer latencies.
pub fn table5(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 5: Relative execution times for restructured programs",
        vec!["Workload", "Strategy", "4 cycles", "8 cycles", "16 cycles", "32 cycles"],
    );
    for w in Workload::ALL.into_iter().filter(|w| w.restructurable()) {
        for s in RESTRUCTURED_STRATEGIES {
            let mut cells = vec![format!("{w} (restr)"), s.name().to_owned()];
            for lat in BusConfig::TABLE2_SWEEP {
                let rel = lab.relative_time(Experiment::paper(w, s, lat).restructured());
                cells.push(format!("{rel:.3}"));
            }
            t.row(cells);
        }
    }
    t
}

/// §4.2's processor-utilization observations: NP utilization per workload at
/// the fastest and slowest buses, plus the implied best-possible speedup
/// (1 / utilization).
pub fn processor_utilization(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Processor utilization (NP) and the prefetching headroom it implies",
        vec!["Workload", "util @4cy", "util @32cy", "max speedup @4cy", "max speedup @32cy"],
    );
    for w in Workload::ALL {
        let fast =
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, 4)).report.avg_processor_utilization();
        let slow = lab
            .run(Experiment::paper(w, Strategy::NoPrefetch, 32))
            .report
            .avg_processor_utilization();
        t.row(vec![
            w.name().to_owned(),
            format_rate(fast),
            format_rate(slow),
            format!("{:.1}", 1.0 / fast.max(1e-9)),
            format!("{:.1}", 1.0 / slow.max(1e-9)),
        ]);
    }
    t
}

/// The paper's exhibits in the order [`paper_grid`] prints them.
fn paper_tables(lab: &mut Lab) -> Vec<Table> {
    let mut tables = vec![table1(lab), figure1(lab), table2(lab)];
    tables.extend(figure2(lab));
    tables.extend([
        figure3(lab),
        table3(lab),
        table4(lab),
        table5(lab),
        processor_utilization(lab),
    ]);
    tables
}

/// The paper grid exactly as `experiments_output.txt` holds it: a header
/// naming the lab's machine, then the paper's exhibits from Table 1 to the
/// §4.2 utilizations, two blank lines apart. `charlie experiments all` and
/// `charlie submit --grid paper` (daemon or fleet) all print this.
pub fn paper_grid(lab: &mut Lab) -> String {
    let c = *lab.config();
    let tables: Vec<String> = paper_tables(lab).iter().map(|t| format!("{t}\n")).collect();
    format!(
        "== all experiments — {} procs, {} refs/proc, seed {:#x} ==\n\n{}",
        c.procs,
        c.refs_per_proc,
        c.seed,
        tables.join("\n")
    )
}

// ---------------------------------------------------------------------------
// Sensitivity (§3.3, §4.3) and extensions
// ---------------------------------------------------------------------------

/// The paper's published NP anchors per workload: Table 2's bus
/// utilizations at 4/8/16/32 cycles and §4.2's processor utilizations on
/// the fastest and slowest buses.
const ANCHORS: [(Workload, [f64; 4], (f64, f64)); 5] = [
    (Workload::Topopt, [0.18, 0.27, 0.45, 0.76], (0.65, 0.59)),
    (Workload::Mp3d, [0.48, 0.65, 0.90, 1.00], (0.39, 0.22)),
    (Workload::LocusRoute, [0.21, 0.33, 0.56, 0.89], (0.64, 0.54)),
    (Workload::Pverify, [0.42, 0.63, 0.92, 1.00], (0.41, 0.18)),
    (Workload::Water, [0.10, 0.14, 0.22, 0.38], (0.82, 0.81)),
];

/// Calibration report: each workload's NP baseline next to the paper's
/// published anchors, so generator parameters can be tuned.
fn anchors(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "NP calibration vs paper anchors (miss rates: CPU at 4 cycles, the rest at 8)",
        vec![
            "Workload",
            "bus util (ours)",
            "bus util (paper)",
            "proc util (ours)",
            "proc util (paper)",
            "CPU MR",
            "inval MR",
            "FS MR",
            "non-shr MR",
        ],
    );
    let slash = |v: &[f64]| v.iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>().join("/");
    for (w, bus_paper, (pu_fast, pu_slow)) in ANCHORS {
        let mut np = |lat| lab.run(Experiment::paper(w, Strategy::NoPrefetch, lat)).report.clone();
        let ours: Vec<f64> =
            BusConfig::TABLE2_SWEEP.iter().map(|&lat| np(lat).bus_utilization()).collect();
        let (fast, at8, slow) = (np(4), np(8), np(32));
        t.row(vec![
            w.name().to_owned(),
            slash(&ours),
            slash(&bus_paper),
            slash(&[fast.avg_processor_utilization(), slow.avg_processor_utilization()]),
            format!("{pu_fast:.2}/{pu_slow:.2}"),
            pct(fast.cpu_miss_rate()),
            pct(at8.invalidation_miss_rate()),
            pct(at8.false_sharing_miss_rate()),
            pct(at8.non_sharing_miss_rate()),
        ]);
    }
    t
}

/// Cache sizes (KB) of the §3.3 cache-size sweep.
const CACHE_KB: [u64; 4] = [16, 32, 64, 128];
/// Workloads of the cache-size sweep.
const CACHE_SWEEP_WORKLOADS: [Workload; 3] = [Workload::Pverify, Workload::Topopt, Workload::Mp3d];
/// Block sizes (bytes) of the §3.3 block-size sweep.
const BLOCK_BYTES: [u64; 3] = [16, 32, 64];
/// Workloads of the block-size sweep.
const BLOCK_SWEEP_WORKLOADS: [Workload; 2] = [Workload::Pverify, Workload::Topopt];

/// §3.3: "with larger caches, non-sharing misses were reduced, making
/// invalidation miss effects much more dominant" — the NP miss
/// decomposition at 16–128 KB, one lab per cache size.
fn cache_size_sweep(labs: &mut Labs) -> Table {
    let mut t = Table::new(
        "Cache-size sweep (NP, 8-cycle transfer): larger caches leave invalidation misses dominant",
        vec!["Workload", "Cache", "non-shr MR", "inval MR", "inval share"],
    );
    let base = labs.base;
    for w in CACHE_SWEEP_WORKLOADS {
        for kb in CACHE_KB {
            let lab = labs.lab(with_geometry(&base, kb * 1024, 32, 1));
            let r = &lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report;
            let inval = r.invalidation_miss_rate();
            let share = if r.cpu_miss_rate() > 0.0 { inval / r.cpu_miss_rate() } else { 0.0 };
            t.row(vec![
                w.name().to_owned(),
                format!("{kb} KB"),
                pct(r.non_sharing_miss_rate()),
                pct(inval),
                format!("{:.0}%", 100.0 * share),
            ]);
        }
    }
    t
}

/// §3.3: "larger block sizes increased false sharing and thus the total
/// number of invalidation misses" — one lab per block size.
fn block_size_sweep(labs: &mut Labs) -> Table {
    let mut t = Table::new(
        "Block-size sweep (NP, 8-cycle transfer): larger blocks increase false sharing",
        vec!["Workload", "Block", "inval MR", "FS MR", "FS share"],
    );
    let base = labs.base;
    for w in BLOCK_SWEEP_WORKLOADS {
        for block in BLOCK_BYTES {
            let lab = labs.lab(with_geometry(&base, 32 * 1024, block, 1));
            let r = &lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report;
            let inval = r.invalidation_miss_rate();
            let fs = r.false_sharing_miss_rate();
            t.row(vec![
                w.name().to_owned(),
                format!("{block} B"),
                pct(inval),
                pct(fs),
                format!("{:.0}%", 100.0 * if inval > 0.0 { fs / inval } else { 0.0 }),
            ]);
        }
    }
    t
}

/// Prefetch distances (cycles) of the §4.3 distance ablation.
const DISTANCES: [u64; 6] = [25, 50, 100, 200, 400, 800];

/// §4.3: prefetches should arrive "exactly on time". Short distances leave
/// prefetches in progress; long ones trade them for conflict misses. The
/// distance is a planning knob, so the cells simulate here.
fn ablation_distance(labs: &mut Labs) -> Result<Table, Failures> {
    let mut t = Table::new(
        "Prefetch-distance ablation (PREF discipline, 8-cycle transfer)",
        vec!["Workload", "Distance", "rel. time", "in-progress MR", "non-shr MR", "wasted pf"],
    );
    let (cfg, jobs) = (labs.base, labs.jobs);
    for w in [Workload::Topopt, Workload::Mp3d] {
        let exp = Experiment::paper(w, Strategy::Pref, 8);
        let np = labs.shared().run(exp.baseline()).report.cycles as f64;
        let raw = raw_trace(&cfg, w);
        let marks = TraceMarks::new(&raw, cfg.geometry);
        let reports = sweep(
            &DISTANCES,
            jobs,
            |distance| format!("{exp} at distance {distance}"),
            |&distance| {
                let plan = marks.plan_with_distance(&raw, exp.strategy, distance);
                simulate_tweaked(&cfg, exp, PreparedTrace::new(&raw, &plan), |_| {})
            },
        )?;
        for (&distance, r) in DISTANCES.iter().zip(&reports) {
            let d = r.demand_accesses().max(1) as f64;
            t.row(vec![
                w.name().to_owned(),
                format!("{distance}"),
                format!("{:.3}", r.cycles as f64 / np),
                pct(r.miss.prefetch_in_progress as f64 / d),
                pct(r.non_sharing_miss_rate()),
                format!("{}", r.prefetch.wasted_evicted + r.prefetch.wasted_invalidated),
            ]);
        }
    }
    Ok(t)
}

/// Associativities of the §4.3 conflict-remedy ablation.
const WAYS: [u32; 3] = [1, 2, 4];
/// Victim-buffer depths of the §4.3 conflict-remedy ablation.
const VICTIM_ENTRIES: [usize; 4] = [0, 2, 4, 8];

/// §4.3: conflicts between prefetched data and the working set "would
/// likely be reduced by a victim cache or a set-associative cache". Topopt
/// with 1-, 2- and 4-way caches (one lab per geometry), and direct-mapped
/// with a victim buffer (a machine knob, so those cells simulate here).
fn ablation_cache(labs: &mut Labs) -> Result<Vec<Table>, Failures> {
    let topopt = |s, lat| Experiment::paper(Workload::Topopt, s, lat);
    let (cfg, jobs) = (labs.base, labs.jobs);
    let mut ways_table = Table::new(
        "Associativity ablation (Topopt): prefetch conflicts shrink with ways",
        vec!["Ways", "NP CPU MR", "PREF rel. time @8", "PREF rel. time @32", "wasted pf @8"],
    );
    for ways in WAYS {
        let lab = labs.lab(with_geometry(&cfg, 32 * 1024, 32, ways));
        let np_mr = lab.run(topopt(Strategy::NoPrefetch, 8)).report.cpu_miss_rate();
        let rel8 = lab.relative_time(topopt(Strategy::Pref, 8));
        let rel32 = lab.relative_time(topopt(Strategy::Pref, 32));
        let wasted = lab.run(topopt(Strategy::Pref, 8)).report.prefetch.wasted_evicted;
        ways_table.row(vec![
            format!("{ways}"),
            pct(np_mr),
            format!("{rel8:.3}"),
            format!("{rel32:.3}"),
            format!("{wasted}"),
        ]);
    }

    let mut victim_table = Table::new(
        "Victim-buffer ablation (Topopt, direct-mapped, PREF, 8-cycle transfer)",
        vec!["Victim entries", "rel. time", "victim hits", "CPU MR", "wasted pf"],
    );
    let pref = topopt(Strategy::Pref, 8);
    let raw = raw_trace(&cfg, Workload::Topopt);
    let plan = TraceMarks::new(&raw, cfg.geometry).plan(&raw, pref.strategy);
    let prepared = PreparedTrace::new(&raw, &plan);
    let rows = sweep(
        &VICTIM_ENTRIES,
        jobs,
        |entries| format!("{pref} with {entries} victim entries"),
        |&entries| {
            let victim = |c: &mut SimConfig| c.victim_entries = entries;
            let np = simulate_tweaked(&cfg, pref.baseline(), PreparedTrace::from(&raw), victim)?;
            Ok((np, simulate_tweaked(&cfg, pref, prepared, victim)?))
        },
    )?;
    for (&entries, (np, r)) in VICTIM_ENTRIES.iter().zip(&rows) {
        victim_table.row(vec![
            format!("{entries}"),
            format!("{:.3}", r.cycles as f64 / np.cycles as f64),
            format!("{}", r.victim_hits),
            pct(r.cpu_miss_rate()),
            format!("{}", r.prefetch.wasted_evicted),
        ]);
    }
    Ok(vec![ways_table, victim_table])
}

/// Transfer latencies of the arbitration ablation.
const PRIORITY_LATENCIES: [u64; 3] = [8, 16, 32];

/// §3.3: the bus "favors blocking loads over prefetches". Letting
/// prefetches compete at demand priority shows what that is worth near
/// saturation; the flat-priority cells simulate here.
fn ablation_priority(labs: &mut Labs) -> Result<Table, Failures> {
    let mut t = Table::new(
        "Arbitration ablation (PWS discipline): demand-over-prefetch priority vs flat priority",
        vec!["Workload", "Transfer", "rel. time (paper arb)", "rel. time (flat arb)"],
    );
    let (cfg, jobs) = (labs.base, labs.jobs);
    for w in [Workload::Mp3d, Workload::Pverify] {
        let raw = raw_trace(&cfg, w);
        let plan = TraceMarks::new(&raw, cfg.geometry).plan(&raw, Strategy::Pws);
        let prepared = PreparedTrace::new(&raw, &plan);
        let pws = |lat| Experiment::paper(w, Strategy::Pws, lat);
        let flat = sweep(
            &PRIORITY_LATENCIES,
            jobs,
            |&lat| format!("{} with flat priority", pws(lat)),
            |&lat| {
                simulate_tweaked(&cfg, pws(lat), prepared, |c| c.prefetch_demand_priority = true)
            },
        )?;
        for (&lat, flat) in PRIORITY_LATENCIES.iter().zip(&flat) {
            let lab = labs.shared();
            let np = lab.run(pws(lat).baseline()).report.cycles as f64;
            t.row(vec![
                w.name().to_owned(),
                format!("{lat} cycles"),
                format!("{:.3}", lab.relative_time(pws(lat))),
                format!("{:.3}", flat.cycles as f64 / np),
            ]);
        }
    }
    Ok(t)
}

/// Prefetch-buffer depths of the buffer ablation.
const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// §3.3's 16-deep prefetch buffer "almost always" kept processors from
/// stalling on a full buffer; shallower ones throttle PWS. The depth is a
/// machine knob, so the cells simulate here.
fn ablation_buffer(labs: &mut Labs) -> Result<Table, Failures> {
    let mut t = Table::new(
        "Prefetch-buffer-depth ablation (Mp3d, PWS, 8-cycle transfer)",
        vec!["Depth", "rel. time", "buffer stalls", "prefetch fills"],
    );
    let (cfg, jobs) = (labs.base, labs.jobs);
    let exp = Experiment::paper(Workload::Mp3d, Strategy::Pws, 8);
    let np = labs.shared().run(exp.baseline()).report.cycles as f64;
    let raw = raw_trace(&cfg, exp.workload);
    let plan = TraceMarks::new(&raw, cfg.geometry).plan(&raw, exp.strategy);
    let prepared = PreparedTrace::new(&raw, &plan);
    let reports = sweep(
        &DEPTHS,
        jobs,
        |depth| format!("{exp} with a {depth}-deep prefetch buffer"),
        |&depth| simulate_tweaked(&cfg, exp, prepared, |c| c.prefetch_buffer_depth = depth),
    )?;
    for (&depth, r) in DEPTHS.iter().zip(&reports) {
        t.row(vec![
            format!("{depth}"),
            format!("{:.3}", r.cycles as f64 / np),
            format!("{}", r.prefetch.buffer_stalls),
            format!("{}", r.prefetch.fills),
        ]);
    }
    Ok(t)
}

/// The strategies (and NP baseline) the EXCL-RMW extension compares.
const RMW_STRATEGIES: [Strategy; 4] =
    [Strategy::NoPrefetch, Strategy::Pref, Strategy::Excl, Strategy::ExclRmw];

/// §4.3's unexplored suggestion: prefetch read-modify-write idioms
/// exclusive. EXCL-RMW should save upgrade transactions relative to PREF
/// and plain EXCL at no CPU-miss cost.
fn excl_rmw(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Exclusive prefetching of read-modify-write idioms",
        vec!["Workload", "Strategy", "rel. time", "upgrades", "inval bus ops", "CPU MR"],
    );
    for w in FIGURE3_WORKLOADS {
        for s in [Strategy::Pref, Strategy::Excl, Strategy::ExclRmw] {
            let rel = lab.relative_time(Experiment::paper(w, s, 8));
            let r = &lab.run(Experiment::paper(w, s, 8)).report;
            t.row(vec![
                w.name().to_owned(),
                s.name().to_owned(),
                format!("{rel:.3}"),
                format!("{}", r.bus.upgrades),
                format!("{}", r.bus.invalidating_ops()),
                pct(r.cpu_miss_rate()),
            ]);
        }
    }
    t
}

/// §4.2: prefetching raises "the actual latency seen by CPUs" through bus
/// contention. The demand-fill latency distribution (unloaded: 100 cycles)
/// for NP and PWS across the latency sweep.
fn latency_profile(lab: &mut Lab) -> Table {
    let mut headers: Vec<String> =
        ["Workload", "Transfer", "Strategy", "mean"].map(String::from).into();
    let mut low = 0;
    for b in LATENCY_BUCKET_BOUNDS {
        headers.push(format!("{}..{}", low + 1, b));
        low = b;
    }
    headers.push(format!(">{low}"));
    let mut t = Table::new("Demand-fill latency distribution (cycles; unloaded = 100)", headers);
    for w in [Workload::Mp3d, Workload::Water] {
        for lat in [4u64, 16, 32] {
            for s in [Strategy::NoPrefetch, Strategy::Pws] {
                let r = &lab.run(Experiment::paper(w, s, lat)).report;
                let total = r.fill_latency.count().max(1) as f64;
                let mut cells = vec![
                    w.name().to_owned(),
                    format!("{lat}"),
                    s.name().to_owned(),
                    format!("{:.0}", r.fill_latency.mean()),
                ];
                for &count in r.fill_latency.histogram() {
                    cells.push(format!("{:.0}%", 100.0 * count as f64 / total));
                }
                t.row(cells);
            }
        }
    }
    t
}

/// Off-line word-granularity sharing analysis of the traces (no
/// simulation): the share of write-shared lines whose sharing is purely
/// false predicts Table 3's false-sharing misses, and collapses to zero
/// under the restructured layout (§4.4).
fn sharing_analysis(cfg: &RunConfig) -> Table {
    let mut t = Table::new(
        "Word-granularity sharing analysis (static, no simulation)",
        vec![
            "Workload",
            "Layout",
            "write-shared lines",
            "purely false",
            "truly shared",
            "FS potential",
        ],
    );
    for w in Workload::ALL {
        for layout in [Layout::Interleaved, Layout::Padded] {
            let trace = generate(w, &lab::workload_config(cfg, layout));
            let stats = TraceStats::gather(&trace, 32);
            let words = WordSharingMap::analyze(&trace, 32);
            let (fs, ts) = words.word_class_counts();
            t.row(vec![
                w.name().to_owned(),
                format!("{layout:?}"),
                format!("{}", stats.write_shared_lines),
                format!("{fs}"),
                format!("{ts}"),
                format!("{:.0}%", 100.0 * words.false_sharing_potential()),
            ]);
        }
    }
    t
}

/// Post-paper exhibit: the on-line hardware prefetchers (per-PC stride,
/// SMS-style spatial patterns, Markov correlation — see DESIGN.md §15)
/// head-to-head against the paper's oracle PREF strategy, on the five paper
/// workloads plus the pointer-chase stress workload.
///
/// The software strategies rewrite the trace off-line with perfect
/// knowledge; the hardware prefetchers observe the demand stream on-line and
/// must earn their fills. Returns two tables: execution time relative to the
/// NP baseline, and the hardware training/accuracy counters behind it.
///
/// Hardware runs use one private lab per prefetcher configuration —
/// `hw_prefetch` is a lab-wide knob, not an [`Experiment`] axis, so the
/// shared lab's paper grid stays exactly the paper's.
pub fn hw_prefetch_head_to_head(labs: &mut Labs) -> Vec<Table> {
    let base = labs.base;
    let mut time = Table::new(
        format!(
            "Hardware vs oracle prefetching: time relative to NP ({FIGURE_LATENCY}-cycle transfer)"
        ),
        vec!["Workload", "PREF (oracle)", "HW-STRIDE", "HW-SMS", "HW-MARKOV"],
    );
    let mut counters = Table::new(
        "Hardware prefetcher training and accuracy",
        vec![
            "Workload", "Prefetcher", "Trained", "Issued", "Useful", "Late", "Useless", "Accuracy",
        ],
    );
    for w in Workload::EXTENDED {
        let lab = labs.shared();
        let np =
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report.cycles;
        let pref = lab.run(Experiment::paper(w, Strategy::Pref, FIGURE_LATENCY)).report.cycles;
        let mut cells =
            vec![w.name().to_owned(), format!("{:.3}", pref as f64 / np.max(1) as f64)];
        for hw in hw_prefetch_configs() {
            let hw_lab = labs.lab(RunConfig { hw_prefetch: hw, ..base });
            let r = &hw_lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report;
            cells.push(format!("{:.3}", r.cycles as f64 / np.max(1) as f64));
            let h = r.hw_prefetch;
            counters.row(vec![
                w.name().to_owned(),
                hw.kind.label().to_owned(),
                h.trained.to_string(),
                h.issued.to_string(),
                h.useful.to_string(),
                h.late.to_string(),
                h.useless.to_string(),
                pct(h.accuracy()),
            ]);
        }
        time.row(cells);
    }
    vec![time, counters]
}

/// Every protocol but the paper's Illinois write-invalidate.
fn other_protocols() -> impl Iterator<Item = Protocol> {
    Protocol::ALL.into_iter().filter(|&p| p != Protocol::WriteInvalidate)
}

/// Post-paper exhibit: does prefetching help or hurt differently under
/// update-based coherence? The paper's grid is all Illinois write-invalidate,
/// where invalidation misses are prefetching's fundamental limit (§4.2); this
/// reruns its NP and PREF cells under Firefly- and Dragon-style write-update
/// (no invalidation misses exist at all — the cost moves onto word-broadcast
/// bus traffic) and MOESI (dirty cache-to-cache supply without the reflective
/// write-back), across all five paper workloads.
///
/// Returns two tables: execution time relative to the Illinois NP baseline,
/// and the coherence traffic (invalidation misses, upgrades, word updates,
/// write-backs, bus utilization) behind it.
///
/// Non-Illinois runs use one private lab per protocol — like
/// `hw_prefetch`, `protocol` is a lab-wide knob, not an [`Experiment`] axis,
/// so the shared lab's paper grid stays exactly the paper's.
pub fn protocol_head_to_head(labs: &mut Labs) -> Vec<Table> {
    let base = labs.base;
    let mut time = Table::new(
        format!(
            "Coherence protocols: time relative to Illinois NP ({FIGURE_LATENCY}-cycle transfer)"
        ),
        vec![
            "Workload",
            "ILLINOIS NP",
            "ILLINOIS PREF",
            "FIREFLY NP",
            "FIREFLY PREF",
            "DRAGON NP",
            "DRAGON PREF",
            "MOESI NP",
            "MOESI PREF",
        ],
    );
    let mut traffic = Table::new(
        "Coherence traffic under prefetching (PREF)",
        vec![
            "Workload", "Protocol", "Inval misses", "Upgrades", "Updates", "Writebacks", "Bus util",
        ],
    );
    for w in Workload::ALL {
        let np = labs
            .shared()
            .run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY))
            .report
            .cycles
            .max(1);
        let mut cells = vec![w.name().to_owned()];
        let protocols = std::iter::once(Protocol::WriteInvalidate).chain(other_protocols());
        for proto in protocols {
            let lab = if proto == Protocol::WriteInvalidate {
                labs.shared()
            } else {
                labs.lab(RunConfig { protocol: proto, ..base })
            };
            for s in [Strategy::NoPrefetch, Strategy::Pref] {
                let r = &lab.run(Experiment::paper(w, s, FIGURE_LATENCY)).report;
                cells.push(format!("{:.3}", r.cycles as f64 / np as f64));
                if s == Strategy::Pref {
                    let inval = r.miss.invalidation_not_prefetched + r.miss.invalidation_prefetched;
                    traffic.row(vec![
                        w.name().to_owned(),
                        proto.key_name().to_owned(),
                        inval.to_string(),
                        r.bus.upgrades.to_string(),
                        r.bus.updates.to_string(),
                        r.bus.writebacks.to_string(),
                        format_rate(r.bus_utilization().min(1.0)),
                    ]);
                }
            }
        }
        time.row(cells);
    }
    vec![time, traffic]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::RunConfig;

    fn tiny_lab() -> Lab {
        Lab::new(RunConfig { procs: 4, refs_per_proc: 1_500, seed: 3, ..RunConfig::default() })
    }

    #[test]
    fn table1_has_five_rows() {
        let t = table1(&mut tiny_lab());
        assert_eq!(t.num_rows(), 5);
        assert!(t.to_string().contains("Water"));
    }

    #[test]
    fn figure1_covers_grid() {
        let t = figure1(&mut tiny_lab());
        assert_eq!(t.num_rows(), 25); // 5 workloads × 5 strategies
    }

    #[test]
    fn table2_covers_grid() {
        let mut lab = Lab::new(RunConfig { procs: 2, refs_per_proc: 800, seed: 3, ..RunConfig::default() });
        let t = table2(&mut lab);
        assert_eq!(t.num_rows(), 25);
        // every utilization cell parses back as a rate ≤ 1
        for r in 0..t.num_rows() {
            for c in 2..6 {
                let cell = t.cell(r, c).unwrap();
                let v: f64 = format!("0{cell}").parse().unwrap();
                assert!((0.0..=1.0).contains(&v), "{cell}");
            }
        }
    }

    #[test]
    fn figure2_one_panel_per_workload() {
        let mut lab = Lab::new(RunConfig { procs: 2, refs_per_proc: 600, seed: 3, ..RunConfig::default() });
        let panels = figure2(&mut lab);
        assert_eq!(panels.len(), 5);
        assert_eq!(panels[0].num_rows(), 4); // PREF/EXCL/LPD/PWS
    }

    #[test]
    fn figure3_covers_three_workloads() {
        let t = figure3(&mut tiny_lab());
        assert_eq!(t.num_rows(), 15);
    }

    #[test]
    fn table3_reports_all_workloads() {
        let t = table3(&mut tiny_lab());
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn tables_4_and_5_cover_restructured_programs() {
        let mut lab = Lab::new(RunConfig { procs: 2, refs_per_proc: 600, seed: 3, ..RunConfig::default() });
        assert_eq!(table4(&mut lab).num_rows(), 6); // 2 workloads × 3 strategies
        assert_eq!(table5(&mut lab).num_rows(), 6);
    }

    #[test]
    fn processor_utilization_sane() {
        let t = processor_utilization(&mut tiny_lab());
        assert_eq!(t.num_rows(), 5);
    }

    /// Labs over a tiny machine with every cell `names` read batched.
    fn batched(base: RunConfig, names: &[&str]) -> Labs {
        let mut labs = Labs::new(base, 2);
        let cells: Vec<_> =
            names.iter().flat_map(|n| (exhibit(n).expect("registered").cells)(&base)).collect();
        for report in labs.run(&cells, None) {
            assert!(report.is_complete(), "{:?}", report.failure_summary());
        }
        labs
    }

    fn tiny_cfg() -> RunConfig {
        RunConfig { procs: 2, refs_per_proc: 800, seed: 3, ..RunConfig::default() }
    }

    #[test]
    fn hw_head_to_head_covers_extended_workloads() {
        let mut labs = batched(tiny_cfg(), &["hw-prefetch"]);
        let tables = hw_prefetch_head_to_head(&mut labs);
        assert_eq!(tables.len(), 2);
        let (time, counters) = (&tables[0], &tables[1]);
        assert_eq!(time.num_rows(), Workload::EXTENDED.len());
        assert_eq!(counters.num_rows(), Workload::EXTENDED.len() * 3);
        let rendered = counters.to_string();
        for label in ["HW-STRIDE", "HW-SMS", "HW-MARKOV"] {
            assert!(rendered.contains(label), "{label} missing");
        }
        assert!(time.to_string().contains("PointerChase"));
        // The hardware runs actually prefetched: some configuration issued
        // and some fills were useful somewhere in the grid.
        let mut issued = 0u64;
        let mut useful = 0u64;
        for r in 0..counters.num_rows() {
            issued += counters.cell(r, 3).unwrap().parse::<u64>().unwrap();
            useful += counters.cell(r, 4).unwrap().parse::<u64>().unwrap();
        }
        assert!(issued > 0, "no hardware prefetches issued");
        assert!(useful > 0, "no hardware prefetch was useful");
    }

    #[test]
    fn protocol_head_to_head_covers_all_workloads_and_protocols() {
        let mut labs = batched(tiny_cfg(), &["protocols"]);
        let tables = protocol_head_to_head(&mut labs);
        assert_eq!(tables.len(), 2);
        let (time, traffic) = (&tables[0], &tables[1]);
        assert_eq!(time.num_rows(), Workload::ALL.len());
        assert_eq!(traffic.num_rows(), Workload::ALL.len() * Protocol::ALL.len());
        let rendered = traffic.to_string();
        for name in ["illinois", "firefly", "dragon", "moesi"] {
            assert!(rendered.contains(name), "{name} missing from traffic table");
        }
        // The update-based protocols actually broadcast somewhere in the
        // grid, and the invalidation protocols never do.
        let mut updates_by_proto = std::collections::HashMap::new();
        for r in 0..traffic.num_rows() {
            let proto = traffic.cell(r, 1).unwrap().to_owned();
            let updates: u64 = traffic.cell(r, 4).unwrap().parse().unwrap();
            *updates_by_proto.entry(proto).or_insert(0u64) += updates;
        }
        assert!(updates_by_proto["firefly"] > 0, "Firefly never broadcast");
        assert!(updates_by_proto["dragon"] > 0, "Dragon never broadcast");
        assert_eq!(updates_by_proto["illinois"], 0);
        assert_eq!(updates_by_proto["moesi"], 0);
        let cells = (exhibit("protocols").unwrap().cells)(&tiny_cfg());
        assert_eq!(cells.len(), Workload::ALL.len() * 2 * Protocol::ALL.len());
    }

    #[test]
    fn hw_prefetch_grid_is_disjoint_from_paper_grid_cells() {
        let base = tiny_cfg();
        let cells = (exhibit("hw-prefetch").unwrap().cells)(&base);
        let shared = cells.iter().filter(|(cfg, _)| *cfg == base).count();
        assert_eq!(shared, Workload::EXTENDED.len() * 2);
        assert_eq!(cells.len() - shared, Workload::EXTENDED.len() * 3);
        let all: Vec<Experiment> =
            (exhibit("all").unwrap().cells)(&base).into_iter().map(|(_, exp)| exp).collect();
        assert_eq!(all, full_grid());
        assert!(
            !full_grid().iter().any(|e| e.workload == Workload::PointerChase),
            "paper grid must stay 5 workloads"
        );
    }

    /// Every registered exhibit renders from its declared cells alone (the
    /// labs simulate nothing serially while rendering), with the expected
    /// number of rows: its CSV holds one header line per table plus one
    /// line per row.
    #[test]
    fn every_exhibit_renders_its_rows_from_its_cells() {
        let expected: [(&str, usize, usize); 22] = [
            // (name, tables, rows)
            ("table1", 1, 5),
            ("figure1", 1, 25),
            ("table2", 1, 25),
            ("figure2", 5, 20),
            ("figure3", 1, 15),
            ("table3", 1, 5),
            ("table4", 1, 6),
            ("table5", 1, 6),
            ("proc-util", 1, 5),
            ("all", 13, 112),
            ("anchors", 1, 5),
            ("cache-size", 1, 12),
            ("block-size", 1, 6),
            ("ablation-distance", 1, 12),
            ("ablation-cache", 2, 7),
            ("ablation-priority", 1, 6),
            ("ablation-buffer", 1, 6),
            ("excl-rmw", 1, 9),
            ("latency-profile", 1, 12),
            ("sharing", 1, 10),
            ("hw-prefetch", 2, 24),
            ("protocols", 2, 25),
        ];
        let names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
        assert_eq!(names, expected.map(|(name, _, _)| name));
        let base = RunConfig { refs_per_proc: 600, ..tiny_cfg() };
        for (name, tables, rows) in expected {
            let mut labs = batched(base, &[name]);
            let misses: Vec<u64> = labs.labs.values().map(|l| l.stats().memo_misses).collect();
            let csv = (exhibit(name).unwrap().render)(&mut labs, true).expect("renders");
            assert_eq!(csv.lines().count(), tables + rows, "{name}:\n{csv}");
            let after: Vec<u64> = labs.labs.values().map(|l| l.stats().memo_misses).collect();
            assert_eq!(misses, after, "{name} simulated a cell it did not declare");
        }
    }

    /// `protocols` and `hw-prefetch` run their private labs' cells through
    /// `Lab::run_batch`, so `--jobs` workers share them: every simulation
    /// in every lab was a batch execution.
    #[test]
    fn private_lab_cells_run_in_batches() {
        for name in ["protocols", "hw-prefetch"] {
            let mut labs = batched(tiny_cfg(), &[name]);
            (exhibit(name).unwrap().render)(&mut labs, false).expect("renders");
            assert!(labs.labs.len() >= 4, "{name} has private labs");
            for lab in labs.labs.values() {
                let stats = lab.stats();
                assert_eq!(stats.batches, 1, "{name}");
                assert!(stats.batch_executed > 0, "{name}");
                assert_eq!(stats.memo_misses, stats.batch_executed, "{name}: a serial run");
            }
        }
    }

    /// The ablations simulate on the lab's machine: under a hardware
    /// prefetcher, the associativity table's direct-mapped row (lab cells)
    /// and the victim table's no-victim row (simulated here) describe the
    /// same machine, so the same PREF run.
    #[test]
    fn ablation_cache_tables_share_the_lab_machine() {
        // An SMS prefetcher changes this cell at this size (a stride one
        // needs longer traces to), so a machine without it shows.
        let sms = HwPrefetchConfig::sms(2);
        let base = RunConfig { hw_prefetch: sms, refs_per_proc: 2_000, ..tiny_cfg() };
        let mut labs = batched(base, &["ablation-cache"]);
        let tables = ablation_cache(&mut labs).expect("simulates");
        let (ways, victim) = (&tables[0], &tables[1]);
        assert_eq!((ways.cell(0, 0), victim.cell(0, 0)), (Some("1"), Some("0")));
        assert_eq!(ways.cell(0, 2), victim.cell(0, 1), "PREF rel. time @8");
        assert_eq!(ways.cell(0, 4), victim.cell(0, 4), "wasted prefetches");
    }

    #[test]
    fn paper_grid_prints_the_header_and_every_paper_table() {
        let mut lab = Lab::new(RunConfig { refs_per_proc: 600, ..tiny_cfg() });
        lab.prefetch_all(2);
        let text = paper_grid(&mut lab);
        let header = "== all experiments — 2 procs, 600 refs/proc, seed 0x3 ==\n\nTable 1";
        assert!(text.starts_with(header), "{text}");
        assert!(text.ends_with("\n\n") && !text.ends_with("\n\n\n"));
        assert_eq!(text.matches("\n\n\n").count(), paper_tables(&mut lab).len() - 1);
    }
}
