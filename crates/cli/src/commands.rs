//! The CLI subcommands.

use crate::args::{Args, ArgsError};
use crate::json::{report_json, JsonObject};
use charlie::bus::BusConfig;
use charlie::cache::CacheGeometry;
use charlie::prefetch::{HwPrefetchConfig, PrefetchPlan, PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{
    simulate_observed, Observability, Protocol, SampleConfig, SimConfig, TraceCategories,
    TraceEmitter,
};
use charlie::chaos::{self, FaultKind, FaultPlan};
use charlie::timeline::{saturation_summary, timeline_csv, timeline_json};
use charlie::trace::{io as trace_io, Trace};
use charlie::workloads::{generate, Layout, Workload, WorkloadConfig};
use charlie::{
    experiments as exhibits, Experiment, Lab, ObserveSpec, RunConfig, SamplingConfig, SamplingMode,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

fn parse_workload(name: &str) -> Result<Workload, ArgsError> {
    Workload::EXTENDED
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| ArgsError(format!("unknown workload {name:?}")))
}

fn parse_strategy(name: &str) -> Result<Strategy, ArgsError> {
    Strategy::EXTENDED
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ArgsError(format!(
                "unknown strategy {name:?} (np, pref, excl, lpd, pws, excl-rmw)"
            ))
        })
}

fn parse_layout(name: &str) -> Result<Layout, ArgsError> {
    match name.to_ascii_lowercase().as_str() {
        "interleaved" | "original" => Ok(Layout::Interleaved),
        "padded" | "restructured" => Ok(Layout::Padded),
        other => Err(ArgsError(format!("unknown layout {other:?} (interleaved, padded)"))),
    }
}

fn workload_config(args: &Args) -> Result<(WorkloadConfig, Workload), ArgsError> {
    let workload = parse_workload(args.get("workload").unwrap_or("mp3d"))?;
    let cfg = WorkloadConfig {
        procs: args.get_or("procs", 8usize)?,
        refs_per_proc: args.get_or("refs", 160_000usize)?,
        seed: args.get_or("seed", 0xC0FFEEu64)?,
        layout: parse_layout(args.get("layout").unwrap_or("interleaved"))?,
    };
    Ok((cfg, workload))
}

/// Machine knobs shared by `run` and `run-trace`.
pub(crate) struct MachineOpts {
    transfer: u64,
    warmup: u64,
    victim: usize,
    protocol: Protocol,
    hw_prefetch: HwPrefetchConfig,
    check: bool,
}

impl MachineOpts {
    pub(crate) fn from_args(args: &Args) -> Result<MachineOpts, ArgsError> {
        Ok(MachineOpts {
            transfer: args.get_or("transfer", 8u64)?,
            warmup: args.get_or("warmup", 0u64)?,
            victim: args.get_or("victim", 0usize)?,
            protocol: protocol_from_args(args)?,
            hw_prefetch: hw_prefetch_from_args(args)?,
            check: args.switch("check"),
        })
    }
}

/// `--protocol` (default: Illinois invalidate).
fn protocol_from_args(args: &Args) -> Result<Protocol, ArgsError> {
    let spec = args.get("protocol").unwrap_or("invalidate");
    Protocol::parse(&spec.to_ascii_lowercase())
        .ok_or_else(|| ArgsError(format!("unknown protocol {spec:?} ({})", Protocol::CHOICES)))
}

/// `--hw-prefetch` (default: off).
fn hw_prefetch_from_args(args: &Args) -> Result<HwPrefetchConfig, ArgsError> {
    match args.get("hw-prefetch") {
        None => Ok(HwPrefetchConfig::OFF),
        Some(spec) => {
            HwPrefetchConfig::parse(spec).map_err(|e| ArgsError(format!("--hw-prefetch: {e}")))
        }
    }
}

/// The lab machine of `experiments` and `calibrate`: `--refs`, `--procs`,
/// `--seed`, `--protocol` and `--hw-prefetch` over [`RunConfig::default`].
fn run_config_from_args(args: &Args) -> Result<RunConfig, ArgsError> {
    let defaults = RunConfig::default();
    Ok(RunConfig {
        procs: args.get_or("procs", defaults.procs)?,
        refs_per_proc: args.get_or("refs", defaults.refs_per_proc)?,
        seed: args.get_or("seed", defaults.seed)?,
        protocol: protocol_from_args(args)?,
        hw_prefetch: hw_prefetch_from_args(args)?,
        ..defaults
    })
}

/// Plans the strategy and builds the machine config shared by `run`,
/// `run-trace` and `profile`.
pub(crate) fn prepare_cell(
    raw: &Trace,
    strategy: Strategy,
    opts: &MachineOpts,
) -> Result<(PrefetchPlan, SimConfig), ArgsError> {
    let transfer = opts.transfer;
    if !BusConfig::TRANSFER_RANGE.contains(&transfer) {
        return Err(ArgsError(format!(
            "--transfer {transfer} outside {:?}",
            BusConfig::TRANSFER_RANGE
        )));
    }
    // NP plans nothing, so a file that already holds prefetches runs as is.
    let plan = if strategy == Strategy::NoPrefetch {
        PrefetchPlan::default()
    } else {
        TraceMarks::new(raw, CacheGeometry::paper_default()).plan(raw, strategy)
    };
    let sim_cfg = SimConfig {
        warmup_accesses: opts.warmup,
        victim_entries: opts.victim,
        protocol: opts.protocol,
        hw_prefetch: opts.hw_prefetch,
        check_invariants: opts.check,
        // The Lab's watchdog: a livelocked cell fails with a diagnostic
        // instead of spinning forever.
        max_events: charlie::event_budget(raw.total_accesses() as u64),
        ..SimConfig::paper(raw.num_procs(), transfer)
    };
    Ok((plan, sim_cfg))
}

/// `--trace-cats` (default: everything).
fn trace_cats_from_args(args: &Args) -> Result<TraceCategories, ArgsError> {
    match args.get("trace-cats") {
        None => Ok(TraceCategories::all()),
        Some(s) => TraceCategories::parse(s).map_err(ArgsError),
    }
}

/// `--trace-out FILE`: a structured JSONL event trace sink. The file goes
/// through a [`chaos::ChaosWriter`] (tag `trace`) so durability tests can
/// fault it.
fn tracer_from_args(args: &Args) -> Result<Option<TraceEmitter>, ArgsError> {
    let Some(path) = args.get("trace-out") else { return Ok(None) };
    let cats = trace_cats_from_args(args)?;
    let file = File::create(path).map_err(|e| ArgsError(format!("creating {path}: {e}")))?;
    let sink = chaos::ChaosWriter::new(BufWriter::new(file), "trace");
    Ok(Some(TraceEmitter::new(Box::new(sink), cats)))
}

/// Observability for a single-cell command: `--sample-interval N` and
/// `--trace-out FILE --trace-cats LIST`.
fn observability_from_args(args: &Args) -> Result<Observability, ArgsError> {
    let sample = match args.get("sample-interval") {
        None => None,
        Some(v) => {
            let interval: u64 = v
                .parse()
                .map_err(|_| ArgsError(format!("--sample-interval: cannot parse {v:?}")))?;
            Some(SampleConfig::every(interval))
        }
    };
    Ok(Observability { sample, tracer: tracer_from_args(args)? })
}

fn simulate_prepared<W: Write>(
    label: &str,
    raw: &Trace,
    strategy: Strategy,
    opts: &MachineOpts,
    obs: Observability,
    json: bool,
    out: &mut W,
) -> Result<(), ArgsError> {
    let (plan, sim_cfg) = prepare_cell(raw, strategy, opts)?;
    let prepared = PreparedTrace::new(raw, &plan);
    // The timeline is dropped here on purpose: `run` output must be
    // byte-identical with observation on or off (use `profile` to see it).
    let (report, _timeline) =
        simulate_observed(&sim_cfg, prepared, obs).map_err(|e| ArgsError(e.to_string()))?;
    let inserted = prepared.total_prefetches() as u64;
    if json {
        let _ = writeln!(out, "{}", report_json(label, &report, inserted));
    } else {
        let _ = writeln!(out, "{label}: {report}");
    }
    Ok(())
}

/// Builds a [`SamplingConfig`] from `--sample-mode` plus optional knob
/// overrides; `None` when `--sample-mode` is absent (the exact path).
pub(crate) fn sampling_from_args(args: &Args) -> Result<Option<SamplingConfig>, ArgsError> {
    let Some(mode_name) = args.get("sample-mode") else { return Ok(None) };
    let mode = SamplingMode::parse(&mode_name.to_ascii_lowercase()).ok_or_else(|| {
        ArgsError(format!("unknown --sample-mode {mode_name:?} (smarts, simpoint)"))
    })?;
    let defaults = match mode {
        SamplingMode::Smarts => SamplingConfig::smarts(),
        SamplingMode::Simpoint => SamplingConfig::simpoint(),
    };
    let scfg = SamplingConfig {
        mode,
        window_accesses: args.get_or("sample-window", defaults.window_accesses)?,
        period: args.get_or("sample-period", defaults.period)?,
        warmup: args.get_or("sample-warm", defaults.warmup)?,
        max_k: args.get_or("sample-k", defaults.max_k)?,
        seed: args.get_or("sample-seed", defaults.seed)?,
        cold: args.get_or("sample-cold", defaults.cold)?,
    };
    scfg.validate().map_err(ArgsError)?;
    Ok(Some(scfg))
}

/// One line summarizing a sampled estimate for text output.
fn sampled_line(s: &charlie::SampledSummary) -> String {
    let clusters = if s.mode == SamplingMode::Simpoint {
        format!(", {} clusters", s.clusters)
    } else {
        String::new()
    };
    format!(
        "sampled ({}): est {} ±{} cycles (99% CI, ±{:.1}%), bus util {:.3}; \
         {} of {} windows detailed{clusters}, {} events",
        s.mode,
        s.est_cycles,
        s.ci_cycles,
        100.0 * s.relative_ci(),
        s.bus_utilization(),
        s.detailed_windows,
        s.total_windows,
        s.events
    )
}

/// Appends the sampled-estimate fields to a JSON object.
fn sampled_json(o: &mut JsonObject, s: &charlie::SampledSummary) {
    let mut inner = JsonObject::new();
    inner
        .string("mode", s.mode.name())
        .num("total_windows", s.total_windows)
        .num("detailed_windows", s.detailed_windows)
        .num("clusters", s.clusters)
        .num("total_accesses", s.total_accesses)
        .num("est_cycles", s.est_cycles)
        .num("ci_cycles", s.ci_cycles)
        .num("est_bus_busy", s.est_bus_busy)
        .num("ci_bus_busy", s.ci_bus_busy)
        .float("bus_utilization", s.bus_utilization())
        .num("events", s.events);
    o.raw("sampled", inner.finish());
}

/// `charlie run`.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "workload", "strategy", "transfer", "procs", "refs", "seed", "layout", "warmup",
        "victim", "protocol", "hw-prefetch", "sample-interval", "trace-out", "trace-cats",
        "sample-mode", "sample-window", "sample-period", "sample-warm", "sample-k",
        "sample-seed", "sample-cold",
    ])?;
    let (cfg, workload) = workload_config(args)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("pref"))?;
    let opts = MachineOpts::from_args(args)?;
    let label = format!("{workload}/{strategy} @{}cy", opts.transfer);
    if let Some(scfg) = sampling_from_args(args)? {
        // The sampled path owns the windowing machinery, so the
        // measurement-warm-up and timeline hooks are mutually exclusive
        // with it.
        if opts.warmup != 0 {
            return Err(ArgsError("--warmup cannot be combined with --sample-mode".into()));
        }
        if args.get("sample-interval").is_some() || args.get("trace-out").is_some() {
            return Err(ArgsError(
                "observability flags (--sample-interval/--trace-out) cannot be \
                 combined with --sample-mode"
                    .into(),
            ));
        }
        let raw = generate(workload, &cfg);
        let (plan, sim_cfg) = prepare_cell(&raw, strategy, &opts)?;
        let prepared = PreparedTrace::new(&raw, &plan);
        let (report, sampled) = charlie::run_sampled_on_prepared(&sim_cfg, prepared, &scfg)
            .map_err(|e| ArgsError(e.to_string()))?;
        let inserted = prepared.total_prefetches() as u64;
        if args.switch("json") {
            let mut o = JsonObject::new();
            o.raw("report", report_json(&label, &report, inserted));
            sampled_json(&mut o, &sampled);
            let _ = writeln!(out, "{}", o.finish());
        } else {
            let _ = writeln!(out, "{label}: {report}");
            let _ = writeln!(out, "{}", sampled_line(&sampled));
        }
        return Ok(());
    }
    let obs = observability_from_args(args)?;
    let raw = generate(workload, &cfg);
    simulate_prepared(&label, &raw, strategy, &opts, obs, args.switch("json"), out)
}

/// `charlie profile`: one cell run with the interval sampler on, rendered as
/// a per-window timeline (text summary, `--csv` rows, or a `--json` document
/// that embeds the exact `run --json` report) plus the saturation-onset
/// summary — the first window whose bus utilization crosses 0.9.
pub fn profile<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "workload", "strategy", "transfer", "procs", "refs", "seed", "layout", "warmup",
        "victim", "protocol", "hw-prefetch", "sample-interval", "trace-out", "trace-cats",
    ])?;
    if args.positional.len() > 1 {
        return Err(ArgsError(format!(
            "profile takes at most one positional workload, got {:?}",
            args.positional
        )));
    }
    let workload =
        parse_workload(args.positional.first().map(String::as_str).or(args.get("workload")).unwrap_or("mp3d"))?;
    let cfg = WorkloadConfig {
        procs: args.get_or("procs", 8usize)?,
        refs_per_proc: args.get_or("refs", 160_000usize)?,
        seed: args.get_or("seed", 0xC0FFEEu64)?,
        layout: parse_layout(args.get("layout").unwrap_or("interleaved"))?,
    };
    let strategy = parse_strategy(args.get("strategy").unwrap_or("pref"))?;
    let opts = MachineOpts::from_args(args)?;
    let interval = args.get_or("sample-interval", 10_000u64)?;
    if interval == 0 {
        return Err(ArgsError("--sample-interval must be at least 1 cycle".into()));
    }
    let obs = Observability {
        sample: Some(SampleConfig::every(interval)),
        tracer: tracer_from_args(args)?,
    };
    let raw = generate(workload, &cfg);
    let (plan, sim_cfg) = prepare_cell(&raw, strategy, &opts)?;
    let prepared = PreparedTrace::new(&raw, &plan);
    let (report, timeline) =
        simulate_observed(&sim_cfg, prepared, obs).map_err(|e| ArgsError(e.to_string()))?;
    let timeline = timeline
        .ok_or_else(|| ArgsError("profile produced no timeline despite sampling".into()))?;
    let inserted = prepared.total_prefetches() as u64;
    let label = format!("{workload}/{strategy} @{}cy", opts.transfer);
    let sat = saturation_summary(&timeline);

    if args.switch("json") {
        let mut o = JsonObject::new();
        o.raw("report", report_json(&label, &report, inserted))
            .num("sample_interval", interval);
        match sat.onset {
            Some(cycle) => o.num("saturation_onset", cycle),
            None => o.raw("saturation_onset", "null".to_owned()),
        };
        o.num("saturated_windows", sat.saturated_windows as u64)
            .num("windows", sat.windows as u64)
            .float("peak_bus_utilization", sat.peak_utilization)
            .raw("timeline", timeline_json(&timeline));
        let _ = writeln!(out, "{}", o.finish());
    } else if args.switch("csv") {
        let _ = write!(out, "{}", timeline_csv(&timeline));
    } else {
        let _ = writeln!(out, "{label}: {report}");
        let _ = writeln!(
            out,
            "timeline: {} windows of {interval} cycles; peak bus utilization {:.3}",
            sat.windows, sat.peak_utilization
        );
        match sat.onset {
            Some(cycle) => {
                let _ = writeln!(
                    out,
                    "bus saturation (>{:.0}% busy) from cycle {cycle}, measured at a \
                     {interval}-cycle sample interval; {} of {} windows saturated",
                    charlie::timeline::SATURATION_THRESHOLD * 100.0,
                    sat.saturated_windows,
                    sat.windows
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "bus never saturated (>{:.0}% busy) at a {interval}-cycle sample \
                     interval; use --csv or --json for the full timeline",
                    charlie::timeline::SATURATION_THRESHOLD * 100.0
                );
            }
        }
    }
    Ok(())
}

/// Parses `--jobs` (0 = one worker per core, the default). An unparsable
/// value is not fatal: parallelism is an optimization, so we warn once on
/// stderr and fall back to serial rather than kill a long campaign over it.
fn parse_jobs(args: &Args) -> usize {
    match args.get("jobs") {
        None => 0,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("warning: invalid --jobs {v:?}; falling back to serial (1 worker)");
            1
        }),
    }
}

/// Prints a batch's failure summary to stderr and converts it into a
/// nonzero exit, leaving `out` untouched — healthy cells were simulated and
/// journaled, but a partial exhibit must not masquerade as a complete one.
fn bail_on_failures(report: &charlie::BatchReport) -> Result<(), ArgsError> {
    match report.failure_summary() {
        None => Ok(()),
        Some(summary) => {
            eprintln!("{summary}");
            Err(ArgsError(format!(
                "{} experiment cell(s) failed; see stderr for details",
                report.failures.len()
            )))
        }
    }
}

/// `charlie sweep`.
pub fn sweep<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "workload", "procs", "refs", "seed", "layout", "jobs", "resume", "sample-interval",
        "trace-out", "trace-cats", "protocol",
    ])?;
    let (wcfg, workload) = workload_config(args)?;
    let jobs = parse_jobs(args);
    let protocol = protocol_from_args(args)?;
    let mut lab = Lab::new(RunConfig {
        procs: wcfg.procs,
        refs_per_proc: wcfg.refs_per_proc,
        seed: wcfg.seed,
        protocol,
        ..RunConfig::default()
    });
    let mut observe = ObserveSpec::default();
    if let Some(v) = args.get("sample-interval") {
        let interval: u64 = v
            .parse()
            .map_err(|_| ArgsError(format!("--sample-interval: cannot parse {v:?}")))?;
        observe.sample_interval = Some(interval);
    }
    observe.trace_cats = trace_cats_from_args(args)?;
    if let Some(dir) = args.get("trace-out") {
        // For a sweep, --trace-out names a directory: one JSONL file per
        // grid cell, named after the experiment.
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgsError(format!("creating trace dir {dir}: {e}")))?;
        observe.trace_dir = Some(PathBuf::from(dir));
    }
    lab.set_observe(observe);
    // Warm the memo in parallel; the serial loops below then read it.
    let grid: Vec<Experiment> = Strategy::ALL
        .into_iter()
        .flat_map(|s| {
            BusConfig::PAPER_SWEEP.into_iter().map(move |lat| {
                let exp = Experiment::paper(workload, s, lat);
                if wcfg.layout == Layout::Padded {
                    exp.restructured()
                } else {
                    exp
                }
            })
        })
        .collect();
    let report = if let Some(path) = args.get("resume") {
        // Checkpointed sweep: completed cells from an earlier (possibly
        // killed) invocation are restored, the rest run and journal as they
        // finish. A resumed sweep renders byte-identical output. The journal
        // header pins the campaign shape, so resuming with a different
        // workload/layout/procs/refs/seed refuses instead of mixing grids.
        let name = format!("sweep/{}/{:?}", workload.name(), wcfg.layout);
        let config = lab.config().journal_key(&name);
        let opts = charlie::checkpoint::JournalOptions { config: Some(config), sync: false };
        let (mut journal, restored) = charlie::checkpoint::Journal::open_with(Path::new(path), opts)
            .map_err(|e| ArgsError(format!("--resume {path}: {e}")))?;
        for summary in restored {
            lab.restore(summary);
        }
        lab.run_batch_checkpointed(&grid, jobs, &mut journal)
    } else {
        lab.run_batch(&grid, jobs)
    };
    bail_on_failures(&report)?;
    if args.switch("json") {
        let mut rows = Vec::new();
        for s in Strategy::PREFETCHING {
            for lat in BusConfig::PAPER_SWEEP {
                let mut exp = Experiment::paper(workload, s, lat);
                if wcfg.layout == Layout::Padded {
                    exp = exp.restructured();
                }
                let rel = lab.relative_time(exp);
                rows.push(format!(
                    "{{\"strategy\":\"{}\",\"transfer\":{lat},\"relative_time\":{rel:.6}}}",
                    s.name()
                ));
            }
        }
        let _ = writeln!(out, "[{}]", rows.join(","));
    } else {
        let table = exhibits::figure2_for(&mut lab, workload);
        let _ = writeln!(out, "{table}");
    }
    Ok(())
}

/// `charlie export-trace`.
pub fn export_trace<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&["workload", "procs", "refs", "seed", "layout", "strategy", "out"])?;
    let (cfg, workload) = workload_config(args)?;
    let path = args.get("out").ok_or_else(|| ArgsError("--out FILE is required".into()))?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("np"))?;
    let raw = generate(workload, &cfg);
    let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, strategy);
    let trace = PreparedTrace::new(&raw, &plan).to_trace();
    // Atomic write (temp + rename, chaos tag `trace`): a killed or faulted
    // export leaves either the old file or the new one, never a torn trace.
    let mut file = chaos::AtomicFile::create(path, "trace")
        .map_err(|e| ArgsError(format!("creating {path}: {e}")))?;
    trace_io::write_trace(&trace, &mut file)
        .map_err(|e| ArgsError(format!("writing {path}: {e}")))?;
    file.commit().map_err(|e| ArgsError(format!("writing {path}: {e}")))?;
    let _ = writeln!(
        out,
        "wrote {path}: {} procs, {} accesses, {} prefetches",
        trace.num_procs(),
        trace.total_accesses(),
        trace.total_prefetches()
    );
    Ok(())
}

/// `charlie run-trace`.
pub fn run_trace<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "file", "transfer", "strategy", "warmup", "victim", "protocol", "hw-prefetch",
    ])?;
    let path = args.get("file").ok_or_else(|| ArgsError("--file FILE is required".into()))?;
    let file = File::open(path).map_err(|e| ArgsError(format!("opening {path}: {e}")))?;
    // Route parse failures through RunError, the same classification the
    // batch engine records, so CLI and batch reports read identically.
    let trace = trace_io::read_trace(BufReader::new(file))
        .map_err(|e| ArgsError(format!("{path}: {}", charlie::RunError::from(e))))?;
    trace.validate().map_err(|e| ArgsError(format!("{path}: invalid trace: {e}")))?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("np"))?;
    let opts = MachineOpts::from_args(args)?;
    if strategy != Strategy::NoPrefetch && trace.total_prefetches() > 0 {
        return Err(ArgsError(
            "trace already contains prefetches; run it with --strategy np".into(),
        ));
    }
    let label = format!("{path}/{strategy} @{}cy", opts.transfer);
    simulate_prepared(&label, &trace, strategy, &opts, Observability::default(), args.switch("json"), out)
}

/// `charlie experiments`: renders the named exhibits (default `all`) from
/// one batch per lab configuration their cells name.
pub fn experiments<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&["jobs", "refs", "procs", "seed", "hw-prefetch", "resume", "svg-dir"])?;
    let names: Vec<&str> = if args.positional.is_empty() {
        vec!["all"]
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    // Every name is checked before anything simulates.
    let chosen = names
        .iter()
        .map(|&name| {
            exhibits::exhibit(name).ok_or_else(|| {
                ArgsError(format!("unknown exhibit {name:?}; `charlie help` lists them"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = run_config_from_args(args)?;
    let svg_dir = args.get("svg-dir");
    let mut cells: Vec<(RunConfig, Experiment)> =
        chosen.iter().flat_map(|e| (e.cells)(&cfg)).collect();
    if svg_dir.is_some() {
        cells.extend((exhibits::exhibit("figure2").expect("registered").cells)(&cfg));
    }

    let mut labs = exhibits::Labs::new(cfg, parse_jobs(args));
    let reports = match args.get("resume") {
        // The shared lab's cells journal under the key the paper-grid
        // campaign has always used, so existing journals resume.
        Some(path) => {
            let config = Some(cfg.journal_key("all_experiments"));
            let opts = charlie::checkpoint::JournalOptions { config, sync: false };
            let (mut journal, restored) =
                charlie::checkpoint::Journal::open_with(Path::new(path), opts)
                    .map_err(|e| ArgsError(format!("--resume {path}: {e}")))?;
            if !restored.is_empty() {
                eprintln!("resuming: {} cells restored from {path}", restored.len());
            }
            for summary in restored {
                labs.shared().restore(summary);
            }
            labs.run(&cells, Some(&mut journal))
        }
        None => labs.run(&cells, None),
    };
    // Bail before rendering if any cell failed: exhibits would re-simulate
    // (and panic on) the missing cells.
    for report in &reports {
        eprintln!(
            "batch: {} simulations on {} workers in {:.1} ms, {} memo hits",
            report.executed,
            report.jobs,
            report.wall_nanos as f64 / 1e6,
            report.memo_hits
        );
        bail_on_failures(report)?;
    }
    for exhibit in chosen {
        let text = (exhibit.render)(&mut labs, args.switch("csv")).map_err(|failures| {
            eprintln!("{failures}");
            ArgsError(format!(
                "{} experiment cell(s) failed; see stderr for details",
                failures.0.len()
            ))
        })?;
        let _ = write!(out, "{text}");
    }
    if let Some(dir) = svg_dir {
        std::fs::create_dir_all(dir).map_err(|e| ArgsError(format!("--svg-dir {dir}: {e}")))?;
        for w in Workload::ALL {
            let svg = exhibits::figure2_chart(labs.shared(), w).to_svg();
            let path = Path::new(dir).join(format!("figure2_{}.svg", w.name().to_lowercase()));
            std::fs::write(&path, svg)
                .map_err(|e| ArgsError(format!("writing {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// `charlie bench`: measures the representative grid slice and emits a
/// `BENCH_charlie.json`-shaped snapshot; with `--baseline`, additionally
/// enforces the events/sec regression gate against the checked-in numbers.
pub fn bench<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&["label", "out", "baseline", "refs", "procs", "seed"])?;
    let quick = args.switch("quick");
    let sampled = args.switch("sampled");
    let mut slice_cfg =
        if quick { charlie::bench::SliceConfig::quick() } else { charlie::bench::SliceConfig::full() };
    slice_cfg.refs_per_proc = args.get_or("refs", slice_cfg.refs_per_proc)?;
    slice_cfg.procs = args.get_or("procs", slice_cfg.procs)?;
    slice_cfg.seed = args.get_or("seed", slice_cfg.seed)?;
    let default_label =
        if sampled { "sampled" } else if quick { "quick" } else { "full" };
    let label = args.get("label").unwrap_or(default_label);

    if sampled && args.get("baseline").is_some() {
        // The sampled slice runs ~period-fold fewer events than exact, so
        // the exact-throughput regression gate is meaningless for it.
        return Err(ArgsError(
            "--baseline compares exact-slice throughput; it cannot gate --sampled".into(),
        ));
    }
    let snapshot = if sampled {
        charlie::bench::run_sampled_slice(label, &slice_cfg, &SamplingConfig::smarts())
    } else {
        charlie::bench::run_slice(label, &slice_cfg)
    };
    let _ = writeln!(out, "{}", snapshot.summary());

    if let Some(path) = args.get("out") {
        let rendered = charlie::bench::render_file(&[&snapshot]);
        // Atomic write (chaos tag `bench`): the snapshot file is either the
        // previous complete one or the new complete one, never a torn mix.
        chaos::write_atomic(path, rendered.as_bytes(), "bench")
            .map_err(|e| ArgsError(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "snapshot written to {path}");
    }

    if let Some(path) = args.get("baseline") {
        // Quick runs gate against the checked-in quick baseline; full runs
        // against the post-optimization full numbers.
        let section = if quick { "quick_baseline" } else { "after" };
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| ArgsError(format!("reading {path}: {e}")))?;
        let reference = charlie::bench::extract_run_number(&baseline, section, "events_per_sec")
            .ok_or_else(|| {
                ArgsError(format!("no runs.{section}.events_per_sec in {path}"))
            })?;
        let measured = snapshot.events_per_sec;
        // A zero/negative/NaN baseline would make every run "pass" the
        // gate (or divide by zero); that is a broken baseline file, not a
        // passing benchmark — refuse it loudly.
        if !reference.is_finite() || reference <= 0.0 {
            return Err(ArgsError(format!(
                "baseline runs.{section}.events_per_sec in {path} is {reference}, not a \
                 positive throughput; regenerate the baseline with `charlie bench --out {path}`"
            )));
        }
        let ratio = measured / reference;
        let _ = writeln!(
            out,
            "baseline {section}: {:.2} M events/s; measured {:.2} M events/s ({:.0}% of baseline)",
            reference / 1e6,
            measured / 1e6,
            ratio * 100.0,
        );
        if ratio < 0.8 {
            return Err(ArgsError(format!(
                "events/sec regressed more than 20% vs {path} ({:.2}M < 0.8 x {:.2}M)",
                measured / 1e6,
                reference / 1e6,
            )));
        }
    }
    Ok(())
}

/// `charlie calibrate`: runs an experiment grid sampled *and* exact,
/// reporting per-cell execution-time and bus-utilization error, wall-clock
/// and event-count speedups, and CI coverage. With `--tolerance`, exits
/// nonzero when any cell's error exceeds it — the CI gate for the sampled
/// path.
pub fn calibrate<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "grid", "refs", "procs", "seed", "jobs", "tolerance", "protocol", "hw-prefetch",
        "sample-mode", "sample-window", "sample-period", "sample-warm", "sample-k",
        "sample-seed", "sample-cold",
    ])?;
    let scfg = sampling_from_args(args)?.unwrap_or_else(SamplingConfig::smarts);
    let grid = match args.get("grid").unwrap_or("quick") {
        "quick" => charlie::quick_grid(),
        "paper" | "full" => exhibits::full_grid(),
        other => {
            return Err(ArgsError(format!("unknown --grid {other:?} (quick, paper)")))
        }
    };
    let cfg = run_config_from_args(args)?;
    let jobs = Lab::resolve_jobs(parse_jobs(args));
    let cal = charlie::calibrate(&cfg, &scfg, &grid, jobs)
        .map_err(|e| ArgsError(e.to_string()))?;

    let tolerance: Option<f64> = match args.get("tolerance") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| ArgsError(format!("--tolerance: cannot parse {v:?} as percent")))?
                / 100.0,
        ),
    };

    if args.switch("json") {
        let mut o = JsonObject::new();
        o.string("mode", scfg.mode.name())
            .num("window_accesses", scfg.window_accesses)
            .num("cells", cal.cells.len() as u64)
            .float("max_cycles_error", cal.max_cycles_error())
            .float("mean_cycles_error", cal.mean_cycles_error())
            .float("max_util_error", cal.max_util_error())
            .float("mean_speedup", cal.mean_speedup())
            .float("mean_event_speedup", cal.mean_event_speedup())
            .float("ci_coverage", cal.ci_coverage());
        let cells: Vec<String> = cal
            .cells
            .iter()
            .map(|c| {
                let mut co = JsonObject::new();
                co.string("experiment", &c.experiment.to_string())
                    .num("exact_cycles", c.exact_cycles)
                    .num("est_cycles", c.sampled.est_cycles)
                    .num("ci_cycles", c.sampled.ci_cycles)
                    .float("cycles_error", c.cycles_error())
                    .float("util_error", c.util_error())
                    .float("speedup", c.speedup())
                    .float("event_speedup", c.event_speedup())
                    .raw("ci_contains_exact", c.ci_contains_cycles().to_string());
                co.finish()
            })
            .collect();
        o.raw("cells_detail", format!("[{}]", cells.join(",")));
        let _ = writeln!(out, "{}", o.finish());
    } else {
        let _ = writeln!(
            out,
            "calibrate: {} ({}-access windows) over {} cells, {} refs/proc x {} procs",
            scfg.mode,
            scfg.window_accesses,
            cal.cells.len(),
            cfg.refs_per_proc,
            cfg.procs
        );
        let _ = writeln!(
            out,
            "{:<26} {:>14} {:>14} {:>7} {:>7} {:>8} {:>8}  {}",
            "cell", "exact cycles", "est cycles", "terr%", "uerr%", "speedup", "ev-spdup", "CI"
        );
        for c in &cal.cells {
            let _ = writeln!(
                out,
                "{:<26} {:>14} {:>14} {:>6.2} {:>6.2} {:>7.1}x {:>7.1}x  {}",
                c.experiment.to_string(),
                c.exact_cycles,
                c.sampled.est_cycles,
                100.0 * c.cycles_error(),
                100.0 * c.util_error(),
                c.speedup(),
                c.event_speedup(),
                if c.ci_contains_cycles() { "ok" } else { "MISS" }
            );
        }
        let _ = writeln!(
            out,
            "summary: max time error {:.2}% (mean {:.2}%), max util error {:.2}%; \
             geomean speedup {:.1}x wall, {:.1}x events; CI coverage {:.0}%",
            100.0 * cal.max_cycles_error(),
            100.0 * cal.mean_cycles_error(),
            100.0 * cal.max_util_error(),
            cal.mean_speedup(),
            cal.mean_event_speedup(),
            100.0 * cal.ci_coverage()
        );
    }

    if let Some(tol) = tolerance {
        let worst = cal.max_cycles_error().max(cal.max_util_error());
        if worst > tol {
            return Err(ArgsError(format!(
                "sampling error {:.2}% exceeds tolerance {:.2}%",
                100.0 * worst,
                100.0 * tol
            )));
        }
    }
    Ok(())
}

/// Runs `charlie sweep` with the given extra tokens, capturing its stdout.
fn captured_sweep(base: &[String], resume: Option<&Path>) -> Result<String, ArgsError> {
    let mut tokens = base.to_vec();
    if let Some(path) = resume {
        tokens.push("--resume".to_owned());
        tokens.push(path.display().to_string());
    }
    let parsed = Args::parse(tokens)?;
    let mut buf = Vec::new();
    sweep(&parsed, &mut buf)?;
    String::from_utf8(buf).map_err(|e| ArgsError(format!("sweep output not UTF-8: {e}")))
}

/// `charlie chaos`: the durability exercise. Runs a small sweep as the
/// reference, then proves three properties against it:
///
/// 1. **Crash-point matrix** — for a set of byte offsets (line boundaries
///    and mid-line cuts of the journal), a run resumed from a journal
///    truncated at that offset renders output byte-identical to the
///    uninterrupted reference.
/// 2. **Live fault plans** — with each [`FaultKind`] (plus a seeded mixed
///    plan) armed against the journal writer, the sweep still completes
///    with reference-identical output, and a later unarmed resume heals the
///    damaged journal.
/// 3. **Atomic artifacts** — a `bench --out` snapshot under a crash fault
///    either fully appears or not at all; never a torn file.
pub fn chaos<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "workload", "procs", "refs", "seed", "layout", "jobs", "points", "fault-seed", "dir",
    ])?;
    let points = args.get_or("points", 8usize)?;
    if points == 0 {
        return Err(ArgsError("--points must be at least 1".into()));
    }
    let fault_seed = args.get_or("fault-seed", 0xC4A0_5EEDu64)?;
    if chaos::is_armed() {
        return Err(ArgsError(
            "a fault plan is already ambient (CHARLIE_CHAOS?); chaos manages its own plans"
                .into(),
        ));
    }
    let scratch = match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("charlie-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&scratch)
        .map_err(|e| ArgsError(format!("creating scratch dir {}: {e}", scratch.display())))?;

    let mut base: Vec<String> = vec!["sweep".to_owned(), "--json".to_owned()];
    for key in ["workload", "procs", "refs", "seed", "layout", "jobs"] {
        if let Some(v) = args.get(key) {
            base.push(format!("--{key}"));
            base.push(v.to_owned());
        }
    }

    let mut checks = 0usize;
    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        checks += 1;
        if !ok {
            failures += 1;
            eprintln!("chaos: FAIL: {what}");
        }
    };

    // Phase 1: hooks compiled in but disabled — journaling must be invisible.
    let reference = captured_sweep(&base, None)?;
    let ckpt = scratch.join("chaos.ckpt");
    let journaled = captured_sweep(&base, Some(&ckpt))?;
    check(journaled == reference, "journaled sweep output differs from reference");
    let journal_bytes = std::fs::read(&ckpt)
        .map_err(|e| ArgsError(format!("reading journal {}: {e}", ckpt.display())))?;
    let resumed = captured_sweep(&base, Some(&ckpt))?;
    check(resumed == reference, "fully-resumed sweep output differs from reference");
    let after = std::fs::read(&ckpt)
        .map_err(|e| ArgsError(format!("reading journal {}: {e}", ckpt.display())))?;
    check(after == journal_bytes, "fully-resumed sweep rewrote the journal");
    let _ = writeln!(
        out,
        "chaos: reference sweep captured; journal is {} bytes, journaling invisible",
        journal_bytes.len()
    );

    // Phase 2: crash-point matrix over journal prefixes. Line boundaries
    // model a clean kill between appends; evenly spaced interior offsets
    // land mid-line (torn tails, split CRC frames, a cut header).
    let len = journal_bytes.len();
    let mut offsets: Vec<usize> = (1..=points).map(|i| i * len.saturating_sub(1) / (points + 1)).collect();
    let boundaries: Vec<usize> = journal_bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let step = (boundaries.len() / points).max(1);
    offsets.extend(boundaries.iter().step_by(step).copied());
    offsets.retain(|&k| k > 0 && k < len);
    offsets.sort_unstable();
    offsets.dedup();
    let mut matrix_ok = 0usize;
    for &k in &offsets {
        let path = scratch.join(format!("crash-{k}.ckpt"));
        std::fs::write(&path, &journal_bytes[..k])
            .map_err(|e| ArgsError(format!("writing truncated journal {}: {e}", path.display())))?;
        let output = captured_sweep(&base, Some(&path))?;
        if output == reference {
            matrix_ok += 1;
        }
        check(output == reference, &format!("resume from journal cut at byte {k} diverged"));
    }
    let _ = writeln!(
        out,
        "chaos: crash-point matrix: {matrix_ok}/{} resumed grids byte-identical",
        offsets.len()
    );

    // Phase 3: live faults against the journal writer. The sweep must
    // finish with reference output (persistence degrades, results do not),
    // and an unarmed resume must heal whatever the fault left behind.
    let mut plans: Vec<(String, FaultPlan)> = FaultKind::ALL
        .into_iter()
        .map(|kind| {
            let mut plan = FaultPlan::new();
            plan.push("journal", kind, (len / 3) as u64);
            plan.push("journal", kind, (2 * len / 3) as u64);
            (kind.name().to_owned(), plan)
        })
        .collect();
    plans.push((
        "seeded-mix".to_owned(),
        FaultPlan::seeded(fault_seed, "journal", len as u64, points),
    ));
    let mut live_ok = 0usize;
    let total_plans = plans.len();
    for (name, plan) in plans {
        let path = scratch.join(format!("fault-{name}.ckpt"));
        chaos::arm(plan);
        let armed = captured_sweep(&base, Some(&path));
        chaos::disarm();
        let armed = armed?;
        let healed = captured_sweep(&base, Some(&path))?;
        if armed == reference && healed == reference {
            live_ok += 1;
        }
        check(armed == reference, &format!("sweep under {name} faults diverged"));
        check(healed == reference, &format!("resume after {name} faults diverged"));
    }
    let _ = writeln!(out, "chaos: live fault plans: {live_ok}/{total_plans} recovered byte-identical");

    // Phase 4: atomic artifacts. A bench snapshot that crashes mid-write
    // must not appear at its final path at all.
    let bench_path = scratch.join("bench.json");
    let bench_tokens: Vec<String> = [
        "bench", "--quick", "--refs", "300", "--procs", "2", "--out",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([bench_path.display().to_string()])
    .collect();
    let mut crash_plan = FaultPlan::new();
    crash_plan.push("bench", FaultKind::Crash, 64);
    chaos::arm(crash_plan);
    let crashed = bench(&Args::parse(bench_tokens.clone())?, &mut Vec::new());
    chaos::disarm();
    check(crashed.is_err(), "bench --out under a crash fault must report the failure");
    check(!bench_path.exists(), "crashed bench snapshot must not appear at its final path");
    bench(&Args::parse(bench_tokens)?, &mut Vec::new())?;
    let snapshot = std::fs::read_to_string(&bench_path)
        .map_err(|e| ArgsError(format!("reading bench snapshot {}: {e}", bench_path.display())))?;
    check(
        snapshot.trim_start().starts_with('{') && snapshot.trim_end().ends_with('}'),
        "healthy bench snapshot must be complete JSON",
    );
    let _ = writeln!(out, "chaos: atomic bench snapshot: crash leaves no partial file");

    drop(check);
    if failures == 0 {
        std::fs::remove_dir_all(&scratch).ok();
        let _ = writeln!(out, "chaos: OK ({checks} checks)");
        Ok(())
    } else {
        let _ = writeln!(
            out,
            "chaos: {failures} of {checks} checks FAILED (scratch kept at {})",
            scratch.display()
        );
        Err(ArgsError(format!("{failures} durability check(s) failed")))
    }
}
