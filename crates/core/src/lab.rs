//! The experiment runner: one [`Experiment`] = workload × strategy × memory
//! architecture × layout; a [`Lab`] memoizes runs so the table/figure
//! reproductions can share them.
//!
//! Experiments are independent, seeded and deterministic, so a batch of
//! them is embarrassingly parallel: [`Lab::run_batch`] fans a worklist out
//! over a [`std::thread`] pool and merges the results into the same memo
//! the serial [`Lab::run`] path uses — callers cannot observe which path
//! filled the cache, and `tests/parallel_equivalence.rs` proves the reports
//! are bit-identical either way.

use crate::retry::RetryPolicy;
use charlie_cache::CacheGeometry;
use charlie_prefetch::{PrefetchPlan, PreparedTrace, Strategy, TraceMarks};
use charlie_sim::{
    simulate_observed_prevalidated, HwPrefetchConfig, Observability, Protocol, SampleConfig,
    SimConfig, SimError, SimReport, Timeline, TraceCategories, TraceEmitter,
};
use charlie_trace::Trace;
use charlie_workloads::{generate, Layout, Workload, WorkloadConfig};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One cell of the paper's evaluation space.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Experiment {
    /// Application.
    pub workload: Workload,
    /// Prefetching discipline.
    pub strategy: Strategy,
    /// Contended data-transfer latency (4–32 in the paper).
    pub transfer_cycles: u64,
    /// Original or restructured shared-data layout.
    pub layout: Layout,
}

impl Experiment {
    /// An experiment on the paper's default (interleaved) layout.
    pub fn paper(workload: Workload, strategy: Strategy, transfer_cycles: u64) -> Self {
        Experiment { workload, strategy, transfer_cycles, layout: Layout::Interleaved }
    }

    /// The same experiment on the restructured layout (§4.4).
    pub fn restructured(self) -> Self {
        Experiment { layout: Layout::Padded, ..self }
    }

    /// The NP baseline this experiment's execution time is reported against.
    pub fn baseline(self) -> Self {
        Experiment { strategy: Strategy::NoPrefetch, ..self }
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} @{}cy{}",
            self.workload,
            self.strategy,
            self.transfer_cycles,
            if self.layout == Layout::Padded { " (restructured)" } else { "" }
        )
    }
}

/// Machine- and trace-size knobs shared by every experiment in a [`Lab`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RunConfig {
    /// Processors (the paper's machines; we default to 8).
    pub procs: usize,
    /// Demand references per processor. Defaults to the `CHARLIE_REFS`
    /// environment variable or 160 000 (the paper traced ~2 M; rates are
    /// stable well below that).
    pub refs_per_proc: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Per-processor cache geometry (the paper's experiments use
    /// 32 KB direct-mapped with 32-byte blocks; §3.3 discusses other
    /// configurations, reproduced by the `cache-size`, `block-size` and
    /// `ablation-cache` exhibits).
    pub geometry: CacheGeometry,
    /// Per-run wall-clock watchdog in milliseconds
    /// ([`SimConfig::wall_limit_ms`]); 0 (the default, overridable with the
    /// `CHARLIE_WALL_LIMIT_MS` environment variable) disables it. The
    /// deterministic event budget ([`watchdog_budget`]) stays armed either
    /// way; this additionally catches runs wedged cheaply in wall time.
    pub wall_limit_ms: u64,
    /// On-line hardware prefetcher every run of this lab simulates with
    /// ([`SimConfig::hw_prefetch`]). Off by default — the paper's machine
    /// has no hardware prefetcher, and the full grid must stay bit-identical
    /// to the published output when this is disabled. A lab-wide knob rather
    /// than an [`Experiment`] axis: head-to-head exhibits build one private
    /// lab per prefetcher configuration.
    pub hw_prefetch: HwPrefetchConfig,
    /// Coherence protocol every run of this lab simulates with
    /// ([`SimConfig::protocol`]). The paper's Illinois write-invalidate by
    /// default; like [`hw_prefetch`](RunConfig::hw_prefetch) it is a
    /// lab-wide knob — the `protocols` exhibit builds one private lab per
    /// protocol rather than adding an [`Experiment`] axis.
    pub protocol: Protocol,
    /// Sampled-simulation mode ([`crate::sampling`]). `None` (the default)
    /// runs every cell fully detailed and is byte-identical to builds
    /// without the feature. `Some` trades exact timing for a 10–100x
    /// cheaper estimate with a confidence interval
    /// ([`RunSummary::sampled`]); functional counters stay exact either
    /// way. Sampled runs carry no [`Timeline`] — per-window observability
    /// and sampled estimation own the same windowing machinery.
    pub sampling: Option<crate::sampling::SamplingConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        let refs = std::env::var("CHARLIE_REFS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(160_000);
        let wall_limit_ms = std::env::var("CHARLIE_WALL_LIMIT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        RunConfig {
            procs: 8,
            refs_per_proc: refs,
            seed: 0xC0FFEE,
            geometry: CacheGeometry::paper_default(),
            wall_limit_ms,
            hw_prefetch: HwPrefetchConfig::OFF,
            protocol: Protocol::WriteInvalidate,
            sampling: None,
        }
    }
}

impl RunConfig {
    /// The checkpoint-journal config key of campaign `name` on this
    /// machine: `name/p…/r…/s…`, then `/hw=`, `/proto=` and `/smp=` each
    /// only when that knob is not the default, so journals written before a
    /// knob existed keep their keys and stay resumable. Every journaled
    /// campaign (`sweep`, `experiments`, the serve daemon) keys through
    /// here, so a resume under a different machine refuses.
    pub fn journal_key(&self, name: &str) -> String {
        let mut key =
            format!("{name}/p{}/r{}/s{:#x}", self.procs, self.refs_per_proc, self.seed);
        if self.hw_prefetch.is_enabled() {
            key.push_str(&format!("/hw={}", self.hw_prefetch));
        }
        if self.protocol != Protocol::WriteInvalidate {
            key.push_str(&format!("/proto={}", self.protocol.key_name()));
        }
        if let Some(s) = self.sampling {
            key.push_str(&format!(
                "/smp={}:{}:{}:{}:{}:{}:{}",
                s.mode.name(),
                s.window_accesses,
                s.period,
                s.warmup,
                s.max_k,
                s.seed,
                s.cold
            ));
        }
        key
    }
}

/// Opt-in observability for every run a [`Lab`] executes (see
/// [`Lab::set_observe`]). The default spec is fully off and adds zero cost:
/// runs go through the exact same simulation path and produce bit-identical
/// reports with no timeline.
#[derive(Clone, Debug)]
pub struct ObserveSpec {
    /// Record a per-run [`Timeline`] sampled every this many cycles.
    pub sample_interval: Option<u64>,
    /// Write one JSONL trace file per run into this directory, named
    /// `{workload}-{strategy}-{transfer}cy-{layout}.jsonl`.
    pub trace_dir: Option<PathBuf>,
    /// Categories the per-run trace files record (ignored without
    /// `trace_dir`).
    pub trace_cats: TraceCategories,
}

impl Default for ObserveSpec {
    fn default() -> Self {
        ObserveSpec { sample_interval: None, trace_dir: None, trace_cats: TraceCategories::all() }
    }
}

impl ObserveSpec {
    /// Builds the per-run [`Observability`] attachments for `exp`, opening
    /// the run's trace file if a trace directory is configured.
    fn observability_for(&self, exp: Experiment) -> Result<Observability, RunError> {
        let tracer = match &self.trace_dir {
            None => None,
            Some(dir) => {
                let name = format!(
                    "{}-{}-{}cy-{:?}.jsonl",
                    exp.workload, exp.strategy, exp.transfer_cycles, exp.layout
                );
                let file = std::fs::File::create(dir.join(&name)).map_err(|e| {
                    RunError::Trace(format!("creating trace file {name}: {e}"))
                })?;
                // Chaos tag `trace`: per-run JSONL traces are a faultable
                // persistence surface like every other writer.
                let sink = crate::chaos::ChaosWriter::new(std::io::BufWriter::new(file), "trace");
                Some(TraceEmitter::new(Box::new(sink), self.trace_cats))
            }
        };
        Ok(Observability { sample: self.sample_interval.map(SampleConfig::every), tracer })
    }
}

/// Result of one experiment run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunSummary {
    /// The experiment that produced this.
    pub experiment: Experiment,
    /// Full simulator output.
    pub report: SimReport,
    /// Prefetch events the off-line pass inserted (the paper's prefetch
    /// overhead measure).
    pub prefetches_inserted: u64,
    /// Per-window time series, present when the lab ran with sampling
    /// enabled ([`Lab::set_observe`]). `None` on unsampled runs — and on
    /// summaries restored from journals written by unsampled campaigns.
    pub timeline: Option<Timeline>,
    /// Sampled-simulation estimate, present when the run executed under
    /// [`RunConfig::sampling`]. `None` on exact runs — and on summaries
    /// restored from journals written before the sampled mode existed.
    /// When present, `report.cycles` and `report.bus.busy_cycles` are the
    /// estimates (see [`crate::sampling`]); everything else in the report
    /// is the sampled run's exact functional outcome.
    pub sampled: Option<crate::sampling::SampledSummary>,
}

/// Why one experiment run failed.
///
/// Every failure mode a batch worker can hit is funnelled into this type so
/// [`Lab::run_batch`] can finish the healthy cells and *report* the broken
/// ones instead of aborting the whole campaign.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// The simulator rejected or aborted the run (including watchdog
    /// [`SimError::BudgetExceeded`] and invariant-checker failures).
    Sim(SimError),
    /// The worker panicked; the payload message is preserved.
    Panic(String),
    /// A trace stream failed to load or parse (external-trace labs).
    Trace(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Panic(msg) => write!(f, "panic: {msg}"),
            RunError::Trace(msg) => write!(f, "trace error: {msg}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<charlie_trace::io::ReadTraceError> for RunError {
    fn from(e: charlie_trace::io::ReadTraceError) -> Self {
        RunError::Trace(e.to_string())
    }
}

impl RunError {
    /// Whether this failure is plausibly transient I/O and therefore worth
    /// a backed-off retry ladder instead of a single diagnostic re-run.
    /// Trace-stream failures qualify (a loaded filesystem can drop a read
    /// mid-campaign and succeed seconds later); simulator errors and worker
    /// panics are deterministic functions of the trace and never do.
    pub fn is_transient_io(&self) -> bool {
        matches!(self, RunError::Trace(_))
    }
}

/// What the bounded serial re-run of a failed cell established.
#[derive(Clone, PartialEq, Debug)]
pub enum RetryOutcome {
    /// The re-run failed identically: the failure is deterministic (a real
    /// bug in the cell, not harness nondeterminism).
    Reproduced,
    /// The re-run failed *differently* — evidence of nondeterminism.
    DivergedError(RunError),
    /// The re-run succeeded; its result was kept and memoized (the original
    /// failure was transient).
    Recovered,
}

impl RetryOutcome {
    /// Short human label for failure summaries.
    pub fn label(&self) -> &'static str {
        match self {
            RetryOutcome::Reproduced => "deterministic (reproduced on retry)",
            RetryOutcome::DivergedError(_) => "nondeterministic (retry failed differently)",
            RetryOutcome::Recovered => "transient (recovered on retry)",
        }
    }
}

/// One failed cell of a batch, with its retry diagnosis.
#[derive(Clone, PartialEq, Debug)]
pub struct RunFailure {
    /// The experiment that failed.
    pub experiment: Experiment,
    /// The first failure observed.
    pub error: RunError,
    /// What the bounded re-run established.
    pub retry: RetryOutcome,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [{}]", self.experiment, self.error, self.retry.label())
    }
}

/// Execution metadata for one completed run.
///
/// Deliberately kept *outside* [`RunSummary`] so serial and parallel
/// executions of the same experiment stay bit-comparable: wall-clock and
/// worker assignment vary run to run, the simulated report must not.
#[derive(Copy, Clone, Debug)]
pub struct RunMeta {
    /// Wall-clock nanoseconds the simulation took.
    pub wall_nanos: u128,
    /// Index of the worker that ran it (0 on the serial path).
    pub worker: usize,
    /// Whether the run was executed through [`Lab::run_batch`].
    pub via_batch: bool,
}

/// Lab-wide memo and batch accounting.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LabStats {
    /// Lookups answered from the memo without simulating.
    pub memo_hits: u64,
    /// Lookups that had to simulate.
    pub memo_misses: u64,
    /// `run_batch` invocations.
    pub batches: u64,
    /// Experiments actually simulated by batch workers (excludes memo hits
    /// inside batches).
    pub batch_executed: u64,
    /// Summaries restored from a checkpoint journal ([`Lab::restore`]).
    pub restored: u64,
}

/// What one [`Lab::run_batch`] call did.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Experiments requested (before deduplication).
    pub requested: usize,
    /// Requests already present in the memo.
    pub memo_hits: usize,
    /// Distinct experiments simulated *successfully* by this batch
    /// (including cells recovered by the retry).
    pub executed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u128,
    /// Sum of per-run wall-clocks (≈ serial time; `sim_nanos / wall_nanos`
    /// estimates the achieved speedup).
    pub sim_nanos: u128,
    /// Cells that failed (panic, simulator error, watchdog abort), each with
    /// its retry diagnosis. Empty on a fully healthy batch.
    pub failures: Vec<RunFailure>,
}

impl BatchReport {
    /// `true` when every attempted cell completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Multi-line human summary of the failures (`None` when complete).
    /// Callers print this and exit nonzero — the batch itself never aborts.
    pub fn failure_summary(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let attempted = self.executed + self.failures.len();
        let mut text =
            format!("{} of {} attempted cells failed:", self.failures.len(), attempted);
        for failure in &self.failures {
            text.push_str("\n  ");
            text.push_str(&failure.to_string());
        }
        Some(text)
    }
}

/// Upper bound on worker threads (guards against absurd `--jobs` values;
/// batches are also capped at one worker per pending experiment).
pub const MAX_JOBS: usize = 1024;

/// Watchdog headroom: events budgeted per demand access. Even under worst
/// observed contention a retired access costs well under 20 scheduler
/// events, so 128 leaves nearly an order of magnitude of slack (derivation
/// in DESIGN.md, "Fault tolerance & validation").
const WATCHDOG_EVENTS_PER_ACCESS: u64 = 128;

/// Watchdog floor covering per-run fixed costs (sync traffic, tiny traces).
const WATCHDOG_EVENT_FLOOR: u64 = 1 << 20;

/// Deterministic event budget for one run under `cfg`. A livelocked or
/// runaway simulation trips [`SimError::BudgetExceeded`] instead of wedging
/// its worker forever; an honest run never gets near the bound.
fn watchdog_budget(cfg: &RunConfig) -> u64 {
    event_budget((cfg.procs as u64).saturating_mul(cfg.refs_per_proc as u64))
}

/// The watchdog's event budget for a run of `accesses` demand accesses —
/// what every Lab cell, and every single-cell CLI command, arms
/// [`SimConfig::max_events`] with.
pub fn event_budget(accesses: u64) -> u64 {
    WATCHDOG_EVENT_FLOOR.saturating_add(WATCHDOG_EVENTS_PER_ACCESS.saturating_mul(accesses))
}

/// Stable per-experiment salt seeding the retry jitter (see
/// [`RetryPolicy::salt`]): reproducible for a given cell, never in
/// lockstep across cells.
fn experiment_salt(exp: Experiment) -> u64 {
    RetryPolicy::salt(&format!("{exp}"))
}

/// Workload-generator settings for the lab's machine at a given layout —
/// the only experiment axis (besides the workload itself) that changes the
/// raw trace. Strategy and transfer latency do not.
pub(crate) fn workload_config(cfg: &RunConfig, layout: Layout) -> WorkloadConfig {
    WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        layout,
    }
}

/// The simulator configuration for one cell under `cfg`: the paper's
/// machine at the cell's transfer latency, with the lab's geometry,
/// watchdog budget, wall limit, hardware prefetcher and coherence
/// protocol. Every path that simulates a cell (the lab, calibration, the
/// exact reference) builds it here, so none can drop a knob.
pub(crate) fn sim_config(cfg: &RunConfig, exp: Experiment) -> SimConfig {
    SimConfig {
        geometry: cfg.geometry,
        max_events: watchdog_budget(cfg),
        wall_limit_ms: cfg.wall_limit_ms,
        hw_prefetch: cfg.hw_prefetch,
        protocol: cfg.protocol,
        ..SimConfig::paper(cfg.procs, exp.transfer_cycles)
    }
}

/// Runs one experiment against a prepared trace: a validated raw trace and
/// the strategy's prefetch plan, which the simulator streams into it.
/// Insertions are prefetches, which synchronization rules never concern, so
/// one validation of the raw trace covers every strategy and latency cell
/// derived from it.
fn run_on_prepared(
    cfg: &RunConfig,
    exp: Experiment,
    prepared: PreparedTrace<'_>,
    observe: &ObserveSpec,
) -> Result<RunSummary, RunError> {
    let sim_cfg = sim_config(cfg, exp);
    let prefetches_inserted = prepared.inserted() as u64;
    if let Some(scfg) = cfg.sampling {
        let (report, sampled) =
            crate::sampling::run_sampled_on_prepared(&sim_cfg, prepared, &scfg)
                .map_err(RunError::Sim)?;
        return Ok(RunSummary {
            experiment: exp,
            report,
            prefetches_inserted,
            timeline: None,
            sampled: Some(sampled),
        });
    }
    let obs = observe.observability_for(exp)?;
    let (report, timeline) = simulate_observed_prevalidated(&sim_cfg, prepared, obs)?;
    Ok(RunSummary { experiment: exp, report, prefetches_inserted, timeline, sampled: None })
}

/// A raw-trace generator: [`generate`], except in tests that substitute a
/// failing one.
type Generator = fn(Workload, &WorkloadConfig) -> Trace;

/// Generates and validates `exp`'s raw trace under `cfg`.
fn generate_validated(
    cfg: &RunConfig,
    generator: Generator,
    exp: Experiment,
) -> Result<Trace, RunError> {
    let raw = generator(exp.workload, &workload_config(cfg, exp.layout));
    raw.validate().map_err(|e| RunError::Sim(SimError::InvalidTrace(e)))?;
    Ok(raw)
}

/// Runs one experiment under `cfg`, independent of any lab: generate,
/// validate, plan, simulate. It touches no shared state; a batch does the
/// same work with the raw trace and its marks shared between cells.
fn run_experiment(
    cfg: &RunConfig,
    generator: Generator,
    exp: Experiment,
    observe: &ObserveSpec,
) -> Result<RunSummary, RunError> {
    let raw = generate_validated(cfg, generator, exp)?;
    let plan = TraceMarks::new(&raw, cfg.geometry).plan(&raw, exp.strategy);
    run_on_prepared(cfg, exp, PreparedTrace::new(&raw, &plan), observe)
}

/// Fault-injection hook: consulted with the experiment before each run; a
/// `Some(error)` fails the cell without simulating.
type Injector = dyn Fn(Experiment) -> Option<RunError> + Send + Sync;

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` with the cell's fault injector (if any) consulted first, with
/// panics from either caught and converted into [`RunError::Panic`] so a
/// single bad cell cannot take down its batch.
fn isolated(
    exp: Experiment,
    injector: Option<&Injector>,
    f: impl FnOnce() -> Result<RunSummary, RunError>,
) -> Result<RunSummary, RunError> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(error) = injector.and_then(|inject| inject(exp)) {
            return Err(error);
        }
        f()
    }))
    .unwrap_or_else(|payload| Err(RunError::Panic(panic_message(payload.as_ref()))))
}

/// One panic-isolated cell execution independent of any [`Lab`] — the
/// entry point the serve daemon's worker pool uses. Exactly the unit of
/// work [`Lab::run_batch`] executes per cell (generate, validate, plan the
/// strategy, simulate), so a served summary is bit-identical to a batch
/// one; a panicking cell comes back as [`RunError::Panic`] instead of
/// unwinding the worker.
pub fn execute_cell(cfg: &RunConfig, exp: Experiment) -> Result<RunSummary, RunError> {
    isolated(exp, None, || run_experiment(cfg, generate, exp, &ObserveSpec::default()))
}

/// A raw trace with its oracle marks, shared by every strategy and latency
/// cell of one (workload, layout) in a batch. The marks are made by the
/// first group that plans, so their cost is charged to a cell, not to the
/// batch's setup.
struct RawTrace {
    trace: Trace,
    marks: OnceLock<TraceMarks>,
}

/// A batch's raw traces, one slot per (workload, layout). A slot generates
/// its trace when the first group asks for it and drops it when the last
/// group releases it, so a batch holds only the traces in use, not every
/// trace it will need.
struct RawTraces<'a> {
    cfg: &'a RunConfig,
    generator: Generator,
    slots: HashMap<(Workload, Layout), Mutex<RawSlot>>,
    #[cfg(test)]
    counts: Mutex<TraceCounts>,
}

struct RawSlot {
    /// `None` until the first group asks; then the trace, or the error
    /// generating it, until the last group releases it.
    raw: Option<Result<Arc<RawTrace>, RunError>>,
    groups_left: usize,
}

/// How a batch's raw traces lived; tests check the lifecycle with it.
#[cfg(test)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct TraceCounts {
    /// Generations run (successful or not).
    generated: usize,
    /// Raw traces resident now.
    resident: usize,
    /// High-water mark of `resident`.
    peak: usize,
}

#[cfg(test)]
impl TraceCounts {
    fn generated(&mut self, resident: bool) {
        self.generated += 1;
        self.resident += usize::from(resident);
        self.peak = self.peak.max(self.resident);
    }
}

impl<'a> RawTraces<'a> {
    /// Empty slots for `groups`, each of which reads the raw trace of its
    /// first cell's (workload, layout).
    fn new(cfg: &'a RunConfig, generator: Generator, groups: &[Vec<(usize, Experiment)>]) -> Self {
        let mut groups_per_raw: HashMap<(Workload, Layout), usize> = HashMap::new();
        for &(_, first) in groups.iter().map(|g| &g[0]) {
            *groups_per_raw.entry((first.workload, first.layout)).or_default() += 1;
        }
        RawTraces {
            cfg,
            generator,
            slots: groups_per_raw
                .into_iter()
                .map(|(key, groups_left)| (key, Mutex::new(RawSlot { raw: None, groups_left })))
                .collect(),
            #[cfg(test)]
            counts: Mutex::default(),
        }
    }

    /// The slot for `exp`'s raw trace. Every update (a generation, a clone,
    /// a decrement, a `take`) leaves it whole, so a guard poisoned by
    /// another worker's panic is still valid.
    fn lock(&self, exp: Experiment) -> MutexGuard<'_, RawSlot> {
        self.slots[&(exp.workload, exp.layout)].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The raw trace for a group whose first cell is `exp`. The first
    /// group to ask generates and validates it, under the slot's lock and
    /// with the same panic isolation as a cell, so a failed generation
    /// fails exactly the cells of that trace and runs once.
    fn get(&self, exp: Experiment) -> Result<Arc<RawTrace>, RunError> {
        let mut slot = self.lock(exp);
        assert!(slot.groups_left > 0, "a raw trace is asked for only by its own groups");
        slot.raw
            .get_or_insert_with(|| {
                let raw = catch_unwind(AssertUnwindSafe(|| {
                    let trace = generate_validated(self.cfg, self.generator, exp)?;
                    Ok(Arc::new(RawTrace { trace, marks: OnceLock::new() }))
                }))
                .unwrap_or_else(|payload| Err(RunError::Panic(panic_message(payload.as_ref()))));
                #[cfg(test)]
                self.counts.lock().expect("no panic while counting").generated(raw.is_ok());
                raw
            })
            .clone()
    }

    /// Called once per group when it finishes, with the handle `get` gave
    /// it: the last group drops the trace and its marks.
    fn release(&self, exp: Experiment, raw: Result<Arc<RawTrace>, RunError>) {
        drop(raw);
        let mut slot = self.lock(exp);
        slot.groups_left -= 1;
        if slot.groups_left == 0 {
            #[cfg(test)]
            if let Some(Ok(_)) = slot.raw {
                self.counts.lock().expect("no panic while counting").resident -= 1;
            }
            slot.raw = None;
        }
    }
}

/// Plans `strategy` on a batch-shared raw trace with the same panic
/// isolation as [`run_cell`]. One plan serves every latency cell of a
/// (workload, layout, strategy) group — planning does not depend on the
/// transfer latency — and the first plan of a raw trace computes the
/// oracle marks the others reuse.
fn plan_strategy(
    strategy: Strategy,
    raw: &RawTrace,
    geometry: CacheGeometry,
) -> Result<PrefetchPlan, RunError> {
    catch_unwind(AssertUnwindSafe(|| {
        raw.marks.get_or_init(|| TraceMarks::new(&raw.trace, geometry)).plan(&raw.trace, strategy)
    }))
        .map_err(|payload| RunError::Panic(panic_message(payload.as_ref())))
}

/// Memoizing experiment runner.
///
/// Completed [`RunSummary`]s are cached, so the table/figure reproductions
/// can share the underlying runs. A batch ([`Lab::run_batch`]) shares one
/// raw trace among all the cells of a (workload, layout): it is generated
/// when the first of them starts and dropped when the last one finishes.
/// A serial [`Lab::run`] generates its own.
pub struct Lab {
    cfg: RunConfig,
    runs: HashMap<Experiment, RunSummary>,
    meta: HashMap<Experiment, RunMeta>,
    stats: LabStats,
    injector: Option<Box<Injector>>,
    observe: ObserveSpec,
    generator: Generator,
    /// The raw-trace lifecycle of the last batch.
    #[cfg(test)]
    trace_counts: TraceCounts,
}

impl Lab {
    /// Creates an empty lab.
    pub fn new(cfg: RunConfig) -> Self {
        Lab {
            cfg,
            runs: HashMap::new(),
            meta: HashMap::new(),
            stats: LabStats::default(),
            injector: None,
            observe: ObserveSpec::default(),
            generator: generate,
            #[cfg(test)]
            trace_counts: TraceCounts::default(),
        }
    }

    /// The lab's run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Attaches observability to every subsequent run: per-run sampled
    /// timelines ([`RunSummary::timeline`]) and/or per-run JSONL trace
    /// files. Memoized results are unaffected — set the spec before running.
    /// The default spec turns everything off again.
    pub fn set_observe(&mut self, observe: ObserveSpec) {
        self.observe = observe;
    }

    /// Installs a fault injector: before each non-memoized run the hook is
    /// consulted with the experiment, and a `Some(error)` fails that cell.
    /// Injected failures flow through exactly the same isolation, retry and
    /// reporting paths as organic ones — this is how the failure machinery
    /// itself is tested.
    pub fn set_fault_injector<F>(&mut self, inject: F)
    where
        F: Fn(Experiment) -> Option<RunError> + Send + Sync + 'static,
    {
        self.injector = Some(Box::new(inject));
    }

    /// Removes any installed fault injector.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Ensures `exp` is memoized, simulating it serially if needed.
    fn ensure(&mut self, exp: Experiment) -> Result<(), RunError> {
        if self.runs.contains_key(&exp) {
            self.stats.memo_hits += 1;
            return Ok(());
        }
        self.stats.memo_misses += 1;
        let started = Instant::now();
        let summary = self.run_cell(exp)?;
        self.meta.insert(
            exp,
            RunMeta { wall_nanos: started.elapsed().as_nanos(), worker: 0, via_batch: false },
        );
        self.runs.insert(exp, summary);
        Ok(())
    }

    /// One isolated cell execution: generate, validate, plan, simulate.
    fn run_cell(&self, exp: Experiment) -> Result<RunSummary, RunError> {
        isolated(exp, self.injector.as_deref(), || {
            run_experiment(&self.cfg, self.generator, exp, &self.observe)
        })
    }

    /// Runs (or returns the cached result of) `exp`.
    ///
    /// # Panics
    ///
    /// Panics if the run fails — for generated traces that indicates a bug
    /// in the generators or the simulator, not user error. Use
    /// [`Lab::try_run`] to handle failures programmatically.
    pub fn run(&mut self, exp: Experiment) -> &RunSummary {
        if let Err(e) = self.ensure(exp) {
            panic!("simulating {exp}: {e}");
        }
        &self.runs[&exp]
    }

    /// Fallible [`Lab::run`]: failures come back as [`RunError`] instead of
    /// panicking. Failed runs are not memoized.
    pub fn try_run(&mut self, exp: Experiment) -> Result<&RunSummary, RunError> {
        self.ensure(exp)?;
        Ok(&self.runs[&exp])
    }

    /// Injects a checkpointed summary into the memo without simulating
    /// (resume path: cells journaled by an earlier, interrupted batch).
    pub fn restore(&mut self, summary: RunSummary) {
        self.stats.restored += 1;
        self.meta.insert(
            summary.experiment,
            RunMeta { wall_nanos: 0, worker: 0, via_batch: false },
        );
        self.runs.insert(summary.experiment, summary);
    }

    /// Runs every experiment in `exps` that is not already memoized,
    /// fanning the worklist out over `jobs` worker threads (`0` = one per
    /// available core), and merges the results into the memo.
    ///
    /// Results are bit-identical to running each experiment through
    /// [`Lab::run`]: cells share a raw trace, its oracle marks and a
    /// strategy's prefetch plan, all deterministic functions of the lab
    /// seed, and each simulates in isolation, so neither worker count nor
    /// completion order can influence any report.
    ///
    /// Memory follows the work in flight. Each raw trace is generated when
    /// the first cell that needs it starts, not before the batch, and
    /// dropped when the last one finishes; cells run grouped by trace, so
    /// a batch holds at most one raw trace per worker whatever order `exps`
    /// lists them in. Generation is charged to no cell's [`RunMeta`].
    ///
    /// A batch never aborts: failed cells (panic, simulator error, watchdog
    /// trip) are isolated, re-run once serially to classify the failure, and
    /// reported in [`BatchReport::failures`] while every healthy cell
    /// completes normally.
    pub fn run_batch(&mut self, exps: &[Experiment], jobs: usize) -> BatchReport {
        self.run_batch_inner(exps, jobs, None)
    }

    /// [`Lab::run_batch`] with a checkpoint journal: each completed
    /// [`RunSummary`] is appended (and flushed) the moment it exists, so an
    /// interrupted batch can be resumed by restoring the journal into a
    /// fresh lab. Resumed and fresh campaigns produce byte-identical
    /// reports — the journal round-trip is exact.
    pub fn run_batch_checkpointed(
        &mut self,
        exps: &[Experiment],
        jobs: usize,
        journal: &mut crate::checkpoint::Journal,
    ) -> BatchReport {
        let mut sink = |summary: &RunSummary| journal.append(summary);
        self.run_batch_inner(exps, jobs, Some(&mut sink))
    }

    fn run_batch_inner(
        &mut self,
        exps: &[Experiment],
        jobs: usize,
        mut on_complete: Option<&mut dyn FnMut(&RunSummary)>,
    ) -> BatchReport {
        let started = Instant::now();
        self.stats.batches += 1;

        // Deduplicate while preserving order; skip memoized cells.
        let mut todo: Vec<Experiment> = Vec::new();
        let mut memo_hits = 0usize;
        for &exp in exps {
            if self.runs.contains_key(&exp) {
                memo_hits += 1;
            } else if !todo.contains(&exp) {
                todo.push(exp);
            }
        }
        self.stats.memo_hits += memo_hits as u64;
        self.stats.memo_misses += todo.len() as u64;

        // Group cells that can share a prefetch plan: within one (workload,
        // layout, strategy) group only the transfer latency varies, and
        // neither trace generation nor planning depends on it. A batch
        // therefore generates+validates each raw trace once per (workload,
        // layout), computes its oracle marks once (in the first group that
        // plans from it), and plans each strategy once per group, instead
        // of redoing all three for every cell.
        let mut group_of: HashMap<(Workload, Layout, Strategy), usize> = HashMap::new();
        let mut trace_rank: HashMap<(Workload, Layout), usize> = HashMap::new();
        let mut groups: Vec<Vec<(usize, Experiment)>> = Vec::new();
        for (i, &exp) in todo.iter().enumerate() {
            let rank = trace_rank.len();
            trace_rank.entry((exp.workload, exp.layout)).or_insert(rank);
            let g = *group_of.entry((exp.workload, exp.layout, exp.strategy)).or_insert_with(
                || {
                    groups.push(Vec::new());
                    groups.len() - 1
                },
            );
            groups[g].push((i, exp));
        }
        // Trace-major: the groups of one raw trace run back to back (in
        // order of first appearance), so with workers taking groups in
        // order a trace's lifetime spans only its own groups. Results merge
        // by `todo` index, so the order here never shows in any output.
        groups.sort_by_key(|g| trace_rank[&(g[0].1.workload, g[0].1.layout)]);

        let jobs = Self::resolve_jobs(jobs).min(groups.len().max(1));
        let cfg = &self.cfg;
        let injector = self.injector.as_deref();
        let observe = &self.observe;
        let traces = RawTraces::new(cfg, self.generator, &groups);
        let traces = &traces;

        // `parallel::map_observed` returns results in submission order, so
        // the merge below is deterministic regardless of worker scheduling;
        // the observer journals successes in completion order from the
        // caller's thread (order inside the journal does not matter — it is
        // a set of cells, replayed into a memo on resume).
        let group_results = crate::parallel::map_observed(
            &groups,
            jobs,
            |worker, group| {
                let (_, first) = group[0];
                // Generating the trace (or waiting for the worker that is)
                // is charged to no cell: it stays in the batch's setup.
                let raw = traces.get(first);
                let plan_start = Instant::now();
                let plan = match &raw {
                    Ok(raw) => plan_strategy(first.strategy, raw, cfg.geometry),
                    Err(error) => Err(error.clone()),
                };
                let plan_nanos = plan_start.elapsed().as_nanos();
                let cells = group
                    .iter()
                    .enumerate()
                    .map(|(k, &(i, exp))| {
                        let t0 = Instant::now();
                        let outcome = match (&raw, &plan) {
                            (Ok(raw), Ok(plan)) => isolated(exp, injector, || {
                                let prepared = PreparedTrace::new(&raw.trace, plan);
                                run_on_prepared(cfg, exp, prepared, observe)
                            }),
                            (Err(error), _) | (_, Err(error)) => Err(error.clone()),
                        };
                        // The one-off planning cost is charged to the
                        // group's first cell.
                        let nanos = t0.elapsed().as_nanos() + if k == 0 { plan_nanos } else { 0 };
                        (i, outcome, nanos, worker)
                    })
                    .collect::<Vec<_>>();
                traces.release(first, raw);
                cells
            },
            |_, cells| {
                if let Some(cb) = on_complete.as_deref_mut() {
                    for cell in cells {
                        if let Ok(summary) = &cell.1 {
                            cb(summary);
                        }
                    }
                }
            },
        );

        #[cfg(test)]
        {
            self.trace_counts = *traces.counts.lock().expect("no panic while counting");
        }

        // Flatten back to `todo` order (groups interleave cells).
        let mut results: Vec<Option<(Result<RunSummary, RunError>, u128, usize)>> =
            todo.iter().map(|_| None).collect();
        for cells in group_results {
            for (i, outcome, nanos, worker) in cells {
                results[i] = Some((outcome, nanos, worker));
            }
        }

        let mut sim_nanos = 0u128;
        let mut executed = 0usize;
        let mut failures: Vec<RunFailure> = Vec::new();
        for (i, &exp) in todo.iter().enumerate() {
            let (outcome, nanos, worker) =
                results[i].take().expect("every todo cell belongs to exactly one group");
            sim_nanos += nanos;
            match outcome {
                Ok(summary) => {
                    executed += 1;
                    self.meta
                        .insert(exp, RunMeta { wall_nanos: nanos, worker, via_batch: jobs > 1 });
                    self.runs.insert(exp, summary);
                }
                Err(error) => {
                    // Bounded diagnosis: serial re-runs distinguish a
                    // deterministic failure from harness nondeterminism and
                    // rescue transient ones. Failures classified as
                    // transient I/O get a capped exponential-backoff ladder
                    // (the filesystem gets time to recover); everything
                    // else gets exactly one immediate re-run.
                    let transient = error.is_transient_io();
                    let policy = if transient {
                        RetryPolicy::TRANSIENT_IO
                    } else {
                        RetryPolicy::NONE
                    };
                    let salt = experiment_salt(exp);
                    let mut recovered = None;
                    let mut last = error.clone();
                    for attempt in 0..policy.attempts {
                        if transient {
                            std::thread::sleep(policy.delay(attempt, salt));
                        }
                        match self.run_cell(exp) {
                            Ok(summary) => {
                                recovered = Some(summary);
                                break;
                            }
                            Err(second) => {
                                let diverged = second != last;
                                last = second;
                                // A deterministic failure that re-fails
                                // *differently* is already diagnosed as
                                // nondeterminism; further attempts add
                                // nothing.
                                if diverged && !transient {
                                    break;
                                }
                            }
                        }
                    }
                    match recovered {
                        Some(summary) => {
                            executed += 1;
                            if let Some(cb) = on_complete.as_deref_mut() {
                                cb(&summary);
                            }
                            self.meta.insert(
                                exp,
                                RunMeta { wall_nanos: nanos, worker, via_batch: jobs > 1 },
                            );
                            self.runs.insert(exp, summary);
                        }
                        None => {
                            let retry = if last == error {
                                RetryOutcome::Reproduced
                            } else {
                                RetryOutcome::DivergedError(last)
                            };
                            failures.push(RunFailure { experiment: exp, error, retry });
                        }
                    }
                }
            }
        }
        self.stats.batch_executed += executed as u64;

        BatchReport {
            requested: exps.len(),
            memo_hits,
            executed,
            jobs,
            wall_nanos: started.elapsed().as_nanos(),
            sim_nanos,
            failures,
        }
    }

    /// Pre-computes the paper's entire experiment grid (every cell any
    /// exhibit of §4 reads) on `jobs` workers, so subsequent table/figure
    /// calls are pure memo lookups.
    pub fn prefetch_all(&mut self, jobs: usize) -> BatchReport {
        let grid = crate::experiments::full_grid();
        self.run_batch(&grid, jobs)
    }

    /// [`Lab::prefetch_all`] journaling each completed cell to `journal`
    /// (see [`Lab::run_batch_checkpointed`]).
    pub fn prefetch_all_checkpointed(
        &mut self,
        jobs: usize,
        journal: &mut crate::checkpoint::Journal,
    ) -> BatchReport {
        let grid = crate::experiments::full_grid();
        self.run_batch_checkpointed(&grid, jobs, journal)
    }

    /// Normalizes a `--jobs`-style request: `0` means one worker per
    /// available core; anything else is clamped to [`MAX_JOBS`].
    pub fn resolve_jobs(jobs: usize) -> usize {
        if jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            jobs.min(MAX_JOBS)
        }
    }

    /// Execution time of `exp` relative to its NP baseline (the paper's
    /// Figure 2 / Table 5 metric; < 1 means prefetching sped the program up).
    pub fn relative_time(&mut self, exp: Experiment) -> f64 {
        let base = self.run(exp.baseline()).report.cycles as f64;
        let this = self.run(exp).report.cycles as f64;
        this / base
    }

    /// Number of distinct experiments run so far.
    pub fn runs_completed(&self) -> usize {
        self.runs.len()
    }

    /// Execution metadata for a completed experiment (`None` if it has not
    /// run).
    pub fn meta(&self, exp: Experiment) -> Option<RunMeta> {
        self.meta.get(&exp).copied()
    }

    /// Memo and batch accounting counters.
    pub fn stats(&self) -> LabStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lab() -> Lab {
        Lab::new(RunConfig { procs: 4, refs_per_proc: 2_000, seed: 7, ..RunConfig::default() })
    }

    /// The keys `experiments --resume` and `sweep --resume` journals were
    /// written under before `journal_key` built them: old journals must
    /// still resume. (The daemon's keys are pinned in `charlie-serve`.)
    #[test]
    fn journal_keys_match_historical_journals() {
        let paper =
            RunConfig { procs: 8, refs_per_proc: 160_000, seed: 0xC0FFEE, ..RunConfig::default() };
        assert_eq!(paper.journal_key("all_experiments"), "all_experiments/p8/r160000/s0xc0ffee");
        let hw = RunConfig { hw_prefetch: HwPrefetchConfig::stride(2, 4), ..paper };
        assert_eq!(
            hw.journal_key("all_experiments"),
            "all_experiments/p8/r160000/s0xc0ffee/hw=stride:2:4"
        );
        let off = RunConfig { hw_prefetch: HwPrefetchConfig::parse("stride:0").unwrap(), ..paper };
        assert_eq!(off.journal_key("all_experiments"), "all_experiments/p8/r160000/s0xc0ffee");

        let sweep = RunConfig { procs: 2, refs_per_proc: 900, ..paper };
        let name = format!("sweep/{}/{:?}", Workload::Water.name(), Layout::Interleaved);
        assert_eq!(sweep.journal_key(&name), "sweep/Water/Interleaved/p2/r900/s0xc0ffee");
        let moesi = RunConfig { protocol: Protocol::Moesi, ..sweep };
        assert_eq!(
            moesi.journal_key("sweep/Mp3d/Padded"),
            "sweep/Mp3d/Padded/p2/r900/s0xc0ffee/proto=moesi"
        );
    }

    #[test]
    fn run_is_memoized() {
        let mut lab = tiny_lab();
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let first = lab.run(exp).clone();
        let second = lab.run(exp).clone();
        assert_eq!(first, second);
        assert_eq!(lab.runs_completed(), 1);
        assert_eq!(lab.stats(), LabStats { memo_hits: 1, memo_misses: 1, ..LabStats::default() });
    }

    #[test]
    fn batch_matches_serial_and_fills_memo() {
        let exps = [
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Water, Strategy::Pref, 8),
            Experiment::paper(Workload::Mp3d, Strategy::Pws, 16),
        ];
        let mut serial = tiny_lab();
        let mut parallel = tiny_lab();
        let report = parallel.run_batch(&exps, 3);
        assert_eq!(report.executed, 3);
        assert_eq!(report.memo_hits, 0);
        for exp in exps {
            assert_eq!(serial.run(exp), &parallel.runs[&exp]);
            let meta = parallel.meta(exp).expect("batch records metadata");
            assert!(meta.via_batch);
            assert!(meta.worker < 3);
        }
        // The batch populated the memo: re-running simulates nothing.
        let again = parallel.run_batch(&exps, 3);
        assert_eq!(again.executed, 0);
        assert_eq!(again.memo_hits, 3);
    }

    #[test]
    fn sampling_records_timeline_without_perturbing_report() {
        let exp = Experiment::paper(Workload::Mp3d, Strategy::Pref, 16);
        let mut plain = tiny_lab();
        let baseline = plain.run(exp).clone();
        assert!(baseline.timeline.is_none(), "observation is off by default");

        let mut observed = tiny_lab();
        observed.set_observe(ObserveSpec {
            sample_interval: Some(5_000),
            ..ObserveSpec::default()
        });
        let sampled = observed.run(exp).clone();
        assert_eq!(sampled.report, baseline.report, "sampling must not change results");
        let timeline = sampled.timeline.expect("sampled run records a timeline");
        assert!(!timeline.windows.is_empty());
        assert_eq!(timeline.total_bus_busy(), sampled.report.bus.busy_cycles);
    }

    #[test]
    fn tracing_writes_one_jsonl_file_per_run() {
        let dir = std::env::temp_dir()
            .join(format!("charlie-lab-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut lab = tiny_lab();
        lab.set_observe(ObserveSpec {
            trace_dir: Some(dir.clone()),
            ..ObserveSpec::default()
        });
        let exp = Experiment::paper(Workload::Water, Strategy::Pref, 8);
        lab.run(exp);
        let path = dir.join("Water-PREF-8cy-Interleaved.jsonl");
        let body = std::fs::read_to_string(&path).expect("trace file written");
        assert!(!body.is_empty());
        for line in body.lines().take(50) {
            assert!(line.starts_with("{\"t\":"), "JSONL schema: {line}");
            assert!(line.ends_with('}'), "JSONL schema: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_trace_dir_is_a_run_error() {
        let mut lab = tiny_lab();
        lab.set_observe(ObserveSpec {
            trace_dir: Some(PathBuf::from("/nonexistent/charlie-trace-dir")),
            ..ObserveSpec::default()
        });
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        match lab.try_run(exp) {
            Err(RunError::Trace(msg)) => assert!(msg.contains("trace file"), "{msg}"),
            other => panic!("expected trace error, got {other:?}"),
        }
    }

    /// Strategy-major cells: every (workload, layout) recurs once per
    /// strategy, the order that makes a batch hold every trace at once
    /// unless it runs trace-major.
    fn strategy_major_cells() -> Vec<Experiment> {
        let mut cells = Vec::new();
        for strategy in Strategy::ALL {
            for workload in [Workload::Water, Workload::Mp3d, Workload::Topopt] {
                for transfer in [8, 32] {
                    cells.push(Experiment::paper(workload, strategy, transfer));
                }
            }
            cells.push(Experiment::paper(Workload::Topopt, strategy, 8).restructured());
        }
        cells
    }

    #[test]
    fn batch_generates_each_trace_once_and_holds_one_per_worker() {
        let cells = strategy_major_cells();
        let mut workload_major = cells.clone();
        workload_major.sort_by_key(|e| (e.workload as usize, e.layout as usize));
        let mut reference = tiny_lab();
        assert!(reference.run_batch(&workload_major, 1).is_complete());
        for jobs in [1, 2] {
            let mut lab = tiny_lab();
            let report = lab.run_batch(&cells, jobs);
            assert!(report.is_complete(), "jobs {jobs}: {:?}", report.failure_summary());
            let counts = lab.trace_counts;
            assert_eq!(counts.generated, 4, "jobs {jobs}: one generation per (workload, layout)");
            assert!(counts.peak <= jobs, "jobs {jobs}: {} raw traces resident", counts.peak);
            assert_eq!(counts.resident, 0, "jobs {jobs}: every trace dropped by the batch's end");
            for &exp in &cells {
                assert_eq!(lab.runs[&exp], reference.runs[&exp], "jobs {jobs}: {exp}");
            }
        }
    }

    fn mp3d_generator_panics(workload: Workload, cfg: &WorkloadConfig) -> Trace {
        assert!(workload != Workload::Mp3d, "generator blew up");
        generate(workload, cfg)
    }

    #[test]
    fn panicking_generator_fails_exactly_its_traces_cells() {
        let cells = strategy_major_cells();
        let mut healthy = tiny_lab();
        let mut lab = tiny_lab();
        lab.generator = mp3d_generator_panics;
        // The generator's panics print to stderr via the default hook;
        // silence it for the duration so test output stays readable.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = lab.run_batch(&cells, 2);
        std::panic::set_hook(hook);
        assert_eq!(lab.trace_counts.generated, 4, "a failed generation is not retried in-batch");
        let failed: Vec<Experiment> = report.failures.iter().map(|f| f.experiment).collect();
        let mp3d: Vec<Experiment> =
            cells.iter().copied().filter(|e| e.workload == Workload::Mp3d).collect();
        assert_eq!(failed, mp3d);
        for failure in &report.failures {
            assert_eq!(failure.error, RunError::Panic("generator blew up".into()));
            assert_eq!(failure.retry, RetryOutcome::Reproduced);
        }
        for exp in cells.into_iter().filter(|e| e.workload != Workload::Mp3d) {
            assert_eq!(&lab.runs[&exp], healthy.run(exp), "{exp}");
        }
    }

    #[test]
    fn batch_deduplicates_requests() {
        let exp = Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8);
        let mut lab = tiny_lab();
        let report = lab.run_batch(&[exp, exp, exp], 2);
        assert_eq!(report.requested, 3);
        assert_eq!(report.executed, 1);
        assert_eq!(lab.runs_completed(), 1);
    }

    /// Load-bearing for the shared-trace batch path: a batch validates each
    /// raw trace once and simulates the *prepared* traces prevalidated, so
    /// `charlie_prefetch::apply` must never turn a valid trace invalid —
    /// for any workload, layout or strategy.
    #[test]
    fn apply_preserves_trace_validity() {
        let cfg = RunConfig { procs: 4, refs_per_proc: 1_500, seed: 11, ..RunConfig::default() };
        for workload in Workload::ALL {
            for layout in [Layout::Interleaved, Layout::Padded] {
                let raw = generate(workload, &workload_config(&cfg, layout));
                raw.validate().expect("generators emit valid traces");
                for strategy in Strategy::ALL {
                    let prepared = charlie_prefetch::apply(strategy, &raw, cfg.geometry);
                    prepared.validate().unwrap_or_else(|e| {
                        panic!("apply({strategy}) broke {workload}/{layout:?}: {e}")
                    });
                }
            }
        }
    }

    #[test]
    fn single_job_batch_stays_on_the_serial_path() {
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let mut lab = tiny_lab();
        let report = lab.run_batch(&[exp], 1);
        assert_eq!(report.jobs, 1);
        assert!(!lab.meta(exp).unwrap().via_batch);
    }

    #[test]
    fn resolve_jobs_normalizes() {
        assert!(Lab::resolve_jobs(0) >= 1);
        assert_eq!(Lab::resolve_jobs(5), 5);
        assert_eq!(Lab::resolve_jobs(usize::MAX), MAX_JOBS);
    }

    #[test]
    fn prefetch_all_covers_every_exhibit_cell() {
        let mut lab =
            Lab::new(RunConfig { procs: 2, refs_per_proc: 400, seed: 7, ..RunConfig::default() });
        let report = lab.prefetch_all(0);
        assert_eq!(report.executed, lab.runs_completed());
        let before = lab.runs_completed();
        // Regenerating every exhibit must not trigger a single new run.
        let _ = crate::experiments::figure1(&mut lab);
        let _ = crate::experiments::table2(&mut lab);
        let _ = crate::experiments::figure2(&mut lab);
        let _ = crate::experiments::figure3(&mut lab);
        let _ = crate::experiments::table3(&mut lab);
        let _ = crate::experiments::table4(&mut lab);
        let _ = crate::experiments::table5(&mut lab);
        let _ = crate::experiments::processor_utilization(&mut lab);
        assert_eq!(lab.runs_completed(), before, "an exhibit escaped full_grid()");
    }

    #[test]
    fn np_inserts_no_prefetches() {
        let mut lab = tiny_lab();
        let s = lab.run(Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8));
        assert_eq!(s.prefetches_inserted, 0);
        assert_eq!(s.report.prefetch.executed, 0);
    }

    #[test]
    fn pref_inserts_prefetches_and_they_execute() {
        let mut lab = tiny_lab();
        let s = lab.run(Experiment::paper(Workload::Mp3d, Strategy::Pref, 8));
        assert!(s.prefetches_inserted > 0);
        assert_eq!(s.report.prefetch.executed, s.prefetches_inserted);
    }

    #[test]
    fn relative_time_of_baseline_is_one() {
        let mut lab = tiny_lab();
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        assert!((lab.relative_time(exp) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn injected_failure_is_isolated_and_diagnosed() {
        let bad = Experiment::paper(Workload::Mp3d, Strategy::Pref, 8);
        let exps = [
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            bad,
            Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8),
        ];
        let mut lab = tiny_lab();
        lab.set_fault_injector(move |exp| {
            (exp == bad).then(|| RunError::Panic("injected".into()))
        });
        let report = lab.run_batch(&exps, 2);
        assert_eq!(report.executed, 2, "healthy cells complete");
        assert_eq!(report.failures.len(), 1);
        assert!(!report.is_complete());
        let failure = &report.failures[0];
        assert_eq!(failure.experiment, bad);
        assert_eq!(failure.error, RunError::Panic("injected".into()));
        assert_eq!(failure.retry, RetryOutcome::Reproduced);
        assert!(!lab.runs.contains_key(&bad), "failed cells are not memoized");
        let summary = report.failure_summary().expect("incomplete batch summarizes");
        assert!(summary.contains("1 of 3 attempted cells failed"), "{summary}");
        assert!(summary.contains("deterministic (reproduced on retry)"), "{summary}");
    }

    #[test]
    fn real_panic_in_worker_is_caught() {
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let mut lab = tiny_lab();
        lab.set_fault_injector(|_| -> Option<RunError> { panic!("worker blew up") });
        // Injected panics print to stderr via the default hook; silence it
        // for the duration so test output stays readable.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = lab.run_batch(&[exp], 1);
        let err = lab.try_run(exp).unwrap_err();
        std::panic::set_hook(hook);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].error, RunError::Panic("worker blew up".into()));
        assert_eq!(err, RunError::Panic("worker blew up".into()));
    }

    #[test]
    fn transient_failure_recovers_on_retry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let armed = Arc::new(AtomicBool::new(true));
        let trigger = Arc::clone(&armed);
        let mut lab = tiny_lab();
        lab.set_fault_injector(move |_| {
            trigger
                .swap(false, Ordering::SeqCst)
                .then(|| RunError::Trace("flaky read".into()))
        });
        let report = lab.run_batch(&[exp], 1);
        assert!(report.is_complete(), "transient failure rescued by retry");
        assert_eq!(report.executed, 1);
        assert!(lab.runs.contains_key(&exp), "recovered cell is memoized");
    }

    /// The transient-I/O ladder survives *consecutive* faults: two flaky
    /// reads in a row still recover on the third attempt, where the old
    /// single blind retry would have given up after one.
    #[test]
    fn transient_io_ladder_survives_consecutive_faults() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let mut lab = tiny_lab();
        lab.set_fault_injector(move |_| {
            (seen.fetch_add(1, Ordering::SeqCst) < 2)
                .then(|| RunError::Trace("flaky read".into()))
        });
        let report = lab.run_batch(&[exp], 1);
        assert!(report.is_complete(), "two consecutive transient faults rescued");
        assert_eq!(calls.load(Ordering::SeqCst), 3, "batch run + two ladder attempts");
        assert!(lab.runs.contains_key(&exp));
    }

    /// Deterministic failures (anything but `RunError::Trace`) still get
    /// exactly one diagnostic re-run — the ladder is reserved for I/O.
    #[test]
    fn deterministic_failure_gets_single_rerun() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let mut lab = tiny_lab();
        lab.set_fault_injector(move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
            Some(RunError::Panic("always".into()))
        });
        let report = lab.run_batch(&[exp], 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].retry, RetryOutcome::Reproduced);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "batch run + one diagnostic re-run only");
    }

    /// The batch engine's backoff schedule is the shared
    /// [`RetryPolicy::TRANSIENT_IO`] ladder, seeded per cell: deterministic
    /// for a given experiment, distinct across experiments.
    #[test]
    fn retry_delay_is_capped_and_jittered() {
        let policy = RetryPolicy::TRANSIENT_IO;
        let salt = experiment_salt(Experiment::paper(Workload::Mp3d, Strategy::Pref, 8));
        for attempt in 0..10u32 {
            let nominal = (policy.base_ms << attempt.min(16)).min(policy.cap_ms);
            let ms = policy.delay(attempt, salt).as_millis() as u64;
            assert!(
                ms >= nominal * 3 / 4 && ms < nominal + nominal / 4 + 1,
                "attempt {attempt}: {ms}ms outside ±25% of {nominal}ms"
            );
            assert_eq!(policy.delay(attempt, salt), policy.delay(attempt, salt));
        }
        let other = experiment_salt(Experiment::paper(Workload::Water, Strategy::NoPrefetch, 16));
        assert_ne!(salt, other, "distinct cells seed distinct jitter streams");
    }

    /// An ample wall-clock limit flows through to the simulator without
    /// perturbing results; a 1 ms limit against a debug-build run (invariant
    /// checker on every transaction) trips [`SimError::WallClockExceeded`].
    #[test]
    fn wall_limit_threads_through_lab() {
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let base = tiny_lab().run(exp).clone();
        let cfg = RunConfig { wall_limit_ms: 600_000, ..*tiny_lab().config() };
        let ample = Lab::new(cfg).run(exp).clone();
        assert_eq!(base, ample, "an unhit wall limit is invisible in the report");
        let cfg = RunConfig { wall_limit_ms: 1, ..*tiny_lab().config() };
        match Lab::new(cfg).try_run(exp) {
            Err(RunError::Sim(SimError::WallClockExceeded { limit_ms, .. })) => {
                assert_eq!(limit_ms, 1);
            }
            other => panic!("expected WallClockExceeded, got {other:?}"),
        }
    }

    #[test]
    fn restore_skips_simulation_on_later_batches() {
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let mut fresh = tiny_lab();
        let summary = fresh.run(exp).clone();
        let mut resumed = tiny_lab();
        resumed.restore(summary.clone());
        assert_eq!(resumed.stats().restored, 1);
        let report = resumed.run_batch(&[exp], 2);
        assert_eq!(report.memo_hits, 1);
        assert_eq!(report.executed, 0);
        assert_eq!(resumed.run(exp), &summary);
    }

    #[test]
    fn clear_fault_injector_restores_health() {
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let mut lab = tiny_lab();
        lab.set_fault_injector(|_| Some(RunError::Trace("always".into())));
        assert!(lab.try_run(exp).is_err());
        lab.clear_fault_injector();
        assert!(lab.try_run(exp).is_ok());
    }

    #[test]
    fn watchdog_budget_scales_with_trace_size() {
        let small = RunConfig { procs: 2, refs_per_proc: 100, ..RunConfig::default() };
        let large = RunConfig { procs: 16, refs_per_proc: 1_000_000, ..RunConfig::default() };
        assert!(watchdog_budget(&small) >= WATCHDOG_EVENT_FLOOR);
        assert!(watchdog_budget(&large) > watchdog_budget(&small));
        // The budget must dwarf the real event count: a tiny run retires
        // every reference well inside it (checked end-to-end in
        // crates/sim watchdog tests and tests/fault_tolerance.rs).
        assert_eq!(
            watchdog_budget(&small),
            WATCHDOG_EVENT_FLOOR + WATCHDOG_EVENTS_PER_ACCESS * 200
        );
    }

    #[test]
    fn experiment_display() {
        let e = Experiment::paper(Workload::Mp3d, Strategy::Pws, 16);
        assert_eq!(e.to_string(), "Mp3d/PWS @16cy");
        assert_eq!(e.restructured().to_string(), "Mp3d/PWS @16cy (restructured)");
    }

    #[test]
    fn baseline_strips_strategy_only() {
        let e = Experiment::paper(Workload::Mp3d, Strategy::Lpd, 16).restructured();
        let b = e.baseline();
        assert_eq!(b.strategy, Strategy::NoPrefetch);
        assert_eq!(b.workload, e.workload);
        assert_eq!(b.layout, Layout::Padded);
    }
}
