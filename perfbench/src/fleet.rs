//! `fleet`: two in-process `run_worker` peers (`jobs = 1`, exit when idle)
//! shard one manifest of several hundred distinct tiny cells per round.
//! Every claim scans the whole shared journal three times, so the scans
//! grow with the square of the campaign and dominate the round.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use charlie::bus::BusConfig;
use charlie::checkpoint::{
    decode_lease, decode_summary, encode_summary, scan_shared, unframe_line,
};
use charlie::prefetch::Strategy;
use charlie::{execute_cell, Experiment, RunSummary, Workload};
use charlie_serve::client::{Grid, SubmitRequest};
use charlie_serve::worker::{collect, run_worker, write_manifest, WorkerConfig, WorkerReport};

use crate::serve_mixed::cell_config;
use crate::stats::{median, percentile, self_times, Tracer};
use crate::{
    refs, round_seed, set_guards, splitmix64, verify_against_execute_cell, Args, Outcome, RunDir,
    REF_SEED,
};

const WORKERS: usize = 2;
/// Long enough that no live worker ever loses a lease to a slow host.
const LEASE_MS: u64 = 30_000;
/// Idle poll of the workers (also their heartbeat tick). Short enough to
/// add little to a round, long enough that idle threads do not wake the
/// two busy cores a thousand times a second.
const WORKER_POLL_MS: u64 = 10;
/// Mean poll interval of the journal tail that times cells, in µs. Each
/// interval is drawn from [1, 3) ms: with a fixed period every measured
/// latency would be a whole number of periods.
const TAIL_POLL_US: u64 = 2_000;
/// `write_manifest` calls timed before the warm-up and after each timed
/// round, besides the one each round makes; `setup_s` is the fastest. The
/// call fsyncs the new journal, its manifest and the directory, and the
/// slow tail of those is the disk's, not the program's; spreading the calls
/// over the run keeps one slow stretch of the disk from setting the figure.
const SETUPS: usize = 8;
const MIN_ROUNDS: usize = 2;

/// 250 distinct cells: 5 workloads × 5 strategies × the paper's five
/// transfer latencies × both data layouts.
fn grid() -> Vec<Experiment> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for s in Strategy::ALL {
            for t in BusConfig::PAPER_SWEEP {
                let exp = Experiment::paper(w, s, t);
                cells.extend([exp, exp.restructured()]);
            }
        }
    }
    cells
}

fn request_line(seed: u64) -> String {
    let (procs, refs) = (cell_config(seed).procs, cell_config(seed).refs_per_proc);
    SubmitRequest {
        grid: Grid::Cells(grid()),
        procs: Some(procs),
        refs: Some(refs),
        seed: Some(seed),
        ..SubmitRequest::paper()
    }
    .encode()
}

/// Follows the growing journal from the benchmark's side, stamping when
/// each cell's claim and its summary first become visible.
#[derive(Default)]
struct Tail {
    offset: u64,
    partial: String,
    claimed: HashMap<u64, Instant>,
    published: HashMap<u64, Instant>,
}

impl Tail {
    fn poll(&mut self, path: &Path, index: &HashMap<Experiment, u64>) {
        let Ok(mut f) = File::open(path) else { return };
        let mut buf = String::new();
        if f.seek(SeekFrom::Start(self.offset)).is_err() || f.read_to_string(&mut buf).is_err() {
            return;
        }
        self.offset += buf.len() as u64;
        self.partial.push_str(&buf);
        let now = Instant::now();
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            let Ok(json) = unframe_line(line.trim_end()) else {
                continue;
            };
            if let Ok(lease) = decode_lease(json) {
                if lease.event.opens_generation() {
                    self.claimed.entry(lease.cell).or_insert(now);
                }
            } else if let Ok(s) = decode_summary(json) {
                if let Some(&cell) = index.get(&s.experiment) {
                    self.published.entry(cell).or_insert(now);
                }
            }
        }
    }

    /// Claim-to-publish time of every cell seen both claimed and published.
    fn cell_ms(&self) -> Vec<f64> {
        self.published
            .iter()
            .filter_map(|(cell, p)| {
                self.claimed
                    .get(cell)
                    .map(|c| (*p - *c).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

/// One campaign: manifest, two workers to completion, published summaries.
struct Round {
    seed: u64,
    setup_s: f64,
    wall_s: f64,
    cell_ms: Vec<f64>,
    reports: Vec<WorkerReport>,
    /// Published summaries in grid order; `None` for a missing cell.
    summaries: Vec<Option<RunSummary>>,
    duplicates: u64,
    journal: std::path::PathBuf,
    journal_bytes: u64,
    /// Worker errors.
    errors: Vec<String>,
}

fn run_round(dir: &Path, seed: u64) -> Result<Round, String> {
    let cells = grid();
    let index: HashMap<Experiment, u64> = cells
        .iter()
        .enumerate()
        .map(|(i, e)| (*e, i as u64))
        .collect();
    let line = request_line(seed);
    let t0 = Instant::now();
    let m = write_manifest(dir, &line).map_err(|e| format!("manifest: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut tail = Tail::default();
    let finished = AtomicUsize::new(0);
    let results: Vec<std::io::Result<WorkerReport>> = std::thread::scope(|scope| {
        let finished = &finished;
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let cfg = WorkerConfig {
                    id: format!("w{w}"),
                    lease_ms: LEASE_MS,
                    poll_ms: WORKER_POLL_MS,
                    jobs: 1,
                    exit_when_idle: true,
                    ..WorkerConfig::new(dir)
                };
                scope.spawn(move || {
                    let report = run_worker(&cfg);
                    finished.fetch_add(1, Ordering::SeqCst);
                    report
                })
            })
            .collect();
        let mut polls = 0u64;
        while finished.load(Ordering::SeqCst) < WORKERS {
            tail.poll(&m.journal, &index);
            polls += 1;
            let jitter = splitmix64(seed ^ polls) % TAIL_POLL_US;
            std::thread::sleep(Duration::from_micros(TAIL_POLL_US / 2 + jitter));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("worker panicked")))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tail.poll(&m.journal, &index);
    let mut reports = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(report) => reports.push(report),
            Err(e) => errors.push(e.to_string()),
        }
    }
    let summaries = collect(&m).map_err(|e| format!("collect: {e}"))?;
    let scan = scan_shared(&m.journal, Some(&m.key)).map_err(|e| format!("scan: {e}"))?;
    let journal_bytes = std::fs::metadata(&m.journal)
        .map(|md| md.len())
        .unwrap_or(0);
    Ok(Round {
        seed,
        setup_s,
        wall_s,
        cell_ms: tail.cell_ms(),
        reports,
        summaries,
        duplicates: scan.duplicate_summaries,
        journal: m.journal.clone(),
        journal_bytes,
        errors,
    })
}

/// Exactly-once publication: every cell published, no duplicate summary,
/// and the workers' completion counts add up to the grid.
fn check_published(round: &Round, out: &mut Outcome) {
    let missing = round.summaries.iter().filter(|s| s.is_none()).count();
    let completed: u64 = round.reports.iter().map(|r| r.completed).sum();
    let seed = round.seed;
    out.check(round.errors.is_empty(), || {
        format!("seed {seed}: worker errors {:?}", round.errors)
    });
    out.check(missing == 0, || {
        format!("seed {seed}: {missing} cell(s) never published")
    });
    out.check(round.duplicates == 0, || {
        format!("seed {seed}: {} cell(s) published twice", round.duplicates)
    });
    out.check(completed == round.summaries.len() as u64, || {
        format!(
            "seed {seed}: workers completed {completed} of {} cells",
            round.summaries.len()
        )
    });
}

/// Times [`SETUPS`] more `write_manifest` calls, each into a fresh
/// directory with its own seed.
fn time_setups(dir: &RunDir, seed: u64, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUPS {
        let k = setups.len();
        let d = dir.sub(&format!("setup-{k}"))?;
        let line = request_line(round_seed(seed, 1_000 + k as u64));
        let t0 = Instant::now();
        write_manifest(&d, &line).map_err(|e| format!("manifest: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    Ok(())
}

pub fn run(args: &Args, dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    time_setups(dir, args.seed, &mut setups)?;

    let warm = run_round(&dir.sub("warm")?, REF_SEED)?;
    check_published(&warm, &mut out);
    let published: Vec<RunSummary> = warm.summaries.iter().flatten().cloned().collect();
    out.ref_checksum = crate::checksum(&published);
    set_guards(&mut out, &published);
    if args.make_reference {
        return Ok(out);
    }

    let budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut r = 0u64;
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let round = run_round(&dir.sub(&format!("round-{r}"))?, round_seed(args.seed, r))?;
        r += 1;
        out.attempted += round.summaries.len() as u64;
        out.failed += round.summaries.iter().filter(|s| s.is_none()).count() as u64;
        check_published(&round, &mut out);
        setups.push(round.setup_s);
        rounds.push(round);
        time_setups(dir, args.seed, &mut setups)?;
    }

    let rate: Vec<f64> = rounds
        .iter()
        .map(|r| r.summaries.iter().flatten().map(refs).sum::<u64>() as f64 / r.wall_s)
        .collect();
    let cell_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cell_ms.iter().copied())
        .collect();
    out.set("refs_per_sec", median(&rate));
    out.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set(
        "submit_p50_ms",
        percentile(&cell_ms, 0.5).ok_or("too few cells for p50")?,
    );
    out.set(
        "submit_p90_ms",
        percentile(&cell_ms, 0.9).ok_or("too few cells for p90")?,
    );

    let cells = grid();
    if !args.trace {
        let checks: Vec<_> = rounds
            .iter()
            .flat_map(|r| {
                let cfg = cell_config(r.seed);
                cells
                    .iter()
                    .zip(&r.summaries)
                    .filter_map(move |(e, s)| Some((cfg, *e, s.as_ref()?)))
            })
            .collect();
        out.mismatches.extend(verify_against_execute_cell(&checks));
        return Ok(out);
    }

    // Traced pass: each published cell through `execute_cell` and the
    // summary codec, then one scan of the final journal.
    let (mut encodes, mut scans) = (0u64, 0u64);
    for round in &rounds {
        let cfg = cell_config(round.seed);
        let root = out.tracer.enter("round");
        for (exp, published) in cells.iter().zip(&round.summaries) {
            let tr = &mut out.tracer;
            let summary = tr.time("lab.execute_cell", || execute_cell(&cfg, *exp));
            if let Ok(s) = &summary {
                tr.time("wire.encode", || encode_summary(s));
                encodes += 1;
            }
            out.check(summary.as_ref().ok() == published.as_ref(), || {
                format!("seed {}: traced {exp} differs from the fleet's", cfg.seed)
            });
        }
        let scan = out
            .tracer
            .time("checkpoint.scan", || scan_shared(&round.journal, None));
        scan.map_err(|e| format!("scan: {e}"))?;
        scans += 1;
        out.tracer.exit(root);
    }
    let n = rounds.len() as f64;
    let selfs = self_times(out.tracer.spans());
    let per_round = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 * 1e-9 / n;
    let untraced_s = rounds.iter().map(|r| r.wall_s).sum::<f64>() / n;
    let exec_s = per_round("lab.execute_cell");
    out.set("lab.execute_cell_s", exec_s);
    out.set(
        "wire.encode_us",
        per_round("wire.encode") * 1e6 * n / encodes.max(1) as f64,
    );
    out.set(
        "checkpoint.scan_ms",
        per_round("checkpoint.scan") * 1e3 * n / scans.max(1) as f64,
    );
    out.set(
        "worker.journal_bytes",
        rounds.iter().map(|r| r.journal_bytes as f64).sum::<f64>() / n,
    );
    let total = |f: fn(&WorkerReport) -> u64| {
        rounds.iter().flat_map(|r| &r.reports).map(f).sum::<u64>() as f64 / n
    };
    out.set("worker.claims", total(|r| r.claimed));
    out.set("worker.fenced", total(|r| r.fenced));
    out.set(
        "worker.overhead_ms_per_cell",
        (untraced_s * WORKERS as f64 - exec_s) * 1e3 / cells.len() as f64,
    );
    out.set(
        "trace.overhead_s",
        Tracer::estimated_overhead_s(out.tracer.spans().len()) / n,
    );
    out.set("trace.unattributed_s", per_round("round"));
    out.set("trace.rounds", n);
    Ok(out)
}
