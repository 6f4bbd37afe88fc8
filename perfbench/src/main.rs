//! End-to-end and per-layer benchmark of the charlie simulator.
//!
//! ```text
//! env GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072 \
//!     cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact_grid --seed 3 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`): the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any output-check mismatch exits with code 1. See
//! `perfbench/README.md` for the workloads, the metrics and the layer map.

mod fleet;
mod grid;
mod serve_mixed;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use charlie::checkpoint::encode_summary;
use charlie::{execute_cell, Experiment, RunConfig, RunSummary};
use stats::{result_line, Metric, Tracer};

/// Every end-to-end metric, in the order printed (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("refs_per_sec", "refs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
];

/// Every per-layer metric (`--trace 1`). A workload that does not reach a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workloads.gen_s", "s"),
    ("trace.validate_s", "s"),
    ("prefetch.apply_s", "s"),
    ("prefetch.inserted", "count"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_ref", "ratio"),
    ("sim.refs_per_sec", "refs/s"),
    ("sampling.run_s", "s"),
    ("sampling.detailed_frac", "ratio"),
    ("sampling.est_err_pct", "%"),
    ("lab.cell_p50_ms", "ms"),
    ("lab.overhead_s", "s"),
    ("lab.execute_cell_s", "s"),
    ("checkpoint.append_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.scan_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.admit_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.memo_misses", "count"),
    ("worker.journal_bytes", "bytes"),
    ("worker.claims", "count"),
    ("worker.fenced", "count"),
    ("worker.overhead_ms_per_cell", "ms"),
    ("bus.utilization", "ratio"),
    ("cache.cpu_misses", "count"),
    ("prefetch.hw_useful_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.rounds", "count"),
];

/// The workload seed the stored references were computed at. Every run
/// uses it for its untimed warm-up pass, whose output is checked against
/// `reference.json`; timed passes never use it.
pub const REF_SEED: u64 = 0xC0FFEE;

/// Stored outputs at [`REF_SEED`], written by `--make-reference`.
const REFERENCE_JSON: &str = include_str!("../reference.json");

const WORKLOADS: [&str; 4] = ["exact_grid", "sampled_grid", "serve_mixed", "fleet"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub make_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        make_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--make-reference" {
            args.make_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.make_reference && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations in the timed phase: cells (grids, fleet) or submits.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry fails the run.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Checksum of the warm-up pass at [`REF_SEED`].
    pub ref_checksum: String,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Compares the warm-up checksum against the stored one.
    pub fn check_reference(&mut self, workload: &str, reference: &Reference) {
        match reference.checksums.get(workload) {
            Some(stored) => {
                let (got, stored) = (self.ref_checksum.clone(), stored.clone());
                self.check(got == stored, || {
                    format!("{workload}: checksum at seed {REF_SEED} is {got}, stored {stored}")
                });
            }
            None => self.mismatches.push(format!(
                "{workload}: no stored checksum; run with --make-reference"
            )),
        }
    }
}

/// Stored reference outputs (see [`REFERENCE_JSON`]).
#[derive(Default)]
pub struct Reference {
    pub checksums: BTreeMap<String, String>,
    pub sampled_exact_cycles: Vec<u64>,
}

impl Reference {
    fn parse(text: &str) -> Result<Reference, String> {
        let v = charlie::wire::parse(text.trim())?;
        let mut r = Reference::default();
        if let charlie::wire::Json::Obj(fields) = v.field("checksums")? {
            for (k, val) in fields {
                r.checksums.insert(k.clone(), val.str()?.to_owned());
            }
        }
        for c in v.field("sampled_exact_cycles")?.arr()? {
            r.sampled_exact_cycles.push(c.num()?);
        }
        Ok(r)
    }

    fn render(&self) -> String {
        let mut s = format!("{{\"seed\":{REF_SEED},\"checksums\":{{");
        for (i, (k, v)) in self.checksums.iter().enumerate() {
            s.push_str(if i == 0 { "" } else { "," });
            s.push_str(&format!("\"{k}\":\"{v}\""));
        }
        s.push_str("},\"sampled_exact_cycles\":[");
        for (i, c) in self.sampled_exact_cycles.iter().enumerate() {
            s.push_str(if i == 0 { "" } else { "," });
            s.push_str(&c.to_string());
        }
        s.push_str("]}\n");
        s
    }
}

/// The `r`-th timed seed of a run seeded `seed`: never [`REF_SEED`].
pub fn round_seed(seed: u64, r: u64) -> u64 {
    let s = splitmix64(seed ^ splitmix64(r.wrapping_add(0x9E37)));
    if s == REF_SEED {
        s ^ 1
    } else {
        s
    }
}

pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the journal encoding of every summary, in order: covers
/// every simulated statistic a summary carries.
pub fn checksum<'a>(summaries: impl IntoIterator<Item = &'a RunSummary>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in summaries {
        for b in encode_summary(s).bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Simulated-statistic guards over a pass's summaries: mean bus
/// utilization, total CPU misses, and the useful share of hardware
/// prefetches. A speed-only change must leave all three identical.
pub fn set_guards(out: &mut Outcome, summaries: &[RunSummary]) {
    let n = summaries.len().max(1) as f64;
    let util: f64 = summaries
        .iter()
        .map(|s| {
            s.report
                .bus
                .utilization(s.report.cycles - s.report.measured_from)
        })
        .sum();
    let misses: u64 = summaries.iter().map(|s| s.report.miss.cpu_misses()).sum();
    let issued: u64 = summaries.iter().map(|s| s.report.hw_prefetch.issued).sum();
    let useful: u64 = summaries.iter().map(|s| s.report.hw_prefetch.useful).sum();
    out.set("bus.utilization", util / n);
    out.set("cache.cpu_misses", misses as f64);
    out.set(
        "prefetch.hw_useful_frac",
        if issued == 0 {
            0.0
        } else {
            useful as f64 / issued as f64
        },
    );
}

/// Checks every `(config, cell, summary)` against `execute_cell` for that
/// cell, on two threads (the checks run after the timed phase); returns one
/// message per mismatch.
pub fn verify_against_execute_cell(checks: &[(RunConfig, Experiment, &RunSummary)]) -> Vec<String> {
    std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                scope.spawn(move || {
                    checks
                        .iter()
                        .skip(h)
                        .step_by(2)
                        .filter(|(cfg, exp, got)| execute_cell(cfg, *exp).as_ref() != Ok(*got))
                        .map(|(cfg, exp, _)| {
                            format!(
                                "{exp} (seed {}): served summary differs from execute_cell",
                                cfg.seed
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    })
}

/// Demand references a summary delivered.
pub fn refs(s: &RunSummary) -> u64 {
    s.report.demand_accesses()
}

/// Fresh per-run state directory inside the working directory, removed
/// when dropped, so no run restores another run's journals.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// A fresh subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.0.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("creating {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run_workload(
    name: &str,
    args: &Args,
    dir: &RunDir,
    reference: &Reference,
) -> Result<Outcome, String> {
    match name {
        "exact_grid" => grid::run(grid::Mode::Exact, args, reference),
        "sampled_grid" => grid::run(grid::Mode::Sampled, args, reference),
        "serve_mixed" => serve_mixed::run(args, dir),
        "fleet" => fleet::run(args, dir),
        _ => unreachable!("workload names are validated in parse_args"),
    }
}

/// `--make-reference`: recomputes every stored output at [`REF_SEED`] and
/// rewrites `perfbench/reference.json` (run from the repository root, then
/// rebuild). Includes the one exact simulation of the `sampled_grid` cells
/// that `sampled_grid`'s estimate error is measured against.
fn make_reference(dir: &RunDir) -> Result<(), String> {
    let mut reference = Reference {
        sampled_exact_cycles: grid::exact_cycles_of_sampled_cells()?,
        ..Reference::default()
    };
    for w in WORKLOADS {
        let args = Args {
            workload: w.to_owned(),
            seed: 1,
            seconds: 1,
            trace: false,
            make_reference: true,
        };
        let out = run_workload(w, &args, dir, &reference)?;
        eprintln!("{w}: {}", out.ref_checksum);
        reference.checksums.insert(w.to_owned(), out.ref_checksum);
    }
    let path = Path::new("perfbench").join("reference.json");
    std::fs::write(&path, reference.render())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let dir = RunDir::create()?;
    if args.make_reference {
        make_reference(&dir)?;
        return Ok(true);
    }
    let reference = Reference::parse(REFERENCE_JSON).map_err(|e| format!("reference.json: {e}"))?;
    let mut out = run_workload(&args.workload, &args, &dir, &reference)?;
    out.check_reference(&args.workload, &reference);

    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.push(Metric {
                name,
                value: out.metrics.get(name).copied().unwrap_or(0.0),
                unit,
            });
        }
        let spans =
            Path::new(".perfbench").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&spans, out.tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    } else {
        out.set("peak_rss_mb", peak_rss_mb()?);
        for (name, unit) in END_TO_END {
            let value = *out
                .metrics
                .get(name)
                .ok_or_else(|| format!("{name} was not measured"))?;
            metrics.push(Metric { name, value, unit });
        }
    }
    if let Some(unknown) = out.metrics.keys().find(|k| {
        !END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .any(|(n, _)| n == *k)
    }) {
        return Err(format!("internal: metric {unknown} is not declared"));
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let correct = out.mismatches.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let t0 = std::time::Instant::now();
    let result = real_main();
    eprintln!("perfbench: finished in {:.2} s", t0.elapsed().as_secs_f64());
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_are_distinct_and_never_the_reference_seed() {
        let seeds: Vec<u64> = (0..1000).map(|r| round_seed(7, r)).collect();
        assert!(!seeds.contains(&REF_SEED));
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_eq!(round_seed(7, 3), seeds[3], "deterministic");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            4 + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn reference_round_trips() {
        let mut r = Reference::default();
        r.checksums.insert("fleet".into(), "00ff".into());
        r.sampled_exact_cycles = vec![3, 5];
        let back = Reference::parse(&r.render()).unwrap();
        assert_eq!(back.checksums, r.checksums);
        assert_eq!(back.sampled_exact_cycles, vec![3, 5]);
    }
}
