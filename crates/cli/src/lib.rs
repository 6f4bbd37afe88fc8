//! Implementation of the `charlie` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin shell around [`run_cli`], so every
//! command is unit-testable. See [`HELP`] for the user-facing synopsis.

pub mod args;
pub mod commands;
pub mod json;
pub mod serve;

use args::{Args, ArgsError};
use std::io::Write;

/// The `charlie --help` text.
pub const HELP: &str = "\
charlie — bus-based multiprocessor cache-prefetching simulator
(Tullsen & Eggers, ISCA 1993, reproduced in Rust)

USAGE:
  charlie <command> [options]

COMMANDS:
  run            simulate one workload/strategy/architecture cell
                   --workload topopt|pverify|locusroute|mp3d|water|pointerchase
                                                                  (default mp3d)
                   --strategy np|pref|excl|lpd|pws|excl-rmw        (default pref)
                   --transfer 4..32      contended data-transfer cycles (default 8)
                   --procs N             processors (default 8)
                   --refs N              references per processor (default 160000)
                   --seed N              workload seed
                   --layout interleaved|padded   (§4.4 restructuring)
                   --warmup N            exclude the first N accesses from stats
                   --victim N            per-processor victim-buffer entries
                   --protocol invalidate|update|dragon|moesi
                                         coherence policy (Illinois
                                         write-invalidate, Firefly-style
                                         write-update, Dragon write-update,
                                         MOESI; default invalidate)
                   --hw-prefetch KIND[:DEGREE[:DISTANCE]]
                                         on-line hardware prefetcher
                                         (off|stride|sms|markov; default off;
                                         degree 2, stride distance 4)
                   --check               assert coherence invariants after
                                         every bus transaction (always on in
                                         debug builds)
                   --json                machine-readable output
                   --sample-interval N --trace-out FILE --trace-cats LIST
                                         observability hooks (see profile);
                                         run output stays byte-identical
                   --sample-mode smarts|simpoint
                                         sampled simulation: fast-forward
                                         most windows functionally, simulate
                                         a representative fraction in detail,
                                         and report execution time and bus
                                         utilization as estimates with a 99%
                                         confidence interval (10-100x faster
                                         on long traces; exact path untouched
                                         when absent)
                   --sample-window N     accesses per window (default 4096)
                   --sample-period N     smarts: windows per detailed sample
                                         (default 37; prime, so it cannot
                                         alias with periodic workload phases)
                   --sample-warm N       warm windows before each detailed
                                         one (default 2)
                   --sample-cold N       smarts: detailed cold-start windows
                                         measured exactly, not extrapolated
                                         (default 8)
                   --sample-k N          simpoint: max clusters for the BIC
                                         sweep (default 8)
                   --sample-seed N       simpoint: k-means seed
  profile        time-resolved profile of one cell: a per-window timeline
                 (bus utilization/queueing, per-processor busy and stall,
                 fill latencies, prefetch-buffer occupancy) plus the
                 saturation onset — the first window with bus busy > 90%
                   positional: workload (or --workload; default mp3d)
                   --sample-interval N   window size in cycles (default 10000)
                   --csv / --json        full timeline as CSV rows / a JSON
                                         document embedding the run report
                   --trace-out FILE      also write a structured JSONL event
                                         trace (bus grants, coherence
                                         transitions, prefetch lifecycle)
                   --trace-cats LIST     comma-set of bus,coherence,prefetch
                                         (default all)
                   [--strategy … --transfer N --procs N --refs N --seed N
                    --layout … --warmup N --victim N --protocol …
                    --hw-prefetch …]
  sweep          Figure-2 panel: relative execution time across latencies
                   --workload …  [--json --jobs N --resume FILE --protocol …]
                   --resume FILE  journal completed cells to FILE and skip
                                  cells already journaled there, so a killed
                                  sweep picks up where it left off (the
                                  resumed output is byte-identical); the
                                  journal key pins the protocol, so resuming
                                  under a different --protocol refuses
                   --sample-interval N   record a timeline per cell (kept in
                                         the --resume journal)
                   --trace-out DIR       one JSONL event trace per cell
                   --trace-cats LIST     bus,coherence,prefetch (default all)
  export-trace   generate a workload and write it as a text trace
                   --workload …  --out FILE  [--refs N --procs N --seed N
                   --strategy …  --layout …]
  run-trace      simulate a text trace file
                   --file FILE  [--transfer N --strategy np|pref|… --warmup N
                   --victim N --protocol … --hw-prefetch … --check --json]
  experiments    regenerate paper exhibits
                   positional: table1 figure1 table2 figure2 figure3 table3
                               table4 table5 proc-util all   [--csv --jobs N]
                   hw-prefetch: on-line stride/SMS/Markov hardware
                               prefetchers vs the oracle PREF strategy
                               (post-paper; not included in \"all\")
                   protocols:  Illinois vs Firefly vs Dragon vs MOESI
                               coherence, NP and PREF, all five workloads
                               (post-paper; not included in \"all\")
  bench          time the representative grid slice (Mp3d x all strategies x
                 all latencies) and print a BENCH_charlie.json-style snapshot
                   --quick          ~8x smaller slice (the CI smoke size)
                   --sampled        run the slice under SMARTS sampling
                                    (DESIGN.md 17) instead of exact; the
                                    snapshot's events count the sampled
                                    run's (incompatible with --baseline)
                   --label NAME     label the snapshot (default
                                    quick/full/sampled)
                   --out FILE       write the snapshot as JSON to FILE
                                    (atomically: temp file + rename)
                   --baseline FILE  compare events/sec against FILE
                                    (runs.quick_baseline when --quick, else
                                    runs.after) and fail on a >20% regression
                   [--refs N --procs N --seed N]
  calibrate      measure the sampled-simulation error empirically: run a
                 grid sampled AND exact, print per-cell execution-time and
                 bus-utilization error, wall-clock/event speedups, and
                 whether each confidence interval contains the exact value;
                 with --tolerance, exit nonzero when any error exceeds it
                   --grid quick|paper  12-cell smoke grid or the full
                                       149-cell paper grid (default quick)
                   --tolerance PCT     error gate in percent (e.g. 2)
                   [--refs N --procs N --seed N --jobs N --json
                    --protocol P --hw-prefetch SPEC
                    --sample-mode … --sample-window N --sample-period N
                    --sample-warm N --sample-cold N --sample-k N
                    --sample-seed N]
  chaos          durability exercise: runs a reference sweep, then proves a
                 crash-point matrix over truncated journals, live injected
                 I/O faults (short/torn/enospc/eio/bitflip/crash), and
                 atomic snapshot writes all reproduce the reference output
                 byte-for-byte; exits nonzero on any divergence
                   --points K       crash points / seeded faults per phase
                                    (default 8)
                   --fault-seed N   seed for the mixed fault plan
                   --dir DIR        scratch directory (default under /tmp;
                                    kept on failure for forensics)
                   [--workload … --refs N --procs N --seed N --layout …
                    --jobs N]
  serve          run the always-on simulation daemon: accepts submitted
                 campaigns over TCP (newline-delimited JSON; also a minimal
                 HTTP shim: GET /stats, POST /submit), admission-controls
                 them against a bounded queue (sheds with a structured
                 retryable reply and HTTP 429 + Retry-After), coalesces
                 concurrent duplicate cells onto one simulation, and
                 journals every campaign so a killed daemon resumes
                 exactly-once per cell on restart. SIGTERM (or --shutdown)
                 drains: in-flight cells finish and journal, queued cells
                 are handed back with a resumable campaign token.
                   --addr HOST:PORT  listen address (default 127.0.0.1:7077;
                                     port 0 picks a free port and prints it)
                   --queue N         campaigns admitted concurrently before
                                     shedding (default 8)
                   --deadline-ms N   default per-request wall-clock deadline
                                     (0 = none; requests may override)
                   --jobs N          simulation worker threads (0 = cores)
                   --state-dir DIR   campaign journals (default
                                     charlie-serve-state)
                   --stats / --ping / --shutdown
                                     query or drain a running daemon at
                                     --addr instead of starting one
                                     (--stats with --state-dir reads fleet
                                     health offline, no daemon needed)
                   --worker          run as a lease-claiming fleet peer
                                     over --state-dir instead of listening:
                                     claims campaign cells via fsync'd
                                     journal leases, heartbeats them, and
                                     reclaims cells whose holder died
                   --worker-id ID / --lease-ms N / --poll-ms N
                                     worker identity (default w<pid>),
                                     lease duration (default 3000), idle
                                     poll interval (default 100)
                   --exit-when-idle  worker exits once every campaign in
                                     the state dir is fully published
  submit         submit a campaign to a running daemon and render the
                 streamed cells exactly as the local commands would
                   --grid paper      the full paper grid; stdout is
                                     byte-identical to all_experiments
                   --workload NAME   the Figure-2 sweep grid for NAME;
                                     stdout is byte-identical to `charlie
                                     sweep` (honors --layout and --json)
                   --deadline-ms N   per-request wall-clock deadline; on
                                     expiry the daemon answers
                                     WallClockExceeded with progress
                                     counters and keeps simulating for the
                                     cache
                   --workers N       no daemon: shard the campaign across N
                                     spawned `serve --worker` processes in
                                     --state-dir and join (0 = join
                                     externally started workers); output
                                     stays byte-identical even when workers
                                     die mid-grid
                   --sample-mode smarts|simpoint
                                     sampled-mode campaign (CIs journal
                                     with each cell; never coalesces with
                                     exact runs of the same grid) [with
                                     --sample-window/-period/-warm/-k/
                                     -seed/-cold overrides]
                   [--addr HOST:PORT --procs N --refs N --seed N
                    --layout … --hw-prefetch … --json --state-dir DIR
                    --lease-ms N]
  help           print this text

OPTIONS:
  --jobs N       worker threads for the experiment grid (0 = one per core,
                 the default). Reports are bit-identical for every N: each
                 experiment re-derives its trace from the seed and simulates
                 in isolation.

ENVIRONMENT:
  CHARLIE_REFS / CHARLIE_PROCS / CHARLIE_SEED set experiment-suite defaults;
  CHARLIE_JOBS sets the worker count for the charlie-bench binaries.
  CHARLIE_DEBUG_LINE=HEX streams coherence trace events touching that line
  address to stderr (shorthand for --trace-out /dev/stderr --trace-cats
  coherence plus a line filter).
  CHARLIE_WALL_LIMIT_MS aborts any single run exceeding that many wall-clock
  milliseconds (0/unset = off; the deterministic event budget stays armed
  either way).
  CHARLIE_CHAOS=tag:kind@offset[,...] injects write faults into tagged
  persistence writers (journal, lease, trace, report, bench) for ad-hoc
  durability experiments; kinds: short, torn, enospc, eio, bitflip, crash,
  leasecrash, stalehb.
  CHARLIE_JOURNAL_SYNC=1 makes checkpoint-journal appends fsync (default:
  flush-only; see DESIGN.md \"Chaos testing & durability\").
  CHARLIE_SERVE_ADDR / CHARLIE_SERVE_QUEUE / CHARLIE_SERVE_DEADLINE_MS set
  the serve daemon's listen address, admission-queue capacity, and default
  per-request deadline (flags override; see DESIGN.md \"Service
  architecture\").
";

/// Runs the CLI on `argv` (without the program name), writing to `out`.
///
/// Returns the process exit code.
pub fn run_cli<W: Write>(argv: Vec<String>, out: &mut W) -> i32 {
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    if parsed.switch("help") || parsed.command.as_deref() == Some("help") {
        let _ = write!(out, "{HELP}");
        return 0;
    }
    let result: Result<(), ArgsError> = match parsed.command.as_deref() {
        Some("run") => commands::run(&parsed, out),
        Some("profile") => commands::profile(&parsed, out),
        Some("sweep") => commands::sweep(&parsed, out),
        Some("export-trace") => commands::export_trace(&parsed, out),
        Some("run-trace") => commands::run_trace(&parsed, out),
        Some("experiments") => commands::experiments(&parsed, out),
        Some("bench") => commands::bench(&parsed, out),
        Some("calibrate") => commands::calibrate(&parsed, out),
        Some("chaos") => commands::chaos(&parsed, out),
        Some("serve") => serve::serve(&parsed, out),
        Some("submit") => serve::submit(&parsed, out),
        Some(other) => Err(ArgsError(format!("unknown command {other:?}; try `charlie help`"))),
        None => {
            let _ = write!(out, "{HELP}");
            return 0;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> (i32, String) {
        let mut out = Vec::new();
        let code = run_cli(tokens.iter().map(|s| s.to_string()).collect(), &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn no_command_prints_help() {
        let (code, text) = run(&[]);
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, text) = run(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown command"));
    }

    #[test]
    fn run_small_cell_text() {
        let (code, text) =
            run(&["run", "--workload", "water", "--refs", "1500", "--procs", "2"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("cycles"), "{text}");
    }

    #[test]
    fn run_small_cell_json() {
        let (code, text) = run(&[
            "run", "--workload", "water", "--strategy", "pws", "--refs", "1200", "--procs", "2",
            "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.trim().starts_with('{'), "{text}");
        assert!(text.contains("\"cpu_miss_rate\""));
    }

    /// `run` arms the Lab's event-budget watchdog: a cell that cannot
    /// finish fails with the diagnostic instead of spinning.
    #[test]
    fn run_applies_the_event_budget() {
        let raw = charlie::workloads::generate(
            charlie::Workload::Water,
            &charlie::workloads::WorkloadConfig {
                procs: 2,
                refs_per_proc: 1500,
                seed: 1,
                layout: charlie::workloads::Layout::Interleaved,
            },
        );
        let opts = commands::MachineOpts::from_args(&Args::parse(Vec::new()).unwrap()).unwrap();
        let (_, sim_cfg) = commands::prepare_cell(&raw, charlie::Strategy::Pref, &opts).unwrap();
        assert_eq!(sim_cfg.max_events, charlie::event_budget(raw.total_accesses() as u64));
    }

    #[test]
    fn run_rejects_bad_workload() {
        let (code, text) = run(&["run", "--workload", "spice"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown workload"));
    }

    #[test]
    fn run_rejects_unknown_option() {
        let (code, text) = run(&["run", "--wrokload", "mp3d"]);
        assert_eq!(code, 2);
        assert!(text.contains("--wrokload"));
    }

    #[test]
    fn trace_round_trip_through_files() {
        let dir = std::env::temp_dir().join(format!("charlie-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("water.trace");
        let path_s = path.to_str().unwrap();

        let (code, _) = run(&[
            "export-trace", "--workload", "water", "--refs", "800", "--procs", "2", "--out",
            path_s,
        ]);
        assert_eq!(code, 0);
        assert!(path.exists());

        let (code, text) = run(&["run-trace", "--file", path_s, "--strategy", "pref", "--json"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"prefetches_inserted\""));

        // A trace exported with its prefetches runs as is under NP, and is
        // refused under any strategy that would plan more.
        let (code, _) = run(&[
            "export-trace", "--workload", "water", "--refs", "800", "--procs", "2", "--strategy",
            "pref", "--out", path_s,
        ]);
        assert_eq!(code, 0);
        let (code, text) = run(&["run-trace", "--file", path_s, "--json"]);
        assert_eq!(code, 0, "{text}");
        let (code, text) = run(&["run-trace", "--file", path_s, "--strategy", "pref"]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("already contains prefetches"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_missing_file_fails_cleanly() {
        let (code, text) = run(&["run-trace", "--file", "/nonexistent/xyz.trace"]);
        assert_eq!(code, 2);
        assert!(text.contains("error"));
    }

    #[test]
    fn run_with_victim_and_update_protocol() {
        let (code, text) = run(&[
            "run", "--workload", "topopt", "--refs", "1500", "--procs", "2", "--victim", "4",
            "--protocol", "update", "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"invalidation_miss_rate\":0.000000"), "{text}");
    }

    #[test]
    fn run_rejects_bad_protocol_listing_choices() {
        let (code, text) = run(&["run", "--protocol", "dragonfly", "--refs", "100", "--procs", "1"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown protocol"), "{text}");
        // The error names every valid choice, not a stale subset.
        for choice in ["invalidate", "update", "dragon", "moesi"] {
            assert!(text.contains(choice), "choice {choice} missing from {text:?}");
        }
    }

    /// `calibrate` runs its grid on the machine the flags describe: MOESI
    /// with a stride prefetcher simulates different exact cycles than the
    /// Illinois default, and a bad protocol lists the choices.
    #[test]
    fn calibrate_honours_protocol_and_hw_prefetch() {
        let base = ["calibrate", "--grid", "quick", "--refs", "20000", "--jobs", "2", "--json"];
        let (code, default) = run(&base);
        assert_eq!(code, 0, "{default}");
        let mut moesi = base.to_vec();
        moesi.extend(["--protocol", "moesi", "--hw-prefetch", "stride:2:4"]);
        let (code, text) = run(&moesi);
        assert_eq!(code, 0, "{text}");
        let exact = extract_nums(&text, "exact_cycles");
        assert_eq!(exact.len(), 12, "{text}");
        assert_ne!(exact, extract_nums(&default, "exact_cycles"), "flags ignored");

        let (code, text) = run(&["calibrate", "--protocol", "dragonfly", "--refs", "100"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown protocol"), "{text}");
        for choice in ["invalidate", "update", "dragon", "moesi"] {
            assert!(text.contains(choice), "choice {choice} missing from {text:?}");
        }
    }

    #[test]
    fn run_with_dragon_protocol_eliminates_invalidation_misses() {
        let (code, text) = run(&[
            "run", "--workload", "topopt", "--refs", "1500", "--procs", "2", "--protocol",
            "dragon", "--check", "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"invalidation_miss_rate\":0.000000"), "{text}");
    }

    #[test]
    fn run_with_moesi_protocol_checks_clean() {
        let (code, text) = run(&[
            "run", "--workload", "mp3d", "--refs", "1500", "--procs", "2", "--protocol", "moesi",
            "--check", "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"cpu_miss_rate\""), "{text}");
    }

    #[test]
    fn sweep_resume_refuses_protocol_change_naming_both_keys() {
        let dir =
            std::env::temp_dir().join(format!("charlie-cli-proto-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt");
        let ckpt_s = ckpt.to_str().unwrap().to_owned();

        let mut dragon_args = sweep_args("2");
        dragon_args.extend(["--resume", &ckpt_s, "--protocol", "dragon"]);
        let (code, text) = run(&dragon_args);
        assert_eq!(code, 0, "{text}");

        // Resuming the same journal under a different protocol must refuse,
        // and the mismatch error names both campaign keys.
        let mut moesi_args = sweep_args("2");
        moesi_args.extend(["--resume", &ckpt_s, "--protocol", "moesi"]);
        let (code, text) = run(&moesi_args);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("refusing to resume"), "{text}");
        assert!(text.contains("proto=dragon"), "{text}");
        assert!(text.contains("proto=moesi"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiments_unknown_exhibit_fails() {
        let (code, text) = run(&["experiments", "table99"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown exhibit"));
    }

    fn sweep_args(jobs: &str) -> Vec<&str> {
        vec![
            "sweep", "--workload", "water", "--refs", "900", "--procs", "2", "--json", "--jobs",
            jobs,
        ]
    }

    #[test]
    fn sweep_accepts_jobs_zero_meaning_one_per_core() {
        let (code, text) = run(&sweep_args("0"));
        assert_eq!(code, 0, "{text}");
        assert!(text.trim().starts_with('['), "{text}");
    }

    #[test]
    fn sweep_accepts_jobs_one() {
        let (code, text) = run(&sweep_args("1"));
        assert_eq!(code, 0, "{text}");
    }

    #[test]
    fn sweep_clamps_absurd_jobs() {
        // usize::MAX workers must be clamped, not spawned.
        let (code, text) = run(&sweep_args("18446744073709551615"));
        assert_eq!(code, 0, "{text}");
    }

    #[test]
    fn sweep_falls_back_to_serial_on_non_numeric_jobs() {
        // Parallelism is an optimization: a bad --jobs value warns on
        // stderr and runs serially instead of killing the sweep.
        let (code, text) = run(&sweep_args("many"));
        assert_eq!(code, 0, "{text}");
        assert!(text.trim().starts_with('['), "{text}");
    }

    #[test]
    fn run_accepts_check_switch() {
        let (code, text) = run(&[
            "run", "--workload", "mp3d", "--strategy", "pws", "--refs", "1200", "--procs", "2",
            "--check", "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"cpu_miss_rate\""), "{text}");
    }

    #[test]
    fn sweep_resume_is_byte_identical_to_fresh() {
        let dir = std::env::temp_dir().join(format!("charlie-cli-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt");
        let ckpt_s = ckpt.to_str().unwrap().to_owned();

        let (code_fresh, fresh) = run(&sweep_args("2"));
        assert_eq!(code_fresh, 0, "{fresh}");

        // First checkpointed pass journals every cell…
        let mut args = sweep_args("2");
        args.extend(["--resume", &ckpt_s]);
        let (code_a, a) = run(&args);
        assert_eq!(code_a, 0, "{a}");
        assert_eq!(a, fresh, "checkpointing must not change the output");
        let journal_len = std::fs::metadata(&ckpt).unwrap().len();
        assert!(journal_len > 0, "journal recorded the cells");

        // …and a resumed pass replays the journal (simulating nothing new),
        // rendering byte-identical output without re-journaling.
        let (code_b, b) = run(&args);
        assert_eq!(code_b, 0, "{b}");
        assert_eq!(b, fresh, "resumed sweep must be byte-identical");
        assert_eq!(
            std::fs::metadata(&ckpt).unwrap().len(),
            journal_len,
            "fully-resumed sweep appends nothing"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_json_is_byte_stable_across_invocations_and_worker_counts() {
        // Same seed → byte-identical JSON, whatever the parallelism.
        let (code_a, a) = run(&sweep_args("1"));
        let (code_b, b) = run(&sweep_args("1"));
        let (code_c, c) = run(&sweep_args("4"));
        assert_eq!((code_a, code_b, code_c), (0, 0, 0));
        assert_eq!(a, b, "same invocation twice must be byte-identical");
        assert_eq!(a, c, "worker count must not leak into the output");
    }

    #[test]
    fn run_json_is_byte_stable() {
        let args =
            ["run", "--workload", "mp3d", "--refs", "1000", "--procs", "2", "--seed", "42", "--json"];
        let (code_a, a) = run(&args);
        let (code_b, b) = run(&args);
        assert_eq!((code_a, code_b), (0, 0));
        assert_eq!(a, b);
    }

    /// Pulls every `"key":N` integer out of a JSON string.
    fn extract_nums(json: &str, key: &str) -> Vec<u64> {
        let needle = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = json;
        while let Some(at) = rest.find(&needle) {
            rest = &rest[at + needle.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            out.push(rest[..end].parse().expect("integer field"));
        }
        out
    }

    #[test]
    fn run_output_is_identical_with_observability_on() {
        // The acceptance bar for "zero-cost when disabled" and "sampling
        // does not perturb": run output must not change when the sampler
        // and tracer are armed.
        let base = ["run", "--workload", "mp3d", "--refs", "1200", "--procs", "2", "--json"];
        let (code_a, plain) = run(&base);
        let mut sampled_args = base.to_vec();
        sampled_args.extend(["--sample-interval", "500"]);
        let (code_b, sampled) = run(&sampled_args);
        assert_eq!((code_a, code_b), (0, 0), "{plain}{sampled}");
        assert_eq!(plain, sampled, "sampling must not change run output");
    }

    #[test]
    fn profile_text_mentions_saturation() {
        let (code, text) = run(&[
            "profile", "water", "--refs", "1500", "--procs", "2", "--sample-interval", "2000",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("timeline:"), "{text}");
        assert!(text.contains("saturat"), "{text}");
    }

    #[test]
    fn profile_json_timeline_sums_to_final_bus_stats() {
        let (code, text) = run(&[
            "profile", "--workload", "mp3d", "--strategy", "pws", "--refs", "2000", "--procs",
            "2", "--sample-interval", "1000", "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        let busy_cycles = extract_nums(&text, "busy_cycles");
        assert_eq!(busy_cycles.len(), 1, "{text}");
        let window_busy: u64 = extract_nums(&text, "bus_busy").iter().sum();
        assert_eq!(window_busy, busy_cycles[0], "timeline must tile the run exactly");
        assert!(text.contains("\"sample_interval\":1000"), "{text}");
        assert!(text.contains("\"saturation_onset\":"), "{text}");
    }

    #[test]
    fn profile_csv_has_one_row_per_window() {
        let (code, text) = run(&[
            "profile", "water", "--refs", "1000", "--procs", "2", "--sample-interval", "4000",
            "--csv",
        ]);
        assert_eq!(code, 0, "{text}");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("start,end,bus_utilization"), "{text}");
        assert!(lines.len() >= 2, "at least one window: {text}");
    }

    #[test]
    fn profile_rejects_two_workloads() {
        let (code, text) = run(&["profile", "water", "mp3d"]);
        assert_eq!(code, 2);
        assert!(text.contains("at most one positional"), "{text}");
    }

    #[test]
    fn run_trace_out_writes_jsonl_events() {
        let dir = std::env::temp_dir().join(format!("charlie-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();
        let (code, _) = run(&[
            "run", "--workload", "mp3d", "--refs", "800", "--procs", "2", "--trace-out", path_s,
            "--trace-cats", "bus,prefetch",
        ]);
        assert_eq!(code, 0);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(!body.is_empty(), "bus events were traced");
        for line in body.lines() {
            assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "JSONL: {line}");
            assert!(!line.contains("\"cat\":\"coherence\""), "filtered out: {line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_bad_trace_cats() {
        let (code, text) = run(&[
            "run", "--refs", "100", "--procs", "1", "--trace-out", "/dev/null", "--trace-cats",
            "bus,frobnication",
        ]);
        assert_eq!(code, 2);
        assert!(text.contains("frobnication"), "{text}");
    }

    #[test]
    fn bench_rejects_zero_throughput_baseline() {
        let dir = std::env::temp_dir().join(format!("charlie-cli-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(
            &path,
            "{\"runs\":{\"quick_baseline\":{\"events_per_sec\":0}}}",
        )
        .unwrap();
        let path_s = path.to_str().unwrap();
        let (code, text) = run(&[
            "bench", "--quick", "--refs", "300", "--procs", "2", "--baseline", path_s,
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("not a positive throughput"), "{text}");
        assert!(text.contains("regenerate the baseline"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_rejects_missing_baseline_key() {
        let dir = std::env::temp_dir().join(format!("charlie-cli-bench2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, "{\"runs\":{}}").unwrap();
        let path_s = path.to_str().unwrap();
        let (code, text) = run(&[
            "bench", "--quick", "--refs", "300", "--procs", "2", "--baseline", path_s,
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("no runs.quick_baseline.events_per_sec"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_documents_jobs_flag() {
        let (code, text) = run(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("--jobs N"));
        assert!(text.contains("CHARLIE_JOBS"));
        assert!(text.contains("--check"));
        assert!(text.contains("--resume FILE"));
        assert!(text.contains("profile"));
        assert!(text.contains("--sample-interval N"));
        assert!(text.contains("--trace-out"));
        assert!(text.contains("CHARLIE_DEBUG_LINE"));
    }

    #[test]
    fn help_documents_chaos() {
        let (code, text) = run(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("chaos"));
        assert!(text.contains("--points K"));
        assert!(text.contains("CHARLIE_CHAOS"));
        assert!(text.contains("CHARLIE_JOURNAL_SYNC"));
        assert!(text.contains("CHARLIE_WALL_LIMIT_MS"));
    }

    #[test]
    fn chaos_rejects_unknown_option() {
        let (code, text) = run(&["chaos", "--fault-sede", "42"]);
        assert_eq!(code, 2);
        assert!(text.contains("--fault-sede"), "{text}");
    }

    #[test]
    fn help_documents_hw_prefetch() {
        let (code, text) = run(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("--hw-prefetch"));
        assert!(text.contains("pointerchase"));
        assert!(text.contains("hw-prefetch:"));
    }

    #[test]
    fn run_pointer_chase_with_hw_prefetcher() {
        let (code, text) = run(&[
            "run", "--workload", "pointerchase", "--strategy", "np", "--refs", "4000", "--procs",
            "2", "--hw-prefetch", "markov", "--check", "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"cpu_miss_rate\""), "{text}");
    }

    #[test]
    fn run_rejects_bad_hw_prefetch_spec() {
        let (code, text) = run(&[
            "run", "--refs", "100", "--procs", "1", "--hw-prefetch", "nextline",
        ]);
        assert_eq!(code, 2);
        assert!(text.contains("--hw-prefetch"), "{text}");
    }

    #[test]
    fn hw_prefetch_off_run_output_is_byte_identical() {
        // Degree 0 disables the prefetcher entirely: the run must be
        // bit-identical to one with no --hw-prefetch at all.
        let base = ["run", "--workload", "mp3d", "--refs", "1200", "--procs", "2", "--json"];
        let (code_a, plain) = run(&base);
        let mut off_args = base.to_vec();
        off_args.extend(["--hw-prefetch", "stride:0"]);
        let (code_b, off) = run(&off_args);
        assert_eq!((code_a, code_b), (0, 0), "{plain}{off}");
        assert_eq!(plain, off, "disabled hardware prefetcher must cost nothing");
    }

    #[test]
    fn run_with_stride_prefetcher_traces_prefetch_events() {
        let dir = std::env::temp_dir().join(format!("charlie-cli-hwtrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hw.jsonl");
        let path_s = path.to_str().unwrap();
        let (code, _) = run(&[
            "run", "--workload", "mp3d", "--strategy", "np", "--refs", "1500", "--procs", "2",
            "--hw-prefetch", "stride:2:4", "--trace-out", path_s, "--trace-cats", "prefetch",
        ]);
        assert_eq!(code, 0);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"ev\":\"issued\""), "hardware issues traced: {body:.200}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
