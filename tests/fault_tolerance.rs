//! End-to-end fault-tolerance properties of the batch engine:
//!
//! * a batch containing a panicking cell and a livelocked (watchdog-tripped)
//!   cell still completes every healthy cell, and the healthy results are
//!   bit-identical to an undisturbed lab's;
//! * both failures are reported with a retry diagnosis, and failed cells
//!   are not memoized;
//! * an interrupted checkpointed batch resumes to a byte-identical final
//!   state, including across a simulated kill mid-journal-write.

use charlie::checkpoint::Journal;
use charlie::sim::SimError;
use charlie::{
    Experiment, Lab, RetryOutcome, RunConfig, RunError, Strategy, Workload,
};
use std::path::PathBuf;

fn small_cfg() -> RunConfig {
    RunConfig { procs: 2, refs_per_proc: 1_500, seed: 13, ..RunConfig::default() }
}

/// A 6-cell grid covering several workloads/strategies.
fn grid() -> Vec<Experiment> {
    vec![
        Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
        Experiment::paper(Workload::Water, Strategy::Pref, 8),
        Experiment::paper(Workload::Mp3d, Strategy::NoPrefetch, 16),
        Experiment::paper(Workload::Mp3d, Strategy::Pws, 16),
        Experiment::paper(Workload::Topopt, Strategy::Excl, 8),
        Experiment::paper(Workload::Pverify, Strategy::Lpd, 4),
    ]
}

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("charlie-ft-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A genuine livelock signature: run the victim cell's own trace under a
/// starvation-small event budget, producing the same `BudgetExceeded` a
/// wedged simulation would.
fn livelock_error(cfg: &RunConfig, exp: Experiment) -> RunError {
    use charlie::workloads::{generate, WorkloadConfig};
    let wcfg = WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        layout: exp.layout,
    };
    let raw = generate(exp.workload, &wcfg);
    let prepared = charlie::prefetch::apply(exp.strategy, &raw, cfg.geometry);
    let sim_cfg = charlie::SimConfig {
        geometry: cfg.geometry,
        max_events: 64, // far below any honest run
        ..charlie::SimConfig::paper(cfg.procs, exp.transfer_cycles)
    };
    match charlie::sim::simulate(&sim_cfg, &prepared) {
        Err(e @ SimError::BudgetExceeded { .. }) => RunError::Sim(e),
        other => panic!("expected a budget trip, got {other:?}"),
    }
}

/// The tentpole acceptance scenario: one panicking cell, one livelocked
/// cell, four healthy ones. The batch completes the healthy cells
/// bit-identically to a clean lab and reports both failures with
/// deterministic retry diagnoses.
#[test]
fn batch_with_panic_and_livelock_finishes_healthy_cells() {
    let exps = grid();
    let panic_cell = exps[1];
    let livelock_cell = exps[3];
    let cfg = small_cfg();
    let wedge = livelock_error(&cfg, livelock_cell);

    let mut lab = Lab::new(cfg);
    let wedge_for_injector = wedge.clone();
    lab.set_fault_injector(move |exp| {
        if exp == panic_cell {
            panic!("injected panic in {exp}");
        }
        (exp == livelock_cell).then(|| wedge_for_injector.clone())
    });

    // Worker panics print through the default hook; keep test output clean.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = lab.run_batch(&exps, 3);
    std::panic::set_hook(hook);

    assert_eq!(report.requested, 6);
    assert_eq!(report.executed, 4, "every healthy cell completes");
    assert_eq!(report.failures.len(), 2);
    assert!(!report.is_complete());

    // Both failures carry their cell, error and a deterministic diagnosis.
    let failed: Vec<Experiment> = report.failures.iter().map(|f| f.experiment).collect();
    assert!(failed.contains(&panic_cell));
    assert!(failed.contains(&livelock_cell));
    for failure in &report.failures {
        assert_eq!(
            failure.retry,
            RetryOutcome::Reproduced,
            "injected failures are deterministic: {failure}"
        );
        if failure.experiment == panic_cell {
            assert!(matches!(&failure.error, RunError::Panic(m) if m.contains("injected panic")));
        } else {
            assert!(matches!(
                failure.error,
                RunError::Sim(SimError::BudgetExceeded { .. })
            ));
        }
    }

    // The summary names both cells; a CLI caller prints this and exits
    // nonzero — the batch itself returned normally.
    let summary = report.failure_summary().expect("failures summarize");
    assert!(summary.contains("2 of 6 attempted cells failed"), "{summary}");

    // Healthy results are bit-identical to an undisturbed lab's.
    let mut clean = Lab::new(small_cfg());
    for &exp in &exps {
        if exp == panic_cell || exp == livelock_cell {
            assert!(lab.meta(exp).is_none(), "failed cell {exp} must not be memoized");
        } else {
            assert_eq!(lab.run(exp), clean.run(exp), "healthy cell {exp} diverged");
        }
    }
}

/// Resume equivalence: a batch interrupted after N cells and resumed from
/// its journal produces byte-identical summaries to a single uninterrupted
/// run, and restored cells are not re-simulated.
#[test]
fn interrupted_batch_resumes_byte_identically() {
    let exps = grid();
    let path = temp_journal("resume");

    // The uninterrupted reference.
    let mut fresh = Lab::new(small_cfg());
    fresh.run_batch(&exps, 2);

    // "Interrupted" run: journal only the first three cells, as if the
    // process died after them.
    {
        let (mut journal, restored) = Journal::open(&path).unwrap();
        assert!(restored.is_empty());
        let mut partial = Lab::new(small_cfg());
        partial.run_batch_checkpointed(&exps[..3], 2, &mut journal);
    }

    // Resume: restore the journal, then run the full grid checkpointed.
    let (mut journal, restored) = Journal::open(&path).unwrap();
    assert_eq!(restored.len(), 3, "three cells survived the interruption");
    let mut resumed = Lab::new(small_cfg());
    for summary in restored {
        resumed.restore(summary);
    }
    let report = resumed.run_batch_checkpointed(&exps, 2, &mut journal);
    assert!(report.is_complete());
    assert_eq!(report.memo_hits, 3, "restored cells are not re-simulated");
    assert_eq!(report.executed, 3, "only the missing cells run");
    assert_eq!(resumed.stats().restored, 3);

    // Every summary matches the uninterrupted run exactly (all-integer
    // reports: the journal round-trip is lossless).
    for &exp in &exps {
        assert_eq!(resumed.run(exp), fresh.run(exp), "{exp} diverged after resume");
    }

    // The journal now holds all six cells; reopening restores all of them.
    let (_j, all) = Journal::open(&path).unwrap();
    assert_eq!(all.len(), 6);
    let _ = std::fs::remove_file(&path);
}

/// A kill mid-write leaves a trailing partial line; reopening drops it
/// silently and that cell simply re-runs.
#[test]
fn torn_final_journal_line_is_tolerated_and_rerun() {
    let exps = &grid()[..2];
    let path = temp_journal("torn");
    {
        let (mut journal, _) = Journal::open(&path).unwrap();
        let mut lab = Lab::new(small_cfg());
        lab.run_batch_checkpointed(exps, 1, &mut journal);
    }
    // Simulate SIGKILL mid-append: truncate the last line's tail.
    let content = std::fs::read_to_string(&path).unwrap();
    let keep = content[..content.len() - 1].rfind('\n').unwrap();
    std::fs::write(&path, &content[..keep + 30]).unwrap(); // torn, no '\n'

    let (mut journal, restored) = Journal::open(&path).unwrap();
    assert_eq!(restored.len(), 1, "only the intact line restores");
    let mut lab = Lab::new(small_cfg());
    for summary in restored {
        lab.restore(summary);
    }
    let report = lab.run_batch_checkpointed(exps, 1, &mut journal);
    assert!(report.is_complete());
    assert_eq!(report.executed, 1, "the torn cell re-ran");

    // After the re-run the journal is whole again.
    let (_j, all) = Journal::open(&path).unwrap();
    assert_eq!(all.len(), 2);
    let _ = std::fs::remove_file(&path);
}

/// Failed cells are never journaled: a resume after failures re-attempts
/// exactly the failed cells.
#[test]
fn failures_are_not_journaled() {
    let exps = grid();
    let bad = exps[4];
    let path = temp_journal("nofail");
    {
        let (mut journal, _) = Journal::open(&path).unwrap();
        let mut lab = Lab::new(small_cfg());
        lab.set_fault_injector(move |exp| {
            (exp == bad).then(|| RunError::Trace("injected".into()))
        });
        let report = lab.run_batch_checkpointed(&exps, 2, &mut journal);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.executed, 5);
    }
    let (mut journal, restored) = Journal::open(&path).unwrap();
    assert_eq!(restored.len(), 5, "the failed cell is absent from the journal");
    // With the injector gone the resume completes the remaining cell only.
    let mut lab = Lab::new(small_cfg());
    for summary in restored {
        lab.restore(summary);
    }
    let report = lab.run_batch_checkpointed(&exps, 2, &mut journal);
    assert!(report.is_complete());
    assert_eq!(report.executed, 1);
    let (_j, all) = Journal::open(&path).unwrap();
    assert_eq!(all.len(), 6);
    let _ = std::fs::remove_file(&path);
}

/// `try_run` surfaces the same watchdog error a batch records, so callers
/// that bypass batches get identical diagnostics.
#[test]
fn try_run_reports_injected_watchdog_error() {
    let cfg = small_cfg();
    let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
    let wedge = livelock_error(&cfg, exp);
    let mut lab = Lab::new(cfg);
    let injected = wedge.clone();
    lab.set_fault_injector(move |_| Some(injected.clone()));
    let err = lab.try_run(exp).unwrap_err();
    assert_eq!(err, wedge);
    assert!(err.to_string().contains("event budget exceeded"), "{err}");
    lab.clear_fault_injector();
    assert!(lab.try_run(exp).is_ok());
}

/// Regression: these cells once livelocked. Enough processors wrote one
/// line at once with no other bus traffic (in the Pverify cell, four last
/// arrivals at a barrier writing its counter while the other four waited)
/// that each fill was stolen by the next writer's grant in the same cycle,
/// forever; the Lab's watchdog failed them with `BudgetExceeded` (the
/// Pverify cell at cycle 136M; its NP sibling takes 615,259 cycles). The
/// simulator's forward-progress guard lets them finish.
#[test]
fn barrier_storm_cells_complete() {
    for (workload, strategy, transfer, refs, seed, cycles) in [
        (Workload::Pverify, Strategy::Pref, 32, 20_000, 17_896_831_245_006_598_926, 643_362),
        (Workload::Mp3d, Strategy::Lpd, 32, 20_000, 7_938_126_808_087_807_151, 751_978),
        (Workload::Topopt, Strategy::Lpd, 44, 2_000, 10_199_731_439_688_768_295, 172_136),
    ] {
        let cfg =
            RunConfig { procs: 8, refs_per_proc: refs, seed, wall_limit_ms: 0, ..RunConfig::default() };
        let exp = Experiment::paper(workload, strategy, transfer);
        let summary = charlie::execute_cell(&cfg, exp)
            .unwrap_or_else(|e| panic!("{exp} (seed {seed}) must finish: {e}"));
        assert_eq!(summary.report.cycles, cycles, "{exp} (seed {seed})");
        assert!(summary.report.demand_refills > 0, "{exp}: fills were stolen");
    }
}
