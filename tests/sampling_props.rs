//! Property tests for the sampled-simulation subsystem (DESIGN.md §17).
//!
//! Three contracts, stated against the public `charlie` API:
//!
//! * **Confidence-interval containment** — on small randomized cells where
//!   the sampling schedule keeps dense detailed coverage, the 99% CI the
//!   SMARTS estimator reports must contain the exact execution time and
//!   bus-busy cycle counts. (Sparse schedules on heavy-phase workloads can
//!   legitimately miss at the 1% level; dense coverage plus the estimator's
//!   4% bias floor makes containment a hard property here.)
//! * **Sampling-off identity** — a `RunConfig` with `sampling: None` must
//!   produce a checkpoint-encoded `RunSummary` that is byte-identical
//!   whether or not sampled runs of the same cell happened elsewhere, and
//!   sampled summaries must round-trip the checkpoint codec exactly.
//! * **Scheduling-independence** — `calibrate` (and the k-means clustering
//!   inside SimPoint mode) must return bit-identical results at `--jobs`
//!   1, 2 and 8.
//! * **Every protocol through fast-forward** — each coherence protocol,
//!   with a stride hardware prefetcher and the invariant checker on, runs a
//!   plan with fast-forward windows without a checker failure, and a plan
//!   with no fast windows reports exactly what the exact run does.

use charlie::checkpoint::{decode_summary, encode_summary};
use charlie::prefetch::{HwPrefetchConfig, PreparedTrace, TraceMarks};
use charlie::sim::{simulate, simulate_sampled, SamplePlan, WindowKind};
use charlie::workloads::generate;
use charlie::Strategy as Prefetch;
use charlie::{
    calibrate, CacheGeometry, Experiment, Lab, Protocol, RunConfig, SamplingConfig, SamplingMode,
    SimConfig, Workload, WorkloadConfig,
};
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Mp3d),
        Just(Workload::Pverify),
        Just(Workload::Water),
        Just(Workload::Topopt),
    ]
}

fn arb_strategy() -> impl Strategy<Value = Prefetch> {
    prop_oneof![Just(Prefetch::NoPrefetch), Just(Prefetch::Pref), Just(Prefetch::Pws)]
}

/// A small run configuration: a few dozen 1024-access windows, so exact
/// and sampled runs both finish in milliseconds.
fn small_run_cfg(refs: usize, procs: usize, seed: u64) -> RunConfig {
    RunConfig { refs_per_proc: refs, procs, seed, ..RunConfig::default() }
}

/// A dense SMARTS schedule: small window, short period, a real cold
/// stratum. Detailed coverage stays high enough that the estimator's CI
/// must contain the exact value, not just usually contain it.
fn dense_smarts(period: u64, cold: u64) -> SamplingConfig {
    SamplingConfig {
        window_accesses: 1024,
        period,
        warmup: 1,
        cold,
        ..SamplingConfig::smarts()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The reported 99% CI contains the exact execution time and bus-busy
    /// cycles on densely-sampled small cells.
    #[test]
    fn ci_contains_exact_on_dense_schedules(
        workload in arb_workload(),
        strategy in arb_strategy(),
        transfer in prop_oneof![Just(4u64), Just(8u64), Just(32u64)],
        refs in 6_000usize..14_000,
        procs in 2usize..=4,
        seed in 0u64..4,
        period in 3u64..=6,
        cold in 4u64..=8,
    ) {
        let cfg = small_run_cfg(refs, procs, seed);
        let grid = [Experiment::paper(workload, strategy, transfer)];
        let cal = calibrate(&cfg, &dense_smarts(period, cold), &grid, 1).unwrap();
        let cell = &cal.cells[0];
        prop_assert!(
            cell.ci_contains_cycles(),
            "cycles CI missed: exact {} est {} ci {}",
            cell.exact_cycles,
            cell.sampled.est_cycles,
            cell.sampled.ci_cycles,
        );
        prop_assert!(
            cell.ci_contains_bus(),
            "bus CI missed: exact {} est {} ci {}",
            cell.exact_bus_busy,
            cell.sampled.est_bus_busy,
            cell.sampled.ci_bus_busy,
        );
    }

    /// `sampling: None` output is byte-identical no matter what sampled
    /// runs happen around it, and sampled summaries round-trip the
    /// checkpoint codec.
    #[test]
    fn sampling_off_is_byte_identical(
        workload in arb_workload(),
        strategy in arb_strategy(),
        transfer in prop_oneof![Just(4u64), Just(16u64)],
        refs in 3_000usize..8_000,
        seed in 0u64..4,
        mode in prop_oneof![Just(SamplingMode::Smarts), Just(SamplingMode::Simpoint)],
    ) {
        let exp = Experiment::paper(workload, strategy, transfer);
        let cfg = small_run_cfg(refs, 4, seed);

        let baseline = encode_summary(Lab::new(cfg.clone()).run(exp));

        // Interleave a sampled run of the same cell, then re-run exact.
        let mut scfg = match mode {
            SamplingMode::Smarts => dense_smarts(4, 4),
            SamplingMode::Simpoint => SamplingConfig {
                window_accesses: 1024,
                max_k: 4,
                ..SamplingConfig::simpoint()
            },
        };
        scfg.mode = mode;
        let sampled_cfg = RunConfig { sampling: Some(scfg), ..cfg.clone() };
        let mut sampled_lab = Lab::new(sampled_cfg);
        let sampled = sampled_lab.run(exp).clone();
        let summary = sampled.sampled.expect("sampled run must carry a SampledSummary");
        prop_assert!(sampled.timeline.is_none(), "sampled runs carry no timeline");
        prop_assert_eq!(sampled.report.cycles, summary.est_cycles);

        let again = encode_summary(Lab::new(cfg.clone()).run(exp));
        prop_assert_eq!(&baseline, &again, "sampling-off output must be byte-identical");
        prop_assert!(!baseline.contains("\"sampled\""), "exact summaries must not grow fields");

        // The sampled summary itself round-trips the checkpoint codec.
        let encoded = encode_summary(&sampled);
        let decoded = decode_summary(&encoded).unwrap();
        prop_assert_eq!(decoded.sampled, Some(summary));
        prop_assert_eq!(encode_summary(&decoded), encoded);
    }

    /// Calibration — including the seeded k-means inside SimPoint mode —
    /// is bit-identical across worker counts.
    #[test]
    fn calibrate_is_jobs_invariant(
        mode in prop_oneof![Just(SamplingMode::Smarts), Just(SamplingMode::Simpoint)],
        refs in 3_000usize..6_000,
        seed in 0u64..4,
    ) {
        let cfg = small_run_cfg(refs, 2, seed);
        let grid = [
            Experiment::paper(Workload::Mp3d, Prefetch::NoPrefetch, 8),
            Experiment::paper(Workload::Water, Prefetch::Pref, 32),
        ];
        let mut scfg = match mode {
            SamplingMode::Smarts => dense_smarts(4, 4),
            SamplingMode::Simpoint => SamplingConfig {
                window_accesses: 512,
                max_k: 4,
                ..SamplingConfig::simpoint()
            },
        };
        scfg.mode = mode;
        let reference = calibrate(&cfg, &scfg, &grid, 1).unwrap();
        for jobs in [2, 8] {
            let other = calibrate(&cfg, &scfg, &grid, jobs).unwrap();
            prop_assert_eq!(reference.cells.len(), other.cells.len());
            for (a, b) in reference.cells.iter().zip(&other.cells) {
                prop_assert_eq!(&a.experiment, &b.experiment);
                prop_assert_eq!(a.exact_cycles, b.exact_cycles);
                prop_assert_eq!(a.exact_bus_busy, b.exact_bus_busy);
                prop_assert_eq!(a.sampled, b.sampled, "jobs {} diverged", jobs);
            }
        }
    }

    /// All four protocols with `stride:2:4` hardware prefetch and the
    /// invariant checker on, over every paper workload and strategy: a plan
    /// with fast-forward windows runs clean, and an all-detailed plan
    /// reproduces the exact report.
    #[test]
    fn every_protocol_stays_coherent_through_fast_forward(
        workload in (0..Workload::ALL.len()).prop_map(|i| Workload::ALL[i]),
        strategy in (0..Prefetch::ALL.len()).prop_map(|i| Prefetch::ALL[i]),
        transfer in prop_oneof![Just(4u64), Just(16u64)],
        refs in 1_500usize..4_000,
        procs in 2usize..=4,
        seed in 0u64..4,
        window in 64u64..=256,
        period in 3u64..=6,
    ) {
        let wcfg = WorkloadConfig { procs, refs_per_proc: refs, seed, ..WorkloadConfig::default() };
        let raw = generate(workload, &wcfg);
        let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, strategy);
        for protocol in Protocol::ALL {
            let cfg = SimConfig {
                protocol,
                hw_prefetch: HwPrefetchConfig::stride(2, 4),
                check_invariants: true,
                ..SimConfig::paper(procs, transfer)
            };
            let prepared = || PreparedTrace::new(&raw, &plan);
            let mixed =
                simulate_sampled(&cfg, prepared(), &SamplePlan::periodic(window, period, 1));
            prop_assert!(mixed.is_ok(), "{:?}: {:?}", protocol, mixed.err());
            let mixed = mixed.unwrap();
            prop_assert!(
                mixed.windows.iter().any(|w| w.kind == WindowKind::Fast),
                "{:?}: the plan must fast-forward somewhere",
                protocol
            );
            let exact = simulate(&cfg, prepared()).unwrap();
            let detailed = simulate_sampled(&cfg, prepared(), &SamplePlan::periodic(window, 1, 0));
            prop_assert_eq!(detailed.unwrap().report, exact, "{:?}", protocol);
        }
    }
}

/// Under a write-update protocol nothing remote invalidates a line, but a
/// queued upgrade can still lose it: the writer's own prefetch fill into
/// the same set evicts it. The upgrade must abort and the store retry as a
/// miss, as under write-invalidate. LocusRoute under LPD with `stride:2:4`
/// is such a case for Dragon (found by the property above over wider
/// traces; the machine used to assert this could not happen).
#[test]
fn update_protocol_upgrade_aborts_when_a_prefetch_evicts_its_line() {
    let wcfg =
        WorkloadConfig { procs: 4, refs_per_proc: 2_000, seed: 0, ..WorkloadConfig::default() };
    let raw = generate(Workload::LocusRoute, &wcfg);
    let plan = TraceMarks::new(&raw, CacheGeometry::paper_default()).plan(&raw, Prefetch::Lpd);
    let prepared = || PreparedTrace::new(&raw, &plan);
    let cfg = SimConfig {
        protocol: Protocol::Dragon,
        hw_prefetch: HwPrefetchConfig::stride(2, 4),
        check_invariants: true,
        ..SimConfig::paper(4, 32)
    };
    let exact = simulate(&cfg, prepared()).unwrap();
    assert!(exact.upgrades_aborted > 0, "the case must exercise the abort");
    let detailed = simulate_sampled(&cfg, prepared(), &SamplePlan::periodic(256, 1, 0)).unwrap();
    assert_eq!(detailed.report, exact);
    simulate_sampled(&cfg, prepared(), &SamplePlan::periodic(256, 4, 1)).unwrap();
}
