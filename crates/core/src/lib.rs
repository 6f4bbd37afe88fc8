//! # charlie — prefetching limits on a bus-based multiprocessor
//!
//! A from-scratch reproduction of Dean M. Tullsen and Susan J. Eggers,
//! *"Limitations of Cache Prefetching on a Bus-Based Multiprocessor"*
//! (ISCA 1993): the trace-driven multiprocessor simulator (a rebuild of
//! their "Charlie"), the oracle compiler-directed prefetch-insertion
//! pipeline with all five strategies (NP, PREF, EXCL, LPD, PWS), synthetic
//! versions of the five-application workload suite, and a harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! ## Crate map
//!
//! This facade re-exports the whole workspace:
//!
//! * [`trace`] — event streams, builders, sharing analysis;
//! * [`cache`] — geometry, Illinois protocol, cache arrays, filter caches;
//! * [`bus`] — the contended split-transaction bus;
//! * [`sim`] — the multiprocessor machine and its metrics;
//! * [`prefetch`] — oracle miss marking and strategy application;
//! * [`workloads`] — the synthetic Topopt/Pverify/LocusRoute/Mp3d/Water
//!   generators;
//! * [`Lab`] / [`experiments`] — memoizing experiment runner and the
//!   per-table/figure reproductions.
//!
//! ## Quick start
//!
//! ```
//! use charlie::{Experiment, Lab, RunConfig, Strategy, Workload};
//!
//! // Keep it tiny for the doctest; defaults are larger.
//! let mut lab = Lab::new(RunConfig { refs_per_proc: 2_000, ..RunConfig::default() });
//! let np = lab.run(Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8)).clone();
//! let pf = lab.run(Experiment::paper(Workload::Water, Strategy::Pref, 8)).clone();
//! // Prefetching lowers the CPU-observed miss rate…
//! assert!(pf.report.cpu_miss_rate() <= np.report.cpu_miss_rate());
//! // …but the bus still has to carry every fetched line.
//! assert!(pf.report.bus.total_ops() + 10 >= np.report.bus.total_ops());
//! ```

pub mod bench;
pub mod chaos;
mod chart;
pub mod checkpoint;
pub mod experiments;
mod lab;
pub mod parallel;
mod report;
pub mod retry;
pub mod sampling;
pub mod timeline;
pub mod wire;

pub use chart::AsciiChart;
pub use lab::{
    event_budget, execute_cell, BatchReport, Experiment, Lab, LabStats, ObserveSpec, RetryOutcome, RunConfig,
    RunError, RunFailure, RunMeta, RunSummary, MAX_JOBS,
};
pub use report::{format_rate, Table};
pub use sampling::{
    calibrate, quick_grid, run_sampled_on_prepared, Calibration, CalibrationCell, SampledSummary,
    SamplingConfig, SamplingMode,
};

/// Re-export: trace infrastructure.
pub use charlie_trace as trace;
/// Re-export: cache substrate.
pub use charlie_cache as cache;
/// Re-export: bus model.
pub use charlie_bus as bus;
/// Re-export: the multiprocessor simulator.
pub use charlie_sim as sim;
/// Re-export: prefetch insertion.
pub use charlie_prefetch as prefetch;
/// Re-export: workload generators.
pub use charlie_workloads as workloads;

pub use charlie_bus::BusConfig;
pub use charlie_cache::CacheGeometry;
pub use charlie_prefetch::Strategy;
pub use charlie_sim::{Protocol, SimConfig, SimReport};
pub use charlie_workloads::{Layout, Workload, WorkloadConfig};
