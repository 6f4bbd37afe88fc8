//! Sampled simulation: run a small, representative fraction of a trace in
//! detail, fast-forward the rest functionally, and reconstruct full-run
//! metrics with measured confidence intervals.
//!
//! Two methodologies share the window machinery in [`charlie_sim::sampling`]:
//!
//! * **SMARTS** ([`SamplingMode::Smarts`]) — systematic sampling: every
//!   `period`-th access window runs detailed (preceded by `warmup` warm
//!   windows that refill bus state), the rest fast-forward. Full-run cycles
//!   are a ratio estimate — detailed cycles-per-access extrapolated over the
//!   run's exact access count — with a CLT confidence interval from the
//!   between-window variance.
//! * **SimPoint** ([`SamplingMode::Simpoint`]) — representative intervals:
//!   a pure fast-forward signature pass records a per-window phase
//!   signature (miss rate, busy/stall mix, fill rate, approximate span);
//!   deterministic seeded k-means++ clusters the windows (k chosen by BIC);
//!   a second pass simulates one representative window per cluster in
//!   detail and the estimate is the cluster-weighted sum. The CI comes from
//!   the within-cluster signature variance, scaled by each representative's
//!   detailed/fast span ratio.
//!
//! Both estimators add a relative floor to the reported interval covering
//! the fast-forward path's *non-sampling* bias (warm-up transients at
//! window boundaries, the run-ahead quantum's clock skew), which the
//! statistical term cannot see. `tests/sampling_props.rs` checks the exact
//! value falls inside the interval across randomized configurations.
//!
//! Functional counters (miss classification, access mix, sharing) are not
//! estimated: fast-forward updates caches and coherence exactly, so the
//! sampled run's own counters are the true values.
//!
//! [`calibrate`] measures the error empirically: it runs sampled and exact
//! simulations side by side over an experiment grid and reports per-cell
//! error, CI coverage and wall-clock speedup.

use crate::lab::{Experiment, RunConfig};
use charlie_sim::{
    simulate_prevalidated, simulate_sampled_prevalidated, SamplePlan, SampledWindow, SimConfig,
    SimError, SimReport, WindowKind,
};
use charlie_trace::Trace;
use charlie_workloads::{generate, Workload};
use std::fmt;

/// Two-sided 99% normal quantile used for every confidence interval.
const Z_99: f64 = 2.576;

/// Relative bias floor added to every interval: `estimate / BIAS_FLOOR_DIV`
/// (4%) covers fast-forward non-sampling bias the variance term cannot see.
const BIAS_FLOOR_DIV: u64 = 25;

/// Maximum k-means iterations (assignments converge far earlier in
/// practice; the cap only bounds adversarial inputs).
const KMEANS_MAX_ITERS: usize = 64;

/// Which sampling methodology to run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SamplingMode {
    /// Systematic (periodic) sampling with ratio estimation.
    Smarts,
    /// Phase-clustered representative intervals.
    Simpoint,
}

impl SamplingMode {
    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SamplingMode::Smarts => "smarts",
            SamplingMode::Simpoint => "simpoint",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smarts" => Some(SamplingMode::Smarts),
            "simpoint" => Some(SamplingMode::Simpoint),
            _ => None,
        }
    }
}

impl fmt::Display for SamplingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Sampled-simulation knobs. Integer-only and `Copy`/`Eq`/`Hash` so
/// [`RunConfig`] keeps its derives and memo/journal keys stay exact.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SamplingConfig {
    /// Methodology.
    pub mode: SamplingMode,
    /// Machine-wide demand accesses per window.
    pub window_accesses: u64,
    /// SMARTS: windows per sampling unit (one detailed window each).
    /// Ignored by SimPoint.
    pub period: u64,
    /// Detailed warm-up windows before each measured window (both modes).
    pub warmup: u64,
    /// SimPoint: upper bound of the BIC cluster-count sweep. Ignored by
    /// SMARTS.
    pub max_k: u64,
    /// SimPoint: k-means seed (deterministic for a given seed). Ignored by
    /// SMARTS.
    pub seed: u64,
    /// SMARTS: detailed cold-start windows measured exactly instead of
    /// extrapolated — cache-fill transients concentrate in the first few
    /// windows and would otherwise be weighted `period`-fold. Ignored by
    /// SimPoint (phase clustering isolates the transient on its own).
    pub cold: u64,
}

impl SamplingConfig {
    /// SMARTS defaults: 4096-access windows, one detailed (plus two warm)
    /// windows per 37, after an 8-window measured cold-start stratum. The
    /// period is deliberately *prime*: the synthetic workloads have
    /// power-of-two phase structure, and a power-of-two period aliases with
    /// it (samples land on the same phase offset every time), which
    /// measured up to 75% execution-time error on Water — 37 breaks the
    /// resonance and calibrates to ≤2%.
    pub fn smarts() -> Self {
        SamplingConfig {
            mode: SamplingMode::Smarts,
            window_accesses: 4096,
            period: 37,
            warmup: 2,
            max_k: 0,
            seed: 0,
            cold: 8,
        }
    }

    /// SimPoint defaults: 4096-access windows, BIC sweep up to 8 clusters.
    pub fn simpoint() -> Self {
        SamplingConfig {
            mode: SamplingMode::Simpoint,
            window_accesses: 4096,
            period: 0,
            warmup: 1,
            max_k: 8,
            seed: 0x5EED,
            cold: 0,
        }
    }

    /// Structural validity (positive window size, SMARTS warmup < period,
    /// SimPoint max_k ≥ 1).
    pub fn validate(&self) -> Result<(), String> {
        if self.window_accesses == 0 {
            return Err("sampling window_accesses must be >= 1".into());
        }
        match self.mode {
            SamplingMode::Smarts => {
                if self.period == 0 {
                    return Err("smarts period must be >= 1".into());
                }
                if self.warmup >= self.period {
                    return Err(format!(
                        "smarts warmup ({}) must be < period ({})",
                        self.warmup, self.period
                    ));
                }
            }
            SamplingMode::Simpoint => {
                if self.max_k == 0 {
                    return Err("simpoint max_k must be >= 1".into());
                }
            }
        }
        Ok(())
    }
}

/// Sampled-run estimate attached to a run summary. All-integer so
/// [`crate::RunSummary`] keeps `PartialEq` and journals round-trip
/// losslessly.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SampledSummary {
    /// Methodology that produced the estimate.
    pub mode: SamplingMode,
    /// Access windows in the (final) sampled pass.
    pub total_windows: u64,
    /// Windows simulated in detail and measured.
    pub detailed_windows: u64,
    /// Phase clusters (SimPoint; 0 for SMARTS).
    pub clusters: u64,
    /// Exact demand accesses in the run (the extrapolation base).
    pub total_accesses: u64,
    /// Estimated full-run execution time in cycles.
    pub est_cycles: u64,
    /// Half-width of the 99% confidence interval on `est_cycles`.
    pub ci_cycles: u64,
    /// Estimated full-run bus-busy cycles.
    pub est_bus_busy: u64,
    /// Half-width of the 99% confidence interval on `est_bus_busy`.
    pub ci_bus_busy: u64,
    /// Scheduler events across every sampled pass (the cost that shrank).
    pub events: u64,
}

impl SampledSummary {
    /// Estimated bus utilization (busy over estimated cycles).
    pub fn bus_utilization(&self) -> f64 {
        if self.est_cycles == 0 {
            0.0
        } else {
            self.est_bus_busy as f64 / self.est_cycles as f64
        }
    }

    /// Relative CI half-width on execution time (1.0 = fully uncertain).
    pub fn relative_ci(&self) -> f64 {
        if self.est_cycles == 0 {
            0.0
        } else {
            self.ci_cycles as f64 / self.est_cycles as f64
        }
    }
}

/// `numerator * scale / denominator` in u128 (exact for all in-range runs).
fn ratio_scale(numerator: u64, scale: u64, denominator: u64) -> u64 {
    if denominator == 0 {
        return 0;
    }
    ((numerator as u128 * scale as u128) / denominator as u128) as u64
}

/// A detailed window's execution-time contribution: the per-processor
/// busy+stall cycle delta, summed over processors. This measures each
/// processor's *own* elapsed time inside the window, so the machine-wide
/// clock skew a fast-forward stretch leaves behind (stragglers up to a
/// run-ahead quantum apart) cancels instead of inflating the span — the
/// wall-clock `span()` systematically overestimates by that skew. Dividing
/// the extrapolated total by `procs` recovers wall cycles.
fn proc_cycles(w: &SampledWindow) -> u64 {
    w.proc_busy + w.proc_stall
}

/// Ratio estimate plus CI for one metric from detailed windows: per-window
/// rates `value / accesses` extrapolated over `total_accesses`, CI from the
/// between-window rate variance (CLT), floored at `est / BIAS_FLOOR_DIV`.
/// With fewer than two detailed windows the interval is the estimate itself
/// (fully uncertain).
fn ratio_estimate(detailed: &[&SampledWindow], total_accesses: u64, value: impl Fn(&SampledWindow) -> u64) -> (u64, u64) {
    let acc_d: u64 = detailed.iter().map(|w| w.accesses).sum();
    let val_d: u64 = detailed.iter().map(|w| value(w)).sum();
    let est = ratio_scale(val_d, total_accesses, acc_d);
    let n = detailed.len();
    if n < 2 || acc_d == 0 {
        return (est, est);
    }
    let mean = val_d as f64 / acc_d as f64;
    let var = detailed
        .iter()
        .filter(|w| w.accesses > 0)
        .map(|w| {
            let r = value(w) as f64 / w.accesses as f64;
            (r - mean) * (r - mean)
        })
        .sum::<f64>()
        / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    let ci = (Z_99 * se * total_accesses as f64) as u64;
    (est, ci.max(est / BIAS_FLOOR_DIV))
}

/// SMARTS: one periodic sampled pass plus stratified ratio estimation —
/// the cold-start stratum (first `cold` windows, all detailed) contributes
/// its measured cycles exactly; the steady-state remainder is a ratio
/// estimate from the periodic detailed windows.
fn run_smarts(
    sim_cfg: &SimConfig,
    prepared: &Trace,
    scfg: &SamplingConfig,
) -> Result<(SimReport, SampledSummary), SimError> {
    let plan =
        SamplePlan::periodic_with_cold(scfg.window_accesses, scfg.period, scfg.warmup, scfg.cold);
    let run = simulate_sampled_prevalidated(sim_cfg, prepared, &plan)?;
    let total_accesses = run.report.demand_accesses();
    let (cold, detailed): (Vec<&SampledWindow>, Vec<&SampledWindow>) = run
        .windows
        .iter()
        .filter(|w| w.kind == WindowKind::Detailed)
        .partition(|w| w.index < scfg.cold);
    let procs = sim_cfg.num_procs.max(1) as u64;
    let cold_accesses: u64 = cold.iter().map(|w| w.accesses).sum();
    let cold_proc: u64 = cold.iter().map(|w| proc_cycles(w)).sum();
    let cold_bus: u64 = cold.iter().map(|w| w.bus_busy).sum();
    let steady_accesses = total_accesses.saturating_sub(cold_accesses);
    // The bias floor re-applies against the *total* estimate: fast-forward
    // interleaving drift biases the whole run (the cold stratum included —
    // its windows are measured, but against a slightly different legal
    // interleaving than the exact run's), not just the extrapolated part.
    let (est_proc, ci_proc) = ratio_estimate(&detailed, steady_accesses, proc_cycles);
    let est_proc_total = cold_proc + est_proc;
    let ci_proc = ci_proc.max(est_proc_total / BIAS_FLOOR_DIV);
    let (est_cycles, ci_cycles) = (est_proc_total / procs, ci_proc / procs);
    let (est_bus_steady, ci_bus) = ratio_estimate(&detailed, steady_accesses, |w| w.bus_busy);
    let est_bus = cold_bus + est_bus_steady;
    let ci_bus = ci_bus.max(est_bus / BIAS_FLOOR_DIV);
    let summary = SampledSummary {
        mode: SamplingMode::Smarts,
        total_windows: run.windows.len() as u64,
        detailed_windows: (cold.len() + detailed.len()) as u64,
        clusters: 0,
        total_accesses,
        est_cycles,
        ci_cycles,
        est_bus_busy: est_bus.min(est_cycles),
        ci_bus_busy: ci_bus,
        events: run.events,
    };
    Ok((patch_report(run.report, &summary), summary))
}

/// Deterministic linear congruential generator seeding k-means++ (the PCG
/// multiplier/increment; quality is irrelevant here, determinism is not).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Seeded k-means++ over z-scored features. Returns (assignment, centroids,
/// residual sum of squares). Fully deterministic for a given seed: ties in
/// nearest-centroid assignment break toward the lowest index, empty
/// clusters keep their previous centroid.
fn kmeans(feats: &[Vec<f64>], k: usize, seed: u64) -> (Vec<usize>, Vec<Vec<f64>>, f64) {
    let n = feats.len();
    debug_assert!(k >= 1 && k <= n);
    let mut rng = Lcg(seed ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15));
    // k-means++ seeding: first centroid uniform, then proportional to
    // squared distance from the nearest chosen centroid.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(feats[(rng.next_u64() % n as u64) as usize].clone());
    let mut d2: Vec<f64> = feats.iter().map(|f| dist2(f, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= f64::EPSILON {
            // All points coincide with a centroid; take the first
            // not-yet-chosen index for determinism.
            (0..n).find(|i| d2[*i] > 0.0).unwrap_or(centroids.len())
        } else {
            let mut r = rng.next_f64() * total;
            let mut chosen = n - 1;
            for (i, d) in d2.iter().enumerate() {
                r -= d;
                if r <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let c = feats[idx.min(n - 1)].clone();
        for (i, f) in feats.iter().enumerate() {
            d2[i] = d2[i].min(dist2(f, &c));
        }
        centroids.push(c);
    }
    // Lloyd iterations.
    let dims = feats[0].len();
    let mut assign = vec![0usize; n];
    for _ in 0..KMEANS_MAX_ITERS {
        let mut changed = false;
        for (i, f) in feats.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let d = dist2(f, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0usize; k];
        for (i, f) in feats.iter().enumerate() {
            counts[assign[i]] += 1;
            for (d, x) in f.iter().enumerate() {
                sums[assign[i]][d] += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dims {
                    centroids[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }
    }
    let rss: f64 = feats.iter().enumerate().map(|(i, f)| dist2(f, &centroids[assign[i]])).sum();
    (assign, centroids, rss)
}

/// Per-window phase signature from a fast-forward pass, z-score normalized
/// per dimension: miss rate, busy and stall per access, fill rate, and the
/// approximate window span per access.
fn featurize(windows: &[&SampledWindow]) -> Vec<Vec<f64>> {
    let raw: Vec<[f64; 5]> = windows
        .iter()
        .map(|w| {
            let a = w.accesses.max(1) as f64;
            [
                w.misses as f64 / a,
                w.proc_busy as f64 / a,
                w.proc_stall as f64 / a,
                w.fills as f64 / a,
                w.span() as f64 / a,
            ]
        })
        .collect();
    let n = raw.len() as f64;
    let mut out = vec![vec![0.0; 5]; raw.len()];
    for d in 0..5 {
        let mean = raw.iter().map(|r| r[d]).sum::<f64>() / n;
        let var = raw.iter().map(|r| (r[d] - mean) * (r[d] - mean)).sum::<f64>() / n;
        let sd = var.sqrt();
        if sd > 1e-12 {
            for (i, r) in raw.iter().enumerate() {
                out[i][d] = (r[d] - mean) / sd;
            }
        }
    }
    out
}

/// Picks k by the Bayesian information criterion over `1..=max_k`:
/// `BIC(k) = n·ln(RSS/n) + k·ln(n)`, smallest wins (ties to the smaller k).
fn choose_k(feats: &[Vec<f64>], max_k: usize, seed: u64) -> (usize, Vec<usize>, Vec<Vec<f64>>) {
    let n = feats.len();
    let cap = max_k.min(n);
    let mut best: Option<(f64, usize, Vec<usize>, Vec<Vec<f64>>)> = None;
    for k in 1..=cap {
        let (assign, centroids, rss) = kmeans(feats, k, seed);
        let bic = n as f64 * (rss.max(1e-9) / n as f64).ln() + k as f64 * (n as f64).ln();
        if best.as_ref().map_or(true, |b| bic < b.0) {
            best = Some((bic, k, assign, centroids));
        }
    }
    let (_, k, assign, centroids) = best.expect("at least k=1 evaluated");
    (k, assign, centroids)
}

/// SimPoint: fast-forward signature pass, cluster, re-run with one detailed
/// representative per cluster, weight by cluster size.
fn run_simpoint(
    sim_cfg: &SimConfig,
    prepared: &Trace,
    scfg: &SamplingConfig,
) -> Result<(SimReport, SampledSummary), SimError> {
    // Pass 1: pure fast-forward, collecting phase signatures.
    let sig_plan = SamplePlan::fast_forward(scfg.window_accesses);
    let sig = simulate_sampled_prevalidated(sim_cfg, prepared, &sig_plan)?;
    let usable: Vec<&SampledWindow> =
        sig.windows.iter().filter(|w| w.accesses > 0).collect();
    if usable.is_empty() {
        return Err(SimError::InvalidSamplePlan(
            "trace produced no sampleable windows".into(),
        ));
    }
    let feats = featurize(&usable);
    let (k, assign, centroids) = choose_k(&feats, scfg.max_k as usize, scfg.seed);

    // Representative per cluster: the member closest to the centroid
    // (lowest window index on ties); weight = member accesses.
    struct Cluster {
        rep_pos: usize,
        rep_d2: f64,
        accesses: u64,
        members: Vec<usize>,
    }
    let mut clusters: Vec<Cluster> = (0..k)
        .map(|_| Cluster { rep_pos: usize::MAX, rep_d2: f64::INFINITY, accesses: 0, members: Vec::new() })
        .collect();
    for (pos, &c) in assign.iter().enumerate() {
        let cl = &mut clusters[c];
        cl.accesses += usable[pos].accesses;
        cl.members.push(pos);
        let d = dist2(&feats[pos], &centroids[c]);
        if d < cl.rep_d2 {
            cl.rep_d2 = d;
            cl.rep_pos = pos;
        }
    }
    clusters.retain(|c| !c.members.is_empty());
    let mut rep_indices: Vec<u64> = clusters.iter().map(|c| usable[c.rep_pos].index).collect();
    rep_indices.sort_unstable();
    rep_indices.dedup();

    // Pass 2: detailed simulation of exactly the representatives.
    let plan = SamplePlan::explicit(scfg.window_accesses, rep_indices, scfg.warmup);
    let run = simulate_sampled_prevalidated(sim_cfg, prepared, &plan)?;
    let total_accesses = run.report.demand_accesses();
    let detailed: Vec<&SampledWindow> =
        run.windows.iter().filter(|w| w.kind == WindowKind::Detailed).collect();
    let find_detailed = |index: u64| detailed.iter().find(|w| w.index == index);

    // Cluster-weighted estimate in per-processor cycle space (see
    // [`proc_cycles`]): est = Σ_c A_c · (rep busy+stall / rep accesses),
    // divided by the processor count at the end. CI: within-cluster
    // variance of the pass-1 rates, scaled by the representative's
    // detailed/fast rate ratio (the fast pass understates stalls by
    // roughly that factor), summed in quadrature across clusters.
    let procs = sim_cfg.num_procs.max(1) as u64;
    let mut est_proc: u64 = 0;
    let mut est_bus: u64 = 0;
    let mut var_sum = 0.0f64;
    for cl in &clusters {
        let rep = usable[cl.rep_pos];
        let Some(det) = find_detailed(rep.index) else { continue };
        est_proc += ratio_scale(proc_cycles(det), cl.accesses, det.accesses);
        est_bus += ratio_scale(det.bus_busy, cl.accesses, det.accesses);
        let n_c = cl.members.len();
        if n_c >= 2 {
            let rates: Vec<f64> = cl
                .members
                .iter()
                .map(|&p| proc_cycles(usable[p]) as f64 / usable[p].accesses.max(1) as f64)
                .collect();
            let mean = rates.iter().sum::<f64>() / n_c as f64;
            let var =
                rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n_c - 1) as f64;
            let ff_rate = proc_cycles(rep) as f64 / rep.accesses.max(1) as f64;
            let det_rate = proc_cycles(det) as f64 / det.accesses.max(1) as f64;
            let kappa = if ff_rate > 1e-9 { det_rate / ff_rate } else { 1.0 };
            let se_scaled = (var / n_c as f64).sqrt() * kappa * cl.accesses as f64;
            var_sum += se_scaled * se_scaled;
        }
    }
    let est_cycles = est_proc / procs;
    let ci_cycles =
        (((Z_99 * var_sum.sqrt()) as u64) / procs).max(est_cycles / BIAS_FLOOR_DIV);
    let ci_bus = if est_cycles == 0 {
        0
    } else {
        ratio_scale(est_bus, ci_cycles, est_cycles).max(est_bus / BIAS_FLOOR_DIV)
    };
    let summary = SampledSummary {
        mode: SamplingMode::Simpoint,
        total_windows: run.windows.len() as u64,
        detailed_windows: detailed.len() as u64,
        clusters: clusters.len() as u64,
        total_accesses,
        est_cycles,
        ci_cycles,
        est_bus_busy: est_bus.min(est_cycles),
        ci_bus_busy: ci_bus,
        events: sig.events + run.events,
    };
    Ok((patch_report(run.report, &summary), summary))
}

/// Overwrites the report's timing totals with the sampled estimates so
/// downstream consumers (relative execution time, bus-utilization tables,
/// JSON output) read full-run estimates. Functional counters are left
/// untouched — they are exact.
fn patch_report(mut report: SimReport, summary: &SampledSummary) -> SimReport {
    report.cycles = summary.est_cycles;
    report.bus.busy_cycles = summary.est_bus_busy;
    report
}

/// Runs one prepared trace in sampled mode, returning the patched report
/// (timing totals replaced by estimates; see [`patch_report`]) and the
/// estimate itself. Requires `sim_cfg.warmup_accesses == 0` — the sampled
/// path owns the measurement-window semantics.
pub fn run_sampled_on_prepared(
    sim_cfg: &SimConfig,
    prepared: &Trace,
    scfg: &SamplingConfig,
) -> Result<(SimReport, SampledSummary), SimError> {
    scfg.validate().map_err(SimError::InvalidSamplePlan)?;
    match scfg.mode {
        SamplingMode::Smarts => run_smarts(sim_cfg, prepared, scfg),
        SamplingMode::Simpoint => run_simpoint(sim_cfg, prepared, scfg),
    }
}

// ---------------------------------------------------------------------------
// Calibration: sampled vs exact over an experiment grid.
// ---------------------------------------------------------------------------

/// One grid cell's sampled-vs-exact comparison.
#[derive(Clone, PartialEq, Debug)]
pub struct CalibrationCell {
    /// The cell.
    pub experiment: Experiment,
    /// Exact execution time (full detailed simulation).
    pub exact_cycles: u64,
    /// Exact bus-busy cycles.
    pub exact_bus_busy: u64,
    /// The sampled estimate for the same cell.
    pub sampled: SampledSummary,
    /// Wall-clock nanoseconds of the exact run.
    pub exact_wall_ns: u64,
    /// Wall-clock nanoseconds of the sampled run (all passes).
    pub sampled_wall_ns: u64,
    /// Scheduler events of the exact run (for the deterministic speedup).
    pub exact_events: u64,
}

impl CalibrationCell {
    /// Relative execution-time error `|est − exact| / exact`.
    pub fn cycles_error(&self) -> f64 {
        if self.exact_cycles == 0 {
            return 0.0;
        }
        (self.sampled.est_cycles as f64 - self.exact_cycles as f64).abs()
            / self.exact_cycles as f64
    }

    /// Relative bus-utilization error.
    pub fn util_error(&self) -> f64 {
        let exact = if self.exact_cycles == 0 {
            0.0
        } else {
            self.exact_bus_busy as f64 / self.exact_cycles as f64
        };
        if exact == 0.0 {
            return 0.0;
        }
        (self.sampled.bus_utilization() - exact).abs() / exact
    }

    /// Wall-clock speedup of the sampled run over the exact run.
    pub fn speedup(&self) -> f64 {
        if self.sampled_wall_ns == 0 {
            return 0.0;
        }
        self.exact_wall_ns as f64 / self.sampled_wall_ns as f64
    }

    /// Event-count speedup (deterministic; wall clock is noisy under load).
    pub fn event_speedup(&self) -> f64 {
        if self.sampled.events == 0 {
            return 0.0;
        }
        self.exact_events as f64 / self.sampled.events as f64
    }

    /// Whether the exact execution time falls inside the estimate's CI.
    pub fn ci_contains_cycles(&self) -> bool {
        let lo = self.sampled.est_cycles.saturating_sub(self.sampled.ci_cycles);
        let hi = self.sampled.est_cycles.saturating_add(self.sampled.ci_cycles);
        (lo..=hi).contains(&self.exact_cycles)
    }

    /// Whether the exact bus-busy total falls inside its CI.
    pub fn ci_contains_bus(&self) -> bool {
        let lo = self.sampled.est_bus_busy.saturating_sub(self.sampled.ci_bus_busy);
        let hi = self.sampled.est_bus_busy.saturating_add(self.sampled.ci_bus_busy);
        (lo..=hi).contains(&self.exact_bus_busy)
    }
}

/// Result of a [`calibrate`] sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct Calibration {
    /// The sampling configuration measured.
    pub config: SamplingConfig,
    /// Per-cell comparisons, in grid order.
    pub cells: Vec<CalibrationCell>,
}

impl Calibration {
    /// Largest per-cell execution-time error.
    pub fn max_cycles_error(&self) -> f64 {
        self.cells.iter().map(CalibrationCell::cycles_error).fold(0.0, f64::max)
    }

    /// Largest per-cell bus-utilization error.
    pub fn max_util_error(&self) -> f64 {
        self.cells.iter().map(CalibrationCell::util_error).fold(0.0, f64::max)
    }

    /// Mean execution-time error across cells.
    pub fn mean_cycles_error(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().map(CalibrationCell::cycles_error).sum::<f64>()
            / self.cells.len() as f64
    }

    /// Geometric-mean wall-clock speedup.
    pub fn mean_speedup(&self) -> f64 {
        let positive: Vec<f64> =
            self.cells.iter().map(CalibrationCell::speedup).filter(|s| *s > 0.0).collect();
        if positive.is_empty() {
            return 0.0;
        }
        (positive.iter().map(|s| s.ln()).sum::<f64>() / positive.len() as f64).exp()
    }

    /// Geometric-mean event-count speedup (deterministic across machines).
    pub fn mean_event_speedup(&self) -> f64 {
        let positive: Vec<f64> =
            self.cells.iter().map(CalibrationCell::event_speedup).filter(|s| *s > 0.0).collect();
        if positive.is_empty() {
            return 0.0;
        }
        (positive.iter().map(|s| s.ln()).sum::<f64>() / positive.len() as f64).exp()
    }

    /// Fraction of cells whose execution-time CI contains the exact value.
    pub fn ci_coverage(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        self.cells.iter().filter(|c| c.ci_contains_cycles()).count() as f64
            / self.cells.len() as f64
    }
}

/// The quick calibration grid: one representative workload per behaviour
/// class (streaming-heavy Mp3d, sharing-heavy Pverify, quiet Water), NP and
/// PREF, fast and slow buses — 12 cells, cheap enough for CI.
pub fn quick_grid() -> Vec<Experiment> {
    use charlie_prefetch::Strategy;
    let mut grid = Vec::new();
    for w in [Workload::Mp3d, Workload::Pverify, Workload::Water] {
        for s in [Strategy::NoPrefetch, Strategy::Pref] {
            for lat in [4u64, 32] {
                grid.push(Experiment::paper(w, s, lat));
            }
        }
    }
    grid
}

/// Runs `grid` sampled and exact under `cfg`, comparing per cell.
/// Deterministic in everything but the wall-clock columns; `jobs` workers
/// split the grid cell-by-cell (results are in grid order regardless).
pub fn calibrate(
    cfg: &RunConfig,
    scfg: &SamplingConfig,
    grid: &[Experiment],
    jobs: usize,
) -> Result<Calibration, SimError> {
    scfg.validate().map_err(SimError::InvalidSamplePlan)?;
    let results = crate::parallel::map(grid, jobs.max(1), |_, exp| calibrate_cell(cfg, scfg, *exp));
    let mut cells = Vec::with_capacity(results.len());
    for r in results {
        cells.push(r?);
    }
    Ok(Calibration { config: *scfg, cells })
}

/// One cell: generate, apply strategy, run exact and sampled, compare.
fn calibrate_cell(
    cfg: &RunConfig,
    scfg: &SamplingConfig,
    exp: Experiment,
) -> Result<CalibrationCell, SimError> {
    let (sim_cfg, prepared) = prepare_cell(cfg, exp)?;

    let exact_start = std::time::Instant::now();
    let (exact, exact_events) =
        charlie_sim::simulate_counted_prevalidated(&sim_cfg, &prepared)?;
    let exact_wall_ns = exact_start.elapsed().as_nanos() as u64;

    let sampled_start = std::time::Instant::now();
    let (_, sampled) = run_sampled_on_prepared(&sim_cfg, &prepared, scfg)?;
    let sampled_wall_ns = sampled_start.elapsed().as_nanos() as u64;

    Ok(CalibrationCell {
        experiment: exp,
        exact_cycles: exact.cycles,
        exact_bus_busy: exact.bus.busy_cycles,
        sampled,
        exact_wall_ns,
        sampled_wall_ns,
        exact_events,
    })
}

/// Builds the simulator configuration and prepared trace for one cell the
/// same way the lab does (validated raw trace, strategy applied).
fn prepare_cell(cfg: &RunConfig, exp: Experiment) -> Result<(SimConfig, Trace), SimError> {
    let raw = generate(exp.workload, &crate::lab::workload_config(cfg, exp.layout));
    raw.validate()?;
    let prepared = charlie_prefetch::apply(exp.strategy, &raw, cfg.geometry);
    Ok((crate::lab::sim_config(cfg, exp), prepared))
}

/// Smoke check: the exact path reproduces a plain simulation (used by the
/// property suite; exported so the CLI can cheaply self-test).
pub fn exact_reference(cfg: &RunConfig, exp: Experiment) -> Result<SimReport, SimError> {
    let (sim_cfg, prepared) = prepare_cell(cfg, exp)?;
    simulate_prevalidated(&sim_cfg, &prepared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_prefetch::Strategy;

    fn small_cfg() -> RunConfig {
        RunConfig { refs_per_proc: 4_000, procs: 4, ..RunConfig::default() }
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [SamplingMode::Smarts, SamplingMode::Simpoint] {
            assert_eq!(SamplingMode::parse(m.name()), Some(m));
        }
        assert_eq!(SamplingMode::parse("nope"), None);
    }

    #[test]
    fn config_validation() {
        assert!(SamplingConfig::smarts().validate().is_ok());
        assert!(SamplingConfig::simpoint().validate().is_ok());
        assert!(SamplingConfig { window_accesses: 0, ..SamplingConfig::smarts() }
            .validate()
            .is_err());
        assert!(SamplingConfig { period: 0, ..SamplingConfig::smarts() }.validate().is_err());
        assert!(SamplingConfig { warmup: 37, ..SamplingConfig::smarts() }.validate().is_err());
        assert!(SamplingConfig { max_k: 0, ..SamplingConfig::simpoint() }.validate().is_err());
    }

    #[test]
    fn kmeans_is_deterministic_and_partitions() {
        let feats: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 10.0 };
                vec![base + (i as f64) * 0.01, base]
            })
            .collect();
        let (a1, c1, r1) = kmeans(&feats, 2, 42);
        let (a2, c2, r2) = kmeans(&feats, 2, 42);
        assert_eq!(a1, a2);
        assert_eq!(c1, c2);
        assert_eq!(r1, r2);
        // The two obvious blobs separate.
        assert_ne!(a1[0], a1[1]);
        assert_eq!(a1[0], a1[2]);
        assert!(r1 < 1.0);
    }

    #[test]
    fn choose_k_finds_two_blobs() {
        let feats: Vec<Vec<f64>> = (0..30)
            .map(|i| if i % 2 == 0 { vec![0.0, 0.0] } else { vec![5.0, 5.0] })
            .collect();
        let (k, assign, _) = choose_k(&feats, 6, 7);
        assert_eq!(k, 2);
        assert_ne!(assign[0], assign[1]);
    }

    #[test]
    fn smarts_estimate_close_to_exact() {
        let cfg = small_cfg();
        let exp = Experiment::paper(Workload::Mp3d, Strategy::NoPrefetch, 8);
        let exact = exact_reference(&cfg, exp).unwrap();
        let (sim_cfg, prepared) = prepare_cell(&cfg, exp).unwrap();
        let scfg = SamplingConfig { period: 8, ..SamplingConfig::smarts() };
        let (report, summary) = run_sampled_on_prepared(&sim_cfg, &prepared, &scfg).unwrap();
        assert_eq!(report.cycles, summary.est_cycles);
        assert!(summary.detailed_windows >= 1);
        let err = (summary.est_cycles as f64 - exact.cycles as f64).abs() / exact.cycles as f64;
        assert!(err < 0.25, "estimate {} vs exact {} (err {err:.3})", summary.est_cycles, exact.cycles);
        // Functional counters are simulated, not estimated: they match the
        // detailed run up to the different (but equally legal) lock
        // interleaving fast-forward settles on — sync retries and
        // timing-sensitive miss classification drift by a few percent,
        // never wholesale.
        let close = |a: u64, b: u64, what: &str| {
            let diff = (a as i64 - b as i64).unsigned_abs();
            assert!(diff * 20 <= b.max(1), "sampled {what} {a} vs exact {b}");
        };
        close(report.demand_accesses(), exact.demand_accesses(), "accesses");
        close(report.miss.cpu_misses(), exact.miss.cpu_misses(), "misses");
    }

    #[test]
    fn simpoint_runs_and_patches_report() {
        let cfg = small_cfg();
        let exp = Experiment::paper(Workload::Water, Strategy::Pref, 8);
        let (sim_cfg, prepared) = prepare_cell(&cfg, exp).unwrap();
        let scfg = SamplingConfig { window_accesses: 1024, ..SamplingConfig::simpoint() };
        let (report, summary) = run_sampled_on_prepared(&sim_cfg, &prepared, &scfg).unwrap();
        assert_eq!(summary.mode, SamplingMode::Simpoint);
        assert!(summary.clusters >= 1);
        assert!(summary.detailed_windows >= 1);
        assert_eq!(report.cycles, summary.est_cycles);
        assert!(summary.est_cycles > 0);
        assert!(summary.est_bus_busy <= summary.est_cycles);
    }

    /// The exact reference simulates the lab's machine, protocol included:
    /// under MOESI it must match `Lab::run` cell for cell rather than
    /// silently simulate the Illinois default.
    #[test]
    fn exact_reference_matches_lab_under_moesi() {
        let cfg = RunConfig {
            refs_per_proc: 3_000,
            procs: 4,
            protocol: charlie_sim::Protocol::Moesi,
            ..RunConfig::default()
        };
        let exp = Experiment::paper(Workload::Water, Strategy::Pref, 8);
        let exact = exact_reference(&cfg, exp).unwrap();
        let lab = crate::Lab::new(cfg).run(exp).report.clone();
        assert_eq!(exact, lab);
    }

    #[test]
    fn calibrate_reports_errors_and_speedup() {
        // Big enough that windows extend well past the cold-start stratum;
        // a run that fits inside it is all-detailed and has no speedup.
        let cfg = RunConfig { refs_per_proc: 30_000, procs: 4, ..RunConfig::default() };
        let grid = [Experiment::paper(Workload::Mp3d, Strategy::NoPrefetch, 8)];
        let scfg = SamplingConfig { period: 8, cold: 4, ..SamplingConfig::smarts() };
        let cal = calibrate(&cfg, &scfg, &grid, 1).unwrap();
        assert_eq!(cal.cells.len(), 1);
        let cell = &cal.cells[0];
        assert!(cell.exact_cycles > 0);
        assert!(cell.sampled.est_cycles > 0);
        assert!(cell.event_speedup() > 1.0, "event speedup {}", cell.event_speedup());
        assert!(cal.max_cycles_error() < 1.0);
    }

    #[test]
    fn calibrate_deterministic_across_jobs() {
        let cfg = RunConfig { refs_per_proc: 2_000, procs: 2, ..RunConfig::default() };
        let grid = quick_grid();
        let scfg = SamplingConfig { period: 4, ..SamplingConfig::smarts() };
        let a = calibrate(&cfg, &scfg, &grid[..4], 1).unwrap();
        let b = calibrate(&cfg, &scfg, &grid[..4], 4).unwrap();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.sampled, y.sampled);
            assert_eq!(x.exact_cycles, y.exact_cycles);
        }
    }
}
