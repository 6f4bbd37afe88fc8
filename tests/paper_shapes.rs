//! Qualitative reproduction checks: the paper's headline claims must hold in
//! shape (who wins, roughly by how much, where the crossovers are), even at
//! reduced trace sizes. EXPERIMENTS.md records the full-size quantitative
//! comparison.

use charlie::{Experiment, Lab, RunConfig, Strategy, Workload};

fn lab() -> Lab {
    // Short of steady state: the paper traced ~2M references per processor,
    // and from 160k to 2M refs NP CPU miss rates still fall 6-36% (Water
    // 1.31% -> 0.84%) while PREF's gain on the 4-cycle bus shrinks (Topopt
    // relative time 0.784 -> 0.836). Cold-start misses that PREF removes
    // inflate its benefit at this length: Pverify's adjusted CPU-miss cut
    // reads about 21% here and about 10% at steady state, so the >20% check
    // in `pref_covers_a_large_share_of_cpu_misses` would fail at 2M refs.
    // The predicates check the paper's shapes at this length.
    Lab::new(RunConfig { procs: 8, refs_per_proc: 120_000, seed: 0xC0FFEE, ..RunConfig::default() })
}

/// §4.2: "Execution time typically fell when bus loads were lighter" — the
/// heavy-sharing workloads gain from prefetching on the fastest bus.
#[test]
fn prefetching_helps_on_the_fast_bus() {
    let mut lab = lab();
    for w in [Workload::Pverify, Workload::Mp3d] {
        let rel = lab.relative_time(Experiment::paper(w, Strategy::Pws, 4));
        assert!(rel < 1.0, "{w}: PWS on the 4-cycle bus must win, got {rel:.3}");
    }
}

/// §4.2: "execution time increased when the bus was saturated" — on the
/// 32-cycle bus, Mp3d (the bus-bound workload) gains nothing from PREF.
#[test]
fn no_pref_win_at_saturation() {
    let mut lab = lab();
    let rel = lab.relative_time(Experiment::paper(Workload::Mp3d, Strategy::Pref, 32));
    assert!(
        rel > 0.95,
        "Mp3d/PREF at 32 cycles must not show a real speedup (bus saturated), got {rel:.3}"
    );
}

/// §4.2: speedups are bounded (max 1.39 in the paper); no strategy produces
/// miraculous wins, and degradations stay moderate (worst ~7%).
#[test]
fn gains_and_losses_are_bounded() {
    let mut lab = lab();
    for w in Workload::ALL {
        for s in [Strategy::Pref, Strategy::Pws] {
            for lat in [4, 16, 32] {
                let rel = lab.relative_time(Experiment::paper(w, s, lat));
                assert!(
                    (0.5..=1.15).contains(&rel),
                    "{w}/{s}@{lat}: rel time {rel:.3} outside the paper's plausible band"
                );
            }
        }
    }
}

/// §4.2: Water has little to gain — "the best any memory-latency hiding
/// technique can do is to bring processor utilization to 1", so its gain is
/// bounded by its already-high NP utilization.
#[test]
fn water_gain_bounded_by_headroom() {
    let mut lab = lab();
    for lat in [4, 32] {
        let util = lab
            .run(Experiment::paper(Workload::Water, Strategy::NoPrefetch, lat))
            .report
            .avg_processor_utilization();
        let rel = lab.relative_time(Experiment::paper(Workload::Water, Strategy::Pref, lat));
        assert!(
            rel >= 0.95 * util,
            "Water/PREF@{lat}: {rel:.3} beats the utilization bound ({util:.2})"
        );
        assert!(rel <= 1.05, "Water/PREF@{lat}: {rel:.3} should not degrade much");
    }
}

/// §4.4 headline: "the limit to effective prefetching … is invalidation
/// misses": under PREF, invalidation misses are the largest CPU-miss
/// component for the sharing-heavy workloads.
#[test]
fn invalidation_misses_dominate_under_pref() {
    let mut lab = lab();
    for w in [Workload::Pverify, Workload::Topopt] {
        let r = lab.run(Experiment::paper(w, Strategy::Pref, 8)).report.clone();
        let m = r.miss;
        assert!(
            m.invalidation() > m.non_sharing(),
            "{w}: inval {} must exceed non-sharing {} under PREF",
            m.invalidation(),
            m.non_sharing()
        );
        assert!(
            m.invalidation() >= m.prefetch_in_progress,
            "{w}: inval misses must be the largest component"
        );
    }
}

/// §4.1/§4.2: PREF covers a large share of CPU misses (37–71% raw, 38–77%
/// adjusted in Figure 1). The raw rate is polluted by prefetch-in-progress
/// misses ("often a large portion of the CPU miss rate"), so the robust
/// check is on the adjusted rate; the sharing-bound workloads sit at the
/// low end because invalidation misses are untouchable.
#[test]
fn pref_covers_a_large_share_of_cpu_misses() {
    let mut lab = lab();
    for w in Workload::ALL {
        let np = lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report.clone();
        let pf = lab.run(Experiment::paper(w, Strategy::Pref, 8)).report.clone();
        let adjusted =
            1.0 - pf.adjusted_cpu_miss_rate() / np.adjusted_cpu_miss_rate();
        assert!(
            adjusted > 0.2,
            "{w}: PREF must cut adjusted CPU misses by >20%, got {:.0}%",
            100.0 * adjusted
        );
        let raw = 1.0 - pf.cpu_miss_rate() / np.cpu_miss_rate();
        assert!(raw > 0.0, "{w}: even the raw CPU miss rate must fall");
    }
}

/// §4.4: PWS beats PREF on CPU misses for the write-sharing workloads
/// ("CPU miss rates for PWS were 11% to 64% lower than PREF").
#[test]
fn pws_beats_pref_on_cpu_misses() {
    let mut lab = lab();
    for w in [Workload::Pverify, Workload::Topopt, Workload::Mp3d] {
        let pref = lab.run(Experiment::paper(w, Strategy::Pref, 4)).report.clone();
        let pws = lab.run(Experiment::paper(w, Strategy::Pws, 4)).report.clone();
        assert!(
            pws.cpu_miss_rate() < pref.cpu_miss_rate(),
            "{w}: PWS CPU MR {:.4} must be below PREF {:.4}",
            pws.cpu_miss_rate(),
            pref.cpu_miss_rate()
        );
    }
}

/// §4.3: LPD trades prefetch-in-progress misses for conflict misses and
/// "does not pay off in performance".
#[test]
fn lpd_does_not_beat_pref() {
    let mut lab = lab();
    for w in [Workload::Mp3d, Workload::Topopt] {
        let pref = lab.run(Experiment::paper(w, Strategy::Pref, 8)).report.clone();
        let lpd = lab.run(Experiment::paper(w, Strategy::Lpd, 8)).report.clone();
        assert!(
            lpd.miss.prefetch_in_progress <= pref.miss.prefetch_in_progress,
            "{w}: LPD must cut in-progress misses"
        );
        let rel_pref = lab.relative_time(Experiment::paper(w, Strategy::Pref, 8));
        let rel_lpd = lab.relative_time(Experiment::paper(w, Strategy::Lpd, 8));
        assert!(
            rel_lpd >= rel_pref - 0.02,
            "{w}: LPD ({rel_lpd:.3}) must not meaningfully beat PREF ({rel_pref:.3})"
        );
    }
}

/// §4.3: EXCL "tracks our base strategy extremely closely".
#[test]
fn excl_tracks_pref_closely() {
    let mut lab = lab();
    for w in Workload::ALL {
        let rel_pref = lab.relative_time(Experiment::paper(w, Strategy::Pref, 8));
        let rel_excl = lab.relative_time(Experiment::paper(w, Strategy::Excl, 8));
        assert!(
            (rel_pref - rel_excl).abs() < 0.05,
            "{w}: EXCL ({rel_excl:.3}) must track PREF ({rel_pref:.3})"
        );
    }
}

/// Table 3: false sharing accounts for over half of invalidation misses for
/// most of the workloads.
#[test]
fn false_sharing_is_over_half_of_invalidations_for_most() {
    let mut lab = lab();
    let mut majority = 0;
    for w in Workload::ALL {
        let r = lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report.clone();
        let inval = r.miss.invalidation();
        if inval > 0 && r.false_sharing_misses * 2 > inval {
            majority += 1;
        }
    }
    assert!(majority >= 3, "false sharing must dominate invalidations for most workloads");
}

/// Table 4: restructuring slashes invalidation misses (×6 for Topopt, ×4
/// for Pverify in the paper — we require at least ×2.5).
#[test]
fn restructuring_slashes_invalidation_misses() {
    let mut lab = lab();
    for w in [Workload::Topopt, Workload::Pverify] {
        let orig = lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report.clone();
        let restr =
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8).restructured()).report.clone();
        let factor = orig.invalidation_miss_rate() / restr.invalidation_miss_rate().max(1e-9);
        assert!(
            factor > 2.5,
            "{w}: restructuring must cut invalidation misses by >2.5x, got {factor:.1}x"
        );
    }
}

/// Table 4: restructured Topopt also loses much of its *non-sharing* miss
/// rate (the locality improvement), unlike Pverify.
#[test]
fn restructured_topopt_gains_locality() {
    let mut lab = lab();
    let orig = lab.run(Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8)).report.clone();
    let restr = lab
        .run(Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8).restructured())
        .report
        .clone();
    assert!(
        restr.non_sharing_miss_rate() < 0.7 * orig.non_sharing_miss_rate(),
        "restructured Topopt non-sharing MR {:.4} must be well below {:.4}",
        restr.non_sharing_miss_rate(),
        orig.non_sharing_miss_rate()
    );
}

/// §4.4: after restructuring, plain PREF approaches PWS ("the performance of
/// the simplest prefetching algorithm approached that of the strategy
/// tailored to write-shared data").
#[test]
fn after_restructuring_pref_approaches_pws() {
    let mut lab = lab();
    for w in [Workload::Topopt, Workload::Pverify] {
        let pref = lab.relative_time(Experiment::paper(w, Strategy::Pref, 4).restructured());
        let pws = lab.relative_time(Experiment::paper(w, Strategy::Pws, 4).restructured());
        assert!(
            (pref - pws).abs() < 0.05,
            "{w} restructured: PREF ({pref:.3}) must approach PWS ({pws:.3})"
        );
    }
}

/// §4.2: NP processor utilizations order the workloads the way the paper
/// reports: Water highest, Mp3d/Pverify lowest.
#[test]
fn processor_utilization_ordering() {
    let mut lab = lab();
    let util = |lab: &mut Lab, w| {
        lab.run(Experiment::paper(w, Strategy::NoPrefetch, 4))
            .report
            .avg_processor_utilization()
    };
    let water = util(&mut lab, Workload::Water);
    let mp3d = util(&mut lab, Workload::Mp3d);
    let pverify = util(&mut lab, Workload::Pverify);
    let topopt = util(&mut lab, Workload::Topopt);
    assert!(water > topopt, "Water ({water:.2}) > Topopt ({topopt:.2})");
    assert!(topopt > mp3d, "Topopt ({topopt:.2}) > Mp3d ({mp3d:.2})");
    assert!(water > pverify, "Water ({water:.2}) > Pverify ({pverify:.2})");
}
