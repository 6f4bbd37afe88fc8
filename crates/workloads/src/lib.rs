//! Synthetic workload generators for the `charlie` simulator.
//!
//! The paper traced five coarse-grain parallel C programs on a Sequent
//! Symmetry with MPTrace: **Topopt** (topological optimization of VLSI
//! circuits by parallel simulated annealing), **Pverify** (boolean circuit
//! equivalence), **LocusRoute** (commercial-quality standard-cell router),
//! **Mp3d** (rarefied particle flow) and **Water** (liquid-state molecular
//! dynamics), the latter three from SPLASH. Those traces no longer exist;
//! this crate generates synthetic per-processor address streams whose
//! *statistical structure* — miss rate against a 32 KB direct-mapped cache,
//! write-sharing intensity, false-sharing fraction, synchronization cadence,
//! data-set-to-cache ratio — is calibrated to reproduce each application's
//! published baseline behaviour (the paper's Table 2 NP bus utilizations and
//! §4.2 processor utilizations). See `DESIGN.md` for the full substitution
//! argument.
//!
//! Every generator is deterministic in its seed, emits the same number of
//! barrier episodes on every processor, and keeps all data outside the
//! simulator's reserved lock/barrier region.
//!
//! The `Layout` knob reproduces the paper's §4.4 *restructuring*
//! experiment: [`Layout::Padded`] places each processor's write-shared words
//! on separate cache lines (what the Jeremiassen–Eggers transformation
//! achieves), eliminating false sharing; for Topopt it also improves
//! locality, as the paper reports.
//!
//! # Example
//!
//! ```
//! use charlie_workloads::{generate, Workload, WorkloadConfig};
//!
//! let cfg = WorkloadConfig { refs_per_proc: 2_000, ..WorkloadConfig::default() };
//! let trace = generate(Workload::Water, &cfg);
//! assert_eq!(trace.num_procs(), 8);
//! assert!(trace.validate().is_ok());
//! ```

mod chase;
mod locusroute;
mod mix;
mod mp3d;
mod pverify;
mod topopt;
mod water;

pub use mix::{MixParams, RegionMap};

use charlie_trace::Trace;
use std::fmt;

/// Data layout of the shared structures.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Layout {
    /// The original programs: per-processor data word-interleaved within
    /// shared cache lines (false sharing present).
    #[default]
    Interleaved,
    /// The restructured programs of the paper's §4.4: each processor's
    /// write-shared words padded onto their own lines.
    Padded,
}

/// The five applications of the paper's Table 1.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// Topological optimization of VLSI circuits (parallel simulated
    /// annealing): small shared data set, heavy write sharing, many conflict
    /// misses.
    Topopt,
    /// Boolean-circuit equivalence checking: heavy sharing, false sharing
    /// dominant, low processor utilization.
    Pverify,
    /// VLSI standard-cell router: moderate miss rate, sequential sharing of
    /// the cost grid.
    LocusRoute,
    /// Rarefied-flow particle simulation: very high miss rate (streaming
    /// particle arrays plus migratory space cells), saturates slow buses.
    Mp3d,
    /// Liquid-water molecular dynamics: small working set, low miss rate,
    /// mostly private data.
    Water,
    /// Linked-list and tree traversal with node-allocation churn. Not one of
    /// the paper's applications: a stress workload for the on-line hardware
    /// prefetchers, whose miss stream has no spatial regularity.
    PointerChase,
}

impl Workload {
    /// All five workloads, in the paper's reporting order. The paper-grid
    /// exhibits iterate this set, so it deliberately excludes the
    /// post-paper [`Workload::PointerChase`].
    pub const ALL: [Workload; 5] =
        [Workload::Topopt, Workload::Mp3d, Workload::LocusRoute, Workload::Pverify, Workload::Water];

    /// The paper's five workloads plus the pointer-chase stress workload.
    pub const EXTENDED: [Workload; 6] = [
        Workload::Topopt,
        Workload::Mp3d,
        Workload::LocusRoute,
        Workload::Pverify,
        Workload::Water,
        Workload::PointerChase,
    ];

    /// The paper's name for the program.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Topopt => "Topopt",
            Workload::Pverify => "Pverify",
            Workload::LocusRoute => "LocusRoute",
            Workload::Mp3d => "Mp3d",
            Workload::Water => "Water",
            Workload::PointerChase => "PointerChase",
        }
    }

    /// One-line description (the paper's §3.2).
    pub fn description(self) -> &'static str {
        match self {
            Workload::Topopt => "topological optimization of VLSI circuits (simulated annealing)",
            Workload::Pverify => "boolean circuit functional-equivalence verification",
            Workload::LocusRoute => "commercial-quality VLSI standard cell router",
            Workload::Mp3d => "particle flow at extremely low density",
            Workload::Water => "forces and potentials in liquid water molecules",
            Workload::PointerChase => "linked-list and tree traversal with allocation churn",
        }
    }

    /// Whether the paper's restructuring algorithm helped this program
    /// (Tables 4 and 5 only report Topopt and Pverify; "the other programs
    /// were not improved significantly").
    pub fn restructurable(self) -> bool {
        matches!(self, Workload::Topopt | Workload::Pverify)
    }

    /// Generator parameters for the given layout.
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::PointerChase`], which is generated by a
    /// dedicated linked-structure generator rather than the statistical mix
    /// and has no [`MixParams`].
    pub fn params(self, layout: Layout) -> MixParams {
        match self {
            Workload::Topopt => topopt::params(layout),
            Workload::Pverify => pverify::params(layout),
            Workload::LocusRoute => locusroute::params(layout),
            Workload::Mp3d => mp3d::params(layout),
            Workload::Water => water::params(layout),
            Workload::PointerChase => {
                panic!("PointerChase uses the linked-structure generator, not the mix")
            }
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Size and seeding of a generated run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct WorkloadConfig {
    /// Number of processors (the paper's Table 1 machines; we default to 8).
    pub procs: usize,
    /// Demand references per processor (the paper traced ~2M; smaller runs
    /// reproduce the same rates).
    pub refs_per_proc: usize,
    /// RNG seed; identical seeds give identical traces.
    pub seed: u64,
    /// Shared-data layout (original or restructured).
    pub layout: Layout,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            procs: 8,
            refs_per_proc: 200_000,
            seed: 0xC0FFEE,
            layout: Layout::Interleaved,
        }
    }
}

/// Generates the trace of `workload` under `cfg`.
///
/// # Panics
///
/// Panics if `cfg.procs` is 0 or greater than 64.
pub fn generate(workload: Workload, cfg: &WorkloadConfig) -> Trace {
    assert!(cfg.procs > 0 && cfg.procs <= 64, "procs must be in 1..=64");
    match workload {
        Workload::PointerChase => chase::generate_chase(cfg),
        _ => mix::generate_mix(&workload.params(cfg.layout), cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie_trace::TraceStats;

    fn small(w: Workload) -> Trace {
        let cfg = WorkloadConfig { refs_per_proc: 4_000, ..WorkloadConfig::default() };
        generate(w, &cfg)
    }

    #[test]
    fn all_workloads_generate_valid_traces() {
        for w in Workload::ALL {
            let t = small(w);
            assert_eq!(t.num_procs(), 8, "{w}");
            assert!(t.validate().is_ok(), "{w}");
            assert_eq!(t.total_prefetches(), 0, "{w}: raw traces carry no prefetches");
            for (_, s) in t.iter() {
                assert!(
                    s.num_accesses() >= 4_000,
                    "{w}: every proc meets its reference budget"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig { refs_per_proc: 2_000, ..WorkloadConfig::default() };
        assert_eq!(generate(Workload::Mp3d, &cfg), generate(Workload::Mp3d, &cfg));
    }

    #[test]
    fn seed_changes_trace() {
        let a = WorkloadConfig { refs_per_proc: 2_000, ..WorkloadConfig::default() };
        let b = WorkloadConfig { seed: 1, ..a };
        assert_ne!(generate(Workload::Mp3d, &a), generate(Workload::Mp3d, &b));
    }

    #[test]
    fn padded_layout_reduces_write_shared_lines_for_pverify() {
        let base = WorkloadConfig { refs_per_proc: 6_000, ..WorkloadConfig::default() };
        let padded = WorkloadConfig { layout: Layout::Padded, ..base };
        let inter = TraceStats::gather(&generate(Workload::Pverify, &base), 32);
        let pad = TraceStats::gather(&generate(Workload::Pverify, &padded), 32);
        // Padding turns interleaved write-shared lines into private ones.
        assert!(
            pad.write_shared_lines < inter.write_shared_lines,
            "padded {} !< interleaved {}",
            pad.write_shared_lines,
            inter.write_shared_lines
        );
    }

    #[test]
    fn workloads_have_distinct_sharing_profiles() {
        let water = TraceStats::gather(&small(Workload::Water), 32);
        let pverify = TraceStats::gather(&small(Workload::Pverify), 32);
        assert!(
            pverify.write_shared_fraction() > water.write_shared_fraction(),
            "Pverify shares more than Water"
        );
    }

    #[test]
    fn data_avoids_reserved_sync_region() {
        for w in Workload::ALL {
            let t = small(w);
            for (_, s) in t.iter() {
                for a in s.accesses() {
                    assert!(a.addr.raw() < 0xF000_0000, "{w}: {} in reserved region", a.addr);
                }
            }
        }
    }

    #[test]
    fn proc_count_respected() {
        let cfg = WorkloadConfig { procs: 4, refs_per_proc: 1_000, ..WorkloadConfig::default() };
        assert_eq!(generate(Workload::Topopt, &cfg).num_procs(), 4);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_procs_rejected() {
        let cfg = WorkloadConfig { procs: 0, refs_per_proc: 100, ..WorkloadConfig::default() };
        let _ = generate(Workload::Water, &cfg);
    }

    #[test]
    fn names_and_descriptions_nonempty() {
        for w in Workload::ALL {
            assert!(!w.name().is_empty());
            assert!(!w.description().is_empty());
            assert_eq!(w.to_string(), w.name());
        }
    }

    #[test]
    fn only_topopt_and_pverify_restructurable() {
        assert!(Workload::Topopt.restructurable());
        assert!(Workload::Pverify.restructurable());
        assert!(!Workload::Mp3d.restructurable());
        assert!(!Workload::Water.restructurable());
        assert!(!Workload::LocusRoute.restructurable());
        assert!(!Workload::PointerChase.restructurable());
    }

    #[test]
    fn extended_is_all_plus_pointer_chase() {
        assert_eq!(Workload::EXTENDED[..Workload::ALL.len()], Workload::ALL);
        assert_eq!(Workload::EXTENDED[Workload::ALL.len()], Workload::PointerChase);
        assert!(!Workload::ALL.contains(&Workload::PointerChase), "paper grid stays 5 workloads");
        assert!(!Workload::PointerChase.name().is_empty());
        assert!(!Workload::PointerChase.description().is_empty());
    }

    #[test]
    #[should_panic(expected = "linked-structure generator")]
    fn pointer_chase_has_no_mix_params() {
        let _ = Workload::PointerChase.params(Layout::Interleaved);
    }

    #[test]
    fn pointer_chase_generates_valid_trace() {
        let t = small(Workload::PointerChase);
        assert_eq!(t.num_procs(), 8);
        assert!(t.validate().is_ok());
        assert_eq!(t.total_prefetches(), 0);
        for (_, s) in t.iter() {
            assert!(s.num_accesses() >= 4_000);
            for a in s.accesses() {
                assert!(a.addr.raw() < 0xF000_0000, "{} in reserved region", a.addr);
            }
        }
    }

    /// FNV-1a over a stable byte encoding of every event. Any change to the
    /// pointer-chase generator — constants, RNG draws, emission order —
    /// shows up here; the reference digest below is the checked-in golden
    /// output for the default seed.
    fn trace_digest(t: &Trace) -> u64 {
        use charlie_trace::TraceEvent;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (pid, s) in t.iter() {
            eat(&[0xff, pid.0]);
            for ev in s.events() {
                match ev {
                    TraceEvent::Work(n) => {
                        eat(&[1]);
                        eat(&n.to_le_bytes());
                    }
                    TraceEvent::Access { addr, kind } => {
                        eat(&[if kind.is_write() { 3 } else { 2 }]);
                        eat(&addr.unpack().raw().to_le_bytes());
                    }
                    TraceEvent::Prefetch { addr, exclusive } => {
                        eat(&[4, u8::from(exclusive)]);
                        eat(&addr.unpack().raw().to_le_bytes());
                    }
                    TraceEvent::LockAcquire(id) => {
                        eat(&[5]);
                        eat(&id.0.to_le_bytes());
                    }
                    TraceEvent::LockRelease(id) => {
                        eat(&[6]);
                        eat(&id.0.to_le_bytes());
                    }
                    TraceEvent::Barrier(id) => {
                        eat(&[7]);
                        eat(&id.0.to_le_bytes());
                    }
                }
            }
        }
        h
    }

    #[test]
    fn pointer_chase_matches_golden_digest() {
        let cfg = WorkloadConfig { refs_per_proc: 8_000, ..WorkloadConfig::default() };
        let digest = trace_digest(&generate(Workload::PointerChase, &cfg));
        assert_eq!(
            digest, 0xb01c_83a6_1709_c376,
            "pointer-chase output changed (digest {digest:#018x}); if intended, update the golden"
        );
    }

    mod chase_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// Pointer-chase traces are well-formed for arbitrary seeds and
            /// sizes: they validate (PIDs and barrier episodes in order),
            /// all addresses are word-aligned and outside the reserved sync
            /// region, every processor meets its reference budget, and no
            /// node line is read before its allocating write.
            #[test]
            fn chase_traces_are_well_formed(
                seed in 0u64..u64::MAX,
                procs in 1usize..=8,
                refs in 1_000usize..6_000,
            ) {
                let cfg = WorkloadConfig { procs, refs_per_proc: refs, seed, ..WorkloadConfig::default() };
                let t = generate(Workload::PointerChase, &cfg);
                prop_assert_eq!(t.num_procs(), procs);
                prop_assert!(t.validate().is_ok());
                for (_, s) in t.iter() {
                    prop_assert!(s.num_accesses() >= refs);
                    let mut allocated = HashSet::new();
                    for a in s.accesses() {
                        prop_assert_eq!(a.addr.raw() % 4, 0, "unaligned {}", a.addr);
                        prop_assert!(a.addr.raw() < 0xF000_0000, "{} in reserved region", a.addr);
                        let line = a.addr.line(32);
                        if a.kind.is_write() {
                            allocated.insert(line);
                        } else {
                            prop_assert!(allocated.contains(&line), "read before allocation");
                        }
                    }
                }
            }
        }
    }
}
