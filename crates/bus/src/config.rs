//! Bus/memory-subsystem timing parameters.

use std::fmt;
use std::ops::RangeInclusive;

/// Timing parameters of the memory subsystem.
///
/// The paper's spectrum of architectures is produced by holding
/// `total_latency` at 100 cycles and sweeping `transfer_cycles` over
/// `{4, 8, 16, 24, 32}`: a 4-cycle transfer models a very high-bandwidth
/// data bus (64 bits per CPU cycle at the paper's scale), 32 cycles a
/// low-bandwidth one.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BusConfig {
    /// End-to-end unloaded miss latency in cycles (the paper uses 100).
    pub total_latency: u64,
    /// Contended data-transfer portion of `total_latency`.
    pub transfer_cycles: u64,
    /// Contended occupancy of an invalidation-only upgrade (address slot).
    pub invalidate_cycles: u64,
}

impl BusConfig {
    /// The paper's architecture with data-transfer latency `transfer_cycles`
    /// out of a 100-cycle total.
    ///
    /// # Panics
    ///
    /// Panics if `transfer_cycles` is outside [`BusConfig::TRANSFER_RANGE`].
    pub fn paper(transfer_cycles: u64) -> Self {
        assert!(
            Self::TRANSFER_RANGE.contains(&transfer_cycles),
            "transfer latency must be in {:?}",
            Self::TRANSFER_RANGE
        );
        BusConfig { total_latency: 100, transfer_cycles, invalidate_cycles: 2 }
    }

    /// The transfer latencies [`BusConfig::paper`] can build: at least one
    /// cycle, at most the whole 100-cycle total.
    pub const TRANSFER_RANGE: RangeInclusive<u64> = 1..=100;

    /// The transfer latencies the paper sweeps (Figure 2's x-axis).
    pub const PAPER_SWEEP: [u64; 5] = [4, 8, 16, 24, 32];

    /// The subset of latencies Table 2 reports.
    pub const TABLE2_SWEEP: [u64; 4] = [4, 8, 16, 32];

    /// Uncontended portion of a fill: address transmission plus memory
    /// lookup, `total_latency − transfer_cycles`.
    pub fn uncontended_cycles(&self) -> u64 {
        self.total_latency - self.transfer_cycles
    }
}

impl Default for BusConfig {
    /// The paper's mid-range 8-cycle architecture (used for Figures 1 and 3).
    fn default() -> Self {
        BusConfig::paper(8)
    }
}

impl fmt::Display for BusConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-cycle latency, {}-cycle data transfer",
            self.total_latency, self.transfer_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_split() {
        let c = BusConfig::paper(8);
        assert_eq!(c.total_latency, 100);
        assert_eq!(c.transfer_cycles, 8);
        assert_eq!(c.uncontended_cycles(), 92);
        assert_eq!(c.invalidate_cycles, 2);
    }

    #[test]
    fn default_is_8_cycle() {
        assert_eq!(BusConfig::default(), BusConfig::paper(8));
    }

    #[test]
    #[should_panic(expected = "1..=100")]
    fn rejects_zero_transfer() {
        let _ = BusConfig::paper(0);
    }

    #[test]
    #[should_panic(expected = "1..=100")]
    fn rejects_oversized_transfer() {
        let _ = BusConfig::paper(101);
    }

    #[test]
    fn sweeps_match_paper() {
        assert_eq!(BusConfig::PAPER_SWEEP, [4, 8, 16, 24, 32]);
        assert_eq!(BusConfig::TABLE2_SWEEP, [4, 8, 16, 32]);
    }
}
