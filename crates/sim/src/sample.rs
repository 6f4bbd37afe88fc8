//! Time-resolved observability: the interval sampler and the structured
//! JSONL trace emitter.
//!
//! The paper's contention argument (§4, Table 2) is *time-dynamic*: prefetch
//! traffic drives the shared bus toward saturation and the resulting
//! queueing — not miss rates — caps speedup. End-of-run aggregates hide
//! that dynamic (and let the warm-up windowing bug fixed alongside this
//! module go unnoticed); the [`Timeline`] produced here shows it directly.
//!
//! Two independent facilities, both strictly opt-in via [`Observability`]:
//!
//! * **Interval sampler** — records one [`WindowSample`] per
//!   [`SampleConfig::interval`] cycles of simulated time: counter *deltas*
//!   over the window (bus busy/queueing cycles, bus operations, processor
//!   busy/stall composition, demand accesses, fill-latency histogram) plus
//!   instantaneous *gauges* at the window boundary (arbitration queue
//!   depth, live transactions a.k.a. outstanding MSHRs, prefetch-buffer
//!   occupancy). Windows are closed from the event loop when the first
//!   event at or past the boundary pops, so gauges reflect machine state at
//!   that moment. When statistics warm-up opens the measurement window the
//!   sampler rebases (drops warm-up windows, re-snapshots), so the sum of
//!   window deltas equals the final windowed counters.
//! * **Trace emitter** — structured JSON-lines events with category filters
//!   (bus grants, coherence transitions, the prefetch lifecycle
//!   executed→issued→filled→used/wasted) and an optional line-address
//!   substring filter. Subsumes the old ad-hoc `CHARLIE_DEBUG_LINE` stderr
//!   aid: that variable now constructs a coherence-category emitter to
//!   stderr with the value as line filter.
//!
//! Zero-cost when disabled: with neither facility enabled the machine's
//! per-event overhead is a single always-false comparison, and reports are
//! bit-identical to a build without the hooks exercised.

use charlie_bus::{BusRequest, Priority, TxnId};
use charlie_trace::LineAddr;
use std::fmt::Write as _;
use std::io::Write;

/// Sampler cadence configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SampleConfig {
    /// Window length in simulated cycles (clamped to at least 1).
    pub interval: u64,
}

impl SampleConfig {
    /// Default profiling cadence: 10 000 cycles per window.
    pub const DEFAULT_INTERVAL: u64 = 10_000;

    /// A sampler configuration with the given window length.
    pub fn every(interval: u64) -> Self {
        SampleConfig { interval: interval.max(1) }
    }
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig { interval: Self::DEFAULT_INTERVAL }
    }
}

/// Monotone counters snapshotted at window boundaries; a window's deltas
/// are the difference of two snapshots.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct CounterSnapshot {
    pub bus_busy: u64,
    pub bus_ops: u64,
    pub bus_queueing: u64,
    pub prefetch_grants: u64,
    pub proc_busy: u64,
    pub proc_stall: u64,
    pub accesses: u64,
    pub fills: u64,
    pub fill_buckets: [u64; 7],
}

/// Instantaneous machine state, read when a window closes.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Gauges {
    pub bus_pending: usize,
    pub outstanding_txns: usize,
    pub prefetch_buffer: usize,
}

/// One sampling window: counter deltas over `start..end` plus gauges at
/// the close.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct WindowSample {
    /// Window start (inclusive), simulated cycles.
    pub start: u64,
    /// Window end (exclusive), simulated cycles.
    pub end: u64,
    /// Bus-occupied cycles accounted during the window. Occupancy is
    /// attributed at *grant* time, so a grant near the end of a window
    /// carries its whole transfer with it and a saturated window can read
    /// slightly above `len()`.
    pub bus_busy_cycles: u64,
    /// Bus transactions granted.
    pub bus_ops: u64,
    /// Queueing cycles accounted (arbitration plus bus-busy delay).
    pub bus_queueing_cycles: u64,
    /// Grants that came from the prefetch arbitration class.
    pub prefetch_grants: u64,
    /// Processor busy cycles, summed over processors.
    pub proc_busy_cycles: u64,
    /// Processor stall cycles, summed over processors.
    pub proc_stall_cycles: u64,
    /// Demand accesses retired.
    pub accesses: u64,
    /// Demand fills whose latency was recorded.
    pub fills: u64,
    /// Fill-latency histogram delta (buckets `<=100, <=125, <=150, <=200,
    /// <=300, <=500, >500` cycles, as in `LatencyStats`).
    pub fill_latency_buckets: [u64; 7],
    /// Gauge: transactions queued at the bus (arbitration queue depth).
    pub bus_pending: usize,
    /// Gauge: live (granted or queued) transactions — outstanding MSHRs.
    pub outstanding_txns: usize,
    /// Gauge: occupied prefetch-buffer slots, summed over processors.
    pub prefetch_buffer: usize,
}

impl WindowSample {
    /// Window length in cycles.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` for a degenerate zero-length window.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bus utilization over this window. Grant-attributed (see
    /// [`WindowSample::bus_busy_cycles`]), so a saturated window can read
    /// slightly above 1.0.
    pub fn bus_utilization(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.len() as f64
        }
    }
}

/// The full per-run time series produced by the sampler.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Timeline {
    /// Configured window length (the trailing window may be shorter).
    pub interval: u64,
    /// Windows in time order, covering the measured span without gaps.
    pub windows: Vec<WindowSample>,
}

impl Timeline {
    /// Sum of per-window bus-busy deltas. Equals the final
    /// `BusStats::busy_cycles` counter for runs without statistics warm-up;
    /// with warm-up the report additionally subtracts the trailing posted
    /// write-back overhang, so the sum can exceed the reported value by at
    /// most one transfer.
    pub fn total_bus_busy(&self) -> u64 {
        self.windows.iter().map(|w| w.bus_busy_cycles).sum()
    }

    /// Sum of per-window demand-access deltas.
    pub fn total_accesses(&self) -> u64 {
        self.windows.iter().map(|w| w.accesses).sum()
    }

    /// Start time of the first window whose bus utilization exceeds
    /// `threshold` (the saturation-onset summary; the paper's contention
    /// argument uses 0.9). `None` when no window does.
    pub fn saturation_onset(&self, threshold: f64) -> Option<u64> {
        self.windows.iter().find(|w| w.bus_utilization() > threshold).map(|w| w.start)
    }
}

/// Internal sampler state driven by the machine's event loop.
#[derive(Clone, Debug)]
pub(crate) struct Sampler {
    interval: u64,
    /// Next window boundary; the event loop ticks when simulated time
    /// reaches it.
    next_at: u64,
    window_start: u64,
    base: CounterSnapshot,
    windows: Vec<WindowSample>,
}

impl Sampler {
    pub fn new(cfg: SampleConfig) -> Self {
        let interval = cfg.interval.max(1);
        Sampler {
            interval,
            next_at: interval,
            window_start: 0,
            base: CounterSnapshot::default(),
            windows: Vec::new(),
        }
    }

    pub fn next_at(&self) -> u64 {
        self.next_at
    }

    /// Closes the current window at `end` (pushing it only when non-empty)
    /// and starts the next one from `snap`.
    pub fn close_at(&mut self, end: u64, snap: CounterSnapshot, gauges: Gauges) {
        if end > self.window_start {
            let b = &self.base;
            let mut fill_latency_buckets = [0u64; 7];
            for (d, (n, o)) in fill_latency_buckets
                .iter_mut()
                .zip(snap.fill_buckets.iter().zip(b.fill_buckets.iter()))
            {
                *d = n - o;
            }
            self.windows.push(WindowSample {
                start: self.window_start,
                end,
                bus_busy_cycles: snap.bus_busy - b.bus_busy,
                bus_ops: snap.bus_ops - b.bus_ops,
                bus_queueing_cycles: snap.bus_queueing - b.bus_queueing,
                prefetch_grants: snap.prefetch_grants - b.prefetch_grants,
                proc_busy_cycles: snap.proc_busy - b.proc_busy,
                proc_stall_cycles: snap.proc_stall - b.proc_stall,
                accesses: snap.accesses - b.accesses,
                fills: snap.fills - b.fills,
                fill_latency_buckets,
                bus_pending: gauges.bus_pending,
                outstanding_txns: gauges.outstanding_txns,
                prefetch_buffer: gauges.prefetch_buffer,
            });
        }
        self.base = snap;
        self.window_start = end;
        self.next_at = end + self.interval;
    }

    /// Statistics warm-up completed at `now`: drop the warm-up windows and
    /// re-snapshot, so summed window deltas equal the final *windowed*
    /// counters. The machine zeroes every counter at the same moment, hence
    /// the default (all-zero) base.
    pub fn rebase(&mut self, now: u64) {
        self.windows.clear();
        self.base = CounterSnapshot::default();
        self.window_start = now;
        self.next_at = now + self.interval;
    }

    pub fn into_timeline(self) -> Timeline {
        Timeline { interval: self.interval, windows: self.windows }
    }
}

/// Event categories the trace emitter can record.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceCategories {
    /// Bus grants.
    pub bus: bool,
    /// Coherence transitions (snoops at grant time, fills at install time).
    pub coherence: bool,
    /// Prefetch lifecycle: executed → issued → filled → used / wasted.
    pub prefetch: bool,
}

impl TraceCategories {
    /// Every category.
    pub fn all() -> Self {
        TraceCategories { bus: true, coherence: true, prefetch: true }
    }

    /// No category (useful as a parse accumulator).
    pub fn none() -> Self {
        TraceCategories { bus: false, coherence: false, prefetch: false }
    }

    /// Parses a comma-separated category list (`"bus,prefetch"`, or
    /// `"all"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut cats = TraceCategories::none();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "bus" => cats.bus = true,
                "coherence" => cats.coherence = true,
                "prefetch" => cats.prefetch = true,
                "all" => cats = TraceCategories::all(),
                other => {
                    return Err(format!(
                        "unknown trace category '{other}' (expected bus, coherence, prefetch, or all)"
                    ))
                }
            }
        }
        Ok(cats)
    }
}

/// Structured JSONL trace sink. Every event is one line of the form
/// `{"t":<cycle>,"cat":"bus|coherence|prefetch","ev":"<name>",...}`.
pub struct TraceEmitter {
    out: Box<dyn Write + Send>,
    cats: TraceCategories,
    /// Substring filter against `format!("{line:?}")` — the same matching
    /// the old `CHARLIE_DEBUG_LINE` aid used.
    line_filter: Option<String>,
    buf: String,
}

impl std::fmt::Debug for TraceEmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceEmitter")
            .field("cats", &self.cats)
            .field("line_filter", &self.line_filter)
            .finish_non_exhaustive()
    }
}

impl TraceEmitter {
    /// An emitter writing all requested categories to `out`.
    pub fn new(out: Box<dyn Write + Send>, cats: TraceCategories) -> Self {
        TraceEmitter { out, cats, line_filter: None, buf: String::new() }
    }

    /// Restricts the emitter to events whose line address debug-formatting
    /// contains `filter`.
    pub fn with_line_filter(mut self, filter: impl Into<String>) -> Self {
        self.line_filter = Some(filter.into());
        self
    }

    /// The `CHARLIE_DEBUG_LINE` compatibility constructor: when the
    /// variable is set, a coherence-category emitter to stderr filtered to
    /// its value (the old ad-hoc stderr aid, now in the structured format).
    pub fn from_env() -> Option<Self> {
        let filter = std::env::var("CHARLIE_DEBUG_LINE").ok()?;
        let cats = TraceCategories { bus: false, coherence: true, prefetch: false };
        Some(TraceEmitter::new(Box::new(std::io::stderr()), cats).with_line_filter(filter))
    }

    fn line_matches(&self, line: LineAddr) -> bool {
        match &self.line_filter {
            None => true,
            Some(f) => format!("{line:?}").contains(f.as_str()),
        }
    }

    /// `true` when a coherence event for `line` would be recorded — lets
    /// the machine skip building the (expensive) state description.
    pub fn wants_coherence(&self, line: LineAddr) -> bool {
        self.cats.coherence && self.line_matches(line)
    }

    fn start(&mut self, t: u64, cat: &str, ev: &str) {
        self.buf.clear();
        let _ = write!(self.buf, "{{\"t\":{t},\"cat\":\"{cat}\",\"ev\":\"{ev}\"");
    }

    fn str_field(&mut self, key: &str, value: &str) {
        let _ = write!(self.buf, ",\"{key}\":\"");
        for c in value.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn num_field(&mut self, key: &str, value: u64) {
        let _ = write!(self.buf, ",\"{key}\":{value}");
    }

    fn finish(&mut self) {
        self.buf.push('}');
        // Best-effort sink: a full pipe or closed fd must not abort the run.
        let _ = writeln!(self.out, "{}", self.buf);
    }

    /// A bus grant: who won arbitration, for what, and for how long.
    pub fn bus_grant(&mut self, t: u64, req: &BusRequest, completes_at: u64) {
        if !self.cats.bus || !self.line_matches(req.line) {
            return;
        }
        self.start(t, "bus", "grant");
        self.num_field("proc", req.proc.index() as u64);
        let line = format!("{:?}", req.line);
        self.str_field("line", &line);
        let op = format!("{:?}", req.op);
        self.str_field("op", &op);
        self.str_field(
            "prio",
            if req.priority == Priority::Prefetch { "prefetch" } else { "demand" },
        );
        self.num_field("queued", t.saturating_sub(req.ready_at));
        self.num_field("completes_at", completes_at);
        self.finish();
    }

    /// A snoop broadcast: at grant time for bus transaction `txn`, or, with
    /// `txn` `None`, by a fast-forward fill or upgrade (its `txn` field
    /// reads `ff`). `action` and `states` are debug renderings (the old
    /// `CHARLIE_DEBUG_LINE` payload).
    pub fn snoop(&mut self, t: u64, txn: Option<TxnId>, line: LineAddr, action: &str, states: &str) {
        if !self.wants_coherence(line) {
            return;
        }
        self.start(t, "coherence", "snoop");
        let txn = txn.map_or_else(|| "ff".to_owned(), |id| id.to_string());
        self.str_field("txn", &txn);
        let line = format!("{line:?}");
        self.str_field("line", &line);
        self.str_field("action", action);
        self.str_field("states", states);
        self.finish();
    }

    /// A fill installing `line` into processor `proc`'s cache.
    pub fn fill(&mut self, t: u64, proc: usize, line: LineAddr, op: &str, state: &str, by_prefetch: bool) {
        if !self.wants_coherence(line) {
            return;
        }
        self.start(t, "coherence", "fill");
        self.num_field("proc", proc as u64);
        let line = format!("{line:?}");
        self.str_field("line", &line);
        self.str_field("op", op);
        self.str_field("state", state);
        self.num_field("by_prefetch", u64::from(by_prefetch));
        self.finish();
    }

    /// A prefetch lifecycle stage for `line` on processor `proc`:
    /// `executed` (with an outcome of `hit`/`duplicate`/`issued`),
    /// `promoted`, `filled`, `used`, `wasted_evicted`, or
    /// `wasted_invalidated`.
    pub fn prefetch(&mut self, t: u64, proc: usize, line: LineAddr, stage: &str) {
        if !self.cats.prefetch || !self.line_matches(line) {
            return;
        }
        self.start(t, "prefetch", stage);
        self.num_field("proc", proc as u64);
        let line = format!("{line:?}");
        self.str_field("line", &line);
        self.finish();
    }

    /// `prefetch` stage event carrying an extra string field.
    pub fn prefetch_with(&mut self, t: u64, proc: usize, line: LineAddr, stage: &str, key: &str, value: &str) {
        if !self.cats.prefetch || !self.line_matches(line) {
            return;
        }
        self.start(t, "prefetch", stage);
        self.num_field("proc", proc as u64);
        let line = format!("{line:?}");
        self.str_field("line", &line);
        self.str_field(key, value);
        self.finish();
    }
}

/// Opt-in observability attachments for a single simulation run. The
/// default (neither facility) is the zero-cost path: behaviour and reports
/// are bit-identical to an unobserved run.
#[derive(Debug, Default)]
pub struct Observability {
    /// Interval sampler configuration; `Some` enables timeline recording.
    pub sample: Option<SampleConfig>,
    /// Structured trace sink; `Some` enables event emission.
    pub tracer: Option<TraceEmitter>,
}

impl Observability {
    /// Sampling only, at the given cadence.
    pub fn sampled(interval: u64) -> Self {
        Observability { sample: Some(SampleConfig::every(interval)), tracer: None }
    }
}

/// A trace sink for tests: an in-memory buffer its clones share.
#[cfg(test)]
#[derive(Clone, Default)]
pub(crate) struct TestSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

#[cfg(test)]
impl TestSink {
    /// Everything written so far.
    pub(crate) fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("sink lock").clone()).expect("UTF-8 trace")
    }
}

#[cfg(test)]
impl Write for TestSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `TxnId` has no public constructor; mint one through a throwaway bus.
    fn txn_id() -> TxnId {
        let mut b = charlie_bus::Bus::new(charlie_bus::BusConfig::paper(8), 1);
        b.submit(
            0,
            charlie_trace::ProcId(0),
            LineAddr::from_raw(0),
            charlie_cache::protocol::BusOp::WriteBack,
            Priority::Demand,
        )
    }

    fn snap(bus_busy: u64, accesses: u64) -> CounterSnapshot {
        CounterSnapshot { bus_busy, accesses, ..CounterSnapshot::default() }
    }

    #[test]
    fn sampler_deltas_and_trailing_window() {
        let mut s = Sampler::new(SampleConfig::every(100));
        assert_eq!(s.next_at(), 100);
        s.close_at(100, snap(40, 7), Gauges { bus_pending: 2, ..Gauges::default() });
        assert_eq!(s.next_at(), 200);
        s.close_at(200, snap(90, 12), Gauges::default());
        // Trailing partial window.
        s.close_at(230, snap(95, 13), Gauges::default());
        let t = s.into_timeline();
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[0].bus_busy_cycles, 40);
        assert_eq!(t.windows[0].bus_pending, 2);
        assert_eq!(t.windows[1].bus_busy_cycles, 50);
        assert_eq!(t.windows[1].accesses, 5);
        assert_eq!(t.windows[2].len(), 30);
        assert_eq!(t.total_bus_busy(), 95, "window deltas sum to the final counter");
        assert_eq!(t.total_accesses(), 13);
    }

    #[test]
    fn sampler_drops_degenerate_windows() {
        let mut s = Sampler::new(SampleConfig::every(50));
        // Close at the exact boundary twice: the second is zero-length.
        s.close_at(50, snap(10, 1), Gauges::default());
        s.close_at(50, snap(10, 1), Gauges::default());
        // Run ends exactly on a boundary: no empty trailing window either.
        s.close_at(100, snap(30, 2), Gauges::default());
        s.close_at(100, snap(30, 2), Gauges::default());
        let t = s.into_timeline();
        assert_eq!(t.windows.len(), 2);
        assert!(t.windows.iter().all(|w| !w.is_empty()));
    }

    #[test]
    fn sampler_rebase_discards_warmup_windows() {
        let mut s = Sampler::new(SampleConfig::every(100));
        s.close_at(100, snap(80, 9), Gauges::default());
        // Warm-up ends at 130: counters are zeroed machine-side.
        s.rebase(130);
        assert_eq!(s.next_at(), 230);
        s.close_at(230, snap(60, 4), Gauges::default());
        let t = s.into_timeline();
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.windows[0].start, 130);
        assert_eq!(t.windows[0].bus_busy_cycles, 60);
        assert_eq!(t.total_bus_busy(), 60, "sums cover only the measured window");
    }

    #[test]
    fn empty_timeline() {
        let s = Sampler::new(SampleConfig::default());
        let t = s.into_timeline();
        assert!(t.windows.is_empty());
        assert_eq!(t.total_bus_busy(), 0);
        assert_eq!(t.saturation_onset(0.9), None);
    }

    #[test]
    fn saturation_onset_finds_first_hot_window() {
        let mk = |start: u64, busy: u64| WindowSample {
            start,
            end: start + 100,
            bus_busy_cycles: busy,
            ..WindowSample::default()
        };
        let t = Timeline {
            interval: 100,
            windows: vec![mk(0, 50), mk(100, 91), mk(200, 95), mk(300, 10)],
        };
        assert_eq!(t.saturation_onset(0.9), Some(100));
        assert_eq!(t.saturation_onset(0.99), None);
        assert_eq!(t.saturation_onset(0.05), Some(0));
    }

    #[test]
    fn window_utilization_math() {
        let w = WindowSample { start: 100, end: 200, bus_busy_cycles: 25, ..WindowSample::default() };
        assert!((w.bus_utilization() - 0.25).abs() < 1e-12);
        assert_eq!(WindowSample::default().bus_utilization(), 0.0, "degenerate window");
    }

    #[test]
    fn sample_interval_clamped_to_one() {
        let s = Sampler::new(SampleConfig::every(0));
        assert_eq!(s.next_at(), 1);
    }

    #[test]
    fn trace_categories_parse() {
        assert_eq!(TraceCategories::parse("all"), Ok(TraceCategories::all()));
        assert_eq!(
            TraceCategories::parse("bus, prefetch"),
            Ok(TraceCategories { bus: true, coherence: false, prefetch: true })
        );
        assert_eq!(TraceCategories::parse(""), Ok(TraceCategories::none()));
        assert!(TraceCategories::parse("bogus").is_err());
    }

    #[test]
    fn emitter_respects_categories_and_line_filter() {
        let sink = TestSink::default();
        let cats = TraceCategories { bus: true, coherence: false, prefetch: true };
        let mut tr = TraceEmitter::new(Box::new(sink.clone()), cats).with_line_filter("7");
        let l7 = LineAddr::from_raw(7);
        let l9 = LineAddr::from_raw(9);
        tr.prefetch(10, 0, l7, "issued");
        tr.prefetch(11, 0, l9, "issued"); // filtered: line mismatch
        tr.snoop(12, Some(txn_id()), l7, "a", "s"); // filtered: category off
        tr.prefetch_with(13, 1, l7, "executed", "outcome", "hit");
        drop(tr);
        let text = sink.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":10,\"cat\":\"prefetch\",\"ev\":\"issued\""));
        assert!(lines[1].contains("\"outcome\":\"hit\""));
        assert!(!text.contains("snoop"));
    }

    #[test]
    fn emitter_escapes_strings() {
        let sink = TestSink::default();
        let mut tr = TraceEmitter::new(Box::new(sink.clone()), TraceCategories::all());
        tr.snoop(0, Some(txn_id()), LineAddr::from_raw(1), "say \"hi\"\\", "s");
        drop(tr);
        let text = sink.text();
        assert!(text.contains("say \\\"hi\\\"\\\\"));
    }
}
