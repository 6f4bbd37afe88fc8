//! Order statistics, span self-time accounting, and the result line the
//! benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Samples that must lie beyond a reported percentile: a p90 from 50
/// samples rests on five values and moves with every outlier.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_TAIL {
        return None;
    }
    Some(v[rank - 1])
}

/// One traced interval: a call into one layer, made by the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest strictly (the traced pass is single
/// threaded), so a stack of open spans gives every span its parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Estimated cost of tracing `spans` spans: the mean cost of an empty
    /// span, measured here, times the count. For traced passes whose
    /// untraced counterpart does different work (a daemon or a fleet
    /// instead of direct calls), so that traced minus untraced is not the
    /// tracing cost.
    pub fn estimated_overhead_s(spans: usize) -> f64 {
        const PROBES: u32 = 10_000;
        let mut probe = Tracer::default();
        let t0 = Instant::now();
        for _ in 0..PROBES {
            probe.time("probe", || ());
        }
        t0.elapsed().as_secs_f64() / f64::from(PROBES) * spans as f64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span records as JSON lines: `{"name","start_ns","end_ns","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// durations of its direct children, summed over every span of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result object: `correct`, `attempted`, `failed` and every metric
/// with its unit. Refuses non-finite values and repeated names, which
/// would make the line unreadable or ambiguous.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(180.0));
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("sim", 10, 40, Some(0)),
            span("sim", 50, 70, Some(0)),
            span("apply", 60, 65, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"], 50);
        assert_eq!(t["sim"], 30 + 15);
        assert_eq!(t["apply"], 5);
        // Self times tile the root exactly.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_parents_and_durations() {
        let mut tr = Tracer::default();
        let root = tr.enter("round");
        tr.time("gen", || std::hint::black_box(1 + 1));
        tr.exit(root);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
        assert!(tr.to_jsonl().starts_with("{\"name\":\"round\""));
    }

    #[test]
    fn result_line_lists_every_metric_with_unit() {
        let line = result_line(
            true,
            12,
            1,
            &[
                Metric {
                    name: "refs_per_sec",
                    value: 1.5e6,
                    unit: "refs/s",
                },
                Metric {
                    name: "setup_s",
                    value: 0.25,
                    unit: "s",
                },
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\
             \"refs_per_sec\": {\"value\": 1500000.0, \"unit\": \"refs/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn result_line_refuses_bad_metrics() {
        let nan = Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
        };
        assert!(result_line(true, 1, 0, &[nan]).is_err());
        let one = Metric {
            name: "x",
            value: 1.0,
            unit: "s",
        };
        assert!(result_line(true, 1, 0, &[one.clone(), one]).is_err());
    }
}
