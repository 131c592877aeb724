//! End-to-end figures of one pass, and the result line.

use std::fmt::Write as _;

use crate::check::Verdict;
use crate::stats::{blocked_percentile, percentile, sorted};

/// Every answered query must arrive within this limit to count toward
/// goodput. It admits the slowest kind on an idle daemon (a
/// quantile-stream query, ~1 s) and the queue wait of a full
/// serve-overload queue (~0.6 s).
pub const LATENCY_LIMIT_MS: f64 = 2000.0;

/// Timed answers per block of `latency_p99_ms`: at least ten samples lie
/// beyond each block's p99, and the reported p99 is the median over the
/// blocks of a run.
pub const TAIL_BLOCK: usize = 1000;

/// One named figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One timed operation of a pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub verdict: Verdict,
    /// From the query's send time (closed loop) or due time (open
    /// loop) to its answer; `None` if it was refused.
    pub latency_ms: Option<f64>,
    /// When it was due, in seconds from the pass start.
    pub due_s: f64,
    /// When its answer arrived, in seconds from the pass start.
    pub done_s: f64,
    /// Elements of the dataset it selected from.
    pub n: u64,
}

/// Tallies of a pass, printed for every run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub sent: usize,
    pub good: usize,
    pub degraded: usize,
    pub refused: usize,
    pub failed: usize,
    pub wrong: usize,
}

impl Counts {
    pub fn of(outcomes: &[Outcome]) -> Self {
        let mut c = Counts {
            sent: outcomes.len(),
            ..Counts::default()
        };
        for o in outcomes {
            match o.verdict {
                Verdict::Good => c.good += 1,
                Verdict::Degraded => c.degraded += 1,
                Verdict::Refused => c.refused += 1,
                Verdict::Failed(_) => c.failed += 1,
                Verdict::Wrong(_) => c.wrong += 1,
            }
        }
        c
    }

    pub fn admitted(&self) -> usize {
        self.sent - self.refused
    }
}

/// Latency, goodput, admission and throughput figures of a pass.
pub fn end_to_end(outcomes: &[Outcome]) -> Vec<Metric> {
    let counts = Counts::of(outcomes);
    let in_order: Vec<f64> = outcomes.iter().filter_map(|o| o.latency_ms).collect();
    let lat = sorted(in_order.clone());
    let first_due = outcomes
        .iter()
        .map(|o| o.due_s)
        .fold(f64::INFINITY, f64::min);
    let last_done = outcomes.iter().map(|o| o.done_s).fold(0.0, f64::max);
    let span_s = (last_done - first_due).max(1e-9);
    let on_time_good: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| {
            o.verdict == Verdict::Good && o.latency_ms.is_some_and(|l| l <= LATENCY_LIMIT_MS)
        })
        .collect();
    let elems: u64 = on_time_good.iter().map(|o| o.n).sum();
    let admitted = counts.admitted().max(1) as f64;
    vec![
        Metric::new("latency_p50_ms", percentile(&lat, 0.50), "ms"),
        Metric::new(
            "latency_p99_ms",
            blocked_percentile(&in_order, 0.99, TAIL_BLOCK),
            "ms",
        ),
        Metric::new("goodput_qps", on_time_good.len() as f64 / span_s, "1/s"),
        Metric::new("throughput_melem_s", elems as f64 / span_s / 1e6, "Melem/s"),
        Metric::new(
            "admitted_share",
            counts.admitted() as f64 / counts.sent.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "undegraded_share",
            1.0 - counts.degraded as f64 / admitted,
            "ratio",
        ),
    ]
}

/// The result of one run: the benchmark's last line of standard output.
pub struct Output {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Output {
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(verdict: Verdict, latency_ms: Option<f64>, due_s: f64, done_s: f64) -> Outcome {
        Outcome {
            verdict,
            latency_ms,
            due_s,
            done_s,
            n: 1_000_000,
        }
    }

    #[test]
    fn goodput_uses_the_real_span_and_the_latency_limit() {
        let outcomes = vec![
            o(Verdict::Good, Some(10.0), 0.0, 0.01),
            o(Verdict::Good, Some(2500.0), 0.5, 3.0),
            o(Verdict::Degraded, Some(5.0), 1.0, 1.005),
            o(Verdict::Refused, None, 1.5, 1.5),
        ];
        let m = end_to_end(&outcomes);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        // One on-time good answer over 3 s from the first due time.
        assert!((get("goodput_qps") - 1.0 / 3.0).abs() < 1e-12);
        assert!((get("throughput_melem_s") - 1.0 / 3.0).abs() < 1e-12);
        assert!((get("admitted_share") - 0.75).abs() < 1e-12);
        assert!((get("undegraded_share") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(get("latency_p50_ms"), 10.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let out = Output {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("latency_p50_ms", 1.234_567_890_123, "ms")],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
    }
}
