//! Per-run instrumentation: everything needed to reproduce the paper's
//! measurements (throughput plots of Fig. 7/8, the per-kernel runtime
//! breakdown of Fig. 9) from a single selection run.

use std::fmt;

use gpu_sim::{KernelRecord, KernelSummary, SimTime};

use crate::obs::{self, Counter};

/// One resilience action, as structured data. The variant is the event
/// kind; the payload is the human-readable detail.
///
/// `Display` reproduces the exact `"kind: detail"` lines the log used
/// to hold as plain strings, so text output (selectcli, examples) and
/// the robustness-bench CSVs are byte-identical to before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceEvent {
    /// Retry of a failed step (kernel launch or chunk load).
    Retry(String),
    /// Switch to a different backend.
    Fallback(String),
    /// Exact→approximate degradation under a time budget.
    Degrade(String),
    /// Observed device fault.
    Fault(String),
    /// Silent corruption caught by a verification check.
    Corruption(String),
    /// Final answer passed an exact rank certificate.
    Certified(String),
    /// Streaming run resumed from a checkpoint.
    Resumed(String),
    /// Checkpoint bookkeeping note (no counter attached — e.g. an
    /// unwritable or unreadable checkpoint file).
    Checkpoint(String),
}

impl ResilienceEvent {
    /// The event-kind prefix used in the text rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            ResilienceEvent::Retry(_) => "retry",
            ResilienceEvent::Fallback(_) => "fallback",
            ResilienceEvent::Degrade(_) => "degrade",
            ResilienceEvent::Fault(_) => "fault",
            ResilienceEvent::Corruption(_) => "corruption",
            ResilienceEvent::Certified(_) => "certified",
            ResilienceEvent::Resumed(_) => "resumed",
            ResilienceEvent::Checkpoint(_) => "checkpoint",
        }
    }

    /// The free-form detail payload.
    pub fn detail(&self) -> &str {
        match self {
            ResilienceEvent::Retry(d)
            | ResilienceEvent::Fallback(d)
            | ResilienceEvent::Degrade(d)
            | ResilienceEvent::Fault(d)
            | ResilienceEvent::Corruption(d)
            | ResilienceEvent::Certified(d)
            | ResilienceEvent::Resumed(d)
            | ResilienceEvent::Checkpoint(d) => d,
        }
    }
}

impl fmt::Display for ResilienceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// What the resilience layer had to do to produce a result: every
/// retry, algorithm fallback, and accuracy degradation, in order.
///
/// Deterministic by construction — the fault injector is seed-driven and
/// the drivers consume faults in execution order, so the same seed
/// produces the same event log (the property the robustness tests pin).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceEvents {
    /// Retries of a failed step (kernel launch or chunk load).
    pub retries: u32,
    /// Switches to a different backend (SampleSelect → CPU sort).
    pub fallbacks: u32,
    /// Exact→approximate degradations under a time budget.
    pub degradations: u32,
    /// Device faults observed (some may be absorbed by a single retry).
    pub faults_observed: u32,
    /// Silent data corruptions caught by an ABFT invariant or rank
    /// certificate (see [`crate::verify`]).
    pub corruptions_detected: u32,
    /// Final answers that passed an exact rank certificate.
    pub certified: u32,
    /// Streaming runs resumed from a checkpoint instead of restarting.
    pub resumed: u32,
    /// Structured event log, one entry per resilience action, in order.
    /// Render entries with `Display` for the legacy text lines.
    pub log: Vec<ResilienceEvent>,
}

impl ResilienceEvents {
    /// Record a retry, with a reason line for the log.
    pub fn retry(&mut self, detail: impl Into<String>) {
        self.retries += 1;
        obs::counter_add(Counter::Retries, 1);
        self.log.push(ResilienceEvent::Retry(detail.into()));
    }

    /// Record a backend fallback.
    pub fn fallback(&mut self, detail: impl Into<String>) {
        self.fallbacks += 1;
        obs::counter_add(Counter::Fallbacks, 1);
        self.log.push(ResilienceEvent::Fallback(detail.into()));
    }

    /// Record an exact→approximate degradation.
    pub fn degrade(&mut self, detail: impl Into<String>) {
        self.degradations += 1;
        obs::counter_add(Counter::Degradations, 1);
        self.log.push(ResilienceEvent::Degrade(detail.into()));
    }

    /// Record an observed device fault.
    pub fn fault(&mut self, detail: impl Into<String>) {
        self.faults_observed += 1;
        obs::counter_add(Counter::FaultsObserved, 1);
        self.log.push(ResilienceEvent::Fault(detail.into()));
    }

    /// Record a silent corruption caught by a verification check.
    pub fn corruption(&mut self, detail: impl Into<String>) {
        self.corruptions_detected += 1;
        obs::counter_add(Counter::CorruptionsDetected, 1);
        self.log.push(ResilienceEvent::Corruption(detail.into()));
    }

    /// Record a successful rank certification of the final answer.
    pub fn certify(&mut self, detail: impl Into<String>) {
        self.certified += 1;
        obs::counter_add(Counter::Certified, 1);
        self.log.push(ResilienceEvent::Certified(detail.into()));
    }

    /// Record a streaming run resumed from a checkpoint.
    pub fn resume(&mut self, detail: impl Into<String>) {
        self.resumed += 1;
        obs::counter_add(Counter::Resumed, 1);
        self.log.push(ResilienceEvent::Resumed(detail.into()));
    }

    /// Record a checkpoint bookkeeping note. Logged but not counted — a
    /// failed checkpoint write degrades durability, not the result.
    pub fn checkpoint_note(&mut self, detail: impl Into<String>) {
        self.log.push(ResilienceEvent::Checkpoint(detail.into()));
    }

    /// Whether the run needed any resilience action at all. Every
    /// counted event disqualifies a run from being clean — including
    /// observed faults, detected corruptions, and checkpoint resumes
    /// (a run that hit silent corruption is *not* clean even if a retry
    /// was never needed). Certification is the one exception: it is a
    /// verification success, not a recovery action.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.fallbacks == 0
            && self.degradations == 0
            && self.faults_observed == 0
            && self.corruptions_detected == 0
            && self.resumed == 0
    }

    /// Fold another event set into this one (streaming runs merge the
    /// per-chunk retry counts into the final report). Does not touch the
    /// metrics registry — the folded events were already counted when
    /// they were first recorded.
    pub fn merge(&mut self, other: &ResilienceEvents) {
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.degradations += other.degradations;
        self.faults_observed += other.faults_observed;
        self.corruptions_detected += other.corruptions_detected;
        self.certified += other.certified;
        self.resumed += other.resumed;
        self.log.extend(other.log.iter().cloned());
    }
}

/// Measurement report of one selection run on the simulated device.
#[derive(Debug, Clone)]
pub struct SelectReport {
    /// Algorithm label (`"sampleselect"`, `"quickselect"`, …).
    pub algorithm: &'static str,
    /// Input size.
    pub n: usize,
    /// Recursion levels executed (excluding the base case).
    pub levels: u32,
    /// Whether the run terminated early in an equality bucket (§IV-C).
    pub terminated_early: bool,
    /// Total simulated time including kernel-launch overheads.
    pub total_time: SimTime,
    /// Launch overhead portion of `total_time`.
    pub launch_overhead: SimTime,
    /// Per-kernel aggregation (name, launches, time, resource usage).
    pub kernels: Vec<KernelSummary>,
    /// Resilience actions taken during the run (empty for fault-free
    /// runs through the plain drivers).
    pub resilience: ResilienceEvents,
}

impl SelectReport {
    /// An empty report shell, ready to be (re)filled by
    /// [`refill_from_records`](Self::refill_from_records). Callers that
    /// keep the shell alive across queries get allocation-free report
    /// assembly once the kernel-summary slots are warm.
    pub fn empty(algorithm: &'static str) -> Self {
        Self {
            algorithm,
            n: 0,
            levels: 0,
            terminated_early: false,
            total_time: SimTime::ZERO,
            launch_overhead: SimTime::ZERO,
            kernels: Vec::new(),
            resilience: ResilienceEvents::default(),
        }
    }

    /// Build a report from the slice of device records this run produced.
    pub fn from_records(
        algorithm: &'static str,
        n: usize,
        records: &[KernelRecord],
        levels: u32,
        terminated_early: bool,
    ) -> Self {
        let mut report = Self::empty(algorithm);
        report.refill_from_records(algorithm, n, records, levels, terminated_early);
        report
    }

    /// Re-aggregate a run's records into this report in place, reusing
    /// the kernel-summary vector and its name strings. On a warm report
    /// (same kernel sequence as the previous fill — the steady state of
    /// a backend run repeatedly on same-shaped data) this performs zero
    /// heap allocations, which is what lets the zero-alloc suite pin a
    /// whole warm RadixSelect query at 0 allocations.
    pub fn refill_from_records(
        &mut self,
        algorithm: &'static str,
        n: usize,
        records: &[KernelRecord],
        levels: u32,
        terminated_early: bool,
    ) {
        // Every driver (including nested ones) funnels through here, so
        // this is the one place query-level counters are bumped.
        obs::counter_add(Counter::Queries, 1);
        obs::counter_add(Counter::RecursionLevels, levels as u64);
        obs::counter_add(Counter::EqualityBucketExits, terminated_early as u64);

        self.algorithm = algorithm;
        self.n = n;
        self.levels = levels;
        self.terminated_early = terminated_early;
        self.resilience.retries = 0;
        self.resilience.fallbacks = 0;
        self.resilience.degradations = 0;
        self.resilience.faults_observed = 0;
        self.resilience.corruptions_detected = 0;
        self.resilience.certified = 0;
        self.resilience.resumed = 0;
        self.resilience.log.clear();
        self.aggregate(records);
    }

    /// Re-aggregate only the times and kernel summaries over `records`.
    pub(crate) fn aggregate(&mut self, records: &[KernelRecord]) {
        self.total_time = records.iter().map(|r| r.duration + r.launch_overhead).sum();
        self.launch_overhead = records.iter().map(|r| r.launch_overhead).sum();
        // Aggregate per name preserving first-seen order. `filled` slots
        // hold this run's summaries; slots past it are leftovers from
        // the previous fill whose heap capacity (name string included)
        // is recycled instead of reallocated.
        let mut filled = 0usize;
        for rec in records {
            match self.kernels[..filled]
                .iter_mut()
                .find(|s| s.name == rec.name)
            {
                Some(s) => {
                    s.launches += 1;
                    s.total_time += rec.duration;
                    s.total_launch_overhead += rec.launch_overhead;
                    s.cost.merge(&rec.cost);
                }
                None => {
                    if filled < self.kernels.len() {
                        let s = &mut self.kernels[filled];
                        s.name.clear();
                        s.name.push_str(&rec.name);
                        s.launches = 1;
                        s.total_time = rec.duration;
                        s.total_launch_overhead = rec.launch_overhead;
                        s.cost = rec.cost;
                    } else {
                        self.kernels.push(KernelSummary {
                            name: rec.name.to_string(),
                            launches: 1,
                            total_time: rec.duration,
                            total_launch_overhead: rec.launch_overhead,
                            cost: rec.cost,
                        });
                    }
                    filled += 1;
                }
            }
        }
        self.kernels.truncate(filled);
    }

    /// Attach resilience events to the report (builder style, used by the
    /// resilient and streaming drivers).
    pub fn with_resilience(mut self, events: ResilienceEvents) -> Self {
        self.resilience = events;
        self
    }

    /// Total time spent in kernels named `name` (zero if none ran).
    pub fn kernel_time(&self, name: &str) -> SimTime {
        self.kernels
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.total_time)
            .sum()
    }

    /// Number of launches of kernels named `name`.
    pub fn kernel_launches(&self, name: &str) -> u64 {
        self.kernels
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.launches)
            .sum()
    }

    /// Total kernel launches of the run (QuickSelect's deep recursion
    /// shows up here, §V-F).
    pub fn total_launches(&self) -> u64 {
        self.kernels.iter().map(|s| s.launches).sum()
    }

    /// The paper's throughput metric: dataset size / total runtime
    /// (§V-B), in elements per second.
    pub fn throughput(&self) -> f64 {
        if self.total_time.as_secs() == 0.0 {
            return 0.0;
        }
        self.n as f64 / self.total_time.as_secs()
    }

    /// Per-element runtime in nanoseconds for a given kernel (the unit
    /// of Fig. 9's y-axis).
    pub fn kernel_ns_per_element(&self, name: &str) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.kernel_time(name).as_ns() / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CostBreakdown, KernelCost, LaunchConfig, LaunchOrigin};

    fn record(name: &str, dur_ns: f64, overhead_ns: f64) -> KernelRecord {
        KernelRecord {
            name: name.to_string().into(),
            config: LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
                shared_mem_bytes: 0,
            },
            start: SimTime::ZERO,
            duration: SimTime::from_ns(dur_ns),
            launch_overhead: SimTime::from_ns(overhead_ns),
            cost: KernelCost::new(),
            breakdown: CostBreakdown::default(),
            origin: LaunchOrigin::Host,
            fault: None,
            sanitizer: None,
        }
    }

    #[test]
    fn aggregates_by_name() {
        let records = vec![
            record("count", 100.0, 10.0),
            record("filter", 50.0, 10.0),
            record("count", 20.0, 5.0),
        ];
        let report = SelectReport::from_records("test", 1000, &records, 2, false);
        assert_eq!(report.kernels.len(), 2);
        assert_eq!(report.kernel_launches("count"), 2);
        assert!((report.kernel_time("count").as_ns() - 120.0).abs() < 1e-9);
        assert!((report.total_time.as_ns() - 195.0).abs() < 1e-9);
        assert!((report.launch_overhead.as_ns() - 25.0).abs() < 1e-9);
        assert_eq!(report.total_launches(), 3);
    }

    #[test]
    fn throughput_is_n_over_time() {
        let records = vec![record("k", 1e9, 0.0)]; // 1 second
        let report = SelectReport::from_records("test", 5_000, &records, 1, false);
        assert!((report.throughput() - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn ns_per_element() {
        let records = vec![record("count", 2000.0, 0.0)];
        let report = SelectReport::from_records("test", 1000, &records, 1, false);
        assert!((report.kernel_ns_per_element("count") - 2.0).abs() < 1e-12);
        assert_eq!(report.kernel_ns_per_element("missing"), 0.0);
    }

    #[test]
    fn empty_records_graceful() {
        let report = SelectReport::from_records("test", 0, &[], 0, false);
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.total_launches(), 0);
    }

    #[test]
    fn resilience_events_count_and_merge() {
        let report = SelectReport::from_records("test", 0, &[], 0, false);
        assert!(report.resilience.is_clean());

        let mut events = ResilienceEvents::default();
        events.fault("launch-failure in `count`");
        events.retry("re-seeded splitter sample");
        events.fallback("sampleselect -> quickselect");
        assert!(!events.is_clean());
        assert_eq!(events.retries, 1);
        assert_eq!(events.fallbacks, 1);
        assert_eq!(events.faults_observed, 1);
        assert_eq!(events.log.len(), 3);
        assert_eq!(
            events.log[0].to_string(),
            "fault: launch-failure in `count`"
        );

        let mut other = ResilienceEvents::default();
        other.degrade("time budget exceeded");
        other.corruption("histogram-sum on level 1");
        other.certify("rank 500 in [499, 502)");
        other.resume("checkpoint at chunk 3");
        events.merge(&other);
        assert_eq!(events.degradations, 1);
        assert_eq!(events.corruptions_detected, 1);
        assert_eq!(events.certified, 1);
        assert_eq!(events.resumed, 1);
        assert_eq!(events.log.len(), 7);
        assert!(other.log[1].to_string().starts_with("corruption:"));
        assert!(other.log[2].to_string().starts_with("certified:"));
        assert!(other.log[3].to_string().starts_with("resumed:"));

        let report = report.with_resilience(events.clone());
        assert_eq!(report.resilience, events);
    }

    /// Regression test: `is_clean()` used to consider only retries,
    /// fallbacks, and degradations — a run that observed a fault, caught
    /// a silent corruption, or resumed from a checkpoint still reported
    /// itself clean. Pin that every recovery counter disqualifies.
    #[test]
    fn is_clean_considers_every_recovery_counter() {
        type Recorder = fn(&mut ResilienceEvents);
        let dirty: [(&str, Recorder); 6] = [
            ("retry", |e| e.retry("x")),
            ("fallback", |e| e.fallback("x")),
            ("degrade", |e| e.degrade("x")),
            ("fault", |e| e.fault("x")),
            ("corruption", |e| e.corruption("x")),
            ("resume", |e| e.resume("x")),
        ];
        for (name, record) in dirty {
            let mut events = ResilienceEvents::default();
            record(&mut events);
            assert!(!events.is_clean(), "`{name}` must not count as clean");
        }
        // certification is a verification success, not a recovery; a
        // checkpoint note is bookkeeping — neither dirties the run
        let mut events = ResilienceEvents::default();
        events.certify("rank 5 in [4, 6)");
        events.checkpoint_note("write to `cp` failed (disk full)");
        assert!(events.is_clean());
        assert_eq!(events.log.len(), 2);
        assert_eq!(
            events.log[1].to_string(),
            "checkpoint: write to `cp` failed (disk full)"
        );
    }

    #[test]
    fn event_display_matches_legacy_log_lines() {
        let mut events = ResilienceEvents::default();
        events.retry("re-seeded");
        events.fallback("a -> b");
        events.degrade("budget");
        events.fault("boom");
        events.corruption("sum mismatch");
        events.certify("ok");
        events.resume("chunk 3");
        events.checkpoint_note("note");
        let lines: Vec<String> = events.log.iter().map(|e| e.to_string()).collect();
        assert_eq!(
            lines,
            [
                "retry: re-seeded",
                "fallback: a -> b",
                "degrade: budget",
                "fault: boom",
                "corruption: sum mismatch",
                "certified: ok",
                "resumed: chunk 3",
                "checkpoint: note",
            ]
        );
        assert_eq!(events.log[0].kind(), "retry");
        assert_eq!(events.log[0].detail(), "re-seeded");
    }
}
