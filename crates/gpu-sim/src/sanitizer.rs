//! The SIMT sanitizer: a `compute-sanitizer` / `cuda-memcheck` analogue
//! for the simulated device.
//!
//! The BSP contract of [`crate::block::BlockExec`] — every phase is
//! data-race-free, threads reach the same barriers — is documented but,
//! without this module, unenforced: a racy kernel port silently produces
//! schedule-dependent results. The sanitizer is the enforcement layer.
//! It is strictly **opt-in** ([`SanitizerConfig`] installed on a
//! [`crate::Device`] or a `BlockExec`); with no config installed every
//! tracking branch is behind an `Option` that stays `None`, so the fast
//! paths pay nothing.
//!
//! Five detector classes are implemented (mirroring the
//! `memcheck`/`racecheck`/`initcheck`/`synccheck` tools):
//!
//! * [`SanitizerKind::WriteWriteRace`] / [`SanitizerKind::ReadWriteRace`]
//!   — two threads touch the same shared word in one barrier interval,
//!   at least one of them writing;
//! * [`SanitizerKind::BarrierDivergence`] — threads of a block execute
//!   different numbers of conditional barriers in one phase;
//! * [`SanitizerKind::UninitRead`] — a shared word is read before any
//!   thread wrote it;
//! * [`SanitizerKind::OutOfBounds`] — a shared-memory, `SharedArray`, or
//!   `ScatterBuffer` access past the allocation;
//! * [`SanitizerKind::MixedAtomic`] — the same counter word is accessed
//!   both atomically and with plain loads/stores in one barrier
//!   interval.
//!
//! Findings are *reported, never panicked*: they surface as a structured
//! [`SanitizerReport`] attached to the launching kernel's
//! [`crate::KernelRecord`] (and from there to the Chrome trace), or are
//! taken directly off a `BlockExec`. The offending access is dropped or
//! zero-substituted so the simulation continues deterministically.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::escape;

/// Which detector classes are armed. The default arms everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Detect write-write and read-write races within a phase.
    pub races: bool,
    /// Detect threads reaching different conditional-barrier counts.
    pub barriers: bool,
    /// Detect reads of never-written shared words.
    pub uninit: bool,
    /// Detect out-of-bounds shared/scatter accesses.
    pub bounds: bool,
    /// Detect mixed atomic/non-atomic access to one counter word.
    pub atomics: bool,
    /// Findings kept per report; the rest are counted as truncated.
    pub max_findings: usize,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        Self {
            races: true,
            barriers: true,
            uninit: true,
            bounds: true,
            atomics: true,
            max_findings: 64,
        }
    }
}

impl SanitizerConfig {
    /// All detector classes armed (the default).
    pub fn full() -> Self {
        Self::default()
    }
}

/// The detector class of one finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SanitizerKind {
    /// Two threads wrote the same shared word in one phase.
    WriteWriteRace,
    /// One thread read a shared word another thread wrote (or wrote a
    /// word another thread read) in the same phase.
    ReadWriteRace,
    /// Threads of one block executed different numbers of conditional
    /// barriers within a phase (`__syncthreads` divergence).
    BarrierDivergence,
    /// A shared word was read before any thread initialized it.
    UninitRead,
    /// An access landed outside the allocation.
    OutOfBounds,
    /// A counter word was accessed both atomically and with plain
    /// loads/stores in the same phase.
    MixedAtomic,
}

impl SanitizerKind {
    /// Stable kebab-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            SanitizerKind::WriteWriteRace => "write-write-race",
            SanitizerKind::ReadWriteRace => "read-write-race",
            SanitizerKind::BarrierDivergence => "barrier-divergence",
            SanitizerKind::UninitRead => "uninit-read",
            SanitizerKind::OutOfBounds => "out-of-bounds",
            SanitizerKind::MixedAtomic => "mixed-atomic",
        }
    }
}

impl fmt::Display for SanitizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerFinding {
    /// Detector class.
    pub kind: SanitizerKind,
    /// Word / slot index the access targeted.
    pub index: usize,
    /// Barrier interval (phase) in which the access happened; 0 for
    /// findings from device-global buffers with no phase structure.
    pub phase: u64,
    /// Thread id of the offending access, when known.
    pub thread: Option<u32>,
    /// Thread id of the earlier conflicting access, when known.
    pub other_thread: Option<u32>,
    /// Where it happened (`"smem"`, `"scatter:filter-out"`, ...).
    pub context: String,
}

impl fmt::Display for SanitizerFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}[{}] (phase {}",
            self.kind, self.context, self.index, self.phase
        )?;
        if let Some(t) = self.thread {
            write!(f, ", thread {t}")?;
        }
        if let Some(o) = self.other_thread {
            write!(f, ", conflicts with thread {o}")?;
        }
        f.write_str(")")
    }
}

/// The structured result of sanitizing one kernel (or one `BlockExec`
/// run): every finding, plus coverage counters so "clean" can be
/// distinguished from "did not look".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanitizerReport {
    /// All findings, in detection order (capped at
    /// [`SanitizerConfig::max_findings`]).
    pub findings: Vec<SanitizerFinding>,
    /// Findings dropped beyond the cap.
    pub truncated: u64,
    /// Barrier intervals observed.
    pub phases: u64,
    /// Tracked accesses checked.
    pub accesses: u64,
}

impl SanitizerReport {
    /// No findings (truncated ones count as findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.truncated == 0
    }

    /// Findings of one detector class.
    pub fn count_of(&self, kind: SanitizerKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Fold another report into this one (summing coverage counters).
    pub fn merge(&mut self, other: &SanitizerReport) {
        self.findings.extend(other.findings.iter().cloned());
        self.truncated += other.truncated;
        self.phases += other.phases;
        self.accesses += other.accesses;
    }

    /// Serialize as a JSON object (hand-rolled, same style as the
    /// Chrome-trace writer: no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.findings.len() * 128);
        self.write_json(&mut out);
        out
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&format!(
            "\"clean\":{},\"truncated\":{},\"phases\":{},\"accesses\":{},\"findings\":[",
            self.is_clean(),
            self.truncated,
            self.phases,
            self.accesses
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"index\":{},\"phase\":{},",
                f.kind.name(),
                f.index,
                f.phase
            ));
            match f.thread {
                Some(t) => out.push_str(&format!("\"thread\":{t},")),
                None => out.push_str("\"thread\":null,"),
            }
            match f.other_thread {
                Some(t) => out.push_str(&format!("\"other_thread\":{t},")),
                None => out.push_str("\"other_thread\":null,"),
            }
            out.push_str("\"context\":");
            escape(&f.context, out);
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// Serialize a set of named reports (e.g. one per kernel record) as a
/// JSON array — the artifact format the CI `sanitize` job uploads.
pub fn reports_to_json(reports: &[(String, SanitizerReport)]) -> String {
    let mut out = String::with_capacity(64 + reports.len() * 256);
    out.push('[');
    for (i, (name, report)) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kernel\":");
        escape(name, &mut out);
        out.push_str(",\"report\":");
        report.write_json(&mut out);
        out.push('}');
    }
    out.push(']');
    out
}

struct SinkInner {
    cfg: SanitizerConfig,
    findings: Mutex<Vec<SanitizerFinding>>,
    truncated: AtomicU64,
    accesses: AtomicU64,
}

/// A thread-safe findings collector shared between a [`crate::Device`]
/// and the buffers it hands to kernels. Vectorized kernels run their
/// blocks on concurrent host threads, so shadowed [`crate::ScatterBuffer`]s
/// report through this sink; the device drains it into the launching
/// kernel's record at commit time.
#[derive(Clone)]
pub struct SanitizerSink {
    inner: Arc<SinkInner>,
}

impl fmt::Debug for SanitizerSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanitizerSink")
            .field("pending", &self.pending())
            .finish()
    }
}

impl SanitizerSink {
    pub fn new(cfg: SanitizerConfig) -> Self {
        Self {
            inner: Arc::new(SinkInner {
                cfg,
                findings: Mutex::new(Vec::new()),
                truncated: AtomicU64::new(0),
                accesses: AtomicU64::new(0),
            }),
        }
    }

    pub fn config(&self) -> SanitizerConfig {
        self.inner.cfg
    }

    /// Record one finding (capped at the configured maximum).
    pub fn record(&self, finding: SanitizerFinding) {
        let mut findings = self.inner.findings.lock().unwrap();
        if findings.len() < self.inner.cfg.max_findings {
            findings.push(finding);
        } else {
            self.inner.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one tracked access (coverage accounting).
    pub fn note_access(&self) {
        self.inner.accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Findings currently pending (not yet drained).
    pub fn pending(&self) -> usize {
        self.inner.findings.lock().unwrap().len()
    }

    /// Take everything recorded since the last drain as a report.
    pub fn drain(&self) -> SanitizerReport {
        let findings = std::mem::take(&mut *self.inner.findings.lock().unwrap());
        SanitizerReport {
            findings,
            truncated: self.inner.truncated.swap(0, Ordering::Relaxed),
            phases: 0,
            accesses: self.inner.accesses.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: SanitizerKind, index: usize) -> SanitizerFinding {
        SanitizerFinding {
            kind,
            index,
            phase: 2,
            thread: Some(3),
            other_thread: Some(7),
            context: "smem".to_string(),
        }
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut report = SanitizerReport::default();
        assert!(report.is_clean());
        report
            .findings
            .push(finding(SanitizerKind::WriteWriteRace, 0));
        report.findings.push(finding(SanitizerKind::UninitRead, 1));
        assert!(!report.is_clean());
        assert_eq!(report.count_of(SanitizerKind::WriteWriteRace), 1);
        assert_eq!(report.count_of(SanitizerKind::OutOfBounds), 0);
    }

    #[test]
    fn truncation_alone_is_not_clean() {
        let report = SanitizerReport {
            truncated: 3,
            ..Default::default()
        };
        assert!(!report.is_clean());
    }

    #[test]
    fn sink_caps_findings_and_counts_truncated() {
        let sink = SanitizerSink::new(SanitizerConfig {
            max_findings: 2,
            ..Default::default()
        });
        for i in 0..5 {
            sink.record(finding(SanitizerKind::OutOfBounds, i));
        }
        let report = sink.drain();
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.truncated, 3);
        // the drain resets the sink
        assert!(sink.drain().is_clean());
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let sink = SanitizerSink::new(SanitizerConfig::default());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    sink.record(finding(SanitizerKind::WriteWriteRace, t));
                    sink.note_access();
                });
            }
        });
        let report = sink.drain();
        assert_eq!(report.findings.len(), 4);
        assert_eq!(report.accesses, 4);
    }

    #[test]
    fn json_shape_is_valid() {
        let mut report = SanitizerReport::default();
        report
            .findings
            .push(finding(SanitizerKind::MixedAtomic, 17));
        report.accesses = 9;
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"mixed-atomic\""));
        assert!(json.contains("\"index\":17"));
        assert!(json.contains("\"clean\":false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let all = reports_to_json(&[("count \"x\"".to_string(), report)]);
        assert!(all.starts_with('[') && all.ends_with(']'));
        assert!(all.contains("count \\\"x\\\""));
    }

    #[test]
    fn display_names_are_kebab_case() {
        for (kind, name) in [
            (SanitizerKind::WriteWriteRace, "write-write-race"),
            (SanitizerKind::ReadWriteRace, "read-write-race"),
            (SanitizerKind::BarrierDivergence, "barrier-divergence"),
            (SanitizerKind::UninitRead, "uninit-read"),
            (SanitizerKind::OutOfBounds, "out-of-bounds"),
            (SanitizerKind::MixedAtomic, "mixed-atomic"),
        ] {
            assert_eq!(kind.to_string(), name);
        }
        let text = finding(SanitizerKind::ReadWriteRace, 4).to_string();
        assert!(text.contains("read-write-race") && text.contains("smem[4]"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SanitizerReport {
            phases: 2,
            accesses: 10,
            ..Default::default()
        };
        let b = SanitizerReport {
            findings: vec![finding(SanitizerKind::UninitRead, 0)],
            truncated: 1,
            phases: 3,
            accesses: 5,
        };
        a.merge(&b);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.truncated, 1);
        assert_eq!(a.phases, 5);
        assert_eq!(a.accesses, 15);
    }
}
