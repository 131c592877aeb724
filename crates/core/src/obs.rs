//! Structured observability: a deterministic metrics registry, a
//! hierarchical query-span tree, and Perfetto counter tracks.
//!
//! The paper's evaluation is built on per-kernel measurement (Fig. 9's
//! runtime breakdown), but everything *above* the kernel — recursion
//! levels, streaming chunks, retry attempts, buffer-pool behaviour —
//! was previously invisible. This module adds that layer without
//! touching driver signatures:
//!
//! * [`MetricsRegistry`] — fixed-slot counters, gauges, and fixed-bucket
//!   histograms backed by `AtomicU64`. Every metric is declared in an
//!   enum ([`Counter`], [`Gauge`], [`Histogram`]), so updates are a
//!   single indexed atomic add with **zero heap allocation**, and
//!   export order is deterministic.
//! * [`QuerySpan`] — a tree of query → recursion level / streaming
//!   chunk → kernel → retry attempt spans, stamped with *simulated*
//!   time only (never wall clock), so the same seed produces a
//!   bit-identical span log on every run.
//! * Counter tracks — `(timestamp, value)` series for bucket occupancy,
//!   atomic-collision rate, and buffer-pool hit rate, exported as
//!   Perfetto `"ph":"C"` counter events through
//!   [`gpu_sim::trace::chrome_trace_with_counters`].
//!
//! ## Enablement model
//!
//! Observability is **off by default** and is enabled per thread by
//! installing an [`ObsSession`]. Drivers call the free functions in
//! this module unconditionally; with no session installed each call is
//! a thread-local load and a branch — no allocation, and no simulated
//! time is ever advanced (`tests/zero_alloc.rs` pins the former, the
//! `observability` integration suite the latter). With a session
//! installed, the same seed produces a bit-identical metrics snapshot
//! across runs because every input to the registry is derived from the
//! deterministic simulation.
//!
//! ```
//! use sampleselect::{obs, sample_select, SampleSelectConfig};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| ((i * 37) % 1000) as f32).collect();
//! let session = obs::ObsSession::start();
//! let _ = sample_select(&data, 5_000, &SampleSelectConfig::default()).unwrap();
//! let report = session.finish();
//! assert!(report.snapshot.counter("select_queries_total") >= 1);
//! println!("{}", report.snapshot.to_prometheus());
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::trace::CounterTrack;
use gpu_sim::{Device, KernelRecord};

// ---------------------------------------------------------------------
// Metric identifiers
// ---------------------------------------------------------------------

/// Monotonic counters. Each variant owns one atomic slot in the
/// registry; `name()` is the exported metric name (pinned by
/// `bench/metrics_schema.txt` in CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Driver invocations (nested drivers — e.g. the in-memory recursion
    /// a streaming run finishes with — count individually).
    Queries = 0,
    /// Kernel launches absorbed from the device timeline.
    KernelLaunches,
    /// Recursion levels executed across all queries.
    RecursionLevels,
    /// Streaming chunks processed (all passes).
    StreamingChunks,
    /// Queries that terminated early in an equality bucket (§IV-C).
    EqualityBucketExits,
    /// Global-memory bytes moved by absorbed kernels.
    BytesMoved,
    /// Same-address shared-atomic replays of absorbed kernels.
    SharedAtomicReplays,
    /// Resilience: retries of a failed step.
    Retries,
    /// Resilience: backend fallbacks.
    Fallbacks,
    /// Resilience: exact→approximate degradations.
    Degradations,
    /// Resilience: device faults observed.
    FaultsObserved,
    /// Resilience: silent corruptions caught by verification.
    CorruptionsDetected,
    /// Resilience: answers that passed a rank certificate.
    Certified,
    /// Resilience: streaming runs resumed from a checkpoint.
    Resumed,
    /// Sharding: shard devices launched by the coordinator.
    ShardsLaunched,
    /// Sharding: stragglers hedged onto a spare device.
    StragglersHedged,
    /// Sharding: dead shards recovered by partition replay.
    ShardsRecovered,
    /// Sharding: queries that finished degraded on a survivor quorum.
    QuorumDegradations,
    /// Serving: queries admitted past quota + queue checks.
    Admitted,
    /// Serving: queries rejected at admission (quota or queue full).
    Rejected,
    /// Serving: queries degraded because their deadline expired (in
    /// queue or via the resilient driver's time budget).
    DeadlineDegraded,
    /// Serving: circuit-breaker open transitions (device quarantined).
    BreakerOpen,
    /// Serving: rank queries answered by a merged `multiselect` batch.
    Batched,
    /// Planner: queries routed to the RadixSelect backend.
    PlannerRadix,
    /// Planner: queries routed to the SampleSelect backend.
    PlannerSample,
    /// Workloads: approximate top-k queries executed (any entry point).
    ApproxTopkQueries,
    /// Workloads: quantile-telemetry windows finalized (tumbling or
    /// sliding) by the streaming quantile engine.
    QuantileWindows,
    /// Workloads: quantile-stream checkpoints persisted by the
    /// telemetry engine (one per completed window boundary).
    QuantileCheckpoints,
}

impl Counter {
    pub const ALL: [Counter; 28] = [
        Counter::Queries,
        Counter::KernelLaunches,
        Counter::RecursionLevels,
        Counter::StreamingChunks,
        Counter::EqualityBucketExits,
        Counter::BytesMoved,
        Counter::SharedAtomicReplays,
        Counter::Retries,
        Counter::Fallbacks,
        Counter::Degradations,
        Counter::FaultsObserved,
        Counter::CorruptionsDetected,
        Counter::Certified,
        Counter::Resumed,
        Counter::ShardsLaunched,
        Counter::StragglersHedged,
        Counter::ShardsRecovered,
        Counter::QuorumDegradations,
        Counter::Admitted,
        Counter::Rejected,
        Counter::DeadlineDegraded,
        Counter::BreakerOpen,
        Counter::Batched,
        Counter::PlannerRadix,
        Counter::PlannerSample,
        Counter::ApproxTopkQueries,
        Counter::QuantileWindows,
        Counter::QuantileCheckpoints,
    ];
    pub const COUNT: usize = Self::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Counter::Queries => "select_queries_total",
            Counter::KernelLaunches => "select_kernel_launches_total",
            Counter::RecursionLevels => "select_recursion_levels_total",
            Counter::StreamingChunks => "select_streaming_chunks_total",
            Counter::EqualityBucketExits => "select_equality_bucket_exits_total",
            Counter::BytesMoved => "select_bytes_moved_total",
            Counter::SharedAtomicReplays => "select_shared_atomic_replays_total",
            Counter::Retries => "select_retries_total",
            Counter::Fallbacks => "select_fallbacks_total",
            Counter::Degradations => "select_degradations_total",
            Counter::FaultsObserved => "select_faults_observed_total",
            Counter::CorruptionsDetected => "select_corruptions_detected_total",
            Counter::Certified => "select_certified_total",
            Counter::Resumed => "select_resumed_total",
            Counter::ShardsLaunched => "select_shards_launched_total",
            Counter::StragglersHedged => "select_stragglers_hedged_total",
            Counter::ShardsRecovered => "select_shards_recovered_total",
            Counter::QuorumDegradations => "select_quorum_degradations_total",
            Counter::Admitted => "select_admitted_total",
            Counter::Rejected => "select_rejected_total",
            Counter::DeadlineDegraded => "select_deadline_degraded_total",
            Counter::BreakerOpen => "select_breaker_open_total",
            Counter::Batched => "select_batched_total",
            Counter::PlannerRadix => "select_planner_radix_total",
            Counter::PlannerSample => "select_planner_sample_total",
            Counter::ApproxTopkQueries => "select_approx_topk_queries_total",
            Counter::QuantileWindows => "select_quantile_windows_total",
            Counter::QuantileCheckpoints => "select_quantile_checkpoints_total",
        }
    }
}

/// Last-observed-value gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Non-empty buckets of the most recent count/reduce level.
    BucketOccupancy = 0,
    /// Shared-atomic replays per warp op of the most recent count
    /// kernel, in parts per million.
    AtomicCollisionRatePpm,
    /// Buffer-pool hits per acquire, in parts per million.
    PoolHitRatePpm,
    /// Cumulative buffer-pool acquires on the observed device.
    PoolAcquires,
    /// Cumulative buffer-pool hits.
    PoolHits,
    /// Cumulative buffer-pool misses.
    PoolMisses,
    /// Active host SIMD dispatch level (1 = scalar fallback, 2 = AVX2),
    /// as resolved by `SELECT_SIMD` at startup.
    SimdDispatchLevel,
}

impl Gauge {
    pub const ALL: [Gauge; 7] = [
        Gauge::BucketOccupancy,
        Gauge::AtomicCollisionRatePpm,
        Gauge::PoolHitRatePpm,
        Gauge::PoolAcquires,
        Gauge::PoolHits,
        Gauge::PoolMisses,
        Gauge::SimdDispatchLevel,
    ];
    pub const COUNT: usize = Self::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Gauge::BucketOccupancy => "select_bucket_occupancy",
            Gauge::AtomicCollisionRatePpm => "select_atomic_collision_rate_ppm",
            Gauge::PoolHitRatePpm => "select_pool_hit_rate_ppm",
            Gauge::PoolAcquires => "select_pool_acquires",
            Gauge::PoolHits => "select_pool_hits",
            Gauge::PoolMisses => "select_pool_misses",
            Gauge::SimdDispatchLevel => "select_simd_dispatch_level",
        }
    }
}

/// Fixed-bucket histograms. Bucket bounds are compile-time constants so
/// observation is a linear scan over at most [`HIST_SLOTS`] slots with
/// no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Histogram {
    /// Simulated kernel duration in nanoseconds.
    KernelDurationNs = 0,
    /// Elements surviving into the next recursion level.
    LevelKeptElements,
    /// Retries needed per streaming chunk load.
    ChunkLoadRetries,
}

/// Upper bound on histogram bucket count (`bounds().len() + 1` ≤ this).
pub const HIST_SLOTS: usize = 7;

impl Histogram {
    pub const ALL: [Histogram; 3] = [
        Histogram::KernelDurationNs,
        Histogram::LevelKeptElements,
        Histogram::ChunkLoadRetries,
    ];
    pub const COUNT: usize = Self::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Histogram::KernelDurationNs => "select_kernel_duration_ns",
            Histogram::LevelKeptElements => "select_level_kept_elements",
            Histogram::ChunkLoadRetries => "select_chunk_load_retries",
        }
    }

    /// Inclusive upper bounds of the finite buckets; one implicit
    /// `+Inf` bucket follows.
    pub fn bounds(self) -> &'static [u64] {
        match self {
            Histogram::KernelDurationNs => &[1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            Histogram::LevelKeptElements => &[1_024, 16_384, 262_144, 4_194_304],
            Histogram::ChunkLoadRetries => &[0, 1, 2],
        }
    }
}

/// Perfetto counter tracks sampled by the drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    BucketOccupancy = 0,
    AtomicCollisionRate,
    BufferPoolHitRate,
}

impl Track {
    pub const ALL: [Track; 3] = [
        Track::BucketOccupancy,
        Track::AtomicCollisionRate,
        Track::BufferPoolHitRate,
    ];
    pub const COUNT: usize = Self::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Track::BucketOccupancy => "bucket_occupancy",
            Track::AtomicCollisionRate => "atomic_collision_rate",
            Track::BufferPoolHitRate => "buffer_pool_hit_rate",
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Fixed-slot metrics storage. All updates are relaxed atomic ops on
/// pre-allocated slots; the registry never allocates after
/// construction.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hist_buckets: [[AtomicU64; HIST_SLOTS]; Histogram::COUNT],
    hist_sum: [AtomicU64; Histogram::COUNT],
    hist_count: [AtomicU64; Histogram::COUNT],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; HIST_SLOTS] = [ZERO; HIST_SLOTS];

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self {
            counters: [ZERO; Counter::COUNT],
            gauges: [ZERO; Gauge::COUNT],
            hist_buckets: [ZERO_ROW; Histogram::COUNT],
            hist_sum: [ZERO; Histogram::COUNT],
            hist_count: [ZERO; Histogram::COUNT],
        }
    }

    pub fn add(&self, c: Counter, v: u64) {
        self.counters[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    pub fn set(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    pub fn observe(&self, h: Histogram, v: u64) {
        let bounds = h.bounds();
        let slot = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
        self.hist_buckets[h as usize][slot].fetch_add(1, Ordering::Relaxed);
        self.hist_sum[h as usize].fetch_add(v, Ordering::Relaxed);
        self.hist_count[h as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every metric in declaration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.counters[c as usize].load(Ordering::Relaxed)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.gauges[g as usize].load(Ordering::Relaxed)))
                .collect(),
            histograms: Histogram::ALL
                .iter()
                .map(|&h| HistogramSnapshot {
                    name: h.name(),
                    bounds: h.bounds(),
                    buckets: (0..=h.bounds().len())
                        .map(|i| self.hist_buckets[h as usize][i].load(Ordering::Relaxed))
                        .collect(),
                    sum: self.hist_sum[h as usize].load(Ordering::Relaxed),
                    count: self.hist_count[h as usize].load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of every metric, in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    pub bounds: &'static [u64],
    /// Per-bucket observation counts; `buckets[bounds.len()]` is the
    /// overflow (`+Inf`) bucket.
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl MetricsSnapshot {
    /// The complete, ordered metric-name list (the CI drift schema).
    pub fn metric_names() -> Vec<&'static str> {
        Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Histogram::ALL.iter().map(|h| h.name()))
            .collect()
    }

    /// Value of one counter by exported name (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of one gauge by exported name (0 if unknown).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// JSON exposition (hand-rolled like the rest of the workspace — the
    /// metric names are static identifiers, so no escaping is needed).
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"select-metrics-v1\",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {{\"bounds\": [", h.name);
            for (j, b) in h.bounds.iter().enumerate() {
                let _ = write!(out, "{}{b}", if j == 0 { "" } else { ", " });
            }
            out.push_str("], \"buckets\": [");
            for (j, c) in h.buckets.iter().enumerate() {
                let _ = write!(out, "{}{c}", if j == 0 { "" } else { ", " });
            }
            let _ = write!(out, "], \"sum\": {}, \"count\": {}}}", h.sum, h.count);
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition (version 0.0.4).
    pub fn to_prometheus(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let mut cumulative = 0u64;
            for (i, b) in h.bounds.iter().enumerate() {
                cumulative += h.buckets[i];
                let _ = writeln!(out, "{}_bucket{{le=\"{b}\"}} {cumulative}", h.name);
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// The level of a [`QuerySpan`] in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One driver invocation.
    Query,
    /// One recursion level.
    Level,
    /// One streaming chunk within a pass.
    Chunk,
    /// One kernel (or kernel group) within a level/chunk.
    Kernel,
    /// One retry attempt of the resilient driver.
    Attempt,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Level => "level",
            SpanKind::Chunk => "chunk",
            SpanKind::Kernel => "kernel",
            SpanKind::Attempt => "attempt",
        }
    }
}

/// One node of the span tree. Timestamps are simulated nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpan {
    pub kind: SpanKind,
    /// Static label (driver or kernel name).
    pub name: &'static str,
    /// Ordinal within the parent (level number, chunk index, attempt
    /// number; 0 where there is no natural ordinal).
    pub index: u64,
    pub start_ns: f64,
    pub end_ns: f64,
    pub children: Vec<QuerySpan>,
}

impl QuerySpan {
    pub fn duration_ns(&self) -> f64 {
        (self.end_ns - self.start_ns).max(0.0)
    }

    fn render(&self, depth: usize, out: &mut String) {
        use fmt::Write as _;
        let _ = writeln!(
            out,
            "{:indent$}{} {}[{}] start={:.1}ns dur={:.1}ns",
            "",
            self.kind.label(),
            self.name,
            self.index,
            self.start_ns,
            self.duration_ns(),
            indent = depth * 2
        );
        for c in &self.children {
            c.render(depth + 1, out);
        }
    }
}

// ---------------------------------------------------------------------
// Session state (thread-local)
// ---------------------------------------------------------------------

struct ObsState {
    registry: Arc<MetricsRegistry>,
    roots: Vec<QuerySpan>,
    stack: Vec<QuerySpan>,
    tracks: [Vec<(f64, f64)>; Track::COUNT],
    /// Device-timeline cursor for [`absorb_device`] (records before it
    /// were already counted).
    records_absorbed: usize,
    /// Latest simulated timestamp seen, used to close leaked spans.
    last_ns: f64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ObsState>> = const { RefCell::new(None) };
}

/// Everything one [`ObsSession`] collected.
#[derive(Debug, Clone)]
pub struct ObsReport {
    pub snapshot: MetricsSnapshot,
    /// Root spans (one per top-level query).
    pub spans: Vec<QuerySpan>,
    /// Perfetto counter tracks, ready for
    /// [`gpu_sim::trace::chrome_trace_with_counters`].
    pub tracks: Vec<CounterTrack>,
}

impl ObsReport {
    /// Deterministic plain-text rendering of the span tree (the
    /// `selectcli --span-log` format).
    pub fn span_log(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            s.render(0, &mut out);
        }
        out
    }
}

/// RAII guard enabling observability on the current thread. One session
/// at a time per thread; drivers running on this thread feed the
/// registry and span tree until [`ObsSession::finish`] (or drop, which
/// discards the data).
pub struct ObsSession {
    registry: Arc<MetricsRegistry>,
}

impl ObsSession {
    pub fn start() -> Self {
        Self::start_with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Install a session whose counters feed a *shared* registry — the
    /// handle-based enablement the `selectd` server uses: one registry
    /// owned by the server, one session per worker thread, so N
    /// concurrent queries aggregate into a single fixed-slot snapshot
    /// while spans stay per-thread.
    pub fn start_with_registry(registry: Arc<MetricsRegistry>) -> Self {
        ACTIVE.with(|a| {
            *a.borrow_mut() = Some(ObsState {
                registry: Arc::clone(&registry),
                roots: Vec::new(),
                stack: Vec::new(),
                tracks: [const { Vec::new() }; Track::COUNT],
                records_absorbed: 0,
                last_ns: 0.0,
            });
        });
        ObsSession { registry }
    }

    /// Shared handle to the live registry (e.g. to snapshot mid-run).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Uninstall the session and return everything it collected. Spans
    /// left open by an error path are closed at the latest observed
    /// simulated timestamp.
    pub fn finish(self) -> ObsReport {
        let state = ACTIVE.with(|a| a.borrow_mut().take());
        let registry = Arc::clone(&self.registry);
        std::mem::forget(self);
        let Some(mut st) = state else {
            return ObsReport {
                snapshot: registry.snapshot(),
                spans: Vec::new(),
                tracks: Vec::new(),
            };
        };
        while let Some(mut span) = st.stack.pop() {
            span.end_ns = span.end_ns.max(st.last_ns);
            match st.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => st.roots.push(span),
            }
        }
        let tracks = Track::ALL
            .iter()
            .map(|&t| CounterTrack {
                name: t.name().to_string(),
                samples: std::mem::take(&mut st.tracks[t as usize]),
            })
            .collect();
        ObsReport {
            snapshot: st.registry.snapshot(),
            spans: st.roots,
            tracks,
        }
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            *a.borrow_mut() = None;
        });
    }
}

// ---------------------------------------------------------------------
// Driver-facing free functions (no-ops without a session)
// ---------------------------------------------------------------------

/// Whether an [`ObsSession`] is installed on this thread. Drivers use
/// this to skip derived-value computation (e.g. bucket-occupancy scans)
/// entirely when observability is off.
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

fn with_state<R>(f: impl FnOnce(&mut ObsState) -> R) -> Option<R> {
    ACTIVE.with(|a| a.borrow_mut().as_mut().map(f))
}

/// Increment a counter.
pub fn counter_add(c: Counter, v: u64) {
    with_state(|st| st.registry.add(c, v));
}

/// Set a gauge.
pub fn gauge_set(g: Gauge, v: u64) {
    with_state(|st| st.registry.set(g, v));
}

/// Record one histogram observation.
pub fn observe(h: Histogram, v: u64) {
    with_state(|st| st.registry.observe(h, v));
}

/// Open a span at simulated time `now_ns`.
pub fn span_enter(kind: SpanKind, name: &'static str, index: u64, now_ns: f64) {
    with_state(|st| {
        st.last_ns = st.last_ns.max(now_ns);
        st.stack.push(QuerySpan {
            kind,
            name,
            index,
            start_ns: now_ns,
            end_ns: now_ns,
            children: Vec::new(),
        });
    });
}

/// Close the innermost open span at simulated time `now_ns`.
pub fn span_exit(now_ns: f64) {
    with_state(|st| {
        st.last_ns = st.last_ns.max(now_ns);
        if let Some(mut span) = st.stack.pop() {
            span.end_ns = now_ns.max(span.start_ns);
            match st.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => st.roots.push(span),
            }
        }
    });
}

/// Current open-span depth; pair with [`span_close_to`] to unwind
/// error paths that skipped their `span_exit` calls.
pub fn span_depth() -> usize {
    with_state(|st| st.stack.len()).unwrap_or(0)
}

/// Close open spans until at most `depth` remain, stamping them with
/// the latest simulated timestamp the session has seen. The panic-path
/// variant of [`span_close_to`]: an unwinding driver has no device at
/// hand to ask for `now`.
pub fn span_unwind_to(depth: usize) {
    with_state(|st| {
        while st.stack.len() > depth {
            let mut span = st.stack.pop().expect("stack non-empty");
            span.end_ns = st.last_ns.max(span.start_ns);
            match st.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => st.roots.push(span),
            }
        }
    });
}

/// RAII span-stack protector for code that may panic mid-query.
///
/// A panicking driver leaves its open spans on the thread's session
/// stack; if the panic is caught (a server worker isolating one bad
/// query), the *next* query on that thread would nest inside the
/// dangling spans and every later snapshot would differ. Taking a
/// `SpanGuard` before running the driver and dropping it after (drop
/// runs during unwinding too) restores the stack to its entry depth, so
/// a caught panic leaves the session exactly as it found it.
///
/// On the non-panic path the guard is a no-op for balanced drivers —
/// they already closed everything they opened.
pub struct SpanGuard {
    depth: usize,
}

impl SpanGuard {
    pub fn new() -> Self {
        SpanGuard {
            depth: span_depth(),
        }
    }
}

impl Default for SpanGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        span_unwind_to(self.depth);
    }
}

/// Close open spans until at most `depth` remain (no-op if already
/// shallower). Used by the resilient driver to discard the partial span
/// stack of a failed attempt.
pub fn span_close_to(depth: usize, now_ns: f64) {
    with_state(|st| {
        st.last_ns = st.last_ns.max(now_ns);
        while st.stack.len() > depth {
            let mut span = st.stack.pop().expect("stack non-empty");
            span.end_ns = now_ns.max(span.start_ns);
            match st.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => st.roots.push(span),
            }
        }
    });
}

/// Append one `(ts_us, value)` sample to a Perfetto counter track.
pub fn track_sample(t: Track, ts_us: f64, value: f64) {
    with_state(|st| st.tracks[t as usize].push((ts_us, value)));
}

/// Absorb the device's kernel timeline into the registry: launches,
/// bytes moved, shared-atomic replays, and the duration histogram.
/// Idempotent per record — a cursor remembers what was already counted,
/// so nested drivers (streaming → in-memory recursion) never count a
/// kernel twice. A device reset rewinds the cursor.
pub fn absorb_device(device: &Device) {
    let recs = device.records();
    let cursor = with_state(|st| {
        st.last_ns = st.last_ns.max(device.now().as_ns());
        std::mem::replace(&mut st.records_absorbed, recs.len())
    });
    absorb_records(&recs[cursor.filter(|&c| c <= recs.len()).unwrap_or(0)..]);
}

/// Absorb kernel records into the registry, as [`absorb_device`] does,
/// but without a cursor: every record passed is counted. For a driver of
/// several devices, which absorbs each device once.
pub(crate) fn absorb_records(records: &[KernelRecord]) {
    with_state(|st| {
        for rec in records {
            st.registry.add(Counter::KernelLaunches, 1);
            st.registry
                .add(Counter::BytesMoved, rec.cost.total_global_bytes());
            st.registry
                .add(Counter::SharedAtomicReplays, rec.cost.shared_atomic_replays);
            st.registry
                .observe(Histogram::KernelDurationNs, rec.duration.as_ns() as u64);
        }
    });
}

/// Sample the device's buffer-pool statistics into the pool gauges and
/// the `buffer_pool_hit_rate` counter track.
pub fn pool_sample(device: &Device) {
    if !enabled() {
        return;
    }
    let Some(stats) = device.buffer_pool_stats() else {
        return;
    };
    let ts_us = device.now().as_us();
    let rate_ppm = (stats.hits * 1_000_000)
        .checked_div(stats.acquires)
        .unwrap_or(0);
    gauge_set(Gauge::PoolAcquires, stats.acquires);
    gauge_set(Gauge::PoolHits, stats.hits);
    gauge_set(Gauge::PoolMisses, stats.misses);
    gauge_set(Gauge::PoolHitRatePpm, rate_ppm);
    track_sample(
        Track::BufferPoolHitRate,
        ts_us,
        rate_ppm as f64 / 1_000_000.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_no_ops() {
        assert!(!enabled());
        counter_add(Counter::Queries, 1);
        gauge_set(Gauge::BucketOccupancy, 7);
        observe(Histogram::KernelDurationNs, 500);
        span_enter(SpanKind::Query, "q", 0, 0.0);
        span_exit(1.0);
        track_sample(Track::BucketOccupancy, 0.0, 1.0);
        assert_eq!(span_depth(), 0);
        // a fresh session sees none of it
        let report = ObsSession::start().finish();
        assert_eq!(report.snapshot.counter("select_queries_total"), 0);
        assert!(report.spans.is_empty());
    }

    #[test]
    fn registry_counts_and_snapshots_deterministically() {
        let session = ObsSession::start();
        counter_add(Counter::Queries, 2);
        gauge_set(Gauge::BucketOccupancy, 212);
        observe(Histogram::KernelDurationNs, 500); // bucket le=1000
        observe(Histogram::KernelDurationNs, 5_000_000); // le=10_000_000
        observe(Histogram::KernelDurationNs, u64::MAX / 2); // +Inf
        let report = session.finish();
        assert_eq!(report.snapshot.counter("select_queries_total"), 2);
        assert_eq!(report.snapshot.gauge("select_bucket_occupancy"), 212);
        let h = &report.snapshot.histograms[0];
        assert_eq!(h.name, "select_kernel_duration_ns");
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(*h.buckets.last().unwrap(), 1);
        assert_eq!(h.count, 3);
        // metric-name list matches the snapshot contents, in order
        let names = MetricsSnapshot::metric_names();
        let mut seen: Vec<&str> = report.snapshot.counters.iter().map(|(n, _)| *n).collect();
        seen.extend(report.snapshot.gauges.iter().map(|(n, _)| *n));
        seen.extend(report.snapshot.histograms.iter().map(|h| h.name));
        assert_eq!(names, seen);
    }

    #[test]
    fn span_tree_nests_and_survives_leaks() {
        let session = ObsSession::start();
        span_enter(SpanKind::Query, "sampleselect", 0, 0.0);
        span_enter(SpanKind::Level, "level", 0, 10.0);
        span_enter(SpanKind::Kernel, "count", 0, 20.0);
        span_exit(30.0);
        span_exit(40.0);
        span_enter(SpanKind::Level, "level", 1, 50.0);
        // leak: query + level 1 left open — finish() closes them
        let report = session.finish();
        assert_eq!(report.spans.len(), 1);
        let q = &report.spans[0];
        assert_eq!(q.kind, SpanKind::Query);
        assert_eq!(q.children.len(), 2);
        assert_eq!(q.children[0].children[0].name, "count");
        assert!((q.children[0].duration_ns() - 30.0).abs() < 1e-9);
        assert_eq!(q.children[1].index, 1);
        let log = report.span_log();
        assert!(log.contains("query sampleselect[0]"));
        assert!(log.contains("  level level[0]"));
        assert!(log.contains("    kernel count[0]"));
    }

    #[test]
    fn span_close_to_unwinds_failed_attempts() {
        let session = ObsSession::start();
        span_enter(SpanKind::Query, "resilient", 0, 0.0);
        let depth = span_depth();
        span_enter(SpanKind::Attempt, "sampleselect", 0, 1.0);
        span_enter(SpanKind::Level, "level", 0, 2.0);
        // attempt fails mid-level; unwind back to the query
        span_close_to(depth, 9.0);
        assert_eq!(span_depth(), depth);
        span_exit(10.0);
        let report = session.finish();
        let q = &report.spans[0];
        assert_eq!(q.children.len(), 1);
        assert_eq!(q.children[0].kind, SpanKind::Attempt);
        assert!((q.children[0].end_ns - 9.0).abs() < 1e-9);
    }

    #[test]
    fn span_guard_restores_stack_across_caught_panic() {
        let session = ObsSession::start();
        span_enter(SpanKind::Query, "server", 0, 0.0);
        let result = std::panic::catch_unwind(|| {
            let _guard = SpanGuard::new();
            span_enter(SpanKind::Attempt, "sampleselect", 0, 5.0);
            span_enter(SpanKind::Level, "level", 0, 6.0);
            panic!("injected driver panic");
        });
        assert!(result.is_err());
        // the guard unwound the panicking query's spans
        assert_eq!(span_depth(), 1);
        span_enter(SpanKind::Attempt, "next-query", 0, 10.0);
        span_exit(12.0);
        span_exit(20.0);
        let report = session.finish();
        let q = &report.spans[0];
        // the dangling Attempt/Level pair was closed under the server
        // span; the next query is a clean sibling, not a grandchild
        assert_eq!(q.children.len(), 2);
        assert_eq!(q.children[1].name, "next-query");
        assert!(q.children[1].children.is_empty());
    }

    #[test]
    fn shared_registry_aggregates_across_sessions() {
        let registry = Arc::new(MetricsRegistry::new());
        let r1 = Arc::clone(&registry);
        let r2 = Arc::clone(&registry);
        let t1 = std::thread::spawn(move || {
            let s = ObsSession::start_with_registry(r1);
            counter_add(Counter::Admitted, 3);
            s.finish();
        });
        let t2 = std::thread::spawn(move || {
            let s = ObsSession::start_with_registry(r2);
            counter_add(Counter::Admitted, 4);
            counter_add(Counter::Rejected, 1);
            s.finish();
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("select_admitted_total"), 7);
        assert_eq!(snap.counter("select_rejected_total"), 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let session = ObsSession::start();
        counter_add(Counter::Retries, 3);
        observe(Histogram::ChunkLoadRetries, 1);
        observe(Histogram::ChunkLoadRetries, 5);
        let report = session.finish();
        let prom = report.snapshot.to_prometheus();
        assert!(prom.contains("# TYPE select_retries_total counter\nselect_retries_total 3"));
        assert!(prom.contains("select_chunk_load_retries_bucket{le=\"1\"} 1"));
        assert!(prom.contains("select_chunk_load_retries_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("select_chunk_load_retries_sum 6"));
        assert!(prom.contains("select_chunk_load_retries_count 2"));
    }

    #[test]
    fn json_exposition_is_wellformed_and_deterministic() {
        let build = || {
            let session = ObsSession::start();
            counter_add(Counter::Queries, 1);
            observe(Histogram::LevelKeptElements, 300);
            session.finish().snapshot.to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same inputs must snapshot bit-identically");
        assert!(a.contains("\"schema\": \"select-metrics-v1\""));
        assert!(a.contains("\"select_queries_total\": 1"));
        // parses with the workspace's own strict JSON validator
        gpu_sim::jsonv::parse(&a).expect("snapshot JSON parses");
    }
}
