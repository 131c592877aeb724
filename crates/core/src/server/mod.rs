//! `selectd`: an overload-safe, concurrent, multi-tenant selection
//! service.
//!
//! Everything below this crate's driver layer is hardened for a single
//! query at a time — faults, ABFT, checkpoints, sharding — but routed
//! through per-thread state (`ObsSession` TLS, one workspace, one
//! device). This module is the concurrency unlock: a [`SelectServer`]
//! owns a pool of warm devices and [`SelectWorkspace`]s and admits N
//! concurrent queries through *handles* — sessions bound to a shared
//! [`MetricsRegistry`], tickets bound to per-query channels — with
//! robustness as the headline:
//!
//! * **Bounded admission.** A fixed-capacity queue plus per-tenant
//!   token buckets ([`QuotaConfig`]). When either says no, the query is
//!   rejected *immediately* with [`SelectError::Overloaded`] — explicit
//!   backpressure instead of unbounded queueing.
//! * **Deadline degradation.** A query's deadline propagates into the
//!   resilient driver's time-budget path: an overloaded server returns
//!   a tagged [`Outcome::Approximate`]-style answer (honest achieved
//!   rank and rank error) rather than timing out silently; a query
//!   whose deadline already expired in the queue skips the exact
//!   attempt entirely.
//! * **Circuit breaking.** Each worker's primary device is watched by a
//!   [`CircuitBreaker`] fed by the fault/latch signals the resilient
//!   driver already surfaces. Consecutive unhealthy queries quarantine
//!   the device; traffic reroutes to a clean spare (and, through the
//!   shared queue, to the other workers) until a half-open probe
//!   rehabilitates it.
//! * **Cross-query batching.** Exact rank queries naming the same
//!   [`DatasetSpec`] are merged into one `multiselect` pass — the
//!   sample/count/reduce work of each level is shared, so m queued
//!   queries cost barely more than one (RadiK's batched-serving
//!   observation).
//! * **Graceful drain.** [`SelectServer::drain`] stops admission,
//!   finishes (or, under a hard drain, checkpoints) in-flight work, and
//!   emits a final [`ServerSnapshot`]. Streaming queries always run
//!   with a spooled checkpoint, so a hard drain loses no progress.
//!
//! Concurrent execution is bit-identical to serial execution of the
//! same query set: every query runs on a freshly `reset` device with
//! its own seed, and the warm buffer pool is result-invariant (both
//! pinned by property tests).

pub mod breaker;
pub mod dataset;
pub mod quota;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerEvent, CircuitBreaker, Route};
pub use dataset::{DatasetSpec, DistCode};
pub use quota::{QuotaConfig, TokenBucket};

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::obs::{Counter, MetricsRegistry, MetricsSnapshot, ObsSession, SpanGuard};
use crate::params::SampleSelectConfig;
use crate::planner::{probe, PlannedBackend, RankPlan};
use crate::quantile_stream::{
    run_quantile_stream, QuantileStreamConfig, WindowSpec, DEFAULT_PROBS,
};
use crate::resilient::{drive, ApproxQuery, Outcome, RankQuery, RanksQuery, ResilienceConfig};
use crate::streaming::{streaming_select_with_checkpoint, ChunkError, ChunkSource, SliceChunks};
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::arch::{v100, GpuArchitecture};
use gpu_sim::trace::escape;
use gpu_sim::{Device, FaultPlan, SimTime};
use hpc_par::ThreadPool;

// ---------------------------------------------------------------------
// Public request/response types
// ---------------------------------------------------------------------

/// What a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The exact `rank`-th smallest element.
    Exact { rank: u64 },
    /// A single-pass approximate answer for `rank` (cheap by design).
    Approx { rank: u64 },
    /// The top-`k` threshold (the `(n-k)`-th smallest element).
    TopK { k: u64 },
    /// The `q`-quantiles (q-1 values) of the dataset.
    Quantiles { q: u64 },
    /// Out-of-core selection over the dataset in `chunk_len` chunks,
    /// checkpointed to the server spool (drain-safe).
    Stream { rank: u64, chunk_len: u64 },
    /// Approximate top-`k` threshold with an expected-recall target.
    /// Served exactly, as the threshold of [`QueryKind::TopK`], so every
    /// target is met.
    /// `recall_bits` is the `f32` bit pattern of the target in `(0, 1]`
    /// (bits, not a float, so `QueryKind` stays `Copy + Eq`).
    ApproxTopK { k: u64, recall_bits: u32 },
    /// Continuous quantile telemetry (p50/p90/p99/p999) over the
    /// dataset streamed in `chunk_len` chunks: windows of `window_len`
    /// elements re-evaluated every `slide` elements, checkpointed to
    /// the server spool (drain-safe, resumes bit-identically).
    QuantileStream {
        window_len: u64,
        slide: u64,
        chunk_len: u64,
    },
}

/// One client query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Tenant identity for quota accounting (any UTF-8 string).
    pub tenant: String,
    pub kind: QueryKind,
    /// The dataset the query runs against (instantiated and cached
    /// server-side; see [`dataset::instantiate`]).
    pub dataset: DatasetSpec,
    /// Wall-clock deadline in milliseconds from submission; `None`
    /// means the client will wait for an exact answer.
    pub deadline_ms: Option<u32>,
    /// Seed for the query's splitter sampling.
    pub seed: u64,
}

/// How a query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryStatus {
    /// Exact answer.
    Exact { value: f32 },
    /// Tagged approximate answer (deadline degradation or an `Approx`
    /// query), with its honest achieved rank and distance to target.
    Approximate {
        value: f32,
        achieved_rank: u64,
        rank_error: u64,
        /// True when an exact query was degraded by its deadline (as
        /// opposed to the client asking for an approximation).
        deadline_degraded: bool,
    },
    /// Top-k threshold.
    TopK { threshold: f32, k: u64 },
    /// Quantile values (q-1 of them).
    Quantiles { values: Vec<f32> },
    /// Approximate top-k threshold with its expected recall, 1.0:
    /// `selectd` serves it exactly.
    ApproxTopK {
        threshold: f32,
        k: u64,
        expected_recall: f32,
    },
    /// Quantile-telemetry stream outcome: how many windows closed and
    /// the final window's values (one per tracked probability,
    /// p50/p90/p99/p999 order).
    QuantileStream { windows: u64, values: Vec<f32> },
    /// A streaming query interrupted by a hard drain; re-submit the
    /// same query after restart to resume from `resume_token`.
    Checkpointed { resume_token: String },
    /// The query could not be answered (permanent error or a panic
    /// isolated by the worker).
    Failed { message: String },
}

impl QueryStatus {
    /// Whether this response claims an exact answer.
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            QueryStatus::Exact { .. }
                | QueryStatus::TopK { .. }
                | QueryStatus::Quantiles { .. }
                | QueryStatus::QuantileStream { .. }
        )
    }
}

/// The server's answer to one admitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Server-assigned query id (admission order).
    pub id: u64,
    pub tenant: String,
    pub status: QueryStatus,
    /// Which backend label produced the answer (`None` for rejected /
    /// failed paths that never ran a driver).
    pub backend: Option<&'static str>,
    /// What admission planned for this query: `sampleselect` for every
    /// exact rank and top-k kind, `None` for the other kinds. The serving
    /// backend can differ: the certify-first count may have answered,
    /// the resilient driver may have fallen past the planned backend, or
    /// the batcher may have merged the query into a multiselect pass.
    pub planned: Option<&'static str>,
    /// True when the answer came out of a merged multiselect batch.
    pub batched: bool,
    /// Wall-clock milliseconds spent queued before a worker picked the
    /// query up.
    pub wait_ms: f64,
    /// Wall-clock milliseconds of driver execution.
    pub service_ms: f64,
}

/// Handle to one admitted query: wait on it for the response.
#[derive(Debug)]
pub struct QueryTicket {
    /// The server-assigned query id.
    pub id: u64,
    rx: Receiver<QueryResponse>,
}

impl QueryTicket {
    /// Block until the worker responds. Returns a `Failed` status if
    /// the server was torn down without answering.
    pub fn wait(self) -> QueryResponse {
        self.rx.recv().unwrap_or(QueryResponse {
            id: self.id,
            tenant: String::new(),
            status: QueryStatus::Failed {
                message: "server shut down before answering".to_string(),
            },
            backend: None,
            planned: None,
            batched: false,
            wait_ms: 0.0,
            service_ms: 0.0,
        })
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, each owning one warm primary device (plus a
    /// lazily built clean spare for breaker rerouting).
    pub workers: usize,
    /// Host threads per worker's simulated-device pool.
    pub worker_threads: usize,
    /// Admission-queue capacity; a full queue rejects with
    /// [`SelectError::Overloaded`].
    pub queue_capacity: usize,
    /// Per-tenant token bucket.
    pub quota: QuotaConfig,
    /// Per-device circuit breaker.
    pub breaker: BreakerConfig,
    /// Max exact rank queries merged into one multiselect pass
    /// (1 disables batching).
    pub batch_max: usize,
    /// Base selection configuration (per-query seeds override
    /// `select.seed`).
    pub select: SampleSelectConfig,
    /// Resilience policy for exact queries (the per-query deadline
    /// overrides `resilience.time_budget`).
    pub resilience: ResilienceConfig,
    /// Simulated-device architecture.
    pub arch: GpuArchitecture,
    /// Upper bound on instantiated dataset size (admission control on
    /// memory, not correctness).
    pub max_dataset_elems: u64,
    /// Total bytes of instantiated datasets kept warm in the server
    /// cache; least-recently-used specs are evicted past this bound.
    /// In-flight queries hold their own `Arc`, so eviction never
    /// invalidates queued or running work.
    pub dataset_cache_bytes: usize,
    /// Directory for streaming-query checkpoints (`None` disables
    /// `Stream` queries).
    pub spool_dir: Option<PathBuf>,
    /// Injected fault plans per worker's primary device (testing/CI:
    /// make worker *i* flaky and watch the breaker quarantine it).
    pub fault_plans: Vec<Option<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            worker_threads: 1,
            queue_capacity: 64,
            quota: QuotaConfig::default(),
            breaker: BreakerConfig::default(),
            batch_max: 8,
            select: SampleSelectConfig::default(),
            resilience: ResilienceConfig::default(),
            arch: v100(),
            max_dataset_elems: 1 << 24,
            dataset_cache_bytes: 256 << 20,
            spool_dir: None,
            fault_plans: Vec::new(),
        }
    }
}

impl ServerConfig {
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    pub fn with_quota(mut self, quota: QuotaConfig) -> Self {
        self.quota = quota;
        self
    }

    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    pub fn with_spool_dir(mut self, dir: PathBuf) -> Self {
        self.spool_dir = Some(dir);
        self
    }

    /// Arm worker `w`'s primary device with a fault plan.
    pub fn with_fault_plan(mut self, worker: usize, plan: FaultPlan) -> Self {
        if self.fault_plans.len() <= worker {
            self.fault_plans.resize(worker + 1, None);
        }
        self.fault_plans[worker] = Some(plan);
        self
    }

    pub fn with_select(mut self, select: SampleSelectConfig) -> Self {
        self.select = select;
        self
    }

    fn fault_plan_for(&self, worker: usize) -> Option<FaultPlan> {
        self.fault_plans.get(worker).cloned().flatten()
    }
}

// ---------------------------------------------------------------------
// Per-tenant accounting
// ---------------------------------------------------------------------

/// Per-tenant counters, exported in the [`ServerSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    pub admitted: u64,
    pub rejected: u64,
    pub deadline_degraded: u64,
    /// Queries served on a spare device while a breaker was open.
    pub breaker_rerouted: u64,
    /// Queries answered out of a merged multiselect batch.
    pub batched: u64,
    pub exact: u64,
    pub approximate: u64,
    pub failed: u64,
}

struct TenantState {
    bucket: TokenBucket,
    counters: TenantCounters,
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// Everything the server knows at drain time (or on a live `Stats`
/// request): the shared metrics registry, per-tenant counters, and the
/// ordered event log (breaker transitions, quarantines, drain).
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    pub metrics: MetricsSnapshot,
    /// `(tenant, counters)` in tenant-name order.
    pub tenants: Vec<(String, TenantCounters)>,
    pub events: Vec<String>,
    /// Total responses produced.
    pub queries_served: u64,
    /// The most recent planner decisions as `(query id, backend)`,
    /// oldest first, bounded to the last 256 planned queries (the
    /// lifetime tallies live in the `select_planner_*_total` counters
    /// of `metrics`).
    pub recent_plans: Vec<(u64, &'static str)>,
}

impl ServerSnapshot {
    /// Hand-rolled JSON (like the rest of the workspace), embedding the
    /// metrics snapshot verbatim. Parses with `gpu_sim::jsonv`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema\": \"selectd-snapshot-v1\",\n");
        let _ = writeln!(out, "  \"queries_served\": {},", self.queries_served);
        out.push_str("  \"tenants\": {");
        for (i, (name, c)) in self.tenants.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape(name, &mut out);
            let _ = write!(
                out,
                ": {{\"admitted\": {}, \"rejected\": {}, \
                 \"deadline_degraded\": {}, \"breaker_rerouted\": {}, \"batched\": {}, \
                 \"exact\": {}, \"approximate\": {}, \"failed\": {}}}",
                c.admitted,
                c.rejected,
                c.deadline_degraded,
                c.breaker_rerouted,
                c.batched,
                c.exact,
                c.approximate,
                c.failed
            );
        }
        out.push_str("\n  },\n  \"recent_plans\": [");
        for (i, (id, backend)) in self.recent_plans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {id}, \"backend\": \"{backend}\"}}"
            );
        }
        out.push_str("\n  ],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape(e, &mut out);
        }
        out.push_str("\n  ],\n  \"metrics\": ");
        // MetricsSnapshot::to_json is a complete object ending in '\n'.
        out.push_str(self.metrics.to_json().trim_end());
        out.push_str("\n}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Server internals
// ---------------------------------------------------------------------

const MODE_RUNNING: u8 = 0;
const MODE_DRAINING: u8 = 1;
/// Hard drain: in-flight streaming queries checkpoint and stop at the
/// next chunk boundary instead of running to completion.
const MODE_HARD_DRAIN: u8 = 2;

struct Job {
    id: u64,
    tenant: String,
    kind: QueryKind,
    spec: DatasetSpec,
    data: Arc<Vec<f32>>,
    deadline_ms: Option<u32>,
    seed: u64,
    submitted: Instant,
    /// Admission-time plan of an exact or top-k kind: SampleSelect after
    /// the probe's certify-first count of the rank (n − k for top-k).
    plan: Option<RankPlan>,
    tx: Sender<QueryResponse>,
}

/// LRU dataset cache bounded by total bytes. Client-chosen specs must
/// not be able to grow server memory without limit: past the cap the
/// least-recently-used spec is evicted (in-flight queries keep their
/// own `Arc`, so eviction is invisible to queued and running work).
#[derive(Default)]
struct DatasetCache {
    entries: BTreeMap<DatasetSpec, (Arc<Vec<f32>>, u64)>,
    bytes: usize,
    tick: u64,
}

impl DatasetCache {
    fn get_or_instantiate(&mut self, spec: &DatasetSpec, cap_bytes: usize) -> Arc<Vec<f32>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((data, last_used)) = self.entries.get_mut(spec) {
            *last_used = tick;
            return Arc::clone(data);
        }
        let data = Arc::new(dataset::instantiate(spec));
        self.bytes += data.len() * std::mem::size_of::<f32>();
        self.entries.insert(*spec, (Arc::clone(&data), tick));
        while self.bytes > cap_bytes {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(spec, _)| *spec);
            match lru {
                Some(spec) => {
                    if let Some((evicted, _)) = self.entries.remove(&spec) {
                        self.bytes -= evicted.len() * std::mem::size_of::<f32>();
                    }
                }
                None => break,
            }
        }
        data
    }
}

struct Shared {
    cfg: ServerConfig,
    registry: Arc<MetricsRegistry>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    tenants: Mutex<BTreeMap<String, TenantState>>,
    datasets: Mutex<DatasetCache>,
    events: Mutex<Vec<String>>,
    mode: AtomicU8,
    next_id: AtomicU64,
    served: AtomicU64,
    start: Instant,
    /// Ring of the most recent planner decisions `(query id, backend)`,
    /// bounded by [`PLAN_LOG_CAP`] so a long-lived server cannot grow it
    /// without limit; exported in the [`ServerSnapshot`].
    plans: Mutex<VecDeque<(u64, &'static str)>>,
}

/// Bound on the snapshot's recent-planner-decision ring.
const PLAN_LOG_CAP: usize = 256;

/// Queries after which a worker restarts its span-collecting session, so
/// a long-lived server does not accumulate span trees without bound
/// (counters live in the shared registry and are unaffected).
const SESSION_RECYCLE_QUERIES: u64 = 256;

impl Shared {
    fn mode(&self) -> u8 {
        self.mode.load(Ordering::Acquire)
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn log_event(&self, event: String) {
        self.events.lock().unwrap().push(event);
    }

    /// Count a queue-full rejection and hand back the quota token it
    /// already paid — a query the server never admitted must not burn
    /// the tenant's budget.
    fn reject_queue_full(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(state) = tenants.get_mut(tenant) {
            state.bucket.refund();
            state.counters.rejected += 1;
        }
        self.registry.add(Counter::Rejected, 1);
    }

    /// Tally one planner decision: fixed-slot counter in the shared
    /// registry plus the bounded recent-decision ring.
    fn record_plan(&self, id: u64, backend: PlannedBackend) {
        self.registry.add(backend.counter(), 1);
        let mut plans = self.plans.lock().unwrap();
        if plans.len() >= PLAN_LOG_CAP {
            plans.pop_front();
        }
        plans.push_back((id, backend.name()));
    }

    fn tenant_count<F: FnOnce(&mut TenantCounters)>(&self, tenant: &str, f: F) {
        let mut tenants = self.tenants.lock().unwrap();
        let now = self.now_ns();
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                bucket: TokenBucket::new(self.cfg.quota.clone(), now),
                counters: TenantCounters::default(),
            });
        f(&mut state.counters);
    }
}

/// The server: spawn with [`SelectServer::start`], submit with
/// [`SelectServer::submit`]/[`SelectServer::query`], stop with
/// [`SelectServer::drain`].
pub struct SelectServer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SelectServer {
    pub fn start(cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            registry: Arc::new(MetricsRegistry::new()),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            tenants: Mutex::new(BTreeMap::new()),
            datasets: Mutex::new(DatasetCache::default()),
            events: Mutex::new(Vec::new()),
            mode: AtomicU8::new(MODE_RUNNING),
            next_id: AtomicU64::new(0),
            served: AtomicU64::new(0),
            start: Instant::now(),
            plans: Mutex::new(VecDeque::new()),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("selectd-worker-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("spawn worker")
            })
            .collect();
        SelectServer {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Shared handle to the live metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// Admit one query, or reject it with explicit backpressure.
    ///
    /// Rejection reasons (all [`SelectError::Overloaded`]): the server
    /// is draining, the tenant's token bucket is empty (`"quota"`), or
    /// the admission queue is full (`"queue-full"`, which refunds the
    /// quota token the submission charged). Invalid queries (rank out
    /// of range, empty dataset) fail with their usual [`SelectError`]s
    /// and never consume quota.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, SelectError> {
        let shared = &self.shared;
        if shared.mode() != MODE_RUNNING {
            shared.registry.add(Counter::Rejected, 1);
            shared.tenant_count(&req.tenant, |c| c.rejected += 1);
            return Err(SelectError::Overloaded {
                reason: "draining",
                tenant: req.tenant,
            });
        }
        // Validate before charging quota.
        if req.dataset.n == 0 {
            return Err(SelectError::EmptyInput);
        }
        if req.dataset.n > shared.cfg.max_dataset_elems {
            return Err(SelectError::Overloaded {
                reason: "dataset-too-large",
                tenant: req.tenant,
            });
        }
        let n = req.dataset.n;
        match req.kind {
            QueryKind::Exact { rank } | QueryKind::Approx { rank } => {
                if rank >= n {
                    return Err(SelectError::RankOutOfRange {
                        rank: rank as usize,
                        len: n as usize,
                    });
                }
            }
            QueryKind::TopK { k } | QueryKind::ApproxTopK { k, .. } => {
                if k == 0 || k > n {
                    return Err(SelectError::RankOutOfRange {
                        rank: k as usize,
                        len: n as usize,
                    });
                }
                if let QueryKind::ApproxTopK { recall_bits, .. } = req.kind {
                    let target = f32::from_bits(recall_bits);
                    if !target.is_finite() || target <= 0.0 || target > 1.0 {
                        return Err(SelectError::InvalidArgument {
                            what: format!("recall target {target} outside (0, 1]"),
                        });
                    }
                }
            }
            QueryKind::Quantiles { q } => {
                // Upper bound mirrors the TopK `k <= n` check: serving
                // builds q-1 ranks, so an unbounded q from the wire
                // would be an allocation-sized attack on the worker.
                if q < 2 || q > n {
                    return Err(SelectError::RankOutOfRange {
                        rank: q as usize,
                        len: n as usize,
                    });
                }
            }
            QueryKind::Stream { rank, chunk_len } => {
                if rank >= n || chunk_len == 0 {
                    return Err(SelectError::RankOutOfRange {
                        rank: rank as usize,
                        len: n as usize,
                    });
                }
                if shared.cfg.spool_dir.is_none() {
                    return Err(SelectError::Overloaded {
                        reason: "streaming-disabled",
                        tenant: req.tenant,
                    });
                }
            }
            QueryKind::QuantileStream {
                window_len,
                slide,
                chunk_len,
            } => {
                // Window parameters ride one u64 wire slot packed as
                // two u32 halves, so each half must fit.
                if window_len == 0
                    || window_len > u64::from(u32::MAX)
                    || slide == 0
                    || slide > window_len
                    || chunk_len == 0
                {
                    return Err(SelectError::InvalidArgument {
                        what: format!(
                            "quantile-stream window {window_len}/slide {slide}/chunk {chunk_len}"
                        ),
                    });
                }
                if window_len > n {
                    return Err(SelectError::RankOutOfRange {
                        rank: window_len as usize,
                        len: n as usize,
                    });
                }
                if shared.cfg.spool_dir.is_none() {
                    return Err(SelectError::Overloaded {
                        reason: "streaming-disabled",
                        tenant: req.tenant,
                    });
                }
            }
        }

        // Per-tenant token bucket.
        {
            let mut tenants = shared.tenants.lock().unwrap();
            let now = shared.now_ns();
            let state = tenants
                .entry(req.tenant.clone())
                .or_insert_with(|| TenantState {
                    bucket: TokenBucket::new(shared.cfg.quota.clone(), now),
                    counters: TenantCounters::default(),
                });
            if !state.bucket.try_take(now) {
                state.counters.rejected += 1;
                shared.registry.add(Counter::Rejected, 1);
                return Err(SelectError::Overloaded {
                    reason: "quota",
                    tenant: req.tenant,
                });
            }
        }

        // Queue pre-check before the dataset is touched: a submission
        // the queue will reject must not pay (or cache) instantiation.
        // Racy by design — the authoritative check is under the push
        // lock below.
        if shared.queue.lock().unwrap().len() >= shared.cfg.queue_capacity {
            shared.reject_queue_full(&req.tenant);
            return Err(SelectError::Overloaded {
                reason: "queue-full",
                tenant: req.tenant,
            });
        }

        // Dataset cache (instantiated on the submitter's thread so the
        // workers never pay generation cost; LRU-bounded by
        // `dataset_cache_bytes`).
        let data = shared
            .datasets
            .lock()
            .unwrap()
            .get_or_instantiate(&req.dataset, shared.cfg.dataset_cache_bytes);

        // Planning on the submitter's thread (the probe is a stack-only
        // strided scan — cheap next to the instantiation above). An exact
        // rank, and the threshold of either top-k kind (the rank n − k),
        // is served as SampleSelect after the probe's certify-first count.
        let rank = match req.kind {
            QueryKind::Exact { rank } => Some(rank as usize),
            QueryKind::TopK { k } | QueryKind::ApproxTopK { k, .. } => {
                Some(data.len() - k as usize)
            }
            _ => None,
        };
        let plan = rank.map(|rank| RankPlan {
            backend: PlannedBackend::Sample,
            candidates: probe(&data, Some(rank)).1,
        });

        // Bounded queue.
        let (tx, rx) = channel();
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = plan {
            shared.record_plan(id, p.backend);
        }
        {
            let mut queue = shared.queue.lock().unwrap();
            if queue.len() >= shared.cfg.queue_capacity {
                drop(queue);
                shared.reject_queue_full(&req.tenant);
                return Err(SelectError::Overloaded {
                    reason: "queue-full",
                    tenant: req.tenant,
                });
            }
            queue.push_back(Job {
                id,
                tenant: req.tenant.clone(),
                kind: req.kind,
                spec: req.dataset,
                data,
                deadline_ms: req.deadline_ms,
                seed: req.seed,
                submitted: Instant::now(),
                plan,
                tx,
            });
        }
        shared.registry.add(Counter::Admitted, 1);
        shared.tenant_count(&req.tenant, |c| c.admitted += 1);
        shared.available.notify_one();
        Ok(QueryTicket { id, rx })
    }

    /// Submit and block for the response.
    pub fn query(&self, req: QueryRequest) -> Result<QueryResponse, SelectError> {
        self.submit(req).map(QueryTicket::wait)
    }

    /// Live snapshot (the wire `Stats` op).
    pub fn snapshot(&self) -> ServerSnapshot {
        let shared = &self.shared;
        ServerSnapshot {
            metrics: shared.registry.snapshot(),
            tenants: shared
                .tenants
                .lock()
                .unwrap()
                .iter()
                .map(|(name, st)| (name.clone(), st.counters))
                .collect(),
            events: shared.events.lock().unwrap().clone(),
            queries_served: shared.served.load(Ordering::Relaxed),
            recent_plans: shared.plans.lock().unwrap().iter().copied().collect(),
        }
    }

    /// Stop admitting and wake every worker. `hard` additionally makes
    /// in-flight streaming queries checkpoint at the next chunk
    /// boundary instead of running to completion.
    pub fn begin_drain(&self, hard: bool) {
        let mode = if hard { MODE_HARD_DRAIN } else { MODE_DRAINING };
        self.shared.mode.store(mode, Ordering::Release);
        self.shared.log_event(format!(
            "drain: admission stopped ({})",
            if hard { "hard" } else { "graceful" }
        ));
        self.shared.available.notify_all();
    }

    /// Graceful shutdown: stop admitting, let the workers finish every
    /// queued query, join them, and return the final snapshot.
    pub fn drain(&self) -> ServerSnapshot {
        if self.shared.mode() == MODE_RUNNING {
            self.begin_drain(false);
        }
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.shared
            .log_event("drain: all workers joined".to_string());
        self.snapshot()
    }
}

impl Drop for SelectServer {
    fn drop(&mut self) {
        // Don't overwrite an already-begun (possibly hard) drain: a
        // graceful store here would blind `DrainAwareSource` to
        // MODE_HARD_DRAIN and let in-flight streams run to completion.
        if self.shared.mode() == MODE_RUNNING {
            self.begin_drain(false);
        } else {
            self.shared.available.notify_all();
        }
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// A [`ChunkSource`] that aborts (with a *permanent* chunk error) at
/// the next chunk boundary once a hard drain begins — the mechanism
/// that turns "stop now" into "checkpoint and stop", because the
/// streaming driver persists its checkpoint after every chunk.
struct DrainAwareSource<'a> {
    inner: SliceChunks<'a, f32>,
    shared: &'a Shared,
}

impl ChunkSource<f32> for DrainAwareSource<'_> {
    fn num_chunks(&self) -> usize {
        self.inner.num_chunks()
    }

    fn total_len(&self) -> usize {
        self.inner.total_len()
    }

    fn source_name(&self) -> &str {
        "selectd-stream"
    }

    fn load_chunk(&self, chunk: usize) -> Result<Vec<f32>, ChunkError> {
        if self.shared.mode() == MODE_HARD_DRAIN {
            return Err(ChunkError {
                chunk,
                message: "server hard-draining; progress checkpointed".to_string(),
                transient: false,
            });
        }
        self.inner.load_chunk(chunk)
    }
}

fn pop_batch(shared: &Shared) -> Option<Vec<Job>> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if let Some(job) = queue.pop_front() {
            let mut batch = vec![job];
            // Cross-query batching: pull every queued *exact* query on
            // the same dataset (any tenant, any seed — exactness is
            // seed-independent) into one multiselect pass. Only
            // deadline-free queries batch — on both sides: a
            // deadline-carrying head must go through `serve_job`'s
            // expired/remaining-budget path, not the batch path.
            // Every exact plan is SampleSelect; the certify-first
            // candidates follow each rank and are dropped by the merge.
            // The merged group runs one multiselect pass, which
            // amortizes the count pass across every member and beats
            // any per-query backend once two or more queries share it.
            if shared.cfg.batch_max > 1
                && matches!(batch[0].kind, QueryKind::Exact { .. })
                && batch[0].deadline_ms.is_none()
            {
                let spec = batch[0].spec;
                let mut i = 0;
                while i < queue.len() && batch.len() < shared.cfg.batch_max {
                    let mergeable = matches!(queue[i].kind, QueryKind::Exact { .. })
                        && queue[i].spec == spec
                        && queue[i].deadline_ms.is_none();
                    if mergeable {
                        batch.push(queue.remove(i).expect("index in bounds"));
                    } else {
                        i += 1;
                    }
                }
            }
            return Some(batch);
        }
        if shared.mode() != MODE_RUNNING {
            return None;
        }
        queue = shared.available.wait(queue).unwrap();
    }
}

fn worker_loop(shared: Arc<Shared>, worker_id: usize) {
    let cfg = shared.cfg.clone();
    let pool = ThreadPool::new(cfg.worker_threads.max(1));
    let mut primary = Device::new(cfg.arch.clone(), &pool);
    primary.enable_buffer_pool();
    if let Some(plan) = cfg.fault_plan_for(worker_id) {
        primary.set_fault_plan(plan);
    }
    let mut spare: Option<Device> = None;
    let mut breaker = CircuitBreaker::new(cfg.breaker.clone());
    let mut ws = SelectWorkspace::<f32>::new();
    let mut session = ObsSession::start_with_registry(Arc::clone(&shared.registry));
    let mut queries_since_recycle = 0u64;

    while let Some(batch) = pop_batch(&shared) {
        let route = breaker.route();
        let rerouted = route == Route::Spare;
        let device: &mut Device = match route {
            Route::Primary => &mut primary,
            Route::Spare => spare.get_or_insert_with(|| {
                // The quarantined "hardware" is replaced by a clean
                // standby: same architecture, no fault plan.
                let mut d = Device::new(cfg.arch.clone(), &pool);
                d.enable_buffer_pool();
                d
            }),
        };

        let healthy = serve_batch(&shared, &cfg, device, &mut ws, batch, rerouted);
        if let Some(event) = breaker.on_result(route, healthy) {
            match event {
                BreakerEvent::Opened | BreakerEvent::Reopened => {
                    shared.registry.add(Counter::BreakerOpen, 1);
                    shared.log_event(format!(
                        "breaker: worker {worker_id} primary device quarantined ({event:?}); \
                         rerouting to spare"
                    ));
                }
                BreakerEvent::Closed => {
                    shared.log_event(format!(
                        "breaker: worker {worker_id} primary device rehabilitated"
                    ));
                }
            }
        }

        queries_since_recycle += 1;
        if queries_since_recycle >= SESSION_RECYCLE_QUERIES {
            // Drop accumulated span trees; the shared registry keeps
            // every counter.
            session.finish();
            session = ObsSession::start_with_registry(Arc::clone(&shared.registry));
            queries_since_recycle = 0;
        }
    }
    session.finish();
}

/// Serve one popped batch (usually a single job). Returns the health
/// verdict for the breaker: `false` when the device latched a fault or
/// the ABFT layer caught a corruption during any job of the batch.
fn serve_batch(
    shared: &Shared,
    cfg: &ServerConfig,
    device: &mut Device,
    ws: &mut SelectWorkspace<f32>,
    batch: Vec<Job>,
    rerouted: bool,
) -> bool {
    let mut healthy = true;
    if batch.len() >= 2 {
        // All jobs are Exact on the same dataset (pop_batch guarantees
        // it). One multiselect pass answers every one of them, driven
        // like any other query: retried on faults and corruption, and
        // certified as a whole under a paranoid policy.
        let data = Arc::clone(&batch[0].data);
        let ranks: Vec<usize> = batch
            .iter()
            .map(|j| match j.kind {
                QueryKind::Exact { rank } => rank as usize,
                _ => unreachable!("pop_batch only merges exact queries"),
            })
            .collect();
        let select_cfg = cfg.select.clone().with_seed(batch[0].seed);
        let rcfg = ResilienceConfig {
            time_budget: None,
            ..cfg.resilience.clone()
        };
        let t0 = Instant::now();
        device.reset();
        let served = {
            let _guard = SpanGuard::new();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let query = RanksQuery {
                    data: &data,
                    ranks: &ranks,
                    ws,
                };
                drive(device, query, &select_cfg, &rcfg)
            }))
        };
        let service_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Ok(Ok(served)) = served {
            let events = &served.report.resilience;
            let healthy = events.faults_observed == 0 && events.corruptions_detected == 0;
            shared.registry.add(Counter::Batched, batch.len() as u64);
            for (job, value) in batch.into_iter().zip(served.answer) {
                shared.tenant_count(&job.tenant, |c| {
                    c.batched += 1;
                    c.exact += 1;
                    if rerouted {
                        c.breaker_rerouted += 1;
                    }
                });
                let status = QueryStatus::Exact { value };
                respond(shared, job, status, Some(served.label), true, service_ms);
            }
            return healthy;
        }
        // The merged pass failed permanently or a panic was isolated:
        // serve each query individually. The batch itself was
        // unhealthy.
        healthy = false;
    }
    for job in batch {
        healthy &= serve_job(shared, cfg, device, ws, job, rerouted);
    }
    healthy
}

fn respond(
    shared: &Shared,
    job: Job,
    status: QueryStatus,
    backend: Option<&'static str>,
    batched: bool,
    service_ms: f64,
) {
    let wait_ms = job.submitted.elapsed().as_secs_f64() * 1e3 - service_ms;
    shared.served.fetch_add(1, Ordering::Relaxed);
    // The client may have given up on its ticket; a dead channel is
    // not a server error.
    let _ = job.tx.send(QueryResponse {
        id: job.id,
        tenant: job.tenant,
        status,
        backend,
        planned: job.plan.map(|p| p.backend.name()),
        batched,
        wait_ms: wait_ms.max(0.0),
        service_ms,
    });
}

/// The simulated-time budget of a query whose wall deadline is
/// `deadline_ms` after submission, once it has waited `waited_ms` in the
/// queue: max(deadline − waited, 0) ms, read as simulated milliseconds.
/// A deadline the queue already consumed leaves a zero budget, which
/// skips the exact attempt entirely.
fn deadline_budget(deadline_ms: u32, waited_ms: f64) -> SimTime {
    SimTime::from_ms((f64::from(deadline_ms) - waited_ms).max(0.0))
}

/// Serve one query on `device`. Returns the breaker health verdict.
fn serve_job(
    shared: &Shared,
    cfg: &ServerConfig,
    device: &mut Device,
    ws: &mut SelectWorkspace<f32>,
    job: Job,
    rerouted: bool,
) -> bool {
    let t0 = Instant::now();
    let waited_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
    let budget = job.deadline_ms.map(|d| deadline_budget(d, waited_ms));

    device.reset();
    let _guard = SpanGuard::new();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_query(shared, cfg, device, ws, &job, budget)
    }));
    let service_ms = t0.elapsed().as_secs_f64() * 1e3;
    match ran {
        Ok((status, backend, healthy)) => {
            if rerouted {
                shared.tenant_count(&job.tenant, |c| c.breaker_rerouted += 1);
            }
            respond(shared, job, status, backend, false, service_ms);
            healthy
        }
        Err(_) => {
            // Panic isolated: the SpanGuard restored the span stack and
            // the device gets reset before the next query; answer the
            // client honestly and treat the device as unhealthy.
            let _ = device.take_fault();
            shared.tenant_count(&job.tenant, |c| c.failed += 1);
            let message = "query panicked in driver (isolated)".to_string();
            respond(
                shared,
                job,
                QueryStatus::Failed { message },
                None,
                false,
                service_ms,
            );
            false
        }
    }
}

/// Map a query kind onto the resilient driver, and its answer onto a
/// status. Returns `(status, backend, healthy)`.
fn run_query(
    shared: &Shared,
    cfg: &ServerConfig,
    device: &mut Device,
    ws: &mut SelectWorkspace<f32>,
    job: &Job,
    budget: Option<SimTime>,
) -> (QueryStatus, Option<&'static str>, bool) {
    let (data, select_cfg) = (&job.data[..], &cfg.select.clone().with_seed(job.seed));
    // Deadline degradation is rank-only: only an exact query carries a
    // time budget.
    let mut rcfg = ResilienceConfig {
        time_budget: None,
        ..cfg.resilience.clone()
    };
    let n = data.len();
    let served = match job.kind {
        QueryKind::Exact { rank } => {
            rcfg.time_budget = budget;
            // The admission-time candidates are counted first, then
            // the SampleSelect chain runs.
            let query = RankQuery::new(data, rank as usize, job.plan, ws);
            drive(device, query, select_cfg, &rcfg).map(|s| s.map(|o| outcome_status(o, true)))
        }
        QueryKind::Approx { rank } => {
            let query = ApproxQuery {
                data,
                rank: rank as usize,
            };
            drive(device, query, select_cfg, &rcfg).map(|s| s.map(|o| outcome_status(o, false)))
        }
        QueryKind::TopK { k } | QueryKind::ApproxTopK { k, .. } => {
            // An approximate top-k is served exactly: its recall is 1.
            let status = |threshold| match job.kind {
                QueryKind::TopK { .. } => QueryStatus::TopK { threshold, k },
                _ => QueryStatus::ApproxTopK {
                    threshold,
                    k,
                    expected_recall: 1.0,
                },
            };
            // The threshold is the rank n-k, served as an exact rank.
            let query = RankQuery::new(data, n - k as usize, job.plan, ws);
            drive(device, query, select_cfg, &rcfg).map(|s| s.map(|o| status(o.value())))
        }
        QueryKind::Quantiles { q } => {
            let ranks = crate::multiselect::quantile_ranks(n, q as usize)
                .expect("q bounds validated at admission");
            let query = RanksQuery {
                data,
                ranks: &ranks,
                ws,
            };
            drive(device, query, select_cfg, &rcfg)
                .map(|s| s.map(|values| QueryStatus::Quantiles { values }))
        }
        QueryKind::Stream { .. } | QueryKind::QuantileStream { .. } => {
            return serve_stream(shared, cfg, device, job);
        }
    };

    let s = match served {
        Ok(s) => s,
        Err(e) => {
            shared.tenant_count(&job.tenant, |c| c.failed += 1);
            let message = e.to_string();
            return (QueryStatus::Failed { message }, None, !e.is_transient());
        }
    };
    let events = &s.report.resilience;
    let healthy = events.faults_observed == 0 && events.corruptions_detected == 0;
    if let QueryStatus::Approximate {
        deadline_degraded: true,
        ..
    } = s.answer
    {
        shared.registry.add(Counter::DeadlineDegraded, 1);
    }
    shared.tenant_count(&job.tenant, |c| match &s.answer {
        QueryStatus::Approximate {
            deadline_degraded, ..
        } => {
            c.approximate += 1;
            c.deadline_degraded += u64::from(*deadline_degraded);
        }
        _ => c.exact += 1,
    });
    (s.answer, Some(s.label), healthy)
}

/// The status of a rank answer; an approximate one is tagged as
/// deadline-degraded when the client asked for an exact answer.
fn outcome_status(outcome: Outcome<f32>, deadline_degraded: bool) -> QueryStatus {
    match outcome {
        Outcome::Exact(value) => QueryStatus::Exact { value },
        Outcome::Approximate {
            value,
            achieved_rank,
            rank_error,
        } => QueryStatus::Approximate {
            value,
            achieved_rank,
            rank_error,
            deadline_degraded,
        },
    }
}

/// Stable checkpoint path per (tenant, dataset, query parameters): a
/// re-submission after a hard drain resumes the same file.
fn checkpoint_path(spool: &Path, prefix: &str, job: &Job, params: &[u64]) -> PathBuf {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in job.tenant.bytes() {
        mix(u64::from(b));
    }
    mix(job.spec.dist as u64);
    mix(job.spec.n);
    mix(job.spec.seed);
    for &p in params {
        mix(p);
    }
    spool.join(format!("{prefix}-{h:016x}.ckpt"))
}

/// Serve a `Stream` or `QuantileStream` query: one checkpointed pass
/// over the dataset in chunks. A hard drain checkpoints it; a latched
/// fault invalidates it.
fn serve_stream(
    shared: &Shared,
    cfg: &ServerConfig,
    device: &mut Device,
    job: &Job,
) -> (QueryStatus, Option<&'static str>, bool) {
    let spool = cfg
        .spool_dir
        .as_ref()
        .expect("streaming admission requires a spool dir");
    let select_cfg = &cfg.select.clone().with_seed(job.seed);
    let source = |chunk_len: u64| DrainAwareSource {
        inner: SliceChunks::new(&job.data, chunk_len as usize),
        shared,
    };
    let (label, what, ckpt, result) = match job.kind {
        QueryKind::Stream { rank, chunk_len } => {
            let ckpt = checkpoint_path(spool, "stream", job, &[rank]);
            let result = streaming_select_with_checkpoint(
                device,
                &source(chunk_len),
                rank as usize,
                select_cfg,
                &ckpt,
                true, // resume a matching checkpoint if one exists
            )
            .map(|res| QueryStatus::Exact { value: res.value });
            ("streaming", "streaming query", ckpt, result)
        }
        QueryKind::QuantileStream {
            window_len,
            slide,
            chunk_len,
        } => {
            let ckpt = checkpoint_path(spool, "qstream", job, &[window_len, slide]);
            let qcfg = QuantileStreamConfig {
                probs: DEFAULT_PROBS.to_vec(),
                window: WindowSpec {
                    len: window_len as usize,
                    slide: slide as usize,
                },
                select: select_cfg.clone(),
            };
            let result = run_quantile_stream(device, &source(chunk_len), &qcfg, Some(&ckpt), true)
                .map(|run| {
                    let values = run.engine.last().map(|w| w.values.clone());
                    let windows = run.engine.windows_emitted();
                    QueryStatus::QuantileStream {
                        windows,
                        values: values.unwrap_or_default(),
                    }
                });
            ("quantile-stream", "quantile stream", ckpt, result)
        }
        _ => unreachable!("only streaming kinds are served here"),
    };
    let fault = device.take_fault();
    let (status, backend, healthy) = match (result, fault) {
        (Ok(status), None) => {
            // The finite pass completed; the checkpoint has served its
            // purpose (the rank stream removes its own).
            let _ = std::fs::remove_file(&ckpt);
            shared.tenant_count(&job.tenant, |c| c.exact += 1);
            return (status, Some(label), true);
        }
        (Err(SelectError::ChunkLoad(e)), _) if shared.mode() == MODE_HARD_DRAIN => {
            shared.log_event(format!(
                "drain: {what} {} checkpointed at chunk {}",
                job.id, e.chunk
            ));
            let resume_token = ckpt.display().to_string();
            let status = QueryStatus::Checkpointed { resume_token };
            (status, Some(label), true) // a drain is not a device-health signal
        }
        (Err(e), fault) => {
            let healthy = fault.is_none() && !e.is_transient();
            let message = e.to_string();
            (QueryStatus::Failed { message }, None, healthy)
        }
        (Ok(_), Some(_)) => {
            let message = format!("device fault invalidated {what}");
            (QueryStatus::Failed { message }, None, false)
        }
    };
    shared.tenant_count(&job.tenant, |c| c.failed += 1);
    (status, backend, healthy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> DatasetSpec {
        DatasetSpec::uniform(1_024, seed)
    }

    #[test]
    fn dataset_cache_evicts_lru_past_byte_cap() {
        // Each spec is 1024 * 4 = 4 KiB; cap at 2 entries' worth.
        let cap = 2 * 4 * 1024;
        let mut cache = DatasetCache::default();
        let a = cache.get_or_instantiate(&spec(1), cap);
        cache.get_or_instantiate(&spec(2), cap);
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.bytes <= cap);
        // Touch spec 1 so spec 2 is the LRU victim.
        cache.get_or_instantiate(&spec(1), cap);
        cache.get_or_instantiate(&spec(3), cap);
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.bytes <= cap);
        assert!(
            cache.entries.contains_key(&spec(1)),
            "recently used survives"
        );
        assert!(!cache.entries.contains_key(&spec(2)), "LRU entry evicted");
        // A distinct-seed scan stays bounded — the unbounded-growth DoS.
        for s in 100..200 {
            cache.get_or_instantiate(&spec(s), cap);
            assert!(cache.bytes <= cap);
        }
        // Evicted entries stay valid for holders of the Arc.
        assert_eq!(a.len(), 1_024);
    }

    #[test]
    fn dataset_cache_evicts_even_a_lone_over_cap_entry() {
        let mut cache = DatasetCache::default();
        let data = cache.get_or_instantiate(&spec(1), 16);
        assert_eq!(data.len(), 1_024, "over-cap dataset still served");
        assert!(cache.entries.is_empty(), "but not kept warm");
        assert_eq!(cache.bytes, 0);
    }

    #[test]
    fn drop_preserves_hard_drain_mode() {
        // Drop must not downgrade MODE_HARD_DRAIN to MODE_DRAINING:
        // DrainAwareSource keys off hard-drain to checkpoint in-flight
        // streams at the next chunk boundary.
        let server = SelectServer::start(ServerConfig::default().with_workers(1));
        server.begin_drain(true);
        let shared = Arc::clone(&server.shared);
        drop(server);
        assert_eq!(shared.mode(), MODE_HARD_DRAIN);
    }
}
