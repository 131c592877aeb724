//! Resilient selection: retry, fallback, and graceful degradation on
//! top of the plain drivers.
//!
//! Real GPU deployments fail in ways the paper's measurement setting
//! never sees: kernel launches error out, device memory runs dry, and
//! I/O feeding an out-of-core run stalls. This module holds the one
//! attempt loop that keeps returning *correct* answers under injected
//! faults ([`gpu_sim::FaultPlan`]) for every kind of query: exact,
//! streamed and approximate ranks, quantile vectors and top-k
//! thresholds. A private `Query` trait says how one attempt of a kind
//! runs, which certificate applies and what the host answers as the
//! last resort; the loop owns the policy:
//!
//! * **Retry** — a transient device fault (an injected launch failure or
//!   allocation failure latched by the [`Device`]) discards the
//!   attempt's result, backs the simulated clock off exponentially, and
//!   reruns with a *re-seeded* splitter sample so the retry does not
//!   deterministically replay the same schedule.
//! * **Certify-first** — a [`crate::planner`] plan's candidates are
//!   counted once before any backend; a hit is the certified answer, a
//!   miss or a faulted count hands the query to the chain.
//! * **Fallback** — a recursion that fails to converge (depth or work
//!   budget exhausted — the signature of degenerate splitters) switches
//!   backend: SampleSelect → CPU sort. The CPU sort terminates
//!   unconditionally, so the chain always produces the exact answer.
//! * **Certification** — under [`crate::VerifyPolicy::Paranoid`] a
//!   device answer must pass its rank certificate
//!   ([`crate::verify::certify_ranks`]) before it is returned; a failed
//!   certificate is a corruption, retried like a fault. The CPU sort's
//!   answer, exact by construction, gets the same count once the chain
//!   is exhausted.
//! * **Degradation** — under a time budget, once the simulated clock
//!   passes the deadline the driver stops pursuing the exact answer and
//!   returns the single-pass approximate result, tagged with its exact
//!   achieved rank and rank error ([`Outcome::Approximate`]).
//!
//! Every action is recorded in [`ResilienceEvents`] on the returned
//! report; with a fixed [`gpu_sim::FaultPlan`] seed the whole event log
//! is deterministic.

use std::marker::PhantomData;

use crate::approx::approx_select_on_device;
use crate::element::{reference_select, SelectElement};
use crate::instrument::{ResilienceEvents, SelectReport};
use crate::obs::{self, SpanKind};
use crate::params::SampleSelectConfig;
use crate::planner::{certify_first, PlannedBackend, RankPlan, CERTIFY_FIRST};
use crate::recursion::{ranks_with_workspace, select_with_workspace, validate_input, Bucketing};
use crate::rng::SplitMix64;
use crate::streaming::{streaming_select, ChunkSource};
use crate::verify::{certify_rank, certify_ranks};
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::arch::v100;
use gpu_sim::{Device, LaunchOrigin, SimTime};

/// How transient faults are retried.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries per backend after the initial attempt.
    pub max_retries: u32,
    /// Simulated backoff before the first retry.
    pub backoff: SimTime,
    /// Backoff growth per retry (exponential backoff at 2.0).
    pub backoff_multiplier: f64,
    /// Ceiling on a single backoff: exponential growth stops here, so a
    /// long retry chain degrades the clock linearly instead of
    /// geometrically.
    pub max_backoff: SimTime,
    /// Seed for the decorrelated backoff jitter. Two retry chains with
    /// the same policy but different *salts* (backend, shard index)
    /// de-synchronize, while any (seed, salt, attempt) triple always
    /// produces the same delay — retries stay bit-reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff: SimTime::from_us(50.0),
            backoff_multiplier: 2.0,
            max_backoff: SimTime::from_ms(5.0),
            jitter_seed: 0x5EED_BA5E_0DDB_A115,
        }
    }
}

impl RetryPolicy {
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

/// The backoff before retry `attempt` (0-based) of the chain identified
/// by `salt`: exponential growth clamped to `max_backoff`, then scaled
/// by a seeded jitter factor in `[0.5, 1.5)`.
///
/// Without the jitter, K shards hitting the same transient fault all
/// re-launch at the same simulated instant (a thundering herd on the
/// coordinator and the interconnect); decorrelating per (salt, attempt)
/// spreads them out while keeping every delay a pure function of the
/// policy seed.
pub fn jittered_backoff(policy: &RetryPolicy, salt: u64, attempt: u32) -> SimTime {
    let mut backoff = policy.backoff;
    for _ in 0..attempt {
        backoff = backoff * policy.backoff_multiplier;
    }
    if backoff > policy.max_backoff {
        backoff = policy.max_backoff;
    }
    let mut rng = SplitMix64::new(
        policy
            .jitter_seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(attempt as u64),
    );
    let factor = 0.5 + rng.next_f64();
    let jittered = backoff * factor;
    if jittered > policy.max_backoff {
        policy.max_backoff
    } else {
        jittered
    }
}

/// Policy knobs of the resilient driver.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Transient-fault retry policy.
    pub retry: RetryPolicy,
    /// Simulated-time budget. Once the device clock passes
    /// `start + budget`, the driver degrades to the approximate variant
    /// instead of starting another exact attempt.
    pub time_budget: Option<SimTime>,
}

impl ResilienceConfig {
    pub fn with_time_budget(mut self, budget: SimTime) -> Self {
        self.time_budget = Some(budget);
        self
    }

    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.retry.max_retries = retries;
        self
    }
}

/// Which implementation produced the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's SampleSelect (first choice of the default chain).
    SampleSelect,
    /// The planner's certify-first count (one counting pass).
    CertifyFirst,
    /// MSD RadixSelect ([`crate::radix`]) — only enters a chain when the
    /// [`crate::planner`] puts it first; never a default fallback, since
    /// its fixed `key_bits / 8` passes are the wrong medicine for the
    /// degenerate inputs that make the adaptive recursions fail.
    RadixSelect,
    /// Host-side sort-and-index (last resort; cannot fail).
    CpuSort,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::SampleSelect => "sampleselect",
            Backend::CertifyFirst => CERTIFY_FIRST,
            Backend::RadixSelect => "radixselect",
            Backend::CpuSort => "cpu-sort",
        }
    }

    fn report_label(self) -> &'static str {
        match self {
            Backend::SampleSelect => "resilient-sampleselect",
            Backend::CertifyFirst => "resilient-certify-first",
            Backend::RadixSelect => "resilient-radixselect",
            Backend::CpuSort => "resilient-cpu-sort",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Backend::SampleSelect => 1,
            Backend::CpuSort => 3,
            Backend::RadixSelect => 4,
            Backend::CertifyFirst => 5,
        }
    }
}

/// The answer, tagged with its accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome<T> {
    /// The exact `rank`-th smallest element.
    Exact(T),
    /// A nearby splitter returned under a time budget, with its exact
    /// rank (splitter ranks are free — §II-C) and distance to target.
    Approximate {
        value: T,
        achieved_rank: u64,
        rank_error: u64,
    },
}

impl<T: Copy> Outcome<T> {
    /// The selected value, exact or approximate.
    pub fn value(&self) -> T {
        match self {
            Outcome::Exact(v) => *v,
            Outcome::Approximate { value, .. } => *value,
        }
    }

    pub fn is_exact(&self) -> bool {
        matches!(self, Outcome::Exact(_))
    }
}

/// Result of a resilient selection run.
#[derive(Debug, Clone)]
pub struct ResilientResult<T> {
    /// The selected value and its accuracy tag.
    pub outcome: Outcome<T>,
    /// The backend that produced it.
    pub backend: Backend,
    /// Measurement report over *all* attempts (including discarded
    /// ones), with the resilience event log attached.
    pub report: SelectReport,
}

impl<T> From<Served<Outcome<T>>> for ResilientResult<T> {
    fn from(served: Served<Outcome<T>>) -> Self {
        ResilientResult {
            outcome: served.answer,
            backend: served.backend,
            report: served.report,
        }
    }
}

/// The seed of `attempt`: the base seed first, then one derived
/// deterministically per retry, so a retry draws a fresh splitter
/// sample without becoming run-to-run nondeterministic.
fn retry_seed(base: u64, backend: Backend, attempt: u32) -> u64 {
    if attempt == 0 {
        return base;
    }
    let salt = backend.salt();
    base ^ (0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(attempt as u64 + 1)
        .wrapping_add(salt))
}

fn backoff_and_count(
    device: &mut Device,
    policy: &RetryPolicy,
    attempt: u32,
    events: &mut ResilienceEvents,
    backend: Backend,
) {
    let backoff = jittered_backoff(policy, backend.salt(), attempt);
    events.retry(format!(
        "{} attempt {} re-seeded after {}",
        backend.name(),
        attempt + 2,
        backoff
    ));
    device.advance_time(backoff);
}

// ---------------------------------------------------------------------
// The attempt loop
// ---------------------------------------------------------------------

/// One attempt's answer with the report of the driver that produced it.
type Attempt<A> = Result<(A, SelectReport), SelectError>;

/// A certificate's verdict: what it proved, `None` when no certificate
/// applies (the answer is approximate by design).
type Certified = Result<Option<String>, SelectError>;

/// The selection configuration an attempt runs with.
type Cfg = SampleSelectConfig;

/// What differs between the kinds of query the attempt loop ([`drive`])
/// serves. Retries, reseeding, fault draining, backoff, fallback,
/// certification, the host last resort and the event log belong to the
/// loop.
pub(crate) trait Query {
    /// What one successful attempt produces.
    type Answer;

    /// Query-span label.
    const SPAN: &'static str = "resilient";

    /// Permanent input/config errors, checked before any attempt.
    fn validate(&self, _cfg: &Cfg) -> Result<(), SelectError> {
        Ok(())
    }

    /// The device backends to try, in order; the host answer follows.
    fn chain(&self) -> &'static [Backend] {
        &[Backend::SampleSelect]
    }

    /// Attempt-span, event and response label of a device backend.
    fn name(&self, backend: Backend) -> &'static str {
        backend.name()
    }

    /// Report label of an answer from a device backend.
    fn report_label(&self, backend: Backend) -> &'static str {
        backend.report_label()
    }

    /// The certify-first count, tried once before the chain: `Some`
    /// when it proves the answer, with what was proven.
    fn certify_first(&self, _: &mut Device, _: &Cfg) -> Option<(Self::Answer, String)> {
        None
    }

    /// Run one attempt on a device backend of the chain.
    fn attempt(
        &mut self,
        device: &mut Device,
        backend: Backend,
        cfg: &Cfg,
    ) -> Attempt<Self::Answer>;

    /// Certify a device answer against the untouched input: `Some`
    /// names what was proven; `None` means no certificate applies (the
    /// answer is approximate by design).
    fn certify(&self, _device: &mut Device, _answer: &Self::Answer, _cfg: &Cfg) -> Certified {
        Ok(None)
    }

    /// The host answer of last resort.
    fn last_resort(&self) -> Result<Self::Answer, SelectError>;

    /// The single-pass approximate answer once the time budget is
    /// spent. A kind without one goes straight to the last resort: a
    /// late exact answer still beats no answer.
    fn approximate(&self, _device: &mut Device, _cfg: &Cfg) -> Option<Attempt<Self::Answer>> {
        None
    }

    /// The input size, when the loop itself accounts the query in the
    /// metrics registry: it absorbs the device timeline and reports
    /// over every attempt. Kinds whose drivers account for themselves
    /// (`None`) leave the registry exactly as those drivers do and keep
    /// the answering driver's report.
    fn accounted_len(&self) -> Option<usize> {
        None
    }
}

/// What the attempt loop returns.
pub(crate) struct Served<A> {
    pub answer: A,
    /// The backend that produced the answer.
    pub backend: Backend,
    /// Its label under the query kind (`cpu-sort` for the last resort).
    pub label: &'static str,
    /// Measurement report, with the event log of every attempt.
    pub report: SelectReport,
}

impl<A> Served<A> {
    pub fn map<B>(self, f: impl FnOnce(A) -> B) -> Served<B> {
        Served {
            answer: f(self.answer),
            backend: self.backend,
            label: self.label,
            report: self.report,
        }
    }
}

/// Bookkeeping of one loop run, consumed when the answer is reported.
struct Run {
    records_before: usize,
    outer_depth: usize,
    events: ResilienceEvents,
}

impl Run {
    fn finish<Q: Query>(
        mut self,
        device: &mut Device,
        query: &Q,
        backend: Backend,
        report_label: &'static str,
        answer: Q::Answer,
        inner: Option<SelectReport>,
    ) -> Served<Q::Answer> {
        // Keep the retries an inner driver already recorded (the
        // streaming driver's chunk reloads).
        if let Some(r) = &inner {
            self.events.merge(&r.resilience);
        }
        let n = query.accounted_len();
        if n.is_some() {
            obs::absorb_device(device);
            obs::pool_sample(device);
        }
        obs::span_close_to(self.outer_depth, device.now().as_ns());
        let report = match (n, inner) {
            (Some(n), inner) => {
                let (levels, early) = inner.map_or((0, false), |r| (r.levels, r.terminated_early));
                let records = &device.records()[self.records_before..];
                SelectReport::from_records(report_label, n, records, levels, early)
            }
            (None, Some(inner)) => inner,
            (None, None) => SelectReport::empty(report_label),
        };
        let label = match backend {
            Backend::CpuSort => backend.name(),
            _ => query.name(backend),
        };
        Served {
            answer,
            backend,
            label,
            report: report.with_resilience(self.events),
        }
    }

    /// The host answer of last resort, reported as the CPU sort. Under
    /// `certify` it gets a device answer's certificate unless that faults.
    fn host_answer<Q: Query>(
        mut self,
        device: &mut Device,
        query: &Q,
        certify: Option<&Cfg>,
    ) -> Result<Served<Q::Answer>, SelectError> {
        let depth = obs::span_depth();
        let name = Backend::CpuSort.name();
        obs::span_enter(SpanKind::Attempt, name, 0, device.now().as_ns());
        let answer = query.last_resort();
        obs::span_close_to(depth, device.now().as_ns());
        if let (Ok(answer), Some(cfg)) = (&answer, certify) {
            match (query.certify(device, answer, cfg), device.take_fault()) {
                (_, Some(f)) => self.events.fault(f.to_string()),
                (Ok(Some(what)), None) => self.events.certify(what + " certified on " + name),
                _ => {}
            }
        }
        let label = Backend::CpuSort.report_label();
        Ok(self.finish(device, query, Backend::CpuSort, label, answer?, None))
    }
}

/// The one attempt loop: every device backend of the query's chain in
/// turn, each tried on the base seed and then on salted re-seeds; then
/// the host answer of last resort. See the module docs for the policy.
pub(crate) fn drive<Q: Query>(
    device: &mut Device,
    mut query: Q,
    cfg: &Cfg,
    rcfg: &ResilienceConfig,
) -> Result<Served<Q::Answer>, SelectError> {
    query.validate(cfg)?;
    let mut run = Run {
        records_before: device.records().len(),
        outer_depth: obs::span_depth(),
        events: ResilienceEvents::default(),
    };
    obs::span_enter(SpanKind::Query, Q::SPAN, 0, device.now().as_ns());
    // Don't let a fault latched by earlier, unrelated work on this
    // device masquerade as ours.
    device.take_fault();

    let deadline = rcfg.time_budget.map(|b| device.now() + b);
    let expired = |device: &Device| deadline.is_some_and(|dl| device.now() >= dl);

    // A certify-first answer needs no second certificate: its count is one.
    let proven = (!expired(device)).then(|| query.certify_first(device, cfg));
    match (device.take_fault(), proven.flatten()) {
        (Some(f), _) => run.events.fault(f.to_string()),
        (None, Some((answer, what))) => {
            run.events.certify(format!("{what} by {CERTIFY_FIRST}"));
            let label = Backend::CertifyFirst.report_label();
            return Ok(run.finish(device, &query, Backend::CertifyFirst, label, answer, None));
        }
        (None, None) => {}
    }

    for &backend in query.chain() {
        let name = query.name(backend);
        let mut attempt = 0u32;
        loop {
            if expired(device) {
                return degrade(device, &query, cfg, run);
            }
            let seed = retry_seed(cfg.seed, backend, attempt);
            let attempt_cfg = cfg.clone().with_seed(seed);

            let attempt_depth = obs::span_depth();
            let now = device.now().as_ns();
            obs::span_enter(SpanKind::Attempt, name, attempt as u64, now);
            let result = query.attempt(device, backend, &attempt_cfg);
            // Drain the latch unconditionally: a fault invalidates even a
            // seemingly successful attempt (its kernels ran incomplete).
            let fault = device.take_fault();
            if let Some(f) = &fault {
                run.events.fault(f.to_string());
            }
            // Close the attempt span, unwinding any spans a failed
            // inner driver left open.
            obs::span_close_to(attempt_depth, device.now().as_ns());

            let error = match (result, fault) {
                (Ok((answer, report)), None) => {
                    // Before accepting the answer, a paranoid policy
                    // demands an independent certificate (one counting
                    // pass over the untouched input) — the only check
                    // that catches a *self-consistent* corruption of the
                    // intermediate buffers. A count that faults proves
                    // nothing: the attempt is retried like a faulted one.
                    let paranoid = cfg.verify.certify();
                    let certificate = paranoid.then(|| query.certify(device, &answer, cfg));
                    match (certificate.unwrap_or(Ok(None)), device.take_fault()) {
                        (Ok(proven), None) => {
                            if let Some(what) = proven {
                                run.events.certify(format!("{what} certified on {name}"));
                            }
                            let label = query.report_label(backend);
                            let report = Some(report);
                            return Ok(run.finish(device, &query, backend, label, answer, report));
                        }
                        (Err(e), None) => Some(e),
                        (_, Some(f)) => {
                            run.events.fault(f.to_string());
                            None
                        }
                    }
                }
                (Err(SelectError::RecursionLimit), _) => {
                    run.events.fallback(format!(
                        "{name}: recursion failed to converge (degenerate splitters?)"
                    ));
                    break; // next backend
                }
                // A latched device fault is transient whatever the
                // attempt returned; it is already logged.
                (_, Some(_)) => None,
                (Err(e), None) => Some(e),
            };
            match error {
                Some(SelectError::Corruption { invariant, detail }) => {
                    run.events.corruption(format!("{invariant}: {detail}"));
                }
                Some(e) if !e.is_transient() => return Err(e), // bad input/config
                _ => {}
            }
            if attempt >= rcfg.retry.max_retries {
                let reason = format!("{name}: retries exhausted under persistent faults");
                run.events.fallback(reason);
                break;
            }
            backoff_and_count(device, &rcfg.retry, attempt, &mut run.events, backend);
            attempt += 1;
        }
    }
    let certify = cfg.verify.certify().then_some(cfg);
    run.host_answer(device, &query, certify)
}

/// Time budget exhausted: return the single-pass approximate answer,
/// tagged with its accuracy. If there is none or it faults, fall
/// through to the (budget-ignoring) host answer.
fn degrade<Q: Query>(
    device: &mut Device,
    query: &Q,
    cfg: &Cfg,
    mut run: Run,
) -> Result<Served<Q::Answer>, SelectError> {
    obs::span_close_to(run.outer_depth, device.now().as_ns());
    let reason = "time budget exceeded before an exact attempt could start";
    run.events.degrade(reason);
    let approx = query.approximate(device, cfg);
    let fault = device.take_fault();
    if let Some(f) = &fault {
        run.events.fault(f.to_string());
    }
    match (approx, fault) {
        (Some(Ok((answer, report))), None) => {
            let (backend, label) = (Backend::SampleSelect, "resilient-approx");
            Ok(run.finish(device, query, backend, label, answer, Some(report)))
        }
        _ => {
            let reason = "approximate pass faulted; CPU sort as last resort";
            run.events.fallback(reason);
            run.host_answer(device, query, None)
        }
    }
}

// ---------------------------------------------------------------------
// Query kinds
// ---------------------------------------------------------------------

/// The single-pass approximation of `rank`, tagged with its accuracy.
fn approx_outcome<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &Cfg,
) -> Attempt<Outcome<T>> {
    let a = approx_select_on_device(device, data, rank, cfg)?;
    let outcome = Outcome::Approximate {
        value: a.value,
        achieved_rank: a.achieved_rank,
        rank_error: a.rank_error,
    };
    Ok((outcome, a.report))
}

fn exact_select<T: SelectElement>(data: &[T], rank: usize) -> T {
    reference_select(data, rank).expect("validated input always has a rank-th element")
}

/// The exact `rank`-th smallest element, with the planner's plan (if
/// any): its candidates counted first, its pick heading the chain. Its
/// device attempts reuse `ws`.
pub(crate) struct RankQuery<'a, T> {
    pub data: &'a [T],
    pub rank: usize,
    pub planned: Option<RankPlan>,
    pub ws: &'a mut SelectWorkspace<T>,
}

impl<'a, T> RankQuery<'a, T> {
    pub fn new(
        data: &'a [T],
        rank: usize,
        planned: Option<RankPlan>,
        ws: &'a mut SelectWorkspace<T>,
    ) -> Self {
        RankQuery {
            data,
            rank,
            planned,
            ws,
        }
    }
}

impl<T: SelectElement> Query for RankQuery<'_, T> {
    type Answer = Outcome<T>;

    fn validate(&self, cfg: &Cfg) -> Result<(), SelectError> {
        cfg.validate().map_err(SelectError::InvalidConfig)?;
        validate_input(self.data, self.rank, cfg)
    }

    fn chain(&self) -> &'static [Backend] {
        use Backend::{RadixSelect, SampleSelect};
        match self.planned.map(|p| p.backend) {
            Some(PlannedBackend::Radix) => &[RadixSelect, SampleSelect],
            _ => &[SampleSelect],
        }
    }

    fn certify_first(&self, device: &mut Device, cfg: &Cfg) -> Option<(Outcome<T>, String)> {
        let candidates = &self.planned?.candidates;
        let value = certify_first(device, self.data, self.rank, candidates, cfg)?;
        Some((Outcome::Exact(value), format!("rank {}", self.rank)))
    }

    fn attempt(&mut self, device: &mut Device, backend: Backend, cfg: &Cfg) -> Attempt<Outcome<T>> {
        let bucketing = match backend {
            Backend::SampleSelect => Bucketing::Splitters,
            Backend::RadixSelect => Bucketing::Digits,
            _ => unreachable!("the certify-first count and the host sort bracket the chain"),
        };
        select_with_workspace(device, self.data, self.rank, cfg, self.ws, bucketing)
            .map(|r| (Outcome::Exact(r.value), r.report))
    }

    fn certify(&self, device: &mut Device, answer: &Outcome<T>, cfg: &Cfg) -> Certified {
        let (value, rank) = (answer.value(), self.rank);
        certify_rank(device, self.data, value, rank, cfg, LaunchOrigin::Host)?;
        Ok(Some(format!("rank {rank}")))
    }

    fn last_resort(&self) -> Result<Outcome<T>, SelectError> {
        Ok(Outcome::Exact(exact_select(self.data, self.rank)))
    }

    fn approximate(&self, device: &mut Device, cfg: &Cfg) -> Option<Attempt<Outcome<T>>> {
        Some(approx_outcome(device, self.data, self.rank, cfg))
    }

    fn accounted_len(&self) -> Option<usize> {
        Some(self.data.len())
    }
}

/// An exact rank over a chunked source: the streaming driver, with the
/// materialized source for the certificate and the last resort.
struct StreamQuery<'a, T, S> {
    source: &'a S,
    rank: usize,
    elem: PhantomData<T>,
}

impl<T: SelectElement, S: ChunkSource<T>> StreamQuery<'_, T, S> {
    /// The same query over the materialized source.
    fn in_memory<R>(
        &self,
        f: impl FnOnce(RankQuery<'_, T>) -> Result<R, SelectError>,
    ) -> Result<R, SelectError> {
        let (data, ws) = (materialize(self.source)?, &mut SelectWorkspace::new());
        f(RankQuery::new(&data, self.rank, None, ws))
    }
}

impl<T: SelectElement, S: ChunkSource<T>> Query for StreamQuery<'_, T, S> {
    type Answer = Outcome<T>;
    const SPAN: &'static str = "resilient-streaming";

    fn validate(&self, cfg: &Cfg) -> Result<(), SelectError> {
        cfg.validate().map_err(SelectError::InvalidConfig)?;
        let (rank, len) = (self.rank, self.source.total_len());
        match len {
            0 => Err(SelectError::EmptyInput),
            _ if rank >= len => Err(SelectError::RankOutOfRange { rank, len }),
            _ => Ok(()),
        }
    }

    fn name(&self, _: Backend) -> &'static str {
        "streaming"
    }

    fn report_label(&self, _: Backend) -> &'static str {
        Self::SPAN
    }

    fn attempt(&mut self, device: &mut Device, _: Backend, cfg: &Cfg) -> Attempt<Outcome<T>> {
        streaming_select(device, self.source, self.rank, cfg)
            .map(|r| (Outcome::Exact(r.value), r.report))
    }

    fn certify(&self, device: &mut Device, answer: &Outcome<T>, cfg: &Cfg) -> Certified {
        // The input is out-of-core, so the certificate is the one pass
        // that touches all of it again.
        self.in_memory(|q| q.certify(device, answer, cfg))
    }

    fn last_resort(&self) -> Result<Outcome<T>, SelectError> {
        self.in_memory(|q| q.last_resort())
    }

    fn approximate(&self, device: &mut Device, cfg: &Cfg) -> Option<Attempt<Outcome<T>>> {
        Some(self.in_memory(|q| approx_outcome(device, q.data, q.rank, cfg)))
    }

    fn accounted_len(&self) -> Option<usize> {
        Some(self.source.total_len())
    }
}

/// A client-requested approximation of `rank`: one sample level, with
/// the exact host answer (a zero-error approximation) as last resort.
pub(crate) struct ApproxQuery<'a, T> {
    pub data: &'a [T],
    pub rank: usize,
}

impl<T: SelectElement> Query for ApproxQuery<'_, T> {
    type Answer = Outcome<T>;

    fn name(&self, _: Backend) -> &'static str {
        "approx"
    }

    fn attempt(&mut self, device: &mut Device, _: Backend, cfg: &Cfg) -> Attempt<Outcome<T>> {
        approx_outcome(device, self.data, self.rank, cfg)
    }

    fn last_resort(&self) -> Result<Outcome<T>, SelectError> {
        Ok(Outcome::Approximate {
            value: exact_select(self.data, self.rank),
            achieved_rank: self.rank as u64,
            rank_error: 0,
        })
    }
}

/// The elements at several ranks, in one multiselect pass.
pub(crate) struct RanksQuery<'a, T: SelectElement> {
    pub data: &'a [T],
    pub ranks: &'a [usize],
    pub ws: &'a mut SelectWorkspace<T>,
}

impl<T: SelectElement> Query for RanksQuery<'_, T> {
    type Answer = Vec<T>;

    fn name(&self, _: Backend) -> &'static str {
        "multiselect"
    }

    fn attempt(&mut self, device: &mut Device, _: Backend, cfg: &Cfg) -> Attempt<Vec<T>> {
        ranks_with_workspace(device, self.data, self.ranks, cfg, self.ws)
            .map(|r| (r.values, r.report))
    }

    fn certify(&self, device: &mut Device, values: &Vec<T>, cfg: &Cfg) -> Certified {
        let (data, ranks) = (self.data, self.ranks);
        certify_ranks(device, data, values, ranks, cfg, LaunchOrigin::Host)?;
        Ok(Some(format!("{} ranks", ranks.len())))
    }

    fn last_resort(&self) -> Result<Vec<T>, SelectError> {
        let mut sorted = self.data.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(*b));
        Ok(self.ranks.iter().map(|&r| sorted[r]).collect())
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Exact selection with retry, fallback, and degradation. See the
/// module docs for the policy; `cfg` seeds the first attempt and `rcfg`
/// controls the resilience behaviour.
pub fn resilient_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    rcfg: &ResilienceConfig,
) -> Result<ResilientResult<T>, SelectError> {
    let ws = &mut SelectWorkspace::new();
    drive(device, RankQuery::new(data, rank, None, ws), cfg, rcfg).map(Into::into)
}

/// [`resilient_select_on_device`] under a [`crate::planner`] plan: its
/// certify-first candidates are counted first, and its pick heads the
/// chain, with the retry budget and the certificate; if it fails to
/// converge or faults persistently, the default chain takes over, so a
/// bad plan costs time but never an answer.
pub fn resilient_select_planned<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    rcfg: &ResilienceConfig,
    planned: RankPlan,
) -> Result<ResilientResult<T>, SelectError> {
    let ws = &mut SelectWorkspace::new();
    let query = RankQuery::new(data, rank, Some(planned), ws);
    drive(device, query, cfg, rcfg).map(Into::into)
}

/// [`resilient_select_on_device`] on a default simulated device (Tesla
/// V100 on the process-global thread pool).
pub fn resilient_select<T: SelectElement>(
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    rcfg: &ResilienceConfig,
) -> Result<ResilientResult<T>, SelectError> {
    let mut device = Device::on_global_pool(v100());
    resilient_select_on_device(&mut device, data, rank, cfg, rcfg)
}

/// Resilient out-of-core selection: [`streaming_select`] already retries
/// individual chunk loads; this wrapper additionally retries whole runs
/// on device faults, falls back to a host-side sort of the materialized
/// chunks, and degrades to the approximate variant under a time budget.
pub fn resilient_streaming_select<T: SelectElement, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    rank: usize,
    cfg: &SampleSelectConfig,
    rcfg: &ResilienceConfig,
) -> Result<ResilientResult<T>, SelectError> {
    let elem = PhantomData;
    drive(device, StreamQuery { source, rank, elem }, cfg, rcfg).map(Into::into)
}

/// Load every chunk into host memory for the CPU fallback, retrying
/// transient failures a bounded number of times per chunk.
fn materialize<T: SelectElement, S: ChunkSource<T>>(source: &S) -> Result<Vec<T>, SelectError> {
    let mut data = Vec::with_capacity(source.total_len());
    for c in 0..source.num_chunks() {
        let mut tries = 0u32;
        let chunk = loop {
            match source.load_chunk(c) {
                Ok(chunk) => break chunk,
                Err(err) if err.transient && tries < crate::streaming::CHUNK_MAX_RETRIES => {
                    tries += 1;
                }
                Err(err) => return Err(SelectError::ChunkLoad(err)),
            }
        };
        data.extend(chunk);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use gpu_sim::FaultPlan;
    use hpc_par::ThreadPool;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn run_with_plan(
        data: &[f32],
        rank: usize,
        plan: Option<FaultPlan>,
        rcfg: &ResilienceConfig,
    ) -> ResilientResult<f32> {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        if let Some(plan) = plan {
            device.set_fault_plan(plan);
        }
        resilient_select_on_device(
            &mut device,
            data,
            rank,
            &SampleSelectConfig::default(),
            rcfg,
        )
        .unwrap()
    }

    #[test]
    fn fault_free_run_is_clean_and_exact() {
        let data = uniform(100_000, 1);
        let res = run_with_plan(&data, 50_000, None, &ResilienceConfig::default());
        assert_eq!(
            res.outcome,
            Outcome::Exact(reference_select(&data, 50_000).unwrap())
        );
        assert_eq!(res.backend, Backend::SampleSelect);
        assert!(res.report.resilience.is_clean());
        assert_eq!(res.report.algorithm, "resilient-sampleselect");
    }

    #[test]
    fn injected_launch_failure_is_retried_to_exact() {
        let data = uniform(100_000, 2);
        let plan = FaultPlan::new(42).fail_launches_at(&[1]);
        let res = run_with_plan(&data, 50_000, Some(plan), &ResilienceConfig::default());
        assert_eq!(
            res.outcome,
            Outcome::Exact(reference_select(&data, 50_000).unwrap())
        );
        assert_eq!(res.report.resilience.faults_observed, 1);
        assert_eq!(res.report.resilience.retries, 1);
        assert_eq!(res.report.resilience.fallbacks, 0);
    }

    #[test]
    fn a_failed_level_launch_of_a_multi_rank_query_is_retried_to_exact() {
        use crate::multiselect::quantile_ranks;
        use gpu_sim::FaultKind;

        // 2^19 elements and q = 8: depth 1 holds 7 segments of ~2k
        // elements, whose filters are one merged launch.
        let data = uniform(1 << 19, 6);
        let ranks = quantile_ranks(data.len(), 8).unwrap();
        let (cfg, rcfg) = (SampleSelectConfig::default(), ResilienceConfig::default());
        let pool = ThreadPool::new(2);
        let run = |plan: Option<FaultPlan>| {
            let mut device = Device::new(v100(), &pool);
            if let Some(plan) = plan {
                device.set_fault_plan(plan);
            }
            let ws = &mut SelectWorkspace::new();
            let query = RanksQuery {
                data: &data,
                ranks: &ranks,
                ws,
            };
            let served = drive(&mut device, query, &cfg, &rcfg).unwrap();
            (served, device)
        };
        let (clean, device) = run(None);
        let filters: Vec<usize> = (device.records().iter().enumerate())
            .filter(|(_, r)| r.name == "filter")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(filters.len(), 2, "one filter launch per level");
        let at = filters[1] as u64;

        let (served, device) = run(Some(FaultPlan::new(23).fail_launches_at(&[at])));
        let failed: Vec<_> = (device.records().iter())
            .filter(|r| r.fault == Some(FaultKind::LaunchFailure))
            .map(|r| r.name.as_ref())
            .collect();
        assert_eq!(failed, ["filter"], "the level's one launch fails once");
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let want: Vec<f32> = ranks.iter().map(|&r| sorted[r]).collect();
        assert_eq!(served.answer, want);
        assert_eq!(served.answer, clean.answer);
        assert_eq!(served.backend, Backend::SampleSelect);
        let events = &served.report.resilience;
        assert_eq!((events.faults_observed, events.retries), (1, 1));
        assert_eq!(events.fallbacks, 0);
    }

    #[test]
    fn persistent_faults_fall_back_to_cpu() {
        let data = uniform(50_000, 3);
        // Every launch fails: no device backend can ever finish.
        let plan = FaultPlan::new(7).launch_failures(1.0);
        let rcfg = ResilienceConfig::default().with_max_retries(1);
        let res = run_with_plan(&data, 25_000, Some(plan), &rcfg);
        assert_eq!(
            res.outcome,
            Outcome::Exact(reference_select(&data, 25_000).unwrap())
        );
        assert_eq!(res.backend, Backend::CpuSort);
        // one device backend × (1 retry + 1 fallback)
        assert_eq!(res.report.resilience.retries, 1);
        assert_eq!(res.report.resilience.fallbacks, 1);
    }

    #[test]
    fn zero_time_budget_degrades_to_approximate() {
        let data = uniform(100_000, 4);
        let rcfg = ResilienceConfig::default().with_time_budget(SimTime::ZERO);
        let res = run_with_plan(&data, 50_000, None, &rcfg);
        match res.outcome {
            Outcome::Approximate {
                value,
                achieved_rank,
                rank_error,
            } => {
                // the tag must be honest: achieved_rank is the value's
                // true rank, rank_error its distance to the target
                let true_rank = data.iter().filter(|&&x| x < value).count() as u64;
                assert_eq!(achieved_rank, true_rank);
                assert_eq!(rank_error, true_rank.abs_diff(50_000));
            }
            Outcome::Exact(_) => panic!("expected approximate degradation"),
        }
        assert_eq!(res.report.resilience.degradations, 1);
        assert_eq!(res.report.algorithm, "resilient-approx");
        assert!(!res.outcome.is_exact());
    }

    #[test]
    fn same_fault_seed_gives_identical_event_log() {
        let data = uniform(80_000, 5);
        let mk = || {
            let plan = FaultPlan::new(99)
                .launch_failures(0.3)
                .max_launch_failures(4);
            run_with_plan(&data, 40_000, Some(plan), &ResilienceConfig::default())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report.resilience, b.report.resilience);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.backend, b.backend);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let err = resilient_select_on_device::<f32>(
            &mut device,
            &[],
            0,
            &SampleSelectConfig::default(),
            &ResilienceConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SelectError::EmptyInput);

        let data = uniform(1000, 6);
        let err = resilient_select_on_device(
            &mut device,
            &data,
            5000,
            &SampleSelectConfig::default(),
            &ResilienceConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SelectError::RankOutOfRange { .. }));
    }

    #[test]
    fn tight_guards_trigger_fallback_chain() {
        let data = uniform(100_000, 7);
        // A zero-level cap makes the device recursion give up at once.
        let cfg = SampleSelectConfig::default().with_max_levels(0);
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let rcfg = ResilienceConfig::default();
        let res = resilient_select_on_device(&mut device, &data, 50_000, &cfg, &rcfg).unwrap();
        assert_eq!(
            res.outcome,
            Outcome::Exact(reference_select(&data, 50_000).unwrap())
        );
        assert_eq!(res.backend, Backend::CpuSort);
        assert_eq!(res.report.resilience.fallbacks, 1);
        assert_eq!(res.report.resilience.retries, 0);
    }

    #[test]
    fn certify_first_answers_once_and_hands_a_faulted_count_to_the_chain() {
        use crate::obs::ObsSession;
        use crate::planner::plan_rank_query;
        use crate::verify::VerifyPolicy;

        let data: Vec<f32> = (0..100_000).map(|i| (i % 16) as f32).collect();
        let cfg = SampleSelectConfig::default().with_verify(VerifyPolicy::Paranoid);
        let plan = plan_rank_query(&v100(), &data, 50_000, &cfg).plan();
        let want = Outcome::Exact(reference_select(&data, 50_000).unwrap());
        let pool = ThreadPool::new(2);
        // The result, the launched kernels, and the registry's
        // (queries, certified) counters.
        let run = |fault: Option<FaultPlan>, plan: Option<RankPlan>| {
            let mut device = Device::new(v100(), &pool);
            if let Some(fault) = fault {
                device.set_fault_plan(fault);
            }
            let rcfg = ResilienceConfig::default();
            let session = ObsSession::start();
            let res = match plan {
                Some(plan) => {
                    resilient_select_planned(&mut device, &data, 50_000, &cfg, &rcfg, plan)
                }
                None => resilient_select_on_device(&mut device, &data, 50_000, &cfg, &rcfg),
            };
            let snap = session.finish().snapshot;
            let names: Vec<String> = device
                .records()
                .iter()
                .map(|r| r.name.to_string())
                .collect();
            let counters = (
                snap.counter("select_queries_total"),
                snap.counter("select_certified_total"),
            );
            (res.unwrap(), names, counters)
        };

        // Paranoid does not count a second time: one `certify` launch,
        // one query and one certificate in the registry.
        let (res, names, counters) = run(None, Some(plan));
        assert_eq!(res.outcome, want);
        assert_eq!(res.backend, Backend::CertifyFirst);
        assert_eq!(res.report.algorithm, "resilient-certify-first");
        assert_eq!(names, ["certify"]);
        assert_eq!(res.report.resilience.certified, 1);
        assert_eq!(counters, (1, 1));

        // A failed count proves nothing and is not counted as certified;
        // the chain answers and is certified as usual, and the registry
        // agrees with the report and with a run that had no count.
        let (res, names, counters) =
            run(Some(FaultPlan::new(3).fail_launches_at(&[0])), Some(plan));
        assert_eq!(res.outcome, want);
        assert_eq!(res.backend, Backend::SampleSelect);
        assert_eq!(res.report.resilience.faults_observed, 1);
        assert_eq!(res.report.resilience.retries, 0);
        assert_eq!(res.report.resilience.certified, 1);
        assert_eq!(names.iter().filter(|n| *n == "certify").count(), 2);
        let (_, _, chain_only) = run(None, None);
        assert_eq!(counters, chain_only);
        assert_eq!(counters.1, 1);
    }

    #[test]
    fn a_certificate_whose_count_faults_is_retried_not_counted() {
        use crate::verify::VerifyPolicy;
        let data = uniform(1 << 17, 12);
        let cfg = SampleSelectConfig::default().with_verify(VerifyPolicy::Paranoid);
        let pool = ThreadPool::new(1);
        let run = |fault: Option<FaultPlan>| {
            let mut device = Device::new(v100(), &pool);
            if let Some(fault) = fault {
                device.set_fault_plan(fault);
            }
            let rcfg = ResilienceConfig::default();
            let res = resilient_select_on_device(&mut device, &data, 60_000, &cfg, &rcfg);
            (res.unwrap(), device.records().len(), device.take_fault())
        };
        let (clean, launches, _) = run(None);
        assert_eq!(clean.report.resilience.certified, 1);

        // Fail the last launch of the clean run: the certificate's count.
        let plan = FaultPlan::new(1).fail_launches_at(&[launches as u64 - 1]);
        let (res, _, latched) = run(Some(plan));
        assert_eq!(res.outcome, clean.outcome);
        assert_eq!(res.backend, Backend::SampleSelect);
        let events = &res.report.resilience;
        assert_eq!((events.faults_observed, events.retries), (1, 1));
        assert_eq!(events.certified, 1, "only the retry's certificate counts");
        assert!(latched.is_none(), "the loop drained the count's fault");
    }

    #[test]
    fn resilient_streaming_retries_device_faults() {
        use crate::streaming::SliceChunks;
        let data = uniform(1 << 17, 8);
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        device.set_fault_plan(FaultPlan::new(11).fail_launches_at(&[2]));
        let source = SliceChunks::new(&data, 1 << 15);
        let res = resilient_streaming_select(
            &mut device,
            &source,
            1 << 16,
            &SampleSelectConfig::default(),
            &ResilienceConfig::default(),
        )
        .unwrap();
        assert_eq!(
            res.outcome,
            Outcome::Exact(reference_select(&data, 1 << 16).unwrap())
        );
        assert_eq!(res.report.resilience.faults_observed, 1);
        assert!(res.report.resilience.retries >= 1);
        assert_eq!(res.report.algorithm, "resilient-streaming");
    }

    #[test]
    fn outcome_value_accessor() {
        assert_eq!(Outcome::Exact(3.5f32).value(), 3.5);
        let approx = Outcome::Approximate {
            value: 1.25f32,
            achieved_rank: 10,
            rank_error: 2,
        };
        assert_eq!(approx.value(), 1.25);
        assert!(!approx.is_exact());
    }

    #[test]
    fn backoff_jitter_desynchronizes_equal_policies() {
        // Two shards sharing one RetryPolicy must not retry in lockstep:
        // with distinct salts, at least one attempt in the chain gets a
        // different delay (the thundering-herd regression).
        let policy = RetryPolicy::default();
        let chain_a: Vec<f64> = (0..4)
            .map(|a| jittered_backoff(&policy, 0, a).as_ns())
            .collect();
        let chain_b: Vec<f64> = (0..4)
            .map(|a| jittered_backoff(&policy, 1, a).as_ns())
            .collect();
        assert_ne!(chain_a, chain_b, "same-policy shards retried in lockstep");
    }

    #[test]
    fn backoff_jitter_is_reproducible_and_bounded() {
        let policy = RetryPolicy::default();
        for salt in 0..8u64 {
            for attempt in 0..6u32 {
                let a = jittered_backoff(&policy, salt, attempt);
                let b = jittered_backoff(&policy, salt, attempt);
                assert_eq!(
                    a, b,
                    "jitter must be a pure function of (seed, salt, attempt)"
                );
                assert!(a <= policy.max_backoff);
                assert!(a >= policy.backoff * 0.5);
            }
        }
        // A different policy seed moves the whole schedule.
        let reseeded = RetryPolicy::default().with_jitter_seed(42);
        assert_ne!(
            jittered_backoff(&policy, 0, 0),
            jittered_backoff(&reseeded, 0, 0)
        );
    }
}
