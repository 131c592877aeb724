//! Integration tests for the structured observability layer.
//!
//! Pins the PR's acceptance criteria: with observability enabled, the
//! same seed yields a bit-identical metrics snapshot across runs (all
//! timestamps come from simulated time); with it disabled, simulated
//! results are unchanged; the span tree reflects the real execution
//! hierarchy (streaming chunks, resilient attempts); and the exported
//! metric names match the checked-in schema.

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::jsonv;
use gpu_selection::gpu_sim::{chrome_trace_with_counters, Device, FaultPlan};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::streaming::{streaming_select, ChunkSource, SliceChunks};
use gpu_selection::sampleselect::{
    resilient_select_on_device, sample_select_on_device, sample_sort_on_device, MetricsSnapshot,
    ObsSession, QuerySpan, ResilienceConfig, SampleSelectConfig, SpanKind,
};

fn uniform(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() as f32).collect()
}

fn run_observed(data: &[f32], rank: usize, cfg: &SampleSelectConfig) -> (f32, String) {
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    let session = ObsSession::start();
    let r = sample_select_on_device(&mut device, data, rank, cfg).unwrap();
    let report = session.finish();
    (r.value, report.snapshot.to_json())
}

#[test]
fn same_seed_metrics_snapshot_is_bit_identical() {
    let data = uniform(200_000, 0x0b5e);
    let cfg = SampleSelectConfig::default();
    let (v1, j1) = run_observed(&data, 100_000, &cfg);
    let (v2, j2) = run_observed(&data, 100_000, &cfg);
    assert_eq!(v1, v2);
    assert_eq!(j1, j2, "metrics snapshot must be deterministic");
    // And it must parse as strict JSON.
    jsonv::parse(&j1).expect("snapshot JSON is well-formed");
}

#[test]
fn observability_does_not_perturb_simulated_results() {
    let data = uniform(150_000, 0xde7e);
    let rank = 75_000;
    let cfg = SampleSelectConfig::default();

    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    let plain = sample_select_on_device(&mut device, &data, rank, &cfg).unwrap();

    let mut device = Device::new(v100(), &pool);
    let session = ObsSession::start();
    let observed = sample_select_on_device(&mut device, &data, rank, &cfg).unwrap();
    drop(session);

    assert_eq!(plain.value, observed.value);
    assert_eq!(
        plain.report.total_time, observed.report.total_time,
        "observability must add zero simulated time"
    );
    assert_eq!(plain.report.levels, observed.report.levels);
    assert_eq!(
        plain.report.total_launches(),
        observed.report.total_launches()
    );
}

fn collect<'a>(spans: &'a [QuerySpan], kind: SpanKind, out: &mut Vec<&'a QuerySpan>) {
    for s in spans {
        if s.kind == kind {
            out.push(s);
        }
        collect(&s.children, kind, out);
    }
}

/// Spans are well-formed: ends never precede starts, children nest
/// within their parent window.
fn check_nesting(s: &QuerySpan) {
    assert!(s.end_ns >= s.start_ns, "span {} inverted", s.name);
    for c in &s.children {
        assert!(c.start_ns >= s.start_ns - 1e-6);
        assert!(c.end_ns <= s.end_ns + 1e-6);
        check_nesting(c);
    }
}

#[test]
fn span_tree_covers_streaming_chunks() {
    let data = uniform(100_000, 0x57e4);
    let cfg = SampleSelectConfig::default();
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);

    let session = ObsSession::start();
    let source = SliceChunks::new(&data, 1 << 14);
    let r = streaming_select(&mut device, &source, 50_000, &cfg).unwrap();
    let report = session.finish();

    assert_eq!(
        r.value,
        gpu_selection::sampleselect::element::reference_select(&data, 50_000).unwrap()
    );
    let mut queries = Vec::new();
    collect(&report.spans, SpanKind::Query, &mut queries);
    assert!(
        queries.iter().any(|q| q.name == "streaming-sampleselect"),
        "streaming query span present"
    );
    let mut chunks = Vec::new();
    collect(&report.spans, SpanKind::Chunk, &mut chunks);
    assert!(
        chunks.len() >= source.num_chunks(),
        "every chunk appears at least once across passes (got {})",
        chunks.len()
    );
    for s in &report.spans {
        check_nesting(s);
    }
    // Metrics agree with the span tree.
    assert!(report.snapshot.counter("select_streaming_chunks_total") > 0);
}

#[test]
fn span_tree_covers_sample_sort() {
    let data = uniform(100_000, 0x5027);
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);

    let session = ObsSession::start();
    let res = sample_sort_on_device(&mut device, &data, &SampleSelectConfig::default()).unwrap();
    let report = session.finish();

    assert!(res.sorted.windows(2).all(|w| w[0] <= w[1]));
    let mut queries = Vec::new();
    collect(&report.spans, SpanKind::Query, &mut queries);
    let sorts: Vec<_> = queries.iter().filter(|q| q.name == "samplesort").collect();
    assert_eq!(sorts.len(), 1, "one samplesort query span");
    let mut levels = Vec::new();
    collect(&sorts[0].children, SpanKind::Level, &mut levels);
    assert!(!levels.is_empty(), "level spans present");
    let mut kernels = Vec::new();
    collect(&sorts[0].children, SpanKind::Kernel, &mut kernels);
    for name in ["sample", "count", "reduce", "filter", "base_sort"] {
        assert!(
            kernels.iter().any(|k| k.name == name),
            "kernel span {name} present"
        );
    }
    for s in &report.spans {
        check_nesting(s);
    }
}

#[test]
fn span_tree_records_resilient_attempts() {
    let data = uniform(120_000, 0xfa17);
    let cfg = SampleSelectConfig::default();
    let rcfg = ResilienceConfig::default();
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    device.set_fault_plan(
        FaultPlan::new(11)
            .launch_failures(0.25)
            .max_launch_failures(4),
    );

    let session = ObsSession::start();
    let r = resilient_select_on_device(&mut device, &data, 60_000, &cfg, &rcfg).unwrap();
    let report = session.finish();

    let mut attempts = Vec::new();
    collect(&report.spans, SpanKind::Attempt, &mut attempts);
    assert!(!attempts.is_empty(), "attempt spans recorded");
    let retries = report.snapshot.counter("select_retries_total");
    assert_eq!(
        attempts.len() as u64,
        retries + 1,
        "one attempt span per try (retries {retries})"
    );
    assert!(r.report.resilience.retries > 0, "faults actually fired");

    // The faulted run's trace (with counter tracks) passes the strict
    // JSON validator.
    let json = chrome_trace_with_counters(&device, &report.tracks);
    jsonv::parse(&json).expect("faulted trace with counter tracks is valid JSON");
}

#[test]
fn metric_names_match_checked_in_schema() {
    let schema = include_str!("../bench/metrics_schema.txt");
    let pinned: Vec<&str> = schema
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = MetricsSnapshot::metric_names();
    assert_eq!(
        actual, pinned,
        "metric names drifted from bench/metrics_schema.txt — update the \
         schema file in the same PR as the rename"
    );
}
