//! Integration tests for the `selectd` server core: admission control
//! (quotas, bounded queue, drain), deadline degradation, circuit
//! breaking under injected faults, cross-query batching, graceful and
//! hard drain, the wire codec end-to-end, and — the headline — the
//! guarantee that concurrent execution is bit-identical to serial
//! execution of the same queries.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::{Device, FaultPlan};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::approx::approx_select_on_device;
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::server::dataset::{self, DatasetSpec, DistCode};
use gpu_selection::sampleselect::server::{wire, QueryTicket, QuotaConfig};
use gpu_selection::sampleselect::{
    BreakerConfig, QueryKind, QueryRequest, QueryStatus, SampleSelectConfig, SelectError,
    SelectServer, ServerConfig, VerifyPolicy,
};
use proptest::prelude::*;

fn unique_spool(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "selectd-test-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

fn exact(tenant: &str, spec: DatasetSpec, rank: u64, seed: u64) -> QueryRequest {
    QueryRequest {
        tenant: tenant.to_string(),
        kind: QueryKind::Exact { rank },
        dataset: spec,
        deadline_ms: None,
        seed,
    }
}

#[test]
fn exact_queries_answer_correctly_across_tenants() {
    let server = SelectServer::start(ServerConfig::default().with_workers(2));
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for (i, dist) in [DistCode::Uniform, DistCode::Normal, DistCode::Distinct16]
        .into_iter()
        .enumerate()
    {
        let spec = DatasetSpec {
            dist,
            n: 20_000,
            seed: 11 + i as u64,
        };
        let rank = 1_000 + 3_000 * i as u64;
        let data = dataset::instantiate(&spec);
        expected.push(reference_select(&data, rank as usize).unwrap());
        tickets.push(
            server
                .submit(exact(&format!("tenant-{i}"), spec, rank, 77))
                .expect("admitted"),
        );
    }
    for (ticket, want) in tickets.into_iter().zip(expected) {
        match ticket.wait().status {
            QueryStatus::Exact { value } => assert_eq!(value.to_bits(), want.to_bits()),
            other => panic!("expected exact answer, got {other:?}"),
        }
    }
    let snap = server.drain();
    assert_eq!(snap.queries_served, 3);
    assert_eq!(snap.tenants.len(), 3);
    for (_, c) in &snap.tenants {
        assert_eq!(c.admitted, 1);
        assert_eq!(c.exact, 1);
        assert_eq!(c.failed, 0);
    }
}

#[test]
fn quota_exhaustion_rejects_with_explicit_backpressure() {
    let cfg = ServerConfig::default().with_workers(1).with_quota(
        QuotaConfig::default()
            .with_burst(2.0)
            .with_refill_per_sec(0.0),
    );
    let server = SelectServer::start(cfg);
    let spec = DatasetSpec::uniform(4_096, 3);

    let t1 = server.submit(exact("greedy", spec, 10, 1)).expect("1st");
    let t2 = server.submit(exact("greedy", spec, 20, 2)).expect("2nd");
    match server.submit(exact("greedy", spec, 30, 3)) {
        Err(SelectError::Overloaded { reason, tenant }) => {
            assert_eq!(reason, "quota");
            assert_eq!(tenant, "greedy");
        }
        other => panic!("3rd query must hit the quota, got {other:?}"),
    }
    // Another tenant has its own bucket and is unaffected.
    let t3 = server
        .submit(exact("patient", spec, 30, 3))
        .expect("other tenant");
    for t in [t1, t2, t3] {
        assert!(matches!(t.wait().status, QueryStatus::Exact { .. }));
    }

    let snap = server.drain();
    let greedy = &snap.tenants.iter().find(|(n, _)| n == "greedy").unwrap().1;
    assert_eq!(greedy.admitted, 2);
    assert_eq!(greedy.rejected, 1);
    let m = &snap.metrics;
    let get = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(get("select_admitted_total"), 3);
    assert_eq!(get("select_rejected_total"), 1);
}

#[test]
fn draining_server_rejects_new_queries() {
    let server = SelectServer::start(ServerConfig::default().with_workers(1));
    server.begin_drain(false);
    match server.submit(exact("late", DatasetSpec::uniform(1_024, 1), 5, 1)) {
        Err(SelectError::Overloaded { reason, .. }) => assert_eq!(reason, "draining"),
        other => panic!("expected draining rejection, got {other:?}"),
    }
    let snap = server.drain();
    assert!(snap.events.iter().any(|e| e.contains("admission stopped")));
}

#[test]
fn invalid_queries_fail_without_consuming_quota() {
    let cfg = ServerConfig::default().with_quota(
        QuotaConfig::default()
            .with_burst(1.0)
            .with_refill_per_sec(0.0),
    );
    let server = SelectServer::start(cfg);
    let spec = DatasetSpec::uniform(100, 1);
    assert!(matches!(
        server.submit(exact("t", spec, 100, 1)),
        Err(SelectError::RankOutOfRange { .. })
    ));
    assert!(matches!(
        server.submit(exact(
            "t",
            DatasetSpec {
                dist: DistCode::Uniform,
                n: 0,
                seed: 1
            },
            0,
            1
        )),
        Err(SelectError::EmptyInput)
    ));
    // The bad queries above must not have burned the single token.
    let t = server
        .submit(exact("t", spec, 50, 1))
        .expect("token intact");
    assert!(matches!(t.wait().status, QueryStatus::Exact { .. }));
}

#[test]
fn oversized_quantile_count_is_rejected_at_admission() {
    // Serving Quantiles{q} builds q-1 ranks, so an unbounded q from a
    // remote client would be a one-query allocation DoS. Admission
    // must bound it by n, mirroring the TopK k<=n check.
    let server = SelectServer::start(ServerConfig::default().with_workers(1));
    let spec = DatasetSpec::uniform(1_000, 2);
    for q in [1_001u64, u64::MAX] {
        match server.submit(QueryRequest {
            tenant: "hostile".to_string(),
            kind: QueryKind::Quantiles { q },
            dataset: spec,
            deadline_ms: None,
            seed: 1,
        }) {
            Err(SelectError::RankOutOfRange { .. }) => {}
            other => panic!("q={q} must be rejected at admission, got {other:?}"),
        }
    }
    // A sane q still works.
    let resp = server
        .query(QueryRequest {
            tenant: "sane".to_string(),
            kind: QueryKind::Quantiles { q: 4 },
            dataset: spec,
            deadline_ms: None,
            seed: 1,
        })
        .expect("admitted");
    match resp.status {
        QueryStatus::Quantiles { values } => assert_eq!(values.len(), 3),
        other => panic!("expected quantiles, got {other:?}"),
    }
    server.drain();
}

#[test]
fn queue_full_rejection_refunds_the_quota_token() {
    // No workers: the queue never drains, so the second submission is
    // rejected queue-full. That rejection must hand the quota token
    // back — with a burst of 2 and no refill, a tenant that loses a
    // token to every queue-full rejection would hit "quota" on its
    // third try instead of "queue-full".
    let cfg = ServerConfig {
        workers: 0,
        queue_capacity: 1,
        quota: QuotaConfig::default()
            .with_burst(2.0)
            .with_refill_per_sec(0.0),
        ..ServerConfig::default()
    };
    let server = SelectServer::start(cfg);
    let spec = DatasetSpec::uniform(1_024, 4);
    let _queued = server.submit(exact("t", spec, 10, 1)).expect("admitted");
    for attempt in 0..3 {
        match server.submit(exact("t", spec, 20, 2)) {
            Err(SelectError::Overloaded { reason, .. }) => assert_eq!(
                reason, "queue-full",
                "attempt {attempt}: rejection must refund the token, \
                 not burn quota"
            ),
            other => panic!("attempt {attempt}: expected queue-full, got {other:?}"),
        }
    }
    let snap = server.snapshot();
    let t = &snap.tenants.iter().find(|(n, _)| n == "t").unwrap().1;
    assert_eq!(t.admitted, 1);
    assert_eq!(t.rejected, 3);
}

#[test]
fn deadline_head_job_is_not_served_through_the_batch_path() {
    // A deadline-carrying exact query that becomes the head of a batch
    // must NOT be merged into the multiselect pass (which ignores
    // deadlines): it has to go through serve_job's expired/remaining-
    // budget path. Queue it behind a blocker together with mergeable
    // deadline-free queries on the same dataset.
    let server = SelectServer::start(ServerConfig::default().with_workers(1).with_batch_max(8));
    let big = DatasetSpec::uniform(400_000, 5);
    let head = server.submit(exact("blocker", big, 200_000, 1)).unwrap();

    let spec = DatasetSpec::uniform(8_192, 6);
    let deadline_ticket = server
        .submit(QueryRequest {
            tenant: "impatient".to_string(),
            kind: QueryKind::Exact { rank: 4_000 },
            dataset: spec,
            deadline_ms: Some(0), // expired the moment it waits at all
            seed: 2,
        })
        .unwrap();
    let followers: Vec<_> = [10u64, 7_000, 8_000]
        .iter()
        .map(|&r| server.submit(exact("patient", spec, r, 2)).unwrap())
        .collect();

    head.wait();
    let resp = deadline_ticket.wait();
    assert!(
        !resp.batched,
        "deadline-carrying query must not ride the batch path"
    );
    match resp.status {
        QueryStatus::Approximate {
            deadline_degraded, ..
        } => assert!(deadline_degraded, "expired deadline must degrade, tagged"),
        other => panic!("expired-deadline head must degrade, got {other:?}"),
    }
    for f in followers {
        assert!(matches!(f.wait().status, QueryStatus::Exact { .. }));
    }
    server.drain();
}

#[test]
fn expired_deadline_degrades_to_tagged_approximate() {
    let server = SelectServer::start(ServerConfig::default().with_workers(1));
    let spec = DatasetSpec::uniform(50_000, 9);
    let data = dataset::instantiate(&spec);
    let rank = 25_000u64;
    // A zero-millisecond deadline has always expired by dequeue time:
    // the server must shed the exact attempt and answer with a tagged
    // approximation, never a silent timeout or an untagged answer.
    let resp = server
        .query(QueryRequest {
            tenant: "impatient".to_string(),
            kind: QueryKind::Exact { rank },
            dataset: spec,
            deadline_ms: Some(0),
            seed: 4,
        })
        .expect("admitted");
    match resp.status {
        QueryStatus::Approximate {
            value,
            achieved_rank,
            rank_error,
            deadline_degraded,
        } => {
            assert!(deadline_degraded, "degradation must be tagged");
            assert_eq!(
                value.to_bits(),
                reference_select(&data, achieved_rank as usize)
                    .unwrap()
                    .to_bits(),
                "achieved_rank must be the true rank of the returned value"
            );
            assert_eq!(rank_error, achieved_rank.abs_diff(rank));
        }
        other => panic!("expected tagged approximate, got {other:?}"),
    }
    let snap = server.drain();
    let t = &snap.tenants[0].1;
    assert_eq!(t.deadline_degraded, 1);
    let degraded = snap
        .metrics
        .counters
        .iter()
        .find(|(n, _)| *n == "select_deadline_degraded_total")
        .unwrap()
        .1;
    assert_eq!(degraded, 1);
}

#[test]
fn breaker_quarantines_flaky_device_and_answers_stay_exact() {
    // Worker 0's primary device fails every launch; the breaker must
    // open and reroute to the clean spare, and every answer must still
    // be exact (the resilient driver absorbs the faults meanwhile).
    let cfg = ServerConfig::default()
        .with_workers(1)
        .with_batch_max(1)
        .with_breaker(BreakerConfig {
            failure_threshold: 2,
            probe_after: 4,
        })
        .with_fault_plan(0, FaultPlan::new(77).launch_failures(1.0));
    let server = SelectServer::start(cfg);
    let spec = DatasetSpec::uniform(8_192, 21);
    let data = dataset::instantiate(&spec);

    let mut responses = Vec::new();
    for i in 0..12u64 {
        let rank = 100 + i * 500;
        let resp = server
            .query(exact("flaky-tenant", spec, rank, i))
            .expect("admitted");
        responses.push((rank, resp));
    }
    for (rank, resp) in &responses {
        match &resp.status {
            QueryStatus::Exact { value } => assert_eq!(
                value.to_bits(),
                reference_select(&data, *rank as usize).unwrap().to_bits(),
                "no silently-wrong exact under faults"
            ),
            other => panic!("expected exact answer under faults, got {other:?}"),
        }
    }

    let snap = server.drain();
    assert!(
        snap.events.iter().any(|e| e.contains("quarantined")),
        "breaker must have opened; events: {:?}",
        snap.events
    );
    let opened = snap
        .metrics
        .counters
        .iter()
        .find(|(n, _)| *n == "select_breaker_open_total")
        .unwrap()
        .1;
    assert!(opened >= 1);
    let t = &snap.tenants[0].1;
    assert!(
        t.breaker_rerouted >= 1,
        "some queries must have been served on the spare: {t:?}"
    );
}

/// A deadline-free query of `kind` on `spec`.
fn ranked(tenant: &str, spec: DatasetSpec, kind: QueryKind, seed: u64) -> QueryRequest {
    QueryRequest {
        tenant: tenant.to_string(),
        kind,
        dataset: spec,
        deadline_ms: None,
        seed,
    }
}

/// A large exact query that keeps a one-worker server busy while the
/// queries submitted after it pile up in the queue.
fn blocker() -> QueryRequest {
    exact("blocker", DatasetSpec::uniform(400_000, 5), 200_000, 1)
}

/// Wait for `ticket` and check its reply against the serial reference.
fn expect_serial(ticket: QueryTicket, req: &QueryRequest) -> bool {
    let resp = ticket.wait();
    let want = serial_answer(req);
    assert_eq!(format!("{:?}", resp.status), format!("{want:?}"), "{req:?}");
    resp.batched
}

#[test]
fn same_dataset_exact_queries_batch_into_one_multiselect() {
    // Every rank-valued kind merges: exact ranks, both top-k kinds (the
    // rank n − k) and a quantile set, each answered in its own variant.
    let server = SelectServer::start(ServerConfig::default().with_workers(1).with_batch_max(8));
    let head = server.submit(blocker()).unwrap();
    let spec = DatasetSpec::uniform(8_192, 6);
    let kinds = [
        QueryKind::Exact { rank: 10 },
        QueryKind::TopK { k: 100 },
        QueryKind::Exact { rank: 4_000 },
        QueryKind::Quantiles { q: 5 },
        QueryKind::ApproxTopK {
            k: 3_000,
            recall_bits: 0.9f32.to_bits(),
        },
        QueryKind::Exact { rank: 7_000 },
        QueryKind::Exact { rank: 8_000 },
    ];
    let tickets: Vec<_> = kinds
        .iter()
        .map(|&kind| server.submit(ranked("batcher", spec, kind, 2)).unwrap())
        .collect();
    assert!(!expect_serial(head, &blocker()));

    // Each member equals the reference and its lone answer bit for bit,
    // status variant included.
    let lone = SelectServer::start(ServerConfig::default().with_workers(1).with_batch_max(1));
    for (ticket, kind) in tickets.into_iter().zip(kinds) {
        let req = ranked("batcher", spec, kind, 2);
        assert!(expect_serial(ticket, &req), "{kind:?} was served alone");
        let alone = lone.submit(ranked("lone", spec, kind, 3)).unwrap();
        assert!(!expect_serial(alone, &req));
    }
    lone.drain();
    let snap = server.drain();
    let counted = snap.metrics.counter("select_batched_total");
    assert_eq!(counted, kinds.len() as u64);
}

#[test]
fn a_merged_pass_holds_at_most_n_ranks() {
    // Two quantile sets of q = n ranks (n − 1 ranks each) would make a
    // pass of 2n − 2 ranks: each is served alone. Two of q = 4 merge.
    let server = SelectServer::start(ServerConfig::default().with_workers(1).with_batch_max(8));
    let head = server.submit(blocker()).unwrap();
    let spec = DatasetSpec::uniform(4_096, 7);
    let reqs = [spec.n, spec.n, 4, 4].map(|q| {
        let kind = QueryKind::Quantiles { q };
        ranked("bounded", spec, kind, 4)
    });
    let tickets: Vec<_> = reqs
        .iter()
        .map(|req| server.submit(req.clone()).unwrap())
        .collect();
    assert!(!expect_serial(head, &blocker()));
    for (ticket, req) in tickets.into_iter().zip(&reqs) {
        let merged = req.kind == QueryKind::Quantiles { q: 4 };
        assert_eq!(expect_serial(ticket, req), merged, "{:?}", req.kind);
    }
    let snap = server.drain();
    assert_eq!(snap.metrics.counter("select_batched_total"), 2);
}

#[test]
fn a_merged_pass_overtakes_a_deadline_query_only_near_a_full_queue() {
    // Queued behind the blocker: exact, exact with a (generous)
    // deadline, exact. With 61 of 64 slots free the head's pass stops
    // at the deadline query and every query is served alone; with 2 of
    // 4 free it reaches past it and the two deadline-free ranks merge.
    let spec = DatasetSpec::uniform(8_192, 8);
    let reqs = [(10, None), (4_000, Some(600_000)), (8_000, None)].map(|(rank, deadline_ms)| {
        QueryRequest {
            deadline_ms,
            ..ranked("mixed", spec, QueryKind::Exact { rank }, 5)
        }
    });
    for (capacity, merged) in [(64, 0), (4, 2)] {
        let server = SelectServer::start(
            ServerConfig::default()
                .with_workers(1)
                .with_batch_max(8)
                .with_queue_capacity(capacity),
        );
        let head = server.submit(blocker()).unwrap();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|req| server.submit(req.clone()).unwrap())
            .collect();
        assert!(!expect_serial(head, &blocker()));
        for (ticket, req) in tickets.into_iter().zip(&reqs) {
            let batched = merged > 0 && req.deadline_ms.is_none();
            assert_eq!(
                expect_serial(ticket, req),
                batched,
                "capacity {capacity}: {req:?}"
            );
        }
        let snap = server.drain();
        assert_eq!(snap.metrics.counter("select_batched_total"), merged);
    }
}

#[test]
fn hard_drain_checkpoints_streaming_query_and_resume_completes_it() {
    let spool = unique_spool("harddrain");
    let spec = DatasetSpec::uniform(300_000, 13);
    let data = dataset::instantiate(&spec);
    let rank = 150_000u64;
    let stream = QueryRequest {
        tenant: "streamer".to_string(),
        kind: QueryKind::Stream {
            rank,
            chunk_len: 4_096,
        },
        dataset: spec,
        deadline_ms: None,
        seed: 8,
    };

    let server = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_spool_dir(spool.clone()),
    );
    let ticket = server.submit(stream.clone()).expect("admitted");
    // Give the worker a moment to start chewing chunks, then pull the
    // plug mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.begin_drain(true);
    let first = ticket.wait();
    let want = reference_select(&data, rank as usize).unwrap();
    match &first.status {
        QueryStatus::Checkpointed { resume_token } => {
            assert!(
                std::path::Path::new(resume_token).exists(),
                "checkpoint file must survive the drain"
            );
        }
        // The query may legitimately win the race and finish first; it
        // must then be exact and correct.
        QueryStatus::Exact { value } => assert_eq!(value.to_bits(), want.to_bits()),
        other => panic!("unexpected drain outcome: {other:?}"),
    }
    server.drain();

    // A fresh server over the same spool resumes (or re-runs) the query
    // to the exact answer.
    let server2 = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_spool_dir(spool.clone()),
    );
    match server2.query(stream).expect("admitted").status {
        QueryStatus::Exact { value } => assert_eq!(value.to_bits(), want.to_bits()),
        other => panic!("resumed query must complete exactly, got {other:?}"),
    }
    server2.drain();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn approx_topk_queries_are_admitted_and_honest() {
    // A shape the cost model once served with the bucketed pass: it is
    // now served exactly, as the rank n - k, at recall 1.
    let server = SelectServer::start(ServerConfig::default().with_workers(2));
    let spec = DatasetSpec::uniform(1 << 18, 6);
    let k = 1_000u64;
    let ticket = server
        .submit(QueryRequest {
            tenant: "recall".to_string(),
            kind: QueryKind::ApproxTopK {
                k,
                recall_bits: 0.9f32.to_bits(),
            },
            dataset: spec,
            deadline_ms: None,
            seed: 22,
        })
        .expect("admitted");
    let resp = ticket.wait();
    let data = dataset::instantiate(&spec);
    let exact_threshold = reference_select(&data, (spec.n - k) as usize).unwrap();
    assert_eq!(resp.backend, Some("sampleselect"), "{:?}", resp.status);
    match resp.status {
        QueryStatus::ApproxTopK {
            threshold,
            k: got_k,
            expected_recall,
        } => {
            assert_eq!(got_k, k);
            assert_eq!(threshold.to_bits(), exact_threshold.to_bits());
            assert_eq!(expected_recall, 1.0);
        }
        other => panic!("expected approx top-k status, got {other:?}"),
    }

    // Malformed ranks and recall targets are refused at admission,
    // before any quota is charged or a worker is woken.
    let bad = |kind| QueryRequest {
        tenant: "recall".to_string(),
        kind,
        dataset: spec,
        deadline_ms: None,
        seed: 1,
    };
    assert!(matches!(
        server.submit(bad(QueryKind::ApproxTopK {
            k: 0,
            recall_bits: 0.9f32.to_bits(),
        })),
        Err(SelectError::RankOutOfRange { .. })
    ));
    assert!(matches!(
        server.submit(bad(QueryKind::ApproxTopK {
            k: spec.n + 1,
            recall_bits: 0.9f32.to_bits(),
        })),
        Err(SelectError::RankOutOfRange { .. })
    ));
    for bits in [f32::NAN.to_bits(), 0.0f32.to_bits(), 1.5f32.to_bits()] {
        assert!(matches!(
            server.submit(bad(QueryKind::ApproxTopK {
                k: 10,
                recall_bits: bits,
            })),
            Err(SelectError::InvalidArgument { .. })
        ));
    }
    server.drain();
}

/// One reply's threshold bits and backend label.
type Served = (u32, Option<&'static str>);

/// Serve `TopK { k }`, `ApproxTopK { k, .. }` and `Exact { rank: n - k }`
/// on `spec` with the same seed; `certified` is how many certificates
/// each reply added to the registry.
fn serve_threshold_three_ways(
    server: &SelectServer,
    spec: DatasetSpec,
    k: u64,
) -> [(Served, u64); 3] {
    let kinds = [
        QueryKind::TopK { k },
        QueryKind::ApproxTopK {
            k,
            recall_bits: 0.9f32.to_bits(),
        },
        QueryKind::Exact { rank: spec.n - k },
    ];
    kinds.map(|kind| {
        let certified = || server.snapshot().metrics.counter("select_certified_total");
        let before = certified();
        let resp = server
            .query(QueryRequest {
                tenant: "threshold".to_string(),
                kind,
                dataset: spec,
                deadline_ms: None,
                seed: 31,
            })
            .expect("admitted");
        let value = match resp.status {
            QueryStatus::TopK { threshold, .. } => threshold,
            QueryStatus::ApproxTopK {
                threshold,
                expected_recall,
                ..
            } => {
                assert_eq!(expected_recall, 1.0);
                threshold
            }
            QueryStatus::Exact { value } => value,
            other => panic!("{kind:?} answered with {other:?}"),
        };
        let served = (value.to_bits(), resp.backend);
        (served, certified() - before)
    })
}

#[test]
fn every_threshold_kind_is_served_as_the_exact_rank_n_minus_k() {
    // The duplicate-heavy thresholds at k < n repeat (16 values), so the
    // probe's certify-first count answers them; the one at k = n is
    // 0.0, which certify-first never counts (its tie class holds -0.0).
    let n = 1u64 << 16;
    let uniform = DatasetSpec::uniform(n as usize, 9);
    let dup = DatasetSpec {
        dist: DistCode::Distinct16,
        n,
        seed: 10,
    };
    let ks = [1, 100, n / 2, n];
    let cases = [
        (uniform, ["sampleselect"; 4]),
        (
            dup,
            [
                "certify-first",
                "certify-first",
                "certify-first",
                "sampleselect",
            ],
        ),
    ];
    for paranoid_policy in [false, true] {
        let select = match paranoid_policy {
            true => paranoid(),
            false => SampleSelectConfig::default(),
        };
        let server = SelectServer::start(
            ServerConfig::default()
                .with_workers(1)
                .with_batch_max(1)
                .with_select(select),
        );
        for (spec, labels) in cases {
            let sorted = sorted_f32(&spec);
            for (k, label) in ks.into_iter().zip(labels) {
                let three = serve_threshold_three_ways(&server, spec, k);
                let want = sorted[(n - k) as usize].to_bits();
                for (served, certified) in three {
                    let what = format!("{:?} k {k} paranoid {paranoid_policy}", spec.dist);
                    assert_eq!(served, (want, Some(label)), "{what}");
                    // Under Paranoid every reply is certified once: by
                    // its certify-first count or by the rank certificate.
                    let once = u64::from(paranoid_policy || label == "certify-first");
                    assert_eq!(certified, once, "{what}");
                }
            }
        }
        server.drain();
    }
}

#[test]
fn quantile_stream_query_serves_reference_quantiles_and_cleans_spool() {
    use gpu_selection::sampleselect::{rank_for_prob, DEFAULT_PROBS};

    let spool = unique_spool("qstream");
    let server = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_spool_dir(spool.clone()),
    );
    let spec = DatasetSpec::uniform(40_000, 5);
    let (len, slide) = (10_000u64, 5_000u64);
    let resp = server
        .submit(QueryRequest {
            tenant: "telemetry".to_string(),
            kind: QueryKind::QuantileStream {
                window_len: len,
                slide,
                chunk_len: 4_096,
            },
            dataset: spec,
            deadline_ms: None,
            seed: 3,
        })
        .expect("admitted")
        .wait();
    let data = dataset::instantiate(&spec);
    match resp.status {
        QueryStatus::QuantileStream { windows, values } => {
            assert_eq!(windows, 1 + (spec.n - len) / slide);
            // The reported values are the quantiles of the last closed
            // window: the trailing `len` elements ending at the final
            // slide boundary.
            let end = (len + ((spec.n - len) / slide) * slide) as usize;
            let mut window: Vec<f32> = data[end - len as usize..end].to_vec();
            window.sort_by(f32::total_cmp);
            assert_eq!(values.len(), DEFAULT_PROBS.len());
            for (p, got) in DEFAULT_PROBS.iter().zip(&values) {
                let want = window[rank_for_prob(len as usize, *p)];
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        other => panic!("expected quantile-stream status, got {other:?}"),
    }
    // The finite pass completed, so its restart checkpoint is gone.
    let leftover: Vec<_> = std::fs::read_dir(&spool)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("qstream-"))
        .collect();
    assert!(
        leftover.is_empty(),
        "completed pass must clean its checkpoint: {leftover:?}"
    );
    server.drain();
    let _ = std::fs::remove_dir_all(&spool);

    // Without a spool directory the kind is refused up front — there is
    // nowhere to park a restart checkpoint.
    let no_spool = SelectServer::start(ServerConfig::default().with_workers(1));
    match no_spool.submit(QueryRequest {
        tenant: "telemetry".to_string(),
        kind: QueryKind::QuantileStream {
            window_len: 8,
            slide: 8,
            chunk_len: 8,
        },
        dataset: DatasetSpec::uniform(1_024, 1),
        deadline_ms: None,
        seed: 1,
    }) {
        Err(SelectError::Overloaded { reason, .. }) => assert_eq!(reason, "streaming-disabled"),
        other => panic!("expected streaming-disabled rejection, got {other:?}"),
    }
    no_spool.drain();
}

#[test]
fn snapshot_json_is_well_formed_and_carries_tenants() {
    let server = SelectServer::start(ServerConfig::default().with_workers(1));
    let spec = DatasetSpec::uniform(2_048, 30);
    server
        .query(exact("json \"tenant\"", spec, 100, 1))
        .unwrap();
    // Every character JSON must escape: a quote, a backslash, the short
    // escapes and a bare control character.
    let awkward = "a\"b\\c\n\r\t\u{1}";
    server.query(exact(awkward, spec, 100, 2)).unwrap();
    let snap = server.drain();
    let json = snap.to_json();
    let parsed = gpu_selection::gpu_sim::jsonv::parse(&json)
        .unwrap_or_else(|e| panic!("snapshot JSON must parse: {e}\n{json}"));
    let text = format!("{parsed:?}");
    assert!(text.contains("selectd-snapshot-v1"));
    assert!(
        json.contains("json \\\"tenant\\\""),
        "tenant names are escaped"
    );
    let tenants = parsed.get("tenants").expect("tenants object");
    for name in ["json \"tenant\"", awkward] {
        let counters = tenants
            .get(name)
            .unwrap_or_else(|| panic!("tenant {name:?} must round-trip:\n{json}"));
        assert_eq!(counters.get("admitted").and_then(|v| v.as_num()), Some(1.0));
    }
}

// ---------------------------------------------------------------------
// Wire protocol end-to-end (codec + framing over an in-memory pipe)
// ---------------------------------------------------------------------

#[test]
fn wire_frames_roundtrip_through_a_byte_stream() {
    let req = wire::Request::Query(QueryRequest {
        tenant: "net".to_string(),
        kind: QueryKind::TopK { k: 64 },
        dataset: DatasetSpec {
            dist: DistCode::Exponential,
            n: 1 << 16,
            seed: 5,
        },
        deadline_ms: Some(100),
        seed: 17,
    });
    let mut stream = Vec::new();
    wire::write_frame(&mut stream, &wire::encode_request(&req).unwrap()).unwrap();
    wire::write_frame(
        &mut stream,
        &wire::encode_request(&wire::Request::Stats).unwrap(),
    )
    .unwrap();

    let mut cursor = std::io::Cursor::new(stream);
    let f1 = wire::read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(wire::decode_request(&f1).unwrap(), req);
    let f2 = wire::read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(wire::decode_request(&f2).unwrap(), wire::Request::Stats);
    assert!(
        wire::read_frame(&mut cursor).unwrap().is_none(),
        "clean EOF"
    );
}

// ---------------------------------------------------------------------
// Every served kind runs through the resilient driver
// ---------------------------------------------------------------------

fn paranoid() -> SampleSelectConfig {
    SampleSelectConfig::default().with_verify(VerifyPolicy::Paranoid)
}

fn sorted_f32(spec: &DatasetSpec) -> Vec<f32> {
    let mut sorted = dataset::instantiate(spec);
    sorted.sort_by(f32::total_cmp);
    sorted
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn paranoid_quantiles_survive_bitflips() {
    // Bitflips corrupt intermediate buffers without latching a device
    // fault, so only the rank certificate can catch a wrong vector or a
    // wrong top-k threshold.
    let spec = DatasetSpec::uniform(65_536, 3);
    let sorted = sorted_f32(&spec);
    let q = 8u64;
    let want: Vec<f32> = (1..q).map(|i| sorted[(i * spec.n / q) as usize]).collect();
    let server = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_select(paranoid())
            .with_fault_plan(0, FaultPlan::new(118).bitflips(0.1)),
    );
    let resp = server
        .query(QueryRequest {
            tenant: "paranoid".to_string(),
            kind: QueryKind::Quantiles { q },
            dataset: spec,
            deadline_ms: None,
            seed: 57,
        })
        .expect("admitted");
    match &resp.status {
        QueryStatus::Quantiles { values } => assert_eq!(
            bits_of(values),
            bits_of(&want),
            "a certified quantile vector must be exact (backend {:?})",
            resp.backend
        ),
        other => panic!("expected quantiles, got {other:?}"),
    }
    // An approximate top-k is served exactly and its threshold gets the
    // rank certificate.
    let certified = || server.snapshot().metrics.counter("select_certified_total");
    let before = certified();
    let k = 1_000u64;
    let resp = server
        .query(QueryRequest {
            tenant: "paranoid".to_string(),
            kind: QueryKind::ApproxTopK {
                k,
                recall_bits: 0.9f32.to_bits(),
            },
            dataset: spec,
            deadline_ms: None,
            seed: 58,
        })
        .expect("admitted");
    match resp.status {
        QueryStatus::ApproxTopK {
            threshold,
            k: got,
            expected_recall,
        } => assert_eq!(
            (threshold.to_bits(), got, expected_recall),
            (sorted[(spec.n - k) as usize].to_bits(), k, 1.0),
            "a certified top-k threshold must be exact (backend {:?})",
            resp.backend
        ),
        other => panic!("expected approx top-k, got {other:?}"),
    }
    assert_eq!(certified(), before + 1, "the threshold was certified");
    server.drain();
}

#[test]
fn every_kind_falls_back_to_the_host_sort_under_persistent_launch_faults() {
    // Every launch on the only device fails and the breaker never opens,
    // so each kind must exhaust its retries and answer from the host
    // sort: exact values under the `cpu-sort` label.
    let spec = DatasetSpec::uniform(16_384, 8);
    let sorted = sorted_f32(&spec);
    let n = spec.n;
    let kinds = [
        QueryKind::Approx { rank: 5_000 },
        QueryKind::TopK { k: 100 },
        QueryKind::Quantiles { q: 4 },
        QueryKind::ApproxTopK {
            k: 100,
            recall_bits: 0.9f32.to_bits(),
        },
    ];
    let server = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_batch_max(1)
            .with_breaker(BreakerConfig {
                failure_threshold: 100,
                probe_after: 4,
            })
            .with_fault_plan(0, FaultPlan::new(31).launch_failures(1.0)),
    );
    for (i, kind) in kinds.into_iter().enumerate() {
        let resp = server
            .query(QueryRequest {
                tenant: "launch-faults".to_string(),
                kind,
                dataset: spec,
                deadline_ms: None,
                seed: 40 + i as u64,
            })
            .expect("admitted");
        assert_eq!(
            resp.backend,
            Some("cpu-sort"),
            "{kind:?}: {:?}",
            resp.status
        );
        let threshold = |k: u64| sorted[(n - k) as usize].to_bits();
        match (kind, &resp.status) {
            (
                QueryKind::Approx { rank },
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                    deadline_degraded: false,
                },
            ) => {
                assert_eq!(value.to_bits(), sorted[rank as usize].to_bits());
                assert_eq!((*achieved_rank, *rank_error), (rank, 0));
            }
            (
                QueryKind::TopK { k },
                QueryStatus::TopK {
                    threshold: t,
                    k: got,
                },
            ) => {
                assert_eq!((t.to_bits(), *got), (threshold(k), k));
            }
            (QueryKind::Quantiles { q }, QueryStatus::Quantiles { values }) => {
                let want: Vec<f32> = (1..q).map(|i| sorted[(i * n / q) as usize]).collect();
                assert_eq!(bits_of(values), bits_of(&want));
            }
            (
                QueryKind::ApproxTopK { k, .. },
                QueryStatus::ApproxTopK {
                    threshold: t,
                    k: got,
                    expected_recall,
                },
            ) => {
                assert_eq!((t.to_bits(), *got), (threshold(k), k));
                assert_eq!(*expected_recall, 1.0);
            }
            (kind, status) => panic!("{kind:?} answered with {status:?}"),
        }
    }
    server.drain();
}

#[test]
fn paranoid_batches_under_bitflips_return_only_exact_answers() {
    // A head-of-line blocker keeps the single worker busy while
    // same-dataset exact queries pile up and merge into multiselect
    // passes. Bitflips can silently corrupt a merged pass; the
    // certificate must send such a batch down the per-query path.
    let server = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_batch_max(8)
            .with_quota(QuotaConfig::default().with_burst(1e9))
            .with_select(paranoid())
            .with_breaker(BreakerConfig {
                failure_threshold: 1_000,
                probe_after: 4,
            })
            .with_fault_plan(0, FaultPlan::new(3).bitflips(0.2)),
    );
    let big = DatasetSpec::uniform(400_000, 5);
    let spec = DatasetSpec::uniform(8_192, 6);
    let data = dataset::instantiate(&spec);
    let mut tickets = Vec::new();
    for round in 0..6u64 {
        let head = server
            .submit(exact("blocker", big, 200_000, round))
            .unwrap();
        let ranks: Vec<u64> = (0..6).map(|i| 100 + 1_300 * i + round * 7).collect();
        let batch: Vec<_> = ranks
            .iter()
            .map(|&r| (r, server.submit(exact("batcher", spec, r, 2)).unwrap()))
            .collect();
        tickets.push((head, batch));
    }
    let big_data = dataset::instantiate(&big);
    let mut batched = 0;
    for (head, batch) in tickets {
        match head.wait().status {
            QueryStatus::Exact { value } => assert_eq!(
                value.to_bits(),
                reference_select(&big_data, 200_000).unwrap().to_bits()
            ),
            other => panic!("head query: {other:?}"),
        }
        for (rank, ticket) in batch {
            let resp = ticket.wait();
            batched += usize::from(resp.batched);
            match resp.status {
                QueryStatus::Exact { value } => assert_eq!(
                    value.to_bits(),
                    reference_select(&data, rank as usize).unwrap().to_bits(),
                    "rank {rank} (batched: {})",
                    resp.batched
                ),
                other => panic!("rank {rank}: {other:?}"),
            }
        }
    }
    assert!(
        batched >= 2,
        "no merged pass ran ({batched} batched answers)"
    );
    server.drain();
}

// ---------------------------------------------------------------------
// Bit-identity: concurrent server == serial direct execution
// ---------------------------------------------------------------------

/// Serial reference for one query: a fresh device, the same per-query
/// seed, the same driver family the server uses on its happy path.
fn serial_answer(req: &QueryRequest) -> QueryStatus {
    let pool = ThreadPool::new(1);
    let mut device = Device::new(v100(), &pool);
    device.enable_buffer_pool();
    let data = dataset::instantiate(&req.dataset);
    let cfg = SampleSelectConfig::default().with_seed(req.seed);
    let at = |rank: u64| reference_select(&data, rank as usize).unwrap();
    let n = req.dataset.n;
    match req.kind {
        QueryKind::Exact { rank } => QueryStatus::Exact { value: at(rank) },
        QueryKind::TopK { k } => QueryStatus::TopK {
            threshold: at(n - k),
            k,
        },
        QueryKind::ApproxTopK { k, .. } => QueryStatus::ApproxTopK {
            threshold: at(n - k),
            k,
            expected_recall: 1.0,
        },
        QueryKind::Quantiles { q } => QueryStatus::Quantiles {
            values: (1..q).map(|i| at(i * n / q)).collect(),
        },
        QueryKind::Approx { rank } => {
            let a = approx_select_on_device(&mut device, &data, rank as usize, &cfg).unwrap();
            QueryStatus::Approximate {
                value: a.value,
                achieved_rank: a.achieved_rank,
                rank_error: a.rank_error,
                deadline_degraded: false,
            }
        }
        _ => unreachable!("proptest generates no streaming kind"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Mixed exact, approximate, top-k, approximate top-k and quantile
    /// queries from several tenants, executed concurrently on a
    /// multi-worker server (with batching enabled),
    /// must produce bit-identical results to serial one-at-a-time
    /// execution. This is the determinism contract that makes the
    /// service debuggable: concurrency, admission order, batching, and
    /// device pooling are all invisible in the answers.
    #[test]
    fn concurrent_execution_is_bit_identical_to_serial(
        raw in proptest::collection::vec(0u64..u64::MAX, 4..16),
    ) {
        let n = 6_000u64;
        // Unpack each raw u64 into (kind, dataset seed, rank, query
        // seed) — the vendored proptest shim has no tuple strategies.
        let queries: Vec<(u8, u64, u64, u64)> = raw
            .iter()
            .map(|&r| {
                ((r % 5) as u8, 1 + (r >> 3) % 3, (r >> 5) % n, 1 + (r >> 19) % 1_000_000)
            })
            .collect();
        let server = SelectServer::start(
            ServerConfig::default()
                .with_workers(3)
                .with_batch_max(4)
                .with_queue_capacity(64)
                .with_quota(QuotaConfig::default().with_burst(1e9)),
        );
        let reqs: Vec<QueryRequest> = queries
            .iter()
            .map(|&(kind, dseed, rank, qseed)| QueryRequest {
                tenant: format!("t{}", dseed % 2),
                kind: match kind {
                    0 => QueryKind::Exact { rank },
                    1 => QueryKind::Approx { rank },
                    2 => QueryKind::TopK { k: rank + 1 },
                    3 => QueryKind::ApproxTopK { k: rank + 1, recall_bits: 0.9f32.to_bits() },
                    _ => QueryKind::Quantiles { q: 2 + rank % 7 },
                },
                dataset: DatasetSpec { dist: DistCode::Uniform, n, seed: dseed },
                deadline_ms: None,
                seed: qseed,
            })
            .collect();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|r| server.submit(r.clone()).expect("admitted"))
            .collect();
        for (req, ticket) in reqs.iter().zip(tickets) {
            let got = ticket.wait().status;
            let want = serial_answer(req);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "query {:?} diverged under concurrency",
                req
            );
        }
        server.drain();
    }
}

#[test]
fn an_exact_plan_does_not_depend_on_earlier_queries() {
    // The cost model prefers RadixSelect for this rank of normal data,
    // and a duplicate-heavy exact query leaves high collision and low
    // occupancy figures in the registry's gauges. The served label and
    // answer must be the same on a fresh server and after it.
    let normal = DatasetSpec {
        dist: DistCode::Normal,
        n: 1 << 20,
        seed: 5,
    };
    let dup = DatasetSpec {
        dist: DistCode::Distinct16,
        n: 1 << 16,
        seed: 6,
    };
    let serve = |warm_up: bool| {
        let server = SelectServer::start(ServerConfig::default().with_workers(1));
        if warm_up {
            let resp = server
                .query(exact("warm", dup, 1_000, 1))
                .expect("admitted");
            assert!(resp.status.is_exact(), "{resp:?}");
        }
        let resp = server
            .query(exact("probe", normal, 1 << 19, 2))
            .expect("admitted");
        server.drain();
        (resp.status, resp.backend)
    };
    let fresh = serve(false);
    assert_eq!(fresh, serve(true));
}
