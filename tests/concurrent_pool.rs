//! Concurrent use of pooled devices — the buffer-pool guarantees the
//! `selectd` server leans on. Each server worker owns a warm pooled
//! device and sessions interleave arbitrarily, so the pool must (a)
//! never hand two live leases the same allocation, (b) keep poisoned
//! regions quarantined regardless of how queries interleave across
//! sessions, and (c) report stats that sum coherently across sessions.

use std::sync::{Arc, Barrier};

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::{BufferPool, Device, FaultPlan};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::recursion::{select_with_workspace, Bucketing::Splitters};
use gpu_selection::sampleselect::server::dataset::{self, DatasetSpec};
use gpu_selection::sampleselect::server::QuotaConfig;
use gpu_selection::sampleselect::{
    QueryKind, QueryRequest, QueryStatus, SampleSelectConfig, SelectServer, SelectWorkspace,
    ServerConfig,
};

fn small_cfg() -> SampleSelectConfig {
    SampleSelectConfig::default()
        .with_buckets(8)
        .with_oversampling(2)
        .with_base_case(16)
}

/// Two live leases from one pool must never alias, and recycling must
/// not leak one lease's bytes into a concurrently held one.
#[test]
fn live_leases_never_alias() {
    let mut pool = BufferPool::new();
    let mut a: Vec<u64> = pool.acquire(1024, "counts");
    let mut b: Vec<u64> = pool.acquire(1024, "counts");
    assert_ne!(
        a.as_ptr(),
        b.as_ptr(),
        "two live leases for the same tag share an allocation"
    );
    a.resize(1024, 0);
    b.resize(1024, 0);
    a.fill(0xAAAA_AAAA_AAAA_AAAA);
    b.fill(0xBBBB_BBBB_BBBB_BBBB);
    assert!(a.iter().all(|&x| x == 0xAAAA_AAAA_AAAA_AAAA));

    // Recycle one; a re-acquire may reuse its allocation, but must not
    // disturb the still-live lease.
    pool.recycle("counts", b);
    let c: Vec<u64> = pool.acquire(1024, "counts");
    assert_ne!(a.as_ptr(), c.as_ptr());
    assert!(a.iter().all(|&x| x == 0xAAAA_AAAA_AAAA_AAAA));
}

/// Interleave queries across two pooled sessions in lockstep, with one
/// session under guaranteed corruption injection. The poisoned region
/// must stay quarantined on the faulted device, and the clean device's
/// results must be unaffected by the interleaving.
#[test]
fn poisoned_region_quarantine_holds_under_interleaved_sessions() {
    let data: Vec<i32> = (0..4096)
        .map(|i| (i * 2654435761u64 as i64 % 4096) as i32)
        .collect();
    let expect = reference_select(&data, 2048).unwrap();
    let barrier = Arc::new(Barrier::new(2));

    let run = |inject: bool, barrier: Arc<Barrier>, data: Vec<i32>| {
        std::thread::spawn(move || {
            let cfg = small_cfg();
            let pool = ThreadPool::new(1);
            let mut device = Device::new(v100(), &pool);
            device.enable_buffer_pool();
            let mut ws: SelectWorkspace<i32> = SelectWorkspace::new();
            if inject {
                // Access 1 is the level-0 counts buffer: guaranteed to
                // corrupt (and so poison) a pool-recycled region.
                device.set_fault_plan(FaultPlan::new(3).corrupt_accesses_at(&[1]));
            }
            barrier.wait();
            let first = select_with_workspace(&mut device, &data, 2048, &cfg, &mut ws, Splitters);
            if inject {
                device.clear_fault_plan();
            } else {
                first.as_ref().expect("clean session must not fail");
            }
            device.clear_fault_plan();
            device.reset();
            barrier.wait();
            // Second round on both sessions, again in lockstep.
            let second =
                select_with_workspace(&mut device, &data, 2048, &cfg, &mut ws, Splitters).unwrap();
            let stats = device.buffer_pool_stats().expect("pool armed");
            (second.value, stats)
        })
    };

    let faulted = run(true, Arc::clone(&barrier), data.clone());
    let clean = run(false, Arc::clone(&barrier), data.clone());
    let (faulted_value, faulted_stats) = faulted.join().unwrap();
    let (clean_value, clean_stats) = clean.join().unwrap();

    assert_eq!(faulted_value, expect, "post-quarantine query must be exact");
    assert_eq!(clean_value, expect);
    assert!(
        faulted_stats.poisoned_dropped > 0,
        "corrupted buffer must have been quarantined: {faulted_stats:?}"
    );
    assert_eq!(
        clean_stats.poisoned_dropped, 0,
        "quarantine must not leak across sessions: {clean_stats:?}"
    );
}

/// Pool stats must stay coherent per session and sum across a server's
/// worker sessions: every acquire is a hit or a miss, and recycled
/// plus poisoned-dropped never exceeds acquires.
#[test]
fn pool_stats_sum_coherently_across_concurrent_sessions() {
    let sessions = 3;
    let queries_per_session = 5;
    let data: Vec<i32> = (0..8192).map(|i| i * 37 % 4096).collect();
    let expect = reference_select(&data, 4000).unwrap();
    let barrier = Arc::new(Barrier::new(sessions));

    let handles: Vec<_> = (0..sessions)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let data = data.clone();
            std::thread::spawn(move || {
                let cfg = small_cfg();
                let pool = ThreadPool::new(1);
                let mut device = Device::new(v100(), &pool);
                device.enable_buffer_pool();
                let mut ws: SelectWorkspace<i32> = SelectWorkspace::new();
                barrier.wait();
                for _ in 0..queries_per_session {
                    let r =
                        select_with_workspace(&mut device, &data, 4000, &cfg, &mut ws, Splitters)
                            .unwrap();
                    assert_eq!(r.value, expect);
                    device.reset();
                }
                device.buffer_pool_stats().expect("pool armed")
            })
        })
        .collect();

    let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut total_acquires = 0;
    for s in &stats {
        assert_eq!(s.acquires, s.hits + s.misses, "acquire taxonomy: {s:?}");
        assert!(
            s.recycled + s.poisoned_dropped <= s.acquires,
            "returns exceed leases: {s:?}"
        );
        assert!(s.hits > 0, "warm reuse must kick in across queries: {s:?}");
        total_acquires += s.acquires;
    }
    // Identical query streams on identical devices: per-session stats
    // must agree, and the fleet total is exactly sessions × one run.
    for s in &stats[1..] {
        assert_eq!(s, &stats[0], "sessions diverged");
    }
    assert_eq!(total_acquires, stats[0].acquires * sessions as u64);
}

/// End-to-end: a multi-worker server hammered by parallel submitters
/// keeps every answer exact — pooled buffers never cross queries in a
/// way that changes results — and per-tenant accounting adds up.
#[test]
fn server_under_parallel_submitters_stays_exact() {
    let server = Arc::new(SelectServer::start(
        ServerConfig::default()
            .with_workers(3)
            .with_queue_capacity(256)
            .with_quota(QuotaConfig::default().with_burst(1e9)),
    ));
    let submitters = 4;
    let per_submitter = 6;
    let spec = DatasetSpec::uniform(10_000, 42);
    let data = dataset::instantiate(&spec);

    let handles: Vec<_> = (0..submitters)
        .map(|s| {
            let server = Arc::clone(&server);
            let data = data.clone();
            std::thread::spawn(move || {
                for i in 0..per_submitter {
                    let rank = (1 + s * per_submitter + i) as u64 * 300;
                    let resp = server
                        .query(QueryRequest {
                            tenant: format!("sub-{s}"),
                            kind: QueryKind::Exact { rank },
                            dataset: spec,
                            deadline_ms: None,
                            seed: (s * 1000 + i) as u64,
                        })
                        .expect("admitted");
                    match resp.status {
                        QueryStatus::Exact { value } => assert_eq!(
                            value.to_bits(),
                            reference_select(&data, rank as usize).unwrap().to_bits()
                        ),
                        other => panic!("expected exact, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = server.drain();
    assert_eq!(snap.queries_served, (submitters * per_submitter) as u64);
    let total_admitted: u64 = snap.tenants.iter().map(|(_, c)| c.admitted).sum();
    let total_exact: u64 = snap.tenants.iter().map(|(_, c)| c.exact).sum();
    assert_eq!(total_admitted, (submitters * per_submitter) as u64);
    assert_eq!(
        total_exact, total_admitted,
        "every admitted query answered exactly"
    );
}
