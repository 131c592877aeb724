//! host-lib: the host backend (`cpu.rs`) called in-process on a
//! one-thread pool.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gpu_sim::arch::v100;
use gpu_sim::Device;
use hpc_par::ThreadPool;
use sampleselect::cpu::{
    cpu_approx_select, cpu_multi_select, cpu_sample_select, cpu_top_k, CpuSelectConfig,
    CpuSelectStats,
};
use sampleselect::multiselect::{multi_select_on_device, quantile_ranks};
use sampleselect::server::dataset::{self, DatasetSpec};
use sampleselect::{
    approx_select_on_device, sample_select_on_device, top_k_largest_on_device, QueryKind,
    QueryRequest, QueryStatus, SampleSelectConfig,
};

use crate::gen::{kind_label, Item, Workload};
use crate::stats::vm_hwm_mib;
use crate::trace::{span, Tracer};
use crate::{set_up, Answer, Pass, SETUP_REPS};

pub type Datasets = BTreeMap<DatasetSpec, Vec<f32>>;

pub fn instantiate_all(specs: &[DatasetSpec]) -> Datasets {
    specs
        .iter()
        .map(|s| (*s, dataset::instantiate(s)))
        .collect()
}

/// One host-backend call answering `req`, plus the recursion
/// statistics when the call reports them.
pub fn host_call(
    pool: &ThreadPool,
    data: &[f32],
    req: &QueryRequest,
) -> (QueryStatus, Option<CpuSelectStats>) {
    let cfg = CpuSelectConfig {
        seed: req.seed,
        ..CpuSelectConfig::default()
    };
    let failed = |e: sampleselect::SelectError| {
        (
            QueryStatus::Failed {
                message: e.to_string(),
            },
            None,
        )
    };
    match req.kind {
        QueryKind::Exact { rank } => match cpu_sample_select(pool, data, rank as usize, &cfg) {
            Ok((value, stats)) => (QueryStatus::Exact { value }, Some(stats)),
            Err(e) => failed(e),
        },
        QueryKind::TopK { k } => match cpu_top_k(pool, data, k as usize, &cfg) {
            Ok((elements, threshold)) if elements.len() == k as usize => {
                (QueryStatus::TopK { threshold, k }, None)
            }
            Ok((elements, _)) => (
                QueryStatus::Failed {
                    message: format!("cpu_top_k returned {} of {k} elements", elements.len()),
                },
                None,
            ),
            Err(e) => failed(e),
        },
        QueryKind::Quantiles { q } => {
            let ranks = match quantile_ranks(data.len(), q as usize) {
                Ok(r) => r,
                Err(e) => return failed(e),
            };
            match cpu_multi_select(pool, data, &ranks, &cfg) {
                Ok(values) => (QueryStatus::Quantiles { values }, None),
                Err(e) => failed(e),
            }
        }
        QueryKind::Approx { rank } => match cpu_approx_select(pool, data, rank as usize, &cfg) {
            Ok((value, achieved_rank)) => (
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error: achieved_rank.abs_diff(rank),
                    deadline_degraded: false,
                },
                None,
            ),
            Err(e) => failed(e),
        },
        other => (
            QueryStatus::Failed {
                message: format!("the host backend has no call for {other:?}"),
            },
            None,
        ),
    }
}

/// The parameter a host call's cost follows.
fn parameter(kind: &QueryKind) -> u64 {
    match *kind {
        QueryKind::Exact { rank } | QueryKind::Approx { rank } => rank,
        QueryKind::TopK { k } => k,
        QueryKind::Quantiles { q } => q,
        _ => 0,
    }
}

/// Calls of each (kind, dataset) group that `simulated_us_per_call` runs.
const SIMULATED_PER_GROUP: usize = 6;

/// Simulated kernel time of the same call mix on the simulated V100
/// (kernel durations, as in `select_kernel_duration_ns`):
/// [`SIMULATED_PER_GROUP`] calls of each kind on each dataset, evenly
/// spaced by parameter so that every seed simulates the same spread of
/// work, run through the device drivers.
fn simulated_us_per_call(pool: &ThreadPool, data: &Datasets, items: &[Item]) -> f64 {
    let mut groups: BTreeMap<(&str, DatasetSpec), Vec<&Item>> = BTreeMap::new();
    for it in items {
        groups
            .entry((kind_label(&it.req.kind), it.req.dataset))
            .or_default()
            .push(it);
    }
    let mut device = Device::new(v100(), pool);
    let mut total_us = 0.0;
    let mut calls = 0usize;
    for group in groups.values_mut() {
        group.sort_by_key(|it| parameter(&it.req.kind));
        let len = group.len();
        for i in 0..SIMULATED_PER_GROUP {
            let it = group[(2 * i + 1) * len / (2 * SIMULATED_PER_GROUP)];
            let d = &data[&it.req.dataset];
            let cfg = SampleSelectConfig::default().with_seed(it.req.seed);
            device.reset();
            let report = match it.req.kind {
                QueryKind::Exact { rank } => {
                    sample_select_on_device(&mut device, d, rank as usize, &cfg).map(|r| r.report)
                }
                QueryKind::TopK { k } => {
                    top_k_largest_on_device(&mut device, d, k as usize, &cfg).map(|r| r.report)
                }
                QueryKind::Quantiles { q } => quantile_ranks(d.len(), q as usize)
                    .and_then(|ranks| multi_select_on_device(&mut device, d, &ranks, &cfg))
                    .map(|r| r.report),
                QueryKind::Approx { rank } => {
                    approx_select_on_device(&mut device, d, rank as usize, &cfg).map(|r| r.report)
                }
                _ => continue,
            };
            if let Ok(r) = report {
                total_us += r.kernels.iter().map(|k| k.total_time.as_us()).sum::<f64>();
                calls += 1;
            }
        }
    }
    total_us / calls.max(1) as f64
}

/// Set up (pool, datasets, the workload's warm-up calls), then time
/// every call of the list back to back.
pub fn run(w: &Workload, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let mut make = || {
        let pool = ThreadPool::new(1);
        let data = instantiate_all(&w.specs);
        for req in &w.warm_up {
            black_box(host_call(&pool, &data[&req.dataset], req));
        }
        Ok((pool, data))
    };
    let mut retire = |state| {
        drop(state);
        Ok(())
    };
    let (pool, data) = set_up(
        SETUP_REPS - SETUP_REPS / 2,
        &mut setups,
        &mut make,
        &mut retire,
    )?;

    let start = Instant::now();
    let mut answers = Vec::with_capacity(w.items.len());
    let mut host_stats = Vec::new();
    for (qid, it) in w.items.iter().enumerate() {
        let d = &data[&it.req.dataset];
        let t0 = Instant::now();
        let (status, stats) = span(tracer, "cpu.call", qid as u64, None, |_| {
            black_box(host_call(&pool, d, &it.req))
        });
        let t1 = Instant::now();
        host_stats.extend(stats);
        answers.push(Answer {
            status: Some(status),
            latency_ms: Some((t1 - t0).as_secs_f64() * 1e3),
            due_s: (t0 - start).as_secs_f64(),
            done_s: (t1 - start).as_secs_f64(),
            ..Answer::default()
        });
    }
    let peak_rss_mib = vm_hwm_mib(None).unwrap_or(0.0);
    let sim_us_per_query = simulated_us_per_call(&pool, &data, &w.items);
    drop((pool, data));
    let last = set_up(SETUP_REPS / 2, &mut setups, &mut make, &mut retire)?;
    retire(last)?;
    Ok(Pass {
        answers,
        setups,
        peak_rss_mib,
        sim_us_per_query,
        host_stats,
        ..Pass::default()
    })
}
