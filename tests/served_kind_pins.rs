//! Exact pins of what `selectd` serves for every query kind.
//!
//! One fault-free, single-worker server (batching off, planner on)
//! answers a fixed sequence of queries that covers every
//! [`QueryKind`]. For each answer the test pins, as literals: the bit
//! pattern of every returned value, the status variant, the backend
//! label and the planner's pick. After each answer it pins the shared
//! registry's cumulative kernel launches, bytes moved, recursion
//! levels, and the sum and count of `select_kernel_duration_ns` — the
//! quantities the benchmark's simulated time per query and throughput
//! are derived from.
//!
//! These pins are exact: a refactor of the serving path must keep every
//! answer, label and simulated charge bit-identical. On a mismatch the
//! test prints the full observed table in the literal format below.

use std::path::PathBuf;

use gpu_selection::sampleselect::server::dataset::{DatasetSpec, DistCode};
use gpu_selection::sampleselect::{
    MetricsSnapshot, QueryKind, QueryRequest, QueryResponse, QueryStatus, SelectServer,
    ServerConfig,
};

/// One pinned answer plus the registry totals right after it.
struct Pin {
    answer: &'static str,
    backend: &'static str,
    planned: &'static str,
    /// Cumulative `(kernel launches, bytes moved, recursion levels,
    /// kernel duration ns sum, kernel duration count)`.
    registry: (u64, u64, u64, u64, u64),
}

const N: u64 = 1 << 16;

fn uniform() -> DatasetSpec {
    DatasetSpec::uniform(N as usize, 3)
}

fn few_distinct() -> DatasetSpec {
    DatasetSpec {
        dist: DistCode::Distinct16,
        n: N,
        seed: 4,
    }
}

fn sorted() -> DatasetSpec {
    DatasetSpec {
        dist: DistCode::SortedAscending,
        n: N,
        seed: 5,
    }
}

/// The served sequence: every kind, top-k at a small and a large k,
/// approximate top-k served exactly (one row on a 2^18 shape the cost
/// model once served with the bucketed pass), and both streaming kinds.
fn queries() -> Vec<(QueryKind, DatasetSpec, u64)> {
    let recall = |r: f32| r.to_bits();
    vec![
        (QueryKind::Exact { rank: 30_000 }, uniform(), 11),
        (QueryKind::Exact { rank: 1_000 }, few_distinct(), 12),
        (QueryKind::Exact { rank: 60_000 }, sorted(), 13),
        (QueryKind::Approx { rank: 20_000 }, uniform(), 14),
        (QueryKind::TopK { k: 100 }, uniform(), 15),
        (QueryKind::TopK { k: 50_000 }, uniform(), 16),
        (QueryKind::Quantiles { q: 8 }, uniform(), 17),
        (QueryKind::Quantiles { q: 5 }, few_distinct(), 18),
        (
            QueryKind::Stream {
                rank: 40_000,
                chunk_len: 8_192,
            },
            uniform(),
            19,
        ),
        (
            QueryKind::ApproxTopK {
                k: 100,
                recall_bits: recall(0.9),
            },
            uniform(),
            20,
        ),
        (
            QueryKind::ApproxTopK {
                k: 30_000,
                recall_bits: recall(0.9),
            },
            uniform(),
            21,
        ),
        (
            QueryKind::ApproxTopK {
                k: 1_000,
                recall_bits: recall(0.9),
            },
            DatasetSpec::uniform(1 << 18, 6),
            22,
        ),
        (
            QueryKind::QuantileStream {
                window_len: 16_384,
                slide: 8_192,
                chunk_len: 8_192,
            },
            uniform(),
            23,
        ),
        (QueryKind::Exact { rank: 100 }, uniform(), 24),
    ]
}

const PINS: &[Pin] = &[
    Pin {
        answer: "Exact 3eec1f74",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (6, 599688, 2, 8263, 6),
    },
    Pin {
        answer: "Exact 00000000",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (10, 1130116, 4, 15067, 10),
    },
    Pin {
        answer: "Exact 476a6000",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (12, 1198356, 6, 15747, 12),
    },
    Pin {
        answer: "Approximate 3e9e8a18 rank 20252 err 252 deadline false",
        backend: "approx",
        planned: "-",
        registry: (12, 1198356, 7, 15747, 12),
    },
    Pin {
        answer: "TopK 3f7f9f88 k 100",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (12, 1198356, 9, 15747, 12),
    },
    Pin {
        answer: "TopK 3e7388a2 k 50000",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (12, 1198356, 11, 15747, 12),
    },
    Pin {
        answer: "Quantiles 3dfe3166 3e808aa0 3ec1709e 3f00ac31 3f203b88 3f3ff42c 3f60193d",
        backend: "multiselect",
        planned: "-",
        registry: (17, 1818872, 13, 23032, 17),
    },
    Pin {
        answer: "Quantiles 40400000 40c00000 41100000 41400000",
        backend: "multiselect",
        planned: "-",
        registry: (20, 2348276, 14, 28512, 20),
    },
    Pin {
        answer: "Exact 3f1cbba6",
        backend: "streaming",
        planned: "-",
        registry: (36, 2861420, 15, 45746, 36),
    },
    Pin {
        answer: "ApproxTopK 3f7f9f88 k 100 recall 3f800000",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (42, 3460016, 17, 53151, 42),
    },
    Pin {
        answer: "ApproxTopK 3f0b3228 k 30000 recall 3f800000",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (42, 3460016, 19, 53151, 42),
    },
    Pin {
        answer: "ApproxTopK 3f7f0246 k 1000 recall 3f800000",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (42, 3460016, 21, 53151, 42),
    },
    Pin {
        answer: "QuantileStream 7 3f0072e0 3f6529c8 3f7d270f 3f7fca78",
        backend: "quantile-stream",
        planned: "-",
        registry: (77, 4558344, 35, 97508, 77),
    },
    Pin {
        answer: "Exact 3ac4f68e",
        backend: "sampleselect",
        planned: "sampleselect",
        registry: (83, 5158404, 37, 105796, 83),
    },
];

fn bits(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn render(status: &QueryStatus) -> String {
    match status {
        QueryStatus::Exact { value } => format!("Exact {}", bits(*value)),
        QueryStatus::Approximate {
            value,
            achieved_rank,
            rank_error,
            deadline_degraded,
        } => format!(
            "Approximate {} rank {achieved_rank} err {rank_error} deadline {deadline_degraded}",
            bits(*value)
        ),
        QueryStatus::TopK { threshold, k } => format!("TopK {} k {k}", bits(*threshold)),
        QueryStatus::Quantiles { values } => format!(
            "Quantiles {}",
            values
                .iter()
                .map(|&v| bits(v))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        QueryStatus::ApproxTopK {
            threshold,
            k,
            expected_recall,
        } => format!(
            "ApproxTopK {} k {k} recall {}",
            bits(*threshold),
            bits(*expected_recall)
        ),
        QueryStatus::QuantileStream { windows, values } => format!(
            "QuantileStream {windows} {}",
            values
                .iter()
                .map(|&v| bits(v))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        other => format!("{other:?}"),
    }
}

fn registry_totals(m: &MetricsSnapshot) -> (u64, u64, u64, u64, u64) {
    let counter = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    let durations = m
        .histograms
        .iter()
        .find(|h| h.name == "select_kernel_duration_ns")
        .expect("kernel duration histogram");
    (
        counter("select_kernel_launches_total"),
        counter("select_bytes_moved_total"),
        counter("select_recursion_levels_total"),
        durations.sum,
        durations.count,
    )
}

fn spool_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("served-kind-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

#[test]
fn every_served_kind_keeps_its_answer_label_and_simulated_charges() {
    let spool = spool_dir();
    let server = SelectServer::start(
        ServerConfig::default()
            .with_workers(1)
            .with_batch_max(1)
            .with_spool_dir(spool.clone()),
    );
    let mut observed = Vec::new();
    for (kind, dataset, seed) in queries() {
        let resp: QueryResponse = server
            .query(QueryRequest {
                tenant: "pins".to_string(),
                kind,
                dataset,
                deadline_ms: None,
                seed,
            })
            .expect("admitted");
        observed.push((
            render(&resp.status),
            resp.backend.unwrap_or("-"),
            resp.planned.unwrap_or("-"),
            registry_totals(&server.snapshot().metrics),
        ));
    }
    server.drain();
    let _ = std::fs::remove_dir_all(&spool);

    let matches = observed.len() == PINS.len()
        && observed.iter().zip(PINS).all(|(o, p)| {
            o.0 == p.answer && o.1 == p.backend && o.2 == p.planned && o.3 == p.registry
        });
    if !matches {
        let mut table = String::new();
        for (answer, backend, planned, r) in &observed {
            table.push_str(&format!(
                "    Pin {{\n        answer: \"{answer}\",\n        backend: \"{backend}\",\n        \
                 planned: \"{planned}\",\n        registry: ({}, {}, {}, {}, {}),\n    }},\n",
                r.0, r.1, r.2, r.3, r.4
            ));
        }
        panic!("served answers or simulated charges drifted; observed:\n{table}");
    }
}
