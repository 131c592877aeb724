//! `loadgen` — open-loop load generator and overload bench for the
//! `selectd` server core.
//!
//! ```text
//! cargo run --release --bin loadgen -- \
//!     [--rates 100,400,1600] [--duration-ms 1000] [--workers 3] \
//!     [--n 50000] [--datasets 3] [--deadline-ms 50] [--seed 7] \
//!     [--queue-cap 64] [--quota-burst F] [--quota-refill F] \
//!     [--fault-worker W [--fault-rate R]] [--out BENCH_selectd.json]
//! ```
//!
//! For each offered rate the bench boots a fresh in-process
//! [`SelectServer`], drives it with **open-loop Poisson arrivals**
//! (exponential inter-arrival times from a seeded SplitMix64 — arrivals
//! do not wait for responses, so overload actually overloads), from a
//! mix of tenants: an exact-selection tenant with a deadline, an
//! approximate tenant, a top-k tenant, a recall-targeted approximate
//! top-k tenant, and a windowed quantile-stream tenant. It then
//! reports, per rate:
//!
//! * latency percentiles p50 / p99 / p999 over admitted queries
//!   (queue wait + service, server-measured),
//! * goodput: honest answers per second, split into exact-quality and
//!   tagged-degraded,
//! * shed load: quota and queue-full rejections (explicit backpressure),
//! * **silently-wrong exact answers — required to be zero**: every
//!   `Exact` response and every top-k threshold (approximate top-k
//!   included, which `selectd` serves exactly) is verified bit-for-bit
//!   against a CPU reference on the regenerated dataset.
//!
//! Results go to `BENCH_selectd.json` (schema `selectd-loadgen-v1`).
//! Exit code 1 if any exact answer was wrong, else 0.

use std::collections::HashMap;
use std::process::exit;
use std::time::{Duration, Instant};

use gpu_selection::cli::Flags;
use gpu_selection::gpu_sim::FaultPlan;
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::server::dataset::{self, DatasetSpec};
use gpu_selection::sampleselect::{
    QueryKind, QueryRequest, QueryStatus, SelectError, SelectServer, ServerConfig,
};

const HELP: &str = "loadgen [--rates R1,R2,..] [--duration-ms MS] [--workers N] [--n N] \
[--datasets K] [--deadline-ms MS] [--seed S] [--queue-cap N] [--quota-burst F] \
[--quota-refill F] [--fault-worker W [--fault-rate R]] [--out FILE]";

struct Args {
    rates: Vec<f64>,
    duration_ms: u64,
    workers: usize,
    n: u64,
    datasets: u64,
    deadline_ms: u32,
    seed: u64,
    queue_cap: usize,
    quota_burst: f64,
    quota_refill: f64,
    fault_worker: Option<usize>,
    fault_rate: f64,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            rates: vec![100.0, 400.0, 1600.0],
            duration_ms: 1000,
            workers: 3,
            n: 50_000,
            datasets: 3,
            deadline_ms: 50,
            seed: 7,
            queue_cap: 64,
            quota_burst: 1e9,
            quota_refill: 0.0,
            fault_worker: None,
            fault_rate: 1.0,
            out: "BENCH_selectd.json".to_string(),
        }
    }
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut flags = Flags::new(HELP);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--rates" => {
                let rates = flags.value(&flag);
                let rate = |r: &str| flags.parse_str(&flag, r.trim());
                out.rates = rates.split(',').map(rate).collect()
            }
            "--duration-ms" => out.duration_ms = flags.parse(&flag),
            "--workers" => out.workers = flags.parse(&flag),
            "--n" => out.n = flags.parse(&flag),
            "--datasets" => out.datasets = flags.parse(&flag),
            "--deadline-ms" => out.deadline_ms = flags.parse(&flag),
            "--seed" => out.seed = flags.parse(&flag),
            "--queue-cap" => out.queue_cap = flags.parse(&flag),
            "--quota-burst" => out.quota_burst = flags.parse(&flag),
            "--quota-refill" => out.quota_refill = flags.parse(&flag),
            "--fault-worker" => out.fault_worker = Some(flags.parse(&flag)),
            "--fault-rate" => out.fault_rate = flags.parse(&flag),
            "--out" => out.out = flags.value(&flag),
            "--help" | "-h" => {
                eprintln!("{HELP}");
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n{HELP}");
                exit(2);
            }
        }
    }
    out
}

/// One offered query, pre-generated so the arrival loop does nothing
/// but sleep and submit.
struct Offered {
    req: QueryRequest,
    /// Arrival time offset from the run start, in seconds.
    at_s: f64,
}

fn plan_offered(args: &Args, rate: f64) -> Vec<Offered> {
    let mut rng = SplitMix64::new(args.seed ^ (rate.to_bits()));
    let duration_s = args.duration_ms as f64 / 1e3;
    let mut t = 0.0f64;
    let mut offered = Vec::new();
    while {
        // Exponential inter-arrival: open-loop Poisson process.
        let u = rng.next_f64().max(1e-12);
        t += -u.ln() / rate;
        t < duration_s
    } {
        let spec = DatasetSpec::uniform(args.n as usize, 1 + rng.next_u64() % args.datasets);
        // Ranks from a small per-dataset palette so exact verification
        // stays cheap and batching has something to merge.
        let rank = (1 + rng.next_below(16) as u64) * (args.n / 17);
        let mix = rng.next_below(14);
        let (tenant, kind, deadline_ms) = if mix < 5 {
            (
                "tenant-exact",
                QueryKind::Exact { rank },
                Some(args.deadline_ms),
            )
        } else if mix < 8 {
            ("tenant-approx", QueryKind::Approx { rank }, None)
        } else if mix < 10 {
            (
                "tenant-topk",
                QueryKind::TopK {
                    k: 1 + rng.next_below(256) as u64,
                },
                None,
            )
        } else if mix < 12 {
            (
                "tenant-approx-topk",
                QueryKind::ApproxTopK {
                    k: 1 + rng.next_below(256) as u64,
                    recall_bits: 0.9f32.to_bits(),
                },
                None,
            )
        } else {
            (
                "tenant-qstream",
                QueryKind::QuantileStream {
                    window_len: (args.n / 4).max(1),
                    slide: (args.n / 4).max(1),
                    chunk_len: 1 << 14,
                },
                None,
            )
        };
        offered.push(Offered {
            req: QueryRequest {
                tenant: tenant.to_string(),
                kind,
                dataset: spec,
                deadline_ms,
                seed: rng.next_u64(),
            },
            at_s: t,
        });
    }
    offered
}

#[derive(Default)]
struct RateOutcome {
    offered: u64,
    admitted: u64,
    rejected_quota: u64,
    rejected_queue: u64,
    exact_ok: u64,
    exact_wrong: u64,
    degraded: u64,
    approx_tagged: u64,
    topk_ok: u64,
    topk_wrong: u64,
    approx_topk_ok: u64,
    approx_topk_wrong: u64,
    qstream_ok: u64,
    qstream_wrong: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    breaker_open: u64,
    batched: u64,
}

/// Linear-interpolation percentile (the C = 1 variant): `p` in [0, 1]
/// over an ascending-sorted slice. Nearest-rank with `.round()` would
/// collapse p99 and p999 onto the max for any sample smaller than ~200
/// entries — exactly the small per-rate samples short loadgen runs
/// produce — so the tail percentiles it reported were not tail
/// estimates at all.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let h = (sorted.len() as f64 - 1.0) * p;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

fn run_rate(args: &Args, rate: f64) -> RateOutcome {
    let mut cfg = ServerConfig {
        workers: args.workers,
        queue_capacity: args.queue_cap,
        max_dataset_elems: args.n.max(1 << 20),
        ..ServerConfig::default()
    };
    cfg.quota.burst = args.quota_burst;
    cfg.quota.refill_per_sec = args.quota_refill;
    // Quantile-stream queries spool restart checkpoints to disk; give
    // the server a scratch directory so they are admitted.
    let spool = std::env::temp_dir().join(format!("loadgen-spool-{}", std::process::id()));
    std::fs::create_dir_all(&spool).expect("create spool dir");
    cfg.spool_dir = Some(spool);
    if let Some(w) = args.fault_worker {
        cfg = cfg.with_fault_plan(
            w,
            FaultPlan::new(args.seed).launch_failures(args.fault_rate),
        );
    }
    let server = SelectServer::start(cfg);

    let offered = plan_offered(args, rate);
    let mut outcome = RateOutcome {
        offered: offered.len() as u64,
        ..RateOutcome::default()
    };

    // Open loop: submit at each planned arrival time regardless of how
    // far behind the server is; harvest responses afterwards.
    let start = Instant::now();
    let mut inflight = Vec::new();
    for o in offered {
        let target = Duration::from_secs_f64(o.at_s);
        let now = start.elapsed();
        if target > now {
            std::thread::sleep(target - now);
        }
        match server.submit(o.req.clone()) {
            Ok(ticket) => inflight.push((o.req, ticket)),
            Err(SelectError::Overloaded { reason, .. }) => match reason {
                "quota" => outcome.rejected_quota += 1,
                _ => outcome.rejected_queue += 1,
            },
            Err(e) => panic!("loadgen generated an invalid query: {e}"),
        }
    }
    outcome.admitted = inflight.len() as u64;

    // Bit-exact verification references, one per (dataset, rank).
    let mut refs: HashMap<(DatasetSpec, u64), f32> = HashMap::new();
    let mut datasets: HashMap<DatasetSpec, Vec<f32>> = HashMap::new();
    let mut reference = |spec: DatasetSpec, rank: u64| -> f32 {
        *refs.entry((spec, rank)).or_insert_with(|| {
            let data = datasets
                .entry(spec)
                .or_insert_with(|| dataset::instantiate(&spec));
            reference_select(data, rank as usize).expect("rank in range")
        })
    };

    for (req, ticket) in inflight {
        let resp = ticket.wait();
        outcome.latencies_ms.push(resp.wait_ms + resp.service_ms);
        match resp.status {
            QueryStatus::Exact { value } => {
                let want = match req.kind {
                    QueryKind::Exact { rank } => reference(req.dataset, rank),
                    QueryKind::Stream { rank, .. } => reference(req.dataset, rank),
                    _ => value,
                };
                if value.to_bits() == want.to_bits() {
                    outcome.exact_ok += 1;
                } else {
                    outcome.exact_wrong += 1;
                }
            }
            QueryStatus::Approximate {
                value,
                achieved_rank,
                deadline_degraded,
                ..
            } => {
                // An approximate answer is honest iff its achieved rank
                // is truthful — verify against the reference.
                let want = reference(req.dataset, achieved_rank);
                if value.to_bits() == want.to_bits() {
                    if deadline_degraded {
                        outcome.degraded += 1;
                    } else {
                        outcome.approx_tagged += 1;
                    }
                } else {
                    outcome.exact_wrong += 1;
                }
            }
            QueryStatus::TopK { threshold, k } => {
                let want = reference(req.dataset, req.dataset.n - k);
                if threshold.to_bits() == want.to_bits() {
                    outcome.topk_ok += 1;
                } else {
                    outcome.topk_wrong += 1;
                }
            }
            QueryStatus::ApproxTopK {
                threshold,
                k,
                expected_recall,
            } => {
                // `selectd` serves approximate top-k exactly: the exact
                // threshold at recall 1.
                let want = reference(req.dataset, req.dataset.n - k);
                if threshold.to_bits() == want.to_bits() && expected_recall == 1.0 {
                    outcome.approx_topk_ok += 1;
                } else {
                    outcome.approx_topk_wrong += 1;
                }
            }
            QueryStatus::QuantileStream { windows, values } => {
                // A completed finite pass closes at least one window and
                // reports the default probe set in non-decreasing order.
                let ordered = values.windows(2).all(|p| p[0] <= p[1]);
                if windows >= 1 && values.len() == 4 && ordered {
                    outcome.qstream_ok += 1;
                } else {
                    outcome.qstream_wrong += 1;
                }
            }
            QueryStatus::Quantiles { .. }
            | QueryStatus::Checkpointed { .. }
            | QueryStatus::Failed { .. } => {
                outcome.failed += 1;
            }
        }
    }

    let snap = server.drain();
    let counter = |name: &str| {
        snap.metrics
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    outcome.breaker_open = counter("select_breaker_open_total");
    outcome.batched = counter("select_batched_total");
    outcome
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    outcome
}

fn main() {
    let args = parse_args();
    let duration_s = args.duration_ms as f64 / 1e3;
    println!(
        "loadgen: rates {:?} qps, {} ms each, {} workers, n={}, {} datasets{}",
        args.rates,
        args.duration_ms,
        args.workers,
        args.n,
        args.datasets,
        if args.fault_worker.is_some() {
            " [fault injection on]"
        } else {
            ""
        }
    );
    println!(
        "\n{:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>10} {:>9} {:>7}",
        "rate",
        "offered",
        "admit",
        "shed",
        "p50-ms",
        "p99-ms",
        "p999-ms",
        "goodput/s",
        "degraded",
        "wrong"
    );

    let mut curves = Vec::new();
    let mut any_wrong = false;
    for &rate in &args.rates {
        let o = run_rate(&args, rate);
        let p50 = percentile(&o.latencies_ms, 0.50);
        let p99 = percentile(&o.latencies_ms, 0.99);
        let p999 = percentile(&o.latencies_ms, 0.999);
        let good = o.exact_ok + o.approx_tagged + o.topk_ok + o.approx_topk_ok + o.qstream_ok;
        let goodput = good as f64 / duration_s;
        let shed = o.rejected_quota + o.rejected_queue;
        any_wrong |=
            o.exact_wrong > 0 || o.topk_wrong > 0 || o.approx_topk_wrong > 0 || o.qstream_wrong > 0;
        println!(
            "{:>8.0} {:>8} {:>8} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>10.1} {:>9} {:>7}",
            rate,
            o.offered,
            o.admitted,
            shed,
            p50,
            p99,
            p999,
            goodput,
            o.degraded,
            o.exact_wrong + o.topk_wrong + o.approx_topk_wrong + o.qstream_wrong
        );
        curves.push(format!(
            "    {{\"rate_qps\": {rate}, \"offered\": {}, \"admitted\": {}, \
             \"rejected_quota\": {}, \"rejected_queue_full\": {}, \
             \"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}, \"p999_ms\": {p999:.4}, \
             \"goodput_qps\": {goodput:.2}, \"exact_ok\": {}, \"exact_wrong\": {}, \
             \"deadline_degraded\": {}, \"approx_tagged\": {}, \"topk_ok\": {}, \
             \"topk_wrong\": {}, \"approx_topk_ok\": {}, \"approx_topk_wrong\": {}, \
             \"qstream_ok\": {}, \"qstream_wrong\": {}, \
             \"failed\": {}, \"breaker_open\": {}, \"batched\": {}}}",
            o.offered,
            o.admitted,
            o.rejected_quota,
            o.rejected_queue,
            o.exact_ok,
            o.exact_wrong,
            o.degraded,
            o.approx_tagged,
            o.topk_ok,
            o.topk_wrong,
            o.approx_topk_ok,
            o.approx_topk_wrong,
            o.qstream_ok,
            o.qstream_wrong,
            o.failed,
            o.breaker_open,
            o.batched
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"selectd-loadgen-v1\",\n  \"config\": {{\"duration_ms\": {}, \
         \"workers\": {}, \"n\": {}, \"datasets\": {}, \"deadline_ms\": {}, \"seed\": {}, \
         \"queue_cap\": {}, \"quota_burst\": {}, \"quota_refill\": {}, \
         \"fault_injection\": {}}},\n  \"curves\": [\n{}\n  ]\n}}\n",
        args.duration_ms,
        args.workers,
        args.n,
        args.datasets,
        args.deadline_ms,
        args.seed,
        args.queue_cap,
        args.quota_burst,
        args.quota_refill,
        args.fault_worker.is_some(),
        curves.join(",\n")
    );
    std::fs::write(&args.out, &json).expect("write bench json");
    println!("\nwrote {}", args.out);

    if any_wrong {
        eprintln!("FAIL: silently-wrong exact/topk answers detected under load");
        exit(1);
    }
    println!(
        "no silently-wrong exact answers; overload shed via rejections + deadline degradation"
    );
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_interpolates_instead_of_collapsing_to_max() {
        // Ten samples: nearest-rank with .round() returns sorted[9] for
        // both p99 and p999 (the regression this pins); interpolation
        // must land strictly between the last two order statistics.
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        // h = 9 * 0.5 = 4.5 -> midway between the 5th and 6th samples.
        assert_eq!(percentile(&sorted, 0.50), 5.5);
        // h = 9 * 0.99 = 8.91 -> 9.91, NOT the max.
        assert!((percentile(&sorted, 0.99) - 9.91).abs() < 1e-12);
        // h = 9 * 0.999 = 8.991 -> 9.991, still below the max.
        assert!((percentile(&sorted, 0.999) - 9.991).abs() < 1e-12);
        assert!(percentile(&sorted, 0.99) < 10.0);
        assert!(percentile(&sorted, 0.999) < 10.0);
        // and p999 must stay above p99 (tail ordering preserved).
        assert!(percentile(&sorted, 0.999) > percentile(&sorted, 0.99));
    }

    #[test]
    fn percentile_degenerate_inputs() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.25], 0.999), 7.25);
        let two = [1.0, 3.0];
        assert_eq!(percentile(&two, 0.5), 2.0);
        assert_eq!(percentile(&two, 0.25), 1.5);
    }
}
