//! `selectcli` — run any selection algorithm of the workspace on a
//! generated workload from the command line.
//!
//! ```text
//! cargo run --release --bin selectcli -- \
//!     [--algo auto|sample|quick|bucket|radix|approx|topk|approx-topk|quantiles|quantile-stream|sort|stream|resilient|shard|cpu] \
//!     [--n 4194304] [--rank N | --k N] \
//!     [--dist uniform|d16|d1024|clustered|cascade|sorted|normal|exp] \
//!     [--arch v100|k20xm|c2070] [--buckets 256] [--seed 42] [--breakdown] \
//!     [--trace out.json] [--metrics out.json|out.prom] [--span-log out.txt] \
//!     [--inject-faults SEED [--fault-rate R]] [--inject-bitflips SEED [--bitflip-rate R]] \
//!     [--verify off|spot|paranoid] [--time-budget MS] [--checkpoint FILE [--resume]] \
//!     [--shards K] [--kill-shard SHARD@LEVEL] [--hedge] \
//!     [--sanitize [--sanitize-json out.json]] [--threads N]
//! ```
//!
//! `--algo auto` asks the cost-model planner to pick the backend per
//! query: it probes the data (duplicate ratio, dead radix digits),
//! prices SampleSelect and RadixSelect on the target architecture,
//! prints the decision, and runs it through the resilient driver (a
//! rank inside a repeated probe value is first tried by one
//! certify-first count) — so `--time-budget` degradation and fault
//! injection behave exactly as with `--algo resilient` (a degraded
//! planner run still exits `4`). `--algo radix` forces the production
//! RadixSelect backend directly.
//!
//! `--algo shard` partitions the workload across `--shards` simulated
//! devices; `--kill-shard 1@2` kills shard 1 at recursion level 2 (the
//! driver recovers it by replay), and `--hedge` arms cost-model
//! straggler hedging. `--inject-faults`/`--inject-bitflips` apply their
//! fault plan to shard 0.
//!
//! `--algo approx-topk` runs the bucketed approximate top-k workload
//! (`selectd` answers it exactly over `--connect`):
//! `--k` winners at `--recall` target recall (planned via the binomial
//! model, measured against the exact answer). `--algo quantile-stream`
//! runs the streaming quantile telemetry engine: p50/p90/p99/p999 over
//! `--window LEN` windows sliding every `--slide S` elements, with
//! `--checkpoint FILE [--resume]` for restart-safe passes.
//!
//! `--connect HOST:PORT` turns the CLI into a `selectd` client: the
//! query (`--algo sample|resilient` ⇒ exact, `approx`, `topk`,
//! `approx-topk`, `quantiles`, `quantile-stream`, `stream`) is sent
//! over the wire protocol instead of running locally; `--drain`
//! gracefully shuts the server down and prints its final metrics
//! snapshot.
//!
//! Exit codes (scripts rely on these):
//!
//! * `0` — exact answer produced and verified.
//! * `1` — the query failed (driver error, connection error).
//! * `2` — usage error, including a query the library rejects (empty
//!   input, rank out of range, invalid configuration or argument).
//! * `3` — SIMT sanitizer findings (with `--sanitize`).
//! * `4` — **tagged approximate/degraded answer**: the result is honest
//!   but not exact (`--algo approx`, an approximate top-k below recall
//!   1, a time-budget or deadline degradation, a quorum-degraded shard
//!   run).
//! * `5` — **overload rejection**: a `selectd` server refused admission
//!   (quota, full queue, or draining) — retry later, do not treat as a
//!   data error.

use gpu_selection::baselines::bucket_select_on_device;
use gpu_selection::cli::Flags;
use gpu_selection::datagen::{Distribution, RankChoice, WorkloadSpec};
use gpu_selection::gpu_sim::arch::{by_name, v100};
use gpu_selection::gpu_sim::Device;
use gpu_selection::gpu_sim::{FaultPlan, SanitizerConfig, SimTime};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::cpu::{cpu_sample_select, CpuSelectConfig};
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::multiselect::quantiles;
use gpu_selection::sampleselect::samplesort::sample_sort_on_device;
use gpu_selection::sampleselect::streaming::{
    streaming_select, streaming_select_with_checkpoint, SliceChunks,
};
use gpu_selection::sampleselect::topk::top_k_largest_on_device;
use gpu_selection::sampleselect::{
    approx_select_on_device, approx_top_k_on_device, measure_recall, plan_for_recall,
    plan_rank_query, quick_select_on_device, radix_select_on_device, resilient_select_on_device,
    resilient_select_planned, run_quantile_stream, sample_select_on_device, sharded_select,
    KillSpec, ObsSession, Outcome, QuantileStreamConfig, ResilienceConfig, SampleSelectConfig,
    SelectError, SelectReport, ShardConfig, ShardFaults, VerifyPolicy, WindowSpec, DEFAULT_PROBS,
};
use std::process::exit;

#[derive(Debug)]
struct Args {
    algo: String,
    n: usize,
    rank: Option<usize>,
    k: Option<usize>,
    dist: String,
    arch: String,
    buckets: usize,
    seed: u64,
    breakdown: bool,
    trace: Option<String>,
    inject_faults: Option<u64>,
    fault_rate: f64,
    time_budget_ms: Option<f64>,
    inject_bitflips: Option<u64>,
    bitflip_rate: f64,
    verify: VerifyPolicy,
    checkpoint: Option<String>,
    resume: bool,
    sanitize: bool,
    sanitize_json: Option<String>,
    threads: Option<usize>,
    metrics: Option<String>,
    span_log: Option<String>,
    shards: usize,
    kill_shard: Option<KillSpec>,
    hedge: bool,
    connect: Option<String>,
    tenant: String,
    deadline_ms: Option<u32>,
    drain: bool,
    recall: f64,
    window: usize,
    slide: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            algo: "sample".into(),
            n: 1 << 22,
            rank: None,
            k: None,
            dist: "uniform".into(),
            arch: "v100".into(),
            buckets: 256,
            seed: 42,
            breakdown: false,
            trace: None,
            inject_faults: None,
            fault_rate: 0.05,
            time_budget_ms: None,
            inject_bitflips: None,
            bitflip_rate: 0.02,
            verify: VerifyPolicy::Off,
            checkpoint: None,
            resume: false,
            sanitize: false,
            sanitize_json: None,
            threads: None,
            metrics: None,
            span_log: None,
            shards: 2,
            kill_shard: None,
            hedge: false,
            connect: None,
            tenant: "cli".into(),
            deadline_ms: None,
            drain: false,
            recall: 0.95,
            window: 1 << 16,
            slide: None,
        }
    }
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut flags = Flags::new(HELP);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--algo" => out.algo = flags.value(&flag),
            "--n" => out.n = flags.parse(&flag),
            "--rank" => out.rank = Some(flags.parse(&flag)),
            "--k" => out.k = Some(flags.parse(&flag)),
            "--dist" => out.dist = flags.value(&flag),
            "--arch" => out.arch = flags.value(&flag),
            "--buckets" => out.buckets = flags.parse(&flag),
            "--seed" => out.seed = flags.parse(&flag),
            "--breakdown" => out.breakdown = true,
            "--trace" => out.trace = Some(flags.value(&flag)),
            "--inject-faults" => out.inject_faults = Some(flags.parse(&flag)),
            "--fault-rate" => out.fault_rate = flags.parse(&flag),
            "--time-budget" => out.time_budget_ms = Some(flags.parse(&flag)),
            "--inject-bitflips" => out.inject_bitflips = Some(flags.parse(&flag)),
            "--bitflip-rate" => out.bitflip_rate = flags.parse(&flag),
            "--verify" => {
                out.verify = flags.value(&flag).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2);
                })
            }
            "--checkpoint" => out.checkpoint = Some(flags.value(&flag)),
            "--resume" => out.resume = true,
            "--shards" => out.shards = flags.parse(&flag),
            "--kill-shard" => {
                out.kill_shard = Some(flags.value(&flag).parse().unwrap_or_else(|e| {
                    eprintln!("--kill-shard: {e}\n{HELP}");
                    exit(2);
                }))
            }
            "--hedge" => out.hedge = true,
            "--recall" => out.recall = flags.parse(&flag),
            "--window" => out.window = flags.parse(&flag),
            "--slide" => out.slide = Some(flags.parse(&flag)),
            "--connect" => out.connect = Some(flags.value(&flag)),
            "--tenant" => out.tenant = flags.value(&flag),
            "--deadline" => out.deadline_ms = Some(flags.parse(&flag)),
            "--drain" => out.drain = true,
            "--threads" => out.threads = Some(flags.parse(&flag)),
            "--metrics" => out.metrics = Some(flags.value(&flag)),
            "--span-log" => out.span_log = Some(flags.value(&flag)),
            "--sanitize" => out.sanitize = true,
            "--sanitize-json" => {
                out.sanitize = true;
                out.sanitize_json = Some(flags.value(&flag));
            }
            "--help" | "-h" => {
                eprintln!("{}", HELP);
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

const HELP: &str =
    "selectcli --algo auto|sample|quick|bucket|radix|approx|topk|approx-topk|quantiles|quantile-stream|sort|stream|resilient|shard|cpu \
--n N --rank R|--k K --dist uniform|d16|d1024|clustered|cascade|sorted|normal|exp \
--arch v100|k20xm|c2070 --buckets B --seed S [--breakdown] [--trace out.json] \
[--metrics out.json|out.prom] [--span-log out.txt] \
[--inject-faults SEED [--fault-rate R]] [--inject-bitflips SEED [--bitflip-rate R]] \
[--verify off|spot|paranoid] [--time-budget MS] [--checkpoint FILE [--resume]] \
[--recall R] [--window LEN [--slide S]] \
[--shards K] [--kill-shard SHARD@LEVEL] [--hedge] \
[--sanitize [--sanitize-json out.json]] [--threads N] \
[--connect HOST:PORT [--tenant NAME] [--deadline MS] [--drain]]\n\
exit codes: 0 exact answer; 1 failure; 2 usage error; 3 sanitizer findings; \
4 tagged approximate/degraded answer (incl. planner-degraded --algo auto runs); \
5 overload rejection (server backpressure)";

fn distribution(name: &str) -> Distribution {
    match name {
        "uniform" => Distribution::Uniform,
        "d16" => Distribution::UniformDistinct { distinct: 16 },
        "d1024" => Distribution::UniformDistinct { distinct: 1024 },
        "clustered" => Distribution::ClusteredOutliers,
        "cascade" => Distribution::GeometricCascade,
        "sorted" => Distribution::SortedAscending,
        "normal" => Distribution::Normal {
            mean: 0.0,
            std_dev: 1.0,
        },
        "exp" => Distribution::Exponential { lambda: 1.0 },
        other => {
            eprintln!("unknown distribution {other}\n{HELP}");
            exit(2);
        }
    }
}

fn print_report(report: &SelectReport, breakdown: bool) {
    println!(
        "levels: {}, launches: {}, early-termination: {}",
        report.levels,
        report.total_launches(),
        report.terminated_early
    );
    println!(
        "simulated time: {} ({:.3e} elements/s; launch overhead {})",
        report.total_time,
        report.throughput(),
        report.launch_overhead
    );
    let r = &report.resilience;
    // is_clean() now covers faults/corruptions/resumed; certified alone
    // does not make a run unclean but is still worth printing.
    if !r.is_clean() || r.certified > 0 {
        println!(
            "resilience: {} retries, {} fallbacks, {} degradations, {} faults observed, \
             {} corruptions detected, {} certified, {} resumed",
            r.retries,
            r.fallbacks,
            r.degradations,
            r.faults_observed,
            r.corruptions_detected,
            r.certified,
            r.resumed
        );
        for line in &r.log {
            println!("  {line}");
        }
    }
    if breakdown {
        println!("\nkernel          launches  total-time      ns/element");
        for k in &report.kernels {
            println!(
                "{:<15} {:>8}  {:>14}  {:.5}",
                k.name,
                k.launches,
                format!("{}", k.total_time),
                k.total_time.as_ns() / report.n as f64
            );
        }
    }
}

/// Exit code for honest-but-not-exact answers (tagged approximate,
/// deadline/time-budget degradation, quorum degradation, checkpointed).
const EXIT_APPROX: i32 = 4;
/// Exit code for explicit server backpressure (`SelectError::Overloaded`).
const EXIT_OVERLOADED: i32 = 5;

/// `--connect` client mode: ship the query to a `selectd` server over
/// the wire protocol instead of running it locally. Never returns.
fn run_client(args: &Args) -> ! {
    use gpu_selection::sampleselect::server::dataset::{DatasetSpec, DistCode};
    use gpu_selection::sampleselect::server::wire;
    use gpu_selection::sampleselect::{QueryKind, QueryRequest, QueryStatus};

    let addr = args.connect.as_deref().expect("connect mode");
    let mut stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1);
    });
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("cannot set TCP_NODELAY: {e}");
    }

    let request = if args.drain {
        wire::Request::Drain
    } else {
        let dist = DistCode::from_name(&args.dist).unwrap_or_else(|| {
            eprintln!("unknown distribution {} for --connect\n{HELP}", args.dist);
            exit(2);
        });
        let rank = args.rank.unwrap_or(args.n / 2) as u64;
        let kind = match args.algo.as_str() {
            // Every locally-exact algorithm maps to the server's exact
            // query; the server picks its own backend.
            "auto" | "sample" | "quick" | "bucket" | "radix" | "sort" | "resilient" | "cpu" => {
                QueryKind::Exact { rank }
            }
            "approx" => QueryKind::Approx { rank },
            "topk" => QueryKind::TopK {
                k: args.k.unwrap_or(100) as u64,
            },
            "approx-topk" => QueryKind::ApproxTopK {
                k: args.k.unwrap_or(100) as u64,
                recall_bits: (args.recall as f32).to_bits(),
            },
            "quantiles" => QueryKind::Quantiles {
                q: args.k.unwrap_or(10) as u64,
            },
            "quantile-stream" => QueryKind::QuantileStream {
                window_len: args.window as u64,
                slide: args.slide.unwrap_or(args.window) as u64,
                chunk_len: 1 << 16,
            },
            "stream" => QueryKind::Stream {
                rank,
                chunk_len: 1 << 16,
            },
            other => {
                eprintln!("unknown algorithm {other}\n{HELP}");
                exit(2);
            }
        };
        wire::Request::Query(QueryRequest {
            tenant: args.tenant.clone(),
            kind,
            dataset: DatasetSpec {
                dist,
                n: args.n as u64,
                seed: args.seed,
            },
            deadline_ms: args.deadline_ms,
            seed: args.seed,
        })
    };

    let payload = wire::encode_request(&request).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    if let Err(e) = wire::write_frame(&mut stream, &payload) {
        eprintln!("send failed: {e}");
        exit(1);
    }
    let frame = match wire::read_frame(&mut stream) {
        Ok(Some(f)) => f,
        Ok(None) => {
            eprintln!("server closed the connection");
            exit(1);
        }
        Err(e) => {
            eprintln!("receive failed: {e}");
            exit(1);
        }
    };
    let response = wire::decode_response(&frame).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    match response {
        wire::Response::Done { status, batched } => {
            let tag = if batched { " [batched]" } else { "" };
            match status {
                QueryStatus::Exact { value } => {
                    println!("value = {value} (exact){tag}");
                    exit(0);
                }
                QueryStatus::TopK { threshold, k } => {
                    println!("top-{k} threshold = {threshold}{tag}");
                    exit(0);
                }
                QueryStatus::Quantiles { values } => {
                    print!("quantiles:");
                    for v in &values {
                        print!(" {v:.4}");
                    }
                    println!("{tag}");
                    exit(0);
                }
                QueryStatus::ApproxTopK {
                    threshold,
                    k,
                    expected_recall,
                } => {
                    println!(
                        "approx top-{k} threshold = {threshold} (expected recall \
                         {expected_recall:.4}){tag}"
                    );
                    // `selectd` serves every recall target exactly.
                    let exact = expected_recall == 1.0;
                    exit(if exact { 0 } else { EXIT_APPROX });
                }
                QueryStatus::QuantileStream { windows, values } => {
                    print!("quantile stream: {windows} window(s) closed; latest");
                    for (p, v) in DEFAULT_PROBS.iter().zip(&values) {
                        print!(" p{p}={v:.4}");
                    }
                    println!("{tag}");
                    exit(0);
                }
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                    deadline_degraded,
                } => {
                    println!(
                        "value = {value} (approximate{}: rank {achieved_rank} delivered, \
                         error {rank_error}){tag}",
                        if deadline_degraded {
                            ", deadline-degraded"
                        } else {
                            ""
                        }
                    );
                    exit(EXIT_APPROX);
                }
                QueryStatus::Checkpointed { resume_token } => {
                    println!("checkpointed at {resume_token}; resubmit the query to resume");
                    exit(EXIT_APPROX);
                }
                QueryStatus::Failed { message } => {
                    eprintln!("query failed: {message}");
                    exit(1);
                }
            }
        }
        wire::Response::Rejected { reason } => {
            eprintln!("rejected: {reason}");
            exit(EXIT_OVERLOADED);
        }
        wire::Response::Drained { json } | wire::Response::Stats { json } => {
            println!("{json}");
            exit(0);
        }
        wire::Response::Pong => {
            println!("pong");
            exit(0);
        }
    }
}

/// The value of a library call, or its error printed as `what failed:
/// ...` followed by an exit: 2 (usage error) when the library rejected
/// the query itself, 1 for any other failure.
fn or_exit<T>(result: Result<T, SelectError>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        match e {
            SelectError::InvalidConfig(_)
            | SelectError::EmptyInput
            | SelectError::RankOutOfRange { .. }
            | SelectError::InvalidArgument { .. } => exit(2),
            _ => exit(1),
        }
    })
}

fn main() {
    let args = parse_args();
    if args.connect.is_some() {
        run_client(&args);
    }
    let arch = by_name(&args.arch).unwrap_or_else(v100);
    if let Some(n) = args.threads {
        if !ThreadPool::init_global(n) {
            eprintln!(
                "--threads {n} ignored: global pool already initialized with {} workers",
                ThreadPool::global().num_threads()
            );
        }
    }
    let pool = ThreadPool::global();
    let spec = WorkloadSpec {
        n: args.n,
        distribution: distribution(&args.dist),
        rank: match args.rank {
            Some(r) => RankChoice::Fixed(r),
            None => RankChoice::Median,
        },
        seed: args.seed,
    };
    let w = spec.instantiate::<f32>(0);
    let rank = w.rank;

    let cfg = SampleSelectConfig::tuned_for(&arch)
        .with_buckets(args.buckets)
        .with_seed(args.seed)
        .with_verify(args.verify);

    println!(
        "algo={} n={} dist={} arch={} buckets={} rank={rank}\n",
        args.algo, args.n, args.dist, arch.name, args.buckets
    );

    // Start an observability session whenever any export was requested;
    // the trace export also benefits (counter tracks ride along).
    let obs_session = if args.metrics.is_some() || args.span_log.is_some() || args.trace.is_some() {
        Some(ObsSession::start())
    } else {
        None
    };

    // Set when the answer is honest but not exact (approximate variant,
    // time-budget degradation, quorum degradation): main exits with
    // EXIT_APPROX so scripts can tell tagged answers from exact ones.
    let mut degraded = false;

    let mut device = Device::new(arch.clone(), pool);
    if args.sanitize {
        device.set_sanitizer(SanitizerConfig::full());
        println!(
            "SIMT sanitizer armed: shared-memory races, barrier divergence, uninitialized \
             reads, out-of-bounds and mixed atomic/plain accesses are reported per kernel\n"
        );
    }
    if args.inject_faults.is_some() || args.inject_bitflips.is_some() {
        let plan_seed = args
            .inject_faults
            .or(args.inject_bitflips)
            .expect("one of the fault seeds is set");
        let mut plan = FaultPlan::new(plan_seed);
        if let Some(fault_seed) = args.inject_faults {
            plan = plan
                .launch_failures(args.fault_rate)
                .max_launch_failures(8)
                .latency_spikes(args.fault_rate / 2.0, 4.0);
            println!(
                "fault injection: seed={fault_seed} launch-failure-rate={} (use --algo resilient \
                 to recover)",
                args.fault_rate
            );
        }
        if args.inject_bitflips.is_some() {
            plan = plan.bitflips(args.bitflip_rate);
            println!(
                "bit-flip injection: seed={plan_seed} rate={} per buffer exposure (use \
                 --verify spot|paranoid to detect)",
                args.bitflip_rate
            );
        }
        device.set_fault_plan(plan);
        println!();
    }
    match args.algo.as_str() {
        "auto" => {
            let decision = plan_rank_query(&arch, &w.data, rank, &cfg);
            println!(
                "planner: chose {} (probe: {:.0}% distinct, {} dead digit(s))",
                decision.backend,
                decision.profile.distinct_ratio * 100.0,
                decision.profile.dead_digits
            );
            let candidates = decision.candidates.iter().flatten().count();
            if candidates > 0 {
                println!("planner: certify-first over {candidates} probe value(s)");
            }
            for (backend, t) in &decision.estimates {
                println!("  model {backend:<20} {t}");
            }
            let mut rcfg = ResilienceConfig::default();
            if let Some(ms) = args.time_budget_ms {
                rcfg = rcfg.with_time_budget(SimTime::from_ms(ms));
            }
            let r = or_exit(
                resilient_select_planned(&mut device, &w.data, rank, &cfg, &rcfg, decision.plan()),
                "selection",
            );
            match r.outcome {
                Outcome::Exact(value) => {
                    println!("value = {value} (exact, backend {})", r.backend.name());
                    assert_eq!(value, reference_select(&w.data, rank).unwrap());
                }
                Outcome::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                } => {
                    degraded = true;
                    println!(
                        "value = {value} (planner-degraded under time budget: rank \
                         {achieved_rank} delivered, {rank} requested, error {rank_error})"
                    );
                }
            }
            print_report(&r.report, args.breakdown);
        }
        "sample" => {
            let r = or_exit(
                sample_select_on_device(&mut device, &w.data, rank, &cfg),
                "selection",
            );
            println!("value = {}", r.value);
            print_report(&r.report, args.breakdown);
            assert_eq!(r.value, reference_select(&w.data, rank).unwrap());
            println!("\nverified against std reference");
        }
        "quick" => {
            let r = or_exit(
                quick_select_on_device(&mut device, &w.data, rank, &cfg),
                "selection",
            );
            println!("value = {}", r.value);
            print_report(&r.report, args.breakdown);
        }
        "bucket" => {
            let r = or_exit(
                bucket_select_on_device(&mut device, &w.data, rank, &cfg),
                "selection",
            );
            println!("value = {}", r.value);
            print_report(&r.report, args.breakdown);
        }
        "radix" => {
            let r = or_exit(
                radix_select_on_device(&mut device, &w.data, rank, &cfg),
                "selection",
            );
            println!("value = {}", r.value);
            print_report(&r.report, args.breakdown);
        }
        "approx" => {
            let r = or_exit(
                approx_select_on_device(&mut device, &w.data, rank, &cfg),
                "approximate selection",
            );
            degraded = true;
            println!(
                "value = {} (rank {} delivered, {} requested, {:.4}% relative error)",
                r.value,
                r.achieved_rank,
                rank,
                r.relative_error * 100.0
            );
            print_report(&r.report, args.breakdown);
        }
        "topk" => {
            let k = args.k.unwrap_or(100);
            let r = or_exit(
                top_k_largest_on_device(&mut device, &w.data, k, &cfg),
                "top-k",
            );
            println!("top-{k} threshold = {}", r.threshold);
            print_report(&r.report, args.breakdown);
        }
        "quantiles" => {
            let q = args.k.unwrap_or(10);
            let r = or_exit(quantiles(&w.data, q, &cfg), "quantiles");
            print!("{q}-quantiles:");
            for v in &r.values {
                print!(" {v:.4}");
            }
            println!();
            print_report(&r.report, args.breakdown);
        }
        "approx-topk" => {
            let k = args.k.unwrap_or(100);
            let (acfg, planned) = plan_for_recall(args.n, k, args.recall);
            println!(
                "plan: {} bucket(s), oversample {:.3}, expected recall {:.4} (target {:.4})",
                acfg.buckets, acfg.oversample, planned, args.recall
            );
            let mut r = or_exit(
                approx_top_k_on_device(&mut device, &w.data, k, &acfg, &cfg),
                "approximate top-k",
            );
            let measured = measure_recall(&w.data, &mut r);
            if measured < 1.0 {
                degraded = true;
            }
            println!(
                "approx top-{k} threshold = {} (expected recall {:.4}, measured {:.4})",
                r.threshold, r.expected_recall, measured
            );
            print_report(&r.report, args.breakdown);
        }
        "quantile-stream" => {
            let slide = args.slide.unwrap_or(args.window);
            let qcfg = QuantileStreamConfig {
                probs: DEFAULT_PROBS.to_vec(),
                window: WindowSpec::sliding(args.window, slide),
                select: cfg.clone(),
            };
            let source = SliceChunks::new(&w.data, 1 << 16);
            let ckpt = args.checkpoint.as_ref().map(std::path::PathBuf::from);
            let result =
                run_quantile_stream(&mut device, &source, &qcfg, ckpt.as_deref(), args.resume);
            if result.is_err() && args.checkpoint.is_some() {
                eprintln!("(progress checkpointed; rerun with --resume to continue)");
            }
            let run = or_exit(result, "quantile stream");
            println!(
                "quantile stream: {} window(s) closed this pass ({} lifetime), {} elements seen{}",
                run.windows.len(),
                run.engine.windows_emitted(),
                run.engine.elements_seen(),
                if run.resumed { " [resumed]" } else { "" }
            );
            if let Some(wq) = run.engine.last() {
                print!(
                    "latest window #{} (end offset {}):",
                    wq.index, wq.end_offset
                );
                for (p, v) in DEFAULT_PROBS.iter().zip(&wq.values) {
                    print!(" p{p}={v:.4}");
                }
                println!();
            }
            for line in &run.events.log {
                println!("  {line}");
            }
        }
        "sort" => {
            let r = or_exit(sample_sort_on_device(&mut device, &w.data, &cfg), "sort");
            assert!(r.sorted.windows(2).all(|p| p[0] <= p[1]));
            match (r.sorted.first(), r.sorted.last()) {
                (Some(min), Some(max)) => {
                    println!("sorted {} elements (min {min}, max {max})", r.sorted.len())
                }
                _ => println!("sorted 0 elements"),
            }
            print_report(&r.report, args.breakdown);
        }
        "resilient" => {
            let mut rcfg = ResilienceConfig::default();
            if let Some(ms) = args.time_budget_ms {
                rcfg = rcfg.with_time_budget(SimTime::from_ms(ms));
            }
            let r = or_exit(
                resilient_select_on_device(&mut device, &w.data, rank, &cfg, &rcfg),
                "selection",
            );
            match r.outcome {
                Outcome::Exact(value) => {
                    println!("value = {value} (exact, backend {})", r.backend.name());
                    assert_eq!(value, reference_select(&w.data, rank).unwrap());
                }
                Outcome::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                } => {
                    degraded = true;
                    println!(
                        "value = {value} (approximate under time budget: rank {achieved_rank} \
                         delivered, {rank} requested, error {rank_error})"
                    );
                }
            }
            print_report(&r.report, args.breakdown);
        }
        "stream" => {
            let source = SliceChunks::new(&w.data, 1 << 18);
            let result = match &args.checkpoint {
                Some(path) => streaming_select_with_checkpoint(
                    &mut device,
                    &source,
                    rank,
                    &cfg,
                    std::path::Path::new(path),
                    args.resume,
                ),
                None => streaming_select(&mut device, &source, rank, &cfg),
            };
            if result.is_err() && args.checkpoint.is_some() {
                eprintln!("(progress checkpointed; rerun with --resume to continue)");
            }
            let r = or_exit(result, "streaming selection");
            println!(
                "value = {} (peak resident {} elements = {:.2}% of n)",
                r.value,
                r.peak_resident,
                r.peak_resident as f64 / args.n as f64 * 100.0
            );
            print_report(&r.report, args.breakdown);
        }
        "shard" => {
            let scfg = ShardConfig::default()
                .with_shards(args.shards)
                .with_hedge(args.hedge);
            let mut faults = ShardFaults::default();
            if let Some(spec) = args.kill_shard {
                println!(
                    "shard kill injection: shard {} dies at recursion level {}",
                    spec.shard, spec.level
                );
                faults = faults.kill_shard(spec.shard, spec.level);
            }
            if args.inject_faults.is_some() || args.inject_bitflips.is_some() {
                // The per-shard devices are built by the driver, so the
                // plan latched on `device` above never fires; rebuild the
                // same plan and pin it to shard 0.
                let plan_seed = args
                    .inject_faults
                    .or(args.inject_bitflips)
                    .expect("one of the fault seeds is set");
                let mut plan = FaultPlan::new(plan_seed);
                if args.inject_faults.is_some() {
                    plan = plan
                        .launch_failures(args.fault_rate)
                        .max_launch_failures(8)
                        .latency_spikes(args.fault_rate / 2.0, 4.0);
                }
                if args.inject_bitflips.is_some() {
                    plan = plan.bitflips(args.bitflip_rate);
                }
                println!("(fault plan applied to shard 0)");
                faults = faults.with_plan(0, plan);
            }
            let r = or_exit(
                sharded_select(&arch, pool, &w.data, rank, &cfg, &scfg, &faults),
                "sharded selection",
            );
            match r.outcome {
                Outcome::Exact(value) => {
                    println!("value = {value} (exact, {} shards)", r.report.shards);
                    assert_eq!(value, reference_select(&w.data, rank).unwrap());
                }
                Outcome::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                } => {
                    degraded = true;
                    println!(
                        "value = {value} (approximate after quorum degradation: rank \
                         {achieved_rank} over survivors, {rank} requested, bounded error \
                         {rank_error})"
                    );
                }
            }
            let rep = &r.report;
            println!(
                "levels: {}, simulated time: {} (link {} / {} bytes)",
                rep.levels, rep.sim_time, rep.link_time, rep.link_bytes
            );
            println!(
                "shards: {} launched, {} stragglers hedged, {} recovered, {} quorum \
                 degradations ({} candidates lost)",
                rep.shards,
                rep.stragglers_hedged,
                rep.shards_recovered,
                rep.quorum_degradations,
                rep.lost_elements
            );
            let ev = &rep.events;
            if !ev.is_clean() || ev.certified > 0 {
                println!(
                    "resilience: {} retries, {} faults observed, {} corruptions detected, \
                     {} certified, {} resumed",
                    ev.retries,
                    ev.faults_observed,
                    ev.corruptions_detected,
                    ev.certified,
                    ev.resumed
                );
                for line in &ev.log {
                    println!("  {line}");
                }
            }
        }
        "cpu" => {
            let t0 = std::time::Instant::now();
            let (value, stats) = or_exit(
                cpu_sample_select(pool, &w.data, rank, &CpuSelectConfig::default()),
                "selection",
            );
            let dt = t0.elapsed();
            println!(
                "value = {value} (wall-clock {dt:?}, {} levels, scanned {} elements)",
                stats.levels, stats.elements_scanned
            );
        }
        other => {
            eprintln!("unknown algorithm {other}\n{HELP}");
            exit(2);
        }
    }

    if args.sanitize {
        let findings = device.sanitizer_findings();
        if findings.is_empty() {
            println!(
                "\nsanitizer: clean — no findings across {} launches",
                device.records().len()
            );
        } else {
            println!("\nsanitizer: FINDINGS");
            for (kernel, report) in &findings {
                println!(
                    "  {kernel}: {} finding(s){}",
                    report.findings.len(),
                    if report.truncated > 0 {
                        format!(" (+{} truncated)", report.truncated)
                    } else {
                        String::new()
                    }
                );
                for f in report.findings.iter().take(5) {
                    println!("    {f}");
                }
            }
        }
        if let Some(path) = &args.sanitize_json {
            std::fs::write(path, device.sanitizer_json()).expect("failed to write sanitizer json");
            println!("sanitizer report written to {path}");
        }
        if !findings.is_empty() {
            exit(3);
        }
    }

    if device.has_fault() {
        eprintln!(
            "\nwarning: an injected fault was latched but never consumed — this \
             algorithm does not poll for faults, so its outputs would be garbage \
             on real hardware; rerun with --algo resilient"
        );
    }

    let obs_report = obs_session.map(ObsSession::finish);

    if let Some(path) = &args.metrics {
        let report = obs_report.as_ref().expect("session started for --metrics");
        let body = if path.ends_with(".prom") {
            report.snapshot.to_prometheus()
        } else {
            report.snapshot.to_json()
        };
        std::fs::write(path, body).expect("failed to write metrics");
        println!("\nmetrics written to {path}");
    }

    if let Some(path) = &args.span_log {
        let report = obs_report.as_ref().expect("session started for --span-log");
        std::fs::write(path, report.span_log()).expect("failed to write span log");
        println!("span log written to {path}");
    }

    if let Some(path) = &args.trace {
        let tracks: &[_] = obs_report
            .as_ref()
            .map(|r| r.tracks.as_slice())
            .unwrap_or(&[]);
        let json = gpu_selection::gpu_sim::chrome_trace_with_counters(&device, tracks);
        std::fs::write(path, json).expect("failed to write trace");
        println!("\nchrome trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }

    if degraded {
        exit(EXIT_APPROX);
    }
}
