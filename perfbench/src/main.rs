//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload serve-mixed|serve-overload|host-lib --seed N \
//!     --seconds S --trace 0|1 [--selectd PATH] [--scratch DIR]
//! ```
//!
//! With `--trace 0` it sets up the workload, times its seeded query
//! list, checks every answer against a sorted reference, and prints the
//! end-to-end metrics. With `--trace 1` it does the same, then repeats
//! the pass with spans around each call and probes every layer's public
//! functions on the same inputs, and prints the per-layer metrics. The
//! last line of standard output is one JSON object; any wrong answer
//! exits non-zero without it. `run.sh` builds and runs this binary.

mod check;
mod client;
mod daemon;
mod gen;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::exit;

use sampleselect::cpu::CpuSelectStats;
use sampleselect::obs::MetricsSnapshot;
use sampleselect::QueryStatus;

use check::{Reference, Verdict};
use gen::Workload;
use report::{end_to_end, Counts, Metric, Outcome, Output};
use trace::Tracer;

/// Set-ups per run of the in-process workloads; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 9;
/// Set-ups per serve-mixed run. Each starts a daemon and runs a
/// quantile-stream warm-up (about a second), so it takes fewer.
pub const DAEMON_SETUP_REPS: usize = 5;

const HELP: &str = "perfbench --workload serve-mixed|serve-overload|host-lib --seed N \
--seconds S --trace 0|1 [--selectd PATH] [--scratch DIR]";

/// Run `make` `count` times (at least once), timing each into `times`;
/// each state but the last goes to `retire` before the next set-up
/// starts. Returns the last state.
///
/// Every workload samples its set-up in two bursts, `count - count / 2`
/// before the timed pass (the last of them serves it) and `count / 2`
/// after it, so that one stall of a shared machine during a burst of
/// set-ups cannot move their median.
pub fn set_up<T>(
    count: usize,
    times: &mut Vec<f64>,
    make: &mut impl FnMut() -> Result<T, String>,
    retire: &mut impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut state = None;
    for _ in 0..count.max(1) {
        if let Some(s) = state.take() {
            retire(s)?;
        }
        let t0 = std::time::Instant::now();
        let s = make()?;
        times.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok(state.expect("at least one set-up"))
}

/// Where the benchmark finds the daemon and keeps its scratch files.
pub struct Ctx {
    pub selectd: PathBuf,
    pub scratch: PathBuf,
    pub seed: u64,
}

impl Ctx {
    pub fn spool_dir(&self, tag: &str) -> PathBuf {
        self.scratch
            .join(format!("spool-{}-{tag}", std::process::id()))
    }
}

/// One timed query as the pass saw it.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    /// `None` when the query was refused.
    pub status: Option<QueryStatus>,
    pub latency_ms: Option<f64>,
    pub due_s: f64,
    pub done_s: f64,
    /// Server-stamped queue wait and service time (in-process passes).
    pub wait_ms: Option<f64>,
    pub service_ms: Option<f64>,
    /// Duration of the `SelectServer::submit` call (in-process passes).
    pub submit_us: Option<f64>,
    /// Encoded request size and raw response payload (TCP passes).
    pub request_bytes: usize,
    pub response: Vec<u8>,
}

/// Everything one pass over a workload's list measured.
#[derive(Default)]
pub struct Pass {
    pub answers: Vec<Answer>,
    /// Seconds of each set-up of the run.
    pub setups: Vec<f64>,
    pub peak_rss_mib: f64,
    pub sim_us_per_query: f64,
    /// How late the open loop submitted each query.
    pub late_ms: Vec<f64>,
    /// Recursion statistics of the host `cpu_sample_select` calls.
    pub host_stats: Vec<CpuSelectStats>,
    /// The in-process server's metrics after its final drain.
    pub snapshot: Option<MetricsSnapshot>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selectd: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        selectd: PathBuf::from(".bench_build/release/selectd"),
        scratch: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = num(&val)?,
            "--seconds" => args.seconds = num(&val)?.max(1),
            "--trace" => args.trace = num(&val)? != 0,
            "--selectd" => args.selectd = val.into(),
            "--scratch" => args.scratch = val.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Run the workload's pass; `tracer` adds spans around each call.
fn pass(ctx: &Ctx, name: &str, w: &Workload, tracer: Option<&Tracer>) -> Result<Pass, String> {
    match name {
        "serve-mixed" => serve::mixed(ctx, w, tracer),
        "serve-overload" => serve::overload(w, tracer),
        "host-lib" => host::run(w, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Judge every answer of a pass against the reference.
pub fn judge(w: &Workload, p: &Pass, reference: &Reference) -> Vec<Outcome> {
    w.items
        .iter()
        .zip(&p.answers)
        .map(|(it, a)| Outcome {
            verdict: reference.check(&it.req, a.status.as_ref()),
            latency_ms: a.latency_ms,
            due_s: a.due_s,
            done_s: a.done_s,
            n: it.req.dataset.n,
        })
        .collect()
}

fn report_counts(name: &str, c: &Counts, outcomes: &[Outcome]) {
    eprintln!(
        "{name}: sent {} succeeded {} degraded {} refused {} failed {} wrong {}",
        c.sent, c.good, c.degraded, c.refused, c.failed, c.wrong
    );
    for o in outcomes {
        if let Verdict::Wrong(why) | Verdict::Failed(why) = &o.verdict {
            eprintln!("  {why}");
        }
    }
}

/// One CSV row per timed query, for looking at a run after the fact.
fn write_answers(path: &std::path::Path, w: &Workload, p: &Pass, outcomes: &[Outcome]) {
    use std::fmt::Write as _;
    let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
    let mut csv = String::from("query,kind,verdict,due_s,done_s,latency_ms,wait_ms,service_ms\n");
    for (i, ((it, a), o)) in w.items.iter().zip(&p.answers).zip(outcomes).enumerate() {
        let verdict = match o.verdict {
            Verdict::Good => "good",
            Verdict::Degraded => "degraded",
            Verdict::Refused => "refused",
            Verdict::Failed(_) => "failed",
            Verdict::Wrong(_) => "wrong",
        };
        let _ = writeln!(
            csv,
            "{i},{},{verdict},{:.6},{:.6},{},{},{}",
            gen::kind_label(&it.req.kind),
            a.due_s,
            a.done_s,
            opt(a.latency_ms),
            opt(a.wait_ms),
            opt(a.service_ms)
        );
    }
    if let Err(e) = std::fs::write(path, csv) {
        eprintln!("{}: {e}", path.display());
    }
}

fn run(args: &Args) -> Result<Output, String> {
    let w = gen::workload(&args.workload, args.seed, args.seconds)
        .ok_or(format!("unknown workload `{}`\n{HELP}", args.workload))?;
    let ctx = Ctx {
        selectd: args.selectd.clone(),
        scratch: args.scratch.clone(),
        seed: args.seed,
    };
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("scratch {}: {e}", ctx.scratch.display()))?;

    let untraced = pass(&ctx, &args.workload, &w, None)?;
    let reference = Reference::build(&w.specs)?;
    let outcomes = judge(&w, &untraced, &reference);
    let counts = Counts::of(&outcomes);
    report_counts(&args.workload, &counts, &outcomes);
    let csv = ctx
        .scratch
        .join(format!("answers-{}-seed{}.csv", args.workload, args.seed));
    write_answers(&csv, &w, &untraced, &outcomes);
    eprintln!("set-up times (s): {:.4?}", untraced.setups);
    let service: Vec<f64> = untraced
        .answers
        .iter()
        .filter_map(|a| a.service_ms)
        .collect();
    if !service.is_empty() {
        eprintln!(
            "server-stamped service time: median {:.3} ms, mean {:.3} ms over {} answers",
            stats::median(&service),
            service.iter().sum::<f64>() / service.len() as f64,
            service.len()
        );
    }

    let metrics = if args.trace {
        layers::traced(
            &ctx,
            &args.workload,
            &w,
            &untraced,
            &outcomes,
            &reference,
            |t| pass(&ctx, &args.workload, &w, Some(t)),
        )?
    } else {
        let mut m = vec![Metric::new("setup_s", stats::median(&untraced.setups), "s")];
        m.extend(end_to_end(&outcomes));
        m.push(Metric::new(
            "sim_us_per_query",
            untraced.sim_us_per_query,
            "sim_us",
        ));
        m.push(Metric::new("peak_rss_mb", untraced.peak_rss_mib, "MiB"));
        m
    };
    let timed = outcomes.iter().filter(|o| o.latency_ms.is_some()).count();
    println!(
        "{} seed {}: {} timed operations, {} latency samples",
        args.workload, args.seed, counts.sent, timed
    );
    for m in &metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(Output {
        correct: counts.wrong == 0,
        attempted: counts.sent,
        failed: counts.failed + counts.wrong,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{HELP}");
            exit(2);
        }
    };
    let code = match run(&args) {
        Ok(out) if out.correct => {
            println!("{}", out.json());
            0
        }
        Ok(_) => {
            eprintln!("FAIL: wrong answers (listed above)");
            1
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    exit(code);
}
