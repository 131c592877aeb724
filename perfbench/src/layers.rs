//! The traced run: the workload's pass again with spans, then probes of
//! each layer's public functions on the same inputs. Layer names are
//! the program's module names (`server::wire`, `server`,
//! `server::dataset`, `planner`, the kernels, `gpu-sim`, `verify`,
//! `quantile_stream`, `cpu`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gpu_sim::arch::v100;
use gpu_sim::{Device, LaunchOrigin};
use hpc_par::ThreadPool;
use sampleselect::approx_topk::plan_for_recall;
use sampleselect::count::count_kernel;
use sampleselect::filter::filter_kernel;
use sampleselect::planner::{plan_approx_topk_query, plan_rank_query, plan_topk_query};
use sampleselect::quantile_stream::{
    run_quantile_stream, QuantileStreamConfig, WindowSpec, DEFAULT_PROBS,
};
use sampleselect::reduce::reduce_kernel;
use sampleselect::rng::SplitMix64;
use sampleselect::server::dataset;
use sampleselect::server::wire::{self, Request, Response};
use sampleselect::splitter::sample_kernel;
use sampleselect::streaming::SliceChunks;
use sampleselect::verify::certify_rank;
use sampleselect::{
    sample_select_on_device, QueryKind, QueryStatus, SampleSelectConfig, SearchTree, SelectReport,
};

use crate::check::{Reference, Verdict};
use crate::client::WireClient;
use crate::daemon::Daemon;
use crate::gen::{kind_label, Workload};
use crate::host::{host_call, instantiate_all, Datasets};
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, sorted};
use crate::trace::{span, Tracer};
use crate::{judge, Ctx, Pass};

/// Kinds with a `server.service_ms.<kind>` figure.
const SERVED_KINDS: [&str; 6] = [
    "exact",
    "approx",
    "topk",
    "approx_topk",
    "quantiles",
    "qstream",
];
/// Layers with a `self_ms.<layer>` figure.
const LAYERS: [&str; 11] = [
    "client", "wire", "net", "server", "cpu", "dataset", "planner", "kernel", "gpusim", "verify",
    "qstream",
];
/// Kernel families of one SampleSelect level.
const KERNELS: [&str; 4] = ["sample", "count", "reduce", "filter"];

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer metrics, named and ordered the same for every workload.
struct Sheet {
    metrics: Vec<Metric>,
    absent: Vec<String>,
}

impl Sheet {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// A figure whose layer this workload's list never reaches.
    fn absent(&mut self, name: impl Into<String>, unit: &'static str, why: &str) {
        let name = name.into();
        self.absent.push(format!("{name}: {why}"));
        self.metrics.push(Metric::new(name, 0.0, unit));
    }
}

fn counter(p: &Pass, name: &str) -> f64 {
    p.snapshot.as_ref().map_or(0.0, |s| s.counter(name) as f64)
}

/// `server` and `planner` pick counts, from a pass through an
/// in-process server.
fn server_layer(sheet: &mut Sheet, w: &Workload, p: &Pass) {
    let submit: Vec<f64> = p.answers.iter().filter_map(|a| a.submit_us).collect();
    sheet.put("server.submit_us", median(&submit), "us");
    let waits = sorted(p.answers.iter().filter_map(|a| a.wait_ms).collect());
    sheet.put("server.queue_wait_ms_p50", percentile(&waits, 0.5), "ms");
    sheet.put("server.queue_wait_ms_p99", percentile(&waits, 0.99), "ms");
    let mut service: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (it, a) in w.items.iter().zip(&p.answers) {
        if let Some(s) = a.service_ms {
            service.entry(kind_label(&it.req.kind)).or_default().push(s);
        }
    }
    for kind in SERVED_KINDS {
        let name = format!("server.service_ms.{kind}");
        match service.get(kind) {
            Some(v) => sheet.put(name, median(v), "ms"),
            None => sheet.absent(name, "ms", "no query of this kind in the list"),
        }
    }
    let exact_admitted = w
        .items
        .iter()
        .zip(&p.answers)
        .filter(|(it, a)| matches!(it.req.kind, QueryKind::Exact { .. }) && a.status.is_some())
        .count();
    let exact_answers = p
        .answers
        .iter()
        .filter(|a| matches!(a.status, Some(QueryStatus::Exact { .. })))
        .count();
    sheet.put(
        "server.batched_share",
        counter(p, "select_batched_total") / exact_admitted.max(1) as f64,
        "ratio",
    );
    sheet.put(
        "server.retries",
        counter(p, "select_retries_total"),
        "count",
    );
    sheet.put(
        "server.fallbacks",
        counter(p, "select_fallbacks_total"),
        "count",
    );
    for pick in ["sample", "radix", "quick", "topk", "approx_topk"] {
        let c = counter(p, &format!("select_planner_{pick}_total"));
        sheet.put(format!("planner.pick.{pick}"), c, "count");
    }
    let hit_ppm = p
        .snapshot
        .as_ref()
        .map_or(0.0, |s| s.gauge("select_pool_hit_rate_ppm") as f64);
    sheet.put("gpusim.pool_hit_rate", hit_ppm / 1e6, "ratio");
    sheet.put(
        "verify.certified_share",
        counter(p, "select_certified_total") / exact_answers.max(1) as f64,
        "ratio",
    );
}

/// `server::wire`: codec cost and frame sizes over the list, and the
/// round trip of a `Ping` to a live `selectd`.
fn wire_layer(
    sheet: &mut Sheet,
    ctx: &Ctx,
    w: &Workload,
    p: &Pass,
    t: &Tracer,
) -> Result<(), String> {
    let mut enc = Vec::new();
    let mut req_bytes = Vec::new();
    for (q, it) in w.items.iter().enumerate() {
        let r = Request::Query(it.req.clone());
        let t0 = Instant::now();
        let bytes = span(Some(t), "wire.encode", q as u64, None, |_| {
            wire::encode_request(&r)
        })
        .map_err(|e| e.to_string())?;
        enc.push(us(t0));
        req_bytes.push(bytes.len() as f64);
    }
    let mut dec = Vec::new();
    let mut resp_bytes = Vec::new();
    for (q, a) in p.answers.iter().enumerate() {
        let bytes = if a.response.is_empty() {
            let resp = match &a.status {
                Some(status) => Response::Done {
                    status: status.clone(),
                    batched: false,
                },
                None => Response::Rejected {
                    reason: "server overloaded (queue-full)".to_string(),
                },
            };
            wire::encode_response(&resp).map_err(|e| e.to_string())?
        } else {
            a.response.clone()
        };
        let t0 = Instant::now();
        let decoded = span(Some(t), "wire.decode", q as u64, None, |_| {
            wire::decode_response(&bytes)
        });
        dec.push(us(t0));
        black_box(decoded.map_err(|e| e.to_string())?);
        resp_bytes.push(bytes.len() as f64);
    }
    sheet.put("wire.encode_us", median(&enc), "us");
    sheet.put("wire.decode_us", median(&dec), "us");
    sheet.put("wire.request_bytes", mean(&req_bytes), "bytes");
    sheet.put("wire.response_bytes", mean(&resp_bytes), "bytes");

    let daemon = Daemon::spawn(&ctx.selectd, ctx.spool_dir("ping"))?;
    let mut client = WireClient::connect(daemon.addr).map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    for q in 0..200u64 {
        let t0 = Instant::now();
        let r = span(Some(t), "net.ping", q, None, |_| {
            client.call(&Request::Ping)
        });
        rtt.push(t0.elapsed().as_secs_f64() * 1e3);
        if !matches!(r, Ok(Response::Pong)) {
            return Err(format!("Ping answered {r:?}"));
        }
    }
    drop(client);
    daemon.drain()?;
    sheet.put("wire.ping_rtt_ms", median(&rtt), "ms");
    Ok(())
}

/// `planner`: one admission-time probe per planned list query.
fn planner_layer(sheet: &mut Sheet, w: &Workload, data: &Datasets, t: &Tracer) {
    let arch = v100();
    let cfg = SampleSelectConfig::default();
    let mut probe = Vec::new();
    for (q, it) in w.items.iter().enumerate().take(400) {
        let d = &data[&it.req.dataset];
        let t0 = Instant::now();
        let planned = span(Some(t), "planner.probe", q as u64, None, |_| {
            match it.req.kind {
                QueryKind::Exact { rank } => Some(plan_rank_query(&arch, d, rank as usize, &cfg)),
                QueryKind::TopK { k } => Some(plan_topk_query(&arch, d, k as usize, &cfg)),
                QueryKind::ApproxTopK { k, recall_bits } => {
                    let target = f64::from(f32::from_bits(recall_bits));
                    let (acfg, _) = plan_for_recall(d.len(), k as usize, target);
                    Some(plan_approx_topk_query(&arch, d, k as usize, &acfg, &cfg))
                }
                _ => None,
            }
        });
        if black_box(planned).is_some() {
            probe.push(us(t0));
        }
    }
    if probe.is_empty() {
        sheet.absent("planner.probe_us", "us", "the list has no planned kind");
    } else {
        sheet.put("planner.probe_us", median(&probe), "us");
    }
}

/// The four kernels of one SampleSelect level, called directly on each
/// dataset, then one whole query for the per-query counts.
fn kernel_layer(
    sheet: &mut Sheet,
    w: &Workload,
    data: &Datasets,
    pool: &ThreadPool,
    t: &Tracer,
) -> Result<(), String> {
    let cfg = SampleSelectConfig::default();
    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sim: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut launches, mut bytes, mut wall_per_sim) = (Vec::new(), Vec::new(), Vec::new());
    for (q, spec) in w.specs.iter().enumerate() {
        let d = &data[spec];
        let q = q as u64;
        let mut dev = Device::new(v100(), pool);
        let mut rng = SplitMix64::new(spec.seed);
        let t0 = Instant::now();
        let tree = span(Some(t), "kernel.sample", q, None, |_| {
            sample_kernel(&mut dev, d, &cfg, &mut rng, LaunchOrigin::Host)
        })
        .map_err(|e| e.to_string())?;
        wall.entry("sample").or_default().push(us(t0));
        let t0 = Instant::now();
        let count = span(Some(t), "kernel.count", q, None, |_| {
            count_kernel(&mut dev, d, &tree, &cfg, true, LaunchOrigin::Host)
        });
        wall.entry("count").or_default().push(us(t0));
        let t0 = Instant::now();
        let reduce = span(Some(t), "kernel.reduce", q, None, |_| {
            reduce_kernel(&mut dev, &count, LaunchOrigin::Host)
        });
        wall.entry("reduce").or_default().push(us(t0));
        let bucket = reduce.bucket_for_rank(spec.n / 2) as u32;
        let t0 = Instant::now();
        let kept = span(Some(t), "kernel.filter", q, None, |_| {
            filter_kernel(
                &mut dev,
                d,
                &count,
                &reduce,
                bucket..bucket + 1,
                &cfg,
                LaunchOrigin::Host,
            )
        });
        wall.entry("filter").or_default().push(us(t0));
        black_box(kept);
        let level = SelectReport::from_records("probe", d.len(), dev.records(), 1, false);
        for k in KERNELS {
            sim.entry(k).or_default().push(level.kernel_time(k).as_us());
        }

        dev.reset();
        let t0 = Instant::now();
        let whole = span(Some(t), "gpusim.query", q, None, |_| {
            sample_select_on_device(&mut dev, d, d.len() / 2, &cfg)
        })
        .map_err(|e| e.to_string())?;
        let wall_us = us(t0);
        let report = whole.report;
        launches.push(
            report
                .kernels
                .iter()
                .map(|k| k.launches as f64)
                .sum::<f64>(),
        );
        bytes.push(
            report
                .kernels
                .iter()
                .map(|k| k.cost.total_global_bytes() as f64)
                .sum::<f64>(),
        );
        wall_per_sim.push(wall_us / report.total_time.as_us().max(1e-9));
    }
    for k in KERNELS {
        sheet.put(format!("kernel.{k}.wall_us"), median(&wall[k]), "us");
    }
    for k in KERNELS {
        sheet.put(format!("kernel.{k}.sim_us"), median(&sim[k]), "sim_us");
    }
    sheet.put("kernel.launches_per_query", mean(&launches), "computed");
    sheet.put("kernel.bytes_moved_per_query", mean(&bytes), "computed-B");
    sheet.put("gpusim.wall_per_sim", median(&wall_per_sim), "us/sim_us");
    Ok(())
}

/// `verify`: `certify_rank` on each exact answer of the pass.
fn verify_layer(
    sheet: &mut Sheet,
    w: &Workload,
    p: &Pass,
    data: &Datasets,
    pool: &ThreadPool,
    t: &Tracer,
) -> Result<(), String> {
    let cfg = SampleSelectConfig::default();
    let mut dev = Device::new(v100(), pool);
    let mut times = Vec::new();
    for (q, (it, a)) in w.items.iter().zip(&p.answers).enumerate() {
        if let (QueryKind::Exact { rank }, Some(QueryStatus::Exact { value })) =
            (it.req.kind, &a.status)
        {
            let d = &data[&it.req.dataset];
            dev.reset();
            let t0 = Instant::now();
            span(Some(t), "verify.certify", q as u64, None, |_| {
                certify_rank(&mut dev, d, *value, rank as usize, &cfg, LaunchOrigin::Host)
            })
            .map_err(|e| format!("certify_rank rejected an exact answer: {e}"))?;
            times.push(us(t0));
            if times.len() == 100 {
                break;
            }
        }
    }
    if times.is_empty() {
        sheet.absent("verify.certify_us", "us", "no exact answer in the pass");
    } else {
        sheet.put("verify.certify_us", median(&times), "us");
    }
    Ok(())
}

/// `quantile_stream`: one loadgen-shaped stream over the first dataset,
/// with and without its checkpoint file.
fn qstream_layer(
    sheet: &mut Sheet,
    ctx: &Ctx,
    w: &Workload,
    data: &Datasets,
    pool: &ThreadPool,
    t: &Tracer,
) -> Result<(), String> {
    let spec = w.specs[0];
    let d = &data[&spec];
    let n = d.len();
    let qcfg = QuantileStreamConfig {
        probs: DEFAULT_PROBS.to_vec(),
        window: WindowSpec::sliding(n / 4, n / 4),
        select: SampleSelectConfig::default(),
    };
    let source = SliceChunks::new(d, 1 << 14);
    let ckpt = ctx
        .scratch
        .join(format!("qstream-probe-{}.ckpt", std::process::id()));
    let mut dev = Device::new(v100(), pool);
    let mut timed = |path: Option<&std::path::Path>, q: u64| {
        dev.reset();
        let t0 = Instant::now();
        let run = span(Some(t), "qstream.run", q, None, |_| {
            run_quantile_stream(&mut dev, &source, &qcfg, path, false)
        });
        (t0.elapsed().as_secs_f64() * 1e3, run)
    };
    let (plain_ms, plain) = timed(None, 0);
    let (ckpt_ms, with) = timed(Some(&ckpt), 1);
    let _ = std::fs::remove_file(&ckpt);
    plain.map_err(|e| e.to_string())?;
    let with = with.map_err(|e| e.to_string())?;
    let per_query = with.engine.checkpoint_bytes().len() * n.div_ceil(1 << 14);
    sheet.put(
        "qstream.checkpoint_bytes_per_query",
        per_query as f64,
        "bytes",
    );
    sheet.put("qstream.checkpoint_ms", ckpt_ms - plain_ms, "ms");
    Ok(())
}

/// `cpu` / `hpc-par`: host call latency per kind, the classify pass,
/// and recursion shape. host-lib reads its own pass; the serving
/// workloads replay up to ten list queries of each host-answerable kind.
fn host_layer(
    sheet: &mut Sheet,
    name: &str,
    w: &Workload,
    p: &Pass,
    data: &Datasets,
    pool: &ThreadPool,
    t: &Tracer,
) {
    let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut stats = Vec::new();
    if name == "host-lib" {
        for (it, a) in w.items.iter().zip(&p.answers) {
            per_kind
                .entry(kind_label(&it.req.kind))
                .or_default()
                .extend(a.latency_ms);
        }
        stats.clone_from(&p.host_stats);
    } else {
        for (q, it) in w.items.iter().enumerate() {
            let label = kind_label(&it.req.kind);
            let v = per_kind.entry(label).or_default();
            if v.len() >= 10 || !matches!(label, "exact" | "topk" | "quantiles" | "approx") {
                continue;
            }
            let t0 = Instant::now();
            let (_, s) = span(Some(t), "cpu.call", q as u64, None, |_| {
                black_box(host_call(pool, &data[&it.req.dataset], &it.req))
            });
            v.push(t0.elapsed().as_secs_f64() * 1e3);
            stats.extend(s);
        }
    }
    for (kind, metric) in [
        ("exact", "host.select_ms"),
        ("topk", "host.topk_ms"),
        ("quantiles", "host.multiselect_ms"),
        ("approx", "host.approx_ms"),
    ] {
        match per_kind.get(kind).filter(|v| !v.is_empty()) {
            Some(v) => sheet.put(metric, median(v), "ms"),
            None => sheet.absent(metric, "ms", "no list query maps to this host call"),
        }
    }

    let mut classify = Vec::new();
    for (q, spec) in w.specs.iter().enumerate() {
        let d = &data[spec];
        let mut rng = SplitMix64::new(spec.seed);
        let mut sample: Vec<f32> = (0..1024).map(|_| d[rng.next_below(d.len())]).collect();
        sampleselect::element::sort_elements(&mut sample);
        let splitters: Vec<f32> = (1..256).map(|i| sample[i * 4]).collect();
        let tree = SearchTree::build(&splitters);
        let mut out = vec![0u32; d.len()];
        let t0 = Instant::now();
        span(Some(t), "cpu.classify", q as u64, None, |_| {
            tree.lookup_batch(d, &mut out)
        });
        classify.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(&out);
    }
    sheet.put("host.classify_ms", median(&classify), "ms");
    let n = gen_n(w);
    let scan: Vec<f64> = stats
        .iter()
        .map(|s| s.elements_scanned as f64 / n)
        .collect();
    let levels: Vec<f64> = stats.iter().map(|s| f64::from(s.levels)).collect();
    sheet.put("host.scan_ratio", mean(&scan), "ratio");
    sheet.put("host.levels", mean(&levels), "count");
}

/// Queries of each kind the in-process server replay takes from the
/// list (all of a kind when it has fewer).
const REPLAY_PER_KIND: usize = 60;

/// The list cut to its first `per_kind` queries of each kind, in order.
fn per_kind_sample(w: &Workload, per_kind: usize) -> Workload {
    let mut taken: BTreeMap<&str, usize> = BTreeMap::new();
    let items = w
        .items
        .iter()
        .filter(|it| {
            let n = taken.entry(kind_label(&it.req.kind)).or_insert(0);
            *n += 1;
            *n <= per_kind
        })
        .cloned()
        .collect();
    Workload {
        specs: w.specs.clone(),
        warm_up: w.warm_up.clone(),
        items,
    }
}

fn gen_n(w: &Workload) -> f64 {
    w.specs.first().map_or(1.0, |s| s.n as f64)
}

fn wrong(outcomes: &[Outcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| matches!(o.verdict, Verdict::Wrong(_)))
        .count()
}

/// The traced run of `name`. `rerun` repeats the workload's pass with
/// spans; `untraced` is the pass measured with tracing off.
pub fn traced(
    ctx: &Ctx,
    name: &str,
    w: &Workload,
    untraced: &Pass,
    outcomes: &[Outcome],
    reference: &Reference,
    rerun: impl FnOnce(&Tracer) -> Result<Pass, String>,
) -> Result<Vec<Metric>, String> {
    let tracer = Tracer::new();
    let t = &tracer;
    let traced = rerun(t)?;
    let traced_outcomes = judge(w, &traced, reference);
    if wrong(&traced_outcomes) > 0 {
        return Err("the traced pass returned wrong answers".to_string());
    }
    let mut sheet = Sheet {
        metrics: Vec::new(),
        absent: Vec::new(),
    };

    let data = span(Some(t), "dataset.all", 0, None, |_| {
        instantiate_all(&w.specs)
    });
    let pool = ThreadPool::new(1);

    wire_layer(&mut sheet, ctx, w, untraced, t)?;
    if name == "serve-overload" {
        server_layer(&mut sheet, w, untraced);
    } else {
        let sample = per_kind_sample(w, REPLAY_PER_KIND);
        let replay = crate::serve::replay_in_process(&sample, ctx.spool_dir("replay"))?;
        if wrong(&judge(&sample, &replay, reference)) > 0 {
            return Err("the in-process replay returned wrong answers".to_string());
        }
        server_layer(&mut sheet, &sample, &replay);
    }
    let mut inst = Vec::new();
    for (q, spec) in w.specs.iter().enumerate() {
        let t0 = Instant::now();
        black_box(span(Some(t), "dataset.instantiate", q as u64, None, |_| {
            dataset::instantiate(spec)
        }));
        inst.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    sheet.put("dataset.instantiate_ms", median(&inst), "ms");
    planner_layer(&mut sheet, w, &data, t);
    kernel_layer(&mut sheet, w, &data, &pool, t)?;
    verify_layer(&mut sheet, w, untraced, &data, &pool, t)?;
    qstream_layer(&mut sheet, ctx, w, &data, &pool, t)?;
    host_layer(&mut sheet, name, w, untraced, &data, &pool, t);
    if untraced.late_ms.is_empty() {
        sheet.absent(
            "gen.late_ms_p99",
            "ms",
            "closed loop: nothing is due on a schedule",
        );
    } else {
        sheet.put(
            "gen.late_ms_p99",
            percentile(&sorted(untraced.late_ms.clone()), 0.99),
            "ms",
        );
    }

    let p50 = |o: &[Outcome]| {
        percentile(
            &sorted(o.iter().filter_map(|x| x.latency_ms).collect()),
            0.5,
        )
    };
    sheet.put(
        "trace.overhead_ms",
        p50(&traced_outcomes) - p50(outcomes),
        "ms",
    );
    sheet.put("trace.spans", tracer.spans().len() as f64, "count");
    let by_layer = tracer.self_ms_by_layer();
    for layer in LAYERS {
        sheet.put(
            format!("self_ms.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }

    let path = ctx
        .scratch
        .join(format!("trace-{name}-seed{}.json", ctx.seed));
    tracer
        .write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    for a in &sheet.absent {
        eprintln!("absent (reported as 0): {a}");
    }
    Ok(sheet.metrics)
}
