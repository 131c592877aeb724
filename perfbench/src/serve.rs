//! The two serving workloads, and the in-process replay the traced run
//! uses to read server-side timings.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sampleselect::obs::MetricsSnapshot;
use sampleselect::server::wire::{self, Request, Response};
use sampleselect::{QueryStatus, QuotaConfig, SelectError, SelectServer, ServerConfig};

use crate::client::WireClient;
use crate::daemon::Daemon;
use crate::gen::{Item, Workload};
use crate::stats::vm_hwm_mib;
use crate::trace::{span, Tracer};
use crate::{set_up, Answer, Ctx, Pass, DAEMON_SETUP_REPS, SETUP_REPS};

/// Connections (closed-loop clients) of serve-mixed, one per worker.
pub const CLIENTS: usize = 2;

fn sim_kernel_ns(snap: &MetricsSnapshot) -> f64 {
    snap.histograms
        .iter()
        .find(|h| h.name == "select_kernel_duration_ns")
        .map_or(0.0, |h| h.sum as f64)
}

/// `select_kernel_duration_ns` sum from a `Stats` snapshot JSON.
fn sim_kernel_ns_json(json: &str) -> Result<f64, String> {
    let doc = gpu_sim::jsonv::parse(json).map_err(|e| format!("Stats JSON: {e:?}"))?;
    doc.get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("select_kernel_duration_ns"))
        .and_then(|h| h.get("sum"))
        .and_then(|s| s.as_num())
        .ok_or_else(|| "Stats JSON lacks select_kernel_duration_ns".to_string())
}

fn answered(answers: &[Answer]) -> usize {
    answers.iter().filter(|a| a.status.is_some()).count().max(1)
}

/// One closed-loop client over TCP: queries `c, c + CLIENTS, …` of the
/// list, each sent after the previous answer arrived.
fn tcp_client(
    addr: std::net::SocketAddr,
    items: &[Item],
    c: usize,
    start: Instant,
    tracer: Option<&Tracer>,
) -> Result<Vec<(usize, Answer)>, String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::with_capacity(items.len() / CLIENTS + 1);
    for i in (c..items.len()).step_by(CLIENTS) {
        let q = i as u64;
        let t0 = Instant::now();
        let (payload, bytes, resp) = span(tracer, "client.query", q, None, |root| {
            let payload = span(tracer, "wire.encode", q, root, |_| {
                wire::encode_request(&Request::Query(items[i].req.clone()))
            })
            .map_err(|e| e.to_string())?;
            let bytes = span(tracer, "net.roundtrip", q, root, |_| {
                client.call_raw(&payload)
            })
            .map_err(|e| format!("query {i}: {e}"))?;
            let resp = span(tracer, "wire.decode", q, root, |_| {
                wire::decode_response(&bytes)
            })
            .map_err(|e| e.to_string())?;
            Ok::<_, String>((payload, bytes, resp))
        })?;
        let t1 = Instant::now();
        let status = match resp {
            Response::Done { status, .. } => Some(status),
            Response::Rejected { .. } => None,
            other => return Err(format!("query {i} answered {other:?}")),
        };
        out.push((
            i,
            Answer {
                status,
                latency_ms: Some((t1 - t0).as_secs_f64() * 1e3),
                due_s: (t0 - start).as_secs_f64(),
                done_s: (t1 - start).as_secs_f64(),
                request_bytes: payload.len(),
                response: bytes,
                ..Answer::default()
            },
        ));
    }
    Ok(out)
}

fn merge(len: usize, parts: Vec<Vec<(usize, Answer)>>) -> Vec<Answer> {
    let mut answers = vec![Answer::default(); len];
    for (i, a) in parts.into_iter().flatten() {
        answers[i] = a;
    }
    answers
}

/// serve-mixed: the release `selectd` over TCP, two closed-loop
/// connections on two workers.
pub fn mixed(ctx: &Ctx, w: &Workload, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let mut rep = 0;
    let mut make = || {
        rep += 1;
        let d = Daemon::spawn(&ctx.selectd, ctx.spool_dir(&format!("mixed-{rep}")))?;
        let mut client = WireClient::connect(d.addr).map_err(|e| format!("connect: {e}"))?;
        for req in &w.warm_up {
            match client.call(&Request::Query(req.clone())) {
                Ok(Response::Done { .. }) => {}
                other => return Err(format!("warm-up query answered {other:?}")),
            }
        }
        Ok(d)
    };
    let mut retire = |d: Daemon| d.drain().map(drop);
    let reps = DAEMON_SETUP_REPS;
    let daemon = set_up(reps - reps / 2, &mut setups, &mut make, &mut retire)?;

    let sim_before = sim_kernel_ns_json(&daemon.stats()?)?;
    let start = Instant::now();
    let addr = daemon.addr;
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || tcp_client(addr, &w.items, c, start, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let answers = merge(w.items.len(), parts);
    let sim_after = sim_kernel_ns_json(&daemon.stats()?)?;
    let peak_rss_mib = vm_hwm_mib(Some(daemon.pid())).unwrap_or(0.0);
    daemon.drain()?;
    let last = set_up(reps / 2, &mut setups, &mut make, &mut retire)?;
    retire(last)?;
    Ok(Pass {
        sim_us_per_query: (sim_after - sim_before) / 1e3 / answered(&answers) as f64,
        answers,
        setups,
        peak_rss_mib,
        ..Pass::default()
    })
}

fn in_process_server(cfg: ServerConfig, w: &Workload) -> Result<SelectServer, String> {
    let server = SelectServer::start(cfg);
    for req in &w.warm_up {
        server
            .query(req.clone())
            .map_err(|e| format!("warm-up query refused: {e}"))?;
    }
    Ok(server)
}

/// serve-overload: an in-process server with the default configuration
/// under open-loop arrivals. Latency counts from each query's due time.
pub fn overload(w: &Workload, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let mut make = || in_process_server(ServerConfig::default(), w);
    let mut retire = |s: SelectServer| {
        s.drain();
        Ok(())
    };
    let server = set_up(
        SETUP_REPS - SETUP_REPS / 2,
        &mut setups,
        &mut make,
        &mut retire,
    )?;

    let sim_before = sim_kernel_ns(&server.registry().snapshot());
    let mut answers = vec![Answer::default(); w.items.len()];
    let mut late_ms = Vec::with_capacity(w.items.len());
    let mut pending = Vec::with_capacity(w.items.len());
    let start = Instant::now();
    for (i, it) in w.items.iter().enumerate() {
        let due = start + Duration::from_secs_f64(it.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t_call = Instant::now();
        late_ms.push(t_call.saturating_duration_since(due).as_secs_f64() * 1e3);
        let submitted = span(tracer, "server.submit", i as u64, None, |_| {
            server.submit(it.req.clone())
        });
        let t_ret = Instant::now();
        let submit_us = Some((t_ret - t_call).as_secs_f64() * 1e6);
        let done_s = (t_ret - start).as_secs_f64();
        match submitted {
            Ok(ticket) => pending.push((i, ticket, t_ret, submit_us)),
            Err(e) => {
                answers[i] = Answer {
                    status: match e {
                        SelectError::Overloaded { .. } => None,
                        other => Some(QueryStatus::Failed {
                            message: other.to_string(),
                        }),
                    },
                    due_s: it.due_s,
                    done_s,
                    submit_us,
                    ..Answer::default()
                }
            }
        }
    }
    for (i, ticket, t_ret, submit_us) in pending {
        let r = ticket.wait();
        // The server stamps its own queue wait and service time; the
        // answer was ready that long after `submit` returned.
        let done_s = (t_ret - start).as_secs_f64() + (r.wait_ms + r.service_ms) / 1e3;
        let due_s = w.items[i].due_s;
        answers[i] = Answer {
            status: Some(r.status),
            latency_ms: Some((done_s - due_s) * 1e3),
            due_s,
            done_s,
            wait_ms: Some(r.wait_ms),
            service_ms: Some(r.service_ms),
            submit_us,
            ..Answer::default()
        };
    }
    let peak_rss_mib = vm_hwm_mib(None).unwrap_or(0.0);
    let snapshot = server.drain().metrics;
    let last = set_up(SETUP_REPS / 2, &mut setups, &mut make, &mut retire)?;
    retire(last)?;
    Ok(Pass {
        sim_us_per_query: (sim_kernel_ns(&snapshot) - sim_before) / 1e3 / answered(&answers) as f64,
        answers,
        setups,
        peak_rss_mib,
        late_ms,
        snapshot: Some(snapshot),
        ..Pass::default()
    })
}

/// The list replayed closed-loop through an in-process server (two
/// submitters, quotas opened), keeping each answer's server-side
/// timings. The traced run reads the server layers from it.
pub fn replay_in_process(w: &Workload, spool: PathBuf) -> Result<Pass, String> {
    std::fs::create_dir_all(&spool).map_err(|e| format!("spool {}: {e}", spool.display()))?;
    let cfg = ServerConfig {
        quota: QuotaConfig {
            burst: 1e9,
            refill_per_sec: 1e9,
        },
        spool_dir: Some(spool.clone()),
        ..ServerConfig::default()
    };
    let server = Arc::new(in_process_server(cfg, w)?);
    let start = Instant::now();
    let parts: Vec<Vec<(usize, Answer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    (c..w.items.len())
                        .step_by(CLIENTS)
                        .map(|i| {
                            let t0 = Instant::now();
                            let ticket = server.submit(w.items[i].req.clone());
                            let t_ret = Instant::now();
                            let submit_us = Some((t_ret - t0).as_secs_f64() * 1e6);
                            let mut a = Answer {
                                due_s: (t0 - start).as_secs_f64(),
                                submit_us,
                                ..Answer::default()
                            };
                            if let Ok(ticket) = ticket {
                                let r = ticket.wait();
                                let t1 = Instant::now();
                                a.status = Some(r.status);
                                a.latency_ms = Some((t1 - t0).as_secs_f64() * 1e3);
                                a.wait_ms = Some(r.wait_ms);
                                a.service_ms = Some(r.service_ms);
                            }
                            a.done_s = (Instant::now() - start).as_secs_f64();
                            (i, a)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let snapshot = server.drain().metrics;
    let _ = std::fs::remove_dir_all(&spool);
    Ok(Pass {
        answers: merge(w.items.len(), parts),
        snapshot: Some(snapshot),
        ..Pass::default()
    })
}
