//! `selectd` — the selection service daemon.
//!
//! Boots a [`SelectServer`] (warm pooled devices, bounded admission,
//! per-tenant quotas, deadline degradation, circuit breaking, batching)
//! and speaks the length-prefixed wire protocol of
//! [`sampleselect::server::wire`] over TCP.
//!
//! ```text
//! cargo run --release --bin selectd -- \
//!     [--addr 127.0.0.1:7411] [--workers 2] [--worker-threads 1] \
//!     [--queue-cap 64] [--quota-burst 32] [--quota-refill 256] \
//!     [--batch-max 8] [--breaker-threshold 3] [--breaker-probe 8] \
//!     [--fault-worker W --fault-rate R --fault-seed S] \
//!     [--spool DIR] [--max-n N]
//! ```
//!
//! Every frame leaves in one write and every accepted socket sets
//! `TCP_NODELAY`, so no response waits on Nagle for the client's
//! delayed ACK (~40 ms per round trip).
//!
//! One connection handles one request at a time (pipelining across
//! queries is the server's job, not the socket's); open several
//! connections for concurrent in-flight queries. A `Drain` request
//! gracefully shuts the whole daemon down and answers with the final
//! metrics snapshot.
//!
//! `--fault-worker` arms a fault plan on that worker's primary device —
//! the supported way to watch the circuit breaker quarantine a flaky
//! device in a live system (used by the `selectd-smoke` CI job).

use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::Arc;

use gpu_selection::cli::Flags;
use gpu_selection::gpu_sim::FaultPlan;
use gpu_selection::sampleselect::server::wire;
use gpu_selection::sampleselect::{SelectServer, ServerConfig};

const HELP: &str = "selectd [--addr HOST:PORT] [--workers N] [--worker-threads N] \
[--queue-cap N] [--quota-burst F] [--quota-refill F] [--batch-max N] \
[--breaker-threshold N] [--breaker-probe N] \
[--fault-worker W [--fault-rate R] [--fault-seed S]] [--spool DIR] [--max-n N]";

struct Args {
    addr: String,
    cfg: ServerConfig,
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut cfg = ServerConfig::default();
    let mut fault_worker: Option<usize> = None;
    let mut fault_rate = 1.0f64;
    let mut fault_seed = 7u64;
    let mut flags = Flags::new(HELP);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--addr" => addr = flags.value(&flag),
            "--workers" => cfg.workers = flags.parse(&flag),
            "--worker-threads" => cfg.worker_threads = flags.parse(&flag),
            "--queue-cap" => cfg.queue_capacity = flags.parse(&flag),
            "--quota-burst" => cfg.quota.burst = flags.parse(&flag),
            "--quota-refill" => cfg.quota.refill_per_sec = flags.parse(&flag),
            "--batch-max" => cfg.batch_max = flags.parse(&flag),
            "--breaker-threshold" => cfg.breaker.failure_threshold = flags.parse(&flag),
            "--breaker-probe" => cfg.breaker.probe_after = flags.parse(&flag),
            "--fault-worker" => fault_worker = Some(flags.parse(&flag)),
            "--fault-rate" => fault_rate = flags.parse(&flag),
            "--fault-seed" => fault_seed = flags.parse(&flag),
            "--spool" => cfg.spool_dir = Some(flags.value(&flag).into()),
            "--max-n" => cfg.max_dataset_elems = flags.parse(&flag),
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
    if let Some(w) = fault_worker {
        cfg = cfg.with_fault_plan(w, FaultPlan::new(fault_seed).launch_failures(fault_rate));
        eprintln!(
            "fault injection armed on worker {w} (rate {fault_rate}, seed {fault_seed}) — \
             expect the circuit breaker to quarantine it"
        );
    }
    Args { addr, cfg }
}

fn handle_connection(mut stream: TcpStream, server: Arc<SelectServer>) {
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("cannot set TCP_NODELAY: {e}");
    }
    loop {
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // peer closed cleanly
            Err(e) => {
                eprintln!("connection error: {e}");
                return;
            }
        };
        let request = match wire::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Protocol errors are unrecoverable mid-stream: answer
                // once, then drop the connection.
                let resp = wire::Response::Rejected {
                    reason: e.to_string(),
                };
                if let Ok(bytes) = wire::encode_response(&resp) {
                    let _ = wire::write_frame(&mut stream, &bytes);
                }
                return;
            }
        };
        let response = match request {
            wire::Request::Ping => wire::Response::Pong,
            wire::Request::Stats => wire::Response::Stats {
                json: server.snapshot().to_json(),
            },
            wire::Request::Query(q) => match server.query(q) {
                Ok(r) => wire::Response::Done {
                    status: r.status,
                    batched: r.batched,
                },
                Err(e) => wire::Response::Rejected {
                    reason: e.to_string(),
                },
            },
            wire::Request::Drain => {
                let snapshot = server.drain();
                let resp = wire::Response::Drained {
                    json: snapshot.to_json(),
                };
                if let Ok(bytes) = wire::encode_response(&resp) {
                    let _ = wire::write_frame(&mut stream, &bytes);
                }
                eprintln!(
                    "selectd drained: {} queries served",
                    snapshot.queries_served
                );
                exit(0);
            }
        };
        match wire::encode_response(&response) {
            Ok(bytes) => {
                if wire::write_frame(&mut stream, &bytes).is_err() {
                    return;
                }
            }
            Err(e) => {
                eprintln!("encode error: {e}");
                return;
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let listener = TcpListener::bind(&args.addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", args.addr);
        exit(1);
    });
    let local = listener.local_addr().expect("bound socket has an address");
    let server = Arc::new(SelectServer::start(args.cfg));
    // CI and scripts parse this line for the actual port (`--addr
    // host:0` binds an ephemeral one).
    println!("selectd listening on {local}");

    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let server = Arc::clone(&server);
                std::thread::spawn(move || handle_connection(stream, server));
            }
            Err(e) => eprintln!("accept failed: {e}"),
        }
    }
}
