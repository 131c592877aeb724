//! The `selectd` binary over a real TCP socket: round-trip latency of
//! small frames, one exact query checked against the reference, a
//! clean drain, and the exit code of a malformed flag value (for
//! `selectcli` and `loadgen` too).
//!
//! The client here connects with default socket options (Nagle on), so
//! the latency bound holds only if every frame leaves in one write and
//! the daemon sets `TCP_NODELAY` on its side.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::server::dataset::{self, DatasetSpec};
use gpu_selection::sampleselect::server::wire::{self, Request, Response};
use gpu_selection::sampleselect::{QueryKind, QueryRequest, QueryStatus};

const SELECTD: &str = env!("CARGO_BIN_EXE_selectd");

/// A running `selectd`, killed on drop unless it already exited.
struct Daemon {
    child: Child,
    addr: String,
    spool: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let spool =
            std::env::temp_dir().join(format!("selectd-tcp-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&spool).expect("create spool dir");
        let mut child = Command::new(SELECTD)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--spool"])
            .arg(&spool)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn selectd");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read selectd banner");
        let addr = line
            .trim()
            .strip_prefix("selectd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Daemon { child, addr, spool }
    }

    /// Connect with default socket options, as a plain client would.
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to selectd");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

fn call(stream: &mut TcpStream, req: &Request) -> Response {
    wire::write_frame(stream, &wire::encode_request(req).unwrap()).expect("send frame");
    let payload = wire::read_frame(stream)
        .expect("read frame")
        .expect("selectd closed the connection");
    wire::decode_response(&payload).expect("decode response")
}

#[test]
fn small_frames_round_trip_without_a_delayed_ack_stall() {
    let mut daemon = Daemon::start("rtt");
    let mut stream = daemon.connect();

    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(call(&mut stream, &Request::Ping), Response::Pong);
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    // Nagle holding a frame's second write until the delayed ACK costs
    // >= 40 ms per round trip; one write per frame costs microseconds.
    assert!(
        median < Duration::from_millis(10),
        "median ping round trip {median:?}"
    );

    let spec = DatasetSpec::uniform(1 << 14, 0x7c9);
    let rank = 5_000u64;
    let want = reference_select(&dataset::instantiate(&spec), rank as usize).unwrap();
    let query = Request::Query(QueryRequest {
        tenant: "tcp".to_string(),
        kind: QueryKind::Exact { rank },
        dataset: spec,
        deadline_ms: None,
        seed: 3,
    });
    match call(&mut stream, &query) {
        Response::Done {
            status: QueryStatus::Exact { value },
            ..
        } => assert_eq!(value.to_bits(), want.to_bits()),
        other => panic!("expected an exact answer, got {other:?}"),
    }

    match call(&mut stream, &Request::Drain) {
        Response::Drained { .. } => {}
        other => panic!("expected the drain snapshot, got {other:?}"),
    }
    let status = daemon.child.wait().expect("wait for selectd");
    assert_eq!(status.code(), Some(0), "selectd exit status");
}

#[test]
fn bad_flag_value_exits_2_without_panicking() {
    for (bin, flag) in [
        (SELECTD, "--workers"),
        (env!("CARGO_BIN_EXE_selectcli"), "--n"),
        (env!("CARGO_BIN_EXE_loadgen"), "--workers"),
    ] {
        let out = Command::new(bin)
            .args([flag, "x"])
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} stderr: {stderr}");
        assert!(
            stderr.contains(&format!("bad value for {flag}: x")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn rejected_queries_exit_2_without_panicking() {
    for args in [
        &["--algo", "shard", "--shards", "0", "--n", "4096"][..],
        &["--algo", "shard", "--shards", "1001", "--n", "1000"],
        &[
            "--algo",
            "shard",
            "--shards",
            "18446744073709551615",
            "--n",
            "1000",
        ],
        &["--buckets", "0", "--n", "4096"],
        &["--algo", "radix", "--buckets", "0", "--n", "4096"],
        &["--n", "0"],
        &["--n", "10", "--rank", "50"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_selectcli"))
            .args(args)
            .output()
            .expect("run selectcli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("failed: "), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
    }
}
