//! `selectd` wire protocol: length-prefixed binary frames.
//!
//! Deliberately tiny — no serde, no external deps, no self-describing
//! schema. Every frame is a `u32` big-endian payload length followed by
//! the payload; every payload starts with a protocol version byte. The
//! codec is pure (`encode_*`/`decode_*` on byte slices) so it can be
//! unit-tested without sockets, and [`read_frame`]/[`write_frame`] wrap
//! it for any `Read`/`Write` transport.
//!
//! Queries name their dataset by [`DatasetSpec`] — clients never ship
//! element data, which keeps frames O(bytes) while the server selects
//! over O(gigabytes).

use std::io::{self, Read, Write};

use super::dataset::{DatasetSpec, DistCode};
use super::{QueryKind, QueryRequest, QueryStatus};

/// Protocol version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame payload; anything larger is a protocol error
/// (the protocol never legitimately ships datasets).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

// Request opcodes.
const OP_QUERY: u8 = 1;
const OP_STATS: u8 = 2;
const OP_DRAIN: u8 = 3;
const OP_PING: u8 = 4;

// Query kind codes.
const KIND_EXACT: u8 = 0;
const KIND_APPROX: u8 = 1;
const KIND_TOPK: u8 = 2;
const KIND_QUANTILES: u8 = 3;
const KIND_STREAM: u8 = 4;
const KIND_APPROX_TOPK: u8 = 5;
const KIND_QUANTILE_STREAM: u8 = 6;

// Response status codes.
const ST_EXACT: u8 = 0;
const ST_APPROX: u8 = 1;
const ST_REJECTED: u8 = 2;
const ST_FAILED: u8 = 3;
const ST_TOPK: u8 = 4;
const ST_QUANTILES: u8 = 5;
const ST_CHECKPOINTED: u8 = 6;
const ST_PONG: u8 = 7;
const ST_STATS: u8 = 8;
const ST_DRAINED: u8 = 9;
const ST_APPROX_TOPK: u8 = 10;
const ST_QUANTILE_STREAM: u8 = 11;

/// A decoded client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Query(QueryRequest),
    /// Live snapshot request.
    Stats,
    /// Graceful drain; the server answers with the final snapshot and
    /// closes.
    Drain,
    Ping,
}

/// A decoded server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of an admitted query, plus whether it was served from a
    /// merged batch.
    Done {
        status: QueryStatus,
        batched: bool,
    },
    /// The query was refused at admission (`SelectError::Overloaded` or
    /// a validation error); `reason` is the rendered error.
    Rejected {
        reason: String,
    },
    /// Snapshot JSON for a `Stats` request.
    Stats {
        json: String,
    },
    /// Final snapshot JSON for a `Drain` request.
    Drained {
        json: String,
    },
    Pong,
}

/// Malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError {
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// Primitive cursors
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError {
            message: "truncated frame (u8)".to_string(),
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let hi = u64::from(self.u32()?);
        let lo = u64::from(self.u32()?);
        Ok((hi << 32) | lo)
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        self.bytes(len).and_then(|b| match std::str::from_utf8(b) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err("invalid utf-8 in string"),
        })
    }

    fn str32(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        self.bytes(len).and_then(|b| match std::str::from_utf8(b) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err("invalid utf-8 in string"),
        })
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if len > self.buf.len() - self.pos {
            return err("truncated frame (bytes)");
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            err(format!(
                "trailing garbage: {} bytes after payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    if s.len() > u16::MAX as usize {
        return err("string too long for u16 length prefix");
    }
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Encode a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Result<Vec<u8>, WireError> {
    let mut out = vec![WIRE_VERSION];
    match req {
        Request::Query(q) => {
            out.push(OP_QUERY);
            let (kind, a, b) = match q.kind {
                QueryKind::Exact { rank } => (KIND_EXACT, rank, 0),
                QueryKind::Approx { rank } => (KIND_APPROX, rank, 0),
                QueryKind::TopK { k } => (KIND_TOPK, k, 0),
                QueryKind::Quantiles { q } => (KIND_QUANTILES, q, 0),
                QueryKind::Stream { rank, chunk_len } => (KIND_STREAM, rank, chunk_len),
                QueryKind::ApproxTopK { k, recall_bits } => {
                    (KIND_APPROX_TOPK, k, u64::from(recall_bits))
                }
                QueryKind::QuantileStream {
                    window_len,
                    slide,
                    chunk_len,
                } => {
                    // The window rides one u64 slot as two u32 halves;
                    // admission bounds both to u32, the codec enforces
                    // it for hand-built requests too.
                    if window_len > u64::from(u32::MAX) || slide > u64::from(u32::MAX) {
                        return err("quantile-stream window exceeds u32 wire slot");
                    }
                    (KIND_QUANTILE_STREAM, (window_len << 32) | slide, chunk_len)
                }
            };
            out.push(kind);
            put_str16(&mut out, &q.tenant)?;
            out.push(q.dataset.dist as u8);
            put_u64(&mut out, q.dataset.n);
            put_u64(&mut out, q.dataset.seed);
            put_u64(&mut out, a);
            put_u64(&mut out, b);
            put_u32(&mut out, q.deadline_ms.unwrap_or(0));
            put_u64(&mut out, q.seed);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Drain => out.push(OP_DRAIN),
        Request::Ping => out.push(OP_PING),
    }
    Ok(out)
}

/// Decode a request payload (no length prefix).
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return err(format!("unsupported protocol version {version}"));
    }
    let op = r.u8()?;
    let req = match op {
        OP_QUERY => {
            let kind_code = r.u8()?;
            let tenant = r.str16()?;
            let dist = r.u8()?;
            let dist = DistCode::from_u8(dist).ok_or(WireError {
                message: format!("unknown distribution code {dist}"),
            })?;
            let n = r.u64()?;
            let seed = r.u64()?;
            let a = r.u64()?;
            let b = r.u64()?;
            let deadline = r.u32()?;
            let query_seed = r.u64()?;
            let kind = match kind_code {
                KIND_EXACT => QueryKind::Exact { rank: a },
                KIND_APPROX => QueryKind::Approx { rank: a },
                KIND_TOPK => QueryKind::TopK { k: a },
                KIND_QUANTILES => QueryKind::Quantiles { q: a },
                KIND_STREAM => QueryKind::Stream {
                    rank: a,
                    chunk_len: b,
                },
                KIND_APPROX_TOPK => {
                    if b > u64::from(u32::MAX) {
                        return err("recall bits exceed u32");
                    }
                    QueryKind::ApproxTopK {
                        k: a,
                        recall_bits: b as u32,
                    }
                }
                KIND_QUANTILE_STREAM => QueryKind::QuantileStream {
                    window_len: a >> 32,
                    slide: a & 0xFFFF_FFFF,
                    chunk_len: b,
                },
                other => return err(format!("unknown query kind {other}")),
            };
            Request::Query(QueryRequest {
                tenant,
                kind,
                dataset: DatasetSpec { dist, n, seed },
                deadline_ms: if deadline == 0 { None } else { Some(deadline) },
                seed: query_seed,
            })
        }
        OP_STATS => Request::Stats,
        OP_DRAIN => Request::Drain,
        OP_PING => Request::Ping,
        other => return err(format!("unknown opcode {other}")),
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Encode a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, WireError> {
    let mut out = vec![WIRE_VERSION];
    match resp {
        Response::Done { status, batched } => {
            match status {
                QueryStatus::Exact { value } => {
                    out.push(ST_EXACT);
                    put_u32(&mut out, value.to_bits());
                }
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                    deadline_degraded,
                } => {
                    out.push(ST_APPROX);
                    put_u32(&mut out, value.to_bits());
                    put_u64(&mut out, *achieved_rank);
                    put_u64(&mut out, *rank_error);
                    out.push(u8::from(*deadline_degraded));
                }
                QueryStatus::TopK { threshold, k } => {
                    out.push(ST_TOPK);
                    put_u32(&mut out, threshold.to_bits());
                    put_u64(&mut out, *k);
                }
                QueryStatus::Quantiles { values } => {
                    out.push(ST_QUANTILES);
                    put_u32(&mut out, values.len() as u32);
                    for v in values {
                        put_u32(&mut out, v.to_bits());
                    }
                }
                QueryStatus::ApproxTopK {
                    threshold,
                    k,
                    expected_recall,
                } => {
                    out.push(ST_APPROX_TOPK);
                    put_u32(&mut out, threshold.to_bits());
                    put_u64(&mut out, *k);
                    put_u32(&mut out, expected_recall.to_bits());
                }
                QueryStatus::QuantileStream { windows, values } => {
                    out.push(ST_QUANTILE_STREAM);
                    put_u64(&mut out, *windows);
                    put_u32(&mut out, values.len() as u32);
                    for v in values {
                        put_u32(&mut out, v.to_bits());
                    }
                }
                QueryStatus::Checkpointed { resume_token } => {
                    out.push(ST_CHECKPOINTED);
                    put_str16(&mut out, resume_token)?;
                }
                QueryStatus::Failed { message } => {
                    out.push(ST_FAILED);
                    put_str16(&mut out, message)?;
                }
            }
            out.push(u8::from(*batched));
        }
        Response::Rejected { reason } => {
            out.push(ST_REJECTED);
            put_str16(&mut out, reason)?;
        }
        Response::Stats { json } => {
            out.push(ST_STATS);
            put_str32(&mut out, json);
        }
        Response::Drained { json } => {
            out.push(ST_DRAINED);
            put_str32(&mut out, json);
        }
        Response::Pong => out.push(ST_PONG),
    }
    Ok(out)
}

/// Decode a response payload (no length prefix).
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return err(format!("unsupported protocol version {version}"));
    }
    let st = r.u8()?;
    let resp = match st {
        ST_EXACT => {
            let value = r.f32()?;
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::Exact { value },
                batched,
            }
        }
        ST_APPROX => {
            let value = r.f32()?;
            let achieved_rank = r.u64()?;
            let rank_error = r.u64()?;
            let deadline_degraded = r.u8()? != 0;
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                    deadline_degraded,
                },
                batched,
            }
        }
        ST_TOPK => {
            let threshold = r.f32()?;
            let k = r.u64()?;
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::TopK { threshold, k },
                batched,
            }
        }
        ST_QUANTILES => {
            let count = r.u32()? as usize;
            if count > (MAX_FRAME_LEN as usize) / 4 {
                return err("quantile count exceeds frame bound");
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.f32()?);
            }
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::Quantiles { values },
                batched,
            }
        }
        ST_APPROX_TOPK => {
            let threshold = r.f32()?;
            let k = r.u64()?;
            let expected_recall = r.f32()?;
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::ApproxTopK {
                    threshold,
                    k,
                    expected_recall,
                },
                batched,
            }
        }
        ST_QUANTILE_STREAM => {
            let windows = r.u64()?;
            let count = r.u32()? as usize;
            if count > (MAX_FRAME_LEN as usize) / 4 {
                return err("quantile count exceeds frame bound");
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.f32()?);
            }
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::QuantileStream { windows, values },
                batched,
            }
        }
        ST_CHECKPOINTED => {
            let resume_token = r.str16()?;
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::Checkpointed { resume_token },
                batched,
            }
        }
        ST_FAILED => {
            let message = r.str16()?;
            let batched = r.u8()? != 0;
            Response::Done {
                status: QueryStatus::Failed { message },
                batched,
            }
        }
        ST_REJECTED => Response::Rejected { reason: r.str16()? },
        ST_STATS => Response::Stats { json: r.str32()? },
        ST_DRAINED => Response::Drained { json: r.str32()? },
        ST_PONG => Response::Pong,
        other => return err(format!("unknown status code {other}")),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing over Read/Write
// ---------------------------------------------------------------------

/// Write one length-prefixed frame in a single `write_all`.
///
/// The header and payload leave together: written separately, the
/// payload of a small frame waits behind the header for the peer's
/// delayed ACK on any socket without `TCP_NODELAY` (Nagle), which costs
/// ~40 ms per round trip.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `None` on a clean EOF at a
/// frame boundary (peer closed the connection).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(&resp).unwrap();
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Drain);
        for kind in [
            QueryKind::Exact { rank: 12_345 },
            QueryKind::Approx { rank: 1 },
            QueryKind::TopK { k: 100 },
            QueryKind::Quantiles { q: 10 },
            QueryKind::Stream {
                rank: 7,
                chunk_len: 4096,
            },
            QueryKind::ApproxTopK {
                k: 65_536,
                recall_bits: 0.99f32.to_bits(),
            },
            QueryKind::QuantileStream {
                window_len: 4096,
                slide: 1024,
                chunk_len: 8192,
            },
            // window/slide at the u32 packing boundary
            QueryKind::QuantileStream {
                window_len: u64::from(u32::MAX),
                slide: u64::from(u32::MAX),
                chunk_len: 1,
            },
        ] {
            roundtrip_request(Request::Query(QueryRequest {
                tenant: "tenant-α".to_string(),
                kind,
                dataset: DatasetSpec {
                    dist: DistCode::Normal,
                    n: 1 << 20,
                    seed: 0xDEAD_BEEF,
                },
                deadline_ms: Some(250),
                seed: 42,
            }));
        }
        // deadline 0 on the wire means "no deadline"
        roundtrip_request(Request::Query(QueryRequest {
            tenant: String::new(),
            kind: QueryKind::Exact { rank: 0 },
            dataset: DatasetSpec::uniform(8, 1),
            deadline_ms: None,
            seed: 0,
        }));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Rejected {
            reason: "server overloaded (quota): tenant `t` rejected".to_string(),
        });
        roundtrip_response(Response::Stats {
            json: "{\"x\": 1}".to_string(),
        });
        roundtrip_response(Response::Drained {
            json: "{}".to_string(),
        });
        for status in [
            QueryStatus::Exact { value: 3.25 },
            QueryStatus::Approximate {
                value: -0.5,
                achieved_rank: 99,
                rank_error: 3,
                deadline_degraded: true,
            },
            QueryStatus::TopK {
                threshold: 1.5,
                k: 32,
            },
            QueryStatus::Quantiles {
                values: vec![0.25, 0.5, 0.75],
            },
            QueryStatus::ApproxTopK {
                threshold: 0.875,
                k: 600_000,
                expected_recall: 0.9995,
            },
            QueryStatus::QuantileStream {
                windows: 12,
                values: vec![0.5, 0.9, 0.99, 0.999],
            },
            QueryStatus::Checkpointed {
                resume_token: "/tmp/spool/stream-abc.ckpt".to_string(),
            },
            QueryStatus::Failed {
                message: "query panicked in driver (isolated)".to_string(),
            },
        ] {
            roundtrip_response(Response::Done {
                status,
                batched: false,
            });
        }
        roundtrip_response(Response::Done {
            status: QueryStatus::Exact { value: f32::MIN },
            batched: true,
        });
    }

    #[test]
    fn float_bits_survive_exactly() {
        // The protocol must not round through decimal: check bit
        // patterns that decimal formatting would mangle.
        for bits in [0x0000_0001u32, 0x7F7F_FFFF, 0x8000_0000, 0x3EAA_AAAB] {
            let resp = Response::Done {
                status: QueryStatus::Exact {
                    value: f32::from_bits(bits),
                },
                batched: false,
            };
            let decoded = decode_response(&encode_response(&resp).unwrap()).unwrap();
            match decoded {
                Response::Done {
                    status: QueryStatus::Exact { value },
                    ..
                } => assert_eq!(value.to_bits(), bits),
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // bad version
        assert!(decode_request(&[9, OP_PING]).is_err());
        // unknown opcode
        assert!(decode_request(&[WIRE_VERSION, 200]).is_err());
        // truncated query
        let mut q = encode_request(&Request::Query(QueryRequest {
            tenant: "t".to_string(),
            kind: QueryKind::Exact { rank: 5 },
            dataset: DatasetSpec::uniform(64, 2),
            deadline_ms: None,
            seed: 0,
        }))
        .unwrap();
        q.truncate(q.len() - 3);
        assert!(decode_request(&q).is_err());
        // trailing garbage
        let mut p = encode_request(&Request::Ping).unwrap();
        p.push(0);
        assert!(decode_request(&p).is_err());
        // unknown distribution code
        let mut bad = encode_request(&Request::Query(QueryRequest {
            tenant: "t".to_string(),
            kind: QueryKind::Exact { rank: 5 },
            dataset: DatasetSpec::uniform(64, 2),
            deadline_ms: None,
            seed: 0,
        }))
        .unwrap();
        // dist byte sits right after the 2-byte tenant prefix + 1 byte
        // tenant + version/op/kind bytes
        let dist_pos = 1 + 1 + 1 + 2 + 1;
        bad[dist_pos] = 99;
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn oversize_quantile_window_is_refused_at_encode() {
        let req = Request::Query(QueryRequest {
            tenant: "t".to_string(),
            kind: QueryKind::QuantileStream {
                window_len: u64::from(u32::MAX) + 1,
                slide: 1,
                chunk_len: 1,
            },
            dataset: DatasetSpec::uniform(64, 2),
            deadline_ms: None,
            seed: 0,
        });
        assert!(encode_request(&req).is_err());
    }

    #[test]
    fn frame_io_roundtrips_and_rejects_oversize() {
        let payload = encode_request(&Request::Ping).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, payload);
        // clean EOF at a frame boundary
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // an adversarial length prefix is refused before allocation
        let mut huge = std::io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(read_frame(&mut huge).is_err());
    }

    /// A `Write` that accepts every byte it is offered and logs the
    /// length of each `write` call.
    #[derive(Default)]
    struct RecordingWriter {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        for len in [0usize, 15, 56, MAX_FRAME_LEN as usize] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut w = RecordingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, vec![4 + len], "payload of {len} bytes");
            let mut want = (len as u32).to_be_bytes().to_vec();
            want.extend_from_slice(&payload);
            assert!(
                w.bytes == want,
                "frame bytes changed for {len}-byte payload"
            );
        }

        let mut w = RecordingWriter::default();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME_LEN as usize + 1]).is_err());
        assert!(w.writes.is_empty() && w.bytes.is_empty());
    }

    // -----------------------------------------------------------------
    // Hostile frames
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    /// A string of `len` characters mixing 1- to 4-byte UTF-8, so bit
    /// flips land inside multi-byte sequences too.
    fn text(len: u64, salt: u64) -> String {
        const CHARS: [char; 5] = ['a', '-', 'é', 'λ', '😀'];
        (0..len)
            .map(|i| CHARS[((salt >> (i % 60)).wrapping_add(i) % CHARS.len() as u64) as usize])
            .collect()
    }

    fn floats(count: u64, salt: u64) -> Vec<f32> {
        (0..count)
            .map(|i| f32::from_bits((salt.rotate_left(i as u32 * 7) >> 32) as u32))
            .collect()
    }

    /// One valid request of every opcode and query kind, built from `r`.
    fn every_request(r: &[u64]) -> Vec<Request> {
        let kinds = [
            QueryKind::Exact { rank: r[2] },
            QueryKind::Approx { rank: r[2] },
            QueryKind::TopK { k: r[2] },
            QueryKind::Quantiles { q: r[2] },
            QueryKind::Stream {
                rank: r[2],
                chunk_len: r[3],
            },
            QueryKind::ApproxTopK {
                k: r[2],
                recall_bits: r[3] as u32,
            },
            QueryKind::QuantileStream {
                window_len: r[2] >> 32,
                slide: r[3] >> 32,
                chunk_len: r[4],
            },
        ];
        let mut reqs = vec![Request::Ping, Request::Stats, Request::Drain];
        reqs.extend(kinds.into_iter().map(|kind| {
            Request::Query(QueryRequest {
                tenant: text(r[0] % 24, r[1]),
                kind,
                dataset: DatasetSpec {
                    dist: DistCode::from_u8((r[5] % 8) as u8).unwrap_or(DistCode::Uniform),
                    n: r[6],
                    seed: r[7],
                },
                deadline_ms: Some(r[8] as u32).filter(|&d| d != 0),
                seed: r[9],
            })
        }));
        reqs
    }

    /// One valid response of every status code, built from `r`.
    fn every_response(r: &[u64]) -> Vec<Response> {
        let f = |i: usize| f32::from_bits(r[i] as u32);
        let statuses = [
            QueryStatus::Exact { value: f(2) },
            QueryStatus::Approximate {
                value: f(2),
                achieved_rank: r[3],
                rank_error: r[4],
                deadline_degraded: r[5] & 1 == 1,
            },
            QueryStatus::TopK {
                threshold: f(2),
                k: r[3],
            },
            QueryStatus::Quantiles {
                values: floats(r[6] % 20, r[7]),
            },
            QueryStatus::ApproxTopK {
                threshold: f(2),
                k: r[3],
                expected_recall: f(4),
            },
            QueryStatus::QuantileStream {
                windows: r[3],
                values: floats(r[6] % 20, r[7]),
            },
            QueryStatus::Checkpointed {
                resume_token: text(r[8] % 32, r[9]),
            },
            QueryStatus::Failed {
                message: text(r[0] % 32, r[1]),
            },
        ];
        let mut resps = vec![
            Response::Pong,
            Response::Rejected {
                reason: text(r[0] % 32, r[1]),
            },
            Response::Stats {
                json: text(r[8] % 48, r[9]),
            },
            Response::Drained {
                json: text(r[0] % 48, r[9]),
            },
        ];
        resps.extend(statuses.into_iter().map(|status| Response::Done {
            status,
            batched: r[1] & 1 == 1,
        }));
        resps
    }

    /// Read one frame from `bytes` and decode it both ways. Any outcome
    /// but a panic is acceptable; a decode that succeeds must encode
    /// again.
    fn feed(bytes: &[u8]) {
        if let Ok(Some(payload)) = read_frame(&mut io::Cursor::new(bytes)) {
            if let Ok(req) = decode_request(&payload) {
                encode_request(&req).unwrap();
            }
            if let Ok(resp) = decode_response(&payload) {
                encode_response(&resp).unwrap();
            }
        }
    }

    /// Truncate, bit-flip and re-head the frame of a valid `payload`
    /// that `decodes` accepts.
    fn attack(payload: &[u8], decodes: impl Fn(&[u8]) -> bool) {
        let mut frame = Vec::new();
        write_frame(&mut frame, payload).unwrap();
        for cut in 0..frame.len() {
            let got = read_frame(&mut io::Cursor::new(&frame[..cut]));
            assert!(
                if cut == 0 {
                    matches!(got, Ok(None))
                } else {
                    got.is_err()
                },
                "frame cut at {cut} of {} bytes",
                frame.len()
            );
            // the payload's own truncations, past any framing
            if cut < payload.len() {
                assert!(!decodes(&payload[..cut]), "payload cut at {cut} decoded");
            }
        }
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            feed(&flipped);
        }
        for len in [MAX_FRAME_LEN, MAX_FRAME_LEN + 1, u32::MAX] {
            let mut hostile = len.to_be_bytes().to_vec();
            hostile.extend_from_slice(payload);
            assert!(read_frame(&mut io::Cursor::new(&hostile)).is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Truncated, bit-flipped and over-long frames of every request
        /// and response kind end in `Err` or a valid decode, never a
        /// panic.
        #[test]
        fn hostile_frames_never_panic(raw in prop::collection::vec(any::<u64>(), 10usize)) {
            for req in every_request(&raw) {
                let payload = encode_request(&req).unwrap();
                prop_assert_eq!(decode_request(&payload).unwrap(), req);
                attack(&payload, |p| decode_request(p).is_ok());
            }
            for resp in every_response(&raw) {
                let payload = encode_response(&resp).unwrap();
                let decoded = decode_response(&payload).unwrap();
                // NaN values compare unequal; compare the bytes instead
                prop_assert!(encode_response(&decoded).unwrap() == payload);
                attack(&payload, |p| decode_response(p).is_ok());
            }
        }
    }
}
