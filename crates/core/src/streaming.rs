//! Out-of-core (streaming) selection: the k-th smallest element of a
//! dataset larger than device memory.
//!
//! SampleSelect is naturally streamable because its first level only
//! needs *counts*: the histogram pass is distributive over chunks, so a
//! dataset presented as re-loadable chunks (disk shards, network parts,
//! a larger-than-VRAM host buffer) can be selected from while
//! materializing only the target bucket (`~n/b` elements) — after which
//! the ordinary in-memory driver finishes the job.
//!
//! The flow per §II's framework: sample proportionally from every chunk
//! → build the splitter tree → histogram every chunk (count-only, no
//! oracles — nothing is stored per element) → pick the bucket containing
//! the rank → re-stream, extracting only that bucket → recurse in
//! memory.
//!
//! ## Checkpoint / resume
//!
//! Long out-of-core runs outlive processes: the host gets preempted, the
//! job is killed, the machine reboots. Every pass of the streaming
//! pipeline is chunk-incremental, so the full driver state between two
//! chunk loads is tiny — the partial sample (or the splitters), the
//! merged histogram, the surviving-candidate buffer, the RNG state, and
//! the position in the pipeline. [`streaming_select_with_checkpoint`]
//! persists exactly that after every chunk into a versioned, checksummed
//! checkpoint file and can resume a killed run from it, reproducing the
//! uninterrupted run bit for bit (the RNG state makes the sampling pass
//! deterministic across the kill). A corrupted or mismatched checkpoint
//! is detected by its FNV-1a checksum / run fingerprint and degrades to
//! a clean restart, never to silently wrong state.

use crate::count::count_kernel_scoped;
use crate::element::SelectElement;
use crate::instrument::{ResilienceEvents, SelectReport};
use crate::obs::{self, Counter, Histogram, SpanKind};
use crate::params::SampleSelectConfig;
use crate::recursion::{recycle_count, sample_select_on_device};
use crate::rng::SplitMix64;
use crate::searchtree::SearchTree;
use crate::shard::ShardTopology;
use crate::verify::{check_filter_size, check_histogram, check_splitters};
use crate::workspace::KernelScratch;
use crate::{SelectError, SelectResult};
use gpu_sim::{Device, KernelCost, LaunchOrigin, SimTime};
use std::path::Path;
use std::sync::Mutex;

/// Retries of one chunk load before the driver gives up (in addition to
/// the initial attempt). Only *transient* failures are retried.
pub const CHUNK_MAX_RETRIES: u32 = 3;

/// Simulated backoff before the first chunk-load retry; doubles on every
/// subsequent retry of the same chunk.
const CHUNK_RETRY_BACKOFF_NS: f64 = 10_000.0;

/// A failed chunk load (the streaming analogue of an I/O error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkError {
    /// Index of the chunk that failed.
    pub chunk: usize,
    /// Human-readable failure description.
    pub message: String,
    /// Whether re-reading the chunk can plausibly succeed (a timeout or
    /// flaky link) as opposed to a permanent loss (a deleted shard).
    pub transient: bool,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let class = if self.transient {
            "transient"
        } else {
            "permanent"
        };
        write!(f, "chunk {}: {} ({class})", self.chunk, self.message)
    }
}

impl std::error::Error for ChunkError {}

/// A dataset presented as independently loadable chunks.
///
/// `load_chunk` models the I/O of an out-of-core pipeline: the driver
/// calls it multiple times (sampling pass, histogram pass, filter pass)
/// and never holds more than one chunk plus the extracted bucket in
/// memory. Loads are fallible; the driver retries transient failures
/// (with exponential backoff) up to [`CHUNK_MAX_RETRIES`] times per load
/// before surfacing [`SelectError::ChunkLoad`].
pub trait ChunkSource<T>: Sync {
    /// Number of chunks.
    fn num_chunks(&self) -> usize;
    /// Load chunk `idx` (owned: models a read from storage).
    fn load_chunk(&self, idx: usize) -> Result<Vec<T>, ChunkError>;
    /// Total number of elements across all chunks.
    fn total_len(&self) -> usize;
    /// Human-readable name of the backing source, used in retry and
    /// give-up diagnostics (a file path, a shard set, an URL prefix).
    fn source_name(&self) -> &str {
        "chunks"
    }
    /// Byte offset of chunk `idx` within the backing source, when the
    /// source is a contiguous byte stream; `None` for sources without a
    /// meaningful linear layout.
    fn chunk_byte_offset(&self, idx: usize) -> Option<u64> {
        let _ = idx;
        None
    }
}

/// Load one chunk, retrying transient failures with exponential backoff
/// (charged to the simulated clock). Retries are recorded in `events`.
///
/// `prefetched` carries the result of a first load attempt that was
/// issued ahead of time on the host thread pool (see the pipelined
/// passes in [`streaming_select_impl`]); when present, it replaces the
/// synchronous first attempt and the retry ladder continues from there,
/// so prefetching never changes retry counts, backoff, or diagnostics.
pub(crate) fn load_chunk_with_retry<T, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    idx: usize,
    prefetched: Option<Result<Vec<T>, ChunkError>>,
    events: &mut ResilienceEvents,
) -> Result<Vec<T>, SelectError> {
    let mut backoff_ns = CHUNK_RETRY_BACKOFF_NS;
    let mut retries = 0u32;
    let mut attempt = match prefetched {
        Some(first) => first,
        None => source.load_chunk(idx),
    };
    loop {
        match attempt {
            Ok(chunk) => {
                obs::counter_add(Counter::StreamingChunks, 1);
                obs::observe(Histogram::ChunkLoadRetries, retries as u64);
                return Ok(chunk);
            }
            Err(err) => {
                if !err.transient || retries >= CHUNK_MAX_RETRIES {
                    return Err(SelectError::ChunkLoad(err));
                }
                retries += 1;
                // Identify the chunk the way an operator would look it
                // up: index, byte offset, and the backing source's name.
                let position = match source.chunk_byte_offset(idx) {
                    Some(off) => {
                        format!("chunk {idx} at byte {off} of `{}`", source.source_name())
                    }
                    None => format!("chunk {idx} of `{}`", source.source_name()),
                };
                events.retry(format!(
                    "{position} load failed ({}); retry {retries}/{CHUNK_MAX_RETRIES} \
                     after {backoff_ns}ns",
                    err.message
                ));
                device.advance_time(SimTime::from_ns(backoff_ns));
                backoff_ns *= 2.0;
                attempt = source.load_chunk(idx);
            }
        }
    }
}

/// The trivial in-memory chunk source: a slice viewed as fixed-size
/// chunks (useful for tests and for data that fits host RAM but not the
/// simulated device).
pub struct SliceChunks<'a, T> {
    data: &'a [T],
    chunk_len: usize,
}

impl<'a, T> SliceChunks<'a, T> {
    pub fn new(data: &'a [T], chunk_len: usize) -> Self {
        assert!(chunk_len > 0);
        Self { data, chunk_len }
    }
}

impl<T: SelectElement> ChunkSource<T> for SliceChunks<'_, T> {
    fn num_chunks(&self) -> usize {
        self.data.len().div_ceil(self.chunk_len).max(1)
    }

    fn load_chunk(&self, idx: usize) -> Result<Vec<T>, ChunkError> {
        let start = (idx * self.chunk_len).min(self.data.len());
        let end = ((idx + 1) * self.chunk_len).min(self.data.len());
        Ok(self.data[start..end].to_vec())
    }

    fn total_len(&self) -> usize {
        self.data.len()
    }

    fn source_name(&self) -> &str {
        "host-slice"
    }

    fn chunk_byte_offset(&self, idx: usize) -> Option<u64> {
        let start = (idx * self.chunk_len).min(self.data.len());
        Some((start * T::BYTES) as u64)
    }
}

/// Result of a streaming selection, with out-of-core statistics.
#[derive(Debug, Clone)]
pub struct StreamingResult<T> {
    /// The rank-`k` element.
    pub value: T,
    /// Peak number of elements materialized at once (excluding the
    /// single resident chunk): the extracted bucket.
    pub peak_resident: usize,
    /// Measurement report of the device work.
    pub report: SelectReport,
}

// ---------------------------------------------------------------------
// Checkpoint format
// ---------------------------------------------------------------------

/// File magic of a streaming checkpoint ("SampleSelect ChecKpoint").
/// Shared with the quantile-stream checkpoint (`quantile_stream`), which
/// reuses the same envelope (magic, version, FNV-1a trailer) with its
/// own fingerprint and body.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"SSCK";
/// Format version; bumped on any layout change. Version 2 added the
/// shard topology (shard count + partition-boundary hash) to the
/// fingerprint, so a run resumed under a different `--shards` value is
/// rejected instead of silently replaying a foreign partition plan.
/// Version 3 added `elements_seen` to the sampling-pass state, needed
/// for the exact-total per-chunk sample shares (the cumulative-floor
/// distribution is a function of the elements already streamed, which a
/// resumed run can no longer infer from the chunk index alone when
/// chunk sizes vary).
const CHECKPOINT_VERSION: u32 = 3;

/// Pipeline positions a checkpoint can record.
const PHASE_SAMPLE: u8 = 0;
const PHASE_COUNT: u8 = 1;
const PHASE_FILTER: u8 = 2;

/// Identity of a run: a checkpoint written by a different job (other
/// seed, size, rank, chunking, bucket count, shard topology, or element
/// width) must never be resumed into this one.
struct Fingerprint {
    seed: u64,
    n: u64,
    rank: u64,
    num_chunks: u64,
    num_buckets: u64,
    /// Number of device shards the run partitions data across
    /// (1 for plain single-device streaming).
    shards: u64,
    /// FNV-1a over the shard partition boundaries
    /// ([`ShardTopology::fingerprint`]): two runs with the same shard
    /// count but different partition boundaries are still different runs.
    topology_hash: u64,
    elem_bytes: u8,
}

/// Everything needed to restart the pipeline between two chunk loads.
#[derive(Debug)]
struct CheckpointState<T> {
    /// Which pass was running ([`PHASE_SAMPLE`] / [`PHASE_COUNT`] /
    /// [`PHASE_FILTER`]).
    phase: u8,
    /// First chunk of that pass not yet processed.
    next_chunk: u64,
    /// Sampling RNG state *after* the last processed chunk, so a resumed
    /// sampling pass draws the exact same positions the uninterrupted
    /// run would have.
    rng_state: u64,
    /// Elements streamed by the sampling pass so far (sampling pass
    /// only): the cumulative-floor share of the next chunk depends on
    /// it, and with variable chunk sizes it cannot be reconstructed from
    /// `next_chunk`.
    elements_seen: u64,
    /// Partial proportional sample (sampling pass only).
    sample: Vec<T>,
    /// Finished splitters (later passes).
    splitters: Vec<T>,
    /// Merged histogram so far.
    counts: Vec<u64>,
    /// Surviving candidates extracted so far (filter pass).
    kept: Vec<T>,
}

impl<T> CheckpointState<T> {
    fn fresh(seed: u64) -> Self {
        Self {
            phase: PHASE_SAMPLE,
            next_chunk: 0,
            rng_state: seed,
            elements_seen: 0,
            sample: Vec::new(),
            splitters: Vec::new(),
            counts: Vec::new(),
            kept: Vec::new(),
        }
    }
}

/// FNV-1a 64-bit, the checkpoint's end-to-end checksum: cheap, no
/// dependencies, and a single flipped bit anywhere in the file changes
/// it.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_elems<T: SelectElement>(out: &mut Vec<u8>, elems: &[T]) {
    push_u64(out, elems.len() as u64);
    for &x in elems {
        push_u64(out, x.to_bits_u64());
    }
}

/// Serialize a checkpoint: magic, version, fingerprint, pipeline
/// position, four length-prefixed arrays (all little-endian, elements as
/// lossless 64-bit images), and a trailing FNV-1a checksum over
/// everything before it.
fn encode_checkpoint<T: SelectElement>(fp: &Fingerprint, state: &CheckpointState<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + 8
            * (state.sample.len() + state.splitters.len() + state.counts.len() + state.kept.len()),
    );
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    push_u64(&mut out, fp.seed);
    push_u64(&mut out, fp.n);
    push_u64(&mut out, fp.rank);
    push_u64(&mut out, fp.num_chunks);
    push_u64(&mut out, fp.num_buckets);
    push_u64(&mut out, fp.shards);
    push_u64(&mut out, fp.topology_hash);
    out.push(fp.elem_bytes);
    out.push(state.phase);
    push_u64(&mut out, state.next_chunk);
    push_u64(&mut out, state.rng_state);
    push_u64(&mut out, state.elements_seen);
    push_elems(&mut out, &state.sample);
    push_elems(&mut out, &state.splitters);
    push_u64(&mut out, state.counts.len() as u64);
    for &c in &state.counts {
        push_u64(&mut out, c);
    }
    push_elems(&mut out, &state.kept);
    let checksum = fnv1a64(&out);
    push_u64(&mut out, checksum);
    out
}

pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over the body of a checkpoint file, past its magic. The
    /// trailing checksum is checked first.
    pub(crate) fn open(file: &'a [u8]) -> Result<Self, String> {
        if file.len() < CHECKPOINT_MAGIC.len() + 8 {
            return Err("file too short".to_string());
        }
        let (bytes, tail) = file.split_at(file.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("an 8-byte checksum"));
        let computed = fnv1a64(bytes);
        if stored != computed {
            return Err(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ));
        }
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(4)? != CHECKPOINT_MAGIC {
            return Err("bad magic".to_string());
        }
        Ok(cur)
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "truncated checkpoint".to_string())?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// `len` little-endian words, taken only when that many bytes
    /// remain: a length field never reserves memory its bytes do not back.
    pub(crate) fn words(&mut self, len: u64) -> Result<impl Iterator<Item = u64> + 'a, String> {
        let bytes = self.take(usize::try_from(len.saturating_mul(8)).unwrap_or(usize::MAX))?;
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunks"));
        Ok(bytes.chunks_exact(8).map(word))
    }

    pub(crate) fn elems<T: SelectElement>(&mut self, max_len: u64) -> Result<Vec<T>, String> {
        let len = self.u64()?;
        if len > max_len {
            return Err(format!("implausible array length {len}"));
        }
        Ok(self.words(len)?.map(T::from_bits_u64).collect())
    }
}

/// Parse and validate a checkpoint. Every rejection reason is a
/// human-readable string; callers log it and fall back to a clean
/// restart — a bad checkpoint must never poison a run.
fn decode_checkpoint<T: SelectElement>(
    bytes: &[u8],
    fp: &Fingerprint,
) -> Result<CheckpointState<T>, String> {
    let mut cur = Cursor::open(bytes)?;
    let version = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
    if version != CHECKPOINT_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let seed = cur.u64()?;
    let n = cur.u64()?;
    let rank = cur.u64()?;
    let num_chunks = cur.u64()?;
    let num_buckets = cur.u64()?;
    let shards = cur.u64()?;
    let topology_hash = cur.u64()?;
    let elem_bytes = cur.u8()?;
    if shards != fp.shards || topology_hash != fp.topology_hash {
        // Called out separately from the generic mismatch: resuming with
        // a different `--shards` is the one fingerprint drift an operator
        // plausibly causes on purpose, and the message should say so.
        return Err(format!(
            "shard topology changed: checkpoint written with {shards} shard(s), \
             resuming with {}",
            fp.shards
        ));
    }
    if seed != fp.seed
        || n != fp.n
        || rank != fp.rank
        || num_chunks != fp.num_chunks
        || num_buckets != fp.num_buckets
        || elem_bytes != fp.elem_bytes
    {
        return Err("fingerprint mismatch: checkpoint belongs to a different run".to_string());
    }
    let phase = cur.u8()?;
    if phase > PHASE_FILTER {
        return Err(format!("invalid phase {phase}"));
    }
    let next_chunk = cur.u64()?;
    if next_chunk > fp.num_chunks {
        return Err(format!(
            "next chunk {next_chunk} beyond {num_chunks} chunks"
        ));
    }
    let rng_state = cur.u64()?;
    let elements_seen = cur.u64()?;
    if elements_seen > fp.n {
        return Err(format!(
            "implausible elements_seen {elements_seen} for n = {}",
            fp.n
        ));
    }
    let sample: Vec<T> = cur.elems(fp.n)?;
    let splitters: Vec<T> = cur.elems(fp.num_buckets)?;
    let counts_len = cur.u64()?;
    if counts_len > fp.num_buckets {
        return Err(format!("implausible histogram length {counts_len}"));
    }
    let counts: Vec<u64> = cur.words(counts_len)?.collect();
    let kept: Vec<T> = cur.elems(fp.n)?;
    if cur.pos != cur.bytes.len() {
        return Err("trailing garbage after checkpoint payload".to_string());
    }
    if phase > PHASE_SAMPLE && splitters.len() as u64 != fp.num_buckets - 1 {
        return Err(format!(
            "phase {phase} checkpoint carries {} splitters, expected {}",
            splitters.len(),
            fp.num_buckets - 1
        ));
    }
    if phase > PHASE_COUNT && counts.len() as u64 != fp.num_buckets {
        return Err(format!(
            "phase {phase} checkpoint carries {} bucket counts, expected {num_buckets}",
            counts.len()
        ));
    }
    Ok(CheckpointState {
        phase,
        next_chunk,
        rng_state,
        elements_seen,
        sample,
        splitters,
        counts,
        kept,
    })
}

/// Atomically persist the current pipeline state: serialize, write to a
/// sibling temp file, rename over the target. A failed write is logged
/// and otherwise ignored — checkpointing is best-effort and must never
/// fail the selection itself.
fn save_checkpoint<T: SelectElement>(
    path: Option<&Path>,
    fp: &Fingerprint,
    state: &CheckpointState<T>,
    events: &mut ResilienceEvents,
) {
    let Some(path) = path else { return };
    let bytes = encode_checkpoint(fp, state);
    let tmp = path.with_extension("ckpt-tmp");
    let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(err) = result {
        events.checkpoint_note(format!("write to `{}` failed ({err})", path.display()));
    }
}

fn delete_checkpoint(path: Option<&Path>) {
    if let Some(path) = path {
        let _ = std::fs::remove_file(path);
    }
}

/// How many of the `s` sample draws the sampling pass spends on a chunk
/// of `len` elements arriving after `seen` elements have already been
/// streamed (total stream length `n`): the number of integer boundaries
/// the scaled cumulative position `s·seen/n` crosses while advancing by
/// `len` elements.
///
/// The telescoping sum over a chunking of the stream collapses to
/// `floor(s·n/n) - floor(0) = s` exactly — this IS the largest-remainder
/// apportionment applied in chunk-index order. The previous per-chunk
/// `floor(s·len/n).max(1)` drifted from `s` in both directions: many
/// tiny chunks each rounded up to 1 inflated the sample (and with it the
/// simulated sort cost), while mid-size chunks all rounding down could
/// starve it below the configured size.
pub(crate) fn chunk_sample_share(s: usize, n: usize, seen: u64, len: usize) -> usize {
    debug_assert!(seen as u128 + len as u128 <= n as u128);
    let s = s as u128;
    let n = n as u128;
    let before = s * seen as u128 / n;
    let after = s * (seen as u128 + len as u128) / n;
    (after - before) as usize
}

/// Select the `rank`-th smallest element of a chunked dataset.
pub fn streaming_select<T: SelectElement, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<StreamingResult<T>, SelectError> {
    streaming_select_impl(device, source, rank, cfg, None, false, None)
}

/// [`streaming_select`] with crash tolerance: persist a checkpoint to
/// `checkpoint` after every processed chunk, and (with `resume`) restart
/// from an existing checkpoint instead of from scratch.
///
/// Resuming reproduces the uninterrupted run exactly — the checkpoint
/// carries the sampling RNG state, so the splitters (and with them every
/// downstream buffer) come out bit-identical. The checkpoint file is
/// deleted once the run completes. An unreadable, corrupted
/// (checksum-mismatched), or foreign (fingerprint-mismatched) checkpoint
/// is rejected with a logged event and the run restarts cleanly.
pub fn streaming_select_with_checkpoint<T: SelectElement, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    rank: usize,
    cfg: &SampleSelectConfig,
    checkpoint: &Path,
    resume: bool,
) -> Result<StreamingResult<T>, SelectError> {
    streaming_select_impl(device, source, rank, cfg, Some(checkpoint), resume, None)
}

/// [`streaming_select_with_checkpoint`] for a run that is part of a
/// sharded deployment: the shard topology (shard count and partition
/// boundaries, see [`ShardTopology`]) is baked into the checkpoint
/// fingerprint, so a `--resume` under a different `--shards` value is
/// rejected with a logged [`ResilienceEvent`] and the run restarts
/// cleanly instead of replaying a foreign partition plan.
pub fn streaming_select_with_topology<T: SelectElement, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    rank: usize,
    cfg: &SampleSelectConfig,
    checkpoint: &Path,
    resume: bool,
    topology: &ShardTopology,
) -> Result<StreamingResult<T>, SelectError> {
    streaming_select_impl(
        device,
        source,
        rank,
        cfg,
        Some(checkpoint),
        resume,
        Some(topology),
    )
}

fn streaming_select_impl<T: SelectElement, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    rank: usize,
    cfg: &SampleSelectConfig,
    checkpoint: Option<&Path>,
    resume: bool,
    topology: Option<&ShardTopology>,
) -> Result<StreamingResult<T>, SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    let n = source.total_len();
    if n == 0 {
        return Err(SelectError::EmptyInput);
    }
    if rank >= n {
        return Err(SelectError::RankOutOfRange { rank, len: n });
    }
    let records_before = device.records().len();
    obs::span_enter(
        SpanKind::Query,
        "streaming-sampleselect",
        0,
        device.now().as_ns(),
    );
    let mut events = ResilienceEvents::default();
    let b = cfg.num_buckets;
    let single = ShardTopology::single(n);
    let topology = topology.unwrap_or(&single);
    let fp = Fingerprint {
        seed: cfg.seed,
        n: n as u64,
        rank: rank as u64,
        num_chunks: source.num_chunks() as u64,
        num_buckets: b as u64,
        shards: topology.shards() as u64,
        topology_hash: topology.fingerprint(),
        elem_bytes: T::BYTES as u8,
    };

    let mut state = CheckpointState::<T>::fresh(cfg.seed);
    if resume {
        if let Some(path) = checkpoint {
            match std::fs::read(path) {
                Ok(bytes) => match decode_checkpoint::<T>(&bytes, &fp) {
                    Ok(restored) => {
                        events.resume(format!(
                            "phase {} at chunk {} from `{}`",
                            restored.phase,
                            restored.next_chunk,
                            path.display()
                        ));
                        state = restored;
                    }
                    Err(msg) => {
                        events.corruption(format!(
                            "checkpoint `{}` rejected ({msg}); clean restart",
                            path.display()
                        ));
                    }
                },
                Err(err) => {
                    events.checkpoint_note(format!(
                        "`{}` unreadable ({err}); clean restart",
                        path.display()
                    ));
                }
            }
        }
    }

    // Pass 1: proportional sampling across chunks (the streaming analogue
    // of the sample kernel; charged as one gather per sampled element).
    let mut rng = SplitMix64::from_state(state.rng_state);
    if state.phase == PHASE_SAMPLE {
        let s = cfg.sample_size().max(b);
        let mut sample = std::mem::take(&mut state.sample);
        for c in (state.next_chunk as usize)..source.num_chunks() {
            obs::span_enter(
                SpanKind::Chunk,
                "sample_pass",
                c as u64,
                device.now().as_ns(),
            );
            let chunk = load_chunk_with_retry(device, source, c, None, &mut events)?;
            let share = chunk_sample_share(s, n, state.elements_seen, chunk.len());
            for _ in 0..share {
                sample.push(chunk[rng.next_below(chunk.len())]);
            }
            state.elements_seen += chunk.len() as u64;
            state.next_chunk = c as u64 + 1;
            state.rng_state = rng.state();
            state.sample = sample;
            save_checkpoint(checkpoint, &fp, &state, &mut events);
            sample = std::mem::take(&mut state.sample);
            obs::span_exit(device.now().as_ns());
        }
        let mut cost = KernelCost::new();
        cost.blocks = 1;
        cost.uncoalesced_bytes += (sample.len() * T::BYTES) as u64;
        let stats = crate::bitonic::bitonic_sort(&mut sample);
        stats.charge::<T>(&mut cost);
        cost.global_write_bytes += ((b - 1) * T::BYTES) as u64;
        device.commit(
            "sample",
            gpu_sim::LaunchConfig {
                blocks: 1,
                threads_per_block: cfg.threads_per_block,
                shared_mem_bytes: (sample.len() * T::BYTES) as u32,
            },
            LaunchOrigin::Host,
            cost,
        );
        let m = sample.len();
        let mut splitters: Vec<T> = (1..b).map(|i| sample[(i * m / b).min(m - 1)]).collect();
        // Like the in-memory sample kernel, the splitter buffer sits in
        // global memory and is exposed to the bit-flip injector.
        crate::verify::corrupt_elements(device, "splitters", &mut splitters);
        state.phase = PHASE_COUNT;
        state.next_chunk = 0;
        state.splitters = splitters;
        save_checkpoint(checkpoint, &fp, &state, &mut events);
    }
    // Checked unconditionally — the splitters may have been corrupted in
    // device memory (above) or loaded from an untrusted checkpoint, and
    // `SearchTree::build` requires sorted input.
    check_splitters(&state.splitters)?;
    let tree = SearchTree::build(&state.splitters);

    // Pass 2: chunkwise histogram, merged on the fly. With
    // `cfg.stream_prefetch` the first load attempt of chunk c+1 is
    // issued on the host pool while chunk c is being counted
    // (double-buffered I/O); retries, events, checkpoints, and the
    // kernel schedule are bit-identical to the sequential pass.
    if state.phase == PHASE_COUNT {
        let pool = device.pool();
        let num_chunks = source.num_chunks();
        let scratch = KernelScratch::new();
        let mut staged: Option<Result<Vec<T>, ChunkError>> = None;
        let mut counts = if state.counts.len() == b {
            std::mem::take(&mut state.counts)
        } else {
            vec![0u64; b]
        };
        for c in (state.next_chunk as usize)..num_chunks {
            obs::span_enter(
                SpanKind::Chunk,
                "count_pass",
                c as u64,
                device.now().as_ns(),
            );
            let chunk = load_chunk_with_retry(device, source, c, staged.take(), &mut events)?;
            let mut count_chunk = |device: &mut Device| {
                if chunk.is_empty() {
                    return;
                }
                let result = count_kernel_scoped(
                    device,
                    &chunk,
                    &tree,
                    cfg,
                    false,
                    LaunchOrigin::Host,
                    &scratch,
                );
                for (acc, v) in counts.iter_mut().zip(result.counts.iter()) {
                    *acc += v;
                }
                recycle_count(device, result);
            };
            if cfg.stream_prefetch && c + 1 < num_chunks {
                let slot: Mutex<Option<Result<Vec<T>, ChunkError>>> = Mutex::new(None);
                pool.scope(|s| {
                    s.spawn(|| *slot.lock().unwrap() = Some(source.load_chunk(c + 1)));
                    count_chunk(device);
                });
                staged = slot.into_inner().unwrap();
            } else {
                count_chunk(device);
            }
            state.next_chunk = c as u64 + 1;
            state.counts = counts;
            save_checkpoint(checkpoint, &fp, &state, &mut events);
            counts = std::mem::take(&mut state.counts);
            obs::span_exit(device.now().as_ns());
        }
        state.phase = PHASE_FILTER;
        state.next_chunk = 0;
        state.counts = counts;
        save_checkpoint(checkpoint, &fp, &state, &mut events);
    }
    // The merged histogram feeds the bucket search below; a corrupted
    // count would silently misroute the recursion, so the sum invariant
    // is checked unconditionally (it costs O(b)).
    check_histogram(&state.counts, n)?;

    // Prefix-sum the histogram into a pooled buffer — the sequential
    // clone here used to be the only per-query allocation between the
    // count and filter passes.
    let mut offsets = device.lease_vec::<u64>(state.counts.len(), "stream-offsets");
    offsets.extend_from_slice(&state.counts);
    let total = hpc_par::exclusive_scan(&mut offsets);
    debug_assert_eq!(total, n as u64);
    let bucket = hpc_par::scan::bucket_for_rank(&offsets, rank as u64);
    // the totals-scan is charged like the count-only reduce
    {
        // build a minimal CountResult-shaped charge via reduce_totals on
        // a synthetic result: cheaper to charge directly
        let mut cost = KernelCost::new();
        cost.global_read_bytes += b as u64 * 4;
        cost.global_write_bytes += b as u64 * 4;
        cost.int_ops += b as u64 * 2;
        cost.blocks = 1;
        device.commit(
            "reduce",
            gpu_sim::LaunchConfig {
                blocks: 1,
                threads_per_block: 256,
                shared_mem_bytes: 0,
            },
            LaunchOrigin::Device,
            cost,
        );
    }

    if tree.is_equality_bucket(bucket) {
        device.recycle_vec("stream-offsets", offsets);
        delete_checkpoint(checkpoint);
        obs::absorb_device(device);
        obs::pool_sample(device);
        obs::span_exit(device.now().as_ns());
        let report = SelectReport::from_records(
            "streaming-sampleselect",
            n,
            &device.records()[records_before..],
            1,
            true,
        )
        .with_resilience(events);
        return Ok(StreamingResult {
            value: tree.equality_value(bucket),
            peak_resident: 0,
            report,
        });
    }

    // Pass 3: re-stream, keeping only the target bucket. Prefetched
    // like the histogram pass: chunk c+1 loads on the pool while chunk
    // c's bound-compare extraction runs.
    let lower = tree.bucket_lower(bucket);
    let upper = tree.bucket_lower(bucket + 1);
    let mut kept = std::mem::take(&mut state.kept);
    kept.reserve((offsets.get(bucket + 1).copied().unwrap_or(n as u64) - offsets[bucket]) as usize);
    {
        let pool = device.pool();
        let num_chunks = source.num_chunks();
        let mut staged: Option<Result<Vec<T>, ChunkError>> = None;
        for c in (state.next_chunk as usize)..num_chunks {
            obs::span_enter(
                SpanKind::Chunk,
                "filter_pass",
                c as u64,
                device.now().as_ns(),
            );
            let chunk = load_chunk_with_retry(device, source, c, staged.take(), &mut events)?;
            let mut filter_chunk = |device: &mut Device| {
                if chunk.is_empty() {
                    return;
                }
                let before = kept.len();
                kept.extend(chunk.iter().copied().filter(|&x| {
                    let above = lower.is_none_or(|lo| !x.lt(lo));
                    let below = upper.is_none_or(|hi| x.lt(hi));
                    above && below
                }));
                // Charge the extraction kernel: stream read + bound
                // compares + contiguous writes of the matches.
                let mut cost = KernelCost::new();
                cost.global_read_bytes += (chunk.len() * T::BYTES) as u64;
                cost.int_ops += chunk.len() as u64 * 2;
                cost.global_write_bytes += ((kept.len() - before) * T::BYTES) as u64;
                let launch = cfg.launch_config(chunk.len(), T::BYTES);
                cost.blocks = launch.blocks as u64;
                device.commit("stream_filter", launch, LaunchOrigin::Host, cost);
            };
            if cfg.stream_prefetch && c + 1 < num_chunks {
                let slot: Mutex<Option<Result<Vec<T>, ChunkError>>> = Mutex::new(None);
                pool.scope(|s| {
                    s.spawn(|| *slot.lock().unwrap() = Some(source.load_chunk(c + 1)));
                    filter_chunk(device);
                });
                staged = slot.into_inner().unwrap();
            } else {
                filter_chunk(device);
            }
            state.next_chunk = c as u64 + 1;
            state.kept = kept;
            save_checkpoint(checkpoint, &fp, &state, &mut events);
            kept = std::mem::take(&mut state.kept);
            obs::span_exit(device.now().as_ns());
        }
    }
    if cfg.verify.spot_checks() {
        check_filter_size(kept.len(), state.counts[bucket])?;
    }
    let peak_resident = kept.len();
    let sub_rank = rank - offsets[bucket] as usize;
    device.recycle_vec("stream-offsets", offsets);
    if sub_rank >= kept.len() {
        // Unconditionally guarded: a corrupted count or a torn filter
        // pass would otherwise panic in the in-memory recursion below.
        return Err(SelectError::Corruption {
            invariant: "filter-size",
            detail: format!(
                "descending rank {sub_rank} outside extracted bucket of {} elements",
                kept.len()
            ),
        });
    }

    // Finish in memory.
    let inner: SelectResult<T> = sample_select_on_device(device, &kept, sub_rank, cfg)?;
    delete_checkpoint(checkpoint);
    obs::absorb_device(device);
    obs::pool_sample(device);
    obs::span_exit(device.now().as_ns());
    let report = SelectReport::from_records(
        "streaming-sampleselect",
        n,
        &device.records()[records_before..],
        inner.report.levels + 1,
        inner.report.terminated_early,
    )
    .with_resilience(events);
    Ok(StreamingResult {
        value: inner.value,
        peak_resident,
        report,
    })
}

/// Feed `decodes` every hostile variant of the valid checkpoint `file`:
/// each truncation and each single-bit flip, which the checksum must
/// reject; each flip again with the checksum resealed, so that the
/// body's own checks see it; and each `u64` length field at the byte
/// offsets `lengths` set at and past the words that remain after it,
/// resealed. Past the remaining words it must be rejected; nothing may
/// panic. `decodes` returns whether it accepted its input.
#[cfg(test)]
pub(crate) fn attack_checkpoint(file: &[u8], lengths: &[usize], decodes: impl Fn(&[u8]) -> bool) {
    let body = file.len() - 8;
    let reseal = |mut bytes: Vec<u8>| {
        bytes.truncate(body);
        let checksum = fnv1a64(&bytes);
        push_u64(&mut bytes, checksum);
        bytes
    };
    assert!(decodes(file), "the valid checkpoint must decode");
    for cut in 0..file.len() {
        assert!(
            !decodes(&file[..cut]),
            "cut at {cut} of {} decoded",
            file.len()
        );
    }
    for bit in 0..file.len() * 8 {
        let mut flipped = file.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(!decodes(&flipped), "flipped bit {bit} decoded");
        if bit < body * 8 {
            decodes(&reseal(flipped));
        }
    }
    for &at in lengths {
        let left = (body - at - 8) as u64 / 8;
        for len in [left, left + 1, 1 << 61, u64::MAX] {
            let mut hostile = file.to_vec();
            hostile[at..at + 8].copy_from_slice(&len.to_le_bytes());
            let accepted = decodes(&reseal(hostile));
            assert!(
                len <= left || !accepted,
                "length {len} at {at} past {left} words"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::instrument::ResilienceEvent;
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;
    use proptest::prelude::*;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn run(data: &[f32], chunk: usize, rank: usize) -> StreamingResult<f32> {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let source = SliceChunks::new(data, chunk);
        streaming_select(&mut device, &source, rank, &SampleSelectConfig::default()).unwrap()
    }

    #[test]
    fn matches_reference_across_chunk_sizes() {
        let data = uniform(300_000, 1);
        for chunk in [1 << 14, 1 << 16, 1 << 20 /* single chunk */] {
            for rank in [0usize, 150_000, 299_999] {
                let res = run(&data, chunk, rank);
                assert_eq!(
                    res.value,
                    reference_select(&data, rank).unwrap(),
                    "chunk {chunk} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn peak_residency_is_a_small_fraction_of_n() {
        let data = uniform(1 << 20, 2);
        let res = run(&data, 1 << 16, 1 << 19);
        // one bucket of 256 (+ sampling imbalance) — far below n
        assert!(
            res.peak_resident < data.len() / 32,
            "resident {} of {}",
            res.peak_resident,
            data.len()
        );
    }

    #[test]
    fn duplicate_heavy_stream_terminates_early() {
        let mut rng = SplitMix64::new(3);
        let data: Vec<f32> = (0..200_000)
            .map(|_| (rng.next_below(8) as f32) * 1.5)
            .collect();
        let res = run(&data, 1 << 15, 100_000);
        assert_eq!(res.value, reference_select(&data, 100_000).unwrap());
        assert!(res.report.terminated_early);
        assert_eq!(res.peak_resident, 0, "nothing materialized on early exit");
    }

    #[test]
    fn uneven_tail_chunk_handled() {
        let data = uniform(100_001, 4); // not divisible by the chunk size
        let res = run(&data, 1 << 14, 50_000);
        assert_eq!(res.value, reference_select(&data, 50_000).unwrap());
    }

    #[test]
    fn errors_propagate() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let empty: Vec<f32> = vec![];
        let source = SliceChunks::new(&empty, 16);
        assert_eq!(
            streaming_select(&mut device, &source, 0, &SampleSelectConfig::default()).unwrap_err(),
            SelectError::EmptyInput
        );
        let data = vec![1.0f32; 10];
        let source = SliceChunks::new(&data, 4);
        assert!(matches!(
            streaming_select(&mut device, &source, 10, &SampleSelectConfig::default()).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
    }

    #[test]
    fn report_shows_per_chunk_passes() {
        let data = uniform(1 << 18, 5);
        let res = run(&data, 1 << 15, 1 << 17);
        // 8 chunks: 8 count passes + >= some stream_filter passes
        assert_eq!(res.report.kernel_launches("count_nowrite"), 8);
        assert!(res.report.kernel_launches("stream_filter") == 8);
        assert!(res.report.kernel_launches("sample") >= 1);
    }

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A chunk source whose `target` chunk fails its first `fail_times`
    /// loads before recovering (or never recovers, if permanent).
    struct FlakyChunks<'a> {
        inner: SliceChunks<'a, f32>,
        target: usize,
        fail_times: usize,
        transient: bool,
        failures: AtomicUsize,
    }

    impl<'a> FlakyChunks<'a> {
        fn new(data: &'a [f32], chunk_len: usize, target: usize, fail_times: usize) -> Self {
            Self {
                inner: SliceChunks::new(data, chunk_len),
                target,
                fail_times,
                transient: true,
                failures: AtomicUsize::new(0),
            }
        }
    }

    impl ChunkSource<f32> for FlakyChunks<'_> {
        fn num_chunks(&self) -> usize {
            self.inner.num_chunks()
        }

        fn load_chunk(&self, idx: usize) -> Result<Vec<f32>, ChunkError> {
            if idx == self.target && self.failures.load(Ordering::SeqCst) < self.fail_times {
                self.failures.fetch_add(1, Ordering::SeqCst);
                return Err(ChunkError {
                    chunk: idx,
                    message: "simulated read failure".to_string(),
                    transient: self.transient,
                });
            }
            self.inner.load_chunk(idx)
        }

        fn total_len(&self) -> usize {
            self.inner.total_len()
        }

        fn source_name(&self) -> &str {
            "flaky-shards"
        }

        fn chunk_byte_offset(&self, idx: usize) -> Option<u64> {
            self.inner.chunk_byte_offset(idx)
        }
    }

    #[test]
    fn transient_chunk_failures_are_retried() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(1 << 17, 6);
        let source = FlakyChunks::new(&data, 1 << 15, 2, 2);
        let res = streaming_select(
            &mut device,
            &source,
            1 << 16,
            &SampleSelectConfig::default(),
        )
        .unwrap();
        assert_eq!(res.value, reference_select(&data, 1 << 16).unwrap());
        assert_eq!(res.report.resilience.retries, 2);
        let line = res.report.resilience.log[0].to_string();
        assert!(line.contains("chunk 2"));
        // the diagnostics identify the source and the byte position
        assert!(line.contains("flaky-shards"));
        assert!(
            line.contains(&format!("at byte {}", (2 << 15) * 4)),
            "log line: {line}"
        );
        // backoff advanced the simulated clock
        assert!(device.now() > SimTime::ZERO);
    }

    #[test]
    fn permanent_chunk_failure_is_not_retried() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(1 << 16, 7);
        let mut source = FlakyChunks::new(&data, 1 << 14, 1, usize::MAX);
        source.transient = false;
        let err = streaming_select(&mut device, &source, 100, &SampleSelectConfig::default())
            .unwrap_err();
        match err {
            SelectError::ChunkLoad(e) => {
                assert_eq!(e.chunk, 1);
                assert!(!e.transient);
            }
            other => panic!("expected ChunkLoad, got {other}"),
        }
        // exactly one attempt: permanent errors short-circuit
        assert_eq!(source.failures.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chunk_retries_are_bounded() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(1 << 16, 8);
        let source = FlakyChunks::new(&data, 1 << 14, 0, usize::MAX);
        let err = streaming_select(&mut device, &source, 100, &SampleSelectConfig::default())
            .unwrap_err();
        assert!(err.is_transient(), "exhausted retries keep the fault class");
        assert!(matches!(err, SelectError::ChunkLoad(_)));
        // initial attempt + CHUNK_MAX_RETRIES retries, then give up
        assert_eq!(
            source.failures.load(Ordering::SeqCst),
            1 + CHUNK_MAX_RETRIES as usize
        );
    }

    // -----------------------------------------------------------------
    // Per-chunk sample shares
    // -----------------------------------------------------------------

    /// Sum of the per-chunk shares over a full pass of `chunk_lens`.
    fn total_share(s: usize, chunk_lens: &[usize]) -> usize {
        let n: usize = chunk_lens.iter().sum();
        let mut seen = 0u64;
        let mut total = 0usize;
        for &len in chunk_lens {
            total += chunk_sample_share(s, n, seen, len);
            seen += len as u64;
        }
        total
    }

    #[test]
    fn sample_shares_sum_exactly_to_s_across_adversarial_chunk_mixes() {
        // The pre-fix floor-then-max(1) share drifted in both
        // directions: 999 one-element chunks forced >= 999 draws for
        // s = 256, and 7 equal mid-size chunks each floored below their
        // fair share. Every mix here must now total exactly s.
        let mixes: &[&[usize]] = &[
            // many tiny chunks (each rounds up to 1 pre-fix)
            &[1; 999],
            // equal chunks that don't divide s (each floors down pre-fix)
            &[1000; 7],
            // one huge chunk among dust
            &[1, 1, 1, 1_000_000, 1, 1, 1],
            // empty chunks interleaved (must contribute 0 draws)
            &[0, 4096, 0, 0, 128, 0, 65_536],
            // pathological: n smaller than s
            &[3, 1, 2],
            // single chunk degenerate case
            &[123_457],
        ];
        for s in [1usize, 7, 256, 1024] {
            for (i, mix) in mixes.iter().enumerate() {
                assert_eq!(
                    total_share(s, mix),
                    s,
                    "mix #{i} with s={s} drifted from the configured sample size"
                );
            }
        }
    }

    #[test]
    fn sample_share_is_deterministic_and_order_sensitive_only_via_seen() {
        // The share of a chunk is a pure function of (s, n, seen, len):
        // resuming from a checkpointed `elements_seen` reproduces the
        // uninterrupted run's draws exactly.
        for seen in [0u64, 17, 999] {
            assert_eq!(
                chunk_sample_share(256, 100_000, seen, 1234),
                chunk_sample_share(256, 100_000, seen, 1234)
            );
        }
    }

    #[test]
    fn uneven_chunk_sizes_still_select_exactly() {
        // End-to-end over a source with wildly varying chunk lengths
        // (the shapes the old max(1) share inflated the most).
        struct UnevenChunks<'a> {
            data: &'a [f32],
            bounds: Vec<usize>,
        }
        impl ChunkSource<f32> for UnevenChunks<'_> {
            fn num_chunks(&self) -> usize {
                self.bounds.len() - 1
            }
            fn load_chunk(&self, idx: usize) -> Result<Vec<f32>, ChunkError> {
                Ok(self.data[self.bounds[idx]..self.bounds[idx + 1]].to_vec())
            }
            fn total_len(&self) -> usize {
                self.data.len()
            }
        }
        let data = uniform(40_000, 91);
        // 256 one-element chunks, then one huge chunk, then mid chunks.
        let mut bounds: Vec<usize> = (0..=256).collect();
        bounds.push(30_000);
        bounds.push(35_000);
        bounds.push(40_000);
        let source = UnevenChunks {
            data: &data,
            bounds,
        };
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let cfg = SampleSelectConfig::default();
        let res = streaming_select(&mut device, &source, 20_000, &cfg).unwrap();
        assert_eq!(
            res.value,
            crate::element::reference_select(&data, 20_000).unwrap()
        );
        // The committed sample sort must have staged exactly
        // s = sample_size().max(b) elements in shared memory.
        let s = cfg.sample_size().max(cfg.num_buckets);
        let sample_commit = device
            .records()
            .iter()
            .find(|r| r.name == "sample")
            .expect("sampling pass committed");
        assert_eq!(
            sample_commit.config.shared_mem_bytes as usize,
            s * std::mem::size_of::<f32>(),
            "sample size drifted from the configured s"
        );
    }

    // -----------------------------------------------------------------
    // Checkpoint / resume
    // -----------------------------------------------------------------

    fn temp_ckpt(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sselect-ckpt-{}-{tag}.ckpt", std::process::id()))
    }

    fn test_fingerprint() -> Fingerprint {
        let topo = ShardTopology::single(1000);
        Fingerprint {
            seed: 7,
            n: 1000,
            rank: 500,
            num_chunks: 4,
            num_buckets: 16,
            shards: topo.shards() as u64,
            topology_hash: topo.fingerprint(),
            elem_bytes: 4,
        }
    }

    #[test]
    fn checkpoint_roundtrips_losslessly() {
        let fp = test_fingerprint();
        let state = CheckpointState::<f32> {
            phase: PHASE_COUNT,
            next_chunk: 2,
            rng_state: 0xDEAD_BEEF,
            elements_seen: 500,
            sample: vec![],
            splitters: (0..15).map(|i| i as f32).collect(),
            counts: (0..16).map(|i| i * 3).collect(),
            kept: vec![1.5, -0.0, f32::NAN],
        };
        let bytes = encode_checkpoint(&fp, &state);
        let back = decode_checkpoint::<f32>(&bytes, &fp).unwrap();
        assert_eq!(back.phase, PHASE_COUNT);
        assert_eq!(back.next_chunk, 2);
        assert_eq!(back.rng_state, 0xDEAD_BEEF);
        assert_eq!(back.elements_seen, 500);
        assert_eq!(back.splitters, state.splitters);
        assert_eq!(back.counts, state.counts);
        // bit-exact, including NaN payloads and the sign of -0.0
        let kept_bits: Vec<u32> = back.kept.iter().map(|x| x.to_bits()).collect();
        let expect_bits: Vec<u32> = state.kept.iter().map(|x| x.to_bits()).collect();
        assert_eq!(kept_bits, expect_bits);
    }

    #[test]
    fn checksum_catches_any_flipped_byte() {
        let fp = test_fingerprint();
        let state = CheckpointState::<f32>::fresh(7);
        let bytes = encode_checkpoint(&fp, &state);
        for pos in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_checkpoint::<f32>(&bad, &fp).is_err(),
                "flip at byte {pos} must be detected"
            );
        }
    }

    #[test]
    fn unbacked_length_field_is_truncated_not_reserved() {
        // A valid checksum over a sample length of n = 2^40 with no
        // elements behind it: rejected before anything is reserved.
        let mut fp = test_fingerprint();
        fp.n = 1 << 40;
        let fresh = encode_checkpoint(&fp, &CheckpointState::<f32>::fresh(7));
        // Four empty arrays (a length word each) and the checksum end it.
        let mut bytes = fresh[..fresh.len() - 5 * 8].to_vec();
        push_u64(&mut bytes, fp.n);
        let checksum = fnv1a64(&bytes);
        push_u64(&mut bytes, checksum);
        let err = decode_checkpoint::<f32>(&bytes, &fp).unwrap_err();
        assert!(err.contains("truncated"), "got: {err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Truncated, bit-flipped and over-long checkpoints of every phase
        /// end in `Err` (a clean restart for the caller), never a panic.
        #[test]
        fn hostile_checkpoints_never_panic(
            phase in 0u8..3,
            sample in 0usize..24,
            kept in 0usize..24,
            raw in any::<u64>(),
        ) {
            let fp = test_fingerprint();
            let mut rng = SplitMix64::new(raw);
            let mut elems = |len: usize| -> Vec<f32> {
                (0..len).map(|_| f32::from_bits(rng.next_u64() as u32)).collect()
            };
            let splitters = elems(if phase > PHASE_SAMPLE { 15 } else { sample % 16 });
            let state = CheckpointState::<f32> {
                phase,
                next_chunk: raw % (fp.num_chunks + 1),
                rng_state: raw,
                elements_seen: raw % (fp.n + 1),
                sample: elems(sample),
                splitters,
                counts: (0..if phase > PHASE_COUNT { 16 } else { kept as u64 % 17 }).collect(),
                kept: elems(kept),
            };
            let file = encode_checkpoint(&fp, &state);
            // The four length fields: sample, splitters, counts, kept.
            let mut at = 90;
            let mut lengths = Vec::new();
            for len in [state.sample.len(), state.splitters.len(), state.counts.len()] {
                lengths.push(at);
                at += 8 + 8 * len;
            }
            lengths.push(at);
            attack_checkpoint(&file, &lengths, |b| decode_checkpoint::<f32>(b, &fp).is_ok());
        }
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let fp = test_fingerprint();
        let state = CheckpointState::<f32>::fresh(7);
        let bytes = encode_checkpoint(&fp, &state);
        let other = Fingerprint {
            rank: 501,
            ..test_fingerprint()
        };
        let err = decode_checkpoint::<f32>(&bytes, &other).unwrap_err();
        assert!(err.contains("fingerprint"), "got: {err}");
    }

    #[test]
    fn shard_topology_change_is_rejected_with_specific_message() {
        let two = ShardTopology::even(1000, 2);
        let four = ShardTopology::even(1000, 4);
        let fp2 = Fingerprint {
            shards: two.shards() as u64,
            topology_hash: two.fingerprint(),
            ..test_fingerprint()
        };
        let fp4 = Fingerprint {
            shards: four.shards() as u64,
            topology_hash: four.fingerprint(),
            ..test_fingerprint()
        };
        let bytes = encode_checkpoint(&fp2, &CheckpointState::<f32>::fresh(7));
        let err = decode_checkpoint::<f32>(&bytes, &fp4).unwrap_err();
        assert!(err.contains("shard topology changed"), "got: {err}");
        assert!(err.contains("2 shard(s)"), "got: {err}");
        // Same shard count but different boundaries is also a different run.
        let uneven = ShardTopology::from_boundaries(vec![0, 100, 1000]);
        let fp_uneven = Fingerprint {
            shards: uneven.shards() as u64,
            topology_hash: uneven.fingerprint(),
            ..test_fingerprint()
        };
        let err = decode_checkpoint::<f32>(&bytes, &fp_uneven).unwrap_err();
        assert!(err.contains("shard topology changed"), "got: {err}");
        // And the matching topology round-trips.
        assert!(decode_checkpoint::<f32>(&bytes, &fp2).is_ok());
    }

    #[test]
    fn resume_under_different_shard_count_restarts_cleanly() {
        let data = uniform(1 << 16, 23);
        let rank = 1 << 15;
        let cfg = SampleSelectConfig::default();
        let path = temp_ckpt("topo-mismatch");
        let _ = std::fs::remove_file(&path);

        // "Kill" a K=2 run mid-way so a checkpoint survives on disk.
        let two = ShardTopology::even(data.len(), 2);
        let mut flaky = FlakyChunks::new(&data, 1 << 13, 5, usize::MAX);
        flaky.transient = false;
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let err =
            streaming_select_with_topology(&mut device, &flaky, rank, &cfg, &path, false, &two)
                .unwrap_err();
        assert!(matches!(err, SelectError::ChunkLoad(_)));
        assert!(path.exists(), "checkpoint must survive the crash");

        // Resume with --shards 4: the checkpoint must be rejected with a
        // clean event and the run must restart (and still be exact).
        let four = ShardTopology::even(data.len(), 4);
        let healthy = SliceChunks::new(&data, 1 << 13);
        let mut device = Device::new(v100(), &pool);
        let res =
            streaming_select_with_topology(&mut device, &healthy, rank, &cfg, &path, true, &four)
                .unwrap();
        assert_eq!(res.value, reference_select(&data, rank).unwrap());
        assert_eq!(
            res.report.resilience.resumed, 0,
            "foreign topology never resumes"
        );
        assert_eq!(res.report.resilience.corruptions_detected, 1);
        assert!(
            res.report
                .resilience
                .log
                .iter()
                .any(|l| l.to_string().contains("shard topology changed")),
            "rejection must name the topology change: {:?}",
            res.report.resilience.log
        );
        assert!(!path.exists(), "checkpoint deleted after success");

        // Resuming with the *matching* topology still works.
        let _ = std::fs::remove_file(&path);
        let mut flaky = FlakyChunks::new(&data, 1 << 13, 5, usize::MAX);
        flaky.transient = false;
        let mut device = Device::new(v100(), &pool);
        let _ = streaming_select_with_topology(&mut device, &flaky, rank, &cfg, &path, false, &two)
            .unwrap_err();
        let mut device = Device::new(v100(), &pool);
        let res =
            streaming_select_with_topology(&mut device, &healthy, rank, &cfg, &path, true, &two)
                .unwrap();
        assert_eq!(res.value, reference_select(&data, rank).unwrap());
        assert_eq!(res.report.resilience.resumed, 1);
    }

    #[test]
    fn killed_run_resumes_bit_identical() {
        let data = uniform(1 << 17, 9);
        let rank = 1 << 16;
        let cfg = SampleSelectConfig::default();
        let path = temp_ckpt("resume");
        let _ = std::fs::remove_file(&path);

        // Ground truth: the uninterrupted run.
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let healthy = SliceChunks::new(&data, 1 << 14);
        let uninterrupted = streaming_select(&mut device, &healthy, rank, &cfg).unwrap();

        // "Kill" a run mid-way: chunk 5 fails permanently.
        let mut flaky = FlakyChunks::new(&data, 1 << 14, 5, usize::MAX);
        flaky.transient = false;
        let mut device = Device::new(v100(), &pool);
        let err = streaming_select_with_checkpoint(&mut device, &flaky, rank, &cfg, &path, false)
            .unwrap_err();
        assert!(matches!(err, SelectError::ChunkLoad(_)));
        assert!(path.exists(), "checkpoint must survive the crash");

        // Resume against the healthy source.
        let mut device = Device::new(v100(), &pool);
        let resumed =
            streaming_select_with_checkpoint(&mut device, &healthy, rank, &cfg, &path, true)
                .unwrap();
        assert_eq!(
            resumed.value.to_bits(),
            uninterrupted.value.to_bits(),
            "resumed run must be bit-identical to the uninterrupted one"
        );
        assert_eq!(resumed.report.resilience.resumed, 1);
        assert!(resumed
            .report
            .resilience
            .log
            .iter()
            .any(|l| matches!(l, ResilienceEvent::Resumed(_))));
        assert!(!path.exists(), "checkpoint deleted after success");
    }

    #[test]
    fn corrupted_checkpoint_triggers_clean_restart() {
        let data = uniform(1 << 16, 10);
        let rank = 1 << 15;
        let cfg = SampleSelectConfig::default();
        let path = temp_ckpt("corrupt");
        std::fs::write(&path, b"SSCKgarbage-that-is-not-a-checkpoint").unwrap();

        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let source = SliceChunks::new(&data, 1 << 14);
        let res = streaming_select_with_checkpoint(&mut device, &source, rank, &cfg, &path, true)
            .unwrap();
        assert_eq!(res.value, reference_select(&data, rank).unwrap());
        assert_eq!(res.report.resilience.resumed, 0, "nothing to resume from");
        assert_eq!(res.report.resilience.corruptions_detected, 1);
        assert!(res
            .report
            .resilience
            .log
            .iter()
            .any(|l| l.to_string().starts_with("corruption: checkpoint")));
        assert!(!path.exists(), "checkpoint deleted after success");
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let data = uniform(1 << 16, 11);
        let rank = 12_345;
        let cfg = SampleSelectConfig::default();
        let path = temp_ckpt("plain");
        let _ = std::fs::remove_file(&path);

        let pool = ThreadPool::new(2);
        let source = SliceChunks::new(&data, 1 << 14);
        let mut device = Device::new(v100(), &pool);
        let plain = streaming_select(&mut device, &source, rank, &cfg).unwrap();
        let mut device = Device::new(v100(), &pool);
        let ckpt = streaming_select_with_checkpoint(&mut device, &source, rank, &cfg, &path, false)
            .unwrap();
        assert_eq!(plain.value.to_bits(), ckpt.value.to_bits());
        assert_eq!(
            plain.report.kernel_launches("count_nowrite"),
            ckpt.report.kernel_launches("count_nowrite"),
            "checkpointing must not change the kernel schedule"
        );
        assert!(!path.exists());
    }
}
