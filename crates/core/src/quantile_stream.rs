//! Streaming quantile telemetry: a continuous multiselect engine over
//! unbounded metric streams.
//!
//! Operational telemetry rarely wants one rank of one dataset — it wants
//! p50/p90/p99/p999 of a latency stream, refreshed every few seconds,
//! forever. This module turns the exact multiselect driver into that
//! engine: elements are ingested in arbitrary batches, a ring buffer
//! keeps the most recent window, and every time the window schedule
//! fires the engine runs one [`multi_select_with_workspace`] over the
//! window to produce *exact* quantile values (actual stream elements,
//! nearest-rank estimator — no sketches, no epsilon).
//!
//! Windows are **tumbling** (`slide == len`: disjoint) or **sliding**
//! (`slide < len`: overlapping). The first window closes once `len`
//! elements have arrived; subsequent windows close every `slide`
//! elements after that.
//!
//! ## Checkpoint / restart
//!
//! A telemetry engine outlives processes. The full engine state between
//! two batches is tiny — the window ring, the stream offset, the window
//! counter — so [`QuantileStream::checkpoint_bytes`] serializes exactly
//! that, reusing the streaming checkpoint envelope (the `SSCK` magic, a
//! version, a run fingerprint, and a trailing FNV-1a checksum; see
//! `streaming.rs`). Restoring from a checkpoint and replaying the rest
//! of the stream reproduces the uninterrupted run **bit for bit**: same
//! window boundaries, same quantile values, same window indices. A
//! corrupted or foreign checkpoint is rejected with a readable reason,
//! never resumed into wrong state.
//!
//! ## Observability
//!
//! Every finalized window bumps [`Counter::QuantileWindows`] and every
//! persisted checkpoint bumps [`Counter::QuantileCheckpoints`], so the
//! engine shows up in the fixed-slot metrics snapshot (and through its
//! Prometheus exposition) like every other driver. The quantile values
//! themselves carry a dynamic label set (`q="0.99"`), which the
//! fixed-name schema cannot hold, so [`QuantileStream::prometheus_text`]
//! renders them as a standalone exposition fragment for the scrape
//! surface to append.

use crate::element::SelectElement;
use crate::instrument::ResilienceEvents;
use crate::multiselect::multi_select_with_workspace;
use crate::obs::{self, Counter};
use crate::params::SampleSelectConfig;
use crate::streaming::{
    fnv1a64, load_chunk_with_retry, push_elems, push_u64, ChunkSource, Cursor, CHECKPOINT_MAGIC,
};
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::Device;
use std::path::Path;

/// Second magic word distinguishing a quantile-stream checkpoint from a
/// streaming-select checkpoint (both share the `SSCK` envelope).
const QS_KIND: [u8; 4] = *b"QNTL";
/// Quantile-stream checkpoint layout version.
const QS_VERSION: u32 = 1;

/// The default telemetry quantiles: p50 / p90 / p99 / p999.
pub const DEFAULT_PROBS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Window schedule of a quantile stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in elements.
    pub len: usize,
    /// Elements between consecutive window closes. `slide == len` is a
    /// tumbling window (disjoint), `slide < len` a sliding window
    /// (overlapping).
    pub slide: usize,
}

impl WindowSpec {
    /// Disjoint windows of `len` elements.
    pub fn tumbling(len: usize) -> Self {
        Self { len, slide: len }
    }

    /// Overlapping windows: `len` elements, re-evaluated every `slide`.
    pub fn sliding(len: usize, slide: usize) -> Self {
        Self { len, slide }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.len == 0 {
            return Err("window length must be at least 1".to_string());
        }
        if self.slide == 0 || self.slide > self.len {
            return Err(format!(
                "window slide {} must be in 1..={} (the window length)",
                self.slide, self.len
            ));
        }
        Ok(())
    }
}

/// Full configuration of a [`QuantileStream`].
#[derive(Debug, Clone)]
pub struct QuantileStreamConfig {
    /// Probabilities to track, each in `[0, 1]`. Order is preserved in
    /// every emitted [`WindowQuantiles::values`].
    pub probs: Vec<f64>,
    /// Window schedule.
    pub window: WindowSpec,
    /// Selection parameters for the per-window multiselect.
    pub select: SampleSelectConfig,
}

impl QuantileStreamConfig {
    /// p50/p90/p99/p999 over tumbling windows of `len` elements.
    pub fn telemetry(len: usize) -> Self {
        Self {
            probs: DEFAULT_PROBS.to_vec(),
            window: WindowSpec::tumbling(len),
            select: SampleSelectConfig::default(),
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        self.window.validate()?;
        if self.probs.is_empty() {
            return Err("at least one quantile probability is required".to_string());
        }
        for &p in &self.probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("quantile probability {p} outside [0, 1]"));
            }
        }
        Ok(())
    }

    /// Run identity for checkpoint compatibility: two configs with the
    /// same fingerprint produce the same window boundaries and ranks, so
    /// resuming across them is sound.
    fn fingerprint(&self, elem_bytes: u8) -> u64 {
        let mut bytes = Vec::with_capacity(24 + 8 * self.probs.len());
        push_u64(&mut bytes, self.window.len as u64);
        push_u64(&mut bytes, self.window.slide as u64);
        push_u64(&mut bytes, self.probs.len() as u64);
        for &p in &self.probs {
            push_u64(&mut bytes, p.to_bits());
        }
        bytes.push(elem_bytes);
        fnv1a64(&bytes)
    }
}

/// Nearest-rank estimator on a 0-indexed window of `len` elements:
/// the rank whose order statistic estimates the `p`-quantile.
pub fn rank_for_prob(len: usize, p: f64) -> usize {
    debug_assert!(len > 0);
    let r = (p * (len - 1) as f64).round();
    (r as usize).min(len - 1)
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// One finalized window's quantile readings.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowQuantiles<T> {
    /// 0-based window ordinal since the stream started.
    pub index: u64,
    /// Stream offset (elements ingested) at which the window closed.
    pub end_offset: u64,
    /// One exact order statistic per configured probability, in the
    /// order of [`QuantileStreamConfig::probs`].
    pub values: Vec<T>,
}

/// The continuous quantile engine. Feed it batches with
/// [`QuantileStream::ingest`]; it returns the windows that closed.
#[derive(Debug)]
pub struct QuantileStream<T: SelectElement> {
    cfg: QuantileStreamConfig,
    /// Last `window.len` elements; stream element `i` lives in slot
    /// `i % len`, so the slot being overwritten is always the oldest.
    ring: Vec<T>,
    /// Total elements ingested since the stream began.
    seen: u64,
    /// Windows finalized so far.
    windows_emitted: u64,
    /// Most recently finalized window (survives checkpoint/restart so a
    /// freshly resumed exporter scrapes the same gauges).
    last: Option<WindowQuantiles<T>>,
    /// Reused across window finalizations.
    ws: SelectWorkspace<T>,
}

impl<T: SelectElement> QuantileStream<T> {
    pub fn new(cfg: QuantileStreamConfig) -> Result<Self, SelectError> {
        cfg.validate()
            .map_err(|what| SelectError::InvalidArgument { what })?;
        Ok(Self {
            ring: Vec::with_capacity(cfg.window.len),
            cfg,
            seen: 0,
            windows_emitted: 0,
            last: None,
            ws: SelectWorkspace::new(),
        })
    }

    pub fn config(&self) -> &QuantileStreamConfig {
        &self.cfg
    }

    /// Total elements ingested since the stream began (checkpoint-safe).
    pub fn elements_seen(&self) -> u64 {
        self.seen
    }

    /// Windows finalized since the stream began (checkpoint-safe).
    pub fn windows_emitted(&self) -> u64 {
        self.windows_emitted
    }

    /// The most recently finalized window, if any.
    pub fn last(&self) -> Option<&WindowQuantiles<T>> {
        self.last.as_ref()
    }

    fn push(&mut self, x: T) {
        let len = self.cfg.window.len;
        let slot = (self.seen % len as u64) as usize;
        if self.ring.len() < len {
            debug_assert_eq!(slot, self.ring.len());
            self.ring.push(x);
        } else {
            self.ring[slot] = x;
        }
        self.seen += 1;
    }

    /// Whether the window schedule fires at the current offset: the
    /// first close at `len`, then every `slide` elements.
    fn window_due(&self) -> bool {
        let len = self.cfg.window.len as u64;
        self.seen >= len && (self.seen - len).is_multiple_of(self.cfg.window.slide as u64)
    }

    /// The current window contents in stream order (oldest first).
    fn window_snapshot(&self) -> Vec<T> {
        let len = self.ring.len();
        if len < self.cfg.window.len || self.seen as usize == len {
            return self.ring.clone();
        }
        let start = self.seen % len as u64;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.ring[start as usize..]);
        out.extend_from_slice(&self.ring[..start as usize]);
        out
    }

    fn finalize_window(&mut self, device: &mut Device) -> Result<WindowQuantiles<T>, SelectError> {
        let data = self.window_snapshot();
        let n = data.len();
        let ranks: Vec<usize> = self
            .cfg
            .probs
            .iter()
            .map(|&p| rank_for_prob(n, p))
            .collect();
        // Distinct probabilities can collapse to the same rank on a
        // small window; the driver wants each rank once, so select the
        // deduplicated set and fan the answers back out per probability.
        let mut uniq = ranks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let res =
            multi_select_with_workspace(device, &data, &uniq, &self.cfg.select, &mut self.ws)?;
        let values = ranks
            .iter()
            .map(|r| res.values[uniq.binary_search(r).unwrap()])
            .collect();
        obs::counter_add(Counter::QuantileWindows, 1);
        let window = WindowQuantiles {
            index: self.windows_emitted,
            end_offset: self.seen,
            values,
        };
        self.windows_emitted += 1;
        self.last = Some(window.clone());
        Ok(window)
    }

    /// Ingest a batch, returning every window that closed inside it (in
    /// close order; possibly several for a batch spanning multiple
    /// slides, possibly none).
    pub fn ingest(
        &mut self,
        device: &mut Device,
        batch: &[T],
    ) -> Result<Vec<WindowQuantiles<T>>, SelectError> {
        if self.seen.checked_add(batch.len() as u64).is_none() {
            return Err(SelectError::InvalidArgument {
                what: format!("stream offset {} overflows by this batch", self.seen),
            });
        }
        let mut closed = Vec::new();
        for &x in batch {
            self.push(x);
            if self.window_due() {
                closed.push(self.finalize_window(device)?);
            }
        }
        Ok(closed)
    }

    // -----------------------------------------------------------------
    // Checkpointing
    // -----------------------------------------------------------------

    /// Serialize the engine state: `SSCK` magic, `QNTL` kind, version,
    /// config fingerprint, offsets, the window ring in stream order, the
    /// last emitted window, and a trailing FNV-1a checksum.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 8 * self.ring.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&QS_KIND);
        out.extend_from_slice(&QS_VERSION.to_le_bytes());
        push_u64(&mut out, self.cfg.fingerprint(T::BYTES as u8));
        push_u64(&mut out, self.seen);
        push_u64(&mut out, self.windows_emitted);
        push_elems(&mut out, &self.window_snapshot());
        match &self.last {
            Some(w) => {
                out.push(1);
                push_u64(&mut out, w.index);
                push_u64(&mut out, w.end_offset);
                push_elems(&mut out, &w.values);
            }
            None => out.push(0),
        }
        let checksum = fnv1a64(&out);
        push_u64(&mut out, checksum);
        out
    }

    /// Rebuild an engine from [`QuantileStream::checkpoint_bytes`].
    /// Every rejection reason is a readable string; callers log it and
    /// start a fresh stream — a bad checkpoint must never poison one.
    pub fn from_checkpoint_bytes(cfg: QuantileStreamConfig, bytes: &[u8]) -> Result<Self, String> {
        cfg.validate()?;
        let mut cur = Cursor::open(bytes)?;
        if cur.take(4)? != QS_KIND {
            return Err("not a quantile-stream checkpoint".to_string());
        }
        let version = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        if version != QS_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let fingerprint = cur.u64()?;
        if fingerprint != cfg.fingerprint(T::BYTES as u8) {
            return Err(
                "fingerprint mismatch: checkpoint belongs to a different stream".to_string(),
            );
        }
        let seen = cur.u64()?;
        let windows_emitted = cur.u64()?;
        let window: Vec<T> = cur.elems(cfg.window.len as u64)?;
        let expected = (seen as u128).min(cfg.window.len as u128) as usize;
        if window.len() != expected {
            return Err(format!(
                "window carries {} elements, expected {expected} at offset {seen}",
                window.len()
            ));
        }
        let last = match cur.u8()? {
            0 => None,
            1 => {
                let index = cur.u64()?;
                let end_offset = cur.u64()?;
                let values: Vec<T> = cur.elems(cfg.probs.len() as u64)?;
                if values.len() != cfg.probs.len() {
                    return Err(format!(
                        "last window carries {} values for {} probabilities",
                        values.len(),
                        cfg.probs.len()
                    ));
                }
                Some(WindowQuantiles {
                    index,
                    end_offset,
                    values,
                })
            }
            k => return Err(format!("invalid last-window tag {k}")),
        };
        // The window schedule fixes how many windows closed by `seen`, and
        // the index and offset of the last.
        let (len, slide) = (cfg.window.len as u64, cfg.window.slide as u64);
        let due = seen.checked_sub(len).map_or(0, |past| past / slide + 1);
        let close = due.checked_sub(1).map(|i| (i, len + i * slide));
        if windows_emitted != due || last.as_ref().map(|w| (w.index, w.end_offset)) != close {
            return Err(format!("window counters disagree with offset {seen}"));
        }
        // The ring stores stream element `i` in slot `i % len`; the
        // checkpoint stores the window oldest-first. Undo the rotation
        // so subsequent pushes land exactly where the uninterrupted run
        // would have put them.
        let len = cfg.window.len;
        let ring = if window.len() < len {
            window
        } else {
            let mut ring = vec![window[0]; len];
            for (i, &x) in window.iter().enumerate() {
                ring[((seen - len as u64 + i as u64) % len as u64) as usize] = x;
            }
            ring
        };
        Ok(Self {
            cfg,
            ring,
            seen,
            windows_emitted,
            last,
            ws: SelectWorkspace::new(),
        })
    }

    /// Atomically persist the engine to `path` (sibling temp file +
    /// rename) and bump [`Counter::QuantileCheckpoints`].
    pub fn save_checkpoint(&self, path: &Path) -> std::io::Result<()> {
        let bytes = self.checkpoint_bytes();
        let tmp = path.with_extension("ckpt-tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        obs::counter_add(Counter::QuantileCheckpoints, 1);
        Ok(())
    }

    /// Load an engine persisted by [`QuantileStream::save_checkpoint`].
    pub fn load_checkpoint(cfg: QuantileStreamConfig, path: &Path) -> Result<Self, String> {
        let bytes = std::fs::read(path)
            .map_err(|err| format!("read `{}` failed ({err})", path.display()))?;
        Self::from_checkpoint_bytes(cfg, &bytes)
    }

    // -----------------------------------------------------------------
    // Export
    // -----------------------------------------------------------------

    /// Prometheus text-exposition fragment for the latest window: one
    /// gauge sample per configured probability (labelled `q="..."`),
    /// plus the engine's window/offset counters. Appended by scrape
    /// surfaces next to [`crate::obs::MetricsSnapshot::to_prometheus`],
    /// which carries the fixed-schema counters
    /// (`select_quantile_windows_total` and friends).
    pub fn prometheus_text(&self, metric: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        if let Some(w) = &self.last {
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (p, v) in self.cfg.probs.iter().zip(&w.values) {
                let _ = writeln!(out, "{metric}{{q=\"{p}\"}} {v:?}");
            }
            let _ = writeln!(out, "# TYPE {metric}_window_end_offset gauge");
            let _ = writeln!(out, "{metric}_window_end_offset {}", w.end_offset);
        }
        let _ = writeln!(out, "# TYPE {metric}_windows_total counter");
        let _ = writeln!(out, "{metric}_windows_total {}", self.windows_emitted);
        let _ = writeln!(out, "# TYPE {metric}_ingested_total counter");
        let _ = writeln!(out, "{metric}_ingested_total {}", self.seen);
        out
    }
}

// ---------------------------------------------------------------------
// Source-driven runs
// ---------------------------------------------------------------------

/// Result of one [`run_quantile_stream`] pass over a chunk source.
#[derive(Debug)]
pub struct QuantileStreamRun<T: SelectElement> {
    /// Every window finalized during this pass, in close order.
    pub windows: Vec<WindowQuantiles<T>>,
    /// The engine after the pass — hand it the next segment of the
    /// stream, or checkpoint it for the next process.
    pub engine: QuantileStream<T>,
    /// Whether the pass resumed from an existing checkpoint.
    pub resumed: bool,
    /// Resilience log of the pass (chunk-load retries, checkpoint
    /// notes, resume events).
    pub events: ResilienceEvents,
}

/// Drive a [`QuantileStream`] over a [`ChunkSource`] — the telemetry
/// analogue of `streaming_select_with_checkpoint`. Chunk loads retry
/// transient failures with the shared backoff ladder; after every chunk
/// the engine is checkpointed to `checkpoint` (best-effort), and with
/// `resume` an existing checkpoint restarts the pass from the first
/// unprocessed chunk instead of from scratch, reproducing the
/// uninterrupted run bit for bit. An unreadable, corrupt, or foreign
/// checkpoint degrades to a clean restart.
pub fn run_quantile_stream<T: SelectElement, S: ChunkSource<T>>(
    device: &mut Device,
    source: &S,
    cfg: &QuantileStreamConfig,
    checkpoint: Option<&Path>,
    resume: bool,
) -> Result<QuantileStreamRun<T>, SelectError> {
    let mut events = ResilienceEvents::default();
    let mut engine = None;
    let mut resumed = false;
    if resume {
        if let Some(path) = checkpoint {
            match QuantileStream::load_checkpoint(cfg.clone(), path) {
                Ok(e) => {
                    events.resume(format!(
                        "resumed quantile stream at offset {} ({} windows emitted)",
                        e.elements_seen(),
                        e.windows_emitted()
                    ));
                    resumed = true;
                    engine = Some(e);
                }
                Err(reason) => {
                    events.checkpoint_note(format!(
                        "checkpoint `{}` rejected ({reason}); clean restart",
                        path.display()
                    ));
                }
            }
        }
    }
    let mut engine = match engine {
        Some(e) => e,
        None => QuantileStream::new(cfg.clone())?,
    };

    let start_offset = engine.elements_seen();
    let mut skipped = 0u64;
    let mut windows = Vec::new();
    for idx in 0..source.num_chunks() {
        let chunk = load_chunk_with_retry(device, source, idx, None, &mut events)?;
        if skipped < start_offset {
            // Chunks the checkpointed run already ingested. Checkpoints
            // are written at chunk boundaries, so the offset must land
            // exactly on one; a misaligned source means the stream was
            // re-chunked and the resumed state cannot be trusted.
            skipped += chunk.len() as u64;
            if skipped > start_offset {
                return Err(SelectError::InvalidArgument {
                    what: format!(
                        "checkpoint offset {start_offset} does not align with chunk \
                         boundaries of `{}` (chunk {idx} ends at {skipped})",
                        source.source_name()
                    ),
                });
            }
            continue;
        }
        windows.extend(engine.ingest(device, &chunk)?);
        if let Some(path) = checkpoint {
            if let Err(err) = engine.save_checkpoint(path) {
                events.checkpoint_note(format!("write to `{}` failed ({err})", path.display()));
            }
        }
    }
    Ok(QuantileStreamRun {
        windows,
        engine,
        resumed,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::sort_elements;
    use crate::rng::SplitMix64;
    use crate::streaming::{ChunkError, SliceChunks};
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;
    use proptest::prelude::*;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn device(pool: &ThreadPool) -> Device<'_> {
        Device::new(v100(), pool)
    }

    /// Reference: sort the window, read the nearest-rank order
    /// statistics directly.
    fn reference_window(window: &[f32], probs: &[f64]) -> Vec<f32> {
        let mut sorted = window.to_vec();
        sort_elements(&mut sorted);
        probs
            .iter()
            .map(|&p| sorted[rank_for_prob(window.len(), p)])
            .collect()
    }

    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sselect-qs-{}-{tag}.ckpt", std::process::id()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Truncated, bit-flipped and over-long QNTL checkpoints, with and
        /// without a last window, end in `Err` (a fresh stream for the
        /// caller), never a panic.
        #[test]
        fn hostile_quantile_checkpoints_never_panic(
            len in 2usize..40,
            slide in any::<usize>(),
            probs in 1usize..4,
            pushed in 0usize..120,
            seed in any::<u64>(),
        ) {
            let cfg = QuantileStreamConfig {
                probs: [0.5, 0.9, 0.1][..probs].to_vec(),
                window: WindowSpec::sliding(len, 1 + slide % len),
                select: SampleSelectConfig::default(),
            };
            let pool = ThreadPool::new(1);
            let mut engine = QuantileStream::<f32>::new(cfg.clone()).unwrap();
            engine.ingest(&mut device(&pool), &uniform(pushed, seed)).unwrap();
            let file = engine.checkpoint_bytes();
            // The window's length, then (after the tag, index and end
            // offset) the last window's.
            let window = 36 + 8 + 8 * pushed.min(len);
            let lengths = match engine.last() {
                Some(_) => vec![36, window + 17],
                None => vec![36],
            };
            let decodes = |b: &[u8]| QuantileStream::<f32>::from_checkpoint_bytes(cfg.clone(), b).is_ok();
            crate::streaming::attack_checkpoint(&file, &lengths, decodes);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            QuantileStreamConfig {
                probs: vec![],
                window: WindowSpec::tumbling(64),
                select: SampleSelectConfig::default(),
            },
            QuantileStreamConfig {
                probs: vec![1.5],
                window: WindowSpec::tumbling(64),
                select: SampleSelectConfig::default(),
            },
            QuantileStreamConfig {
                probs: vec![0.5],
                window: WindowSpec::tumbling(0),
                select: SampleSelectConfig::default(),
            },
            QuantileStreamConfig {
                probs: vec![0.5],
                window: WindowSpec::sliding(64, 0),
                select: SampleSelectConfig::default(),
            },
            QuantileStreamConfig {
                probs: vec![0.5],
                window: WindowSpec::sliding(64, 65),
                select: SampleSelectConfig::default(),
            },
            QuantileStreamConfig {
                probs: vec![f64::NAN],
                window: WindowSpec::tumbling(64),
                select: SampleSelectConfig::default(),
            },
        ];
        for cfg in bad {
            assert!(matches!(
                QuantileStream::<f32>::new(cfg),
                Err(SelectError::InvalidArgument { .. })
            ));
        }
    }

    #[test]
    fn tumbling_windows_match_reference_quantiles() {
        let pool = ThreadPool::new(4);
        let mut dev = device(&pool);
        let cfg = QuantileStreamConfig::telemetry(4096);
        let mut engine = QuantileStream::new(cfg.clone()).unwrap();
        let data = uniform(3 * 4096 + 2048, 0x51AB);

        let mut windows = Vec::new();
        for batch in data.chunks(777) {
            windows.extend(engine.ingest(&mut dev, batch).unwrap());
        }
        // 3.5 windows of data: exactly 3 closes, the half-full fourth
        // window stays pending.
        assert_eq!(windows.len(), 3);
        assert_eq!(engine.windows_emitted(), 3);
        assert_eq!(engine.elements_seen(), data.len() as u64);
        for (w, chunk) in windows.iter().zip(data.chunks(4096)) {
            let expect = reference_window(chunk, &cfg.probs);
            assert_eq!(w.values.len(), expect.len());
            for (got, want) in w.values.iter().zip(&expect) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            // Telemetry sanity: the quantiles of a window are sorted
            // the way the probabilities are.
            assert!(w.values.windows(2).all(|v| v[0] <= v[1]));
        }
        assert_eq!(windows[0].end_offset, 4096);
        assert_eq!(windows[2].end_offset, 3 * 4096);
    }

    #[test]
    fn sliding_windows_follow_the_slide_schedule() {
        let pool = ThreadPool::new(4);
        let mut dev = device(&pool);
        let cfg = QuantileStreamConfig {
            probs: vec![0.5, 0.99],
            window: WindowSpec::sliding(1000, 250),
            select: SampleSelectConfig::default(),
        };
        let mut engine = QuantileStream::new(cfg.clone()).unwrap();
        let data = uniform(2000, 0x51_1D);
        let windows = engine.ingest(&mut dev, &data).unwrap();

        // Closes at 1000, 1250, 1500, 1750, 2000.
        assert_eq!(windows.len(), 5);
        let ends: Vec<u64> = windows.iter().map(|w| w.end_offset).collect();
        assert_eq!(ends, vec![1000, 1250, 1500, 1750, 2000]);
        // Each window covers the trailing 1000 elements of its offset.
        for w in &windows {
            let lo = (w.end_offset - 1000) as usize;
            let expect = reference_window(&data[lo..w.end_offset as usize], &cfg.probs);
            for (got, want) in w.values.iter().zip(&expect) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn duplicate_and_boundary_probs_are_served() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        // p=0 / p=1 hit the extremes; 0.5 twice collapses to one rank;
        // a tiny window collapses most ranks together.
        let cfg = QuantileStreamConfig {
            probs: vec![0.0, 0.5, 0.5, 0.999, 1.0],
            window: WindowSpec::tumbling(8),
            select: SampleSelectConfig::default(),
        };
        let mut engine = QuantileStream::new(cfg.clone()).unwrap();
        let data = uniform(8, 9);
        let windows = engine.ingest(&mut dev, &data).unwrap();
        assert_eq!(windows.len(), 1);
        let expect = reference_window(&data, &cfg.probs);
        let got: Vec<u32> = windows[0].values.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        assert_eq!(
            windows[0].values[1].to_bits(),
            windows[0].values[2].to_bits()
        );
    }

    /// The acceptance criterion: kill the engine mid-window, resume from
    /// the checkpoint, and the remainder of the stream must produce
    /// bit-identical windows to the uninterrupted run.
    #[test]
    fn mid_window_checkpoint_resume_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let cfg = QuantileStreamConfig {
            probs: DEFAULT_PROBS.to_vec(),
            window: WindowSpec::sliding(2048, 512),
            select: SampleSelectConfig::default(),
        };
        let data = uniform(3 * 2048 + 300, 0xC0FFEE);

        // Uninterrupted run.
        let mut dev_a = device(&pool);
        let mut a = QuantileStream::new(cfg.clone()).unwrap();
        let mut windows_a = Vec::new();
        for batch in data.chunks(333) {
            windows_a.extend(a.ingest(&mut dev_a, batch).unwrap());
        }

        // Interrupted run: stop 137 elements into a window (2048 + 512 +
        // 137 is mid-way between the closes at 2560 and 3072), persist,
        // "restart the process" by rebuilding from bytes only, continue.
        let cut = 2048 + 512 + 137;
        let mut dev_b = device(&pool);
        let mut b1 = QuantileStream::new(cfg.clone()).unwrap();
        let mut windows_b = Vec::new();
        for batch in data[..cut].chunks(333) {
            windows_b.extend(b1.ingest(&mut dev_b, batch).unwrap());
        }
        let bytes = b1.checkpoint_bytes();
        drop(b1);
        let mut b2 = QuantileStream::<f32>::from_checkpoint_bytes(cfg.clone(), &bytes).unwrap();
        assert_eq!(b2.elements_seen(), cut as u64);
        // The resumed engine still reports the last pre-kill window.
        assert_eq!(b2.last(), windows_b.last());
        let mut dev_b2 = device(&pool);
        for batch in data[cut..].chunks(333) {
            windows_b.extend(b2.ingest(&mut dev_b2, batch).unwrap());
        }

        assert_eq!(windows_a.len(), windows_b.len());
        for (wa, wb) in windows_a.iter().zip(&windows_b) {
            assert_eq!(wa.index, wb.index);
            assert_eq!(wa.end_offset, wb.end_offset);
            let bits_a: Vec<u32> = wa.values.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = wb.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
        assert_eq!(a.elements_seen(), b2.elements_seen());
        assert_eq!(a.windows_emitted(), b2.windows_emitted());
    }

    #[test]
    fn checkpoint_rejects_corruption_and_foreign_streams() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = QuantileStreamConfig::telemetry(256);
        let mut engine = QuantileStream::new(cfg.clone()).unwrap();
        engine.ingest(&mut dev, &uniform(700, 3)).unwrap();
        let bytes = engine.checkpoint_bytes();

        // Clean round-trip first.
        assert!(QuantileStream::<f32>::from_checkpoint_bytes(cfg.clone(), &bytes).is_ok());

        // A single flipped bit anywhere fails the checksum.
        let mut corrupt = bytes.clone();
        corrupt[20] ^= 0x40;
        let err = QuantileStream::<f32>::from_checkpoint_bytes(cfg.clone(), &corrupt).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Truncation is caught.
        let err =
            QuantileStream::<f32>::from_checkpoint_bytes(cfg.clone(), &bytes[..bytes.len() - 9])
                .unwrap_err();
        assert!(err.contains("checksum") || err.contains("short"), "{err}");

        // A different window schedule is a different stream.
        let mut other = cfg.clone();
        other.window = WindowSpec::sliding(256, 64);
        let err = QuantileStream::<f32>::from_checkpoint_bytes(other, &bytes).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Different probabilities too.
        let mut other = cfg.clone();
        other.probs = vec![0.5];
        let err = QuantileStream::<f32>::from_checkpoint_bytes(other, &bytes).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // A streaming-select checkpoint is recognized as foreign by its
        // kind word, not misparsed.
        let mut foreign = Vec::new();
        foreign.extend_from_slice(&CHECKPOINT_MAGIC);
        foreign.extend_from_slice(b"XXXX");
        push_u64(&mut foreign, 0);
        let checksum = fnv1a64(&foreign);
        push_u64(&mut foreign, checksum);
        let err = QuantileStream::<f32>::from_checkpoint_bytes(cfg, &foreign).unwrap_err();
        assert!(err.contains("not a quantile-stream"), "{err}");
    }

    #[test]
    fn checkpoint_offsets_off_the_window_schedule_are_errors() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        let cfg = QuantileStreamConfig::telemetry(8);
        let mut engine = QuantileStream::new(cfg.clone()).unwrap();
        engine.ingest(&mut dev, &uniform(20, 4)).unwrap();
        let bytes = engine.checkpoint_bytes();
        // `seen` and `windows_emitted` follow the 20-byte header; the
        // checksum covers everything before its own 8 bytes.
        let patched = |at: usize, value: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let body = b.len() - 8;
            let checksum = fnv1a64(&b[..body]);
            b[body..].copy_from_slice(&checksum.to_le_bytes());
            b
        };
        // A consistent stream at offset `u64::MAX`, with the last window
        // at its last close.
        let windows = (u64::MAX - 8) / 8 + 1;
        engine.seen = u64::MAX;
        engine.windows_emitted = windows;
        let last = engine.last.as_mut().unwrap();
        (last.index, last.end_offset) = (windows - 1, 8 + (windows - 1) * 8);
        let at_max = engine.checkpoint_bytes();
        for (case, bytes) in [
            ("seen = u64::MAX", patched(20, u64::MAX)),
            ("windows_emitted = u64::MAX", patched(28, u64::MAX)),
            ("consistent at u64::MAX", at_max),
        ] {
            match QuantileStream::<f32>::from_checkpoint_bytes(cfg.clone(), &bytes) {
                Err(_) => assert_ne!(case, "consistent at u64::MAX"),
                Ok(mut resumed) => {
                    assert_eq!(case, "consistent at u64::MAX", "decoded");
                    assert!(resumed.ingest(&mut dev, &[1.0]).is_err(), "{case}");
                }
            }
        }
    }

    #[test]
    fn source_driven_run_checkpoints_and_resumes() {
        let pool = ThreadPool::new(4);
        let cfg = QuantileStreamConfig::telemetry(1024);
        let data = uniform(5 * 1024, 0xABCD);
        let path = ckpt_path("source-resume");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference over the same source geometry.
        let mut dev_ref = device(&pool);
        let source = SliceChunks::new(&data, 512);
        let reference = run_quantile_stream(&mut dev_ref, &source, &cfg, None, false).unwrap();
        assert_eq!(reference.windows.len(), 5);
        assert!(!reference.resumed);

        // First process: only the first 6 chunks exist yet (a stream
        // that is still arriving), checkpoint after every chunk.
        let mut dev1 = device(&pool);
        let first_half = SliceChunks::new(&data[..6 * 512], 512);
        let run1 = run_quantile_stream(&mut dev1, &first_half, &cfg, Some(&path), false).unwrap();
        assert_eq!(run1.windows.len(), 3);
        assert!(path.exists());

        // Second process: the full source is now visible; resume skips
        // the already-ingested prefix and emits only the remaining
        // windows.
        let mut dev2 = device(&pool);
        let run2 = run_quantile_stream(&mut dev2, &source, &cfg, Some(&path), true).unwrap();
        assert!(run2.resumed);
        assert_eq!(run2.events.resumed, 1);
        assert_eq!(run2.windows.len(), 2);

        let all: Vec<&WindowQuantiles<f32>> =
            run1.windows.iter().chain(run2.windows.iter()).collect();
        assert_eq!(all.len(), reference.windows.len());
        for (got, want) in all.iter().zip(&reference.windows) {
            assert_eq!(got.index, want.index);
            assert_eq!(got.end_offset, want.end_offset);
            let ga: Vec<u32> = got.values.iter().map(|v| v.to_bits()).collect();
            let wa: Vec<u32> = want.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ga, wa);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn source_run_rejects_rechunked_resume_and_survives_flaky_loads() {
        let pool = ThreadPool::new(4);
        let cfg = QuantileStreamConfig::telemetry(1024);
        let data = uniform(4 * 1024, 77);
        let path = ckpt_path("rechunk");
        let _ = std::fs::remove_file(&path);

        let mut dev = device(&pool);
        let source = SliceChunks::new(&data[..2048], 512);
        run_quantile_stream(&mut dev, &source, &cfg, Some(&path), false).unwrap();

        // Resuming over a re-chunked source (chunk boundary no longer
        // lands on the checkpoint offset) must fail loudly, not skew.
        let rechunked = SliceChunks::new(&data, 700);
        let err = run_quantile_stream(&mut dev, &rechunked, &cfg, Some(&path), true).unwrap_err();
        assert!(matches!(err, SelectError::InvalidArgument { .. }));

        // Transient chunk-load failures ride the shared retry ladder.
        struct Flaky<'a> {
            inner: SliceChunks<'a, f32>,
            failed: std::sync::Mutex<bool>,
        }
        impl ChunkSource<f32> for Flaky<'_> {
            fn num_chunks(&self) -> usize {
                self.inner.num_chunks()
            }
            fn load_chunk(&self, idx: usize) -> Result<Vec<f32>, ChunkError> {
                let mut failed = self.failed.lock().unwrap();
                if idx == 2 && !*failed {
                    *failed = true;
                    return Err(ChunkError {
                        chunk: idx,
                        message: "injected timeout".to_string(),
                        transient: true,
                    });
                }
                self.inner.load_chunk(idx)
            }
            fn total_len(&self) -> usize {
                self.inner.total_len()
            }
        }
        let flaky = Flaky {
            inner: SliceChunks::new(&data, 512),
            failed: std::sync::Mutex::new(false),
        };
        let mut dev2 = device(&pool);
        let run = run_quantile_stream(&mut dev2, &flaky, &cfg, None, false).unwrap();
        assert_eq!(run.windows.len(), 4);
        assert_eq!(run.events.retries, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prometheus_text_exports_latest_window() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = QuantileStreamConfig::telemetry(512);
        let mut engine = QuantileStream::new(cfg).unwrap();

        // Before any window closes: counters only, no gauges.
        let text = engine.prometheus_text("latency_ms");
        assert!(text.contains("latency_ms_windows_total 0"));
        assert!(!text.contains("q=\"0.5\""));

        engine.ingest(&mut dev, &uniform(1200, 5)).unwrap();
        let text = engine.prometheus_text("latency_ms");
        assert!(text.contains("# TYPE latency_ms gauge"));
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            assert!(text.contains(&format!("latency_ms{{q=\"{q}\"}}")), "{text}");
        }
        assert!(text.contains("latency_ms_windows_total 2"));
        assert!(text.contains("latency_ms_ingested_total 1200"));
        assert!(text.contains("latency_ms_window_end_offset 1024"));
    }

    #[test]
    fn window_counters_feed_the_fixed_metric_schema() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let session = obs::ObsSession::start();
        let cfg = QuantileStreamConfig::telemetry(256);
        let mut engine = QuantileStream::new(cfg).unwrap();
        engine.ingest(&mut dev, &uniform(256 * 3, 11)).unwrap();
        let path = ckpt_path("metrics");
        engine.save_checkpoint(&path).unwrap();
        let report = session.finish();
        let get = |name: &str| {
            report
                .snapshot
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("select_quantile_windows_total"), 3);
        assert_eq!(get("select_quantile_checkpoints_total"), 1);
        // The gauges land on the Prometheus surface alongside them.
        let prom = report.snapshot.to_prometheus();
        assert!(prom.contains("select_quantile_windows_total 3"));
        assert!(prom.contains("select_quantile_checkpoints_total 1"));
        let _ = std::fs::remove_file(&path);
    }
}
