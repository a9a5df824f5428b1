//! Telemetry primitives for the CompilerGym stack.
//!
//! Everything here is designed for hot paths: recording a latency sample or
//! bumping a counter is a handful of relaxed atomic operations, with no
//! allocation and no locking once a metric handle exists. Keyed metric
//! families take a short read-lock to resolve a name to a handle; callers on
//! hot paths should resolve once and reuse the `Arc`.
//!
//! The crate exposes:
//!
//! - [`Counter`] / [`Gauge`] / [`FloatSum`] — scalar atomics.
//! - [`Histogram`] — a log-linear atomic histogram over microsecond values
//!   with ~6% worst-case quantile error (16 sub-buckets per power of two).
//! - [`Family`] — name-keyed lazily-created metric instances.
//! - [`PassTable`] — per-compiler-pass call counts, cumulative wall time,
//!   and instruction-count deltas.
//! - [`TraceBuffer`] — a bounded ring of structured [`TraceEvent`]s with
//!   JSON-lines export.
//! - [`Telemetry`] — the registry tying the above together, with a process
//!   [`global`] instance, [`Telemetry::snapshot`] into the serializable
//!   [`TelemetrySnapshot`], and [`Telemetry::reset`].

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

pub mod export;

// ---------------------------------------------------------------------------
// Scalar metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (e.g. requests currently in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.set(0);
    }
}

/// A lock-free accumulating `f64` sum (compare-exchange on the bit pattern).
#[derive(Debug, Default)]
pub struct FloatSum(AtomicU64);

impl FloatSum {
    /// Creates a sum at `0.0` (whose bit pattern is all zeroes).
    pub const fn new() -> FloatSum {
        FloatSum(AtomicU64::new(0))
    }

    /// Adds `x` to the sum.
    pub fn add(&self, x: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current sum.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Zeroes the sum.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Values below 16 get exact buckets; above, each power of two splits into
/// `SUBBUCKETS` linear sub-buckets, bounding relative quantile error by
/// `1/SUBBUCKETS`.
const SUBBUCKETS: usize = 16;
/// Bucket count covering the full `u64` range: 16 exact + 60 exponent groups.
const BUCKETS: usize = SUBBUCKETS + (64 - 4) * SUBBUCKETS;

/// A concurrent log-linear histogram of `u64` samples (microseconds by
/// convention throughout this workspace).
///
/// Recording is wait-free aside from the `fetch_min`/`fetch_max` used to keep
/// exact extremes. Quantiles are computed on demand by walking bucket counts;
/// under concurrent recording they are a consistent-enough approximation, not
/// a linearizable snapshot.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUBBUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize; // >= 4 here
        let sub = ((v >> (exp - 4)) & (SUBBUCKETS as u64 - 1)) as usize;
        (exp - 3) * SUBBUCKETS + sub
    }

    /// A representative (midpoint) value for a bucket index.
    fn bucket_value(i: usize) -> u64 {
        if i < SUBBUCKETS {
            return i as u64;
        }
        let exp = i / SUBBUCKETS + 3;
        let sub = (i % SUBBUCKETS) as u64;
        let base = 1u64 << exp;
        let width = 1u64 << (exp - 4);
        base + sub * width + width / 2
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact minimum sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Exact maximum sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`q` in `[0, 1]`), or 0 if empty. The returned
    /// value is exact for samples below 16 and within ~6% above.
    ///
    /// The edge ranks are exact regardless of bucket geometry: the lowest
    /// rank is the recorded minimum and the highest the recorded maximum, so
    /// `quantile(0.0)` / `quantile(1.0)` never report a bucket bound instead
    /// of an observed sample (even when min and max share a bucket).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        if rank <= 1 {
            return self.min();
        }
        if rank >= total {
            return self.max();
        }
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Clamp into the exactly-tracked extremes so p99 never
                // exceeds max nor p0 undercuts min.
                return Self::bucket_value(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Zeroes all buckets and statistics.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Captures the summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum_micros: self.sum(),
            mean_micros: if count == 0 {
                0.0
            } else {
                self.sum() as f64 / count as f64
            },
            min_micros: self.min(),
            p50_micros: self.quantile(0.50),
            p90_micros: self.quantile(0.90),
            p99_micros: self.quantile(0.99),
            max_micros: self.max(),
        }
    }
}

/// Summary statistics of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_micros: u64,
    pub mean_micros: f64,
    pub min_micros: u64,
    pub p50_micros: u64,
    pub p90_micros: u64,
    pub p99_micros: u64,
    pub max_micros: u64,
}

// ---------------------------------------------------------------------------
// Keyed families
// ---------------------------------------------------------------------------

/// A name-keyed family of metrics, created lazily on first use.
#[derive(Debug, Default)]
pub struct Family<T> {
    inner: RwLock<HashMap<String, Arc<T>>>,
}

impl<T: Default> Family<T> {
    /// Creates an empty family.
    pub fn new() -> Family<T> {
        Family {
            inner: RwLock::new(HashMap::new()),
        }
    }

    /// Returns the metric for `key`, creating it on first use. Hot paths
    /// should cache the returned `Arc` rather than re-resolving per event.
    pub fn get(&self, key: &str) -> Arc<T> {
        if let Some(m) = self.inner.read().get(key) {
            return Arc::clone(m);
        }
        let mut w = self.inner.write();
        Arc::clone(
            w.entry(key.to_string())
                .or_insert_with(|| Arc::new(T::default())),
        )
    }

    /// Visits every `(key, metric)` pair.
    pub fn for_each(&self, mut f: impl FnMut(&str, &T)) {
        for (k, v) in self.inner.read().iter() {
            f(k, v);
        }
    }

    /// Removes all entries.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

// ---------------------------------------------------------------------------
// Per-pass profiling
// ---------------------------------------------------------------------------

/// Accumulated profile of one compiler pass across all invocations.
#[derive(Debug, Default)]
pub struct PassStats {
    calls: Counter,
    total_micros: Counter,
    changed: Counter,
    inst_delta: AtomicI64,
    wall: Histogram,
}

impl PassStats {
    /// Records one invocation: its wall time, whether it changed the module,
    /// and the signed instruction-count delta it caused.
    pub fn record(&self, wall: Duration, changed: bool, inst_delta: i64) {
        self.calls.inc();
        self.total_micros
            .add(wall.as_micros().min(u64::MAX as u128) as u64);
        if changed {
            self.changed.inc();
        }
        self.inst_delta.fetch_add(inst_delta, Ordering::Relaxed);
        self.wall.record_duration(wall);
    }

    /// Captures the summary.
    pub fn snapshot(&self) -> PassSnapshot {
        let wall = self.wall.snapshot();
        PassSnapshot {
            calls: self.calls.get(),
            total_micros: self.total_micros.get(),
            changed: self.changed.get(),
            inst_delta: self.inst_delta.load(Ordering::Relaxed),
            p50_micros: wall.p50_micros,
            p99_micros: wall.p99_micros,
        }
    }

    fn reset(&self) {
        self.calls.reset();
        self.total_micros.reset();
        self.changed.reset();
        self.inst_delta.store(0, Ordering::Relaxed);
        self.wall.reset();
    }
}

/// Summary of one pass in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassSnapshot {
    pub calls: u64,
    pub total_micros: u64,
    pub changed: u64,
    pub inst_delta: i64,
    /// Median single-invocation wall time.
    pub p50_micros: u64,
    /// Tail single-invocation wall time: regressions in a pass's worst
    /// case show up here long before they move the total.
    pub p99_micros: u64,
}

/// Per-pass profiles keyed by pass name.
pub type PassTable = Family<PassStats>;

// ---------------------------------------------------------------------------
// Differential-fuzzing statistics
// ---------------------------------------------------------------------------

/// Counters for the differential pass-pipeline fuzzer (`cg fuzz`).
///
/// `blame` attributes divergences to individual passes: every pass that
/// survives pipeline shrinking (i.e. is a member of a minimal failing
/// subsequence) gets one count, so persistent offenders surface in
/// `cg stats` even across many fuzz runs.
#[derive(Debug, Default)]
pub struct FuzzStats {
    /// Fuzz cases executed (one generated module + one sampled pipeline).
    pub cases: Counter,
    /// Cases whose oracle comparison diverged (miscompilations found).
    pub divergences: Counter,
    /// Divergences successfully shrunk to a minimal reproducer.
    pub shrunk: Counter,
    /// Cases where the IR verifier rejected the module after a pass.
    pub verifier_rejects: Counter,
    /// Cases where a pass panicked.
    pub pass_panics: Counter,
    /// Oracle executions (reference + optimized runs, all corpus inputs).
    pub oracle_runs: Counter,
    /// Per-pass blame counts (membership in a minimal failing pipeline).
    pub blame: Family<Counter>,
    /// Wall time per fuzz case, including shrinking.
    pub case_wall: Histogram,
}

impl FuzzStats {
    /// Captures the summary.
    pub fn snapshot(&self) -> FuzzSnapshot {
        let mut blame = BTreeMap::new();
        self.blame.for_each(|k, c| {
            blame.insert(k.to_string(), c.get());
        });
        FuzzSnapshot {
            cases: self.cases.get(),
            divergences: self.divergences.get(),
            shrunk: self.shrunk.get(),
            verifier_rejects: self.verifier_rejects.get(),
            pass_panics: self.pass_panics.get(),
            oracle_runs: self.oracle_runs.get(),
            blame,
            case_wall: self.case_wall.snapshot(),
        }
    }

    fn reset(&self) {
        self.cases.reset();
        self.divergences.reset();
        self.shrunk.reset();
        self.verifier_rejects.reset();
        self.pass_panics.reset();
        self.oracle_runs.reset();
        self.blame.for_each(|_, c| c.reset());
        self.case_wall.reset();
    }
}

/// Serializable form of [`FuzzStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzSnapshot {
    pub cases: u64,
    pub divergences: u64,
    pub shrunk: u64,
    pub verifier_rejects: u64,
    pub pass_panics: u64,
    pub oracle_runs: u64,
    pub blame: BTreeMap<String, u64>,
    pub case_wall: HistogramSnapshot,
}

// ---------------------------------------------------------------------------
// Structured tracing: spans, context propagation, flight recorder
// ---------------------------------------------------------------------------

/// One flat trace record, kept for wire compatibility with pre-span tooling.
///
/// [`SpanRecord`]'s serialized field set is a superset of this one, so JSONL
/// produced by the current [`TraceBuffer`] still parses as `TraceEvent` (the
/// extra keys are ignored), and old `TraceEvent` lines parse as `SpanRecord`
/// (the missing span fields default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Microseconds since process start when the span *ended*.
    pub ts_micros: u64,
    /// Span name, e.g. `step`, `observation:Autophase`, `pass:gvn`,
    /// `service:restart`.
    pub span: String,
    /// Free-form context (benchmark id, action name, error text, ...).
    pub detail: String,
    /// Span duration in microseconds (0 for instantaneous events).
    pub dur_micros: u64,
}

/// Typed outcome of a span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanStatus {
    /// Completed normally.
    #[default]
    Ok,
    /// Completed with an error.
    Error,
    /// An attempt that failed and was retried by a higher layer.
    Retried,
    /// A fault that the recovery ladder repaired (replay / restore).
    Recovered,
    /// Terminated in-band by a resource budget.
    BudgetExceeded,
    /// Rejected fast because a circuit breaker was open.
    CircuitOpen,
}

/// The identity a span propagates to its children — across threads via
/// [`enter_context`] and across the RPC boundary via the codec's metadata
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Shared by every span in one logical operation (e.g. one `env.step()`).
    pub trace_id: u64,
    /// The span that children created under this context parent to.
    pub span_id: u64,
}

/// One completed span. Field names are a superset of [`TraceEvent`] so the
/// two formats interparse (see `TraceEvent` docs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Microseconds since process start when the span ended.
    pub ts_micros: u64,
    /// Span name.
    pub span: String,
    /// Free-form context.
    pub detail: String,
    /// Span duration in microseconds.
    pub dur_micros: u64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id, or `None` for a trace root.
    pub parent_id: Option<u64>,
    /// Microseconds since process start when the span started.
    pub start_micros: u64,
    /// Typed outcome.
    pub status: SpanStatus,
    /// Key-value attributes.
    pub attrs: Vec<(String, String)>,
    /// Global record sequence number (total order across shards).
    pub seq: u64,
}

// Hand-written so legacy [`TraceEvent`] lines (no span identity) still parse:
// every post-`TraceEvent` field falls back to its default when absent.
impl serde::Deserialize for SpanRecord {
    fn from_value(v: &serde::value::Value) -> Result<SpanRecord, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::new(format!("expected object, got {}", v.kind())))?;
        fn opt<T: serde::Deserialize>(
            obj: &[(String, serde::value::Value)],
            key: &str,
        ) -> Result<Option<T>, serde::DeError> {
            serde::field(obj, key)
        }
        Ok(SpanRecord {
            ts_micros: serde::field(obj, "ts_micros")?,
            span: serde::field(obj, "span")?,
            detail: serde::field(obj, "detail")?,
            dur_micros: serde::field(obj, "dur_micros")?,
            trace_id: opt(obj, "trace_id")?.unwrap_or(0),
            span_id: opt(obj, "span_id")?.unwrap_or(0),
            parent_id: opt(obj, "parent_id")?,
            start_micros: opt(obj, "start_micros")?.unwrap_or(0),
            status: opt::<SpanStatus>(obj, "status")?.unwrap_or_default(),
            attrs: opt(obj, "attrs")?.unwrap_or_default(),
            seq: opt(obj, "seq")?.unwrap_or(0),
        })
    }
}

/// Process-wide id allocator for trace and span ids (never zero).
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CONTEXT_STACK: std::cell::RefCell<Vec<TraceContext>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The innermost active [`TraceContext`] on this thread, if any.
pub fn current_context() -> Option<TraceContext> {
    CONTEXT_STACK.with(|c| c.borrow().last().copied())
}

/// Makes `ctx` the current context on this thread until the guard drops.
/// This is how context crosses threads (worker dispatch, step runners) and
/// how a deserialized remote context is installed on the service side.
#[must_use]
pub fn enter_context(ctx: TraceContext) -> ContextGuard {
    CONTEXT_STACK.with(|c| c.borrow_mut().push(ctx));
    ContextGuard {
        span_id: ctx.span_id,
    }
}

/// Pops its context from the thread's stack on drop. Out-of-order drops are
/// tolerated (the matching entry is removed wherever it sits).
#[derive(Debug)]
pub struct ContextGuard {
    span_id: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT_STACK.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|x| x.span_id == self.span_id) {
                stack.remove(pos);
            }
        });
    }
}

/// An in-progress span. Created by [`TraceBuffer::span`]; records itself into
/// the ring when dropped (or via [`Span::finish`]). While alive it is the
/// current context on the creating thread, so nested `emit`s and spans
/// parent to it automatically.
pub struct Span<'a> {
    buf: &'a TraceBuffer,
    name: String,
    detail: String,
    attrs: Vec<(String, String)>,
    ctx: TraceContext,
    parent_id: Option<u64>,
    start: Instant,
    start_micros: u64,
    status: SpanStatus,
    guard: Option<ContextGuard>,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl Span<'_> {
    /// The context children should parent to (this span's identity).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Sets the typed outcome (default [`SpanStatus::Ok`]).
    pub fn set_status(&mut self, status: SpanStatus) {
        self.status = status;
    }

    /// Sets the free-form detail string.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// Appends a key-value attribute.
    pub fn attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.attrs.push((key.into(), value.into()));
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // Pop the context before recording so the record routes with the
        // span's own identity but siblings created after see the parent.
        drop(self.guard.take());
        let dur = self.start.elapsed();
        self.buf.record(SpanRecord {
            ts_micros: now_micros(),
            span: std::mem::take(&mut self.name),
            detail: std::mem::take(&mut self.detail),
            dur_micros: dur.as_micros().min(u64::MAX as u128) as u64,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.parent_id,
            start_micros: self.start_micros,
            status: self.status,
            attrs: std::mem::take(&mut self.attrs),
            seq: 0,
        });
    }
}

// ---------------------------------------------------------------------------
// Episode flight recorder
// ---------------------------------------------------------------------------

/// Episodes retained by the flight recorder.
pub const DEFAULT_EPISODE_CAPACITY: usize = 64;
/// Spans retained per recorded episode.
pub const DEFAULT_EPISODE_SPAN_CAPACITY: usize = 4096;

/// One recorded episode: identity, lifetime, and every span routed to it
/// (up to the per-episode cap, with honest drop accounting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeRecord {
    /// Recorder-assigned id (monotonic from 1).
    pub episode_id: u64,
    /// Environment id (e.g. `llvm-v0`).
    pub env_id: String,
    /// Benchmark URI.
    pub benchmark: String,
    /// When `begin_episode` was called (process-relative microseconds).
    pub started_micros: u64,
    /// When `end_episode` was called; 0 while the episode is open.
    pub ended_micros: u64,
    /// Trace ids bound to this episode (one per step, typically).
    pub trace_ids: Vec<u64>,
    /// Spans routed to this episode, in record order.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the per-episode cap was reached.
    pub dropped_spans: u64,
}

/// A lightweight listing entry for `cg trace` (no span payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeSummary {
    pub episode_id: u64,
    pub env_id: String,
    pub benchmark: String,
    pub started_micros: u64,
    pub ended_micros: u64,
    pub spans: u64,
    pub dropped_spans: u64,
}

#[derive(Debug, Default)]
struct RecorderInner {
    episodes: std::collections::VecDeque<EpisodeRecord>,
    /// trace_id → episode_id routing table.
    bindings: HashMap<u64, u64>,
    next_id: u64,
}

/// Last-N-episodes ring. Spans are routed here (in addition to the flat
/// ring) when their trace id has been bound to an episode, so a whole
/// episode's span trees can be reconstructed after the fact.
#[derive(Debug)]
pub struct EpisodeRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
    span_capacity: usize,
    recorded: Counter,
    dropped_episodes: Counter,
    dropped_spans: Counter,
}

impl Default for EpisodeRecorder {
    fn default() -> EpisodeRecorder {
        EpisodeRecorder::new(DEFAULT_EPISODE_CAPACITY, DEFAULT_EPISODE_SPAN_CAPACITY)
    }
}

impl EpisodeRecorder {
    /// Creates a recorder keeping at most `capacity` episodes of at most
    /// `span_capacity` spans each.
    pub fn new(capacity: usize, span_capacity: usize) -> EpisodeRecorder {
        EpisodeRecorder {
            inner: Mutex::new(RecorderInner::default()),
            capacity: capacity.max(1),
            span_capacity: span_capacity.max(1),
            recorded: Counter::new(),
            dropped_episodes: Counter::new(),
            dropped_spans: Counter::new(),
        }
    }

    /// Opens a new episode and returns its id, evicting the oldest episode
    /// (and its bindings) if the ring is full.
    pub fn begin(&self, env_id: &str, benchmark: &str) -> u64 {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        if inner.episodes.len() == self.capacity {
            if let Some(old) = inner.episodes.pop_front() {
                for t in &old.trace_ids {
                    inner.bindings.remove(t);
                }
                self.dropped_episodes.inc();
            }
        }
        inner.episodes.push_back(EpisodeRecord {
            episode_id: id,
            env_id: env_id.to_string(),
            benchmark: benchmark.to_string(),
            started_micros: now_micros(),
            ended_micros: 0,
            trace_ids: Vec::new(),
            spans: Vec::new(),
            dropped_spans: 0,
        });
        self.recorded.inc();
        id
    }

    /// Routes every span of `trace_id` to `episode_id` from now on. No-op if
    /// the episode has been evicted.
    pub fn bind(&self, trace_id: u64, episode_id: u64) {
        let mut inner = self.inner.lock();
        let Some(ep) = inner
            .episodes
            .iter_mut()
            .find(|e| e.episode_id == episode_id)
        else {
            return;
        };
        ep.trace_ids.push(trace_id);
        inner.bindings.insert(trace_id, episode_id);
    }

    /// Marks an episode ended (it keeps receiving late spans until evicted).
    pub fn end(&self, episode_id: u64) {
        let mut inner = self.inner.lock();
        if let Some(ep) = inner
            .episodes
            .iter_mut()
            .find(|e| e.episode_id == episode_id)
        {
            ep.ended_micros = now_micros();
        }
    }

    fn route(&self, rec: &SpanRecord) {
        let mut inner = self.inner.lock();
        let Some(&episode_id) = inner.bindings.get(&rec.trace_id) else {
            return;
        };
        let span_capacity = self.span_capacity;
        let Some(ep) = inner
            .episodes
            .iter_mut()
            .find(|e| e.episode_id == episode_id)
        else {
            return;
        };
        if ep.spans.len() >= span_capacity {
            ep.dropped_spans += 1;
            self.dropped_spans.inc();
        } else {
            ep.spans.push(rec.clone());
        }
    }

    /// Copies out one episode.
    pub fn episode(&self, episode_id: u64) -> Option<EpisodeRecord> {
        self.inner
            .lock()
            .episodes
            .iter()
            .find(|e| e.episode_id == episode_id)
            .cloned()
    }

    /// Id of the most recently opened episode.
    pub fn last_episode_id(&self) -> Option<u64> {
        self.inner.lock().episodes.back().map(|e| e.episode_id)
    }

    /// Listing of retained episodes, oldest first.
    pub fn summaries(&self) -> Vec<EpisodeSummary> {
        self.inner
            .lock()
            .episodes
            .iter()
            .map(|e| EpisodeSummary {
                episode_id: e.episode_id,
                env_id: e.env_id.clone(),
                benchmark: e.benchmark.clone(),
                started_micros: e.started_micros,
                ended_micros: e.ended_micros,
                spans: e.spans.len() as u64,
                dropped_spans: e.dropped_spans,
            })
            .collect()
    }

    /// Episodes opened since the last clear.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Episodes evicted by the capacity bound.
    pub fn dropped_episodes(&self) -> u64 {
        self.dropped_episodes.get()
    }

    /// Spans discarded across all episodes by the per-episode cap.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.get()
    }

    /// Discards all episodes, bindings, and counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.episodes.clear();
        inner.bindings.clear();
        self.recorded.reset();
        self.dropped_episodes.reset();
        self.dropped_spans.reset();
    }
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

/// Shard count for the span ring (capped by the ring's capacity).
const TRACE_SHARDS: usize = 8;

/// A bounded, sharded ring of [`SpanRecord`]s with an embedded episode
/// flight recorder. When a shard is full its oldest record is dropped;
/// `dropped()` reports how many.
///
/// Records are spread across shards round-robin by sequence number, so
/// concurrent recorders contend on different locks; `events()` re-sorts by
/// the global sequence.
pub struct TraceBuffer {
    shards: Vec<Mutex<std::collections::VecDeque<SpanRecord>>>,
    capacity: usize,
    seq: AtomicU64,
    dropped: Counter,
    recorder: EpisodeRecorder,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::with_capacity(65_536)
    }
}

impl TraceBuffer {
    /// Creates a ring holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        let shards = TRACE_SHARDS.min(capacity);
        TraceBuffer {
            shards: (0..shards)
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            capacity,
            seq: AtomicU64::new(0),
            dropped: Counter::new(),
            recorder: EpisodeRecorder::default(),
        }
    }

    /// Appends a completed span record, evicting the oldest in its shard if
    /// full, and routes it to the flight recorder when its trace is bound to
    /// an episode.
    pub fn record(&self, mut rec: SpanRecord) {
        rec.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.recorder.route(&rec);
        let shards = self.shards.len();
        let shard = (rec.seq as usize) % shards;
        // Spread any capacity remainder over the low shards so the total
        // bound is exactly `capacity`.
        let shard_capacity = self.capacity / shards + usize::from(shard < self.capacity % shards);
        let mut q = self.shards[shard].lock();
        if q.len() >= shard_capacity {
            q.pop_front();
            self.dropped.inc();
        }
        q.push_back(rec);
    }

    /// Appends an instantaneous-or-timed event with [`SpanStatus::Ok`],
    /// parented to the thread's current context (a fresh root otherwise).
    pub fn emit(&self, span: impl Into<String>, detail: impl Into<String>, dur: Duration) {
        self.emit_status(span, detail, dur, SpanStatus::Ok);
    }

    /// [`TraceBuffer::emit`] with an explicit status.
    pub fn emit_status(
        &self,
        span: impl Into<String>,
        detail: impl Into<String>,
        dur: Duration,
        status: SpanStatus,
    ) {
        let end = now_micros();
        let dur_micros = dur.as_micros().min(u64::MAX as u128) as u64;
        let (trace_id, parent_id) = match current_context() {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (next_id(), None),
        };
        self.record(SpanRecord {
            ts_micros: end,
            span: span.into(),
            detail: detail.into(),
            dur_micros,
            trace_id,
            span_id: next_id(),
            parent_id,
            start_micros: end.saturating_sub(dur_micros),
            status,
            attrs: Vec::new(),
            seq: 0,
        });
    }

    /// Opens a span parented to the thread's current context (a fresh trace
    /// root otherwise). The span is current until it drops.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        let parent = current_context();
        self.span_impl(name.into(), parent)
    }

    /// Opens a root span of a brand-new trace, ignoring any ambient context.
    pub fn root_span(&self, name: impl Into<String>) -> Span<'_> {
        self.span_impl(name.into(), None)
    }

    /// Opens a span under an explicit (e.g. remote) parent context.
    pub fn span_with_parent(&self, name: impl Into<String>, parent: TraceContext) -> Span<'_> {
        self.span_impl(name.into(), Some(parent))
    }

    fn span_impl(&self, name: String, parent: Option<TraceContext>) -> Span<'_> {
        let ctx = TraceContext {
            trace_id: parent.map_or_else(next_id, |p| p.trace_id),
            span_id: next_id(),
        };
        Span {
            buf: self,
            name,
            detail: String::new(),
            attrs: Vec::new(),
            ctx,
            parent_id: parent.map(|p| p.span_id),
            start: Instant::now(),
            start_micros: now_micros(),
            status: SpanStatus::Ok,
            guard: Some(enter_context(ctx)),
        }
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Copies out the buffered records in global record order.
    pub fn events(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.lock().iter().cloned());
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Serializes the buffer as JSON lines (one record per line). Lines also
    /// parse as the legacy [`TraceEvent`] (extra keys are ignored).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&serde_json::to_string(&ev).expect("span record serializes"));
            out.push('\n');
        }
        out
    }

    /// The episode flight recorder fed by this ring.
    pub fn recorder(&self) -> &EpisodeRecorder {
        &self.recorder
    }

    /// Opens a flight-recorder episode (see [`EpisodeRecorder::begin`]).
    pub fn begin_episode(&self, env_id: &str, benchmark: &str) -> u64 {
        self.recorder.begin(env_id, benchmark)
    }

    /// Routes a trace to a recorded episode (see [`EpisodeRecorder::bind`]).
    pub fn bind_episode(&self, trace_id: u64, episode_id: u64) {
        self.recorder.bind(trace_id, episode_id);
    }

    /// Marks a recorded episode ended (see [`EpisodeRecorder::end`]).
    pub fn end_episode(&self, episode_id: u64) {
        self.recorder.end(episode_id);
    }

    /// Discards all buffered records, the dropped count, and the episode
    /// recorder's contents.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
        self.dropped.reset();
        self.recorder.clear();
    }
}

// ---------------------------------------------------------------------------
// SLO tracking
// ---------------------------------------------------------------------------

/// A step-latency service-level objective: steps at or under the objective
/// are "good", the rest "bad". Disabled until [`StepSlo::configure`] sets a
/// non-zero objective.
#[derive(Debug)]
pub struct StepSlo {
    objective_micros: AtomicU64,
    /// Availability target (e.g. 0.99) as `f64` bits.
    target_bits: AtomicU64,
    good: Counter,
    bad: Counter,
}

impl Default for StepSlo {
    fn default() -> StepSlo {
        StepSlo {
            objective_micros: AtomicU64::new(0),
            target_bits: AtomicU64::new(0.99f64.to_bits()),
            good: Counter::new(),
            bad: Counter::new(),
        }
    }
}

impl StepSlo {
    /// Sets the latency objective (0 disables) and availability target.
    pub fn configure(&self, objective: Duration, target: f64) {
        let micros = objective.as_micros().min(u64::MAX as u128) as u64;
        self.objective_micros.store(micros, Ordering::Relaxed);
        self.target_bits
            .store(target.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// The configured objective in microseconds (0 when disabled).
    pub fn objective_micros(&self) -> u64 {
        self.objective_micros.load(Ordering::Relaxed)
    }

    /// The configured availability target.
    pub fn target(&self) -> f64 {
        f64::from_bits(self.target_bits.load(Ordering::Relaxed))
    }

    /// Classifies one step duration against the objective. No-op while
    /// disabled.
    pub fn record(&self, dur: Duration) {
        let objective = self.objective_micros();
        if objective == 0 {
            return;
        }
        if dur.as_micros().min(u64::MAX as u128) as u64 <= objective {
            self.good.inc();
        } else {
            self.bad.inc();
        }
    }

    /// Steps meeting the objective.
    pub fn good(&self) -> u64 {
        self.good.get()
    }

    /// Steps missing the objective.
    pub fn bad(&self) -> u64 {
        self.bad.get()
    }

    /// Fraction of steps meeting the objective (1.0 when no data).
    pub fn compliance(&self) -> f64 {
        let good = self.good();
        let total = good + self.bad();
        if total == 0 {
            1.0
        } else {
            good as f64 / total as f64
        }
    }

    /// Error-budget burn rate: the observed bad fraction divided by the
    /// allowed bad fraction `1 - target`. 1.0 means burning exactly at
    /// budget; above 1.0 the SLO will be violated if sustained.
    pub fn burn_rate(&self) -> f64 {
        let good = self.good();
        let bad = self.bad();
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        let allowed = (1.0 - self.target()).max(1e-9);
        (bad as f64 / total as f64) / allowed
    }

    /// Captures the summary.
    pub fn snapshot(&self) -> SloSnapshot {
        SloSnapshot {
            objective_micros: self.objective_micros(),
            target: self.target(),
            good: self.good(),
            bad: self.bad(),
            compliance: self.compliance(),
            burn_rate: self.burn_rate(),
        }
    }

    /// Zeroes the good/bad counters, keeping the configuration.
    pub fn reset(&self) {
        self.good.reset();
        self.bad.reset();
    }
}

/// Serializable form of [`StepSlo`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSnapshot {
    pub objective_micros: u64,
    pub target: f64,
    pub good: u64,
    pub bad: u64,
    pub compliance: f64,
    pub burn_rate: f64,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Episode-level environment statistics.
#[derive(Debug, Default)]
pub struct EpisodeStats {
    /// Completed `reset()` calls.
    pub episodes: Counter,
    /// Completed `step()` calls.
    pub steps: Counter,
    /// Actions applied (one step may apply several).
    pub actions_total: Counter,
    /// Actions that actually mutated the program state.
    pub actions_changed: Counter,
    /// Sum of all step rewards.
    pub reward_sum: FloatSum,
    /// `reset()` wall time.
    pub reset_wall: Histogram,
    /// `step()` wall time.
    pub step_wall: Histogram,
    /// `fork()` wall time.
    pub fork_wall: Histogram,
}

impl EpisodeStats {
    /// Captures the summary.
    pub fn snapshot(&self) -> EpisodeSnapshot {
        EpisodeSnapshot {
            episodes: self.episodes.get(),
            steps: self.steps.get(),
            actions_total: self.actions_total.get(),
            actions_changed: self.actions_changed.get(),
            reward_sum: self.reward_sum.get(),
            reset_wall: self.reset_wall.snapshot(),
            step_wall: self.step_wall.snapshot(),
            fork_wall: self.fork_wall.snapshot(),
        }
    }

    fn reset(&self) {
        self.episodes.reset();
        self.steps.reset();
        self.actions_total.reset();
        self.actions_changed.reset();
        self.reward_sum.reset();
        self.reset_wall.reset();
        self.step_wall.reset();
        self.fork_wall.reset();
    }
}

/// Serializable form of [`EpisodeStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeSnapshot {
    pub episodes: u64,
    pub steps: u64,
    pub actions_total: u64,
    pub actions_changed: u64,
    pub reward_sum: f64,
    pub reset_wall: HistogramSnapshot,
    pub step_wall: HistogramSnapshot,
    pub fork_wall: HistogramSnapshot,
}

/// Parallel-evaluation statistics: the `EnvPool` worker fleet and the
/// shared evaluation cache (exact hits plus prefix-trie reuse).
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Evaluation jobs completed (hit or miss, success or error).
    pub jobs: Counter,
    /// Jobs that finished with an error outcome (after recovery gave up).
    pub job_errors: Counter,
    /// Worker panics caught mid-job (the worker's env is rebuilt).
    pub job_panics: Counter,
    /// Exact evaluation-cache hits: the full `(benchmark, sequence)` pair
    /// was already evaluated, so zero passes ran.
    pub cache_hits: Counter,
    /// Cache lookups that found no exact entry.
    pub cache_misses: Counter,
    /// Prefix-trie hits: a stored snapshot covered a proper prefix of the
    /// sequence, so only the novel suffix was executed.
    pub prefix_hits: Counter,
    /// Raw pass applications actually executed by pool workers.
    pub actions_executed: Counter,
    /// Pass applications skipped thanks to exact or prefix cache reuse.
    pub actions_saved: Counter,
    /// Cache entries discarded to respect the capacity bound.
    pub evictions: Counter,
    /// Worker threads currently alive across all pools.
    pub workers: Gauge,
    /// Jobs queued but not yet picked up by a worker.
    pub queue_depth: Gauge,
    /// Wall time of whole `evaluate_batch` calls.
    pub batch_wall: Histogram,
    /// Wall time of individual evaluation jobs.
    pub job_wall: Histogram,
}

impl PoolStats {
    /// Captures the summary.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            jobs: self.jobs.get(),
            job_errors: self.job_errors.get(),
            job_panics: self.job_panics.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            prefix_hits: self.prefix_hits.get(),
            actions_executed: self.actions_executed.get(),
            actions_saved: self.actions_saved.get(),
            evictions: self.evictions.get(),
            workers: self.workers.get(),
            queue_depth: self.queue_depth.get(),
            batch_wall: self.batch_wall.snapshot(),
            job_wall: self.job_wall.snapshot(),
        }
    }

    fn reset(&self) {
        self.jobs.reset();
        self.job_errors.reset();
        self.job_panics.reset();
        self.cache_hits.reset();
        self.cache_misses.reset();
        self.prefix_hits.reset();
        self.actions_executed.reset();
        self.actions_saved.reset();
        self.evictions.reset();
        self.workers.reset();
        self.queue_depth.reset();
        self.batch_wall.reset();
        self.job_wall.reset();
    }
}

/// Serializable form of [`PoolStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolSnapshot {
    pub jobs: u64,
    pub job_errors: u64,
    pub job_panics: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub prefix_hits: u64,
    pub actions_executed: u64,
    pub actions_saved: u64,
    pub evictions: u64,
    pub workers: i64,
    pub queue_depth: i64,
    pub batch_wall: HistogramSnapshot,
    pub job_wall: HistogramSnapshot,
}

/// Session-broker front-door statistics: admission control, per-tenant
/// quotas, queueing, load shedding, and graceful drain.
#[derive(Debug, Default)]
pub struct BrokerStats {
    /// Sessions admitted through the front door (quota reserved).
    pub admitted: Counter,
    /// Requests refused by the admission ladder (capacity or drain), each
    /// answered with a typed in-band `Overloaded` carrying `retry_after_ms`.
    pub refused: Counter,
    /// Queued work shed under queue pressure (newest non-established first).
    pub shed: Counter,
    /// Refusals attributable to a per-tenant quota (concurrent sessions or
    /// actions-per-second), a subset of `refused`.
    pub quota_refusals: Counter,
    /// Graceful drains initiated.
    pub drains: Counter,
    /// Live sessions checkpointed during drain.
    pub drained_checkpoints: Counter,
    /// Live sessions across all broker workers (including reservations for
    /// admitted-but-not-yet-started sessions).
    pub sessions: Gauge,
    /// Requests queued in tenant FIFOs, not yet dispatched to a worker.
    pub queue_depth: Gauge,
    /// Open front-door TCP connections.
    pub connections: Gauge,
    /// Time requests spend queued before a worker picks them up.
    pub queue_wait: Histogram,
}

impl BrokerStats {
    /// Captures the summary.
    pub fn snapshot(&self) -> BrokerSnapshot {
        BrokerSnapshot {
            admitted: self.admitted.get(),
            refused: self.refused.get(),
            shed: self.shed.get(),
            quota_refusals: self.quota_refusals.get(),
            drains: self.drains.get(),
            drained_checkpoints: self.drained_checkpoints.get(),
            sessions: self.sessions.get(),
            queue_depth: self.queue_depth.get(),
            connections: self.connections.get(),
            queue_wait: self.queue_wait.snapshot(),
        }
    }

    fn reset(&self) {
        self.admitted.reset();
        self.refused.reset();
        self.shed.reset();
        self.quota_refusals.reset();
        self.drains.reset();
        self.drained_checkpoints.reset();
        self.sessions.reset();
        self.queue_depth.reset();
        self.connections.reset();
        self.queue_wait.reset();
    }
}

/// Serializable form of [`BrokerStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerSnapshot {
    pub admitted: u64,
    pub refused: u64,
    pub shed: u64,
    pub quota_refusals: u64,
    pub drains: u64,
    pub drained_checkpoints: u64,
    pub sessions: i64,
    pub queue_depth: i64,
    pub connections: i64,
    pub queue_wait: HistogramSnapshot,
}

/// Transition-store (`cg-stdb`) statistics: WAL ingest, backpressure,
/// recovery, scrub/compaction, and the replay environment's hit rate.
#[derive(Debug, Default)]
pub struct StdbStats {
    /// Records durably appended to the write-ahead log.
    pub ingest_records: Counter,
    /// Payload bytes appended to the write-ahead log.
    pub ingest_bytes: Counter,
    /// Records dropped by the bounded ingest queue's backpressure policy
    /// (or abandoned after an unrecoverable append error). Every drop is
    /// counted — the store never loses a record silently.
    pub dropped_records: Counter,
    /// Appends retried after an in-process torn write was rolled back.
    pub append_retries: Counter,
    /// Replay-environment steps answered straight from the store.
    pub replay_hits: Counter,
    /// Replay-environment requests that fell through to the live compiler
    /// (missing or quarantined transition; traced as `stdb:miss`).
    pub replay_misses: Counter,
    /// Corrupt records quarantined during recovery or scrub (never
    /// silently skipped).
    pub quarantined_records: Counter,
    /// Torn tails truncated during recovery-on-open.
    pub torn_tails: Counter,
    /// Records whose checksum verified clean during scrub.
    pub scrub_ok: Counter,
    /// Checksum failures found by scrub.
    pub scrub_corrupt: Counter,
    /// Corrupt records repaired from an intact duplicate elsewhere in the
    /// log (content-addressed by the record checksum).
    pub scrub_repaired: Counter,
    /// Checkpoint files rejected at load time (bad checksum or torn JSON),
    /// quarantined and answered by the in-memory ring fallback.
    pub checkpoint_rejects: Counter,
    /// Compactions completed.
    pub compactions: Counter,
    /// Live WAL segment files.
    pub segments: Gauge,
    /// Bytes across live WAL segment files.
    pub store_bytes: Gauge,
    /// Wall time of individual WAL appends (writer thread side).
    pub append_wall: Histogram,
}

impl StdbStats {
    /// Captures the summary.
    pub fn snapshot(&self) -> StdbSnapshot {
        StdbSnapshot {
            ingest_records: self.ingest_records.get(),
            ingest_bytes: self.ingest_bytes.get(),
            dropped_records: self.dropped_records.get(),
            append_retries: self.append_retries.get(),
            replay_hits: self.replay_hits.get(),
            replay_misses: self.replay_misses.get(),
            quarantined_records: self.quarantined_records.get(),
            torn_tails: self.torn_tails.get(),
            scrub_ok: self.scrub_ok.get(),
            scrub_corrupt: self.scrub_corrupt.get(),
            scrub_repaired: self.scrub_repaired.get(),
            checkpoint_rejects: self.checkpoint_rejects.get(),
            compactions: self.compactions.get(),
            segments: self.segments.get(),
            store_bytes: self.store_bytes.get(),
            append_wall: self.append_wall.snapshot(),
        }
    }

    fn reset(&self) {
        self.ingest_records.reset();
        self.ingest_bytes.reset();
        self.dropped_records.reset();
        self.append_retries.reset();
        self.replay_hits.reset();
        self.replay_misses.reset();
        self.quarantined_records.reset();
        self.torn_tails.reset();
        self.scrub_ok.reset();
        self.scrub_corrupt.reset();
        self.scrub_repaired.reset();
        self.checkpoint_rejects.reset();
        self.compactions.reset();
        self.segments.reset();
        self.store_bytes.reset();
        self.append_wall.reset();
    }
}

/// Serializable form of [`StdbStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StdbSnapshot {
    pub ingest_records: u64,
    pub ingest_bytes: u64,
    pub dropped_records: u64,
    pub append_retries: u64,
    pub replay_hits: u64,
    pub replay_misses: u64,
    pub quarantined_records: u64,
    pub torn_tails: u64,
    pub scrub_ok: u64,
    pub scrub_corrupt: u64,
    pub scrub_repaired: u64,
    pub checkpoint_rejects: u64,
    pub compactions: u64,
    pub segments: i64,
    pub store_bytes: i64,
    pub append_wall: HistogramSnapshot,
}

/// Wire-protocol statistics: bytes on the wire per direction, frame
/// counts, handshakes, encode/decode latency, and the pipelined in-flight
/// window depth.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Payload bytes written as frames (request + response bodies,
    /// excluding the 4-byte length prefix).
    pub tx_bytes: Counter,
    /// Payload bytes read as frames.
    pub rx_bytes: Counter,
    /// Frames moved in either direction.
    pub frames: Counter,
    /// Frames that failed to decode (answered in band as typed errors).
    pub decode_errors: Counter,
    /// Calls issued through the pipelined (multi-in-flight) path.
    pub pipelined_calls: Counter,
    /// `Hello`/`HelloAck` handshakes the server completed.
    pub negotiations: Counter,
    /// Requests currently in flight on pipelined sockets.
    pub in_flight: Gauge,
    /// Wall time spent encoding frames.
    pub encode_wall: Histogram,
    /// Wall time spent decoding frames.
    pub decode_wall: Histogram,
}

impl WireStats {
    /// Captures the summary.
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            tx_bytes: self.tx_bytes.get(),
            rx_bytes: self.rx_bytes.get(),
            frames: self.frames.get(),
            decode_errors: self.decode_errors.get(),
            pipelined_calls: self.pipelined_calls.get(),
            negotiations: self.negotiations.get(),
            in_flight: self.in_flight.get(),
            encode_wall: self.encode_wall.snapshot(),
            decode_wall: self.decode_wall.snapshot(),
        }
    }

    fn reset(&self) {
        self.tx_bytes.reset();
        self.rx_bytes.reset();
        self.frames.reset();
        self.decode_errors.reset();
        self.pipelined_calls.reset();
        self.negotiations.reset();
        self.in_flight.reset();
        self.encode_wall.reset();
        self.decode_wall.reset();
    }
}

/// Serializable form of [`WireStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSnapshot {
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    pub frames: u64,
    pub decode_errors: u64,
    pub pipelined_calls: u64,
    pub negotiations: u64,
    pub in_flight: i64,
    pub encode_wall: HistogramSnapshot,
    pub decode_wall: HistogramSnapshot,
}

/// The telemetry registry for one process.
///
/// Most code uses the shared [`global`] instance; tests may build private
/// instances with [`Telemetry::new`].
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Per-request-kind service latency (`Ping`, `Step`, ...).
    pub requests: Family<Histogram>,
    /// Per-request-kind error responses.
    pub request_errors: Family<Counter>,
    /// Service requests currently being processed.
    pub in_flight: Gauge,
    /// Requests that hit the client deadline.
    pub timeouts: Counter,
    /// Session panics caught by the service runtime.
    pub panics: Counter,
    /// Service restarts (explicit or transparent-recovery).
    pub restarts: Counter,
    /// Episodes transparently restored mid-flight by action replay after a
    /// service fault.
    pub recoveries: Counter,
    /// Replays whose reward metric diverged from the pre-fault value
    /// (surfaced to callers as a typed error rather than silent corruption).
    pub replay_divergences: Counter,
    /// TCP client reconnects after an I/O error on the service socket.
    pub reconnects: Counter,
    /// Session checkpoints serialized by the service worker.
    pub checkpoints_taken: Counter,
    /// Recoveries that restored from a checkpoint (suffix replay) instead of
    /// replaying the full action history.
    pub checkpoint_restores: Counter,
    /// Sessions destroyed in-service for exceeding a resource budget
    /// (wall-clock or state-size), answered with a typed in-band error.
    pub budget_kills: Counter,
    /// Services proactively restarted by the watchdog after missed
    /// heartbeats.
    pub watchdog_restarts: Counter,
    /// Circuit-breaker transitions to the open state.
    pub breaker_trips: Counter,
    /// Calls rejected fast because a circuit was open.
    pub breaker_fast_fails: Counter,
    /// Circuit-breaker transitions from open to half-open (probe allowed).
    pub breaker_half_opens: Counter,
    /// Episode-level environment statistics.
    pub episode: EpisodeStats,
    /// Per-observation-space computation latency.
    pub observations: Family<Histogram>,
    /// Per-pass profiling table.
    pub passes: PassTable,
    /// Differential-fuzzer statistics (`cg fuzz`).
    pub fuzz: FuzzStats,
    /// Parallel-evaluation pool and evaluation-cache statistics.
    pub pool: PoolStats,
    /// Multi-tenant session-broker front-door statistics.
    pub broker: BrokerStats,
    /// Transition-store (WAL ingest, scrub, replay) statistics.
    pub stdb: StdbStats,
    /// Wire-protocol (frames + pipelining) statistics.
    pub wire: WireStats,
    /// Structured trace ring with the embedded episode flight recorder.
    pub trace: TraceBuffer,
    /// Step-latency service-level objective tracking.
    pub slo: StepSlo,
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Captures every metric into a serializable snapshot with deterministic
    /// (sorted) key order.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut requests = BTreeMap::new();
        self.requests.for_each(|k, h| {
            requests.insert(k.to_string(), h.snapshot());
        });
        let mut request_errors = BTreeMap::new();
        self.request_errors.for_each(|k, c| {
            request_errors.insert(k.to_string(), c.get());
        });
        let mut observations = BTreeMap::new();
        self.observations.for_each(|k, h| {
            observations.insert(k.to_string(), h.snapshot());
        });
        let mut passes = BTreeMap::new();
        self.passes.for_each(|k, p| {
            passes.insert(k.to_string(), p.snapshot());
        });
        TelemetrySnapshot {
            requests,
            request_errors,
            in_flight: self.in_flight.get(),
            timeouts: self.timeouts.get(),
            panics: self.panics.get(),
            restarts: self.restarts.get(),
            recoveries: self.recoveries.get(),
            replay_divergences: self.replay_divergences.get(),
            reconnects: self.reconnects.get(),
            checkpoints_taken: self.checkpoints_taken.get(),
            checkpoint_restores: self.checkpoint_restores.get(),
            budget_kills: self.budget_kills.get(),
            watchdog_restarts: self.watchdog_restarts.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_fast_fails: self.breaker_fast_fails.get(),
            breaker_half_opens: self.breaker_half_opens.get(),
            episode: self.episode.snapshot(),
            observations,
            passes,
            fuzz: self.fuzz.snapshot(),
            pool: self.pool.snapshot(),
            broker: self.broker.snapshot(),
            stdb: self.stdb.snapshot(),
            wire: self.wire.snapshot(),
            trace_events: self.trace.len() as u64,
            trace_dropped: self.trace.dropped(),
            episodes_recorded: self.trace.recorder().recorded(),
            episodes_dropped: self.trace.recorder().dropped_episodes(),
            episode_spans_dropped: self.trace.recorder().dropped_spans(),
            slo: self.slo.snapshot(),
        }
    }

    /// Zeroes every metric and clears the trace ring.
    pub fn reset(&self) {
        self.requests.for_each(|_, h| h.reset());
        self.request_errors.for_each(|_, c| c.reset());
        self.in_flight.reset();
        self.timeouts.reset();
        self.panics.reset();
        self.restarts.reset();
        self.recoveries.reset();
        self.replay_divergences.reset();
        self.reconnects.reset();
        self.checkpoints_taken.reset();
        self.checkpoint_restores.reset();
        self.budget_kills.reset();
        self.watchdog_restarts.reset();
        self.breaker_trips.reset();
        self.breaker_fast_fails.reset();
        self.breaker_half_opens.reset();
        self.episode.reset();
        self.observations.for_each(|_, h| h.reset());
        self.passes.for_each(|_, p| p.reset());
        self.fuzz.reset();
        self.pool.reset();
        self.broker.reset();
        self.stdb.reset();
        self.wire.reset();
        self.trace.clear();
        self.slo.reset();
    }
}

/// Point-in-time capture of a [`Telemetry`] registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    pub requests: BTreeMap<String, HistogramSnapshot>,
    pub request_errors: BTreeMap<String, u64>,
    pub in_flight: i64,
    pub timeouts: u64,
    pub panics: u64,
    pub restarts: u64,
    pub recoveries: u64,
    pub replay_divergences: u64,
    pub reconnects: u64,
    pub checkpoints_taken: u64,
    pub checkpoint_restores: u64,
    pub budget_kills: u64,
    pub watchdog_restarts: u64,
    pub breaker_trips: u64,
    pub breaker_fast_fails: u64,
    pub breaker_half_opens: u64,
    pub episode: EpisodeSnapshot,
    pub observations: BTreeMap<String, HistogramSnapshot>,
    pub passes: BTreeMap<String, PassSnapshot>,
    pub fuzz: FuzzSnapshot,
    pub pool: PoolSnapshot,
    pub broker: BrokerSnapshot,
    pub stdb: StdbSnapshot,
    pub wire: WireSnapshot,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub episodes_recorded: u64,
    pub episodes_dropped: u64,
    pub episode_spans_dropped: u64,
    pub slo: SloSnapshot,
}

/// The process-wide registry.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Microseconds elapsed since the first telemetry call in this process.
pub fn now_micros() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64
}

/// Times a region and records it into a histogram (and optionally the trace
/// ring) when dropped. Construct via [`Timer::start`].
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing.
    pub fn start() -> Timer {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops and records into `hist`, returning the elapsed duration.
    pub fn observe(self, hist: &Histogram) -> Duration {
        let d = self.start.elapsed();
        hist.record_duration(d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_below_sixteen() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_quantiles_on_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - want).abs() / want;
            assert!(err < 0.07, "q={q}: got {got}, want ~{want}, err {err}");
        }
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn histogram_snapshot_and_reset() {
        let h = Histogram::new();
        h.record(100);
        h.record(300);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_micros, 400);
        assert_eq!(s.mean_micros, 200.0);
        assert_eq!(s.min_micros, 100);
        assert_eq!(s.max_micros, 300);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_micros, 0);
        assert_eq!(s.p50_micros, 0);
    }

    #[test]
    fn histogram_concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 79_999);
        let total: u64 = (0..8u64)
            .map(|t| (0..10_000).map(|i| t * 10_000 + i).sum::<u64>())
            .sum();
        assert_eq!(h.sum(), total);
    }

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);

        let f = FloatSum::new();
        f.add(1.5);
        f.add(-0.25);
        assert!((f.get() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn float_sum_concurrent() {
        let f = Arc::new(FloatSum::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        f.add(0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(f.get(), 2000.0);
    }

    #[test]
    fn family_reuses_instances() {
        let fam: Family<Counter> = Family::new();
        fam.get("a").inc();
        fam.get("a").inc();
        fam.get("b").inc();
        assert_eq!(fam.get("a").get(), 2);
        assert_eq!(fam.get("b").get(), 1);
        let mut keys = Vec::new();
        fam.for_each(|k, _| keys.push(k.to_string()));
        keys.sort();
        assert_eq!(keys, ["a", "b"]);
    }

    #[test]
    fn trace_ring_bounds_and_jsonl() {
        let t = TraceBuffer::with_capacity(4);
        for i in 0..6 {
            t.emit("step", format!("i={i}"), Duration::from_micros(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let events = t.events();
        assert_eq!(events[0].detail, "i=2");
        let jsonl = t.export_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        let back: SpanRecord = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(back, events[0]);
    }

    #[test]
    fn span_jsonl_parses_as_legacy_trace_event() {
        let t = TraceBuffer::with_capacity(8);
        t.emit("step", "x", Duration::from_micros(7));
        let line = t.export_jsonl();
        let legacy: TraceEvent = serde_json::from_str(line.lines().next().unwrap()).unwrap();
        assert_eq!(legacy.span, "step");
        assert_eq!(legacy.detail, "x");
        assert_eq!(legacy.dur_micros, 7);
        // And the reverse: an old flat event parses as a span record with
        // defaulted span identity.
        let old = serde_json::to_string(&legacy).unwrap();
        let rec: SpanRecord = serde_json::from_str(&old).unwrap();
        assert_eq!(rec.span, "step");
        assert_eq!(rec.parent_id, None);
        assert_eq!(rec.status, SpanStatus::Ok);
    }

    #[test]
    fn histogram_quantile_edges_return_recorded_extremes() {
        // Two samples in the same log-linear bucket: the bucket midpoint is
        // neither of them, so only exact edge handling gets these right.
        let h = Histogram::new();
        h.record(1000);
        h.record(1023);
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!(h.quantile(0.01), 1000);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        // A singleton histogram reports its sample at every quantile.
        let h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 777);
        }
    }

    #[test]
    fn spans_nest_and_propagate_context() {
        let t = TraceBuffer::with_capacity(64);
        {
            let root = t.span("env:step");
            let root_ctx = root.context();
            {
                let mut child = t.span("rpc:Step");
                child.set_status(SpanStatus::Retried);
                child.attr("attempt", "1");
                assert_eq!(child.context().trace_id, root_ctx.trace_id);
            }
            t.emit("pass:gvn", "delta=-3", Duration::from_micros(5));
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        // Children record before the root (drop order), all one trace.
        let child = &events[0];
        let emitted = &events[1];
        let root = &events[2];
        assert_eq!(root.span, "env:step");
        assert_eq!(root.parent_id, None);
        assert_eq!(child.span, "rpc:Step");
        assert_eq!(child.parent_id, Some(root.span_id));
        assert_eq!(child.status, SpanStatus::Retried);
        assert_eq!(child.attrs, vec![("attempt".to_string(), "1".to_string())]);
        assert_eq!(emitted.parent_id, Some(root.span_id));
        assert!(events.iter().all(|e| e.trace_id == root.trace_id));
    }

    #[test]
    fn context_crosses_threads_via_guard() {
        let t = Arc::new(TraceBuffer::with_capacity(64));
        let root = t.span("root");
        let ctx = root.context();
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            let _g = enter_context(ctx);
            t2.emit("remote", "", Duration::ZERO);
        })
        .join()
        .unwrap();
        drop(root);
        let events = t.events();
        let remote = events.iter().find(|e| e.span == "remote").unwrap();
        let root = events.iter().find(|e| e.span == "root").unwrap();
        assert_eq!(remote.parent_id, Some(root.span_id));
        assert_eq!(remote.trace_id, root.trace_id);
    }

    #[test]
    fn flight_recorder_routes_bound_traces_and_bounds_memory() {
        let t = TraceBuffer::with_capacity(1024);
        let rec = t.recorder();
        let ep = t.begin_episode("llvm-v0", "benchmark://cbench-v1/qsort");
        {
            let root = t.span("env:step");
            t.bind_episode(root.context().trace_id, ep);
            t.emit("pass:gvn", "", Duration::ZERO);
        }
        // An unbound trace does not land in the episode.
        t.emit("unrelated", "", Duration::ZERO);
        t.end_episode(ep);
        let episode = rec.episode(ep).unwrap();
        assert_eq!(episode.spans.len(), 2);
        assert!(episode.spans.iter().all(|s| s.span != "unrelated"));
        assert!(episode.ended_micros >= episode.started_micros);
        assert_eq!(rec.last_episode_id(), Some(ep));

        // Per-episode span cap drops honestly.
        let small = EpisodeRecorder::new(2, 3);
        let id = small.begin("llvm-v0", "b");
        small.bind(42, id);
        for i in 0..5 {
            small.route(&SpanRecord {
                ts_micros: i,
                span: "s".to_string(),
                detail: String::new(),
                dur_micros: 0,
                trace_id: 42,
                span_id: i,
                parent_id: None,
                start_micros: i,
                status: SpanStatus::Ok,
                attrs: Vec::new(),
                seq: i,
            });
        }
        let got = small.episode(id).unwrap();
        assert_eq!(got.spans.len(), 3);
        assert_eq!(got.dropped_spans, 2);
        assert_eq!(small.dropped_spans(), 2);

        // Episode ring eviction unbinds and counts.
        let id2 = small.begin("llvm-v0", "b2");
        let id3 = small.begin("llvm-v0", "b3");
        assert!(small.episode(id).is_none());
        assert_eq!(small.dropped_episodes(), 1);
        assert!(small.episode(id2).is_some() && small.episode(id3).is_some());
        // Spans of the evicted episode's trace no longer route anywhere.
        small.route(&SpanRecord {
            ts_micros: 0,
            span: "late".to_string(),
            detail: String::new(),
            dur_micros: 0,
            trace_id: 42,
            span_id: 99,
            parent_id: None,
            start_micros: 0,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
            seq: 99,
        });
        assert!(small.episode(id2).unwrap().spans.is_empty());
    }

    #[test]
    fn slo_tracks_good_bad_and_burn_rate() {
        let slo = StepSlo::default();
        // Disabled: nothing records.
        slo.record(Duration::from_secs(10));
        assert_eq!(slo.good() + slo.bad(), 0);
        assert_eq!(slo.compliance(), 1.0);
        assert_eq!(slo.burn_rate(), 0.0);

        slo.configure(Duration::from_millis(2), 0.9);
        for _ in 0..9 {
            slo.record(Duration::from_millis(1));
        }
        slo.record(Duration::from_millis(50));
        assert_eq!(slo.good(), 9);
        assert_eq!(slo.bad(), 1);
        assert!((slo.compliance() - 0.9).abs() < 1e-9);
        // Bad fraction exactly at the allowed fraction: burn rate 1.0.
        assert!((slo.burn_rate() - 1.0).abs() < 1e-9);
        slo.reset();
        assert_eq!(slo.good() + slo.bad(), 0);
        assert_eq!(slo.objective_micros(), 2000);
    }

    #[test]
    fn registry_snapshot_roundtrips_through_json() {
        let t = Telemetry::new();
        t.requests.get("Step").record(120);
        t.request_errors.get("Step").inc();
        t.panics.inc();
        t.restarts.add(2);
        t.episode.steps.add(7);
        t.episode.reward_sum.add(3.5);
        t.passes
            .get("gvn")
            .record(Duration::from_micros(42), true, -5);
        t.trace.emit("step", "b", Duration::from_micros(9));

        let snap = t.snapshot();
        assert_eq!(snap.requests["Step"].count, 1);
        assert_eq!(snap.request_errors["Step"], 1);
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.restarts, 2);
        assert_eq!(snap.episode.steps, 7);
        assert_eq!(snap.passes["gvn"].calls, 1);
        assert_eq!(snap.passes["gvn"].inst_delta, -5);
        assert_eq!(snap.trace_events, 1);

        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        t.reset();
        let snap = t.snapshot();
        assert_eq!(snap.panics, 0);
        assert_eq!(snap.requests["Step"].count, 0);
        assert_eq!(snap.passes["gvn"].calls, 0);
        assert_eq!(snap.trace_events, 0);
    }

    #[test]
    fn timer_observes_into_histogram() {
        let h = Histogram::new();
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(1));
        let d = t.observe(&h);
        assert!(d >= Duration::from_millis(1));
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1000);
    }
}
