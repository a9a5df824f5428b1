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
//! - [`TraceBuffer`] — a bounded ring of [`SpanRecord`]s with JSON-lines
//!   export.
//! - [`Metric`] — what every live metric snapshots to and how it resets.
//!   Each metric group ([`PoolStats`], [`StdbStats`], ...) is written once
//!   as a `metrics!` declaration that yields its live struct, its
//!   `*Snapshot`, `snapshot()`, `reset()` and its exported families.
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
// Declared metrics
// ---------------------------------------------------------------------------

/// A live metric: what it captures into a snapshot and how it zeroes. The
/// scalars, keyed [`Family`]s, [`PassStats`] and every group declared with
/// `metrics!` implement it, so a group's `snapshot()` and `reset()` are a
/// walk over its fields.
pub trait Metric {
    /// The serializable capture.
    type Snap;
    /// Captures the current value.
    fn snap(&self) -> Self::Snap;
    /// Zeroes the metric.
    fn reset(&self);
}

macro_rules! scalar_metrics {
    ($($ty:ident => $snap:ty, $get:ident;)*) => {$(
        impl Metric for $ty {
            type Snap = $snap;
            fn snap(&self) -> $snap {
                self.$get()
            }
            fn reset(&self) {
                $ty::reset(self)
            }
        }
    )*};
}

scalar_metrics! {
    Counter => u64, get;
    Gauge => i64, get;
    FloatSum => f64, get;
    Histogram => HistogramSnapshot, snapshot;
}

impl<T: Metric + Default> Metric for Family<T> {
    type Snap = BTreeMap<String, T::Snap>;
    fn snap(&self) -> Self::Snap {
        let mut out = BTreeMap::new();
        self.for_each(|k, m| {
            out.insert(k.to_string(), m.snap());
        });
        out
    }
    fn reset(&self) {
        self.for_each(|_, m| m.reset());
    }
}

/// Evaluates a `derived` entry's getter on its live group.
fn derived<T, S>(live: &T, get: impl FnOnce(&T) -> S) -> S {
    get(live)
}

/// Declares a group of metrics once. An entry is a field, its kind (the live
/// metric type) and, in brackets, what it exports:
///
/// - `["cg_name" "help"]`: one family, typed by its snapshot value (a `u64`
///   is a counter, an `i64` or `f64` a gauge, a histogram a summary); a
///   leading `gauge` overrides the type;
/// - `[by "label" "cg_name" "help" = |v| &v.column; ...]`: keyed families,
///   one per column of each key's snapshot;
/// - `[]`: a nested group, which exports its own declarations.
///
/// The macro turns them into the live struct, a snapshot struct with the
/// same field names, `snapshot()`, `reset()`, [`Metric`] and the group's
/// exported families. `derived` entries are snapshot fields computed from
/// the live struct; `hidden` entries are live fields outside the snapshot,
/// reset by the function given, if any.
macro_rules! metrics {
    (@family [] $out:ident, $source:expr, $v:expr) => {
        export::Exported::export($v, &format!("{}.", $source), $out)
    };
    (@family [by $label:literal $($name:literal $help:literal = $col:expr);+]
        $out:ident, $source:expr, $v:expr) => {
        $(export::labeled($out, $source, $name, $help, $label, $v, $col);)+
    };
    (@family [$name:literal $help:literal] $out:ident, $source:expr, $v:expr) => {
        export::scalar($out, $source, $name, $help, None, $v)
    };
    (@family [$kind:ident $name:literal $help:literal] $out:ident, $source:expr, $v:expr) => {
        export::scalar($out, $source, $name, $help, Some(stringify!($kind)), $v)
    };
    (
        $(#[$meta:meta])*
        pub struct $live:ident => $snap:ident {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty [$($spec:tt)*],)*
        }
        $(derived {
            $($dfield:ident: $dty:ty [$($dspec:tt)*] = $get:expr,)*
        })?
        $(hidden {
            $($(#[$hmeta:meta])* $hvis:vis $hfield:ident: $hty:ty $(= $hreset:expr)?,)*
        })?
    ) => {
        $(#[$meta])*
        pub struct $live {
            $($(#[$fmeta])* pub $field: $ty,)*
            $($($(#[$hmeta])* $hvis $hfield: $hty,)*)?
        }

        #[doc = concat!("Serializable form of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub struct $snap {
            $(pub $field: <$ty as Metric>::Snap,)*
            $($(pub $dfield: $dty,)*)?
        }

        impl $live {
            /// Captures the summary.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: Metric::snap(&self.$field),)*
                    $($($dfield: derived(self, $get),)*)?
                }
            }

            /// Zeroes every metric of the group.
            pub fn reset(&self) {
                $(Metric::reset(&self.$field);)*
                $($($(($hreset)(&self.$hfield);)?)*)?
            }
        }

        impl Metric for $live {
            type Snap = $snap;
            fn snap(&self) -> $snap {
                self.snapshot()
            }
            fn reset(&self) {
                $live::reset(self)
            }
        }

        impl export::Exported for $snap {
            fn export(&self, path: &str, out: &mut Vec<export::MetricFamily>) {
                $(metrics!(@family [$($spec)*] out,
                    format!("{}{}", path, stringify!($field)), &self.$field);)*
                $($(metrics!(@family [$($dspec)*] out,
                    format!("{}{}", path, stringify!($dfield)), &self.$dfield);)*)?
            }
        }
    };
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

impl Metric for PassStats {
    type Snap = PassSnapshot;
    fn snap(&self) -> PassSnapshot {
        self.snapshot()
    }
    fn reset(&self) {
        PassStats::reset(self)
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

metrics! {
    /// Counters for the differential pass-pipeline fuzzer (`cg fuzz`).
    ///
    /// `blame` attributes divergences to individual passes: every pass that
    /// survives pipeline shrinking (i.e. is a member of a minimal failing
    /// subsequence) gets one count, so persistent offenders surface in
    /// `cg stats` even across many fuzz runs.
    #[derive(Debug, Default)]
    pub struct FuzzStats => FuzzSnapshot {
        /// Fuzz cases executed (one generated module + one sampled pipeline).
        cases: Counter ["cg_fuzz_cases_total" "Fuzz cases executed."],
        /// Cases whose oracle comparison diverged (miscompilations found).
        divergences: Counter ["cg_fuzz_divergences_total" "Fuzz divergences found."],
        /// Divergences successfully shrunk to a minimal reproducer.
        shrunk: Counter ["cg_fuzz_shrunk_total" "Divergences shrunk to a minimal reproducer."],
        /// Cases where the IR verifier rejected the module after a pass.
        verifier_rejects: Counter
            ["cg_fuzz_verifier_rejects_total" "Cases the IR verifier rejected after a pass."],
        /// Cases where a pass panicked.
        pass_panics: Counter ["cg_fuzz_pass_panics_total" "Cases where a pass panicked."],
        /// Oracle executions (reference + optimized runs, all corpus inputs).
        oracle_runs: Counter ["cg_fuzz_oracle_runs_total" "Oracle executions, reference and optimized."],
        /// Per-pass blame counts (membership in a minimal failing pipeline).
        blame: Family<Counter> [by "pass"
            "cg_fuzz_blame_total" "Memberships in a minimal failing pipeline, by pass." = |c| c],
        /// Wall time per fuzz case, including shrinking.
        case_wall: Histogram
            ["cg_fuzz_case_latency_micros" "Fuzz case wall time in microseconds, including shrinking."],
    }
}

// ---------------------------------------------------------------------------
// Structured tracing: spans, context propagation, flight recorder
// ---------------------------------------------------------------------------

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

/// One completed span: one line of [`TraceBuffer::export_jsonl`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// A retained episode: its record with `spans` left empty, and the spans
/// themselves as the very records the trace ring holds.
#[derive(Debug)]
struct Recorded {
    meta: EpisodeRecord,
    spans: Vec<Arc<SpanRecord>>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    episodes: std::collections::VecDeque<Recorded>,
    /// trace_id → episode_id routing table.
    bindings: HashMap<u64, u64>,
    next_id: u64,
}

impl RecorderInner {
    fn find(&mut self, episode_id: u64) -> Option<&mut Recorded> {
        self.episodes
            .iter_mut()
            .find(|e| e.meta.episode_id == episode_id)
    }
}

/// Last-N-episodes ring. Spans are routed here (in addition to the flat
/// ring) when their trace id has been bound to an episode, so a whole
/// episode's span trees can be reconstructed after the fact.
///
/// A routed span is not copied: the episode holds another handle to the
/// `Arc<SpanRecord>` the ring holds, and [`EpisodeRecorder::episode`]
/// copies the records out when it is read. An episode evicted by `begin`
/// is dropped after the lock is released, so freeing it never stalls span
/// routing on other threads.
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
        let evicted = if inner.episodes.len() == self.capacity {
            inner.episodes.pop_front()
        } else {
            None
        };
        if let Some(old) = &evicted {
            for t in &old.meta.trace_ids {
                inner.bindings.remove(t);
            }
            self.dropped_episodes.inc();
        }
        inner.episodes.push_back(Recorded {
            meta: EpisodeRecord {
                episode_id: id,
                env_id: env_id.to_string(),
                benchmark: benchmark.to_string(),
                started_micros: now_micros(),
                ended_micros: 0,
                trace_ids: Vec::new(),
                spans: Vec::new(),
                dropped_spans: 0,
            },
            spans: Vec::new(),
        });
        drop(inner);
        drop(evicted);
        self.recorded.inc();
        id
    }

    /// Routes every span of `trace_id` to `episode_id` from now on. No-op if
    /// the episode has been evicted.
    pub fn bind(&self, trace_id: u64, episode_id: u64) {
        let mut inner = self.inner.lock();
        let Some(ep) = inner.find(episode_id) else {
            return;
        };
        ep.meta.trace_ids.push(trace_id);
        inner.bindings.insert(trace_id, episode_id);
    }

    /// Marks an episode ended (it keeps receiving late spans until evicted).
    pub fn end(&self, episode_id: u64) {
        if let Some(ep) = self.inner.lock().find(episode_id) {
            ep.meta.ended_micros = now_micros();
        }
    }

    fn route(&self, rec: &Arc<SpanRecord>) {
        let mut inner = self.inner.lock();
        let Some(&episode_id) = inner.bindings.get(&rec.trace_id) else {
            return;
        };
        let span_capacity = self.span_capacity;
        let Some(ep) = inner.find(episode_id) else {
            return;
        };
        if ep.spans.len() >= span_capacity {
            ep.meta.dropped_spans += 1;
            self.dropped_spans.inc();
        } else {
            ep.spans.push(Arc::clone(rec));
        }
    }

    /// Copies out one episode, its spans included.
    pub fn episode(&self, episode_id: u64) -> Option<EpisodeRecord> {
        let (mut out, spans) = {
            let mut inner = self.inner.lock();
            let ep = inner.find(episode_id)?;
            (ep.meta.clone(), ep.spans.clone())
        };
        out.spans = spans.iter().map(|s| SpanRecord::clone(s)).collect();
        Some(out)
    }

    /// Id of the most recently opened episode.
    pub fn last_episode_id(&self) -> Option<u64> {
        self.inner.lock().episodes.back().map(|e| e.meta.episode_id)
    }

    /// Listing of retained episodes, oldest first.
    pub fn summaries(&self) -> Vec<EpisodeSummary> {
        self.inner
            .lock()
            .episodes
            .iter()
            .map(|Recorded { meta: e, spans }| EpisodeSummary {
                episode_id: e.episode_id,
                env_id: e.env_id.clone(),
                benchmark: e.benchmark.clone(),
                started_micros: e.started_micros,
                ended_micros: e.ended_micros,
                spans: spans.len() as u64,
                dropped_spans: e.dropped_spans,
            })
            .collect()
    }

    /// Episodes opened since the last clear.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Episodes evicted by the capacity bound.
    fn dropped_episodes(&self) -> u64 {
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
/// the global sequence. Each record is stored once, as an `Arc` that the
/// ring and a bound episode share; `events()` copies records out.
pub struct TraceBuffer {
    shards: Vec<Mutex<std::collections::VecDeque<Arc<SpanRecord>>>>,
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
        let rec = Arc::new(rec);
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
        let mut shared: Vec<Arc<SpanRecord>> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            shared.extend(shard.lock().iter().cloned());
        }
        shared.sort_by_key(|r| r.seq);
        shared.iter().map(|r| SpanRecord::clone(r)).collect()
    }

    /// Serializes the buffer as JSON lines, one [`SpanRecord`] per line.
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

metrics! {
    /// A step-latency service-level objective: steps at or under the objective
    /// are "good", the rest "bad". Disabled until [`StepSlo::configure`] sets a
    /// non-zero objective. [`StepSlo::reset`] zeroes the counts and keeps the
    /// configuration.
    #[derive(Debug)]
    pub struct StepSlo => SloSnapshot {}
    derived {
        objective_micros: u64 [gauge
            "cg_slo_objective_micros" "Configured step-latency objective (0 = disabled)."]
            = StepSlo::objective_micros,
        target: f64 ["cg_slo_target" "Configured availability target."] = StepSlo::target,
        good: u64 ["cg_slo_good_total" "Steps meeting the latency objective."] = StepSlo::good,
        bad: u64 ["cg_slo_bad_total" "Steps missing the latency objective."] = StepSlo::bad,
        compliance: f64 ["cg_slo_compliance" "Fraction of steps meeting the objective."]
            = StepSlo::compliance,
        burn_rate: f64 ["cg_slo_burn_rate" "Error-budget burn rate (1.0 = at budget)."]
            = StepSlo::burn_rate,
    }
    hidden {
        objective_micros: AtomicU64,
        /// Availability target (e.g. 0.99) as `f64` bits.
        target_bits: AtomicU64,
        good: Counter = Counter::reset,
        bad: Counter = Counter::reset,
    }
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
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

metrics! {
    /// Episode-level environment statistics.
    #[derive(Debug, Default)]
    pub struct EpisodeStats => EpisodeSnapshot {
        /// Completed `reset()` calls.
        episodes: Counter ["cg_episodes_total" "Completed reset() calls."],
        /// Completed `step()` calls.
        steps: Counter ["cg_steps_total" "Completed step() calls."],
        /// Actions applied (one step may apply several).
        actions_total: Counter ["cg_actions_total" "Actions applied."],
        /// Actions that actually mutated the program state.
        actions_changed: Counter ["cg_actions_changed_total" "Actions that mutated program state."],
        /// Sum of all step rewards.
        reward_sum: FloatSum ["cg_reward_sum" "Sum of all step rewards."],
        /// `reset()` wall time.
        reset_wall: Histogram ["cg_reset_latency_micros" "reset() wall time in microseconds."],
        /// `step()` wall time.
        step_wall: Histogram ["cg_step_latency_micros" "step() wall time in microseconds."],
        /// `fork()` wall time.
        fork_wall: Histogram ["cg_fork_latency_micros" "fork() wall time in microseconds."],
    }
}

metrics! {
    /// Parallel-evaluation statistics: the `EnvPool` worker fleet and the
    /// shared evaluation cache (exact hits plus prefix-trie reuse).
    #[derive(Debug, Default)]
    pub struct PoolStats => PoolSnapshot {
        /// Evaluation jobs completed (hit or miss, success or error).
        jobs: Counter ["cg_pool_jobs_total" "Evaluation jobs completed."],
        /// Jobs that finished with an error outcome (after recovery gave up).
        job_errors: Counter ["cg_pool_job_errors_total" "Jobs that finished with an error."],
        /// Worker panics caught mid-job (the worker's env is rebuilt).
        job_panics: Counter ["cg_pool_job_panics_total" "Worker panics caught mid-job."],
        /// Exact evaluation-cache hits: the full `(benchmark, sequence)` pair
        /// was already evaluated, so zero passes ran.
        cache_hits: Counter ["cg_cache_hits_total" "Exact evaluation-cache hits."],
        /// Cache lookups that found no exact entry.
        cache_misses: Counter ["cg_cache_misses_total" "Evaluation-cache misses."],
        /// Prefix-trie hits: a stored snapshot covered a proper prefix of the
        /// sequence, so only the novel suffix was executed.
        prefix_hits: Counter ["cg_cache_prefix_hits_total" "Prefix-trie snapshot hits."],
        /// Raw pass applications actually executed by pool workers.
        actions_executed: Counter
            ["cg_actions_executed_total" "Pass applications executed by workers."],
        /// Pass applications skipped thanks to exact or prefix cache reuse.
        actions_saved: Counter
            ["cg_actions_saved_total" "Pass applications skipped via cache reuse."],
        /// Cache entries discarded to respect the capacity bound.
        evictions: Counter ["cg_cache_evictions_total" "Cache entries evicted."],
        /// Worker threads currently alive across all pools.
        workers: Gauge ["cg_pool_workers" "Worker threads alive."],
        /// Jobs queued but not yet picked up by a worker.
        queue_depth: Gauge ["cg_pool_queue_depth" "Jobs queued, not yet running."],
        /// Wall time of whole `evaluate_batch` calls.
        batch_wall: Histogram
            ["cg_pool_batch_latency_micros" "evaluate_batch wall time in microseconds."],
        /// Wall time of individual evaluation jobs.
        job_wall: Histogram
            ["cg_pool_job_latency_micros" "Evaluation job wall time in microseconds."],
    }
}

metrics! {
    /// Session-broker front-door statistics: admission control, per-tenant
    /// quotas, queueing, load shedding, and graceful drain.
    #[derive(Debug, Default)]
    pub struct BrokerStats => BrokerSnapshot {
        /// Sessions admitted through the front door (quota reserved).
        admitted: Counter
            ["cg_broker_admitted_total" "Sessions admitted through the front door."],
        /// Requests refused by the admission ladder (capacity or drain), each
        /// answered with a typed in-band `Overloaded` carrying `retry_after_ms`.
        refused: Counter ["cg_broker_refused_total"
            "Requests refused by admission control with a typed Overloaded."],
        /// Queued work shed under queue pressure (newest non-established first).
        shed: Counter ["cg_broker_shed_total" "Queued work shed under overload."],
        /// Refusals attributable to a per-tenant quota (concurrent sessions or
        /// actions-per-second), a subset of `refused`.
        quota_refusals: Counter
            ["cg_broker_quota_refusals_total" "Refusals due to a per-tenant quota."],
        /// Graceful drains initiated.
        drains: Counter ["cg_broker_drains_total" "Graceful drains initiated."],
        /// Live sessions checkpointed during drain.
        drained_checkpoints: Counter
            ["cg_broker_drained_checkpoints_total" "Live sessions checkpointed during drain."],
        /// Live sessions across all broker workers (including reservations for
        /// admitted-but-not-yet-started sessions).
        sessions: Gauge ["cg_broker_sessions" "Live broker sessions."],
        /// Requests queued in tenant FIFOs, not yet dispatched to a worker.
        queue_depth: Gauge ["cg_broker_queue_depth" "Requests queued in tenant FIFOs."],
        /// Open front-door TCP connections.
        connections: Gauge ["cg_broker_connections" "Open front-door TCP connections."],
        /// Time requests spend queued before a worker picks them up.
        queue_wait: Histogram ["cg_broker_queue_wait_micros"
            "Time requests spend queued before dispatch, in microseconds."],
    }
}

metrics! {
    /// Transition-store (`cg-stdb`) statistics: WAL ingest, backpressure,
    /// recovery, scrub/compaction, and the replay environment's hit rate.
    #[derive(Debug, Default)]
    pub struct StdbStats => StdbSnapshot {
        /// Records durably appended to the write-ahead log.
        ingest_records: Counter ["cg_stdb_ingest_records_total"
            "Records durably appended to the transition-store WAL."],
        /// Payload bytes appended to the write-ahead log.
        ingest_bytes: Counter ["cg_stdb_ingest_bytes_total"
            "Payload bytes appended to the transition-store WAL."],
        /// Records dropped by the bounded ingest queue's backpressure policy
        /// (or abandoned after an unrecoverable append error). Every drop is
        /// counted — the store never loses a record silently.
        dropped_records: Counter ["cg_stdb_dropped_records_total"
            "Records dropped by ingest backpressure or append failure."],
        /// Appends retried after an in-process torn write was rolled back.
        append_retries: Counter
            ["cg_stdb_append_retries_total" "Appends retried after a rolled-back torn write."],
        /// Replay-environment steps answered straight from the store.
        replay_hits: Counter
            ["cg_stdb_replay_hits_total" "Replay-env steps answered from the store."],
        /// Replay-environment requests that fell through to the live compiler
        /// (missing or quarantined transition; traced as `stdb:miss`).
        replay_misses: Counter ["cg_stdb_replay_misses_total"
            "Replay-env requests that fell through to the live compiler."],
        /// Corrupt records quarantined during recovery or scrub (never
        /// silently skipped).
        quarantined_records: Counter ["cg_stdb_quarantined_records_total"
            "Corrupt records quarantined by recovery or scrub."],
        /// Torn tails truncated during recovery-on-open.
        torn_tails: Counter
            ["cg_stdb_torn_tails_total" "Torn WAL tails truncated during recovery-on-open."],
        /// Records whose checksum verified clean during scrub.
        scrub_ok: Counter
            ["cg_stdb_scrub_ok_total" "Records whose checksum verified clean during scrub."],
        /// Checksum failures found by scrub.
        scrub_corrupt: Counter ["cg_stdb_scrub_corrupt_total" "Checksum failures found by scrub."],
        /// Corrupt records repaired from an intact duplicate elsewhere in the
        /// log (content-addressed by the record checksum).
        scrub_repaired: Counter ["cg_stdb_scrub_repaired_total"
            "Corrupt records repaired from intact duplicates."],
        /// Compactions completed.
        compactions: Counter
            ["cg_stdb_compactions_total" "Transition-store compactions completed."],
        /// Live WAL segment files.
        segments: Gauge ["cg_stdb_segments" "Live transition-store WAL segments."],
        /// Bytes across live WAL segment files.
        store_bytes: Gauge
            ["cg_stdb_store_bytes" "Bytes across live transition-store WAL segments."],
        /// Wall time of individual WAL appends (writer thread side).
        append_wall: Histogram
            ["cg_stdb_append_wall_micros" "WAL append wall time in microseconds."],
    }
}

metrics! {
    /// Wire-protocol statistics: bytes on the wire per direction, frame
    /// counts, handshakes, encode/decode latency, and the pipelined in-flight
    /// window depth.
    #[derive(Debug, Default)]
    pub struct WireStats => WireSnapshot {
        /// Payload bytes written as frames (request + response bodies,
        /// excluding the 4-byte length prefix).
        tx_bytes: Counter ["cg_wire_tx_bytes_total" "Payload bytes written as CGB1 frames."],
        /// Payload bytes read as frames.
        rx_bytes: Counter ["cg_wire_rx_bytes_total" "Payload bytes read as CGB1 frames."],
        /// Frames moved in either direction.
        frames: Counter ["cg_wire_frames_total" "Frames moved in either direction."],
        /// Frames that failed to decode (answered in band as typed errors).
        decode_errors: Counter
            ["cg_wire_decode_errors_total" "Frames that failed to decode (answered in band)."],
        /// Calls issued through the pipelined (multi-in-flight) path.
        pipelined_calls: Counter
            ["cg_wire_pipelined_calls_total" "Calls issued through the pipelined path."],
        /// `Hello`/`HelloAck` handshakes the server completed.
        negotiations: Counter
            ["cg_wire_negotiations_total" "Hello/HelloAck handshakes the server completed."],
        /// Requests currently in flight on pipelined sockets.
        in_flight: Gauge
            ["cg_wire_in_flight" "Requests currently in flight on pipelined sockets."],
        /// Wall time spent encoding frames.
        encode_wall: Histogram
            ["cg_wire_encode_micros" "Frame encode wall time in microseconds."],
        /// Wall time spent decoding frames.
        decode_wall: Histogram
            ["cg_wire_decode_micros" "Frame decode wall time in microseconds."],
    }
}

metrics! {
    /// The telemetry registry for one process.
    ///
    /// Most code uses the shared [`global`] instance; tests may build private
    /// instances with [`Telemetry::new`]. [`Telemetry::snapshot`] captures
    /// every metric with deterministic (sorted) key order, and
    /// [`Telemetry::reset`] zeroes them and clears the trace ring.
    #[derive(Debug, Default)]
    pub struct Telemetry => TelemetrySnapshot {
        /// Per-request-kind service latency (`Ping`, `Step`, ...).
        requests: Family<Histogram> [by "kind"
            "cg_requests_total" "Service requests handled, by request kind." = |h| &h.count;
            "cg_request_latency_micros"
            "Service request latency in microseconds, by request kind." = |h| h],
        /// Per-request-kind error responses.
        request_errors: Family<Counter>
            [by "kind" "cg_request_errors_total" "Error responses, by request kind." = |c| c],
        /// Service requests currently being processed.
        in_flight: Gauge ["cg_in_flight" "Service requests currently being processed."],
        /// Runner threads a wall deadline gave up on that have not exited.
        runner_abandoned_live: Gauge ["cg_runner_abandoned_live" "Abandoned runners still live."],
        /// Requests that hit the client deadline.
        timeouts: Counter ["cg_timeouts_total" "Requests that hit the client deadline."],
        /// Session panics caught by the service runtime.
        panics: Counter ["cg_panics_total" "Session panics caught by the service runtime."],
        /// Service restarts (explicit or transparent-recovery).
        restarts: Counter ["cg_restarts_total" "Service restarts."],
        /// Episodes transparently restored mid-flight by action replay after a
        /// service fault.
        recoveries: Counter ["cg_recoveries_total" "Episodes transparently recovered by replay."],
        /// Replays whose reward metric diverged from the pre-fault value
        /// (surfaced to callers as a typed error rather than silent corruption).
        replay_divergences: Counter
            ["cg_replay_divergences_total" "Replays whose reward metric diverged."],
        /// TCP client reconnects after an I/O error on the service socket.
        reconnects: Counter ["cg_reconnects_total" "TCP client reconnects."],
        /// Session checkpoints serialized by the service worker.
        checkpoints_taken: Counter
            ["cg_checkpoints_taken_total" "Session checkpoints serialized."],
        /// Recoveries that restored from a checkpoint (suffix replay) instead of
        /// replaying the full action history.
        checkpoint_restores: Counter
            ["cg_checkpoint_restores_total" "Recoveries restored from a checkpoint."],
        /// Sessions destroyed in-service for exceeding a resource budget
        /// (wall-clock or state-size), answered with a typed in-band error.
        budget_kills: Counter
            ["cg_budget_kills_total" "Sessions killed in-band by a resource budget."],
        /// Episode-level environment statistics.
        episode: EpisodeStats [],
        /// Per-observation-space computation latency.
        observations: Family<Histogram> [by "space" "cg_observation_latency_micros"
            "Observation computation latency in microseconds, by space." = |h| h],
        /// Per-pass profiling table.
        passes: PassTable [by "pass"
            "cg_pass_calls_total" "Pass invocations, by pass." = |p| &p.calls;
            "cg_pass_wall_micros_total"
            "Cumulative pass wall time in microseconds, by pass." = |p| &p.total_micros;
            "cg_pass_changed_total" "Invocations that changed the module, by pass." = |p| &p.changed;
            "cg_pass_inst_delta"
            "Cumulative signed instruction-count delta, by pass." = |p| &p.inst_delta;
            "cg_pass_latency_micros" "Pass invocation wall time in microseconds, by pass." = |p| p],
        /// Differential-fuzzer statistics (`cg fuzz`).
        fuzz: FuzzStats [],
        /// Parallel-evaluation pool and evaluation-cache statistics.
        pool: PoolStats [],
        /// Multi-tenant session-broker front-door statistics.
        broker: BrokerStats [],
        /// Transition-store (WAL ingest, scrub, replay) statistics.
        stdb: StdbStats [],
        /// Wire-protocol (frames + pipelining) statistics.
        wire: WireStats [],
    }
    derived {
        trace_events: u64 [gauge "cg_trace_spans" "Span records currently buffered."]
            = |t| t.trace.len() as u64,
        trace_dropped: u64 ["cg_trace_dropped_total" "Span records evicted from the ring."]
            = |t| t.trace.dropped(),
        episodes_recorded: u64 ["cg_episodes_recorded_total" "Flight-recorder episodes opened."]
            = |t| t.trace.recorder().recorded(),
        episodes_dropped: u64 ["cg_episodes_evicted_total" "Flight-recorder episodes evicted."]
            = |t| t.trace.recorder().dropped_episodes(),
        episode_spans_dropped: u64
            ["cg_episode_spans_dropped_total" "Spans dropped by per-episode caps."]
            = |t| t.trace.recorder().dropped_spans(),
        slo: SloSnapshot [] = |t| t.slo.snapshot(),
    }
    hidden {
        /// Structured trace ring with the embedded episode flight recorder.
        pub trace: TraceBuffer = TraceBuffer::clear,
        /// Step-latency service-level objective tracking.
        pub slo: StepSlo = StepSlo::reset,
    }
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }
}

/// The process-wide registry.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Microseconds elapsed since the first telemetry call in this process.
fn now_micros() -> u64 {
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
            small.route(&Arc::new(SpanRecord {
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
            }));
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
        small.route(&Arc::new(SpanRecord {
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
        }));
        assert!(small.episode(id2).unwrap().spans.is_empty());
    }

    #[test]
    fn ring_and_episode_share_one_record() {
        let mut t = TraceBuffer::with_capacity(4);
        t.recorder = EpisodeRecorder::new(1, 8);
        let ep = t.begin_episode("llvm-v0", "b");
        let root = t.root_span("env:step");
        t.bind_episode(root.context().trace_id, ep);
        drop(root);
        // One allocation, two holders: the ring's shard and the episode.
        let ring = Arc::clone(&t.shards[0].lock()[0]);
        let held = Arc::clone(&t.recorder.inner.lock().episodes[0].spans[0]);
        assert!(Arc::ptr_eq(&ring, &held), "the episode holds a copy");
        drop((ring, held));

        // Evicting the episode leaves the ring's record as it was.
        let before = t.events();
        let ep2 = t.begin_episode("llvm-v0", "b2");
        assert!(t.recorder().episode(ep).is_none());
        assert_eq!(t.events(), before);
        assert_eq!(Arc::strong_count(&t.shards[0].lock()[0]), 1);

        // A record the ring drops lives on in its episode, unchanged.
        let root = t.root_span("env:step");
        t.bind_episode(root.context().trace_id, ep2);
        drop(root);
        let recorded = t.events().pop().unwrap();
        for i in 0..4 {
            t.emit("unrelated", format!("i={i}"), Duration::ZERO);
        }
        assert!(t.events().iter().all(|e| e.span == "unrelated"));
        assert_eq!(t.recorder().episode(ep2).unwrap().spans, vec![recorded]);
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

    /// `cg stats --json` prints a serialized [`TelemetrySnapshot`]; these
    /// are the keys its consumers read.
    #[test]
    fn stats_json_keeps_its_schema() {
        let t = Telemetry::new();
        t.slo.configure(Duration::from_millis(250), 0.99);
        t.slo.record(Duration::from_millis(1));
        let v = serde_json::parse_value(&serde_json::to_string(&t.snapshot()).unwrap()).unwrap();
        for key in [
            "requests",
            "restarts",
            "recoveries",
            "episode",
            "pool",
            "trace_events",
            "trace_dropped",
            "episodes_recorded",
            "episodes_dropped",
            "episode_spans_dropped",
            "slo",
        ] {
            assert!(v.get(key).is_some(), "cg stats --json lost `{key}`");
        }
        let slo = v.get("slo").unwrap();
        for key in [
            "objective_micros",
            "target",
            "good",
            "bad",
            "compliance",
            "burn_rate",
        ] {
            assert!(slo.get(key).is_some(), "cg stats --json lost `slo.{key}`");
        }
        assert_eq!(t.snapshot().slo.good, 1, "SLO recorded no steps");
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
