//! The durable transition store: a queryable index over the checksummed
//! write-ahead log of [`crate::log`].
//!
//! # Architecture
//!
//! Callers log transitions through [`TransitionStore::log_reset`] /
//! [`TransitionStore::log_step`]; the caller-side cost is a hash plus an
//! index insert plus an enqueue onto a *bounded* channel. A dedicated
//! writer thread owns the WAL and drains the queue: it encodes records,
//! appends them (retrying once after a rolled-back torn write), and runs
//! feature extraction (Autophase, InstCount, instruction count) for states
//! it has not seen before. The [`Backpressure`] policy decides what
//! happens when the queue is full: `Block` (lossless, applies backpressure
//! to the environment loop) or `DropNewest` (lossy, never blocks); every
//! dropped record is counted — nothing is lost silently.
//!
//! # Index
//!
//! Four maps, rebuilt from the log on open (recovery replays every intact
//! record through the same code path):
//!
//! * `initial`: benchmark → initial-state hash (episode starts),
//! * `edges`: `(state, action-name)` → `(state', reward)` — the paper's
//!   deduplicated `StateTransitions` table,
//! * `observations`: state → [`ObservationRow`] (the `Observations`
//!   table),
//! * `checkpoints`: `(benchmark, action_space, actions)` → the session
//!   checkpoint found at open. Checkpoints appended since open are written
//!   to the log and counted, but their bytes are not kept: they reach a
//!   ring by reopening ([`TransitionStore::checkpoint_store`]).
//!
//! # Maintenance
//!
//! [`scrub_dir`] verifies every checksum (optionally repairing from
//! redundant copies); [`compact_dir`] rewrites the log keeping one
//! canonical record per reset / edge / observation / checkpoint, committing
//! crash-safely via the manifest protocol (new segments first, manifest
//! rename second, stale deletion last — a crash at any point leaves a
//! correct store).

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use cg_core::chaos::IoFaultInjector;
use cg_core::checkpoint::{Checkpoint, CheckpointStore};

use crate::log::{self, ScrubReport, Wal, WalConfig};
use crate::{ObservationRow, StepRow};

const TAG_RESET: u8 = b'R';
const TAG_STEP: u8 = b'S';
const TAG_OBS: u8 = b'O';
const TAG_CHECKPOINT: u8 = b'C';

/// An episode start: the benchmark and the hash of its initial state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResetRow {
    /// Benchmark URI.
    pub benchmark: String,
    /// Hash of the initial state.
    pub state: u64,
}

/// One logical record in the write-ahead log.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// An episode start.
    Reset(ResetRow),
    /// One environment step.
    Step(StepRow),
    /// Representations of a unique state.
    Observation(ObservationRow),
    /// A session checkpoint (see [`TransitionStore::checkpoint_store`]).
    Checkpoint(Checkpoint),
}

/// Encodes a record as `[tag byte][JSON]`.
#[must_use]
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let (tag, body) = match rec {
        WalRecord::Reset(r) => (TAG_RESET, serde_json::to_string(r)),
        WalRecord::Step(s) => (TAG_STEP, serde_json::to_string(s)),
        WalRecord::Observation(o) => (TAG_OBS, serde_json::to_string(o)),
        WalRecord::Checkpoint(c) => (TAG_CHECKPOINT, serde_json::to_string(c)),
    };
    let body = body.expect("rows serialize");
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(tag);
    out.extend_from_slice(body.as_bytes());
    out
}

/// Decodes a `[tag byte][JSON]` payload.
///
/// # Errors
/// Returns a description of the framing or JSON problem.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let (&tag, body) = payload.split_first().ok_or("empty record")?;
    let body = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    match tag {
        TAG_RESET => serde_json::from_str(body)
            .map(WalRecord::Reset)
            .map_err(|e| e.to_string()),
        TAG_STEP => serde_json::from_str(body)
            .map(WalRecord::Step)
            .map_err(|e| e.to_string()),
        TAG_OBS => serde_json::from_str(body)
            .map(WalRecord::Observation)
            .map_err(|e| e.to_string()),
        TAG_CHECKPOINT => serde_json::from_str(body)
            .map(WalRecord::Checkpoint)
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown record tag {other:#x}")),
    }
}

/// What a full ingest queue does to new records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the caller until the writer catches up (lossless).
    Block,
    /// Drop the new record and count it (never blocks).
    DropNewest,
}

/// Tuning knobs for a [`TransitionStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Write-ahead log settings.
    pub wal: WalConfig,
    /// Bounded ingest-queue depth.
    pub queue_capacity: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            wal: WalConfig::default(),
            queue_capacity: 4096,
            backpressure: Backpressure::Block,
        }
    }
}

/// What determines a deterministic session's state, and so names its
/// checkpoint: `(benchmark, action_space, actions)`.
type CheckpointKey = (String, usize, Vec<usize>);

fn checkpoint_key(c: &Checkpoint) -> CheckpointKey {
    (c.benchmark.clone(), c.action_space, c.actions.clone())
}

#[derive(Debug, Default)]
struct Index {
    initial: HashMap<String, u64>,
    edges: HashMap<(u64, String), (u64, f64)>,
    observations: HashMap<u64, ObservationRow>,
    steps: u64,
    /// `Some` for the checkpoints found at open, `None` for those appended
    /// since. Ordered, so equally deep checkpoints seed a ring in one order.
    checkpoints: BTreeMap<CheckpointKey, Option<Checkpoint>>,
}

fn apply_record(index: &mut Index, rec: WalRecord) {
    match rec {
        WalRecord::Reset(r) => {
            index.initial.insert(r.benchmark, r.state);
        }
        WalRecord::Step(s) => {
            index.steps += 1;
            if let Some(a) = s.actions.last() {
                index
                    .edges
                    .insert((s.from_state, a.clone()), (s.state, s.reward));
            }
        }
        WalRecord::Observation(o) => {
            index.observations.entry(o.state).or_insert(o);
        }
        WalRecord::Checkpoint(c) => {
            index.checkpoints.insert(checkpoint_key(&c), Some(c));
        }
    }
}

fn extract_observation(state: u64, ir_text: &str) -> ObservationRow {
    match cg_ir::parser::parse_module(ir_text) {
        Ok(m) => ObservationRow {
            state,
            autophase: cg_llvm::observation::autophase(&m),
            inst_count: cg_llvm::observation::inst_count(&m),
            ir_instruction_count: cg_llvm::reward::ir_instruction_count(&m) as f64,
            ir_text: ir_text.to_string(),
        },
        // Non-LLVM text (or damage upstream of us): keep the raw text so
        // replay can still serve `Ir`, with empty derived features.
        Err(_) => ObservationRow {
            state,
            autophase: Vec::new(),
            inst_count: Vec::new(),
            ir_instruction_count: 0.0,
            ir_text: ir_text.to_string(),
        },
    }
}

enum Ingest {
    Append(WalRecord),
    Observe { state: u64, ir_text: String },
    Flush(mpsc::Sender<()>),
}

/// The callers' end of the writer's bounded queue. Checkpoint sinks share
/// it with the store; dropping the store takes the sender out, so the
/// writer stops even while a sink lives on (its later records count as
/// drops).
struct Ingestor {
    tx: Mutex<Option<mpsc::SyncSender<Ingest>>>,
    dropped: AtomicU64,
    backpressure: Backpressure,
}

impl Ingestor {
    fn enqueue(&self, msg: Ingest) {
        let guard = self.tx.lock();
        let sent = match (guard.as_ref(), self.backpressure) {
            (Some(tx), Backpressure::Block) => tx.send(msg).is_ok(),
            (Some(tx), Backpressure::DropNewest) => tx.try_send(msg).is_ok(),
            (None, _) => false,
        };
        if !sent {
            self.count_drop();
        }
    }

    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        cg_telemetry::global().stdb.dropped_records.inc();
    }
}

fn append_with_retry(wal: &mut Wal, payload: &[u8], ingest: &Ingestor) {
    let stdb = &cg_telemetry::global().stdb;
    let t0 = Instant::now();
    for attempt in 0..2 {
        match wal.append(payload) {
            Ok(n) => {
                stdb.ingest_records.inc();
                stdb.ingest_bytes.add(n);
                stdb.append_wall.record_duration(t0.elapsed());
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt == 0 => {
                // A torn write was detected and rolled back in place; the
                // segment is clean again, so one retry is safe.
                stdb.append_retries.inc();
            }
            Err(_) => break,
        }
    }
    ingest.count_drop();
}

fn writer_loop(
    mut wal: Wal,
    index: Arc<Mutex<Index>>,
    rx: mpsc::Receiver<Ingest>,
    ingest: Arc<Ingestor>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Ingest::Append(rec) => append_with_retry(&mut wal, &encode_record(&rec), &ingest),
            Ingest::Observe { state, ir_text } => {
                if index.lock().observations.contains_key(&state) {
                    continue;
                }
                let row = extract_observation(state, &ir_text);
                index
                    .lock()
                    .observations
                    .entry(state)
                    .or_insert_with(|| row.clone());
                append_with_retry(
                    &mut wal,
                    &encode_record(&WalRecord::Observation(row)),
                    &ingest,
                );
            }
            Ingest::Flush(ack) => {
                let _ = wal.flush();
                update_size_gauges(wal.dir());
                let _ = ack.send(());
            }
        }
    }
    let _ = wal.flush();
    update_size_gauges(wal.dir());
}

fn update_size_gauges(dir: &Path) {
    let stdb = &cg_telemetry::global().stdb;
    if let Ok(segments) = log::list_segments(dir) {
        stdb.segments.set(segments.len() as i64);
    }
    if let Ok(bytes) = log::dir_bytes(dir) {
        stdb.store_bytes.set(bytes.min(i64::MAX as u64) as i64);
    }
}

/// Point-in-time store counters for `cg stdb stats` and `cg stats`.
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    /// Store directory.
    pub dir: String,
    /// Step records indexed.
    pub steps: u64,
    /// Deduplicated `(state, action) → (state', reward)` edges.
    pub edges: u64,
    /// Unique states with observations.
    pub observations: u64,
    /// Benchmarks with a recorded initial state.
    pub benchmarks: u64,
    /// Distinct session checkpoints in the log.
    pub checkpoints: u64,
    /// Records dropped by backpressure or unrecoverable append errors.
    pub dropped_records: u64,
    /// Live segment files.
    pub segments: u64,
    /// Bytes across live segments.
    pub bytes: u64,
    /// Intact records recovered at open.
    pub recovered_records: u64,
    /// Torn tails truncated at open.
    pub torn_tails: u64,
    /// Corrupt frames quarantined at open.
    pub quarantined: u64,
    /// Checksum-valid records that failed to decode at open (counted,
    /// never silently skipped).
    pub decode_failures: u64,
}

/// The durable transition store. Cheap to share via [`Arc`]; one writer
/// thread per store. Dropping the store flushes and joins the writer.
pub struct TransitionStore {
    dir: PathBuf,
    index: Arc<Mutex<Index>>,
    ingest: Arc<Ingestor>,
    handle: Mutex<Option<JoinHandle<()>>>,
    recovery: log::RecoveryReport,
    decode_failures: u64,
}

impl TransitionStore {
    /// Opens (creating if needed) the store at `dir`, running WAL recovery
    /// and rebuilding the index from every intact record.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<TransitionStore> {
        TransitionStore::open_with_faults(dir, cfg, None)
    }

    /// [`TransitionStore::open`] with a chaos fault injector threaded into
    /// the WAL's read and write paths.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open_with_faults(
        dir: &Path,
        cfg: StoreConfig,
        injector: Option<IoFaultInjector>,
    ) -> io::Result<TransitionStore> {
        let mut index = Index::default();
        let mut decode_failures = 0u64;
        let (wal, recovery) = Wal::open(dir, cfg.wal, injector, |payload| {
            match decode_record(payload) {
                Ok(rec) => apply_record(&mut index, rec),
                Err(_) => decode_failures += 1,
            }
        })?;
        let stdb = &cg_telemetry::global().stdb;
        stdb.torn_tails.add(recovery.torn_tails);
        stdb.quarantined_records.add(recovery.quarantined);
        update_size_gauges(dir);

        let index = Arc::new(Mutex::new(index));
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let ingest = Arc::new(Ingestor {
            tx: Mutex::new(Some(tx)),
            dropped: AtomicU64::new(0),
            backpressure: cfg.backpressure,
        });
        let handle = {
            let index = Arc::clone(&index);
            let ingest = Arc::clone(&ingest);
            std::thread::Builder::new()
                .name("stdb-writer".into())
                .spawn(move || writer_loop(wal, index, rx, ingest))
                .expect("spawn stdb writer")
        };
        Ok(TransitionStore {
            dir: dir.to_path_buf(),
            index,
            ingest,
            handle: Mutex::new(Some(handle)),
            recovery,
            decode_failures,
        })
    }

    /// Opens the store at `dir` through a process-global registry, so two
    /// components (say, the sink and a replay environment) share one
    /// writer instead of racing on the same files.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open_shared(dir: &Path, cfg: StoreConfig) -> io::Result<Arc<TransitionStore>> {
        static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<TransitionStore>>>> = OnceLock::new();
        fs::create_dir_all(dir)?;
        let key = fs::canonicalize(dir)?;
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock();
        if let Some(live) = map.get(&key).and_then(Weak::upgrade) {
            return Ok(live);
        }
        let store = Arc::new(TransitionStore::open(dir, cfg)?);
        map.insert(key, Arc::downgrade(&store));
        Ok(store)
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found at open.
    #[must_use]
    pub fn recovery(&self) -> &log::RecoveryReport {
        &self.recovery
    }

    /// Logs an episode start, returning the initial state's hash.
    pub fn log_reset(&self, benchmark: &str, ir_text: &str) -> u64 {
        let state = cg_ir::fnv1a(ir_text.as_bytes());
        self.index
            .lock()
            .initial
            .insert(benchmark.to_string(), state);
        self.ingest
            .enqueue(Ingest::Append(WalRecord::Reset(ResetRow {
                benchmark: benchmark.to_string(),
                state,
            })));
        self.observe_state(state, ir_text);
        state
    }

    /// Registers a state without an edge or reset marker (an environment
    /// resuming from a restored snapshot), returning its hash.
    pub fn log_state(&self, ir_text: &str) -> u64 {
        let state = cg_ir::fnv1a(ir_text.as_bytes());
        self.observe_state(state, ir_text);
        state
    }

    /// Logs one step, returning the destination state's hash.
    pub fn log_step(
        &self,
        benchmark: &str,
        action_history: &[String],
        from_state: u64,
        ir_text: &str,
        reward: f64,
    ) -> u64 {
        let state = cg_ir::fnv1a(ir_text.as_bytes());
        {
            let mut index = self.index.lock();
            index.steps += 1;
            if let Some(a) = action_history.last() {
                index.edges.insert((from_state, a.clone()), (state, reward));
            }
        }
        self.ingest.enqueue(Ingest::Append(WalRecord::Step(StepRow {
            benchmark: benchmark.to_string(),
            actions: action_history.to_vec(),
            from_state,
            state,
            reward,
        })));
        self.observe_state(state, ir_text);
        state
    }

    fn observe_state(&self, state: u64, ir_text: &str) {
        if self.index.lock().observations.contains_key(&state) {
            return;
        }
        self.ingest.enqueue(Ingest::Observe {
            state,
            ir_text: ir_text.to_string(),
        });
    }

    /// The recorded initial state for a benchmark.
    #[must_use]
    pub fn initial_state(&self, benchmark: &str) -> Option<u64> {
        self.index.lock().initial.get(benchmark).copied()
    }

    /// The recorded `(state', reward)` for taking `action` in `state`.
    #[must_use]
    pub fn transition(&self, state: u64, action: &str) -> Option<(u64, f64)> {
        self.index
            .lock()
            .edges
            .get(&(state, action.to_string()))
            .copied()
    }

    /// The stored observations of a state.
    #[must_use]
    pub fn observation(&self, state: u64) -> Option<ObservationRow> {
        self.index.lock().observations.get(&state).cloned()
    }

    /// The `Observations` table, ordered by state hash.
    #[must_use]
    pub fn observations(&self) -> Vec<ObservationRow> {
        let mut rows: Vec<ObservationRow> =
            self.index.lock().observations.values().cloned().collect();
        rows.sort_by_key(|o| o.state);
        rows
    }

    /// The `StateTransitions` table: every deduplicated `(state, action,
    /// state', reward)` edge, ordered by `(state, action)`.
    #[must_use]
    pub fn edges(&self) -> Vec<(u64, String, u64, f64)> {
        let index = self.index.lock();
        let mut edges: Vec<_> = (index.edges.iter())
            .map(|((from, a), (to, reward))| (*from, a.clone(), *to, *reward))
            .collect();
        edges.sort_by(|x, y| (x.0, &x.1).cmp(&(y.0, &y.1)));
        edges
    }

    /// A checkpoint ring (`capacity` entries, taken every `interval`
    /// actions) whose sink appends each checkpoint to this store's log, so
    /// checkpoints share its CRC frames, recovery, scrub, compaction and
    /// [`crate::FsyncPolicy`]. The ring starts with the checkpoints found at
    /// open, shallowest first so a bounded ring keeps the deepest; one
    /// quarantined at open costs a longer replay, never an error. Pass it as
    /// `BrokerConfig::checkpoints` to resume episodes across a process restart.
    #[must_use]
    pub fn checkpoint_store(&self, capacity: usize, interval: u64) -> CheckpointStore {
        let ring = CheckpointStore::new(capacity, interval);
        for c in self.found_checkpoints() {
            ring.put(c);
        }
        let (index, ingest) = (Arc::clone(&self.index), Arc::clone(&self.ingest));
        ring.with_sink(Arc::new(move |c: &Checkpoint| {
            let key = checkpoint_key(c);
            index.lock().checkpoints.entry(key).or_default();
            ingest.enqueue(Ingest::Append(WalRecord::Checkpoint(c.clone())));
        }))
    }

    /// The checkpoints found at open, shallowest first.
    fn found_checkpoints(&self) -> Vec<Checkpoint> {
        let index = self.index.lock();
        let mut found: Vec<Checkpoint> = index.checkpoints.values().flatten().cloned().collect();
        found.sort_by_key(Checkpoint::depth);
        found
    }

    /// Records dropped so far (backpressure + unrecoverable appends).
    #[must_use]
    pub fn dropped_records(&self) -> u64 {
        self.ingest.dropped.load(Ordering::Relaxed)
    }

    /// Blocks until everything enqueued so far is on disk (fsync'd).
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        {
            let guard = self.ingest.tx.lock();
            let Some(tx) = guard.as_ref() else { return };
            if tx.send(Ingest::Flush(ack_tx)).is_err() {
                return;
            }
        }
        let _ = ack_rx.recv();
    }

    /// Point-in-time counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let (steps, edges, observations, benchmarks, checkpoints) = {
            let index = self.index.lock();
            (
                index.steps,
                index.edges.len() as u64,
                index.observations.len() as u64,
                index.initial.len() as u64,
                index.checkpoints.len() as u64,
            )
        };
        StoreStats {
            dir: self.dir.display().to_string(),
            steps,
            edges,
            observations,
            benchmarks,
            checkpoints,
            dropped_records: self.dropped_records(),
            segments: log::list_segments(&self.dir)
                .map(|s| s.len() as u64)
                .unwrap_or(0),
            bytes: log::dir_bytes(&self.dir).unwrap_or(0),
            recovered_records: self.recovery.records,
            torn_tails: self.recovery.torn_tails,
            quarantined: self.recovery.quarantined,
            decode_failures: self.decode_failures,
        }
    }
}

impl Drop for TransitionStore {
    fn drop(&mut self) {
        self.ingest.tx.lock().take();
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

/// Adapts a shared [`TransitionStore`] to the core's
/// [`cg_core::TransitionSink`] hook, so every environment evaluation in
/// the process flows into the log.
pub struct StoreSink(pub Arc<TransitionStore>);

impl cg_core::TransitionSink for StoreSink {
    fn record_reset(&self, benchmark: &str, ir_text: &str) -> u64 {
        self.0.log_reset(benchmark, ir_text)
    }

    fn record_state(&self, ir_text: &str) -> u64 {
        self.0.log_state(ir_text)
    }

    fn record_step(
        &self,
        benchmark: &str,
        action_history: &[String],
        from_state: u64,
        ir_text: &str,
        reward: f64,
    ) -> u64 {
        self.0
            .log_step(benchmark, action_history, from_state, ir_text, reward)
    }
}

/// Verifies every checksum in the store at `dir`; with `repair`, truncates
/// torn tails, excises unrepairable frames to `quarantine/`, and rewrites
/// corrupt records from redundant intact copies. Must not run while a
/// writer has the directory open.
///
/// # Errors
/// Propagates I/O failures.
pub fn scrub_dir(
    dir: &Path,
    cfg: &WalConfig,
    repair: bool,
    injector: Option<&IoFaultInjector>,
) -> io::Result<ScrubReport> {
    let rep = log::scrub(dir, cfg, repair, injector)?;
    let stdb = &cg_telemetry::global().stdb;
    stdb.scrub_ok.add(rep.records_ok);
    stdb.scrub_corrupt.add(rep.records_corrupt);
    stdb.scrub_repaired.add(rep.repaired);
    stdb.quarantined_records.add(rep.quarantined);
    update_size_gauges(dir);
    Ok(rep)
}

/// What [`compact_dir`] did.
#[derive(Debug, Clone, Serialize)]
pub struct CompactReport {
    /// Records before compaction.
    pub records_before: u64,
    /// Canonical records after compaction.
    pub records_after: u64,
    /// Segments before.
    pub segments_before: u64,
    /// Segments after.
    pub segments_after: u64,
    /// Bytes before.
    pub bytes_before: u64,
    /// Bytes after.
    pub bytes_after: u64,
    /// Corrupt frames skipped (run `scrub` first to repair them).
    pub corrupt_skipped: u64,
}

/// Rewrites the log keeping one canonical record per reset, per
/// `(state, action)` edge (last write wins), per observed state, and per
/// checkpoint `(benchmark, action_space, actions)` (last write wins).
/// Crash-safe: new segments are written and synced first, the manifest is
/// renamed into place second, and stale segments are deleted last — a
/// crash at any point leaves a store that opens correctly (duplicates are
/// idempotent under index rebuild). Must not run while a writer has the
/// directory open.
///
/// # Errors
/// Propagates I/O failures.
pub fn compact_dir(dir: &Path, cfg: &WalConfig) -> io::Result<CompactReport> {
    let segments = log::list_segments(dir)?;
    let segments_before = segments.len() as u64;
    let bytes_before = log::dir_bytes(dir)?;
    let max_seq = segments.last().map_or(0, |(seq, _)| *seq);

    let mut records_before = 0u64;
    let mut initial: HashMap<String, u64> = HashMap::new();
    let mut edges: HashMap<(u64, String), StepRow> = HashMap::new();
    let mut observations: HashMap<u64, ObservationRow> = HashMap::new();
    let mut checkpoints: BTreeMap<CheckpointKey, Checkpoint> = BTreeMap::new();
    let (corrupt, _torn) = log::read_records(dir, cfg, |payload| {
        records_before += 1;
        match decode_record(payload) {
            Ok(WalRecord::Reset(r)) => {
                initial.insert(r.benchmark.clone(), r.state);
            }
            Ok(WalRecord::Step(s)) => {
                if let Some(a) = s.actions.last() {
                    // Canonical edge: keep the benchmark but trim the
                    // history to the edge's own action.
                    let key = (s.from_state, a.clone());
                    let row = StepRow {
                        benchmark: s.benchmark,
                        actions: vec![a.clone()],
                        from_state: s.from_state,
                        state: s.state,
                        reward: s.reward,
                    };
                    edges.insert(key, row);
                }
            }
            Ok(WalRecord::Observation(o)) => {
                observations.entry(o.state).or_insert(o);
            }
            Ok(WalRecord::Checkpoint(c)) => {
                checkpoints.insert(checkpoint_key(&c), c);
            }
            Err(_) => {}
        }
    })?;

    // Deterministic output order: resets, edges, observations, then
    // checkpoints, each sorted by key.
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut resets: Vec<(&String, &u64)> = initial.iter().collect();
    resets.sort();
    for (benchmark, state) in resets {
        payloads.push(encode_record(&WalRecord::Reset(ResetRow {
            benchmark: benchmark.clone(),
            state: *state,
        })));
    }
    let mut edge_keys: Vec<&(u64, String)> = edges.keys().collect();
    edge_keys.sort();
    for key in edge_keys {
        payloads.push(encode_record(&WalRecord::Step(edges[key].clone())));
    }
    let mut states: Vec<&u64> = observations.keys().collect();
    states.sort();
    for s in states {
        payloads.push(encode_record(&WalRecord::Observation(
            observations[s].clone(),
        )));
    }
    for c in checkpoints.into_values() {
        payloads.push(encode_record(&WalRecord::Checkpoint(c)));
    }
    let records_after = payloads.len() as u64;

    // Phase 1: write the compacted segments above every existing seq.
    let mut live_names = Vec::new();
    let mut seq = max_seq + 1;
    let mut frame_buf: Vec<u8> = log::SEGMENT_MAGIC.to_vec();
    let flush_segment = |seq: u64, buf: &mut Vec<u8>| -> io::Result<String> {
        use std::io::Write;
        let name = log::segment_name(seq);
        let tmp = dir.join(format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, dir.join(&name))?;
        buf.clear();
        buf.extend_from_slice(log::SEGMENT_MAGIC);
        Ok(name)
    };
    for payload in &payloads {
        let frame_len = log::FRAME_HEADER as usize + payload.len();
        if frame_buf.len() > log::SEGMENT_MAGIC.len()
            && (frame_buf.len() + frame_len) as u64 > cfg.segment_bytes
        {
            live_names.push(flush_segment(seq, &mut frame_buf)?);
            seq += 1;
        }
        frame_buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame_buf.extend_from_slice(&log::crc32(payload).to_le_bytes());
        frame_buf.extend_from_slice(payload);
    }
    live_names.push(flush_segment(seq, &mut frame_buf)?);

    // Phase 2: commit — the manifest rename is the atomic switch-over.
    log::write_manifest(dir, &live_names)?;

    // Phase 3: delete superseded segments (recovery redoes this if we
    // crash here).
    for (seq, path) in &segments {
        if !live_names.contains(&log::segment_name(*seq)) {
            let _ = fs::remove_file(path);
        }
    }

    cg_telemetry::global().stdb.compactions.inc();
    update_size_gauges(dir);
    Ok(CompactReport {
        records_before,
        records_after,
        segments_before,
        segments_after: live_names.len() as u64,
        bytes_before,
        bytes_after: log::dir_bytes(dir)?,
        corrupt_skipped: corrupt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cg-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    const QSORT: &str = "benchmark://cbench-v1/qsort";

    fn ck(actions: &[usize]) -> Checkpoint {
        Checkpoint {
            benchmark: QSORT.into(),
            action_space: 0,
            actions: actions.to_vec(),
            state: actions.iter().map(|a| (*a as u8) ^ 0x5a).collect(),
        }
    }

    fn open(dir: &Path) -> TransitionStore {
        TransitionStore::open(dir, StoreConfig::default()).unwrap()
    }

    const IR_A: &str =
        "module \"t\"\ndefine i64 @f(i64 %0) {\nbb0:\n  %1 = add i64 %0, 1\n  ret %1\n}\n";
    const IR_B: &str = "module \"t\"\ndefine i64 @f(i64 %0) {\nbb0:\n  ret %0\n}\n";

    #[test]
    fn record_codec_round_trips() {
        let rows = vec![
            WalRecord::Reset(ResetRow {
                benchmark: "benchmark://b/1".into(),
                state: 42,
            }),
            WalRecord::Step(StepRow {
                benchmark: "benchmark://b/1".into(),
                actions: vec!["mem2reg".into(), "dce".into()],
                from_state: 42,
                state: 43,
                reward: 1.5,
            }),
            WalRecord::Observation(ObservationRow {
                state: 43,
                autophase: vec![1, 2, 3],
                inst_count: vec![4, 5],
                ir_instruction_count: 9.0,
                ir_text: "define void @g() {\nentry:\n  ret void\n}\n".into(),
            }),
            WalRecord::Checkpoint(ck(&[3, 1, 4, 1, 5])),
        ];
        for rec in rows {
            let enc = encode_record(&rec);
            match (rec, decode_record(&enc).unwrap()) {
                (WalRecord::Reset(a), WalRecord::Reset(b)) => assert_eq!(a, b),
                (WalRecord::Step(a), WalRecord::Step(b)) => assert_eq!(a, b),
                (WalRecord::Observation(a), WalRecord::Observation(b)) => assert_eq!(a, b),
                (WalRecord::Checkpoint(a), WalRecord::Checkpoint(b)) => assert_eq!(a, b),
                _ => panic!("tag changed in flight"),
            }
        }
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(b"Xjunk").is_err());
    }

    #[test]
    fn log_reopen_preserves_index() {
        let dir = tmpdir("reopen");
        let a;
        let b;
        {
            let store = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
            a = store.log_reset("benchmark://b/1", IR_A);
            b = store.log_step("benchmark://b/1", &["simplifycfg".into()], a, IR_B, 2.0);
            store.flush();
            assert_eq!(store.stats().steps, 1);
            assert_eq!(store.dropped_records(), 0);
        }
        let store = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.initial_state("benchmark://b/1"), Some(a));
        assert_eq!(store.transition(a, "simplifycfg"), Some((b, 2.0)));
        let obs = store.observation(b).unwrap();
        assert_eq!(obs.ir_text, IR_B);
        assert!(obs.ir_instruction_count > 0.0);
        assert!(!obs.autophase.is_empty());
        let stats = store.stats();
        assert_eq!(stats.recovered_records, 4); // reset + step + 2 observations
        assert_eq!(stats.observations, 2);
        assert_eq!(stats.edges, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_newest_counts_instead_of_blocking() {
        let dir = tmpdir("backpressure");
        let cfg = StoreConfig {
            queue_capacity: 1,
            backpressure: Backpressure::DropNewest,
            ..StoreConfig::default()
        };
        let store = TransitionStore::open(&dir, cfg).unwrap();
        // Hammer the 1-deep queue; some records must drop, all drops must
        // be counted, and nothing may block.
        for i in 0..200u64 {
            let ir = format!("define void @f{i}() {{\nentry:\n  ret void\n}}\n");
            store.log_step("benchmark://b/1", &["a".into()], i, &ir, 0.0);
        }
        store.flush();
        let persisted = cg_telemetry::global().stdb.ingest_records.get();
        let _ = persisted;
        // The in-memory index is always complete (it is updated
        // synchronously); only WAL persistence is lossy under DropNewest.
        assert_eq!(store.stats().steps, 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_dedupes_and_survives_reopen() {
        let dir = tmpdir("compact");
        let a;
        let b;
        {
            let store = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
            a = store.log_reset("benchmark://b/1", IR_A);
            b = store.log_step("benchmark://b/1", &["dce".into()], a, IR_B, 1.0);
            // The same edge logged many times over.
            for _ in 0..50 {
                store.log_step("benchmark://b/1", &["dce".into()], a, IR_B, 1.0);
                store.log_reset("benchmark://b/1", IR_A);
            }
            store.flush();
        }
        let rep = compact_dir(&dir, &WalConfig::default()).unwrap();
        assert!(rep.records_before > rep.records_after, "{rep:?}");
        assert_eq!(rep.corrupt_skipped, 0);
        // 1 reset + 1 edge + 2 observations.
        assert_eq!(rep.records_after, 4);
        assert!(rep.bytes_after < rep.bytes_before);

        let store = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.initial_state("benchmark://b/1"), Some(a));
        assert_eq!(store.transition(a, "dce"), Some((b, 1.0)));
        assert!(store.observation(a).is_some());
        assert!(store.observation(b).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_shared_returns_one_instance_per_dir() {
        let dir = tmpdir("shared");
        let s1 = TransitionStore::open_shared(&dir, StoreConfig::default()).unwrap();
        let s2 = TransitionStore::open_shared(&dir, StoreConfig::default()).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_survives_flush_and_reopen_byte_for_byte() {
        let dir = tmpdir("ckpt-reopen");
        {
            let store = open(&dir);
            store.checkpoint_store(8, 5).put(ck(&[1, 2, 3, 4, 5]));
            store.flush();
            assert_eq!(store.stats().checkpoints, 1);
        }
        let store = open(&dir);
        assert_eq!(store.found_checkpoints(), vec![ck(&[1, 2, 3, 4, 5])]);
        let hit = (store.checkpoint_store(8, 5))
            .latest_matching(QSORT, 0, &[1, 2, 3, 4, 5, 6, 7])
            .expect("the checkpoint survived the 'crash'");
        assert_eq!(hit.to_portable(), ck(&[1, 2, 3, 4, 5]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeding_the_ring_appends_nothing() {
        let dir = tmpdir("ckpt-seed");
        {
            let store = open(&dir);
            store.checkpoint_store(8, 5).put(ck(&[1, 2]));
        }
        let store = open(&dir);
        let bytes = log::dir_bytes(&dir).unwrap();
        for _ in 0..3 {
            assert_eq!(store.checkpoint_store(8, 5).len(), 1);
        }
        store.flush();
        assert_eq!(log::dir_bytes(&dir).unwrap(), bytes);
        assert_eq!(store.stats().checkpoints, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_same_triple_twice_reopens_as_one_checkpoint() {
        let dir = tmpdir("ckpt-twice");
        {
            let store = open(&dir);
            let ring = store.checkpoint_store(8, 5);
            ring.put(ck(&[7, 8]));
            ring.put(ck(&[7, 8]));
        }
        let store = open(&dir);
        assert_eq!(store.recovery().records, 2, "both puts were appended");
        assert_eq!(store.stats().checkpoints, 1);
        assert_eq!(store.checkpoint_store(8, 5).len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_the_ring_falls_back() {
        let dir = tmpdir("ckpt-corrupt");
        let (shallow, deep) = (ck(&[1, 2, 3]), ck(&[1, 2, 3, 4, 5]));
        {
            let store = open(&dir);
            let ring = store.checkpoint_store(8, 3);
            ring.put(shallow.clone());
            ring.put(deep.clone());
            store.log_reset("benchmark://b/1", IR_A); // records after the frame
        }
        // Flip one byte in the middle of the deep checkpoint's payload.
        let (_, path) = log::list_segments(&dir).unwrap().pop().unwrap();
        let shallow_len = encode_record(&WalRecord::Checkpoint(shallow)).len();
        let deep_len = encode_record(&WalRecord::Checkpoint(deep)).len();
        let at = log::SEGMENT_MAGIC.len() + 2 * log::FRAME_HEADER as usize + shallow_len;
        let mut bytes = fs::read(&path).unwrap();
        bytes[at + deep_len / 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let store = open(&dir);
        assert_eq!(store.recovery().quarantined, 1);
        assert!(store.initial_state("benchmark://b/1").is_some());
        let hit = (store.checkpoint_store(8, 3))
            .latest_matching(QSORT, 0, &[1, 2, 3, 4, 5, 6])
            .expect("the shallow checkpoint survives");
        assert_eq!(hit.depth(), 3, "fell back past the corrupt depth-5 frame");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_one_checkpoint_per_triple() {
        let dir = tmpdir("ckpt-compact");
        {
            let store = open(&dir);
            let ring = store.checkpoint_store(2, 1);
            for actions in [&[1, 2][..], &[1, 2, 3], &[1, 2], &[7], &[1, 2, 3]] {
                ring.put(ck(actions));
            }
        }
        let seeded = open(&dir).found_checkpoints();
        assert_eq!(seeded.len(), 3);
        let rep = compact_dir(&dir, &WalConfig::default()).unwrap();
        assert_eq!((rep.records_before, rep.records_after), (5, 3));
        let store = open(&dir);
        assert_eq!(store.found_checkpoints(), seeded);
        let ring = store.checkpoint_store(2, 1);
        assert_eq!(ring.len(), 2, "a bounded ring keeps the deepest");
        let hit = ring.latest_matching(QSORT, 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(hit.to_portable(), ck(&[1, 2, 3]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The drain path end to end on the real backend: a broker parks a
    /// live llvm-v0 session as a structural snapshot, the store's sink logs
    /// its encoding, and a ring reopened from the log in a 'new process'
    /// restores byte-identical state that evolves the same.
    #[test]
    fn broker_drain_parks_checkpoints_that_reopen_from_the_log() {
        use cg_core::broker::{Broker, BrokerConfig};
        use cg_core::service::{Request, Response};
        use cg_core::session::CompilationSession;
        use std::time::Duration;

        const BENCH: &str = "benchmark://cbench-v1/crc32";
        let mut straight = cg_core::envs::llvm::LlvmSession::new();
        straight.init(BENCH, 0).unwrap();
        let names = straight.action_spaces().remove(0).actions;
        let index = |n: &str| names.iter().position(|a| a == n).unwrap();
        let actions = vec![index("mem2reg"), index("instcombine"), index("gvn")];
        let probe = index("simplifycfg");
        for &a in &actions {
            straight.apply_action(a).unwrap();
        }
        let want = straight.snapshot().unwrap().to_bytes().to_vec();

        let dir = tmpdir("ckpt-drain");
        {
            let store = open(&dir);
            let ring = store.checkpoint_store(8, 1000);
            let broker = Broker::new(
                cg_core::envs::session_factory("llvm-v0").unwrap(),
                BrokerConfig {
                    workers: 1,
                    checkpoints: ring.clone(),
                    ..BrokerConfig::default()
                },
            );
            let start = Request::StartSession {
                benchmark: BENCH.into(),
                action_space: 0,
            };
            let Response::SessionStarted { session_id } = broker.call("t", start) else {
                panic!("session did not start");
            };
            let step = Request::Step {
                session_id,
                actions: actions.clone(),
                observation_spaces: vec![],
            };
            assert!(matches!(broker.call("t", step), Response::Stepped { .. }));
            assert_eq!(broker.drain(Duration::from_secs(5)).checkpointed, 1);
            let parked = ring.latest_matching(BENCH, 0, &actions).unwrap();
            assert!(parked.state.is_live(), "the ring keeps the handle");
            assert_eq!(parked.state.to_bytes(), &want[..]);
            store.flush();
        }

        let seeded = (open(&dir).checkpoint_store(8, 1000))
            .latest_matching(BENCH, 0, &actions)
            .unwrap();
        assert_eq!(seeded.depth(), 3);
        assert!(!seeded.state.is_live(), "the log hands back bytes");
        assert_eq!(seeded.state.to_bytes(), &want[..]);
        let mut restored = cg_core::envs::llvm::LlvmSession::new();
        restored.init(BENCH, 0).unwrap();
        restored.restore(&seeded.state).unwrap();
        straight.apply_action(probe).unwrap();
        restored.apply_action(probe).unwrap();
        assert_eq!(
            restored.snapshot().unwrap().to_bytes(),
            straight.snapshot().unwrap().to_bytes()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
