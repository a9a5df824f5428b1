//! Session checkpointing: O(K) recovery instead of O(episode) replay.
//!
//! The service worker snapshots each session's state every K applied
//! actions (configurable, default 10) into a [`CheckpointStore`] owned by
//! the *client* side of the RPC boundary — the store must outlive the
//! service worker, because its whole purpose is surviving worker death.
//! On recovery, `CompilerEnv::replay_episode` asks the store for the
//! latest checkpoint whose action prefix matches the episode's action
//! history, restores it into a fresh session with
//! `CompilationSession::restore`, and replays only the ≤K-action
//! suffix.
//!
//! The ring holds [`SessionSnapshot`]s ([`RingCheckpoint`]): for an
//! integration with structural snapshots a checkpoint is a handle to
//! immutable in-memory state — it costs no encoding to take and none to
//! restore, and it survives the worker that took it because nothing can
//! write through it. The portable [`Checkpoint`] (state as bytes) is what
//! a [`CheckpointSink`] sees and what disk stores hand back; it is encoded
//! only when a sink is attached.
//!
//! # Soundness
//!
//! A checkpoint records the full action prefix that produced it, and the
//! store only ever serves a checkpoint whose `(benchmark, action_space,
//! actions)` is a *prefix* of the episode being recovered. For a
//! deterministic session, state is a pure function of that triple, so a
//! matching checkpoint is valid no matter which episode or worker
//! generation wrote it — stale ring entries are harmless and the ring is
//! never cleared on reset.
//!
//! The in-memory ring is bounded; an optional [`CheckpointSink`] callback
//! mirrors every checkpoint, encoded, to external storage (cg-stdb
//! provides a crash-safe temp-file+rename disk sink).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::session::SessionSnapshot;

/// Default checkpoint interval: serialize every K = 10 applied actions.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 10;

/// Default in-memory ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 16;

/// One serialized session snapshot — the portable form, for sinks, disk
/// and callers that hold `save_state` bytes. Self-describing: the
/// `(benchmark, action_space, actions)` triple fully determines the state
/// for a deterministic session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The benchmark URI the episode runs on.
    pub benchmark: String,
    /// The action space index selected at `init`.
    pub action_space: usize,
    /// The full action prefix applied before this snapshot was taken.
    pub actions: Vec<usize>,
    /// The serialized session state (`CompilationSession::save_state`).
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Number of actions captured by this checkpoint.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.actions.len()
    }
}

/// A checkpoint as the ring holds it: [`Checkpoint`] with the state as a
/// [`SessionSnapshot`], so a structural snapshot is stored and restored
/// without ever being encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct RingCheckpoint {
    /// The benchmark URI the episode runs on.
    pub benchmark: String,
    /// The action space index selected at `init`.
    pub action_space: usize,
    /// The full action prefix applied before this snapshot was taken.
    pub actions: Vec<usize>,
    /// The session state (`CompilationSession::snapshot`).
    pub state: SessionSnapshot,
}

impl RingCheckpoint {
    /// Number of actions captured by this checkpoint.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.actions.len()
    }

    /// The portable form; encodes the state if nothing has yet.
    #[must_use]
    pub fn to_portable(&self) -> Checkpoint {
        Checkpoint {
            benchmark: self.benchmark.clone(),
            action_space: self.action_space,
            actions: self.actions.clone(),
            state: self.state.to_bytes().to_vec(),
        }
    }
}

impl From<Checkpoint> for RingCheckpoint {
    fn from(c: Checkpoint) -> RingCheckpoint {
        RingCheckpoint {
            benchmark: c.benchmark,
            action_space: c.action_space,
            actions: c.actions,
            state: SessionSnapshot::from_bytes(c.state),
        }
    }
}

/// Destination for mirroring checkpoints outside the in-memory ring
/// (e.g. cg-stdb's crash-safe disk sink). Failures are the sink's problem:
/// checkpointing must never fail the step that triggered it.
pub type CheckpointSink = Arc<dyn Fn(&Checkpoint) + Send + Sync>;

#[derive(Default)]
struct StoreInner {
    ring: VecDeque<RingCheckpoint>,
    taken: u64,
    restores: u64,
}

/// A bounded ring of recent checkpoints, shared between the service worker
/// (writer) and the environment's recovery path (reader). Cheaply
/// cloneable; clones share the same ring.
#[derive(Clone)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreInner>>,
    capacity: usize,
    interval: u64,
    sink: Option<CheckpointSink>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CheckpointStore")
            .field("capacity", &self.capacity)
            .field("interval", &self.interval)
            .field("len", &inner.ring.len())
            .field("taken", &inner.taken)
            .field("restores", &inner.restores)
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl Default for CheckpointStore {
    fn default() -> CheckpointStore {
        CheckpointStore::new(DEFAULT_RING_CAPACITY, DEFAULT_CHECKPOINT_INTERVAL)
    }
}

impl CheckpointStore {
    /// Creates a store holding up to `capacity` checkpoints, taken every
    /// `interval` applied actions (`interval == 0` disables checkpointing).
    #[must_use]
    pub fn new(capacity: usize, interval: u64) -> CheckpointStore {
        CheckpointStore {
            inner: Arc::new(Mutex::new(StoreInner::default())),
            capacity: capacity.max(1),
            interval,
            sink: None,
        }
    }

    /// Returns a copy of this store that mirrors every checkpoint to
    /// `sink` in addition to the shared in-memory ring.
    #[must_use]
    pub fn with_sink(mut self, sink: CheckpointSink) -> CheckpointStore {
        self.sink = Some(sink);
        self
    }

    /// The checkpoint interval K (0 = disabled).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Returns a copy of this store with a different interval. The ring is
    /// shared with the original.
    #[must_use]
    pub fn with_interval(mut self, interval: u64) -> CheckpointStore {
        self.interval = interval;
        self
    }

    /// Whether a session at `depth` applied actions is due for a
    /// checkpoint.
    #[must_use]
    pub fn due(&self, depth: u64) -> bool {
        self.interval != 0 && depth > 0 && depth.is_multiple_of(self.interval)
    }

    /// Records a checkpoint whose state is already bytes (a caller holding
    /// `save_state` output, a disk store seeding the ring); see
    /// [`CheckpointStore::put_snapshot`].
    pub fn put(&self, checkpoint: Checkpoint) {
        self.put_snapshot(checkpoint.into());
    }

    /// Records a checkpoint, evicting the oldest entry when full. If a
    /// sink is attached the checkpoint is encoded and mirrored to it;
    /// otherwise a structural snapshot goes into the ring as it is.
    pub fn put_snapshot(&self, checkpoint: RingCheckpoint) {
        if let Some(sink) = &self.sink {
            sink(&checkpoint.to_portable());
        }
        let mut inner = self.inner.lock();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.taken += 1;
        inner.ring.push_back(checkpoint);
        cg_telemetry::global().checkpoints_taken.inc();
    }

    /// Returns the deepest checkpoint whose `(benchmark, action_space,
    /// actions)` is a prefix of the given episode — the restore point that
    /// minimizes the replay suffix. Records a restore in the store's
    /// counters; only call when actually restoring.
    #[must_use]
    pub fn latest_matching(
        &self,
        benchmark: &str,
        action_space: usize,
        actions: &[usize],
    ) -> Option<RingCheckpoint> {
        let mut inner = self.inner.lock();
        let best = inner
            .ring
            .iter()
            .filter(|c| {
                c.benchmark == benchmark
                    && c.action_space == action_space
                    && !c.actions.is_empty()
                    && c.actions.len() <= actions.len()
                    && actions[..c.actions.len()] == c.actions[..]
            })
            .max_by_key(|c| c.depth())
            .cloned();
        if best.is_some() {
            inner.restores += 1;
        }
        best
    }

    /// Total checkpoints recorded through this ring.
    #[must_use]
    pub fn checkpoints_taken(&self) -> u64 {
        self.inner.lock().taken
    }

    /// Total successful `latest_matching` lookups (checkpoint restores).
    #[must_use]
    pub fn restores(&self) -> u64 {
        self.inner.lock().restores
    }

    /// Number of checkpoints currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(benchmark: &str, actions: &[usize]) -> Checkpoint {
        Checkpoint {
            benchmark: benchmark.into(),
            action_space: 0,
            actions: actions.to_vec(),
            state: actions.iter().map(|a| *a as u8).collect(),
        }
    }

    #[test]
    fn due_respects_interval() {
        let store = CheckpointStore::new(4, 10);
        assert!(!store.due(0));
        assert!(!store.due(9));
        assert!(store.due(10));
        assert!(store.due(20));
        let off = CheckpointStore::new(4, 0);
        assert!(!off.due(10));
    }

    #[test]
    fn ring_evicts_oldest() {
        let store = CheckpointStore::new(2, 1);
        store.put(ck("b", &[1]));
        store.put(ck("b", &[1, 2]));
        store.put(ck("b", &[1, 2, 3]));
        assert_eq!(store.len(), 2);
        // The depth-1 checkpoint was evicted.
        assert!(store.latest_matching("b", 0, &[1]).is_none());
        assert_eq!(store.latest_matching("b", 0, &[1, 2]).unwrap().depth(), 2);
    }

    #[test]
    fn latest_matching_picks_deepest_prefix() {
        let store = CheckpointStore::new(8, 1);
        store.put(ck("b", &[1, 2]));
        store.put(ck("b", &[1, 2, 3, 4]));
        store.put(ck("b", &[9, 9, 9])); // different episode: not a prefix
        store.put(ck("other", &[1, 2, 3, 4, 5])); // different benchmark
        let hit = store.latest_matching("b", 0, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(hit.actions, vec![1, 2, 3, 4]);
        assert_eq!(store.restores(), 1);
        // An episode that diverged after step 2 can still use the depth-2
        // checkpoint but not the depth-4 one.
        let hit = store.latest_matching("b", 0, &[1, 2, 7]).unwrap();
        assert_eq!(hit.actions, vec![1, 2]);
    }

    #[test]
    fn action_space_must_match() {
        let store = CheckpointStore::new(8, 1);
        store.put(ck("b", &[1, 2]));
        assert!(store.latest_matching("b", 1, &[1, 2, 3]).is_none());
    }

    #[test]
    fn sink_sees_every_checkpoint() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let store = CheckpointStore::new(4, 1)
            .with_sink(Arc::new(move |c: &Checkpoint| seen2.lock().push(c.depth())));
        store.put(ck("b", &[1]));
        store.put(ck("b", &[1, 2]));
        assert_eq!(*seen.lock(), vec![1, 2]);
    }

    #[test]
    fn structural_snapshots_are_encoded_only_for_a_sink() {
        use crate::session::SnapshotState;
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counted(AtomicUsize);
        impl SnapshotState for Counted {
            fn encode(&self) -> Vec<u8> {
                self.0.fetch_add(1, Ordering::SeqCst);
                vec![7, 7]
            }
        }
        let live = |state: &Arc<Counted>| RingCheckpoint {
            benchmark: "b".into(),
            action_space: 0,
            actions: vec![1, 2],
            state: SessionSnapshot::from_live(Arc::clone(state)),
        };

        let state = Arc::new(Counted(AtomicUsize::new(0)));
        let store = CheckpointStore::new(4, 1);
        store.put_snapshot(live(&state));
        let hit = store.latest_matching("b", 0, &[1, 2, 3]).unwrap();
        assert!(hit.state.is_live());
        assert_eq!(
            state.0.load(Ordering::SeqCst),
            0,
            "ring-only: never encoded"
        );

        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mirrored = CheckpointStore::new(4, 1)
            .with_sink(Arc::new(move |c: &Checkpoint| seen2.lock().push(c.clone())));
        mirrored.put_snapshot(live(&state));
        assert_eq!(state.0.load(Ordering::SeqCst), 1, "encoded for the sink");
        assert_eq!(seen.lock()[0].state, vec![7, 7]);
        let parked = mirrored.latest_matching("b", 0, &[1, 2]).unwrap();
        assert_eq!(seen.lock()[0], parked.to_portable());
        assert_eq!(state.0.load(Ordering::SeqCst), 1, "and only once");
    }

    #[test]
    fn checkpoint_serde_round_trip() {
        let c = ck("benchmark://cbench-v1/qsort", &[3, 1, 4, 1, 5]);
        let json = serde_json::to_string(&c).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
