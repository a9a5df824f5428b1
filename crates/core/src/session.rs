//! The `CompilationSession` interface (Figure 5): the four methods a
//! compiler integration implements to join the system.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};

/// The in-memory form of a session's state, as an integration hands it to
/// [`SessionSnapshot::from_live`]: immutable, shareable across threads, and
/// able to produce its portable bytes ([`SessionSnapshot::to_bytes`]).
pub trait SnapshotState: Any + Send + Sync {
    /// The portable encoding of this state. Called at most once per
    /// snapshot, and only when a wire codec, a disk sink or a byte-wise
    /// comparison asks for it.
    fn encode(&self) -> Vec<u8>;
}

struct SnapshotInner {
    live: Option<Arc<dyn SnapshotState>>,
    bytes: OnceLock<Vec<u8>>,
}

/// One captured session state, opaque and cheap to clone (a reference-count
/// bump; clones share the state and its encoding).
///
/// A snapshot is either **live** — a handle to the integration's own
/// immutable in-memory state, which [`CompilationSession::restore`] adopts
/// without decoding anything — or **bytes**, the portable form that gcc-v0
/// and loop_tool-v0 capture directly and a wire or a disk carries. A live
/// snapshot encodes itself to the same bytes lazily, once, on the first
/// [`SessionSnapshot::to_bytes`]; nothing in-process ever asks. On a wire or
/// a disk it is exactly that byte string, so peers that know only bytes
/// interoperate.
#[derive(Clone)]
pub struct SessionSnapshot(Arc<SnapshotInner>);

impl SessionSnapshot {
    /// Wraps portable state bytes (an integration's own encoding, or
    /// bytes decoded from a wire or a file).
    pub fn from_bytes(bytes: Vec<u8>) -> SessionSnapshot {
        SessionSnapshot(Arc::new(SnapshotInner {
            live: None,
            bytes: OnceLock::from(bytes),
        }))
    }

    /// Wraps an integration's in-memory state. The state must be immutable
    /// from here on (hand over a copy-on-write clone, never a handle the
    /// session keeps writing through).
    pub fn from_live<T: SnapshotState>(state: Arc<T>) -> SessionSnapshot {
        SessionSnapshot(Arc::new(SnapshotInner {
            live: Some(state),
            bytes: OnceLock::new(),
        }))
    }

    /// The in-memory state, if this snapshot is live and holds a `T`.
    pub fn live<T: SnapshotState>(&self) -> Option<Arc<T>> {
        let any: Arc<dyn Any + Send + Sync> = self.0.live.clone()?;
        any.downcast().ok()
    }

    /// True if this snapshot holds in-memory state (restoring it decodes
    /// nothing).
    pub fn is_live(&self) -> bool {
        self.0.live.is_some()
    }

    /// The portable encoding; a live snapshot encodes on the first call
    /// and keeps the result.
    pub fn to_bytes(&self) -> &[u8] {
        self.0.bytes.get_or_init(|| {
            self.0
                .live
                .as_ref()
                .expect("a snapshot is live or holds bytes")
                .encode()
        })
    }
}

/// Kind and encoded length only — never the payload (states run to tens of
/// kilobytes and would drown a `{:?}` of the request that carries them).
impl fmt::Debug for SessionSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_live() { "live" } else { "bytes" };
        match self.0.bytes.get() {
            Some(b) => write!(f, "SessionSnapshot({kind}, {} bytes)", b.len()),
            None => write!(f, "SessionSnapshot({kind}, not encoded)"),
        }
    }
}

/// Byte-wise: two snapshots are equal when their portable encodings are
/// (clones of one snapshot without encoding anything).
impl PartialEq for SessionSnapshot {
    fn eq(&self, other: &SessionSnapshot) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.to_bytes() == other.to_bytes()
    }
}

/// The outcome of applying one action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionOutcome {
    /// The episode reached a terminal state (most compiler tasks never do).
    pub end_of_episode: bool,
    /// The action space changed (e.g. one optimization precluding another).
    pub action_space_changed: bool,
    /// The action had any effect on the state.
    pub changed: bool,
}

/// A compiler integration: a state machine holding one compilation episode.
///
/// Mirrors the paper's interface: `getActionSpaces`/`getObservationSpaces`
/// describe the MDP; `init` starts an episode on a benchmark;
/// `applyAction` and `setObservation` (here `observe`) drive it. Everything
/// else — RPC, process isolation, timeouts, caching, the Gym API — is
/// provided by the shared runtime, so adding a compiler means implementing
/// exactly this trait (see `examples/custom_compiler.rs`).
///
/// # Fault tolerance contract
///
/// Implementations may panic, hang, or return errors; the runtime absorbs
/// all three. A panic destroys only the session (the service survives and
/// answers `Fatal`); a hang past the wall budget is killed in band, which
/// destroys the session too. In both cases the environment transparently
/// restores the episode by replaying its action history on a fresh
/// session — which is sound only if the implementation is
/// **deterministic**: the same `init` + action sequence must reproduce the
/// same state and metrics.
/// Nondeterministic compilers are detected at recovery time by the replay
/// consistency check and surfaced as `CgError::ReplayDivergence` (a check
/// skipped for a reward space declared non-deterministic, whose metric
/// differs between measurements by design). `Err`
/// returns from `apply_action`/`observe` are ordinary results (compile
/// failures, invalid actions): they are reported to the caller and never
/// retried. See `crate::chaos` for injecting these fault classes in tests.
pub trait CompilationSession: Send {
    /// The action spaces this compiler exposes.
    fn action_spaces(&self) -> Vec<ActionSpaceInfo>;

    /// The observation spaces this compiler exposes.
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo>;

    /// The reward spaces this compiler exposes (derived from scalar
    /// observations).
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo>;

    /// Starts an episode: loads `benchmark` and selects an action space.
    ///
    /// # Errors
    /// Returns a message when the benchmark cannot be resolved or the space
    /// index is invalid.
    fn init(&mut self, benchmark: &str, action_space: usize) -> Result<(), String>;

    /// Applies one action.
    ///
    /// # Errors
    /// Returns a message for out-of-range actions or internal failures.
    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String>;

    /// Computes one observation by space name.
    ///
    /// # Errors
    /// Returns a message for unknown spaces or failed computations (e.g.
    /// runtime observation of a non-runnable benchmark).
    fn observe(&mut self, space: &str) -> Result<Observation, String>;

    /// Creates an independent deep copy of the session state (backs the
    /// environment's `fork()`).
    fn fork(&self) -> Box<dyn CompilationSession>;

    // --- Optional containment hooks (server-side fault tolerance) ---
    //
    // Checkpointing (O(K) recovery instead of O(episode) replay) and growth
    // budgets. The defaults opt out: the runtime replays the full history
    // and skips size checks, so integrations work unchanged without them.

    /// Captures the episode state, or `None` to be replayed instead: as
    /// portable bytes, or as a live handle where the state is cheap to
    /// share in memory (so in-process checkpoints, prefix caches and forks
    /// never encode). The contract is round-trip fidelity: [`restore`] of
    /// the snapshot, or of its bytes, must leave a state whose next
    /// snapshot encodes byte-identically and that behaves identically for
    /// all future actions and observations.
    ///
    /// [`restore`]: CompilationSession::restore
    fn snapshot(&self) -> Option<SessionSnapshot> {
        None
    }

    /// Restores a state captured by [`snapshot`] — from this process or,
    /// as bytes, from another — on a session that has been `init`-ed on
    /// the same benchmark and action space.
    ///
    /// [`snapshot`]: CompilationSession::snapshot
    ///
    /// # Errors
    /// Returns a message when the snapshot cannot be decoded or this
    /// integration does not support checkpointing.
    fn restore(&mut self, _snapshot: &SessionSnapshot) -> Result<(), String> {
        Err("this session does not support checkpoint restore".into())
    }

    #[doc(hidden)]
    // pinned by benchmark/src/layers/ladder.rs; item 1a deletes
    fn save_state(&self) -> Option<Vec<u8>> {
        self.snapshot().map(|s| s.to_bytes().to_vec())
    }

    /// The current size of the episode state in integration-defined units
    /// (for LLVM sessions, the IR instruction count), used by the resource
    /// budget's growth cap. `None` opts out of size enforcement.
    fn state_size(&self) -> Option<u64> {
        None
    }

    /// Applies resource limits to the session (currently the interpreter
    /// fuel cap for runtime observations). Called once after `init` and
    /// again whenever the budget changes; the default ignores it.
    fn apply_budget(&mut self, _budget: &crate::budget::ResourceBudget) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// In-memory state that counts how often it is asked to encode.
    struct Counted {
        payload: Vec<u8>,
        encodes: AtomicUsize,
    }

    impl SnapshotState for Counted {
        fn encode(&self) -> Vec<u8> {
            self.encodes.fetch_add(1, Ordering::SeqCst);
            self.payload.clone()
        }
    }

    fn counted(payload: &[u8]) -> Arc<Counted> {
        Arc::new(Counted {
            payload: payload.to_vec(),
            encodes: AtomicUsize::new(0),
        })
    }

    #[test]
    fn live_snapshot_encodes_lazily_and_once() {
        let state = counted(b"abc");
        let snap = SessionSnapshot::from_live(Arc::clone(&state));
        let copy = snap.clone();
        assert!(snap.is_live());
        assert!(Arc::ptr_eq(&snap.live::<Counted>().unwrap(), &state));
        assert_eq!(state.encodes.load(Ordering::SeqCst), 0, "nothing asked yet");
        assert_eq!(snap, copy, "clones compare equal without encoding");
        assert_eq!(state.encodes.load(Ordering::SeqCst), 0);
        assert_eq!(snap.to_bytes(), b"abc");
        assert_eq!(copy.to_bytes(), b"abc", "clones share the encoding");
        assert_eq!(state.encodes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn byte_snapshot_is_not_live_and_equality_is_byte_wise() {
        let bytes = SessionSnapshot::from_bytes(b"abc".to_vec());
        assert!(!bytes.is_live());
        assert!(bytes.live::<Counted>().is_none());
        assert_eq!(bytes, SessionSnapshot::from_live(counted(b"abc")));
        assert_ne!(bytes, SessionSnapshot::from_live(counted(b"abd")));
    }

    #[test]
    fn debug_shows_kind_and_length_never_the_payload() {
        let snap = SessionSnapshot::from_live(counted(b"secret-payload"));
        assert_eq!(format!("{snap:?}"), "SessionSnapshot(live, not encoded)");
        let _ = snap.to_bytes();
        assert_eq!(format!("{snap:?}"), "SessionSnapshot(live, 14 bytes)");
        let bytes = SessionSnapshot::from_bytes(b"secret-payload".to_vec());
        assert_eq!(format!("{bytes:?}"), "SessionSnapshot(bytes, 14 bytes)");
    }
}
