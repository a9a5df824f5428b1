//! The service protocol, declared once. Each [`Request`] and [`Response`]
//! variant appears in one [`protocol!`] entry: its doc comment, its `CGB1`
//! tag, its [`Classes`] and its fields. The macro turns the entries into
//! the enums, their `CGB1` body codec (one [`Field`] impl per field type,
//! see [`crate::wire`]), `kind()` (the telemetry key and the
//! `service:{kind}` span name) and the class accessors the broker reads
//! instead of matching variants. `ServiceState::dispatch` is the only other
//! place that lists the variants.
//!
//! An entry reads `Name = tag [classes] fields`. The tags are written out
//! because they are not positional: they, the field order and the field
//! types are the `CGB1` body layout, and changing any of them needs a new
//! [`crate::wire::WIRE_VERSION`]; two entries with one tag do not compile.
//! A class list names what the message does to sessions; `names
//! session_id` and `created session_id` also name the field that carries
//! the id. A one-field tuple variant names its binding, `Error = 9
//! (message: String)`.

use crate::budget::{BudgetViolation, ResourceBudget};
use crate::session::SessionSnapshot;
use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
use crate::wire::{Field, WireError, WireReader};

/// What a protocol message does to sessions, as its declaration says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classes {
    /// The request creates a session, so a broker reserves a slot for it.
    pub creates: bool,
    /// The request names an existing session by its `session_id`.
    pub names: bool,
    /// The request ends the session it names.
    pub ends: bool,
    /// A broker sends the request to every worker.
    pub fanout: bool,
    /// The response carries the id of the session its request created.
    pub created: bool,
    /// A broker answers the request by draining: admissions close, live
    /// sessions are parked and the fleet stops before the reply.
    pub drains: bool,
}

impl Classes {
    const NONE: Classes = Classes {
        creates: false,
        names: false,
        ends: false,
        fanout: false,
        created: false,
        drains: false,
    };

    /// Whether a request of these classes runs session code: it creates a
    /// session, or names one it does not end. Every such request runs
    /// under the service's wall budget.
    pub fn session_scoped(self) -> bool {
        (self.creates || self.names) && !self.ends
    }
}

macro_rules! protocol {
    ($(
        $(#[$doc:meta])*
        pub enum $Enum:ident {$(
            $(#[$vdoc:meta])*
            $V:ident = $tag:literal $([$($class:ident $($id:ident)?),*])?
                $(($bind:ident: $Inner:ty))?
                $({$($(#[$fdoc:meta])* $f:ident: $F:ty),* $(,)?})?
        ),* $(,)?}
    )*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $Enum {$(
            $(#[$vdoc])*
            $V $(($Inner))? $({$($(#[$fdoc])* $f: $F),*})?,
        )*}

        impl $Enum {
            /// Every declared variant's name and classes.
            pub const DECLARED: &'static [(&'static str, Classes)] = &[$(
                (stringify!($V), Classes { $($($class: true,)*)? ..Classes::NONE }),
            )*];

            /// The variant name: the key of per-request telemetry and of the
            /// `service:{kind}` span.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$V { .. } => stringify!($V),)*
                }
            }

            /// This variant's declared classes.
            pub fn classes(&self) -> Classes {
                match self {
                    $(Self::$V { .. } => Classes { $($($class: true,)*)? ..Classes::NONE },)*
                }
            }

            /// The session id the declaration marks: the session a request
            /// names, or the one a response reports created.
            pub fn session_id(&self) -> Option<u64> {
                match self {
                    $(Self::$V { $($($($id,)?)*)? .. } => [$($($(*$id,)?)*)?].into_iter().next(),)*
                }
            }

            /// [`Self::session_id`], to rewrite in place.
            pub fn session_id_mut(&mut self) -> Option<&mut u64> {
                match self {
                    $(Self::$V { $($($($id,)?)*)? .. } => [$($($($id,)?)*)?].into_iter().next(),)*
                }
            }
        }

        impl Field for $Enum {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {$(
                    Self::$V { $(0: $bind)? $($($f),*)? } => {
                        buf.push($tag);
                        $($bind.put(buf);)?
                        $($($f.put(buf);)*)?
                    }
                )*}
            }

            // Two entries with one tag would make one unreachable.
            #[deny(unreachable_patterns)]
            fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(match u8::read(r)? {
                    $($tag => Self::$V {
                        $(0: <$Inner as Field>::read(r)?)?
                        $($($f: <$F as Field>::read(r)?),*)?
                    },)*
                    t => return Err(WireError(format!("unknown {} tag {t}", stringify!($Enum)))),
                })
            }
        }

        #[cfg(test)]
        impl crate::wire::tests::Arb for $Enum {
            fn arb(rng: &mut proptest::TestRng) -> Self {
                use crate::wire::tests::Arb;
                const TAGS: &[u8] = &[$($tag),*];
                match TAGS[rng.below(TAGS.len() as u64) as usize] {
                    $($tag => Self::$V {
                        $(0: <$Inner as Arb>::arb(rng))?
                        $($($f: <$F as Arb>::arb(rng)),*)?
                    },)*
                    _ => unreachable!("TAGS lists every declared tag"),
                }
            }
        }
    )*};
}

protocol! {
    /// A request to the compiler service.
    pub enum Request {
        /// Liveness check.
        Ping = 0,
        /// Describe the environment's spaces.
        GetSpaces = 1,
        /// Start a session on a benchmark.
        StartSession = 2 [creates] {
            /// Benchmark URI.
            benchmark: String,
            /// Index into the advertised action spaces.
            action_space: usize,
        },
        /// Apply actions and compute observations in one round trip. Supports
        /// the batched (§III-B5: multiple actions per step) and lazy (chosen
        /// observation spaces per step) extensions.
        Step = 3 [names session_id] {
            /// Session to drive.
            session_id: u64,
            /// Actions to apply, in order (may be empty for observation-only).
            actions: Vec<usize>,
            /// Observation spaces to compute after the last action.
            observation_spaces: Vec<String>,
        },
        /// Deep-copy a session.
        Fork = 4 [creates, names session_id] {
            /// Session to copy.
            session_id: u64,
        },
        /// Discard a session.
        EndSession = 5 [names session_id, ends] {
            /// Session to end.
            session_id: u64,
        },
        /// Rebuild a session from a checkpoint: `init` on the benchmark, then
        /// `CompilationSession::restore`. The recovery fast path — restoring
        /// replaces replaying the `actions` prefix the snapshot captured.
        RestoreSession = 6 [creates] {
            /// Benchmark URI.
            benchmark: String,
            /// Index into the advertised action spaces.
            action_space: usize,
            /// The action prefix the snapshot captured (becomes the restored
            /// session's history for subsequent checkpoints).
            actions: Vec<usize>,
            /// State from `CompilationSession::snapshot`. The in-process
            /// channel moves the handle; the wire codec carries its bytes.
            state: SessionSnapshot,
        },
        /// Re-establish an episode after a fault: the service restores the
        /// deepest checkpoint in its own ring whose `(benchmark, action_space,
        /// actions)` is a prefix of this episode, or starts the session fresh,
        /// and answers [`Response::Resumed`] with the depth the caller must
        /// replay from.
        Resume = 10 [creates] {
            /// Benchmark URI.
            benchmark: String,
            /// Index into the advertised action spaces.
            action_space: usize,
            /// The episode's full action history.
            actions: Vec<usize>,
        },
        /// Capture a session's current state (`CompilationSession::snapshot`)
        /// without disturbing it. The dual of [`Request::RestoreSession`]: export
        /// here, restore elsewhere — how an `EnvPool` seeds a worker's session
        /// from a cached search-tree prefix instead of replaying actions.
        ExportState = 7 [names session_id] {
            /// Session to snapshot.
            session_id: u64,
        },
        /// Update the service's resource budget; applies to existing sessions
        /// and everything started afterwards.
        Configure = 8 [fanout] {
            /// The new budget.
            budget: ResourceBudget,
        },
        /// Stop the service: drains a broker. In process it answers `Ok` and
        /// stops nothing; the service stops with its last handle.
        Shutdown = 9 [drains],
    }

    /// A response from the compiler service.
    pub enum Response {
        /// Ping reply.
        Pong = 0,
        /// Space description.
        Spaces = 1 {
            /// Action spaces.
            action_spaces: Vec<ActionSpaceInfo>,
            /// Observation spaces.
            observation_spaces: Vec<ObservationSpaceInfo>,
            /// Reward spaces.
            reward_spaces: Vec<RewardSpaceInfo>,
        },
        /// Session created.
        SessionStarted = 2 [created session_id] {
            /// Handle for subsequent requests.
            session_id: u64,
        },
        /// Step result.
        Stepped = 3 {
            /// Episode ended.
            end_of_episode: bool,
            /// Any action changed the state.
            changed: bool,
            /// Requested observations, in request order.
            observations: Vec<Observation>,
        },
        /// Fork created.
        Forked = 4 [created session_id] {
            /// The new session's handle.
            session_id: u64,
        },
        /// Episode re-established by [`Request::Resume`].
        Resumed = 11 [created session_id] {
            /// Handle for subsequent requests.
            session_id: u64,
            /// Actions already applied: the restored checkpoint's depth, `0`
            /// for a fresh session.
            depth: usize,
        },
        /// Session ended / shutdown acknowledged.
        Ok = 5,
        /// Exported session state; `None` when the session has nothing to
        /// snapshot (e.g. uninitialized).
        State = 6 {
            /// The state, loadable via [`Request::RestoreSession`].
            state: Option<SessionSnapshot>,
        },
        /// The session exceeded its resource budget and was destroyed by the
        /// worker (a "budget kill"); the service itself survives. Surfaced to
        /// clients as [`crate::CgError::BudgetExceeded`] — a fast typed
        /// in-band error replacing the hang → client timeout → restart
        /// cascade.
        Budget = 7 (violation: BudgetViolation),
        /// The front door refused this request under overload — admission
        /// control, a per-tenant quota, queue-pressure shedding, or a draining
        /// server. A fast typed in-band refusal (surfaced to clients as
        /// [`crate::CgError::Overloaded`]) instead of a hang or a dropped
        /// connection; any session the request addressed is untouched.
        Overloaded = 8 {
            /// Server-advised minimum delay before retrying, in milliseconds.
            retry_after_ms: u64,
            /// Which rung of the admission ladder refused.
            reason: String,
        },
        /// The request failed; the session (if any) is still usable.
        Error = 9 (message: String),
        /// The request failed fatally: the session it addressed was destroyed
        /// (e.g. a compiler panic) or is not held by this service at all (a
        /// stale id from before a restart), so its id is no longer valid. The
        /// service itself survives. Surfaced to clients as
        /// [`crate::CgError::SessionLost`] so the environment can restore the
        /// episode by action replay.
        Fatal = 10 (message: String),
    }
}
