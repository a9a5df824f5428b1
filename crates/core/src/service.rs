//! The compiler service runtime (§IV-B): sessions behind a request/response
//! boundary, with deadlines, panic isolation, and restart-on-failure.
//!
//! The client reaches the service through one interface, the [`Link`]
//! trait, with two implementations of the same request/response protocol:
//!
//! * **inline** — [`InlineLink`]: the session runs in this process, with no
//!   service thread. What [`crate::make`], `replay://`, every `EnvPool`
//!   worker and [`crate::CompilerEnv::with_factory`] build;
//! * **TCP** — [`TcpTransport`]: length-prefixed `CGB1` frames
//!   ([`crate::wire`]) over a socket to a [`crate::broker::Broker`],
//!   supporting compilation on a different machine than the frontend
//!   ([`crate::CompilerEnv::connect_tcp`]).
//!
//! Fault tolerance lives in the dispatcher both links reach. It enters
//! session code through one helper, which runs the call under
//! `catch_unwind`, so a crashing "compiler" yields a [`Response::Fatal`]
//! instead of killing the service, and, under a wall budget, on a runner it
//! stops waiting for at the deadline, answering [`Response::Budget`] in
//! band. A panic that escapes the dispatcher itself is a
//! [`CgError::ServiceFailure`]. Recovery behaviour (attempts, backoff) is
//! configured by a [`RetryPolicy`] and applied by the one retry loop,
//! [`Link::call_with_policy`]; the environment layer additionally restores
//! lost sessions mid-episode by replaying the action history (see
//! `CompilerEnv`).
//!
//! Server-side containment (the other half of the ladder) lives here too:
//!
//! * **checkpointing** — the service snapshots each session every K applied
//!   actions into its [`CheckpointStore`] (a ring that outlives restarts
//!   and connections), and [`Request::Resume`] rebuilds a session from the
//!   deepest matching snapshot so recovery replays only the ≤K-action
//!   suffix;
//! * **resource budgets** — every session-scoped request (start, restore,
//!   resume, step, fork, export) runs under a [`ResourceBudget`]: a
//!   wall-clock deadline, and a state-size cap checked after every action.
//!   A violation is answered with a typed [`Response::Budget`] in band.
//!
//! A wall deadline runs the call on a `Runner`: a persistent thread fed by
//! a job channel, replaced only when a deadline abandons it. At most
//! [`MAX_ABANDONED_RUNNERS`] abandoned runners may still be running; past
//! that, a wall-budgeted request is refused with [`Response::Overloaded`]
//! instead of spawning another. A service with no wall budget spawns no
//! runner, so its session calls run on the caller's thread.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cg_telemetry::SpanStatus;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::budget::{BudgetKind, BudgetViolation, ResourceBudget};
use crate::checkpoint::{CheckpointStore, RingCheckpoint};
use crate::error::CgError;
use crate::retry::RetryPolicy;
use crate::session::{CompilationSession, SessionSnapshot};
use crate::space::Observation;
use crate::wire;

pub use crate::protocol::{Classes, Request, Response};

/// Factory producing fresh sessions for this service's environment.
pub type SessionFactory = Arc<dyn Fn() -> Box<dyn CompilationSession> + Send + Sync>;

/// Stack size of every thread this crate spawns to run compiler passes —
/// runners, broker workers and pool workers — since passes recurse deeply.
pub(crate) const PASS_THREAD_STACK: usize = 16 << 20;

/// Work for a [`Runner`], boxed so one thread serves every kind of job.
type Job = Box<dyn FnOnce() + Send>;

/// How many abandoned runners may still be running at once, process-wide.
/// Past it, a wall-budgeted request that needs a fresh runner is answered
/// [`Response::Overloaded`] instead of spawning another thread.
pub const MAX_ABANDONED_RUNNERS: usize = 32;

/// Abandoned runners whose threads have not yet left their loop. The cap
/// reads this, not the `runner_abandoned_live` gauge it is mirrored into,
/// so a telemetry reset cannot lift the cap.
static ABANDONED_LIVE: AtomicUsize = AtomicUsize::new(0);

fn mirror_abandoned(live: usize) {
    let gauge = &cg_telemetry::global().runner_abandoned_live;
    gauge.set(live as i64);
}

/// The one way this module runs work elsewhere and stops waiting at a
/// deadline: a persistent thread fed by a job channel. A job runs under
/// the trace context of the thread that submitted it, so the spans it opens
/// stay in the caller's tree.
///
/// When a deadline abandons a job, its runner is abandoned with it
/// ([`Runner::abandon`]): detached, never joined, left to finish or wedge
/// on its own, and counted against [`MAX_ABANDONED_RUNNERS`] until its
/// thread exits; the owner's next job gets a fresh runner. Otherwise a
/// dropped runner closes its channel and waits, bounded by `teardown`, for
/// the thread to exit. Left to exit on its own, the thread can still be
/// freeing what its jobs left behind when the owner's next thread starts,
/// which then gets a fresh allocator arena while the old one's stays
/// behind, free but resident.
struct Runner {
    jobs: Sender<Job>,
    /// Disconnects once the thread has left its loop.
    exited: Receiver<()>,
    /// `None` once abandoned.
    thread: Option<std::thread::JoinHandle<()>>,
    /// Set by [`Runner::abandon`], read by the thread as it exits.
    abandoned: Arc<AtomicBool>,
    teardown: Duration,
}

impl Runner {
    fn spawn(teardown: Duration) -> Runner {
        let (jobs, queue) = unbounded::<Job>();
        let (exited_tx, exited) = bounded::<()>(1);
        let abandoned = Arc::new(AtomicBool::new(false));
        let counted = Arc::clone(&abandoned);
        let thread = std::thread::Builder::new()
            .name("cg-session-runner".into())
            .stack_size(PASS_THREAD_STACK)
            .spawn(move || {
                let _exited = exited_tx;
                while let Ok(job) = queue.recv() {
                    job();
                }
                if counted.load(Ordering::SeqCst) {
                    mirror_abandoned(ABANDONED_LIVE.fetch_sub(1, Ordering::SeqCst) - 1);
                }
            })
            .expect("spawn runner thread");
        Runner {
            jobs,
            exited,
            thread: Some(thread),
            abandoned,
            teardown,
        }
    }

    /// Queues `job` under the caller's trace context. Its result arrives on
    /// the returned channel, which disconnects instead if the job panics or
    /// the runner is gone; the caller waits on it up to its deadline.
    fn submit<T: Send + 'static>(&self, job: impl FnOnce() -> T + Send + 'static) -> Receiver<T> {
        let (done, result) = bounded(1);
        let ctx = cg_telemetry::current_context();
        // A closed queue hands the job back, and dropping it drops `done`.
        let _ = self.jobs.send(Box::new(move || {
            let _trace_guard = ctx.map(cg_telemetry::enter_context);
            let _ = done.send(job());
        }));
        result
    }

    /// Detaches the thread: a deadline gave up on its job, which may never
    /// return. The thread leaves its loop once that job does, since
    /// dropping `self` closes the queue.
    fn abandon(mut self) {
        self.abandoned.store(true, Ordering::SeqCst);
        mirror_abandoned(ABANDONED_LIVE.fetch_add(1, Ordering::SeqCst) + 1);
        self.thread = None;
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        // Close the queue first: the thread leaves its loop once it is idle.
        drop(std::mem::replace(&mut self.jobs, unbounded().0));
        if let Err(crossbeam::channel::RecvTimeoutError::Disconnected) =
            self.exited.recv_timeout(self.teardown)
        {
            // Past its last statement: the join is immediate.
            let _ = thread.join();
        }
    }
}

/// Book-keeping the service holds alongside each session to drive
/// checkpointing and budget enforcement.
#[derive(Clone)]
struct SessionMeta {
    benchmark: String,
    action_space: usize,
    /// The action history known to be fully applied to the session.
    actions: Vec<usize>,
    /// State size right after `init`, the baseline for the growth cap.
    initial_size: Option<u64>,
    /// An action errored mid-application: the state may no longer equal
    /// `f(benchmark, action_space, actions)`, so stop checkpointing it.
    dirty: bool,
    /// Depth (action count) of the last checkpoint taken, for detecting
    /// interval-boundary crossings in batched steps.
    checkpointed_at: usize,
}

/// What one `Step` execution did to the session.
enum StepVerdict {
    Done {
        end: bool,
        changed: bool,
        observations: Vec<Observation>,
    },
    SizeExceeded {
        observed: u64,
        limit: u64,
    },
    Error(String),
}

struct StepRun {
    /// Leading actions known to be fully applied.
    applied: usize,
    /// An apply errored: state beyond `applied` is suspect.
    poisoned: bool,
    verdict: StepVerdict,
}

/// Applies actions and computes observations under an optional state-size
/// limit. Runs inside [`ServiceState::contain`], which isolates its panics.
fn execute_step(
    session: &mut dyn CompilationSession,
    actions: &[usize],
    observation_spaces: &[String],
    size_limit: Option<u64>,
) -> StepRun {
    let mut applied = 0usize;
    let mut end = false;
    let mut changed = false;
    let run = |applied, poisoned, verdict| StepRun {
        applied,
        poisoned,
        verdict,
    };
    for a in actions {
        match session.apply_action(*a) {
            Ok(out) => {
                applied += 1;
                end |= out.end_of_episode;
                changed |= out.changed;
            }
            Err(e) => return run(applied, true, StepVerdict::Error(e)),
        }
        if let (Some(limit), Some(observed)) = (size_limit, session.state_size()) {
            if observed > limit {
                let verdict = StepVerdict::SizeExceeded { observed, limit };
                return run(applied, false, verdict);
            }
        }
        if end {
            break;
        }
    }
    let mut observations = Vec::with_capacity(observation_spaces.len());
    for s in observation_spaces {
        let timer = cg_telemetry::Timer::start();
        match session.observe(s) {
            Ok(o) => {
                let tel = cg_telemetry::global();
                let dur = timer.observe(&tel.observations.get(s));
                tel.trace.emit(format!("observation:{s}"), "", dur);
                observations.push(o);
            }
            Err(e) => return run(applied, false, StepVerdict::Error(e)),
        }
    }
    let verdict = StepVerdict::Done {
        end,
        changed,
        observations,
    };
    run(applied, false, verdict)
}

/// The answer to a session-scoped request for an id this service does not
/// hold. Fatal, not an error: the id names a session that is gone — lost
/// with a restarted service or ended with its connection — so the caller
/// restores its episode by replay.
fn unknown_session(session_id: u64) -> Response {
    Response::Fatal(format!("no session {session_id}"))
}

/// How a contained session call ended without returning.
enum Fault {
    /// The service holds no session with that id.
    Unknown,
    /// Too many abandoned runners are still running to start another; the
    /// call never ran and the session is untouched.
    Refused,
    /// It was still running at the wall deadline and was abandoned, with
    /// the session, to its runner.
    Wall(Duration),
    /// It panicked: the session may be corrupt.
    Panicked,
}

pub(crate) struct ServiceState {
    factory: SessionFactory,
    sessions: HashMap<u64, Box<dyn CompilationSession>>,
    meta: HashMap<u64, SessionMeta>,
    next_id: u64,
    budget: ResourceBudget,
    checkpoints: CheckpointStore,
    /// Runs session calls under a wall budget. Spawned by the first such
    /// call and replaced after one misses its deadline, so a service with
    /// no wall budget spawns no thread.
    runner: Option<Runner>,
}

impl ServiceState {
    pub(crate) fn new(
        factory: SessionFactory,
        budget: ResourceBudget,
        checkpoints: CheckpointStore,
    ) -> ServiceState {
        ServiceState {
            factory,
            sessions: HashMap::new(),
            meta: HashMap::new(),
            next_id: 0,
            budget,
            checkpoints,
            runner: None,
        }
    }

    /// The state of a link's `generation`-th service. Each generation
    /// numbers its sessions from its own range, so an id from a replaced
    /// service can never name a session of its successor.
    fn generation(
        factory: SessionFactory,
        budget: ResourceBudget,
        checkpoints: CheckpointStore,
        generation: u64,
    ) -> ServiceState {
        ServiceState {
            next_id: generation << 32,
            ..ServiceState::new(factory, budget, checkpoints)
        }
    }

    fn insert_session(&mut self, session: Box<dyn CompilationSession>, meta: SessionMeta) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, session);
        self.meta.insert(id, meta);
        id
    }

    fn end_session(&mut self, id: u64) {
        self.sessions.remove(&id);
        self.meta.remove(&id);
    }

    /// The one way the service enters session code: runs `call` on session
    /// `id` under `catch_unwind` and, given a `wall`, on the runner, giving
    /// up on it at the deadline. The session goes back in the map unless it
    /// was abandoned with the runner; [`ServiceState::fault`] answers for a
    /// call that did not return.
    fn contain<T: Send + 'static>(
        &mut self,
        id: u64,
        wall: Option<Duration>,
        call: impl FnOnce(&mut dyn CompilationSession) -> T + Send + 'static,
    ) -> Result<T, Fault> {
        let Some(mut session) = self.sessions.remove(&id) else {
            return Err(Fault::Unknown);
        };
        if wall.is_some()
            && self.runner.is_none()
            && ABANDONED_LIVE.load(Ordering::SeqCst) >= MAX_ABANDONED_RUNNERS
        {
            self.sessions.insert(id, session);
            return Err(Fault::Refused);
        }
        let job = move || {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| call(&mut *session)));
            (session, out.map_err(|_| Fault::Panicked))
        };
        let (session, out) = match wall {
            None => job(),
            Some(wall) => {
                let runner = self.runner.get_or_insert_with(|| Runner::spawn(wall));
                match runner.submit(job).recv_timeout(wall) {
                    Ok(done) => done,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        // The session stays with the abandoned runner and
                        // is dropped whenever (if ever) the call returns.
                        if let Some(runner) = self.runner.take() {
                            runner.abandon();
                        }
                        return Err(Fault::Wall(wall));
                    }
                    // The runner died, and the session with it: reap it.
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        self.runner = None;
                        return Err(Fault::Panicked);
                    }
                }
            }
        };
        self.sessions.insert(id, session);
        out
    }

    /// The answer to `what` on session `id` not returning, and the one
    /// place a session panic is counted and traced. A panic or a missed
    /// wall destroys the session; a refusal leaves it as it was.
    fn fault(&mut self, id: u64, what: &str, fault: Fault) -> Response {
        let on = self.meta.get(&id).map_or("", |m| m.benchmark.as_str());
        let what = format!("{what} of session {id} ({on})");
        match fault {
            Fault::Unknown => unknown_session(id),
            Fault::Refused => Response::Overloaded {
                retry_after_ms: 100,
                reason: format!(
                    "{MAX_ABANDONED_RUNNERS} abandoned runners still running: the runner cap"
                ),
            },
            Fault::Wall(wall) => {
                let limit = wall.as_micros() as u64;
                self.budget_kill(
                    id,
                    BudgetViolation {
                        kind: BudgetKind::Wall,
                        limit,
                        observed: limit,
                        detail: format!("{what} still running at the {wall:?} deadline"),
                    },
                )
            }
            Fault::Panicked => {
                self.end_session(id);
                let tel = cg_telemetry::global();
                tel.panics.inc();
                let detail = format!("{what} panicked; the session is destroyed");
                tel.trace
                    .emit("service:panic", detail.clone(), Duration::ZERO);
                Response::Fatal(detail)
            }
        }
    }

    fn budget_kill(&mut self, id: u64, violation: BudgetViolation) -> Response {
        self.end_session(id);
        let tel = cg_telemetry::global();
        tel.budget_kills.inc();
        tel.trace
            .emit("service:budget-kill", violation.to_string(), Duration::ZERO);
        Response::Budget(violation)
    }

    /// Starts a session on `benchmark`: `init`, then, given a `state`, a
    /// `restore` of it, whose history is `actions`.
    fn start(
        &mut self,
        benchmark: String,
        action_space: usize,
        actions: Vec<usize>,
        state: Option<SessionSnapshot>,
    ) -> Response {
        let what = if state.is_some() { "restore" } else { "init" };
        let (bench, budget) = (benchmark.clone(), self.budget.clone());
        let depth = actions.len();
        let meta = SessionMeta {
            benchmark,
            action_space,
            actions,
            initial_size: None,
            dirty: false,
            checkpointed_at: depth,
        };
        let id = self.insert_session((self.factory)(), meta);
        let started = self.contain(id, self.budget.wall(), move |s| {
            s.init(&bench, action_space)?;
            s.apply_budget(&budget);
            // The growth baseline is the *episode-initial* size — measured
            // after init, before a snapshot overwrites it.
            let initial_size = s.state_size();
            if let Some(state) = &state {
                s.restore(state)?;
            }
            Ok::<_, String>(initial_size)
        });
        let failed = match started {
            Ok(Ok(initial_size)) => {
                if let Some(meta) = self.meta.get_mut(&id) {
                    meta.initial_size = initial_size;
                }
                return Response::SessionStarted { session_id: id };
            }
            Ok(Err(e)) => Response::Error(e),
            Err(fault) => self.fault(id, what, fault),
        };
        // The caller never learns this id.
        self.end_session(id);
        failed
    }

    /// Snapshots the session into the checkpoint ring when its history
    /// crossed a K-action boundary since the last snapshot.
    fn maybe_checkpoint(&mut self, session_id: u64) {
        let interval = self.checkpoints.interval() as usize;
        if interval == 0 {
            return;
        }
        let Some(meta) = self.meta.get(&session_id) else {
            return;
        };
        let depth = meta.actions.len();
        if !meta.dirty && depth > 0 && depth / interval > meta.checkpointed_at / interval {
            self.checkpoint(session_id);
        }
    }

    /// Snapshots session `id` into the checkpoint ring, on this thread.
    /// Best-effort: a panicking or unsupported `snapshot` never fails the
    /// request; a panic marks the session dirty. Returns whether a
    /// checkpoint was taken.
    fn checkpoint(&mut self, id: u64) -> bool {
        let snapshot = self.contain(id, None, |s| s.snapshot());
        let Some(meta) = self.meta.get_mut(&id) else {
            return false;
        };
        match snapshot {
            Ok(Some(state)) => {
                meta.checkpointed_at = meta.actions.len();
                self.checkpoints.put_snapshot(RingCheckpoint {
                    benchmark: meta.benchmark.clone(),
                    action_space: meta.action_space,
                    actions: meta.actions.clone(),
                    state,
                });
                true
            }
            Err(Fault::Panicked) => {
                meta.dirty = true;
                false
            }
            _ => false,
        }
    }

    /// Snapshots every live session into the checkpoint store regardless of
    /// interval boundaries — the drain path's "park everything" sweep.
    /// Dirty sessions (whose state no longer equals their action history)
    /// are skipped. Returns how many sessions were checkpointed.
    pub(crate) fn checkpoint_all(&mut self) -> usize {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.into_iter()
            .filter(|id| self.meta.get(id).is_some_and(|m| !m.dirty) && self.checkpoint(*id))
            .count()
    }

    /// How many sessions this state is serving.
    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Dispatches one request, recording latency, in-flight, error, and
    /// panic telemetry. Both links funnel through here, so service metrics
    /// cover in-process and TCP alike.
    ///
    /// Each request runs under a `service:{kind}` span parented to the
    /// caller's context (installed by the broker from the codec's metadata
    /// field, or the caller's own on the inline link), so everything
    /// `dispatch` emits — per-pass spans, observation timings, budget kills
    /// — lands in the client's trace tree.
    pub(crate) fn handle(&mut self, req: Request) -> Response {
        let tel = cg_telemetry::global();
        let kind = req.kind();
        tel.in_flight.inc();
        let mut span = tel.trace.span(format!("service:{kind}"));
        let timer = cg_telemetry::Timer::start();
        let resp = self.dispatch(req);
        let dur = timer.elapsed();
        tel.in_flight.dec();
        tel.requests.get(kind).record_duration(dur);
        match &resp {
            Response::Error(e) | Response::Fatal(e) => {
                tel.request_errors.get(kind).inc();
                tel.trace
                    .emit(format!("service:error:{kind}"), e.clone(), dur);
                span.set_status(SpanStatus::Error);
                span.set_detail(e.clone());
            }
            Response::Budget(v) => {
                span.set_status(SpanStatus::BudgetExceeded);
                span.set_detail(v.to_string());
            }
            _ => {}
        }
        resp
    }

    /// Session code runs only inside [`ServiceState::contain`]: under the
    /// wall budget for starts, steps, forks and exports, on this thread for
    /// checkpoints and `Configure`. `GetSpaces` asks a probe session outside
    /// it, so a panicking space description escapes the dispatcher.
    fn dispatch(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::GetSpaces => {
                let probe = (self.factory)();
                Response::Spaces {
                    action_spaces: probe.action_spaces(),
                    observation_spaces: probe.observation_spaces(),
                    reward_spaces: probe.reward_spaces(),
                }
            }
            Request::StartSession {
                benchmark,
                action_space,
            } => self.start(benchmark, action_space, Vec::new(), None),
            Request::RestoreSession {
                benchmark,
                action_space,
                actions,
                state,
            } => self.start(benchmark, action_space, actions, Some(state)),
            Request::Resume {
                benchmark,
                action_space,
                actions,
            } => {
                let restored = self
                    .checkpoints
                    .latest_matching(&benchmark, action_space, &actions)
                    .and_then(|cp| {
                        let depth = cp.depth();
                        match self.start(cp.benchmark, cp.action_space, cp.actions, Some(cp.state))
                        {
                            Response::SessionStarted { session_id } => Some((session_id, depth)),
                            // A checkpoint that will not restore is never an
                            // error: the episode starts over instead.
                            _ => None,
                        }
                    });
                let (session_id, depth) = match restored {
                    Some(found) => found,
                    None => match self.start(benchmark, action_space, Vec::new(), None) {
                        Response::SessionStarted { session_id } => (session_id, 0),
                        failed => return failed,
                    },
                };
                Response::Resumed { session_id, depth }
            }
            Request::ExportState { session_id } => {
                match self.contain(session_id, self.budget.wall(), |s| s.snapshot()) {
                    Ok(state) => Response::State { state },
                    Err(fault) => self.fault(session_id, "snapshot", fault),
                }
            }
            Request::Configure { budget } => {
                self.budget = budget;
                let ids: Vec<u64> = self.sessions.keys().copied().collect();
                for id in ids {
                    let budget = self.budget.clone();
                    let _ = self.contain(id, None, move |s| s.apply_budget(&budget));
                }
                Response::Ok
            }
            Request::Step {
                session_id,
                actions,
                observation_spaces,
            } => {
                let size_limit = self
                    .budget
                    .size_limit(self.meta.get(&session_id).and_then(|m| m.initial_size));
                let stepped = self.contain(session_id, self.budget.wall(), move |s| {
                    let run = execute_step(s, &actions, &observation_spaces, size_limit);
                    (run, actions)
                });
                let (run, actions) = match stepped {
                    Ok(done) => done,
                    Err(fault) => return self.fault(session_id, "step", fault),
                };
                if let Some(meta) = self.meta.get_mut(&session_id) {
                    meta.actions.extend_from_slice(&actions[..run.applied]);
                    meta.dirty |= run.poisoned;
                }
                match run.verdict {
                    StepVerdict::Done {
                        end,
                        changed,
                        observations,
                    } => {
                        self.maybe_checkpoint(session_id);
                        Response::Stepped {
                            end_of_episode: end,
                            changed,
                            observations,
                        }
                    }
                    StepVerdict::SizeExceeded { observed, limit } => self.budget_kill(
                        session_id,
                        BudgetViolation {
                            kind: BudgetKind::Growth,
                            limit,
                            observed,
                            detail: format!(
                                "session {session_id} grew to {observed} (limit {limit}) \
                                 applying actions {actions:?}"
                            ),
                        },
                    ),
                    StepVerdict::Error(e) => Response::Error(e),
                }
            }
            Request::Fork { session_id } => {
                let copy = match self.contain(session_id, self.budget.wall(), |s| s.fork()) {
                    Ok(copy) => copy,
                    Err(fault) => return self.fault(session_id, "fork", fault),
                };
                let id = self.next_id;
                self.next_id += 1;
                self.sessions.insert(id, copy);
                if let Some(meta) = self.meta.get(&session_id).cloned() {
                    self.meta.insert(id, meta);
                }
                Response::Forked { session_id: id }
            }
            Request::EndSession { session_id } => {
                self.end_session(session_id);
                Response::Ok
            }
            Request::Shutdown => Response::Ok,
        }
    }
}

/// The client half of the RPC boundary: what [`crate::env::CompilerEnv`]
/// drives, however the compiler is reached. [`InlineLink`] runs the
/// service in process and [`TcpTransport`] reaches a
/// [`crate::broker::Broker`] over a socket; the recovery ladder, the retry
/// loop and fork sharing are written once, against this trait.
///
/// A link and the handles [`Link::clone_link`] makes share one service (or
/// one connection): a restart through any of them replaces it for all.
pub trait Link: Send + Sync + std::fmt::Debug {
    /// Issues one request, once.
    ///
    /// # Errors
    /// [`CgError::ServiceFailure`] when the service is dead, hung past the
    /// socket deadline or unreachable; [`CgError::SessionLost`] when the session
    /// is gone; [`CgError::Session`] for backend errors;
    /// [`CgError::BudgetExceeded`] and [`CgError::Overloaded`] for typed
    /// in-band refusals.
    fn call(&self, req: Request) -> Result<Response, CgError>;

    /// Issues a best-effort teardown request (e.g. `EndSession` against a
    /// service that may be hung or dead) bounded by the policy's short
    /// teardown deadline. Expiry is expected and is *not* counted as a
    /// timeout in telemetry.
    ///
    /// # Errors
    /// Same as [`Link::call`]; callers typically ignore the result.
    fn call_teardown(&self, req: Request) -> Result<Response, CgError>;

    /// Replaces the (possibly broken) service behind the link: a fresh
    /// service state in process, a fresh connection over TCP. Every session the old one
    /// held is lost, for every handle sharing the link; callers
    /// re-establish theirs by replay.
    fn restart(&self);

    /// How many times [`Link::restart`] has replaced the service.
    fn restarts(&self) -> u64;

    /// The recovery policy in effect.
    fn policy(&self) -> &RetryPolicy;

    /// Replaces this handle's recovery policy.
    fn set_policy(&mut self, policy: RetryPolicy);

    /// The resource budget last configured on the service.
    fn resource_budget(&self) -> ResourceBudget;

    /// Sets the service's resource budget (rung 1 of the recovery ladder).
    ///
    /// # Errors
    /// Propagates the `Configure` call failure; the budget is remembered
    /// regardless.
    fn set_resource_budget(&self, budget: ResourceBudget) -> Result<(), CgError>;

    /// Another handle on the same service or connection: what a forked
    /// environment drives.
    fn clone_link(&self) -> Box<dyn Link>;

    /// Issues a request under the recovery policy — the runtime's one retry
    /// loop. On service failure the link is restarted and the call retried
    /// after an exponential, deterministically jittered backoff; a session
    /// lost at birth is retried without a restart; a typed overload refusal
    /// is retried in place, never earlier than the server asked — until the
    /// policy's attempt count or wall-clock budget is exhausted.
    ///
    /// The request is passed by value: the happy path (and the final
    /// attempt) never clone it; a clone is taken only when a later retry is
    /// still possible.
    ///
    /// # Errors
    /// The final error when all attempts were exhausted.
    fn call_with_policy(&self, req: Request) -> Result<Response, CgError> {
        let policy = self.policy().clone();
        let start = std::time::Instant::now();
        let max = policy.max_attempts.max(1);
        let kind = req.kind();
        let mut req = Some(req);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let budget_spent = policy.budget.is_some_and(|b| start.elapsed() >= b);
            let last = attempt >= max || budget_spent;
            let this = if last {
                req.take().expect("request is held until the final attempt")
            } else {
                req.as_ref()
                    .expect("request is held until the final attempt")
                    .clone()
            };
            match self.call(this) {
                Err(CgError::ServiceFailure(e)) if !last => {
                    policy.record_retry(kind, attempt, &e);
                    self.restart();
                    std::thread::sleep(policy.backoff_for(attempt));
                }
                // A session destroyed at birth (init panic) is retryable on
                // a fresh session without replacing the service.
                Err(CgError::SessionLost(e)) if !last => {
                    policy.record_retry(kind, attempt, &e);
                    std::thread::sleep(policy.backoff_for(attempt));
                }
                // A typed overload refusal comes from a healthy but busy
                // front door: retry in place (no restart) and never earlier
                // than the server-advised retry_after floor.
                Err(CgError::Overloaded {
                    retry_after_ms,
                    reason,
                }) if !last => {
                    policy.record_retry(kind, attempt, &reason);
                    std::thread::sleep(
                        policy.backoff_with_floor(attempt, Duration::from_millis(retry_after_ms)),
                    );
                }
                other => return other,
            }
        }
    }
}

/// Maps a reply to the client's error surface: typed failure replies
/// become their [`CgError`], everything else is a result.
fn settle(resp: Response) -> Result<Response, CgError> {
    match resp {
        Response::Error(e) => Err(CgError::Session(e)),
        Response::Fatal(e) => Err(CgError::SessionLost(e)),
        Response::Budget(v) => Err(CgError::BudgetExceeded(v)),
        Response::Overloaded {
            retry_after_ms,
            reason,
        } => Err(CgError::Overloaded {
            retry_after_ms,
            reason,
        }),
        ok => Ok(ok),
    }
}

/// Runs one client call under a span named `name`, whose status records
/// how the call ended — the same on every link, so a trace reads alike
/// whichever one carried it.
fn traced<T>(name: String, call: impl FnOnce() -> Result<T, CgError>) -> Result<T, CgError> {
    let mut span = cg_telemetry::global().trace.span(name);
    let result = call();
    if let Err(e) = &result {
        span.set_status(match e {
            CgError::BudgetExceeded(_) => SpanStatus::BudgetExceeded,
            _ => SpanStatus::Error,
        });
        span.set_detail(e.to_string());
    }
    result
}

/// Counts a link restart and records it in the trace.
fn record_restart(detail: String) {
    let tel = cg_telemetry::global();
    tel.restarts.inc();
    tel.trace.emit("service:restart", detail, Duration::ZERO);
}

// ---------------------------------------------------------------------------
// Inline link
// ---------------------------------------------------------------------------

/// The in-process [`Link`]: a request is one dispatch under a lock, on the
/// caller's thread — no service thread, no channel.
///
/// Containment is what the dispatcher gives every link: each session call
/// runs under `catch_unwind`, and the [`ResourceBudget`] is enforced in
/// band. Under a wall budget ([`ResourceBudget::with_wall`]) every
/// session-scoped request — start, restore, resume, step, fork, export —
/// runs on the state's runner and is answered [`CgError::BudgetExceeded`]
/// at the deadline, so a hung compiler never hangs the caller. One more
/// `catch_unwind` turns a panic that escapes the dispatcher into
/// [`CgError::ServiceFailure`], after which [`Link::restart`] swaps in a
/// fresh service state.
///
/// Without a wall budget nothing bounds a hung call, which then hangs the
/// caller. A restart cannot preempt a call already running on another
/// handle's thread; it waits for it.
///
/// Clones share the service state, the restart generation, the checkpoint
/// store and the budget; their calls serialize on the state's lock.
#[derive(Clone)]
pub struct InlineLink {
    state: Arc<Mutex<ServiceState>>,
    policy: RetryPolicy,
    generation: Arc<AtomicU64>,
    checkpoints: CheckpointStore,
    budget: Arc<Mutex<ResourceBudget>>,
}

/// The name the benchmark still calls the in-process link by.
#[doc(hidden)]
pub type ServiceClient = InlineLink; // pinned by benchmark/src/layers/mod.rs; item 1a deletes

impl std::fmt::Debug for InlineLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineLink")
            .field("policy", &self.policy)
            .finish()
    }
}

impl InlineLink {
    /// An inline service over `factory`, with the default [`RetryPolicy`]
    /// and no resource budget.
    pub fn new(factory: SessionFactory) -> InlineLink {
        Self::with_budget(factory, ResourceBudget::default())
    }

    /// An inline service whose sessions run under `budget` from the start.
    pub(crate) fn with_budget(factory: SessionFactory, budget: ResourceBudget) -> InlineLink {
        let checkpoints = CheckpointStore::default();
        let state = ServiceState::generation(factory, budget.clone(), checkpoints.clone(), 0);
        InlineLink {
            state: Arc::new(Mutex::new(state)),
            policy: RetryPolicy::default(),
            generation: Arc::new(AtomicU64::new(0)),
            checkpoints,
            budget: Arc::new(Mutex::new(budget)),
        }
    }

    /// What [`crate::CompilerEnv::with_factory`] builds: a wall budget of
    /// `timeout` on every session-scoped request.
    #[doc(hidden)]
    pub fn spawn(factory: SessionFactory, timeout: Duration) -> InlineLink {
        // pinned by benchmark/src/layers/mod.rs; item 1a deletes
        Self::with_budget(factory, ResourceBudget::default().with_wall(timeout))
    }

    /// [`Link::call`], callable without the trait in scope.
    ///
    /// # Errors
    /// See [`Link::call`].
    #[doc(hidden)]
    pub fn call(&self, req: Request) -> Result<Response, CgError> {
        // pinned by benchmark/src/layers/mod.rs; item 1a deletes
        Link::call(self, req)
    }

    /// The checkpoint ring this service writes into. It outlives restarts,
    /// and [`Request::Resume`] finds a replaced state's snapshots in it.
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// Replaces the checkpoint store (interval, capacity, disk sink): where
    /// the checkpoint interval K is set. Call before starting sessions.
    pub fn set_checkpoint_store(&mut self, store: CheckpointStore) {
        self.state.lock().checkpoints = store.clone();
        self.checkpoints = store;
    }
}

/// Runs one request against `state` on this thread. A panic that escapes
/// the dispatcher — session code it calls outside its containment, such as
/// the space description `GetSpaces` asks for — is a service failure.
fn handle_contained(state: &Mutex<ServiceState>, req: Request) -> Result<Response, CgError> {
    let mut state = state.lock();
    match std::panic::catch_unwind(AssertUnwindSafe(|| state.handle(req))) {
        Ok(resp) => settle(resp),
        Err(_) => {
            let tel = cg_telemetry::global();
            tel.panics.inc();
            tel.trace
                .emit("service:panic", "dispatch panicked", Duration::ZERO);
            Err(CgError::ServiceFailure(
                "the compiler service panicked outside a session call".into(),
            ))
        }
    }
}

impl Link for InlineLink {
    fn call(&self, req: Request) -> Result<Response, CgError> {
        traced(format!("rpc:{}", req.kind()), || {
            handle_contained(&self.state, req)
        })
    }

    /// There is no deadline to shorten: the teardown runs like any call.
    fn call_teardown(&self, req: Request) -> Result<Response, CgError> {
        traced(format!("rpc:teardown:{}", req.kind()), || {
            handle_contained(&self.state, req)
        })
    }

    /// Swaps in a fresh service state, numbering sessions from the next
    /// generation's range, for every clone. Waits for a call in flight on
    /// another thread to return.
    fn restart(&self) {
        let mut state = self.state.lock();
        let generation = self.generation.load(Ordering::SeqCst) + 1;
        let fresh = ServiceState::generation(
            Arc::clone(&state.factory),
            self.budget.lock().clone(),
            self.checkpoints.clone(),
            generation,
        );
        // The old sessions are freed after the lock is released.
        let _old = std::mem::replace(&mut *state, fresh);
        self.generation.store(generation, Ordering::SeqCst);
        drop(state);
        record_restart(format!("inline generation {generation}"));
    }

    fn restarts(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    fn resource_budget(&self) -> ResourceBudget {
        self.budget.lock().clone()
    }

    /// Configures the live state and remembers the budget, so every
    /// restarted state inherits it.
    fn set_resource_budget(&self, budget: ResourceBudget) -> Result<(), CgError> {
        *self.budget.lock() = budget.clone();
        self.call(Request::Configure { budget }).map(|_| ())
    }

    fn clone_link(&self) -> Box<dyn Link> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Writes one `len ‖ payload` frame with a single vectored syscall in the
/// common case. Coalescing the 4-byte length prefix and the payload into one
/// `writev` halves the syscalls per reply and avoids the prefix landing in
/// its own TCP segment under `TCP_NODELAY`. Short writes (the kernel took
/// only part of the iovec) are continued manually because
/// `write_all_vectored` is not yet stable.
pub(crate) fn write_frame<W: std::io::Write>(stream: &mut W, bytes: &[u8]) -> std::io::Result<()> {
    let prefix = (bytes.len() as u32).to_le_bytes();
    let mut written = 0usize;
    let total = prefix.len() + bytes.len();
    while written < total {
        let bufs: &[std::io::IoSlice<'_>] = if written < prefix.len() {
            &[
                std::io::IoSlice::new(&prefix[written..]),
                std::io::IoSlice::new(bytes),
            ]
        } else {
            &[std::io::IoSlice::new(&bytes[written - prefix.len()..])]
        };
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "frame")),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Hard cap on a single frame: a malformed or hostile length prefix must
/// not allocate unbounded memory.
pub(crate) const MAX_FRAME_LEN: usize = 64 << 20;

/// Capacity a [`FrameReader`] keeps across frames. Buffers grown past this
/// by one oversized frame (a multi-MB printed-IR observation, say) are
/// shrunk back on the next small read, so a single outlier doesn't pin
/// megabytes for the connection's lifetime.
const FRAME_BUF_RETAIN: usize = 1 << 20;

/// Socket reads pull whole bursts rather than exact frames, so a pipelined
/// window of requests lands in one or two syscalls instead of two per
/// frame.
const FRAME_READ_CHUNK: usize = 64 << 10;

/// Reads `len ‖ payload` frames through an internal buffer reused across
/// frames — the per-connection receive path allocates once, not per frame.
/// Each socket read drains whatever is available (up to the buffer), so
/// back-to-back pipelined frames are served from memory without touching
/// the socket again.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    /// Consumed offset into `buf`.
    start: usize,
    /// Filled offset into `buf`.
    end: usize,
}

impl FrameReader {
    pub(crate) fn new() -> FrameReader {
        FrameReader::default()
    }

    fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Buffers at least `need` unconsumed bytes, reading in large chunks.
    fn fill<R: std::io::Read>(&mut self, stream: &mut R, need: usize) -> std::io::Result<()> {
        if self.pending() >= need {
            return Ok(());
        }
        // Compact before growing so the buffer stays bounded by the frame
        // size plus one read chunk.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let want = need.max(FRAME_READ_CHUNK);
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        while self.pending() < need {
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() + FRAME_READ_CHUNK, 0);
            }
            let n = stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.end += n;
        }
        Ok(())
    }

    /// Reads one frame, returning a view into the reused buffer. The view
    /// is valid until the next `read` call.
    pub(crate) fn read<R: std::io::Read>(&mut self, stream: &mut R) -> std::io::Result<&[u8]> {
        let pending = self.pending();
        if self.buf.len() > FRAME_BUF_RETAIN && pending <= FRAME_READ_CHUNK {
            let mut fresh = vec![0u8; FRAME_READ_CHUNK];
            fresh[..pending].copy_from_slice(&self.buf[self.start..self.end]);
            self.buf = fresh;
            self.start = 0;
            self.end = pending;
        }
        self.fill(stream, 4)?;
        let n =
            u32::from_le_bytes(self.buf[self.start..self.start + 4].try_into().unwrap()) as usize;
        if n > MAX_FRAME_LEN {
            return Err(std::io::Error::other("frame too large"));
        }
        self.fill(stream, 4 + n)?;
        self.start += 4;
        let at = self.start;
        self.start += n;
        Ok(&self.buf[at..at + n])
    }
}

/// Accounts one transmitted frame's payload bytes to the wire counters.
pub(crate) fn account_tx(n: usize) {
    let wire = &cg_telemetry::global().wire;
    wire.frames.inc();
    wire.tx_bytes.add(n as u64);
}

/// Accounts one received frame's payload bytes to the wire counters.
pub(crate) fn account_rx(n: usize) {
    let wire = &cg_telemetry::global().wire;
    wire.frames.inc();
    wire.rx_bytes.add(n as u64);
}

/// One socket to a broker: the private connection inside a
/// [`TcpTransport`]. It speaks CGB1 frames, reusing its encode scratch and
/// receive buffer across calls, and never retries — recovery belongs to
/// [`Link::call_with_policy`] and the environment's ladder.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    addr: String,
    timeout: Duration,
    /// Tenant identity stamped into every request frame (the broker's
    /// queueing/quota key). `None` bills to the anonymous tenant.
    tenant: Option<String>,
    /// Whether the `Hello`/`HelloAck` handshake has completed on the
    /// *current* stream; reset by every reconnect.
    greeted: bool,
    /// Last correlation id issued. Monotonic per connection; responses are
    /// demuxed by echoing it, which is what lets `call_pipelined` keep
    /// many requests in flight on this one socket.
    corr: u64,
    /// Reusable encode scratch — frames are built here instead of a fresh
    /// `Vec` per request.
    scratch: Vec<u8>,
    /// Reusable receive buffer (see [`FrameReader`]).
    reader: FrameReader,
}

impl Connection {
    fn open(addr: &str, timeout: Duration) -> Result<TcpStream, CgError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CgError::ServiceFailure(format!("connect {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| CgError::ServiceFailure(e.to_string()))?;
        // Nagle + delayed ACK would hold every small pipelined frame for
        // ~40ms; request/response traffic wants immediate flushes.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Opens the conversation on the current stream: sends `Hello` and
    /// requires a `HelloAck` carrying this build's [`wire::WIRE_VERSION`] —
    /// a magic + version check on the peer before any request is trusted to
    /// it. A typed refusal the server wrote instead (the connection cap's
    /// `Overloaded`, a version-mismatch `Error`) surfaces as its error and
    /// leaves the stream ungreeted, so a retried call shakes hands again.
    fn handshake(&mut self) -> Result<(), CgError> {
        if self.greeted {
            return Ok(());
        }
        wire::encode_hello(&mut self.scratch);
        account_tx(self.scratch.len());
        write_frame(&mut self.stream, &self.scratch)
            .map_err(|e| CgError::ServiceFailure(format!("hello send: {e}")))?;
        let frame = self
            .reader
            .read(&mut self.stream)
            .map_err(|e| CgError::ServiceFailure(format!("hello recv: {e}")))?;
        account_rx(frame.len());
        let refusal = match wire::decode_frame(frame) {
            Ok(wire::Frame::HelloAck { version }) if version == wire::WIRE_VERSION => {
                self.greeted = true;
                return Ok(());
            }
            Ok(wire::Frame::HelloAck { version }) => format!(
                "peer speaks CGB1 version {version}, expected {}",
                wire::WIRE_VERSION
            ),
            Ok(wire::Frame::Response { body, .. }) => {
                match wire::decode_response_body(body).map(settle) {
                    Ok(Err(refused)) => return Err(refused),
                    other => format!("unexpected handshake reply: {other:?}"),
                }
            }
            _ => "peer did not answer the CGB1 handshake".to_string(),
        };
        cg_telemetry::global().wire.decode_errors.inc();
        Err(CgError::ServiceFailure(refusal))
    }

    /// Encodes `req` into the scratch buffer under the next correlation
    /// id, stamped with the caller's trace context and the tenant.
    fn encode_request(&mut self, req: &Request) -> u64 {
        self.corr += 1;
        wire::encode_request_frame(
            &mut self.scratch,
            self.corr,
            req,
            cg_telemetry::current_context(),
            self.tenant.as_deref(),
        );
        account_tx(self.scratch.len());
        self.corr
    }

    /// Receives one response frame, returning its correlation id. A read
    /// deadline that expires counts as a telemetry timeout unless the
    /// caller expected it (`count_timeout` false: best-effort teardown).
    fn recv_response(&mut self, count_timeout: bool) -> Result<(u64, Response), CgError> {
        let frame = self.reader.read(&mut self.stream).map_err(|e| {
            if count_timeout
                && matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            {
                cg_telemetry::global().timeouts.inc();
            }
            CgError::ServiceFailure(format!("recv: {e}"))
        })?;
        account_rx(frame.len());
        match wire::decode_frame(frame) {
            Ok(wire::Frame::Response { corr, body }) => match wire::decode_response_body(body) {
                Ok(resp) => Ok((corr, resp)),
                Err(e) => {
                    cg_telemetry::global().wire.decode_errors.inc();
                    Err(CgError::ServiceFailure(format!("bad response frame: {e}")))
                }
            },
            _ => {
                cg_telemetry::global().wire.decode_errors.inc();
                Err(CgError::ServiceFailure(
                    "unexpected frame kind in response".to_string(),
                ))
            }
        }
    }

    /// Receives the next reply to a request issued at or after correlation
    /// id `first`. Replies to earlier ids answer calls that already gave up
    /// — a call whose read deadline expired leaves its reply in flight —
    /// and are discarded, so a late reply never desynchronizes the
    /// connection and a timeout never forces a reconnect.
    fn recv_reply(&mut self, first: u64, count_timeout: bool) -> Result<(u64, Response), CgError> {
        loop {
            let (corr, resp) = self.recv_response(count_timeout)?;
            if corr >= first {
                return Ok((corr, resp));
            }
        }
    }

    fn call_once(&mut self, req: &Request, count_timeout: bool) -> Result<Response, CgError> {
        self.handshake()?;
        let corr = self.encode_request(req);
        write_frame(&mut self.stream, &self.scratch)
            .map_err(|e| CgError::ServiceFailure(format!("send: {e}")))?;
        let (got, resp) = self.recv_reply(corr, count_timeout)?;
        if got != corr {
            return Err(CgError::ServiceFailure(format!(
                "correlation mismatch: wanted {corr}, got {got}"
            )));
        }
        settle(resp)
    }

    /// Sends a whole window of requests before awaiting the first reply,
    /// then demuxes the replies by correlation id into request order. A
    /// transport failure fails the window.
    fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CgError> {
        self.handshake()?;
        let wire_stats = &cg_telemetry::global().wire;
        let first = self.corr + 1;
        // The whole window is encoded into one buffer and flushed with a
        // single write: one syscall per window instead of one per request,
        // and no chance for the kernel to coalesce-and-stall partial frames.
        let mut batch: Vec<u8> = Vec::new();
        for req in reqs {
            self.encode_request(req);
            batch.extend_from_slice(&(self.scratch.len() as u32).to_le_bytes());
            batch.extend_from_slice(&self.scratch);
            wire_stats.pipelined_calls.inc();
            wire_stats.in_flight.inc();
        }
        let mut replies: Vec<Option<Response>> = vec![None; reqs.len()];
        let mut pending = reqs.len();
        let result: Result<(), CgError> = (|| {
            self.stream
                .write_all(&batch)
                .map_err(|e| CgError::ServiceFailure(format!("send: {e}")))?;
            while pending > 0 {
                let (corr, resp) = self.recv_reply(first, true)?;
                let slot = replies
                    .get_mut((corr - first) as usize)
                    .filter(|slot| slot.is_none())
                    .ok_or_else(|| {
                        CgError::ServiceFailure(format!(
                            "correlation mismatch: unexpected id {corr}"
                        ))
                    })?;
                *slot = Some(resp);
                pending -= 1;
                wire_stats.in_flight.dec();
            }
            Ok(())
        })();
        // On transport failure the unanswered requests stay in flight from
        // the gauge's perspective unless drained here.
        for _ in 0..pending {
            wire_stats.in_flight.dec();
        }
        result?;
        Ok(replies
            .into_iter()
            .map(|r| r.expect("every slot is answered on success"))
            .collect())
    }

    /// Re-opens the connection after `why`; on success the reconnect is
    /// counted and recorded as a span under the caller's current context.
    /// The fresh stream has not been greeted, and whatever the old stream
    /// left half-read in the receive buffer is not part of its
    /// conversation.
    fn reconnect(&mut self, why: &str) -> bool {
        match Self::open(&self.addr, self.timeout) {
            Ok(stream) => {
                self.stream = stream;
                self.greeted = false;
                self.reader = FrameReader::new();
                let tel = cg_telemetry::global();
                tel.reconnects.inc();
                tel.trace.emit_status(
                    "tcp:reconnect",
                    format!("{} after: {why}", self.addr),
                    Duration::ZERO,
                    SpanStatus::Recovered,
                );
                true
            }
            Err(_) => false,
        }
    }
}

/// The TCP [`Link`]: a remote [`crate::broker::Broker`] reached over one
/// connection.
///
/// Clones share the connection (the broker ends a connection's sessions
/// when its socket closes, so a forked environment *must* reuse the socket
/// its parent's sessions live on) and the restart generation. Checkpoints
/// live with the service, in [`crate::broker::BrokerConfig::checkpoints`],
/// which outlives connections.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<Mutex<Connection>>,
    policy: RetryPolicy,
    budget: Arc<Mutex<ResourceBudget>>,
    restarts: Arc<AtomicU64>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("policy", &self.policy)
            .finish()
    }
}

impl TcpTransport {
    /// Connects to a remote service with the default [`RetryPolicy`].
    ///
    /// # Errors
    /// Propagates connection failures as [`CgError::ServiceFailure`].
    pub fn connect(addr: &str, timeout: Duration) -> Result<TcpTransport, CgError> {
        Self::connect_with_policy(addr, timeout, RetryPolicy::default())
    }

    /// Connects with an explicit recovery policy.
    ///
    /// # Errors
    /// Propagates connection failures as [`CgError::ServiceFailure`].
    pub fn connect_with_policy(
        addr: &str,
        timeout: Duration,
        policy: RetryPolicy,
    ) -> Result<TcpTransport, CgError> {
        let connection = Connection {
            stream: Connection::open(addr, timeout)?,
            addr: addr.to_string(),
            timeout,
            tenant: None,
            greeted: false,
            corr: 0,
            scratch: Vec::new(),
            reader: FrameReader::new(),
        };
        Ok(TcpTransport {
            inner: Arc::new(Mutex::new(connection)),
            policy,
            budget: Arc::new(Mutex::new(ResourceBudget::default())),
            restarts: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Sets the tenant identity stamped into every request frame on the
    /// shared connection, under which the broker queues, schedules, and
    /// quota-bills its work.
    pub fn set_tenant(&self, tenant: &str) {
        self.inner.lock().tenant = Some(tenant.to_string());
    }

    /// Issues one request over the socket — a single attempt, recorded as an
    /// `rpc:{kind}` span whose context rides the frame to the server, so the
    /// remote `service:{kind}` dispatch span parents under it.
    ///
    /// # Errors
    /// See [`Link::call`].
    pub fn call(&self, req: Request) -> Result<Response, CgError> {
        traced(format!("rpc:{}", req.kind()), || {
            self.inner.lock().call_once(&req, true)
        })
    }

    /// Issues a batch of requests with the whole window in flight on the
    /// socket before the first reply is awaited — one attempt. Typed
    /// per-request errors are returned in their slots as raw [`Response`]
    /// values, so one failed step does not discard its siblings' results.
    ///
    /// # Errors
    /// [`CgError::ServiceFailure`] when the transport fails: the whole
    /// window fails with it.
    pub fn call_pipelined(&self, reqs: &[Request]) -> Result<Vec<Response>, CgError> {
        traced(format!("rpc:pipeline:{}", reqs.len()), || {
            self.inner.lock().call_pipelined(reqs)
        })
    }
}

impl Link for TcpTransport {
    fn call(&self, req: Request) -> Result<Response, CgError> {
        TcpTransport::call(self, req)
    }

    /// The teardown rides the connection's own frames under a temporarily
    /// shortened read deadline, so a hung remote cannot stall `close()`.
    /// Its late reply, if one comes, is discarded by the next call.
    fn call_teardown(&self, req: Request) -> Result<Response, CgError> {
        traced(format!("rpc:teardown:{}", req.kind()), || {
            let mut conn = self.inner.lock();
            let deadline = self.policy.teardown_deadline.min(conn.timeout);
            let _ = conn.stream.set_read_timeout(Some(deadline));
            let result = conn.call_once(&req, false);
            let _ = conn.stream.set_read_timeout(Some(conn.timeout));
            result
        })
    }

    /// Drops the (possibly wedged) connection and opens a fresh one; the
    /// broker ends the sessions the old connection held.
    fn restart(&self) {
        let reconnected = self.inner.lock().reconnect("transport restart");
        let generation = self.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        record_restart(format!(
            "tcp generation {generation}, reconnected={reconnected}"
        ));
    }

    fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    fn resource_budget(&self) -> ResourceBudget {
        self.budget.lock().clone()
    }

    /// A remote worker survives reconnects, so the remembered budget only
    /// matters for reporting.
    fn set_resource_budget(&self, budget: ResourceBudget) -> Result<(), CgError> {
        *self.budget.lock() = budget.clone();
        self.call(Request::Configure { budget }).map(|_| ())
    }

    fn clone_link(&self) -> Box<dyn Link> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use crate::chaos::{FaultKind, FaultPlan};
    use crate::session::ActionOutcome;
    use crate::space::{ActionSpaceInfo, ObservationSpaceInfo, RewardSpaceInfo};
    use std::net::TcpListener;

    /// A writer that takes at most `cap` bytes per call, exercising the
    /// partial-write continuation of the vectored [`write_frame`].
    struct DribbleWriter {
        cap: usize,
        data: Vec<u8>,
    }

    impl std::io::Write for DribbleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Framing regression: the single-writev frame must be byte-identical
    /// to the old prefix-then-payload encoding, for empty, tiny and
    /// megabyte payloads, even when the writer accepts 1–7 bytes at a time.
    #[test]
    fn vectored_frames_encode_identically_under_partial_writes() {
        let payloads: Vec<Vec<u8>> = vec![
            vec![],
            vec![0xAB],
            b"abc".to_vec(),
            (0..1_000_003u32).map(|i| i as u8).collect(),
        ];
        for payload in &payloads {
            for cap in [1usize, 3, 7, 4096, usize::MAX] {
                let mut w = DribbleWriter {
                    cap,
                    data: Vec::new(),
                };
                write_frame(&mut w, payload).unwrap();
                let mut expect = (payload.len() as u32).to_le_bytes().to_vec();
                expect.extend_from_slice(payload);
                assert_eq!(w.data, expect, "cap={cap} len={}", payload.len());
            }
        }
    }

    /// A minimal well-behaved session counting its applies. All misbehaviour
    /// in these tests is injected around it by [`crate::chaos`].
    struct CountingSession {
        steps: usize,
    }

    impl CompilationSession for CountingSession {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            vec![ActionSpaceInfo {
                name: "count".into(),
                actions: vec!["a".into(); 8],
            }]
        }
        fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
            vec![]
        }
        fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
            vec![]
        }
        fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
            Ok(())
        }
        fn apply_action(&mut self, _action: usize) -> Result<ActionOutcome, String> {
            self.steps += 1;
            Ok(ActionOutcome {
                end_of_episode: false,
                action_space_changed: false,
                changed: true,
            })
        }
        fn observe(&mut self, _s: &str) -> Result<Observation, String> {
            Ok(Observation::Scalar(self.steps as f64))
        }
        fn fork(&self) -> Box<dyn CompilationSession> {
            Box::new(CountingSession { steps: self.steps })
        }
        fn snapshot(&self) -> Option<SessionSnapshot> {
            let bytes = (self.steps as u64).to_le_bytes().to_vec();
            Some(SessionSnapshot::from_bytes(bytes))
        }
        fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
            let bytes: [u8; 8] = snapshot.to_bytes().try_into().map_err(|_| "bad snapshot")?;
            self.steps = u64::from_le_bytes(bytes) as usize;
            Ok(())
        }
        fn state_size(&self) -> Option<u64> {
            Some(self.steps as u64 * 10)
        }
    }

    fn counting_factory() -> SessionFactory {
        Arc::new(|| Box::new(CountingSession { steps: 0 }))
    }

    /// The last clone to go takes its service with it: once `drop` returns
    /// the sessions are freed, whichever clone went last.
    #[test]
    fn dropping_the_last_clone_frees_the_session() {
        struct Tracked(CountingSession, Arc<AtomicU64>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl CompilationSession for Tracked {
            fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
                self.0.action_spaces()
            }
            fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
                self.0.observation_spaces()
            }
            fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
                self.0.reward_spaces()
            }
            fn init(&mut self, b: &str, s: usize) -> Result<(), String> {
                self.0.init(b, s)
            }
            fn apply_action(&mut self, a: usize) -> Result<ActionOutcome, String> {
                self.0.apply_action(a)
            }
            fn observe(&mut self, s: &str) -> Result<Observation, String> {
                self.0.observe(s)
            }
            fn fork(&self) -> Box<dyn CompilationSession> {
                unimplemented!("not forked in this test")
            }
        }
        let dropped = Arc::new(AtomicU64::new(0));
        let factory: SessionFactory = {
            let dropped = Arc::clone(&dropped);
            Arc::new(move || Box::new(Tracked(CountingSession { steps: 0 }, Arc::clone(&dropped))))
        };
        let client = InlineLink::new(factory);
        let clone = client.clone();
        start(&client);
        drop(client);
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "a clone keeps it alive");
        drop(clone);
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            1,
            "the session went with it"
        );
    }

    fn start_request() -> Request {
        Request::StartSession {
            benchmark: "x".into(),
            action_space: 0,
        }
    }

    /// The session id a `StartSession` call answered with.
    fn started(reply: Result<Response, CgError>) -> u64 {
        match reply.unwrap() {
            Response::SessionStarted { session_id } => session_id,
            r => panic!("{r:?}"),
        }
    }

    fn start(client: &InlineLink) -> u64 {
        started(client.call(start_request()))
    }

    #[test]
    fn panicking_session_is_isolated() {
        let (factory, _) = FaultPlan::seeded(1)
            .schedule(2, FaultKind::Panic)
            .wrap(counting_factory());
        let client = InlineLink::new(factory);
        let sid = start(&client);
        // Normal steps work (applies 0 and 1).
        let r = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0, 1],
                observation_spaces: vec![],
            })
            .unwrap();
        assert!(matches!(r, Response::Stepped { .. }));
        // The crashing apply destroys the session, not the service.
        let e = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![3],
                observation_spaces: vec![],
            })
            .unwrap_err();
        assert!(matches!(e, CgError::SessionLost(_)));
        // The service is still alive for new sessions.
        assert!(matches!(
            client.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        let sid2 = start(&client);
        assert_ne!(sid, sid2);
    }

    #[test]
    fn injected_backend_error_is_a_session_error() {
        let (factory, stats) = FaultPlan::seeded(1)
            .schedule(0, FaultKind::Error)
            .wrap(counting_factory());
        let client = InlineLink::new(factory);
        let sid = start(&client);
        let e = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0],
                observation_spaces: vec![],
            })
            .unwrap_err();
        // Backend errors are legitimate results, never retried or recovered.
        assert!(matches!(e, CgError::Session(_)));
        assert_eq!(stats.errors(), 1);
    }

    #[test]
    fn teardown_deadline_bounds_end_session_against_a_hung_service() {
        // The teardown rides the connection's own frames under the
        // shortened read deadline.
        let (factory, _) = FaultPlan::seeded(3)
            .schedule(0, FaultKind::Hang)
            .with_hang_duration(Duration::from_millis(400))
            .wrap(counting_factory());
        let broker = Broker::new(factory, BrokerConfig::default());
        let addr = serve(&broker);
        let transport = TcpTransport::connect_with_policy(
            &addr,
            Duration::from_secs(30),
            RetryPolicy::default().with_teardown_deadline(Duration::from_millis(50)),
        )
        .unwrap();
        let sid = started(transport.call(start_request()));
        // Wedge the session's worker without waiting on the reply.
        let _wedged = broker.submit(
            crate::broker::ANONYMOUS_TENANT,
            Request::Step {
                session_id: sid,
                actions: vec![0],
                observation_spaces: vec![],
            },
            None,
        );
        let timeouts_before = cg_telemetry::global().timeouts.get();
        let t = std::time::Instant::now();
        let e = transport
            .call_teardown(Request::EndSession { session_id: sid })
            .unwrap_err();
        assert!(matches!(e, CgError::ServiceFailure(_)), "{e:?}");
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "teardown must not block for the full 30s call timeout, took {:?}",
            t.elapsed()
        );
        assert_eq!(cg_telemetry::global().timeouts.get(), timeouts_before);
        // Another worker answers at once, on the same connection; once the
        // wedged worker lets go, the teardown's late reply reaches the
        // socket and the next call discards it instead of taking it for
        // its own.
        let ping = || matches!(transport.call(Request::Ping), Ok(Response::Pong));
        assert!(ping());
        std::thread::sleep(Duration::from_millis(600));
        assert!(ping());
        assert_eq!(transport.restarts(), 0, "no reconnect was needed");
    }

    #[test]
    fn fork_duplicates_state() {
        let client = InlineLink::new(counting_factory());
        let sid = start(&client);
        client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0, 0],
                observation_spaces: vec![],
            })
            .unwrap();
        let forked = match client.call(Request::Fork { session_id: sid }).unwrap() {
            Response::Forked { session_id } => session_id,
            r => panic!("{r:?}"),
        };
        let obs = |sid| match client
            .call(Request::Step {
                session_id: sid,
                actions: vec![],
                observation_spaces: vec!["steps".into()],
            })
            .unwrap()
        {
            Response::Stepped { observations, .. } => observations[0].as_scalar().unwrap(),
            r => panic!("{r:?}"),
        };
        assert_eq!(obs(sid), obs(forked));
    }

    #[test]
    fn wall_budget_kills_in_band_without_restart() {
        // A 2s hang against a 100ms wall budget: the worker must answer a
        // typed budget error well within 2x the budget — no client-side
        // timeout, no service restart.
        let (factory, _) = FaultPlan::seeded(4)
            .schedule(0, FaultKind::Hang)
            .with_hang_duration(Duration::from_secs(2))
            .wrap(counting_factory());
        let client = InlineLink::new(factory);
        client
            .set_resource_budget(ResourceBudget::default().with_wall(Duration::from_millis(100)))
            .unwrap();
        let sid = start(&client);
        let kills_before = cg_telemetry::global().budget_kills.get();
        let t = std::time::Instant::now();
        let e = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0],
                observation_spaces: vec![],
            })
            .unwrap_err();
        let elapsed = t.elapsed();
        match e {
            CgError::BudgetExceeded(v) => assert_eq!(v.kind, crate::budget::BudgetKind::Wall),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_millis(1000),
            "typed error must arrive promptly, took {elapsed:?}"
        );
        assert_eq!(
            client.restarts(),
            0,
            "budget kill must not restart the service"
        );
        assert!(cg_telemetry::global().budget_kills.get() > kills_before);
        // The service survives and serves new sessions immediately.
        assert!(matches!(
            client.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        let sid2 = start(&client);
        assert_ne!(sid, sid2);
    }

    #[test]
    fn growth_budget_kills_in_band() {
        // CountingSession reports size = steps * 10; cap at 25 so the third
        // apply (size 30) trips the growth check mid-batch.
        let client = InlineLink::new(counting_factory());
        client
            .set_resource_budget(ResourceBudget::default().with_max_state_size(25))
            .unwrap();
        let sid = start(&client);
        let e = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0, 0, 0, 0, 0],
                observation_spaces: vec![],
            })
            .unwrap_err();
        match e {
            CgError::BudgetExceeded(v) => {
                assert_eq!(v.kind, crate::budget::BudgetKind::Growth);
                assert_eq!(v.limit, 25);
                assert_eq!(v.observed, 30);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The session was destroyed — its id is answered as lost, which
        // recovery replays — and the service survives.
        let e = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![],
                observation_spaces: vec![],
            })
            .unwrap_err();
        assert!(matches!(e, CgError::SessionLost(_)), "{e:?}");
        assert_eq!(client.restarts(), 0);
    }

    #[test]
    fn worker_checkpoints_every_k_actions_and_restores() {
        let client = InlineLink::new(counting_factory());
        let sid = start(&client);
        for _ in 0..25 {
            client
                .call(Request::Step {
                    session_id: sid,
                    actions: vec![0],
                    observation_spaces: vec![],
                })
                .unwrap();
        }
        // Default interval K=10: snapshots at depths 10 and 20.
        let store = client.checkpoint_store();
        assert_eq!(store.checkpoints_taken(), 2);
        let ck = store.latest_matching("x", 0, &[0; 25]).unwrap();
        assert_eq!(ck.depth(), 20);
        // Restore into a fresh session and confirm the state came back.
        let restored = match client
            .call(Request::RestoreSession {
                benchmark: ck.benchmark,
                action_space: ck.action_space,
                actions: ck.actions,
                state: ck.state,
            })
            .unwrap()
        {
            Response::SessionStarted { session_id } => session_id,
            r => panic!("{r:?}"),
        };
        let r = client
            .call(Request::Step {
                session_id: restored,
                actions: vec![],
                observation_spaces: vec!["steps".into()],
            })
            .unwrap();
        match r {
            Response::Stepped { observations, .. } => {
                assert_eq!(observations[0].as_scalar(), Some(20.0));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn checkpoint_store_survives_restart() {
        let client = InlineLink::new(counting_factory());
        let sid = start(&client);
        client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0; 10],
                observation_spaces: vec![],
            })
            .unwrap();
        assert_eq!(client.checkpoint_store().len(), 1);
        client.restart();
        // The ring outlives the worker: worker death does not empty it, and the
        // fresh worker keeps writing into the same ring.
        assert_eq!(client.checkpoint_store().len(), 1);
        let sid2 = start(&client);
        client
            .call(Request::Step {
                session_id: sid2,
                actions: vec![0; 10],
                observation_spaces: vec![],
            })
            .unwrap();
        assert_eq!(client.checkpoint_store().len(), 2);
    }

    #[test]
    fn resume_restores_the_deepest_checkpoint_or_starts_fresh() {
        let client = InlineLink::new(counting_factory());
        let sid = start(&client);
        client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0; 25],
                observation_spaces: vec![],
            })
            .unwrap();
        let resume = |benchmark: &str| match client
            .call(Request::Resume {
                benchmark: benchmark.into(),
                action_space: 0,
                actions: vec![0; 27],
            })
            .unwrap()
        {
            Response::Resumed { session_id, depth } => (session_id, depth),
            r => panic!("{r:?}"),
        };
        let steps = |session_id| match client
            .call(Request::Step {
                session_id,
                actions: vec![],
                observation_spaces: vec!["steps".into()],
            })
            .unwrap()
        {
            Response::Stepped { observations, .. } => observations[0].as_scalar(),
            r => panic!("{r:?}"),
        };
        // The batch crossed K = 10 once: the snapshot at depth 25.
        let (restored, depth) = resume("x");
        assert_eq!((depth, steps(restored)), (25, Some(25.0)));
        let (fresh, depth) = resume("another benchmark");
        assert_eq!((depth, steps(fresh)), (0, Some(0.0)));
    }

    /// Each worker generation numbers its sessions apart, so an id from a
    /// replaced worker is answered as lost rather than landing on whichever
    /// session holds that number now.
    #[test]
    fn restarted_worker_never_reuses_a_session_id() {
        let client = InlineLink::new(counting_factory());
        let stale = start(&client);
        client.restart();
        let fresh = start(&client);
        assert_ne!(stale, fresh);
        let e = client
            .call(Request::Step {
                session_id: stale,
                actions: vec![0],
                observation_spaces: vec![],
            })
            .unwrap_err();
        assert!(matches!(e, CgError::SessionLost(_)), "{e:?}");
    }

    /// Serves `broker` on a fresh loopback port from a detached thread. A
    /// `Shutdown` request drains it and ends the thread.
    fn serve(broker: &Broker) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let broker = broker.clone();
        std::thread::spawn(move || broker.serve(listener));
        addr
    }

    fn serve_default(factory: SessionFactory) -> String {
        serve(&Broker::new(factory, BrokerConfig::default()))
    }

    #[test]
    fn tcp_round_trip() {
        let addr = serve_default(counting_factory());
        let client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(matches!(
            client.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        let sid = started(client.call(start_request()));
        let r = client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0],
                observation_spaces: vec!["steps".into()],
            })
            .unwrap();
        match r {
            Response::Stepped { observations, .. } => {
                assert_eq!(observations[0].as_scalar(), Some(1.0));
            }
            r => panic!("{r:?}"),
        }
        let _ = client.call(Request::Shutdown);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // A header claiming a 1 GiB frame, no body. Hold the connection
            // open so the reader fails on the size check, not on EOF.
            conn.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        let err = FrameReader::new().read(&mut stream).unwrap_err();
        assert!(err.to_string().contains("frame too large"), "{err}");
        t.join().unwrap();
    }

    #[test]
    fn truncated_frame_fails_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Promise 64 bytes, deliver 3, then drop the connection.
            conn.write_all(&64u32.to_le_bytes()).unwrap();
            conn.write_all(b"abc").unwrap();
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        let err = FrameReader::new().read(&mut stream).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        t.join().unwrap();
    }

    #[test]
    fn tcp_connection_panic_does_not_kill_the_server() {
        /// A session whose *space description* panics: `GetSpaces` probes the
        /// factory outside the per-session `catch_unwind`, so this panics the
        /// dispatch layer itself — the hole the broker worker's own
        /// containment covers.
        struct PoisonedSpaces;
        impl CompilationSession for PoisonedSpaces {
            fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
                panic!("chaos: poisoned space description")
            }
            fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
                vec![]
            }
            fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
                vec![]
            }
            fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
                Ok(())
            }
            fn apply_action(&mut self, _a: usize) -> Result<ActionOutcome, String> {
                Ok(ActionOutcome {
                    end_of_episode: false,
                    action_space_changed: false,
                    changed: false,
                })
            }
            fn observe(&mut self, _s: &str) -> Result<Observation, String> {
                Ok(Observation::Scalar(0.0))
            }
            fn fork(&self) -> Box<dyn CompilationSession> {
                Box::new(PoisonedSpaces)
            }
        }
        let addr = serve_default(Arc::new(|| Box::new(PoisonedSpaces)));
        let no_retry = RetryPolicy::default().with_max_attempts(1);
        let poisoned =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), no_retry.clone())
                .unwrap();
        assert!(matches!(
            poisoned.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        // The dispatch panics and is answered typed, in band...
        let e = poisoned.call(Request::GetSpaces).unwrap_err();
        assert!(matches!(e, CgError::SessionLost(_)), "{e:?}");
        // ...and neither the worker nor the accept loop died with it: this
        // connection and a fresh one are both still served.
        assert!(matches!(
            poisoned.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        let fresh =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), no_retry).unwrap();
        assert!(matches!(fresh.call(Request::Ping).unwrap(), Response::Pong));
        let _ = fresh.call(Request::Shutdown);
    }

    #[test]
    fn tcp_reconnects_after_peer_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            // Accept and immediately drop the first connection, then serve
            // normally: the client's first call dies mid-flight and must
            // transparently reconnect under its policy.
            let (first, _) = listener.accept().unwrap();
            drop(first);
            Broker::new(counting_factory(), BrokerConfig::default()).serve(listener)
        });
        let tel = cg_telemetry::global();
        let reconnects_before = tel.reconnects.get();
        let client = TcpTransport::connect_with_policy(
            &addr,
            Duration::from_secs(5),
            RetryPolicy::default().with_max_attempts(4),
        )
        .unwrap();
        assert!(matches!(
            client.call_with_policy(Request::Ping).unwrap(),
            Response::Pong
        ));
        assert!(
            tel.reconnects.get() > reconnects_before,
            "a reconnect was recorded"
        );
        assert!(client.restarts() >= 1, "the link restart reconnected");
        let _ = client.call(Request::Shutdown);
    }

    #[test]
    fn tcp_connection_cap_refuses_in_band_and_recovers() {
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                max_connections: 1,
                ..BrokerConfig::default()
            },
        );
        let addr = serve(&broker);
        let no_retry = RetryPolicy::default().with_max_attempts(1);
        let first =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), no_retry.clone())
                .unwrap();
        assert!(matches!(first.call(Request::Ping).unwrap(), Response::Pong));
        // The admitted connection's session keeps stepping after each
        // refused connect.
        let sid = started(first.call(start_request()));
        let mut steps = 0.0;
        let mut step_established = || {
            let step = Request::Step {
                session_id: sid,
                actions: vec![0],
                observation_spaces: vec!["steps".into()],
            };
            let Ok(Response::Stepped { observations, .. }) = first.call(step) else {
                panic!("the established session must keep stepping");
            };
            steps += 1.0;
            assert_eq!(observations[0].as_scalar(), Some(steps));
        };
        step_established();

        // The second connection is over the cap. Read before writing: the
        // refusal arrives unsolicited as one typed `Overloaded` frame, so a
        // refused client never has to race its request against the close.
        let mut refused = std::net::TcpStream::connect(&addr).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = FrameReader::new();
        let frame = reader.read(&mut refused).unwrap();
        let Ok(wire::Frame::Response { corr: 0, body }) = wire::decode_frame(frame) else {
            panic!("the refusal must be a CGB1 response frame with correlation id 0");
        };
        match wire::decode_response_body(body).unwrap() {
            Response::Overloaded {
                retry_after_ms,
                reason,
            } => {
                assert!(retry_after_ms > 0, "refusal must advise a retry delay");
                assert!(reason.contains("connection cap"), "reason: {reason}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        drop(refused);
        step_established();

        // A client reads the same frame where its handshake expected the
        // `HelloAck`, and surfaces it as the typed, retryable overload.
        let turned_away =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), no_retry.clone())
                .unwrap();
        match turned_away.call(Request::Ping) {
            Err(CgError::Overloaded { retry_after_ms, .. }) => assert!(retry_after_ms > 0),
            other => panic!("expected a typed Overloaded from the handshake, got {other:?}"),
        }
        drop(turned_away);
        step_established();

        // Ending the first connection frees the slot; a later connect is
        // admitted and served (polling, since the slot is released when the
        // handler thread exits).
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let next =
                TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), no_retry.clone())
                    .unwrap();
            match next.call(Request::Ping) {
                Ok(Response::Pong) => {
                    let _ = next.call(Request::Shutdown);
                    break;
                }
                Ok(other) => panic!("unexpected ping reply: {other:?}"),
                Err(CgError::Overloaded { .. } | CgError::ServiceFailure(_))
                    if std::time::Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("cap never released: {e}"),
            }
        }
    }

    #[test]
    fn tcp_negotiates_binary_by_default() {
        let addr = serve_default(counting_factory());
        let client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(
            !client.inner.lock().greeted,
            "the handshake runs lazily, on first call"
        );
        assert!(matches!(
            client.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        assert!(client.inner.lock().greeted);
        // A full session round-trips typed payloads over the binary codec.
        let sid = started(client.call(start_request()));
        match client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0, 0, 0],
                observation_spaces: vec!["steps".into()],
            })
            .unwrap()
        {
            Response::Stepped { observations, .. } => {
                assert_eq!(observations[0].as_scalar(), Some(3.0));
            }
            r => panic!("{r:?}"),
        }
        let _ = client.call(Request::Shutdown);
    }

    /// The handshake is a magic + version check on the peer: anything but a
    /// `HelloAck` of this build's version is a typed error, never a silent
    /// downgrade and never a hang.
    #[test]
    fn handshake_rejects_anything_but_a_matching_hello_ack() {
        let mut newer = Vec::new();
        wire::encode_hello_ack(&mut newer);
        *newer.last_mut().unwrap() = wire::WIRE_VERSION + 1;
        let text_peer = br#"{"Error":"bad request frame"}"#.to_vec();
        for (reply, names) in [(newer, "version"), (text_peer, "CGB1 handshake")] {
            // A fake peer: read the `Hello`, answer `reply`, hang up.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let peer = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                let hello = FrameReader::new().read(&mut conn).unwrap().to_vec();
                assert!(matches!(
                    wire::decode_frame(&hello),
                    Ok(wire::Frame::Hello { .. })
                ));
                write_frame(&mut conn, &reply).unwrap();
            });
            let no_retry = RetryPolicy::default().with_max_attempts(1);
            let client =
                TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), no_retry).unwrap();
            match client.call(Request::Ping) {
                Err(CgError::ServiceFailure(e)) => assert!(e.contains(names), "{e}"),
                other => panic!("expected a handshake failure, got {other:?}"),
            }
            assert!(!client.inner.lock().greeted);
            peer.join().unwrap();
        }
    }

    #[test]
    fn trace_and_tenant_metadata_survive_binary_codec() {
        let addr = serve_default(counting_factory());
        let client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        client.set_tenant("metadata-tenant");
        let sentinel = cg_telemetry::TraceContext {
            trace_id: 0xC0FF_EE00_0000_0042,
            span_id: 7,
        };
        {
            let _guard = cg_telemetry::enter_context(sentinel);
            assert!(matches!(
                client.call(Request::Ping).unwrap(),
                Response::Pong
            ));
        }
        // The server-side dispatch span must have joined the client's trace:
        // the trace context rode inside the frame's metadata section.
        let joined = cg_telemetry::global()
            .trace
            .events()
            .iter()
            .any(|s| s.trace_id == sentinel.trace_id && s.span.starts_with("service:"));
        assert!(joined, "server span must carry the client's trace id");
        let _ = client.call(Request::Shutdown);
    }

    #[test]
    fn tcp_pipelined_matches_serial() {
        let addr = serve_default(counting_factory());
        let transport = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();

        // Serial reference run.
        let sid = started(transport.call(start_request()));
        let mut serial = Vec::new();
        for _ in 0..4 {
            match transport
                .call(Request::Step {
                    session_id: sid,
                    actions: vec![0],
                    observation_spaces: vec!["steps".into()],
                })
                .unwrap()
            {
                Response::Stepped { observations, .. } => {
                    serial.push(observations[0].as_scalar().unwrap())
                }
                r => panic!("{r:?}"),
            }
        }

        // Pipelined run on a fresh session: same actions, one wire window.
        let sid2 = started(transport.call(start_request()));
        let reqs: Vec<Request> = (0..4)
            .map(|_| Request::Step {
                session_id: sid2,
                actions: vec![0],
                observation_spaces: vec!["steps".into()],
            })
            .collect();
        let tel = cg_telemetry::global();
        let pipelined_before = tel.wire.pipelined_calls.get();
        let replies = transport.call_pipelined(&reqs).unwrap();
        assert!(tel.wire.pipelined_calls.get() >= pipelined_before + 4);
        let pipelined: Vec<f64> = replies
            .iter()
            .map(|r| match r {
                Response::Stepped { observations, .. } => observations[0].as_scalar().unwrap(),
                r => panic!("{r:?}"),
            })
            .collect();
        // Byte-identical step semantics: responses land in request order
        // and the counter advances exactly as in the serial run.
        assert_eq!(serial, pipelined);
        let _ = transport.call(Request::Shutdown);
    }
}
