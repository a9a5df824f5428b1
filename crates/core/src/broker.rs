//! Multi-tenant front door: the session broker (admission control,
//! per-tenant quotas, fair scheduling, backpressure, graceful drain).
//!
//! The only TCP server, and the bounded front door every tenant shares:
//! overload is answered typed rather than by hangs, and a drain parks live
//! episodes. `workers` threads each own one `ServiceState` (sessions are
//! sharded, never shared); a session's global id is `local * workers +
//! worker`. Every admission, fairness and drain decision is made by the
//! sans-IO `core` state machine (DESIGN.md §12). This file is its shell:
//! the one clock, the threads and their wake-ups, and the sockets. Nothing
//! polls: a worker waits until the core names it, a drainer until the
//! queues empty or its grace ends, and `serve` in a blocking accept that a
//! finished drain wakes with one connect. A connection has a reader thread
//! and its socket's one writer thread; a worker hands that writer a reply
//! without blocking, so a client that stops reading stalls no one else.
//! Decisions show as the `broker:{admit,queue,shed,drain}` spans and
//! `cg_broker_*` metrics.

mod core;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cg_telemetry::{SpanStatus, TraceContext};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};

use self::core::{BrokerCore, Refusal, Rung, Shed};
use crate::budget::ResourceBudget;
use crate::checkpoint::CheckpointStore;
use crate::service::{
    account_rx, account_tx, write_frame, FrameReader, Request, Response, ServiceState,
    SessionFactory, PASS_THREAD_STACK,
};
use crate::wire;

/// Tenant a request is billed to when its client never identified itself
/// ([`crate::service::TcpTransport`]s without `set_tenant`).
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// Per-tenant limits. One quota applies uniformly to every tenant — the
/// broker isolates tenants from each other, it does not rank them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Concurrent sessions (and creation reservations) per tenant; `0` =
    /// unlimited.
    pub max_sessions: usize,
    /// Sustained actions/second per tenant, a token bucket; `0.0` = unlimited.
    pub actions_per_sec: f64,
    /// Token-bucket capacity: the burst of actions spent before the rate gates.
    pub burst: f64,
}

impl Default for TenantQuota {
    /// 8 concurrent sessions, unlimited action rate, burst of 64 actions.
    fn default() -> TenantQuota {
        TenantQuota {
            max_sessions: 8,
            actions_per_sec: 0.0,
            burst: 64.0,
        }
    }
}

/// Broker sizing and overload policy.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Worker threads (each owning one shard of the sessions). Min 1.
    pub workers: usize,
    /// Global cap on concurrent sessions across all tenants.
    pub max_sessions: usize,
    /// Per-tenant cap on queued (admitted, not yet executing) requests.
    pub max_queue_depth: usize,
    /// Cap on concurrent TCP connections through [`Broker::serve`].
    pub max_connections: usize,
    /// DRR quantum: action units added to a tenant's deficit per round.
    pub quantum: u64,
    /// `retry_after_ms` advised on refusals other than the rate quota's.
    pub retry_after_ms: u64,
    /// How long [`Broker::drain`] lets queued work finish before shedding.
    pub drain_grace: Duration,
    /// The uniform per-tenant quota.
    pub quota: TenantQuota,
    /// Resource budget installed in every worker.
    pub budget: ResourceBudget,
    /// Checkpoint store shared by all workers (interval snapshots, the
    /// sweep on drain) and the ring `Request::Resume` restores from.
    pub checkpoints: CheckpointStore,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            workers: 4,
            max_sessions: 512,
            max_queue_depth: 64,
            max_connections: 256,
            quantum: 8,
            retry_after_ms: 50,
            drain_grace: Duration::from_secs(5),
            quota: TenantQuota::default(),
            budget: ResourceBudget::default(),
            checkpoints: CheckpointStore::default(),
        }
    }
}

/// What [`Broker::drain`] accomplished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainReport {
    /// Live sessions parked into the checkpoint store by exiting workers.
    pub checkpointed: usize,
    /// Queued jobs refused (`Overloaded`) when the grace period expired.
    pub shed_queued: usize,
    /// Wall-clock the drain took, in milliseconds.
    pub waited_ms: u64,
}

/// The outcome of [`Broker::submit`].
pub enum Submitted {
    /// Admitted: the one reply (for a fan-out like `Configure`, its
    /// workers' replies folded) arrives on `rx` once the job is served.
    Queued {
        /// Reply channel.
        rx: Receiver<Response>,
    },
    /// Refused by the admission ladder; answer the client with
    /// [`Response::Overloaded`] carrying these fields.
    Refused {
        /// Advised minimum delay before retrying.
        retry_after_ms: u64,
        /// Which rung refused.
        reason: String,
    },
    /// Rejected with a non-overload reply (a tenant addressing another
    /// tenant's session): the client must not retry.
    Rejected(Response),
}

struct Inner {
    cfg: BrokerConfig,
    /// The one clock: the core reads time as `epoch.elapsed()`.
    epoch: Instant,
    core: Mutex<BrokerCore<Reply>>,
    /// One per worker, all under the core's mutex: a worker is woken only
    /// when the core queued work for it.
    work: Vec<Condvar>,
    /// Wakes drainers: the queues emptied, or the drain report is ready.
    idle_cv: Condvar,
    /// Where `serve` accepts: a finished drain connects to each once.
    listeners: Mutex<Vec<SocketAddr>>,
    /// The workers; each returns how many sessions it parked.
    handles: Mutex<Vec<JoinHandle<usize>>>,
}

/// Where a job's answer goes, and the trace context it runs under. The
/// copies of a fan-out share `fold`: the replies still owed, and their
/// fold so far. Only the last copy sends.
#[derive(Clone)]
struct Reply {
    to: ReplyTo,
    fold: Option<Arc<Mutex<(usize, Response)>>>,
    ctx: Option<TraceContext>,
}

#[derive(Clone)]
enum ReplyTo {
    /// An in-process caller's channel ([`Broker::call`], [`Broker::submit`]).
    Caller(Sender<Response>),
    /// A connection's writer, under the request's correlation id.
    Conn(Sender<Out>, u64),
}

/// What a connection's writer is handed, in the order it writes it.
enum Out {
    HelloAck,
    Reply(u64, Response),
    /// The reader is done: the writer exits once what came before is out.
    Hangup,
}

impl Reply {
    /// Hands `resp` over without blocking. A fan-out folds its replies, the
    /// first failure winning, otherwise the last reply; its last copy sends
    /// the fold. A reply nobody waits for any more is dropped.
    fn send(self, resp: Response) {
        let resp = match self.fold {
            None => resp,
            Some(fold) => {
                let (left, folded) = &mut *lock(&fold);
                if matches!(folded, Response::Ok | Response::Pong) {
                    *folded = resp;
                }
                *left -= 1;
                if *left > 0 {
                    return;
                }
                std::mem::replace(folded, Response::Ok)
            }
        };
        match self.to {
            ReplyTo::Caller(tx) => drop(tx.send(resp)),
            ReplyTo::Conn(out, corr) => {
                cg_telemetry::global().wire.in_flight.dec();
                drop(out.send(Out::Reply(corr, resp)));
            }
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn wake(&self, workers: impl IntoIterator<Item = usize>) {
        for w in workers {
            self.work[w].notify_one();
        }
    }
}

/// The session broker. Cheap to clone (all clones share one fleet); see
/// the module docs for the model. [`Broker::drain`] ends the fleet —
/// afterwards every submission is refused.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<Inner>,
}

impl Broker {
    /// Builds the broker and starts its worker fleet.
    pub fn new(factory: SessionFactory, cfg: BrokerConfig) -> Broker {
        let workers = cfg.workers.max(1);
        let cfg = BrokerConfig { workers, ..cfg };
        let inner = Arc::new(Inner {
            epoch: Instant::now(),
            core: Mutex::new(BrokerCore::new(cfg.clone())),
            work: (0..workers).map(|_| Condvar::new()).collect(),
            idle_cv: Condvar::new(),
            listeners: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            cfg,
        });
        *lock(&inner.handles) = (0..workers)
            .map(|index| {
                let (inner, factory) = (Arc::clone(&inner), Arc::clone(&factory));
                std::thread::Builder::new()
                    .name(format!("cg-broker-{index}"))
                    .stack_size(PASS_THREAD_STACK)
                    .spawn(move || worker_loop(&inner, index, factory))
                    .expect("spawn broker worker")
            })
            .collect();
        Broker { inner }
    }

    /// Live sessions plus in-flight creation reservations.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        lock(&self.inner.core).live_sessions()
    }

    /// Whether a drain completed (fleet stopped, report available).
    fn is_finished(&self) -> bool {
        lock(&self.inner.core).report().is_some()
    }

    /// Stops admitting session-creating work; established sessions keep
    /// being served. Idempotent; [`Broker::drain`] completes the shutdown.
    fn begin_drain(&self) {
        if lock(&self.inner.core).begin_drain() {
            let tel = cg_telemetry::global();
            tel.broker.drains.inc();
            let detail = "admissions closed to new sessions; draining";
            tel.trace.emit("broker:drain", detail, Duration::ZERO);
        }
    }

    /// Runs the admission ladder and, if the request survives it, queues
    /// the work on its owning worker. See [`Submitted`] for the outcomes.
    pub fn submit(&self, tenant: &str, req: Request, ctx: Option<TraceContext>) -> Submitted {
        let (tx, rx) = bounded(1);
        match self.submit_from(None, tenant, req, ReplyTo::Caller(tx), ctx) {
            Ok(()) => Submitted::Queued { rx },
            Err(Response::Overloaded {
                retry_after_ms,
                reason,
            }) => Submitted::Refused {
                retry_after_ms,
                reason,
            },
            Err(resp) => Submitted::Rejected(resp),
        }
    }

    /// [`Broker::submit`] on behalf of TCP connection `conn`, which will
    /// own any session the request creates, with the answer bound for
    /// `to`; or the in-band answer to a refused request.
    fn submit_from(
        &self,
        conn: Option<u64>,
        tenant: &str,
        req: Request,
        to: ReplyTo,
        ctx: Option<TraceContext>,
    ) -> Result<(), Response> {
        let (kind, classes) = (req.kind(), req.classes());
        let workers = self.inner.cfg.workers;
        let fold = (classes.fanout).then(|| Arc::new(Mutex::new((workers, Response::Ok))));
        let reply = Reply { to, fold, ctx };
        let now = self.inner.now();
        let admitted = lock(&self.inner.core).submit(now, conn, tenant, req, reply);
        let queued = admitted.map_err(refused)?;
        self.inner.wake(queued.wake);
        queued.evicted.into_iter().for_each(answer);
        if classes.creates {
            let tel = cg_telemetry::global();
            tel.broker.admitted.inc();
            let detail = format!("tenant {tenant}: {kind} admitted");
            tel.trace.emit("broker:admit", detail, Duration::ZERO);
        }
        Ok(())
    }

    /// Submits under the caller's current trace context and blocks for the
    /// reply — the in-process client surface.
    pub fn call(&self, tenant: &str, req: Request) -> Response {
        let ((tx, rx), ctx) = (bounded(1), cg_telemetry::current_context());
        let lost = |_| Response::Error("broker worker unavailable".to_string());
        match self.submit_from(None, tenant, req, ReplyTo::Caller(tx), ctx) {
            Ok(()) => rx.recv().unwrap_or_else(lost),
            Err(resp) => resp,
        }
    }

    /// Drains the broker: stops admitting new sessions, gives queued work
    /// `grace` to finish, sheds the rest, then stops the fleet, whose
    /// workers park their live sessions. Concurrent callers share one report.
    pub fn drain(&self, grace: Duration) -> DrainReport {
        let (inner, started) = (&self.inner, self.inner.now());
        self.begin_drain();
        let mut core = lock(&inner.core);
        if !core.claim_drain(started + grace) {
            // Another caller owns the drain; wait for its report.
            let done = inner.idle_cv.wait_while(core, |c| c.report().is_none());
            let core = done.unwrap_or_else(PoisonError::into_inner);
            return core.report().cloned().expect("report set");
        }
        while let Some(left) = core.drain_wait(inner.now()) {
            let waited = inner.idle_cv.wait_timeout(core, left);
            core = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
        let expired = core.stop();
        drop(core);
        let shed_queued = expired.len();
        expired.into_iter().for_each(answer);
        inner.wake(0..inner.cfg.workers);
        let handles = std::mem::take(&mut *lock(&inner.handles));
        let checkpointed = handles.into_iter().map(|h| h.join().unwrap_or(0)).sum();
        let waited = inner.now().saturating_sub(started);
        let report = DrainReport {
            checkpointed,
            shed_queued,
            waited_ms: waited.as_millis() as u64,
        };
        lock(&inner.core).finish(report.clone());
        inner.idle_cv.notify_all();
        for addr in lock(&inner.listeners).iter() {
            let _ = TcpStream::connect(addr);
        }
        let (parked, shed) = (report.checkpointed, report.shed_queued);
        let detail = format!("drained: {parked} sessions checkpointed, {shed} queued jobs shed");
        let trace = &cg_telemetry::global().trace;
        trace.emit("broker:drain", detail, waited);
        report
    }

    /// Serves the broker over TCP, a reader and a writer thread per
    /// connection up to [`BrokerConfig::max_connections`] (an excess connect
    /// gets one `Overloaded` frame). Returns once a drain completes.
    ///
    /// # Errors
    /// Propagates listener configuration failures.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(false)?;
        lock(&self.inner.listeners).push(listener.local_addr()?);
        while !self.is_finished() {
            match listener.accept() {
                Ok(_) if self.is_finished() => {}
                Ok((stream, _)) => self.accept_connection(stream),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Out of descriptors or similar: back off, then retry.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        Ok(())
    }

    fn accept_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let (out, outs) = unbounded();
        let conn = lock(&self.inner.core).open_conn();
        let conn = match conn {
            Ok(conn) => conn,
            Err(refusal) => {
                // Written by the accept thread before the client has spoken:
                // its handshake reads this frame where it expected `HelloAck`.
                let _ = out.send(Out::Reply(0, refused(refusal)));
                drop(out);
                return write_loop(stream, &outs);
            }
        };
        let writer = stream.try_clone().and_then(|socket| {
            let thread = std::thread::Builder::new().name("cg-broker-write".to_string());
            thread.spawn(move || write_loop(socket, &outs))
        });
        let broker = self.clone();
        let handler = move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                handle_connection(&broker, conn, stream, &out);
            }));
            let _ = out.send(Out::Hangup);
            broker.close(conn);
            if outcome.is_err() {
                let tel = cg_telemetry::global();
                tel.panics.inc();
                let detail = "broker connection handler panicked; connection dropped";
                tel.trace.emit("service:panic", detail, Duration::ZERO);
            }
        };
        let reader = std::thread::Builder::new().name("cg-broker-conn".to_string());
        if writer.is_err() || reader.spawn(handler).is_err() {
            self.close(conn);
        }
    }

    /// Closes the books on TCP connection `conn`: the core ends the
    /// sessions it left live.
    fn close(&self, conn: u64) {
        let now = self.inner.now();
        let wake = lock(&self.inner.core).close_conn(conn, now);
        self.inner.wake(wake);
    }
}

/// Sends a shed job the refusal it is owed.
fn answer((reply, refusal): Shed<Reply>) {
    let resp = refused(refusal);
    if let Some(reply) = reply {
        reply.send(resp);
    }
}

/// Counts and traces a refusal by its rung and turns it into the in-band
/// answer. A queue-pressure refusal is itself the shed.
fn refused(refusal: Refusal) -> Response {
    let (tel, reason) = (cg_telemetry::global(), refusal.reason);
    let (span, counters) = match refusal.rung {
        Rung::Rejected => return Response::Error(reason),
        Rung::Shed => ("broker:shed", vec![&tel.broker.shed]),
        Rung::Closed => ("broker:admit", vec![&tel.broker.refused]),
        Rung::Quota => (
            "broker:admit",
            vec![&tel.broker.refused, &tel.broker.quota_refusals],
        ),
    };
    counters.iter().for_each(|c| c.inc());
    (tel.trace).emit_status(span, reason.clone(), Duration::ZERO, SpanStatus::Error);
    let retry_after_ms = refusal.retry_after_ms;
    Response::Overloaded {
        retry_after_ms,
        reason,
    }
}

/// A connection's one writer: encodes what it is handed into one reused
/// buffer and writes it, until the reader hangs up or the channel closes.
/// A failed write shuts the socket down, ending the reader's blocking read.
fn write_loop(mut socket: TcpStream, outs: &Receiver<Out>) {
    let mut buf = Vec::new();
    for out in outs.iter() {
        match out {
            Out::HelloAck => wire::encode_hello_ack(&mut buf),
            Out::Reply(corr, resp) => wire::encode_response_frame(&mut buf, corr, &resp),
            Out::Hangup => return,
        }
        account_tx(buf.len());
        if write_frame(&mut socket, &buf).is_err() {
            let _ = socket.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
}

/// Routes a connection's requests through the broker under the last tenant
/// it named. Requests pipeline: workers hand each answer to the writer
/// under its correlation id, and the client demuxes. What the reader
/// answers itself (`HelloAck`, decode errors, refusals, `Shutdown`'s `Ok`)
/// it hands the writer too. A non-`CGB1` frame or a `Hello` of another
/// version gets one typed error and a close.
fn handle_connection(broker: &Broker, conn: u64, mut stream: TcpStream, out: &Sender<Out>) {
    let tel = cg_telemetry::global();
    let mut tenant = ANONYMOUS_TENANT.to_string();
    let foreign = || {
        let (magic, version) = (wire::WIRE_MAGIC, wire::WIRE_VERSION);
        let what = format!(
            "not a CGB1 peer: frames start with magic {magic:02x?} and `Hello` carries \
             protocol version {version}"
        );
        (0, what, true)
    };
    let mut reader = FrameReader::new();
    while let Ok(frame) = reader.read(&mut stream) {
        account_rx(frame.len());
        // A bad frame is answered with one typed error: (corr, what, close).
        let decoded = match wire::decode_frame(frame) {
            Ok(wire::Frame::Hello { version }) if version == wire::WIRE_VERSION => {
                tel.wire.negotiations.inc();
                if out.send(Out::HelloAck).is_ok() {
                    continue;
                }
                break;
            }
            Ok(wire::Frame::Request { corr, body }) => wire::decode_request_body(corr, body)
                .map_err(|e| (corr, format!("bad request frame: {e}"), false)),
            // A `Hello` reaching this arm carries another version.
            Ok(wire::Frame::Hello { .. }) => Err(foreign()),
            _ if wire::is_binary_frame(frame) => {
                Err((0, "unexpected frame kind".to_string(), false))
            }
            _ => Err(foreign()),
        };
        let rf = match decoded {
            Ok(rf) => rf,
            Err((corr, what, close)) => {
                tel.wire.decode_errors.inc();
                if out.send(Out::Reply(corr, Response::Error(what))).is_err() || close {
                    break;
                }
                continue;
            }
        };
        tenant = rf.tenant.unwrap_or(tenant);
        let corr = rf.corr;
        if rf.req.classes().drains {
            // The drain path: stop admissions, park live sessions, stop
            // the fleet — then acknowledge, so `cg serve --drain` blocks
            // until the server is actually safe to kill.
            let _report = broker.drain(broker.inner.cfg.drain_grace);
            let _ = out.send(Out::Reply(corr, Response::Ok));
            break;
        }
        tel.wire.in_flight.inc();
        let to = ReplyTo::Conn(out.clone(), corr);
        if let Err(resp) = broker.submit_from(Some(conn), &tenant, rf.req, to, rf.ctx) {
            tel.wire.in_flight.dec();
            if out.send(Out::Reply(corr, resp)).is_err() {
                break;
            }
        }
    }
}

/// The worker fleet body: take the jobs the core hands this worker,
/// dispatch them through the owned [`ServiceState`], let the core book the
/// outcome, and park live sessions once the broker stopped.
fn worker_loop(inner: &Inner, index: usize, factory: SessionFactory) -> usize {
    let tel = cg_telemetry::global();
    let (budget, checkpoints) = (inner.cfg.budget.clone(), inner.cfg.checkpoints.clone());
    let mut state = ServiceState::new(factory, budget, checkpoints);
    let mut core = lock(&inner.core);
    while !core.stopped() {
        let Some((job, waited, wake_drainer)) = core.pop(index, inner.now()) else {
            core = (inner.work[index].wait(core)).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        if wake_drainer {
            inner.idle_cv.notify_all();
        }
        drop(core);
        tel.broker.queue_wait.record_duration(waited);
        let (tenant, kind) = (&job.owner.tenant, job.req.kind());
        let detail = format!("tenant {tenant}: {kind} dequeued by worker {index}");
        tel.trace.emit("broker:queue", detail, waited);
        let classes = job.req.classes();
        let ctx = job.reply.as_ref().and_then(|r| r.ctx);
        let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _trace_guard = ctx.map(cg_telemetry::enter_context);
            state.handle(job.req)
        }));
        let mut resp = handled.unwrap_or_else(|_| {
            tel.panics.inc();
            Response::Fatal("broker worker panicked handling request".to_string())
        });
        let now = inner.now();
        core = lock(&inner.core);
        core.settle(index, now, job.owner, classes, job.target, &mut resp);
        if let Some(reply) = job.reply {
            reply.send(resp);
        }
    }
    drop(core);
    let live = state.session_count();
    let saved = state.checkpoint_all();
    if saved > 0 {
        tel.broker.drained_checkpoints.add(saved as u64);
        let detail = format!("worker {index} checkpointed {saved} of {live} live sessions");
        tel.trace.emit("broker:drain", detail, Duration::ZERO);
    }
    saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ActionOutcome, CompilationSession, SessionSnapshot};
    use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
    use std::sync::atomic::Ordering;

    /// A deterministic session: counts applied actions, snapshots the
    /// count, and (optionally) sleeps or spins per action to model work.
    struct TestSession {
        steps: u64,
        /// Sleep `action` milliseconds per applied action when set — lets
        /// tests hold a worker busy for a known time.
        sleep_action_ms: bool,
        /// Busy-spin this long per action (fairness tests want CPU-bound
        /// work, not timer sleeps).
        spin: Duration,
        /// Panic when applying this action (quota-release tests).
        panic_on: Option<usize>,
    }

    impl TestSession {
        fn counting() -> TestSession {
            TestSession {
                steps: 0,
                sleep_action_ms: false,
                spin: Duration::ZERO,
                panic_on: None,
            }
        }
    }

    impl CompilationSession for TestSession {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            vec![ActionSpaceInfo {
                name: "test".into(),
                actions: vec!["a".into(); 1024],
            }]
        }
        fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
            vec![]
        }
        fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
            vec![RewardSpaceInfo {
                name: "test".into(),
                metric: "test".into(),
                sign: 1.0,
                baseline: None,
                deterministic: true,
            }]
        }
        fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
            Ok(())
        }
        fn apply_action(&mut self, a: usize) -> Result<ActionOutcome, String> {
            if self.panic_on == Some(a) {
                panic!("test session told to panic on action {a}");
            }
            if self.sleep_action_ms {
                std::thread::sleep(Duration::from_millis(a as u64));
            }
            if !self.spin.is_zero() {
                let until = Instant::now() + self.spin;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            self.steps += 1;
            Ok(ActionOutcome {
                end_of_episode: false,
                action_space_changed: false,
                changed: true,
            })
        }
        /// The `big` space is about 1 MiB of text, for tests that need a
        /// reply too large to sit in socket buffers.
        fn observe(&mut self, space: &str) -> Result<Observation, String> {
            if space == "big" {
                return Ok(Observation::Text("x".repeat(1 << 20)));
            }
            Ok(Observation::Scalar(self.steps as f64))
        }
        fn fork(&self) -> Box<dyn CompilationSession> {
            Box::new(TestSession {
                steps: self.steps,
                sleep_action_ms: self.sleep_action_ms,
                spin: self.spin,
                panic_on: self.panic_on,
            })
        }
        fn snapshot(&self) -> Option<SessionSnapshot> {
            let bytes = self.steps.to_le_bytes().to_vec();
            Some(SessionSnapshot::from_bytes(bytes))
        }
        fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
            let bytes: [u8; 8] = snapshot.to_bytes().try_into().map_err(|_| "bad snapshot")?;
            self.steps = u64::from_le_bytes(bytes);
            Ok(())
        }
    }

    fn counting_factory() -> SessionFactory {
        Arc::new(|| Box::new(TestSession::counting()))
    }

    fn sleeping_factory() -> SessionFactory {
        Arc::new(|| {
            Box::new(TestSession {
                sleep_action_ms: true,
                ..TestSession::counting()
            })
        })
    }

    fn spinning_factory(spin: Duration) -> SessionFactory {
        Arc::new(move || {
            Box::new(TestSession {
                spin,
                ..TestSession::counting()
            })
        })
    }

    fn panicking_factory(action: usize) -> SessionFactory {
        Arc::new(move || {
            Box::new(TestSession {
                panic_on: Some(action),
                ..TestSession::counting()
            })
        })
    }

    fn quiet_panics() {
        // Panic messages from deliberately-killed sessions are noise; the
        // hook is process-global, so set a silent one once.
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.payload().downcast_ref::<&str>().copied().unwrap_or("");
                let owned = info.payload().downcast_ref::<String>();
                let text = owned.map(String::as_str).unwrap_or(msg);
                if !text.contains("test session told to panic") {
                    default(info);
                }
            }));
        });
    }

    fn start(broker: &Broker, tenant: &str) -> u64 {
        match broker.call(
            tenant,
            Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            },
        ) {
            Response::SessionStarted { session_id } => session_id,
            other => panic!("expected SessionStarted, got {other:?}"),
        }
    }

    fn step(broker: &Broker, tenant: &str, gid: u64, actions: Vec<usize>) -> Response {
        broker.call(
            tenant,
            Request::Step {
                session_id: gid,
                actions,
                observation_spaces: vec!["test".into()],
            },
        )
    }

    #[test]
    fn sessions_shard_across_workers_and_ids_round_trip() {
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                ..BrokerConfig::default()
            },
        );
        let gids: Vec<u64> = (0..4).map(|_| start(&broker, "alice")).collect();
        let unique: std::collections::HashSet<u64> = gids.iter().copied().collect();
        assert_eq!(
            unique.len(),
            4,
            "global session ids must be distinct: {gids:?}"
        );
        // Drive each session a different depth; the broker must route every
        // follow-up to the worker that owns the session.
        for (i, gid) in gids.iter().enumerate() {
            for _ in 0..=i {
                match step(&broker, "alice", *gid, vec![0]) {
                    Response::Stepped { .. } => {}
                    other => panic!("step failed: {other:?}"),
                }
            }
        }
        for (i, gid) in gids.iter().enumerate() {
            match step(&broker, "alice", *gid, vec![]) {
                Response::Stepped { observations, .. } => {
                    assert_eq!(observations, vec![Observation::Scalar((i + 1) as f64)]);
                }
                other => panic!("observe failed: {other:?}"),
            }
        }
        for gid in &gids {
            assert!(matches!(
                broker.call("alice", Request::EndSession { session_id: *gid }),
                Response::Ok
            ));
        }
        assert_eq!(
            broker.live_sessions(),
            0,
            "ending sessions must release quota"
        );
        broker.drain(Duration::from_secs(1));
    }

    #[test]
    fn tenant_session_quota_boundary_and_release() {
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                quota: TenantQuota {
                    max_sessions: 3,
                    ..TenantQuota::default()
                },
                ..BrokerConfig::default()
            },
        );
        let gids: Vec<u64> = (0..3).map(|_| start(&broker, "alice")).collect();
        match broker.call(
            "alice",
            Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            },
        ) {
            Response::Overloaded {
                retry_after_ms,
                reason,
            } => {
                assert!(retry_after_ms > 0, "refusals must advise a retry delay");
                assert!(reason.contains("quota"), "reason names the rung: {reason}");
            }
            other => panic!("N+1-th session must be refused typed, got {other:?}"),
        }
        // Another tenant is unaffected by alice's quota.
        let bob = start(&broker, "bob");
        assert!(matches!(
            broker.call("bob", Request::EndSession { session_id: bob }),
            Response::Ok
        ));
        // Releasing one slot re-admits.
        assert!(matches!(
            broker.call(
                "alice",
                Request::EndSession {
                    session_id: gids[0]
                }
            ),
            Response::Ok
        ));
        let replacement = start(&broker, "alice");
        assert!(matches!(
            broker.call(
                "alice",
                Request::EndSession {
                    session_id: replacement
                }
            ),
            Response::Ok
        ));
        broker.drain(Duration::from_secs(1));
    }

    #[test]
    fn quota_released_when_a_session_dies_by_panic() {
        quiet_panics();
        let broker = Broker::new(
            panicking_factory(7),
            BrokerConfig {
                workers: 1,
                quota: TenantQuota {
                    max_sessions: 1,
                    ..TenantQuota::default()
                },
                ..BrokerConfig::default()
            },
        );
        let gid = start(&broker, "alice");
        match step(&broker, "alice", gid, vec![7]) {
            Response::Fatal(_) => {}
            other => panic!("a panicking session must die fatally, got {other:?}"),
        }
        // The fatal reply must have released the quota slot.
        let next = start(&broker, "alice");
        assert_ne!(next, gid);
        broker.drain(Duration::from_secs(1));
    }

    #[test]
    fn rate_quota_refuses_with_refill_retry_after() {
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 1,
                quota: TenantQuota {
                    max_sessions: 4,
                    actions_per_sec: 1.0,
                    burst: 1.0,
                },
                ..BrokerConfig::default()
            },
        );
        let gid = start(&broker, "alice");
        assert!(matches!(
            step(&broker, "alice", gid, vec![0]),
            Response::Stepped { .. }
        ));
        match step(&broker, "alice", gid, vec![0]) {
            Response::Overloaded {
                retry_after_ms,
                reason,
            } => {
                assert!(
                    retry_after_ms >= 500,
                    "retry_after must reflect the ~1s token refill, got {retry_after_ms}ms"
                );
                assert!(reason.contains("rate quota"), "{reason}");
            }
            other => panic!("second step must hit the rate quota, got {other:?}"),
        }
        // Observation-only steps cost no tokens and stay admissible.
        assert!(matches!(
            step(&broker, "alice", gid, vec![]),
            Response::Stepped { .. }
        ));
        broker.drain(Duration::from_secs(1));
    }

    #[test]
    fn queue_pressure_sheds_newest_create_first() {
        let broker = Broker::new(
            sleeping_factory(),
            BrokerConfig {
                workers: 1,
                max_queue_depth: 2,
                ..BrokerConfig::default()
            },
        );
        let gid = start(&broker, "alice");
        // Hold the worker busy for ~200ms so subsequent submissions queue.
        let busy = match broker.submit(
            "alice",
            Request::Step {
                session_id: gid,
                actions: vec![200],
                observation_spaces: vec![],
            },
            None,
        ) {
            Submitted::Queued { rx, .. } => rx,
            _ => panic!("busy step must be admitted"),
        };
        std::thread::sleep(Duration::from_millis(50)); // worker picked it up
        let creates: Vec<Receiver<Response>> = (0..2)
            .map(|_| {
                match broker.submit(
                    "alice",
                    Request::StartSession {
                        benchmark: "b".into(),
                        action_space: 0,
                    },
                    None,
                ) {
                    Submitted::Queued { rx, .. } => rx,
                    _ => panic!("creates within queue depth must be admitted"),
                }
            })
            .collect();
        // The queue is now full. Established-session work must still get
        // through — by evicting the newest queued create.
        let established = match broker.submit(
            "alice",
            Request::Step {
                session_id: gid,
                actions: vec![0],
                observation_spaces: vec![],
            },
            None,
        ) {
            Submitted::Queued { rx, .. } => rx,
            Submitted::Refused { reason, .. } => {
                panic!("established work must be admitted under pressure: {reason}")
            }
            Submitted::Rejected(resp) => panic!("unexpected rejection: {resp:?}"),
        };
        // The newest create was shed with a typed refusal...
        match creates[1].recv_timeout(Duration::from_secs(2)) {
            Ok(Response::Overloaded { reason, .. }) => {
                assert!(reason.contains("evicted"), "{reason}")
            }
            other => panic!("newest create must be evicted, got {other:?}"),
        }
        // ...while the older create and the established step complete.
        assert!(matches!(
            creates[0].recv_timeout(Duration::from_secs(2)),
            Ok(Response::SessionStarted { .. })
        ));
        assert!(matches!(
            busy.recv_timeout(Duration::from_secs(2)),
            Ok(Response::Stepped { .. })
        ));
        assert!(matches!(
            established.recv_timeout(Duration::from_secs(2)),
            Ok(Response::Stepped { .. })
        ));
        // A *new* (non-established) request at full queue is itself shed.
        let blocker = match broker.submit(
            "alice",
            Request::Step {
                session_id: gid,
                actions: vec![200],
                observation_spaces: vec![],
            },
            None,
        ) {
            Submitted::Queued { rx, .. } => rx,
            _ => panic!("step must be admitted"),
        };
        std::thread::sleep(Duration::from_millis(50));
        let _fill: Vec<Receiver<Response>> = (0..2)
            .map(|_| {
                match broker.submit(
                    "alice",
                    Request::StartSession {
                        benchmark: "b".into(),
                        action_space: 0,
                    },
                    None,
                ) {
                    Submitted::Queued { rx, .. } => rx,
                    _ => panic!("fill creates must queue"),
                }
            })
            .collect();
        match broker.submit(
            "alice",
            Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            },
            None,
        ) {
            Submitted::Refused { reason, .. } => {
                assert!(reason.contains("queue depth"), "{reason}")
            }
            _ => panic!("a create at full queue must be refused"),
        }
        let _ = blocker.recv_timeout(Duration::from_secs(2));
        broker.drain(Duration::from_secs(2));
    }

    #[test]
    fn drr_interleaves_backlogged_tenants() {
        let broker = Broker::new(
            sleeping_factory(),
            BrokerConfig {
                workers: 1,
                quantum: 1,
                ..BrokerConfig::default()
            },
        );
        let alice = start(&broker, "alice");
        let bob = start(&broker, "bob");
        // Hold the worker busy while both tenants build a backlog.
        let busy = match broker.submit(
            "alice",
            Request::Step {
                session_id: alice,
                actions: vec![150],
                observation_spaces: vec![],
            },
            None,
        ) {
            Submitted::Queued { rx, .. } => rx,
            _ => panic!("busy step must queue"),
        };
        std::thread::sleep(Duration::from_millis(50));
        let mut pending: Vec<(&str, Receiver<Response>)> = Vec::new();
        for _ in 0..5 {
            match broker.submit(
                "alice",
                Request::Step {
                    session_id: alice,
                    actions: vec![10],
                    observation_spaces: vec![],
                },
                None,
            ) {
                Submitted::Queued { rx, .. } => pending.push(("alice", rx)),
                _ => panic!("backlog step must queue"),
            }
        }
        for _ in 0..5 {
            match broker.submit(
                "bob",
                Request::Step {
                    session_id: bob,
                    actions: vec![10],
                    observation_spaces: vec![],
                },
                None,
            ) {
                Submitted::Queued { rx, .. } => pending.push(("bob", rx)),
                _ => panic!("backlog step must queue"),
            }
        }
        assert!(matches!(
            busy.recv_timeout(Duration::from_secs(3)),
            Ok(Response::Stepped { .. })
        ));
        // Record completion order by polling all receivers.
        let mut order: Vec<&str> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut done = vec![false; pending.len()];
        while order.len() < pending.len() && Instant::now() < deadline {
            for (i, (tenant, rx)) in pending.iter().enumerate() {
                if !done[i] {
                    if let Ok(resp) = rx.try_recv() {
                        assert!(matches!(resp, Response::Stepped { .. }), "{resp:?}");
                        done[i] = true;
                        order.push(tenant);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            order.len(),
            pending.len(),
            "all backlogged steps must complete"
        );
        // DRR must interleave the two tenants: despite alice enqueueing her
        // whole backlog first, bob's first completion cannot wait for all
        // of alice's (which strict arrival-order FIFO would force).
        let bob_first = order.iter().position(|t| *t == "bob").unwrap();
        let alice_last = order.iter().rposition(|t| *t == "alice").unwrap();
        assert!(
            bob_first < alice_last,
            "DRR must interleave tenants, got completion order {order:?}"
        );
        let head: Vec<&&str> = order.iter().take(4).collect();
        assert!(
            head.iter().any(|t| **t == "bob"),
            "bob must be served within the first DRR rounds: {order:?}"
        );
        broker.drain(Duration::from_secs(2));
    }

    #[test]
    fn drain_checkpoints_live_sessions_and_refuses_afterwards() {
        let store = CheckpointStore::new(16, 1000);
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                checkpoints: store.clone(),
                ..BrokerConfig::default()
            },
        );
        let gids: Vec<u64> = (0..3).map(|_| start(&broker, "alice")).collect();
        for gid in &gids {
            assert!(matches!(
                step(&broker, "alice", *gid, vec![0, 0]),
                Response::Stepped { .. }
            ));
        }
        let report = broker.drain(Duration::from_secs(2));
        assert_eq!(
            report.checkpointed, 3,
            "every live session must be parked: {report:?}"
        );
        assert!(store.len() >= 3, "checkpoints must land in the store");
        assert!(broker.is_finished());
        match broker.call("alice", Request::Ping) {
            Response::Overloaded { reason, .. } => assert!(reason.contains("stopped"), "{reason}"),
            other => panic!("a stopped broker must refuse typed, got {other:?}"),
        }
        // Draining again is idempotent and returns the same report.
        assert_eq!(broker.drain(Duration::from_secs(1)), report);
    }

    #[test]
    fn draining_refuses_creates_but_serves_established_sessions() {
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 1,
                ..BrokerConfig::default()
            },
        );
        let gid = start(&broker, "alice");
        broker.begin_drain();
        match broker.call(
            "alice",
            Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            },
        ) {
            Response::Overloaded { reason, .. } => assert!(reason.contains("draining"), "{reason}"),
            other => panic!("creates must be refused while draining, got {other:?}"),
        }
        // Established sessions keep being served until the drain completes.
        assert!(matches!(
            step(&broker, "alice", gid, vec![0]),
            Response::Stepped { .. }
        ));
        let report = broker.drain(Duration::from_secs(1));
        assert_eq!(report.checkpointed, 1);
    }

    #[test]
    fn cross_tenant_session_access_is_rejected_not_retried() {
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                ..BrokerConfig::default()
            },
        );
        let gid = start(&broker, "alice");
        match step(&broker, "mallory", gid, vec![0]) {
            Response::Error(msg) => assert!(msg.contains("not owned"), "{msg}"),
            other => panic!("cross-tenant access must be a hard error, got {other:?}"),
        }
        // The owner is untouched.
        assert!(matches!(
            step(&broker, "alice", gid, vec![0]),
            Response::Stepped { .. }
        ));
        broker.drain(Duration::from_secs(1));
    }

    #[test]
    fn noisy_tenant_cannot_starve_victim_latency() {
        let spin = Duration::from_micros(200);
        let broker = Broker::new(
            spinning_factory(spin),
            BrokerConfig {
                workers: 2,
                quantum: 2,
                quota: TenantQuota {
                    max_sessions: 6,
                    ..TenantQuota::default()
                },
                ..BrokerConfig::default()
            },
        );
        let victim = start(&broker, "victim");
        let p99 = |lat: &mut Vec<Duration>| {
            lat.sort();
            lat[(lat.len() * 99) / 100]
        };
        // Uncontended baseline.
        let mut base: Vec<Duration> = (0..100)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(
                    step(&broker, "victim", victim, vec![0]),
                    Response::Stepped { .. }
                ));
                t0.elapsed()
            })
            .collect();
        let p99_base = p99(&mut base);
        // Noisy neighbor: four sessions hammered from four threads.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let noisy_threads: Vec<std::thread::JoinHandle<u64>> = (0..4)
            .map(|_| {
                let broker = broker.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let gid = start(&broker, "noisy");
                    let mut steps = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if matches!(
                            step(&broker, "noisy", gid, vec![0]),
                            Response::Stepped { .. }
                        ) {
                            steps += 1;
                        }
                    }
                    steps
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50)); // noise ramps up
        let mut contended: Vec<Duration> = (0..100)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(
                    step(&broker, "victim", victim, vec![0]),
                    Response::Stepped { .. }
                ));
                t0.elapsed()
            })
            .collect();
        let p99_cont = p99(&mut contended);
        stop.store(true, Ordering::Relaxed);
        let noisy_steps: u64 = noisy_threads.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(
            noisy_steps > 0,
            "the noisy tenant must actually have been served"
        );
        // Fair scheduling bounds the victim's latency under contention: a
        // generous 20x bound keeps this robust on loaded CI machines while
        // still catching a broken scheduler, where the victim would wait
        // behind the entire noisy backlog (100x+).
        let floor = Duration::from_micros(500);
        let bound = 20 * p99_base.max(floor);
        assert!(
            p99_cont <= bound,
            "victim p99 {p99_cont:?} exceeded {bound:?} (uncontended {p99_base:?})"
        );
        broker.drain(Duration::from_secs(2));
    }

    /// Binds a loopback port and serves `broker` on it from a joinable
    /// thread; a `Shutdown` request or a drain ends it.
    fn serve(broker: &Broker) -> (String, JoinHandle<std::io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let broker = broker.clone();
        (addr, std::thread::spawn(move || broker.serve(listener)))
    }

    #[test]
    fn tcp_broker_serves_tenants_and_drains_on_shutdown() {
        use crate::retry::RetryPolicy;
        use crate::service::TcpTransport;
        let store = CheckpointStore::new(16, 1000);
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                quota: TenantQuota {
                    max_sessions: 1,
                    ..TenantQuota::default()
                },
                checkpoints: store.clone(),
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        let policy = RetryPolicy::none();
        let alice =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(10), policy).unwrap();
        alice.set_tenant("alice");
        let gid = match alice
            .call(Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            })
            .unwrap()
        {
            Response::SessionStarted { session_id } => session_id,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            alice
                .call(Request::Step {
                    session_id: gid,
                    actions: vec![0],
                    observation_spaces: vec!["test".into()],
                })
                .unwrap(),
            Response::Stepped { .. }
        ));
        // The session quota refuses alice's second session as a *typed*
        // error over the wire.
        match alice.call(Request::StartSession {
            benchmark: "b".into(),
            action_space: 0,
        }) {
            Err(crate::CgError::Overloaded { retry_after_ms, .. }) => {
                assert!(retry_after_ms > 0);
            }
            other => panic!("expected typed Overloaded over TCP, got {other:?}"),
        }
        // Shutdown drains: the live session is parked before the ack.
        assert!(matches!(
            alice.call(Request::Shutdown).unwrap(),
            Response::Ok
        ));
        server.join().unwrap().unwrap();
        assert!(broker.is_finished());
        assert!(
            !store.is_empty(),
            "shutdown must checkpoint the live session"
        );
    }

    /// An environment bills the tenant its transport names: name the
    /// [`TcpTransport`](crate::service::TcpTransport) and build the env over
    /// it with `CompilerEnv::with_link`. With a quota of one session each,
    /// tenant A's second environment is refused typed while tenant B's
    /// first is admitted.
    #[test]
    fn environments_are_billed_to_their_transports_tenant() {
        use crate::env::CompilerEnv;
        use crate::retry::RetryPolicy;
        use crate::service::TcpTransport;
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                quota: TenantQuota {
                    max_sessions: 1,
                    ..TenantQuota::default()
                },
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        let env_of = |tenant: &str| {
            let link = TcpTransport::connect_with_policy(
                &addr,
                Duration::from_secs(10),
                RetryPolicy::none(),
            )
            .unwrap();
            link.set_tenant(tenant);
            CompilerEnv::with_link("test-v0", Box::new(link), "b", "test", "test").unwrap()
        };
        let mut a1 = env_of("a");
        a1.reset().unwrap();
        let mut a2 = env_of("a");
        match a2.reset() {
            Err(crate::CgError::Overloaded { reason, .. }) => {
                assert!(reason.contains("tenant a"), "{reason}");
            }
            other => panic!("tenant a's second env must be refused typed, got {other:?}"),
        }
        let mut b1 = env_of("b");
        b1.reset().unwrap();
        assert_eq!(b1.step(0).unwrap().observation, Observation::Scalar(1.0));
        assert_eq!(broker.live_sessions(), 2);
        drop((a1, a2, b1));
        assert_eq!(broker.live_sessions(), 0);
        broker.drain(Duration::from_secs(1));
        server.join().unwrap().unwrap();
    }

    /// Sessions are connection-scoped over TCP: a client that drops its
    /// socket — a crash, or the recovery ladder abandoning a ghost session
    /// on reconnect — gets its sessions ended and its quota back. Ten
    /// drops against a quota of two: every create is admitted.
    #[test]
    fn dropped_connections_return_their_sessions_and_quota() {
        use crate::retry::RetryPolicy;
        use crate::service::TcpTransport;
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                quota: TenantQuota {
                    max_sessions: 2,
                    ..TenantQuota::default()
                },
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        for round in 0..10 {
            let client = TcpTransport::connect_with_policy(
                &addr,
                Duration::from_secs(10),
                RetryPolicy::none(),
            )
            .unwrap();
            client.set_tenant("crashy");
            // The sweep after the previous drop runs on the server's
            // clock; a create that beats it is refused typed, and retried.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match client.call(Request::StartSession {
                    benchmark: "b".into(),
                    action_space: 0,
                }) {
                    Ok(Response::SessionStarted { .. }) => break,
                    Err(crate::CgError::Overloaded { retry_after_ms, .. })
                        if Instant::now() < deadline =>
                    {
                        std::thread::sleep(Duration::from_millis(retry_after_ms));
                    }
                    other => panic!("round {round}: create not admitted: {other:?}"),
                }
            }
            drop(client);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.live_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            broker.live_sessions(),
            0,
            "a dropped connection's sessions must be ended"
        );
        broker.drain(Duration::from_secs(1));
        server.join().unwrap().unwrap();
    }

    /// One raw frame in, the broker's whole answer out: the decoded reply
    /// frames until the server hangs up.
    fn raw_exchange(addr: &str, frame: &[u8]) -> Vec<Response> {
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut peer, frame).unwrap();
        let mut reader = FrameReader::new();
        let mut replies = Vec::new();
        loop {
            match reader.read(&mut peer) {
                Ok(reply) => {
                    let Ok(wire::Frame::Response { corr: 0, body }) = wire::decode_frame(reply)
                    else {
                        panic!("the answer to outside input must be a CGB1 response frame");
                    };
                    replies.push(wire::decode_response_body(body).unwrap());
                }
                Err(e) => {
                    assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::UnexpectedEof,
                        "the connection must be closed, not left hanging: {e}"
                    );
                    return replies;
                }
            }
        }
    }

    fn assert_names_the_protocol(replies: &[Response]) {
        match replies {
            [Response::Error(e)] => {
                assert!(e.contains("c9"), "names the magic: {e}");
                assert!(
                    e.contains(&format!("version {}", wire::WIRE_VERSION)),
                    "names the version: {e}"
                );
            }
            other => panic!("expected exactly one typed error, got {other:?}"),
        }
    }

    #[test]
    fn non_cgb1_frame_gets_one_typed_error_and_a_close() {
        let broker = Broker::new(counting_factory(), BrokerConfig::default());
        let (addr, server) = serve(&broker);
        let errors_before = cg_telemetry::global().wire.decode_errors.get();
        // What a pre-CGB1 text client would have sent.
        assert_names_the_protocol(&raw_exchange(&addr, br#"{"StartSession":{}}"#));
        assert!(cg_telemetry::global().wire.decode_errors.get() > errors_before);
        broker.drain(Duration::from_secs(1));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn hello_of_another_version_gets_one_typed_error_and_a_close() {
        let broker = Broker::new(counting_factory(), BrokerConfig::default());
        let (addr, server) = serve(&broker);
        let errors_before = cg_telemetry::global().wire.decode_errors.get();
        let mut hello = Vec::new();
        wire::encode_hello(&mut hello);
        *hello.last_mut().unwrap() = wire::WIRE_VERSION + 1;
        assert_names_the_protocol(&raw_exchange(&addr, &hello));
        assert!(cg_telemetry::global().wire.decode_errors.get() > errors_before);
        broker.drain(Duration::from_secs(1));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn broker_pipelined_window_demuxes_by_correlation_id() {
        use crate::retry::RetryPolicy;
        use crate::service::TcpTransport;
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        let transport =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(10), RetryPolicy::none())
                .unwrap();
        let gid = match transport
            .call(Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            })
            .unwrap()
        {
            Response::SessionStarted { session_id } => session_id,
            other => panic!("{other:?}"),
        };
        // One window of steps: workers hand each answer to the
        // connection's writer as they finish, possibly out of order on the
        // wire; the client's correlation-id demux restores request order,
        // and session→worker pinning keeps the step counter strictly serial.
        let reqs: Vec<Request> = (0..6)
            .map(|_| Request::Step {
                session_id: gid,
                actions: vec![0],
                observation_spaces: vec!["test".into()],
            })
            .collect();
        let replies = transport.call_pipelined(&reqs).unwrap();
        assert_eq!(replies.len(), 6);
        for r in &replies {
            assert!(matches!(r, Response::Stepped { .. }), "{r:?}");
        }
        assert!(matches!(
            transport.call(Request::Shutdown).unwrap(),
            Response::Ok
        ));
        server.join().unwrap().unwrap();
    }

    /// A raw CGB1 client: the frames it writes and reads are exactly what
    /// crosses the socket, so a test sees a missing or stray reply.
    struct Peer {
        socket: TcpStream,
        reader: FrameReader,
        buf: Vec<u8>,
    }

    impl Peer {
        fn greet(addr: &str) -> Peer {
            let socket = TcpStream::connect(addr).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut peer = Peer {
                socket,
                reader: FrameReader::new(),
                buf: Vec::new(),
            };
            wire::encode_hello(&mut peer.buf);
            write_frame(&mut peer.socket, &peer.buf).unwrap();
            let ack = peer.reader.read(&mut peer.socket).unwrap();
            assert!(matches!(
                wire::decode_frame(ack),
                Ok(wire::Frame::HelloAck { .. })
            ));
            peer
        }

        fn send(&mut self, corr: u64, req: &Request) {
            wire::encode_request_frame(&mut self.buf, corr, req, None, None);
            write_frame(&mut self.socket, &self.buf).unwrap();
        }

        fn recv(&mut self) -> (u64, Response) {
            let frame = self.reader.read(&mut self.socket).unwrap();
            let Ok(wire::Frame::Response { corr, body }) = wire::decode_frame(frame) else {
                panic!("expected a response frame");
            };
            (corr, wire::decode_response_body(body).unwrap())
        }

        fn start(&mut self, corr: u64) -> u64 {
            let start = Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            };
            self.send(corr, &start);
            match self.recv() {
                (got, Response::SessionStarted { session_id }) if got == corr => session_id,
                other => panic!("expected session {corr} started, got {other:?}"),
            }
        }
    }

    fn step_req(session_id: u64, actions: Vec<usize>, space: &str) -> Request {
        Request::Step {
            session_id,
            actions,
            observation_spaces: vec![space.into()],
        }
    }

    /// A worker never writes a socket. Connection A pipelines 32 steps
    /// whose replies are about 1 MiB each and never reads them, so its
    /// socket fills and its writer blocks; connection B's session, on the
    /// same single worker, still completes 50 serial steps, each within
    /// B's read deadline.
    #[test]
    fn a_client_that_stops_reading_stalls_no_other_session() {
        use crate::retry::RetryPolicy;
        use crate::service::TcpTransport;
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 1,
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        let mut a = Peer::greet(&addr);
        let gid_a = a.start(1);
        for corr in 2..34 {
            a.send(corr, &step_req(gid_a, vec![0], "big"));
        }
        let deadline = Duration::from_secs(5);
        let b = TcpTransport::connect_with_policy(&addr, deadline, RetryPolicy::none()).unwrap();
        let start = Request::StartSession {
            benchmark: "b".into(),
            action_space: 0,
        };
        let gid_b = match b.call(start) {
            Ok(Response::SessionStarted { session_id }) => session_id,
            other => panic!("the reading client's session was not started: {other:?}"),
        };
        for i in 1..=50 {
            match b.call(step_req(gid_b, vec![0], "test")) {
                Ok(Response::Stepped { observations, .. }) => {
                    assert_eq!(observations, vec![Observation::Scalar(i as f64)]);
                }
                other => panic!("step {i} of the reading client: {other:?}"),
            }
        }
        drop((a, b));
        broker.drain(Duration::from_secs(2));
        server.join().unwrap().unwrap();
    }

    /// A connection closed while its step still sleeps on the worker: its
    /// session is ended once the step is done, the step's late reply finds
    /// the connection's writer gone and is dropped, and the worker goes on
    /// to serve a new connection's session.
    #[test]
    fn a_closed_connection_drops_its_late_reply_and_frees_the_worker() {
        use crate::retry::RetryPolicy;
        use crate::service::TcpTransport;
        let broker = Broker::new(
            sleeping_factory(),
            BrokerConfig {
                workers: 1,
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        let mut a = Peer::greet(&addr);
        let gid = a.start(1);
        a.send(2, &step_req(gid, vec![300], "test"));
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.live_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            broker.live_sessions(),
            0,
            "the closed connection's session must be ended"
        );
        let b =
            TcpTransport::connect_with_policy(&addr, Duration::from_secs(5), RetryPolicy::none())
                .unwrap();
        let start = Request::StartSession {
            benchmark: "b".into(),
            action_space: 0,
        };
        let gid = match b.call(start) {
            Ok(Response::SessionStarted { session_id }) => session_id,
            other => panic!("the worker must serve a new connection: {other:?}"),
        };
        match b.call(step_req(gid, vec![0], "test")) {
            Ok(Response::Stepped { observations, .. }) => {
                assert_eq!(observations, vec![Observation::Scalar(1.0)]);
            }
            other => panic!("the new session must step normally: {other:?}"),
        }
        drop(b);
        broker.drain(Duration::from_secs(2));
        server.join().unwrap().unwrap();
    }

    /// A fan-out answers a connection once. One pipelined window mixes
    /// `Configure`, which goes to both workers, with steps on a session on
    /// each worker: every correlation id is answered exactly once, and
    /// `Configure`'s answer is the fold `Broker::call` returns. A serial
    /// request after the window reads its own reply, not a stray frame.
    #[test]
    fn a_fan_out_answers_a_pipelined_window_once() {
        use crate::budget::ResourceBudget;
        let broker = Broker::new(
            counting_factory(),
            BrokerConfig {
                workers: 2,
                ..BrokerConfig::default()
            },
        );
        let (addr, server) = serve(&broker);
        let mut peer = Peer::greet(&addr);
        let sessions = [peer.start(1), peer.start(2)];
        assert_ne!(sessions[0] % 2, sessions[1] % 2, "one session per worker");
        let configure = Request::Configure {
            budget: ResourceBudget::default(),
        };
        let mut window: Vec<Request> = sessions.map(|g| step_req(g, vec![0], "test")).into();
        window.push(configure.clone());
        window.extend(sessions.map(|g| step_req(g, vec![0], "test")));
        for (corr, req) in (10..).zip(&window) {
            peer.send(corr, req);
        }
        let mut answers: Vec<Option<Response>> = vec![None; window.len()];
        for _ in 0..window.len() {
            let (corr, resp) = peer.recv();
            let slot = &mut answers[(corr - 10) as usize];
            assert!(slot.is_none(), "correlation id {corr} answered twice");
            *slot = Some(resp);
        }
        assert_eq!(answers[2], Some(broker.call(ANONYMOUS_TENANT, configure)));
        for (i, answer) in answers.iter().enumerate().filter(|(i, _)| *i != 2) {
            assert!(
                matches!(answer, Some(Response::Stepped { .. })),
                "slot {i}: {answer:?}"
            );
        }
        peer.send(20, &Request::Ping);
        assert_eq!(peer.recv(), (20, Response::Pong));
        drop(peer);
        broker.drain(Duration::from_secs(2));
        server.join().unwrap().unwrap();
    }
}
