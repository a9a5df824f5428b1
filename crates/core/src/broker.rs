//! Multi-tenant front door: the session broker (admission control,
//! per-tenant quotas, fair scheduling, backpressure, graceful drain).
//!
//! The broker is the only TCP server: one researcher driving one
//! environment and a shared service fronting many tenants go through the
//! same bounded front door, so no client has an unbounded right to spawn
//! work, overload is answered typed rather than by hangs or dropped
//! connections, and shutdown does not lose live episodes.
//!
//! * **Fixed worker fleet.** `workers` threads each own one service state
//!   (the [`crate::pool::EnvPool`] ownership pattern: sessions are sharded,
//!   never shared, no locks around compiler state). Session ids returned to
//!   clients are *global*: `gid = local_id * workers + worker_index`, a
//!   stateless bijection that routes any follow-up request to its owning
//!   worker (`gid % workers`) without a shared allocator.
//! * **Per-tenant FIFO queues, deficit-round-robin service.** Each worker
//!   keeps one FIFO per tenant and serves them DRR-fair with a configurable
//!   quantum, so a tenant's throughput share is bounded by scheduling, not
//!   by how fast it can enqueue. A request's cost is its action count
//!   (`max(1, actions.len())`) — batching buys efficiency, not priority.
//! * **Explicit admission control.** Before any work is queued, a request
//!   climbs the admission ladder: broker stopped → draining (new sessions
//!   only) → global session cap → per-tenant concurrent-session quota →
//!   per-tenant actions/second token bucket → per-tenant queue depth.
//!   Every refusal is a *typed, in-band* [`Response::Overloaded`] carrying
//!   `retry_after_ms` — never a hang, never a dropped connection. Clients
//!   surface it as [`crate::CgError::Overloaded`] and
//!   [`crate::retry::RetryPolicy::backoff_with_floor`] honors the server's
//!   delay as a floor under the client's own jittered backoff.
//! * **Graceful degradation.** Under queue pressure the broker sheds the
//!   *newest non-established* work first: a request addressing a live
//!   session may evict a queued session-creation job, so established
//!   episodes keep progressing at fair share while speculative new work is
//!   pushed back with `Overloaded`.
//! * **Graceful drain.** [`Broker::drain`] stops admitting new sessions,
//!   lets queued work finish within a grace period, sheds the remainder
//!   (typed refusals, not silence), then stops the fleet — each worker
//!   parks its live sessions into the [`CheckpointStore`]. Parked episodes
//!   survive a worker restart and a broker rebuilt in the same process
//!   over the same store; they survive a *process* restart only when the
//!   embedder passes a durable ring, cg-stdb's
//!   `TransitionStore::checkpoint_store`, as [`BrokerConfig::checkpoints`].
//!   `cg serve` uses the default in-memory ring, which exits with it.
//!   A `Shutdown` request over TCP triggers the same path.
//! * **Connection-scoped sessions.** Over TCP a session belongs to the
//!   connection that created it: when the socket closes — client crash,
//!   reconnect-recovery abandoning a ghost session, plain disconnect — the
//!   broker ends that connection's still-live sessions through the normal
//!   queue, so their quota slots come back without an `EndSession`.
//!   In-process callers ([`Broker::call`]) have no connection; their
//!   sessions live until ended or drained.
//!
//! Everything the front door decides is observable: `broker:admit`,
//! `broker:queue`, `broker:shed`, and `broker:drain` trace spans, plus the
//! `cg_broker_*` Prometheus families (admitted/refused/shed/quota
//! counters, session/queue-depth/connection gauges, queue-wait histogram).

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cg_telemetry::{SpanStatus, TraceContext};
use crossbeam::channel::{bounded, Receiver, Sender};
use serde::{Deserialize, Serialize};

use crate::budget::ResourceBudget;
use crate::checkpoint::CheckpointStore;
use crate::service::{
    account_rx, account_tx, write_frame, Classes, FrameReader, Request, Response, ServiceState,
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
    /// Concurrent sessions one tenant may hold (`0` = unlimited). The
    /// N+1-th `StartSession`/`Fork`/`RestoreSession`/`Resume` is refused
    /// typed.
    pub max_sessions: usize,
    /// Sustained actions/second one tenant may apply (`0.0` = unlimited),
    /// enforced by a token bucket; refusals advise `retry_after_ms` equal
    /// to the bucket's refill time for the request's cost.
    pub actions_per_sec: f64,
    /// Token-bucket capacity in actions: the burst a tenant may spend
    /// instantly before the sustained rate gates it.
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
    /// DRR quantum in action units added to a tenant's deficit per
    /// scheduling round. Small values interleave tenants finely; large
    /// values favor batch throughput.
    pub quantum: u64,
    /// Baseline `retry_after_ms` advised on refusals that have no better
    /// estimate (caps, queue pressure). Rate-quota refusals advise the
    /// actual token-bucket refill time instead.
    pub retry_after_ms: u64,
    /// How long [`Broker::drain`] lets queued work finish before shedding
    /// the remainder (the TCP `Shutdown` path uses this value).
    pub drain_grace: Duration,
    /// The uniform per-tenant quota.
    pub quota: TenantQuota,
    /// Resource budget installed in every worker.
    pub budget: ResourceBudget,
    /// Checkpoint store shared by all workers — interval snapshots during
    /// service, the park-everything sweep on drain — and the ring
    /// `Request::Resume` restores from. Its interval is the TCP checkpoint
    /// interval K.
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
    /// Admitted: the reply (or, for fan-out requests like `Configure`,
    /// `replies` replies) arrives on `rx` once a worker serves the job.
    Queued {
        /// Reply channel.
        rx: Receiver<Response>,
        /// How many responses to collect from `rx`.
        replies: usize,
    },
    /// Refused by the admission ladder; answer the client with
    /// [`Response::Overloaded`] carrying these fields.
    Refused {
        /// Advised minimum delay before retrying.
        retry_after_ms: u64,
        /// Which rung refused.
        reason: String,
    },
    /// Rejected outright with a non-overload reply (e.g. a tenant
    /// addressing another tenant's session). Not an overload signal: the
    /// client must not retry.
    Rejected(Response),
}

/// One admitted unit of work waiting in a per-tenant queue.
struct Job {
    req: Request,
    ctx: Option<TraceContext>,
    reply: Sender<Response>,
    owner: Owner,
    /// DRR cost in action units: `max(1, actions.len())`.
    cost: u64,
    /// Global session id the request names, if any (`req` carries the
    /// worker-local one).
    target: Option<u64>,
    /// Worker index this job was placed on (for per-worker accounting
    /// when a queued creation is shed before running).
    placed: usize,
    enqueued: Instant,
}

/// Who submitted a job, and so who owns any session it creates.
#[derive(Clone)]
struct Owner {
    tenant: String,
    /// The TCP connection it arrived on, `None` in process. A session is
    /// ended when the connection that created it closes.
    conn: Option<u64>,
}

/// Token bucket and occupancy for one tenant.
struct TenantState {
    /// Live sessions plus in-flight creation reservations.
    live: usize,
    /// Jobs admitted but not yet picked up by a worker.
    queued: usize,
    tokens: f64,
    refilled: Instant,
}

/// One worker's per-tenant FIFOs under deficit-round-robin.
#[derive(Default)]
struct WorkerQueues {
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order of tenants with backlog on this worker.
    order: VecDeque<String>,
    deficits: HashMap<String, u64>,
}

impl WorkerQueues {
    fn push(&mut self, job: Job) {
        let tenant = job.owner.tenant.clone();
        let queue = self.queues.entry(tenant.clone()).or_default();
        if queue.is_empty() && !self.order.iter().any(|t| t == &tenant) {
            self.order.push_back(tenant);
        }
        queue.push_back(job);
    }

    /// Pops the next job under DRR: each rotation tops every backlogged
    /// tenant's deficit up by `quantum`; a tenant serves from its FIFO
    /// while its deficit covers the head job's cost. Terminates because
    /// every full rotation strictly grows some nonempty tenant's deficit.
    fn pop_drr(&mut self, quantum: u64) -> Option<Job> {
        let quantum = quantum.max(1);
        loop {
            // Retire tenants whose queue drained (their deficit resets:
            // an idle tenant does not bank scheduling credit).
            while let Some(front) = self.order.front() {
                if self.queues.get(front).is_some_and(|q| !q.is_empty()) {
                    break;
                }
                let t = self.order.pop_front().expect("front checked");
                self.queues.remove(&t);
                self.deficits.remove(&t);
            }
            let tenant = self.order.front()?.clone();
            let cost = self.queues[&tenant].front().expect("nonempty queue").cost;
            let deficit = self.deficits.entry(tenant.clone()).or_insert(0);
            if *deficit >= cost {
                *deficit -= cost;
                let job = self
                    .queues
                    .get_mut(&tenant)
                    .expect("queue exists")
                    .pop_front()?;
                if self.queues[&tenant].is_empty() {
                    self.order.pop_front();
                    self.queues.remove(&tenant);
                    self.deficits.remove(&tenant);
                }
                return Some(job);
            }
            *deficit += quantum;
            self.order.rotate_left(1);
        }
    }

    /// Removes this tenant's newest queued session-creation job, if any —
    /// the shed-newest-non-established-first eviction victim.
    fn evict_newest_create(&mut self, tenant: &str) -> Option<Job> {
        let queue = self.queues.get_mut(tenant)?;
        let at = queue.iter().rposition(|job| job.req.classes().creates)?;
        queue.remove(at)
    }
}

/// Broker state behind the single mutex: queues, tenant accounting, and
/// the session → tenant ownership map.
struct Core {
    draining: bool,
    stopped: bool,
    drain_claimed: bool,
    finished: bool,
    report: Option<DrainReport>,
    tenants: HashMap<String, TenantState>,
    /// Global session id → owning tenant and connection.
    sessions: HashMap<u64, Owner>,
    /// Ids of the TCP connections currently being served. A session whose
    /// creating connection is no longer here is ended as soon as it lands.
    open_conns: HashSet<u64>,
    next_conn: u64,
    /// Live sessions plus reservations, across all tenants.
    live_total: usize,
    queued_total: usize,
    /// Live sessions plus reservations per worker, indexed by worker;
    /// drives least-loaded placement of new sessions.
    live_per_worker: Vec<usize>,
    next_worker: usize,
    workers: Vec<WorkerQueues>,
    /// A fresh tenant's initial token balance (the configured burst).
    initial_tokens: f64,
    /// Jobs shed while stopping, carried to the drain report.
    pending_shed: usize,
}

impl Core {
    fn tenant_mut(&mut self, tenant: &str) -> &mut TenantState {
        let initial = self.initial_tokens;
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                live: 0,
                queued: 0,
                tokens: initial,
                refilled: Instant::now(),
            })
    }

    /// The worker carrying the fewest live sessions and reservations.
    /// Ties break at a rotating start index, so an idle fleet still
    /// spreads consecutive creates instead of piling onto worker 0.
    fn least_loaded_worker(&mut self) -> usize {
        let n = self.live_per_worker.len().max(1);
        let start = self.next_worker;
        self.next_worker = (start + 1) % n;
        (0..n)
            .map(|i| (start + i) % n)
            .min_by_key(|&w| self.live_per_worker[w])
            .unwrap_or(0)
    }

    /// Returns a session-creation reservation that did not become a live
    /// session (failed create, evicted queued create, shed on drain).
    fn release_reservation(&mut self, tenant: &str, worker: usize) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.live = state.live.saturating_sub(1);
        }
        self.live_total = self.live_total.saturating_sub(1);
        if let Some(load) = self.live_per_worker.get_mut(worker) {
            *load = load.saturating_sub(1);
        }
        cg_telemetry::global().broker.sessions.dec();
    }

    /// Forgets a live session (ended, destroyed by fault or budget kill).
    fn release_session(&mut self, gid: u64) {
        if let Some(owner) = self.sessions.remove(&gid) {
            if let Some(state) = self.tenants.get_mut(&owner.tenant) {
                state.live = state.live.saturating_sub(1);
            }
            self.live_total = self.live_total.saturating_sub(1);
            let worker = (gid % self.live_per_worker.len().max(1) as u64) as usize;
            if let Some(load) = self.live_per_worker.get_mut(worker) {
                *load = load.saturating_sub(1);
            }
            cg_telemetry::global().broker.sessions.dec();
        }
    }

    fn enqueue(&mut self, worker: usize, job: Job) {
        self.tenant_mut(&job.owner.tenant).queued += 1;
        self.queued_total += 1;
        cg_telemetry::global().broker.queue_depth.inc();
        self.workers[worker].push(job);
    }

    /// Queues an `EndSession` for a session whose connection is gone. It
    /// bypasses the admission ladder — cleanup must not be refused — and
    /// nobody waits for the reply; `settle` releases the quota slot. After
    /// a stop the exiting workers park the session instead.
    fn end_orphan(&mut self, gid: u64) {
        let Some(owner) = self.sessions.get(&gid).cloned() else {
            return;
        };
        if self.stopped {
            return;
        }
        let workers = self.workers.len() as u64;
        let worker = (gid % workers) as usize;
        let (reply, _) = bounded(1);
        let job = Job {
            req: Request::EndSession {
                session_id: gid / workers,
            },
            ctx: None,
            reply,
            owner,
            cost: 1,
            target: Some(gid),
            placed: worker,
            enqueued: Instant::now(),
        };
        self.enqueue(worker, job);
    }

    /// Drops one queued job with a typed `Overloaded` reply and full
    /// accounting (queue counters, creation reservation, shed telemetry).
    fn shed_job(&mut self, job: Job, retry_after_ms: u64, reason: &str) {
        if let Some(state) = self.tenants.get_mut(&job.owner.tenant) {
            state.queued = state.queued.saturating_sub(1);
        }
        self.queued_total = self.queued_total.saturating_sub(1);
        if job.req.classes().creates {
            self.release_reservation(&job.owner.tenant, job.placed);
        }
        let tel = cg_telemetry::global();
        tel.broker.queue_depth.dec();
        tel.broker.shed.inc();
        tel.trace.emit_status(
            "broker:shed",
            format!(
                "tenant {}: queued {} shed: {reason}",
                job.owner.tenant,
                job.req.kind()
            ),
            Duration::ZERO,
            SpanStatus::Error,
        );
        let _ = job.reply.send(Response::Overloaded {
            retry_after_ms,
            reason: reason.to_string(),
        });
    }
}

struct Inner {
    cfg: BrokerConfig,
    core: Mutex<Core>,
    /// Signals workers that queues gained work or the broker stopped.
    work_cv: Condvar,
    /// Signals drainers that a worker finished a job (queues may be empty)
    /// or that the drain report is ready.
    idle_cv: Condvar,
    connections: AtomicUsize,
    /// Sessions checkpointed by exiting workers, summed for the report.
    drained: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
        let initial_tokens = cfg.quota.burst.max(1.0);
        let inner = Arc::new(Inner {
            core: Mutex::new(Core {
                draining: false,
                stopped: false,
                drain_claimed: false,
                finished: false,
                report: None,
                tenants: HashMap::new(),
                sessions: HashMap::new(),
                open_conns: HashSet::new(),
                next_conn: 0,
                live_total: 0,
                queued_total: 0,
                live_per_worker: vec![0; workers],
                next_worker: 0,
                workers: (0..workers).map(|_| WorkerQueues::default()).collect(),
                initial_tokens,
                pending_shed: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            connections: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
            cfg,
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let inner_w = Arc::clone(&inner);
            let factory = Arc::clone(&factory);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cg-broker-{index}"))
                    .stack_size(PASS_THREAD_STACK)
                    .spawn(move || worker_loop(inner_w, index, factory))
                    .expect("spawn broker worker"),
            );
        }
        *inner
            .handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = handles;
        Broker { inner }
    }

    /// Live sessions plus in-flight creation reservations.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.inner.lock_core().live_total
    }

    /// Whether a drain completed (fleet stopped, report available).
    fn is_finished(&self) -> bool {
        self.inner.lock_core().finished
    }

    /// Stops admitting session-creating work; established sessions keep
    /// being served. Idempotent; [`Broker::drain`] completes the shutdown.
    fn begin_drain(&self) {
        let mut core = self.inner.lock_core();
        if !core.draining {
            core.draining = true;
            let tel = cg_telemetry::global();
            tel.broker.drains.inc();
            tel.trace.emit(
                "broker:drain",
                "admissions closed to new sessions; draining",
                Duration::ZERO,
            );
        }
    }

    /// Runs the admission ladder and, if the request survives it, queues
    /// the work on its owning worker. See [`Submitted`] for the outcomes.
    pub fn submit(&self, tenant: &str, req: Request, ctx: Option<TraceContext>) -> Submitted {
        self.submit_from(None, tenant, req, ctx)
    }

    /// [`Broker::submit`] on behalf of TCP connection `conn`, which will
    /// own any session the request creates.
    fn submit_from(
        &self,
        conn: Option<u64>,
        tenant: &str,
        req: Request,
        ctx: Option<TraceContext>,
    ) -> Submitted {
        let cfg = &self.inner.cfg;
        let workers = cfg.workers as u64;
        let base = cfg.retry_after_ms.max(1);
        let mut core = self.inner.lock_core();

        if core.stopped {
            return refuse(false, base, "broker stopped".to_string());
        }

        let classes = req.classes();
        let creates = classes.creates;
        let target = req.session_id();
        // Tenant isolation: a session id names work owned by exactly one
        // tenant; anyone else is rejected outright (not an overload — the
        // client must not retry).
        if let Some(gid) = target {
            if let Some(owner) = core.sessions.get(&gid) {
                if owner.tenant != tenant {
                    return Submitted::Rejected(Response::Error(format!(
                        "session {gid} is not owned by tenant {tenant}"
                    )));
                }
            }
        }
        let established = target.is_some_and(|gid| core.sessions.contains_key(&gid));

        if core.draining && creates {
            return refuse(
                false,
                base.saturating_mul(4),
                "draining: new sessions refused".to_string(),
            );
        }
        if creates && core.live_total >= cfg.max_sessions {
            return refuse(
                false,
                base,
                format!("global session cap {} reached", cfg.max_sessions),
            );
        }
        let quota = &cfg.quota;
        if creates && quota.max_sessions > 0 {
            let live = core.tenants.get(tenant).map_or(0, |t| t.live);
            if live >= quota.max_sessions {
                return refuse(
                    true,
                    base,
                    format!(
                        "tenant {tenant}: session quota {} reached",
                        quota.max_sessions
                    ),
                );
            }
        }
        let actions = if let Request::Step { actions, .. } = &req {
            actions.len() as u64
        } else {
            0
        };
        if actions > 0 && quota.actions_per_sec > 0.0 {
            let rate = quota.actions_per_sec;
            let burst = quota.burst.max(1.0);
            let now = Instant::now();
            let state = core.tenant_mut(tenant);
            let elapsed = now.duration_since(state.refilled).as_secs_f64();
            state.tokens = (state.tokens + rate * elapsed).min(burst);
            state.refilled = now;
            // Batches larger than the bucket drain it fully instead of
            // being forever unpayable.
            let need = (actions as f64).min(burst);
            if state.tokens < need {
                let wait_ms = (((need - state.tokens) / rate) * 1000.0).ceil() as u64;
                return refuse(
                    true,
                    wait_ms.max(1),
                    format!("tenant {tenant}: rate quota {rate} actions/s exceeded"),
                );
            }
            state.tokens -= need;
        }

        let fanout = if classes.fanout { cfg.workers } else { 1 };
        let queued = core.tenants.get(tenant).map_or(0, |t| t.queued);
        if queued + fanout > cfg.max_queue_depth.max(1) {
            if established {
                // Established sessions outrank speculative new work: evict
                // this tenant's newest queued session-creation job to make
                // room, shedding it with a typed refusal.
                let evicted = (0..core.workers.len())
                    .find_map(|w| core.workers[w].evict_newest_create(tenant));
                match evicted {
                    Some(job) => core.shed_job(
                        job,
                        base,
                        "evicted: queue pressure favors established sessions",
                    ),
                    None => {
                        return refuse_shed(
                            base,
                            format!(
                                "tenant {tenant}: queue depth {} reached, nothing evictable",
                                cfg.max_queue_depth
                            ),
                        )
                    }
                }
            } else {
                return refuse_shed(
                    base,
                    format!(
                        "tenant {tenant}: queue depth {} reached",
                        cfg.max_queue_depth
                    ),
                );
            }
        }

        // Placement happens before the reservation so the per-worker live
        // accounting can include it: new sessions go to the least-loaded
        // worker, targeted work is pinned by its session id.
        let placed = if fanout > 1 {
            None
        } else {
            Some(match target {
                Some(gid) => (gid % workers) as usize,
                None => core.least_loaded_worker(),
            })
        };
        if creates {
            core.tenant_mut(tenant).live += 1;
            core.live_total += 1;
            if let Some(worker) = placed {
                core.live_per_worker[worker] += 1;
            }
            cg_telemetry::global().broker.sessions.inc();
        }

        let kind = req.kind();
        let (tx, rx) = bounded(fanout.max(1));
        let now = Instant::now();
        let owner = Owner {
            tenant: tenant.to_string(),
            conn,
        };
        if fanout > 1 {
            // Fan the request out to every worker (budgets apply to all
            // shards); the caller collects `fanout` replies.
            for worker in 0..cfg.workers {
                let job = Job {
                    req: req.clone(),
                    ctx,
                    reply: tx.clone(),
                    owner: owner.clone(),
                    cost: 1,
                    target: None,
                    placed: worker,
                    enqueued: now,
                };
                core.enqueue(worker, job);
            }
        } else {
            let worker = placed.expect("single-target submissions are always placed");
            let mut req = req;
            // The owning worker knows the session by its local id, the
            // inverse of the `gid = local * workers + index` bijection.
            if let Some(session_id) = req.session_id_mut() {
                *session_id /= workers;
            }
            let job = Job {
                req,
                ctx,
                reply: tx,
                owner,
                cost: actions.max(1),
                target,
                placed: worker,
                enqueued: now,
            };
            core.enqueue(worker, job);
        }
        if creates {
            cg_telemetry::global().broker.admitted.inc();
            cg_telemetry::global().trace.emit(
                "broker:admit",
                format!("tenant {tenant}: {kind} admitted"),
                Duration::ZERO,
            );
        }
        drop(core);
        self.inner.work_cv.notify_all();
        Submitted::Queued {
            rx,
            replies: fanout,
        }
    }

    /// Submits under the caller's current trace context and blocks for the
    /// reply — the in-process client surface.
    pub fn call(&self, tenant: &str, req: Request) -> Response {
        match self.submit(tenant, req, cg_telemetry::current_context()) {
            Submitted::Refused {
                retry_after_ms,
                reason,
            } => Response::Overloaded {
                retry_after_ms,
                reason,
            },
            Submitted::Rejected(resp) => resp,
            Submitted::Queued { rx, replies } => {
                let mut responses = Vec::with_capacity(replies);
                for _ in 0..replies {
                    responses.push(rx.recv().unwrap_or_else(|_| {
                        Response::Error("broker worker unavailable".to_string())
                    }));
                }
                merge_replies(responses)
            }
        }
    }

    /// Drains the broker: stops admitting new sessions, waits up to
    /// `grace` for queued work to complete, sheds the remainder with typed
    /// refusals, then stops the fleet — every worker parks its live
    /// sessions into the checkpoint store on the way out. Idempotent:
    /// concurrent callers all receive the same report.
    pub fn drain(&self, grace: Duration) -> DrainReport {
        let started = Instant::now();
        self.begin_drain();
        {
            let mut core = self.inner.lock_core();
            if core.drain_claimed {
                // Another caller owns the drain; wait for its report.
                while core.report.is_none() {
                    let (guard, _) = self
                        .inner
                        .idle_cv
                        .wait_timeout(core, Duration::from_millis(50))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    core = guard;
                }
                return core.report.clone().expect("report set");
            }
            core.drain_claimed = true;
            // Let queued work finish within the grace period.
            while core.queued_total > 0 && started.elapsed() < grace {
                let (guard, _) = self
                    .inner
                    .idle_cv
                    .wait_timeout(core, Duration::from_millis(25))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                core = guard;
            }
            // Shed whatever the grace period did not cover, then stop.
            let mut shed_queued = 0usize;
            for worker in 0..core.workers.len() {
                while let Some(front) = core.workers[worker].order.front() {
                    let tenant = front.clone();
                    let job = core.workers[worker]
                        .queues
                        .get_mut(&tenant)
                        .and_then(VecDeque::pop_front);
                    match job {
                        Some(job) => {
                            core.shed_job(
                                job,
                                self.inner.cfg.retry_after_ms.max(1),
                                "drain grace expired",
                            );
                            shed_queued += 1;
                        }
                        None => {
                            core.workers[worker].order.pop_front();
                            core.workers[worker].queues.remove(&tenant);
                            core.workers[worker].deficits.remove(&tenant);
                        }
                    }
                }
            }
            core.stopped = true;
            core.pending_shed = shed_queued;
        }
        self.inner.work_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .inner
            .handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        let report = {
            let mut core = self.inner.lock_core();
            let report = DrainReport {
                checkpointed: self.inner.drained.load(Ordering::SeqCst),
                shed_queued: core.pending_shed,
                waited_ms: started.elapsed().as_millis() as u64,
            };
            core.finished = true;
            core.report = Some(report.clone());
            report
        };
        self.inner.idle_cv.notify_all();
        cg_telemetry::global().trace.emit(
            "broker:drain",
            format!(
                "drained: {} sessions checkpointed, {} queued jobs shed",
                report.checkpointed, report.shed_queued
            ),
            started.elapsed(),
        );
        report
    }

    /// Serves the broker over TCP: length-prefixed `CGB1` frames, one
    /// handler thread per connection (bounded by
    /// [`BrokerConfig::max_connections`] — excess connects receive one
    /// typed `Overloaded` frame and are closed). A `Shutdown` request
    /// triggers [`Broker::drain`]; `serve` returns once the drain
    /// completes.
    ///
    /// # Errors
    /// Propagates listener configuration failures.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        // Non-blocking accept so the loop can observe drain completion —
        // with no signal handling available, a `Shutdown` frame from a
        // connection thread is what ends the server.
        listener.set_nonblocking(true)?;
        loop {
            if self.is_finished() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    self.accept_connection(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn accept_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let tel = cg_telemetry::global();
        let cap = self.inner.cfg.max_connections.max(1);
        // `fetch_add` before the check keeps the cap exact under
        // concurrent accepts; the slot is released when the handler exits.
        if self.inner.connections.fetch_add(1, Ordering::SeqCst) >= cap {
            self.inner.connections.fetch_sub(1, Ordering::SeqCst);
            tel.broker.refused.inc();
            tel.trace.emit_status(
                "broker:shed",
                format!("broker at connection cap {cap}"),
                Duration::ZERO,
                SpanStatus::Error,
            );
            // Written before the client has spoken: its handshake reads
            // this frame where it expected the `HelloAck`.
            let resp = Response::Overloaded {
                retry_after_ms: self.inner.cfg.retry_after_ms.max(1),
                reason: format!("connection cap {cap} reached"),
            };
            reply(&Mutex::new(stream), 0, &resp);
            return;
        }
        tel.broker.connections.inc();
        let broker = self.clone();
        let _ = std::thread::Builder::new()
            .name("cg-broker-conn".to_string())
            .spawn(move || {
                let conn = {
                    let mut core = broker.inner.lock_core();
                    core.next_conn += 1;
                    let conn = core.next_conn;
                    core.open_conns.insert(conn);
                    conn
                };
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(&broker, conn, stream);
                }));
                broker.end_connection(conn);
                broker.inner.connections.fetch_sub(1, Ordering::SeqCst);
                let tel = cg_telemetry::global();
                tel.broker.connections.dec();
                if outcome.is_err() {
                    tel.panics.inc();
                    tel.trace.emit(
                        "service:panic",
                        "broker connection handler panicked; connection dropped",
                        Duration::ZERO,
                    );
                }
            });
    }

    /// Closes the books on TCP connection `conn`, however it ended: the
    /// sessions it created and never ended are ended now, so a crashed or
    /// reconnecting client cannot strand its tenant's quota.
    fn end_connection(&self, conn: u64) {
        let mut core = self.inner.lock_core();
        core.open_conns.remove(&conn);
        let orphans: Vec<u64> = core
            .sessions
            .iter()
            .filter_map(|(gid, owner)| (owner.conn == Some(conn)).then_some(*gid))
            .collect();
        for gid in orphans {
            core.end_orphan(gid);
        }
        drop(core);
        self.inner.work_cv.notify_all();
    }
}

/// Encodes and writes one response frame through the connection's shared
/// writer (the reader loop and the demux forwarder threads all funnel
/// through the same mutex, so frames never interleave mid-write).
fn reply(writer: &Mutex<TcpStream>, corr: u64, resp: &Response) -> bool {
    let mut buf = Vec::new();
    wire::encode_response_frame(&mut buf, corr, resp);
    send(writer, &buf)
}

/// Writes one encoded frame through the shared writer.
fn send(writer: &Mutex<TcpStream>, frame: &[u8]) -> bool {
    account_tx(frame.len());
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    write_frame(&mut *w, frame).is_ok()
}

/// Routes each per-connection request through the broker with a sticky
/// tenant identity (the last tenant metadata seen on this connection).
///
/// Requests pipeline: the reader submits each frame as it arrives
/// (admission and queueing happen in receipt order, and session→worker
/// pinning plus per-tenant FIFOs keep per-session execution ordered), while
/// a short-lived forwarder thread per in-flight request collects the
/// worker's reply and writes it back stamped with the request's correlation
/// id — responses may leave out of order, the client demuxes.
///
/// Everything on the socket is outside input. A frame without the `CGB1`
/// magic, or a `Hello` carrying another protocol version, is answered with
/// one typed error naming what was expected, and the connection is closed:
/// the peer is not speaking this protocol, so nothing after it can be
/// trusted to be a frame boundary.
fn handle_connection(broker: &Broker, conn: u64, stream: TcpStream) {
    let mut tenant = ANONYMOUS_TENANT.to_string();
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut stream = stream;
    let mut reader = FrameReader::new();
    while let Ok(frame) = reader.read(&mut stream) {
        account_rx(frame.len());
        let (corr, req, ctx) = match wire::decode_frame(frame) {
            Ok(wire::Frame::Hello { version }) if version == wire::WIRE_VERSION => {
                cg_telemetry::global().wire.negotiations.inc();
                let mut buf = Vec::new();
                wire::encode_hello_ack(&mut buf);
                if !send(&writer, &buf) {
                    break;
                }
                continue;
            }
            Ok(wire::Frame::Request { corr, body }) => {
                match wire::decode_request_body(corr, body) {
                    Ok(rf) => {
                        if let Some(t) = rf.tenant {
                            tenant = t;
                        }
                        (rf.corr, rf.req, rf.ctx)
                    }
                    Err(e) => {
                        cg_telemetry::global().wire.decode_errors.inc();
                        let resp = Response::Error(format!("bad request frame: {e}"));
                        if !reply(&writer, corr, &resp) {
                            break;
                        }
                        continue;
                    }
                }
            }
            other => {
                cg_telemetry::global().wire.decode_errors.inc();
                // A `Hello` reaching this arm carries another version.
                let foreign =
                    matches!(other, Ok(wire::Frame::Hello { .. })) || !wire::is_binary_frame(frame);
                let resp = Response::Error(if foreign {
                    format!(
                        "not a CGB1 peer: frames start with magic {:02x?} and `Hello` \
                         carries protocol version {}",
                        wire::WIRE_MAGIC,
                        wire::WIRE_VERSION
                    )
                } else {
                    "unexpected frame kind".to_string()
                });
                if !reply(&writer, 0, &resp) || foreign {
                    break;
                }
                continue;
            }
        };
        if matches!(req, Request::Shutdown) {
            // The drain path: stop admissions, park live sessions, stop
            // the fleet — then acknowledge, so `cg serve --drain` blocks
            // until the server is actually safe to kill.
            let grace = broker.inner.cfg.drain_grace;
            let _report = broker.drain(grace);
            let _ = reply(&writer, corr, &Response::Ok);
            break;
        }
        let resp = match broker.submit_from(Some(conn), &tenant, req, ctx) {
            Submitted::Refused {
                retry_after_ms,
                reason,
            } => Response::Overloaded {
                retry_after_ms,
                reason,
            },
            Submitted::Rejected(resp) => resp,
            Submitted::Queued { rx, replies } => {
                cg_telemetry::global().wire.in_flight.inc();
                let demux_writer = Arc::clone(&writer);
                let spawned = std::thread::Builder::new()
                    .name("cg-broker-demux".to_string())
                    .spawn(move || {
                        let mut responses = Vec::with_capacity(replies);
                        for _ in 0..replies {
                            responses.push(rx.recv().unwrap_or_else(|_| {
                                Response::Error("broker worker unavailable".to_string())
                            }));
                        }
                        let resp = merge_replies(responses);
                        reply(&demux_writer, corr, &resp);
                        cg_telemetry::global().wire.in_flight.dec();
                    });
                if spawned.is_ok() {
                    continue;
                }
                // Out of threads: answer in band rather than hang the
                // client's window.
                cg_telemetry::global().wire.in_flight.dec();
                Response::Overloaded {
                    retry_after_ms: broker.inner.cfg.retry_after_ms.max(1),
                    reason: "broker demux thread unavailable".to_string(),
                }
            }
        };
        if !reply(&writer, corr, &resp) {
            break;
        }
    }
}

/// The worker fleet body: pop jobs DRR-fair, dispatch through the owned
/// [`ServiceState`], rewrite session ids to global form, keep quota
/// accounting truthful, and park live sessions on the way out.
fn worker_loop(inner: Arc<Inner>, index: usize, factory: SessionFactory) {
    let tel = cg_telemetry::global();
    let mut state = ServiceState::new(
        factory,
        inner.cfg.budget.clone(),
        inner.cfg.checkpoints.clone(),
    );
    while let Some(job) = pop_job(&inner, index) {
        let Job {
            req,
            ctx,
            reply,
            owner,
            cost: _,
            target,
            enqueued,
            placed: _,
        } = job;
        let wait = enqueued.elapsed();
        tel.broker.queue_wait.record_duration(wait);
        tel.trace.emit(
            "broker:queue",
            format!(
                "tenant {}: {} dequeued by worker {index}",
                owner.tenant,
                req.kind()
            ),
            wait,
        );
        let classes = req.classes();
        let resp = match std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _trace_guard = ctx.map(cg_telemetry::enter_context);
            state.handle(req)
        })) {
            Ok(resp) => resp,
            Err(_) => {
                tel.panics.inc();
                Response::Fatal("broker worker panicked handling request".to_string())
            }
        };
        let resp = settle(&inner, index, owner, classes, target, resp);
        let _ = reply.send(resp);
        inner.idle_cv.notify_all();
    }
    // Stopped: park everything live so episodes survive the restart.
    let live = state.session_count();
    let saved = state.checkpoint_all();
    if saved > 0 {
        inner.drained.fetch_add(saved, Ordering::SeqCst);
        tel.broker.drained_checkpoints.add(saved as u64);
        tel.trace.emit(
            "broker:drain",
            format!("worker {index} checkpointed {saved} of {live} live sessions"),
            Duration::ZERO,
        );
    }
}

/// Blocks until this worker has a job (DRR order) or the broker stops.
fn pop_job(inner: &Inner, index: usize) -> Option<Job> {
    let mut core = inner.lock_core();
    loop {
        if core.stopped {
            return None;
        }
        if let Some(job) = core.workers[index].pop_drr(inner.cfg.quantum) {
            if let Some(state) = core.tenants.get_mut(&job.owner.tenant) {
                state.queued = state.queued.saturating_sub(1);
            }
            core.queued_total = core.queued_total.saturating_sub(1);
            cg_telemetry::global().broker.queue_depth.dec();
            return Some(job);
        }
        let (guard, _) = inner
            .work_cv
            .wait_timeout(core, Duration::from_millis(50))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        core = guard;
    }
}

/// Post-dispatch accounting: rewrites worker-local session ids to global
/// ids, records new sessions against their tenant and connection, and
/// releases quota on every path that destroys one (end, fault, budget kill,
/// failed create).
fn settle(
    inner: &Inner,
    index: usize,
    owner: Owner,
    classes: Classes,
    target: Option<u64>,
    mut resp: Response,
) -> Response {
    let workers = inner.cfg.workers as u64;
    let mut core = inner.lock_core();
    if classes.creates {
        match resp.session_id_mut() {
            Some(session_id) => {
                let gid = *session_id * workers + index as u64;
                *session_id = gid;
                // The connection closed while its create was in flight:
                // nobody can address the session, so end it now.
                let orphan = owner.conn.is_some_and(|c| !core.open_conns.contains(&c));
                core.sessions.insert(gid, owner);
                if orphan {
                    core.end_orphan(gid);
                    inner.work_cv.notify_all();
                }
            }
            None => core.release_reservation(&owner.tenant, index),
        }
    }
    let destroyed = matches!(resp, Response::Fatal(_) | Response::Budget(_));
    if let Some(gid) = target {
        if classes.ends || destroyed {
            core.release_session(gid);
        }
    }
    resp
}

/// A ladder refusal: typed, counted, and traced.
fn refuse(quota: bool, retry_after_ms: u64, reason: String) -> Submitted {
    let tel = cg_telemetry::global();
    tel.broker.refused.inc();
    if quota {
        tel.broker.quota_refusals.inc();
    }
    tel.trace.emit_status(
        "broker:admit",
        reason.clone(),
        Duration::ZERO,
        SpanStatus::Error,
    );
    Submitted::Refused {
        retry_after_ms,
        reason,
    }
}

/// A queue-pressure refusal: the incoming request itself is the newest
/// non-established work, so refusing it *is* the shed.
fn refuse_shed(retry_after_ms: u64, reason: String) -> Submitted {
    let tel = cg_telemetry::global();
    tel.broker.shed.inc();
    tel.trace.emit_status(
        "broker:shed",
        reason.clone(),
        Duration::ZERO,
        SpanStatus::Error,
    );
    Submitted::Refused {
        retry_after_ms,
        reason,
    }
}

/// Folds a fan-out's replies into one: the first failure wins, otherwise
/// the last reply stands in for the set.
fn merge_replies(mut responses: Vec<Response>) -> Response {
    let failed = responses
        .iter()
        .position(|r| !matches!(r, Response::Ok | Response::Pong));
    match failed {
        Some(at) => responses.swap_remove(at),
        None => responses.pop().unwrap_or(Response::Ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ActionOutcome, CompilationSession, SessionSnapshot};
    use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};

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
        fn observe(&mut self, _s: &str) -> Result<Observation, String> {
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
        // One window of steps: the broker answers each frame from a
        // detached forwarder thread, possibly out of order on the wire;
        // the client's correlation-id demux restores request order, and
        // session→worker pinning keeps the step counter strictly serial.
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
}
