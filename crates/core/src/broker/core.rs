//! The broker's decisions, apart from its sockets, threads and clock:
//! admission, tenant and worker accounting, the DRR lanes, eviction,
//! connection-scoped session ends and the drain phases. [`BrokerCore`]
//! takes the time as `now` (time since the broker started) and returns its
//! decisions; the tests below drive it with a virtual clock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::time::Duration;

use super::{BrokerConfig, DrainReport};
use crate::service::{Classes, Request, Response};

/// Who submitted a job, and so who owns any session it creates: a tenant
/// and, over TCP, the connection whose close ends the session.
#[derive(Clone, Debug)]
pub(crate) struct Owner {
    pub(crate) tenant: String,
    pub(crate) conn: Option<u64>,
}

/// One admitted unit of work waiting in a tenant's lane.
pub(crate) struct Job<R> {
    /// The request, naming its session by the worker-local id.
    pub(crate) req: Request,
    /// `None` for the ends queued for a closed connection: nobody awaits them.
    pub(crate) reply: Option<R>,
    pub(crate) owner: Owner,
    /// The global id of the session the request names.
    pub(crate) target: Option<u64>,
    /// DRR cost in action units: `max(1, actions.len())`.
    cost: u64,
    enqueued: Duration,
}

/// How the shell counts and traces a [`Refusal`]: `Closed` (stopped,
/// draining or a global cap), `Quota` (a tenant's sessions or action rate),
/// `Shed` (queue pressure: refusing is the shed) or `Rejected` (another
/// tenant's session: not an overload, never retried).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rung {
    Closed,
    Quota,
    Shed,
    Rejected,
}

/// A request the ladder turned away, with the delay it advises.
#[derive(Debug)]
pub(crate) struct Refusal {
    pub(crate) rung: Rung,
    pub(crate) retry_after_ms: u64,
    pub(crate) reason: String,
}

/// A job taken out of the queues without running, and the refusal its
/// reply handle (if any) is owed.
pub(crate) type Shed<R> = (Option<R>, Refusal);

/// A job for a worker, the time it spent queued, and whether taking it
/// emptied the queues a claimed drain waits on.
pub(crate) type Popped<R> = (Job<R>, Duration, bool);

/// An admitted request: the workers in `wake` serve it, each answering
/// its own copy of the reply handle. `evicted` is the queued create it
/// displaced.
pub(crate) struct Queued<R> {
    pub(crate) wake: Range<usize>,
    pub(crate) evicted: Option<Shed<R>>,
}

/// Serving, draining (creates refused; once a drainer claimed the drain,
/// the deadline it waits for the queues until), or stopped (queues shed,
/// workers parking; the report once the drainer completed it).
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Open,
    Draining(Option<Duration>),
    Stopped(Option<DrainReport>),
}

/// One tenant's live sessions plus creation reservations, and its token
/// bucket.
struct Tenant {
    live: usize,
    tokens: f64,
    refilled: Duration,
}

/// One tenant's FIFO on one worker, with its DRR deficit. A lane exists
/// only while it holds work, so an idle tenant banks no credit.
struct Lane<R> {
    tenant: String,
    jobs: VecDeque<Job<R>>,
    deficit: u64,
}

/// The broker's state machine; see the module docs. `R` is what the shell
/// needs to answer a request (where its answer goes, and its trace
/// context).
pub(crate) struct BrokerCore<R> {
    cfg: BrokerConfig,
    phase: Phase,
    /// Tenants with state, plus the idle ones admitted since the last
    /// sweep; see [`BrokerCore::sweep_tenants`].
    tenants: HashMap<String, Tenant>,
    /// The map size that triggers the next sweep: twice what the last one
    /// kept.
    sweep_at: usize,
    /// Global session id → owner.
    sessions: HashMap<u64, Owner>,
    /// Connections being served; a create landing for a closed one is ended.
    open_conns: HashSet<u64>,
    next_conn: u64,
    /// Live sessions plus reservations per worker, for least-loaded
    /// placement.
    live_per_worker: Vec<usize>,
    next_worker: usize,
    /// Per worker, the lanes with backlog in round-robin order.
    lanes: Vec<VecDeque<Lane<R>>>,
}

impl<R: Clone> BrokerCore<R> {
    /// A core for `cfg`, whose `workers` is at least 1.
    pub(crate) fn new(cfg: BrokerConfig) -> BrokerCore<R> {
        BrokerCore {
            phase: Phase::Open,
            tenants: HashMap::new(),
            sweep_at: 2,
            sessions: HashMap::new(),
            open_conns: HashSet::new(),
            next_conn: 0,
            live_per_worker: vec![0; cfg.workers],
            next_worker: 0,
            lanes: (0..cfg.workers).map(|_| VecDeque::new()).collect(),
            cfg,
        }
    }

    /// Live sessions plus in-flight creation reservations.
    pub(crate) fn live_sessions(&self) -> usize {
        self.live_per_worker.iter().sum()
    }

    /// Queued jobs of `tenant`, or of everyone.
    fn queued(&self, tenant: Option<&str>) -> usize {
        let lanes = self.lanes.iter().flatten();
        let mine = lanes.filter(|l| tenant.is_none_or(|t| l.tenant == t));
        mine.map(|l| l.jobs.len()).sum()
    }

    /// The drain report, once a drain finished.
    pub(crate) fn report(&self) -> Option<&DrainReport> {
        match &self.phase {
            Phase::Stopped(report) => report.as_ref(),
            _ => None,
        }
    }

    /// Whether the broker stopped: workers park their sessions and exit.
    pub(crate) fn stopped(&self) -> bool {
        matches!(self.phase, Phase::Stopped(_))
    }

    fn workers(&self) -> u64 {
        self.cfg.workers as u64
    }

    /// A refusal advising `retry_after_ms`, or the configured baseline.
    fn refusal(&self, rung: Rung, retry_after_ms: Option<u64>, reason: String) -> Refusal {
        let retry_after_ms = retry_after_ms.unwrap_or(self.cfg.retry_after_ms.max(1));
        Refusal {
            rung,
            retry_after_ms,
            reason,
        }
    }

    /// Runs the admission ladder: stopped → draining (creates only) →
    /// global session cap → tenant session quota → tenant token bucket →
    /// tenant queue depth. A request that survives it is placed and queued.
    pub(crate) fn submit(
        &mut self,
        now: Duration,
        conn: Option<u64>,
        tenant: &str,
        mut req: Request,
        reply: R,
    ) -> Result<Queued<R>, Refusal> {
        if self.stopped() {
            return Err(self.refusal(Rung::Closed, None, "broker stopped".into()));
        }
        let Classes {
            creates, fanout, ..
        } = req.classes();
        let target = req.session_id();
        let owner = target.and_then(|gid| Some((gid, self.sessions.get(&gid)?)));
        if let Some((gid, _)) = owner.filter(|(_, o)| o.tenant != tenant) {
            let reason = format!("session {gid} is not owned by tenant {tenant}");
            return Err(self.refusal(Rung::Rejected, None, reason));
        }
        let established = owner.is_some();
        if self.tenants.len() >= self.sweep_at {
            self.sweep_tenants(now);
        }
        let (cfg, quota) = (&self.cfg, &self.cfg.quota);
        if creates && self.phase != Phase::Open {
            let retry = cfg.retry_after_ms.max(1).saturating_mul(4);
            let reason = "draining: new sessions refused".into();
            return Err(self.refusal(Rung::Closed, Some(retry), reason));
        }
        if creates && self.live_sessions() >= cfg.max_sessions {
            let reason = format!("global session cap {} reached", cfg.max_sessions);
            return Err(self.refusal(Rung::Closed, None, reason));
        }
        let fresh = || Tenant {
            live: 0,
            tokens: quota.burst.max(1.0),
            refilled: now,
        };
        let state = self.tenants.entry(tenant.to_string()).or_insert_with(fresh);
        if creates && quota.max_sessions > 0 && state.live >= quota.max_sessions {
            let max = quota.max_sessions;
            let reason = format!("tenant {tenant}: session quota {max} reached");
            return Err(self.refusal(Rung::Quota, None, reason));
        }
        let actions = match &req {
            Request::Step { actions, .. } => actions.len() as u64,
            _ => 0,
        };
        if actions > 0 && quota.actions_per_sec > 0.0 {
            let (rate, burst) = (quota.actions_per_sec, quota.burst.max(1.0));
            let elapsed = now.saturating_sub(state.refilled).as_secs_f64();
            state.tokens = (state.tokens + rate * elapsed).min(burst);
            state.refilled = now;
            // Batches larger than the bucket drain it fully instead of
            // being forever unpayable.
            let need = (actions as f64).min(burst);
            if state.tokens < need {
                let wait_ms = (((need - state.tokens) / rate) * 1000.0).ceil() as u64;
                let reason = format!("tenant {tenant}: rate quota {rate} actions/s exceeded");
                return Err(self.refusal(Rung::Quota, Some(wait_ms.max(1)), reason));
            }
            state.tokens -= need;
        }

        let replies = if fanout { cfg.workers } else { 1 };
        let depth = cfg.max_queue_depth;
        let mut evicted = None;
        if self.queued(Some(tenant)) + replies > depth.max(1) {
            // Established sessions outrank speculative new work: they evict
            // this tenant's newest queued create to make room.
            if established {
                evicted = self.evict_newest_create(tenant);
            }
            if evicted.is_none() {
                let more = [", nothing evictable", ""][usize::from(!established)];
                let reason = format!("tenant {tenant}: queue depth {depth} reached{more}");
                return Err(self.refusal(Rung::Shed, None, reason));
            }
        }

        // A fan-out goes to every worker (budgets apply to every shard), a
        // new session to the least-loaded one, anything else to the worker
        // its session id names.
        let (n, start) = (self.cfg.workers, self.next_worker);
        let w = match target {
            _ if fanout => 0,
            Some(gid) => (gid % self.workers()) as usize,
            None => {
                // Fewest live sessions and reservations; ties break at a
                // rotating start, so an idle fleet still spreads creates.
                self.next_worker = (start + 1) % n;
                let order = (0..n).map(|i| (start + i) % n);
                order.min_by_key(|&w| self.live_per_worker[w]).unwrap_or(0)
            }
        };
        let wake = if fanout { 0..replies } else { w..w + 1 };
        if creates {
            self.slot(tenant, w, true);
        }
        // The owning worker knows the session by its local id, the inverse
        // of the `gid = local * workers + index` bijection.
        if let Some(session_id) = req.session_id_mut() {
            *session_id /= self.workers();
        }
        let owner = Owner {
            tenant: tenant.to_string(),
            conn,
        };
        let job = |req, reply| Job {
            req,
            reply: Some(reply),
            owner: owner.clone(),
            cost: actions.max(1),
            target,
            enqueued: now,
        };
        for w in wake.clone().skip(1) {
            self.enqueue(w, job(req.clone(), reply.clone()));
        }
        self.enqueue(wake.start, job(req, reply));
        Ok(Queued { wake, evicted })
    }

    /// Forgets every tenant whose entry equals a fresh one: no live slot or
    /// reservation, no lane on any worker, and a bucket that has refilled to
    /// `burst` by `now`. Run when the map has doubled since the last sweep,
    /// so its cost is amortized O(1) per submit and the map holds at most
    /// twice the tenants with state.
    fn sweep_tenants(&mut self, now: Duration) {
        let queued: HashSet<&str> = self.lanes.iter().flatten().map(|l| &*l.tenant).collect();
        let (rate, burst) = (
            self.cfg.quota.actions_per_sec,
            self.cfg.quota.burst.max(1.0),
        );
        self.tenants.retain(|name, t| {
            let elapsed = now.saturating_sub(t.refilled).as_secs_f64();
            let refilled = rate <= 0.0 || t.tokens + rate * elapsed >= burst;
            t.live > 0 || queued.contains(name.as_str()) || !refilled
        });
        self.sweep_at = 2 * self.tenants.len().max(1);
    }

    /// Counts one session slot (live or reserved) of `tenant` on `worker`
    /// in or out.
    fn slot(&mut self, tenant: &str, worker: usize, add: bool) {
        let step = |n: &mut usize| *n = if add { *n + 1 } else { n.saturating_sub(1) };
        if let Some(t) = self.tenants.get_mut(tenant) {
            step(&mut t.live);
        }
        step(&mut self.live_per_worker[worker]);
        let gauge = &cg_telemetry::global().broker.sessions;
        if add {
            gauge.inc();
        } else {
            gauge.dec();
        }
    }

    fn enqueue(&mut self, worker: usize, job: Job<R>) {
        cg_telemetry::global().broker.queue_depth.inc();
        let lanes = &mut self.lanes[worker];
        match lanes.iter_mut().find(|l| l.tenant == job.owner.tenant) {
            Some(lane) => lane.jobs.push_back(job),
            None => lanes.push_back(Lane {
                tenant: job.owner.tenant.clone(),
                jobs: VecDeque::from([job]),
                deficit: 0,
            }),
        }
    }

    /// Takes a job queued on `worker` out without running it: its creation
    /// reservation goes back, and it is owed a refusal.
    fn shed(&mut self, job: Job<R>, worker: usize, why: &str) -> Shed<R> {
        cg_telemetry::global().broker.queue_depth.dec();
        if job.req.classes().creates {
            self.slot(&job.owner.tenant, worker, false);
        }
        let (tenant, kind) = (&job.owner.tenant, job.req.kind());
        let reason = format!("tenant {tenant}: queued {kind} shed: {why}");
        (job.reply, self.refusal(Rung::Shed, None, reason))
    }

    /// Removes `tenant`'s newest queued create, the
    /// shed-newest-non-established-first victim.
    fn evict_newest_create(&mut self, tenant: &str) -> Option<Shed<R>> {
        let (worker, job) = (self.lanes.iter_mut().enumerate()).find_map(|(w, lanes)| {
            let at = lanes.iter().position(|l| l.tenant == tenant)?;
            let lane = &mut lanes[at];
            let i = lane.jobs.iter().rposition(|j| j.req.classes().creates)?;
            let job = lane.jobs.remove(i);
            if lane.jobs.is_empty() {
                lanes.remove(at);
            }
            Some((w, job?))
        })?;
        let why = "evicted: queue pressure favors established sessions";
        Some(self.shed(job, worker, why))
    }

    /// The next job for `worker` under deficit round robin, with the time
    /// it spent queued and whether taking it emptied the queues a claimed
    /// drain waits on. Each rotation tops the front lane's deficit up by the
    /// quantum, and a lane serves while its deficit covers its head job's
    /// cost; every full rotation grows every deficit, so this terminates.
    pub(crate) fn pop(&mut self, worker: usize, now: Duration) -> Option<Popped<R>> {
        let quantum = self.cfg.quantum.max(1);
        let lanes = &mut self.lanes[worker];
        let job = loop {
            let lane = lanes.front_mut()?;
            let cost = lane.jobs.front().map_or(0, |j| j.cost);
            if lane.deficit < cost {
                lane.deficit += quantum;
                lanes.rotate_left(1);
                continue;
            }
            lane.deficit -= cost;
            let job = lane.jobs.pop_front();
            if lane.jobs.is_empty() {
                lanes.pop_front();
            }
            if let Some(job) = job {
                break job;
            }
        };
        cg_telemetry::global().broker.queue_depth.dec();
        let draining = matches!(self.phase, Phase::Draining(Some(_)));
        let waited = now.saturating_sub(job.enqueued);
        Some((job, waited, draining && self.queued(None) == 0))
    }

    /// Books a served job's outcome: rewrites a created session's
    /// worker-local id in `resp` to its global id and records its owner,
    /// and releases the slot on every path that destroys a session (end,
    /// fault, budget kill, failed create). A create whose connection
    /// closed while it was in flight is ended at once, on this same worker.
    pub(crate) fn settle(
        &mut self,
        worker: usize,
        now: Duration,
        owner: Owner,
        classes: Classes,
        target: Option<u64>,
        resp: &mut Response,
    ) {
        if classes.creates {
            match resp.session_id_mut() {
                Some(session_id) => {
                    let gid = *session_id * self.workers() + worker as u64;
                    *session_id = gid;
                    let orphan = owner.conn.is_some_and(|c| !self.open_conns.contains(&c));
                    self.sessions.insert(gid, owner);
                    if orphan {
                        self.end_orphan(gid, now);
                    }
                }
                None => self.slot(&owner.tenant, worker, false),
            }
        }
        let destroyed = matches!(resp, Response::Fatal(_) | Response::Budget(_));
        if let Some(gid) = target.filter(|_| classes.ends || destroyed) {
            if let Some(owner) = self.sessions.remove(&gid) {
                self.slot(&owner.tenant, (gid % self.workers()) as usize, false);
            }
        }
    }

    /// Admits a TCP connection under the connection cap; its id owns the
    /// sessions it creates.
    pub(crate) fn open_conn(&mut self) -> Result<u64, Refusal> {
        let cap = self.cfg.max_connections.max(1);
        if self.open_conns.len() >= cap {
            let reason = format!("connection cap {cap} reached");
            return Err(self.refusal(Rung::Closed, None, reason));
        }
        cg_telemetry::global().broker.connections.inc();
        self.next_conn += 1;
        self.open_conns.insert(self.next_conn);
        Ok(self.next_conn)
    }

    /// A TCP connection closed, however it ended: each session it created
    /// and never ended gets an `EndSession`, so a crashed or reconnecting
    /// client cannot strand its tenant's quota. Returns the workers to wake.
    pub(crate) fn close_conn(&mut self, conn: u64, now: Duration) -> Vec<usize> {
        if self.open_conns.remove(&conn) {
            cg_telemetry::global().broker.connections.dec();
        }
        let orphans: Vec<u64> = (self.sessions.iter())
            .filter_map(|(gid, owner)| (owner.conn == Some(conn)).then_some(*gid))
            .collect();
        (orphans.into_iter())
            .filter_map(|gid| self.end_orphan(gid, now))
            .collect()
    }

    /// Queues an `EndSession` for a session whose connection is gone. It
    /// bypasses the ladder (cleanup is never refused) and nobody awaits the
    /// reply; `settle` releases the slot. After a stop the exiting workers
    /// park the session instead. Returns the worker it was queued on.
    fn end_orphan(&mut self, gid: u64, now: Duration) -> Option<usize> {
        let owner = self.sessions.get(&gid).filter(|_| !self.stopped())?;
        let (worker, session_id) = ((gid % self.workers()) as usize, gid / self.workers());
        let job = Job {
            req: Request::EndSession { session_id },
            reply: None,
            owner: owner.clone(),
            cost: 1,
            target: Some(gid),
            enqueued: now,
        };
        self.enqueue(worker, job);
        Some(worker)
    }

    /// Closes admissions to new sessions. True the first time.
    pub(crate) fn begin_drain(&mut self) -> bool {
        let first = self.phase == Phase::Open;
        if first {
            self.phase = Phase::Draining(None);
        }
        first
    }

    /// Claims the drain for one caller, who lets the queues empty until
    /// `deadline`. False when another caller already owns it: wait for
    /// [`BrokerCore::report`].
    pub(crate) fn claim_drain(&mut self, deadline: Duration) -> bool {
        self.begin_drain();
        match &mut self.phase {
            Phase::Draining(d @ None) => *d = Some(deadline),
            _ => return false,
        }
        true
    }

    /// How much longer the claimed drain waits for queued work, or `None`
    /// once the queues are empty or the grace has expired.
    pub(crate) fn drain_wait(&self, now: Duration) -> Option<Duration> {
        match self.phase {
            Phase::Draining(Some(end)) if now < end && self.queued(None) > 0 => Some(end - now),
            _ => None,
        }
    }

    /// Stops the broker: every queued job is shed, and the workers exit at
    /// their next pop.
    pub(crate) fn stop(&mut self) -> Vec<Shed<R>> {
        self.phase = Phase::Stopped(None);
        let mut shed = Vec::new();
        for w in 0..self.lanes.len() {
            let jobs = std::mem::take(&mut self.lanes[w])
                .into_iter()
                .flat_map(|l| l.jobs);
            shed.extend(jobs.map(|job| self.shed(job, w, "drain grace expired")));
        }
        shed
    }

    /// The stopped broker's drain completed with `report`.
    pub(crate) fn finish(&mut self, report: DrainReport) {
        self.phase = Phase::Stopped(Some(report));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::broker::TenantQuota;

    type Core = BrokerCore<u32>;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn core(tune: impl FnOnce(&mut BrokerConfig)) -> Core {
        let mut cfg = BrokerConfig {
            workers: 1,
            ..BrokerConfig::default()
        };
        tune(&mut cfg);
        BrokerCore::new(cfg)
    }

    fn create() -> Request {
        Request::StartSession {
            benchmark: "b".into(),
            action_space: 0,
        }
    }

    fn step(gid: u64, actions: usize) -> Request {
        Request::Step {
            session_id: gid,
            actions: vec![0; actions],
            observation_spaces: vec![],
        }
    }

    fn admit(c: &mut Core, now: Duration, tenant: &str, req: Request, tag: u32) -> Queued<u32> {
        match c.submit(now, None, tenant, req, tag) {
            Ok(queued) => queued,
            Err(r) => panic!("request {tag} refused: {r:?}"),
        }
    }

    fn refuse(c: &mut Core, now: Duration, tenant: &str, req: Request) -> Refusal {
        match c.submit(now, None, tenant, req, 0) {
            Ok(_) => panic!("{tenant}'s request was admitted"),
            Err(refusal) => refusal,
        }
    }

    /// Pops worker `w`'s next job and settles it with `answer`: the job's
    /// tag and the settled response.
    fn serve(c: &mut Core, w: usize, answer: Response) -> (Option<u32>, Response) {
        let (job, _, _) = c.pop(w, Duration::ZERO).expect("a queued job");
        let mut resp = answer;
        let classes = job.req.classes();
        c.settle(w, Duration::ZERO, job.owner, classes, job.target, &mut resp);
        (job.reply, resp)
    }

    /// A session `tenant` started on worker `w` with local id `local`.
    fn established(c: &mut Core, tenant: &str, w: usize, local: u64) -> u64 {
        admit(c, Duration::ZERO, tenant, create(), 99);
        match serve(c, w, Response::SessionStarted { session_id: local }) {
            (_, Response::SessionStarted { session_id }) => session_id,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn each_rung_refuses_with_its_reason() {
        let mut c = core(|cfg| {
            cfg.max_sessions = 3;
            cfg.quota.max_sessions = 2;
        });
        let gid = established(&mut c, "alice", 0, 0);
        let r = refuse(&mut c, ms(0), "mallory", step(gid, 1));
        assert_eq!(
            (r.rung, r.reason.contains("not owned")),
            (Rung::Rejected, true)
        );
        admit(&mut c, ms(0), "alice", create(), 1);
        let r = refuse(&mut c, ms(0), "alice", create());
        assert_eq!(r.rung, Rung::Quota, "{}", r.reason);
        assert!(r.reason.contains("session quota 2"), "{}", r.reason);
        admit(&mut c, ms(0), "bob", create(), 2);
        let r = refuse(&mut c, ms(0), "bob", create());
        assert_eq!(r.rung, Rung::Closed);
        assert!(r.reason.contains("global session cap 3"), "{}", r.reason);
        assert!(c.begin_drain());
        let r = refuse(&mut c, ms(0), "carol", create());
        assert!(r.reason.contains("draining"), "{}", r.reason);
        assert_eq!(r.retry_after_ms, 4 * c.cfg.retry_after_ms);
        admit(&mut c, ms(0), "alice", step(gid, 1), 3);
        c.stop();
        let r = refuse(&mut c, ms(0), "alice", step(gid, 1));
        assert_eq!(
            (r.rung, r.reason.as_str()),
            (Rung::Closed, "broker stopped")
        );
    }

    #[test]
    fn token_bucket_refills_by_virtual_time() {
        let mut c = core(|cfg| {
            cfg.quota = TenantQuota {
                max_sessions: 4,
                actions_per_sec: 10.0,
                burst: 2.0,
            }
        });
        admit(&mut c, ms(0), "alice", step(7, 2), 1);
        let r = refuse(&mut c, ms(0), "alice", step(7, 1));
        assert_eq!((r.rung, r.retry_after_ms), (Rung::Quota, 100));
        assert!(r.reason.contains("rate quota"), "{}", r.reason);
        assert_eq!(
            refuse(&mut c, ms(50), "alice", step(7, 1)).retry_after_ms,
            50
        );
        admit(&mut c, ms(100), "alice", step(7, 1), 2);
        // Observation-only steps cost no tokens; other tenants have their
        // own bucket.
        admit(&mut c, ms(100), "alice", step(7, 0), 3);
        admit(&mut c, ms(100), "bob", step(8, 2), 4);
        // A batch beyond the burst drains a full bucket instead of never
        // fitting.
        admit(&mut c, ms(400), "alice", step(7, 5), 5);
        assert_eq!(
            refuse(&mut c, ms(400), "alice", step(7, 1)).retry_after_ms,
            100
        );
    }

    #[test]
    fn drr_serves_the_exact_quantum_order() {
        let mut c = core(|cfg| cfg.quantum = 2);
        for (tag, cost) in [(10, 3), (11, 1), (12, 1)] {
            admit(&mut c, ms(0), "a", step(0, cost), tag);
        }
        for tag in 20..24 {
            admit(&mut c, ms(0), "b", step(0, 1), tag);
        }
        let order: Vec<u32> = std::iter::from_fn(|| c.pop(0, ms(0)))
            .map(|(job, _, _)| job.reply.unwrap())
            .collect();
        // a's deficit needs two rounds to cover its cost-3 head, while b
        // serves two cost-1 jobs per quantum of 2.
        assert_eq!(order, [20, 21, 10, 11, 22, 23, 12]);
    }

    #[test]
    fn established_work_evicts_the_newest_queued_create() {
        let mut c = core(|cfg| cfg.max_queue_depth = 2);
        let gid = established(&mut c, "alice", 0, 0);
        admit(&mut c, ms(0), "alice", create(), 1);
        admit(&mut c, ms(0), "alice", create(), 2);
        assert_eq!(c.live_sessions(), 3);
        let queued = admit(&mut c, ms(0), "alice", step(gid, 1), 3);
        let (tag, refusal) = queued.evicted.expect("a create was evicted");
        assert_eq!((tag, refusal.rung), (Some(2), Rung::Shed));
        assert!(refusal.reason.contains("evicted"), "{}", refusal.reason);
        assert_eq!(c.live_sessions(), 2, "the evicted create's reservation");
        let r = refuse(&mut c, ms(0), "alice", create());
        assert_eq!(r.rung, Rung::Shed);
        assert!(r.reason.ends_with("queue depth 2 reached"), "{}", r.reason);
        let tags: Vec<_> = std::iter::from_fn(|| c.pop(0, ms(0)))
            .map(|p| p.0.reply)
            .collect();
        assert_eq!(tags, [Some(1), Some(3)]);
        admit(&mut c, ms(0), "alice", step(gid, 1), 4);
        admit(&mut c, ms(0), "alice", step(gid, 1), 5);
        let r = refuse(&mut c, ms(0), "alice", step(gid, 1));
        assert!(r.reason.contains("nothing evictable"), "{}", r.reason);
    }

    #[test]
    fn drain_sheds_the_queue_once_the_grace_expires() {
        let mut c = core(|_| {});
        let gid = established(&mut c, "alice", 0, 0);
        admit(&mut c, ms(1000), "alice", step(gid, 1), 1);
        admit(&mut c, ms(1000), "alice", create(), 2);
        assert!(c.claim_drain(ms(6000)));
        assert!(!c.claim_drain(ms(9000)), "one drainer");
        assert_eq!(c.drain_wait(ms(1000)), Some(ms(5000)));
        assert_eq!(c.drain_wait(ms(6000)), None, "the grace expired");
        let shed = c.stop();
        let tags: Vec<_> = shed.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, [Some(1), Some(2)]);
        assert!(shed
            .iter()
            .all(|(_, r)| r.reason.ends_with("drain grace expired")));
        assert_eq!(c.live_sessions(), 1, "the shed create's reservation");
        assert!(c.stopped() && c.pop(0, ms(6000)).is_none());
        assert!(c.report().is_none());
        let report = DrainReport {
            checkpointed: 1,
            shed_queued: 2,
            waited_ms: 5000,
        };
        c.finish(report.clone());
        assert_eq!(c.report(), Some(&report));
    }

    #[test]
    fn drain_wakes_its_drainer_when_the_queues_empty() {
        let mut c = core(|_| {});
        admit(&mut c, ms(0), "alice", step(0, 1), 1);
        admit(&mut c, ms(0), "alice", step(0, 1), 2);
        assert!(c.claim_drain(ms(5000)));
        assert!(!c.pop(0, ms(10)).unwrap().2);
        let (_, waited, wake_drainer) = c.pop(0, ms(30)).unwrap();
        assert_eq!((waited, wake_drainer), (ms(30), true));
        assert_eq!(c.drain_wait(ms(30)), None);
    }

    #[test]
    fn a_closed_connection_ends_its_sessions_and_its_create_in_flight() {
        let mut c = core(|cfg| {
            cfg.workers = 2;
            cfg.max_connections = 1;
        });
        let conn = c.open_conn().unwrap();
        assert!(c
            .open_conn()
            .unwrap_err()
            .reason
            .contains("connection cap 1"));
        let gid = established(&mut c, "alice", 0, 0);
        c.submit(ms(0), Some(conn), "alice", create(), 1).unwrap();
        let w = (0..2).find(|&w| !c.lanes[w].is_empty()).unwrap();
        let started = Response::SessionStarted { session_id: 0 };
        let (_, Response::SessionStarted { session_id: owned }) = serve(&mut c, w, started) else {
            panic!("create failed");
        };
        c.submit(ms(0), Some(conn), "alice", create(), 2).unwrap();
        let w2 = (0..2).find(|&w| !c.lanes[w].is_empty()).unwrap();
        let (in_flight, _, _) = c.pop(w2, ms(0)).unwrap();
        assert_eq!(c.live_sessions(), 3);
        assert_eq!(
            c.close_conn(conn, ms(0)),
            [w],
            "the in-process session stays"
        );
        let (tag, _) = serve(&mut c, w, Response::Ok);
        assert_eq!(tag, None, "nobody awaits an orphan's end");
        assert_eq!(c.live_sessions(), 2);
        // The create lands after its connection closed: ended at once.
        let mut resp = Response::SessionStarted { session_id: 1 };
        let classes = in_flight.req.classes();
        c.settle(w2, ms(0), in_flight.owner, classes, None, &mut resp);
        let (job, _, _) = c.pop(w2, ms(0)).unwrap();
        assert!(matches!(job.req, Request::EndSession { session_id: 1 }));
        assert_eq!(Some(job.target), Some(resp.session_id_mut().copied()));
        serve_job(&mut c, w2, job, Response::Ok);
        assert_eq!(c.live_sessions(), 1);
        assert!(c.sessions.contains_key(&gid) && !c.sessions.contains_key(&owned));
    }

    fn serve_job(c: &mut Core, w: usize, job: Job<u32>, mut resp: Response) {
        let classes = job.req.classes();
        c.settle(w, Duration::ZERO, job.owner, classes, job.target, &mut resp);
    }

    #[test]
    fn failed_creates_and_destroyed_sessions_hand_their_slot_back() {
        let mut c = core(|cfg| cfg.quota.max_sessions = 1);
        admit(&mut c, ms(0), "alice", create(), 1);
        assert_eq!(refuse(&mut c, ms(0), "alice", create()).rung, Rung::Quota);
        serve(&mut c, 0, Response::Error("no such benchmark".into()));
        assert_eq!(c.live_sessions(), 0);
        let gid = established(&mut c, "alice", 0, 0);
        admit(&mut c, ms(0), "alice", step(gid, 1), 2);
        serve(&mut c, 0, Response::Fatal("session panicked".into()));
        assert_eq!(c.live_sessions(), 0);
        established(&mut c, "alice", 0, 1);
    }

    #[test]
    fn a_flood_of_one_shot_tenants_leaves_only_tenants_with_state() {
        let mut c = core(|cfg| {
            cfg.quota = TenantQuota {
                max_sessions: 1,
                actions_per_sec: 10.0,
                burst: 2.0,
            }
        });
        let gid = established(&mut c, "holder", 0, 0);
        // An empty bucket is state until it refills, 200 ms later.
        admit(&mut c, ms(0), "spender", step(7, 2), 1);
        serve(&mut c, 0, Response::Ok);
        let flood = |c: &mut Core, names: std::ops::Range<u32>, now: Duration| {
            for i in names {
                admit(c, now, &format!("flood-{i}"), Request::Ping, i);
                serve(c, 0, Response::Pong);
            }
        };
        flood(&mut c, 0..5_000, ms(100));
        assert!(c.tenants.len() <= 4, "{} tenant entries", c.tenants.len());
        let r = refuse(&mut c, ms(100), "spender", step(7, 2));
        assert_eq!((r.rung, r.retry_after_ms), (Rung::Quota, 100), "the bucket");
        assert_eq!(
            refuse(&mut c, ms(100), "holder", create()).rung,
            Rung::Quota
        );
        flood(&mut c, 5_000..10_000, ms(1000));
        assert!(c.tenants.len() <= 2, "{} tenant entries", c.tenants.len());
        assert!(c.tenants.contains_key("holder") && !c.tenants.contains_key("spender"));
        admit(
            &mut c,
            ms(1000),
            "holder",
            Request::EndSession { session_id: gid },
            2,
        );
        serve(&mut c, 0, Response::Ok);
        assert_eq!((c.live_sessions(), c.tenants["holder"].live), (0, 0));
    }

    /// A splitmix64 stream: the seed picks every event.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// What the model expects of an admitted request.
    struct Pending {
        tenant: &'static str,
        create: bool,
        /// The worker a create reserved its slot on.
        worker: usize,
        queued: bool,
    }

    const TENANTS: [&str; 3] = ["a", "b", "c"];
    const RATE: f64 = 40.0;
    const BURST: f64 = 4.0;

    /// Each tenant's token bucket in the model: tokens and when they were
    /// last refilled.
    type Buckets = BTreeMap<&'static str, (f64, Duration)>;

    /// A bucket's tokens at `now`; a tenant without one has a full bucket.
    fn refill(bucket: Option<(f64, Duration)>, now: Duration) -> f64 {
        let (tokens, refilled) = bucket.unwrap_or((BURST, now));
        (tokens + RATE * now.saturating_sub(refilled).as_secs_f64()).min(BURST)
    }

    /// Charges `actions` to `tenant`'s bucket; false when its tokens do not
    /// cover the batch (a batch beyond the burst costs the whole burst).
    fn spend(buckets: &mut Buckets, tenant: &'static str, now: Duration, actions: u64) -> bool {
        let tokens = refill(buckets.get(tenant).copied(), now);
        let need = (actions as f64).min(BURST);
        let paid = tokens >= need;
        buckets.insert(tenant, (tokens - [0.0, need][usize::from(paid)], now));
        paid
    }

    /// Drives one core with `events` seeded events (requests from three
    /// tenants over connections that open and close, workers taking and
    /// finishing jobs, time passing, a drain) and checks, after each, the
    /// invariants against an independent model of what was admitted.
    fn simulate(seed: u64, events: usize) {
        let mut c = core(|cfg| {
            cfg.workers = 2;
            cfg.max_sessions = 6;
            cfg.max_queue_depth = 3;
            cfg.max_connections = 3;
            cfg.quantum = 2;
            cfg.quota = TenantQuota {
                max_sessions: 3,
                actions_per_sec: RATE,
                burst: BURST,
            };
        });
        let mut rng = Rng(seed);
        let mut now = Duration::ZERO;
        let mut pending: BTreeMap<u32, Pending> = BTreeMap::new();
        // Established sessions: gid → (tenant, connection).
        let mut live: BTreeMap<u64, (&str, Option<u64>)> = BTreeMap::new();
        let mut buckets = Buckets::new();
        let mut in_flight: Vec<Option<Job<u32>>> = vec![None, None];
        let mut next_local = [0u64; 2];
        let mut conns: Vec<u64> = Vec::new();
        let mut stopped = false;
        for tag in 1..=events as u32 {
            let (event, tenant) = (rng.below(20), TENANTS[rng.below(3) as usize]);
            let w = rng.below(2) as usize;
            // The n-th established session in id order, n drawn by the seed.
            let session = if (4..=9).contains(&event) && !live.is_empty() {
                live.keys()
                    .nth(rng.below(live.len() as u64) as usize)
                    .copied()
            } else {
                None
            };
            match event {
                0..=3 => {
                    let conn = conns
                        .get(rng.below(conns.len() as u64 + 1) as usize)
                        .copied();
                    match c.submit(now, conn, tenant, create(), tag) {
                        Ok(q) => {
                            assert!(q.evicted.is_none());
                            let (worker, queued) = (q.wake.start, true);
                            let p = Pending {
                                tenant,
                                create: true,
                                worker,
                                queued,
                            };
                            pending.insert(tag, p);
                        }
                        Err(r) => assert_ne!(r.rung, Rung::Rejected, "{}", r.reason),
                    }
                }
                4..=8 => {
                    let Some(gid) = session else { continue };
                    let owner = live[&gid].0;
                    let (req, actions) = if rng.below(6) == 0 {
                        (Request::EndSession { session_id: gid }, 0)
                    } else {
                        let actions = rng.below(4);
                        (step(gid, actions as usize), actions)
                    };
                    // A stopped broker refuses before the rate quota.
                    let paid = stopped || actions == 0 || spend(&mut buckets, owner, now, actions);
                    match c.submit(now, None, owner, req, tag) {
                        Ok(q) => {
                            assert!(paid, "admitted past an empty bucket");
                            if let Some((evicted, _)) = q.evicted {
                                let victim = pending.remove(&evicted.unwrap()).unwrap();
                                assert!(victim.create && victim.queued, "only creates are shed");
                                assert_eq!(victim.tenant, owner);
                            }
                            let p = Pending {
                                tenant: owner,
                                create: false,
                                worker: 0,
                                queued: true,
                            };
                            pending.insert(tag, p);
                        }
                        // An established session is refused only by its
                        // rate quota, by a queue with no create to evict,
                        // or by a stopped broker.
                        Err(r) if r.reason.contains("rate quota") => assert!(!paid),
                        Err(r) if r.reason.contains("nothing evictable") => {
                            let creates = pending.values();
                            let mut queued = creates.filter(|p| p.queued && p.create);
                            assert!(!queued.any(|p| p.tenant == owner), "{}", r.reason);
                        }
                        Err(r) => assert!(stopped, "established work refused: {}", r.reason),
                    }
                }
                9 => {
                    let Some(gid) = session else { continue };
                    let other = TENANTS.into_iter().find(|t| *t != live[&gid].0).unwrap();
                    let r = c.submit(now, None, other, step(gid, 1), tag).err().unwrap();
                    assert_eq!(r.rung, [Rung::Rejected, Rung::Closed][usize::from(stopped)]);
                }
                10..=12 if in_flight[w].is_none() => {
                    if let Some((job, waited, _)) = c.pop(w, now) {
                        assert!(waited <= now);
                        if let Some(p) = job.reply.and_then(|tag| pending.get_mut(&tag)) {
                            p.queued = false;
                        }
                        in_flight[w] = Some(job);
                    }
                }
                10..=15 => {
                    let Some(job) = in_flight[w].take() else {
                        continue;
                    };
                    let classes = job.req.classes();
                    let known = job.target.is_some_and(|gid| live.contains_key(&gid));
                    let mut resp = match () {
                        _ if classes.creates && rng.below(5) > 0 => {
                            next_local[w] += 1;
                            Response::SessionStarted {
                                session_id: next_local[w],
                            }
                        }
                        _ if !known => Response::Error("no such session".into()),
                        _ if !classes.ends && rng.below(10) == 0 => Response::Fatal("".into()),
                        _ => Response::Ok,
                    };
                    let (owner, target) = (job.owner.clone(), job.target);
                    c.settle(w, now, job.owner, classes, target, &mut resp);
                    if let Some(tag) = job.reply {
                        pending.remove(&tag);
                    }
                    if let Response::SessionStarted { session_id } = resp {
                        assert_eq!(session_id % 2, w as u64);
                        let tenant = TENANTS.into_iter().find(|t| *t == owner.tenant);
                        live.insert(session_id, (tenant.unwrap(), owner.conn));
                    }
                    if classes.ends || matches!(resp, Response::Fatal(_)) {
                        live.remove(&target.unwrap());
                    }
                }
                16 if !conns.is_empty() => {
                    let conn = conns.swap_remove(rng.below(conns.len() as u64) as usize);
                    for worker in c.close_conn(conn, now) {
                        let owned = live.iter().filter(|(_, o)| o.1 == Some(conn));
                        assert!(owned.map(|(gid, _)| *gid % 2).any(|g| g == worker as u64));
                    }
                }
                16 | 17 => match c.open_conn() {
                    Ok(conn) => {
                        conns.push(conn);
                        assert!(conns.len() <= 3, "over the connection cap");
                    }
                    Err(r) => assert_eq!(conns.len(), 3, "{}", r.reason),
                },
                18 => now += ms(rng.below(200)),
                // Claim the drain, then, the next time, let its grace expire.
                _ if rng.below(4) == 0 && !stopped && !c.claim_drain(now) => {
                    for (tag, r) in c.stop() {
                        assert_eq!(r.rung, Rung::Shed);
                        if let Some(p) = tag.and_then(|tag| pending.remove(&tag)) {
                            assert!(p.queued);
                        }
                    }
                    assert!(!pending.values().any(|p| p.queued), "stop sheds the queue");
                    stopped = true;
                }
                _ => {}
            }
            check(&c, now, &pending, &live, &buckets);
        }
    }

    /// The core's books agree with each other and with the model.
    fn check(
        c: &Core,
        now: Duration,
        pending: &BTreeMap<u32, Pending>,
        live: &BTreeMap<u64, (&str, Option<u64>)>,
        buckets: &Buckets,
    ) {
        assert!(c.live_sessions() <= c.cfg.max_sessions, "global cap");
        assert_eq!(c.sessions.len(), live.len(), "established sessions");
        let (mut per_tenant, mut per_worker, mut queued) = ([0; 3], [0; 2], 0);
        let index = |tenant| TENANTS.iter().position(|t| *t == tenant).unwrap();
        for (gid, (tenant, _)) in live {
            per_tenant[index(*tenant)] += 1;
            per_worker[(gid % 2) as usize] += 1;
        }
        for p in pending.values() {
            queued += usize::from(p.queued);
            if p.create {
                per_tenant[index(p.tenant)] += 1;
                per_worker[p.worker] += 1;
            }
        }
        for (gid, owner) in &c.sessions {
            assert_eq!(live.get(gid).map(|o| o.0), Some(owner.tenant.as_str()));
        }
        // A tenant the map forgot must have had nothing a fresh entry lacks.
        for (tenant, slots) in TENANTS.into_iter().zip(per_tenant) {
            let t = c.tenants.get(tenant);
            assert_eq!(t.map_or(0, |t| t.live), slots, "tenant {tenant}'s slots");
            assert!(
                slots <= c.cfg.quota.max_sessions,
                "tenant {tenant} over quota"
            );
            let tokens = refill(t.map(|t| (t.tokens, t.refilled)), now);
            let model = refill(buckets.get(tenant).copied(), now);
            assert_eq!(tokens, model, "tenant {tenant}'s bucket");
        }
        assert!(
            c.tenants.len() <= c.sweep_at,
            "the tenant map outgrew its sweep"
        );
        assert_eq!(c.live_per_worker, per_worker, "per-worker slots");
        assert_eq!(
            per_tenant.iter().sum::<usize>(),
            c.live_sessions(),
            "total slots"
        );
        let jobs = c.lanes.iter().flatten().flat_map(|l| &l.jobs);
        let orphan_ends = jobs.filter(|j| j.reply.is_none()).count();
        assert_eq!(c.queued(None), queued + orphan_ends, "queued jobs");
        assert!(
            c.lanes.iter().flatten().all(|l| !l.jobs.is_empty()),
            "no empty lane"
        );
    }

    #[test]
    fn seeded_event_streams_keep_the_books_and_the_caps() {
        for seed in 0..1000 {
            simulate(seed, 200);
        }
    }
}
