//! Parallel evaluation over a pool of in-process environments.
//!
//! Search throughput in this codebase is bounded by sequence evaluation:
//! every candidate costs a `reset` plus one pass pipeline. [`EnvPool`] runs
//! N worker threads, each owning its own [`CompilerEnv`] (service, session
//! table and all — workers share *nothing* mutable except the evaluation
//! cache and the work queue), fed from one queue. A worker whose env comes
//! from [`crate::make`] is one thread: its compiler runs inline, on the
//! worker itself. The surfaces:
//!
//! * [`EnvPool::evaluate_batch`] — fire-and-collect sequence evaluation
//!   with per-job fault isolation: a job that errors, blows a budget, or
//!   panics produces an errored [`Outcome`] while its siblings complete
//!   (the worker rebuilds its environment and keeps draining the queue);
//! * [`EnvPool::reset_all`] / [`EnvPool::step_all`] — vectorized RL-style
//!   stepping, one concurrent episode per worker;
//! * a shared [`EvalCache`]: exact repeats cost a map lookup, and novel
//!   sequences restore the deepest cached prefix snapshot, paying only for
//!   their novel suffix.
//!
//! Utilization and cache traffic surface in `cg stats` via
//! `cg_telemetry::PoolStats`.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::env::{CompilerEnv, StepResult};
use crate::error::CgError;
use crate::evalcache::EvalCache;
use crate::service::PASS_THREAD_STACK;
use crate::space::Observation;

/// Builds a worker's environment. Called lazily on the worker thread (index
/// as argument) the first time it needs an environment, and again after a
/// panic poisons the previous one.
pub type EnvFactory = Arc<dyn Fn(usize) -> Result<CompilerEnv, CgError> + Send + Sync>;

/// One evaluation request: apply `actions` to `benchmark` from a fresh
/// episode and report the episode reward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionSeq {
    /// Benchmark URI to evaluate on.
    pub benchmark: String,
    /// The full action sequence, in the worker environment's action space.
    pub actions: Vec<usize>,
}

/// The result of evaluating one [`ActionSeq`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Episode reward of the sequence (`NEG_INFINITY` on error).
    pub score: f64,
    /// Reward metric after the last action (`NAN` on error).
    pub metric: f64,
    /// Whether the result came from the exact cache.
    pub cached: bool,
    /// The failure, if the job did not complete.
    pub error: Option<String>,
}

impl Outcome {
    fn failed(error: String) -> Outcome {
        Outcome {
            score: f64::NEG_INFINITY,
            metric: f64::NAN,
            cached: false,
            error: Some(error),
        }
    }
}

struct Job {
    index: usize,
    seq: ActionSeq,
    reply: Sender<(usize, Outcome)>,
}

/// Per-worker control messages. `Wake` nudges a worker to re-scan the
/// shared job queue (the queue itself carries no wakeup signal).
enum Cmd {
    Reset {
        reply: Sender<Result<Observation, CgError>>,
    },
    Step {
        action: usize,
        reply: Sender<Result<StepResult, CgError>>,
    },
    Wake,
}

/// A fixed-size pool of worker threads, each owning an in-process
/// [`CompilerEnv`]. See the module docs for the full contract.
pub struct EnvPool {
    cache: Arc<EvalCache>,
    queue: Arc<Mutex<VecDeque<Job>>>,
    cmd_txs: Vec<Sender<Cmd>>,
    handles: Vec<JoinHandle<()>>,
}

impl EnvPool {
    /// Spawns `workers` threads with a fresh default-capacity cache.
    pub fn new(workers: usize, factory: EnvFactory) -> EnvPool {
        EnvPool::with_cache(workers, factory, Arc::new(EvalCache::default()))
    }

    /// Spawns `workers` threads sharing `cache` (several pools — or a pool
    /// and a serial searcher — may share one cache).
    pub fn with_cache(workers: usize, factory: EnvFactory, cache: Arc<EvalCache>) -> EnvPool {
        let workers = workers.max(1);
        let queue: Arc<Mutex<VecDeque<Job>>> = Arc::new(Mutex::new(VecDeque::new()));
        let mut cmd_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for widx in 0..workers {
            let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<Cmd>();
            cmd_txs.push(cmd_tx);
            let f = Arc::clone(&factory);
            let c = Arc::clone(&cache);
            let q = Arc::clone(&queue);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cg-pool-{widx}"))
                    // An inline environment runs its passes right here.
                    .stack_size(PASS_THREAD_STACK)
                    .spawn(move || worker_main(widx, &f, &c, &q, &cmd_rx))
                    .expect("spawn pool worker"),
            );
        }
        cg_telemetry::global().pool.workers.set(workers as i64);
        EnvPool {
            cache,
            queue,
            cmd_txs,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The shared evaluation cache.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// Evaluates a batch of sequences across the pool, returning outcomes
    /// in request order. Jobs are independent: any job's failure (error or
    /// panic in the backing compiler) is reported in its own [`Outcome`]
    /// without stalling or poisoning the rest of the batch.
    pub fn evaluate_batch(&self, jobs: Vec<ActionSeq>) -> Vec<Outcome> {
        let tel = cg_telemetry::global();
        let timer = cg_telemetry::Timer::start();
        let n = jobs.len();
        let (reply_tx, reply_rx) = bounded::<(usize, Outcome)>(n.max(1));
        {
            let mut q = self.queue.lock();
            for (index, seq) in jobs.into_iter().enumerate() {
                tel.pool.queue_depth.inc();
                q.push_back(Job {
                    index,
                    seq,
                    reply: reply_tx.clone(),
                });
            }
        }
        drop(reply_tx);
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Wake);
        }
        let mut out: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
        while let Ok((i, o)) = reply_rx.recv() {
            out[i] = Some(o);
        }
        timer.observe(&tel.pool.batch_wall);
        out.into_iter()
            .map(|o| o.unwrap_or_else(|| Outcome::failed("pool worker lost".into())))
            .collect()
    }

    /// Starts one episode on every worker concurrently, returning each
    /// worker's initial observation (vectorized `reset`).
    pub fn reset_all(&self) -> Vec<Result<Observation, CgError>> {
        let channels: Vec<_> = self
            .cmd_txs
            .iter()
            .map(|tx| {
                let (reply, rx) = bounded(1);
                let sent = tx.send(Cmd::Reset { reply }).is_ok();
                (rx, sent)
            })
            .collect();
        channels
            .into_iter()
            .map(|(rx, sent)| recv_worker(rx, sent))
            .collect()
    }

    /// Applies `actions[i]` on worker `i`'s episode concurrently
    /// (vectorized `step`).
    ///
    /// # Panics
    /// Panics if `actions.len()` differs from the worker count.
    pub fn step_all(&self, actions: &[usize]) -> Vec<Result<StepResult, CgError>> {
        assert_eq!(actions.len(), self.cmd_txs.len(), "one action per worker");
        let channels: Vec<_> = self
            .cmd_txs
            .iter()
            .zip(actions)
            .map(|(tx, &action)| {
                let (reply, rx) = bounded(1);
                let sent = tx.send(Cmd::Step { action, reply }).is_ok();
                (rx, sent)
            })
            .collect();
        channels
            .into_iter()
            .map(|(rx, sent)| recv_worker(rx, sent))
            .collect()
    }
}

fn recv_worker<T>(rx: Receiver<Result<T, CgError>>, sent: bool) -> Result<T, CgError> {
    if !sent {
        return Err(CgError::ServiceFailure("pool worker lost".into()));
    }
    rx.recv()
        .unwrap_or_else(|_| Err(CgError::ServiceFailure("pool worker lost".into())))
}

impl Drop for EnvPool {
    fn drop(&mut self) {
        // Disconnect the command channels; each worker finishes what it
        // holds, sees the disconnect, and exits. Joining keeps telemetry
        // counters quiescent for callers that snapshot right after
        // dropping the pool.
        self.cmd_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        cg_telemetry::global().pool.workers.set(0);
    }
}

fn worker_main(
    widx: usize,
    factory: &EnvFactory,
    cache: &Arc<EvalCache>,
    queue: &Mutex<VecDeque<Job>>,
    cmd_rx: &Receiver<Cmd>,
) {
    let mut env: Option<CompilerEnv> = None;
    loop {
        // Drain the shared job queue before blocking on commands. The lock
        // guards only the dequeue (in edition 2021 a `while let` on
        // `queue.lock().pop_front()` would hold the guard across the job,
        // serializing the pool).
        loop {
            let job = queue.lock().pop_front();
            match job {
                Some(job) => run_job(widx, &mut env, factory, cache, job),
                None => break,
            }
        }
        match cmd_rx.recv() {
            Err(_) => break,
            Ok(Cmd::Wake) => {}
            Ok(Cmd::Reset { reply }) => {
                let r = guarded(&mut env, factory, widx, |e| e.reset());
                let _ = reply.send(r);
            }
            Ok(Cmd::Step { action, reply }) => {
                let r = guarded(&mut env, factory, widx, |e| e.step(action));
                let _ = reply.send(r);
            }
        }
    }
}

/// Runs `f` over the worker's environment (building it on demand) under
/// panic isolation; a panic poisons the environment, which is rebuilt on
/// the next call.
fn guarded<T>(
    env: &mut Option<CompilerEnv>,
    factory: &EnvFactory,
    widx: usize,
    f: impl FnOnce(&mut CompilerEnv) -> Result<T, CgError>,
) -> Result<T, CgError> {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if env.is_none() {
            *env = Some(factory(widx)?);
        }
        f(env.as_mut().expect("just built"))
    }));
    match run {
        Ok(r) => r,
        Err(_) => {
            cg_telemetry::global().pool.job_panics.inc();
            *env = None;
            Err(CgError::ServiceFailure(format!(
                "pool worker {widx} panicked"
            )))
        }
    }
}

fn run_job(
    widx: usize,
    env: &mut Option<CompilerEnv>,
    factory: &EnvFactory,
    cache: &Arc<EvalCache>,
    job: Job,
) {
    let tel = cg_telemetry::global();
    tel.pool.queue_depth.dec();
    let timer = cg_telemetry::Timer::start();
    // Each job is its own trace: pool workers interleave many benchmarks,
    // so a per-job root keeps every env/rpc span it causes attributable.
    let mut span = tel.trace.root_span("pool:job");
    span.attr("worker", widx.to_string());
    span.attr("benchmark", job.seq.benchmark.clone());
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        evaluate_seq(env, factory, widx, cache, &job.seq)
    }));
    let outcome = match run {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            tel.pool.job_errors.inc();
            span.set_status(cg_telemetry::SpanStatus::Error);
            span.set_detail(e.to_string());
            Outcome::failed(e.to_string())
        }
        Err(_) => {
            // The environment (and its service client) may be mid-request:
            // drop it and rebuild lazily. The cache is only written *after*
            // a successful evaluation, so a panicking job cannot poison it.
            tel.pool.job_panics.inc();
            *env = None;
            span.set_status(cg_telemetry::SpanStatus::Error);
            span.set_detail("evaluation panicked");
            Outcome::failed(format!("evaluation panicked on pool worker {widx}"))
        }
    };
    tel.pool.jobs.inc();
    timer.observe(&tel.pool.job_wall);
    let _ = job.reply.send((job.index, outcome));
}

fn evaluate_seq(
    env_slot: &mut Option<CompilerEnv>,
    factory: &EnvFactory,
    widx: usize,
    cache: &EvalCache,
    seq: &ActionSeq,
) -> Result<Outcome, CgError> {
    if let Some(hit) = cache.lookup(&seq.benchmark, &seq.actions) {
        cg_telemetry::global()
            .pool
            .actions_saved
            .add(seq.actions.len() as u64);
        return Ok(Outcome {
            score: hit.score,
            metric: hit.metric,
            cached: true,
            error: None,
        });
    }
    if env_slot.is_none() {
        *env_slot = Some(factory(widx)?);
    }
    let env = env_slot.as_mut().expect("just built");
    env.set_benchmark(&seq.benchmark);
    let tel = cg_telemetry::global();
    let interval = cache.snapshot_interval();
    let mut depth = 0usize;
    let mut restored = false;
    if let Some((d, snap)) = cache.longest_prefix(&seq.benchmark, &seq.actions) {
        if env.restore_snapshot(&snap).is_ok() {
            depth = d;
            restored = true;
            tel.pool.prefix_hits.inc();
            tel.pool.actions_saved.add(d as u64);
        }
    }
    if !restored {
        env.reset()?;
    }
    while depth < seq.actions.len() {
        // Step to the next snapshot boundary in one batched round trip.
        let end = ((depth / interval + 1) * interval).min(seq.actions.len());
        env.step_batched(&seq.actions[depth..end])?;
        tel.pool.actions_executed.add((end - depth) as u64);
        depth = end;
        if depth.is_multiple_of(interval) {
            // Deposit the prefix for future searches; best effort (a
            // backend without state export just skips the trie).
            if let Ok(snap) = env.episode_snapshot() {
                cache.store_snapshot(snap);
            }
        }
    }
    let score = env.episode_reward();
    let metric = env.last_metric();
    cache.insert(&seq.benchmark, &seq.actions, score, metric);
    Ok(Outcome {
        score,
        metric,
        cached: false,
        error: None,
    })
}
