//! Probes of layers that are not rungs of the step ladder: telemetry
//! primitives, the IR parser and printer, the pool and its eval cache, and
//! the transition store with its replay environment. Each takes the traced
//! run's script, so its numbers are for this workload's inputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cg_core::{ActionSeq, EnvPool, EvalCache};
use cg_llvm::action_space::ActionSpace;
use cg_stdb::{StoreConfig, TransitionStore};

use super::ladder::{drive_env, mean_us, EnvNames, Rung, TraceScript};
use crate::gen::{Episode, Rng, NUM_ACTIONS};
use crate::span::Recorder;
use crate::workloads::replay_store::OpenStore;
use crate::workloads::search_pool::{env_factory, jobs_of, POOL_WORKERS};

type Metrics = BTreeMap<&'static str, f64>;

/// `telemetry.span_ns`: open and finish one root span on the global trace
/// buffer, as `CompilerEnv::step_lazy` does once per step.
/// `telemetry.histogram_record_ns`: one `Histogram::record`.
pub fn telemetry(out: &mut Metrics) {
    const SPANS: u32 = 20_000;
    const RECORDS: u32 = 200_000;
    let tel = cg_telemetry::global();
    let started = Instant::now();
    for _ in 0..SPANS {
        tel.trace.root_span("perfbench:probe").finish();
    }
    out.insert(
        "telemetry.span_ns",
        started.elapsed().as_nanos() as f64 / f64::from(SPANS),
    );
    let hist = cg_telemetry::Histogram::new();
    let started = Instant::now();
    for i in 0..RECORDS {
        hist.record(std::hint::black_box(u64::from(i % 4096)));
    }
    out.insert(
        "telemetry.histogram_record_ns",
        started.elapsed().as_nanos() as f64 / f64::from(RECORDS),
    );
    std::hint::black_box(hist.count());
}

/// `ir.printer.us_per_kinst`, `ir.parser.us_per_kinst`: print and re-parse
/// each distinct program of the script (at most 24).
///
/// # Errors
/// Dataset or parse failures.
pub fn parser_printer(
    script: &TraceScript,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let (mut print_ns, mut parse_ns, mut insts) = (0u64, 0u64, 0u64);
    for episode in &script.episodes {
        if seen.len() >= 24 || !seen.insert(&episode.benchmark) {
            continue;
        }
        let m = cg_datasets::benchmark(&episode.benchmark).map_err(|e| e.to_string())?;
        insts += cg_llvm::reward::ir_instruction_count(&m);
        let span = rec.begin("ir.printer.print_module", None, 0);
        let text = cg_ir::printer::print_module(&m);
        print_ns += rec.end(span);
        let span = rec.begin("ir.parser.parse_module", None, 0);
        let parsed = cg_ir::parser::parse_module(&text);
        parse_ns += rec.end(span);
        parsed.map_err(|e| format!("{}: {e}", episode.benchmark))?;
    }
    let kinst = insts.max(1) as f64 / 1e3;
    out.insert("ir.printer.us_per_kinst", print_ns as f64 / 1e3 / kinst);
    out.insert("ir.parser.us_per_kinst", parse_ns as f64 / 1e3 / kinst);
    Ok(())
}

fn evaluate_stream(pool: &EnvPool, stream: &[Vec<ActionSeq>]) -> (f64, u64, u64) {
    let mut failed = 0;
    let mut actions = 0;
    let started = Instant::now();
    for jobs in stream {
        actions += jobs.iter().map(|j| j.actions.len()).sum::<usize>() as u64;
        let outcomes = pool.evaluate_batch(jobs.clone());
        failed += outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
    }
    (started.elapsed().as_secs_f64(), actions, failed)
}

/// The pool and its cache on `stream` (generations of sequences):
/// throughput with 1 and with 2 workers on an empty cache each, the cache
/// ratios and the busy ratio of the 2-worker run from the pool's own
/// counters, dispatch cost from a batch of 1-action jobs, and the cost of
/// each cache call from a serial evaluation that does in this thread what
/// a pool worker does. Returns the failures seen.
///
/// # Errors
/// Environment construction errors.
pub fn pool_and_cache(
    stream: &[Vec<Episode>],
    rec: &mut Recorder,
    out: &mut Metrics,
) -> Result<u64, String> {
    let jobs: Vec<Vec<ActionSeq>> = stream.iter().map(|g| jobs_of(g)).collect();
    let tel = cg_telemetry::global();
    let mut failed = 0;

    // Each pool builds its workers' environments outside the measured
    // window, on the first generation, and starts from an empty cache.
    let first = jobs.first().cloned().unwrap_or_default();
    let one = EnvPool::with_cache(1, env_factory(), Arc::new(EvalCache::default()));
    one.evaluate_batch(first.clone());
    one.cache().clear();
    let (secs_1, _, f) = evaluate_stream(&one, &jobs);
    failed += f;
    drop(one);

    let two = EnvPool::with_cache(POOL_WORKERS, env_factory(), Arc::new(EvalCache::default()));
    two.evaluate_batch(first);
    two.cache().clear();
    let before = tel.pool.snapshot();
    let (secs_2, _, f) = evaluate_stream(&two, &jobs);
    failed += f;
    let after = tel.pool.snapshot();
    let d = |a: u64, b: u64| (a - b) as f64;
    let hits = d(after.cache_hits, before.cache_hits);
    let misses = d(after.cache_misses, before.cache_misses);
    let saved = d(after.actions_saved, before.actions_saved);
    let executed = d(after.actions_executed, before.actions_executed);
    let ratio = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    out.insert("core.evalcache.hit_ratio", ratio(hits, hits + misses));
    out.insert(
        "core.evalcache.prefix_hit_ratio",
        ratio(d(after.prefix_hits, before.prefix_hits), misses),
    );
    out.insert(
        "core.evalcache.actions_saved_ratio",
        ratio(saved, saved + executed),
    );
    out.insert(
        "core.pool.worker_busy_ratio",
        ratio(
            d(after.job_wall.sum_micros, before.job_wall.sum_micros),
            POOL_WORKERS as f64 * d(after.batch_wall.sum_micros, before.batch_wall.sum_micros),
        ),
    );
    out.insert("core.pool.speedup_2_workers", ratio(secs_1, secs_2));

    // Dispatch: 1-action jobs that all hit the cache after the first, so a
    // job is little more than a queue hand-off, a lookup and a reply.
    let probe = ActionSeq {
        benchmark: stream
            .first()
            .and_then(|g| g.first())
            .map_or_else(|| crate::gen::cbench("qsort"), |e| e.benchmark.clone()),
        actions: vec![0],
    };
    two.evaluate_batch(vec![probe.clone()]);
    const DISPATCHED: usize = 256;
    let span = rec.begin("core.pool.evaluate_batch.dispatch", None, 0);
    let outcomes = two.evaluate_batch(vec![probe; DISPATCHED]);
    let ns = rec.end(span);
    failed += outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
    out.insert("core.pool.dispatch_us", ns as f64 / 1e3 / DISPATCHED as f64);
    drop(two);

    let (totals, f) = serial_evaluation(stream, rec)?;
    failed += f;
    out.insert("core.evalcache.lookup_us", mean_us(totals.lookup));
    out.insert(
        "core.evalcache.longest_prefix_us",
        mean_us(totals.longest_prefix),
    );
    out.insert("core.evalcache.insert_us", mean_us(totals.insert));
    out.insert("core.env.restore_snapshot_us", mean_us(totals.restore));
    out.insert("core.env.episode_snapshot_us", mean_us(totals.snapshot));
    Ok(failed)
}

/// Opens a child span of `parent` and counts the call in `total`.
fn span_in(rec: &mut Recorder, name: &'static str, parent: u32, total: &mut (u64, u64)) -> u32 {
    total.1 += 1;
    rec.begin(name, Some(parent), 0)
}

#[derive(Default)]
struct CacheTotals {
    lookup: (u64, u64),
    longest_prefix: (u64, u64),
    insert: (u64, u64),
    restore: (u64, u64),
    snapshot: (u64, u64),
}

/// What a pool worker does for each sequence (`lookup`, `longest_prefix`,
/// `restore_snapshot` or `reset`, `step_batched` to each snapshot boundary,
/// `episode_snapshot` + `store_snapshot`, `insert`), done here through the
/// same public calls with a span around each. Returns the totals and how
/// many evaluations failed.
fn serial_evaluation(
    stream: &[Vec<Episode>],
    rec: &mut Recorder,
) -> Result<(CacheTotals, u64), String> {
    let cache = EvalCache::default();
    let mut env = cg_core::make("llvm-v0").map_err(|e| e.to_string())?;
    let interval = cache.snapshot_interval();
    let mut t = CacheTotals::default();
    let mut failed = 0;
    for (g, generation) in stream.iter().enumerate() {
        for seq in generation {
            let job = rec.begin("core.evalcache.evaluate", None, g as u32);
            let s = span_in(rec, "core.evalcache.lookup", job, &mut t.lookup);
            let hit = cache.lookup(&seq.benchmark, &seq.actions);
            t.lookup.0 += rec.end(s);
            if hit.is_some() {
                rec.end(job);
                continue;
            }
            env.set_benchmark(&seq.benchmark);
            let s = span_in(
                rec,
                "core.evalcache.longest_prefix",
                job,
                &mut t.longest_prefix,
            );
            let prefix = cache.longest_prefix(&seq.benchmark, &seq.actions);
            t.longest_prefix.0 += rec.end(s);
            let mut depth = 0;
            if let Some((d, snap)) = prefix {
                let s = span_in(rec, "core.env.restore_snapshot", job, &mut t.restore);
                let restored = env.restore_snapshot(&snap);
                t.restore.0 += rec.end(s);
                if restored.is_ok() {
                    depth = d;
                }
            }
            let mut ok = true;
            if depth == 0 {
                let s = rec.begin("core.env.reset", Some(job), 0);
                ok = env.reset().is_ok();
                rec.end(s);
            }
            while ok && depth < seq.actions.len() {
                let end = ((depth / interval + 1) * interval).min(seq.actions.len());
                let s = rec.begin("core.env.step_batched", Some(job), 0);
                ok = env.step_batched(&seq.actions[depth..end]).is_ok();
                rec.end(s);
                depth = end;
                if ok && depth % interval == 0 {
                    let s = span_in(rec, "core.env.episode_snapshot", job, &mut t.snapshot);
                    if let Ok(snap) = env.episode_snapshot() {
                        cache.store_snapshot(snap);
                    }
                    t.snapshot.0 += rec.end(s);
                }
            }
            if ok {
                let s = span_in(rec, "core.evalcache.insert", job, &mut t.insert);
                cache.insert(
                    &seq.benchmark,
                    &seq.actions,
                    env.episode_reward(),
                    env.last_metric(),
                );
                t.insert.0 += rec.end(s);
            } else {
                failed += 1;
            }
            rec.end(job);
        }
    }
    Ok((t, failed))
}

/// Turns a serial script into pool generations of 32 sequences.
pub fn as_generations(episodes: &[Episode]) -> Vec<Vec<Episode>> {
    episodes
        .chunks(crate::gen::POOL_POPULATION)
        .map(<[Episode]>::to_vec)
        .collect()
}

/// The transition store and `replay://` on `logged` (one action per step,
/// default observation): a write phase through the sink, direct
/// `log_step` / `transition` / `observation` calls on the same IR texts, a
/// re-open of the populated directory, and a read phase whose every third
/// episode leaves the logged trajectory half-way.
///
/// # Errors
/// I/O and environment errors.
pub fn store_and_replay(
    logged: &[Episode],
    scratch: &Path,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> Result<u64, String> {
    let script = TraceScript {
        episodes: logged.to_vec(),
        extra: Vec::new(),
        batch: 1,
    };
    let tel = cg_telemetry::global();
    let mut failed = 0;
    let (mut live, mut write, mut replayed) = (Rung::default(), Rung::default(), Rung::default());
    let mut live_env = cg_core::make("llvm-v0").map_err(|e| e.to_string())?;
    let names = super::ladder::LOCAL;
    let all = 0..script.episodes.len();
    drive_env(
        &mut live_env,
        &script,
        all.clone(),
        None,
        names,
        &mut Rung::default(),
    );
    drive_env(&mut live_env, &script, all.clone(), None, names, &mut live);

    // Write phase through the sink.
    let mut open = OpenStore::create(scratch)?;
    let before = tel.stdb.snapshot();
    let started = Instant::now();
    let sink_names = EnvNames {
        reset: "stdb.sink.reset",
        step: "stdb.sink.step_lazy",
    };
    drive_env(
        &mut live_env,
        &script,
        all.clone(),
        Some(rec),
        sink_names,
        &mut write,
    );
    open.store.flush();
    let ingest_secs = started.elapsed().as_secs_f64();
    let after = tel.stdb.snapshot();
    let records = (after.ingest_records - before.ingest_records) as f64;
    out.insert(
        "stdb.store.ingest_records_per_s",
        records / ingest_secs.max(1e-9),
    );
    out.insert(
        "stdb.store.bytes_per_step",
        (after.ingest_bytes - before.ingest_bytes) as f64 / write.actions.max(1) as f64,
    );
    out.insert(
        "stdb.store.dropped_records",
        (after.dropped_records - before.dropped_records) as f64,
    );
    out.insert(
        "stdb.sink.self_us",
        (write.us_per_action() - live.us_per_action()).max(0.0),
    );

    // Read phase: logged trajectories hit; every third episode diverges at
    // its midpoint onto a suffix the store has not seen.
    let mut rng = Rng::new(seed, "trace-replay-divergence");
    let before = tel.stdb.snapshot();
    let replay_names = EnvNames {
        reset: "stdb.replay.reset",
        step: "stdb.replay.step_lazy",
    };
    drive_env(
        &mut open.replay,
        &script,
        all,
        Some(rec),
        replay_names,
        &mut replayed,
    );
    let mut miss = (0u64, 0u64);
    for (e, episode) in logged.iter().enumerate().filter(|(e, _)| e % 3 == 2) {
        let at = episode.actions.len() / 2;
        open.replay.set_benchmark(&episode.benchmark);
        if open.replay.reset().is_err() {
            failed += 1;
            continue;
        }
        for (i, &a) in episode.actions.iter().enumerate() {
            let action = if i < at { a } else { rng.below(NUM_ACTIONS) };
            let span = rec.begin(
                if i < at {
                    "stdb.replay.step_lazy"
                } else {
                    "stdb.replay.miss_step_lazy"
                },
                None,
                e as u32,
            );
            let step = open.replay.step_lazy(&[action], &[]);
            let ns = rec.end(span);
            if i >= at {
                miss.0 += ns;
                miss.1 += 1;
            }
            if step.is_err() {
                failed += 1;
                break;
            }
        }
    }
    let after = tel.stdb.snapshot();
    let hits = (after.replay_hits - before.replay_hits) as f64;
    let misses = (after.replay_misses - before.replay_misses) as f64;
    out.insert(
        "stdb.replay.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.insert("stdb.replay.hit_step_us", replayed.us_per_action());
    out.insert("stdb.replay.miss_step_us", mean_us(miss));
    failed += write.failed + replayed.failed + live.failed;
    drop(open);

    // Direct store calls on the IR texts of the same trajectories, in a
    // store of their own.
    let direct_dir = scratch.join("direct");
    let _ = std::fs::remove_dir_all(&direct_dir);
    let store = TransitionStore::open(&direct_dir, StoreConfig::default())
        .map_err(|e| format!("{}: {e}", direct_dir.display()))?;
    let space = ActionSpace::new();
    let names = space.names();
    let (mut log, mut lookup) = ((0u64, 0u64), (0u64, 0u64));
    let mut edges = Vec::new();
    for episode in logged.iter().take(16) {
        let mut m = cg_datasets::benchmark(&episode.benchmark).map_err(|e| e.to_string())?;
        let mut from = store.log_reset(&episode.benchmark, &cg_llvm::observation::ir_text(&m));
        let mut history = Vec::new();
        for &a in &episode.actions {
            let before = cg_llvm::reward::ir_instruction_count(&m) as f64;
            space.apply_tracked(&mut m, a);
            let ir = cg_llvm::observation::ir_text(&m);
            let reward = before - cg_llvm::reward::ir_instruction_count(&m) as f64;
            history.push(names[a].clone());
            let span = rec.begin("stdb.store.log_step", None, 0);
            let to = store.log_step(&episode.benchmark, &history, from, &ir, reward);
            log.0 += rec.end(span);
            log.1 += 1;
            edges.push((from, names[a].clone()));
            from = to;
        }
    }
    store.flush();
    for (state, action) in &edges {
        let span = rec.begin("stdb.store.lookup", None, 0);
        let found = store
            .transition(*state, action)
            .and_then(|(to, _)| store.observation(to));
        lookup.0 += rec.end(span);
        lookup.1 += 1;
        if found.is_none() {
            failed += 1;
        }
    }
    out.insert("stdb.store.log_step_us", mean_us(log));
    out.insert("stdb.store.lookup_us", mean_us(lookup));
    drop(store);
    let span = rec.begin("stdb.store.open", None, 0);
    let reopened = TransitionStore::open(&direct_dir, StoreConfig::default());
    let ns = rec.end(span);
    out.insert("stdb.store.open_s", ns as f64 / 1e9);
    if reopened.is_err() {
        failed += 1;
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&direct_dir);
    Ok(failed)
}
