//! `cg`: the command-line interface (§III-D) — inspect environments, run
//! random searches, replay and validate saved states, all without writing
//! code.
//!
//! ```text
//! cg describe <env>                         list spaces and actions
//! cg random <env> <benchmark> <steps>       run a random episode
//! cg replay <state.json>                    replay a saved state
//! cg validate <state.json>                  validate reproducibility
//! cg datasets                               list benchmark datasets
//! cg stats [--json] <env> <benchmark> <steps>   episode + telemetry report
//! cg trace <env> <benchmark> <steps>        episode + JSONL trace dump
//! cg trace --episode last [--json]          episode flight-recorder timeline
//! cg export-metrics [env bench steps]       Prometheus / JSONL metrics dump
//! cg chaos [flags]                          soak episodes under fault injection
//! cg fuzz [flags]                           differential pass-pipeline fuzzing
//! cg stdb <subcommand> <dir>                transition-store maintenance
//! cg serve [flags]                          multi-tenant TCP front door
//! ```
//!
//! Commands that evaluate environments accept `--stdb DIR` to stream every
//! transition into the durable store at `DIR`; `replay://<env>?dir=DIR`
//! then serves those episodes back at zero compiler cost.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cg describe <env>\n  cg random [--stdb DIR] <env> <benchmark> <steps>\n  \
         cg replay <state.json>\n  cg validate <state.json>\n  cg datasets\n  \
         cg stdb generate <dir> [--episodes N] [--steps N] [--seed S] [--json]\n  \
         cg stdb scrub <dir> [--repair] [--json]\n  \
         cg stdb compact <dir> [--json]\n  \
         cg stdb stats <dir> [--json]\n  \
         cg stats [--json] [--slo-ms MS] [--stdb DIR] <env> <benchmark> <steps>\n  \
         cg trace [--episode ID|last] [--json] [--tcp] [--chaos-seed S]\n           \
         [<env> <benchmark> <steps>]\n  \
         cg export-metrics [--jsonl] [--slo-ms MS] [<env> <benchmark> <steps>]\n  \
         cg chaos [--episodes N] [--steps N] [--seed S] [--panic P] [--hang P]\n           \
         [--error P] [--corrupt P] [--wedge P] [--slow-growth P] [--faults LIST]\n           \
         (LIST kinds: panic,hang,error,corrupt,wedge,slow-growth,stampede,io)\n           \
         [--timeout-ms MS] [--checkpoint-k K] [--budget-wall-ms MS] [--max-growth F]\n           \
         [--breaker N] [--breaker-cooldown-ms MS]\n           \
         [--serve-metrics ADDR] [--stdb DIR] [--linger-ms MS] [--json]\n  \
         cg fuzz [--seed-range A..B] [--jobs N] [--profile NAME] [--max-passes N]\n          \
         [--inputs N] [--corpus DIR] [--no-corpus] [--budget-secs N]\n          \
         [--reduce-budget N] [--stdb DIR] [--smoke] [--json]\n  \
         cg serve [--addr A] [--env E] [--workers N] [--max-sessions N]\n           \
         [--tenant-sessions N] [--tenant-aps R] [--burst B] [--queue-depth N]\n           \
         [--quantum Q] [--max-connections N] [--retry-after-ms MS]\n           \
         [--drain-grace-ms MS] [--serve-metrics ADDR] [--drain]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The `replay://` scheme lives in cg-stdb; register it up front so any
    // subcommand can `cg_core::make("replay://...")`.
    cg_stdb::install();
    let result = match args.first().map(String::as_str) {
        Some("describe") => describe(args.get(1).map(String::as_str).unwrap_or("llvm-v0")),
        Some("random") => random(&args[1..]),
        Some("stdb") => stdb_cmd(&args[1..]),
        Some("replay") => replay(args.get(1).map(String::as_str), false),
        Some("validate") => replay(args.get(1).map(String::as_str), true),
        Some("stats") => stats(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("export-metrics") => export_metrics(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("datasets") => {
            for d in cg_datasets::datasets() {
                println!(
                    "{:<18} {:>12}  {}",
                    d.name,
                    d.len()
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| "2^32".into()),
                    d.description
                );
            }
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn describe(env_id: &str) -> Result<(), Box<dyn std::error::Error>> {
    let env = cg_core::make(env_id)?;
    println!("environment: {env_id}");
    for a in env.action_spaces() {
        println!("action space {:?}: {} actions", a.name, a.len());
        for (i, n) in a.actions.iter().enumerate().take(12) {
            println!("  [{i:>3}] {n}");
        }
        if a.len() > 12 {
            println!("  … {} more", a.len() - 12);
        }
    }
    println!("observation spaces:");
    for o in env.observation_spaces() {
        println!(
            "  {:<24} {:?}{}{}",
            o.name,
            o.kind,
            if o.deterministic {
                ""
            } else {
                ", nondeterministic"
            },
            if o.platform_dependent {
                ", platform-dependent"
            } else {
                ""
            }
        );
    }
    println!("reward spaces:");
    for r in env.reward_spaces() {
        println!(
            "  {:<24} metric={}{}",
            r.name,
            r.metric,
            r.baseline
                .as_deref()
                .map(|b| format!(", scaled by {b}"))
                .unwrap_or_default()
        );
    }
    Ok(())
}

fn random(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use rand::Rng as _;
    let mut stdb_dir: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdb" => {
                stdb_dir = Some(it.next().ok_or("--stdb needs a directory")?.clone());
            }
            _ => positional.push(a),
        }
    }
    let ep = episode_args(&positional)?;
    let store = stdb_dir.as_deref().map(install_stdb_sink).transpose()?;
    let mut env = cg_core::make(&ep.env)?;
    env.set_benchmark(&ep.bench);
    env.reset()?;
    let mut rng = rand::thread_rng();
    let n = env.action_space().len();
    for _ in 0..ep.steps {
        let a = rng.gen_range(0..n);
        let step = env.step(a)?;
        if step.reward != 0.0 {
            println!("{:<28} {:+.4}", env.action_space().actions[a], step.reward);
        }
    }
    println!("episode reward: {:+.4}", env.episode_reward());
    println!("state:\n{}", env.state().to_json());
    drop(env);
    if let Some(store) = store {
        store.flush();
        let s = store.stats();
        println!(
            "stdb: {} step(s), {} observation(s), {} dropped → {}",
            s.steps, s.observations, s.dropped_records, s.dir
        );
        cg_core::clear_transition_sink();
    }
    Ok(())
}

/// The benchmark rotation every soak and store-generation command shares.
const SOAK_BENCHMARKS: [&str; 4] = [
    "benchmark://cbench-v1/qsort",
    "benchmark://cbench-v1/crc32",
    "benchmark://cbench-v1/sha",
    "benchmark://cbench-v1/bitcount",
];

/// Opens the transition store at `dir` through the shared registry and
/// installs it as the process-global transition sink, so every environment
/// evaluation that follows is appended to the durable log.
fn install_stdb_sink(
    dir: &str,
) -> Result<std::sync::Arc<cg_stdb::TransitionStore>, Box<dyn std::error::Error>> {
    let store = cg_stdb::TransitionStore::open_shared(
        std::path::Path::new(dir),
        cg_stdb::StoreConfig::default(),
    )?;
    cg_core::install_transition_sink(std::sync::Arc::new(cg_stdb::StoreSink(
        std::sync::Arc::clone(&store),
    )));
    Ok(store)
}

/// Runs one deterministic episode ([`cg_stdb::seeded_action`]'s schedule),
/// returning the episode reward. Live and replay environments fed the same
/// `(seed, ep, steps)` walk identical trajectories, which is what makes the
/// replay-vs-live comparison meaningful.
fn seeded_episode(
    env: &mut cg_core::CompilerEnv,
    seed: u64,
    ep: u64,
    steps: u64,
) -> Result<f64, cg_core::CgError> {
    env.reset()?;
    let n = env.action_space().len();
    for s in 0..steps {
        if env.step(cg_stdb::seeded_action(seed, ep, s, n))?.done {
            break;
        }
    }
    Ok(env.episode_reward())
}

/// Drives one random episode so the telemetry layer has something to report.
fn run_episode(
    env_id: &str,
    benchmark: &str,
    steps: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    use rand::Rng as _;
    let mut env = cg_core::make(env_id)?;
    env.set_benchmark(benchmark);
    env.reset()?;
    let mut rng = rand::thread_rng();
    let n = env.action_space().len();
    for _ in 0..steps {
        let a = rng.gen_range(0..n);
        if env.step(a)?.done {
            break;
        }
    }
    Ok(())
}

/// Renders microseconds human-readably (µs / ms / s).
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Splits a flag-bearing argument list into recognized flags and the
/// positional `<env> <benchmark> <steps>` triple every reporting
/// subcommand shares.
struct EpisodeArgs {
    env: String,
    bench: String,
    steps: usize,
}

/// A malformed `<steps>` is a usage error naming it, never a silent default.
fn episode_args(positional: &[&String]) -> Result<EpisodeArgs, String> {
    let arg = |i: usize, default: &str| positional.get(i).map_or(default, |s| s).to_string();
    let steps = arg(2, "50");
    Ok(EpisodeArgs {
        env: arg(0, "llvm-v0"),
        bench: arg(1, "benchmark://cbench-v1/qsort"),
        steps: (steps.parse())
            .map_err(|_| format!("usage: <steps> must be a non-negative integer, got `{steps}`"))?,
    })
}

fn stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::time::Duration;

    let mut json = false;
    let mut slo_ms: Option<u64> = None;
    let mut stdb_dir: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--slo-ms" => {
                slo_ms = Some(it.next().ok_or("--slo-ms needs a value")?.parse()?);
            }
            "--stdb" => {
                stdb_dir = Some(it.next().ok_or("--stdb needs a directory")?.clone());
            }
            _ => positional.push(a),
        }
    }
    let ep_args = episode_args(&positional)?;
    let (env_id, benchmark, steps) = (&ep_args.env, &ep_args.bench, ep_args.steps);

    let tel = cg_telemetry::global();
    tel.reset();
    cg_ir::am::reset_cache_stats();
    if let Some(ms) = slo_ms {
        tel.slo.configure(Duration::from_millis(ms), 0.99);
    }
    let store = stdb_dir.as_deref().map(install_stdb_sink).transpose()?;
    run_episode(env_id, benchmark, steps)?;
    if let Some(store) = store {
        store.flush();
        cg_core::clear_transition_sink();
    }
    let snap = tel.snapshot();
    let cache = cg_ir::am::cache_stats();
    if json {
        use serde::value::Value;
        use serde::Serialize;
        let mut v = snap.to_value();
        if let Value::Object(fields) = &mut v {
            fields.push((
                "analysis_cache".to_string(),
                Value::Object(vec![
                    ("hits".to_string(), Value::UInt(cache.hits)),
                    ("misses".to_string(), Value::UInt(cache.misses)),
                    (
                        "invalidations".to_string(),
                        Value::UInt(cache.invalidations),
                    ),
                    ("hit_rate".to_string(), Value::Float(cache.hit_rate())),
                    ("noop_skips".to_string(), Value::UInt(cache.noop_skips)),
                ]),
            ));
        }
        println!("{}", serde_json::to_string_pretty(&v)?);
        return Ok(());
    }
    println!("telemetry for {env_id} on {benchmark} ({steps} random steps)\n");
    println!("service requests:");
    println!(
        "  {:<14} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "kind", "count", "p50", "p90", "p99", "max", "errors"
    );
    for (kind, h) in &snap.requests {
        let errors = snap.request_errors.get(kind).copied().unwrap_or(0);
        println!(
            "  {:<14} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
            kind,
            h.count,
            fmt_us(h.p50_micros),
            fmt_us(h.p90_micros),
            fmt_us(h.p99_micros),
            fmt_us(h.max_micros),
            errors
        );
    }
    println!(
        "\nservice health: restarts={} panics={} timeouts={} in-flight={}",
        snap.restarts, snap.panics, snap.timeouts, snap.in_flight
    );
    println!(
        "containment: checkpoints={} restores={} budget-kills={} \
         breaker trips={} half-opens={} fast-fails={}",
        snap.checkpoints_taken,
        snap.checkpoint_restores,
        snap.budget_kills,
        snap.breaker_trips,
        snap.breaker_half_opens,
        snap.breaker_fast_fails
    );
    let ep = &snap.episode;
    let changed_pct = if ep.actions_total == 0 {
        0.0
    } else {
        100.0 * ep.actions_changed as f64 / ep.actions_total as f64
    };
    println!(
        "\nepisode: episodes={} steps={} actions={} changed={:.0}% reward={:+.4}",
        ep.episodes, ep.steps, ep.actions_total, changed_pct, ep.reward_sum
    );
    println!(
        "  reset  p50={} max={}",
        fmt_us(ep.reset_wall.p50_micros),
        fmt_us(ep.reset_wall.max_micros)
    );
    println!(
        "  step   p50={} p99={} max={}",
        fmt_us(ep.step_wall.p50_micros),
        fmt_us(ep.step_wall.p99_micros),
        fmt_us(ep.step_wall.max_micros)
    );
    let pool = &snap.pool;
    let total_actions = pool.actions_executed + pool.actions_saved;
    let saved_pct = if total_actions == 0 {
        0.0
    } else {
        100.0 * pool.actions_saved as f64 / total_actions as f64
    };
    println!(
        "\npool: workers={} jobs={} errors={} panics={} queue-depth={}",
        pool.workers, pool.jobs, pool.job_errors, pool.job_panics, pool.queue_depth
    );
    println!(
        "  cache: hits={} misses={} prefix-hits={} evictions={}",
        pool.cache_hits, pool.cache_misses, pool.prefix_hits, pool.evictions
    );
    println!(
        "  actions: executed={} saved={} ({saved_pct:.0}% saved)",
        pool.actions_executed, pool.actions_saved
    );
    if pool.jobs > 0 {
        println!(
            "  batch p50={} max={}  job p50={} p99={}",
            fmt_us(pool.batch_wall.p50_micros),
            fmt_us(pool.batch_wall.max_micros),
            fmt_us(pool.job_wall.p50_micros),
            fmt_us(pool.job_wall.p99_micros)
        );
    }
    if !snap.observations.is_empty() {
        println!("\nobservations:");
        for (name, h) in &snap.observations {
            println!(
                "  {:<24} count={:<5} p50={} p99={}",
                name,
                h.count,
                fmt_us(h.p50_micros),
                fmt_us(h.p99_micros)
            );
        }
    }
    if !snap.passes.is_empty() {
        println!("\ntop passes by total time:");
        let mut passes: Vec<_> = snap.passes.iter().collect();
        passes.sort_by_key(|(_, p)| std::cmp::Reverse(p.total_micros));
        for (name, p) in passes.iter().take(15) {
            println!(
                "  {:<28} calls={:<4} total={:<9} p50={:<8} p99={:<8} changed={:<4} Δinst={:+}",
                name,
                p.calls,
                fmt_us(p.total_micros),
                fmt_us(p.p50_micros),
                fmt_us(p.p99_micros),
                p.changed,
                p.inst_delta
            );
        }
    }
    println!(
        "\nanalysis cache: hits={} misses={} invalidations={} hit-rate={:.1}% noop-skips={}",
        cache.hits,
        cache.misses,
        cache.invalidations,
        100.0 * cache.hit_rate(),
        cache.noop_skips
    );
    let sdb = &snap.stdb;
    if sdb.ingest_records
        + sdb.dropped_records
        + sdb.replay_hits
        + sdb.replay_misses
        + sdb.quarantined_records
        > 0
    {
        println!("\ntransition store:");
        println!(
            "  ingest: records={} bytes={} dropped={} retries={} append p50={} p99={}",
            sdb.ingest_records,
            sdb.ingest_bytes,
            sdb.dropped_records,
            sdb.append_retries,
            fmt_us(sdb.append_wall.p50_micros),
            fmt_us(sdb.append_wall.p99_micros)
        );
        let served = sdb.replay_hits + sdb.replay_misses;
        if served > 0 {
            println!(
                "  replay: hits={} misses={} hit-rate={:.1}%",
                sdb.replay_hits,
                sdb.replay_misses,
                100.0 * sdb.replay_hits as f64 / served as f64
            );
        }
        println!(
            "  integrity: torn-tails={} quarantined={} scrub ok={} corrupt={} repaired={} \
             compactions={}",
            sdb.torn_tails,
            sdb.quarantined_records,
            sdb.scrub_ok,
            sdb.scrub_corrupt,
            sdb.scrub_repaired,
            sdb.compactions
        );
        println!("  wal: segments={} bytes={}", sdb.segments, sdb.store_bytes);
    }
    if snap.fuzz.cases > 0 {
        println!(
            "\nfuzz: cases={} divergences={} shrunk={} verifier-rejects={} pass-panics={}",
            snap.fuzz.cases,
            snap.fuzz.divergences,
            snap.fuzz.shrunk,
            snap.fuzz.verifier_rejects,
            snap.fuzz.pass_panics
        );
        let mut blame: Vec<_> = snap.fuzz.blame.iter().collect();
        blame.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
        for (pass, n) in blame.iter().take(10) {
            println!("  blame {pass:<26} {n}");
        }
    }
    if snap.slo.objective_micros > 0 {
        println!(
            "\nslo: step objective {} at {:.2}% target",
            fmt_us(snap.slo.objective_micros),
            100.0 * snap.slo.target
        );
        println!(
            "  good={} bad={} compliance={:.2}% burn-rate={:.2}x",
            snap.slo.good,
            snap.slo.bad,
            100.0 * snap.slo.compliance,
            snap.slo.burn_rate
        );
    }
    println!(
        "\ntrace: {} buffered event(s), {} dropped (see `cg trace`)",
        snap.trace_events, snap.trace_dropped
    );
    println!(
        "  flight recorder: episodes recorded={} dropped={} span-drops={}",
        snap.episodes_recorded, snap.episodes_dropped, snap.episode_spans_dropped
    );
    // Per-family event counts: the prefix before the first `:` groups span
    // names into subsystems (env, rpc, service, pass, ...).
    let mut families: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for ev in tel.trace.events() {
        let family = ev.span.split(':').next().unwrap_or(&ev.span).to_string();
        *families.entry(family).or_insert(0) += 1;
    }
    if !families.is_empty() {
        let rendered: Vec<String> = families.iter().map(|(f, n)| format!("{f}={n}")).collect();
        println!("  events by family: {}", rendered.join(" "));
    }
    Ok(())
}

fn trace(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = false;
    let mut tcp = false;
    let mut episode: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--tcp" => tcp = true,
            "--episode" => {
                episode = Some(it.next().ok_or("--episode needs an id or `last`")?.clone());
            }
            "--chaos-seed" => {
                chaos_seed = Some(it.next().ok_or("--chaos-seed needs a value")?.parse()?);
            }
            _ => positional.push(a),
        }
    }
    let ep_args = episode_args(&positional)?;

    let tel = cg_telemetry::global();
    tel.reset();
    let ran = if tcp || chaos_seed.is_some() {
        run_traced_episode(&ep_args.env, &ep_args.bench, ep_args.steps, tcp, chaos_seed)?
    } else {
        run_episode(&ep_args.env, &ep_args.bench, ep_args.steps)?;
        tel.trace.recorder().last_episode_id()
    };

    let Some(selector) = episode else {
        // Legacy surface: the raw trace ring as JSONL, one event per line.
        print!("{}", tel.trace.export_jsonl());
        return Ok(());
    };
    let id = if selector == "last" {
        ran.or_else(|| tel.trace.recorder().last_episode_id())
            .ok_or("no episode recorded")?
    } else {
        selector.parse()?
    };
    let record = tel
        .trace
        .recorder()
        .episode(id)
        .ok_or_else(|| format!("episode {id} is not in the flight recorder"))?;
    if json {
        println!("{}", serde_json::to_string_pretty(&record)?);
    } else {
        render_episode(&record);
    }
    Ok(())
}

/// Runs one random episode with the service reached over a loopback TCP
/// socket (`--tcp`) and/or a seeded fault plan (`--chaos-seed`), so the
/// recorded span trees demonstrate cross-boundary propagation and the
/// recovery ladder. Returns the flight-recorder episode id.
fn run_traced_episode(
    env_id: &str,
    benchmark: &str,
    steps: usize,
    tcp: bool,
    chaos_seed: Option<u64>,
) -> Result<Option<u64>, Box<dyn std::error::Error>> {
    use rand::{Rng as _, SeedableRng as _};
    use std::time::Duration;

    let inner = cg_core::envs::session_factory(env_id).map_err(cg_core::CgError::Unknown)?;
    let timeout = if chaos_seed.is_some() {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(60)
    };
    let factory = match chaos_seed {
        Some(seed) => {
            quiet_chaos_panics();
            // Guaranteed faults (not probabilistic sampling): a session
            // panic at the 6th apply and, over TCP, a hang at the 10th, so
            // a short episode demonstrably exercises the recovery ladder.
            let mut plan = cg_core::chaos::FaultPlan::seeded(seed)
                .schedule(5, cg_core::chaos::FaultKind::Panic)
                .with_hang_duration(timeout * 6)
                .with_max_faults(4);
            if tcp && steps >= 10 {
                plan = plan.schedule(9, cg_core::chaos::FaultKind::Hang);
            }
            plan.wrap(inner).0
        }
        None => inner,
    };
    // Checkpoints every K = 4 actions, set where the ring lives: on the
    // broker over TCP, on the in-process service otherwise.
    let checkpoints = cg_core::CheckpointStore::default().with_interval(4);
    let mut env = if tcp {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let broker = cg_core::Broker::new(
            factory,
            cg_core::BrokerConfig {
                checkpoints,
                ..cg_core::BrokerConfig::default()
            },
        );
        std::thread::spawn(move || broker.serve(listener));
        cg_core::CompilerEnv::connect_tcp(
            env_id,
            &addr,
            benchmark,
            "Autophase",
            "IrInstructionCount",
            timeout,
        )?
    } else {
        let mut link = cg_core::service::InlineLink::new(factory);
        link.set_checkpoint_store(checkpoints);
        let mut env = cg_core::CompilerEnv::with_link(
            env_id,
            Box::new(link),
            benchmark,
            "Autophase",
            "IrInstructionCount",
        )?;
        env.set_resource_budget(cg_core::ResourceBudget::default().with_step_wall(timeout))?;
        env
    };
    env.set_retry_policy(
        cg_core::RetryPolicy::default()
            .with_max_attempts(8)
            .with_backoff(Duration::from_millis(5), Duration::from_millis(100)),
    );
    env.reset()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(chaos_seed.unwrap_or(7) ^ 0xCAFE);
    let n = env.action_space().len();
    for _ in 0..steps {
        let a = rng.gen_range(0..n);
        if env.step(a)?.done {
            break;
        }
    }
    env.close();
    Ok(cg_telemetry::global().trace.recorder().last_episode_id())
}

/// Renders a recorded episode as an indented span-tree timeline: offsets
/// relative to the episode start, one subtree per trace, children ordered
/// by start time.
fn render_episode(record: &cg_telemetry::EpisodeRecord) {
    use std::collections::HashMap;

    println!(
        "episode {} — {} on {}",
        record.episode_id, record.env_id, record.benchmark
    );
    let ended = if record.ended_micros == 0 {
        "still open".to_string()
    } else {
        format!(
            "{} total",
            fmt_us(record.ended_micros.saturating_sub(record.started_micros))
        )
    };
    println!(
        "{} trace(s), {} span(s), {} span(s) dropped, {ended}\n",
        record.trace_ids.len(),
        record.spans.len(),
        record.dropped_spans
    );

    let ids: std::collections::HashSet<u64> = record.spans.iter().map(|s| s.span_id).collect();
    let mut children: HashMap<Option<u64>, Vec<&cg_telemetry::SpanRecord>> = HashMap::new();
    for s in &record.spans {
        // Spans whose parent fell out of the ring render as roots.
        let key = s.parent_id.filter(|p| ids.contains(p));
        children.entry(key).or_default().push(s);
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| (s.start_micros, s.seq));
    }
    let mut stack: Vec<(&cg_telemetry::SpanRecord, usize)> = Vec::new();
    for root in children.get(&None).cloned().unwrap_or_default() {
        stack.push((root, 0));
        while let Some((span, depth)) = stack.pop() {
            let offset = span.start_micros.saturating_sub(record.started_micros);
            let status = match span.status {
                cg_telemetry::SpanStatus::Ok => String::new(),
                other => format!(" [{other:?}]"),
            };
            let detail = if span.detail.is_empty() {
                String::new()
            } else {
                format!("  {}", span.detail)
            };
            let attrs = if span.attrs.is_empty() {
                String::new()
            } else {
                let kv: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("  {{{}}}", kv.join(", "))
            };
            println!(
                "{:>9} {:indent$}{} ({}){status}{detail}{attrs}",
                format!("+{}", fmt_us(offset)),
                "",
                span.span,
                fmt_us(span.dur_micros),
                indent = depth * 2,
            );
            if let Some(kids) = children.get(&Some(span.span_id)) {
                // Reverse so the earliest child pops first.
                for kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
        }
    }
}

/// The `cg export-metrics` surface: drive one random episode, then dump the
/// full registry in Prometheus text exposition format (default) or as JSONL
/// (`--jsonl`), for scraping-free ingestion into files and pipelines.
fn export_metrics(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::time::Duration;

    let mut jsonl = false;
    let mut slo_ms: Option<u64> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jsonl" => jsonl = true,
            "--slo-ms" => {
                slo_ms = Some(it.next().ok_or("--slo-ms needs a value")?.parse()?);
            }
            _ => positional.push(a),
        }
    }
    let ep_args = episode_args(&positional)?;

    let tel = cg_telemetry::global();
    tel.reset();
    tel.slo
        .configure(Duration::from_millis(slo_ms.unwrap_or(250)), 0.99);
    run_episode(&ep_args.env, &ep_args.bench, ep_args.steps)?;
    let snap = tel.snapshot();
    if jsonl {
        print!("{}", cg_telemetry::export::metrics_jsonl(&snap));
    } else {
        print!("{}", cg_telemetry::export::prometheus_text(&snap));
    }
    Ok(())
}

/// Silences the default panic backtrace for chaos-injected panics (they are
/// the point of the exercise, not noise worth a stack trace).
fn quiet_chaos_panics() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !msg.starts_with("chaos:") {
            prev_hook(info);
        }
    }));
}

/// The `cg fuzz` surface: differential pass-pipeline fuzzing with the
/// `cg-difftest` engine. Samples random programs and random pipelines over
/// the full action space, judges each with the interpreter oracle, shrinks
/// any divergence to a minimal reproducer in the corpus directory, and
/// exits non-zero if anything diverged. `--smoke` is the CI configuration:
/// a fixed seed range under a strict wall-clock budget.
fn fuzz(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use cg_difftest::{run_fuzz, FuzzConfig};
    use std::time::Duration;

    let mut cfg = FuzzConfig {
        jobs: 4,
        corpus_dir: Some(cg_difftest::repro::default_corpus_dir()),
        ..FuzzConfig::default()
    };
    let mut json = false;
    let mut stdb_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--seed-range" => {
                let raw = val("--seed-range")?;
                let (a, b) = raw
                    .split_once("..")
                    .ok_or_else(|| format!("--seed-range wants A..B, got `{raw}`"))?;
                cfg.seed_start = a.parse()?;
                cfg.seed_end = b.parse()?;
            }
            "--jobs" => cfg.jobs = val("--jobs")?.parse()?,
            "--profile" => {
                let name = val("--profile")?.clone();
                if cg_datasets::synth::Profile::named(&name).is_none() {
                    return Err(format!(
                        "unknown profile `{name}` (available: {})",
                        cg_datasets::synth::FUZZ_PROFILES.join(", ")
                    )
                    .into());
                }
                cfg.profile = Some(name);
            }
            "--max-passes" => cfg.max_passes = val("--max-passes")?.parse()?,
            "--inputs" => cfg.extra_inputs = val("--inputs")?.parse()?,
            "--corpus" => cfg.corpus_dir = Some(val("--corpus")?.into()),
            "--no-corpus" => cfg.corpus_dir = None,
            "--budget-secs" => {
                cfg.budget = Some(Duration::from_secs(val("--budget-secs")?.parse()?));
            }
            "--reduce-budget" => cfg.reduce_budget = val("--reduce-budget")?.parse()?,
            "--stdb" => stdb_dir = Some(val("--stdb")?.clone()),
            "--smoke" => {
                // The CI configuration: fixed seeds, bounded wall-clock.
                cfg.seed_start = 0;
                cfg.seed_end = 500;
                cfg.budget = Some(Duration::from_secs(60));
            }
            "--json" => json = true,
            other => return Err(format!("unknown fuzz flag `{other}`").into()),
        }
    }

    let tel = cg_telemetry::global();
    tel.reset();
    // Any environment the fuzzer's repro pipeline steps through flows into
    // the store; heavy work stays on the store's writer thread.
    let store = stdb_dir.as_deref().map(install_stdb_sink).transpose()?;
    let report = run_fuzz(&cfg);
    if let Some(store) = store {
        store.flush();
        cg_core::clear_transition_sink();
    }
    let snap = tel.snapshot();

    if json {
        #[derive(serde::Serialize)]
        struct DivJson {
            seed: u64,
            profile: String,
            deopt: bool,
            pipeline: Vec<String>,
            failure: String,
            ir_lines: usize,
            repro: Option<String>,
        }
        #[derive(serde::Serialize)]
        struct FuzzJson {
            cases: u64,
            skipped: u64,
            elapsed_ms: u64,
            divergences: Vec<DivJson>,
            telemetry: cg_telemetry::FuzzSnapshot,
        }
        let out = FuzzJson {
            cases: report.cases,
            skipped: report.skipped,
            elapsed_ms: report.elapsed.as_millis() as u64,
            divergences: report
                .divergences
                .iter()
                .map(|d| DivJson {
                    seed: d.seed,
                    profile: d.profile.clone(),
                    deopt: d.deopt,
                    pipeline: d.pipeline.clone(),
                    failure: d.failure.clone(),
                    ir_lines: d.ir_lines,
                    repro: d.repro_path.as_ref().map(|p| p.display().to_string()),
                })
                .collect(),
            telemetry: snap.fuzz.clone(),
        };
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        println!(
            "fuzz: {} case(s) over seeds {}..{} ({} job(s)) in {:.1}s{}",
            report.cases,
            cfg.seed_start,
            cfg.seed_end,
            cfg.jobs,
            report.elapsed.as_secs_f64(),
            if report.skipped > 0 {
                format!(", {} seed(s) skipped on budget", report.skipped)
            } else {
                String::new()
            }
        );
        println!(
            "  oracle comparisons={} verifier-rejects={} pass-panics={} divergences={} shrunk={}",
            snap.fuzz.oracle_runs,
            snap.fuzz.verifier_rejects,
            snap.fuzz.pass_panics,
            snap.fuzz.divergences,
            snap.fuzz.shrunk
        );
        println!(
            "  case wall p50={} p99={}",
            fmt_us(snap.fuzz.case_wall.p50_micros),
            fmt_us(snap.fuzz.case_wall.p99_micros)
        );
        if !snap.fuzz.blame.is_empty() {
            println!("\nper-pass blame (appearances in minimal pipelines):");
            let mut blame: Vec<_> = snap.fuzz.blame.iter().collect();
            blame.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
            for (pass, n) in blame.iter().take(15) {
                println!("  {pass:<28} {n}");
            }
        }
        for d in &report.divergences {
            println!(
                "\nseed {} [{}{}]: {}",
                d.seed,
                d.profile,
                if d.deopt { ", deopt" } else { "" },
                d.failure
            );
            println!(
                "  pipeline: {} (sampled {})",
                d.pipeline.join(" "),
                d.original_pipeline.len()
            );
            println!("  reduced IR: {} line(s)", d.ir_lines);
            if let Some(p) = &d.repro_path {
                println!("  reproducer: {}", p.display());
            }
        }
    }
    if !report.clean() {
        return Err(format!("{} divergence(s) found", report.divergences.len()).into());
    }
    Ok(())
}

/// The `cg chaos` soak harness: run llvm-v0 episodes with a seeded fault
/// load (injected panics, hangs, backend errors, corrupted replies) and
/// report how many faults the runtime recovered from transparently. Exits
/// non-zero when any episode failed in a way recovery should have absorbed.
fn chaos(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use cg_core::chaos::FaultPlan;
    use std::time::Duration;

    let mut episodes: u64 = 20;
    let mut steps: u64 = 10;
    let mut seed: u64 = 7;
    let mut panic_prob = 0.04;
    let mut hang_prob = 0.02;
    let mut error_prob = 0.0;
    let mut corrupt_prob = 0.0;
    let mut wedge_prob = 0.0;
    let mut slow_growth_prob = 0.0;
    let mut timeout_ms: u64 = 400;
    // Containment knobs (the server-side half of the recovery ladder).
    let mut checkpoint_k: u64 = 10;
    let mut budget_wall_ms: u64 = 0;
    let mut max_growth: f64 = 0.0;
    let mut breaker_threshold: u32 = 0;
    let mut breaker_cooldown_ms: u64 = 250;
    let mut serve_metrics_addr: Option<String> = None;
    let mut linger_ms: u64 = 0;
    let mut stampede = false;
    let mut io_faults = false;
    let mut stdb_dir: Option<String> = None;
    let mut stampede_size: usize = 32;
    let mut soak_ms: u64 = 1_500;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--episodes" => episodes = val("--episodes")?.parse()?,
            "--steps" => steps = val("--steps")?.parse()?,
            "--seed" => seed = val("--seed")?.parse()?,
            "--panic" => panic_prob = val("--panic")?.parse()?,
            "--hang" => hang_prob = val("--hang")?.parse()?,
            "--error" => error_prob = val("--error")?.parse()?,
            "--corrupt" => corrupt_prob = val("--corrupt")?.parse()?,
            "--wedge" => wedge_prob = val("--wedge")?.parse()?,
            "--slow-growth" => slow_growth_prob = val("--slow-growth")?.parse()?,
            // Fault-kind matrix selector: zero every probability, then give
            // each listed kind its default load.
            "--faults" => {
                panic_prob = 0.0;
                hang_prob = 0.0;
                error_prob = 0.0;
                corrupt_prob = 0.0;
                wedge_prob = 0.0;
                slow_growth_prob = 0.0;
                for kind in val("--faults")?.split(',').filter(|s| !s.is_empty()) {
                    match kind {
                        "panic" => panic_prob = 0.05,
                        "hang" => hang_prob = 0.04,
                        "error" => error_prob = 0.05,
                        "corrupt" => corrupt_prob = 0.04,
                        "wedge" => wedge_prob = 0.03,
                        "slow-growth" => slow_growth_prob = 0.10,
                        "stampede" => stampede = true,
                        "io" => io_faults = true,
                        other => return Err(format!("unknown fault kind `{other}`").into()),
                    }
                }
            }
            "--timeout-ms" => timeout_ms = val("--timeout-ms")?.parse()?,
            "--checkpoint-k" => checkpoint_k = val("--checkpoint-k")?.parse()?,
            "--budget-wall-ms" => budget_wall_ms = val("--budget-wall-ms")?.parse()?,
            "--max-growth" => max_growth = val("--max-growth")?.parse()?,
            "--breaker" => breaker_threshold = val("--breaker")?.parse()?,
            "--breaker-cooldown-ms" => {
                breaker_cooldown_ms = val("--breaker-cooldown-ms")?.parse()?;
            }
            "--serve-metrics" => serve_metrics_addr = Some(val("--serve-metrics")?.clone()),
            "--stdb" => stdb_dir = Some(val("--stdb")?.clone()),
            "--linger-ms" => linger_ms = val("--linger-ms")?.parse()?,
            "--stampede-size" => stampede_size = val("--stampede-size")?.parse()?,
            "--soak-ms" => soak_ms = val("--soak-ms")?.parse()?,
            "--json" => json = true,
            other => {
                usage();
                return Err(format!("unknown chaos flag `{other}`").into());
            }
        }
    }
    // `--faults stampede` switches to the front-door soak: a broker-mode
    // server with established tenants, hit by bursts of simultaneous
    // connects. Per-apply fault kinds don't exist there.
    if stampede {
        return chaos_stampede(StampedeOpts {
            soak_ms,
            stampede_size,
            seed,
            json,
            serve_metrics_addr,
            linger_ms,
        });
    }
    // `--faults io` targets the transition store's disk path instead of the
    // compiler service: torn writes and ENOSPC during ingest, short reads
    // and bit flips during recovery, then a replay pass over the damaged
    // store. Per-apply fault kinds don't exist there either.
    if io_faults {
        return chaos_io(IoSoakOpts {
            episodes,
            steps,
            seed,
            json,
            dir: stdb_dir,
        });
    }

    // Each fault kind needs its matching containment rung; wire the default
    // when the user selected the fault but no explicit limit.
    if slow_growth_prob > 0.0 && max_growth == 0.0 {
        max_growth = 2.0;
    }
    if (hang_prob > 0.0 || wedge_prob > 0.0) && budget_wall_ms == 0 {
        budget_wall_ms = timeout_ms / 2;
    }

    // Injected panics are expected here; keep their default backtrace spew
    // out of the soak output.
    quiet_chaos_panics();

    let tel = cg_telemetry::global();
    tel.reset();
    // Scrape endpoint over the live registry: up while the soak runs (and,
    // with --linger-ms, for a grace period after), so external collectors
    // can observe a fault-injected run end to end.
    if let Some(addr) = &serve_metrics_addr {
        let bound = cg_telemetry::export::spawn_metrics_server(addr)?;
        eprintln!("serving metrics on http://{bound}/metrics");
    }
    let timeout = Duration::from_millis(timeout_ms.max(50));
    // Hangs outlast the wall budget to register as faults; the fault cap
    // guarantees an adversarial plan eventually lets recovery win.
    let plan = FaultPlan::seeded(seed)
        .with_panic_prob(panic_prob)
        .with_hang_prob(hang_prob)
        .with_error_prob(error_prob)
        .with_corrupt_prob(corrupt_prob)
        .with_wedge_prob(wedge_prob)
        .with_slow_growth_prob(slow_growth_prob)
        .with_hang_duration(timeout * 6)
        .with_max_faults(episodes.saturating_mul(2).max(4));
    let inner = cg_core::envs::session_factory("llvm-v0").map_err(cg_core::CgError::Unknown)?;
    let (factory, stats) = plan.wrap(inner);
    let mut link = cg_core::service::InlineLink::new(factory);
    link.set_checkpoint_store(cg_core::CheckpointStore::default().with_interval(checkpoint_k));
    let mut env = cg_core::CompilerEnv::with_link(
        "llvm-v0",
        Box::new(link),
        "benchmark://cbench-v1/qsort",
        "Autophase",
        "IrInstructionCount",
    )?;
    env.set_retry_policy(
        cg_core::RetryPolicy::default()
            .with_max_attempts(10)
            .with_backoff(Duration::from_millis(5), Duration::from_millis(200)),
    );
    if budget_wall_ms > 0 || max_growth > 0.0 {
        let mut budget = cg_core::ResourceBudget::default();
        if budget_wall_ms > 0 {
            budget = budget.with_step_wall(Duration::from_millis(budget_wall_ms));
        }
        if max_growth > 0.0 {
            budget = budget.with_max_growth(max_growth);
        }
        env.set_resource_budget(budget)?;
    }
    let breaker = (breaker_threshold > 0).then(|| {
        cg_core::CircuitBreaker::new(
            breaker_threshold,
            Duration::from_millis(breaker_cooldown_ms),
        )
    });
    if let Some(br) = &breaker {
        env.set_circuit_breaker(br.clone());
    }

    let mut completed = 0u64;
    let mut session_errors = 0u64;
    let mut circuit_rejections = 0u64;
    let mut unrecovered: Vec<String> = Vec::new();
    for ep in 0..episodes {
        env.set_benchmark(SOAK_BENCHMARKS[(ep % SOAK_BENCHMARKS.len() as u64) as usize]);
        if let Err(e) = env.reset() {
            unrecovered.push(format!("episode {ep}: reset: {e}"));
            continue;
        }
        let n = env.action_space().len();
        let mut ok = true;
        for s in 0..steps {
            let a = cg_stdb::seeded_action(seed, ep, s, n);
            match env.step(a) {
                Ok(step) if step.done => break,
                Ok(_) => {}
                // Backend errors are legitimate episode outcomes, not
                // recovery failures (only injected when --error is set).
                Err(cg_core::CgError::Session(_)) => {
                    session_errors += 1;
                    ok = false;
                    break;
                }
                // A quarantined pair fast-failing is the breaker doing its
                // job, not a recovery failure: skip the action and go on.
                Err(cg_core::CgError::CircuitOpen { .. }) => {
                    circuit_rejections += 1;
                }
                Err(e) => {
                    unrecovered.push(format!("episode {ep} step {s}: {e}"));
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            completed += 1;
        }
    }
    // The breaker contract requires open circuits to eventually allow a
    // half-open probe. If the soak never demonstrated it, drive it: wait
    // out the cooldown and probe every quarantined pair.
    let mut breaker_never_half_opened = false;
    if let Some(br) = &breaker {
        if br.trips() > 0 && br.half_opens() == 0 {
            std::thread::sleep(Duration::from_millis(breaker_cooldown_ms + 50));
            for (b, a) in br.open_circuits() {
                let _ = br.admit(&b, a);
            }
            breaker_never_half_opened = br.half_opens() == 0;
        }
    }
    let snap = tel.snapshot();

    if json {
        #[derive(serde::Serialize)]
        struct ChaosReport {
            episodes: u64,
            completed: u64,
            session_errors: u64,
            circuit_rejections: u64,
            unrecovered: Vec<String>,
            injected_panics: u64,
            injected_hangs: u64,
            injected_errors: u64,
            injected_corruptions: u64,
            injected_wedges: u64,
            injected_slow_growths: u64,
            recoveries: u64,
            restarts: u64,
            replay_divergences: u64,
            timeouts: u64,
            service_panics: u64,
            checkpoints_taken: u64,
            checkpoint_restores: u64,
            budget_kills: u64,
            abandoned_runners_live: i64,
            breaker_trips: u64,
            breaker_half_opens: u64,
            breaker_fast_fails: u64,
            breaker_never_half_opened: bool,
        }
        let report = ChaosReport {
            episodes,
            completed,
            session_errors,
            circuit_rejections,
            unrecovered: unrecovered.clone(),
            injected_panics: stats.panics(),
            injected_hangs: stats.hangs(),
            injected_errors: stats.errors(),
            injected_corruptions: stats.corruptions(),
            injected_wedges: stats.wedges(),
            injected_slow_growths: stats.slow_growths(),
            recoveries: snap.recoveries,
            restarts: snap.restarts,
            replay_divergences: snap.replay_divergences,
            timeouts: snap.timeouts,
            service_panics: snap.panics,
            checkpoints_taken: snap.checkpoints_taken,
            checkpoint_restores: snap.checkpoint_restores,
            budget_kills: snap.budget_kills,
            abandoned_runners_live: snap.runner_abandoned_live,
            breaker_trips: snap.breaker_trips,
            breaker_half_opens: snap.breaker_half_opens,
            breaker_fast_fails: snap.breaker_fast_fails,
            breaker_never_half_opened,
        };
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!("chaos soak: seed={seed} episodes={episodes} steps={steps}");
        println!(
            "injected faults: panics={} hangs={} errors={} corruptions={} wedges={} \
             slow-growths={} ({} applies, {} observes)",
            stats.panics(),
            stats.hangs(),
            stats.errors(),
            stats.corruptions(),
            stats.wedges(),
            stats.slow_growths(),
            stats.applies(),
            stats.observes()
        );
        println!(
            "recovery: recoveries={} restarts={} replay-divergences={} \
             timeouts={} service-panics={}",
            snap.recoveries, snap.restarts, snap.replay_divergences, snap.timeouts, snap.panics
        );
        println!(
            "containment: checkpoints={} restores={} budget-kills={} \
             abandoned-runners={} breaker trips={} half-opens={} fast-fails={}",
            snap.checkpoints_taken,
            snap.checkpoint_restores,
            snap.budget_kills,
            snap.runner_abandoned_live,
            snap.breaker_trips,
            snap.breaker_half_opens,
            snap.breaker_fast_fails
        );
        println!(
            "episodes: completed={completed}/{episodes} session-errors={session_errors} \
             circuit-rejections={circuit_rejections} unrecovered={}",
            unrecovered.len()
        );
        for line in &unrecovered {
            println!("  UNRECOVERED {line}");
        }
        if breaker_never_half_opened {
            println!("  BREAKER tripped but never reached half-open");
        }
    }
    if serve_metrics_addr.is_some() && linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(linger_ms));
    }
    if !unrecovered.is_empty() {
        return Err(format!("{} unrecovered failure(s)", unrecovered.len()).into());
    }
    if breaker_never_half_opened {
        return Err("breaker tripped but never allowed a half-open probe".into());
    }
    Ok(())
}

struct IoSoakOpts {
    episodes: u64,
    steps: u64,
    seed: u64,
    json: bool,
    dir: Option<String>,
}

/// The `--faults io` soak: drive real episodes into a transition store
/// whose WAL is wired to a seeded disk-fault injector, damage the files
/// the way a crash would, then prove the recovery ladder holds — reopen
/// truncates the torn tail and quarantines (never skips) corrupt frames,
/// scrub repairs or excises them, and the replay environment degrades to
/// the live compiler instead of erroring. Exits non-zero on any episode
/// the store should have absorbed or any silent corruption.
fn chaos_io(opts: IoSoakOpts) -> Result<(), Box<dyn std::error::Error>> {
    use cg_core::chaos::IoFaultPlan;
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
    use std::sync::Arc;

    let tel = cg_telemetry::global();
    tel.reset();
    let dir = match &opts.dir {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            let d = std::env::temp_dir().join(format!("cg-chaos-io-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            d
        }
    };
    let mut unrecovered: Vec<String> = Vec::new();

    // Phase A: ingest under write faults. Torn writes roll back and retry;
    // ENOSPC drops the record with a typed error and a counted drop. The
    // episodes themselves must never fail — the sink is asynchronous and
    // disk trouble is its problem, not the caller's.
    let inj_a = IoFaultPlan::seeded(opts.seed)
        .with_torn_write_prob(0.08)
        .with_enospc_prob(0.05)
        .with_max_faults(opts.episodes.max(4))
        .injector();
    let write_stats = inj_a.stats();
    let store = Arc::new(cg_stdb::TransitionStore::open_with_faults(
        &dir,
        cg_stdb::StoreConfig::default(),
        Some(inj_a),
    )?);
    cg_core::install_transition_sink(Arc::new(cg_stdb::StoreSink(Arc::clone(&store))));
    let mut env = cg_core::make("llvm-v0")?;
    let mut completed = 0u64;
    for ep in 0..opts.episodes {
        env.set_benchmark(SOAK_BENCHMARKS[(ep % SOAK_BENCHMARKS.len() as u64) as usize]);
        match seeded_episode(&mut env, opts.seed, ep, opts.steps) {
            Ok(_) => completed += 1,
            Err(e) => unrecovered.push(format!("ingest episode {ep}: {e}")),
        }
    }
    drop(env);
    store.flush();
    let ingest = store.stats();
    cg_core::clear_transition_sink();
    drop(store);

    // Crash damage, applied deterministically: flip a byte mid-segment
    // (checksum corruption) and cut the last segment short (torn tail).
    let mut damaged = false;
    let segments = cg_stdb::log::list_segments(&dir)?;
    if let Some((_, first)) = segments.first() {
        let len = std::fs::metadata(first)?.len();
        if len > 64 {
            let offset = 8 + (len - 8) / 2;
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(first)?;
            f.seek(SeekFrom::Start(offset))?;
            let mut byte = [0u8; 1];
            f.read_exact(&mut byte)?;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&[byte[0] ^ 0x40])?;
            damaged = true;
        }
    }
    if let Some((_, last)) = segments.last() {
        let len = std::fs::metadata(last)?.len();
        if len > 32 {
            std::fs::OpenOptions::new()
                .write(true)
                .open(last)?
                .set_len(len - 7)?;
            damaged = true;
        }
    }

    // Phase B: recovery and scrub under read faults. Injected short reads
    // and bit flips are transient — one trusted re-read heals them; the
    // real damage above must surface as torn tails and quarantined
    // records, then come out clean after `scrub --repair`.
    let inj_b = IoFaultPlan::seeded(opts.seed ^ 0xB17E)
        .with_short_read_prob(0.25)
        .with_bit_flip_prob(0.25)
        .with_max_faults(4)
        .injector();
    let read_stats = inj_b.stats();
    let reopened = cg_stdb::TransitionStore::open_with_faults(
        &dir,
        cg_stdb::StoreConfig::default(),
        Some(inj_b.clone()),
    )?;
    let recovery = reopened.recovery().clone();
    drop(reopened);
    let scrub = cg_stdb::scrub_dir(&dir, &cg_stdb::WalConfig::default(), true, Some(&inj_b))?;
    let verify = cg_stdb::scrub_dir(&dir, &cg_stdb::WalConfig::default(), false, None)?;
    if !verify.is_clean() {
        unrecovered.push(format!(
            "store still dirty after repair: {} corrupt record(s), {} torn tail(s)",
            verify.records_corrupt, verify.torn_tails
        ));
    }
    if damaged
        && recovery.torn_tails + recovery.quarantined + scrub.records_corrupt + scrub.torn_tails
            == 0
    {
        unrecovered.push("injected disk damage was never detected (silent corruption)".into());
    }

    // Phase C: replay over the damaged-then-repaired store. Seen
    // trajectories serve from the log; anything recovery had to drop falls
    // through to the live compiler — gracefully, never as an error.
    let uri = format!("replay://llvm-v0?dir={}", dir.display());
    let mut renv = cg_core::make(&uri)?;
    let replay_eps = opts.episodes.clamp(1, 2);
    for ep in 0..replay_eps {
        renv.set_benchmark(SOAK_BENCHMARKS[(ep % SOAK_BENCHMARKS.len() as u64) as usize]);
        match seeded_episode(&mut renv, opts.seed, ep, opts.steps) {
            Ok(_) => completed += 1,
            Err(e) => unrecovered.push(format!("replay episode {ep}: {e}")),
        }
    }
    // An unseen trajectory: every step is a miss and must still complete.
    renv.set_benchmark(SOAK_BENCHMARKS[0]);
    match seeded_episode(&mut renv, opts.seed ^ 0xD00D, 0, opts.steps) {
        Ok(_) => completed += 1,
        Err(e) => unrecovered.push(format!("replay fall-through episode: {e}")),
    }
    drop(renv);

    let snap = tel.snapshot();
    if opts.json {
        #[derive(serde::Serialize)]
        struct IoChaosReport {
            episodes: u64,
            completed: u64,
            injected_torn_writes: u64,
            injected_enospcs: u64,
            injected_short_reads: u64,
            injected_bit_flips: u64,
            ingest_records: u64,
            append_retries: u64,
            dropped_records: u64,
            recovery: cg_stdb::RecoveryReport,
            scrub: cg_stdb::ScrubReport,
            verify_clean: bool,
            replay_hits: u64,
            replay_misses: u64,
            unrecovered: Vec<String>,
        }
        let report = IoChaosReport {
            episodes: opts.episodes,
            completed,
            injected_torn_writes: write_stats.torn_writes(),
            injected_enospcs: write_stats.enospcs(),
            injected_short_reads: read_stats.short_reads(),
            injected_bit_flips: read_stats.bit_flips(),
            ingest_records: ingest.steps + ingest.observations,
            append_retries: snap.stdb.append_retries,
            dropped_records: snap.stdb.dropped_records,
            recovery: recovery.clone(),
            scrub: scrub.clone(),
            verify_clean: verify.is_clean(),
            replay_hits: snap.stdb.replay_hits,
            replay_misses: snap.stdb.replay_misses,
            unrecovered: unrecovered.clone(),
        };
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "io chaos soak: seed={} episodes={} steps={} store={}",
            opts.seed,
            opts.episodes,
            opts.steps,
            dir.display()
        );
        println!(
            "injected faults: torn-writes={} enospc={} short-reads={} bit-flips={}",
            write_stats.torn_writes(),
            write_stats.enospcs(),
            read_stats.short_reads(),
            read_stats.bit_flips()
        );
        println!(
            "ingest: steps={} observations={} retries={} dropped={}",
            ingest.steps, ingest.observations, snap.stdb.append_retries, snap.stdb.dropped_records
        );
        println!(
            "recovery: records={} torn-tails={} quarantined={} transient-heals={}",
            recovery.records,
            recovery.torn_tails,
            recovery.quarantined,
            recovery.transient_read_faults
        );
        println!(
            "scrub: ok={} corrupt={} repaired={} quarantined={} → clean={}",
            scrub.records_ok,
            scrub.records_corrupt,
            scrub.repaired,
            scrub.quarantined,
            verify.is_clean()
        );
        println!(
            "replay: hits={} misses={} (fall-through is graceful, not an error)",
            snap.stdb.replay_hits, snap.stdb.replay_misses
        );
        println!(
            "episodes: completed={completed} unrecovered={}",
            unrecovered.len()
        );
        for line in &unrecovered {
            println!("  UNRECOVERED {line}");
        }
    }
    if !unrecovered.is_empty() {
        return Err(format!("{} unrecovered failure(s)", unrecovered.len()).into());
    }
    Ok(())
}

/// The `cg stdb` maintenance surface over a store directory: generate
/// (populate from live episodes), scrub (verify every checksum, optionally
/// repair), compact (drop superseded records crash-safely), stats.
fn stdb_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match args.first().map(String::as_str) {
        Some("generate") => stdb_generate(&args[1..]),
        Some("scrub") => stdb_scrub(&args[1..]),
        Some("compact") => stdb_compact(&args[1..]),
        Some("stats") => stdb_stats(&args[1..]),
        _ => Err("usage: cg stdb {generate|scrub|compact|stats} <dir> [flags]".into()),
    }
}

/// Splits `<dir>` plus simple flags for the `cg stdb` subcommands.
fn stdb_dir_arg<'a>(
    positional: &[&'a String],
    what: &str,
) -> Result<&'a String, Box<dyn std::error::Error>> {
    positional
        .first()
        .copied()
        .ok_or_else(|| format!("usage: cg stdb {what} <dir> [flags]").into())
}

fn stdb_generate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut episodes: u64 = 4;
    let mut steps: u64 = 10;
    let mut seed: u64 = 7;
    let mut json = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--episodes" => episodes = val("--episodes")?.parse()?,
            "--steps" => steps = val("--steps")?.parse()?,
            "--seed" => seed = val("--seed")?.parse()?,
            "--json" => json = true,
            _ => positional.push(flag),
        }
    }
    let dir = stdb_dir_arg(&positional, "generate")?;
    let store =
        cg_stdb::TransitionStore::open(std::path::Path::new(dir), cg_stdb::StoreConfig::default())?;
    cg_stdb::generate(&store, &SOAK_BENCHMARKS, episodes, steps, seed)?;
    let stats = store.stats();
    if json {
        println!("{}", serde_json::to_string_pretty(&stats)?);
    } else {
        println!(
            "generated {} episode(s) × {} step(s) into {}",
            episodes, steps, stats.dir
        );
        println!(
            "  steps={} edges={} observations={} benchmarks={} segments={} bytes={} dropped={}",
            stats.steps,
            stats.edges,
            stats.observations,
            stats.benchmarks,
            stats.segments,
            stats.bytes,
            stats.dropped_records
        );
    }
    Ok(())
}

fn stdb_scrub(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut repair = false;
    let mut json = false;
    let mut positional: Vec<&String> = Vec::new();
    for flag in args {
        match flag.as_str() {
            "--repair" => repair = true,
            "--json" => json = true,
            _ => positional.push(flag),
        }
    }
    let dir = stdb_dir_arg(&positional, "scrub")?;
    let report = cg_stdb::scrub_dir(
        std::path::Path::new(dir),
        &cg_stdb::WalConfig::default(),
        repair,
        None,
    )?;
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "scrub {}: segments={} ok={} corrupt={} repaired={} quarantined={} \
             torn-tails={} bytes-verified={}",
            dir,
            report.segments,
            report.records_ok,
            report.records_corrupt,
            report.repaired,
            report.quarantined,
            report.torn_tails,
            report.bytes_verified
        );
    }
    // Verify-only mode works like fsck: a dirty store is a non-zero exit.
    // Repair mode fixed what it found, so it exits clean.
    if !repair && !report.is_clean() {
        return Err(format!(
            "{} corrupt record(s), {} torn tail(s) — run `cg stdb scrub {} --repair`",
            report.records_corrupt, report.torn_tails, dir
        )
        .into());
    }
    Ok(())
}

fn stdb_compact(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = false;
    let mut positional: Vec<&String> = Vec::new();
    for flag in args {
        match flag.as_str() {
            "--json" => json = true,
            _ => positional.push(flag),
        }
    }
    let dir = stdb_dir_arg(&positional, "compact")?;
    let report = cg_stdb::compact_dir(std::path::Path::new(dir), &cg_stdb::WalConfig::default())?;
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "compact {}: records {} → {}, segments {} → {}, bytes {} → {}{}",
            dir,
            report.records_before,
            report.records_after,
            report.segments_before,
            report.segments_after,
            report.bytes_before,
            report.bytes_after,
            if report.corrupt_skipped > 0 {
                format!(
                    " ({} corrupt frame(s) skipped — scrub first)",
                    report.corrupt_skipped
                )
            } else {
                String::new()
            }
        );
    }
    Ok(())
}

fn stdb_stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = false;
    let mut positional: Vec<&String> = Vec::new();
    for flag in args {
        match flag.as_str() {
            "--json" => json = true,
            _ => positional.push(flag),
        }
    }
    let dir = stdb_dir_arg(&positional, "stats")?;
    let store =
        cg_stdb::TransitionStore::open(std::path::Path::new(dir), cg_stdb::StoreConfig::default())?;
    let stats = store.stats();
    if json {
        println!("{}", serde_json::to_string_pretty(&stats)?);
    } else {
        println!("transition store {}", stats.dir);
        println!(
            "  index: steps={} edges={} observations={} benchmarks={} checkpoints={}",
            stats.steps, stats.edges, stats.observations, stats.benchmarks, stats.checkpoints
        );
        println!(
            "  wal: segments={} bytes={} recovered-records={}",
            stats.segments, stats.bytes, stats.recovered_records
        );
        println!(
            "  integrity: torn-tails={} quarantined={} decode-failures={} dropped={}",
            stats.torn_tails, stats.quarantined, stats.decode_failures, stats.dropped_records
        );
    }
    Ok(())
}

fn replay(path: Option<&str>, validate: bool) -> Result<(), Box<dyn std::error::Error>> {
    let path = path.ok_or("missing state file")?;
    let text = std::fs::read_to_string(path)?;
    let state = cg_core::EnvState::from_json(&text)?;
    if validate {
        state.validate()?;
        println!("OK: state is reproducible and the reward checks out");
    } else {
        let env = state.replay()?;
        println!(
            "replayed {} actions, reward {:+.4}",
            state.actions.len(),
            env.episode_reward()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The multi-tenant front door: `cg serve` and the `stampede` chaos mode.
// Both drive `cg_core::Broker` — the bounded worker fleet with admission
// control — over real TCP connections.
// ---------------------------------------------------------------------------

/// A synthetic compilation session that busy-spins a fixed duration per
/// applied action. Service time is constant and CPU-bound, so the stampede
/// soak exercises the broker, not compiler noise.
struct SpinSession {
    steps: u64,
    spin: std::time::Duration,
}

impl cg_core::CompilationSession for SpinSession {
    fn action_spaces(&self) -> Vec<cg_core::ActionSpaceInfo> {
        vec![cg_core::ActionSpaceInfo {
            name: "Spin".into(),
            actions: (0..16).map(|i| format!("spin-{i}")).collect(),
        }]
    }

    fn observation_spaces(&self) -> Vec<cg_core::ObservationSpaceInfo> {
        Vec::new()
    }

    fn reward_spaces(&self) -> Vec<cg_core::RewardSpaceInfo> {
        Vec::new()
    }

    fn init(&mut self, _benchmark: &str, _action_space: usize) -> Result<(), String> {
        Ok(())
    }

    fn apply_action(&mut self, _action: usize) -> Result<cg_core::session::ActionOutcome, String> {
        let until = std::time::Instant::now() + self.spin;
        while std::time::Instant::now() < until {
            std::hint::spin_loop();
        }
        self.steps += 1;
        Ok(cg_core::session::ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: true,
        })
    }

    fn observe(&mut self, _space: &str) -> Result<cg_core::Observation, String> {
        Ok(cg_core::Observation::Scalar(self.steps as f64))
    }

    fn fork(&self) -> Box<dyn cg_core::CompilationSession> {
        Box::new(SpinSession {
            steps: self.steps,
            spin: self.spin,
        })
    }

    fn snapshot(&self) -> Option<cg_core::session::SessionSnapshot> {
        let bytes = self.steps.to_le_bytes().to_vec();
        Some(cg_core::session::SessionSnapshot::from_bytes(bytes))
    }
    fn restore(&mut self, snapshot: &cg_core::session::SessionSnapshot) -> Result<(), String> {
        let bytes: [u8; 8] = snapshot.to_bytes().try_into().map_err(|_| "bad snapshot")?;
        self.steps = u64::from_le_bytes(bytes);
        Ok(())
    }
}

/// A factory of [`SpinSession`]s with the given per-action cost.
fn spin_factory(spin_us: u64) -> cg_core::service::SessionFactory {
    let spin = std::time::Duration::from_micros(spin_us);
    std::sync::Arc::new(move || Box::new(SpinSession { steps: 0, spin }))
}

/// Calls through a raw [`cg_core::service::TcpTransport`], absorbing typed
/// `Overloaded` refusals in place: count the refusal, sleep at least the
/// server-advised `retry_after_ms` (the policy's jittered exponential
/// backoff applies on top), and re-issue — up to the policy's attempt
/// count. Every other outcome is returned as-is. This is the well-behaved
/// tenant the front door is designed for.
fn call_absorbing_overload(
    client: &cg_core::service::TcpTransport,
    req: &cg_core::service::Request,
    policy: &cg_core::RetryPolicy,
    refusals: &mut u64,
) -> Result<cg_core::service::Response, cg_core::CgError> {
    let mut attempt = 0u32;
    loop {
        match client.call(req.clone()) {
            Err(cg_core::CgError::Overloaded {
                retry_after_ms,
                reason,
            }) => {
                *refusals += 1;
                if attempt + 1 >= policy.max_attempts.max(1) {
                    return Err(cg_core::CgError::Overloaded {
                        retry_after_ms,
                        reason,
                    });
                }
                attempt += 1;
                std::thread::sleep(
                    policy.backoff_with_floor(
                        attempt,
                        std::time::Duration::from_millis(retry_after_ms),
                    ),
                );
            }
            other => return other,
        }
    }
}

/// `cg serve`: run the broker front door on a TCP address; with `--drain`,
/// ask an already-running server to checkpoint its sessions and exit.
fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::time::Duration;

    let mut addr = "127.0.0.1:4567".to_string();
    let mut env_name = "llvm-v0".to_string();
    // Every sizing flag defaults to `BrokerConfig::default()`.
    let mut cfg = cg_core::BrokerConfig::default();
    let mut serve_metrics_addr: Option<String> = None;
    let mut drain = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--addr" => addr = val("--addr")?.clone(),
            "--env" => env_name = val("--env")?.clone(),
            "--workers" => cfg.workers = val("--workers")?.parse()?,
            "--max-sessions" => cfg.max_sessions = val("--max-sessions")?.parse()?,
            "--tenant-sessions" => cfg.quota.max_sessions = val("--tenant-sessions")?.parse()?,
            "--tenant-aps" => cfg.quota.actions_per_sec = val("--tenant-aps")?.parse()?,
            "--burst" => cfg.quota.burst = val("--burst")?.parse()?,
            "--queue-depth" => cfg.max_queue_depth = val("--queue-depth")?.parse()?,
            "--quantum" => cfg.quantum = val("--quantum")?.parse()?,
            "--max-connections" => cfg.max_connections = val("--max-connections")?.parse()?,
            "--retry-after-ms" => cfg.retry_after_ms = val("--retry-after-ms")?.parse()?,
            "--drain-grace-ms" => {
                let ms: u64 = val("--drain-grace-ms")?.parse()?;
                cfg.drain_grace = Duration::from_millis(ms.max(1));
            }
            "--serve-metrics" => serve_metrics_addr = Some(val("--serve-metrics")?.clone()),
            "--drain" => drain = true,
            other => {
                usage();
                return Err(format!("unknown serve flag `{other}`").into());
            }
        }
    }

    if drain {
        // Client mode: block until the server has checkpointed everything
        // live and is safe to kill.
        let client = cg_core::service::TcpTransport::connect_with_policy(
            &addr,
            Duration::from_secs(600),
            cg_core::RetryPolicy::none(),
        )?;
        return match client.call(cg_core::service::Request::Shutdown)? {
            cg_core::service::Response::Ok => {
                println!("server at {addr} drained");
                Ok(())
            }
            other => Err(format!("unexpected drain reply: {other:?}").into()),
        };
    }

    if let Some(maddr) = &serve_metrics_addr {
        let bound = cg_telemetry::export::spawn_metrics_server(maddr)?;
        eprintln!("serving metrics on http://{bound}/metrics");
    }
    let factory = cg_core::envs::session_factory(&env_name).map_err(cg_core::CgError::Unknown)?;
    let listener = std::net::TcpListener::bind(&addr)?;
    let bound = listener.local_addr()?;
    println!(
        "cg serve: front door on {bound} — {} workers, \
         {} sessions/tenant, queue depth {}; \
         stop with `cg serve --drain --addr {bound}`",
        cfg.workers, cfg.quota.max_sessions, cfg.max_queue_depth
    );
    let broker = cg_core::Broker::new(factory, cfg);
    broker.serve(listener)?;
    // Serve only returns once drained; fetch the stored report.
    let report = broker.drain(Duration::ZERO);
    println!(
        "cg serve: drained — {} live sessions checkpointed, {} queued requests shed",
        report.checkpointed, report.shed_queued
    );
    Ok(())
}

/// Inputs to the stampede front-door soak, carved off `cg chaos` flags.
struct StampedeOpts {
    soak_ms: u64,
    stampede_size: usize,
    seed: u64,
    json: bool,
    serve_metrics_addr: Option<String>,
    linger_ms: u64,
}

/// What happened to one stampeding connect.
enum StampedeFate {
    /// Refused with a typed in-band `Overloaded` frame — the contract.
    TypedRefusal,
    /// Admitted under the connection cap and served a `Ping`.
    Admitted,
    /// Anything else: a hang, a dropped connection, a garbled frame.
    Untyped(String),
}

/// One stampeding connect, as a real client makes it: a connection refused
/// at the cap finds the server's `Overloaded` frame where its handshake
/// expected the `HelloAck`; an admitted one proves it is actually served by
/// round-tripping a Ping.
fn stampede_connect(addr: &str) -> StampedeFate {
    use cg_core::service::{Request, Response, TcpTransport};

    let timeout = std::time::Duration::from_secs(5);
    let client =
        match TcpTransport::connect_with_policy(addr, timeout, cg_core::RetryPolicy::none()) {
            Ok(client) => client,
            Err(e) => return StampedeFate::Untyped(format!("connect: {e}")),
        };
    match client.call(Request::Ping) {
        Ok(Response::Pong) => StampedeFate::Admitted,
        Err(cg_core::CgError::Overloaded { .. }) => StampedeFate::TypedRefusal,
        Ok(other) => StampedeFate::Untyped(format!("ping answered {other:?}")),
        Err(e) => StampedeFate::Untyped(format!("ping: {e}")),
    }
}

/// The `stampede` front-door fault (`cg chaos --faults stampede`): a
/// broker server with established tenant sessions is hit mid-soak by
/// bursts of simultaneous connects. Passes when every established session
/// keeps stepping through the bursts, every excess connect is refused with
/// a typed `Overloaded` (no hangs, no dropped connections), and the server
/// drains cleanly afterwards.
fn chaos_stampede(opts: StampedeOpts) -> Result<(), Box<dyn std::error::Error>> {
    use cg_core::service::{Request, Response, TcpTransport};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const TENANTS: usize = 2;
    const CLIENTS: usize = 4;

    let tel = cg_telemetry::global();
    tel.reset();
    if let Some(maddr) = &opts.serve_metrics_addr {
        let bound = cg_telemetry::export::spawn_metrics_server(maddr)?;
        eprintln!("serving metrics on http://{bound}/metrics");
    }

    // Sized so every burst *must* shed: room for the established
    // connections plus a couple of stampede survivors.
    let cfg = cg_core::BrokerConfig {
        workers: 2,
        max_connections: CLIENTS + 2,
        retry_after_ms: 25,
        quota: cg_core::TenantQuota {
            max_sessions: 2,
            ..cg_core::TenantQuota::default()
        },
        ..cg_core::BrokerConfig::default()
    };
    let plan = cg_core::chaos::FaultPlan::seeded(opts.seed).with_stampede_size(opts.stampede_size);
    let burst_size = plan.stampede_size;
    let (factory, stats) = plan.wrap(spin_factory(200));
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let broker = cg_core::Broker::new(factory, cfg);
    let server = {
        let broker = broker.clone();
        std::thread::spawn(move || broker.serve(listener))
    };

    // Established tenants: CLIENTS long-lived sessions stepping for the
    // whole soak, counting progress into shared counters.
    let stop = Arc::new(AtomicBool::new(false));
    let counters: Vec<Arc<AtomicU64>> = (0..CLIENTS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let drivers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let count = Arc::clone(&counters[i]);
            std::thread::spawn(move || -> Result<(), String> {
                let mut refusals = 0u64;
                let policy = cg_core::RetryPolicy::default()
                    .with_max_attempts(20)
                    .with_backoff(Duration::from_millis(5), Duration::from_millis(100))
                    .with_jitter(0.25, 0xE57 + i as u64);
                let client = TcpTransport::connect_with_policy(
                    &addr,
                    Duration::from_secs(5),
                    cg_core::RetryPolicy::none(),
                )
                .map_err(|e| format!("client {i}: connect: {e}"))?;
                client.set_tenant(&format!("tenant-{}", i % TENANTS));
                let start = Request::StartSession {
                    benchmark: "benchmark://spin/soak".into(),
                    action_space: 0,
                };
                let sid = match call_absorbing_overload(&client, &start, &policy, &mut refusals)
                    .map_err(|e| format!("client {i}: start: {e}"))?
                {
                    Response::SessionStarted { session_id } => session_id,
                    other => return Err(format!("client {i}: start answered {other:?}")),
                };
                while !stop.load(Ordering::Relaxed) {
                    let step = Request::Step {
                        session_id: sid,
                        actions: vec![0],
                        observation_spaces: Vec::new(),
                    };
                    match call_absorbing_overload(&client, &step, &policy, &mut refusals) {
                        Ok(Response::Stepped { .. }) => {
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(other) => return Err(format!("client {i}: step answered {other:?}")),
                        Err(e) => return Err(format!("client {i}: established session: {e}")),
                    }
                }
                let _ = client.call(Request::EndSession { session_id: sid });
                Ok(())
            })
        })
        .collect();

    // Two bursts of simultaneous connects, a third of the soak apart.
    let soak = Duration::from_millis(opts.soak_ms.max(300));
    let started = Instant::now();
    let mut typed_refusals = 0u64;
    let mut admitted_connects = 0u64;
    let mut untyped: Vec<String> = Vec::new();
    let mut before_bursts: Vec<u64> = Vec::new();
    for (burst, at) in [soak / 3, soak * 2 / 3].into_iter().enumerate() {
        std::thread::sleep(at.saturating_sub(started.elapsed()));
        if burst == 0 {
            before_bursts = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        }
        stats.record_stampede();
        eprintln!(
            "stampede: burst {} — {burst_size} simultaneous connects",
            burst + 1
        );
        let barrier = Arc::new(std::sync::Barrier::new(burst_size));
        let connects: Vec<_> = (0..burst_size)
            .map(|_| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    stampede_connect(&addr)
                })
            })
            .collect();
        for handle in connects {
            match handle
                .join()
                .unwrap_or_else(|_| StampedeFate::Untyped("connect thread panicked".into()))
            {
                StampedeFate::TypedRefusal => typed_refusals += 1,
                StampedeFate::Admitted => admitted_connects += 1,
                StampedeFate::Untyped(e) => untyped.push(e),
            }
        }
    }
    std::thread::sleep(soak.saturating_sub(started.elapsed()));
    let after_bursts: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    stop.store(true, Ordering::Relaxed);
    let mut driver_errors: Vec<String> = Vec::new();
    for driver in drivers {
        match driver.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => driver_errors.push(e),
            Err(_) => driver_errors.push("established client panicked".into()),
        }
    }
    let drain = broker.drain(Duration::from_secs(2));
    let _ = server.join();

    let stalled: Vec<usize> = before_bursts
        .iter()
        .zip(after_bursts.iter())
        .enumerate()
        .filter(|(_, (before, after))| after <= before)
        .map(|(i, _)| i)
        .collect();
    let steps_total: u64 = after_bursts.iter().sum();
    let min_steps_during_bursts = before_bursts
        .iter()
        .zip(after_bursts.iter())
        .map(|(before, after)| after.saturating_sub(*before))
        .min()
        .unwrap_or(0);

    #[derive(serde::Serialize)]
    struct StampedeReport {
        soak_ms: u64,
        bursts: u64,
        burst_size: usize,
        established_clients: usize,
        steps_total: u64,
        min_steps_during_bursts: u64,
        typed_refusals: u64,
        admitted_connects: u64,
        untyped_failures: Vec<String>,
        driver_errors: Vec<String>,
        stalled_clients: Vec<usize>,
        drain_checkpointed: usize,
        drain_shed_queued: usize,
    }
    let report = StampedeReport {
        soak_ms: opts.soak_ms,
        bursts: stats.stampedes(),
        burst_size,
        established_clients: CLIENTS,
        steps_total,
        min_steps_during_bursts,
        typed_refusals,
        admitted_connects,
        untyped_failures: untyped,
        driver_errors,
        stalled_clients: stalled,
        drain_checkpointed: drain.checkpointed,
        drain_shed_queued: drain.shed_queued,
    };
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "stampede: {} bursts × {} connects over {}ms soak",
            report.bursts, report.burst_size, report.soak_ms
        );
        println!(
            "  established: {} clients, {} steps total, min {} steps during the burst window",
            report.established_clients, report.steps_total, report.min_steps_during_bursts
        );
        println!(
            "  connects: {} typed refusals, {} admitted, {} untyped failures",
            report.typed_refusals,
            report.admitted_connects,
            report.untyped_failures.len()
        );
        println!(
            "  drain: {} checkpointed, {} shed",
            report.drain_checkpointed, report.drain_shed_queued
        );
        for e in report
            .untyped_failures
            .iter()
            .chain(report.driver_errors.iter())
        {
            println!("    ! {e}");
        }
    }

    if opts.linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(opts.linger_ms));
    }

    let mut failures = Vec::new();
    if report.typed_refusals == 0 {
        failures.push("stampede produced no typed refusals (cap never engaged)".to_string());
    }
    if !report.untyped_failures.is_empty() {
        failures.push(format!(
            "{} connects failed without a typed refusal",
            report.untyped_failures.len()
        ));
    }
    if !report.driver_errors.is_empty() {
        failures.push(format!(
            "{} established clients failed",
            report.driver_errors.len()
        ));
    }
    if !report.stalled_clients.is_empty() {
        failures.push(format!(
            "established clients {:?} made no progress through the bursts",
            report.stalled_clients
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; ").into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_args_reject_a_malformed_step_count() {
        let args: Vec<String> = ["llvm-v0", "benchmark://cbench-v1/qsort", "abc"]
            .map(String::from)
            .into();
        let positional: Vec<&String> = args.iter().collect();
        let err = episode_args(&positional)
            .err()
            .expect("`abc` is not a step count");
        assert!(err.contains("`abc`"), "the error names the argument: {err}");
        assert!(episode_args(&positional[..2]).is_ok_and(|ep| ep.steps == 50));
        let args: Vec<String> = ["gcc-v0", "benchmark://chstone-v0/adpcm", "7"]
            .map(String::from)
            .into();
        let positional: Vec<&String> = args.iter().collect();
        let ep = episode_args(&positional).unwrap();
        assert_eq!((ep.env.as_str(), ep.steps), ("gcc-v0", 7));
    }
}
