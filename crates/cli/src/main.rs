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
//! `cg random`, `cg stats` and `cg fuzz` accept `--stdb DIR` to stream every
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
         (LIST kinds: panic,hang,error,corrupt,wedge,slow-growth)\n           \
         [--timeout-ms MS] [--checkpoint-k K] [--budget-wall-ms MS] [--max-growth F]\n           \
         [--serve-metrics ADDR] [--linger-ms MS] [--json]\n  \
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
        "containment: checkpoints={} restores={} budget-kills={}",
        snap.checkpoints_taken, snap.checkpoint_restores, snap.budget_kills
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
        env.set_resource_budget(cg_core::ResourceBudget::default().with_wall(timeout))?;
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
    let mut serve_metrics_addr: Option<String> = None;
    let mut linger_ms: u64 = 0;
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
                        other => return Err(format!("unknown fault kind `{other}`").into()),
                    }
                }
            }
            "--timeout-ms" => timeout_ms = val("--timeout-ms")?.parse()?,
            "--checkpoint-k" => checkpoint_k = val("--checkpoint-k")?.parse()?,
            "--budget-wall-ms" => budget_wall_ms = val("--budget-wall-ms")?.parse()?,
            "--max-growth" => max_growth = val("--max-growth")?.parse()?,
            "--serve-metrics" => serve_metrics_addr = Some(val("--serve-metrics")?.clone()),
            "--linger-ms" => linger_ms = val("--linger-ms")?.parse()?,
            "--json" => json = true,
            other => {
                usage();
                return Err(format!("unknown chaos flag `{other}`").into());
            }
        }
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
            budget = budget.with_wall(Duration::from_millis(budget_wall_ms));
        }
        if max_growth > 0.0 {
            budget = budget.with_max_growth(max_growth);
        }
        env.set_resource_budget(budget)?;
    }

    let mut completed = 0u64;
    let mut session_errors = 0u64;
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
    let snap = tel.snapshot();

    if json {
        #[derive(serde::Serialize)]
        struct ChaosReport {
            episodes: u64,
            completed: u64,
            session_errors: u64,
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
        }
        let report = ChaosReport {
            episodes,
            completed,
            session_errors,
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
            "containment: checkpoints={} restores={} budget-kills={} abandoned-runners={}",
            snap.checkpoints_taken,
            snap.checkpoint_restores,
            snap.budget_kills,
            snap.runner_abandoned_live
        );
        println!(
            "episodes: completed={completed}/{episodes} session-errors={session_errors} \
             unrecovered={}",
            unrecovered.len()
        );
        for line in &unrecovered {
            println!("  UNRECOVERED {line}");
        }
    }
    if serve_metrics_addr.is_some() && linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(linger_ms));
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

    /// The retired soak modes and their flags are parse errors, returned
    /// before the first episode (an episode never fails with these words).
    #[test]
    fn chaos_rejects_retired_and_unknown_flags_before_running() {
        for (args, expected) in [
            (["--faults", "stampede"], "unknown fault kind `stampede`"),
            (["--faults", "io"], "unknown fault kind `io`"),
            (["--faults", "panic,bogus"], "unknown fault kind `bogus`"),
            (["--stdb", "d"], "unknown chaos flag `--stdb`"),
            (["--soak-ms", "1"], "unknown chaos flag `--soak-ms`"),
        ] {
            let args = args.map(String::from);
            let err = chaos(&args).expect_err("a parse error").to_string();
            assert_eq!(err, expected, "cg chaos {args:?}");
        }
    }
}
