//! Table II: computational costs of environment operations — service
//! startup, environment initialization (cold/warm), and environment step —
//! for CompilerGym (plus its batched mode) versus the Autophase- and
//! OpenTuner-style architectures.

use std::sync::Arc;

use cg_bench::{rng, scaled, WallStats};
use cg_core::service::{InlineLink, Link, Request};
use rand::Rng as _;

fn main() {
    let bench_uris: Vec<String> = ["crc32", "qsort", "sha", "bitcount", "gsm"]
        .iter()
        .map(|n| format!("benchmark://cbench-v1/{n}"))
        .collect();
    let steps = scaled(300, 20_000);
    let mut r = rng(42);

    // --- Service startup ---
    let mut startup = WallStats::new();
    for _ in 0..scaled(20, 100) {
        startup.time(|| {
            let factory: cg_core::service::SessionFactory =
                Arc::new(|| cg_core::envs::create_session("llvm-v0").unwrap());
            let link = InlineLink::new(factory);
            Link::call(&link, Request::Ping).unwrap();
        });
    }

    // --- Environment initialization ---
    cg_core::envs::llvm::clear_benchmark_cache();
    let mut env = cg_core::make("llvm-v0").unwrap();
    let mut init_cold = WallStats::new();
    for uri in &bench_uris {
        env.set_benchmark(uri);
        init_cold.time(|| env.reset().unwrap());
    }
    let mut init_warm = WallStats::new();
    for _ in 0..scaled(40, 400) {
        let uri = &bench_uris[r.gen_range(0..bench_uris.len())];
        env.set_benchmark(uri);
        init_warm.time(|| env.reset().unwrap());
    }
    let mut init_autophase = WallStats::new();
    for _ in 0..scaled(10, 100) {
        let uri = &bench_uris[r.gen_range(0..bench_uris.len())];
        init_autophase.time(|| cg_baselines::AutophaseStyleEnv::new(uri).unwrap());
    }
    let mut init_opentuner = WallStats::new();
    for _ in 0..scaled(10, 100) {
        let uri = &bench_uris[r.gen_range(0..bench_uris.len())];
        init_opentuner.time(|| cg_baselines::OpenTunerStyleEnv::new(uri).unwrap());
    }

    // --- Environment step (random trajectories, episodes of 30) ---
    let n_actions = env.action_space().len();
    let mut cg_step = WallStats::new();
    let mut cg_batched = WallStats::new();
    let mut ap_step = WallStats::new();
    let mut ot_step = WallStats::new();
    let mut done = 0usize;
    'outer: loop {
        for uri in &bench_uris {
            env.set_benchmark(uri);
            env.reset().unwrap();
            let mut ap = cg_baselines::AutophaseStyleEnv::new(uri).unwrap();
            let mut ot = cg_baselines::OpenTunerStyleEnv::new(uri).unwrap();
            let episode: Vec<usize> = (0..30).map(|_| r.gen_range(0..n_actions)).collect();
            for &a in &episode {
                cg_step.time(|| env.step(a).unwrap());
                ap_step.time(|| ap.step(a));
                ot_step.time(|| ot.step(a));
                done += 1;
                if done >= steps {
                    break 'outer;
                }
            }
            // Batched: the same episode in one RPC, amortized per action.
            env.reset().unwrap();
            let t = std::time::Instant::now();
            env.step_batched(&episode).unwrap();
            let per_action = t.elapsed().as_secs_f64() * 1e3 / episode.len() as f64;
            for _ in 0..episode.len() {
                cg_batched.push(per_action);
            }
        }
    }

    println!("Table II: computational costs (p50 / p99 / mean per operation)");
    println!("{:<22} ", "-- service startup --");
    println!("{:<22} {}", "CompilerGym", startup.row());
    println!("{:<22} ", "-- env init --");
    println!("{:<22} {}", "Autophase-style", init_autophase.row());
    println!("{:<22} {}", "OpenTuner-style", init_opentuner.row());
    println!(
        "{:<22} {}  (cold: {:.3}ms mean)",
        "CompilerGym (warm)",
        init_warm.row(),
        init_cold.mean()
    );
    println!("{:<22} ", "-- env step --");
    println!("{:<22} {}", "Autophase-style", ap_step.row());
    println!("{:<22} {}", "OpenTuner-style", ot_step.row());
    println!("{:<22} {}", "CompilerGym", cg_step.row());
    println!("{:<22} {}", "CompilerGym-batched", cg_batched.row());
    let speedup = ap_step.mean() / cg_step.mean().max(1e-9);
    let batch_gain = cg_step.mean() / cg_batched.mean().max(1e-9);
    println!("\nCompilerGym step speedup over Autophase-style: {speedup:.1}x (paper: 27x)");
    println!("Batching gain: {batch_gain:.1}x (paper: 2.9x)");
}
