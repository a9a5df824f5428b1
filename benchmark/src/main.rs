//! `cg-perfbench`: the repository's one benchmark. It measures every layer
//! from outside, by timing calls into public functions; it adds no span,
//! switch or environment variable to any crate. See `README.md`.

mod catalog;
mod compare;
mod gen;
mod host;
mod layers;
mod result;
mod run;
mod span;
mod stats;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use result::RunResult;
use run::RunCfg;

const USAGE: &str = "\
usage: cg-perfbench run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                        [--smoke] [--out DIR]
       cg-perfbench compare BASE NEW     (result files, or directories of them)
       cg-perfbench manifest             (prints BENCHMARK.json)

run without --workload runs all five. --trace alone runs the timed rounds and
then the traced run; `--trace 1` only the traced run (per-layer metrics),
`--trace 0` only the timed rounds (end-to-end metrics). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.";

/// Which of the two kinds of run `run` makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Timed,
    Traced,
    Both,
}

struct RunArgs {
    workloads: Vec<&'static str>,
    mode: Mode,
    cfg: RunCfg,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workloads: Vec<&'static str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut mode = Mode::Timed;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: catalog::NOMINAL_SECONDS,
        smoke: false,
        // From the repository root (where the driver runs it) or from the
        // package directory.
        out_dir: PathBuf::from(if std::path::Path::new("benchmark").is_dir() {
            "benchmark/out"
        } else {
            "out"
        }),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let def = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                workloads = vec![def.name];
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err(format!("--seconds {s}: expected 0.5 to 600"));
                }
                cfg.seconds = s;
            }
            "--out" => cfg.out_dir = PathBuf::from(value("--out")?),
            "--smoke" => cfg.smoke = true,
            "--trace" => {
                mode = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        Mode::Timed
                    }
                    Some("1") => {
                        it.next();
                        Mode::Traced
                    }
                    _ => Mode::Both,
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunArgs {
        workloads,
        mode,
        cfg,
    })
}

fn run_timed(workload: &str, cfg: &RunCfg) -> Result<RunResult, String> {
    match workload {
        "rl-loop" => workloads::rl_loop::run(cfg),
        "obs-sweep" => workloads::obs_sweep::run(cfg),
        "tcp-fleet" => workloads::tcp_fleet::run(cfg),
        "search-pool" => workloads::search_pool::run(cfg),
        "replay-store" => workloads::replay_store::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn print_result(r: &RunResult) {
    let h = &r.host;
    println!(
        "\n== {} {} seed {} --seconds {}{} ==",
        r.workload,
        if r.traced { "(traced)" } else { "(timed)" },
        r.seed,
        r.seconds,
        if r.comparable {
            ""
        } else {
            "  [SMOKE: not comparable]"
        }
    );
    println!(
        "host: {} x {} | kernel {} | {} | commit {}{} | load {:.2} -> {:.2}{}",
        h.nproc,
        h.cpu_model,
        h.kernel,
        h.rustc,
        &h.git_commit[..h.git_commit.len().min(12)],
        if h.git_dirty { "+dirty" } else { "" },
        h.load_start,
        h.load_end,
        if h.noisy_host { "  [NOISY HOST]" } else { "" }
    );
    if r.pinned_cpu >= 0 {
        println!("client and service threads pinned to cpu {}", r.pinned_cpu);
    }
    let counts: Vec<String> = r.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "input {} | per round: {} | rounds {} | set-ups {}",
        r.input_digest,
        counts.join(" "),
        r.rounds,
        r.setup_repeats
    );
    if !r.traced {
        println!(
            "{:<18} {:>14} {:>6}  {:>14} {:>8}  {:>8}  note",
            "end-to-end", "median", "unit", "best", "spread%", "samples"
        );
        for def in &END_TO_END {
            let Some(m) = r.end_to_end.get(def.name) else {
                continue;
            };
            let spread = if m.best == 0.0 {
                0.0
            } else {
                100.0 * (m.value - m.best).abs() / m.best.abs()
            };
            println!(
                "{:<18} {:>14.4} {:>6}  {:>14.4} {:>8.1}  {:>8}  {}",
                def.name, m.value, m.unit, m.best, spread, m.samples, m.note
            );
        }
        println!(
            "{:<18} {:>14.6} {:>6}  ({} failed of {} attempted)",
            "failed_share", r.failed_share, "ratio", r.failed, r.attempted
        );
    } else {
        println!("{:<40} {:>16} {:>6}", "per-layer", "value", "unit");
        for def in &PER_LAYER {
            if let Some(l) = r.per_layer.get(def.name) {
                println!("{:<40} {:>16.4} {:>6}", def.name, l.value, l.unit);
            }
        }
        println!(
            "{:<40} {:>9} {:>12} {:>12} {:>10}",
            "span (harness-recorded)", "calls", "total ms", "self ms", "mean us"
        );
        for s in &r.spans {
            println!(
                "{:<40} {:>9} {:>12.3} {:>12.3} {:>10.2}",
                s.name,
                s.calls,
                s.total_us / 1e3,
                s.self_us / 1e3,
                s.total_us / s.calls.max(1) as f64
            );
        }
    }
    for line in &r.verify {
        println!("verify: {line}");
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        workloads,
        mode,
        cfg,
    } = parse_run(args)?;
    let mut all_correct = true;
    let mut last = None;
    for workload in workloads {
        let mut results = Vec::new();
        if mode != Mode::Traced {
            results.push(run_timed(workload, &cfg)?);
        }
        if mode != Mode::Timed {
            results.push(layers::run(workload, &cfg)?);
        }
        for r in results {
            print_result(&r);
            let path = r.save(&cfg.out_dir).map_err(|e| e.to_string())?;
            println!("result: {}", path.display());
            all_correct &= r.correct;
            last = Some(r);
        }
    }
    let _ = std::fs::remove_dir_all(cfg.out_dir.join("tmp"));
    if let Some(r) = last {
        println!("{}", r.contract_line());
    }
    Ok(all_correct)
}

/// `BENCHMARK.json`, generated from the catalogue.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        catalog::NOMINAL_SECONDS as u64,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(&PathBuf::from(&args[1]), &PathBuf::from(&args[2]))
        }
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cg-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
