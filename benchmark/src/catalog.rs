//! The metric and workload catalogue: every name the benchmark prints, with
//! its unit, direction and bound, declared once. `BENCHMARK.json` at the
//! repository root carries the same table for the driver; a unit test keeps
//! the two in step.

use crate::stats::Better;

/// `--seconds` the workloads' operation counts are sized for: the timed
/// rounds of one run take about this long on the reference host.
pub const NOMINAL_SECONDS: f64 = 12.0;

/// Times the set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Seconds a run idles before it sets anything up. On the reference host a
/// process that starts right after a CPU-saturating one (another run of
/// this benchmark, a build) finds cross-thread wake-ups 4-5x slower for the
/// next 45 s or more, while a few idle seconds in between restore them
/// (README, "Settling"). Idling first makes a run start from the same host
/// state whatever ran before it.
pub const SETTLE_SECONDS: u64 = 4;

/// Timed rounds of a `--smoke` run, whatever the workload.
pub const SMOKE_ROUNDS: usize = 3;

/// Schema tag of a result file.
pub const SCHEMA: &str = "cg-perfbench/1";

/// A workload and why it exists.
pub struct WorkloadDef {
    /// Final name.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "rl-loop",
        why: "in-process RL loop with ~15us steps on warm caches: env, service, telemetry and checkpoint overhead dominate",
    },
    WorkloadDef {
        name: "obs-sweep",
        why: "cold programs, all five observation spaces every step: printer and observations dominate, overhead is under 5%",
    },
    WorkloadDef {
        name: "tcp-fleet",
        why: "two clients over broker, CGB1 and loopback on tiny programs: wire, broker and socket hand-offs are most of a step",
    },
    WorkloadDef {
        name: "search-pool",
        why: "GA-shaped stream through a 2-worker EnvPool: pool dispatch plus eval-cache reads and writes at the same time",
    },
    WorkloadDef {
        name: "replay-store",
        why: "the only disk user: WAL ingest of live episodes, then replay:// reads with 8% misses falling through to the compiler",
    },
];

/// An end-to-end metric.
pub struct EndToEndDef {
    /// Final name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Bound in the metric's own unit that applies when it is the larger
    /// one (`setup_s`: 25 % or 0.25 s).
    pub absolute_bound: f64,
}

/// The end-to-end metrics, in print order. Every bound is the contract's
/// cap of 25 %: three times the spread observed over ten seeds on the
/// unchanged tree (README, "Baseline") is above it for every timed metric. `failed_share` is the ninth: it
/// is always 0 on a passing run, so the driver's result line carries it as
/// `failed`/`attempted` instead of as a bounded metric.
pub const END_TO_END: [EndToEndDef; 8] = [
    // cold benchmark build, env/server spawn, connect, store open and one warm-up pass; median of 5 set-ups
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.25,
    },
    // env steps completed / round wall time, resets included (search-pool: requested actions, cached or not)
    EndToEndDef {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        absolute_bound: 0.0,
    },
    // median CompilerEnv::step_lazy call (search-pool: evaluate_batch wall / actions requested in it)
    EndToEndDef {
        name: "step_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.0,
    },
    // p99 of the same, or the highest percentile with at least 10 samples beyond it
    EndToEndDef {
        name: "step_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.0,
    },
    // median CompilerEnv::reset: cold benchmark on obs-sweep, warm elsewhere (search-pool: a side env between batches)
    EndToEndDef {
        name: "reset_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.0,
    },
    // median submitted unit of work: one evaluate_batch on search-pool, one episode (reset + steps) elsewhere
    EndToEndDef {
        name: "batch_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.0,
    },
    // process user+sys CPU over a round / steps x 1000: shows a wall gain bought with more threads
    EndToEndDef {
        name: "cpu_ms_per_kstep",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.0,
    },
    // VmHWM when the timed rounds end
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        absolute_bound: 0.0,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: no bound, printed by the traced run.
pub struct LayerDef {
    /// Final name; the prefix is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in print order (deepest layer first).
pub const PER_LAYER: [LayerDef; 68] = [
    layer("datasets.build_us", "us", Lower),
    layer("ir.parser.us_per_kinst", "us", Lower),
    layer("ir.printer.us_per_kinst", "us", Lower),
    layer("ir.am.hit_ratio", "ratio", Higher),
    layer("ir.am.fresh_hit_ratio", "ratio", Higher),
    layer("ir.am.noop_skips", "count", Higher),
    layer("llvm.pass.self_us", "us", Lower),
    layer("llvm.pass.cold_us", "us", Lower),
    layer("llvm.pass.changed_ratio", "ratio", Higher),
    layer("llvm.observation.ir_us", "us", Lower),
    layer("llvm.observation.instcount_us", "us", Lower),
    layer("llvm.observation.instcount_incr_us", "us", Lower),
    layer("llvm.observation.autophase_us", "us", Lower),
    layer("llvm.observation.autophase_incr_us", "us", Lower),
    layer("llvm.observation.inst2vec_us", "us", Lower),
    layer("llvm.observation.programl_us", "us", Lower),
    layer("llvm.reward.us", "us", Lower),
    layer("core.session.self_us", "us", Lower),
    layer("core.checkpoint.save_us", "us", Lower),
    layer("core.checkpoint.bytes", "count", Lower),
    layer("core.checkpoint.taken", "count", Lower),
    layer("core.service.self_us", "us", Lower),
    layer("core.env.self_us", "us", Lower),
    layer("core.env.reset_us", "us", Lower),
    layer("core.floor_step_us", "us", Lower),
    layer("telemetry.span_ns", "ns", Lower),
    layer("telemetry.histogram_record_ns", "ns", Lower),
    layer("core.wire.encode_request_us", "us", Lower),
    layer("core.wire.decode_request_us", "us", Lower),
    layer("core.wire.encode_response_us", "us", Lower),
    layer("core.wire.decode_response_us", "us", Lower),
    layer("core.wire.bytes_per_step", "count", Lower),
    layer("core.wire.programl_roundtrip_us", "us", Lower),
    layer("core.wire.programl_bytes", "count", Lower),
    layer("core.broker.self_us", "us", Lower),
    layer("core.broker.queue_wait_us", "us", Lower),
    layer("core.broker.refused", "count", Lower),
    layer("core.tcp.self_us", "us", Lower),
    layer("core.tcp.pipelined_us_per_step", "us", Lower),
    layer("core.env.tcp_self_us", "us", Lower),
    layer("core.pool.dispatch_us", "us", Lower),
    layer("core.pool.worker_busy_ratio", "ratio", Higher),
    layer("core.pool.speedup_2_workers", "ratio", Higher),
    layer("core.evalcache.hit_ratio", "ratio", Higher),
    layer("core.evalcache.prefix_hit_ratio", "ratio", Higher),
    layer("core.evalcache.actions_saved_ratio", "ratio", Higher),
    layer("core.evalcache.lookup_us", "us", Lower),
    layer("core.evalcache.insert_us", "us", Lower),
    layer("core.evalcache.longest_prefix_us", "us", Lower),
    layer("core.env.restore_snapshot_us", "us", Lower),
    layer("core.env.episode_snapshot_us", "us", Lower),
    layer("stdb.store.log_step_us", "us", Lower),
    layer("stdb.store.ingest_records_per_s", "1/s", Higher),
    layer("stdb.store.bytes_per_step", "count", Lower),
    layer("stdb.store.dropped_records", "count", Lower),
    layer("stdb.store.lookup_us", "us", Lower),
    layer("stdb.store.open_s", "s", Lower),
    layer("stdb.sink.self_us", "us", Lower),
    layer("stdb.replay.hit_ratio", "ratio", Higher),
    layer("stdb.replay.hit_step_us", "us", Lower),
    layer("stdb.replay.miss_step_us", "us", Lower),
    layer("share.compiler_pct", "%", Lower),
    layer("share.observation_pct", "%", Lower),
    layer("share.serving_pct", "%", Lower),
    layer("harness.untraced_step_us", "us", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.budget_residual_pct", "%", Lower),
    layer("harness.round_spread_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_meet_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    /// `BENCHMARK.json` is outside this package; when the benchmark is
    /// tested inside the repository, check that it says what this table
    /// says.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let Ok(text) = std::fs::read_to_string("../BENCHMARK.json") else {
            return;
        };
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<serde_json::Value> {
            match v.get(key) {
                Some(serde_json::Value::Array(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let text_of = |item: &serde_json::Value, key: &str| -> String {
            match item.get(key) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(item, "name"), def.name);
            assert_eq!(text_of(item, "why"), def.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(item, "name"), def.name);
            assert_eq!(text_of(item, "unit"), def.unit);
            assert_eq!(text_of(item, "better"), def.better.as_str());
            let bound = match item.get("bound") {
                Some(serde_json::Value::Float(f)) => *f,
                other => panic!("bound: {other:?}"),
            };
            assert!((bound - def.bound).abs() < 1e-12, "{}", def.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(item, "name"), def.name);
            assert_eq!(text_of(item, "unit"), def.unit);
            assert_eq!(text_of(item, "better"), def.better.as_str());
        }
        match v.get("run_seconds") {
            Some(serde_json::Value::UInt(s)) => assert_eq!(*s as f64, NOMINAL_SECONDS),
            Some(serde_json::Value::Int(s)) => assert_eq!(*s as f64, NOMINAL_SECONDS),
            other => panic!("run_seconds: {other:?}"),
        }
    }
}
