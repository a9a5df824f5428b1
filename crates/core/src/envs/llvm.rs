//! The LLVM phase-ordering session (§V-A).
//!
//! The session's state is one copy-on-write [`Module`]. Passes write only
//! the functions they change, so a function no action has changed since
//! `init` is still the cached benchmark's, and a snapshot is just
//! `Arc::new(module.clone())`: consecutive snapshots share every function
//! the actions between them left alone, with no bookkeeping here.

use std::collections::HashMap;
use std::sync::Arc;

use cg_ir::interp::ExecLimits;
use cg_ir::Module;
use cg_llvm::action_space::{autophase_subset, ActionSpace};
use cg_llvm::{observation, pipeline, reward};
use parking_lot::Mutex;

use crate::session::{ActionOutcome, CompilationSession, SessionSnapshot, SnapshotState};
use crate::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};

/// Parsed-benchmark cache: the amortized-O(1) environment initialization of
/// Table II. Keyed by URI; values are immutable parsed modules.
static BENCHMARK_CACHE: Mutex<Option<HashMap<String, Arc<Module>>>> = Mutex::new(None);

/// Baseline metric cache: (-Oz size, -Oz binary size, -O3 cycles) per URI.
static BASELINE_CACHE: Mutex<Option<HashMap<String, Baselines>>> = Mutex::new(None);

#[derive(Debug, Clone, Copy)]
struct Baselines {
    oz_ir_count: f64,
    oz_binary_size: f64,
    o3_runtime: Option<f64>,
}

/// Fetches (or parses and caches) a benchmark module.
///
/// # Errors
/// Propagates dataset resolution failures.
pub fn cached_benchmark(uri: &str) -> Result<Arc<Module>, String> {
    let mut guard = BENCHMARK_CACHE.lock();
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(m) = cache.get(uri) {
        return Ok(Arc::clone(m));
    }
    let m = Arc::new(cg_datasets::benchmark(uri).map_err(|e| e.to_string())?);
    cache.insert(uri.to_string(), Arc::clone(&m));
    Ok(Arc::clone(&m))
}

/// Empties the benchmark cache (used by the cold-vs-warm init benchmarks).
pub fn clear_benchmark_cache() {
    *BENCHMARK_CACHE.lock() = None;
}

fn baselines_for(uri: &str, module: &Module) -> Baselines {
    let mut guard = BASELINE_CACHE.lock();
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(b) = cache.get(uri) {
        return *b;
    }
    let mut oz = module.clone();
    pipeline::run_oz(&mut oz);
    let mut o3 = module.clone();
    pipeline::run_o3(&mut o3);
    let b = Baselines {
        oz_ir_count: reward::ir_instruction_count(&oz) as f64,
        oz_binary_size: reward::binary_size(&oz) as f64,
        o3_runtime: reward::runtime_cycles(&o3, &ExecLimits::default())
            .ok()
            .map(|c| c as f64),
    };
    cache.insert(uri.to_string(), b);
    b
}

/// A module is its own snapshot: cloning one shares every function and all
/// globals (copy-on-write), and its portable encoding is the printed IR —
/// print/parse round-trips byte-identically (the checkpoint contract) and
/// the format is stable across service restarts.
impl SnapshotState for Module {
    fn encode(&self) -> Vec<u8> {
        cg_ir::printer::print_module(self).into_bytes()
    }
}

/// The LLVM phase-ordering compilation session: holds the module being
/// optimized and applies one pass per action ("After initially reading and
/// parsing the bitcode file, the server incrementally applies an individual
/// optimization pass at each step" — the source of the 27× of Table II).
pub struct LlvmSession {
    space: &'static ActionSpace,
    subset: &'static [usize],
    active_subset: bool,
    module: Option<Module>,
    benchmark: String,
    measurement_counter: u64,
    /// Interpreter limits for runtime observations; the fuel cap is
    /// tightened by `apply_budget` (in-service resource budgets).
    limits: ExecLimits,
    /// Per-function feature cache; invalidated by the `Touched` set each
    /// applied pass reports, so `InstCount`/`Autophase` only re-scan dirty
    /// functions.
    features: observation::IncrementalFeatures,
    /// Reusable IR-print buffer for `Ir` observations and `save_state`
    /// (interior mutability because `save_state` takes `&self`; sessions
    /// are `Send` but never shared, so `RefCell` suffices).
    print_buf: std::cell::RefCell<String>,
    /// Analysis cache shared across the episode's actions: a pass reuses
    /// the dominator tree or loop forest of any function the previous
    /// actions left unchanged (stamp-checked).
    analyses: cg_ir::AnalysisManager,
}

impl Default for LlvmSession {
    fn default() -> LlvmSession {
        LlvmSession::new()
    }
}

impl LlvmSession {
    /// Creates an uninitialized session.
    pub fn new() -> LlvmSession {
        // The action space (124 pass objects) and the Autophase subset's
        // indices into it (42 name searches) are the same for every
        // session; build them once, not on every `reset` and restore.
        static SPACES: std::sync::OnceLock<(ActionSpace, Vec<usize>)> = std::sync::OnceLock::new();
        let (space, subset) = SPACES.get_or_init(|| {
            let space = ActionSpace::new();
            let subset = autophase_subset()
                .iter()
                .map(|n| space.index_of(n).expect("subset names are registry names"))
                .collect();
            (space, subset)
        });
        LlvmSession {
            space,
            subset,
            active_subset: false,
            module: None,
            benchmark: String::new(),
            measurement_counter: 0,
            limits: ExecLimits::default(),
            features: observation::IncrementalFeatures::new(),
            print_buf: std::cell::RefCell::new(String::new()),
            analyses: cg_ir::AnalysisManager::new(),
        }
    }

    fn module(&self) -> Result<&Module, String> {
        self.module
            .as_ref()
            .ok_or_else(|| "session not initialized".to_string())
    }

    /// Direct access to the module (used by in-process tooling like the
    /// state-transition logger; not part of the RPC surface).
    pub fn module_ref(&self) -> Option<&Module> {
        self.module.as_ref()
    }
}

impl CompilationSession for LlvmSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        let names = self.space.names();
        let subset = self.subset.iter().map(|&i| names[i].clone()).collect();
        vec![
            ActionSpaceInfo {
                name: "PassPipeline".into(),
                actions: names,
            },
            ActionSpaceInfo {
                name: "AutophaseSubset".into(),
                actions: subset,
            },
        ]
    }

    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        use ObservationKind::*;
        let s = |name: &str, kind, deterministic, platform_dependent| ObservationSpaceInfo {
            name: name.into(),
            kind,
            deterministic,
            platform_dependent,
        };
        vec![
            s("Ir", Text, true, false),
            s("InstCount", IntVector, true, false),
            s("Autophase", IntVector, true, false),
            s("Inst2vec", FloatVector, true, false),
            s("Programl", Graph, true, false),
            s("IrInstructionCount", Scalar, true, false),
            s("IrInstructionCountOz", Scalar, true, false),
            s("ObjectTextSizeBytes", Scalar, true, true),
            s("ObjectTextSizeOz", Scalar, true, true),
            s("Runtime", Scalar, false, true),
            s("RuntimeO3", Scalar, false, true),
        ]
    }

    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        let r = |name: &str, metric: &str, baseline: Option<&str>, deterministic| RewardSpaceInfo {
            name: name.into(),
            metric: metric.into(),
            sign: 1.0,
            baseline: baseline.map(|b| b.into()),
            deterministic,
        };
        vec![
            r("IrInstructionCount", "IrInstructionCount", None, true),
            r(
                "IrInstructionCountOz",
                "IrInstructionCount",
                Some("IrInstructionCountOz"),
                true,
            ),
            r("ObjectTextSizeBytes", "ObjectTextSizeBytes", None, true),
            r(
                "ObjectTextSizeOz",
                "ObjectTextSizeBytes",
                Some("ObjectTextSizeOz"),
                true,
            ),
            r("Runtime", "Runtime", None, false),
            r("RuntimeO3", "Runtime", Some("RuntimeO3"), false),
        ]
    }

    fn init(&mut self, benchmark: &str, action_space: usize) -> Result<(), String> {
        if action_space > 1 {
            return Err(format!(
                "llvm-v0 has 2 action spaces, got index {action_space}"
            ));
        }
        self.active_subset = action_space == 1;
        self.module = Some((*cached_benchmark(benchmark)?).clone());
        self.benchmark = benchmark.to_string();
        self.measurement_counter = 0;
        self.features.clear();
        self.analyses = cg_ir::AnalysisManager::new();
        Ok(())
    }

    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        let index = if self.active_subset {
            *self
                .subset
                .get(action)
                .ok_or_else(|| format!("action {action} out of range (subset has 42)"))?
        } else {
            if action >= self.space.len() {
                return Err(format!(
                    "action {action} out of range ({} actions)",
                    self.space.len()
                ));
            }
            action
        };
        let m = self.module.as_mut().ok_or("session not initialized")?;
        let effect = self.space.apply_with(m, index, &mut self.analyses);
        self.features.invalidate(&effect.touched);
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: effect.changed,
        })
    }

    fn observe(&mut self, space: &str) -> Result<Observation, String> {
        let uri = self.benchmark.clone();
        // The feature spaces go through the per-function cache (mutable)
        // alongside the module, so handle them on disjoint field borrows
        // before the read-only arms.
        match space {
            "InstCount" => {
                let m = self.module.as_ref().ok_or("session not initialized")?;
                let v = self.features.inst_count(m);
                debug_assert_eq!(
                    v,
                    observation::inst_count(m),
                    "incremental InstCount diverged from full recompute"
                );
                return Ok(Observation::IntVector(v));
            }
            "Autophase" => {
                let m = self.module.as_ref().ok_or("session not initialized")?;
                let v = self.features.autophase(m);
                debug_assert_eq!(
                    v,
                    observation::autophase(m),
                    "incremental Autophase diverged from full recompute"
                );
                return Ok(Observation::IntVector(v));
            }
            _ => {}
        }
        let m = self.module()?;
        Ok(match space {
            "Ir" => {
                let mut buf = self.print_buf.borrow_mut();
                observation::ir_text_into(&mut buf, m);
                Observation::Text(buf.clone())
            }
            "Inst2vec" => Observation::FloatVector(observation::inst2vec(m)),
            "Programl" => Observation::Graph(observation::programl(m)),
            "IrInstructionCount" => Observation::Scalar(reward::ir_instruction_count(m) as f64),
            "ObjectTextSizeBytes" => Observation::Scalar(reward::binary_size(m) as f64),
            "IrInstructionCountOz" => {
                let b = baselines_for(&uri, m);
                Observation::Scalar(b.oz_ir_count)
            }
            "ObjectTextSizeOz" => {
                let b = baselines_for(&uri, m);
                Observation::Scalar(b.oz_binary_size)
            }
            "Runtime" => {
                self.measurement_counter += 1;
                let seed = cg_ir::fnv1a(uri.as_bytes()) ^ self.measurement_counter;
                let m = self.module()?;
                let t = reward::runtime_measurement(m, &self.limits, seed)
                    .map_err(|e| format!("benchmark is not runnable: {e}"))?;
                Observation::Scalar(t)
            }
            "RuntimeO3" => {
                let b = baselines_for(&uri, m);
                Observation::Scalar(b.o3_runtime.ok_or("benchmark is not runnable")?)
            }
            other => return Err(format!("unknown observation space `{other}`")),
        })
    }

    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(LlvmSession {
            space: self.space,
            subset: self.subset,
            active_subset: self.active_subset,
            module: self.module.clone(),
            benchmark: self.benchmark.clone(),
            measurement_counter: self.measurement_counter,
            limits: self.limits,
            features: self.features.clone(),
            print_buf: std::cell::RefCell::new(String::new()),
            // Forks start with an empty cache: entries repopulate on first
            // use, and the parent keeps its own.
            analyses: cg_ir::AnalysisManager::new(),
        })
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // The portable form (`SnapshotState::encode`'s bytes), printed into
        // the session's reusable buffer.
        self.module.as_ref().map(|m| {
            let mut buf = self.print_buf.borrow_mut();
            cg_ir::printer::print_module_into(&mut buf, m);
            buf.as_bytes().to_vec()
        })
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.restore(&SessionSnapshot::from_bytes(state.to_vec()))
    }

    fn snapshot(&mut self) -> Option<SessionSnapshot> {
        let snap = Arc::new(self.module.as_ref()?.clone());
        Some(SessionSnapshot::from_live(snap))
    }

    fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
        let module = match snapshot.live::<Module>() {
            // An exact clone of the captured state: ids, watermarks and
            // stamps included, nothing decoded.
            Some(m) => m,
            None => {
                let text = std::str::from_utf8(snapshot.to_bytes())
                    .map_err(|e| format!("checkpoint is not UTF-8: {e}"))?;
                let m = cg_ir::parser::parse_module(text)
                    .map_err(|e| format!("checkpoint does not parse: {e}"))?;
                Arc::new(m)
            }
        };
        self.module = Some((*module).clone());
        // The per-function caches are keyed by function id: a re-parsed
        // module numbers from zero and a structural one may come from
        // another episode, so drop everything.
        self.features.clear();
        self.analyses = cg_ir::AnalysisManager::new();
        Ok(())
    }

    fn state_size(&self) -> Option<u64> {
        self.module
            .as_ref()
            .map(|m| reward::ir_instruction_count(m) as u64)
    }

    fn apply_budget(&mut self, budget: &crate::budget::ResourceBudget) {
        if let Some(fuel) = budget.interp_fuel {
            self.limits.max_insts = fuel;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_step_observe() {
        let mut s = LlvmSession::new();
        s.init("benchmark://cbench-v1/crc32", 0).unwrap();
        let before = s
            .observe("IrInstructionCount")
            .unwrap()
            .as_scalar()
            .unwrap();
        let idx = s.space.index_of("mem2reg").unwrap();
        let out = s.apply_action(idx).unwrap();
        assert!(out.changed);
        let after = s
            .observe("IrInstructionCount")
            .unwrap()
            .as_scalar()
            .unwrap();
        assert!(after < before);
    }

    #[test]
    fn subset_action_space_maps_indices() {
        let mut s = LlvmSession::new();
        s.init("benchmark://cbench-v1/crc32", 1).unwrap();
        assert!(s.apply_action(41).is_ok());
        assert!(s.apply_action(42).is_err());
    }

    #[test]
    fn oz_baseline_is_below_initial() {
        let mut s = LlvmSession::new();
        s.init("benchmark://cbench-v1/qsort", 0).unwrap();
        let init = s
            .observe("IrInstructionCount")
            .unwrap()
            .as_scalar()
            .unwrap();
        let oz = s
            .observe("IrInstructionCountOz")
            .unwrap()
            .as_scalar()
            .unwrap();
        assert!(oz < init);
    }

    #[test]
    fn fork_is_independent() {
        let mut s = LlvmSession::new();
        s.init("benchmark://cbench-v1/crc32", 0).unwrap();
        let mut f = s.fork();
        let idx = s.space.index_of("mem2reg").unwrap();
        s.apply_action(idx).unwrap();
        let orig = s
            .observe("IrInstructionCount")
            .unwrap()
            .as_scalar()
            .unwrap();
        let forked = f
            .observe("IrInstructionCount")
            .unwrap()
            .as_scalar()
            .unwrap();
        assert!(orig < forked, "fork kept the pre-action module");
    }

    #[test]
    fn cache_hit_returns_same_arc() {
        clear_benchmark_cache();
        let a = cached_benchmark("benchmark://cbench-v1/sha").unwrap();
        let b = cached_benchmark("benchmark://cbench-v1/sha").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
