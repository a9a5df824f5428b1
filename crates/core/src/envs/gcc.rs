//! The GCC flag-tuning session (§V-B).

use cg_gcc::{compile, CompileOutput, FlatAction, GccSpec, OptionSpace};
use cg_ir::Module;

use crate::envs::llvm::cached_benchmark;
use crate::session::{ActionOutcome, CompilationSession, SessionSnapshot};
use crate::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};

fn flat_action_name(space: &OptionSpace, a: &FlatAction) -> String {
    match a {
        FlatAction::Set { option, choice } => {
            format!("set[{}]={}", space.options()[*option].name, choice)
        }
        FlatAction::Add { option, delta } => {
            format!("add[{}]{:+}", space.options()[*option].name, delta)
        }
    }
}

/// The GCC flag-tuning session: holds the current choice vector and
/// recompiles on demand. Both action encodings of the paper are exposed:
/// `FlagDeltas` (the flat categorical space, 2k+ actions) and `Choices`
/// (direct integer assignment, exposed for search algorithms via
/// [`GccSession::set_choices`]).
pub struct GccSession {
    space: OptionSpace,
    flat: Vec<FlatAction>,
    module: Option<std::sync::Arc<Module>>,
    benchmark: String,
    choices: Vec<usize>,
    cached_output: Option<CompileOutput>,
    baseline_os: Option<(f64, f64)>,
}

impl GccSession {
    /// Creates a session for a GCC version.
    pub fn new(spec: GccSpec) -> GccSession {
        let space = OptionSpace::for_version(&spec);
        let flat = space.flat_actions();
        GccSession {
            space,
            flat,
            module: None,
            benchmark: String::new(),
            choices: Vec::new(),
            cached_output: None,
            baseline_os: None,
        }
    }

    /// The option space of this session's GCC version.
    pub fn option_space(&self) -> &OptionSpace {
        &self.space
    }

    /// Directly installs a full choice vector (the first action space of
    /// §V-B: "a list of integers, each encoding the choice for one option").
    ///
    /// # Errors
    /// Returns an error when called before `init` or with the wrong length.
    pub fn set_choices(&mut self, choices: &[usize]) -> Result<(), String> {
        if self.module.is_none() {
            return Err("session not initialized".into());
        }
        if choices.len() != self.space.num_options() {
            return Err(format!(
                "expected {} choices, got {}",
                self.space.num_options(),
                choices.len()
            ));
        }
        let mut c = choices.to_vec();
        self.space.clamp(&mut c);
        self.choices = c;
        self.cached_output = None;
        Ok(())
    }

    /// The current choice vector.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    fn output(&mut self) -> Result<&CompileOutput, String> {
        let m = self.module.as_ref().ok_or("session not initialized")?;
        if self.cached_output.is_none() {
            self.cached_output = Some(compile(m, &self.space, &self.choices));
        }
        Ok(self.cached_output.as_ref().expect("just compiled"))
    }

    fn baseline(&mut self) -> Result<(f64, f64), String> {
        if let Some(b) = self.baseline_os {
            return Ok(b);
        }
        let m = self.module.as_ref().ok_or("session not initialized")?;
        let os = compile(m, &self.space, &self.space.choices_for_level(4));
        let b = (os.obj_size as f64, os.asm_size as f64);
        self.baseline_os = Some(b);
        Ok(b)
    }
}

impl CompilationSession for GccSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "FlagDeltas".into(),
            actions: self
                .flat
                .iter()
                .map(|a| flat_action_name(&self.space, a))
                .collect(),
        }]
    }

    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        use ObservationKind::*;
        let s = |name: &str, kind| ObservationSpaceInfo {
            name: name.into(),
            kind,
            deterministic: true,
            platform_dependent: true,
        };
        vec![
            s("CommandLine", Text),
            s("Asm", Text),
            s("ObjectCode", Bytes),
            s("InstructionCounts", IntVector),
            s("ObjSize", Scalar),
            s("AsmSize", Scalar),
            s("ObjSizeOs", Scalar),
            s("AsmSizeOs", Scalar),
        ]
    }

    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![
            RewardSpaceInfo {
                name: "ObjSize".into(),
                metric: "ObjSize".into(),
                sign: 1.0,
                baseline: None,
                deterministic: true,
            },
            RewardSpaceInfo {
                name: "AsmSize".into(),
                metric: "AsmSize".into(),
                sign: 1.0,
                baseline: None,
                deterministic: true,
            },
            RewardSpaceInfo {
                name: "ObjSizeOs".into(),
                metric: "ObjSize".into(),
                sign: 1.0,
                baseline: Some("ObjSizeOs".into()),
                deterministic: true,
            },
        ]
    }

    fn init(&mut self, benchmark: &str, action_space: usize) -> Result<(), String> {
        if action_space != 0 {
            return Err("gcc-v0 exposes one RPC action space (FlagDeltas)".into());
        }
        self.module = Some(cached_benchmark(benchmark)?);
        self.benchmark = benchmark.to_string();
        self.choices = self.space.default_choices();
        self.cached_output = None;
        self.baseline_os = None;
        Ok(())
    }

    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        if self.module.is_none() {
            return Err("session not initialized".into());
        }
        let a = self
            .flat
            .get(action)
            .ok_or_else(|| format!("action {action} out of range ({})", self.flat.len()))?;
        let before = self.choices.clone();
        self.space.apply_flat(&mut self.choices, a);
        let changed = before != self.choices;
        if changed {
            self.cached_output = None;
        }
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed,
        })
    }

    fn observe(&mut self, space: &str) -> Result<Observation, String> {
        Ok(match space {
            "CommandLine" => {
                let choices = self.choices.clone();
                Observation::Text(self.space.command_line(&choices))
            }
            "Asm" => Observation::Text(self.output()?.asm_text.clone()),
            "ObjectCode" => Observation::Bytes(self.output()?.asm_text.as_bytes().to_vec()),
            "InstructionCounts" => {
                let o = self.output()?;
                Observation::IntVector(vec![o.rtl_count as i64, o.ir_count as i64])
            }
            "ObjSize" => Observation::Scalar(self.output()?.obj_size as f64),
            "AsmSize" => Observation::Scalar(self.output()?.asm_size as f64),
            "ObjSizeOs" => Observation::Scalar(self.baseline()?.0),
            "AsmSizeOs" => Observation::Scalar(self.baseline()?.1),
            other => return Err(format!("unknown observation space `{other}`")),
        })
    }

    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(GccSession {
            space: self.space.clone(),
            flat: self.flat.clone(),
            module: self.module.clone(),
            benchmark: self.benchmark.clone(),
            choices: self.choices.clone(),
            cached_output: self.cached_output.clone(),
            baseline_os: self.baseline_os,
        })
    }

    /// The choice vector is the whole episode state (outputs recompile).
    fn snapshot(&self) -> Option<SessionSnapshot> {
        self.module.as_ref()?;
        let bytes = serde_json::to_vec(&self.choices).ok()?;
        Some(SessionSnapshot::from_bytes(bytes))
    }

    fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
        let choices: Vec<usize> = serde_json::from_slice(snapshot.to_bytes())
            .map_err(|e| format!("checkpoint does not decode: {e}"))?;
        self.set_choices(&choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_mutate_choices_and_sizes() {
        let mut s = GccSession::new(GccSpec::v11_2());
        s.init("benchmark://chstone-v0/sha", 0).unwrap();
        let base = s.observe("ObjSize").unwrap().as_scalar().unwrap();
        // Find the flat action that sets -O to -Os (option 0, choice 5).
        let idx = s
            .flat
            .iter()
            .position(|a| {
                matches!(
                    a,
                    FlatAction::Set {
                        option: 0,
                        choice: 5
                    }
                )
            })
            .unwrap();
        s.apply_action(idx).unwrap();
        let after = s.observe("ObjSize").unwrap().as_scalar().unwrap();
        assert!(after < base, "-Os shrinks the object: {after} vs {base}");
    }

    #[test]
    fn set_choices_validates_length() {
        let mut s = GccSession::new(GccSpec::v11_2());
        s.init("benchmark://chstone-v0/sha", 0).unwrap();
        assert!(s.set_choices(&[0, 1]).is_err());
        let c = s.option_space().choices_for_level(2);
        s.set_choices(&c).unwrap();
        assert!(s
            .observe("CommandLine")
            .unwrap()
            .as_text()
            .unwrap()
            .contains("-O2"));
    }

    #[test]
    fn gcc5_space_is_smaller() {
        let s11 = GccSession::new(GccSpec::v11_2());
        let s5 = GccSession::new(GccSpec::v5());
        assert!(s5.option_space().num_options() < s11.option_space().num_options());
    }
}
