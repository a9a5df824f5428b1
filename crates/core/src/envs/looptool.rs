//! The `loop_tool` CUDA loop-nest session (§V-C).

use cg_looptool::{Action, LoopNest, Mode};

use crate::session::{ActionOutcome, CompilationSession, SessionSnapshot};
use crate::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};

/// The loop-nest generation session. Benchmarks name a problem size:
/// `benchmark://loop_tool-v0/<n>`.
pub struct LoopToolSession {
    nest: Option<LoopNest>,
    extended: bool,
    measurement_counter: u64,
}

impl Default for LoopToolSession {
    fn default() -> LoopToolSession {
        LoopToolSession::new()
    }
}

impl LoopToolSession {
    /// Creates an uninitialized session.
    pub fn new() -> LoopToolSession {
        LoopToolSession {
            nest: None,
            extended: false,
            measurement_counter: 0,
        }
    }

    fn actions(&self) -> &'static [Action] {
        if self.extended {
            Action::extended()
        } else {
            Action::basic()
        }
    }

    /// The current loop nest (used by in-process tooling).
    pub fn nest(&self) -> Option<&LoopNest> {
        self.nest.as_ref()
    }
}

impl CompilationSession for LoopToolSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        let names = |acts: &[Action]| {
            acts.iter()
                .map(|a| {
                    match a {
                        Action::ToggleMode => "toggle_mode",
                        Action::Up => "up",
                        Action::Down => "down",
                        Action::ToggleThread => "toggle_thread",
                        Action::Split => "split",
                    }
                    .to_string()
                })
                .collect()
        };
        vec![
            ActionSpaceInfo {
                name: "Cursor".into(),
                actions: names(Action::basic()),
            },
            ActionSpaceInfo {
                name: "CursorExtended".into(),
                actions: names(Action::extended()),
            },
        ]
    }

    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        use ObservationKind::*;
        vec![
            ObservationSpaceInfo {
                name: "ActionState".into(),
                kind: IntVector,
                deterministic: true,
                platform_dependent: false,
            },
            ObservationSpaceInfo {
                name: "LoopTree".into(),
                kind: Text,
                deterministic: true,
                platform_dependent: false,
            },
            ObservationSpaceInfo {
                name: "Flops".into(),
                kind: Scalar,
                deterministic: false,
                platform_dependent: true,
            },
        ]
    }

    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "Flops".into(),
            metric: "Flops".into(),
            sign: -1.0, // higher FLOPs is better
            baseline: None,
            deterministic: false,
        }]
    }

    fn init(&mut self, benchmark: &str, action_space: usize) -> Result<(), String> {
        if action_space > 1 {
            return Err("loop_tool-v0 has 2 action spaces".into());
        }
        self.extended = action_space == 1;
        let path = benchmark
            .rsplit('/')
            .next()
            .ok_or_else(|| format!("bad loop_tool benchmark `{benchmark}`"))?;
        let n: u64 = path
            .parse()
            .map_err(|_| format!("loop_tool benchmarks are problem sizes, got `{path}`"))?;
        if n == 0 || n > (1 << 32) {
            return Err(format!("problem size {n} out of range"));
        }
        self.nest = Some(LoopNest::pointwise_add(n));
        self.measurement_counter = 0;
        Ok(())
    }

    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        let acts = self.actions();
        let a = *acts
            .get(action)
            .ok_or_else(|| format!("action {action} out of range ({})", acts.len()))?;
        let nest = self.nest.as_mut().ok_or("session not initialized")?;
        let before = nest.clone();
        nest.apply(a);
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: *nest != before,
        })
    }

    fn observe(&mut self, space: &str) -> Result<Observation, String> {
        let nest = self.nest.as_ref().ok_or("session not initialized")?;
        Ok(match space {
            "ActionState" => {
                let (cursor, mode, nloops) = nest.action_state();
                Observation::IntVector(vec![
                    cursor as i64,
                    matches!(mode, Mode::Modify) as i64,
                    nloops as i64,
                    nest.threads() as i64,
                ])
            }
            "LoopTree" => Observation::Text(nest.dump()),
            "Flops" => {
                self.measurement_counter += 1;
                Observation::Scalar(nest.benchmark(self.measurement_counter))
            }
            other => return Err(format!("unknown observation space `{other}`")),
        })
    }

    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(LoopToolSession {
            nest: self.nest.clone(),
            extended: self.extended,
            measurement_counter: self.measurement_counter,
        })
    }

    /// What `fork` copies: the nest, and the counter seeding `Flops` noise.
    fn snapshot(&self) -> Option<SessionSnapshot> {
        let state = (self.nest.as_ref()?, self.measurement_counter);
        let bytes = serde_json::to_vec(&state).ok()?;
        Some(SessionSnapshot::from_bytes(bytes))
    }

    fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
        let current = self.nest.as_ref().ok_or("session not initialized")?;
        let (nest, counter): (LoopNest, u64) = serde_json::from_slice(snapshot.to_bytes())
            .map_err(|e| format!("checkpoint does not decode: {e}"))?;
        let (n, cursor, want) = (nest.n, nest.cursor, current.n);
        if n != want || cursor >= nest.loops.len() {
            return Err(format!(
                "checkpoint of problem size {n}, cursor {cursor}, does not fit {want}"
            ));
        }
        self.nest = Some(nest);
        self.measurement_counter = counter;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threading_improves_flops_reward_metric() {
        let mut s = LoopToolSession::new();
        s.init("benchmark://loop_tool-v0/1048576", 0).unwrap();
        let before = s.observe("Flops").unwrap().as_scalar().unwrap();
        s.apply_action(3).unwrap(); // toggle_thread
        let after = s.observe("Flops").unwrap().as_scalar().unwrap();
        assert!(after > before * 10.0);
    }

    #[test]
    fn split_requires_extended_space() {
        let mut s = LoopToolSession::new();
        s.init("benchmark://loop_tool-v0/1024", 0).unwrap();
        assert!(s.apply_action(4).is_err());
        s.init("benchmark://loop_tool-v0/1024", 1).unwrap();
        assert!(s.apply_action(4).is_ok());
    }

    #[test]
    fn bad_benchmark_is_rejected() {
        let mut s = LoopToolSession::new();
        assert!(s.init("benchmark://loop_tool-v0/banana", 0).is_err());
        assert!(s.init("benchmark://loop_tool-v0/0", 0).is_err());
    }
}
