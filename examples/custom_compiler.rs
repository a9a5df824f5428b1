//! Adding a new compiler to the system (§IV-A): implement the four-method
//! `CompilationSession` interface and the shared runtime provides RPC,
//! fault tolerance, and the Gym API — the Listing 3 workflow.
//!
//! The toy "compiler" here optimizes a string of parentheses; its action
//! space has two "passes" and its reward is the string length.
//!
//! Run with: `cargo run --example custom_compiler`

use std::sync::Arc;
use std::time::Duration;

use cg_core::service::{InlineLink, Link, Request, Response};
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};

/// The entire compiler integration: one struct, four required methods.
struct ParenSession {
    program: String,
}

impl CompilationSession for ParenSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "ParenPasses".into(),
            actions: vec!["remove-empty-pairs".into(), "dedup-runs".into()],
        }]
    }

    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![
            ObservationSpaceInfo {
                name: "Source".into(),
                kind: ObservationKind::Text,
                deterministic: true,
                platform_dependent: false,
            },
            ObservationSpaceInfo {
                name: "Length".into(),
                kind: ObservationKind::Scalar,
                deterministic: true,
                platform_dependent: false,
            },
        ]
    }

    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "Length".into(),
            metric: "Length".into(),
            sign: 1.0,
            baseline: None,
            deterministic: true,
        }]
    }

    fn init(&mut self, benchmark: &str, _action_space: usize) -> Result<(), String> {
        // The "benchmark" is the program text itself.
        self.program = benchmark.to_string();
        Ok(())
    }

    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        let before = self.program.clone();
        match action {
            0 => {
                while self.program.contains("()") {
                    self.program = self.program.replace("()", "");
                }
            }
            1 => {
                while self.program.contains("((") && self.program.contains("))") {
                    self.program = self.program.replacen("((", "(", 1).replacen("))", ")", 1);
                }
            }
            other => return Err(format!("unknown action {other}")),
        }
        Ok(ActionOutcome {
            end_of_episode: self.program.is_empty(),
            action_space_changed: false,
            changed: self.program != before,
        })
    }

    fn observe(&mut self, space: &str) -> Result<Observation, String> {
        match space {
            "Source" => Ok(Observation::Text(self.program.clone())),
            "Length" => Ok(Observation::Scalar(self.program.len() as f64)),
            other => Err(format!("unknown observation space {other}")),
        }
    }

    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(ParenSession {
            program: self.program.clone(),
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // createAndRunService: hand the session type to the shared runtime.
    let factory: cg_core::service::SessionFactory = Arc::new(|| {
        Box::new(ParenSession {
            program: String::new(),
        })
    });
    let client = InlineLink::new(factory);
    // A wall budget bounds every session call: a hung pass is answered in
    // band instead of hanging this thread.
    client.set_resource_budget(
        cg_core::ResourceBudget::default().with_wall(Duration::from_secs(10)),
    )?;

    let sid = match client.call(Request::StartSession {
        benchmark: "((()))()((x))".into(),
        action_space: 0,
    })? {
        Response::SessionStarted { session_id } => session_id,
        r => panic!("unexpected {r:?}"),
    };
    for action in [0usize, 1, 0] {
        let r = client.call(Request::Step {
            session_id: sid,
            actions: vec![action],
            observation_spaces: vec!["Source".into(), "Length".into()],
        })?;
        if let Response::Stepped { observations, .. } = r {
            println!(
                "after action {action}: {:?} (len {})",
                observations[0].as_text().unwrap(),
                observations[1].as_scalar().unwrap()
            );
        }
    }
    println!("a full compiler integration in ~60 lines — the runtime did the rest");
    Ok(())
}
