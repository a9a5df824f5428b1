//! Space descriptions and observation values.

use serde::{Deserialize, Serialize};

pub use cg_llvm::observation::ProgramGraph;

/// Describes a discrete action space exposed by a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionSpaceInfo {
    /// Space name (`"PassPipeline"`, `"FlagDeltas"`, `"Cursor"`, …).
    pub name: String,
    /// Action names, indexed by action number.
    pub actions: Vec<String>,
}

impl ActionSpaceInfo {
    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when there are no actions (never, for shipped environments).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Index of a named action.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.actions.iter().position(|a| a == name)
    }

    /// Samples a uniformly random action index.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> usize {
        rng.gen_range(0..self.actions.len())
    }
}

/// The value kinds an observation space can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObservationKind {
    /// UTF-8 text (IR, RTL, assembly, loop-tree dumps).
    Text,
    /// Fixed-length integer vector.
    IntVector,
    /// Fixed-length float vector.
    FloatVector,
    /// A single scalar (metrics also usable as rewards).
    Scalar,
    /// A ProGraML-style program graph.
    Graph,
    /// Raw bytes (object code).
    Bytes,
}

/// Describes one observation space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationSpaceInfo {
    /// Space name (`"Autophase"`, `"Ir"`, `"InstCount"`, …).
    pub name: String,
    /// The value kind.
    pub kind: ObservationKind,
    /// Whether the value is deterministic given the state.
    pub deterministic: bool,
    /// Whether the value depends on the (simulated) platform.
    pub platform_dependent: bool,
}

/// An observation value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Observation {
    /// Text observation.
    Text(String),
    /// Integer feature vector.
    IntVector(Vec<i64>),
    /// Float feature vector.
    FloatVector(Vec<f32>),
    /// Scalar metric.
    Scalar(f64),
    /// Program graph.
    Graph(ProgramGraph),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Observation {
    /// The scalar content, if this is a scalar.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Observation::Scalar(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer vector content, if present.
    pub fn as_int_vector(&self) -> Option<&[i64]> {
        match self {
            Observation::IntVector(v) => Some(v),
            _ => None,
        }
    }

    /// The text content, if present.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Observation::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// Describes a reward signal: the change in a scalar metric between steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewardSpaceInfo {
    /// Reward name (`"IrInstructionCount"`, `"IrInstructionCountOz"`, …).
    pub name: String,
    /// The scalar observation space the reward derives from.
    pub metric: String,
    /// +1 when decreasing the metric is good (sizes, runtime), -1 when
    /// increasing it is good (FLOPs).
    pub sign: f64,
    /// Optional baseline metric observation for scaling: reward is divided
    /// by `initial - baseline` (the gain achieved by the default pipeline).
    pub baseline: Option<String>,
    /// Whether the signal is deterministic.
    pub deterministic: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_space_lookup_and_sample() {
        let s = ActionSpaceInfo {
            name: "t".into(),
            actions: vec!["a".into(), "b".into()],
        };
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1 << 40);
        for _ in 0..10 {
            assert!(s.sample(&mut rng) < 2);
        }
    }

    #[test]
    fn observation_accessors() {
        assert_eq!(Observation::Scalar(4.0).as_scalar(), Some(4.0));
        assert_eq!(Observation::Text("x".into()).as_text(), Some("x"));
        assert!(Observation::IntVector(vec![1]).as_int_vector().is_some());
        assert!(Observation::Scalar(1.0).as_text().is_none());
    }

    #[test]
    fn observation_serializes_to_json() {
        let o = Observation::IntVector(vec![1, 2, 3]);
        let j = serde_json::to_string(&o).unwrap();
        let back: Observation = serde_json::from_str(&j).unwrap();
        assert_eq!(o, back);
    }
}
