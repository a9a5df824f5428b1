//! # cg-core: the CompilerGym core
//!
//! The paper's primary contribution: a Gym-style environment abstraction for
//! compiler optimization tasks, backed by a client–server runtime that
//! isolates compiler backends behind an RPC boundary.
//!
//! * [`space`] — action/observation/reward space descriptions and values
//! * [`session`] — the 4-method [`session::CompilationSession`] interface
//!   compilers implement (Figure 5), and [`session::SessionSnapshot`], the
//!   opaque captured state checkpoints, prefix caches and forks pass around
//! * [`envs`] — the three shipped integrations: LLVM phase ordering, GCC
//!   flag tuning, `loop_tool` CUDA loop nests
//! * [`service`] — the compiler service runtime: session workers, the
//!   [`service::Link`] clients reach them through (inline and TCP),
//!   deadlines, panic isolation, and the one retry loop
//! * [`mod@env`] — the user-facing [`env::CompilerEnv`] with `reset`/`step`/
//!   `fork`, batched and lazy stepping, and transparent mid-episode fault
//!   recovery by action replay
//! * [`retry`] — the [`retry::RetryPolicy`] governing attempts, backoff
//!   with deterministic jitter, and budgets
//! * [`checkpoint`] — session snapshots every K actions into the service's
//!   ring, which outlives its workers and connections, making recovery
//!   O(K) instead of O(episode)
//! * [`budget`] — in-service resource budgets (step wall-clock, state-size
//!   growth, interpreter fuel) answered as typed in-band errors; the step
//!   wall budget is what contains a wedged compiler
//! * [`chaos`] — seeded fault injection for any session factory, used by
//!   the `cg chaos` soak harness
//! * [`wrappers`] — TimeLimit, CycleOverBenchmarks, action subsets, and
//!   observation composition
//! * [`state`] — environment state (de)serialization and replay validation
//! * [`validation`] — semantics validation by differential execution
//!
//! # Example
//!
//! ```
//! use cg_core::make;
//!
//! let mut env = make("llvm-v0")?;
//! env.set_benchmark("benchmark://cbench-v1/crc32");
//! env.set_observation_space("Autophase");
//! env.set_reward_space("IrInstructionCount");
//! let _obs = env.reset()?;
//! let step = env.step(env.action_space().index_of("mem2reg").unwrap())?;
//! assert!(step.reward > 0.0, "mem2reg removes instructions");
//! # Ok::<(), cg_core::CgError>(())
//! ```

pub mod broker;
pub mod budget;
pub mod chaos;
pub mod checkpoint;
pub mod env;
pub mod envs;
pub mod evalcache;
pub mod pool;
mod protocol;
pub mod retry;
pub mod service;
pub mod session;
pub mod sink;
pub mod space;
pub mod state;
pub mod validation;
pub mod wire;
pub mod wrappers;

mod error;

pub use broker::{Broker, BrokerConfig, DrainReport, Submitted, TenantQuota, ANONYMOUS_TENANT};
pub use budget::{BudgetKind, BudgetViolation, ResourceBudget};
pub use chaos::{IoFaultInjector, IoFaultKind, IoFaultPlan, IoFaultStats};
pub use checkpoint::{Checkpoint, CheckpointSink, CheckpointStore, RingCheckpoint};
pub use env::{
    make, make_with_policy, register_env_scheme, CompilerEnv, EpisodeSnapshot, SchemeFactory,
    StepResult,
};
pub use error::CgError;
pub use evalcache::EvalCache;
pub use pool::{ActionSeq, EnvFactory, EnvPool, Outcome};
pub use retry::RetryPolicy;
pub use session::{CompilationSession, SessionSnapshot};
pub use sink::{clear_transition_sink, install_transition_sink, transition_sink, TransitionSink};
pub use space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
pub use state::EnvState;
