//! The two links a recovery-ladder test runs over, and the three
//! environments. Such tests are written once and run against the inline
//! service and a broker on loopback, so neither link can drift from the
//! other.

// Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use std::net::TcpListener;
use std::time::Duration;

use cg_core::service::{InlineLink, Link, SessionFactory, TcpTransport};
use cg_core::{Broker, BrokerConfig, CheckpointStore, CompilerEnv, ResourceBudget};

/// How an environment reaches its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// A [`TcpTransport`] to a [`Broker`] on loopback.
    Tcp,
    /// An [`InlineLink`]: the session runs on the caller's thread.
    Inline,
}

/// Every link, in the order tests run them.
pub const ALL: [Via; 2] = [Via::Tcp, Via::Inline];

/// One episode on each shipped environment: `(env, benchmark, observation,
/// reward)`.
pub const ENVS: [(&str, &str, &str, &str); 3] = [
    (
        "llvm-v0",
        "benchmark://cbench-v1/crc32",
        "Autophase",
        "IrInstructionCount",
    ),
    (
        "gcc-v0",
        "benchmark://chstone-v0/adpcm",
        "InstructionCounts",
        "ObjSize",
    ),
    (
        "loop_tool-v0",
        "benchmark://loop_tool-v0/1048576",
        "ActionState",
        "Flops",
    ),
];

/// A link to a fresh service over `factory` that checkpoints every
/// `interval` actions, and a handle on the ring it checkpoints into: the
/// in-process link's own store, or the broker's
/// [`BrokerConfig::checkpoints`]. `timeout` is the socket deadline; the
/// inline link has none (see [`contain_hangs`]).
pub fn link(
    via: Via,
    factory: SessionFactory,
    interval: u64,
    timeout: Duration,
) -> (Box<dyn Link>, CheckpointStore) {
    let checkpoints = CheckpointStore::default().with_interval(interval);
    match via {
        Via::Tcp => {
            let broker = Broker::new(
                factory,
                BrokerConfig {
                    workers: 2,
                    checkpoints: checkpoints.clone(),
                    ..BrokerConfig::default()
                },
            );
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || broker.serve(listener));
            let transport = TcpTransport::connect(&addr, timeout).unwrap();
            (Box::new(transport), checkpoints)
        }
        Via::Inline => {
            let mut inline = InlineLink::new(factory);
            inline.set_checkpoint_store(checkpoints);
            let ring = inline.checkpoint_store().clone();
            (Box::new(inline), ring)
        }
    }
}

/// Makes `env`'s link answer a hung session call within `deadline`. The
/// TCP link already does, by its socket deadline; the inline link has
/// none, so it gets a wall budget, which kills the call in band.
pub fn contain_hangs(via: Via, env: &mut CompilerEnv, deadline: Duration) {
    if via == Via::Inline {
        env.set_resource_budget(ResourceBudget::default().with_wall(deadline))
            .unwrap();
    }
}
