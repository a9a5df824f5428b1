//! The three links a recovery-ladder test runs over. Such tests are written
//! once and run against the inline service, the threaded in-process service
//! and a broker on loopback, so no link can drift from the others.

// Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use std::net::TcpListener;
use std::time::Duration;

use cg_core::checkpoint::DEFAULT_CHECKPOINT_INTERVAL;
use cg_core::service::{InlineLink, Link, ServiceClient, SessionFactory, TcpTransport};
use cg_core::{Broker, BrokerConfig, CheckpointStore, CompilerEnv, ResourceBudget};

/// How an environment reaches its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// A [`ServiceClient`]: an in-process worker thread.
    InProcess,
    /// A [`TcpTransport`] to a [`Broker`] on loopback.
    Tcp,
    /// An [`InlineLink`]: the session runs on the caller's thread.
    Inline,
}

/// Every link, in the order tests run them.
pub const ALL: [Via; 3] = [Via::InProcess, Via::Tcp, Via::Inline];

/// A link to a fresh service over `factory` that checkpoints every
/// `interval` actions, and a handle on the ring it checkpoints into: the
/// in-process link's own store, or the broker's
/// [`BrokerConfig::checkpoints`]. `timeout` is the client deadline; the
/// inline link has none.
pub fn link(
    via: Via,
    factory: SessionFactory,
    interval: u64,
    timeout: Duration,
) -> (Box<dyn Link>, CheckpointStore) {
    let checkpoints = CheckpointStore::default().with_interval(interval);
    match via {
        Via::InProcess => {
            let mut service = ServiceClient::spawn(factory, timeout);
            // Replacing the store restarts the service: only for a K that
            // differs from the default store's.
            if interval != DEFAULT_CHECKPOINT_INTERVAL {
                service.set_checkpoint_store(checkpoints);
            }
            let ring = service.checkpoint_store().clone();
            (Box::new(service), ring)
        }
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

/// Makes `env`'s link answer a hung step within `deadline`. The threaded
/// and TCP links already do, by their client deadline; the inline link has
/// none, so it gets a step wall budget, which kills the step in band.
pub fn contain_hangs(via: Via, env: &mut CompilerEnv, deadline: Duration) {
    if via == Via::Inline {
        env.set_resource_budget(ResourceBudget::default().with_step_wall(deadline))
            .unwrap();
    }
}
