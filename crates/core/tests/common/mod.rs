//! The two links a recovery-ladder test runs over. Such tests are written
//! once and run against the in-process service and against a broker on
//! loopback, so neither link can drift from the other.

use std::net::TcpListener;
use std::time::Duration;

use cg_core::checkpoint::DEFAULT_CHECKPOINT_INTERVAL;
use cg_core::service::{Link, ServiceClient, SessionFactory, TcpTransport};
use cg_core::{Broker, BrokerConfig, CheckpointStore};

/// How an environment reaches its service.
#[derive(Debug, Clone, Copy)]
pub enum Via {
    /// A [`ServiceClient`]: an in-process worker.
    InProcess,
    /// A [`TcpTransport`] to a [`Broker`] on loopback.
    Tcp,
}

/// Both links, in the order tests run them.
pub const BOTH: [Via; 2] = [Via::InProcess, Via::Tcp];

/// A link to a fresh service over `factory` that checkpoints every
/// `interval` actions, and a handle on the ring it checkpoints into: the
/// in-process client's own store, or the broker's
/// [`BrokerConfig::checkpoints`].
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
    }
}
