//! Service watchdog: a supervisor thread that heartbeats a
//! [`ServiceClient`] and proactively restarts silently-wedged services.
//!
//! The client-side deadline only fires while a call is *in flight*: a
//! service that wedges between requests (alive, but its worker loop stuck)
//! goes unnoticed until the next call eats a full timeout. The watchdog
//! closes that gap: every `interval` it sends a short-deadline `Ping`
//! through [`ServiceClient::probe`]; after `misses` consecutive failed
//! probes it calls [`ServiceClient::restart`], which propagates to every
//! clone of the client — in-flight calls observe the generation change and
//! abort promptly, flowing into the normal recovery (checkpoint restore /
//! replay) path.
//!
//! Caveat: a worker busy with one long legitimate request also misses
//! heartbeats. Pair the watchdog with a step wall budget (so no request can
//! monopolize the worker) or set the probe deadline above the longest
//! expected step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};

use crate::service::{Link, ServiceClient};

/// Default heartbeat interval.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Default probe deadline.
pub const DEFAULT_PROBE_DEADLINE: Duration = Duration::from_millis(250);

/// Default consecutive missed probes before a restart.
pub const DEFAULT_MISSES: u32 = 2;

/// Watchdog configuration.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Time between heartbeat probes.
    pub interval: Duration,
    /// Deadline for each probe `Ping`.
    pub probe_deadline: Duration,
    /// Consecutive missed probes that trigger a restart.
    pub misses: u32,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            interval: DEFAULT_HEARTBEAT_INTERVAL,
            probe_deadline: DEFAULT_PROBE_DEADLINE,
            misses: DEFAULT_MISSES,
        }
    }
}

/// A running watchdog. Dropping it stops the supervisor thread.
pub struct Watchdog {
    stop: Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
    restarts: Arc<AtomicU64>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("restarts", &self.restarts())
            .finish()
    }
}

impl Watchdog {
    /// Starts supervising `client` (a clone sharing the service's channel
    /// and restart generation) under the given configuration.
    #[must_use]
    pub fn spawn(client: ServiceClient, config: WatchdogConfig) -> Watchdog {
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let restarts = Arc::new(AtomicU64::new(0));
        let restarts_thread = Arc::clone(&restarts);
        let handle = std::thread::Builder::new()
            .name("cg-watchdog".into())
            .spawn(move || {
                let mut missed = 0u32;
                loop {
                    match stop_rx.recv_timeout(config.interval) {
                        // Stop requested, or the handle was dropped.
                        Ok(()) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    }
                    if client.probe(config.probe_deadline) {
                        missed = 0;
                        continue;
                    }
                    missed += 1;
                    if missed < config.misses.max(1) {
                        continue;
                    }
                    missed = 0;
                    let tel = cg_telemetry::global();
                    tel.watchdog_restarts.inc();
                    tel.trace.emit_status(
                        "watchdog:restart",
                        format!(
                            "service unresponsive for {} probes of {:?}",
                            config.misses, config.probe_deadline
                        ),
                        Duration::ZERO,
                        cg_telemetry::SpanStatus::Recovered,
                    );
                    restarts_thread.fetch_add(1, Ordering::SeqCst);
                    client.restart();
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop: stop_tx,
            handle: Some(handle),
            restarts,
        }
    }

    /// Starts supervising `client` with the default configuration.
    #[must_use]
    pub fn spawn_default(client: ServiceClient) -> Watchdog {
        Watchdog::spawn(client, WatchdogConfig::default())
    }

    /// How many times this watchdog has restarted its service.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultPlan};
    use crate::service::{Request, Response, ServiceClient};
    use crate::session::{ActionOutcome, CompilationSession};
    use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};

    struct Quiet;
    impl CompilationSession for Quiet {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            vec![ActionSpaceInfo {
                name: "q".into(),
                actions: vec!["a".into(); 4],
            }]
        }
        fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
            vec![]
        }
        fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
            vec![]
        }
        fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
            Ok(())
        }
        fn apply_action(&mut self, _a: usize) -> Result<ActionOutcome, String> {
            Ok(ActionOutcome {
                end_of_episode: false,
                action_space_changed: false,
                changed: true,
            })
        }
        fn observe(&mut self, _s: &str) -> Result<Observation, String> {
            Ok(Observation::Scalar(0.0))
        }
        fn fork(&self) -> Box<dyn CompilationSession> {
            Box::new(Quiet)
        }
    }

    #[test]
    fn healthy_service_is_left_alone() {
        let client = ServiceClient::spawn(
            std::sync::Arc::new(|| Box::new(Quiet)),
            Duration::from_secs(5),
        );
        let dog = Watchdog::spawn(
            client.clone(),
            WatchdogConfig {
                interval: Duration::from_millis(20),
                probe_deadline: Duration::from_millis(100),
                misses: 2,
            },
        );
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(dog.restarts(), 0);
        assert_eq!(client.restarts(), 0);
    }

    #[test]
    fn wedged_service_is_restarted_by_the_watchdog() {
        // A Wedge fault: the session stops answering without panicking or
        // erroring — invisible to everything except the heartbeat.
        let (factory, _) = FaultPlan::seeded(11)
            .schedule(1, FaultKind::Wedge)
            .wrap(std::sync::Arc::new(|| Box::new(Quiet)));
        let client = ServiceClient::spawn(factory, Duration::from_secs(30));
        let sid = match client
            .call(Request::StartSession {
                benchmark: "x".into(),
                action_space: 0,
            })
            .unwrap()
        {
            Response::SessionStarted { session_id } => session_id,
            r => panic!("{r:?}"),
        };
        client
            .call(Request::Step {
                session_id: sid,
                actions: vec![0],
                observation_spaces: vec![],
            })
            .unwrap();
        let dog = Watchdog::spawn(
            client.clone(),
            WatchdogConfig {
                interval: Duration::from_millis(30),
                probe_deadline: Duration::from_millis(60),
                misses: 2,
            },
        );
        // Wedge the worker from a helper thread: this call blocks forever on
        // the wedged service until the watchdog restarts it, at which point
        // the generation poll aborts it with ServiceFailure.
        let wedger = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.call(Request::Step {
                    session_id: sid,
                    actions: vec![1],
                    observation_spaces: vec![],
                })
            })
        };
        let verdict = wedger.join().unwrap();
        assert!(
            matches!(verdict, Err(crate::CgError::ServiceFailure(_))),
            "in-flight call must abort after the watchdog restart, got {verdict:?}"
        );
        assert!(dog.restarts() >= 1, "watchdog restarted the wedged service");
        // The fresh service answers again.
        assert!(matches!(
            client.call(Request::Ping).unwrap(),
            Response::Pong
        ));
        drop(dog);
    }
}
