//! The multi-tenant front door over real loopback sockets: well-behaved
//! tenants run episodes through [`Broker::serve`] while one tenant's
//! clients exceed its session quota, then the broker drains under parked
//! sessions. Every gate is a count — nothing here compares wall-clock
//! times, so machine load can slow the test but not fail it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cg_core::service::{Request, Response, SessionFactory, TcpClient};
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
use cg_core::{Broker, BrokerConfig, CgError, CheckpointStore, RetryPolicy, TenantQuota};

const VICTIMS: usize = 3;
const NOISY_CLIENTS: usize = 4;
const QUOTA: usize = 2;
const EPISODES: usize = 6;
const EPISODE_STEPS: usize = 20;

/// A benchmark [`GateSession::init`] refuses, so its `StartSession` is
/// admitted, reserves a quota slot, and then fails in the backend.
const REJECTED_BENCHMARK: &str = "benchmark://gate/reject";

/// Counts applied actions and snapshots the count. Each action spins
/// briefly so requests from different tenants overlap on the workers.
struct GateSession {
    steps: u64,
}

impl CompilationSession for GateSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "gate".into(),
            actions: vec!["spin".into()],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        Vec::new()
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        Vec::new()
    }
    fn init(&mut self, benchmark: &str, _action_space: usize) -> Result<(), String> {
        if benchmark == REJECTED_BENCHMARK {
            return Err(format!("{benchmark} is not a benchmark"));
        }
        Ok(())
    }
    fn apply_action(&mut self, _action: usize) -> Result<ActionOutcome, String> {
        let until = std::time::Instant::now() + Duration::from_micros(50);
        while std::time::Instant::now() < until {
            std::hint::spin_loop();
        }
        self.steps += 1;
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: true,
        })
    }
    fn observe(&mut self, _space: &str) -> Result<Observation, String> {
        Ok(Observation::Scalar(self.steps as f64))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(GateSession { steps: self.steps })
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.steps.to_le_bytes().to_vec())
    }
    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let bytes: [u8; 8] = state.try_into().map_err(|_| "bad snapshot".to_string())?;
        self.steps = u64::from_le_bytes(bytes);
        Ok(())
    }
}

fn gate_factory() -> SessionFactory {
    Arc::new(|| Box::new(GateSession { steps: 0 }))
}

fn connect(addr: &str, tenant: &str) -> Result<TcpClient, String> {
    let mut client =
        TcpClient::connect_with_policy(addr, Duration::from_secs(30), RetryPolicy::none())
            .map_err(|e| format!("{tenant}: connect: {e}"))?;
    client.set_tenant(tenant);
    Ok(client)
}

fn start_request(benchmark: &str) -> Request {
    Request::StartSession {
        benchmark: benchmark.into(),
        action_space: 0,
    }
}

fn step_request(session_id: u64) -> Request {
    Request::Step {
        session_id,
        actions: vec![0],
        observation_spaces: vec!["steps".into()],
    }
}

/// One well-behaved tenant: it never holds more than one session, so under
/// a quota of [`QUOTA`] the door has no reason to refuse it anything — any
/// error, typed or not, is returned as a failure.
fn drive_victim(addr: &str, tenant: &str, contest: &Barrier) -> Vec<String> {
    let mut client = match connect(addr, tenant) {
        Ok(client) => client,
        Err(e) => {
            contest.wait();
            return vec![e];
        }
    };
    let mut errors = Vec::new();
    // Creates the backend rejects must hand their reservation back;
    // leaked, these would spend the whole quota before the first episode.
    for _ in 0..QUOTA {
        match client.call(&start_request(REJECTED_BENCHMARK)) {
            Err(CgError::Session(_)) => {}
            other => errors.push(format!("{tenant}: rejected create answered {other:?}")),
        }
    }
    contest.wait();
    for episode in 0..EPISODES {
        let sid = match client.call(&start_request("benchmark://gate/episode")) {
            Ok(Response::SessionStarted { session_id }) => session_id,
            other => {
                errors.push(format!("{tenant}: episode {episode}: start: {other:?}"));
                return errors;
            }
        };
        for step in 1..=EPISODE_STEPS {
            match client.call(&step_request(sid)) {
                Ok(Response::Stepped { observations, .. })
                    if observations == [Observation::Scalar(step as f64)] => {}
                other => {
                    errors.push(format!(
                        "{tenant}: episode {episode}: step {step}: {other:?}"
                    ));
                    return errors;
                }
            }
        }
        match client.call(&Request::EndSession { session_id: sid }) {
            Ok(Response::Ok) => {}
            other => {
                errors.push(format!("{tenant}: episode {episode}: end: {other:?}"));
                return errors;
            }
        }
    }
    errors
}

#[derive(Default)]
struct NoisyOutcome {
    admitted_first_try: bool,
    steps: u64,
    refusals: u64,
    /// Anything that was neither served nor a typed refusal with a
    /// positive `retry_after_ms`.
    failures: Vec<String>,
}

/// One call of a greedy noisy client: open a session when it holds none,
/// step the one it holds otherwise. A typed refusal is counted and its
/// advised delay slept; anything else that is not service is a failure.
fn noisy_call(client: &mut TcpClient, sid: &mut Option<u64>, out: &mut NoisyOutcome) {
    let reply = match *sid {
        None => client.call(&start_request("benchmark://gate/noisy")),
        Some(id) => client.call(&step_request(id)),
    };
    match reply {
        Ok(Response::SessionStarted { session_id }) => *sid = Some(session_id),
        Ok(Response::Stepped { .. }) => out.steps += 1,
        Err(CgError::Overloaded { retry_after_ms, .. }) if retry_after_ms > 0 => {
            out.refusals += 1;
            std::thread::sleep(Duration::from_millis(retry_after_ms));
        }
        other => out.failures.push(format!("noisy: {other:?}")),
    }
}

/// One greedy client of the noisy tenant: grab a session, hold it and step
/// flat out until `stop`; while refused, retry as fast as the server's
/// advice allows. Every client makes its first attempt before any holder
/// can release (`contest`), so with more clients than quota the door must
/// refuse — no timing involved.
fn drive_noisy(addr: &str, contest: &Barrier, stop: &AtomicBool) -> NoisyOutcome {
    let mut out = NoisyOutcome::default();
    let mut client = match connect(addr, "noisy") {
        Ok(client) => client,
        Err(e) => {
            out.failures.push(e);
            contest.wait();
            return out;
        }
    };
    let mut sid = None;
    noisy_call(&mut client, &mut sid, &mut out);
    out.admitted_first_try = sid.is_some();
    contest.wait();
    while out.failures.is_empty() && !stop.load(Ordering::Relaxed) {
        noisy_call(&mut client, &mut sid, &mut out);
    }
    if let Some(id) = sid {
        match client.call(&Request::EndSession { session_id: id }) {
            Ok(Response::Ok) => {}
            other => out.failures.push(format!("noisy: end: {other:?}")),
        }
    }
    out
}

#[test]
fn quota_overload_spares_victims_and_drain_parks_live_sessions() {
    // Interval 0: nothing is checkpointed during service, so whatever the
    // store holds afterwards was parked by the drain.
    let store = CheckpointStore::new(64, 0);
    let broker = Broker::new(
        gate_factory(),
        BrokerConfig {
            workers: 2,
            retry_after_ms: 5,
            quota: TenantQuota {
                max_sessions: QUOTA,
                ..TenantQuota::default()
            },
            checkpoints: store.clone(),
            ..BrokerConfig::default()
        },
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let broker = broker.clone();
        std::thread::spawn(move || broker.serve(listener))
    };

    let contest = Arc::new(Barrier::new(VICTIMS + NOISY_CLIENTS));
    let stop = Arc::new(AtomicBool::new(false));
    let noisy: Vec<_> = (0..NOISY_CLIENTS)
        .map(|_| {
            let (addr, contest, stop) = (addr.clone(), Arc::clone(&contest), Arc::clone(&stop));
            std::thread::spawn(move || drive_noisy(&addr, &contest, &stop))
        })
        .collect();
    let victims: Vec<_> = (0..VICTIMS)
        .map(|v| {
            let (addr, contest) = (addr.clone(), Arc::clone(&contest));
            std::thread::spawn(move || drive_victim(&addr, &format!("victim-{v}"), &contest))
        })
        .collect();
    let victim_errors: Vec<String> = victims
        .into_iter()
        .flat_map(|h| h.join().expect("victim thread panicked"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let noisy: Vec<NoisyOutcome> = noisy
        .into_iter()
        .map(|h| h.join().expect("noisy thread panicked"))
        .collect();

    // (a) + (c): every victim episode completed, and no request of theirs
    // — least of all one addressing an established session — was refused,
    // shed or failed.
    assert!(victim_errors.is_empty(), "victim errors: {victim_errors:?}");
    // (b): the overload was answered in band and typed, never by a dropped
    // connection or an untyped error, and the quota admitted exactly its
    // share of the simultaneous first attempts.
    let failures: Vec<&String> = noisy.iter().flat_map(|n| &n.failures).collect();
    assert!(failures.is_empty(), "noisy tenant failures: {failures:?}");
    assert_eq!(
        noisy.iter().filter(|n| n.admitted_first_try).count(),
        QUOTA,
        "the session quota must admit exactly {QUOTA} of {NOISY_CLIENTS} simultaneous creates"
    );
    assert!(
        noisy.iter().map(|n| n.refusals).sum::<u64>() >= (NOISY_CLIENTS - QUOTA) as u64,
        "clients beyond the quota must collect typed refusals"
    );
    assert!(
        noisy.iter().map(|n| n.steps).sum::<u64>() > 0,
        "the noisy tenant must actually have been served"
    );
    assert_eq!(
        broker.live_sessions(),
        0,
        "every ended session returns its quota"
    );

    // (d): park one session per victim tenant at a distinct depth, keep
    // the connections open, and drain underneath them.
    let mut parked = Vec::new();
    for v in 0..VICTIMS {
        let benchmark = format!("benchmark://gate/parked-{v}");
        let mut client = connect(&addr, &format!("victim-{v}")).unwrap();
        let Ok(Response::SessionStarted { session_id }) = client.call(&start_request(&benchmark))
        else {
            panic!("victim-{v}: parked session refused");
        };
        for _ in 0..=v {
            client.call(&step_request(session_id)).unwrap();
        }
        parked.push((client, benchmark, v + 1));
    }
    assert_eq!(broker.live_sessions(), VICTIMS);
    let report = broker.drain(Duration::from_secs(5));
    server.join().expect("server thread panicked").unwrap();
    assert_eq!(report.checkpointed, VICTIMS, "{report:?}");
    assert_eq!(report.shed_queued, 0, "{report:?}");
    assert_eq!(store.len(), VICTIMS);
    for (_client, benchmark, depth) in &parked {
        let checkpoint = store
            .latest_matching(benchmark, 0, &vec![0; *depth])
            .unwrap_or_else(|| panic!("no checkpoint parked for {benchmark}"));
        assert_eq!(checkpoint.depth(), *depth);
        assert_eq!(checkpoint.state.to_bytes(), (*depth as u64).to_le_bytes());
    }
}
