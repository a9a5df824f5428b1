//! `tcp-fleet`: two clients, each with its own connection, drive serial
//! 50-step episodes on the eight smallest programs through a 2-worker
//! [`Broker`] on loopback (CGB1 wire), asking for Autophase and InstCount
//! every step. Compiler work is held small so that the wire, the broker,
//! socket round trips and thread hand-offs are most of each step.
//!
//! Both connections bill to the broker's anonymous tenant:
//! `CompilerEnv::connect_tcp` has no way to name one.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Duration;

use cg_core::service::{Request, TcpTransport};
use cg_core::{Broker, BrokerConfig, CompilerEnv};
use cg_llvm::action_space::ActionSpace;

use super::{check_action_space, drive, step_count};
use crate::gen::{self, scaled, Episode};
use crate::result::RunResult;
use crate::run::{Harness, RoundRec, RunCfg, Verify};
use crate::verify;

/// Episodes per client per round at the nominal run length (x 50 steps;
/// about 0.5 s).
const EPISODES: usize = 45;

/// Timed rounds.
const ROUNDS: usize = 24;

/// Observation spaces requested with every step.
pub const SPACES: [&str; 2] = ["Autophase", "InstCount"];

/// Broker worker threads.
pub const BROKER_WORKERS: usize = 2;

/// A broker serving on loopback, shut down and joined on drop.
pub struct Server {
    /// `127.0.0.1:<port>`.
    pub addr: String,
    /// The broker behind the listener.
    pub broker: Broker,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Starts a 2-worker broker with default quotas for `llvm-v0`.
    ///
    /// # Errors
    /// Socket errors.
    pub fn start() -> Result<Server, String> {
        let factory = cg_core::envs::session_factory("llvm-v0")?;
        let broker = Broker::new(
            factory,
            BrokerConfig {
                workers: BROKER_WORKERS,
                ..BrokerConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let serving = broker.clone();
        let thread = std::thread::Builder::new()
            .name("perfbench-broker".to_string())
            .spawn(move || serving.serve(listener))
            .map_err(|e| e.to_string())?;
        Ok(Server {
            addr,
            broker,
            thread: Some(thread),
        })
    }

    /// Connects an environment to this server.
    ///
    /// # Errors
    /// Connection errors.
    pub fn connect(&self) -> Result<CompilerEnv, String> {
        let env = CompilerEnv::connect_tcp(
            "llvm-v0",
            &self.addr,
            &gen::cbench("qsort"),
            "Autophase",
            "IrInstructionCount",
            Duration::from_secs(60),
        )
        .map_err(|e| e.to_string())?;
        check_action_space(&env)?;
        Ok(env)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `Shutdown` drains the broker; `serve` returns once it is drained.
        if let Ok(t) = TcpTransport::connect(&self.addr, Duration::from_secs(10)) {
            let _ = t.call(Request::Shutdown);
        }
        self.broker.drain(Duration::from_secs(5));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Server plus one environment per client. Field order matters: the
/// environments end their sessions before the server goes away.
struct Fleet {
    envs: Vec<CompilerEnv>,
    _server: Server,
}

/// Drives both clients' scripts concurrently, released together.
fn drive_fleet(
    envs: &mut [CompilerEnv],
    scripts: &[Vec<Episode>; 2],
    timed: bool,
    rec: &mut RoundRec,
) {
    let barrier = Barrier::new(envs.len());
    let recs: Vec<RoundRec> = std::thread::scope(|scope| {
        let handles: Vec<_> = envs
            .iter_mut()
            .zip(scripts)
            .map(|(env, script)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rec = RoundRec::with_capacity(step_count(script), script.len());
                    barrier.wait();
                    drive(env, script, &SPACES, timed, &mut rec);
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for r in recs {
        rec.merge(r);
    }
}

/// The generated input.
pub fn input(cfg: &RunCfg) -> [Vec<Episode>; 2] {
    gen::tcp_fleet(cfg.seed, scaled(EPISODES, cfg.scale()))
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let scripts = input(cfg);
    let warm_up: [Vec<Episode>; 2] = scripts
        .clone()
        .map(|s| s[..(2 * gen::CBENCH_SMALLEST.len()).min(s.len())].to_vec());
    let mut h = Harness::new("tcp-fleet", cfg, false);
    let mut fleet = h.setup(cg_core::envs::llvm::clear_benchmark_cache, || {
        let server = Server::start()?;
        let envs = vec![server.connect()?, server.connect()?];
        let mut fleet = Fleet {
            envs,
            _server: server,
        };
        // Warm-up: each client visits all eight programs twice.
        let mut rec = RoundRec::default();
        drive_fleet(&mut fleet.envs, &warm_up, false, &mut rec);
        rec.warmed_up()?;
        Ok(fleet)
    })?;
    let steps: usize = scripts.iter().map(|s| step_count(s)).sum();
    for _ in 0..cfg.rounds(ROUNDS) {
        h.round(RoundRec::default(), |rec| {
            drive_fleet(&mut fleet.envs, &scripts, true, rec);
        });
    }
    h.rounds_done();

    let mut v = Verify::default();
    h.check_rounds_agree(&mut v);
    let recorded = h.last_checks().to_vec();
    let space = ActionSpace::new();
    for (c, script) in scripts.iter().enumerate() {
        let recorded = &recorded[c * script.len()..];
        let label = if c == 0 {
            "tcp-fleet client 0"
        } else {
            "tcp-fleet client 1"
        };
        verify::check_sample(
            &mut v,
            &mut fleet.envs[c],
            &space,
            cfg.seed,
            &verify::Script {
                label,
                episodes: script,
                extra: &SPACES,
                recorded,
            },
        );
    }
    let counts = BTreeMap::from([
        ("clients".to_string(), scripts.len() as u64),
        (
            "episodes".to_string(),
            scripts.iter().map(Vec::len).sum::<usize>() as u64,
        ),
        ("steps".to_string(), steps as u64),
    ]);
    let digest = gen::script_digest(scripts.iter().flatten());
    Ok(h.finish(v, counts, digest))
}
