//! The run shape every workload shares: settle, untimed set-up (repeated,
//! so that `setup_s` is a median), timed rounds on the identical input,
//! untimed verification, and the median-of-rounds summary.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::catalog::{self, SETUP_REPEATS, SMOKE_ROUNDS};
use crate::host::{self, Fingerprint};
use crate::result::{Measured, RunResult};
use crate::stats::{percentile, tail_percentile, Better, Rounds};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--smoke`: tiny counts, result marked non-comparable.
    pub smoke: bool,
    /// Where result files, traces and temporary stores go.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// Factor applied to every nominal operation count.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.02
        } else {
            self.seconds / catalog::NOMINAL_SECONDS
        }
    }

    /// Timed rounds for a workload that nominally runs `nominal` of them.
    pub fn rounds(&self, nominal: usize) -> usize {
        if self.smoke {
            SMOKE_ROUNDS
        } else {
            nominal
        }
    }

    /// Idles for [`catalog::SETTLE_SECONDS`] (not in `--smoke` runs): see
    /// there for why.
    pub fn settle(&self) {
        if !self.smoke {
            std::thread::sleep(std::time::Duration::from_secs(catalog::SETTLE_SECONDS));
        }
    }

    /// A scratch directory under `out/`, unique to this process.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join("tmp")
            .join(format!("{name}-{}", std::process::id()))
    }
}

/// What one timed round recorded. Vectors are sized before the round so
/// that recording does not allocate inside it.
#[derive(Debug, Default)]
pub struct RoundRec {
    /// Env steps completed (`search-pool`: actions requested).
    pub steps: u64,
    /// Wall time of every timed step call, in nanoseconds.
    pub step_ns: Vec<u64>,
    /// Wall time of every timed reset, in nanoseconds.
    pub reset_ns: Vec<u64>,
    /// Wall time of every submitted unit of work, in nanoseconds.
    pub batch_ns: Vec<u64>,
    /// Resets, steps and evaluations attempted.
    pub attempted: u64,
    /// How many of them returned an error.
    pub failed: u64,
    /// One value per episode (its summed reward) in script order: every
    /// round must reproduce it bit for bit, and verification recomputes a
    /// sample of it from scratch.
    pub checks: Vec<f64>,
}

impl RoundRec {
    /// A record with room for the given numbers of samples.
    pub fn with_capacity(steps: usize, episodes: usize) -> RoundRec {
        RoundRec {
            step_ns: Vec::with_capacity(steps),
            reset_ns: Vec::with_capacity(episodes),
            batch_ns: Vec::with_capacity(episodes),
            checks: Vec::with_capacity(episodes),
            ..RoundRec::default()
        }
    }

    /// For a warm-up pass: an error when anything in it failed, so that a
    /// set-up that does not work stops the run before it is timed.
    ///
    /// # Errors
    /// How many operations failed.
    pub fn warmed_up(&self) -> Result<(), String> {
        if self.failed > 0 {
            return Err(format!("{} operations failed during warm-up", self.failed));
        }
        Ok(())
    }

    /// Folds another client's record into this one.
    pub fn merge(&mut self, other: RoundRec) {
        self.steps += other.steps;
        self.step_ns.extend(other.step_ns);
        self.reset_ns.extend(other.reset_ns);
        self.batch_ns.extend(other.batch_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
    }
}

/// What untimed verification found.
#[derive(Debug, Default)]
pub struct Verify {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What was checked, then one line per mismatch.
    pub notes: Vec<String>,
}

impl Verify {
    /// Counts one check; records `what()` when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            if self.notes.len() < 40 {
                self.notes.push(format!("MISMATCH: {}", what()));
            }
        }
    }

    /// Records what a group of checks covered.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

struct RoundSummary {
    wall_s: f64,
    cpu_s: f64,
    rec: RoundRec,
}

/// Drives one workload through set-up, rounds and the summary.
pub struct Harness {
    cfg: RunCfg,
    workload: &'static str,
    host: Fingerprint,
    pin: Option<host::Pinned>,
    setup_s: Vec<f64>,
    rounds: Vec<RoundSummary>,
    peak_rss_mib: f64,
}

impl Harness {
    /// Starts a run: lets the host settle, takes its fingerprint and, for
    /// a workload with a single closed-loop client, pins this thread and
    /// every thread spawned from here on to one CPU (README, "One CPU for
    /// one client").
    pub fn new(workload: &'static str, cfg: &RunCfg, one_cpu: bool) -> Harness {
        cfg.settle();
        Harness {
            cfg: cfg.clone(),
            workload,
            host: Fingerprint::start(),
            pin: one_cpu.then(host::Pinned::to_one_cpu).flatten(),
            setup_s: Vec::new(),
            rounds: Vec::new(),
            peak_rss_mib: 0.0,
        }
    }

    /// Runs `build` [`SETUP_REPEATS`] times, timing each, and keeps the
    /// last state. An earlier state is dropped (untimed) before the next
    /// one is built, and `reset` returns the process to its cold state
    /// first (also untimed).
    ///
    /// # Errors
    /// The first set-up failure.
    pub fn setup<S>(
        &mut self,
        mut reset: impl FnMut(),
        mut build: impl FnMut() -> Result<S, String>,
    ) -> Result<S, String> {
        let mut state = None;
        for _ in 0..SETUP_REPEATS {
            drop(state.take());
            reset();
            let started = Instant::now();
            let built = build()?;
            self.setup_s.push(started.elapsed().as_secs_f64());
            state = Some(built);
        }
        Ok(state.expect("SETUP_REPEATS >= 1"))
    }

    /// Times one round: wall clock and process CPU around `f`.
    pub fn round(&mut self, mut rec: RoundRec, f: impl FnOnce(&mut RoundRec)) {
        let cpu = host::cpu_seconds();
        let started = Instant::now();
        f(&mut rec);
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu;
        // Sorted once, here, for the percentiles `finish` takes.
        rec.step_ns.sort_unstable();
        rec.reset_ns.sort_unstable();
        rec.batch_ns.sort_unstable();
        self.rounds.push(RoundSummary { wall_s, cpu_s, rec });
    }

    /// Reads `VmHWM`; call when the timed rounds are over, before
    /// verification allocates anything.
    pub fn rounds_done(&mut self) {
        self.peak_rss_mib = host::peak_rss_mib();
    }

    /// The per-episode check values of the last round.
    pub fn last_checks(&self) -> &[f64] {
        self.rounds.last().map_or(&[], |r| &r.rec.checks)
    }

    /// Requires every round to have reproduced the first round's check
    /// values bit for bit.
    pub fn check_rounds_agree(&self, verify: &mut Verify) {
        let Some(first) = self.rounds.first() else {
            return;
        };
        let bits = |r: &RoundSummary| r.rec.checks.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let reference = bits(first);
        for (i, round) in self.rounds.iter().enumerate().skip(1) {
            verify.check(bits(round) == reference, || {
                format!("round {i} did not reproduce round 0's per-episode rewards")
            });
        }
        verify.note(format!(
            "{} rounds reproduced {} per-episode rewards bit for bit",
            self.rounds.len(),
            reference.len()
        ));
    }

    fn per_round(&self, better: Better, f: impl Fn(&RoundSummary) -> f64) -> Rounds {
        Rounds::of(self.rounds.iter().map(f).collect(), better)
    }

    /// Builds the result from the recorded rounds and the verification
    /// outcome.
    pub fn finish(
        mut self,
        verify: Verify,
        counts: BTreeMap<String, u64>,
        input_digest: u64,
    ) -> RunResult {
        self.host.finish();
        let mut out = BTreeMap::new();
        let mut put = |name: &str, rounds: Rounds, samples: u64, note: String| {
            let def = catalog::end_to_end(name).expect("catalogued metric");
            out.insert(
                name.to_string(),
                Measured {
                    value: rounds.median,
                    unit: def.unit.to_string(),
                    best: rounds.best,
                    rounds: rounds.all,
                    samples,
                    note,
                },
            );
        };

        put(
            "setup_s",
            Rounds::of(self.setup_s.clone(), Better::Lower),
            SETUP_REPEATS as u64,
            "the first set-up also pays first-touch page faults".to_string(),
        );

        // Every round runs the same input, so the first one's counts are
        // every round's.
        let count = |f: fn(&RoundRec) -> u64| self.rounds.first().map_or(0, |r| f(&r.rec));
        let steps = count(|r| r.steps);
        let n_steps = count(|r| r.step_ns.len() as u64);
        put(
            "steps_per_s",
            self.per_round(Better::Higher, |r| r.rec.steps as f64 / r.wall_s),
            steps,
            String::new(),
        );
        put(
            "step_p50_us",
            self.per_round(Better::Lower, |r| {
                percentile(&r.rec.step_ns, 50.0) as f64 / 1e3
            }),
            n_steps,
            String::new(),
        );
        let (tail, tail_note) = match tail_percentile(n_steps as usize) {
            Some(p) if p == 99.0 => (p, String::new()),
            Some(p) => (
                p,
                format!("p{p}: p99 has fewer than 10 of {n_steps} samples beyond it"),
            ),
            None => (100.0, format!("max: only {n_steps} samples")),
        };
        put(
            "step_p99_us",
            self.per_round(Better::Lower, |r| {
                percentile(&r.rec.step_ns, tail) as f64 / 1e3
            }),
            n_steps,
            tail_note,
        );
        put(
            "reset_p50_us",
            self.per_round(Better::Lower, |r| {
                percentile(&r.rec.reset_ns, 50.0) as f64 / 1e3
            }),
            count(|r| r.reset_ns.len() as u64),
            String::new(),
        );
        put(
            "batch_p50_ms",
            self.per_round(Better::Lower, |r| {
                percentile(&r.rec.batch_ns, 50.0) as f64 / 1e6
            }),
            count(|r| r.batch_ns.len() as u64),
            String::new(),
        );
        put(
            "cpu_ms_per_kstep",
            self.per_round(Better::Lower, |r| r.cpu_s * 1e6 / r.rec.steps.max(1) as f64),
            steps,
            String::new(),
        );
        put(
            "peak_rss_mib",
            Rounds::of(vec![self.peak_rss_mib], Better::Lower),
            1,
            String::new(),
        );

        let attempted = self.rounds.iter().map(|r| r.rec.attempted).sum::<u64>() + verify.attempted;
        let failed = self.rounds.iter().map(|r| r.rec.failed).sum::<u64>() + verify.failed;
        let attempted = attempted.max(1);
        RunResult {
            schema: catalog::SCHEMA.to_string(),
            comparable: !self.cfg.smoke,
            workload: self.workload.to_string(),
            seed: self.cfg.seed,
            seconds: self.cfg.seconds,
            traced: false,
            host: self.host,
            pinned_cpu: self.pin.as_ref().map_or(-1, |p| p.cpu as i64),
            rounds: self.rounds.len() as u64,
            setup_repeats: SETUP_REPEATS as u64,
            input_digest: format!("{input_digest:016x}"),
            counts,
            attempted,
            failed,
            failed_share: failed as f64 / attempted as f64,
            correct: failed == 0,
            verify: verify.notes,
            end_to_end: out,
            per_layer: BTreeMap::new(),
            spans: Vec::new(),
        }
    }
}
