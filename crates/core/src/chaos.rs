//! Fault injection for the service runtime (the paper's robustness story,
//! §IV-B, made testable): wrap *any* [`SessionFactory`] in a seeded
//! [`FaultPlan`] that makes the underlying compiler panic, hang, error, or
//! corrupt its replies on schedule or with configured probabilities.
//!
//! The wrapped factory is indistinguishable from a real backend to the rest
//! of the stack, so the full recovery path — panic isolation, wall
//! budgets, socket deadlines, service restarts, and mid-episode
//! action-replay restoration —
//! is exercised exactly as it would be by a genuinely crashing compiler.
//! `cg chaos` drives whole episodes under an injected fault load and reports
//! recovery statistics from the telemetry snapshot; the integration and
//! property tests use scheduled faults for deterministic crash points.
//!
//! Fault decisions are pure functions of `(seed, event index)`, so a chaos
//! run is reproducible: the same seed injects the same faults at the same
//! points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::retry::{splitmix64, unit_f64};
use crate::service::SessionFactory;
use crate::session::{ActionOutcome, CompilationSession, SessionSnapshot};
use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside `apply_action` (a compiler crash; the service destroys
    /// the session and answers `Fatal`).
    Panic,
    /// Sleep for the plan's hang duration inside `apply_action` (a hung
    /// compiler; the wall budget kills it in band, or over TCP the socket
    /// deadline expires and the connection is restarted).
    Hang,
    /// Return an error from `apply_action` (a compile failure; surfaced to
    /// the caller as a session error, by design not recovered).
    Error,
    /// Corrupt the next observation's value (a wrong-but-well-formed reply;
    /// detectable only by the replay consistency check).
    CorruptReply,
    /// Inflate the session's reported state size by the plan's growth
    /// increment on this and every later apply (a pass that blows up the
    /// module; caught by the resource budget's size cap, which kills the
    /// session in-band — the fresh session after recovery starts
    /// uninflated).
    SlowGrowth,
    /// Stop answering forever: this and every later `apply_action` and
    /// `observe` on the session blocks indefinitely without panicking or
    /// erroring. Caught by the wall budget.
    Wedge,
    /// A connection stampede: a burst of simultaneous TCP connects against
    /// the service's front door mid-soak (a fleet of clients restarting at
    /// once). Unlike every other kind, this is not an in-session fault —
    /// the chaos *driver* (`cg chaos --faults stampede`) opens the burst
    /// against a broker-mode server and asserts established sessions keep
    /// progressing while excess connects are shed with typed refusals.
    /// Never sampled by the per-apply injector.
    Stampede,
    /// A disk-fault family (torn write, short read, ENOSPC, bit-flip on
    /// read) injected into the transition store's file layer rather than
    /// into a compiler session. Like [`FaultKind::Stampede`] this is a
    /// driver-level fault: `cg chaos --faults io` builds an
    /// [`IoFaultInjector`] and threads it through the store's WAL, which
    /// must recover every fault with typed, counted outcomes. Never
    /// sampled by the per-apply injector.
    IoFault,
}

/// The kinds of disk fault an [`IoFaultInjector`] can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// A write persists only a prefix of the record (power loss mid-write).
    TornWrite,
    /// A read returns fewer bytes than the file holds at that offset.
    ShortRead,
    /// A write fails up front with `ENOSPC`; nothing is persisted.
    Enospc,
    /// A read returns the right length with one bit flipped (bit rot).
    BitFlip,
}

/// A seeded description of which disk faults to inject and how often.
/// Probabilities are per file operation (write ops sample
/// torn-write/ENOSPC, read ops sample short-read/bit-flip); decisions are
/// pure functions of `(seed, op index)`, so runs are reproducible.
#[derive(Debug, Clone)]
pub struct IoFaultPlan {
    /// Seed for the deterministic fault sampler.
    pub seed: u64,
    /// Per-write probability of a torn write.
    pub torn_write_prob: f64,
    /// Per-write probability of an `ENOSPC` failure.
    pub enospc_prob: f64,
    /// Per-read probability of a short read.
    pub short_read_prob: f64,
    /// Per-read probability of a flipped bit.
    pub bit_flip_prob: f64,
    /// Total injection budget; `None` is unlimited.
    pub max_faults: Option<u64>,
}

impl Default for IoFaultPlan {
    fn default() -> IoFaultPlan {
        IoFaultPlan {
            seed: 0,
            torn_write_prob: 0.0,
            enospc_prob: 0.0,
            short_read_prob: 0.0,
            bit_flip_prob: 0.0,
            max_faults: None,
        }
    }
}

impl IoFaultPlan {
    /// A fault-free plan with the given sampler seed.
    #[must_use]
    pub fn seeded(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            ..IoFaultPlan::default()
        }
    }

    /// Sets the per-write torn-write probability.
    #[must_use]
    pub fn with_torn_write_prob(mut self, p: f64) -> IoFaultPlan {
        self.torn_write_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-write `ENOSPC` probability.
    #[must_use]
    pub fn with_enospc_prob(mut self, p: f64) -> IoFaultPlan {
        self.enospc_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-read short-read probability.
    #[must_use]
    pub fn with_short_read_prob(mut self, p: f64) -> IoFaultPlan {
        self.short_read_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-read bit-flip probability.
    #[must_use]
    pub fn with_bit_flip_prob(mut self, p: f64) -> IoFaultPlan {
        self.bit_flip_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Caps the total number of injected disk faults.
    #[must_use]
    pub fn with_max_faults(mut self, max: u64) -> IoFaultPlan {
        self.max_faults = Some(max);
        self
    }

    /// Builds the injector for this plan.
    #[must_use]
    pub fn injector(self) -> IoFaultInjector {
        IoFaultInjector {
            plan: self,
            stats: Arc::new(IoFaultStats::default()),
        }
    }
}

/// Counters for what an [`IoFaultInjector`] actually did.
#[derive(Debug, Default)]
pub struct IoFaultStats {
    writes: AtomicU64,
    reads: AtomicU64,
    torn_writes: AtomicU64,
    short_reads: AtomicU64,
    enospcs: AtomicU64,
    bit_flips: AtomicU64,
}

impl IoFaultStats {
    /// Write operations seen.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Read operations seen.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Injected torn writes.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes.load(Ordering::Relaxed)
    }

    /// Injected short reads.
    pub fn short_reads(&self) -> u64 {
        self.short_reads.load(Ordering::Relaxed)
    }

    /// Injected `ENOSPC` failures.
    pub fn enospcs(&self) -> u64 {
        self.enospcs.load(Ordering::Relaxed)
    }

    /// Injected bit flips.
    pub fn bit_flips(&self) -> u64 {
        self.bit_flips.load(Ordering::Relaxed)
    }

    /// Total disk faults injected, all kinds.
    pub fn injected(&self) -> u64 {
        self.torn_writes() + self.short_reads() + self.enospcs() + self.bit_flips()
    }
}

/// A seeded, deterministic disk-fault sampler consumed by the transition
/// store's WAL file layer. Cloning shares the op counters and stats, so one
/// injector can cover several files.
#[derive(Debug, Clone)]
pub struct IoFaultInjector {
    plan: IoFaultPlan,
    stats: Arc<IoFaultStats>,
}

impl IoFaultInjector {
    /// The shared fault counters.
    #[must_use]
    pub fn stats(&self) -> Arc<IoFaultStats> {
        Arc::clone(&self.stats)
    }

    fn budget_left(&self) -> bool {
        self.plan
            .max_faults
            .is_none_or(|max| self.stats.injected() < max)
    }

    /// Decides the fault (if any) for the next write operation, advancing
    /// the write-op counter and recording what fired.
    pub fn fault_for_write(&self) -> Option<IoFaultKind> {
        let idx = self.stats.writes.fetch_add(1, Ordering::Relaxed);
        if !self.budget_left() {
            return None;
        }
        let r = unit_f64(splitmix64(
            self.plan.seed ^ 0x10_F417 ^ idx.wrapping_mul(0x9E37_79B9),
        ));
        let mut acc = self.plan.torn_write_prob;
        if r < acc {
            self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Some(IoFaultKind::TornWrite);
        }
        acc += self.plan.enospc_prob;
        if r < acc {
            self.stats.enospcs.fetch_add(1, Ordering::Relaxed);
            return Some(IoFaultKind::Enospc);
        }
        None
    }

    /// Decides the fault (if any) for the next read operation, advancing
    /// the read-op counter and recording what fired.
    pub fn fault_for_read(&self) -> Option<IoFaultKind> {
        let idx = self.stats.reads.fetch_add(1, Ordering::Relaxed);
        if !self.budget_left() {
            return None;
        }
        let r = unit_f64(splitmix64(
            self.plan.seed ^ 0x10_F41D ^ idx.wrapping_mul(0x85EB_CA6B),
        ));
        let mut acc = self.plan.short_read_prob;
        if r < acc {
            self.stats.short_reads.fetch_add(1, Ordering::Relaxed);
            return Some(IoFaultKind::ShortRead);
        }
        acc += self.plan.bit_flip_prob;
        if r < acc {
            self.stats.bit_flips.fetch_add(1, Ordering::Relaxed);
            return Some(IoFaultKind::BitFlip);
        }
        None
    }

    /// A deterministic sub-draw for where in a buffer a fault lands (the
    /// torn-write prefix length or the flipped bit index), derived from the
    /// op counters so it never perturbs the fault schedule itself.
    #[must_use]
    pub fn fault_offset(&self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let idx = self
            .stats
            .writes
            .load(Ordering::Relaxed)
            .wrapping_add(self.stats.reads.load(Ordering::Relaxed));
        splitmix64(self.plan.seed ^ 0x000F_F5E7 ^ idx) % bound
    }
}

/// A seeded description of which faults to inject and when.
///
/// Faults fire either at scheduled *apply indices* (the running count of
/// `apply_action` calls across every session the wrapped factory produced —
/// replayed actions count too) or at random with the configured per-apply
/// probabilities. `CorruptReply` probability is evaluated per `observe`
/// call instead.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the deterministic fault sampler.
    pub seed: u64,
    /// Per-apply probability of an injected panic.
    pub panic_prob: f64,
    /// Per-apply probability of an injected hang.
    pub hang_prob: f64,
    /// Per-apply probability of an injected session error.
    pub error_prob: f64,
    /// Per-observe probability of a corrupted reply.
    pub corrupt_prob: f64,
    /// Per-apply probability of a slow-growth injection.
    pub slow_growth_prob: f64,
    /// Per-apply probability of wedging the session.
    pub wedge_prob: f64,
    /// How long an injected hang sleeps. Must exceed the wall budget (or
    /// the socket deadline) to be observable as a fault.
    pub hang: Duration,
    /// How much each `SlowGrowth` fault inflates the session's reported
    /// state size.
    pub growth_increment: u64,
    /// One-shot faults at exact global apply indices (0-based).
    pub scheduled: Vec<(u64, FaultKind)>,
    /// Total injection budget across the plan's lifetime; `None` is
    /// unlimited. A budget guarantees an adversarial plan eventually lets
    /// recovery succeed.
    pub max_faults: Option<u64>,
    /// How many simultaneous connects a [`FaultKind::Stampede`] opens.
    /// Consumed by the chaos driver, not the in-session injector.
    pub stampede_size: usize,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            panic_prob: 0.0,
            hang_prob: 0.0,
            error_prob: 0.0,
            corrupt_prob: 0.0,
            slow_growth_prob: 0.0,
            wedge_prob: 0.0,
            hang: Duration::from_secs(1),
            growth_increment: 1_000,
            scheduled: Vec::new(),
            max_faults: None,
            stampede_size: 32,
        }
    }
}

impl FaultPlan {
    /// A fault-free plan with the given sampler seed.
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-apply panic probability.
    #[must_use]
    pub fn with_panic_prob(mut self, p: f64) -> FaultPlan {
        self.panic_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-apply hang probability.
    #[must_use]
    pub fn with_hang_prob(mut self, p: f64) -> FaultPlan {
        self.hang_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-apply session-error probability.
    #[must_use]
    pub fn with_error_prob(mut self, p: f64) -> FaultPlan {
        self.error_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-observe corrupt-reply probability.
    #[must_use]
    pub fn with_corrupt_prob(mut self, p: f64) -> FaultPlan {
        self.corrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-apply slow-growth probability.
    #[must_use]
    pub fn with_slow_growth_prob(mut self, p: f64) -> FaultPlan {
        self.slow_growth_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-apply wedge probability.
    #[must_use]
    pub fn with_wedge_prob(mut self, p: f64) -> FaultPlan {
        self.wedge_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the injected hang duration.
    #[must_use]
    pub fn with_hang_duration(mut self, hang: Duration) -> FaultPlan {
        self.hang = hang;
        self
    }

    /// Sets the per-fault state-size inflation of `SlowGrowth`.
    #[must_use]
    pub fn with_growth_increment(mut self, increment: u64) -> FaultPlan {
        self.growth_increment = increment;
        self
    }

    /// Schedules a one-shot fault at a global apply index.
    #[must_use]
    pub fn schedule(mut self, apply_index: u64, kind: FaultKind) -> FaultPlan {
        self.scheduled.push((apply_index, kind));
        self
    }

    /// Caps the total number of injected faults.
    #[must_use]
    pub fn with_max_faults(mut self, max: u64) -> FaultPlan {
        self.max_faults = Some(max);
        self
    }

    /// Sets the size of a connection stampede burst.
    #[must_use]
    pub fn with_stampede_size(mut self, connects: usize) -> FaultPlan {
        self.stampede_size = connects.max(1);
        self
    }

    /// Wraps a session factory so every session it produces injects this
    /// plan's faults. Returns the wrapped factory and a shared [`ChaosStats`]
    /// handle counting what was actually injected.
    #[must_use]
    pub fn wrap(self, inner: SessionFactory) -> (SessionFactory, Arc<ChaosStats>) {
        chaos_factory(inner, self)
    }
}

/// Counters for what the injector actually did, shared across every session
/// (and fork) produced by one wrapped factory.
#[derive(Debug, Default)]
pub struct ChaosStats {
    applies: AtomicU64,
    observes: AtomicU64,
    panics: AtomicU64,
    hangs: AtomicU64,
    errors: AtomicU64,
    corruptions: AtomicU64,
    slow_growths: AtomicU64,
    wedges: AtomicU64,
    stampedes: AtomicU64,
}

impl ChaosStats {
    /// Total `apply_action` calls seen (including replayed actions).
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }

    /// Total `observe` calls seen.
    pub fn observes(&self) -> u64 {
        self.observes.load(Ordering::Relaxed)
    }

    /// Injected panics.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Injected hangs.
    pub fn hangs(&self) -> u64 {
        self.hangs.load(Ordering::Relaxed)
    }

    /// Injected session errors.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Injected corrupted replies.
    pub fn corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Injected slow-growth inflations.
    pub fn slow_growths(&self) -> u64 {
        self.slow_growths.load(Ordering::Relaxed)
    }

    /// Injected wedges.
    pub fn wedges(&self) -> u64 {
        self.wedges.load(Ordering::Relaxed)
    }

    /// Connection stampedes driven against the front door.
    pub fn stampedes(&self) -> u64 {
        self.stampedes.load(Ordering::Relaxed)
    }

    /// Records one driver-injected connection stampede.
    pub fn record_stampede(&self) {
        self.stampedes.fetch_add(1, Ordering::Relaxed);
    }

    /// Total faults injected, all kinds.
    pub fn injected(&self) -> u64 {
        self.panics()
            + self.hangs()
            + self.errors()
            + self.corruptions()
            + self.slow_growths()
            + self.wedges()
    }
}

struct ChaosShared {
    plan: FaultPlan,
    stats: Arc<ChaosStats>,
}

impl ChaosShared {
    fn budget_left(&self) -> bool {
        self.plan
            .max_faults
            .is_none_or(|max| self.stats.injected() < max)
    }

    /// Decides the fault (if any) for the next `apply_action`, advancing the
    /// global apply counter.
    fn fault_for_apply(&self) -> Option<FaultKind> {
        let idx = self.stats.applies.fetch_add(1, Ordering::Relaxed);
        if !self.budget_left() {
            return None;
        }
        if let Some(&(_, kind)) = self.plan.scheduled.iter().find(|&&(i, _)| i == idx) {
            return Some(kind);
        }
        let r = unit_f64(splitmix64(self.plan.seed ^ idx.wrapping_mul(0x9E37_79B9)));
        let p = &self.plan;
        let mut acc = p.panic_prob;
        if r < acc {
            return Some(FaultKind::Panic);
        }
        acc += p.hang_prob;
        if r < acc {
            return Some(FaultKind::Hang);
        }
        acc += p.error_prob;
        if r < acc {
            return Some(FaultKind::Error);
        }
        acc += p.slow_growth_prob;
        if r < acc {
            return Some(FaultKind::SlowGrowth);
        }
        acc += p.wedge_prob;
        if r < acc {
            return Some(FaultKind::Wedge);
        }
        None
    }

    /// Decides whether the next `observe` reply is corrupted.
    fn corrupt_next_observe(&self) -> bool {
        let idx = self.stats.observes.fetch_add(1, Ordering::Relaxed);
        if !self.budget_left() || self.plan.corrupt_prob <= 0.0 {
            return false;
        }
        let r = unit_f64(splitmix64(
            self.plan.seed ^ 0x00C0_FFEE ^ idx.wrapping_mul(0x85EB_CA6B),
        ));
        r < self.plan.corrupt_prob
    }
}

/// A [`CompilationSession`] that behaves exactly like its inner session
/// except when the plan says otherwise.
struct ChaosSession {
    inner: Box<dyn CompilationSession>,
    shared: Arc<ChaosShared>,
    /// Extra state size reported on top of the inner session's, accumulated
    /// by `SlowGrowth` faults. Not captured by `snapshot`, so a session
    /// restored from a checkpoint (or started fresh) is uninflated — the
    /// recovery path escapes the growth.
    inflation: u64,
    /// Set by a `Wedge` fault: every later call blocks forever.
    wedged: bool,
}

/// Blocks the calling thread forever (a wedged compiler: alive, consuming a
/// worker, answering nothing).
fn wedge_forever() -> ! {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn corrupt(obs: Observation) -> Observation {
    match obs {
        Observation::Scalar(x) => Observation::Scalar(x + 1.0),
        Observation::IntVector(mut v) => {
            if let Some(first) = v.first_mut() {
                *first = first.wrapping_add(1);
            }
            Observation::IntVector(v)
        }
        Observation::FloatVector(mut v) => {
            if let Some(first) = v.first_mut() {
                *first += 1.0;
            }
            Observation::FloatVector(v)
        }
        Observation::Text(t) => Observation::Text(format!("{t}\n; chaos: corrupted")),
        Observation::Bytes(mut b) => {
            if let Some(first) = b.first_mut() {
                *first = first.wrapping_add(1);
            }
            Observation::Bytes(b)
        }
        other => other,
    }
}

impl CompilationSession for ChaosSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        self.inner.action_spaces()
    }

    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        self.inner.observation_spaces()
    }

    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        self.inner.reward_spaces()
    }

    fn init(&mut self, benchmark: &str, action_space: usize) -> Result<(), String> {
        // Startup is fault-free by design: recovery re-establishes sessions
        // via `StartSession`, and an injector that always kills startup
        // would make every plan unrecoverable.
        self.inner.init(benchmark, action_space)
    }

    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        if self.wedged {
            wedge_forever();
        }
        match self.shared.fault_for_apply() {
            Some(FaultKind::Panic) => {
                self.shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic");
            }
            Some(FaultKind::Hang) => {
                self.shared.stats.hangs.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.shared.plan.hang);
                // The worker has usually been abandoned by now; finish the
                // action anyway so a patient client sees consistent state.
                self.inner.apply_action(action)
            }
            Some(FaultKind::Error) => {
                self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                Err("chaos: injected error".into())
            }
            Some(FaultKind::SlowGrowth) => {
                self.shared
                    .stats
                    .slow_growths
                    .fetch_add(1, Ordering::Relaxed);
                self.inflation += self.shared.plan.growth_increment;
                self.inner.apply_action(action)
            }
            Some(FaultKind::Wedge) => {
                self.shared.stats.wedges.fetch_add(1, Ordering::Relaxed);
                self.wedged = true;
                wedge_forever();
            }
            // CorruptReply fires on observe; Stampede and IoFault are
            // driver-level faults injected outside the session entirely.
            Some(FaultKind::CorruptReply | FaultKind::Stampede | FaultKind::IoFault) | None => {
                self.inner.apply_action(action)
            }
        }
    }

    fn observe(&mut self, space: &str) -> Result<Observation, String> {
        if self.wedged {
            wedge_forever();
        }
        let obs = self.inner.observe(space)?;
        if self.shared.corrupt_next_observe() {
            self.shared
                .stats
                .corruptions
                .fetch_add(1, Ordering::Relaxed);
            Ok(corrupt(obs))
        } else {
            Ok(obs)
        }
    }

    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(ChaosSession {
            inner: self.inner.fork(),
            shared: Arc::clone(&self.shared),
            inflation: self.inflation,
            wedged: self.wedged,
        })
    }

    fn snapshot(&self) -> Option<SessionSnapshot> {
        // The inner session's own, leaving the inflation behind on purpose:
        // a restored checkpoint (like a fresh start) sheds injected growth,
        // as a real module-inflating pass does under recovery.
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
        self.inner.restore(snapshot)
    }

    fn state_size(&self) -> Option<u64> {
        self.inner.state_size().map(|s| s + self.inflation)
    }

    fn apply_budget(&mut self, budget: &crate::budget::ResourceBudget) {
        self.inner.apply_budget(budget);
    }
}

/// Wraps `inner` so every session it produces injects `plan`'s faults.
/// All sessions (across service restarts, and their forks) share one fault
/// schedule and one [`ChaosStats`].
#[must_use]
pub fn chaos_factory(inner: SessionFactory, plan: FaultPlan) -> (SessionFactory, Arc<ChaosStats>) {
    let stats = Arc::new(ChaosStats::default());
    let shared = Arc::new(ChaosShared {
        plan,
        stats: Arc::clone(&stats),
    });
    let factory: SessionFactory = Arc::new(move || {
        Box::new(ChaosSession {
            inner: (inner)(),
            shared: Arc::clone(&shared),
            inflation: 0,
            wedged: false,
        })
    });
    (factory, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial deterministic inner session: metric = number of applies.
    struct CountSession {
        steps: usize,
    }

    impl CompilationSession for CountSession {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            vec![ActionSpaceInfo {
                name: "count".into(),
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
            self.steps += 1;
            Ok(ActionOutcome {
                end_of_episode: false,
                action_space_changed: false,
                changed: true,
            })
        }
        fn observe(&mut self, _s: &str) -> Result<Observation, String> {
            Ok(Observation::Scalar(self.steps as f64))
        }
        fn fork(&self) -> Box<dyn CompilationSession> {
            Box::new(CountSession { steps: self.steps })
        }
        fn state_size(&self) -> Option<u64> {
            Some(self.steps as u64)
        }
        fn snapshot(&self) -> Option<SessionSnapshot> {
            let bytes = (self.steps as u64).to_le_bytes().to_vec();
            Some(SessionSnapshot::from_bytes(bytes))
        }
        fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
            let bytes: [u8; 8] = snapshot.to_bytes().try_into().map_err(|_| "bad snapshot")?;
            self.steps = u64::from_le_bytes(bytes) as usize;
            Ok(())
        }
    }

    fn count_factory() -> SessionFactory {
        Arc::new(|| Box::new(CountSession { steps: 0 }))
    }

    #[test]
    fn scheduled_fault_fires_exactly_once() {
        let (factory, stats) = FaultPlan::seeded(1)
            .schedule(2, FaultKind::Error)
            .wrap(count_factory());
        let mut s = factory();
        s.init("x", 0).unwrap();
        assert!(s.apply_action(0).is_ok()); // apply 0
        assert!(s.apply_action(0).is_ok()); // apply 1
        assert!(s.apply_action(0).is_err()); // apply 2: scheduled error
        assert!(s.apply_action(0).is_ok()); // apply 3: one-shot, passed
        assert_eq!(stats.errors(), 1);
        assert_eq!(stats.applies(), 4);
    }

    #[test]
    fn fault_budget_stops_injection() {
        let (factory, stats) = FaultPlan::seeded(9)
            .with_error_prob(1.0)
            .with_max_faults(2)
            .wrap(count_factory());
        let mut s = factory();
        s.init("x", 0).unwrap();
        let mut errors = 0;
        for _ in 0..10 {
            if s.apply_action(0).is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 2, "budget caps injection");
        assert_eq!(stats.injected(), 2);
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let (factory, _) = FaultPlan::seeded(seed)
                .with_error_prob(0.5)
                .wrap(count_factory());
            let mut s = factory();
            s.init("x", 0).unwrap();
            (0..32).map(|_| s.apply_action(0).is_err()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn corrupt_reply_perturbs_observations() {
        let (factory, stats) = FaultPlan::seeded(3)
            .with_corrupt_prob(1.0)
            .wrap(count_factory());
        let mut s = factory();
        s.init("x", 0).unwrap();
        s.apply_action(0).unwrap();
        let obs = s.observe("steps").unwrap();
        assert_eq!(obs, Observation::Scalar(2.0), "1 step, corrupted by +1");
        assert_eq!(stats.corruptions(), 1);
    }

    #[test]
    fn slow_growth_inflates_reported_size_but_not_snapshots() {
        let (factory, stats) = FaultPlan::seeded(5)
            .schedule(1, FaultKind::SlowGrowth)
            .with_growth_increment(500)
            .wrap(count_factory());
        let mut s = factory();
        s.init("x", 0).unwrap();
        s.apply_action(0).unwrap(); // apply 0: clean
        assert_eq!(s.state_size(), Some(1));
        s.apply_action(0).unwrap(); // apply 1: slow growth
        assert_eq!(s.state_size(), Some(2 + 500), "reported size is inflated");
        assert_eq!(stats.slow_growths(), 1);
        // A snapshot round trip sheds the inflation: recovery escapes it.
        let snap = s.snapshot().unwrap().to_bytes().to_vec();
        let mut fresh = factory();
        fresh.init("x", 0).unwrap();
        fresh.restore(&SessionSnapshot::from_bytes(snap)).unwrap();
        assert_eq!(fresh.state_size(), Some(2));
        // The wrapper hands out the inner session's own snapshot: the same
        // state, the same bytes, and no inflation either.
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.to_bytes(), s.snapshot().unwrap().to_bytes());
        let mut fresh = factory();
        fresh.init("x", 0).unwrap();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.state_size(), Some(2));
    }

    #[test]
    fn llvm_snapshots_stay_structural_through_the_wrapper() {
        let (factory, _) =
            FaultPlan::seeded(7).wrap(crate::envs::session_factory("llvm-v0").unwrap());
        let mut s = factory();
        s.init("benchmark://cbench-v1/crc32", 0).unwrap();
        s.apply_action(0).unwrap();
        let snap = s.snapshot().unwrap();
        assert!(snap.is_live(), "the wrapper must not flatten it to bytes");
        let mut fresh = factory();
        fresh.init("benchmark://cbench-v1/crc32", 0).unwrap();
        fresh.restore(&snap).unwrap();
        assert_eq!(
            fresh.snapshot().unwrap().to_bytes(),
            s.snapshot().unwrap().to_bytes()
        );
    }

    #[test]
    fn io_injector_is_deterministic_and_budgeted() {
        let run = |seed: u64| -> Vec<Option<IoFaultKind>> {
            let inj = IoFaultPlan::seeded(seed)
                .with_torn_write_prob(0.3)
                .with_enospc_prob(0.2)
                .injector();
            (0..64).map(|_| inj.fault_for_write()).collect()
        };
        assert_eq!(run(11), run(11), "same seed, same fault sequence");
        assert_ne!(run(11), run(12), "different seeds diverge");

        let inj = IoFaultPlan::seeded(3)
            .with_bit_flip_prob(1.0)
            .with_max_faults(4)
            .injector();
        let injected = (0..32).filter(|_| inj.fault_for_read().is_some()).count();
        assert_eq!(injected, 4, "budget caps injection");
        assert_eq!(inj.stats().bit_flips(), 4);
        assert_eq!(inj.stats().reads(), 32);
    }

    #[test]
    fn io_fault_offsets_stay_in_bounds() {
        let inj = IoFaultPlan::seeded(9).injector();
        for bound in [1u64, 2, 7, 1024] {
            for _ in 0..16 {
                let _ = inj.fault_for_write();
                assert!(inj.fault_offset(bound) < bound);
            }
        }
        assert_eq!(inj.fault_offset(0), 0);
    }

    #[test]
    fn forks_share_the_fault_schedule() {
        let (factory, stats) = FaultPlan::seeded(1)
            .schedule(1, FaultKind::Error)
            .wrap(count_factory());
        let mut a = factory();
        a.init("x", 0).unwrap();
        a.apply_action(0).unwrap(); // apply 0
        let mut b = a.fork();
        assert!(
            b.apply_action(0).is_err(),
            "fork draws from the same schedule (apply 1)"
        );
        assert_eq!(stats.applies(), 2);
    }
}
