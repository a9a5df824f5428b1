//! # cg-looptool: the simulated `loop_tool` CUDA environment
//!
//! Reproduces the substrate behind CompilerGym's third environment (§V-C):
//! a minimalist dense-linear-algebra loop tree over point-wise operations,
//! the cursor-based discrete action space, and a GPU performance model that
//! stands in for benchmarking generated CUDA on a GP100.
//!
//! The performance model is calibrated to the paper's observations: the
//! point-wise `add` workload is bandwidth-bound (two 4-byte reads + one
//! write per element, ≈750 GB/s peak), throughput ramps with occupancy and
//! **drops near 100k threads** when the grid exceeds the resident-thread
//! capacity by a fraction of a wave (Figure 7), and measurements carry
//! benchmarking noise (the reward is "platform dependent and
//! non-deterministic").
//!
//! # Example
//!
//! ```
//! use cg_looptool::{Action, LoopNest};
//!
//! let mut nest = LoopNest::pointwise_add(1 << 20);
//! nest.apply(Action::ToggleThread);      // thread the outer loop
//! let gflops = nest.benchmark(0) / 1e9;  // seeded measurement
//! assert!(gflops > 0.0);
//! ```

use serde::{Deserialize, Serialize};

/// One loop of the nest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopDim {
    /// Iteration count of this loop. The outermost loop's size is derived
    /// (`ceil(n / product(inner))`) so the nest always covers the problem;
    /// the remainder becomes tail logic, handled automatically as in
    /// `loop_tool`.
    pub size: u64,
    /// Whether iterations of this loop run across CUDA threads.
    pub threaded: bool,
}

/// Cursor modes of the action space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// `up`/`down` move the cursor between loops.
    Move,
    /// `up`/`down` change the size of the loop under the cursor.
    Modify,
}

/// The discrete actions (§V-C). `Split` belongs to the extended action
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Swap between [`Mode::Move`] and [`Mode::Modify`].
    ToggleMode,
    /// Move the cursor outward, or grow the current loop by one.
    Up,
    /// Move the cursor inward, or shrink the current loop by one.
    Down,
    /// Toggle CUDA threading of the loop under the cursor.
    ToggleThread,
    /// Split the loop under the cursor, creating a size-1 inner loop
    /// (extended action space only).
    Split,
}

impl Action {
    /// The basic action space (no `Split`).
    pub fn basic() -> &'static [Action] {
        &[
            Action::ToggleMode,
            Action::Up,
            Action::Down,
            Action::ToggleThread,
        ]
    }

    /// The extended action space (with `Split`).
    pub fn extended() -> &'static [Action] {
        &[
            Action::ToggleMode,
            Action::Up,
            Action::Down,
            Action::ToggleThread,
            Action::Split,
        ]
    }
}

/// A point-wise loop nest under optimization: the program
/// `%2[i] = add(%0[i], %1[i])` for `i` in `0..n`, with a configurable loop
/// hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNest {
    /// Problem size (elements).
    pub n: u64,
    /// The loop hierarchy, outermost first. `loops[0].size` is derived.
    pub loops: Vec<LoopDim>,
    /// Cursor position (index into `loops`).
    pub cursor: usize,
    /// Current cursor mode.
    pub mode: Mode,
    gpu: GpuModel,
}

impl LoopNest {
    /// The paper's demonstration workload: point-wise addition over `n`
    /// elements, a single outer loop, nothing threaded.
    pub fn pointwise_add(n: u64) -> LoopNest {
        LoopNest {
            n,
            loops: vec![LoopDim {
                size: n,
                threaded: false,
            }],
            cursor: 0,
            mode: Mode::Move,
            gpu: GpuModel::gp100(),
        }
    }

    /// Recomputes the derived outer size from the inner sizes.
    pub fn normalize(&mut self) {
        let inner: u64 = self.loops.iter().skip(1).map(|l| l.size.max(1)).product();
        self.loops[0].size = self.n.div_ceil(inner.max(1));
    }

    /// Applies one action to the state.
    pub fn apply(&mut self, action: Action) {
        match (action, self.mode) {
            (Action::ToggleMode, _) => {
                self.mode = match self.mode {
                    Mode::Move => Mode::Modify,
                    Mode::Modify => Mode::Move,
                };
            }
            (Action::Up, Mode::Move) => {
                self.cursor = self.cursor.saturating_sub(1);
            }
            (Action::Down, Mode::Move) => {
                self.cursor = (self.cursor + 1).min(self.loops.len() - 1);
            }
            (Action::Up, Mode::Modify) => {
                if self.cursor > 0 {
                    self.loops[self.cursor].size += 1;
                    self.normalize();
                }
            }
            (Action::Down, Mode::Modify) => {
                if self.cursor > 0 && self.loops[self.cursor].size > 1 {
                    self.loops[self.cursor].size -= 1;
                    self.normalize();
                }
            }
            (Action::ToggleThread, _) => {
                let t = self.loops[self.cursor].threaded;
                self.loops[self.cursor].threaded = !t;
            }
            (Action::Split, _) => {
                self.loops.insert(
                    self.cursor + 1,
                    LoopDim {
                        size: 1,
                        threaded: false,
                    },
                );
                self.normalize();
            }
        }
    }

    /// Total CUDA threads launched: the product of threaded loop sizes
    /// ("may span multiple warps or even multiple streaming
    /// multiprocessors").
    pub fn threads(&self) -> u64 {
        let t: u64 = self
            .loops
            .iter()
            .filter(|l| l.threaded)
            .map(|l| l.size.max(1))
            .product();
        t.max(1)
    }

    /// The textual loop-tree observation (Listing 4's format).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, l) in self.loops.iter().enumerate() {
            let indent = " ".repeat(i);
            let annot = if l.threaded { " [thread]" } else { "" };
            let _ = writeln!(
                s,
                "{indent}for a{} in {} : L{}{annot}",
                "'".repeat(i),
                l.size,
                i
            );
        }
        let indent = " ".repeat(self.loops.len());
        let _ = writeln!(s, "{indent}%0[a] <- read()");
        let _ = writeln!(s, "{indent}%1[a] <- read()");
        let _ = writeln!(s, "{indent}%2[a] <- add(%0, %1)");
        let _ = writeln!(s, "{indent}%3[a] <- write(%2)");
        s
    }

    /// The "action state" observation: `(cursor, mode, #loops)`.
    pub fn action_state(&self) -> (usize, Mode, usize) {
        (self.cursor, self.mode, self.loops.len())
    }

    /// Benchmarks the configuration on the simulated GPU, returning achieved
    /// FLOPs. `seed` varies the measurement noise — repeated measurements
    /// with different seeds differ, as on real hardware.
    pub fn benchmark(&self, seed: u64) -> f64 {
        self.gpu.flops(self, seed)
    }

    /// The deterministic FLOPs estimate (no measurement noise).
    pub fn flops_deterministic(&self) -> f64 {
        self.gpu.flops_raw(self)
    }

    /// The GPU model in use.
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }
}

/// An analytic GPU throughput model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Streaming multiprocessors.
    pub sm_count: u64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u64,
    /// Peak DRAM bandwidth (bytes/second).
    pub bandwidth: f64,
    /// Peak FP32 throughput (FLOPs/second).
    pub peak_flops: f64,
    /// Kernel launch overhead (seconds).
    pub launch_overhead: f64,
    /// Per-loop-iteration control overhead (seconds) for unthreaded loops.
    pub loop_overhead: f64,
}

impl GpuModel {
    /// Parameters loosely matching a Tesla GP100: 56 SMs × 2048 resident
    /// threads, ~750 GB/s HBM2, ~10 TFLOPs FP32.
    pub fn gp100() -> GpuModel {
        GpuModel {
            sm_count: 56,
            max_threads_per_sm: 2048,
            bandwidth: 750e9,
            peak_flops: 10e12,
            launch_overhead: 4e-6,
            loop_overhead: 1.2e-9,
        }
    }

    /// Resident-thread capacity (the ~114k threshold behind Figure 7's dip).
    pub fn resident_capacity(&self) -> u64 {
        self.sm_count * self.max_threads_per_sm
    }

    /// Deterministic FLOPs for a nest configuration.
    fn flops_raw(&self, nest: &LoopNest) -> f64 {
        let n = nest.n as f64;
        let threads = nest.threads();
        let t = threads as f64;
        let capacity = self.resident_capacity() as f64;

        // Occupancy ramp: throughput scales with how much of the machine the
        // grid covers, saturating at full residency. Few threads = most SMs
        // idle.
        let occupancy = (t / capacity).min(1.0);
        // Sub-warp inefficiency: fewer than 32 threads per SM wastes lanes.
        let warp_eff = (t / (self.sm_count as f64 * 32.0)).min(1.0);
        let eff_bandwidth = self.bandwidth * occupancy.sqrt().min(1.0) * warp_eff.max(0.02);

        // Wave quantization: a grid slightly over the resident capacity runs
        // a partial second wave — the throughput dip "near 100k threads" in
        // Figure 7.
        let waves = (t / capacity).ceil().max(1.0);
        let wave_eff = (t / capacity) / waves;
        let quantization = if t > capacity { wave_eff.max(0.5) } else { 1.0 };

        // Memory time: 12 bytes per element (two 4-byte reads, one write).
        let bytes = 12.0 * n;
        let mem_time = bytes / (eff_bandwidth * quantization);
        // Compute time: 1 FLOP per element.
        let compute_time = n / self.peak_flops;
        // Serial loop overhead: unthreaded iterations execute sequentially
        // per thread.
        let serial_iters = n / t.max(1.0);
        let serial_time = serial_iters * self.loop_overhead / 16.0;

        let time = self.launch_overhead + mem_time.max(compute_time) + serial_time;
        n / time
    }

    /// A noisy measurement (±3%, deterministic in `seed`).
    pub fn flops(&self, nest: &LoopNest, seed: u64) -> f64 {
        let raw = self.flops_raw(nest);
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        raw * (0.97 + 0.06 * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_state_machine() {
        let mut nest = LoopNest::pointwise_add(1 << 20);
        nest.apply(Action::Split);
        nest.apply(Action::Split);
        assert_eq!(nest.loops.len(), 3);
        assert_eq!(nest.cursor, 0);
        nest.apply(Action::Down);
        assert_eq!(nest.cursor, 1);
        nest.apply(Action::ToggleMode);
        assert_eq!(nest.mode, Mode::Modify);
        nest.apply(Action::Up); // grow loop 1
        assert_eq!(nest.loops[1].size, 2);
        nest.apply(Action::ToggleMode);
        nest.apply(Action::Up); // cursor back to 0
        assert_eq!(nest.cursor, 0);
    }

    #[test]
    fn outer_size_accommodates_inner_growth() {
        let mut nest = LoopNest::pointwise_add(100);
        nest.apply(Action::Split);
        nest.apply(Action::Down);
        nest.apply(Action::ToggleMode);
        for _ in 0..6 {
            nest.apply(Action::Up);
        }
        assert_eq!(nest.loops[1].size, 7);
        // Tail logic: outer = ceil(100/7) = 15.
        assert_eq!(nest.loops[0].size, 15);
    }

    #[test]
    fn threading_multiplies_across_loops() {
        let mut nest = LoopNest::pointwise_add(1 << 20);
        nest.apply(Action::Split);
        nest.loops[1].size = 64;
        nest.normalize();
        nest.loops[0].threaded = true;
        nest.loops[1].threaded = true;
        assert_eq!(nest.threads(), nest.loops[0].size * 64);
    }

    #[test]
    fn more_threads_is_faster_up_to_capacity() {
        let base = LoopNest::pointwise_add(1 << 20);
        let serial = base.flops_deterministic();
        let mut threaded = base.clone();
        threaded.apply(Action::ToggleThread);
        let parallel = threaded.flops_deterministic();
        assert!(
            parallel > 100.0 * serial,
            "threading should help massively: {serial:.3e} vs {parallel:.3e}"
        );
    }

    #[test]
    fn throughput_dips_just_past_resident_capacity() {
        // The Figure 7 shape: FLOPs at slightly-over-capacity threads drop
        // below FLOPs at exactly capacity.
        let gpu = GpuModel::gp100();
        let cap = gpu.resident_capacity(); // 114,688 on GP100
        let flops_at = |threads: u64| {
            let mut nest = LoopNest::pointwise_add(1 << 24);
            nest.apply(Action::Split);
            nest.loops[1].size = threads;
            nest.normalize();
            nest.loops[1].threaded = true;
            nest.flops_deterministic()
        };
        let at_cap = flops_at(cap);
        let over = flops_at(cap + cap / 8);
        let way_over = flops_at(cap * 2);
        assert!(over < at_cap, "dip expected: {over:.3e} !< {at_cap:.3e}");
        assert!(way_over > over, "recovers at full second wave");
    }

    #[test]
    fn peak_is_plausible_fraction_of_hardware() {
        // The paper reports ~73.5% of theoretical peak (~6e10 elements/s
        // equivalent) for the tuned configuration.
        let gpu = GpuModel::gp100();
        let mut nest = LoopNest::pointwise_add(1 << 24);
        nest.apply(Action::ToggleThread); // thread everything
        let achieved = nest.flops_deterministic();
        let roofline = gpu.bandwidth / 12.0; // bandwidth-bound add
        let frac = achieved / roofline;
        assert!(frac > 0.5 && frac <= 1.0, "achieved {frac:.2} of roofline");
    }

    #[test]
    fn measurements_are_noisy_but_seeded() {
        let mut nest = LoopNest::pointwise_add(1 << 20);
        nest.apply(Action::ToggleThread);
        let a = nest.benchmark(1);
        let b = nest.benchmark(2);
        assert_ne!(a, b);
        assert_eq!(a, nest.benchmark(1));
        let raw = nest.flops_deterministic();
        assert!((a - raw).abs() / raw < 0.04);
    }

    #[test]
    fn dump_matches_listing_format() {
        let mut nest = LoopNest::pointwise_add(1048576);
        nest.apply(Action::ToggleThread);
        let d = nest.dump();
        assert!(d.contains("for a in 1048576 : L0 [thread]"));
        assert!(d.contains("%2[a] <- add(%0, %1)"));
    }

    #[test]
    fn shrink_below_one_is_clamped() {
        let mut nest = LoopNest::pointwise_add(64);
        nest.apply(Action::Split);
        nest.apply(Action::Down);
        nest.apply(Action::ToggleMode);
        nest.apply(Action::Down); // size already 1: no-op
        assert_eq!(nest.loops[1].size, 1);
    }
}
