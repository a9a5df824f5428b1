//! Two-axis failure minimization.
//!
//! A raw divergence is a (program, pipeline) pair of several hundred IR
//! lines and up to a dozen passes. Debugging starts with shrinking both
//! axes:
//!
//! 1. **Pipeline**: classic delta debugging ([`ddmin`]) finds a minimal
//!    failing subsequence — typically the one buggy pass plus whichever
//!    earlier pass sets up the triggering IR shape.
//! 2. **Program**: [`cg_ir::reduce::reduce_module`] greedily drops
//!    functions, folds branches, and deletes instructions, keeping only
//!    changes after which the module still verifies *and* still fails under
//!    the minimal pipeline.
//!
//! The failure predicate re-runs the full case (apply passes with panic
//! containment, verify after each, then the oracle), so any failure mode —
//! divergence, verifier rejection, or pass panic — counts as "still
//! failing". A shrink never trades one failure for silence, though it may
//! trade one failure mode for another; the reproducer records whatever the
//! minimal case exhibits.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cg_ir::verify::verify_module;
use cg_ir::{AnalysisManager, Module};
use cg_llvm::pass::{find_pass, run_pass_with};

use crate::oracle::{compare_modules, OracleConfig, OracleFailure};

/// How a fuzz case failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// A pass panicked.
    PassPanic {
        /// Name of the panicking pass.
        pass: String,
    },
    /// The verifier rejected the module immediately after a pass ran.
    VerifierReject {
        /// Name of the offending pass.
        pass: String,
        /// Verifier diagnostic.
        error: String,
    },
    /// The oracle observed a behavioural divergence.
    Divergence(OracleFailure),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::PassPanic { pass } => write!(f, "pass `{pass}` panicked"),
            FailureKind::VerifierReject { pass, error } => {
                write!(f, "verifier rejected IR after `{pass}`: {error}")
            }
            FailureKind::Divergence(d) => write!(f, "divergence: {d}"),
        }
    }
}

/// Applies `pipeline` to a clone of `base` with per-pass verification and
/// panic containment, then runs the oracle. Returns the failure, if any.
/// The passes share one [`AnalysisManager`], as in an environment session,
/// so cached analyses and the no-op memo are under test too.
///
/// This is *the* failure predicate: the fuzzer, both shrinking axes and the
/// reproducer replayer all go through it, so "failing" means the same thing
/// everywhere.
pub fn run_case(base: &Module, pipeline: &[String], oracle: &OracleConfig) -> Option<FailureKind> {
    let mut opt = base.clone();
    let mut am = AnalysisManager::new();
    for name in pipeline {
        // Unknown names (None → "no failure") cannot occur for fuzzer-sampled
        // pipelines; for replayed reproducers the loader reports them first.
        let pass = find_pass(name)?;
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_pass_with(pass.as_ref(), &mut opt, &mut am)
        }));
        if result.is_err() {
            return Some(FailureKind::PassPanic { pass: name.clone() });
        }
        if let Err(e) = verify_module(&opt) {
            return Some(FailureKind::VerifierReject {
                pass: name.clone(),
                error: e.to_string(),
            });
        }
    }
    match compare_modules(base, &opt, oracle) {
        Ok(_) => None,
        Err(f) => Some(FailureKind::Divergence(f)),
    }
}

/// Delta-debugs `items` to a minimal subsequence for which `fails` returns
/// `Some`. Implements ddmin with increasing granularity over subsets and
/// complements; the result is 1-minimal (removing any single element makes
/// the failure disappear).
pub fn ddmin<T: Clone, F>(items: &[T], mut fails: F) -> Vec<T>
where
    F: FnMut(&[T]) -> bool,
{
    let mut current: Vec<T> = items.to_vec();
    if current.is_empty() {
        return current;
    }
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        // Try each subset.
        for start in (0..current.len()).step_by(chunk) {
            let subset: Vec<T> = current[start..(start + chunk).min(current.len())].to_vec();
            if subset.len() < current.len() && fails(&subset) {
                current = subset;
                n = 2;
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        // Try each complement.
        for start in (0..current.len()).step_by(chunk) {
            let mut complement = current.clone();
            complement.drain(start..(start + chunk).min(complement.len()));
            if !complement.is_empty() && complement.len() < current.len() && fails(&complement) {
                current = complement;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        if n >= current.len() {
            break;
        }
        n = (n * 2).min(current.len());
    }
    // Final 1-minimality polish for the n-granularity edge cases.
    let mut i = 0;
    while current.len() > 1 && i < current.len() {
        let mut without: Vec<T> = current.clone();
        without.remove(i);
        if fails(&without) {
            current = without;
        } else {
            i += 1;
        }
    }
    current
}

/// Result of shrinking one failing case.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Minimal failing pipeline.
    pub pipeline: Vec<String>,
    /// Reduced program (still verifies, still fails under `pipeline`).
    pub module: Module,
    /// The failure the minimal case exhibits.
    pub failure: FailureKind,
}

/// Shrinks a failing (program, pipeline) case on both axes.
///
/// `reduce_budget` bounds the number of program-reduction candidates tried
/// (each one re-runs the pipeline and oracle, so this is the knob trading
/// shrink quality for wall-clock).
pub fn shrink_case(
    base: &Module,
    pipeline: &[String],
    oracle: &OracleConfig,
    reduce_budget: u64,
) -> Option<Shrunk> {
    run_case(base, pipeline, oracle)?;
    // Axis 1: the pipeline, against the original program.
    let minimal = ddmin(pipeline, |subseq| run_case(base, subseq, oracle).is_some());
    // Axis 2: the program, against the minimal pipeline.
    let mut module = base.clone();
    cg_ir::reduce::reduce_module(
        &mut module,
        |cand| verify_module(cand).is_ok() && run_case(cand, &minimal, oracle).is_some(),
        reduce_budget,
    );
    let failure = run_case(&module, &minimal, oracle)?;
    Some(Shrunk {
        pipeline: minimal,
        module,
        failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_single_culprit() {
        let items: Vec<u32> = (0..16).collect();
        let min = ddmin(&items, |s| s.contains(&11));
        assert_eq!(min, vec![11]);
    }

    #[test]
    fn ddmin_finds_interacting_pair() {
        let items: Vec<u32> = (0..16).collect();
        let min = ddmin(&items, |s| s.contains(&3) && s.contains(&12));
        assert_eq!(min, vec![3, 12]);
    }

    #[test]
    fn ddmin_preserves_order() {
        let items = vec!["a", "b", "c", "d"];
        let min = ddmin(&items, |s| {
            let bi = s.iter().position(|x| *x == "b");
            let di = s.iter().position(|x| *x == "d");
            matches!((bi, di), (Some(b), Some(d)) if b < d)
        });
        assert_eq!(min, vec!["b", "d"]);
    }

    #[test]
    fn clean_case_does_not_shrink() {
        let m = cg_datasets::synth::generate(&cg_datasets::synth::Profile::balanced(), 1, "t");
        let pipeline = vec!["instcombine".to_string(), "dce".to_string()];
        assert!(shrink_case(&m, &pipeline, &OracleConfig::default(), 100).is_none());
    }
}
