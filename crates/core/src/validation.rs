//! Semantics validation by differential testing (§III-B4).
//!
//! For runnable benchmarks, the optimized program is executed against the
//! unoptimized reference; diverging results mean the optimization pipeline
//! miscompiled the program. This is the analogue of the paper's differential
//! testing regime plus sanitizer integration (traps during execution are
//! reported as logic errors, like UBSan findings).
//!
//! The comparison itself is the shared `cg-difftest` oracle — the same
//! engine behind `cg fuzz` — so episode validation and the fuzzer agree on
//! what "behaviour preserved" means: matching return values *and* final
//! global memory, across a multi-input corpus that perturbs mutable global
//! initializers, with fuel-exhaustion handled as its own failure mode
//! rather than a trap.

use cg_difftest::oracle::{compare_modules, OracleConfig, OracleFailure};
use cg_ir::interp::{run_main, ExecLimits};
use cg_ir::Module;

use crate::error::CgError;

/// The result of a semantics-validation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SemanticsVerdict {
    /// Results match on every corpus input: the optimization preserved
    /// behaviour. Carries the number of compared executions.
    Ok {
        /// (reference, optimized) run pairs compared.
        runs: u32,
    },
    /// The benchmark is not runnable, so semantics cannot be checked
    /// (matches the paper: only runnable datasets support this validation).
    NotRunnable(String),
}

/// Differentially tests `optimized` against `reference` with the shared
/// difftest oracle.
///
/// # Errors
/// [`CgError::Validation`] describing the divergence. A sanitizer-style
/// finding — the optimized program trapped or failed to finish where the
/// reference ran cleanly — is reported as a logic error.
pub fn validate_semantics(
    reference: &Module,
    optimized: &Module,
) -> Result<SemanticsVerdict, CgError> {
    // Benchmarks without a runnable entry point (no nullary `main`, or a
    // reference that itself traps on the base input) cannot be judged.
    if let Err(e) = run_main(reference, &ExecLimits::default()) {
        return Ok(SemanticsVerdict::NotRunnable(e.to_string()));
    }
    let failure = match compare_modules(reference, optimized, &OracleConfig::default()) {
        Ok(runs) => return Ok(SemanticsVerdict::Ok { runs }),
        Err(failure) => failure,
    };
    let prefix = match failure {
        OracleFailure::TrapIntroduced { .. } | OracleFailure::FuelDiverged { .. } => {
            "sanitizer-detected logic error"
        }
        _ => "differential test failed",
    };
    Err(CgError::Validation(format!("{prefix}: {failure}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_llvm::pipeline;

    #[test]
    fn oz_validates_on_cbench() {
        let reference = cg_datasets::benchmark("cbench-v1/gsm").unwrap();
        let mut optimized = reference.clone();
        pipeline::run_oz(&mut optimized);
        let verdict = validate_semantics(&reference, &optimized).unwrap();
        assert!(
            matches!(verdict, SemanticsVerdict::Ok { runs } if runs >= 1),
            "{verdict:?}"
        );
    }

    #[test]
    fn detects_a_miscompile() {
        let reference = cg_datasets::benchmark("cbench-v1/crc32").unwrap();
        let mut broken = reference.clone();
        // Simulate a miscompilation: flip a constant in some instruction.
        let fid = broken.func_ids()[0];
        'outer: for bid in broken.func(fid).block_ids_vec() {
            let f = broken.func_mut(fid);
            for inst in &mut f.block_mut(bid).insts {
                let mut changed = false;
                inst.op.for_each_operand_mut(|o| {
                    if !changed {
                        if let Some(c) = o.as_const_int() {
                            *o = cg_ir::Operand::const_int(c.wrapping_add(41));
                            changed = true;
                        }
                    }
                });
                if changed {
                    break 'outer;
                }
            }
        }
        let r = validate_semantics(&reference, &broken);
        assert!(matches!(r, Err(CgError::Validation(_))), "got {r:?}");
    }

    #[test]
    fn typed_verdict_distinguishes_traps() {
        use cg_ir::builder::ModuleBuilder;
        use cg_ir::{BinOp, Operand, Type};
        // Reference returns 1; "optimized" divides by zero.
        let mut mb = ModuleBuilder::new("ref");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        fb.ret(Some(Operand::const_int(1)));
        fb.finish();
        let reference = mb.finish();
        let mut mb = ModuleBuilder::new("opt");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let v = fb.bin(BinOp::Div, Operand::const_int(1), Operand::const_int(0));
        fb.ret(Some(v));
        fb.finish();
        let optimized = mb.finish();
        let err = validate_semantics(&reference, &optimized).unwrap_err();
        assert!(
            err.to_string().contains("sanitizer-detected logic error"),
            "{err:?}"
        );
    }

    #[test]
    fn non_runnable_is_reported_not_failed() {
        let reference = cg_ir::Module::new("no-main");
        let optimized = reference.clone();
        assert!(matches!(
            validate_semantics(&reference, &optimized).unwrap(),
            SemanticsVerdict::NotRunnable(_)
        ));
    }
}
