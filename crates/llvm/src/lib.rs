//! # cg-llvm: the simulated LLVM optimizer
//!
//! Reproduces the substrate behind CompilerGym's LLVM phase-ordering
//! environment: a library of real optimization passes over [`cg_ir`]
//! modules, the `-O3`/`-Oz` pipelines used as reward baselines, a
//! 124-entry discrete action space, and the five observation spaces of
//! Table III (LLVM-IR text, InstCount, Autophase, inst2vec, ProGraML).
//!
//! Passes are genuine program transformations — dead-code elimination
//! enables nothing until `mem2reg` has created dead loads, inlining feeds
//! `sccp`, `licm` needs `loop-simplify` preheaders — so phase ordering is a
//! real combinatorial optimization problem, as in the paper.
//!
//! # Example
//!
//! ```
//! let mut module = cg_datasets::benchmark("benchmark://cbench-v1/crc32")?;
//! let before = module.inst_count();
//! cg_llvm::pipeline::run_oz(&mut module);
//! assert!(module.inst_count() <= before);
//! # Ok::<(), cg_datasets::DatasetError>(())
//! ```

pub mod action_space;
pub mod observation;
pub mod pass;
pub mod pipeline;
pub mod reward;
pub mod util;

pub mod passes {
    //! The optimization pass library, grouped by theme.
    pub mod cfg;
    pub mod gvn;
    pub mod ipo;
    pub mod loops;
    pub mod memory;
    pub mod scalar;
    pub mod sccp;
}
