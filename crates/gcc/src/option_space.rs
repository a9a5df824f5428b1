//! The GCC command-line option space, extracted per compiler version.
//!
//! As in the paper, the space is derived from the version's own "help"
//! metadata: newer GCCs document more flags and parameters, so the space
//! grows with the version (GCC 5 ≈ 10^430 configurations, GCC 11.2 ≈
//! 10^4461). An [`OptionSpace`] is an ordered list of [`OptionDef`]s; a
//! configuration is one choice index per option; and a second, *flat*
//! action encoding exposes the space to RL agents as a single categorical
//! list (2,281 actions on GCC 11.2).

use serde::{Deserialize, Serialize};

/// A GCC version whose option space we model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GccSpec {
    /// Human-readable version, e.g. `"11.2.0"`.
    pub version: String,
    /// Number of `-f` style flags this version documents.
    pub num_flags: usize,
    /// Number of `--param`s this version documents.
    pub num_params: usize,
}

impl GccSpec {
    /// GCC 11.2.0 — the paper's reference version (502 options total).
    pub fn v11_2() -> GccSpec {
        GccSpec {
            version: "11.2.0".into(),
            num_flags: 241,
            num_params: 260,
        }
    }

    /// GCC 8.
    fn v8() -> GccSpec {
        GccSpec {
            version: "8.5.0".into(),
            num_flags: 210,
            num_params: 180,
        }
    }

    /// GCC 5 — reports its parameter space less completely, so the tool
    /// finds a smaller space (the paper's 10^430).
    pub fn v5() -> GccSpec {
        GccSpec {
            version: "5.5.0".into(),
            num_flags: 170,
            num_params: 60,
        }
    }

    /// Parses a docker-image-style or path-style specifier, as the paper's
    /// environment accepts (`"docker:gcc:11.2.0"` or `"/usr/bin/gcc-5"`).
    pub fn from_specifier(spec: &str) -> Option<GccSpec> {
        let s = spec.rsplit(&[':', '-', '/'][..]).next()?;
        if s.starts_with("11") {
            Some(GccSpec::v11_2())
        } else if s.starts_with('8') {
            Some(GccSpec::v8())
        } else if s.starts_with('5') {
            Some(GccSpec::v5())
        } else {
            None
        }
    }
}

/// What an option controls inside the simulated compiler.
///
/// Roughly half of the documented flags of a real GCC have no effect on any
/// given translation unit; we reproduce that by mapping the generated tail
/// of each category to [`OptionKind::Inert`] options that change the command
/// line (and thus the configuration) without changing codegen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptionKind {
    /// The `-O<n>` level: 0,1,2,3,s,fast.
    OptLevel,
    /// Tri-state `-f` flag wired to a mid-end pass (off / default / on).
    PassFlag(PassEffect),
    /// Tri-state `-f` flag wired to a backend knob.
    BackendFlag(BackendEffect),
    /// `--param name=<int>` wired to a numeric knob.
    Param(ParamEffect),
    /// Documented but inert for this backend.
    Inert,
}

/// Mid-end (GIMPLE-analogue) effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PassEffect {
    /// `-ftree-ter`-ish: promote memory to registers.
    Mem2Reg,
    /// `-ftree-sra`: scalar replacement of aggregates.
    Sroa,
    /// `-ftree-dce`: dead code elimination.
    Dce,
    /// `-ftree-fre`/`-ftree-pre`: redundancy elimination.
    Gvn,
    /// `-ftree-ccp`: conditional constant propagation.
    Sccp,
    /// `-ftree-dse`: dead store elimination.
    Dse,
    /// `-finline-functions`.
    Inline,
    /// `-funroll-loops`.
    Unroll,
    /// `-fpeel-loops`.
    Peel,
    /// `-ftree-loop-im`: loop-invariant motion.
    Licm,
    /// `-fcrossjumping`/`-fthread-jumps`-ish CFG cleanup.
    SimplifyCfg,
    /// `-fipa-cp`: interprocedural constant propagation.
    IpSccp,
    /// `-fipa-icf`: identical code folding.
    MergeFunc,
    /// `-fdce` at RTL level.
    RtlDce,
    /// `-fguess-branch-probability`-ish reassociation.
    Reassociate,
}

/// Backend (RTL-analogue) effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendEffect {
    /// `-fpeephole2`: RTL peephole cleanup.
    Peephole,
    /// `-fschedule-insns`: scheduling (inserts pipeline nops when off).
    Schedule,
    /// `-fomit-frame-pointer`: shrinks prologues.
    OmitFramePointer,
    /// `-fira-*`-ish: better register allocation (fewer spills).
    GoodRegAlloc,
    /// `-falign-functions` (tri-state; magnitude from params).
    AlignFunctions,
    /// `-falign-loops`.
    AlignLoops,
    /// `-fsection-anchors`-ish data layout (object size only).
    SectionAnchors,
}

/// Numeric `--param` effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamEffect {
    /// `--param inline-unit-growth` etc.: inline threshold (instructions).
    InlineLimit,
    /// `--param max-unroll-times`: unroll factor.
    UnrollFactor,
    /// `--param max-peel-times`: peel count.
    PeelCount,
    /// `--param align-functions=N`: function alignment (bytes, pow2).
    FunctionAlignment,
    /// `--param align-loops=N`: loop alignment.
    LoopAlignment,
    /// Register pressure target: available registers.
    RegisterCount,
    /// Scheduling aggressiveness: nops removed/inserted.
    SchedWindow,
    /// Inert numeric parameter.
    Nothing,
}

/// One command-line option: a name and a set of choices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptionDef {
    /// Command-line name (`-O`, `-fpeel-loops`, `--param max-unroll-times`).
    pub name: String,
    /// Number of choices (choice 0 is always "not specified").
    pub cardinality: usize,
    /// What the option does.
    pub kind: OptionKind,
}

/// The full option space of one GCC version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptionSpace {
    /// The version this space was extracted from.
    pub spec: GccSpec,
    options: Vec<OptionDef>,
}

/// Names for the `-f` flags wired to real effects, paired with their effect.
fn effective_flags() -> Vec<(&'static str, OptionKind)> {
    use BackendEffect as B;
    use OptionKind::{BackendFlag, PassFlag};
    use PassEffect as P;
    vec![
        ("-ftree-ter", PassFlag(P::Mem2Reg)),
        ("-ftree-sra", PassFlag(P::Sroa)),
        ("-ftree-dce", PassFlag(P::Dce)),
        ("-ftree-fre", PassFlag(P::Gvn)),
        ("-ftree-ccp", PassFlag(P::Sccp)),
        ("-ftree-dse", PassFlag(P::Dse)),
        ("-finline-functions", PassFlag(P::Inline)),
        ("-funroll-loops", PassFlag(P::Unroll)),
        ("-fpeel-loops", PassFlag(P::Peel)),
        ("-ftree-loop-im", PassFlag(P::Licm)),
        ("-fthread-jumps", PassFlag(P::SimplifyCfg)),
        ("-fipa-cp", PassFlag(P::IpSccp)),
        ("-fipa-icf", PassFlag(P::MergeFunc)),
        ("-fdce", PassFlag(P::RtlDce)),
        ("-fassociative-math", PassFlag(P::Reassociate)),
        ("-fpeephole2", BackendFlag(B::Peephole)),
        ("-fschedule-insns", BackendFlag(B::Schedule)),
        ("-fomit-frame-pointer", BackendFlag(B::OmitFramePointer)),
        ("-fira-hoist-pressure", BackendFlag(B::GoodRegAlloc)),
        ("-falign-functions", BackendFlag(B::AlignFunctions)),
        ("-falign-loops", BackendFlag(B::AlignLoops)),
        ("-fsection-anchors", BackendFlag(B::SectionAnchors)),
    ]
}

/// Names for the `--param`s wired to real effects.
fn effective_params() -> Vec<(&'static str, ParamEffect, usize)> {
    use ParamEffect as E;
    vec![
        ("--param inline-unit-growth", E::InlineLimit, 64),
        ("--param max-inline-insns-auto", E::InlineLimit, 64),
        ("--param max-unroll-times", E::UnrollFactor, 16),
        ("--param max-peel-times", E::PeelCount, 16),
        ("--param align-functions", E::FunctionAlignment, 8),
        ("--param align-loops", E::LoopAlignment, 8),
        ("--param ira-max-loops-num", E::RegisterCount, 24),
        ("--param sched-pressure-algorithm", E::SchedWindow, 8),
    ]
}

/// Plausible inert flag stems used to fill the documented flag count.
const INERT_STEMS: &[&str] = &[
    "aggressive-loop-optimizations",
    "branch-count-reg",
    "caller-saves",
    "code-hoisting",
    "combine-stack-adjustments",
    "compare-elim",
    "cprop-registers",
    "cse-follow-jumps",
    "defer-pop",
    "delayed-branch",
    "devirtualize",
    "dse",
    "expensive-optimizations",
    "float-store",
    "forward-propagate",
    "gcse",
    "gcse-after-reload",
    "gcse-las",
    "gcse-lm",
    "gcse-sm",
    "graphite",
    "hoist-adjacent-loads",
    "if-conversion",
    "if-conversion2",
    "indirect-inlining",
    "inline-atomics",
    "inline-small-functions",
    "ipa-bit-cp",
    "ipa-modref",
    "ipa-profile",
    "ipa-pta",
    "ipa-pure-const",
    "ipa-ra",
    "ipa-reference",
    "ipa-sra",
    "ipa-vrp",
    "isolate-erroneous-paths-dereference",
    "ivopts",
    "jump-tables",
    "keep-gc-roots-live",
    "lifetime-dse",
    "limit-function-alignment",
    "live-range-shrinkage",
    "loop-interchange",
    "loop-nest-optimize",
    "loop-parallelize-all",
    "lra-remat",
    "math-errno",
    "modulo-sched",
    "move-loop-invariants",
    "non-call-exceptions",
    "nothrow-opt",
    "opt-info",
    "optimize-sibling-calls",
    "pack-struct",
    "partial-inlining",
    "plt",
    "predictive-commoning",
    "prefetch-loop-arrays",
    "printf-return-value",
    "profile-partial-training",
    "profile-reorder-functions",
    "reg-struct-return",
    "rename-registers",
    "reorder-blocks",
    "reorder-functions",
    "rerun-cse-after-loop",
    "rounding-math",
    "rtti",
    "sched-critical-path-heuristic",
    "sched-dep-count-heuristic",
    "sched-group-heuristic",
    "sched-interblock",
    "sched-last-insn-heuristic",
    "sched-rank-heuristic",
    "sched-spec",
    "sched-spec-insn-heuristic",
    "sched-stalled-insns",
    "sel-sched-pipelining",
    "sel-sched-reschedule-pipelined",
    "shrink-wrap",
    "shrink-wrap-separate",
    "signaling-nans",
    "signed-zeros",
    "single-precision-constant",
    "split-ivs-in-unroller",
    "split-loops",
    "split-paths",
    "split-wide-types",
    "ssa-backprop",
    "ssa-phiopt",
    "stack-clash-protection",
    "stack-protector",
    "stdarg-opt",
    "store-merging",
    "strict-aliasing",
    "strict-volatile-bitfields",
    "tracer",
    "trapping-math",
    "trapv",
    "tree-bit-ccp",
    "tree-builtin-call-dce",
    "tree-ch",
    "tree-coalesce-vars",
    "tree-copy-prop",
    "tree-cselim",
    "tree-dominator-opts",
    "tree-forwprop",
    "tree-loop-distribute-patterns",
    "tree-loop-distribution",
    "tree-loop-ivcanon",
    "tree-loop-optimize",
    "tree-loop-vectorize",
    "tree-lrs",
    "tree-partial-pre",
    "tree-phiprop",
    "tree-pta",
    "tree-reassoc",
    "tree-scev-cprop",
    "tree-sink",
    "tree-slp-vectorize",
    "tree-slsr",
    "tree-switch-conversion",
    "tree-tail-merge",
    "tree-vectorize",
    "tree-vrp",
    "unconstrained-commons",
    "unit-at-a-time",
    "unroll-all-loops",
    "unsafe-math-optimizations",
    "unswitch-loops",
    "unwind-tables",
    "variable-expansion-in-unroller",
    "vect-cost-model",
    "vpt",
    "web",
    "wrapv",
    "zero-initialized-in-bss",
];

impl OptionSpace {
    /// Extracts the option space of a GCC version (the analogue of parsing
    /// its `--help=optimizers,params` output).
    pub fn for_version(spec: &GccSpec) -> OptionSpace {
        let mut options = Vec::new();
        // The -O level: 0..=5 → {-O0,-O1,-O2,-O3,-Os,-Ofast}, plus
        // "unspecified".
        options.push(OptionDef {
            name: "-O".into(),
            cardinality: 7,
            kind: OptionKind::OptLevel,
        });
        // Effective flags first, then inert fill to the documented count.
        let eff = effective_flags();
        for (name, kind) in &eff {
            options.push(OptionDef {
                name: (*name).into(),
                cardinality: 3,
                kind: *kind,
            });
        }
        let mut i = 0usize;
        while options.len() - 1 < spec.num_flags {
            let stem = INERT_STEMS[i % INERT_STEMS.len()];
            let name = if i < INERT_STEMS.len() {
                format!("-f{stem}")
            } else {
                format!("-f{stem}{}", i / INERT_STEMS.len())
            };
            options.push(OptionDef {
                name,
                cardinality: 3,
                kind: OptionKind::Inert,
            });
            i += 1;
        }
        // Effective params, then inert numeric params.
        let effp = effective_params();
        let mut n_params = 0usize;
        for (name, effect, card) in &effp {
            if n_params >= spec.num_params {
                break;
            }
            options.push(OptionDef {
                name: (*name).into(),
                cardinality: *card,
                kind: OptionKind::Param(*effect),
            });
            n_params += 1;
        }
        let mut j = 0usize;
        while n_params < spec.num_params {
            let stem = INERT_STEMS[(j * 7 + 3) % INERT_STEMS.len()];
            let name = format!("--param {stem}-limit{}", j);
            // Varied cardinalities, like real params.
            let cardinality = 2 + (j * 13 + 5) % 99;
            options.push(OptionDef {
                name,
                cardinality,
                kind: OptionKind::Param(ParamEffect::Nothing),
            });
            n_params += 1;
            j += 1;
        }
        OptionSpace {
            spec: spec.clone(),
            options,
        }
    }

    /// The ordered option definitions.
    pub fn options(&self) -> &[OptionDef] {
        &self.options
    }

    /// Number of options (502 for GCC 11.2).
    pub fn num_options(&self) -> usize {
        self.options.len()
    }

    /// The all-default configuration (every option unspecified).
    pub fn default_choices(&self) -> Vec<usize> {
        vec![0; self.options.len()]
    }

    /// A configuration with only `-O<level>` set (level 0..=3, 4 = `-Os`,
    /// 5 = `-Ofast`).
    pub fn choices_for_level(&self, level: usize) -> Vec<usize> {
        let mut c = self.default_choices();
        c[0] = 1 + level.min(5);
        c
    }

    /// Renders a configuration as a command line.
    pub fn command_line(&self, choices: &[usize]) -> String {
        let mut parts = vec!["gcc".to_string()];
        for (o, &c) in self.options.iter().zip(choices) {
            if c == 0 {
                continue;
            }
            match o.kind {
                OptionKind::OptLevel => {
                    let lvl = ["-O0", "-O1", "-O2", "-O3", "-Os", "-Ofast"][(c - 1).min(5)];
                    parts.push(lvl.to_string());
                }
                OptionKind::Param(_) => parts.push(format!("{}={}", o.name, c)),
                _ => {
                    if c == 1 {
                        parts.push(o.name.clone());
                    } else {
                        parts.push(o.name.replacen("-f", "-fno-", 1));
                    }
                }
            }
        }
        parts.join(" ")
    }

    /// Clamps a raw choice vector into range (used by search algorithms
    /// which mutate choices blindly).
    pub fn clamp(&self, choices: &mut [usize]) {
        for (o, c) in self.options.iter().zip(choices.iter_mut()) {
            *c = (*c).min(o.cardinality - 1);
        }
    }

    /// Builds the flat categorical action list: direct-set actions for
    /// options with fewer than ten choices, and ±1/±10/±100/±1000 deltas
    /// for the rest (2,281 actions for GCC 11.2, as in the paper).
    pub fn flat_actions(&self) -> Vec<FlatAction> {
        let mut v = Vec::new();
        for (i, o) in self.options.iter().enumerate() {
            if o.cardinality < 10 {
                for c in 0..o.cardinality {
                    v.push(FlatAction::Set {
                        option: i,
                        choice: c,
                    });
                }
            } else {
                for delta in [1i64, 10, 100, 1000] {
                    v.push(FlatAction::Add { option: i, delta });
                    v.push(FlatAction::Add {
                        option: i,
                        delta: -delta,
                    });
                }
            }
        }
        v
    }

    /// Applies one flat action to a choice vector.
    pub fn apply_flat(&self, choices: &mut [usize], action: &FlatAction) {
        match action {
            FlatAction::Set { option, choice } => {
                choices[*option] = (*choice).min(self.options[*option].cardinality - 1);
            }
            FlatAction::Add { option, delta } => {
                let card = self.options[*option].cardinality as i64;
                let cur = choices[*option] as i64;
                choices[*option] = (cur + delta).clamp(0, card - 1) as usize;
            }
        }
    }
}

/// An action in the flat categorical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlatAction {
    /// Set option `option` to `choice` directly (small-cardinality options).
    Set {
        /// Option index.
        option: usize,
        /// Choice value.
        choice: usize,
    },
    /// Add `delta` to option `option`'s choice, clamped to range.
    Add {
        /// Option index.
        option: usize,
        /// Signed increment.
        delta: i64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// log10 of the number of distinct configurations.
    fn log10_size(space: &OptionSpace) -> f64 {
        space
            .options()
            .iter()
            .map(|o| (o.cardinality as f64).log10())
            .sum()
    }

    #[test]
    fn v11_has_502_options_and_huge_space() {
        let space = OptionSpace::for_version(&GccSpec::v11_2());
        assert_eq!(space.num_options(), 502);
        // Paper: "a modest size of approximately 10^4461". Ours lands in the
        // same order-of-magnitude band (hundreds–thousands of digits).
        let digits = log10_size(&space);
        assert!(digits > 400.0, "space too small: 10^{digits:.0}");
    }

    #[test]
    fn older_versions_expose_smaller_spaces() {
        let v11 = OptionSpace::for_version(&GccSpec::v11_2());
        let v5 = OptionSpace::for_version(&GccSpec::v5());
        assert!(v5.num_options() < v11.num_options());
        assert!(log10_size(&v5) < log10_size(&v11));
    }

    #[test]
    fn specifier_parsing() {
        assert_eq!(
            GccSpec::from_specifier("docker:gcc:11.2.0"),
            Some(GccSpec::v11_2())
        );
        assert_eq!(
            GccSpec::from_specifier("/usr/bin/gcc-5"),
            Some(GccSpec::v5())
        );
        assert_eq!(GccSpec::from_specifier("clang"), None);
    }

    #[test]
    fn command_line_rendering() {
        let space = OptionSpace::for_version(&GccSpec::v11_2());
        let mut c = space.choices_for_level(4);
        // Enable and negate a flag.
        c[1] = 1;
        c[2] = 2;
        let cmd = space.command_line(&c);
        assert!(cmd.starts_with("gcc -Os"));
        assert!(cmd.contains("-ftree-ter"));
        assert!(cmd.contains("-fno-tree-sra"));
    }

    #[test]
    fn flat_actions_cover_every_option() {
        let space = OptionSpace::for_version(&GccSpec::v11_2());
        let actions = space.flat_actions();
        // The paper reports 2,281 actions for GCC 11.2. Our space: the -O
        // option (7) + 241 tri-state flags (3 each) + small params direct +
        // large params as 8 delta actions.
        assert!(
            actions.len() > 1500 && actions.len() < 3500,
            "{}",
            actions.len()
        );
        let mut choices = space.default_choices();
        for a in actions.iter().take(200) {
            space.apply_flat(&mut choices, a);
        }
        // All still in range.
        let copy = choices.clone();
        space.clamp(&mut choices);
        assert_eq!(copy, choices);
    }

    #[test]
    fn add_actions_clamp_at_bounds() {
        let space = OptionSpace::for_version(&GccSpec::v11_2());
        let big = space
            .options()
            .iter()
            .position(|o| o.cardinality >= 10)
            .unwrap();
        let mut choices = space.default_choices();
        space.apply_flat(
            &mut choices,
            &FlatAction::Add {
                option: big,
                delta: -10,
            },
        );
        assert_eq!(choices[big], 0);
        space.apply_flat(
            &mut choices,
            &FlatAction::Add {
                option: big,
                delta: 1000,
            },
        );
        assert_eq!(choices[big], space.options()[big].cardinality - 1);
    }
}
