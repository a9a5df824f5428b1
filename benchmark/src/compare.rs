//! `compare BASE NEW`: the rule every later change is judged by. One row
//! per workload and end-to-end metric, each side's median and quartiles,
//! the ratio with its base, the bound, and a verdict.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalog::{self, EndToEndDef};
use crate::result::RunResult;
use crate::stats::{iqr_share, median, quartiles, Better};

/// What a metric did between the base set and the new set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Unchanged,
    /// Worsened by more than the bound.
    Worse,
    /// The sets' own spread exceeds the bound and their runs interleave:
    /// the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `base` and `new` hold one reported value per run.
/// `bound` is relative to the base median; `absolute_bound`, in the
/// metric's unit, applies instead when it is the larger one.
///
/// # Panics
/// Panics when either side is empty.
pub fn verdict(
    base: &[f64],
    new: &[f64],
    better: Better,
    bound: f64,
    absolute_bound: f64,
) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    let allowed = (bound * mb.abs()).max(absolute_bound);
    // Positive = the new set is worse.
    let worsening = match better {
        Better::Lower => mn - mb,
        Better::Higher => mb - mn,
    };
    let spread = iqr_share(base)
        .unwrap_or(0.0)
        .max(iqr_share(new).unwrap_or(0.0));
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let interleaved = min(new) <= max(base) && min(base) <= max(new);
    let cannot_tell = interleaved && spread * mb.abs() > allowed;
    if cannot_tell {
        Verdict::Unresolved
    } else if worsening > allowed {
        Verdict::Worse
    } else if worsening < -allowed {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The timed runs of a result file or of every `*.json` in a directory,
/// grouped by workload.
///
/// # Errors
/// Unreadable paths, files that are not results, `--smoke` results.
pub fn load_set(path: &Path) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|e| e == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut set: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for file in &files {
        let result = RunResult::load(file)?;
        if !result.comparable {
            return Err(format!(
                "{}: a --smoke result; its counts are too small to compare",
                file.display()
            ));
        }
        if !result.traced {
            set.entry(result.workload.clone()).or_default().push(result);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no timed results", path.display()));
    }
    Ok(set)
}

fn values(runs: &[RunResult], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.end_to_end.get(metric).map(|m| m.value))
        .collect()
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, _, q3]) => format!("{:.4} [{:.4}..{:.4}]", median(v), q1, q3),
        None => format!("{:.4}", median(v)),
    }
}

fn row(workload: &str, def: &EndToEndDef, base: &[f64], new: &[f64]) -> (String, Verdict) {
    let v = verdict(base, new, def.better, def.bound, def.absolute_bound);
    let bound = if def.absolute_bound > 0.0 {
        format!(
            "{:.0}% or {} {}",
            100.0 * def.bound,
            def.absolute_bound,
            def.unit
        )
    } else {
        format!("{:.0}%", 100.0 * def.bound)
    };
    let line = format!(
        "{workload:<13} {:<17} {:>7} {:>34} {:>34}  x{:<7.4} {:<15} {}",
        def.name,
        def.unit,
        summary(base),
        summary(new),
        median(new) / median(base),
        bound,
        v.as_str()
    );
    (line, v)
}

/// Compares two sets and prints the table. Returns whether the new set
/// passes: no metric `worse`, no higher `failed_share`.
///
/// # Errors
/// See [`load_set`]; also sets measured with different `--seconds`.
pub fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let (a, b) = (load_set(base)?, load_set(new)?);
    println!(
        "base = {} ({} runs), new = {} ({} runs); ratio = new median / base median",
        base.display(),
        a.values().map(Vec::len).sum::<usize>(),
        new.display(),
        b.values().map(Vec::len).sum::<usize>()
    );
    println!(
        "{:<13} {:<17} {:>7} {:>34} {:>34}  {:<8} {:<15} verdict",
        "workload",
        "metric",
        "unit",
        "base median [q1..q3]",
        "new median [q1..q3]",
        "ratio",
        "bound"
    );
    let mut pass = true;
    let mut unresolved = 0;
    for def in &catalog::WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(def.name), b.get(def.name)) else {
            continue;
        };
        let seconds = |runs: &[RunResult]| runs.iter().map(|r| r.seconds).collect::<Vec<_>>();
        if seconds(ra)
            .iter()
            .chain(&seconds(rb))
            .any(|&s| s != ra[0].seconds)
        {
            return Err(format!(
                "{}: the runs were measured with different --seconds",
                def.name
            ));
        }
        let noisy = ra.iter().chain(rb).filter(|r| r.host.noisy_host).count();
        if noisy > 0 {
            println!(
                "note: {noisy} of {} {} runs started on a noisy host (1-minute load above nproc - 0.5)",
                ra.len() + rb.len(),
                def.name
            );
        }
        for metric in &catalog::END_TO_END {
            let (va, vb) = (values(ra, metric.name), values(rb, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (line, v) = row(def.name, metric, &va, &vb);
            println!("{line}");
            pass &= v != Verdict::Worse;
            unresolved += usize::from(v == Verdict::Unresolved);
        }
        let worst = |runs: &[RunResult]| runs.iter().map(|r| r.failed_share).fold(0.0, f64::max);
        let (fa, fb) = (worst(ra), worst(rb));
        let failed_verdict = if fb > fa { "WORSE" } else { "unchanged" };
        println!(
            "{:<13} {:<17} {:>7} {:>34.6} {:>34.6}  {:<8} {:<15} {failed_verdict}",
            def.name, "failed_share", "ratio", fa, fb, "-", "0 (absolute)"
        );
        pass &= fb <= fa;
    }
    println!(
        "{}: {unresolved} unresolved",
        if pass { "PASS" } else { "FAIL" }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const HIGHER: Better = Better::Higher;

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        assert_eq!(
            verdict(&[100.0], &[107.0], LOWER, 0.08, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[100.0], &[109.0], LOWER, 0.08, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0], &[91.0], LOWER, 0.08, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[100.0], &[91.0], HIGHER, 0.08, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0], &[109.0], HIGHER, 0.08, 0.0),
            Verdict::Better
        );
    }

    #[test]
    fn tight_sets_resolve() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let worse: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let better: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = base.iter().map(|x| x * 1.01).collect();
        assert_eq!(verdict(&base, &worse, LOWER, 0.08, 0.0), Verdict::Worse);
        assert_eq!(verdict(&base, &better, LOWER, 0.08, 0.0), Verdict::Better);
        assert_eq!(verdict(&base, &same, LOWER, 0.08, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn wide_interleaved_sets_are_unresolved_not_unchanged() {
        // Spread of about 40 % against an 8 % bound, ranges overlapping.
        let base = [
            80.0, 90.0, 100.0, 110.0, 120.0, 85.0, 95.0, 105.0, 115.0, 100.0,
        ];
        let new = [
            82.0, 92.0, 102.0, 112.0, 122.0, 87.0, 97.0, 107.0, 117.0, 102.0,
        ];
        assert_eq!(verdict(&base, &new, LOWER, 0.08, 0.0), Verdict::Unresolved);
        // Even a median shift beyond the bound cannot be called.
        let shifted: Vec<f64> = base.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            verdict(&base, &shifted, LOWER, 0.08, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_sets_that_do_not_interleave_resolve() {
        // Every new run beats every base run: a gain however wide the sets.
        let base = [80.0, 90.0, 100.0, 110.0, 120.0];
        let new = [40.0, 45.0, 50.0, 55.0, 60.0];
        assert_eq!(verdict(&base, &new, LOWER, 0.08, 0.0), Verdict::Better);
        assert_eq!(verdict(&new, &base, LOWER, 0.08, 0.0), Verdict::Worse);
    }

    #[test]
    fn absolute_bound_applies_when_larger() {
        // setup_s: 25 % or 0.25 s. 0.10 s -> 0.30 s is three times as long
        // and still inside 0.25 s.
        assert_eq!(
            verdict(&[0.10], &[0.30], LOWER, 0.25, 0.25),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[0.10], &[0.40], LOWER, 0.25, 0.25), Verdict::Worse);
        // 2.0 s -> 2.4 s: 25 % is 0.5 s, the larger bound.
        assert_eq!(
            verdict(&[2.0], &[2.4], LOWER, 0.25, 0.25),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[2.0], &[2.6], LOWER, 0.25, 0.25), Verdict::Worse);
    }
}
