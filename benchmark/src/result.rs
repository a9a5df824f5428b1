//! The result of one run: what `run` writes to `out/` and `compare` reads.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::host::Fingerprint;

/// One end-to-end metric of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// The reported value: the median round (see [`crate::stats::Rounds`]).
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// The best round, for reference.
    pub best: f64,
    /// Every round (or every set-up, for `setup_s`).
    pub rounds: Vec<f64>,
    /// Timed calls behind the value, per round.
    pub samples: u64,
    /// Anything a reader must know, e.g. `p90` when p99 had too few
    /// samples beyond it.
    pub note: String,
}

/// One per-layer metric of one traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// The value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// All spans of one name in a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTotal {
    /// Span name: the entry point the harness timed.
    pub name: String,
    /// Spans recorded.
    pub calls: u64,
    /// Their durations, summed, in microseconds.
    pub total_us: f64,
    /// Their self times (duration minus what child spans cover), summed.
    pub self_us: f64,
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// [`crate::catalog::SCHEMA`].
    pub schema: String,
    /// `false` for `--smoke` runs, which `compare` refuses.
    pub comparable: bool,
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced run (per-layer metrics) or the timed
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Host fingerprint and noise guard.
    pub host: Fingerprint,
    /// The CPU the client thread and everything it spawned were kept on
    /// (single-client workloads), or -1.
    pub pinned_cpu: i64,
    /// Timed rounds.
    pub rounds: u64,
    /// Set-up repetitions.
    pub setup_repeats: u64,
    /// FNV-1a digest of the generated input, in hex.
    pub input_digest: String,
    /// Operation counts of one round (`episodes`, `steps`, ...).
    pub counts: BTreeMap<String, u64>,
    /// Resets, steps, evaluations and verification checks attempted.
    pub attempted: u64,
    /// How many of them failed, were refused, timed out or mismatched.
    pub failed: u64,
    /// `failed / attempted`.
    pub failed_share: f64,
    /// Whether verification passed and nothing failed.
    pub correct: bool,
    /// What verification checked, and every mismatch it found.
    pub verify: Vec<String>,
    /// End-to-end metrics (timed run).
    pub end_to_end: BTreeMap<String, Measured>,
    /// Per-layer metrics (traced run).
    pub per_layer: BTreeMap<String, Layer>,
    /// The span tree of a traced run, totalled by span name in first-seen
    /// order; the spans themselves are in `trace-<workload>.jsonl`.
    pub spans: Vec<SpanTotal>,
}

impl RunResult {
    /// The file name a run is stored under.
    pub fn file_name(&self) -> String {
        format!(
            "{}-seed{}{}{}.json",
            self.workload,
            self.seed,
            if self.traced { "-trace" } else { "" },
            if self.comparable { "" } else { "-smoke" }
        )
    }

    /// Writes the result as pretty JSON.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let text =
            serde_json::to_string_pretty(self).map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(&path, format!("{text}\n"))?;
        Ok(path)
    }

    /// Reads a result file.
    ///
    /// # Errors
    /// A message naming the file for I/O, syntax or schema problems.
    pub fn load(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result: RunResult =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if result.schema != crate::catalog::SCHEMA {
            return Err(format!(
                "{}: schema `{}`, expected `{}`",
                path.display(),
                result.schema,
                crate::catalog::SCHEMA
            ));
        }
        Ok(result)
    }

    /// The last line of standard output the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        };
        if self.traced {
            for def in &crate::catalog::PER_LAYER {
                let value = self.per_layer.get(def.name).map_or(0.0, |l| l.value);
                push(def.name, value, def.unit);
            }
        } else {
            for def in &crate::catalog::END_TO_END {
                let value = self.end_to_end.get(def.name).map_or(0.0, |m| m.value);
                push(def.name, value, def.unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_string();
    }
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.203_456_789_012), "1.203456789012");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
