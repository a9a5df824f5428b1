//! Metrics export: Prometheus text exposition, JSONL, and a minimal HTTP
//! scrape endpoint.
//!
//! Every family is declared once, beside its live field, in one of the
//! crate's `metrics!` groups. [`collect`] walks those declarations over a
//! [`TelemetrySnapshot`], and both renderers draw from the resulting
//! [`MetricFamily`] list, so the two formats can never disagree on what is
//! exported. Histograms are exported as Prometheus *summaries* (`quantile`
//! labels plus `_sum`/`_count`); the recorded min and max ride along as
//! `quantile="0"` / `quantile="1"`, which [`crate::Histogram`] tracks
//! exactly.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::{HistogramSnapshot, PassSnapshot, TelemetrySnapshot};

/// One exported sample: optional name suffix (`_sum`, `_count`), labels, and
/// a value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Appended to the family name (empty for the base series).
    pub suffix: &'static str,
    /// Label pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A named group of samples sharing a type and help string.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Metric name (`cg_` prefix throughout).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Prometheus type: `counter`, `gauge`, or `summary`.
    pub kind: &'static str,
    /// The snapshot field the family is declared on, as a dotted path
    /// (e.g. `stdb.scrub_ok`).
    pub source: String,
    /// The samples.
    pub samples: Vec<Sample>,
}

/// A snapshot of a declared metric group: appends the group's families,
/// naming each one's source as `path` plus its field.
pub(crate) trait Exported {
    fn export(&self, path: &str, out: &mut Vec<MetricFamily>);
}

/// A snapshot value and the samples it exports as.
pub(crate) trait Sampled {
    /// The Prometheus type of a family of such values.
    const TYPE: &'static str;
    /// The value's samples under `labels`.
    fn samples(&self, labels: &[(String, String)]) -> Vec<Sample>;
}

macro_rules! sampled_number {
    ($($ty:ty => $kind:literal),*) => {$(
        impl Sampled for $ty {
            const TYPE: &'static str = $kind;
            fn samples(&self, labels: &[(String, String)]) -> Vec<Sample> {
                vec![Sample {
                    suffix: "",
                    labels: labels.to_vec(),
                    value: *self as f64,
                }]
            }
        }
    )*};
}

sampled_number!(u64 => "counter", i64 => "gauge", f64 => "gauge");

fn summary(
    labels: &[(String, String)],
    quantiles: &[(&str, u64)],
    sum: u64,
    count: u64,
) -> Vec<Sample> {
    let sample = |suffix, labels: Vec<(String, String)>, value: u64| Sample {
        suffix,
        labels,
        value: value as f64,
    };
    let mut out: Vec<Sample> = quantiles
        .iter()
        .map(|&(q, v)| {
            let mut l = labels.to_vec();
            l.push(("quantile".to_string(), q.to_string()));
            sample("", l, v)
        })
        .collect();
    out.push(sample("_sum", labels.to_vec(), sum));
    out.push(sample("_count", labels.to_vec(), count));
    out
}

impl Sampled for HistogramSnapshot {
    const TYPE: &'static str = "summary";
    fn samples(&self, labels: &[(String, String)]) -> Vec<Sample> {
        let quantiles = [
            ("0", self.min_micros),
            ("0.5", self.p50_micros),
            ("0.9", self.p90_micros),
            ("0.99", self.p99_micros),
            ("1", self.max_micros),
        ];
        summary(labels, &quantiles, self.sum_micros, self.count)
    }
}

/// A pass's wall-time summary, from the quantiles a [`PassSnapshot`] keeps.
impl Sampled for PassSnapshot {
    const TYPE: &'static str = "summary";
    fn samples(&self, labels: &[(String, String)]) -> Vec<Sample> {
        let quantiles = [("0.5", self.p50_micros), ("0.99", self.p99_micros)];
        summary(labels, &quantiles, self.total_micros, self.calls)
    }
}

/// Appends an unlabeled family; `kind` overrides the value's own type.
pub(crate) fn scalar<S: Sampled>(
    out: &mut Vec<MetricFamily>,
    source: String,
    name: &'static str,
    help: &'static str,
    kind: Option<&'static str>,
    value: &S,
) {
    out.push(MetricFamily {
        name,
        help,
        kind: kind.unwrap_or(S::TYPE),
        source,
        samples: value.samples(&[]),
    });
}

/// Appends a family keyed by `label`: one sample set per key of `map`, of
/// the value `column` picks from the key's snapshot.
pub(crate) fn labeled<T, S: Sampled>(
    out: &mut Vec<MetricFamily>,
    source: String,
    name: &'static str,
    help: &'static str,
    label: &str,
    map: &BTreeMap<String, T>,
    column: impl for<'a> Fn(&'a T) -> &'a S,
) {
    let samples = map
        .iter()
        .flat_map(|(key, v)| column(v).samples(&[(label.to_string(), key.clone())]))
        .collect();
    out.push(MetricFamily {
        name,
        help,
        kind: S::TYPE,
        source,
        samples,
    });
}

/// Flattens a snapshot into the exported metric families, in declaration
/// order.
pub fn collect(snap: &TelemetrySnapshot) -> Vec<MetricFamily> {
    let mut out = Vec::new();
    snap.export("", &mut out);
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format (v0.0.4).
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for family in collect(snap) {
        out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
        out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
        for s in &family.samples {
            out.push_str(family.name);
            out.push_str(s.suffix);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&format_value(s.value));
            out.push('\n');
        }
    }
    out
}

/// Renders a snapshot as JSON lines: one `{"name", "kind", "labels",
/// "value"}` object per sample.
pub fn metrics_jsonl(snap: &TelemetrySnapshot) -> String {
    use serde::value::Value;
    let mut out = String::new();
    for family in collect(snap) {
        for s in &family.samples {
            let line = Value::Object(vec![
                (
                    "name".to_string(),
                    Value::Str(format!("{}{}", family.name, s.suffix)),
                ),
                ("kind".to_string(), Value::Str(family.kind.to_string())),
                (
                    "labels".to_string(),
                    Value::Object(
                        s.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ),
                ("value".to_string(), Value::Float(s.value)),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("metric line serializes"));
            out.push('\n');
        }
    }
    out
}

/// Binds `addr` and serves the global registry's metrics over HTTP on a
/// background thread, returning the bound address (useful with port 0).
///
/// # Errors
/// I/O errors from binding the listener.
pub fn spawn_metrics_server(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("cg-metrics".to_string())
        .spawn(move || serve_metrics(listener))
        .expect("spawn metrics server thread");
    Ok(local)
}

/// Serves Prometheus scrapes on `listener` forever: every request is
/// answered with a fresh render of the global registry, regardless of path.
fn serve_metrics(listener: TcpListener) {
    for conn in listener.incoming() {
        let Ok(mut stream) = conn else { continue };
        let _ = handle_scrape(&mut stream);
    }
}

fn handle_scrape(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // Read up to the end of the request headers; ignore their content.
    let mut buf = [0u8; 4096];
    let mut read = 0;
    while read < buf.len() {
        let n = stream.read(&mut buf[read..])?;
        if n == 0 {
            break;
        }
        read += n;
        if buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let body = prometheus_text(&crate::global().snapshot());
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use std::time::Duration;

    fn sample_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.requests.get("Step").record(120);
        t.request_errors.get("Step").inc();
        t.episode.episodes.inc();
        t.episode.steps.add(3);
        t.episode.step_wall.record(250);
        t.passes
            .get("gvn")
            .record(Duration::from_micros(42), true, -5);
        t.slo.configure(Duration::from_millis(1), 0.9);
        t.slo.record(Duration::from_micros(500));
        t.slo.record(Duration::from_millis(5));
        t.trace.emit("step", "x", Duration::ZERO);
        t.snapshot()
    }

    /// Parses one sample line, `name[{k="v",...}] value`, into its metric
    /// name, or says what is wrong with it.
    fn parse_sample(line: &str) -> Result<&str, String> {
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .ok_or("no value")?;
        let (name, mut rest) = line.split_at(name_end);
        if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
            return Err("bad metric name".into());
        }
        if let Some(mut labels) = rest.strip_prefix('{') {
            loop {
                let eq = labels.find("=\"").ok_or("label without =\"")?;
                let key = &labels[..eq];
                if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return Err(format!("bad label name {key:?}"));
                }
                let mut chars = labels[eq + 2..].char_indices();
                let close = loop {
                    match chars.next().ok_or("unterminated label value")? {
                        (_, '\\') => match chars.next() {
                            Some((_, '\\' | '"' | 'n')) => {}
                            other => return Err(format!("bad escape {other:?}")),
                        },
                        (at, '"') => break eq + 2 + at,
                        _ => {}
                    }
                };
                labels = &labels[close + 1..];
                if let Some(more) = labels.strip_prefix(',') {
                    labels = more;
                } else {
                    rest = labels.strip_prefix('}').ok_or("labels not closed")?;
                    break;
                }
            }
        }
        let value = rest.strip_prefix(' ').ok_or("no space before value")?;
        if value.parse::<f64>().is_err() {
            return Err(format!("bad value {value:?}"));
        }
        Ok(name)
    }

    /// Checks the text exposition grammar (v0.0.4) and its TYPE/HELP
    /// consistency: every family is typed once, with a known type, before
    /// its first sample, and every typed family has help text. Returns the
    /// typed family names.
    fn check_exposition(text: &str) -> std::collections::HashSet<String> {
        let mut types = std::collections::HashMap::new();
        let mut helped = std::collections::HashSet::new();
        for (n, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has text");
                assert!(!help.trim().is_empty(), "line {n}: empty HELP");
                helped.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let parts: Vec<&str> = rest.split(' ').collect();
                assert!(
                    parts.len() == 2
                        && ["counter", "gauge", "summary", "histogram", "untyped"]
                            .contains(&parts[1]),
                    "line {n}: malformed TYPE: {line}"
                );
                let dup = types.insert(parts[0].to_string(), parts[1].to_string());
                assert!(dup.is_none(), "line {n}: duplicate TYPE for {}", parts[0]);
            } else {
                assert!(!line.starts_with('#'), "line {n}: stray comment: {line}");
                let name = parse_sample(line).unwrap_or_else(|e| panic!("line {n}: {e}: {line}"));
                assert!(name.starts_with("cg_"), "line {n}: unprefixed {name}");
                let family = ["_sum", "_count", "_bucket"]
                    .iter()
                    .find_map(|s| name.strip_suffix(s).filter(|f| types.contains_key(*f)))
                    .unwrap_or(name);
                assert!(types.contains_key(family), "line {n}: {name} has no TYPE");
            }
        }
        for family in types.keys() {
            assert!(helped.contains(family), "{family} has no HELP");
        }
        types.into_keys().collect()
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let snap = sample_snapshot();
        let typed = check_exposition(&prometheus_text(&snap));
        assert_eq!(typed.len(), collect(&snap).len());
        for bad in [
            "cg_x",
            "cg_x{k=\"v} 1",
            "cg_x{k=\"\\q\"} 1",
            "cg_x{=\"v\"} 1",
            "cg_x one",
        ] {
            assert!(parse_sample(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse_sample("cg_x{k=\"a\\\"b,c\",q=\"0.5\"} 1.5"),
            Ok("cg_x")
        );
    }

    /// Every field of the snapshot, and so of `cg stats --json`, is declared
    /// with at least one family, and every declared family is exported
    /// under its own `cg_` name with HELP and TYPE lines.
    #[test]
    fn every_declared_metric_is_exported() {
        fn uncovered(
            v: &serde::value::Value,
            path: String,
            sources: &[String],
            out: &mut Vec<String>,
        ) {
            if sources.contains(&path) {
                return;
            }
            match v.as_object() {
                Some(fields) if !fields.is_empty() => {
                    for (key, v) in fields {
                        let sep = if path.is_empty() { "" } else { "." };
                        uncovered(v, format!("{path}{sep}{key}"), sources, out);
                    }
                }
                _ => out.push(path),
            }
        }
        let snap = sample_snapshot();
        let families = collect(&snap);
        let sources: Vec<String> = families.iter().map(|f| f.source.clone()).collect();
        let mut missing = Vec::new();
        uncovered(
            &serde::Serialize::to_value(&snap),
            String::new(),
            &sources,
            &mut missing,
        );
        assert!(
            missing.is_empty(),
            "recorded but never exported: {missing:?}"
        );

        let text = prometheus_text(&Telemetry::new().snapshot());
        let mut names = std::collections::HashSet::new();
        for f in &families {
            assert!(f.name.starts_with("cg_"), "{} lacks the cg_ prefix", f.name);
            assert!(names.insert(f.name), "{} is declared twice", f.name);
            for line in [format!("# HELP {} ", f.name), format!("# TYPE {} ", f.name)] {
                assert!(text.contains(&line), "{} has no `{line}` line", f.name);
            }
        }
    }

    #[test]
    fn jsonl_lines_parse_and_match_prometheus() {
        let snap = sample_snapshot();
        let jsonl = metrics_jsonl(&snap);
        let mut n = 0;
        for line in jsonl.lines() {
            let v = serde_json::parse_value(line).expect("line parses");
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
            assert!(v.get("value").is_some());
            n += 1;
        }
        let samples: usize = collect(&snap).iter().map(|f| f.samples.len()).sum();
        assert_eq!(n, samples);
    }

    #[test]
    fn slo_counters_flow_into_export() {
        let snap = sample_snapshot();
        assert_eq!(snap.slo.good, 1);
        assert_eq!(snap.slo.bad, 1);
        assert!((snap.slo.compliance - 0.5).abs() < 1e-9);
        // Bad fraction 0.5 against an allowed 0.1 burns at 5x.
        assert!((snap.slo.burn_rate - 5.0).abs() < 1e-9);
        let text = prometheus_text(&snap);
        assert!(text.contains("cg_slo_good_total 1"));
        assert!(text.contains("cg_slo_bad_total 1"));
    }

    #[test]
    fn scrape_endpoint_serves_exposition() {
        let addr = spawn_metrics_server("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("headers end");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "got: {head}");
        assert!(check_exposition(body).contains("cg_steps_total"));
    }
}
