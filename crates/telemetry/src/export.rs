//! Metrics export: Prometheus text exposition, JSONL, and a minimal HTTP
//! scrape endpoint.
//!
//! Both renderers draw from the same intermediate [`MetricFamily`] list built
//! out of a [`TelemetrySnapshot`], so the two formats can never disagree on
//! what is exported. Histograms are exported as Prometheus *summaries*
//! (`quantile` labels plus `_sum`/`_count`); the recorded min and max ride
//! along as `quantile="0"` / `quantile="1"`, which [`crate::Histogram`]
//! tracks exactly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::{HistogramSnapshot, TelemetrySnapshot};

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
    pub name: String,
    /// One-line help text.
    pub help: &'static str,
    /// Prometheus type: `counter`, `gauge`, or `summary`.
    pub kind: &'static str,
    /// The samples.
    pub samples: Vec<Sample>,
}

fn counter(name: &str, help: &'static str, value: u64) -> MetricFamily {
    MetricFamily {
        name: name.to_string(),
        help,
        kind: "counter",
        samples: vec![Sample {
            suffix: "",
            labels: Vec::new(),
            value: value as f64,
        }],
    }
}

fn gauge(name: &str, help: &'static str, value: f64) -> MetricFamily {
    MetricFamily {
        name: name.to_string(),
        help,
        kind: "gauge",
        samples: vec![Sample {
            suffix: "",
            labels: Vec::new(),
            value,
        }],
    }
}

fn labeled(label: &str, key: &str) -> Vec<(String, String)> {
    vec![(label.to_string(), key.to_string())]
}

fn summary_samples(h: &HistogramSnapshot, labels: &[(String, String)]) -> Vec<Sample> {
    let quantile = |q: &str, v: u64| {
        let mut l = labels.to_vec();
        l.push(("quantile".to_string(), q.to_string()));
        Sample {
            suffix: "",
            labels: l,
            value: v as f64,
        }
    };
    vec![
        quantile("0", h.min_micros),
        quantile("0.5", h.p50_micros),
        quantile("0.9", h.p90_micros),
        quantile("0.99", h.p99_micros),
        quantile("1", h.max_micros),
        Sample {
            suffix: "_sum",
            labels: labels.to_vec(),
            value: h.sum_micros as f64,
        },
        Sample {
            suffix: "_count",
            labels: labels.to_vec(),
            value: h.count as f64,
        },
    ]
}

fn summary(name: &str, help: &'static str, h: &HistogramSnapshot) -> MetricFamily {
    MetricFamily {
        name: name.to_string(),
        help,
        kind: "summary",
        samples: summary_samples(h, &[]),
    }
}

/// Flattens a snapshot into the exported metric families, in a deterministic
/// order.
pub fn collect(snap: &TelemetrySnapshot) -> Vec<MetricFamily> {
    let mut out = Vec::new();

    // Service requests, per kind.
    let mut req_counts = Vec::new();
    let mut req_latency = Vec::new();
    for (kind, h) in &snap.requests {
        req_counts.push(Sample {
            suffix: "",
            labels: labeled("kind", kind),
            value: h.count as f64,
        });
        req_latency.extend(summary_samples(h, &labeled("kind", kind)));
    }
    out.push(MetricFamily {
        name: "cg_requests_total".to_string(),
        help: "Service requests handled, by request kind.",
        kind: "counter",
        samples: req_counts,
    });
    out.push(MetricFamily {
        name: "cg_request_latency_micros".to_string(),
        help: "Service request latency in microseconds, by request kind.",
        kind: "summary",
        samples: req_latency,
    });
    out.push(MetricFamily {
        name: "cg_request_errors_total".to_string(),
        help: "Error responses, by request kind.",
        kind: "counter",
        samples: snap
            .request_errors
            .iter()
            .map(|(kind, v)| Sample {
                suffix: "",
                labels: labeled("kind", kind),
                value: *v as f64,
            })
            .collect(),
    });
    out.push(gauge(
        "cg_in_flight",
        "Service requests currently being processed.",
        snap.in_flight as f64,
    ));

    // Fault-tolerance counters.
    for (name, help, v) in [
        (
            "cg_timeouts_total",
            "Requests that hit the client deadline.",
            snap.timeouts,
        ),
        (
            "cg_panics_total",
            "Session panics caught by the service runtime.",
            snap.panics,
        ),
        ("cg_restarts_total", "Service restarts.", snap.restarts),
        (
            "cg_recoveries_total",
            "Episodes transparently recovered by replay.",
            snap.recoveries,
        ),
        (
            "cg_replay_divergences_total",
            "Replays whose reward metric diverged.",
            snap.replay_divergences,
        ),
        (
            "cg_reconnects_total",
            "TCP client reconnects.",
            snap.reconnects,
        ),
        (
            "cg_checkpoints_taken_total",
            "Session checkpoints serialized.",
            snap.checkpoints_taken,
        ),
        (
            "cg_checkpoint_restores_total",
            "Recoveries restored from a checkpoint.",
            snap.checkpoint_restores,
        ),
        (
            "cg_budget_kills_total",
            "Sessions killed in-band by a resource budget.",
            snap.budget_kills,
        ),
        (
            "cg_watchdog_restarts_total",
            "Watchdog-initiated restarts.",
            snap.watchdog_restarts,
        ),
        (
            "cg_breaker_trips_total",
            "Circuit-breaker open transitions.",
            snap.breaker_trips,
        ),
        (
            "cg_breaker_fast_fails_total",
            "Calls rejected by an open circuit.",
            snap.breaker_fast_fails,
        ),
        (
            "cg_breaker_half_opens_total",
            "Circuit-breaker half-open probes.",
            snap.breaker_half_opens,
        ),
    ] {
        out.push(counter(name, help, v));
    }

    // Episode statistics.
    out.push(counter(
        "cg_episodes_total",
        "Completed reset() calls.",
        snap.episode.episodes,
    ));
    out.push(counter(
        "cg_steps_total",
        "Completed step() calls.",
        snap.episode.steps,
    ));
    out.push(counter(
        "cg_actions_total",
        "Actions applied.",
        snap.episode.actions_total,
    ));
    out.push(counter(
        "cg_actions_changed_total",
        "Actions that mutated program state.",
        snap.episode.actions_changed,
    ));
    out.push(gauge(
        "cg_reward_sum",
        "Sum of all step rewards.",
        snap.episode.reward_sum,
    ));
    out.push(summary(
        "cg_reset_latency_micros",
        "reset() wall time in microseconds.",
        &snap.episode.reset_wall,
    ));
    out.push(summary(
        "cg_step_latency_micros",
        "step() wall time in microseconds.",
        &snap.episode.step_wall,
    ));
    out.push(summary(
        "cg_fork_latency_micros",
        "fork() wall time in microseconds.",
        &snap.episode.fork_wall,
    ));

    // Observation spaces.
    let mut obs = Vec::new();
    for (space, h) in &snap.observations {
        obs.extend(summary_samples(h, &labeled("space", space)));
    }
    out.push(MetricFamily {
        name: "cg_observation_latency_micros".to_string(),
        help: "Observation computation latency in microseconds, by space.",
        kind: "summary",
        samples: obs,
    });

    // Per-pass profile.
    let mut pass_calls = Vec::new();
    let mut pass_wall = Vec::new();
    let mut pass_changed = Vec::new();
    let mut pass_delta = Vec::new();
    for (pass, p) in &snap.passes {
        let labels = labeled("pass", pass);
        pass_calls.push(Sample {
            suffix: "",
            labels: labels.clone(),
            value: p.calls as f64,
        });
        pass_wall.push(Sample {
            suffix: "",
            labels: labels.clone(),
            value: p.total_micros as f64,
        });
        pass_changed.push(Sample {
            suffix: "",
            labels: labels.clone(),
            value: p.changed as f64,
        });
        pass_delta.push(Sample {
            suffix: "",
            labels,
            value: p.inst_delta as f64,
        });
    }
    out.push(MetricFamily {
        name: "cg_pass_calls_total".to_string(),
        help: "Pass invocations, by pass.",
        kind: "counter",
        samples: pass_calls,
    });
    out.push(MetricFamily {
        name: "cg_pass_wall_micros_total".to_string(),
        help: "Cumulative pass wall time in microseconds, by pass.",
        kind: "counter",
        samples: pass_wall,
    });
    out.push(MetricFamily {
        name: "cg_pass_changed_total".to_string(),
        help: "Invocations that changed the module, by pass.",
        kind: "counter",
        samples: pass_changed,
    });
    out.push(MetricFamily {
        name: "cg_pass_inst_delta".to_string(),
        help: "Cumulative signed instruction-count delta, by pass.",
        kind: "gauge",
        samples: pass_delta,
    });

    // Pool and cache.
    for (name, help, v) in [
        (
            "cg_pool_jobs_total",
            "Evaluation jobs completed.",
            snap.pool.jobs,
        ),
        (
            "cg_pool_job_errors_total",
            "Jobs that finished with an error.",
            snap.pool.job_errors,
        ),
        (
            "cg_pool_job_panics_total",
            "Worker panics caught mid-job.",
            snap.pool.job_panics,
        ),
        (
            "cg_cache_hits_total",
            "Exact evaluation-cache hits.",
            snap.pool.cache_hits,
        ),
        (
            "cg_cache_misses_total",
            "Evaluation-cache misses.",
            snap.pool.cache_misses,
        ),
        (
            "cg_cache_prefix_hits_total",
            "Prefix-trie snapshot hits.",
            snap.pool.prefix_hits,
        ),
        (
            "cg_actions_executed_total",
            "Pass applications executed by workers.",
            snap.pool.actions_executed,
        ),
        (
            "cg_actions_saved_total",
            "Pass applications skipped via cache reuse.",
            snap.pool.actions_saved,
        ),
        (
            "cg_cache_evictions_total",
            "Cache entries evicted.",
            snap.pool.evictions,
        ),
    ] {
        out.push(counter(name, help, v));
    }
    out.push(gauge(
        "cg_pool_workers",
        "Worker threads alive.",
        snap.pool.workers as f64,
    ));
    out.push(gauge(
        "cg_pool_queue_depth",
        "Jobs queued, not yet running.",
        snap.pool.queue_depth as f64,
    ));
    out.push(summary(
        "cg_pool_batch_latency_micros",
        "evaluate_batch wall time in microseconds.",
        &snap.pool.batch_wall,
    ));
    out.push(summary(
        "cg_pool_job_latency_micros",
        "Evaluation job wall time in microseconds.",
        &snap.pool.job_wall,
    ));

    // Session-broker front door.
    for (name, help, v) in [
        (
            "cg_broker_admitted_total",
            "Sessions admitted through the front door.",
            snap.broker.admitted,
        ),
        (
            "cg_broker_refused_total",
            "Requests refused by admission control with a typed Overloaded.",
            snap.broker.refused,
        ),
        (
            "cg_broker_shed_total",
            "Queued work shed under overload.",
            snap.broker.shed,
        ),
        (
            "cg_broker_quota_refusals_total",
            "Refusals due to a per-tenant quota.",
            snap.broker.quota_refusals,
        ),
        (
            "cg_broker_drains_total",
            "Graceful drains initiated.",
            snap.broker.drains,
        ),
        (
            "cg_broker_drained_checkpoints_total",
            "Live sessions checkpointed during drain.",
            snap.broker.drained_checkpoints,
        ),
    ] {
        out.push(counter(name, help, v));
    }
    out.push(gauge(
        "cg_broker_sessions",
        "Live broker sessions.",
        snap.broker.sessions as f64,
    ));
    out.push(gauge(
        "cg_broker_queue_depth",
        "Requests queued in tenant FIFOs.",
        snap.broker.queue_depth as f64,
    ));
    out.push(gauge(
        "cg_broker_connections",
        "Open front-door TCP connections.",
        snap.broker.connections as f64,
    ));
    out.push(summary(
        "cg_broker_queue_wait_micros",
        "Time requests spend queued before dispatch, in microseconds.",
        &snap.broker.queue_wait,
    ));

    // Transition store.
    for (name, help, v) in [
        (
            "cg_stdb_ingest_records_total",
            "Records durably appended to the transition-store WAL.",
            snap.stdb.ingest_records,
        ),
        (
            "cg_stdb_ingest_bytes_total",
            "Payload bytes appended to the transition-store WAL.",
            snap.stdb.ingest_bytes,
        ),
        (
            "cg_stdb_dropped_records_total",
            "Records dropped by ingest backpressure or append failure.",
            snap.stdb.dropped_records,
        ),
        (
            "cg_stdb_append_retries_total",
            "Appends retried after a rolled-back torn write.",
            snap.stdb.append_retries,
        ),
        (
            "cg_stdb_replay_hits_total",
            "Replay-env steps answered from the store.",
            snap.stdb.replay_hits,
        ),
        (
            "cg_stdb_replay_misses_total",
            "Replay-env requests that fell through to the live compiler.",
            snap.stdb.replay_misses,
        ),
        (
            "cg_stdb_quarantined_records_total",
            "Corrupt records quarantined by recovery or scrub.",
            snap.stdb.quarantined_records,
        ),
        (
            "cg_stdb_torn_tails_total",
            "Torn WAL tails truncated during recovery-on-open.",
            snap.stdb.torn_tails,
        ),
        (
            "cg_stdb_scrub_corrupt_total",
            "Checksum failures found by scrub.",
            snap.stdb.scrub_corrupt,
        ),
        (
            "cg_stdb_scrub_repaired_total",
            "Corrupt records repaired from intact duplicates.",
            snap.stdb.scrub_repaired,
        ),
        (
            "cg_stdb_checkpoint_rejects_total",
            "Checkpoint files rejected at load (bad checksum or torn).",
            snap.stdb.checkpoint_rejects,
        ),
        (
            "cg_stdb_compactions_total",
            "Transition-store compactions completed.",
            snap.stdb.compactions,
        ),
    ] {
        out.push(counter(name, help, v));
    }
    out.push(gauge(
        "cg_stdb_segments",
        "Live transition-store WAL segments.",
        snap.stdb.segments as f64,
    ));
    out.push(gauge(
        "cg_stdb_store_bytes",
        "Bytes across live transition-store WAL segments.",
        snap.stdb.store_bytes as f64,
    ));
    out.push(summary(
        "cg_stdb_append_wall_micros",
        "WAL append wall time in microseconds.",
        &snap.stdb.append_wall,
    ));

    // Wire protocol (frames + pipelining).
    for (name, help, v) in [
        (
            "cg_wire_tx_bytes_total",
            "Payload bytes written as CGB1 frames.",
            snap.wire.tx_bytes,
        ),
        (
            "cg_wire_rx_bytes_total",
            "Payload bytes read as CGB1 frames.",
            snap.wire.rx_bytes,
        ),
        (
            "cg_wire_frames_total",
            "Frames moved in either direction.",
            snap.wire.frames,
        ),
        (
            "cg_wire_decode_errors_total",
            "Frames that failed to decode (answered in band).",
            snap.wire.decode_errors,
        ),
        (
            "cg_wire_pipelined_calls_total",
            "Calls issued through the pipelined path.",
            snap.wire.pipelined_calls,
        ),
        (
            "cg_wire_negotiations_total",
            "Hello/HelloAck handshakes the server completed.",
            snap.wire.negotiations,
        ),
    ] {
        out.push(counter(name, help, v));
    }
    out.push(gauge(
        "cg_wire_in_flight",
        "Requests currently in flight on pipelined sockets.",
        snap.wire.in_flight as f64,
    ));
    out.push(summary(
        "cg_wire_encode_micros",
        "Frame encode wall time in microseconds.",
        &snap.wire.encode_wall,
    ));
    out.push(summary(
        "cg_wire_decode_micros",
        "Frame decode wall time in microseconds.",
        &snap.wire.decode_wall,
    ));

    // Fuzzer.
    out.push(counter(
        "cg_fuzz_cases_total",
        "Fuzz cases executed.",
        snap.fuzz.cases,
    ));
    out.push(counter(
        "cg_fuzz_divergences_total",
        "Fuzz divergences found.",
        snap.fuzz.divergences,
    ));

    // Trace ring and flight recorder.
    out.push(gauge(
        "cg_trace_spans",
        "Span records currently buffered.",
        snap.trace_events as f64,
    ));
    out.push(counter(
        "cg_trace_dropped_total",
        "Span records evicted from the ring.",
        snap.trace_dropped,
    ));
    out.push(counter(
        "cg_episodes_recorded_total",
        "Flight-recorder episodes opened.",
        snap.episodes_recorded,
    ));
    out.push(counter(
        "cg_episodes_evicted_total",
        "Flight-recorder episodes evicted.",
        snap.episodes_dropped,
    ));
    out.push(counter(
        "cg_episode_spans_dropped_total",
        "Spans dropped by per-episode caps.",
        snap.episode_spans_dropped,
    ));

    // SLO.
    out.push(gauge(
        "cg_slo_objective_micros",
        "Configured step-latency objective (0 = disabled).",
        snap.slo.objective_micros as f64,
    ));
    out.push(gauge(
        "cg_slo_target",
        "Configured availability target.",
        snap.slo.target,
    ));
    out.push(counter(
        "cg_slo_good_total",
        "Steps meeting the latency objective.",
        snap.slo.good,
    ));
    out.push(counter(
        "cg_slo_bad_total",
        "Steps missing the latency objective.",
        snap.slo.bad,
    ));
    out.push(gauge(
        "cg_slo_compliance",
        "Fraction of steps meeting the objective.",
        snap.slo.compliance,
    ));
    out.push(gauge(
        "cg_slo_burn_rate",
        "Error-budget burn rate (1.0 = at budget).",
        snap.slo.burn_rate,
    ));

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
            out.push_str(&family.name);
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
pub fn serve_metrics(listener: TcpListener) {
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

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = prometheus_text(&sample_snapshot());
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            assert!(!line.is_empty());
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').expect("sample has value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.starts_with("cg_")
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in: {line}"
            );
            seen.insert(
                name.trim_end_matches("_sum")
                    .trim_end_matches("_count")
                    .to_string(),
            );
        }
        for required in [
            "cg_requests_total",
            "cg_request_latency_micros",
            "cg_episodes_total",
            "cg_steps_total",
            "cg_step_latency_micros",
            "cg_restarts_total",
            "cg_recoveries_total",
            "cg_reconnects_total",
            "cg_pass_calls_total",
            "cg_trace_spans",
            "cg_trace_dropped_total",
            "cg_slo_good_total",
            "cg_slo_bad_total",
            "cg_slo_burn_rate",
        ] {
            assert!(seen.contains(required), "missing metric {required}");
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
        assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
        assert!(response.contains("cg_steps_total"));
    }
}
