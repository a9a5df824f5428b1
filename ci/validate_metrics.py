#!/usr/bin/env python3
"""Validate a Prometheus text-exposition (0.0.4) dump from `cg`.

Checks the line grammar (HELP/TYPE comments, sample lines with optional
labels and a float value), TYPE consistency, and the presence of the
metric families the observability layer is contractually expected to
export. Exits non-zero with a line-numbered diagnosis on any violation.
"""

import re
import sys

REQUIRED_FAMILIES = [
    "cg_requests_total",
    "cg_request_latency_micros",
    "cg_restarts_total",
    "cg_recoveries_total",
    "cg_steps_total",
    "cg_step_latency_micros",
    "cg_checkpoints_taken_total",
    "cg_checkpoint_restores_total",
    "cg_trace_spans",
    "cg_trace_dropped_total",
    "cg_episodes_recorded_total",
    "cg_episode_spans_dropped_total",
    "cg_slo_good_total",
    "cg_slo_bad_total",
    "cg_slo_compliance",
    "cg_slo_burn_rate",
    "cg_broker_admitted_total",
    "cg_broker_refused_total",
    "cg_broker_shed_total",
    "cg_broker_quota_refusals_total",
    "cg_broker_drains_total",
    "cg_broker_drained_checkpoints_total",
    "cg_broker_sessions",
    "cg_broker_queue_depth",
    "cg_broker_connections",
    "cg_broker_queue_wait_micros",
    "cg_stdb_ingest_records_total",
    "cg_stdb_ingest_bytes_total",
    "cg_stdb_dropped_records_total",
    "cg_stdb_append_retries_total",
    "cg_stdb_replay_hits_total",
    "cg_stdb_replay_misses_total",
    "cg_stdb_quarantined_records_total",
    "cg_stdb_torn_tails_total",
    "cg_stdb_scrub_corrupt_total",
    "cg_stdb_scrub_repaired_total",
    "cg_stdb_checkpoint_rejects_total",
    "cg_stdb_compactions_total",
    "cg_stdb_segments",
    "cg_stdb_store_bytes",
    "cg_stdb_append_wall_micros",
    "cg_wire_tx_bytes_total",
    "cg_wire_rx_bytes_total",
    "cg_wire_frames_total",
    "cg_wire_decode_errors_total",
    "cg_wire_pipelined_calls_total",
    "cg_wire_negotiations_total",
    "cg_wire_in_flight",
    "cg_wire_encode_micros",
    "cg_wire_decode_micros",
]

VALID_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}
NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
SAMPLE_RE = re.compile(
    rf"^({NAME})(\{{(.*)\}})?\s+(-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|NaN|[+-]?Inf))$"
)
LABEL_RE = re.compile(rf'^({NAME})="((?:[^"\\]|\\.)*)"$')


def base_family(name: str) -> str:
    """Strips the summary/histogram suffixes back to the family name."""
    for suffix in ("_sum", "_count", "_bucket"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    errors = []
    types: dict[str, str] = {}
    helped: set[str] = set()
    sampled: set[str] = set()

    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                errors.append(f"line {i}: malformed HELP: {line!r}")
                continue
            helped.add(parts[2])
        elif line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in VALID_TYPES:
                errors.append(f"line {i}: malformed TYPE: {line!r}")
                continue
            if parts[2] in types:
                errors.append(f"line {i}: duplicate TYPE for {parts[2]}")
            types[parts[2]] = parts[3]
        elif line.startswith("#"):
            continue  # free-form comment
        else:
            m = SAMPLE_RE.match(line)
            if not m:
                errors.append(f"line {i}: unparseable sample: {line!r}")
                continue
            name, _, labels, _value = m.groups()
            if labels:
                for pair in split_labels(labels):
                    if not LABEL_RE.match(pair):
                        errors.append(f"line {i}: bad label {pair!r}")
            family = base_family(name)
            if family not in types and name not in types:
                errors.append(f"line {i}: sample {name} has no TYPE comment")
            sampled.add(family if family in types else name)

    for family in REQUIRED_FAMILIES:
        if family not in sampled:
            errors.append(f"required metric family missing: {family}")
        if family not in helped:
            errors.append(f"required metric family has no HELP: {family}")

    if errors:
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        return 1
    print(f"OK {path}: {len(sampled)} families, {len(lines)} lines")
    return 0


def split_labels(raw: str):
    """Splits `a="x",b="y"` on commas outside quoted values."""
    out, depth, cur = [], False, []
    it = iter(raw)
    for ch in it:
        if ch == '"' and (not cur or cur[-1] != "\\"):
            depth = not depth
        if ch == "," and not depth:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: validate_metrics.py <metrics.prom>", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
