#!/usr/bin/env python3
"""Validates debug bundles persisted by the hermes diagnostics layer.

A bundle directory (bundle_NNN_qID/ under the diagnostics bundle_dir)
must contain the manifest plus the four capture components:

  manifest.json  - query id/reason/completeness, per-operator rows, and a
                   components map naming the other four files
  events.json    - the query's flight-recorder slice (non-empty)
  trace.json     - a Chrome trace (traceEvents array). For a query bundle
                   it is a view of events.json, so it must also pass
                   validate_trace.py's checks (one "query" root per
                   track, containing every span) and hold one
                   domain-call span per call_issued event
  explain.txt    - EXPLAIN of the executed tree with actuals (non-empty)
  metrics.prom   - Prometheus snapshot at capture time (non-empty)

Usage: validate_bundle.py BUNDLE_DIR [BUNDLE_DIR ...]
Exits non-zero with a message on the first violation. Stdlib only.
"""

import json
import os
import sys

from validate_trace import check_trace

MANIFEST_KEYS = (
    "query_id",
    "reason",
    "query",
    "t_all_sim_ms",
    "completeness",
    "event_count",
    "components",
    "rows",
)

EVENT_KEYS = ("query_id", "seq", "kind", "sim_ms")


def fail(msg):
    print(f"validate_bundle: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(f"{path}: unreadable: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path}: invalid JSON: {e}")


def check_bundle(bundle_dir):
    manifest = load_json(os.path.join(bundle_dir, "manifest.json"))
    for key in MANIFEST_KEYS:
        if key not in manifest:
            fail(f"{bundle_dir}/manifest.json: missing key {key!r}")
    if not manifest["reason"]:
        fail(f"{bundle_dir}/manifest.json: empty capture reason")
    components = manifest["components"]
    for component in ("events", "trace", "explain", "metrics"):
        if component not in components:
            fail(f"{bundle_dir}/manifest.json: components lacks {component!r}")

    events_doc = load_json(os.path.join(bundle_dir, components["events"]))
    events = events_doc.get("events")
    if not isinstance(events, list) or not events:
        fail(f"{bundle_dir}/events.json: no events captured")
    for i, event in enumerate(events):
        for key in EVENT_KEYS:
            if key not in event:
                fail(f"{bundle_dir}/events.json: event {i} missing {key!r}")
    if manifest["event_count"] != len(events):
        fail(f"{bundle_dir}: manifest event_count {manifest['event_count']} "
             f"!= {len(events)} events in events.json")
    kinds = {event["kind"] for event in events}
    if "query_start" not in kinds or "query_end" not in kinds:
        fail(f"{bundle_dir}/events.json: stream lacks query_start/query_end "
             f"(kinds: {sorted(kinds)})")

    trace_path = os.path.join(bundle_dir, components["trace"])
    trace = load_json(trace_path)
    if "traceEvents" not in trace or not isinstance(trace["traceEvents"], list):
        fail(f"{bundle_dir}/trace.json: no traceEvents array")
    if manifest["query_id"] != 0:
        # A query bundle: trace.json derives from the same event slice.
        spans = check_trace(trace, trace_path)
        calls = sum(1 for span in spans if span["cat"] == "domain-call")
        issued = sum(1 for event in events if event["kind"] == "call_issued")
        if calls != issued:
            fail(f"{bundle_dir}: trace.json has {calls} domain-call spans "
                 f"but events.json has {issued} call_issued events")

    for component, must_contain in (("explain", "("), ("metrics", "hermes_")):
        path = os.path.join(bundle_dir, components[component])
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            fail(f"{path}: unreadable: {e}")
        if not text.strip():
            fail(f"{path}: empty")
        if must_contain not in text:
            fail(f"{path}: expected {must_contain!r} somewhere in the file")

    return manifest


def main(bundle_dirs):
    for bundle_dir in bundle_dirs:
        if not os.path.isdir(bundle_dir):
            fail(f"{bundle_dir}: not a directory")
        manifest = check_bundle(bundle_dir)
        print(f"validate_bundle: OK: {bundle_dir} "
              f"(q{manifest['query_id']} reason={manifest['reason']} "
              f"{manifest['event_count']} events)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1:])
