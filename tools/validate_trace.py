#!/usr/bin/env python3
"""Validates a Chrome trace_event JSON file produced by hermes.

Checks the document shape (what chrome://tracing / Perfetto require) plus
the invariants hermes' tracer promises: complete events with non-negative
durations, per-query metadata tracks, and children contained within their
parents on each track.

Usage: validate_trace.py FILE.json
Exits non-zero with a message on the first violation. Stdlib only.
"""

import json
import sys


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(doc, where="trace"):
    """Checks one parsed trace document; returns its complete events.

    Fails (exits) on the first violation, naming `where` in the message.
    """
    def bad(msg):
        fail(f"{where}: {msg}")

    if not isinstance(doc, dict):
        bad("top level is not a JSON object")
    if doc.get("displayTimeUnit") != "ms":
        bad("displayTimeUnit is not 'ms'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        bad("traceEvents missing or empty")

    complete, metadata = [], []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            bad(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph == "M":
            metadata.append(ev)
            if ev.get("name") not in ("process_name", "thread_name"):
                bad(f"event {i}: unexpected metadata name {ev.get('name')!r}")
        elif ph == "X":
            complete.append(ev)
            for key in ("name", "cat", "ts", "dur", "pid", "tid"):
                if key not in ev:
                    bad(f"event {i}: complete event missing {key!r}")
            if ev["dur"] < 0:
                bad(f"event {i}: negative duration {ev['dur']}")
            if ev["ts"] < 0:
                bad(f"event {i}: negative timestamp {ev['ts']}")
        else:
            bad(f"event {i}: unexpected phase {ph!r}")

    if not complete:
        bad("no complete ('X') events")
    if not any(ev.get("name") == "process_name" for ev in metadata):
        bad("no process_name metadata event")
    track_names = {
        ev["tid"]: ev.get("args", {}).get("name")
        for ev in metadata
        if ev.get("name") == "thread_name"
    }
    for ev in complete:
        if ev["tid"] not in track_names:
            bad(f"event on tid {ev['tid']} has no thread_name metadata")

    # Every track must carry exactly one root "query" span that contains
    # all other spans on that track.
    by_tid = {}
    for ev in complete:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, evs in by_tid.items():
        roots = [ev for ev in evs if ev["name"] == "query"]
        if len(roots) != 1:
            bad(f"tid {tid}: expected exactly one 'query' span, "
                f"got {len(roots)}")
        root = roots[0]
        lo, hi = root["ts"], root["ts"] + root["dur"]
        for ev in evs:
            if ev["ts"] < lo or ev["ts"] + ev["dur"] > hi:
                bad(f"tid {tid}: span {ev['name']!r} "
                    f"[{ev['ts']}, {ev['ts'] + ev['dur']}] escapes its "
                    f"query envelope [{lo}, {hi}]")
    return complete


def main(path):
    with open(path, "rb") as f:
        doc = json.load(f)
    complete = check_trace(doc, path)
    tracks = {ev["tid"] for ev in complete}
    cats = {ev["cat"] for ev in complete}
    print(f"validate_trace: OK: {len(complete)} spans on "
          f"{len(tracks)} track(s), categories: {', '.join(sorted(cats))}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
