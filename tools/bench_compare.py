#!/usr/bin/env python3
"""Compares two google-benchmark JSON outputs (baseline vs contender).

Prints a per-benchmark table of real time (or items/s for throughput
benchmarks that report it) and the relative delta, and writes the same
table to a file when --out is given. Optionally enforces a regression
gate: --max-regression 0.10 fails (exit 1) if any compared benchmark's
median got more than 10% slower.

Each side may hold several repetitions of a benchmark
(--benchmark_repetitions=N): they are grouped by name and compared by
their medians. A delta is marked `~` when the contender's median lies
inside the baseline's interquartile range: a shift that small is not
told apart from the baseline's own run-to-run spread.

When a side holds both BM_ExecuteCacheHitQueryDiagnostics and
BM_ExecuteCacheHitQuery, a line after the table gives that side's ratio of
their medians: what always-on diagnostics cost on the CIM hit path
(informational, never gated). Beside each ratio it prints the range the
two benchmarks' quartiles allow (q1 on / q3 off ... q3 on / q1 off), and
`unresolved at 5%` when that range contains 1.05: the runs are then too
spread to tell whether the overhead meets a 5% budget.

Matching is by full benchmark name (including /threads:N suffixes); names
present in only one file are listed as new/removed (with their one-sided
measurement) but not compared, and entries without a usable measurement —
error_occurred from SkipWithError, or a missing real_time field — are
reported instead of crashing the comparison. Stdlib only.

Usage: bench_compare.py BASELINE.json CONTENDER.json
           [--out FILE] [--max-regression FRAC] [--filter REGEX]
"""

import argparse
import json
import re
import statistics
import sys


def load(path):
    """Benchmark name -> its repetitions, in run order."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out.setdefault(bench["name"], []).append(bench)
    return out


def metric_of(bench):
    """(value, unit, higher_is_better) for one benchmark entry, or None
    when the entry carries no usable measurement (it errored out via
    SkipWithError, or predates the fields we read)."""
    if bench.get("error_occurred"):
        return None
    if "items_per_second" in bench:
        return bench["items_per_second"], "items/s", True
    if "real_time" in bench:
        return bench["real_time"], bench.get("time_unit", "ns"), False
    return None


def summarize(reps):
    """(median, q1, q3, unit, higher_is_better) over a benchmark's
    repetitions, or None when any of them has no usable measurement or
    they disagree on the unit."""
    metrics = [metric_of(bench) for bench in reps]
    if any(m is None for m in metrics) or len({m[1] for m in metrics}) != 1:
        return None
    values = [m[0] for m in metrics]
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3, metrics[0][1], metrics[0][2]


def format_metric(reps):
    """One-sided display of a benchmark's median ('-' when it has none)."""
    summary = summarize(reps)
    if summary is None:
        return "-"
    median, _, _, unit, _ = summary
    return f"{median:.4g} {unit}"


DIAGNOSTICS_ON = "BM_ExecuteCacheHitQueryDiagnostics"
DIAGNOSTICS_OFF = "BM_ExecuteCacheHitQuery"


OVERHEAD_BUDGET = 1.05


def diagnostics_ratio(side):
    """(median ratio, lowest, highest) of the diagnostics-on hit over the
    plain hit (above 1 is the overhead), where lowest and highest are the
    ratios the two benchmarks' quartiles allow; None when the side lacks
    either benchmark."""
    if DIAGNOSTICS_ON not in side or DIAGNOSTICS_OFF not in side:
        return None
    on, off = summarize(side[DIAGNOSTICS_ON]), summarize(side[DIAGNOSTICS_OFF])
    if on is None or off is None or on[3] != off[3]:
        return None
    (on_med, on_q1, on_q3, _, higher_better) = on
    (off_med, off_q1, off_q3, _, _) = off
    if 0 in (on_med, on_q1, on_q3, off_med, off_q1, off_q3):
        return None
    if higher_better:
        # Throughput: the overhead is off / on.
        return off_med / on_med, off_q1 / on_q3, off_q3 / on_q1
    return on_med / off_med, on_q1 / off_q3, on_q3 / off_q1


def format_ratio(ratio):
    """'1.270 (1.180-1.300)', marked unresolved when the range holds the
    5% budget."""
    if ratio is None:
        return "-"
    median, low, high = ratio
    text = f"{median:.3f} ({low:.3f}-{high:.3f})"
    if low <= OVERHEAD_BUDGET <= high:
        text += " unresolved at 5%"
    return text


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("contender")
    ap.add_argument("--out", help="also write the table to this file")
    ap.add_argument("--max-regression", type=float, default=None,
                    help="fail if any benchmark regresses by more than "
                         "this fraction (e.g. 0.10 = 10%%)")
    ap.add_argument("--filter", default=None,
                    help="only compare benchmarks whose name matches")
    args = ap.parse_args()

    base = load(args.baseline)
    cont = load(args.contender)
    name_filter = re.compile(args.filter) if args.filter else None

    rows = []
    regressions = []
    for name in sorted(set(base) | set(cont)):
        if name_filter and not name_filter.search(name):
            continue
        if name not in base:
            rows.append((name, "-", format_metric(cont[name]), "new"))
            continue
        if name not in cont:
            rows.append((name, format_metric(base[name]), "-", "removed"))
            continue
        b_summary = summarize(base[name])
        c_summary = summarize(cont[name])
        if b_summary is None or c_summary is None:
            rows.append((name, format_metric(base[name]),
                         format_metric(cont[name]), "error"))
            continue
        b_val, b_q1, b_q3, b_unit, higher_better = b_summary
        c_val, _, _, c_unit, _ = c_summary
        if b_unit != c_unit or b_val == 0:
            rows.append((name, format_metric(base[name]),
                         format_metric(cont[name]), "incomparable"))
            continue
        # delta > 0 always means "contender worse".
        delta = (b_val - c_val) / b_val if higher_better \
            else (c_val - b_val) / b_val
        noise = " ~" if b_q1 <= c_val <= b_q3 else ""
        rows.append((name, f"{b_val:.4g} {b_unit}", f"{c_val:.4g} {c_unit}",
                     f"{delta:+.1%}{noise}"))
        if args.max_regression is not None and delta > args.max_regression:
            regressions.append((name, delta))

    widths = [max(len(r[i]) for r in rows + [("benchmark", "baseline",
                                              "contender", "delta")])
              for i in range(4)]
    lines = []
    header = ("benchmark", "baseline", "contender", "delta")
    for row in [header] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    lines.append("(medians over repetitions; ~ marks a contender median "
                 "inside the baseline's interquartile range)")
    ratios = [(label, diagnostics_ratio(side))
              for label, side in (("baseline", base), ("contender", cont))]
    if any(ratio is not None for _, ratio in ratios):
        lines.append(f"diagnostics overhead, {DIAGNOSTICS_ON} / "
                     f"{DIAGNOSTICS_OFF} medians (quartile range): " +
                     ", ".join(f"{label} {format_ratio(ratio)}"
                               for label, ratio in ratios))
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table)

    if regressions:
        for name, delta in regressions:
            print(f"REGRESSION: {name} is {delta:.1%} worse than baseline",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
