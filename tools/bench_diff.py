#!/usr/bin/env python3
"""Compare two BENCH_core.json labels and fail on perf regressions.

CI's bench-smoke job runs the micro benchmarks into a fresh file
(label ci-smoke) and then diffs the watched benchmarks against the latest
label recorded in the repo's BENCH_core.json trajectory:

    tools/bench_diff.py --current BENCH_core_ci.json \
        --baseline BENCH_core.json --tolerance 25

Exit status 1 when any watched benchmark's cpu_time grew by more than
--tolerance percent; missing benchmarks on either side are reported but
only fatal when NOTHING matched (a silent no-op diff would read as a
pass). "last" means the label with the highest "seq" (bench/run_bench
writes one per label); the file's key order is sorted, not recorded, so
a label without a seq or two labels sharing the top seq is an error
(exit 1), never a guess. Stdlib only — runs on a bare CI python3.
"""

import argparse
import json
import sys

# Prefix-matched: "BM_ServiceThroughput" covers /1, /4, /8.
DEFAULT_WATCH = ["BM_FitnessAgainst/256", "BM_ServiceThroughput",
                 "BM_ClusterThroughput", "BM_TelemetryOverhead"]


def latest_label(runs, path):
    """The label with the highest seq; exits when the order is unknowable."""
    unordered = sorted(l for l, r in runs.items()
                       if not isinstance(r.get("seq"), int))
    if unordered:
        sys.exit(f"bench_diff: {path}: label(s) without an integer seq: "
                 f"{', '.join(unordered)}; cannot tell which is latest")
    top = max(r["seq"] for r in runs.values())
    latest = sorted(l for l, r in runs.items() if r["seq"] == top)
    if len(latest) > 1:
        sys.exit(f"bench_diff: {path}: labels {', '.join(latest)} share "
                 f"seq {top}; cannot tell which is latest")
    return latest[0]


def load_label(path, label):
    with open(path) as handle:
        data = json.load(handle)
    runs = data.get("runs", {})
    if not runs:
        sys.exit(f"bench_diff: no runs in {path}")
    if label is None or label == "last":
        label = latest_label(runs, path)
    if label not in runs:
        sys.exit(f"bench_diff: label {label!r} not in {path} "
                 f"(has: {', '.join(runs)})")
    benches = {b["name"]: b for b in runs[label].get("benchmarks", [])}
    return label, benches


def watched(names, watch):
    return [n for n in names
            if any(n == w or n.startswith(w + "/") for w in watch)]


def pick_metric(cur, base):
    """Returns (key, higher_is_better) for the fairest shared metric.

    Throughput benchmarks publish a wall-clock rate (missions_per_wall_s
    or items_per_second) — cpu_time on those measures only the
    coordinating thread and swings wildly. Latency benchmarks fall back
    to cpu_time.
    """
    for key in ("missions_per_wall_s", "items_per_second"):
        if key in cur and key in base:
            return key, True
    return "cpu_time", False


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="bench JSON holding the fresh run")
    parser.add_argument("--current-label", default="last",
                        help="label inside --current (default: last)")
    parser.add_argument("--baseline", required=True,
                        help="bench JSON holding the reference trajectory")
    parser.add_argument("--baseline-label", default="last",
                        help="label inside --baseline (default: last)")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        help="allowed cpu_time growth in percent")
    parser.add_argument("--watch", nargs="*", default=DEFAULT_WATCH,
                        help="benchmark names/prefixes to gate on")
    args = parser.parse_args()

    cur_label, current = load_label(args.current, args.current_label)
    base_label, baseline = load_label(args.baseline, args.baseline_label)
    print(f"bench_diff: {cur_label!r} vs baseline {base_label!r} "
          f"(tolerance {args.tolerance:g}%)")

    names = watched(sorted(set(current) | set(baseline)), args.watch)
    if not names:
        sys.exit("bench_diff: no watched benchmark present on either side")

    regressions = []
    compared = 0
    for name in names:
        cur, base = current.get(name), baseline.get(name)
        if cur is None or base is None:
            side = "current" if cur is None else "baseline"
            print(f"  ~ {name}: missing from {side} run, skipped")
            continue
        metric, higher_is_better = pick_metric(cur, base)
        unit = "/s" if higher_is_better else " " + cur.get("time_unit", "?")
        if not higher_is_better and cur.get("time_unit") != base.get(
                "time_unit"):
            sys.exit(f"bench_diff: {name}: time_unit changed "
                     f"({base.get('time_unit')} -> {cur.get('time_unit')}); "
                     "refusing to compare")
        delta = (cur[metric] / base[metric] - 1.0) * 100.0
        regressed = (-delta if higher_is_better else delta) > args.tolerance
        compared += 1
        if regressed:
            regressions.append(name)
        print(f"  {'!' if regressed else ' '} {name} [{metric}]: "
              f"{base[metric]:.4g} -> {cur[metric]:.4g}{unit} "
              f"({delta:+.1f}%) {'REGRESSION' if regressed else 'ok'}")

    if compared == 0:
        sys.exit("bench_diff: watched benchmarks never overlapped; "
                 "nothing was actually compared")
    if regressions:
        sys.exit(f"bench_diff: {len(regressions)} regression(s) beyond "
                 f"{args.tolerance:g}%: {', '.join(regressions)}")
    print(f"bench_diff: OK ({compared} benchmarks within tolerance)")


if __name__ == "__main__":
    main()
