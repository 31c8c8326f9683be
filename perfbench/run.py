#!/usr/bin/env python3
"""Mission-service benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script

1. builds perfbench/ (a CMake package that compiles the repository's
   libraries and the benchmark binary) into $CARGO_TARGET_DIR, default
   .bench_build, under the checkout;
2. runs the binary for one workload and seed (see perfbench/README.md);
3. checks that the service configuration the binary printed equals the
   defaults `mpa serve` / `mpa forward` set in tools/mpa_cli.cpp;
4. checks that the results digest of this (workload, seed) equals the one
   an earlier run of the same binary recorded;
5. prints, as the last stdout line, one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics are
   BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer ones
   (and the Chrome trace file lands under <build dir>/traces/).

Exit 0 when everything checked out, 1 on a correctness failure (the
result line is still printed), 2 when the benchmark could not run at all
(no result line).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(target, "perfbench")
    log_path = os.path.join(target, "perfbench-build.log")
    os.makedirs(target, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                die(f"build failed ({' '.join(step[:2])}); log in {log_path}")
    return os.path.join(build_dir, "mpa_perfbench")


def function_body(source, signature):
    start = source.find(signature)
    if start < 0:
        die(f"tools/mpa_cli.cpp has no `{signature}`")
    depth = 0
    for i in range(source.index("{", start), len(source)):
        depth += {"{": 1, "}": -1}.get(source[i], 0)
        if depth == 0:
            return source[start:i + 1]
    die(f"unbalanced body for `{signature}`")


def cli_defaults():
    """The flag defaults cmd_serve / cmd_forward give their configs."""
    path = os.path.join(ROOT, "tools", "mpa_cli.cpp")
    if not os.path.exists(path):
        die("no tools/mpa_cli.cpp: run from the root of a source checkout")
    with open(path) as f:
        source = f.read()
    flag = re.compile(r'cli\.get_int\(\s*"([a-z-]+)"\s*,\s*([0-9\']+)\s*\)')
    defaults = {}
    for daemon, signature in (("serve", "int cmd_serve(const Cli& cli)"),
                              ("forward", "int cmd_forward(const Cli& cli)")):
        body = function_body(source, signature)
        values = {k: int(v.replace("'", "")) for k, v in flag.findall(body)}
        values.pop("port", None)
        if daemon == "serve":
            wired = r"config\.pool\.host_pool\s*=\s*&host_pool"
            values["host_pool"] = bool(
                re.search(r"ThreadPool host_pool;", body)
                and re.search(wired, body))
            values["no-warm"] = False  # a bare flag, off unless given
        defaults[daemon] = values
    return defaults


def config_drift(printed, defaults):
    """Differences between the binary's effective config and the CLI's."""
    drift = []
    for daemon, expected in defaults.items():
        actual = printed.get(daemon, {})
        for key, value in sorted(expected.items()):
            if actual.get(key) != value:
                drift.append(f"{daemon} {key}: benchmark runs "
                             f"{actual.get(key)!r}, mpa {daemon} defaults to "
                             f"{value!r}")
    return drift


def check_digest(target, binary, args, result):
    """Records the digest of (binary, workload, seed, trace) on first
    sight and compares against it afterwards; returns an error or None."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    store_path = os.path.join(target, "perfbench-digests.json")
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as f:
            store = json.load(f)
    key = (f"{build_id}/{args.workload}/{args.seed}/trace{args.trace}/"
           f"{result['digest_missions']}")
    digest = result["digest"]
    if key in store and store[key] != digest:
        return (f"results digest {digest} differs from {store[key]} recorded "
                f"by an earlier run of seed {args.seed}")
    store[key] = digest
    with open(store_path + ".tmp", "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(store_path + ".tmp", store_path)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The self-test's tiny run; never used for measurements.
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        die("no BENCHMARK.json at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    defaults = cli_defaults()

    target = build_root()
    binary = build(target)
    tmp = os.path.join(target, "tmp")
    traces = os.path.join(target, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp]
    if args.trace:
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.quick:
        command.append("--quick")

    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode not in (0, 1) or not lines:
        die(f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])

    errors = []
    printed = result.get("config", {})
    errors += config_drift(printed, defaults)
    digest_error = check_digest(target, binary, args, result)
    if digest_error:
        errors.append(digest_error)
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            errors.append(f"metric {metric['name']} in {got['unit']}, "
                          f"BENCHMARK.json says {metric['unit']}")
        else:
            metrics[metric["name"]] = {"value": got["value"],
                                       "unit": got["unit"]}
    for error in errors:
        print(f"perfbench: FAIL {error}")
    correct = bool(result["correct"]) and not errors
    print(f"perfbench: {'ok' if correct else 'FAILED'} in "
          f"{time.monotonic() - started:.1f} s, digest {result['digest']}")
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]) + len(errors),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
