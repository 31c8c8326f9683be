#!/usr/bin/env python3
"""Self-test of the mission-service benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it builds like run.py does).
Checks, with tiny runs:

1. every workload prints every BENCHMARK.json metric of its mode, with
   the declared unit, for --trace 0 and --trace 1, and the traced run
   writes a loadable Chrome trace;
2. a tampered results digest makes the next run of that seed fail;
3. a service configuration that drifts from the `mpa serve` defaults is
   reported;
4. in a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
Exit 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark wrapper under test)

TINY = ["--seconds", "1", "--quick"]


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                         "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def main():
    failures = []

    def expect(condition, what):
        print(f"selftest: {'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", workload, "--seed", "3", "--trace",
                          str(trace)] + TINY)
            result = result_of(proc)
            expect(proc.returncode == 0 and result is not None
                   and result["correct"],
                   f"{workload} trace {trace} runs and checks out")
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want,
                   f"{workload} trace {trace} prints every {kind} metric")
            if trace:
                path = os.path.join(run.build_root(), "traces",
                                    f"{workload}-seed3.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                expect(events and all(
                    {"mission", "span", "parent"} <= e["args"].keys()
                    for e in events), f"{workload} trace file has spans")

    store_path = os.path.join(run.build_root(), "perfbench-digests.json")
    with open(store_path) as f:
        store = json.load(f)
    tampered = {k: v for k, v in store.items()
                if "/serve_cold_small/3/trace0/" in k}
    for key in tampered:
        store[key] = "0" * 16
    with open(store_path, "w") as f:
        json.dump(store, f)
    proc = bench(["--workload", "serve_cold_small", "--seed", "3",
                  "--trace", "0"] + TINY)
    result = result_of(proc)
    expect(bool(tampered) and proc.returncode == 1 and result is not None
           and not result["correct"] and "results digest" in proc.stdout,
           "a tampered results digest is rejected")
    with open(store_path) as f:
        store = json.load(f)
    for key in tampered:
        store.pop(key, None)
    with open(store_path, "w") as f:
        json.dump(store, f)

    defaults = run.cli_defaults()
    drifted = json.loads(json.dumps(defaults))
    drifted["serve"]["arrays"] = defaults["serve"]["arrays"] + 1
    expect(run.config_drift(defaults, defaults) == []
           and len(run.config_drift(drifted, defaults)) == 1,
           "configuration drift from the mpa serve defaults is reported")

    bare = tempfile.mkdtemp(dir=run.build_root())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "serve_cold_small", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        expect(proc.returncode != 0 and result_of(proc) is None,
               "without the sources the benchmark fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
