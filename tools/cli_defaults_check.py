#!/usr/bin/env python3
"""Pins the `mpa serve` / `mpa forward` flag defaults the benchmark reads.

    python3 tools/cli_defaults_check.py

perfbench/run.py extracts the cli.get_int("<flag>", <default>) calls from
the bodies of cmd_serve and cmd_forward in tools/mpa_cli.cpp and compares
the benchmark's service configuration against them. A flag moved out of
those bodies (into a shared helper, say) would silently drop out of that
comparison; this check fails instead. It imports perfbench/run.py and
writes nothing under perfbench/. Exit 0 when the extracted defaults are
exactly the expected set.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (the benchmark wrapper whose contract is pinned)

EXPECTED = {
    "forward": {"down-after": 2, "idle-timeout-ms": 300000, "max-line": 0,
                "poll-ms": 250, "timeout-ms": 5000},
    "serve": {"arrays": 8, "cache": 512, "checkpoint-every": 25,
              "host_pool": True, "idle-timeout-ms": 300000,
              "max-inflight": 0, "max-jobs": 0, "max-line": 0,
              "no-warm": False, "pools": 1},
}


def main():
    got = run.cli_defaults()
    if got == EXPECTED:
        print("cli defaults: ok")
        return 0
    for daemon in sorted(set(got) | set(EXPECTED)):
        want, have = EXPECTED.get(daemon, {}), got.get(daemon, {})
        for key in sorted(set(want) | set(have)):
            if want.get(key) != have.get(key):
                print(f"cli defaults: {daemon} {key}: expected "
                      f"{want.get(key)!r}, extracted {have.get(key)!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
