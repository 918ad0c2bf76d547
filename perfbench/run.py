#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <lookup|ingest|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) built offline in release mode against the
repository's crates; CARGO_TARGET_DIR, when set, names the build
directory (relative paths are taken from the repository root), and
.bench_build is used otherwise. The program's standard output is passed
through; its last line is the JSON result, which is checked here against
the metric lists in BENCHMARK.json.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def check_result(line, trace):
    """Whether the result line carries exactly the metrics BENCHMARK.json
    declares for this mode, with their units and finite values."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        return f"metrics {sorted(metrics)} differ from BENCHMARK.json"
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            return f"{m['name']}: unit {got['unit']}, declared {m['unit']}"
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            return f"{m['name']}: value {got['value']!r}"
    return None


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail(f"build failed with code {build.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run failed: {e}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        return fail("no output")
    try:
        problem = check_result(lines[-1], trace)
    except (OSError, ValueError, KeyError, TypeError) as e:
        problem = f"unreadable result or BENCHMARK.json: {e}"
    if problem:
        return fail(problem)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
