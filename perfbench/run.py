#!/usr/bin/env python3
"""Pipeline benchmark entry point: builds perfbench/remap_bench from source
and runs one workload of it.

    python3 perfbench/run.py --workload freeze-dive --seed 1 --seconds 35 \
        --trace 0 [--spec-seed N]

Run it from the repository root. The build tree goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory. --seed permutes the order
the designs are remapped in; --spec-seed re-derives the design set itself
(0, the default, keeps the Table-I spec seeds). Per-design lines go to
stderr; the last line of stdout is the result object. A failed build, a
failed or timed-out run, or a malformed result exits non-zero without
printing one.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def build(build_dir):
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "remap_bench", "-j", "4"])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit(f"build step failed ({code}): {' '.join(cmd)}")
    return build_dir / "remap_bench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this trace mode."""
    spec_path = Path.cwd() / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spec-seed", type=int, default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir.resolve())

    # A fixed build id keeps the event-log header from shelling out to git.
    env = dict(os.environ, CGRAF_GIT_SHA="perfbench")
    cmd = [str(binary), "--workload", args.workload,
           "--order-seed", str(args.seed), "--spec-seed", str(args.spec_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env,
                        text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"remap_bench did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.exit(f"remap_bench exited with {code}")

    lines = out.strip().splitlines()
    if not lines:
        sys.exit("remap_bench printed no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.exit("metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ want)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
