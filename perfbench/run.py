#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload {trickle,service} --seed N \
        --seconds N --trace {0,1}

Run from the root of a checkout. The engine library and the benchmark
program are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) as an optimised build, then the program runs one workload.
The last line printed is the JSON result; its metric names and units are
checked against BENCHMARK.json. Exits non-zero, without a result line,
when the build fails, the run fails, its output does not match, or an
exact count differs from an earlier run of the same binary and seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run is stopped after this long so the command ends within 180 s; the
# build before it is not counted.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", str(build_dir), "--target",
                     "perfbench", "--parallel", "4"]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("building the benchmark failed: " + " ".join(command))
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def run(binary, args, work_dir):
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not end within {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"the run exited with code {child.returncode}")
    return json.loads(lines[-1])


def check(result, expected, trace):
    """Checks names and units against BENCHMARK.json. A traced run reports
    0 for the per-layer metrics of layers its workload bypasses."""
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, unit in expected.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name} has unit {metrics[name]['unit']}, expected {unit}")
    result["metrics"] = {name: metrics[name] for name in expected}
    return result


def check_exact_accesses(result, binary, args, work_dir):
    """trickle counts accesses over a fixed prefix of refreshes, so the same
    binary and seed must give the same accesses_per_mod in every run; a
    mismatch is a failure, not noise."""
    if args.trace or args.workload == "service":
        return
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    record = work_dir / f"accesses-{digest}-{args.workload}-{args.seed}.json"
    value = result["metrics"]["accesses_per_mod"]["value"]
    if record.exists():
        expected = json.loads(record.read_text())
        if expected != value:
            fail(f"accesses_per_mod {value!r} differs from {expected!r} "
                 f"measured earlier for seed {args.seed}")
    else:
        work_dir.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["trickle", "service"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    # A terminated wrapper still stops its child (the finally in run()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir / "perfbench")
    expected = expected_metrics(args.trace == 1)
    work_dir = build_dir / "perfbench-work"
    result = run(binary, args, work_dir)
    result = check(result, expected, args.trace == 1)
    if not result["correct"]:
        fail("the run reported incorrect outputs")
    check_exact_accesses(result, binary, args, work_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
