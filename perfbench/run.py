"""The qps benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload process is a closed loop
of one caller: the next op starts when the previous one has returned and
passed its gate.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run; either way the
last line of standard output is one JSON object.  The full record (all
samples, the environment and, when traced, every span) is written to
.perfbench/runs/.  Metric meanings are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent

# fresh processes whose set-up time setup_s is the median of; the set-up of
# verify-n6 and report-n15 includes a 14 s and a 24 s warm-up op
SETUP_RUNS = {"solve-n7": 3, "verify-n6": 1, "report-n15": 1, "oracle-n12": 3}

# one invocation must end within 180 s; leave room to report
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(Path("src").resolve()),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one fresh workload process; return its start time and its result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - started, 1.0), check=False, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """The highest percentile with at least 10 samples beyond it, or None."""
    k = len(samples)
    if k <= 10:
        return None
    return 100.0 * (k - 10) / k, sorted(samples)[k - 11]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(workload: str, op_counts: dict) -> list[str]:
    """Exact counts must be the same for every op of this run and of every
    earlier traced run of the same source in this checkout."""
    problems = []
    values = list(op_counts.values())
    for op, counts in op_counts.items():
        if counts != values[0]:
            problems.append(f"op {op} counts {counts} differ from {values[0]}")
    store = Path(".perfbench/counts") / f"{workload}-{source_digest()}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        if earlier != values[0]:
            problems.append(f"counts {values[0]} differ from an earlier run's {earlier}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(values[0], indent=1))
    return problems


def end_to_end(setups: list[float], main: dict) -> dict:
    samples = main["samples"]
    attempted = len(samples)
    passed = attempted - main["failed"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "ops_per_s": (passed / main["wall_s"], "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "ok_frac": (passed / attempted, "frac"),
    }


def per_layer(main: dict) -> dict:
    ops = len(main["traced"])
    metrics = {name: (total / ops, "s") for name, total in main["layer_times"].items()}
    for stage in ("bc", "inversion", "flag", "bcdag"):
        metrics[f"simulator.apply.{stage}_s"] = (
            sum(split[stage] for split in main["stages"]) / ops, "s")
    counts = next(iter(main["op_counts"].values()))
    for name, value in counts.items():
        metrics[name] = (value, "B" if name.endswith("bytes_computed") else "count")
    metrics["simulator.peak_alloc_mb"] = (main["peak_bytes"]["simulator"] / 1e6, "MB")
    metrics["poisson.peak_alloc_mb"] = (main["peak_bytes"]["poisson"] / 1e6, "MB")
    untraced = sum(main["untraced"]) / ops
    traced = sum(main["traced"]) / ops
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not Path("src/qps/__init__.py").is_file():
        print("error: no src/qps here; run from the root of a qps checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    problems = []
    try:
        started, main_result = run_child(args, "trace" if args.trace else "time", deadline)
        setups = [main_result["setup_end"] - started]
        warm_ok = [main_result["warmup_passed"]]
        if not args.trace:
            for _ in range(SETUP_RUNS[args.workload] - 1):
                started, extra = run_child(args, "setup", deadline)
                setups.append(extra["setup_end"] - started)
                warm_ok.append(extra["warmup_passed"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not all(warm_ok):
        problems.append("a warm-up op failed its gate")
    if main_result["failed"]:
        problems.append(f"{main_result['failed']} ops failed their gate")
    if main_result["self_test_missed"]:
        problems.append(f"gate self-test failed: {main_result['self_test_missed']}")

    if args.trace:
        problems += check_counts_repeat(args.workload, main_result["op_counts"])
        metrics = per_layer(main_result)
        attempted = main_result["attempted"]
    else:
        metrics = end_to_end(setups, main_result)
        attempted = len(main_result["samples"])
    failed = main_result["failed"]

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    if not args.trace:
        samples = main_result["samples"]
        print(f"{'op samples':32s} {len(samples)} (setup runs {len(setups)})")
        tail = tail_percentile(samples)
        if tail:
            print(f"{'op p%.0f (10 samples beyond)' % tail[0]:32s} {tail[1]:.6g} s")
    print(f"{'fail_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"{'environment':32s} {json.dumps(main_result['environment'])}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups_s": setups, "problems": problems,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        **{k: v for k, v in main_result.items() if k != "setup_end"},
    }
    out = Path(".perfbench/runs") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
