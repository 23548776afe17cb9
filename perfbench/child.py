"""One workload in one fresh process; prints one JSON line and exits.

  --mode setup   import, make the first inputs, run the warm-up op, stop.
  --mode time    then time ops, untraced, until --seconds have passed.
  --mode trace   then run op pairs on the same inputs, once untraced and
                 once traced, until --seconds have passed.

Launched by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread caps set to 1.  Op i draws its inputs from
numpy.random.default_rng([seed, i]); op 0 is the warm-up.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def guarded(workload, inputs, context=contextlib.nullcontext()):
    """Run one op inside ``context``, then its gate; return (seconds, output, passed)."""
    t0 = time.perf_counter()
    try:
        with context:
            output = workload.run(inputs)
    except Exception as exc:
        print(f"op raised {exc!r}", file=sys.stderr)
        return time.perf_counter() - t0, None, False
    seconds = time.perf_counter() - t0
    try:
        passed = bool(workload.check(inputs, output))
    except Exception as exc:
        print(f"gate raised {exc!r}", file=sys.stderr)
        passed = False
    return seconds, output, passed


def timed_loop(workload, inputs_for, seconds):
    samples, failed = [], 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        i += 1
        dt, _, passed = guarded(workload, inputs_for(i))
        samples.append(dt)
        failed += not passed
    return {"samples": samples, "failed": failed,
            "wall_s": time.perf_counter() - start}


def traced_loop(workload, inputs_for, seconds, stage_split):
    import qps.simulator
    from tracing import MEMORY_TRACKED, Tracer, staged_apply

    tracer = Tracer(capture_apply=stage_split)
    untraced, traced, stages = [], [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        i += 1
        inputs = inputs_for(i)
        # alternate which side goes first so neither always meets warm caches
        for traced_side in ((False, True) if i % 2 else (True, False)):
            if traced_side:
                dt, _, passed = guarded(workload, inputs, tracer.active(i))
                traced.append(dt)
            else:
                dt, _, passed = guarded(workload, inputs)
                untraced.append(dt)
            failed += not passed
        if stage_split:
            state, circuit, whole = tracer.captured
            tracer.captured = None
            stages.append(staged_apply(state, circuit, whole, qps.simulator.apply))
    # one more op, under tracemalloc, for the peak allocations
    memory = Tracer(track_memory=True)
    attempted = len(untraced) + len(traced)
    if any(span[0].split(".")[0] in MEMORY_TRACKED for span in tracer.spans):
        failed += not guarded(workload, inputs_for(1), memory.active(0))[2]
        attempted += 1
    return {
        "untraced": untraced, "traced": traced, "attempted": attempted, "failed": failed,
        "stages": stages, "layer_times": tracer.layer_times(),
        "op_counts": tracer.op_counts(), "peak_bytes": memory.peak_bytes,
        "spans": tracer.spans,
    }


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_per_instance": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    import numpy as np
    import qps

    src = (Path.cwd() / "src").resolve()
    if Path(qps.__file__).resolve().parent.parent != src:
        sys.exit(f"qps imported from {qps.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]

    def inputs_for(i):
        return workload.make_input(np.random.default_rng([args.seed, i]))

    _, _, warmup_passed = guarded(workload, inputs_for(0))
    result = {"setup_end": time.monotonic(), "warmup_passed": warmup_passed}
    if args.mode == "time":
        result.update(timed_loop(workload, inputs_for, args.seconds))
        # ru_maxrss is KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    elif args.mode == "trace":
        result.update(traced_loop(workload, inputs_for, args.seconds,
                                  stage_split=args.workload == "solve-n7"))
    if args.mode != "setup":
        result["self_test_missed"] = workloads.self_test()
        result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
