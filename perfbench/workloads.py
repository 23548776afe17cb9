"""The four benchmark workloads and the correctness gate of each op.

A workload is three functions: ``make_input(rng)`` draws one op's inputs
from a seeded generator, ``run(inputs)`` is the op itself (calls into the
public qps API and nothing else), and ``check(inputs, output)`` is the
gate every op passes through; a False or an exception counts the op as
failed.  ``self_test()`` feeds each gate a faulted output and reports any
gate that let it through.

Every workload calls qps through module attributes (``builder.solve``, not
a name imported early), so the tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from qps import builder, cli, poisson

FROZEN_COUNTS = json.loads(
    (Path(__file__).resolve().parent / "report_counts.json").read_text()
)["reports"]

ORACLE_SIZES = (10, 11, 12)
IDENTITIES_N_MAX = 14
TOL = 1e-10


class Workload(NamedTuple):
    make_input: Callable
    run: Callable
    check: Callable


def cli_call(argv: list[str]) -> tuple[int, str]:
    """qps.cli.main with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def tridiagonal_matvec(v: np.ndarray) -> np.ndarray:
    """A v for A = N^2 tridiag(-1, 2, -1), N = len(v) + 1, in O(N)."""
    out = 2.0 * v
    out[:-1] -= v[1:]
    out[1:] -= v[:-1]
    return float(len(v) + 1) ** 2 * out


def residual_ok(v: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.linalg.norm(tridiagonal_matvec(v) - b) <= TOL * np.linalg.norm(b))


# solve-n7: one dense 21-qubit solve; the simulator does ~95% of the work.

def solve_input(rng):
    return rng.standard_normal(2**7 - 1)


def solve_run(b):
    return builder.solve(builder.QpsConfig(n=7), b)


def solve_check(b, sol) -> bool:
    b_hat = b / np.linalg.norm(b)
    n = (len(b) + 1).bit_length() - 1
    v = poisson.solve_classical(poisson.TridiagonalSystem(N=2**n), b_hat)
    if not residual_ok(v, b_hat):
        return False
    x = np.asarray(sol.solution, dtype=float)
    fid = float(x @ v) ** 2 / (float(x @ x) * float(v @ v))
    return fid >= 1 - TOL and abs(sol.success_probability - 64.0 * float(v @ v)) <= TOL


# verify-n6: the `qps verify` suites, many small 16-18 qubit simulations.

def verify_input(rng):
    return str(int(rng.integers(2**31)))


def verify_run(seed: str):
    return cli_call(["verify", "--n-max", "6", "--seed", seed])


def verify_check(seed, result) -> bool:
    return result[0] == 0


# report-n15: construction and resource counting only, no simulation.  The
# seed fixes the order of the sweep; the work is the same for every seed.

REPORT_SWEEP = [
    ["report", "--n", str(n), "--mode", mode, "--ry", ry, "--output", "json"]
    for n in range(2, 16)
    for mode in ("serial", "parallel")
    if mode == "serial" or n >= 3
    for ry in ("bitwise", "semantic")
]
IDENTITIES_ARGV = ["identities", "--n-max", str(IDENTITIES_N_MAX), "--output", "json"]


def report_input(rng):
    argvs = REPORT_SWEEP + [IDENTITIES_ARGV]
    return [argvs[i] for i in rng.permutation(len(argvs))]


def report_run(argvs):
    return [cli_call(argv) for argv in argvs]


def report_record_ok(argv, record) -> bool:
    frozen = FROZEN_COUNTS[f"{argv[2]}/{argv[4]}/{argv[6]}"]
    return all(
        record[section][field] == value
        for section, counts in frozen.items()
        for field, value in counts.items()
    )


def identities_rows_ok(rows) -> bool:
    if [row["n"] for row in rows] != list(range(1, IDENTITIES_N_MAX + 1)):
        return False
    return all(
        row["sine_formula_residual"] <= 1e-9
        and row["odd_layer_residual"] <= 1e-9
        and (row["inversion_max_rel_error"] is None
             or row["inversion_max_rel_error"] <= 1e-12)
        for row in rows
    )


def report_check(argvs, results) -> bool:
    if len(results) != len(argvs):
        return False
    for argv, (rc, text) in zip(argvs, results):
        if rc != 0:
            return False
        parsed = json.loads(text)
        ok = (identities_rows_ok(parsed) if argv[0] == "identities"
              else report_record_ok(argv, parsed))
        if not ok:
            return False
    return True


# oracle-n12: the classical reference solvers at the sizes the branch
# backend targets; only qps.poisson works here.

def oracle_input(rng):
    return {n: rng.standard_normal(2**n - 1) for n in ORACLE_SIZES}


def oracle_run(bs):
    return {
        n: (poisson.solve_classical(poisson.TridiagonalSystem(N=2**n), b),
            poisson.spectral_solve(n, b))
        for n, b in bs.items()
    }


def oracle_check(bs, results) -> bool:
    for n, b in bs.items():
        thomas, spectral = results[n]
        if not residual_ok(thomas, b):
            return False
        if np.linalg.norm(thomas - spectral) > TOL * np.linalg.norm(thomas):
            return False
    return True


WORKLOADS = {
    "solve-n7": Workload(solve_input, solve_run, solve_check),
    "verify-n6": Workload(verify_input, verify_run, verify_check),
    "report-n15": Workload(report_input, report_run, report_check),
    "oracle-n12": Workload(oracle_input, oracle_run, oracle_check),
}


def self_test() -> list[str]:
    """Feed every gate a faulted op; return the faults a gate let through.

    Uses small sizes so it costs well under a second.  Each gate is also
    shown a sound output first, so a gate that rejects everything fails too.
    """
    missed = []

    def expect(name, gate, inputs, output, want):
        try:
            got = gate(inputs, output)
        except Exception:
            got = False
        if got != want:
            missed.append(name)

    expect("verify passes", verify_check, "0",
           cli_call(["verify", "--n-max", "2", "--seed", "0"]), True)
    expect("verify --inject-fault", verify_check, "0",
           cli_call(["verify", "--n-max", "2", "--seed", "0", "--inject-fault"]), False)

    b = np.random.default_rng(0).standard_normal(2**3 - 1)
    sol = builder.solve(builder.QpsConfig(n=3), b)
    bent = sol.solution.copy()
    bent[0] += 1e-4
    expect("solve passes", solve_check, b, sol, True)
    expect("perturbed solution", solve_check, b,
           dataclasses.replace(sol, solution=bent), False)
    expect("perturbed success probability", solve_check, b,
           dataclasses.replace(sol, success_probability=sol.success_probability + 1e-8),
           False)

    argv = REPORT_SWEEP[0]
    record = json.loads(cli_call(argv)[1])
    expect("report passes", report_check, [argv], [(0, json.dumps(record))], True)
    record["circuit"]["elementary_gates"] += 1
    expect("altered report count", report_check, [argv], [(0, json.dumps(record))], False)
    anchors = [FROZEN_COUNTS[f"{n}/serial/bitwise"]["circuit"]["elementary_gates"]
               for n in range(3, 9)]
    if anchors != [228, 464, 780, 1188, 1696, 2312] or [
        FROZEN_COUNTS[f"15/{mode}/bitwise"]["inversion_stage"]["depth_serial"]
        for mode in ("serial", "parallel")
    ] != [8988, 4464]:
        missed.append("frozen report counts")

    bs = {4: np.random.default_rng(0).standard_normal(2**4 - 1)}
    good = oracle_run(bs)
    thomas, spectral = good[4]
    expect("oracle passes", oracle_check, bs, good, True)
    expect("perturbed spectral solve", oracle_check, bs,
           {4: (thomas, spectral * (1 + 1e-6))}, False)
    bent = thomas.copy()
    bent[1] += 1e-6 * np.abs(thomas).max()
    # both solvers agree on the bent vector, so only the residual can catch it
    expect("perturbed Thomas solve", oracle_check, bs, {4: (bent, bent)}, False)
    return missed
