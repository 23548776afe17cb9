"""Command-line surface: demo, solve, verify, identities, report.

Exit codes: 0 success / all checks pass, 2 configuration error, 3 I/O
error, 4 verification or reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bounds, verify
from .builder import QpsConfig, QpsSolution, build_qps, solve
from .circuit import count_resources
from .poisson import PRESETS, preset_rhs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

DEMO_B = (2.0 ** -0.5, 0.5, 0.5)
DEMO_EXPECTED = (0.552987, 0.674065, 0.489736)


class InputError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load_b(args, n: int) -> np.ndarray:
    size = 2**n - 1
    if args.preset is not None:
        return preset_rhs(args.preset, n)
    if args.file is not None:
        try:
            with open(args.file) as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read b file: {exc}") from exc
        try:
            vec = np.array([float(ln) for ln in lines])
        except ValueError as exc:
            raise InputError(f"bad value in b file: {exc}") from exc
        if len(vec) != size:
            raise InputError(
                f"b file must hold exactly {size} values (one per line), got {len(vec)}"
            )
        return vec
    try:
        vec = np.array([float(tok) for tok in args.b.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad --b list: {exc}") from exc
    if len(vec) != size:
        raise ValueError(f"--b needs {size} comma-separated values, got {len(vec)}")
    return vec


def _solution_record(config: QpsConfig, sol: QpsSolution, b: np.ndarray) -> dict:
    return {
        "config": {
            "n": config.n,
            "mode": config.mode,
            "ry_construction": config.ry_construction,
            "b": [repr(x) for x in b.tolist()],
        },
        "n": config.n,
        "solution": sol.solution.tolist(),
        "reference": sol.classical_reference.tolist(),
        "fidelity": sol.fidelity,
        "success_probability": sol.success_probability,
        "resources": asdict(sol.resources),
    }


def _emit_solution(args, config: QpsConfig, sol: QpsSolution, b: np.ndarray):
    if args.output == "json":
        print(json.dumps(_solution_record(config, sol, b), indent=2))
    elif args.output == "csv":
        for value in sol.solution:
            print(repr(float(value)))
    else:
        print(f"n={config.n} mode={config.mode} ry={config.ry_construction}")
        print("solution:", " ".join(_fmt(v) for v in sol.solution))
        print("classical:", " ".join(_fmt(v) for v in sol.classical_reference))
        print(f"fidelity: {sol.fidelity:.12f}")
        print(f"success probability: {_fmt(sol.success_probability)}")
        r = sol.resources
        print(
            f"resources: {r.qubits} qubits, {r.elementary_gates} elementary gates, "
            f"depth {r.depth_serial}"
        )


def cmd_demo(args) -> int:
    config = QpsConfig(n=2, mode="serial", ry_construction=args.ry)
    b = np.array(DEMO_B)
    sol = solve(config, b)
    expected = np.array(DEMO_EXPECTED)
    diff = float(np.max(np.abs(sol.solution - expected)))
    if args.output == "json":
        record = _solution_record(config, sol, b)
        record["expected"] = list(DEMO_EXPECTED)
        record["max_abs_difference"] = diff
        print(json.dumps(record, indent=2))
    else:
        print("demo: n=2, b = (1/sqrt2, 1/2, 1/2)")
        print("solution:", " ".join(_fmt(v) for v in sol.solution))
        print("expected:", " ".join(_fmt(v) for v in expected))
        print(f"max abs difference: {diff:.3e}")
        print(f"success probability: {_fmt(sol.success_probability)}")
        print(f"resources: {sol.resources.qubits} qubits, "
              f"{sol.resources.elementary_gates} elementary gates")
    return EXIT_OK if diff <= 1e-6 else EXIT_VERIFY


def cmd_solve(args) -> int:
    bounds.check(f"{args.mode} simulation", args.n)
    config = QpsConfig(n=args.n, mode=args.mode, ry_construction=args.ry)
    b = _load_b(args, args.n)
    sol = solve(config, b)
    _emit_solution(args, config, sol, b)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    checks = verify.checks(args.n_max, args.seed, args.inject_fault)
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok is None or ok
        print(f"{name:<{width}}  {'SKIP' if ok is None else 'PASS' if ok else 'FAIL'}  {detail}")
    print("verify:", "all checks passed" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_identities(args) -> int:
    rows = verify.identity_rows(args.n_max)
    if args.output == "json":
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'n':>3} {'eq5-residual':>14} {'layers-residual':>16} {'inversion-max':>14}")
        for row in rows:
            inv = row["inversion_max_rel_error"]
            inv_str = "-" if inv is None else format(inv, ".3e")
            print(f"{row['n']:>3} {row['sine_formula_residual']:>14.3e} "
                  f"{row['odd_layer_residual']:>16.3e} {inv_str:>14}")
    return EXIT_OK


def cmd_report(args) -> int:
    bounds.check("report", args.n)
    config = QpsConfig(n=args.n, mode=args.mode, ry_construction=args.ry)
    circuit = build_qps(config, materialize_bc=False)
    full = count_resources(circuit)
    inv = count_resources(circuit, "inversion")
    n = args.n
    record = {
        "n": n,
        "mode": config.mode,
        "ry_construction": config.ry_construction,
        "circuit": asdict(full),
        "inversion_stage": asdict(inv),
        "paper": {
            "qubits_3n": 3 * n,
            "qubits_3n_plus_1": 3 * n + 1,
            "gates_five_thirds_n3": round(5 / 3 * n**3, 1),
            "parallel_depth_10n2": 10 * n * n,
        },
    }
    if args.output == "json":
        print(json.dumps(record, indent=2))
    else:
        print(f"n={n} mode={config.mode} ry={config.ry_construction}")
        print(f"qubits: {full.qubits}  (3n = {3 * n}, with decomposition ancilla {3 * n + 1})")
        print(f"elementary gates: {full.elementary_gates}  "
              f"(paper 5/3 n^3 = {record['paper']['gates_five_thirds_n3']})")
        print(f"depth: {full.depth_serial}  (IR layering {full.depth_native})")
        print(f"inversion stage: {inv.elementary_gates} gates, depth {inv.depth_serial}  "
              f"(paper parallel target 10 n^2 = {10 * n * n})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qps",
        description="Amplitude-based quantum Poisson solver (1D Dirichlet).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *outputs, mode=True, ry=True):
        if mode:
            p.add_argument("--mode", choices=["serial", "parallel"], default="serial")
        if ry:
            p.add_argument("--ry", choices=["semantic", "bitwise"], default="bitwise")
        p.add_argument("--output", choices=["human", *outputs], default="human")

    p = sub.add_parser("demo", help="reproduce the 6-qubit n=2 demonstration")
    add_common(p, "json", mode=False)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("solve", help="solve -v'' = b for a given right-hand side")
    p.add_argument("--n", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help=f"named b: {sorted(PRESETS)}")
    source.add_argument("--file", help="CSV file, one value per line, 2**n - 1 lines")
    source.add_argument("--b", help="inline comma-separated values")
    add_common(p, "json", "csv")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="test hook: perturb one rotation angle")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="tabulate the sine-identity residuals")
    p.add_argument("--n-max", type=int, default=12)
    add_common(p, "json", mode=False, ry=False)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("report", help="resource report (construction only)")
    p.add_argument("--n", type=int, required=True)
    add_common(p, "json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
