"""Command-line surface: demo, solve, verify, identities, report.

Exit codes: 0 success / all checks pass, 2 configuration error, 3 I/O
error, 4 verification or reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .builder import (
    PARALLEL,
    QpsConfig,
    QpsSolution,
    build_inversion_serial,
    build_qps,
    inversion_stage_circuit,
    solve,
)
from .circuit import Circuit, CostModel, Gate, count_resources
from .identities import (
    MAX_IDENTITY_N,
    inversion_identity_error,
    odd_layer_residual,
    sine_formula_residual,
)
from .poisson import (
    PRESETS,
    TridiagonalSystem,
    eigenvalue,
    preset_rhs,
    solve_classical,
    spectral_solve,
)
from .simulator import StateVector, apply, fidelity, inject_register

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

DEMO_B = (2.0 ** -0.5, 0.5, 0.5)
DEMO_EXPECTED = (0.552987, 0.674065, 0.489736)

SIM_BOUNDS = {"serial": (2, 6), "parallel": (3, 5)}


class ConfigError(Exception):
    pass


class InputError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cost_model() -> CostModel:
    try:
        return CostModel.from_env()
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise InputError(f"bad QPS_COST_MODEL file: {exc}") from exc


def _check_sim_bounds(n: int, mode: str):
    lo, hi = SIM_BOUNDS[mode]
    if not lo <= n <= hi:
        raise ConfigError(f"{mode} simulation supports n in [{lo}, {hi}], got {n}")


def _load_b(args, n: int) -> np.ndarray:
    size = 2**n - 1
    sources = [s for s in (args.preset, args.file, args.b) if s is not None]
    if len(sources) > 1:
        raise ConfigError("choose exactly one of --preset, --file, --b")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        return preset_rhs(args.preset, n)
    if args.file is not None:
        try:
            with open(args.file) as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
        except OSError as exc:
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
    if args.b is not None:
        try:
            vec = np.array([float(tok) for tok in args.b.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad --b list: {exc}") from exc
        if len(vec) != size:
            raise ConfigError(f"--b needs {size} comma-separated values, got {len(vec)}")
        return vec
    raise ConfigError("no right-hand side given: use --preset, --file, or --b")


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
        "resources": sol.resources.to_dict(),
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
    if args.mode == PARALLEL:
        raise ConfigError("the demo runs at n=2; parallel mode needs n >= 3")
    config = QpsConfig(n=2, mode="serial", ry_construction=args.ry,
                       cost_model=_cost_model())
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
    _check_sim_bounds(args.n, args.mode)
    config = QpsConfig(n=args.n, mode=args.mode, ry_construction=args.ry,
                       cost_model=_cost_model())
    b = _load_b(args, args.n)
    sol = solve(config, b)
    _emit_solution(args, config, sol, b)
    return EXIT_OK


def verification_checks(n_max: int = 4, seed: int = 0, trials: int = 10,
                        fault: bool = False) -> list[tuple[str, bool, str]]:
    """The invariant suites behind `qps verify`; returns (name, ok, detail) rows."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool, str]] = []

    worst = max(sine_formula_residual(n) for n in range(1, min(n_max, 12) + 1))
    checks.append(("sine-formula residual", worst <= 1e-9, f"max {worst:.2e}"))
    worst = max(odd_layer_residual(n) for n in range(1, min(n_max, 12) + 1))
    checks.append(("odd-layer residual", worst <= 1e-9, f"max {worst:.2e}"))
    worst = max(inversion_identity_error(n) for n in range(2, min(n_max, 12) + 1))
    checks.append(("inversion identity", worst <= 1e-12, f"max rel {worst:.2e}"))

    worst = 0.0
    for n in range(2, min(n_max, 6) + 1):
        audit = build_inversion_serial(n)
        if fault:
            gates = list(audit.gates)
            for pos, g in enumerate(gates):
                if g.kind == "ry":
                    gates[pos] = Gate.ry(g.angle + 0.1, g.targets, g.controls)
                    break
            audit = Circuit(audit.registers, gates)
        breg = audit.register("B")
        ones = (2 ** (2 * n - 2) - 1) << n
        for j in range(1, 2**n):
            amps = np.zeros(2**n)
            amps[j] = 1.0
            st = inject_register(StateVector.ground(audit.num_qubits), breg, amps)
            out = apply(st, audit)
            got = out.amplitudes[j + ones].real
            worst = max(worst, abs(got - 8.0 / eigenvalue(n, j)))
    checks.append(("amplitude audit", worst <= 1e-12, f"max abs {worst:.2e}"))

    worst_fid = 1.0
    worst_prob = 0.0
    for n in range(2, min(n_max, 6) + 1):
        for _ in range(trials):
            b = rng.standard_normal(2**n - 1)
            sol = solve(QpsConfig(n=n), b)
            worst_fid = min(worst_fid, sol.fidelity)
            b_hat = b / np.linalg.norm(b)
            v = solve_classical(TridiagonalSystem(N=2**n), b_hat)
            worst_prob = max(
                worst_prob, abs(sol.success_probability - 64.0 * float(v @ v))
            )
    checks.append(("end-to-end fidelity", worst_fid >= 1 - 1e-10,
                   f"min {worst_fid:.12f}"))
    checks.append(("success-probability identity", worst_prob <= 1e-10,
                   f"max abs {worst_prob:.2e}"))

    worst_eq = 1.0
    for n in range(3, min(n_max, 5) + 1):
        for _ in range(max(trials // 2, 3)):
            b = rng.standard_normal(2**n - 1)
            base = solve(QpsConfig(n=n), b)
            for mode, ry in ((PARALLEL, "bitwise"), ("serial", "semantic")):
                other = solve(QpsConfig(n=n, mode=mode, ry_construction=ry), b)
                worst_eq = min(worst_eq, fidelity(base.solution, other.solution))
    checks.append(("construction equivalence", worst_eq >= 1 - 1e-10,
                   f"min fidelity {worst_eq:.12f}"))

    worst_sp = 0.0
    for n in range(2, min(n_max, 6) + 1):
        b = rng.standard_normal(2**n - 1)
        direct = solve_classical(TridiagonalSystem(N=2**n), b)
        spectral = spectral_solve(n, b)
        worst_sp = max(
            worst_sp,
            float(np.linalg.norm(direct - spectral) / np.linalg.norm(direct)),
        )
    checks.append(("classical solver cross-check", worst_sp <= 1e-10,
                   f"max rel {worst_sp:.2e}"))
    return checks


def cmd_verify(args) -> int:
    if not 2 <= args.n_max <= 6:
        raise ConfigError(f"--n-max must be in [2, 6], got {args.n_max}")
    checks = verification_checks(n_max=args.n_max, seed=args.seed,
                                 fault=args.inject_fault)
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    print("verify:", "all checks passed" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_identities(args) -> int:
    if not 1 <= args.n_max <= MAX_IDENTITY_N:
        raise ConfigError(f"--n-max must be in [1, {MAX_IDENTITY_N}], got {args.n_max}")
    rows = []
    for n in range(1, args.n_max + 1):
        inv = inversion_identity_error(n) if 2 <= n <= 12 else None
        rows.append({
            "n": n,
            "sine_formula_residual": sine_formula_residual(n),
            "odd_layer_residual": odd_layer_residual(n),
            "inversion_max_rel_error": inv,
        })
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
    if not 2 <= args.n <= 15:
        raise ConfigError(f"report supports n in [2, 15], got {args.n}")
    config = QpsConfig(n=args.n, mode=args.mode, ry_construction=args.ry,
                       cost_model=_cost_model())
    cm = config.cost_model
    full = count_resources(build_qps(config, materialize_bc=False), cm)
    inv = count_resources(inversion_stage_circuit(config), cm)
    n = args.n
    record = {
        "n": n,
        "mode": config.mode,
        "ry_construction": config.ry_construction,
        "circuit": full.to_dict(),
        "inversion_stage": inv.to_dict(),
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

    def add_common(p, *outputs, mode=True):
        if mode:
            p.add_argument("--mode", choices=["serial", "parallel"], default="serial")
            p.add_argument("--ry", choices=["semantic", "bitwise"], default="bitwise")
        p.add_argument("--output", choices=["human", *outputs], default="human")

    p = sub.add_parser("demo", help="reproduce the 6-qubit n=2 demonstration")
    add_common(p, "json")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("solve", help="solve -v'' = b for a given right-hand side")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--preset", help=f"named b: {sorted(PRESETS)}")
    p.add_argument("--file", help="CSV file, one value per line, 2**n - 1 lines")
    p.add_argument("--b", help="inline comma-separated values")
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
    add_common(p, "json", mode=False)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
