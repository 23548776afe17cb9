"""The paper's invariant suites, one implementation each, for `qps verify`,
`qps identities` and the acceptance tests.  Each suite returns its worst
case and the callers own the thresholds.  The solver is reached through
module attributes (`builder.build_qps`, `builder.solve_circuit`,
`builder.build_inversion_serial` and the `simulator` functions), so a patched
attribute sees every call.  A solve sweep builds each configuration once.
"""

from __future__ import annotations

import numpy as np

from . import bounds, builder, identities, poisson, simulator
from .circuit import Circuit, Gate

TRIALS = 10


def identity_rows(n_max: int) -> list[dict]:
    """The sine-identity residuals for n = 1..n_max; inversion error where its row accepts n."""
    bounds.check("identity residual", n_max)
    lo, hi = bounds.BOUNDS["inversion identity"]
    rows = []
    for n in range(1, n_max + 1):
        inv = identities.inversion_identity_error(n) if lo <= n <= hi else None
        rows.append({
            "n": n,
            "sine_formula_residual": identities.sine_formula_residual(n),
            "odd_layer_residual": identities.odd_layer_residual(n),
            "inversion_max_rel_error": inv,
        })
    return rows


def dense_branch_amplitudes(circ: Circuit) -> np.ndarray:
    """E = |1...1> amplitude left by each basis input |j> of B, indexed by j.

    No gate may target B, so the circuit is block-diagonal in B's value: one run
    on sum_j w|j> over a block of 4**k inputs, w = 2**-k, leaves w times branch
    j's amplitude at E = |1...1>, B = j (through their offsets), every other
    register |0>.  Scaling by a power of two is exact, so each branch reads
    bit-identically to a run on |j> alone.  One block holds all 2**n inputs for
    even n, two halves for odd n.
    """
    breg = circ.register("B")
    b_qubits = set(breg.qubits)
    for i, g in enumerate(circ.gates):
        if b_qubits.intersection(g.targets):
            raise RuntimeError(
                f"amplitude audit needs an inversion stage that never targets B; "
                f"gate {i} ({g.kind}) targets {g.targets}")
    e, n = circ.register("E"), breg.width
    index = ((2**e.width - 1) << e.offset) + (np.arange(2**n) << breg.offset)
    size, weight = 4 ** (n // 2), 2.0 ** -(n // 2)
    branch = np.empty(2**n)
    for start in range(0, 2**n, size):
        amps = np.zeros(2**n)
        amps[start:start + size] = weight
        state = simulator.inject_register(
            simulator.StateVector.ground(circ.num_qubits), breg, amps)
        out = simulator.apply(state, circ).amplitudes
        branch[start:start + size] = out[index[start:start + size]] / weight
    return branch


def amplitude_audit(ns, fault: bool = False) -> float:
    """Max |amplitude - 8/lambda_j| of E = |1...1> over every basis input |j> of B.

    fault perturbs the first rotation angle, to show that the audit bites.
    """
    worst = 0.0
    for n in ns:
        circ = builder.build_inversion_serial(n)
        if fault:
            gates = list(circ.gates)
            pos = next(i for i, g in enumerate(gates) if g.kind == "ry")
            gates[pos] = Gate.ry(gates[pos].angle + 0.1, gates[pos].targets,
                                 gates[pos].controls)
            circ = Circuit(circ.registers, gates)
        branch = dense_branch_amplitudes(circ)[1:]
        errors = np.abs(branch - 8.0 / poisson.eigenvalue(n, np.arange(1, 2**n)))
        worst = max(worst, float(errors.max()))
    return worst


def solve_sweep(ns, trials: int, rng) -> tuple[float, float]:
    """(min fidelity, max |P_success - 64 |A^-1 b_hat|^2|) over random b."""
    worst_fid = 1.0
    worst_prob = 0.0
    for n in ns:
        circuit = builder.build_qps(builder.QpsConfig(n=n))
        for _ in range(trials):
            b = rng.standard_normal(2**n - 1)
            sol = builder.solve_circuit(circuit, b)
            worst_fid = min(worst_fid, sol.fidelity)
            b_hat = b / np.linalg.norm(b)
            v = poisson.solve_classical(poisson.TridiagonalSystem(N=2**n), b_hat)
            worst_prob = max(
                worst_prob, abs(sol.success_probability - 64.0 * float(v @ v))
            )
    return worst_fid, worst_prob


def construction_equivalence(ns, trials: int, rng) -> float:
    """Min fidelity of parallel-bitwise and serial-semantic against serial-bitwise."""
    worst = 1.0
    for n in ns:
        circuits = [builder.build_qps(builder.QpsConfig(n, mode, ry)) for mode, ry in
                    (("serial", "bitwise"), ("parallel", "bitwise"), ("serial", "semantic"))]
        for _ in range(trials):
            b = rng.standard_normal(2**n - 1)
            base, *others = [builder.solve_circuit(circuit, b).solution for circuit in circuits]
            worst = min(worst, *(simulator.fidelity(base, other) for other in others))
    return worst


def checks(n_max: int, seed: int, fault: bool) -> list[tuple[str, bool | None, str]]:
    """The suites behind `qps verify` at n <= n_max; (name, ok, detail) rows, ok None on a skip."""
    bounds.check("serial simulation", n_max)
    rng = np.random.default_rng(seed)
    rows = identity_rows(n_max)
    eq5 = max(row["sine_formula_residual"] for row in rows)
    layers = max(row["odd_layer_residual"] for row in rows)
    inv = max(row["inversion_max_rel_error"] for row in rows[1:])
    audit = amplitude_audit(range(2, n_max + 1), fault)
    fid, prob = solve_sweep(range(2, n_max + 1), TRIALS, rng)
    lo, hi = bounds.BOUNDS["parallel simulation"]
    equiv = construction_equivalence(range(lo, min(n_max, hi) + 1), TRIALS // 2, rng)

    # two backward-stable solves differ by about cond(A) eps; the largest seen
    # was 0.76 cond(A) eps, at n=2 over 20000 Gaussian b
    worst_sp, sp_ok = 0.0, True
    for n in range(2, n_max + 1):
        b = rng.standard_normal(2**n - 1)
        direct = poisson.solve_classical(poisson.TridiagonalSystem(N=2**n), b)
        spectral = poisson.spectral_solve(n, b)
        rel = float(np.linalg.norm(direct - spectral) / np.linalg.norm(direct))
        worst_sp = max(worst_sp, rel)
        sp_ok &= rel <= 16 * poisson.condition_number(n) * poisson.EPS
    return [
        ("sine-formula residual", eq5 <= 1e-9, f"max {eq5:.2e}"),
        ("odd-layer residual", layers <= 1e-9, f"max {layers:.2e}"),
        ("inversion identity", inv <= 1e-12, f"max rel {inv:.2e}"),
        ("amplitude audit", audit <= 1e-12, f"max abs {audit:.2e}"),
        ("end-to-end fidelity", fid >= 1 - 1e-10, f"min {fid:.12f}"),
        ("success-probability identity", prob <= 1e-10, f"max abs {prob:.2e}"),
        ("construction equivalence", equiv >= 1 - 1e-10 if n_max >= lo else None,
         f"min fidelity {equiv:.12f}" if n_max >= lo else f"parallel mode needs n >= {lo}"),
        ("classical solver cross-check", sp_ok, f"max rel {worst_sp:.2e}"),
    ]
