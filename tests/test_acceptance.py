"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 6b and 6f measure honestly against their stated windows; see
README "Resource scaling caveats" for the measured values and why the
default cost model cannot reach those two windows.
"""

import time

import numpy as np
import pytest

from qps import verify
from qps.builder import QpsConfig, build_qps, inversion_stage_circuit, solve
from qps.circuit import count_resources
from qps.poisson import truncation_study
from qps.simulator import StateVector, apply, inject_register, postselect


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_demo_reproduction():
    start = time.perf_counter()
    sol = solve(QpsConfig(n=2), np.array([2**-0.5, 0.5, 0.5]))
    elapsed = time.perf_counter() - start
    diff = float(np.max(np.abs(sol.solution - [0.552987, 0.674065, 0.489736])))
    ok = _verdict(
        "1 demo-reproduction",
        diff <= 1e-6 and elapsed < 1.0,
        f"max diff {diff:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_sine_formula_suite():
    start = time.perf_counter()
    rows = verify.identity_rows(12)
    worst_eq5 = max(row["sine_formula_residual"] for row in rows)
    worst_layers = max(row["odd_layer_residual"] for row in rows)
    worst_inv = max(row["inversion_max_rel_error"] for row in rows[1:])
    elapsed = time.perf_counter() - start
    ok = _verdict(
        "2 sine-formula-suite",
        worst_eq5 <= 1e-9 and worst_layers <= 1e-9 and worst_inv <= 1e-12
        and elapsed < 10.0,
        f"eq5 {worst_eq5:.1e}, layers {worst_layers:.1e}, inversion {worst_inv:.1e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_amplitude_audit():
    start = time.perf_counter()
    worst = verify.amplitude_audit(range(2, 7))
    elapsed = time.perf_counter() - start
    ok = _verdict(
        "3 amplitude-audit",
        worst <= 1e-12 and elapsed < 300.0,
        f"max abs error {worst:.2e} over n=2..6 exhaustive, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_4_end_to_end_fidelity():
    worst_fid, worst_prob = verify.solve_sweep(range(2, 7), 50, np.random.default_rng(2024))
    ok = _verdict(
        "4 end-to-end-fidelity",
        worst_fid >= 1 - 1e-10 and worst_prob <= 1e-10,
        f"min fidelity {worst_fid:.12f}, max prob deviation {worst_prob:.1e}",
    )
    assert ok


def test_criterion_5_construction_equivalence():
    rng = np.random.default_rng(7)
    worst_fid = 1.0
    worst_leak = 0.0
    for n in (3, 4, 5):
        worst_fid = min(worst_fid, verify.construction_equivalence([n], 5, rng))
        # register C must come back to the ground state
        circ = build_qps(QpsConfig(n=n, mode="parallel"))
        amps = np.zeros(2**n, dtype=complex)
        amps[1:] = rng.standard_normal(2**n - 1)
        state = inject_register(
            StateVector.ground(circ.num_qubits), circ.register("B"),
            amps / np.linalg.norm(amps),
        )
        state = apply(state, circ)
        c = circ.register("C")
        leak = 1.0 - postselect(state, list(c.qubits), [0] * c.width).probability
        worst_leak = max(worst_leak, leak)
    ok = _verdict(
        "5 construction-equivalence",
        worst_fid >= 1 - 1e-10 and worst_leak <= 1e-12,
        f"min fidelity {worst_fid:.12f}, max C leakage {worst_leak:.1e}",
    )
    assert ok


def _loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_criterion_6a_serial_qubit_count():
    counts = {n: build_qps(QpsConfig(n=n), materialize_bc=False).num_qubits
              for n in range(2, 9)}
    ok = _verdict(
        "6a serial-qubits-3n",
        all(q == 3 * n for n, q in counts.items()) and counts[2] == 6,
        f"n=2 gives {counts[2]} qubits; all n=2..8 equal 3n",
    )
    assert ok


def test_criterion_6b_serial_gate_count_cubic_fit():
    ns = range(3, 9)
    counts = [
        count_resources(build_qps(QpsConfig(n=n), materialize_bc=False)).elementary_gates
        for n in ns
    ]
    slope = _loglog_slope(list(ns), counts)
    ok = _verdict(
        "6b serial-gates-cubic-slope",
        2.7 <= slope <= 3.3,
        f"counts {counts}, log-log slope {slope:.2f} vs 3.0 +/- 0.3",
    )
    assert ok


def test_criterion_6c_parallel_depth_quadratic_fit():
    ns = range(3, 9)
    depths = [
        count_resources(
            build_qps(QpsConfig(n=n, mode="parallel"), materialize_bc=False)
        ).depth_serial
        for n in ns
    ]
    slope = _loglog_slope(list(ns), depths)
    ok = _verdict(
        "6c parallel-depth-quadratic-slope",
        1.7 <= slope <= 2.3,
        f"depths {depths}, log-log slope {slope:.2f} vs 2.0 +/- 0.3",
    )
    assert ok


def test_criterion_6d_n2_gate_count_vs_paper():
    count = count_resources(
        build_qps(QpsConfig(n=2), materialize_bc=False)
    ).elementary_gates
    ok = _verdict(
        "6d n2-gate-count",
        45 <= count <= 180,
        f"{count} elementary gates vs paper's 90, factor-2 window [45, 180]",
    )
    assert ok


def test_criterion_6e_n15_serial_depth_vs_paper():
    inv = count_resources(inversion_stage_circuit(QpsConfig(n=15))).depth_serial
    ok = _verdict(
        "6e n15-serial-depth",
        4000 <= inv <= 16000,
        f"inversion-stage depth {inv} vs paper's ~8000, factor-2 window [4000, 16000]",
    )
    assert ok


def test_criterion_6f_n15_parallel_depth_vs_paper():
    inv = count_resources(
        inversion_stage_circuit(QpsConfig(n=15, mode="parallel"))
    ).depth_serial
    ok = _verdict(
        "6f n15-parallel-depth",
        900 <= inv <= 3600,
        f"inversion-stage depth {inv} vs paper's ~1800, factor-2 window [900, 3600]",
    )
    assert ok


def test_criterion_7_truncation_error_slope():
    rows = truncation_study("sin", range(3, 9))
    slope = _loglog_slope([2**n for n, _ in rows], [err for _, err in rows])
    ok = _verdict(
        "7 truncation-slope",
        abs(slope + 2.0) <= 0.1,
        f"log-log slope {slope:.3f} vs -2 +/- 0.1",
    )
    assert ok
