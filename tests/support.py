"""Reference helpers that more than one test module uses, each written once.

Nothing here asserts: pytest rewrites asserts only in test modules, so each
helper returns what it found and the test that calls it does the checking.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

from qps import builder, simulator
from qps.circuit import Circuit, Gate
from qps.identities import sine_angle
from qps.real import is_integer
from qps.simulator import StateVector, apply, inject_register

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def random_orthogonal(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def odd_factor(j: int) -> tuple[int, int]:
    """(m, i) with j = 2**m * i, i odd and m maximal (the trailing-zero count)."""
    if not is_integer(j) or j < 1:
        raise ValueError(f"index must be a positive integer, got {j!r}")
    j = int(j)  # a numpy integer has no bit_length
    m = (j & -j).bit_length() - 1
    return m, j >> m


def inversion_angles(n: int, j: int) -> tuple[float, ...]:
    """The n-1 angles whose sine product squares to 8/lambda_j, one j at a time:
    the scalar reference for `identities.inversion_identity_error` and for the
    angles the semantic builder fires.

    The first m are the constant pi/6; the rest carry k = n-m down to 2.
    """
    if not is_integer(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not is_integer(j) or not 1 <= j <= 2**n - 1:
        raise ValueError(f"j must be an integer in [1, {2**n - 1}], got {j!r}")
    m, i = odd_factor(j)
    # the range is empty for j = 2**(n-1), where m = n-1
    return (math.pi / 6.0,) * m + tuple(sine_angle(k, i) for k in range(n - m, 1, -1))


def gate_fields(gates):
    """Each gate's fields, its matrix as nested lists; gates themselves compare by identity."""
    return [(g.kind, g.targets, g.controls, g.angle, g.label,
             None if g.matrix is None else g.matrix.tolist()) for g in gates]


def fail(*args, **kwargs):
    raise AssertionError("called past an out-of-range n")


class GateCall(NamedTuple):
    """One `simulator._apply_gate` call: the working tensor's shape, its axis
    map, the gate and the controls it runs under."""
    shape: tuple
    axis: dict
    gate: Gate
    controls: tuple


def record_gates(monkeypatch) -> list:
    """Every `simulator._apply_gate` call from here on, as a GateCall, in call order."""
    received = []
    apply_gate = simulator._apply_gate

    def recording(tensor, axis, gate, controls):
        received.append(GateCall(tensor.shape, dict(axis), gate, controls))
        apply_gate(tensor, axis, gate, controls)

    monkeypatch.setattr(simulator, "_apply_gate", recording)
    return received


def peak_bytes(call):
    """call() under tracemalloc: its result and the peak of the bytes it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_probe(code, env=None):
    """The stdout of code run by a fresh interpreter, which imports qps from
    this checkout and the test modules by name; env adds to os.environ."""
    path = os.pathsep.join((str(SRC), str(TESTS)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, **(env or {}), "PYTHONPATH": path})
    return result.stdout


def bits(out):
    """The bytes of an oracle's vector, or of a QpsSolution's two vectors and two floats."""
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return (out.solution.tobytes(), out.classical_reference.tobytes(),
            out.fidelity.hex(), out.success_probability.hex())


def solve_digest(cases) -> str:
    """SHA-256 of the solution, reference, fidelity and P_success bits of
    `builder.solve(config, b)` for each (config, b) of cases, in order."""
    digest = hashlib.sha256()
    for config, b in cases:
        solution, reference, fid, prob = bits(builder.solve(config, b))
        digest.update(solution + reference + f"{fid} {prob}".encode())
    return digest.hexdigest()


def basis_input(circuit, j) -> StateVector:
    """The ground state of circuit with register B at the basis state |j>."""
    b = circuit.register("B")
    amps = np.zeros(2**b.width)
    amps[j] = 1.0
    return inject_register(StateVector.ground(circuit.num_qubits), b, amps)


def all_ones_amplitude(circuit, state, j):
    """The amplitude at E = |1...1>, B = j and every other register |0>."""
    e, b = circuit.register("E"), circuit.register("B")
    return state.amplitudes[((2**e.width - 1) << e.offset) + (j << b.offset)]


def per_input_amplitudes(circuit, branches) -> dict:
    """The per-input reference audit: {j: the all-ones amplitude of one
    dense run of circuit on B = |j>} for each j of branches."""
    return {j: all_ones_amplitude(circuit, apply(basis_input(circuit, j), circuit), j)
            for j in branches}


def edit_gates(monkeypatch, name, edit):
    """Patch qps.builder.<name> to return its circuit with the gates edit(circuit) returns."""
    original = getattr(builder, name)

    def faulty(*args, **kwargs):
        circuit = original(*args, **kwargs)
        return Circuit(circuit.registers, edit(circuit))

    monkeypatch.setattr(builder, name, faulty)
