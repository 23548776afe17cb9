"""Constructs the full solver circuit and runs the end-to-end pipeline.

Stages (on registers B, E, Anc, BCaux, plus C in parallel mode):

  1. "bc", basis conversion: a sine-transform block on B mapping the
     operator's eigenvectors to computational basis states;
  2. "inversion", eigenvalue inversion: controlled rotation pairs loading
     the sine factors of 8/lambda_j onto register E, so the E = |1...1>
     amplitude of branch |j> is exactly 8/lambda_j;
  3. "flag": a NOT on Anc controlled by every E qubit (the success flag);
  4. "bcdag": uncompute of the basis conversion.

Postselecting Anc = 1 collapses B onto the normalized solution direction.

Two interchangeable inversion constructions share one slot-term table:
`_slot_terms` lists the (angle, local B controls) of every rotation pair
loading slot s of module m (indices j with exactly m trailing zero bits),
and one emitter turns the terms into RY pairs on the slot's E pair.
"semantic" is the reference: one multi-controlled term per local bit
pattern, with the exact angle.  "bitwise" writes each slot angle as a
signed linear function of the index bits, one singly-locally-controlled
term per bit; sign flips only touch the pair cross terms, which never reach
the postselected branch, so the two agree on everything observable.  A
bitwise module with at least three terms routes its wide control pattern
through Anc (free until the flag) with a pair of multi-controlled NOTs,
which is cheaper than widening every rotation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, identities
from .circuit import Circuit, Gate, QubitRegister, ResourceReport, count_resources
from .poisson import TridiagonalSystem, solve_classical
from .simulator import StateVector, apply, extract_register, fidelity, inject_register, postselect

SERIAL = "serial"
PARALLEL = "parallel"
SEMANTIC = "semantic"
BITWISE = "bitwise"


@dataclass(frozen=True)
class QpsConfig:
    n: int
    mode: str = SERIAL
    ry_construction: str = BITWISE

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.mode not in (SERIAL, PARALLEL):
            raise ValueError(f"mode must be 'serial' or 'parallel', got {self.mode!r}")
        if self.ry_construction not in (SEMANTIC, BITWISE):
            raise ValueError(
                f"ry_construction must be 'semantic' or 'bitwise', got {self.ry_construction!r}"
            )
        if self.mode == PARALLEL and self.n < 3:
            raise ValueError("parallel mode requires n >= 3 (register C needs width >= 1)")


@dataclass(frozen=True)
class QpsSolution:
    solution: np.ndarray
    success_probability: float
    resources: ResourceReport
    classical_reference: np.ndarray
    fidelity: float


def standard_registers(n: int, parallel: bool = False) -> tuple[QubitRegister, ...]:
    """B (n), E (2n-2), Anc, BCaux; parallel mode appends C (n-2).

    Totals 3n qubits serial and 4n-2 parallel.  BCaux is the inert
    embedding qubit of the basis-conversion accounting.
    """
    regs = [
        QubitRegister("B", n, 0),
        QubitRegister("E", 2 * n - 2, n),
        QubitRegister("Anc", 1, 3 * n - 2),
        QubitRegister("BCaux", 1, 3 * n - 1),
    ]
    if parallel:
        regs.append(QubitRegister("C", n - 2, 3 * n))
    return tuple(regs)


def bc_matrix(n: int) -> np.ndarray:
    """Basis-conversion unitary: rows 1..N-1 are the eigenvectors, row 0 = e_0."""
    N = 2**n
    M = np.zeros((N, N))
    M[0, 0] = 1.0
    idx = np.arange(1, N)
    M[1:, 1:] = np.sqrt(2.0 / N) * np.sin(np.outer(idx, idx) * np.pi / N)
    return M


def build_bc(n: int, materialize: bool = True) -> Gate:
    """The basis-conversion block; counting-only (matrix None) unless materialized."""
    if materialize or n < 2:
        bounds.check("dense BC block", n)
    matrix = bc_matrix(n) if materialize else None
    return Gate.block(matrix, targets=tuple(range(n)), label="BC")


def _global_pattern(layout: Circuit, m: int) -> tuple[tuple[int, bool], ...]:
    b = layout.register("B")
    return tuple((b.qubit(t), False) for t in range(m)) + ((b.qubit(m), True),)


def _slot_terms(layout: Circuit, n: int, m: int, s: int, ry_construction: str):
    """(angle, local B controls) of every rotation pair loading slot s of module m.

    Slot s >= m carries k = n-s, driven by bits 1..width of the odd part;
    the top slot k = n-m has only n-m-1 significant bits available.
    """
    if s < m:
        return [(math.pi / 3.0, ())]
    b = layout.register("B")
    k = n - s
    width = min(k, n - m - 1)
    if ry_construction == SEMANTIC:
        # one exact multi-controlled term per local bit pattern; product()
        # varies its last item fastest, so bit r of the pattern lands on B[m+1+r]
        qubits = [b.qubit(m + 1 + r) for r in range(width)]
        patterns = itertools.product((False, True), repeat=width)
        return [(2.0 * identities.sine_angle(k, 1 + 2 * p), tuple(zip(qubits, reversed(bits))))
                for p, bits in enumerate(patterns)]
    # bitwise: the angle as a signed linear function of the index bits
    return [(math.pi - math.pi / 2**k, ())] + [
        (-math.pi / 2 ** (k - r), ((b.qubit(m + r), True),)) for r in range(1, width + 1)
    ]


def _emit_slot(gates, layout, s, terms, source):
    e = layout.register("E")
    pair = (e.qubit(2 * s), e.qubit(2 * s + 1))
    for angle, locals_ in terms:
        gates.append(Gate.ry(angle, pair, source + locals_))


def _emit_module_serial(gates, layout, n, m, ry_construction):
    slots = [_slot_terms(layout, n, m, s, ry_construction) for s in range(n - 1)]
    pattern = _global_pattern(layout, m)
    # route a bitwise module's wide pattern through Anc when that is cheaper
    # than widening every rotation in the module
    routed = ry_construction == BITWISE and m >= 1 and sum(map(len, slots)) >= 3
    anc = layout.register("Anc").qubit(0)
    if routed:
        gates.append(Gate.x(anc, pattern))
    for s, terms in enumerate(slots):
        _emit_slot(gates, layout, s, terms, ((anc, True),) if routed else pattern)
    if routed:
        gates.append(Gate.x(anc, pattern))


def build_inversion_serial(n: int, ry_construction: str = BITWISE) -> Circuit:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    layout = Circuit(standard_registers(n))
    gates: list[Gate] = []
    for m in range(n):
        _emit_module_serial(gates, layout, n, m, ry_construction)
    return Circuit(layout.registers, gates)


def build_inversion_parallel(n: int, ry_construction: str = BITWISE) -> Circuit:
    if n < 3:
        raise ValueError(f"parallel construction requires n >= 3, got {n}")
    layout = Circuit(standard_registers(n, parallel=True))
    c = layout.register("C")
    b = layout.register("B")

    gates: list[Gate] = []
    # CP: one multi-controlled NOT per module writes the pattern "lowest m
    # bits zero, bit m set" into C[m-1]
    cp = [Gate.x(c.qubit(m - 1), _global_pattern(layout, m)) for m in range(1, n - 1)]
    gates.extend(cp)

    # RYP_r groups one slot of every module so the rotation units land on
    # disjoint E pairs
    for r in range(n - 1):
        for m in range(n - 1):
            s = (r + m) % (n - 1)
            source = ((b.qubit(0), True),) if m == 0 else ((c.qubit(m - 1), True),)
            _emit_slot(gates, layout, s, _slot_terms(layout, n, m, s, ry_construction), source)

    # the all-constant module j = 2**(n-1) is emitted as in the serial build
    _emit_module_serial(gates, layout, n, n - 1, ry_construction)

    gates.extend(reversed(cp))
    return Circuit(layout.registers, gates)


def build_flag(circuit: Circuit) -> Gate:
    """NOT on Anc controlled by every E qubit of the circuit: the success flag."""
    controls = tuple((q, True) for q in circuit.register("E").qubits)
    return Gate.x(circuit.register("Anc").qubit(0), controls)


def inversion_stage_circuit(config: QpsConfig) -> Circuit:
    """Just the eigenvalue-inversion stage (for audits and depth reports)."""
    if config.mode == PARALLEL:
        return build_inversion_parallel(config.n, config.ry_construction)
    return build_inversion_serial(config.n, config.ry_construction)


def build_qps(config: QpsConfig, materialize_bc: bool | None = None) -> Circuit:
    """BC, eigenvalue inversion, success flag, BC-dagger, as named stages."""
    if materialize_bc is None:
        materialize_bc = config.n <= bounds.BOUNDS[f"{config.mode} solve"][1]
    bc = build_bc(config.n, materialize_bc)
    inversion = inversion_stage_circuit(config)
    gates = [bc, *inversion.gates, build_flag(inversion), bc.adjoint()]
    stages = (("bc", 1), ("inversion", len(inversion.gates)), ("flag", 1), ("bcdag", 1))
    return Circuit(inversion.registers, gates, stages)


def _register_amplitudes(n: int, b_hat: np.ndarray) -> np.ndarray:
    amps = np.zeros(2**n)
    amps[1:] = b_hat
    return amps


def solve(config: QpsConfig, b) -> QpsSolution:
    bounds.check(f"{config.mode} solve", config.n)
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim != 1 or len(rhs) != 2**config.n - 1:
        raise ValueError(
            f"right-hand side must have length 2**n - 1 = {2**config.n - 1}"
        )
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side has a non-finite entry")
    peak = np.max(np.abs(rhs))
    if peak == 0.0:
        raise ValueError("zero right-hand side")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(rhs)
    if norm == 0.0 or np.isinf(norm):
        # under- or overflow; rescaling only here keeps every other b_hat bit-identical
        rhs = rhs / peak
        norm = np.linalg.norm(rhs)
    b_hat = rhs / norm

    circuit = build_qps(config)
    b_reg = circuit.register("B")
    anc = circuit.register("Anc")

    state = StateVector.ground(circuit.num_qubits)
    state = inject_register(state, b_reg, _register_amplitudes(config.n, b_hat))
    state = apply(state, circuit)

    result = postselect(state, [anc.qubit(0)], [1])
    e_reg = circuit.register("E")
    fixed = {r: 0 for r in circuit.registers if r != b_reg}
    fixed[e_reg] = 2**e_reg.width - 1
    fixed[anc] = 1
    vec = extract_register(result.state, b_reg, fixed)

    if abs(vec[0]) > 1e-10 or np.max(np.abs(vec.imag)) > 1e-10:
        raise RuntimeError("postselected register B is not a real solution direction")
    solution = vec[1:].real.copy()

    reference = solve_classical(TridiagonalSystem(N=2**config.n), b_hat)
    reference = reference / np.linalg.norm(reference)

    return QpsSolution(
        solution=solution,
        success_probability=result.probability,
        resources=count_resources(circuit),
        classical_reference=reference,
        fidelity=fidelity(solution, reference),
    )
