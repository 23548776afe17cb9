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
`_slot_terms` returns the angles and the local B controls of the rotation
pairs loading slot s of module m (indices j with exactly m trailing zero
bits), and one emitter maps them onto RY pairs on the slot's E pair.
"semantic" is the reference: one multi-controlled term per local bit
pattern, with the exact angle; a slot's angles come from one
`identities.sine_angle` call on the array of its odd parts.  "bitwise"
writes each slot angle as a signed linear function of the index bits, one
singly-locally-controlled term per bit; sign flips only touch the pair
cross terms, which never reach the postselected branch, so the two agree
on everything observable.  A bitwise module with at least three terms
routes its wide control pattern through Anc (free until the flag) with a
pair of multi-controlled NOTs, which is cheaper than widening every
rotation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, getitem

import numpy as np

from . import bounds, identities
from .circuit import Circuit, Gate, QubitRegister, ResourceReport, count_resources
from .poisson import TridiagonalSystem, _as_vector, _grid_size, solve_classical
from .real import is_integer
from .simulator import StateVector, apply, extract_register, fidelity, inject_register

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
        if not is_integer(self.n) or self.n < 2:
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
    """B (n), E (2n-2), Anc, BCaux and, in parallel mode, C (n-2), tiled from qubit 0 up.

    The one place that decides where a register sits.  Totals 3n qubits serial
    and 4n-2 parallel.  BCaux is the inert embedding qubit of the
    basis-conversion accounting.
    """
    if not (is_integer(n) and n >= 2):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    table = [("B", n), ("E", 2 * n - 2), ("Anc", 1), ("BCaux", 1)]
    table += [("C", n - 2)] if parallel else []
    offsets = itertools.accumulate((width for _, width in table), initial=0)
    return tuple(QubitRegister(name, width, at) for (name, width), at in zip(table, offsets))


def bc_matrix(n: int) -> np.ndarray:
    """Basis-conversion orthogonal matrix: rows 1..N-1 are the eigenvectors, row 0 = e_0."""
    N = _grid_size(n)
    M = np.zeros((N, N))
    M[0, 0] = 1.0
    idx = np.arange(1, N)
    M[1:, 1:] = np.sqrt(2.0 / N) * np.sin(np.outer(idx, idx) * np.pi / N)
    return M


@functools.cache
def _control_pairs(num_qubits: int) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """The one (qubit, polarity) pair every control uses: ``pairs[q][polarity]``."""
    return tuple(((q, False), (q, True)) for q in range(num_qubits))


def _global_pattern(layout: Circuit, m: int) -> tuple[tuple[int, bool], ...]:
    b, pairs = layout.register("B"), _control_pairs(layout.num_qubits)
    return tuple(pairs[b.qubit(t)][False] for t in range(m)) + (pairs[b.qubit(m)][True],)


def _slot_terms(layout: Circuit, n: int, m: int, s: int, ry_construction: str):
    """(angles, local B controls) of the rotation pairs loading slot s of module m.

    Slot s >= m carries k = n-s, driven by bits 1..width of the odd part;
    the top slot k = n-m has only n-m-1 significant bits available.
    """
    if s < m:
        return [math.pi / 3.0], [()]
    b, pairs = layout.register("B"), _control_pairs(layout.num_qubits)
    k = n - s
    width = min(k, n - m - 1)
    if ry_construction == SEMANTIC:
        # one exact multi-controlled term per local bit pattern p, with the
        # angle of i = 2p + 1; product() varies its last factor fastest, so
        # with the factors taken from B[m+width] down to B[m+1] and each
        # pattern reversed, bit r of p lands on B[m+1+r]
        patterns = itertools.product(*(pairs[b.qubit(m + r)] for r in range(width, 0, -1)))
        angles = 2.0 * identities.sine_angle(k, np.arange(1, 2 << width, 2))
        return angles.tolist(), map(getitem, patterns, itertools.repeat(slice(None, None, -1)))
    # bitwise: the angle as a signed linear function of the index bits
    bits = range(1, width + 1)
    return ([math.pi - math.pi / 2**k] + [-math.pi / 2 ** (k - r) for r in bits],
            [()] + [(pairs[b.qubit(m + r)][True],) for r in bits])


def _emit_slot(gates, layout, s, terms, source):
    e = layout.register("E")
    pair = (e.qubit(2 * s), e.qubit(2 * s + 1))
    angles, locals_ = terms
    controls = map(add, itertools.repeat(source), locals_)
    gates.extend(map(Gate, itertools.repeat("ry"), itertools.repeat(pair), controls, angles))


def _emit_module_serial(gates, layout, n, m, ry_construction):
    slots = [_slot_terms(layout, n, m, s, ry_construction) for s in range(n - 1)]
    pattern = _global_pattern(layout, m)
    # route a bitwise module's wide pattern through Anc when that is cheaper
    # than widening every rotation in the module
    routed = ry_construction == BITWISE and m >= 1 and sum(len(a) for a, _ in slots) >= 3
    anc = layout.register("Anc").qubit(0)
    if routed:
        gates.append(Gate.x(anc, pattern))
    source = (_control_pairs(layout.num_qubits)[anc][True],) if routed else pattern
    for s, terms in enumerate(slots):
        _emit_slot(gates, layout, s, terms, source)
    if routed:
        gates.append(Gate.x(anc, pattern))


def _inversion_gates(config: QpsConfig) -> tuple[Circuit, list[Gate]]:
    """The empty register layout of config and its eigenvalue-inversion gates."""
    n, ry_construction = config.n, config.ry_construction
    layout = Circuit(standard_registers(n, config.mode == PARALLEL))
    gates: list[Gate] = []
    if config.mode == SERIAL:
        for m in range(n):
            _emit_module_serial(gates, layout, n, m, ry_construction)
        return layout, gates
    c, b = layout.register("C"), layout.register("B")
    pairs = _control_pairs(layout.num_qubits)
    # CP: one multi-controlled NOT per module writes the pattern "lowest m
    # bits zero, bit m set" into C[m-1]
    cp = [Gate.x(c.qubit(m - 1), _global_pattern(layout, m)) for m in range(1, n - 1)]
    gates.extend(cp)

    # RYP_r groups one slot of every module so the rotation units land on
    # disjoint E pairs
    for r in range(n - 1):
        for m in range(n - 1):
            s = (r + m) % (n - 1)
            source = (pairs[b.qubit(0) if m == 0 else c.qubit(m - 1)][True],)
            _emit_slot(gates, layout, s, _slot_terms(layout, n, m, s, ry_construction), source)

    # the all-constant module j = 2**(n-1) is emitted as in the serial build
    _emit_module_serial(gates, layout, n, n - 1, ry_construction)

    gates.extend(reversed(cp))
    return layout, gates


def inversion_stage_circuit(config: QpsConfig) -> Circuit:
    """Just the eigenvalue-inversion stage (for audits and depth reports)."""
    layout, gates = _inversion_gates(config)
    return Circuit(layout.registers, gates)


def build_inversion_serial(n: int, ry_construction: str = BITWISE) -> Circuit:
    return inversion_stage_circuit(QpsConfig(n, SERIAL, ry_construction))


def build_inversion_parallel(n: int, ry_construction: str = BITWISE) -> Circuit:
    return inversion_stage_circuit(QpsConfig(n, PARALLEL, ry_construction))


def build_flag(circuit: Circuit) -> Gate:
    """NOT on Anc controlled by every E qubit of the circuit: the success flag."""
    pairs = _control_pairs(circuit.num_qubits)
    controls = tuple(pairs[q][True] for q in circuit.register("E").qubits)
    return Gate.x(circuit.register("Anc").qubit(0), controls)


def build_qps(config: QpsConfig, materialize_bc: bool = True) -> Circuit:
    """BC, eigenvalue inversion, success flag, BC-dagger, as named stages."""
    # dense BC only in the solve row; a counting-only BC (matrix None) at any n
    if materialize_bc:
        bounds.check(f"{config.mode} solve", config.n)
    layout, inversion = _inversion_gates(config)
    matrix = bc_matrix(config.n) if materialize_bc else None
    bc = Gate.block(matrix, layout.register("B").qubits, "BC")
    stages = (("bc", 1), ("inversion", len(inversion)), ("flag", 1), ("bcdag", 1))
    return Circuit(layout.registers, (bc, *inversion, build_flag(layout), bc.adjoint()), stages)


def solve(config: QpsConfig, b) -> QpsSolution:
    return solve_circuit(build_qps(config), b)


def solve_circuit(circuit: Circuit, b) -> QpsSolution:
    """`solve` on a dense `build_qps` circuit, which serves every b at its n (B's width)."""
    if not {"B", "E", "Anc"} <= {r.name for r in circuit.registers}:
        raise ValueError("solve needs a circuit with registers B, E and Anc")
    if any(g.kind == "block" and g.matrix is None for g in circuit.gates):
        raise ValueError("a block gate has no matrix; counting-only circuit")
    b_reg, e_reg, anc = map(circuit.register, ("B", "E", "Anc"))
    n = b_reg.width
    rhs = _as_vector(b)
    if len(rhs) != 2**n - 1:
        raise ValueError(f"right-hand side must have length 2**n - 1 = {2**n - 1}")
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

    # no name holds the ground or the injected state, so apply frees its input
    state = apply(inject_register(StateVector.ground(circuit.num_qubits), b_reg,
                                  np.concatenate(([0.0], b_hat))), circuit)

    fixed = {r: 0 for r in circuit.registers if r != b_reg} | {e_reg: 2**e_reg.width - 1, anc: 1}
    probability, vec = extract_register(state, b_reg, fixed, anc)

    if abs(vec[0]) > 1e-10:
        raise RuntimeError("postselected register B is not a real solution direction")
    solution = vec[1:]

    reference = solve_classical(TridiagonalSystem(N=2**n), b_hat)
    reference = reference / np.linalg.norm(reference)

    return QpsSolution(
        solution=solution,
        success_probability=probability,
        resources=count_resources(circuit),
        classical_reference=reference,
        fidelity=fidelity(solution, reference),
    )
