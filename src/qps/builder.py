"""Constructs the full solver circuit and runs the end-to-end pipeline.

Stages (on registers B, E, Anc, BCaux, plus C in parallel mode):

  1. basis conversion: a sine-transform block on B mapping the operator's
     eigenvectors to computational basis states;
  2. eigenvalue inversion: controlled rotation pairs loading the sine
     factors of 8/lambda_j onto register E, so the E = |1...1> amplitude of
     branch |j> is exactly 8/lambda_j;
  3. a NOT on Anc controlled by every E qubit (the success flag);
  4. uncompute of the basis conversion.

Postselecting Anc = 1 collapses B onto the normalized solution direction.

Two interchangeable inversion constructions are provided.  "semantic" is
the reference: for every module m (indices j with exactly m trailing zero
bits) it enumerates the local bit patterns and emits one multi-controlled
rotation pair per pattern with the exact angle.  "bitwise" decomposes each
slot angle as a signed linear function of the index bits, one singly-
locally-controlled rotation pair per bit; sign flips only touch the pair
cross terms, which never reach the postselected branch, so the two agree on
everything observable.  Modules whose control pattern is wide route it
through Anc (free until the flag) with a pair of multi-controlled NOTs when
that is cheaper than widening every rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    CostModel,
    Gate,
    QubitRegister,
    ResourceReport,
    count_resources,
)
from .poisson import TridiagonalSystem, dst_matrix, solve_classical
from .simulator import StateVector, apply, extract_register, fidelity, inject_register, postselect

MAX_BC_QUBITS = 12

SERIAL = "serial"
PARALLEL = "parallel"
SEMANTIC = "semantic"
BITWISE = "bitwise"


@dataclass(frozen=True)
class QpsConfig:
    n: int
    mode: str = SERIAL
    ry_construction: str = BITWISE
    cost_model: CostModel | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
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
    M[1:, 1:] = dst_matrix(N)
    return M


def build_bc(n: int, materialize: bool = True) -> Gate:
    """The basis-conversion block; counting-only (matrix None) unless materialized."""
    if n < 2 or (materialize and n > MAX_BC_QUBITS):
        raise ValueError(f"basis conversion supports 2 <= n <= {MAX_BC_QUBITS}, got {n}")
    matrix = bc_matrix(n) if materialize else None
    return Gate.block(matrix, targets=tuple(range(n)), label="BC")


def _pair(layout: Circuit, s: int) -> tuple[int, int]:
    e = layout.register("E")
    return (e.qubit(2 * s), e.qubit(2 * s + 1))


def _global_pattern(layout: Circuit, m: int) -> tuple[tuple[int, bool], ...]:
    b = layout.register("B")
    return tuple((b.qubit(t), False) for t in range(m)) + ((b.qubit(m), True),)


def _term_width(n: int, m: int, k: int) -> int:
    # bits 1..k of the odd part drive the slot angle; the top slot k = n-m
    # has only n-m-1 significant bits available
    return min(k, n - m - 1)


def _emit_slot_bitwise(gates, layout, n, m, s, source):
    """Signed-angle decomposition of slot s of module m, controls = source."""
    b = layout.register("B")
    pair = _pair(layout, s)
    if s < m:
        gates.append(Gate.ry(math.pi / 3.0, pair, source))
        return
    k = n - s
    gates.append(Gate.ry(math.pi - math.pi / 2**k, pair, source))
    for r in range(1, _term_width(n, m, k) + 1):
        gates.append(
            Gate.ry(-math.pi / 2 ** (k - r), pair,
                    source + ((b.qubit(m + r), True),))
        )


def _emit_slot_semantic(gates, layout, n, m, s, source):
    """One exact multi-controlled rotation pair per local bit pattern."""
    b = layout.register("B")
    pair = _pair(layout, s)
    if s < m:
        gates.append(Gate.ry(math.pi / 3.0, pair, source))
        return
    k = n - s
    width = _term_width(n, m, k)
    for pattern in range(2**width):
        i_low = 1 + 2 * pattern
        theta = abs(2**k - i_low % 2 ** (k + 1)) / 2 ** (k + 1) * math.pi
        locals_ = tuple(
            (b.qubit(m + 1 + r), bool((pattern >> r) & 1)) for r in range(width)
        )
        gates.append(Gate.ry(2.0 * theta, pair, source + locals_))


def _bitwise_unit_count(n: int, m: int) -> int:
    units = m
    for s in range(m, n - 1):
        units += 1 + _term_width(n, m, n - s)
    return units


def _emit_module_serial(gates, layout, n, m, ry_construction):
    anc = layout.register("Anc")
    pattern = _global_pattern(layout, m)
    if ry_construction == SEMANTIC:
        for s in range(n - 1):
            _emit_slot_semantic(gates, layout, n, m, s, pattern)
        return
    # route wide patterns through Anc when that is cheaper than widening
    # every rotation in the module
    factored = m >= 1 and _bitwise_unit_count(n, m) >= 3
    if factored:
        work = ((anc.qubit(0), True),)
        gates.append(Gate.x(anc.qubit(0), pattern))
        for s in range(n - 1):
            _emit_slot_bitwise(gates, layout, n, m, s, work)
        gates.append(Gate.x(anc.qubit(0), pattern))
    else:
        for s in range(n - 1):
            _emit_slot_bitwise(gates, layout, n, m, s, pattern)


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
    anc = layout.register("Anc")
    emit_slot = _emit_slot_semantic if ry_construction == SEMANTIC else _emit_slot_bitwise

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
            emit_slot(gates, layout, n, m, s, source)

    # all-constant module for j = 2**(n-1), routed through Anc
    pattern = _global_pattern(layout, n - 1)
    if ry_construction == SEMANTIC or n == 3:
        for s in range(n - 1):
            gates.append(Gate.ry(math.pi / 3.0, _pair(layout, s), pattern))
    else:
        work = ((anc.qubit(0), True),)
        gates.append(Gate.x(anc.qubit(0), pattern))
        for s in range(n - 1):
            gates.append(Gate.ry(math.pi / 3.0, _pair(layout, s), work))
        gates.append(Gate.x(anc.qubit(0), pattern))

    gates.extend(reversed(cp))
    return Circuit(layout.registers, gates)


def build_flag(layout: Circuit) -> Gate:
    """NOT on Anc controlled by every E qubit: the success flag."""
    controls = tuple((q, True) for q in layout.register("E").qubits)
    return Gate.x(layout.register("Anc").qubit(0), controls)


def inversion_stage_circuit(config: QpsConfig) -> Circuit:
    """Just the eigenvalue-inversion stage (for audits and depth reports)."""
    if config.mode == PARALLEL:
        return build_inversion_parallel(config.n, config.ry_construction)
    return build_inversion_serial(config.n, config.ry_construction)


def build_qps(config: QpsConfig, materialize_bc: bool | None = None) -> Circuit:
    """BC, eigenvalue inversion, success flag, BC-dagger, in that gate order."""
    layout = Circuit(standard_registers(config.n, parallel=config.mode == PARALLEL))
    if materialize_bc is None:
        materialize_bc = config.n <= MAX_BC_QUBITS
    bc = build_bc(config.n, materialize_bc)
    inversion = inversion_stage_circuit(config)
    gates = [bc, *inversion.gates, build_flag(layout), bc.adjoint()]
    return Circuit(layout.registers, gates)


def _register_amplitudes(n: int, b_hat: np.ndarray) -> np.ndarray:
    amps = np.zeros(2**n)
    amps[1:] = b_hat
    return amps


def solve(config: QpsConfig, b) -> QpsSolution:
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
    fixed = {
        circuit.register("E"): 2 ** (2 * config.n - 2) - 1,
        anc: 1,
        circuit.register("BCaux"): 0,
    }
    if config.mode == PARALLEL:
        fixed[circuit.register("C")] = 0
    vec = extract_register(result.state, b_reg, fixed)

    if abs(vec[0]) > 1e-10 or np.max(np.abs(vec.imag)) > 1e-10:
        raise RuntimeError("postselected register B is not a real solution direction")
    solution = vec[1:].real.copy()

    reference = solve_classical(TridiagonalSystem(N=2**config.n), b_hat)
    reference = reference / np.linalg.norm(reference)

    return QpsSolution(
        solution=solution,
        success_probability=result.probability,
        resources=count_resources(circuit, config.cost_model),
        classical_reference=reference,
        fidelity=fidelity(solution, reference),
    )
