"""Dense statevector simulation of circuits.

Bit convention (the single authoritative statement): qubit t is the t-th
least significant bit of the flat basis-state index, so a register at
offset o holding integer value v occupies flat indices with bits
o..o+width-1 equal to v's binary digits.  When amplitudes are viewed as a
rank-q tensor of shape (2,)*q, qubit t lives on axis q-1-t (C order).

Every gate is real, so amplitudes are float64 (16 MiB at n=7, 21 qubits);
an input with a nonzero imaginary part is rejected.  Each gate is lowered to
one small matrix over its targets and applied by one BLAS matmul on the
control-indexed view, bit-identically for a fixed BLAS thread count.

`apply` first indexes away every idle qubit, one that no gate targets or
controls, whose |1> half of the amplitudes is exactly zero (no tolerance);
an idle qubit at |1> or in superposition is simulated in full.  The gates
run on the remaining view of the same array, so a solve's BCaux ancilla at
|0> halves the work, and the zero half comes back untouched in the full
2**q output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, QubitRegister
from .real import as_real

NORM_TOL = 1e-12
POSTSELECT_FLOOR = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """A normalized state that owns its amplitude array.

    A contiguous float64 array is stored as it is and made read-only in
    place, so the caller must not write to it afterwards; any other input is
    converted into a new array.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(as_real(self.amplitudes, "amplitudes"))
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.num_qubits}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"statevector norm {norm!r} deviates from 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def ground(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(2**num_qubits)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.num_qubits)


@dataclass(frozen=True)
class PostselectResult:
    probability: float
    state: StateVector


def _select(num_qubits: int, assignment) -> tuple:
    """Index of the rank-q tensor that fixes each (qubit, bit) of assignment."""
    idx = [slice(None)] * num_qubits
    for qubit, bit in assignment:
        idx[num_qubits - 1 - qubit] = 1 if bit else 0
    return tuple(idx)


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The gate as one small matrix over its targets, most significant first."""
    if gate.kind == "ry":
        c = math.cos(gate.angle / 2.0)
        s = math.sin(gate.angle / 2.0)
        rotation = np.array([[c, -s], [s, c]])
        # a two-target pair has equal angles, so the target order is immaterial
        return rotation if len(gate.targets) == 1 else np.kron(rotation, rotation)
    if gate.kind == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if gate.matrix is None:
        raise ValueError(
            f"block gate {gate.label!r} has no matrix; counting-only circuit"
        )
    return gate.matrix


def _apply_gate(tensor: np.ndarray, axis: dict[int, int], gate: Gate):
    matrix = _gate_matrix(gate)
    # target axes most significant first, so that the C-order flattening of
    # the moved block matches the register-value indexing of the matrix;
    # the control axes follow and are indexed away
    qubits = [*reversed(gate.targets), *(q for q, _ in gate.controls)]
    moved = np.moveaxis(tensor, [axis[q] for q in qubits], range(len(qubits)))
    sub = moved[(slice(None),) * len(gate.targets) + tuple(int(p) for _, p in gate.controls)]
    flat = sub.reshape(len(matrix), -1)
    sub[...] = (matrix @ flat).reshape(sub.shape)


def apply(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    q = state.num_qubits
    amps = state.amplitudes.copy()
    tensor = amps.reshape((2,) * q)
    # index away each idle qubit whose |1> half is exactly zero
    touched = {t for gate in circuit.gates for t in gate.qubits}
    fixed = {}
    for t in range(q):
        if t not in touched and not tensor[_select(q, [*fixed.items(), (t, True)])].any():
            fixed[t] = False
    kept = [t for t in reversed(range(q)) if t not in fixed]
    view = tensor[_select(q, fixed.items())]
    axis = {t: a for a, t in enumerate(kept)}
    for gate in circuit.gates:
        _apply_gate(view, axis, gate)
    return StateVector(q, amps)


def inject_register(state: StateVector, register: QubitRegister, amplitudes) -> StateVector:
    """Load a superposition into a register that currently sits in |0...0>."""
    target = as_real(amplitudes, "amplitudes")
    if target.shape != (2**register.width,):
        raise ValueError(
            f"need 2**{register.width} amplitudes for register {register.name!r}"
        )
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ValueError("cannot inject the zero vector")
    target = target / norm

    # a register is a contiguous qubit range, so the middle axis of this
    # view is indexed by the register's value
    view = state.amplitudes.reshape(-1, 2**register.width, 2**register.offset)
    if np.linalg.norm(view[:, 1:, :]) > NORM_TOL:
        raise ValueError(f"register {register.name!r} is not in its ground state")
    new = view[:, :1, :] * target[:, None]
    return StateVector(state.num_qubits, new.reshape(-1))


def postselect(state: StateVector, qubits, outcome) -> PostselectResult:
    qubits = list(qubits)
    outcome = list(outcome)
    if len(qubits) != len(outcome):
        raise ValueError("qubits and outcome bits must align")
    q = state.num_qubits
    idx = _select(q, zip(qubits, outcome))
    tensor = state.tensor()
    sub = tensor[idx]
    probability = float(np.vdot(sub, sub))
    if not probability >= POSTSELECT_FLOOR:
        raise RuntimeError(
            f"postselection impossible: outcome probability {probability:.3e} "
            f"below floor {POSTSELECT_FLOOR:.1e}"
        )
    new = np.zeros_like(tensor)
    new[idx] = sub / math.sqrt(probability)
    return PostselectResult(probability=probability,
                            state=StateVector(q, new.reshape(-1)))


def extract_register(state: StateVector, register: QubitRegister, fixed) -> np.ndarray:
    """Read a register's amplitude vector after fixing all other registers.

    fixed maps each remaining register to the basis value it is asserted to
    hold; the state must factorize accordingly (residual mass outside the
    fixed assignment below RESIDUAL_TOL).
    """
    q = state.num_qubits
    controls = []
    covered = set(register.qubits)
    for reg, value in dict(fixed).items():
        if not 0 <= value < 2**reg.width:
            raise ValueError(f"value {value} out of range for register {reg.name!r}")
        for i in range(reg.width):
            controls.append((reg.qubit(i), bool((value >> i) & 1)))
            covered.add(reg.qubit(i))
    if covered != set(range(q)):
        raise ValueError("fixed assignments must cover all other registers")

    sub = state.tensor()[_select(q, controls)]
    # remaining axes are the register's qubits in descending order, so the
    # C-order flattening is already indexed by register value
    vec = sub.reshape(-1)
    mass = float(np.vdot(vec, vec))
    if not 1.0 - mass <= RESIDUAL_TOL:
        raise RuntimeError(
            f"state does not factorize: residual mass {1.0 - mass:.3e} outside "
            f"the fixed assignment"
        )
    return vec / math.sqrt(mass)


def fidelity(a, b) -> float:
    """|<a, b>|^2 for equal-length normalized vectors."""
    # a complex vdot: a real one rounds solve's fidelity differently in the last bit
    va = np.asarray(a, dtype=complex)
    vb = np.asarray(b, dtype=complex)
    if va.shape != vb.shape:
        raise ValueError(f"length mismatch: {va.shape} vs {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(va, vb)) ** 2 / (na * nb) ** 2)
