"""Dense statevector simulation of circuits.

Bit convention (the single authoritative statement): qubit t is the t-th
least significant bit of the flat basis-state index, so a register at
offset o holding integer value v occupies flat indices with bits
o..o+width-1 equal to v's binary digits.  When amplitudes are viewed as a
rank-q tensor of shape (2,)*q, qubit t lives on axis q-1-t (C order).

Amplitudes are float64 when every imaginary part is exactly 0 and
complex128 otherwise (the narrowing is exact), so the solver's all-real
circuits run on a real state: 16 MiB at n=7 (21 qubits).  Every gate is
lowered to one small matrix over its targets and applied by one BLAS matmul
on the control-indexed view; a complex block promotes a real state.  For a
fixed BLAS thread count, identical inputs give bit-identical amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, QubitRegister

NORM_TOL = 1e-12
POSTSELECT_FLOOR = 1e-12
RESIDUAL_TOL = 1e-10
MAX_BLOCK_TARGETS = 12


def _narrow(values) -> np.ndarray:
    """float64 if every imaginary part is exactly 0, else complex128; exact."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and arr.imag.any():
        return arr.astype(complex, copy=False)
    return arr.real.astype(float, copy=False)


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _narrow(self.amplitudes)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.num_qubits}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"statevector norm {norm!r} deviates from 1")
        amps = amps.copy()
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


def _axis(num_qubits: int, qubit: int) -> int:
    return num_qubits - 1 - qubit


def _control_index(num_qubits: int, controls):
    idx = [slice(None)] * num_qubits
    fixed_axes = []
    for qubit, positive in controls:
        ax = _axis(num_qubits, qubit)
        idx[ax] = 1 if positive else 0
        fixed_axes.append(ax)
    return tuple(idx), sorted(fixed_axes)


def _sub_axis(num_qubits: int, qubit: int, fixed_axes) -> int:
    ax = _axis(num_qubits, qubit)
    return ax - sum(1 for f in fixed_axes if f < ax)


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
    if gate.kind == "block":
        if gate.matrix is None:
            raise ValueError(
                f"block gate {gate.label!r} has no matrix; counting-only circuit"
            )
        if len(gate.targets) > MAX_BLOCK_TARGETS:
            raise ValueError(
                f"block gates are limited to {MAX_BLOCK_TARGETS} targets"
            )
        return _narrow(gate.matrix)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _apply_gate(tensor: np.ndarray, num_qubits: int, gate: Gate, matrix: np.ndarray):
    idx, fixed = _control_index(num_qubits, gate.controls)
    sub = tensor[idx]
    # target axes most significant first, so that the C-order flattening of
    # the moved block matches the register-value indexing of the matrix
    axes = [_sub_axis(num_qubits, t, fixed) for t in reversed(gate.targets)]
    moved = np.moveaxis(sub, axes, range(len(axes)))
    flat = moved.reshape(len(matrix), -1)
    moved[...] = (matrix @ flat).reshape(moved.shape)


def apply(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    matrices = [_gate_matrix(gate) for gate in circuit.gates]
    dtype = np.result_type(state.amplitudes, *{m.dtype for m in matrices})
    amps = state.amplitudes.astype(dtype)
    tensor = amps.reshape((2,) * state.num_qubits)
    for gate, matrix in zip(circuit.gates, matrices):
        _apply_gate(tensor, state.num_qubits, gate, matrix)
    return StateVector(state.num_qubits, amps)


def inject_register(state: StateVector, register: QubitRegister, amplitudes) -> StateVector:
    """Load a superposition into a register that currently sits in |0...0>."""
    target = _narrow(amplitudes)
    if target.shape != (2**register.width,):
        raise ValueError(
            f"need 2**{register.width} amplitudes for register {register.name!r}"
        )
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ValueError("cannot inject the zero vector")
    target = target / norm

    q = state.num_qubits
    tensor = state.tensor()
    # register axes, most significant first, moved to the front
    axes = [_axis(q, t) for t in reversed(register.qubits)]
    moved = np.moveaxis(tensor, axes, range(register.width)).copy()
    flat = moved.reshape(2**register.width, -1)
    if np.linalg.norm(flat[1:]) > NORM_TOL:
        raise ValueError(f"register {register.name!r} is not in its ground state")
    new_flat = np.outer(target, flat[0])
    new = np.moveaxis(
        new_flat.reshape(moved.shape), range(register.width), axes
    ).reshape(-1)
    return StateVector(q, new)


def postselect(state: StateVector, qubits, outcome, floor: float = POSTSELECT_FLOOR) -> PostselectResult:
    qubits = list(qubits)
    outcome = list(outcome)
    if len(qubits) != len(outcome):
        raise ValueError("qubits and outcome bits must align")
    q = state.num_qubits
    idx, _ = _control_index(q, [(qb, bool(bit)) for qb, bit in zip(qubits, outcome)])
    tensor = state.tensor()
    sub = tensor[idx]
    probability = float(np.vdot(sub, sub).real)
    if not probability >= floor:
        raise RuntimeError(
            f"postselection impossible: outcome probability {probability:.3e} "
            f"below floor {floor:.1e}"
        )
    new = np.zeros_like(tensor)
    new[idx] = sub / math.sqrt(probability)
    return PostselectResult(probability=probability,
                            state=StateVector(q, new.reshape(-1)))


def extract_register(state: StateVector, register: QubitRegister, fixed,
                     residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Read a register's amplitude vector after fixing all other registers.

    fixed maps each remaining register to the basis value it is asserted to
    hold; the state must factorize accordingly (residual mass outside the
    fixed assignment below residual_tol).
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

    idx, fixed_axes = _control_index(q, controls)
    sub = state.tensor()[idx]
    # remaining axes are the register's qubits in descending order, so the
    # C-order flattening is already indexed by register value
    vec = sub.reshape(-1)
    mass = float(np.vdot(vec, vec).real)
    if not 1.0 - mass <= residual_tol:
        raise RuntimeError(
            f"state does not factorize: residual mass {1.0 - mass:.3e} outside "
            f"the fixed assignment"
        )
    return vec / math.sqrt(mass)


def fidelity(a, b) -> float:
    """|<a, b>|^2 for equal-length normalized vectors."""
    va = np.asarray(a, dtype=complex)
    vb = np.asarray(b, dtype=complex)
    if va.shape != vb.shape:
        raise ValueError(f"length mismatch: {va.shape} vs {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(va, vb)) ** 2 / (na * nb) ** 2)
