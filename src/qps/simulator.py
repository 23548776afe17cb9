"""Dense statevector simulation of circuits.

Bit convention (the single authoritative statement): qubit t is the t-th
least significant bit of the flat basis-state index, so a register at
offset o holding integer value v occupies flat indices with bits
o..o+width-1 equal to v's binary digits.  When amplitudes are viewed as a
rank-q tensor of shape (2,)*q, qubit t lives on axis q-1-t (C order).

Every gate is real, so amplitudes are float64 (16 MiB at n=7, 21 qubits);
an input with a nonzero imaginary part is rejected.  Each gate is lowered to
one small matrix over its targets and applied by one BLAS gemm on the
control-indexed view, bit-identically for a fixed BLAS thread count.  numpy
would run a one-column product as gemv, which rounds otherwise, so it runs as
the first column of a two-column gemm: a gate's bits do not depend on how many
other qubits control it or are indexed away.

`apply` never writes its input.  It indexes away each idle qubit (one that no
gate targets or controls) whose |1> half is exactly zero, copies only the kept
subspace and drops the input before the first gate: a solve's |0> BCaux
halves the work, the skipped half comes back as +0.0 in the zeroed output, and
a caller with no name on the input (`builder.solve_circuit`) holds one
state-sized array while the gates run (from CPython 3.11).

The gates run on an array of their own, in a working axis order: the qubits
that only blocks target (B, in a solve) lead, the other kept qubits follow in
C order.  So the BC block multiplies a view, and a gate controlled by B reads
contiguous runs.  The array is copied into the output's standard layout at the
end.  The order moves only the columns of a product: a 2x2, 4x4 or 8x8 product
rounds each column alike wherever it sits and however many columns it has (a
test pins this for the BLAS in use), and a block on exactly the leading qubits
keeps its columns in order.

It tracks each qubit that some ry or x gate targets and no block targets, from
|0> where the kept input's |1> half is exactly zero: an X with controls Q makes
it [Q], the X with the same Q makes it |0>, any other gate forgets its own
targets and a gate on a qubit of Q forgets [Q].  A gate runs under one tuple of
controls, its own and those its tracked qubits imply, which `_apply_gate`
indexes, so `apply` builds no gate.  While a qubit is |0>, a gate with a
positive control on it is skipped and each other ry or x gate runs under
(qubit, 0) too; at [Q] a gate with a positive control on it runs under the pairs
of Q on none of its own controls and targets too.  No block is narrowed, since
a dense block's bits can change with its width.  The bits match the plain
loop's up to the sign of a zero: an underflowed -0.0 that `apply` skips over
stays -0.0, while the plain loop's later gate turns it into +0.0.

No check or readout copies the state: `inject_register` writes only the rows
it loads, `postselect` returns P and `extract_register` (P, vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, QubitRegister
from .real import as_real, is_integer

NORM_TOL = 1e-12
POSTSELECT_FLOOR = 1e-12
RESIDUAL_TOL = 1e-10


def _check_num_qubits(num_qubits):
    if not is_integer(num_qubits) or num_qubits < 0:
        raise ValueError(f"num_qubits must be an integer >= 0, got {num_qubits!r}")


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
        _check_num_qubits(self.num_qubits)
        amps = np.ascontiguousarray(as_real(self.amplitudes, "amplitudes"))
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.num_qubits}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"statevector norm {float(norm)!r} deviates from 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def ground(cls, num_qubits: int) -> "StateVector":
        _check_num_qubits(num_qubits)
        amps = np.zeros(2**num_qubits)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.num_qubits)


@dataclass(frozen=True)
class PostselectResult:
    probability: float


def _select(num_qubits: int, assignment) -> tuple:
    """Index of the rank-q tensor that fixes each (qubit, bit) of assignment."""
    idx = [slice(None)] * num_qubits
    for qubit, bit in assignment:
        idx[num_qubits - 1 - qubit] = 1 if bit else 0
    return tuple(idx)


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The gate as one small matrix over its targets, most significant first."""
    if gate.kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        if len(gate.targets) == 1:
            return np.array([[c, -s], [s, c]])
        # a two-target pair has equal angles, so the target order is immaterial;
        # kron(rotation, rotation) from Python floats: (-x) * y is -(x * y) exactly
        cc, cs, ss = c * c, c * s, s * s
        return np.array([[cc, -cs, -cs, ss], [cs, cc, -ss, -cs],
                         [cs, -ss, cc, -cs], [ss, cs, cs, cc]])
    if gate.kind == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if gate.matrix is None:
        raise ValueError(f"block gate {gate.label!r} has no matrix; counting-only circuit")
    return gate.matrix


def _apply_gate(tensor: np.ndarray, axis: dict[int, int], gate: Gate, controls: tuple):
    """gate on tensor where each (qubit, bit) of controls holds."""
    matrix = _gate_matrix(gate)
    # target axes most significant first, so that the C-order flattening of
    # the moved block matches the register-value indexing of the matrix;
    # the control axes follow and are indexed away
    first = [axis[q] for q in (*reversed(gate.targets), *(q for q, _ in controls))]
    moved = tensor.transpose(first + [a for a in range(tensor.ndim) if a not in first])
    sub = moved[(slice(None),) * len(gate.targets) + tuple(int(p) for _, p in controls)]
    flat = sub.reshape(len(matrix), -1)
    # a one-column product runs as two-column gemm, never gemv (see above)
    wide = np.repeat(flat, 2, axis=1) if flat.shape[1] == 1 else flat
    sub[...] = (matrix @ wide)[:, :flat.shape[1]].reshape(sub.shape)


def _slabs(array: np.ndarray):
    """The index of each slab of 2**17 amplitudes (1 MiB) of array's leading axes."""
    return np.ndindex(array.shape[:max(array.ndim - 17, 0)])


def _copy(dst: np.ndarray, src: np.ndarray):
    """dst[...] = src, one slab of src at a time.

    numpy copies in dst's memory order, so a copy that permutes axes reads
    src in a scattered order; a slab stays in cache while it is read, which
    makes the copy about 2.5x faster.
    """
    for index in _slabs(src):
        dst[index] = src[index]


def _zero_qubits(tensor: np.ndarray, qubits, fixed=()) -> dict[int, bool]:
    """Each of qubits whose |1> half is exactly zero, given fixed and those found at |0>.

    A scan stops at the first nonzero slab of the half.
    """
    zero = {}
    for t in qubits:
        half = tensor[_select(tensor.ndim, [*fixed, *zero.items(), (t, True)])]
        if not any(half[i].any() for i in _slabs(half)):
            zero[t] = False
    return zero


def _widen(gate: Gate, value: dict) -> tuple | None:
    """gate.controls plus the pairs its tracked qubits imply; None where it cannot fire."""
    known = [value.get(c) for c, bit in gate.controls if bit]
    if False in known:
        return None
    qubits = gate.qubits
    more = {c: bit for pattern in known if pattern for c, bit in pattern if c not in qubits}
    if gate.kind != "block":  # runs only where each tracked |0> qubit is |0>
        more |= {u: False for u, v in value.items() if v is False and u not in qubits}
    return gate.controls + tuple(more.items())


def apply(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    q, gates = state.num_qubits, circuit.gates
    tensor = state.tensor()
    # index away each idle qubit whose |1> half is exactly zero
    touched = {t for gate in gates for t in gate.qubits}
    fixed = _zero_qubits(tensor, (t for t in reversed(range(q)) if t not in touched))
    blocked = {t for g in gates if g.kind == "block" for t in g.targets}
    gated = {t for g in gates if g.kind != "block" for t in g.targets}
    # value: False while a tracked qubit (one only ry and x gates target) is
    # |0>, the X's controls Q while it is [Q]
    value = _zero_qubits(tensor, sorted(gated - blocked, reverse=True), fixed.items())
    kept = [t for t in reversed(range(q)) if t not in fixed]
    # the qubits only blocks target (B, in a solve) lead the working axis order
    lead = blocked - gated
    order = sorted(kept, key=lambda t: t not in lead)
    perm = [kept.index(t) for t in order]
    # the trailing ... keeps a 0-d view when every qubit is idle
    select = (*_select(q, fixed.items()), ...)
    work = np.empty((2,) * len(kept))
    _copy(work.transpose(np.argsort(perm)), tensor[select])
    del state, tensor
    axis = {t: a for a, t in enumerate(order)}
    for gate in gates:
        controls, t, before = _widen(gate, value), gate.targets[0], value.get(gate.targets[0])
        # forget its targets and each value whose Q it writes
        value = {u: known for u, known in value.items() if u not in gate.targets
                 and (not known or all(c not in gate.targets for c, _ in known))}
        if gate.kind == "x" and before in (False, gate.controls):
            value[t] = gate.controls if before is False else False
        if controls is not None:
            _apply_gate(work, axis, gate, controls)
    amps = np.zeros(2**q)
    _copy(amps.reshape((2,) * q)[select].transpose(perm), work)
    return StateVector(q, amps)


def inject_register(state: StateVector, register: QubitRegister, amplitudes) -> StateVector:
    """Load a superposition into a register that sits exactly in |0...0>."""
    if register.offset + register.width > state.num_qubits:
        raise ValueError(
            f"register {register.name!r} lies outside the {state.num_qubits}-qubit state"
        )
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
    if view[:, 1:, :].any():
        raise ValueError(f"register {register.name!r} is not in its ground state")
    new = np.zeros(view.shape)
    outer, inner = np.nonzero(view[:, 0, :])
    new[outer, :, inner] = view[outer, 0, inner][:, None] * target
    return StateVector(state.num_qubits, new.reshape(-1))


def postselect(state: StateVector, qubits, outcome) -> PostselectResult:
    """The probability that the qubits read the outcome bits, and nothing else."""
    qubits, outcome = list(qubits), list(outcome)
    if len(qubits) != len(outcome):
        raise ValueError("qubits and outcome bits must align")
    q = state.num_qubits
    if not all(map(is_integer, qubits)):
        raise ValueError(f"qubits must be integers, got {qubits}")
    bad = [t for t in qubits if not 0 <= t < q]
    if bad:
        raise ValueError(f"qubits {bad} lie outside the {q}-qubit state")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubits {qubits} repeat")
    if not set(outcome) <= {0, 1}:
        raise ValueError(f"outcome bits must be 0 or 1, got {outcome}")
    # flattened once here: np.vdot copies a strided view once per argument
    sub = state.tensor()[_select(q, zip(qubits, outcome))].reshape(-1)
    probability = float(np.vdot(sub, sub))
    if not probability >= POSTSELECT_FLOOR:
        raise RuntimeError(
            f"postselection impossible: outcome probability {probability:.3e} "
            f"below floor {POSTSELECT_FLOOR:.1e}"
        )
    return PostselectResult(probability)


def extract_register(state: StateVector, register: QubitRegister, fixed, flag) -> tuple:
    """Postselect register flag and read register's amplitudes, as (P, vector).

    fixed maps every other register, flag among them, to the basis value it
    must hold; P is the probability of flag at its value.  The fixed slice over
    sqrt(P) must have mass 1 to RESIDUAL_TOL; it is returned over sqrt(mass).
    """
    q = state.num_qubits
    if flag not in fixed:
        raise ValueError(f"flag register {flag.name!r} is not a fixed register")
    controls = []
    covered = set(register.qubits)
    for reg, value in fixed.items():
        if not is_integer(value):
            raise ValueError(f"value {value} for register {reg.name!r} is not an integer")
        if not 0 <= value < 2**reg.width:
            raise ValueError(f"value {value} out of range for register {reg.name!r}")
        if covered.intersection(reg.qubits):
            raise ValueError(f"fixed register {reg.name!r} overlaps another register")
        controls += [(t, (value >> i) & 1) for i, t in enumerate(reg.qubits)]
        covered.update(reg.qubits)
    if covered != set(range(q)):
        raise ValueError("fixed assignments must cover all other registers")

    outcome = [(fixed[flag] >> i) & 1 for i in range(flag.width)]
    probability = postselect(state, flag.qubits, outcome).probability
    # remaining axes are the register's qubits in descending order, so the
    # C-order flattening is already indexed by register value
    vec = state.tensor()[_select(q, controls)].reshape(-1) / math.sqrt(probability)
    mass = float(np.vdot(vec, vec))
    if not 1.0 - mass <= RESIDUAL_TOL:
        raise RuntimeError(
            f"state does not factorize: residual mass {1.0 - mass:.3e} outside "
            f"the fixed assignment"
        )
    return probability, vec / math.sqrt(mass)


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
