"""Gate-level circuit IR over named qubit registers.

Gate kinds, all real (a block matrix with a nonzero imaginary part is rejected):
  ry     -- real rotation, one or two targets (a two-target gate is the
            tensor pair RotY(theta) x RotY(theta) acting with equal angle);
            RotY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>.
  x      -- Pauli X / NOT; with one control this is the elementary CNOT.
  block  -- an opaque orthogonal matrix over a target list (the basis
            conversion), kept as a read-only float64 copy of the caller's
            array and checked for orthogonality once, when built; its adjoint
            holds the transposed view of that copy, which is orthogonal too,
            so it is not re-checked; a declared resource estimate stands in for
            gates; matrix may be None for counting-only circuits (not simulable).

Controls carry a polarity: positive fires on |1>, negative on |0>.  The
cost table charges the same either way (negative controls are X-conjugated
positives, which the costs absorb).

Resource counting expands every gate through a fixed decomposition cost
table keyed on (kind, number of controls); depth is greedy ASAP layering,
both on IR gates (depth_native) and with each gate occupying its expanded
elementary-depth on its own qubit set (depth_serial).  One pass counts the
whole circuit and every named stage, and the table is kept on that Circuit.
The pass is run-length: a gate whose qubits tuple equals the previous
gate's starts where that gate ended, so the per-qubit frontiers are written
once per run of such gates, not once per gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter, itemgetter

import numpy as np

from .real import as_real

UNITARY_TOL = 1e-12

GATE_KINDS = ("ry", "x", "block")


@dataclass(frozen=True)
class QubitRegister:
    name: str
    width: int
    offset: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"register {self.name!r} must have width >= 1")
        if self.offset < 0:
            raise ValueError(f"register {self.name!r} has negative offset")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(range(self.offset, self.offset + self.width))

    def qubit(self, i: int) -> int:
        if not 0 <= i < self.width:
            raise ValueError(f"qubit index {i} outside register {self.name!r}")
        return self.offset + i


def _check_orthogonal(m: np.ndarray) -> None:
    # m.T @ m - I in place, so the check holds one extra matrix
    gram = m.T @ m
    gram[np.diag_indices(len(m))] -= 1.0
    defect = np.abs(gram, out=gram).max()
    if not defect <= UNITARY_TOL:
        raise ValueError(f"block matrix not orthogonal: defect {defect:.3e}")


@dataclass(frozen=True, eq=False, slots=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, bool], ...] = ()
    angle: float | None = None
    matrix: np.ndarray | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not self.targets:
            raise ValueError("gate needs at least one target")
        qubits = self.qubits
        if len(set(qubits)) != len(qubits):
            if len(set(self.targets)) != len(self.targets):
                raise ValueError("duplicate target qubits")
            if len(set(qubits[len(self.targets):])) != len(self.controls):
                raise ValueError("duplicate control qubits")
            raise ValueError("targets and controls must be disjoint")
        if self.kind == "ry":
            if self.angle is None:
                raise ValueError("ry gate needs an angle")
            if len(self.targets) > 2:
                raise ValueError("ry supports one or two targets")
        if self.kind == "x" and len(self.targets) != 1:
            raise ValueError("x acts on exactly one target")
        if self.kind == "block" and self.matrix is not None:
            m = np.array(as_real(self.matrix, "block matrix"))
            dim = 2 ** len(self.targets)
            if m.shape != (dim, dim):
                raise ValueError(
                    f"block matrix shape {m.shape} does not match {len(self.targets)} targets"
                )
            _check_orthogonal(m)
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)

    @classmethod
    def ry(cls, angle: float, targets, controls=()) -> "Gate":
        if isinstance(targets, int):
            targets = (targets,)
        return cls(kind="ry", targets=tuple(targets), controls=tuple(controls),
                   angle=float(angle))

    @classmethod
    def x(cls, target: int, controls=()) -> "Gate":
        return cls(kind="x", targets=(target,), controls=tuple(controls))

    @classmethod
    def block(cls, matrix, targets, label: str) -> "Gate":
        return cls(kind="block", targets=tuple(targets), matrix=matrix, label=label)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + tuple(map(itemgetter(0), self.controls))

    def adjoint(self) -> "Gate":
        if self.kind == "ry":
            return replace(self, angle=-self.angle)
        if self.kind == "x":
            return self
        label = self.label
        if label is not None:
            label = label[:-1] if label.endswith("†") else label + "†"
        adjoint = Gate(kind="block", targets=self.targets, controls=self.controls, label=label)
        # the read-only transposed view of this gate's own checked matrix, the
        # inverse of an orthogonal matrix: neither copied nor re-checked
        object.__setattr__(adjoint, "matrix", None if self.matrix is None else self.matrix.T)
        return adjoint


class Circuit:
    """Ordered gates over a fixed register layout; immutable once built."""

    def __init__(self, registers, gates=(), stages=()):
        regs = tuple(registers)
        spans = sorted((r.offset, r.offset + r.width, r.name) for r in regs)
        position = 0
        for lo, hi, name in spans:
            if lo != position:
                raise ValueError(f"registers do not tile qubit range at {name!r}")
            position = hi
        self.registers = regs
        self.num_qubits = position
        gates = tuple(gates)
        for g in gates:
            qubits = g.qubits
            if min(qubits) < 0 or max(qubits) >= position:
                bad = [q for q in qubits if not 0 <= q < position]
                raise ValueError(f"gate {g.kind!r} touches out-of-range qubits {bad}")
        self.gates = gates
        # stages: (name, gate count) pairs that tile the gates in order
        self.stages: dict[str, slice] = {}
        start = 0
        for name, count in stages:
            if name in self.stages or count < 0:
                raise ValueError(f"stage {name!r} repeats or has negative count {count}")
            self.stages[name] = slice(start, start + count)
            start += count
        if self.stages and start != len(gates):
            raise ValueError(f"stages cover {start} gates of {len(gates)}")
        self._by_name = {r.name: r for r in regs}
        self._resources = None  # count_resources's table, filled on first call

    def register(self, name: str) -> QubitRegister:
        return self._by_name[name]


# Elementary-gate costs per (kind, #controls), anchored on the paper's
# Fig. 5: an uncontrolled rotation or NOT and a CNOT are elementary, a
# singly-controlled rotation costs 2 and a doubly-controlled rotation pair 8.
# Wider controls fall back to the linear multi-control construction at
# MULTI_CONTROL_COST per control beyond the first; a block is charged the
# declared estimate BLOCK_COST * targets**2 plus MULTI_CONTROL_COST per control.
RY_COST = (1, 2, 8)
X_COST = (1, 1)
MULTI_CONTROL_COST = 16
BLOCK_COST = 2


def gate_cost(gate: Gate) -> int:
    c = len(gate.controls)
    if gate.kind == "block":
        t = len(gate.targets)
        return BLOCK_COST * t * t + MULTI_CONTROL_COST * c
    base = RY_COST if gate.kind == "ry" else X_COST
    return base[c] if c < len(base) else MULTI_CONTROL_COST * (c - 1)


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    elementary_gates: int
    depth_serial: int
    depth_native: int


def count_resources(circuit: Circuit, stage: str | None = None) -> ResourceReport:
    """Resources of the whole circuit, or of one named stage counted on its own."""
    if stage is not None and stage not in circuit.stages:
        raise ValueError(f"unknown stage {stage!r}; known stages: {list(circuit.stages)}")
    if circuit._resources is None:
        circuit._resources = _count_all(circuit)
    return circuit._resources[stage]


def _count_all(circuit: Circuit) -> dict[str | None, ResourceReport]:
    """One pass: the whole circuit under None and every stage under its name."""
    width = circuit.num_qubits
    # ASAP frontiers, serial and native, of the whole circuit and of the current
    # stage: each gate occupies its elementary cost or one layer on its qubits.
    # A run of gates on one qubits tuple is placed as a whole, exactly: each
    # gate of the run starts where the previous one ended.
    frontiers = [[0] * width for _ in range(4)]
    table = {}
    for name, span in (circuit.stages or {None: slice(None)}).items():
        frontiers[2:] = [0] * width, [0] * width
        total = 0
        for qubits, run in groupby(circuit.gates[span], attrgetter("qubits")):
            costs = list(map(gate_cost, run))
            cost, layers = sum(costs), len(costs)
            total += cost
            for frontier, step in zip(frontiers, (cost, layers, cost, layers)):
                end = max(map(frontier.__getitem__, qubits)) + step
                for q in qubits:
                    frontier[q] = end
        table[name] = ResourceReport(width, total, *(max(f, default=0) for f in frontiers[2:]))
    total = sum(report.elementary_gates for report in table.values())
    table[None] = ResourceReport(width, total, *(max(f, default=0) for f in frontiers[:2]))
    return table
