import dataclasses
import math
import re
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import gate_fields, random_orthogonal

from qps.builder import standard_registers
from qps.circuit import (
    GATE_KINDS,
    Circuit,
    Gate,
    QubitRegister,
    ResourceReport,
    _check_orthogonal,
    count_resources,
    gate_cost,
)
from qps.real import as_real

REGS = (QubitRegister("A", 2, 0), QubitRegister("B", 2, 2))


def test_gate_validation():
    for make, message in [
        (lambda: Gate.ry(0.5, (0, 0)), "duplicate target qubits"),
        (lambda: Gate.ry(0.5, (0, 0), controls=((1, True), (1, False))),
         "duplicate target qubits"),
        (lambda: Gate.x(0, controls=((1, True), (1, False))), "duplicate control qubits"),
        (lambda: Gate.ry(0.5, (0, 1), controls=((2, True), (2, True), (0, True))),
         "duplicate control qubits"),
        (lambda: Gate.ry(0.5, 0, controls=((0, True),)), "targets and controls must be disjoint"),
        (lambda: Gate.x(2, controls=((1, True), (2, False))),
         "targets and controls must be disjoint"),
        (lambda: Gate(kind="h", targets=(0,)), "unknown gate kind 'h'"),
        (lambda: Gate.ry(0.5, (0, 1, 2)), "ry supports one or two targets"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_ry_rejects_a_non_finite_angle(angle):
    # apply would otherwise fail far from the cause: a nan norm, or math's domain error
    for make in (lambda: Gate.ry(angle, 0), lambda: Gate("ry", (0,), (), np.float64(angle))):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == f"ry angle must be finite, got {angle!r}"


class _ReferenceGate:
    """Gate's fields set as a generated dataclass __init__ sets them, then checked
    by the validating __post_init__ that Gate had before its own __init__."""

    def __init__(self, kind, targets, controls=(), angle=None, matrix=None, label=None):
        self.kind, self.targets, self.controls = kind, targets, controls
        self.angle, self.matrix, self.label = angle, matrix, label
        self.__post_init__()

    @property
    def qubits(self):
        return self.targets + tuple(map(itemgetter(0), self.controls))

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


@st.composite
def _gate_arguments(draw):
    """Gate's six arguments, well-formed or not: any kind or an unknown one,
    distinct or repeated and overlapping qubits, a missing angle, up to three
    targets, and a block matrix that is orthogonal, misshapen, not orthogonal,
    complex, or real but complex-typed."""
    kind = draw(st.sampled_from(GATE_KINDS)) if draw(st.integers(0, 7)) else "h"
    if draw(st.booleans()):
        qubits = draw(st.permutations(range(6)))
        t, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        targets, controlled = tuple(qubits[:t]), qubits[t:t + c]
    else:
        targets = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
        controlled = draw(st.lists(st.integers(0, 3), max_size=3))
    controls = tuple((q, draw(st.booleans())) for q in controlled)
    angle = draw(st.floats(-4.0, 4.0)) if draw(st.integers(0, 3)) else None
    dim = 2 ** len(targets)
    orthogonal = random_orthogonal(dim, np.random.default_rng(draw(st.integers(0, 9))))
    matrix = draw(st.sampled_from([
        None, orthogonal, np.eye(dim + 1), 1.001 * orthogonal,
        orthogonal + 1j * np.eye(dim), orthogonal.astype(complex),
    ]))
    return kind, targets, controls, angle, matrix, draw(st.none() | st.just("U"))


def _outcome(make, *args, **kwargs):
    """The exception a constructor raises, by type and message, or the gate's fields."""
    try:
        g = make(*args, **kwargs)
    except Exception as exc:  # the type and the message are what is compared
        return type(exc), str(exc)
    m = g.matrix
    return (g.kind, g.targets, g.controls, g.angle, g.label,
            None if m is None else (m.dtype, m.tolist(), m.flags.writeable))


@settings(max_examples=400, deadline=None)
@given(_gate_arguments())
def test_gate_validates_as_the_dataclass_post_init_did(arguments):
    expected = _outcome(_ReferenceGate, *arguments)
    assert _outcome(Gate, *arguments) == expected
    names = ("kind", "targets", "controls", "angle", "matrix", "label")
    assert _outcome(Gate, **dict(zip(names, arguments))) == expected


def test_gate_keeps_its_frozen_slotted_dataclass_surface():
    assert [f.name for f in dataclasses.fields(Gate)] == [
        "kind", "targets", "controls", "angle", "matrix", "label"]
    g = Gate.ry(0.5, (0, 1), ((2, True),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.angle = 1.0
    assert not hasattr(g, "__dict__")
    assert g == g and g != Gate.ry(0.5, (0, 1), ((2, True),)) and len({g, g.adjoint()}) == 2
    # replace builds through the validating constructor
    assert gate_fields([dataclasses.replace(g, angle=-0.5)]) == gate_fields([g.adjoint()])
    with pytest.raises(ValueError, match="^duplicate target qubits$"):
        dataclasses.replace(g, targets=(0, 0))
    with pytest.raises(ValueError, match="^ry gate needs an angle$"):
        dataclasses.replace(g, angle=None)


def test_block_unitarity_enforced():
    with pytest.raises(ValueError):
        Gate.block(np.eye(4) * 1.001, (0, 1), label="bad")
    good = Gate.block(np.eye(4), (0, 1), label="id")
    assert good.matrix.shape == (4, 4)
    with pytest.raises(ValueError, match="^block matrix not orthogonal: defect nan$"):
        Gate.block(np.full((2, 2), np.nan), (0,), label="nan")


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_is_an_owned_read_only_real_copy(dtype):
    q = random_orthogonal(4, np.random.default_rng(1))
    source = q.astype(dtype)
    g = Gate.block(source, (0, 1), label="Q")
    source[0, 0] = 2.0
    assert g.matrix.dtype == np.float64 and not g.matrix.flags.writeable
    assert np.array_equal(g.matrix, q)
    assert np.array_equal(g.adjoint().matrix, q.T)


def test_block_adjoint_is_a_read_only_view_but_caller_arrays_are_copied():
    q = random_orthogonal(4, np.random.default_rng(2))
    q.flags.writeable = False
    g = Gate.block(q, (0, 1), label="Q")
    assert not np.shares_memory(g.matrix, q)
    adjoint = g.adjoint()
    assert np.shares_memory(adjoint.matrix, g.matrix)
    assert not adjoint.matrix.flags.writeable
    assert adjoint.label == "Q†" and np.array_equal(adjoint.matrix, q.T)
    back = adjoint.adjoint()
    assert gate_fields([back]) == gate_fields([g]) and np.array_equal(back.matrix, g.matrix)


@pytest.mark.parametrize("imag", [1j, 1e-300j, complex(0, np.nan)])
def test_block_with_nonzero_imaginary_part_rejected(imag):
    matrix = np.eye(2) + imag * np.array([[0, 1], [0, 0]])
    message = "^block matrix must be real, got a nonzero imaginary part$"
    with pytest.raises(ValueError, match=message):
        Gate.block(matrix, (0,), label="S")
    with pytest.raises(ValueError, match=message):
        Gate(kind="block", targets=(0,), matrix=matrix, label="S")


def test_register_tiling_enforced():
    with pytest.raises(ValueError):
        Circuit((QubitRegister("A", 2, 0), QubitRegister("B", 2, 3)))
    with pytest.raises(ValueError):
        Circuit((QubitRegister("A", 2, 0), QubitRegister("B", 2, 1)))
    # a repeated name would leave register("B") the last register of that name
    with pytest.raises(ValueError, match=r"^register names repeat: \['B', 'A'\]$"):
        Circuit([QubitRegister("B", 1, 0), QubitRegister("A", 1, 1), QubitRegister("B", 1, 2),
                 QubitRegister("A", 1, 3)])
    with pytest.raises(ValueError, match=r"^register names repeat: \['B'\]$"):
        Circuit([QubitRegister("B", 1, 0), QubitRegister("B", 1, 1)])


def test_gate_bounds_checked():
    ok = Gate.ry(0.5, (0, 3), controls=((1, True), (2, False)))
    for gate, bad in [
        (Gate.ry(0.5, 4), "[4]"),
        (Gate.ry(0.5, (-1, 0)), "[-1]"),
        (Gate.x(0, controls=((4, True), (1, True), (7, False))), "[4, 7]"),
        (Gate.x(1, controls=((-2, True),)), "[-2]"),
        (Gate.ry(0.5, (-1, 5), controls=((9, True),)), "[-1, 5, 9]"),
    ]:
        message = rf"^gate '{gate.kind}' touches out-of-range qubits {re.escape(bad)}$"
        with pytest.raises(ValueError, match=message):
            Circuit(REGS, [ok, gate, ok])
    # the check runs once per run of gates on one qubits tuple, and in every stage
    run = [Gate.x(4), Gate.ry(0.5, 4), Gate.x(4)]
    with pytest.raises(ValueError, match=r"^gate 'x' touches out-of-range qubits \[4\]$"):
        Circuit(REGS, [ok, *run, ok])
    with pytest.raises(ValueError, match=r"^gate 'ry' touches out-of-range qubits \[-1\]$"):
        Circuit(REGS, [ok, ok, Gate.ry(0.5, -1), ok], (("head", 1), ("body", 3)))
    assert Circuit(REGS, [ok]).gates == (ok,)


@pytest.mark.parametrize("make,message", [
    (lambda: Circuit(REGS, [Gate.x(0.5)]), "x target must be an integer, got 0.5"),
    (lambda: Circuit(REGS, [Gate.x(1, [(0.0, True)])]),
     "gate 'x' touches out-of-range qubits [0.0]"),
    (lambda: Circuit(REGS, [Gate.x(0), Gate.ry(0.5, (1, "2"))], (("a", 1), ("b", 1))),
     "gate 'ry' touches out-of-range qubits ['2']"),
    (lambda: QubitRegister("A", 2.0, 0), "register 'A' needs an integer width and offset"),
    (lambda: QubitRegister("A", 2, 1.0), "register 'A' needs an integer width and offset"),
    (lambda: standard_registers(2.5), "n must be an integer >= 2, got 2.5"),
    (lambda: Circuit(REGS, [Gate.x(True)]), "x target must be an integer, got True"),
    (lambda: Circuit(REGS, [Gate.ry(0.5, (0, True))]),
     "gate 'ry' touches out-of-range qubits [True]"),
    (lambda: QubitRegister("A", True, 0), "register 'A' needs an integer width and offset"),
    (lambda: Gate.x(2.0), "x target must be an integer, got 2.0"),
    (lambda: Gate.ry(0.1, True), "ry target must be an integer or a tuple, got True"),
    (lambda: Gate.ry(0.1, 2.0), "ry target must be an integer or a tuple, got 2.0"),
    (lambda: QubitRegister("B", 3, 4).qubit(2.5),
     "qubit index 2.5 of register 'B' is not an integer"),
    (lambda: QubitRegister("B", 3, 4).qubit(True),
     "qubit index True of register 'B' is not an integer"),
    (lambda: QubitRegister(None, 1, 0), "register name None is not a string"),
    (lambda: QubitRegister("A", 0, 0), "register 'A' must have width >= 1"),
    (lambda: QubitRegister("A", 1, -1), "register 'A' has negative offset"),
    (lambda: QubitRegister("B", 2, 0).qubit(2), "qubit index 2 outside register 'B'"),
], ids=["target", "control", "second-stage", "width", "offset", "standard-registers",
        "bool-target", "bool-pair", "bool-width", "x-float", "ry-bool", "ry-float",
        "index-float", "index-bool", "name-none", "width-zero", "offset-negative",
        "index-past"])
def test_non_integer_qubit_or_size_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_numpy_integer_qubits_accepted():
    gate = Gate.ry(0.5, np.int64(1), controls=((np.int32(0), True),))
    assert gate.targets == (1,)
    assert Circuit((QubitRegister("A", np.int64(2), np.int32(0)),), [gate]).gates == (gate,)


def test_adjoint_of_rotation_negates_angle():
    g = Gate.ry(math.pi / 3, 0)
    assert gate_fields([g.adjoint()]) == gate_fields([Gate.ry(-math.pi / 3, 0)])


def test_adjoint_is_involution_gate_for_gate():
    rng = np.random.default_rng(0)
    gates = [
        Gate.ry(0.7, 0, controls=((2, False),)),
        Gate.x(1, controls=((3, True),)),
        Gate.block(random_orthogonal(4, rng), (1, 2), label="U"),
        Gate.ry(-0.2, (2, 3)),
    ]
    assert gate_fields(g.adjoint().adjoint() for g in gates) == gate_fields(gates)


def _staged():
    gates = [Gate.ry(0.3, 0), Gate.x(1), Gate.x(2, controls=((0, True),))]
    return Circuit(REGS, gates, (("head", 1), ("body", 2), ("tail", 0)))


def test_stages_tile_the_gates():
    c = _staged()
    assert c.stages == {"head": slice(0, 1), "body": slice(1, 3), "tail": slice(3, 3)}
    assert c.gates[c.stages["body"]] == c.gates[1:]
    assert Circuit(REGS, c.gates).stages == {}
    for stages in ((("a", 1), ("b", 1)), (("a", 2), ("b", 2)), (("a", 4), ("b", -1))):
        with pytest.raises(ValueError):
            Circuit(REGS, c.gates, stages)
    with pytest.raises(ValueError, match="repeats"):
        Circuit(REGS, c.gates, (("a", 1), ("a", 2)))
    # a count is an integer, a bool is not; a name is a str, so None never
    # collides with count_resources' whole-circuit key
    for stages, message in [
        ((("a", 1.5), ("b", 1.5)), "stage 'a' count 1.5 is not an integer"),
        ((("a", True), ("b", 2)), "stage 'a' count True is not an integer"),
        ((("a", 1), ("b", 2.0)), "stage 'b' count 2.0 is not an integer"),
        (((None, 1), ("b", 2)), "stage name None is not a string"),
        ((("a", 1), (2, 2)), "stage name 2 is not a string"),
        ((("a", 3), ("b", -1)), "stage 'b' repeats or has negative count -1"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Circuit(REGS, c.gates, stages)
    assert Circuit(REGS, c.gates, (("a", np.int64(1)), ("b", 2))).stages["b"] == slice(1, 3)


def test_unknown_stage_rejected():
    assert count_resources(_staged(), "body") == count_resources(
        Circuit(REGS, _staged().gates[1:]))
    for circuit, stage, known in [
        (_staged(), "inversion", r"\['head', 'body', 'tail'\]"),
        (Circuit(REGS, [Gate.x(1)]), "body", r"\[\]"),
    ]:
        with pytest.raises(ValueError, match=f"unknown stage '{stage}'; known stages: {known}"):
            count_resources(circuit, stage)


def test_cost_model_anchors():
    assert gate_cost(Gate.ry(0.5, 0)) == 1
    assert gate_cost(Gate.ry(0.5, 0, controls=((1, True),))) == 2
    # Fig. 5 anchor: the doubly-controlled rotation pair expands to 8
    fig5 = Gate.ry(0.5, (2, 3), controls=((0, True), (1, True)))
    assert gate_cost(fig5) == 8
    # wider controls: 16 per control beyond the first
    assert gate_cost(Gate.ry(0.5, 0, controls=((1, True), (2, False), (3, True)))) == 32
    assert gate_cost(Gate.x(1, controls=((0, True),))) == 1
    assert gate_cost(Gate.x(0, controls=((1, True), (2, True)))) == 16
    assert gate_cost(Gate.x(0, controls=((1, True), (2, True), (3, False)))) == 32
    assert gate_cost(Gate.block(np.eye(4), (0, 1), label="b")) == 8  # 2 * 2^2


def test_depth_examples():
    disjoint = count_resources(Circuit(REGS, [Gate.ry(0.5, 0), Gate.ry(0.5, 1)]))
    assert disjoint.depth_native == 1
    sharing = count_resources(Circuit(REGS, [Gate.ry(0.5, 0), Gate.ry(0.5, 0)]))
    assert sharing.depth_native == 2
    assert disjoint.depth_serial == 1
    assert sharing.depth_serial == 2
    # control sharing also serializes
    ctrl = count_resources(Circuit(REGS, [
        Gate.ry(0.5, 0, controls=((2, True),)),
        Gate.ry(0.5, 1, controls=((2, True),)),
    ]))
    assert ctrl.depth_native == 2


def test_single_rotation_report():
    c = Circuit(REGS, [Gate.ry(0.5, 0)])
    r = count_resources(c)
    assert (r.elementary_gates, r.depth_serial, r.depth_native) == (1, 1, 1)


def test_resource_monotonicity_and_adjoint_invariance():
    rng = np.random.default_rng(3)
    gates = []
    for _ in range(40):
        q = int(rng.integers(0, 4))
        ctrl = int(rng.integers(0, 4))
        if ctrl == q:
            gates.append(Gate.ry(float(rng.standard_normal()), q))
        else:
            gates.append(Gate.ry(float(rng.standard_normal()), q,
                                 controls=((ctrl, bool(rng.integers(0, 2))),)))
    a = Circuit(REGS, gates[:20])
    b = Circuit(REGS, gates[20:])
    ra, rb = count_resources(a), count_resources(b)
    rc = count_resources(Circuit(REGS, a.gates + b.gates))
    assert rc.elementary_gates == ra.elementary_gates + rb.elementary_gates
    assert rc.depth_serial <= ra.depth_serial + rb.depth_serial
    radj = count_resources(Circuit(REGS, [g.adjoint() for g in reversed(a.gates)]))
    assert radj.elementary_gates == ra.elementary_gates
    assert radj.depth_serial == ra.depth_serial
    assert ra.elementary_gates >= len(a.gates)
    assert ra.depth_serial <= ra.elementary_gates


def _reference_count(gates, num_qubits):
    """The plain per-gate ASAP loop that count_resources's run-length pass must match."""
    total = 0
    serial = [0] * num_qubits
    native = [0] * num_qubits
    for gate in gates:
        cost = gate_cost(gate)
        total += cost
        qubits = gate.qubits
        end_serial = max(map(serial.__getitem__, qubits)) + cost
        end_native = max(map(native.__getitem__, qubits)) + 1
        for q in qubits:
            serial[q] = end_serial
            native[q] = end_native
    return ResourceReport(num_qubits, total, max(serial, default=0), max(native, default=0))


@st.composite
def _gate_on(draw, qubits):
    """A gate whose qubits tuple is exactly ``qubits``, any kind and polarities."""
    kinds = ["x", "ry", "block"] + (["ry2"] if len(qubits) >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    t = {"x": 1, "ry": 1, "ry2": 2, "block": draw(st.integers(1, len(qubits)))}[kind]
    controls = tuple((q, draw(st.booleans())) for q in qubits[t:])
    if kind == "x":
        return Gate.x(qubits[0], controls)
    if kind == "block":
        return Gate(kind="block", targets=qubits[:t], controls=controls, label="U")
    return Gate.ry(0.5, qubits[:t], controls)


def _some(draw, items, least=1):
    """A random ordering of ``items`` cut to at least ``least`` of them."""
    items = tuple(draw(st.permutations(items)))
    return items[:draw(st.integers(least, len(items)))]


@st.composite
def _staged_circuits(draw):
    """Random circuits built from runs on one qubit tuple, broken by gates on a
    subset, a superset or a fresh tuple, cut into possibly empty stages or none."""
    width = draw(st.integers(1, 5))
    regs = (QubitRegister("q", width, 0),)
    gates = []
    for _ in range(draw(st.integers(0, 20))):
        last = gates[-1].qubits if gates else ()
        spare = [q for q in range(width) if q not in last]
        move = draw(st.sampled_from(("repeat", "repeat", "subset", "superset", "fresh")))
        if move == "repeat" and last:
            qubits = last
        elif move == "subset" and last:
            qubits = _some(draw, last)
        elif move == "superset" and last and spare:
            qubits = last + _some(draw, spare)
        else:
            qubits = _some(draw, range(width))
        gates.append(draw(_gate_on(qubits)))
    stages = ()
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, len(gates)), max_size=4)))
        bounds = [0, *cuts, len(gates)]
        stages = tuple((f"s{i}", hi - lo) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
    return regs, gates, stages


@settings(max_examples=150, deadline=None)
@given(_staged_circuits())
def test_one_pass_counts_match_the_per_gate_loop(case):
    regs, gates, stages = case
    circuit = Circuit(regs, gates, stages)
    whole = count_resources(circuit)
    assert whole == _reference_count(circuit.gates, circuit.num_qubits)
    by_stage = {}
    for name, span in circuit.stages.items():
        by_stage[name] = count_resources(circuit, name)
        assert by_stage[name] == _reference_count(circuit.gates[span], circuit.num_qubits)
        assert by_stage[name] == count_resources(Circuit(regs, circuit.gates[span]))
    # stages first, then the whole circuit, on a second build of the same gates
    fresh = Circuit(regs, gates, stages)
    assert {name: count_resources(fresh, name) for name in fresh.stages} == by_stage
    assert count_resources(fresh) == whole
