import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps.circuit import (
    Circuit,
    Gate,
    QubitRegister,
    ResourceReport,
    count_resources,
    gate_cost,
)

REGS = (QubitRegister("A", 2, 0), QubitRegister("B", 2, 2))


def _random_orthogonal(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def _fields(gates):
    """Each gate's fields, its matrix as nested lists; gates themselves compare by identity."""
    return [(g.kind, g.targets, g.controls, g.angle, g.label,
             None if g.matrix is None else g.matrix.tolist()) for g in gates]


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


def test_block_unitarity_enforced():
    with pytest.raises(ValueError):
        Gate.block(np.eye(4) * 1.001, (0, 1), label="bad")
    good = Gate.block(np.eye(4), (0, 1), label="id")
    assert good.matrix.shape == (4, 4)
    with pytest.raises(ValueError, match="^block matrix not orthogonal: defect nan$"):
        Gate.block(np.full((2, 2), np.nan), (0,), label="nan")


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_is_an_owned_read_only_real_copy(dtype):
    q = _random_orthogonal(4, np.random.default_rng(1))
    source = q.astype(dtype)
    g = Gate.block(source, (0, 1), label="Q")
    source[0, 0] = 2.0
    assert g.matrix.dtype == np.float64 and not g.matrix.flags.writeable
    assert np.array_equal(g.matrix, q)
    assert np.array_equal(g.adjoint().matrix, q.T)


def test_block_adjoint_is_a_read_only_view_but_caller_arrays_are_copied():
    q = _random_orthogonal(4, np.random.default_rng(2))
    q.flags.writeable = False
    g = Gate.block(q, (0, 1), label="Q")
    assert not np.shares_memory(g.matrix, q)
    adjoint = g.adjoint()
    assert np.shares_memory(adjoint.matrix, g.matrix)
    assert not adjoint.matrix.flags.writeable
    assert adjoint.label == "Q†" and np.array_equal(adjoint.matrix, q.T)
    back = adjoint.adjoint()
    assert _fields([back]) == _fields([g]) and np.array_equal(back.matrix, g.matrix)


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
    assert Circuit(REGS, [ok]).gates == (ok,)


def test_adjoint_of_rotation_negates_angle():
    g = Gate.ry(math.pi / 3, 0)
    assert _fields([g.adjoint()]) == _fields([Gate.ry(-math.pi / 3, 0)])


def test_adjoint_is_involution_gate_for_gate():
    rng = np.random.default_rng(0)
    gates = [
        Gate.ry(0.7, 0, controls=((2, False),)),
        Gate.x(1, controls=((3, True),)),
        Gate.block(_random_orthogonal(4, rng), (1, 2), label="U"),
        Gate.ry(-0.2, (2, 3)),
    ]
    assert _fields(g.adjoint().adjoint() for g in gates) == _fields(gates)


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
    # stages first, then the whole circuit, on a circuit not yet counted
    fresh = Circuit(regs, gates, stages)
    assert {name: count_resources(fresh, name) for name in fresh.stages} == by_stage
    assert count_resources(fresh) == whole
