import math
import re

import numpy as np
import pytest

from qps.circuit import Circuit, Gate, QubitRegister, count_resources, gate_cost

REGS = (QubitRegister("A", 2, 0), QubitRegister("B", 2, 2))


def _random_orthogonal(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


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
    assert adjoint.adjoint() == g


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
    assert g.adjoint() == Gate.ry(-math.pi / 3, 0)


def test_adjoint_is_involution_gate_for_gate():
    rng = np.random.default_rng(0)
    c = Circuit(REGS, [
        Gate.ry(0.7, 0, controls=((2, False),)),
        Gate.x(1, controls=((3, True),)),
        Gate.block(_random_orthogonal(4, rng), (1, 2), label="U"),
        Gate.ry(-0.2, (2, 3)),
    ])
    back = c.adjoint().adjoint()
    assert len(back) == len(c)
    for g1, g2 in zip(back.gates, c.gates):
        assert g1 == g2


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


def test_adjoint_reverses_order_and_conjugates():
    for c in (Circuit(REGS, [Gate.ry(0.3, 0), Gate.x(1)]), _staged()):
        adj = c.adjoint()
        assert adj.gates[-1] == Gate.ry(-0.3, 0)
        assert adj.gates[-2] == Gate.x(1)
        assert adj.stages == {}


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


def test_cost_model_unknown_kind_rejected():
    g = Gate.ry(0.5, 0)
    object.__setattr__(g, "kind", "mystery")
    with pytest.raises(ValueError):
        gate_cost(g)


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
    radj = count_resources(a.adjoint())
    assert radj.elementary_gates == ra.elementary_gates
    assert radj.depth_serial == ra.depth_serial
    assert ra.elementary_gates >= len(a.gates)
    assert ra.depth_serial <= ra.elementary_gates

