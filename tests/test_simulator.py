import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import simulator
from qps.builder import QpsConfig, build_qps
from qps.circuit import Circuit, Gate, QubitRegister
from qps.simulator import (
    StateVector,
    apply,
    extract_register,
    fidelity,
    inject_register,
    postselect,
)

REGS = (QubitRegister("A", 2, 0), QubitRegister("B", 2, 2))
A, B = REGS


def _state(amps):
    amps = np.asarray(amps, dtype=float)
    return StateVector(int(np.log2(len(amps))), amps / np.linalg.norm(amps))


def _random_orthogonal(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def test_statevector_normalization_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(ValueError):
        StateVector(1, np.array([bad, 0]))
    with pytest.raises(ValueError):
        inject_register(StateVector.ground(4), A, [bad, 1, 0, 0])


def test_statevector_owns_the_array_it_is_handed():
    amps = np.array([0.6, 0.8])
    state = StateVector(1, amps)
    assert state.amplitudes is amps
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0] = 1.0


def test_amplitude_dtypes():
    assert StateVector.ground(3).amplitudes.dtype == np.float64
    converted = StateVector(1, np.array([0.6 + 0j, 0.8 + 0j]))
    assert converted.amplitudes.dtype == np.float64
    assert np.array_equal(converted.amplitudes, [0.6, 0.8])
    injected = inject_register(StateVector.ground(4), A, np.array([0, 1 + 0j, 0, 0]))
    assert injected.amplitudes.dtype == np.float64

    real = Circuit(REGS, [Gate.ry(0.3, (0, 1), ((2, False),)), Gate.x(3),
                          Gate.block(np.array([[0, 1], [1, 0]]), (2,), label="X")])
    assert apply(StateVector.ground(4), real).amplitudes.dtype == np.float64


@pytest.mark.parametrize("amps", [[0.6, 0.8j], [0.6 + 1e-300j, 0.8], [0.6, complex(0.8, np.nan)],
                                  [complex(0, np.inf), 0]])
def test_nonzero_imaginary_amplitudes_rejected(amps):
    message = "^amplitudes must be real, got a nonzero imaginary part$"
    with pytest.raises(ValueError, match=message):
        StateVector(1, np.array(amps))
    with pytest.raises(ValueError, match=message):
        inject_register(StateVector.ground(4), A, amps + [0, 0])


def test_fused_ry_pair_equals_two_single_rotations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        t0, t1, c = (int(v) for v in rng.permutation(4)[:3])
        controls = ((c, bool(rng.integers(2))),)
        state = _state(rng.standard_normal(16))
        fused = apply(state, Circuit(REGS, [Gate.ry(angle, (t0, t1), controls)]))
        split = apply(state, Circuit(REGS, [Gate.ry(angle, t0, controls),
                                            Gate.ry(angle, t1, controls)]))
        assert np.max(np.abs(fused.amplitudes - split.amplitudes)) <= 1e-15


def _oracle_operator(q: int, gate: Gate) -> np.ndarray:
    """The gate's full 2**q x 2**q matrix as a sum of Kronecker products."""
    def kron(factors):  # factors keyed by qubit; qubit q-1 is the leftmost
        return functools.reduce(np.kron, [factors.get(t, np.eye(2))
                                          for t in reversed(range(q))])

    def unit(row, col):
        e = np.zeros((2, 2))
        e[row, col] = 1.0
        return e

    projectors = {c: unit(int(p), int(p)) for c, p in gate.controls}
    if gate.kind == "block":
        # bit i of the matrix index is target i
        active = sum(
            gate.matrix[row, col] * kron({
                **projectors,
                **{t: unit((row >> i) & 1, (col >> i) & 1)
                   for i, t in enumerate(gate.targets)},
            })
            for row in range(len(gate.matrix)) for col in range(len(gate.matrix))
        )
    else:
        single = unit(0, 1) + unit(1, 0)
        if gate.kind == "ry":
            c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
            single = np.array([[c, -s], [s, c]])
        active = kron({**projectors, **{t: single for t in gate.targets}})
    return np.eye(2**q) - kron(projectors) + active


@st.composite
def _random_circuits(draw):
    q = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["ry", "x", "block"]))
        width = 1 if kind == "x" else draw(st.integers(1, min(2, q)))
        order = draw(st.permutations(range(q)))
        targets = tuple(order[:width])
        controls = tuple((c, draw(st.booleans()))
                         for c in order[width:width + draw(st.integers(0, q - width))])
        if kind == "ry":
            angle = draw(st.floats(-4 * math.pi, 4 * math.pi))
            gates.append(Gate.ry(angle, targets, controls))
        elif kind == "x":
            gates.append(Gate.x(targets[0], controls))
        else:
            matrix = _random_orthogonal(2**width, np.random.default_rng(
                draw(st.integers(0, 2**32 - 1))))
            gates.append(Gate(kind="block", targets=targets, controls=controls,
                              matrix=matrix, label=kind))
    return Circuit((QubitRegister("q", q, 0),), gates)


def _oracle_apply(state: StateVector, circuit: Circuit) -> np.ndarray:
    expected = state.amplitudes
    for gate in circuit.gates:
        expected = _oracle_operator(circuit.num_qubits, gate) @ expected
    return expected


@settings(max_examples=150, deadline=None)
@given(circuit=_random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_kron_oracle(circuit, seed):
    state = _state(np.random.default_rng(seed).standard_normal(2**circuit.num_qubits))
    out = apply(state, circuit)
    assert np.max(np.abs(out.amplitudes - _oracle_apply(state, circuit)), initial=0.0) <= 1e-12
    assert out.amplitudes.dtype == np.float64


@settings(max_examples=150, deadline=None)
@given(circuit=_random_circuits(), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_apply_with_idle_qubits_matches_kron_oracle(circuit, extra, seed, data):
    # widen the circuit by `extra` qubits and shuffle the qubit labels, so
    # idle qubits sit at any position
    q = circuit.num_qubits + extra
    label = data.draw(st.permutations(range(q)))
    gates = [replace(g, targets=tuple(label[t] for t in g.targets),
                     controls=tuple((label[c], p) for c, p in g.controls))
             for g in circuit.gates]
    wide = Circuit((QubitRegister("q", q, 0),), gates)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((2,) * q)
    # every idle qubit holds |0>, |1> or a random superposition in a product
    # state; so may a touched one, which must not be skipped
    idle = set(range(q)) - {t for g in gates for t in g.qubits}
    for t in range(q):
        pick = data.draw(st.sampled_from(["0", "1", "mix"] if t in idle else
                                         ["0", "1", "mix", "entangled"]))
        if pick == "entangled":
            continue
        factor = {"0": [1.0, 0.0], "1": [0.0, 1.0], "mix": rng.standard_normal(2)}[pick]
        shape = [1] * q
        shape[q - 1 - t] = 2
        amps = np.take(amps, [0], axis=q - 1 - t) * np.reshape(factor, shape)
    state = _state(amps.reshape(-1))
    out = apply(state, wide)
    assert np.max(np.abs(out.amplitudes - _oracle_apply(state, wide)), initial=0.0) <= 1e-12


def test_idle_qubit_with_a_tiny_amplitude_is_not_skipped():
    # qubit 2 is idle; its |1> half holds one 1e-300 amplitude, which X on
    # qubit 0 must move like every other amplitude
    amps = np.zeros(8)
    amps[0b000] = 1.0
    amps[0b100] = 1e-300
    state = StateVector(3, amps)
    circuit = Circuit((QubitRegister("q", 3, 0),), [Gate.x(0), Gate.ry(0.7, 1, ((0, True),))])
    out = apply(state, circuit)
    expected = _oracle_apply(state, circuit)
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12
    assert np.array_equal(out.amplitudes[0b100:], expected[0b100:])
    assert out.amplitudes[0b101] == 1e-300 * math.cos(0.35)


@pytest.mark.parametrize("idle_bit,size", [(0, 8), (1, 16)], ids=["0", "1"])
def test_skipped_half_of_an_idle_qubit_stays_exactly_zero(idle_bit, size, monkeypatch):
    sizes = []
    apply_gate = simulator._apply_gate

    def recording(tensor, axis, gate):
        sizes.append(tensor.size)
        apply_gate(tensor, axis, gate)

    monkeypatch.setattr(simulator, "_apply_gate", recording)
    rng = np.random.default_rng(31)
    half = rng.standard_normal(8)
    amps = np.zeros(16)
    amps[8 * idle_bit:8 * idle_bit + 8] = half  # qubit 3 holds |idle_bit>
    state = _state(amps)
    circuit = Circuit((QubitRegister("q", 4, 0),),
                      [Gate.ry(0.4, (0, 1), ((2, False),)), Gate.x(2, ((0, True),)),
                       Gate.block(_random_orthogonal(4, rng), (1, 2), label="U")])
    out = apply(state, circuit)
    other = out.amplitudes[8 * (1 - idle_bit):8 * (1 - idle_bit) + 8]
    assert not other.any()
    # an idle |0> is indexed away; an idle |1> is simulated in full
    assert sizes == [size] * 3
    assert np.max(np.abs(out.amplitudes - _oracle_apply(state, circuit))) <= 1e-12


def test_apply_peak_memory_on_a_solve_circuit():
    circuit = build_qps(QpsConfig(n=6))
    b = np.random.default_rng(3).standard_normal(2**6)
    b[0] = 0.0
    state = inject_register(StateVector.ground(circuit.num_qubits), circuit.register("B"), b)
    tracemalloc.start()
    try:
        apply(state, circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 2 MiB state; 4.03 MiB while the all-zero BCaux half went through every gate
    assert peak < 3.5 * 2**20


def test_x_flips_qubit():
    out = apply(StateVector.ground(1), Circuit((QubitRegister("q", 1, 0),), [Gate.x(0)]))
    assert np.allclose(out.amplitudes, [0, 1])


def test_ry_matches_convention():
    # RotY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    theta = 0.83
    circ = Circuit((QubitRegister("q", 1, 0),), [Gate.ry(theta, 0)])
    out = apply(StateVector.ground(1), circ)
    assert out.amplitudes[0] == pytest.approx(math.cos(theta / 2))
    assert out.amplitudes[1] == pytest.approx(math.sin(theta / 2))


def test_rotation_pair_produces_sine_squares():
    # RotY(2 theta) pair on |00>: amplitudes (cos^2, cos sin, sin cos, sin^2)
    theta = 0.61
    circ = Circuit((QubitRegister("q", 2, 0),), [Gate.ry(2 * theta, (0, 1))])
    out = apply(StateVector.ground(2), circ)
    c, s = math.cos(theta), math.sin(theta)
    assert np.allclose(out.amplitudes, [c * c, c * s, s * c, s * s], atol=1e-14)


def test_controlled_and_negative_controls():
    regs = (QubitRegister("q", 2, 0),)
    cnot = Circuit(regs, [Gate.x(1, controls=((0, True),))])
    out = apply(_state([0, 1, 0, 0]), cnot)  # control qubit 0 set
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])
    neg = Circuit(regs, [Gate.x(1, controls=((0, False),))])
    out = apply(StateVector.ground(2), neg)  # fires on |0>
    assert np.allclose(out.amplitudes, [0, 0, 1, 0])


def test_block_application_matches_dense_oracle():
    rng = np.random.default_rng(11)
    U = _random_orthogonal(4, rng)
    regs = (QubitRegister("q", 3, 0),)
    state = _state(rng.standard_normal(8))
    # block on qubits (0, 2): oracle via explicit kron with qubit-1 identity,
    # basis index bits (q2 q1 q0)
    circ = Circuit(regs, [Gate.block(U, (0, 2), label="U")])
    out = apply(state, circ)
    full = np.zeros((8, 8))
    for row in range(8):
        for col in range(8):
            if (row >> 1) & 1 != (col >> 1) & 1:
                continue
            r = ((row >> 2) << 1) | (row & 1)
            c = ((col >> 2) << 1) | (col & 1)
            full[row, col] = U[r, c]
    assert np.allclose(out.amplitudes, full @ state.amplitudes, atol=1e-12)


def test_block_requires_matrix():
    circ = Circuit(REGS, [Gate.block(None, (0, 1), label="BC")])
    with pytest.raises(ValueError):
        apply(StateVector.ground(4), circ)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(StateVector.ground(2), Circuit(REGS, []))


def test_inject_basis_state_and_round_trip():
    state = inject_register(StateVector.ground(4), A, [0, 0, 1, 0])
    assert state.amplitudes[2] == 1.0
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(4)
    state = inject_register(StateVector.ground(4), B, amps)
    vec = extract_register(state, B, {A: 0})
    assert np.allclose(vec, amps / np.linalg.norm(amps), atol=1e-12)


def test_inject_demo_state():
    state = inject_register(StateVector.ground(4), A, [0, 2**-0.5, 0.5, 0.5])
    assert state.amplitudes[1] == pytest.approx(2**-0.5)
    assert state.amplitudes[2] == pytest.approx(0.5)
    assert state.amplitudes[3] == pytest.approx(0.5)


def test_inject_rejects_bad_input():
    with pytest.raises(ValueError):
        inject_register(StateVector.ground(4), A, [0, 0, 0, 0])
    occupied = inject_register(StateVector.ground(4), A, [0, 1, 0, 0])
    with pytest.raises(ValueError):
        inject_register(occupied, A, [0, 1, 0, 0])


def test_apply_then_adjoint_restores_state():
    rng = np.random.default_rng(7)
    regs = (QubitRegister("q", 4, 0),)
    for _ in range(10):
        gates = []
        for _ in range(30):
            kind = rng.integers(0, 3)
            qubits = rng.permutation(4)
            if kind == 0:
                gates.append(Gate.ry(float(rng.standard_normal()), int(qubits[0])))
            elif kind == 1:
                gates.append(Gate.ry(float(rng.standard_normal()), int(qubits[0]),
                                     controls=((int(qubits[1]), bool(rng.integers(2))),)))
            else:
                gates.append(Gate.x(int(qubits[1]), controls=((int(qubits[0]), True),)))
        circ = Circuit(regs, gates)
        state = _state(rng.standard_normal(16))
        inverse = Circuit(regs, [g.adjoint() for g in reversed(gates)])
        back = apply(apply(state, circ), inverse)
        assert fidelity(back.amplitudes, state.amplitudes) >= 1 - 1e-10


def test_norm_preserved_over_many_gates():
    rng = np.random.default_rng(13)
    regs = (QubitRegister("q", 6, 0),)
    gates = [Gate.ry(float(rng.standard_normal()), int(rng.integers(0, 6)))
             for _ in range(10000)]
    out = apply(StateVector.ground(6), Circuit(regs, gates))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_determinism_bit_identical():
    rng = np.random.default_rng(17)
    regs = (QubitRegister("q", 5, 0),)
    gates = []
    for _ in range(50):
        target = int(rng.integers(0, 5))
        control = int((target + 1 + rng.integers(0, 4)) % 5)
        gates.append(Gate.ry(float(rng.standard_normal()), target,
                             controls=((control, True),)))
    circ = Circuit(regs, gates)
    psi = rng.standard_normal(32)
    a = apply(_state(psi), circ)
    b = apply(_state(psi), circ)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_large_register_apply_runs():
    n = 20
    regs = (QubitRegister("q", n, 0),)
    out = apply(StateVector.ground(n), Circuit(regs, [Gate.x(n - 1)]))
    assert out.amplitudes[1 << (n - 1)] == 1.0


def test_postselect_plus_state():
    plus = _state([1, 1])
    res = postselect(plus, [0], [1])
    assert res.probability == pytest.approx(0.5)
    assert np.allclose(res.state.amplitudes, [0, 1])


def test_postselect_complement_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    state = _state(rng.standard_normal(8))
    p1 = postselect(state, [1], [1]).probability
    p0 = postselect(state, [1], [0]).probability
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_postselect_impossible_outcome():
    with pytest.raises(RuntimeError):
        postselect(StateVector.ground(2), [0], [1])


def test_extract_product_state_exact():
    rng = np.random.default_rng(29)
    a = rng.standard_normal(4)
    state = inject_register(StateVector.ground(4), A, a)
    state = inject_register(state, B, [0, 0, 0, 1])
    vec = extract_register(state, A, {B: 3})
    assert np.allclose(vec, a / np.linalg.norm(a), atol=1e-12)


def test_extract_rejects_entangled_state():
    # Bell state across the two registers
    amps = np.zeros(16)
    amps[0b0000] = 2**-0.5
    amps[0b0101] = 2**-0.5
    state = StateVector(4, amps)
    with pytest.raises(RuntimeError):
        extract_register(state, A, {B: 0})
    with pytest.raises(ValueError):
        extract_register(state, A, {})


def test_fidelity_basics():
    assert fidelity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert fidelity([1, 0], [0, 1]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fidelity([1, 0], [1, 0, 0])
