import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import peak_bytes, random_orthogonal, record_gates, run_probe

from qps import simulator
from qps.builder import QpsConfig, build_qps, solve
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


def test_statevector_normalization_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_reports_a_bad_norm_as_a_plain_float():
    with pytest.raises(ValueError) as exc:
        StateVector(1, [0.5, 0.5])
    assert str(exc.value) == "statevector norm 0.7071067811865476 deviates from 1"


@pytest.mark.parametrize("make,count", [
    (lambda: StateVector(2.0, [1.0, 0.0, 0.0, 0.0]), "2.0"),
    (lambda: StateVector(True, [0.0, 1.0]), "True"),
    (lambda: StateVector(-1, [1.0]), "-1"),
    (lambda: StateVector.ground(-1), "-1"),
    (lambda: StateVector.ground(2.0), "2.0"),
    (lambda: StateVector.ground(True), "True"),
], ids=["float", "bool", "negative", "ground-negative", "ground-float", "ground-bool"])
def test_statevector_rejects_a_qubit_count_that_is_no_integer_or_negative(make, count):
    with pytest.raises(ValueError, match=rf"^num_qubits must be an integer >= 0, got {count}$"):
        make()
    numpy_count = np.int64(2)
    assert StateVector(numpy_count, np.eye(4)[1]).tensor().shape == (2, 2)
    assert StateVector.ground(numpy_count).tensor().shape == (2, 2)


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


def _oracle_apply(state: StateVector, circuit: Circuit) -> np.ndarray:
    expected = state.amplitudes
    for gate in circuit.gates:
        expected = _oracle_operator(circuit.num_qubits, gate) @ expected
    return expected


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


def test_a_tiny_amplitude_in_the_last_slab_is_not_skipped():
    # 2**20 amplitudes: each |1> half is four 1 MiB slabs, which the scan reads
    # until one is nonzero, and the one 1e-300 off |0...0> is in the last slab
    q = 20
    amps = np.zeros(2**q)
    amps[0], amps[-1] = 1.0, 1e-300
    assert simulator._zero_qubits(amps.reshape((2,) * q), reversed(range(q))) == {}
    out = apply(StateVector(q, amps), Circuit((QubitRegister("q", q, 0),),
                                              [Gate.ry(0.5, 0)])).amplitudes
    assert out[-1] == 1e-300 * math.cos(0.25) and out[-2] == -1e-300 * math.sin(0.25)


@pytest.mark.parametrize("idle_bit,size", [(0, 8), (1, 16)], ids=["0", "1"])
def test_skipped_half_of_an_idle_qubit_stays_exactly_zero(idle_bit, size, monkeypatch):
    received = record_gates(monkeypatch)
    rng = np.random.default_rng(31)
    half = rng.standard_normal(8)
    amps = np.zeros(16)
    amps[8 * idle_bit:8 * idle_bit + 8] = half  # qubit 3 holds |idle_bit>
    state = _state(amps)
    circuit = Circuit((QubitRegister("q", 4, 0),),
                      [Gate.ry(0.4, (0, 1), ((2, False),)), Gate.x(2, ((0, True),)),
                       Gate.block(random_orthogonal(4, rng), (1, 2), label="U")])
    out = apply(state, circuit)
    other = out.amplitudes[8 * (1 - idle_bit):8 * (1 - idle_bit) + 8]
    assert not other.any()
    # an idle |0> is indexed away; an idle |1> is simulated in full
    assert [math.prod(call.shape) for call in received] == [size] * 3
    assert np.max(np.abs(out.amplitudes - _oracle_apply(state, circuit))) <= 1e-12


def _plain_apply(state: StateVector, circuit: Circuit) -> np.ndarray:
    """Every gate on the whole state under its own controls only."""
    q = circuit.num_qubits
    amps = np.array(state.amplitudes)
    axis = {t: q - 1 - t for t in range(q)}
    for gate in circuit.gates:
        simulator._apply_gate(amps.reshape((2,) * q), axis, gate, gate.controls)
    return amps


MUTATIONS = ("gate on a qubit of Q", "other X on a", "negative control on a",
             "controlled on a, targets Q", "a not at |0> on input")


@st.composite
def _circuits_and_inputs(draw, idle=(0, 2), sandwiches=(False, True),
                         held=("0", "1", "mix", "tiny", "entangled")):
    """A circuit on 1..6 qubits, `idle` (a range) of them idle, and an input state.

    Where `sandwiches` allows, X(a; Q) ... X(a; Q) sandwiches, whose gates run
    under a positive control on a, come first, with any of MUTATIONS, which
    must break what apply knows of a; then 0..8 ry (1-2 targets), x and block
    (1-3 targets) gates on the busy qubits, under controls of either polarity.
    Each qubit of the input is one of `held`: |0>, |1>, a mix, |0> with a
    1e-300 amplitude on |1> (which must not pass for |0>) or left entangled;
    a is |0> unless mutated.
    """
    q = draw(st.integers(1, 6))
    busy = draw(st.permutations(range(q)))[draw(st.integers(min(idle[0], q - 1),
                                                            min(idle[1], q - 1))):]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gate(kind, targets, controls):
        if kind == "ry":
            return Gate.ry(draw(st.floats(-4 * math.pi, 4 * math.pi)), targets, controls)
        if kind == "x":
            return Gate.x(targets[0], controls)
        return Gate("block", targets, controls, None, random_orthogonal(2**len(targets), rng), "U")

    def pick(options):
        return draw(st.sampled_from(options))

    gates, a, mutations = [], None, []
    if len(busy) > 1 and pick(sandwiches):
        a, *others = draw(st.permutations(busy))
        read = others[:draw(st.integers(0, min(2, len(others) - 1)))]  # the qubits of Q
        free = others[len(read):]
        pattern = tuple((c, draw(st.booleans())) for c in read)
        mutations = [mutation for mutation in MUTATIONS if draw(st.booleans())]

        def controlled(target, first):
            rest = draw(st.permutations([c for c in others if c != target]))
            more = rest[:draw(st.integers(0, min(2, len(rest))))]
            return gate(pick(["ry", "x"]), (target,),
                        (first, *((c, draw(st.booleans())) for c in more)))

        mutants = {
            "other X on a": lambda: Gate.x(a, ((pick(others), True),)),
            "negative control on a": lambda: controlled(pick(others), (a, False)),
        }
        if read:
            mutants["gate on a qubit of Q"] = lambda: gate(pick(["ry", "x"]), (pick(read),), ())
            mutants["controlled on a, targets Q"] = lambda: controlled(pick(read), (a, True))
        for _ in range(draw(st.integers(1, 2))):
            body = [controlled(pick(free), (a, True)) for _ in range(draw(st.integers(1, 4)))]
            for mutation in mutations:
                if mutation in mutants:
                    body.insert(draw(st.integers(0, len(body))), mutants[mutation]())
            gates += [Gate.x(a, pattern), *body, Gate.x(a, pattern)]
        gates.append(controlled(pick(free), (a, True)))  # a is back at |0>
    for _ in range(draw(st.integers(0, 8))):
        kind = pick(["ry", "x", "block"])
        order = draw(st.permutations(busy))
        width = 1 if kind == "x" else draw(st.integers(1, min(3 if kind == "block" else 2,
                                                            len(busy))))
        controls = tuple((c, draw(st.booleans()))
                         for c in order[width:width + draw(st.integers(0, len(busy) - width))])
        gates.append(gate(kind, tuple(order[:width]), controls))

    amps = rng.standard_normal((2,) * q)
    for t in range(q):
        kind = "0" if t == a and "a not at |0> on input" not in mutations else pick(held)
        if kind != "entangled":
            factor = {"0": [1.0, 0.0], "1": [0.0, 1.0], "mix": rng.standard_normal(2),
                      "tiny": [1.0, 1e-300]}[kind]
            amps = np.take(amps, [0], axis=q - 1 - t) * np.reshape(factor, (2,) + (1,) * t)
    return Circuit((QubitRegister("q", q, 0),), gates), _state(amps.reshape(-1))


def _check_apply(case):
    """apply returns float64, the plain loop's bits, and the oracle to 1e-12.

    Bits up to the sign of a zero: where apply skips a gate over exactly-zero
    amplitudes, a -0.0 stays that the plain loop's product turns into +0.0.
    """
    circuit, state = case
    out = apply(state, circuit).amplitudes
    assert out.dtype == np.float64
    assert np.array_equal(out, _plain_apply(state, circuit))
    assert np.max(np.abs(out - _oracle_apply(state, circuit))) <= 1e-12


# five slices of the one strategy, 300 examples in all, each checked alike

@settings(max_examples=50, deadline=None)
@given(case=_circuits_and_inputs(idle=(0, 0), sandwiches=(False,), held=("entangled",)))
def test_apply_matches_kron_oracle(case):
    _check_apply(case)


@settings(max_examples=50, deadline=None)
@given(case=_circuits_and_inputs(idle=(1, 2), sandwiches=(False,)))
def test_apply_with_idle_qubits_matches_kron_oracle(case):
    _check_apply(case)


@settings(max_examples=100, deadline=None)
@given(case=_circuits_and_inputs(sandwiches=(True,)))
def test_gates_under_an_x_computed_control_match_the_plain_loop(case):
    _check_apply(case)


@settings(max_examples=50, deadline=None)
@given(case=_circuits_and_inputs(sandwiches=(False,), held=("0", "1", "entangled")))
def test_apply_in_its_working_axis_order_matches_the_plain_loop_bit_for_bit(case):
    # blocks lead the working order where no ry or x targets them; an idle
    # qubit at |0> is indexed away and one at |1> is kept
    _check_apply(case)


@settings(max_examples=50, deadline=None)
@given(case=_circuits_and_inputs(idle=(0, 0), sandwiches=(False,),
                                 held=("0", "1", "mix", "tiny")))
def test_gates_where_tracked_qubits_stay_at_zero_match_the_plain_loop(case):
    _check_apply(case)


def test_a_widened_gate_may_leave_no_qubit_free(monkeypatch):
    # qubit 0 = [qubit 1 at |0>]; widened by that pair, the rotation leaves a
    # one-column product, which runs as two-column gemm like the plain loop's
    pattern = ((1, False),)
    circuit = Circuit((QubitRegister("q", 3, 0),),
                      [Gate.x(0, pattern), Gate.ry(1.0, 2, ((0, True),)), Gate.x(0, pattern)])
    for seed in range(8):  # gemv changes about half of these results
        amps = np.random.default_rng(seed).standard_normal((2, 2, 2))
        amps[:, :, 1] = 0.0
        state = _state(amps.reshape(-1))
        with monkeypatch.context() as patch:
            received = record_gates(patch)
            out = apply(state, circuit).amplitudes
        assert received[1].controls == ((0, True), (1, False))
        assert np.array_equal(out, _plain_apply(state, circuit))


def test_a_gate_rounds_alike_with_an_idle_qubit_indexed_away():
    # qubit 2 is idle at |0>, so apply multiplies one column where the plain
    # loop multiplies two; gemv rounded 3 of the 8 seeds otherwise, per polarity
    for bit in (True, False):
        circuit = Circuit((QubitRegister("q", 3, 0),), [Gate.ry(1.0, 0, ((1, bit),))])
        for seed in range(8):
            amps = np.random.default_rng(seed).standard_normal((2, 2, 2))
            amps[1] = 0.0
            state = _state(amps.reshape(-1))
            assert np.array_equal(apply(state, circuit).amplitudes, _plain_apply(state, circuit))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_blas_rounds_each_column_of_a_small_product_alike_wherever_it_sits(width):
    # apply's working order permutes the columns of a ry, x or small block
    # product against the standard layout, and a one-column product runs as
    # two-column gemm; its bits hold only if a column rounds alike wherever it
    # sits and however many columns it has (a 16x16 product already rounds
    # some columns by where they sit)
    rng = np.random.default_rng(7 + width)
    for columns in range(2, 65):
        m = rng.standard_normal((2**width, 2**width))
        x = rng.standard_normal((2**width, columns))
        p = rng.permutation(columns)
        product = m @ x
        assert np.array_equal(m @ x[:, p], product[:, p]), columns
        for j in range(columns):
            pair = m @ np.repeat(x[:, j:j + 1], 2, axis=1)
            assert np.array_equal(pair[:, 0], product[:, j]), (columns, j)


@pytest.mark.parametrize("mode,n", [("serial", 6), ("parallel", 5)])
def test_bc_blocks_arrive_with_b_on_the_leading_axes(mode, n, monkeypatch):
    received = record_gates(monkeypatch)
    solve(QpsConfig(n, mode), np.random.default_rng(n).standard_normal(2**n - 1))
    blocks = [call for call in received if call.gate.kind == "block"]
    assert len(blocks) == 2  # BC and BC-dagger
    for call in blocks:
        # B's most significant qubit on axis 0: the block multiplies a view
        assert [call.axis[t] for t in reversed(call.gate.targets)] == list(range(n))


@pytest.mark.parametrize("mode,n", [("serial", 6), ("parallel", 5)])
def test_bc_blocks_multiply_the_whole_kept_state(mode, n, monkeypatch):
    # E, Anc and C are |0> when BC runs, and C again when BC-dagger runs, yet no
    # block is narrowed: a dense 2**n x 2**n product's bits change with its width
    received = record_gates(monkeypatch)
    solve(QpsConfig(n, mode), np.random.default_rng(n).standard_normal(2**n - 1))
    blocks = [call for call in received if call.gate.kind == "block"]
    assert [call.gate.label for call in blocks] == ["BC", "BC†"]
    assert all(call.controls == () for call in blocks)


def _injected(circuit, seed):
    n = circuit.register("B").width
    b = np.random.default_rng([seed, n]).standard_normal(2**n)
    b[0] = 0.0
    return inject_register(StateVector.ground(circuit.num_qubits), circuit.register("B"),
                           b / np.linalg.norm(b))


@pytest.mark.parametrize("mode,ry", [("serial", "bitwise"), ("serial", "semantic"),
                                     ("parallel", "bitwise")])
def test_apply_builds_no_gate(mode, ry, monkeypatch):
    # each gate runs under a tuple of controls: the validating constructor ran
    # once per gate, when the builder made it
    circuit = build_qps(QpsConfig(5, mode, ry))
    state = _injected(circuit, 5)
    built = []
    init = Gate.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counting)
    apply(state, circuit)
    assert built == []
    Gate.x(0)  # the count sees a gate that is built
    assert len(built) == 1


@pytest.mark.parametrize("ry", ["bitwise", "semantic"])
@pytest.mark.parametrize("mode,ns", [("serial", range(2, 7)), ("parallel", range(3, 6))])
def test_solve_circuits_match_the_plain_loop_byte_for_byte(mode, ns, ry):
    # bytes, not values: the sign of every zero is pinned too
    for n in ns:
        circuit = build_qps(QpsConfig(n, mode, ry))
        for seed in range(3):
            state = _injected(circuit, seed)
            assert apply(state, circuit).amplitudes.tobytes() == \
                _plain_apply(state, circuit).tobytes(), (n, seed)


def test_one_circuit_serves_inputs_with_different_zero_patterns():
    # verify solves many b on one circuit, so nothing apply derives from an
    # input may outlive the call: E and Anc at |0> (gates skipped and
    # narrowed), E loaded (no tracked qubit at |0>), each again, then the idle
    # BCaux loaded (kept, not indexed away), each against the plain loop's bytes
    circuit = build_qps(QpsConfig(4))
    q, rng = circuit.num_qubits, np.random.default_rng(4)
    e, anc, bcaux = map(circuit.register, ("E", "Anc", "BCaux"))
    for loaded in ((), (e,), (), (e,), (e, anc, bcaux)):
        free = set(circuit.register("B").qubits).union(*(r.qubits for r in loaded))
        outside = sum(1 << t for t in range(q) if t not in free)
        amps = np.where(np.arange(2**q) & outside, 0.0, rng.standard_normal(2**q))
        state = _state(amps)
        assert apply(state, circuit).amplitudes.tobytes() == \
            _plain_apply(_state(amps), circuit).tobytes(), [r.name for r in loaded]


def test_rotation_pair_matrix_is_the_broadcast_kron_bit_for_bit():
    # built from Python-float products, which are the IEEE products the
    # broadcast form computed, the sign of each zero included
    angles = [0.0, -0.0, *np.random.default_rng(9).uniform(-4 * math.pi, 4 * math.pi, 10_000),
              *(j * math.pi / 2**k for k in range(12) for j in range(-16, 17))]
    for angle in angles:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        rotation = np.array([[c, -s], [s, c]])
        broadcast = (rotation[:, None, :, None] * rotation[None, :, None, :]).reshape(4, 4)
        pair = simulator._gate_matrix(Gate.ry(angle, (0, 1)))
        assert np.array_equal(pair, broadcast) and pair.tobytes() == broadcast.tobytes(), angle


@pytest.mark.parametrize("mode,n", [("serial", 7), ("parallel", 6)])
def test_solve_gates_sweep_only_where_tracked_qubits_allow(mode, n, monkeypatch):
    received = record_gates(monkeypatch)
    circuit = build_qps(QpsConfig(n, mode))
    apply(_injected(circuit, 5), circuit)
    # the amplitudes the gates swept, and those they would sweep under their
    # own controls over the same kept qubits (BCaux is indexed away)
    kept = len(received[0].shape)
    swept = sum(2 ** (len(call.shape) - len(call.gate.targets) - len(call.controls))
                for call in received)
    plain = sum(2 ** (kept - len(g.targets) - len(g.controls)) for g in circuit.gates)
    # 0.147x at serial n=7 and 0.140x at parallel n=6; 0.36x and 0.41x while
    # only X-only targets were tracked, so E pairs not yet loaded were swept
    assert swept <= 0.2 * plain


def test_apply_peak_memory_on_a_solve_circuit():
    circuit = build_qps(QpsConfig(n=6))
    b = np.random.default_rng(3).standard_normal(2**6)
    b[0] = 0.0
    state = inject_register(StateVector.ground(circuit.num_qubits), circuit.register("B"), b)
    _, peak = peak_bytes(lambda: apply(state, circuit))
    # a 2 MiB state; 4.03 MiB while the all-zero BCaux half went through every gate
    assert peak < 3.5 * 2**20


NEEDS_ARGUMENT_HANDOVER = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the callee frame takes over call arguments from 3.11")


@NEEDS_ARGUMENT_HANDOVER
def test_inject_then_apply_holds_one_state_while_the_gates_run():
    circuit = build_qps(QpsConfig(n=6))
    b = np.random.default_rng(3).standard_normal(2**6)
    b[0] = 0.0
    q, b_reg = circuit.num_qubits, circuit.register("B")
    out, peak = peak_bytes(lambda: apply(inject_register(StateVector.ground(q), b_reg, b), circuit))
    # the output plus the BC block's two half-state temporaries; 2.52x while
    # apply copied an input its caller still held
    assert peak < 2.25 * out.amplitudes.nbytes


@NEEDS_ARGUMENT_HANDOVER
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_serial_n7_solve_grows_rss_by_about_one_state():
    # a fresh process reads its own peak RSS (VmHWM, in KiB); its ru_maxrss
    # would start at the peak of the pytest process that spawned it
    probe = """
import numpy as np
from qps.builder import QpsConfig, solve
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
rng = np.random.default_rng(1)
solve(QpsConfig(3), rng.standard_normal(7))
before = peak()
solve(QpsConfig(7), rng.standard_normal(127))
print(peak() - before)
"""
    state_kib = 2**21 * 8 // 1024
    # about 1.1x; 2.53x while the ground, injected and copied states overlapped
    assert int(run_probe(probe)) < 1.5 * state_kib


def test_inject_writes_the_full_product_bit_for_bit():
    rng = np.random.default_rng(43)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    a[1] = 0.0  # a zero row of the input, which inject_register skips
    b[2] = -abs(b[2])  # so the full product would write -0.0 into that row
    state = inject_register(StateVector.ground(4), A, a)
    out = inject_register(state, B, b).amplitudes
    view = state.amplitudes.reshape(-1, 2**B.width, 2**B.offset)
    full = (view[:, :1, :] * (b / np.linalg.norm(b))[:, None]).reshape(-1)
    written = full != 0.0
    assert np.array_equal(out[written], full[written])
    assert np.signbit(full[~written]).any()
    # every entry the product leaves at zero is +0.0, never -0.0
    assert not out[~written].any() and not np.signbit(out[~written]).any()


def test_solve_readout_peak_memory():
    circuit = build_qps(QpsConfig(n=6))
    b_reg, e_reg, anc = map(circuit.register, ("B", "E", "Anc"))
    b = np.random.default_rng(3).standard_normal(2**6)
    b[0] = 0.0
    state = apply(inject_register(StateVector.ground(circuit.num_qubits), b_reg, b), circuit)
    fixed = {r: 0 for r in circuit.registers if r != b_reg} | {e_reg: 2**e_reg.width - 1, anc: 1}
    _, peak = peak_bytes(lambda: extract_register(state, b_reg, fixed, anc))
    # a 2 MiB state; the strided Anc = 1 half is flattened once (1 MiB), where
    # np.vdot on the view would copy it once per argument (2 MiB)
    assert peak < 0.75 * state.amplitudes.nbytes


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
    U = random_orthogonal(4, rng)
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
    probability, vec = extract_register(state, B, {A: 0}, A)
    assert probability == pytest.approx(1.0, abs=1e-12)
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
    # the empty-register check is exact: no amplitude off |0...0> is dropped
    stray = np.zeros(16)
    stray[0], stray[1] = 1.0, 1e-13
    with pytest.raises(ValueError, match="not in its ground state"):
        inject_register(StateVector(4, stray), A, [0, 1, 0, 0])
    signed_zero = np.zeros(16)
    signed_zero[0], signed_zero[1] = 1.0, -0.0
    injected = inject_register(StateVector(4, signed_zero), A, [0, 1, 0, 0])
    assert injected.amplitudes[1] == 1.0


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


def test_postselect_complement_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    state = _state(rng.standard_normal(8))
    p1 = postselect(state, [1], [1]).probability
    p0 = postselect(state, [1], [0]).probability
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_postselect_impossible_outcome():
    with pytest.raises(RuntimeError):
        postselect(StateVector.ground(2), [0], [1])


_MIXED = StateVector(3, [0.8, 0.6, 0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("call,message", [
    (lambda: postselect(_MIXED, [3], [1]), r"qubits \[3\] lie outside the 3-qubit state"),
    (lambda: postselect(_MIXED, [-1], [1]), r"qubits \[-1\] lie outside the 3-qubit state"),
    (lambda: postselect(_MIXED, [0, 0], [1, 0]), r"qubits \[0, 0\] repeat"),
    (lambda: postselect(_MIXED, [0], [2]), r"outcome bits must be 0 or 1, got \[2\]"),
    (lambda: postselect(_MIXED, [2.0], [1]), r"qubits must be integers, got \[2.0\]"),
    (lambda: postselect(_MIXED, [True], [0]), r"qubits must be integers, got \[True\]"),
    (lambda: extract_register(StateVector(4, np.eye(16)[1]), A, {A: 1, B: 0}, B),
     "fixed register 'A' overlaps another register"),
    (lambda: extract_register(StateVector(4, np.eye(16)[12]), A, {B: 3.0}, B),
     "value 3.0 for register 'B' is not an integer"),
    (lambda: extract_register(StateVector(4, np.eye(16)[12]), A, {B: np.float64(3)}, B),
     "value 3.0 for register 'B' is not an integer"),
    (lambda: extract_register(StateVector(4, np.eye(16)[12]), A, {B: True}, B),
     "value True for register 'B' is not an integer"),
    (lambda: extract_register(StateVector(4, np.eye(16)[12]), A, {B: 3}, A),
     "flag register 'A' is not a fixed register"),
    (lambda: inject_register(StateVector.ground(3), B, [1, 0, 0, 0]),
     "register 'B' lies outside the 3-qubit state"),
    (lambda: StateVector(2, np.ones(3)), r"amplitude vector must have length 2\*\*2"),
    (lambda: inject_register(StateVector.ground(4), A, [1, 0, 0]),
     r"need 2\*\*2 amplitudes for register 'A'"),
    (lambda: postselect(_MIXED, [0, 1], [1]), "qubits and outcome bits must align"),
    (lambda: extract_register(StateVector(4, np.eye(16)[12]), A, {B: 4}, B),
     "value 4 out of range for register 'B'"),
    (lambda: fidelity([0, 0], [1, 0]), "fidelity of a zero vector is undefined"),
], ids=["past", "negative", "repeated", "bit-2", "float-qubit", "bool-qubit", "read-and-fixed",
        "float-value", "numpy-float-value", "bool-value", "flag-not-fixed", "inject-past",
        "state-length", "inject-length", "unaligned-bits", "value-past", "zero-fidelity"])
def test_readout_rejects_addresses_it_cannot_honour(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_extract_product_state_exact():
    rng = np.random.default_rng(29)
    a = rng.standard_normal(4)
    state = inject_register(StateVector.ground(4), A, a)
    state = inject_register(state, B, [0, 0, 0, 1])
    probability, vec = extract_register(state, A, {B: 3}, B)
    assert probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(vec, a / np.linalg.norm(a), atol=1e-12)


_MIDDLE, _TOP = QubitRegister("M", 1, 2), QubitRegister("T", 1, 3)


def test_extract_rejects_entangled_state():
    # flag qubit 3 at |1>, and a Bell pair across register A and qubit 2
    amps = np.zeros(16)
    amps[0b1000] = 2**-0.5
    amps[0b1101] = 2**-0.5
    state = StateVector(4, amps)
    with pytest.raises(RuntimeError, match="^state does not factorize"):
        extract_register(state, A, {_MIDDLE: 0, _TOP: 1}, _TOP)
    with pytest.raises(ValueError, match="^fixed assignments must cover all other registers$"):
        extract_register(state, A, {_TOP: 1}, _TOP)


# register R, then a one-qubit flag F between the two qubits of G, so the
# flag slice is a strided view as Anc's is in a solve
_R, _F, _G = (QubitRegister("R", 2, 0), QubitRegister("F", 1, 2), QubitRegister("G", 2, 3))


def _two_step_readout(state, g):
    """The zero-filled renormalized postselection, then the slice of register R."""
    tensor = state.amplitudes.reshape(4, 2, 4)  # G, F, R
    sub = tensor[:, 1, :]
    probability = float(np.vdot(sub, sub))
    new = np.zeros_like(tensor)
    new[:, 1, :] = sub / math.sqrt(probability)
    vec = StateVector(5, new.reshape(-1)).amplitudes.reshape(4, 2, 4)[g, 1, :]
    mass = float(np.vdot(vec, vec))
    return probability, vec / math.sqrt(mass)


def test_extract_register_matches_the_two_step_readout():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(4))
        amps = np.zeros((4, 2, 4))
        amps[:, 0, :] = rng.standard_normal((4, 4))
        amps[g, 1, :] = rng.standard_normal(4) * rng.uniform(0.05, 3.0)
        state = _state(amps.reshape(-1))
        probability, vec = extract_register(state, _R, {_F: 1, _G: g}, _F)
        expected_p, expected_vec = _two_step_readout(state, g)
        assert probability == expected_p
        assert np.array_equal(vec, expected_vec)

    faint = np.zeros((4, 2, 4))
    faint[0, 0, 0] = 1.0
    faint[2, 1, 3] = 1e-7  # outcome probability 1e-14
    with pytest.raises(RuntimeError, match="^postselection impossible: outcome probability"):
        extract_register(_state(faint.reshape(-1)), _R, {_F: 1, _G: 2}, _F)
    leaky = np.zeros((4, 2, 4))
    leaky[2, 1, 3] = 1.0
    leaky[1, 1, 0] = 1e-3  # flag slice mass outside G = 2
    with pytest.raises(RuntimeError, match="^state does not factorize: residual mass"):
        extract_register(_state(leaky.reshape(-1)), _R, {_F: 1, _G: 2}, _F)


def test_fidelity_basics():
    assert fidelity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert fidelity([1, 0], [0, 1]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fidelity([1, 0], [1, 0, 0])
