import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import builder
from qps.builder import (
    QpsConfig,
    bc_matrix,
    build_bc,
    build_flag,
    build_inversion_parallel,
    build_inversion_serial,
    build_qps,
    inversion_stage_circuit,
    solve,
    standard_registers,
)
from qps.circuit import Circuit, _check_orthogonal, count_resources
from qps.identities import inversion_angles
from qps.poisson import (
    TridiagonalSystem,
    dst,
    eigenvalue,
    preset_rhs,
    solve_classical,
    spectral_solve,
)
from qps.simulator import (
    StateVector,
    apply,
    fidelity,
    inject_register,
    postselect,
)

DEMO_B = np.array([2**-0.5, 0.5, 0.5])


def _basis_input(circ, j, n):
    amps = np.zeros(2**n, dtype=complex)
    amps[j] = 1.0
    return inject_register(StateVector.ground(circ.num_qubits), circ.register("B"), amps)


def _all_ones_amp(circ, state, j, n):
    ones = (2 ** (2 * n - 2) - 1) << n
    return state.amplitudes[j + ones]


def _fields(gates):
    """Each gate's fields, its matrix as nested lists; gates themselves compare by identity."""
    return [(g.kind, g.targets, g.controls, g.angle, g.label,
             None if g.matrix is None else g.matrix.tolist()) for g in gates]


def test_register_layout():
    regs = standard_registers(4)
    names = {r.name: r for r in regs}
    assert names["B"].qubits == (0, 1, 2, 3)
    assert names["E"].width == 6
    assert names["Anc"].width == 1
    assert names["BCaux"].width == 1
    assert sum(r.width for r in regs) == 12  # 3n
    par = standard_registers(4, parallel=True)
    assert sum(r.width for r in par) == 14  # 4n - 2
    assert next(r for r in par if r.name == "C").width == 2


def test_bc_rows_are_eigenvectors():
    n = 3
    U = bc_matrix(n)
    for j in range(1, 8):
        embedded = np.zeros(8)
        embedded[1:] = dst(np.eye(7)[j - 1])
        out = U @ embedded
        expected = np.zeros(8)
        expected[j] = 1.0
        assert np.allclose(out, expected, atol=1e-12)


def test_bc_is_unitary_and_matches_dst_oracle():
    for n in (2, 3, 4, 5):
        U = bc_matrix(n)
        N = 2**n
        assert np.max(np.abs(U.conj().T @ U - np.eye(N))) <= 1e-12
        # independent oracle: direct sine-matrix construction
        for j in range(1, N):
            for k in range(1, N):
                assert U[j, k] == pytest.approx(
                    np.sqrt(2 / N) * np.sin(j * k * np.pi / N), abs=1e-15
                )


def test_build_bc_bounds():
    with pytest.raises(ValueError):
        build_bc(1)
    with pytest.raises(ValueError):
        build_bc(13)
    lazy = build_bc(5, materialize=False)
    assert lazy.matrix is None and lazy.label == "BC"


@pytest.mark.parametrize("ry", ["semantic", "bitwise"])
def test_inversion_n2_basis_inputs(ry):
    circ = build_inversion_serial(2, ry)
    st = apply(_basis_input(circ, 1, 2), circ)
    assert abs(_all_ones_amp(circ, st, 1, 2)) == pytest.approx(0.8535533905932737, abs=1e-12)
    st = apply(_basis_input(circ, 2, 2), circ)
    assert _all_ones_amp(circ, st, 2, 2).real == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("ry", ["semantic", "bitwise"])
def test_inversion_n3_uniform_superposition(ry):
    n = 3
    circ = build_inversion_serial(n, ry)
    amps = np.zeros(8, dtype=complex)
    amps[1:] = 1 / np.sqrt(7)
    st = apply(
        inject_register(StateVector.ground(circ.num_qubits), circ.register("B"), amps),
        circ,
    )
    for j in range(1, 8):
        expected = 8 / eigenvalue(n, j) / np.sqrt(7)
        assert abs(_all_ones_amp(circ, st, j, n)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ry", ["semantic", "bitwise"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_amplitude_audit_exhaustive(ry, n):
    circ = build_inversion_serial(n, ry)
    for j in range(1, 2**n):
        out = apply(_basis_input(circ, j, n), circ)
        amp = _all_ones_amp(circ, out, j, n)
        assert abs(amp.imag) <= 1e-15
        assert amp.real == pytest.approx(8 / eigenvalue(n, j), abs=1e-12)


def test_flag_behaviour():
    n = 3
    layout = Circuit(standard_registers(n))
    flag = Circuit(layout.registers, [build_flag(layout)])
    e = flag.register("E")
    anc = flag.register("Anc")
    ones = (2 ** e.width - 1) << e.offset
    # E = |1...1> flips the ancilla
    amps = np.zeros(2**flag.num_qubits, dtype=complex)
    amps[ones] = 1.0
    out = apply(StateVector(flag.num_qubits, amps), flag)
    assert out.amplitudes[ones + (1 << anc.offset)] == 1.0
    # any E with a zero leaves it alone
    amps = np.zeros(2**flag.num_qubits, dtype=complex)
    amps[ones ^ (1 << e.offset)] = 1.0
    st = StateVector(flag.num_qubits, amps)
    assert np.array_equal(apply(st, flag).amplitudes, st.amplitudes)
    # involution
    back = apply(apply(st, flag), flag)
    assert np.array_equal(back.amplitudes, st.amplitudes)


def _stage_gate(circ, name):
    (gate,) = circ.gates[circ.stages[name]]
    return gate


def test_qps_composition_uncomputes_bc():
    # the named stages: BC, inversion, the E-controlled flag, BC-dagger
    cases = [("serial", n) for n in (2, 3, 4)] + [("parallel", n) for n in (3, 4)]
    for mode, n in cases:
        config = QpsConfig(n=n, mode=mode)
        circ = build_qps(config)
        assert list(circ.stages) == ["bc", "inversion", "flag", "bcdag"]
        assert _fields(circ.gates[circ.stages["inversion"]]) == _fields(
            inversion_stage_circuit(config).gates)
        bc, flag, bcdag = (_stage_gate(circ, name) for name in ("bc", "flag", "bcdag"))
        assert (bc.kind, bc.label, bc.targets) == ("block", "BC", tuple(range(n)))
        assert (bcdag.kind, bcdag.label, bcdag.targets) == ("block", "BC†", bc.targets)
        assert np.allclose(bc.matrix @ bcdag.matrix, np.eye(2**n), atol=1e-14)
        assert flag.kind == "x"
        assert flag.targets == (circ.register("Anc").qubit(0),)
        assert flag.controls == tuple((q, True) for q in circ.register("E").qubits)
    # beyond the materializable range the BC blocks are counting-only, and
    # the inversion stage counts as the stand-alone inversion circuit
    for mode in ("serial", "parallel"):
        for n in (13, 14, 15):
            config = QpsConfig(n=n, mode=mode)
            circ = build_qps(config, materialize_bc=False)
            bc, bcdag = _stage_gate(circ, "bc"), _stage_gate(circ, "bcdag")
            assert bc.label == "BC" and bcdag.label == "BC†"
            assert bc.matrix is None and bcdag.matrix is None
            assert count_resources(circ, "inversion") == count_resources(
                inversion_stage_circuit(config))
    with pytest.raises(ValueError):
        build_bc(13)


def test_demo_reproduction():
    sol = solve(QpsConfig(n=2), DEMO_B)
    assert np.max(np.abs(sol.solution - [0.552987, 0.674065, 0.489736])) <= 1e-6
    # success probability equals 64 ||A^-1 b||^2 (b already normalized)
    v = solve_classical(TridiagonalSystem(N=4), DEMO_B)
    assert sol.success_probability == pytest.approx(64 * float(v @ v), abs=1e-12)
    assert sol.fidelity >= 1 - 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigencomponent_isolation(n):
    for j in range(1, 2**n):
        u = dst(np.eye(2**n - 1)[j - 1])
        sol = solve(QpsConfig(n=n), u)
        assert fidelity(sol.solution, u) >= 1 - 1e-10
        assert sol.success_probability == pytest.approx(
            (8 / eigenvalue(n, j)) ** 2, abs=1e-10
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_semantic_angles_realize_inversion_identity(n):
    # the RY pairs that fire on B = |j>, halved and in gate order, are
    # exactly the angles of the reduced inversion identity
    circ = build_inversion_serial(n, "semantic")
    b = circ.register("B")
    rys = [g for g in circ.gates if g.kind == "ry"]
    assert all(q in b.qubits for g in rys for q, _ in g.controls)
    for j in range(1, 2**n):
        fired = tuple(
            g.angle / 2 for g in rys
            if all(((j >> (q - b.offset)) & 1) == pol for q, pol in g.controls)
        )
        assert fired == inversion_angles(n, j)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_matches_classical_oracle(n):
    rng = np.random.default_rng(40 + n)
    system = TridiagonalSystem(N=2**n)
    for _ in range(10):
        b = rng.standard_normal(2**n - 1)
        sol = solve(QpsConfig(n=n), b)
        assert sol.fidelity >= 1 - 1e-10
        b_hat = b / np.linalg.norm(b)
        v = solve_classical(system, b_hat)
        assert sol.success_probability == pytest.approx(64 * float(v @ v), abs=1e-10)
        # sign convention: the postselected direction is A^-1 b itself
        assert np.allclose(sol.solution, v / np.linalg.norm(v), atol=1e-10)


# sign x mantissa x 10^e per entry, so one b spans up to 600 decades
_WIDE_ENTRY = st.builds(
    lambda sign, mantissa, e: sign * mantissa * 10.0**e,
    st.sampled_from((-1.0, 1.0)),
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-300, 300),
)


@st.composite
def _wide_rhs(draw):
    n = draw(st.integers(2, 3))
    size = 2**n - 1
    return n, np.array(draw(st.lists(_WIDE_ENTRY, min_size=size, max_size=size)))


@settings(max_examples=100, deadline=None)
@given(_wide_rhs())
def test_solve_invariants_hold_over_wide_range_rhs(case):
    n, b = case
    sol = solve(QpsConfig(n=n), b)
    assert sol.fidelity >= 1 - 1e-10
    scaled = b / np.max(np.abs(b))
    b_hat = scaled / np.linalg.norm(scaled)
    v = solve_classical(TridiagonalSystem(N=2**n), b_hat)
    assert abs(sol.success_probability - 64 * float(v @ v)) <= 1e-10


def test_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        solve(QpsConfig(n=2), np.zeros(3))
    with pytest.raises(ValueError):
        solve(QpsConfig(n=2), np.ones(4))
    with pytest.raises(ValueError, match="^right-hand side must be a 1-D real vector$"):
        solve(QpsConfig(n=2), np.ones((3, 1)))


def _bits(out):
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return (out.solution.tobytes(), out.classical_reference.tobytes(),
            out.fidelity.hex(), out.success_probability.hex())


@pytest.mark.parametrize("oracle", [
    lambda b: solve(QpsConfig(n=2), b),
    lambda b: solve_classical(TridiagonalSystem(N=4), b),
    lambda b: spectral_solve(2, b),
], ids=["solve", "solve_classical", "spectral_solve"])
def test_complex_rhs_rejected_unless_imaginary_part_is_zero(oracle):
    b = np.array([1.0, 0.5, 0.5])
    for imag in (1j, 1e-300j):
        with pytest.raises(ValueError,
                           match="^right-hand side must be real, got a nonzero imaginary part$"):
            oracle(b + imag * np.array([1, 0, 0]))
    assert _bits(oracle(b.astype(complex))) == _bits(oracle(b))


def test_config_validation():
    with pytest.raises(ValueError):
        QpsConfig(n=1)
    for n in (3.0, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            QpsConfig(n=n)
    assert QpsConfig(n=np.int64(3)).n == 3
    assert build_qps(QpsConfig(n=np.int32(2))).num_qubits == 6
    with pytest.raises(ValueError):
        QpsConfig(n=2, mode="parallel")
    with pytest.raises(ValueError):
        QpsConfig(n=3, mode="fast")
    with pytest.raises(ValueError):
        QpsConfig(n=3, ry_construction="magic")
    # the stand-alone inversion builders validate through QpsConfig too
    for build, n, ry in ((build_inversion_serial, 1, "bitwise"),
                         (build_inversion_parallel, 2, "bitwise"),
                         (build_inversion_serial, 3, "magic")):
        with pytest.raises(ValueError):
            build(n, ry)


def test_semantic_bitwise_equivalence_exhaustive_n3():
    for j in range(1, 8):
        b = np.zeros(7)
        b[j - 1] = 1.0
        a = solve(QpsConfig(n=3, ry_construction="semantic"), b)
        c = solve(QpsConfig(n=3, ry_construction="bitwise"), b)
        assert fidelity(a.solution, c.solution) >= 1 - 1e-10
        assert a.success_probability == pytest.approx(c.success_probability, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_serial_parallel_equivalence(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(5):
        b = rng.standard_normal(2**n - 1)
        s = solve(QpsConfig(n=n, mode="serial"), b)
        p = solve(QpsConfig(n=n, mode="parallel"), b)
        assert fidelity(s.solution, p.solution) >= 1 - 1e-10
        assert s.success_probability == pytest.approx(p.success_probability, abs=1e-12)


def test_parallel_register_c_uncomputed():
    n = 4
    config = QpsConfig(n=n, mode="parallel")
    circ = build_qps(config)
    rng = np.random.default_rng(9)
    b = rng.standard_normal(2**n - 1)
    amps = np.zeros(2**n, dtype=complex)
    amps[1:] = b / np.linalg.norm(b)
    state = inject_register(StateVector.ground(circ.num_qubits), circ.register("B"), amps)
    state = apply(state, circ)
    c = circ.register("C")
    res = postselect(state, list(c.qubits), [0] * c.width)
    assert res.probability >= 1 - 1e-12


def test_parallel_inversion_unitary_equals_serial():
    # compare action on B (tensor) E for every basis input, bitwise mode
    n = 3
    ser = build_inversion_serial(n)
    par = build_inversion_parallel(n)
    for j in range(1, 2**n):
        out_s = apply(_basis_input(ser, j, n), ser)
        out_p = apply(_basis_input(par, j, n), par)
        dim = 2 ** (3 * n)  # parallel layout extends beyond serial's qubits
        assert np.allclose(out_p.amplitudes[:dim], out_s.amplitudes, atol=1e-12)
        assert np.linalg.norm(out_p.amplitudes[dim:]) <= 1e-12


def test_parallel_depth_improves_with_n():
    ratios = []
    for n in (4, 5):
        serial = count_resources(build_qps(QpsConfig(n=n), materialize_bc=False))
        par = count_resources(
            build_qps(QpsConfig(n=n, mode="parallel"), materialize_bc=False)
        )
        ratios.append(par.depth_serial / serial.depth_serial)
    assert all(r < 1 for r in ratios)
    assert ratios[1] < ratios[0]


def test_serial_qubit_count_is_3n():
    for n in range(2, 9):
        circ = build_qps(QpsConfig(n=n), materialize_bc=False)
        assert circ.num_qubits == 3 * n


# SHA-256 of every gate of build_qps (counting-only BC), serial n=2..10 and
# parallel n=3..10 in both constructions: 14,356 gates.  Pins each angle bit,
# control and the gate order, which the frozen report counts do not see.
GATE_FINGERPRINT = "2c6271846dfb6474fc14d10a397f9bdc8da7a7eeafbe08140c2fd85ed5e52579"


def test_gate_fingerprint_unchanged():
    digest = hashlib.sha256()
    count = 0
    for ry in ("bitwise", "semantic"):
        for mode, lo in (("serial", 2), ("parallel", 3)):
            for n in range(lo, 11):
                for g in build_qps(QpsConfig(n, mode, ry), materialize_bc=False).gates:
                    angle = None if g.angle is None else g.angle.hex()
                    digest.update(repr((g.kind, g.targets, g.controls, angle, g.label)).encode())
                    count += 1
    assert count == 14356
    assert digest.hexdigest() == GATE_FINGERPRINT


ALL_CONFIGS = [(mode, ry) for mode in ("serial", "parallel") for ry in ("semantic", "bitwise")]


@pytest.mark.parametrize("mode, ry", ALL_CONFIGS)
def test_gates_share_their_control_pairs(mode, ry):
    for n in range(3 if mode == "parallel" else 2, 11):
        circuit = build_qps(QpsConfig(n, mode, ry), materialize_bc=False)
        pairs = {id(p) for g in circuit.gates for p in g.controls}
        assert len(pairs) <= 2 * circuit.num_qubits


def test_semantic_build_peak_memory():
    tracemalloc.start()
    try:
        circuit = build_qps(QpsConfig(12, "serial", "semantic"), materialize_bc=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(circuit.gates) == 12307
    assert peak <= 6e6  # a fresh (qubit, polarity) tuple per control peaks at 11.2 MB


@pytest.mark.parametrize("mode, ry", ALL_CONFIGS)
def test_inversion_slice_is_the_inversion_stage(mode, ry):
    for n in range(3, 11):
        config = QpsConfig(n, mode, ry)
        circuit = build_qps(config, materialize_bc=False)
        assert _fields(circuit.gates[circuit.stages["inversion"]]) == _fields(
            inversion_stage_circuit(config).gates)


def _fail(*args, **kwargs):
    raise AssertionError("called past an out-of-range n")


def test_solve_checks_its_bound_before_allocating(monkeypatch):
    monkeypatch.setattr(StateVector, "ground", _fail)
    monkeypatch.setattr(builder, "bc_matrix", _fail)
    monkeypatch.setattr(builder, "build_qps", _fail)
    for config, message in [
        (QpsConfig(n=9), r"serial solve supports n in \[2, 8\], got 9"),
        (QpsConfig(n=7, mode="parallel"), r"parallel solve supports n in \[3, 6\], got 7"),
    ]:
        with pytest.raises(ValueError, match=message):
            builder.solve(config, np.ones(2**config.n - 1))


def test_bc_stays_counting_only_past_the_solve_row(monkeypatch):
    monkeypatch.setattr(builder, "bc_matrix", _fail)
    circuit = build_qps(QpsConfig(n=9))
    bc, bcdag = _stage_gate(circuit, "bc"), _stage_gate(circuit, "bcdag")
    assert bc.label == "BC" and bc.matrix is None
    assert bcdag.label == "BC†" and bcdag.matrix is None


# SHA-256 of the solution, reference, fidelity and P_success bits of library
# solve on seeded Gaussian, sin and 1e300 x Gaussian b, serial n=2..6 and
# parallel n=3..5 in both constructions: 48 solves.  The fidelity bits pin its
# complex inner product, which a real one would round differently.
SOLVE_FINGERPRINT = "b913a6c22d35893c583f70acb8b9b7c406bdea2a7080db2c51debb58b567041c"


def test_solve_output_fingerprint_unchanged():
    digest = hashlib.sha256()
    for ry in ("bitwise", "semantic"):
        for mode, ns in (("serial", range(2, 7)), ("parallel", range(3, 6))):
            for n in ns:
                gauss = np.random.default_rng([11, n]).standard_normal(2**n - 1)
                for b in (gauss, preset_rhs("sin", n), 1e300 * gauss):
                    solution, reference, fid, prob = _bits(solve(QpsConfig(n, mode, ry), b))
                    digest.update(solution + reference + f"{fid} {prob}".encode())
    assert digest.hexdigest() == SOLVE_FINGERPRINT


# SHA-256 of the same bits for the benchmark's solve sizes: serial n=7 and
# parallel n=6 in both constructions on seeded Gaussian b.  The digest was
# computed on the tree before `apply` learned to skip idle qubits.
SOLVE_N7_FINGERPRINT = "b2b59fa651a1c0c825107663ca155e421d4e94cd5f43cf3e207f2ffc111c8f6f"


def test_solve_n7_fingerprint_unchanged():
    digest = hashlib.sha256()
    for ry in ("bitwise", "semantic"):
        for mode, n in (("serial", 7), ("parallel", 6)):
            b = np.random.default_rng([11, n]).standard_normal(2**n - 1)
            solution, reference, fid, prob = _bits(solve(QpsConfig(n, mode, ry), b))
            digest.update(solution + reference + f"{fid} {prob}".encode())
    assert digest.hexdigest() == SOLVE_N7_FINGERPRINT


def test_bc_block_is_a_lean_real_matrix():
    tracemalloc.start()
    try:
        bc = build_bc(10)
        bcdag = bc.adjoint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # 64 MiB while blocks were stored as complex128
    assert bc.matrix.dtype == np.float64 and not bc.matrix.flags.writeable
    assert np.array_equal(bcdag.matrix, bc.matrix.T)


@pytest.mark.parametrize("n", range(2, 11))
def test_bc_adjoint_is_the_checked_matrix(n):
    # BC-dagger holds the transposed view of BC's matrix without re-checking
    # it: bc_matrix is exactly symmetric, so that view is the very matrix that
    # passed the orthogonality check when BC was built
    m = bc_matrix(n)
    assert np.array_equal(m, m.T)
    _check_orthogonal(m.T)


def test_bc_adjoint_allocates_nothing_dense():
    bc = build_bc(10)
    tracemalloc.start()
    try:
        bc.adjoint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10  # re-checking the 1024 x 1024 transpose peaked at 8.4 MB
