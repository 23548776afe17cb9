import hashlib
import itertools
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    all_ones_amplitude,
    basis_input,
    bits,
    fail,
    gate_fields,
    inversion_angles,
    peak_bytes,
    per_input_amplitudes,
    run_probe,
    solve_digest,
)

from qps import builder, verify
from qps.bounds import BOUNDS
from qps.builder import (
    QpsConfig,
    bc_matrix,
    build_flag,
    build_inversion_parallel,
    build_inversion_serial,
    build_qps,
    inversion_stage_circuit,
    solve,
    standard_registers,
)
from qps.circuit import Circuit, Gate, _check_orthogonal, count_resources
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


@pytest.mark.parametrize("call,message", [
    (lambda: bc_matrix(True), "n must be an integer >= 1, got True"),
    (lambda: bc_matrix(2.5), "n must be an integer >= 1, got 2.5"),
    (lambda: bc_matrix(np.float64(3)), f"n must be an integer >= 1, got {np.float64(3)!r}"),
    (lambda: bc_matrix(0), "n must be an integer >= 1, got 0"),
    (lambda: standard_registers(True), "n must be an integer >= 2, got True"),
    (lambda: standard_registers(2.5, parallel=True), "n must be an integer >= 2, got 2.5"),
    (lambda: standard_registers(1), "n must be an integer >= 2, got 1"),
], ids=["bc-bool", "bc-float", "bc-numpy-float", "bc-zero", "registers-bool",
        "registers-float", "registers-one"])
def test_bc_matrix_and_registers_name_a_bad_n(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


SERIAL_SOLVE_N13 = r"^serial solve supports n in \[2, 8\], got 13$"


def test_build_bc_bounds():
    with pytest.raises(ValueError, match=SERIAL_SOLVE_N13):
        build_qps(QpsConfig(n=13), materialize_bc=True)
    lazy = _stage_gate(build_qps(QpsConfig(n=5), materialize_bc=False), "bc")
    assert lazy.matrix is None and lazy.label == "BC"


@pytest.mark.parametrize("ry", ["semantic", "bitwise"])
def test_inversion_n2_basis_inputs(ry):
    amp = per_input_amplitudes(build_inversion_serial(2, ry), (1, 2))
    assert abs(amp[1]) == pytest.approx(0.8535533905932737, abs=1e-12)
    assert amp[2].real == pytest.approx(0.25, abs=1e-14)


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
        assert abs(all_ones_amplitude(circ, st, j)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ry", ["semantic", "bitwise"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_amplitude_audit_exhaustive(ry, n):
    for j, amp in per_input_amplitudes(build_inversion_serial(n, ry), range(1, 2**n)).items():
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
        assert gate_fields(circ.gates[circ.stages["inversion"]]) == gate_fields(
            inversion_stage_circuit(config).gates)
        bc, flag, bcdag = (_stage_gate(circ, name) for name in ("bc", "flag", "bcdag"))
        assert (bc.kind, bc.label, bc.targets) == ("block", "BC", circ.register("B").qubits)
        assert (bcdag.kind, bcdag.label, bcdag.targets) == ("block", "BC†", bc.targets)
        assert np.allclose(bc.matrix @ bcdag.matrix, np.eye(2**n), atol=1e-14)
        assert flag.kind == "x"
        assert flag.targets == (circ.register("Anc").qubit(0),)
        assert flag.controls == tuple((q, True) for q in circ.register("E").qubits)
    # past the solve rows a counting-only build has no BC matrices, and its
    # inversion stage counts as the stand-alone inversion circuit
    for mode in ("serial", "parallel"):
        for n in (13, 14, 15):
            config = QpsConfig(n=n, mode=mode)
            circ = build_qps(config, materialize_bc=False)
            bc, bcdag = _stage_gate(circ, "bc"), _stage_gate(circ, "bcdag")
            assert bc.label == "BC" and bcdag.label == "BC†"
            assert bc.matrix is None and bcdag.matrix is None
            assert count_resources(circ, "inversion") == count_resources(
                inversion_stage_circuit(config))
    with pytest.raises(ValueError, match=SERIAL_SOLVE_N13):
        build_qps(QpsConfig(n=13), materialize_bc=True)


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
    assert bits(oracle(b.astype(complex))) == bits(oracle(b))


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
        out_s = apply(basis_input(ser, j), ser)
        out_p = apply(basis_input(par, j), par)
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


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_bitwise_counts_follow_the_closed_form(mode):
    # exact cubics for n >= 4: the whole circuit and its inversion stage
    for n in range(4, 41):
        circ = build_qps(QpsConfig(n=n, mode=mode), materialize_bc=False)
        whole, inv = count_resources(circ), count_resources(circ, "inversion")
        assert 3 * whole.elementary_gates == 4 * n**3 + 78 * n**2 + 2 * n - 120, n
        assert 3 * inv.elementary_gates == 4 * n**3 + 66 * n**2 - 94 * n + 24, n


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
    circuit, peak = peak_bytes(
        lambda: build_qps(QpsConfig(12, "serial", "semantic"), materialize_bc=False))
    assert len(circuit.gates) == 12307
    assert peak <= 6e6  # a fresh (qubit, polarity) tuple per control peaks at 11.2 MB


@pytest.mark.parametrize("mode, ry", ALL_CONFIGS)
def test_inversion_slice_is_the_inversion_stage(mode, ry):
    for n in range(3, 11):
        config = QpsConfig(n, mode, ry)
        circuit = build_qps(config, materialize_bc=False)
        assert gate_fields(circuit.gates[circuit.stages["inversion"]]) == gate_fields(
            inversion_stage_circuit(config).gates)


PAST_THE_SOLVE_ROWS = [
    (QpsConfig(n=9), r"^serial solve supports n in \[2, 8\], got 9$"),
    (QpsConfig(n=7, mode="parallel"), r"^parallel solve supports n in \[3, 6\], got 7$"),
]


def test_solve_checks_its_bound_before_allocating(monkeypatch):
    monkeypatch.setattr(StateVector, "ground", fail)
    monkeypatch.setattr(builder, "bc_matrix", fail)
    for config, message in PAST_THE_SOLVE_ROWS:
        with pytest.raises(ValueError, match=message):
            builder.solve(config, np.ones(2**config.n - 1))


@pytest.mark.parametrize("ry", ["bitwise", "semantic"])
@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_solve_circuit_matches_solve_byte_for_byte(mode, ry):
    # one circuit per n serves both seeds, as in verify's sweeps
    lo, hi = BOUNDS[f"{mode} solve"]
    for n in range(lo, hi + 1):
        circuit = build_qps(QpsConfig(n, mode, ry))
        for seed in range(2):
            b = np.random.default_rng([seed, n]).standard_normal(2**n - 1)
            ours, theirs = builder.solve_circuit(circuit, b), solve(QpsConfig(n, mode, ry), b)
            assert (bits(ours), ours.resources) == (bits(theirs), theirs.resources), (n, seed)


def test_solve_circuit_rejects_a_counting_only_circuit_before_allocating(monkeypatch):
    circuit = build_qps(QpsConfig(15), materialize_bc=False)
    monkeypatch.setattr(StateVector, "ground", fail)
    with pytest.raises(ValueError, match="counting-only circuit"):
        builder.solve_circuit(circuit, np.ones(2**15 - 1))


def test_solve_circuit_rejects_a_circuit_without_register_e():
    registers = [r for r in standard_registers(3) if r.name != "E"]
    circuit = Circuit([replace(r, offset=o) for r, o in zip(registers, (0, 3, 4))])
    with pytest.raises(ValueError, match="registers B, E and Anc"):
        builder.solve_circuit(circuit, np.ones(7))


def test_default_build_past_the_solve_row_raises_before_bc_matrix(monkeypatch):
    monkeypatch.setattr(builder, "bc_matrix", fail)
    for config, message in PAST_THE_SOLVE_ROWS:
        with pytest.raises(ValueError, match=message):
            build_qps(config)


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_default_build_materializes_bc_in_every_solve_row(mode):
    lo, hi = BOUNDS[f"{mode} solve"]
    for n in range(lo, hi + 1):
        circuit = build_qps(QpsConfig(n=n, mode=mode))
        bc, bcdag = _stage_gate(circuit, "bc"), _stage_gate(circuit, "bcdag")
        assert bc.matrix.shape == (2**n, 2**n)
        assert bcdag.matrix is not None


# SHA-256 of the solution, reference, fidelity and P_success bits of library
# solve on seeded Gaussian, sin and 1e300 x Gaussian b, serial n=2..6 and
# parallel n=3..5 in both constructions: 48 solves.  The fidelity bits pin its
# complex inner product, which a real one would round differently.
SOLVE_FINGERPRINT = "b913a6c22d35893c583f70acb8b9b7c406bdea2a7080db2c51debb58b567041c"


def _three_kinds(n, seed):
    """Seeded Gaussian, sin and 1e300 x the same Gaussian b at grid exponent n."""
    gauss = np.random.default_rng([seed, n]).standard_normal(2**n - 1)
    return gauss, preset_rhs("sin", n), 1e300 * gauss


def test_solve_output_fingerprint_unchanged():
    assert solve_digest(
        (QpsConfig(n, mode, ry), b)
        for ry in ("bitwise", "semantic")
        for mode, ns in (("serial", range(2, 7)), ("parallel", range(3, 6)))
        for n in ns
        for b in _three_kinds(n, 11)) == SOLVE_FINGERPRINT


# SHA-256 of the same bits for the benchmark's solve sizes: serial n=7 and
# parallel n=6 in both constructions on seeded Gaussian b.  The digest was
# computed on the tree before `apply` learned to skip idle qubits.
SOLVE_N7_FINGERPRINT = "b2b59fa651a1c0c825107663ca155e421d4e94cd5f43cf3e207f2ffc111c8f6f"


def _solve_n7_digest() -> str:
    return solve_digest(
        (QpsConfig(n, mode, ry), np.random.default_rng([11, n]).standard_normal(2**n - 1))
        for ry in ("bitwise", "semantic")
        for mode, n in (("serial", 7), ("parallel", 6)))


def test_solve_n7_fingerprint_unchanged():
    assert _solve_n7_digest() == SOLVE_N7_FINGERPRINT


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
def test_solve_n7_fingerprint_holds_at_two_blas_threads():
    # the suite pins BLAS to one thread; a fresh process at two recomputes the
    # digest, and counts its threads to show that OpenBLAS really runs two
    probe = ("import os, test_builder; "
             "print(test_builder._solve_n7_digest(), len(os.listdir('/proc/self/task')))")
    digest, threads = run_probe(probe, {"OPENBLAS_NUM_THREADS": "2"}).split()
    # OpenBLAS runs no more threads than the process has cores
    assert int(threads) == min(2, len(os.sched_getaffinity(0)))
    assert digest == SOLVE_N7_FINGERPRINT


# SHA-256 of the same bits for parallel n=6 in both constructions, on the three
# kinds of b of SOLVE_FINGERPRINT with its own Gaussian seed.  The digest was
# computed on the tree before `apply` widened gates by X-computed controls.
PARALLEL_N6_FINGERPRINT = "3a0955d54ff803979983f7f8630584a607ca6e0de76cc61a4b5c5bdfa3b654f3"


def test_parallel_n6_solve_fingerprint_unchanged():
    assert solve_digest((QpsConfig(6, "parallel", ry), b) for ry in ("bitwise", "semantic")
                        for b in _three_kinds(6, 12)) == PARALLEL_N6_FINGERPRINT


def _bc_and_adjoint(n):
    bc = Gate.block(bc_matrix(n), tuple(range(n)), "BC")
    return bc, bc.adjoint()


def test_bc_block_is_a_lean_real_matrix():
    (bc, bcdag), peak = peak_bytes(lambda: _bc_and_adjoint(10))
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
    bc = Gate.block(bc_matrix(10), tuple(range(10)), "BC")
    _, peak = peak_bytes(bc.adjoint)
    assert peak < 64 * 2**10  # re-checking the 1024 x 1024 transpose peaked at 8.4 MB


# register layouts: the same registers as standard_registers, tiled from
# qubit 0 up in another order; a serial layout has every name but C
LAYOUT_NAMES = ("B", "E", "Anc", "BCaux", "C")
LAYOUT_CONFIGS = [QpsConfig(n) for n in (3, 4, 5)] + [QpsConfig(n, "parallel") for n in (3, 4)]


def _retiled(order):
    """standard_registers with its registers tiled from qubit 0 up in order."""
    standard = builder.standard_registers

    def registers(n, parallel=False):
        by_name = {r.name: r for r in standard(n, parallel)}
        regs = [by_name[name] for name in order if name in by_name]
        offsets = itertools.accumulate((r.width for r in regs), initial=0)
        return tuple(replace(r, offset=o) for r, o in zip(regs, offsets))
    return registers


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LAYOUT_CONFIGS), st.permutations(LAYOUT_NAMES))
def test_solve_agrees_under_any_register_order(config, order):
    # the bits may move (the readout sums the state in another order), the values may not
    b = np.random.default_rng(config.n).standard_normal(2**config.n - 1)
    standard = solve(config, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "standard_registers", _retiled(order))
        circuit = build_qps(config)
        ours = builder.solve_circuit(circuit, b)
    tiled = [r.name for r in sorted(circuit.registers, key=lambda r: r.offset)]
    assert tiled == [name for name in order if name in tiled]
    assert np.max(np.abs(ours.solution - standard.solution)) <= 1e-12
    assert abs(ours.success_probability - standard.success_probability) <= 1e-12
    assert ours.resources == standard.resources


@pytest.mark.parametrize("order", [
    ("E", "Anc", "C", "B", "BCaux"),
    ("Anc", "E", "B", "C", "BCaux"),
    tuple(reversed(LAYOUT_NAMES)),
], ids=["b-on-top", "b-in-the-middle", "reversed"])
def test_verify_passes_under_other_register_orders(monkeypatch, order):
    monkeypatch.setattr(builder, "standard_registers", _retiled(order))
    assert build_qps(QpsConfig(3)).register("B").offset > 0
    rows = verify.checks(5, 0, False)
    assert [name for name, ok, _ in rows if not ok] == [], rows
    rows = verify.checks(3, 0, True)
    assert [name for name, ok, _ in rows if not ok] == ["amplitude audit"], rows
