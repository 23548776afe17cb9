import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import peak_bytes

from qps import poisson
from qps.builder import bc_matrix
from qps.poisson import (
    PRESETS,
    TridiagonalSystem,
    dst,
    eigenvalue,
    preset_rhs,
    preset_solution,
    solve_classical,
    spectral_solve,
    truncation_study,
)


def _dense(system):
    """The dense h**-2 tridiag(-1, 2, -1), an independent reference for the O(N) operator."""
    s, k = system.scale, system.size
    return 2 * s * np.eye(k) - s * np.eye(k, k=1) - s * np.eye(k, k=-1)


def test_discretize_n2_matrix_entries():
    system = TridiagonalSystem(N=4)
    A = np.column_stack([system.matvec(e) for e in np.eye(system.size)])
    assert A.shape == (3, 3)
    assert np.all(np.diag(A) == 32.0)
    assert np.all(np.diag(A, k=1) == -16.0)
    assert np.all(np.diag(A, k=-1) == -16.0)


def test_discretize_n3_diagonal():
    system = TridiagonalSystem(N=8)
    assert system.size == 7
    assert system.matvec(np.eye(7)[3])[3] == 128.0


@pytest.mark.parametrize("n,j,expected", [
    (2, 2, 32.0),                 # 64 sin^2(pi/4), exact
    (3, 4, 128.0),                # 256 sin^2(pi/4), exact
    (2, 1, 9.37258300203048),     # frozen from the closed form, checked below
])
def test_eigenvalue_examples(n, j, expected):
    assert eigenvalue(n, j) == pytest.approx(expected, rel=1e-12)
    assert type(eigenvalue(n, j)) is float
    assert eigenvalue(n, np.array([j]))[0] == eigenvalue(n, j)


def test_eigenvalue_rejects_out_of_range():
    with pytest.raises(ValueError):
        eigenvalue(2, 0)
    with pytest.raises(ValueError):
        eigenvalue(2, 4)
    with pytest.raises(ValueError):
        eigenvalue(2, np.array([1, 2, 4]))


@pytest.mark.parametrize("make,message", [
    (lambda: eigenvalue(3, 1.5), "eigenvalue j must be an integer in [1, 7], got 1.5"),
    (lambda: eigenvalue(3, np.array([1.5])),
     "eigenvalue j must be an integer in [1, 7], got array([1.5])"),
    (lambda: eigenvalue(3, "2"), "eigenvalue j must be an integer in [1, 7], got '2'"),
    (lambda: TridiagonalSystem(N=4.0), "grid count N must be an integer >= 2, got 4.0"),
    (lambda: TridiagonalSystem(N="4"), "grid count N must be an integer >= 2, got '4'"),
    (lambda: eigenvalue(True, 1), "n must be an integer >= 1, got True"),
    (lambda: solve_classical(TridiagonalSystem(N=4), np.ones(4)),
     "dimension mismatch: system size 3, b length 4"),
    (lambda: spectral_solve(2, np.ones(4)), "b must have length 3"),
    (lambda: preset_solution("nope", 3),
     "unknown preset 'nope'; choose from ['const', 'ramp', 'sin']"),
], ids=["eigenvalue-float", "eigenvalue-float-array", "eigenvalue-str", "N-float", "N-str",
        "eigenvalue-bool-n", "thomas-length", "spectral-length", "preset-solution-name"])
def test_non_integer_index_or_grid_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("call", [
    lambda n: eigenvalue(n, 1),
    poisson.grid_points,
    poisson.condition_number,
    lambda n: spectral_solve(n, np.ones(7)),
    lambda n: preset_rhs("sin", n),
    lambda n: preset_solution("sin", n),
], ids=["eigenvalue", "grid_points", "condition_number", "spectral_solve", "preset_rhs",
        "preset_solution"])
@pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, 0])
def test_every_grid_size_is_checked(call, n):
    with pytest.raises(ValueError) as exc:
        call(n)
    assert str(exc.value) == f"n must be an integer >= 1, got {n!r}"


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_dense_eigendecomposition(n):
    A = _dense(TridiagonalSystem(N=2**n))
    dense = np.sort(np.linalg.eigvalsh(A))
    closed = np.sort([eigenvalue(n, j) for j in range(1, 2**n)])
    assert np.max(np.abs(dense - closed) / closed) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_eigenpairs_satisfy_definition_and_orthonormality(n):
    # u_j = dst(e_j): the package's sine transform answers to the operator itself
    A = _dense(TridiagonalSystem(N=2**n))
    U = np.array([dst(e) for e in np.eye(2**n - 1)])
    for j, u in enumerate(U, start=1):
        lam = eigenvalue(n, j)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        residual = np.linalg.norm(A @ u - lam * u)
        assert residual <= 1e-10 * lam
    gram = U @ U.T
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-10


def test_thomas_scalar_edge_case():
    # N=2 sits outside the n >= 2 problem gate but the solver handles it
    system = TridiagonalSystem(N=2)
    assert solve_classical(system, [8.0]) == pytest.approx([1.0])


def test_thomas_reproduces_paper_demo_direction():
    system = TridiagonalSystem(N=4)
    v = solve_classical(system, [2**-0.5, 0.5, 0.5])
    direction = v / np.linalg.norm(v)
    assert np.max(np.abs(direction - [0.552987, 0.674065, 0.489736])) <= 1e-6


def test_spectral_solve_on_eigenvector_input():
    lam, u = eigenvalue(3, 2), dst(np.eye(7)[1])
    v = spectral_solve(3, u)
    assert np.allclose(v, u / lam, rtol=1e-12, atol=1e-15)


def test_spectral_matches_thomas_on_eigenvector_sum():
    n = 2
    b = sum(dst(e) for e in np.eye(3))
    direct = solve_classical(TridiagonalSystem(N=4), b)
    spectral = spectral_solve(n, b)
    assert np.linalg.norm(direct - spectral) <= 1e-10 * np.linalg.norm(direct)


def test_spectral_matches_thomas_on_basis_vector():
    b = np.zeros(7)
    b[0] = 1.0
    direct = solve_classical(TridiagonalSystem(N=8), b)
    assert np.linalg.norm(direct - spectral_solve(3, b)) <= 1e-10 * np.linalg.norm(direct)


@pytest.mark.parametrize("n", range(2, 7))
def test_solvers_agree_on_random_inputs(n):
    rng = np.random.default_rng(100 + n)
    system = TridiagonalSystem(N=2**n)
    for _ in range(100):
        b = rng.standard_normal(2**n - 1)
        direct = solve_classical(system, b)
        spectral = spectral_solve(n, b)
        assert np.linalg.norm(direct - spectral) <= 1e-10 * np.linalg.norm(direct)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=7, max_size=7))
def test_solver_agreement_property(values):
    b = np.array(values)
    if np.linalg.norm(b) < 1e-6:
        b = b + 1.0
    direct = solve_classical(TridiagonalSystem(N=8), b)
    spectral = spectral_solve(3, b)
    assert np.linalg.norm(direct - spectral) <= 1e-10 * np.linalg.norm(direct)


# SHA-256 of solve_classical's output bytes on seeded Gaussian b at n=2..12
# and on every preset at n=3..8.  `solve`'s classical_reference and every
# fidelity rest on these bits, so any change to the sweep's arithmetic or
# its operation order shows here.
THOMAS_FINGERPRINT = "967a6e9c9dde7fd0fad00de5ec914c806b360d9f22fd85dad73e9e3e4220a5e8"


def test_thomas_output_fingerprint_unchanged():
    digest = hashlib.sha256()
    for n in range(2, 13):
        b = np.random.default_rng([7, n]).standard_normal(2**n - 1)
        digest.update(solve_classical(TridiagonalSystem(N=2**n), b).tobytes())
    for name in PRESETS:
        for n in range(3, 9):
            v = solve_classical(TridiagonalSystem(N=2**n), preset_rhs(name, n))
            digest.update(v.tobytes())
    assert digest.hexdigest() == THOMAS_FINGERPRINT


@pytest.mark.parametrize("n", range(2, 11))
def test_matvec_matches_dense_matrix(n):
    system = TridiagonalSystem(N=2**n)
    v = np.random.default_rng(n).standard_normal(2**n - 1)
    dense = _dense(system) @ v
    assert np.linalg.norm(system.matvec(v) - dense) <= 1e-15 * np.linalg.norm(dense)


def test_oracles_form_nothing_dense_at_n12():
    b = np.random.default_rng(12).standard_normal(2**12 - 1)
    for oracle in (lambda: solve_classical(TridiagonalSystem(N=2**12), b),
                   lambda: spectral_solve(12, b)):
        _, peak = peak_bytes(oracle)
        assert peak < 8e6  # the dense 4095 x 4095 matrix alone is 134 MB


@pytest.mark.parametrize("b, error", [
    ([np.nan] + [1.0] * 6, ValueError),
    ([np.inf] + [1.0] * 6, ValueError),
    (1e308 * np.ones(7), RuntimeError),  # finite, but the solve overflows
])
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_oracles_never_return_a_non_finite_vector(b, error):
    with pytest.raises(error, match="non-finite"):
        solve_classical(TridiagonalSystem(N=8), b)
    with pytest.raises(error, match="non-finite"):
        spectral_solve(3, b)


def test_residual_guard_holds_at_huge_rhs():
    # at |b| ~ 1e200 a plain norm squares past the float range to inf, which
    # would make the bound inf and let any finite v through
    system = TridiagonalSystem(N=8)
    b = 1e200 * np.random.default_rng(3).standard_normal(7)
    v = solve_classical(system, b)
    with pytest.raises(RuntimeError, match="residual .* exceeds bound"):
        poisson._check_residual(system, (1 + 1e-6) * v, b)
    poisson._check_residual(system, v, b)


@pytest.mark.parametrize("n", range(16, 21))
def test_correct_solve_passes_the_guard_at_large_n(n):
    # ||A v - b|| / ||b|| reaches 1.5e-8 at n=20, so a bound relative to ||b||
    # alone rejected these solves; their backward error stays below 0.16 eps
    b = np.random.default_rng([0, n]).standard_normal(2**n - 1)
    v = solve_classical(TridiagonalSystem(N=2**n), b)
    assert np.linalg.norm(v - spectral_solve(n, b)) <= (
        16 * poisson.condition_number(n) * poisson.EPS * np.linalg.norm(v))


@pytest.mark.parametrize("n", range(2, 13))
def test_guard_rejects_a_scaled_solution(n):
    # (1 + 1e-9) v has backward error >= 18.7 eps over these seeds at n=12, but
    # only 6.2 eps at n=13: above that it lies inside the problem's conditioning
    system = TridiagonalSystem(N=2**n)
    for seed in range(20):
        b = np.random.default_rng([seed, n]).standard_normal(2**n - 1)
        v = solve_classical(system, b)
        with pytest.raises(RuntimeError, match="backward error .* > 8 eps"):
            poisson._check_residual(system, (1 + 1e-9) * v, b)


@pytest.mark.parametrize("n", range(1, 11))
def test_condition_number_is_the_eigenvalue_ratio(n):
    N = 2**n
    ratio = eigenvalue(n, N - 1) / eigenvalue(n, 1)
    assert poisson.condition_number(n) == pytest.approx(ratio, rel=1e-13)


@pytest.mark.parametrize("n", range(2, 13))
def test_dst_is_an_involution(n):
    v = np.random.default_rng(n).standard_normal(2**n - 1)
    assert np.max(np.abs(dst(dst(v)) - v)) <= 1e-14


@pytest.mark.parametrize("n", range(2, 11))
def test_dst_columns_are_the_bc_block(n):
    N = 2**n
    S = np.array([dst(e) for e in np.eye(N - 1)])
    assert np.max(np.abs(S - S.T)) <= 1e-15
    idx = np.arange(1, N)
    exact = np.sqrt(2.0 / N) * np.sin(np.pi * (np.outer(idx, idx) % (2 * N)) / N)
    assert np.max(np.abs(S - exact)) <= 1e-15
    # bc_matrix takes sin of the unreduced jk pi / N < pi N, whose rounding
    # (about 1.5 eps relative) moves an entry by up to 5 eps sqrt(2N): 1.5e-14
    # was measured at n=10
    assert np.max(np.abs(S - bc_matrix(n)[1:, 1:])) <= 5 * np.finfo(float).eps * np.sqrt(2 * N)


@pytest.mark.parametrize("n", range(2, 13))
def test_spectral_solve_matches_dense_formula(n):
    N = 2**n
    b = np.random.default_rng(n).standard_normal(N - 1)
    idx = np.arange(1, N)
    S = np.sqrt(2.0 / N) * np.sin(np.outer(idx, idx) * np.pi / N)
    lam = np.array([eigenvalue(n, j) for j in range(1, N)])
    dense = S @ ((S @ b) / lam)
    assert np.linalg.norm(spectral_solve(n, b) - dense) <= 1e-14 * np.linalg.norm(dense)


def test_truncation_error_halves_quadratically():
    rows = truncation_study("sin", range(3, 9))
    errors = [err for _, err in rows]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    for r in ratios:
        assert r == pytest.approx(4.0, rel=0.1)
    slope = np.polyfit(
        np.log([2**n for n, _ in rows]), np.log(errors), 1
    )[0]
    assert slope == pytest.approx(-2.0, abs=0.1)


def test_truncation_exact_for_quartic_free_solutions():
    # const and ramp solutions are cubic polynomials: the stencil is exact
    for preset in ("const", "ramp"):
        for _, err in truncation_study(preset, [3, 5]):
            assert err <= 1e-12


@pytest.mark.parametrize("bad", [2.5, 0])
def test_truncation_study_blames_n(bad):
    with pytest.raises(ValueError) as exc:
        truncation_study(n_list=[3, bad])
    assert str(exc.value) == f"n must be an integer >= 1, got {bad!r}"


def test_truncation_zero_rhs_is_exact():
    system = TridiagonalSystem(N=16)
    v = solve_classical(system, np.zeros(15))
    assert np.all(v == 0.0)


def test_presets_evaluate_on_interior_grid():
    b = preset_rhs("sin", 3)
    x = np.arange(1, 8) / 8
    assert np.allclose(b, np.pi**2 * np.sin(np.pi * x))
    assert np.allclose(preset_solution("ramp", 3), (x - x**3) / 6)
    with pytest.raises(ValueError):
        preset_rhs("nope", 3)
