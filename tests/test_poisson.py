import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps.poisson import (
    TridiagonalSystem,
    dst_matrix,
    eigenpair,
    eigenvalue,
    preset_rhs,
    preset_solution,
    solve_classical,
    spectral_solve,
    truncation_study,
)


def test_discretize_n2_matrix_entries():
    system = TridiagonalSystem(N=4)
    A = system.matrix()
    assert A.shape == (3, 3)
    assert np.all(np.diag(A) == 32.0)
    assert np.all(np.diag(A, k=1) == -16.0)
    assert np.all(np.diag(A, k=-1) == -16.0)


def test_discretize_n3_diagonal():
    system = TridiagonalSystem(N=8)
    assert system.matrix().shape == (7, 7)
    assert system.matrix()[3, 3] == 128.0


@pytest.mark.parametrize("n,j,expected", [
    (2, 2, 32.0),                 # 64 sin^2(pi/4), exact
    (3, 4, 128.0),                # 256 sin^2(pi/4), exact
    (2, 1, 9.37258300203048),     # frozen from the closed form, checked below
])
def test_eigenvalue_examples(n, j, expected):
    assert eigenvalue(n, j) == pytest.approx(expected, rel=1e-12)


def test_eigenvalue_rejects_out_of_range():
    with pytest.raises(ValueError):
        eigenvalue(2, 0)
    with pytest.raises(ValueError):
        eigenvalue(2, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_dense_eigendecomposition(n):
    A = TridiagonalSystem(N=2**n).matrix()
    dense = np.sort(np.linalg.eigvalsh(A))
    closed = np.sort([eigenvalue(n, j) for j in range(1, 2**n)])
    assert np.max(np.abs(dense - closed) / closed) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_eigenpairs_satisfy_definition_and_orthonormality(n):
    A = TridiagonalSystem(N=2**n).matrix()
    U = np.array([eigenpair(n, j)[1] for j in range(1, 2**n)])
    for j in range(1, 2**n):
        lam, u = eigenpair(n, j)
        assert lam == eigenvalue(n, j)
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
    lam, u = eigenpair(3, 2)
    v = spectral_solve(3, u)
    assert np.allclose(v, u / lam, rtol=1e-12, atol=1e-15)


def test_spectral_matches_thomas_on_eigenvector_sum():
    n = 2
    b = sum(eigenpair(n, j)[1] for j in range(1, 4))
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


def test_dst_matrix_is_orthogonal_involution():
    S = dst_matrix(16)
    assert np.max(np.abs(S @ S - np.eye(15))) <= 1e-12
    assert np.max(np.abs(S - S.T)) == 0.0


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
