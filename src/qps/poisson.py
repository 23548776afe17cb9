"""Classical side of the 1D Dirichlet Poisson problem.

Finite-difference discretization on the unit interval with N = 2**n cells,
interior grid points x_i = i/N (i = 1..N-1, boundary values eliminated),
the tridiagonal Toeplitz eigensystem in closed form, and two independent
direct solvers (an O(N) Thomas elimination and an O(N log N) FFT sine-spectral
expansion) used as oracles for everything the quantum pipeline produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .real import as_real

EPS = float(np.finfo(float).eps)
# backward-error bound of the Thomas solve; correct solves measured below 0.4 eps at n <= 20
BACKWARD_TOL = 8 * EPS


def _as_vector(b) -> np.ndarray:
    v = as_real(b, "right-hand side")
    if v.ndim != 1:
        raise ValueError("right-hand side must be a 1-D real vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("right-hand side has a non-finite entry")
    return v


def _finite(v: np.ndarray, solver: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise RuntimeError(f"{solver} overflowed to a non-finite entry")
    return v


@dataclass(frozen=True)
class TridiagonalSystem:
    """h**-2 * tridiag(-1, 2, -1) with h = 1/N; rows are (-N^2, 2N^2, -N^2)."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("grid count N must be >= 2")

    @property
    def scale(self) -> float:
        return float(self.N) ** 2

    @property
    def size(self) -> int:
        return self.N - 1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v in O(N), without forming the dense matrix."""
        return self.scale * (2.0 * v - np.append(v[1:], 0.0) - np.append(0.0, v[:-1]))


def eigenvalue(n: int, j) -> float | np.ndarray:
    """lambda_j = 4 N^2 sin^2(j pi / 2N); a float for an int j, an array for index arrays."""
    N = 2**n
    idx = np.asarray(j)
    if not np.all((1 <= idx) & (idx <= N - 1)):
        raise ValueError(f"eigenvalue index j must be in [1, {N - 1}], got {j}")
    lam = 4.0 * N * N * np.sin(idx * np.pi / (2 * N)) ** 2
    return float(lam) if lam.ndim == 0 else lam


def dst(v: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I, so its own inverse, in O(N log N); row j is the
    eigenvector u_j(k) = sqrt(2/N) sin(jk pi / N), k = 1..N-1, of lambda_j."""
    N = len(v) + 1
    # the rfft of the odd extension has imaginary part -2 sum_k v_k sin(jk pi / N)
    odd = np.concatenate(([0.0], v, [0.0], -v[::-1]))
    return -math.sqrt(0.5 / N) * np.fft.rfft(odd).imag[1:N]


def solve_classical(system: TridiagonalSystem, b) -> np.ndarray:
    """Direct tridiagonal elimination (Thomas algorithm) for A v = b."""
    rhs = _as_vector(b)
    k = system.size
    if len(rhs) != k:
        raise ValueError(f"dimension mismatch: system size {k}, b length {len(rhs)}")
    s = system.scale
    diag = 2.0 * s
    off = -s

    # Python floats round as numpy float64 does, without the scalar-indexing cost
    rhs_list = rhs.tolist()
    cp = [off / diag]
    dp = [rhs_list[0] / diag]
    for i in range(1, k):
        denom = diag - off * cp[i - 1]
        cp.append(off / denom)
        dp.append((rhs_list[i] - off * dp[i - 1]) / denom)
    v = dp[:]
    for i in range(k - 2, -1, -1):
        v[i] = dp[i] - cp[i] * v[i + 1]
    v = _finite(np.array(v), "tridiagonal solve")
    _check_residual(system, v, rhs)
    return v


def _check_residual(system: TridiagonalSystem, v: np.ndarray, rhs: np.ndarray) -> None:
    """Raise unless the backward error ||A v - b|| / (4 N^2 ||v|| + ||b||) <= BACKWARD_TOL.

    4 N^2 bounds ||A||, so the error does not grow with cond(A) ~ 4N^2/pi^2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 7.1).
    Every norm is taken in units of max|b| to stay finite.
    """
    peak = np.max(np.abs(rhs)) or 1.0
    residual = np.linalg.norm((system.matvec(v) - rhs) / peak)
    scale = 4.0 * system.scale * np.linalg.norm(v / peak) + np.linalg.norm(rhs / peak)
    if residual > BACKWARD_TOL * scale:
        raise RuntimeError(f"tridiagonal solve residual {residual:.3e} exceeds bound "
                           f"{BACKWARD_TOL * scale:.3e}: backward error "
                           f"{residual / scale:.2e} > {BACKWARD_TOL / EPS:g} eps (in units of max|b|)")


def condition_number(n: int) -> float:
    """cond(A) = lambda_{N-1} / lambda_1 = cot^2(pi / 2N)."""
    return 1.0 / math.tan(math.pi / 2 ** (n + 1)) ** 2


def spectral_solve(n: int, b) -> np.ndarray:
    """A^-1 b as sum_j (beta_j / lambda_j) u_j; independent of solve_classical."""
    v = _as_vector(b)
    N = 2**n
    if len(v) != N - 1:
        raise ValueError(f"b must have length {N - 1}")
    return _finite(dst(dst(v) / eigenvalue(n, np.arange(1, N))), "spectral solve")


# Named right-hand-side presets, evaluated at the interior grid points.
# "sin" has analytic solution sin(pi x); "const" and "ramp" have polynomial
# solutions with vanishing fourth derivative, so the stencil is exact there.
def _preset_sin_rhs(x):
    return np.pi**2 * np.sin(np.pi * x)


def _preset_sin_sol(x):
    return np.sin(np.pi * x)


def _preset_const_rhs(x):
    return np.ones_like(x)


def _preset_const_sol(x):
    return x * (1.0 - x) / 2.0


def _preset_ramp_rhs(x):
    return x


def _preset_ramp_sol(x):
    return (x - x**3) / 6.0


PRESETS = {
    "sin": (_preset_sin_rhs, _preset_sin_sol),
    "const": (_preset_const_rhs, _preset_const_sol),
    "ramp": (_preset_ramp_rhs, _preset_ramp_sol),
}


def grid_points(n: int) -> np.ndarray:
    N = 2**n
    return np.arange(1, N) / N


def preset_rhs(name: str, n: int) -> np.ndarray:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name][0](grid_points(n))


def preset_solution(name: str, n: int) -> np.ndarray:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name][1](grid_points(n))


def truncation_study(preset: str = "sin", n_list=range(3, 9)) -> list[tuple[int, float]]:
    """Max-norm FD error against the analytic solution, one row per n."""
    rows = []
    for n in n_list:
        system = TridiagonalSystem(N=2**n)
        v = solve_classical(system, preset_rhs(preset, n))
        err = float(np.max(np.abs(v - preset_solution(preset, n))))
        rows.append((int(n), err))
    return rows
