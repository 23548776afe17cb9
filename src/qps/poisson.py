"""Classical side of the 1D Dirichlet Poisson problem.

Finite-difference discretization on the unit interval with N = 2**n cells,
interior grid points x_i = i/N (i = 1..N-1, boundary values eliminated),
the tridiagonal Toeplitz eigensystem in closed form, and two independent
direct solvers (Thomas elimination and the sine-spectral expansion) used as
oracles for everything the quantum pipeline produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RELATIVE_TOL = 1e-10


def _as_vector(b) -> np.ndarray:
    v = np.asarray(b, dtype=float)
    if v.ndim != 1:
        raise ValueError("right-hand side must be a 1-D real vector")
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

    def matrix(self) -> np.ndarray:
        s = self.scale
        k = self.size
        return 2 * s * np.eye(k) - s * np.eye(k, k=1) - s * np.eye(k, k=-1)


def eigenvalue(n: int, j: int) -> float:
    """lambda_j = 4 N^2 sin^2(j pi / 2N) for the N-1 dimensional system."""
    N = 2**n
    if not 1 <= j <= N - 1:
        raise ValueError(f"eigenvalue index j must be in [1, {N - 1}], got {j}")
    return 4.0 * N * N * math.sin(j * math.pi / (2 * N)) ** 2


def eigenpair(n: int, j: int) -> tuple[float, np.ndarray]:
    """(lambda_j, u_j) with u_j(k) = sqrt(2/N) sin(jk pi / N), k = 1..N-1."""
    N = 2**n
    k = np.arange(1, N)
    return eigenvalue(n, j), math.sqrt(2.0 / N) * np.sin(j * k * np.pi / N)


def dst_matrix(N: int) -> np.ndarray:
    """Type-I discrete sine transform, rows u_j(k) = sqrt(2/N) sin(jk pi / N).

    Symmetric and orthogonal, so it is its own inverse.
    """
    idx = np.arange(1, N)
    return np.sqrt(2.0 / N) * np.sin(np.outer(idx, idx) * np.pi / N)


def solve_classical(system: TridiagonalSystem, b) -> np.ndarray:
    """Direct tridiagonal elimination (Thomas algorithm) for A v = b."""
    rhs = _as_vector(b)
    k = system.size
    if len(rhs) != k:
        raise ValueError(f"dimension mismatch: system size {k}, b length {len(rhs)}")
    s = system.scale
    diag = 2.0 * s
    off = -s

    # forward sweep
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = off / diag
    dp[0] = rhs[0] / diag
    for i in range(1, k):
        denom = diag - off * cp[i - 1]
        cp[i] = off / denom
        dp[i] = (rhs[i] - off * dp[i - 1]) / denom

    # back substitution
    v = np.empty(k)
    v[-1] = dp[-1]
    for i in range(k - 2, -1, -1):
        v[i] = dp[i] - cp[i] * v[i + 1]

    residual = np.linalg.norm(system.matrix() @ v - rhs)
    bound = RELATIVE_TOL * max(np.linalg.norm(rhs), 1e-300)
    if residual > bound:
        raise RuntimeError(
            f"tridiagonal solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return v


def spectral_solve(n: int, b) -> np.ndarray:
    """A^-1 b as sum_j (beta_j / lambda_j) u_j; independent of solve_classical."""
    v = _as_vector(b)
    N = 2**n
    if len(v) != N - 1:
        raise ValueError(f"b must have length {N - 1}")
    S = dst_matrix(N)
    lam = np.array([eigenvalue(n, j) for j in range(1, N)])
    return S @ ((S @ v) / lam)


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
