"""Sine-product identities behind the eigenvalue inversion.

The product of all eigenvalues of the discretized operator reduces to the
constant 2**n (the Cartan-matrix sine formula).  Regrouping that product by
the odd part of each index collapses the reciprocal of a single eigenvalue
to n-1 sine-squared factors: with j = 2**m * i (i odd),

    8 / lambda_j = [ sin(pi/6)**m
                     * prod_{k=2..n-m} sin(|2**k - (i mod 2**(k+1))| / 2**(k+1) * pi) ]**2

which is what the rotation circuits realize on probability amplitudes.
Identity checks run in log-domain so n up to 14 stays stable.
"""

from __future__ import annotations

import math

from . import bounds
from .poisson import eigenvalue

LN2 = math.log(2.0)


def odd_factor(j: int) -> tuple[int, int]:
    """(m, i) with j = 2**m * i, i odd and m maximal (the trailing-zero count)."""
    if j < 1:
        raise ValueError(f"index must be positive, got {j}")
    m = (j & -j).bit_length() - 1
    return m, j >> m


def sine_angle(k: int, i: int) -> float:
    """|2**k - (i mod 2**(k+1))| / 2**(k+1) * pi, the slot angle in (0, pi/2]."""
    t = i % (1 << (k + 1))
    return abs((1 << k) - t) / (1 << (k + 1)) * math.pi


def inversion_angles(n: int, j: int) -> tuple[float, ...]:
    """The n-1 angles whose sine product squares to 8/lambda_j.

    The first m are the constant pi/6; the rest carry k = n-m down to 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= j <= 2**n - 1:
        raise ValueError(f"j must be in [1, {2**n - 1}], got {j}")
    m, i = odd_factor(j)
    # the range is empty for j = 2**(n-1), where m = n-1
    return (math.pi / 6.0,) * m + tuple(sine_angle(k, i) for k in range(n - m, 1, -1))


def inversion_value(angles: tuple[float, ...]) -> float:
    """(prod sin(angles))**2; equals 8/lambda_j for inversion_angles(n, j)."""
    p = 1.0
    for a in angles:
        p *= math.sin(a)
    return p * p


def inversion_identity_error(n: int) -> float:
    """Max over j of the relative error |value - 8/lambda_j| / (8/lambda_j)."""
    bounds.check("inversion identity", n)
    worst = 0.0
    targets = 8.0 / eigenvalue(n, range(1, 2**n))
    for j, target in enumerate(targets.tolist(), start=1):
        got = inversion_value(inversion_angles(n, j))
        worst = max(worst, abs(got - target) / target)
    return worst


def sine_formula_residual(n: int) -> float:
    """Log-domain residual of 2**(2**(n+1)-2) * prod_j sin^2(j pi / 2**(n+1)) = 2**n."""
    bounds.check("identity residual", n)
    denom = 1 << (n + 1)
    log_lhs = (denom - 2) * LN2
    for j in range(1, 2**n):
        log_lhs += 2.0 * math.log(math.sin(j * math.pi / denom))
    return abs(log_lhs - n * LN2)


def odd_layer_residual(n: int) -> float:
    """Log-domain residual of the odd-terms-per-layer regrouping.

    prod_{k=1..n} prod_{j=1..2**(k-1)} sin^2((2j-1) pi / 2**(k+1)) = 2**(n+2-2**(n+1))
    """
    bounds.check("identity residual", n)
    log_lhs = 0.0
    for k in range(1, n + 1):
        denom = 1 << (k + 1)
        for j in range(1, 2 ** (k - 1) + 1):
            log_lhs += 2.0 * math.log(math.sin((2 * j - 1) * math.pi / denom))
    log_rhs = (n + 2 - (1 << (n + 1))) * LN2
    return abs(log_lhs - log_rhs)

