"""The n every entry point accepts: one table of inclusive (lo, hi) rows.

A key names the entry point (and mode) and is the subject of the error.
- serial / parallel solve: library `builder.solve` and every `build_qps`
  that materializes its BC matrix; a dense state of at most 2**24
  amplitudes (128 MiB as float64).
- serial / parallel simulation: `qps solve`, `qps verify --n-max` and its
  construction-equivalence sweep; interactive sizes.
- report: construction and counting only, up to the paper's n=15.
- identity residual: the log-domain sums stay stable up to n=14.
- inversion identity: one vectorized pass per module, 0.3 s at n=20.
"""

BOUNDS = {
    "serial solve": (2, 8), "parallel solve": (3, 6),
    "serial simulation": (2, 6), "parallel simulation": (3, 5),
    "identity residual": (1, 14), "inversion identity": (2, 20),
    "report": (2, 15),
}


def check(what: str, n: int) -> None:
    """Raise ValueError unless row `what` accepts n."""
    from .real import is_integer  # here, not at the top: bounds imports without numpy
    lo, hi = BOUNDS[what]
    if not is_integer(n):
        raise ValueError(f"{what} needs an integer n, got {n!r}")
    if not lo <= n <= hi:
        raise ValueError(f"{what} supports n in [{lo}, {hi}], got {n}")
