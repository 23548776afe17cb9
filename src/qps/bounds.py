"""The n every entry point accepts: one table of inclusive (lo, hi) rows.

A key names the entry point (and mode) and is the subject of the error.
- serial / parallel solve: library `builder.solve`; a dense state of at most
  2**24 amplitudes (128 MiB as float64).  With one BLAS thread on a 2-core
  x86-64 box, serial n=7 takes 0.23 s / 76 MB, n=8 5.2 s / 373 MB, and
  parallel n=6 0.45 s / 131 MB (solve wall time / process peak RSS).
- serial / parallel simulation: `qps solve`, `qps verify --n-max` and its
  construction-equivalence sweep; interactive sizes.
- report: construction and counting only, up to the paper's n=15.
- identity residual: the log-domain sums stay stable up to n=14.
- inversion identity: a 2**n-step Python loop, 0.56 s at n=16, doubling per n.
- dense BC block: a 2**n x 2**n float64 matrix, checked for orthogonality in
  O(8**n) once, when it is built; its adjoint is the unchecked transposed view.
"""

BOUNDS = {
    "serial solve": (2, 8), "parallel solve": (3, 6),
    "serial simulation": (2, 6), "parallel simulation": (3, 5),
    "identity residual": (1, 14), "inversion identity": (2, 12),
    "report": (2, 15), "dense BC block": (2, 12),
}


def check(what: str, n: int) -> None:
    """Raise ValueError unless row `what` accepts n."""
    lo, hi = BOUNDS[what]
    if not lo <= n <= hi:
        raise ValueError(f"{what} supports n in [{lo}, {hi}], got {n}")
