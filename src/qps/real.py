"""The one conversion of caller input to float64: every gate and state is real."""

import numpy as np


def as_real(values, what: str) -> np.ndarray:
    """values as float64, exact when every imaginary part is 0; ValueError otherwise."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and arr.imag.any():
        raise ValueError(f"{what} must be real, got a nonzero imaginary part")
    return arr.real.astype(float, copy=False)
