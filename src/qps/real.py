"""The two checks of caller input: what is an integer, and the one conversion to float64."""

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not an integer."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def as_real(values, what: str) -> np.ndarray:
    """values as float64, exact when every imaginary part is 0; ValueError otherwise."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and arr.imag.any():
        raise ValueError(f"{what} must be real, got a nonzero imaginary part")
    return arr.real.astype(float, copy=False)
