import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps.identities import (
    inversion_angles,
    inversion_identity_error,
    inversion_value,
    odd_factor,
    odd_layer_residual,
    sine_angle,
    sine_formula_residual,
)
from qps.poisson import EPS, eigenvalue


def test_odd_factor_examples():
    assert odd_factor(np.int64(12)) == (2, 3)
    assert odd_factor(1) == (0, 1)
    assert odd_factor(12) == (2, 3)
    assert odd_factor(64) == (6, 1)


def test_odd_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        odd_factor(0)
    with pytest.raises(ValueError):
        odd_factor(-3)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_odd_factor_is_maximal(j):
    m, i = odd_factor(j)
    assert i % 2 == 1
    assert (1 << m) * i == j


def test_angles_n2_j1():
    seq = inversion_angles(2, 1)
    assert odd_factor(1)[0] == 0
    assert seq == (3 * math.pi / 8,)
    # sin^2(3pi/8) against the closed-form eigenvalue oracle
    assert inversion_value(seq) == pytest.approx(0.8535533905932737, rel=1e-12)
    assert inversion_value(seq) == pytest.approx(8 / eigenvalue(2, 1), rel=1e-12)


def test_angles_n3_j2():
    seq = inversion_angles(3, 2)
    assert odd_factor(2)[0] == 1
    assert seq == (math.pi / 6, 3 * math.pi / 8)
    assert inversion_value(seq) == pytest.approx(0.21338834764831843, rel=1e-12)
    assert inversion_value(seq) == pytest.approx(8 / eigenvalue(3, 2), rel=1e-12)


def test_angles_n3_j4_all_constant():
    seq = inversion_angles(3, 4)
    assert odd_factor(4)[0] == 2
    assert seq == (math.pi / 6, math.pi / 6)
    assert inversion_value(seq) == pytest.approx(1 / 16, rel=1e-14)


def test_angles_n2_j3():
    value = inversion_value(inversion_angles(2, 3))
    assert value == pytest.approx(0.14644660940672624, rel=1e-12)
    assert value == pytest.approx(8 / eigenvalue(2, 3), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 10))
def test_all_constant_sequence_value(n):
    seq = inversion_angles(n, 2 ** (n - 1))
    assert odd_factor(2 ** (n - 1))[0] == n - 1
    assert all(a == math.pi / 6 for a in seq)
    assert inversion_value(seq) == pytest.approx(4.0 ** -(n - 1), rel=1e-13)


def test_angles_rejects_out_of_range():
    with pytest.raises(ValueError):
        inversion_angles(1, 1)
    with pytest.raises(ValueError):
        inversion_angles(3, 0)
    with pytest.raises(ValueError):
        inversion_angles(3, 8)


@pytest.mark.parametrize("make,message", [
    (lambda: odd_factor(2.0), "index must be a positive integer, got 2.0"),
    (lambda: inversion_angles(3, 2.0), "j must be an integer in [1, 7], got 2.0"),
    (lambda: inversion_angles(3.0, 2), "n must be an integer >= 2, got 3.0"),
    (lambda: inversion_angles("3", 2), "n must be an integer >= 2, got '3'"),
    (lambda: odd_factor(True), "index must be a positive integer, got True"),
    (lambda: inversion_angles(3, True), "j must be an integer in [1, 7], got True"),
], ids=["odd_factor", "angles-j", "angles-n", "angles-n-str", "odd_factor-bool", "angles-j-bool"])
def test_non_integer_index_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("n", range(2, 13))
def test_inversion_identity_exhaustive(n):
    for j in range(1, 2**n):
        seq = inversion_angles(n, j)
        assert len(seq) == n - 1
        target = 8.0 / eigenvalue(n, j)
        assert abs(inversion_value(seq) - target) <= 1e-12 * target


@pytest.mark.parametrize("n", range(2, 13))
def test_angle_range_and_probability_bound(n):
    values = {}
    for j in range(1, 2**n):
        seq = inversion_angles(n, j)
        for a in seq:
            assert 0.0 < a <= math.pi / 2
        values[j] = inversion_value(seq)
    assert max(values.values()) < 1.0
    assert max(values, key=values.get) == 1


def test_sine_formula_small_cases():
    # n=1: 2^2 sin^2(pi/4) = 2
    assert sine_formula_residual(1) <= 1e-12
    # n=2: direct numeric check of 2^6 sin^2(pi/8) sin^2(pi/4) sin^2(3pi/8) = 4
    lhs = 64 * (math.sin(math.pi / 8) * math.sin(math.pi / 4) * math.sin(3 * math.pi / 8)) ** 2
    assert lhs == pytest.approx(4.0, rel=1e-14)
    assert sine_formula_residual(2) <= 1e-12


@pytest.mark.parametrize("n,bound", [(4, 1e-12), (8, 1e-10), (12, 1e-9), (14, 1e-9)])
def test_sine_formula_log_domain(n, bound):
    assert sine_formula_residual(n) <= bound


@pytest.mark.parametrize("n,bound", [(1, 1e-12), (4, 1e-12), (10, 1e-10), (14, 1e-9)])
def test_odd_layer_residual(n, bound):
    assert odd_layer_residual(n) <= bound


def test_residual_rejects_out_of_range():
    with pytest.raises(ValueError):
        sine_formula_residual(0)
    with pytest.raises(ValueError):
        odd_layer_residual(15)


def _per_j_error(n):
    """The identity error one j at a time, through inversion_angles and inversion_value."""
    worst = 0.0
    targets = 8.0 / eigenvalue(n, range(1, 2**n))
    for j, target in enumerate(targets.tolist(), start=1):
        worst = max(worst, abs(inversion_value(inversion_angles(n, j)) - target) / target)
    return worst


@pytest.mark.parametrize("n", range(2, 13))
def test_inversion_identity_error_equals_the_per_j_loop(n):
    assert inversion_identity_error(n) == _per_j_error(n)


@pytest.mark.parametrize("n", [13, 16, 20])
def test_inversion_identity_error_holds_to_n20(n):
    assert inversion_identity_error(n) <= 2 * n * EPS


def test_inversion_identity_error_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"inversion identity supports n in \[2, 20\], got 21"):
        inversion_identity_error(21)
    with pytest.raises(ValueError):
        inversion_identity_error(1)


@pytest.mark.parametrize("k", range(1, 21))
def test_sine_angle_on_an_integer_array_is_bit_equal_to_the_scalar_form(k):
    # the semantic builder takes each slot's angles from one array call, and
    # the gate fingerprint stops at n=10, so this pins those angles above it
    odd = range(1, 2 << k, 2)
    angles = sine_angle(k, np.arange(1, 2 << k, 2))
    assert angles.dtype == np.float64
    assert list(map(float.hex, angles.tolist())) == [float.hex(sine_angle(k, i)) for i in odd]
