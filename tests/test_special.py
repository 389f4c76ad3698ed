"""Bessel evaluation and zero finding against independent references."""

import math

import mpmath
import numpy as np
import pytest

from spectral_certify.bounds import J0_FIRST_ZERO
from spectral_certify.special import (
    bessel_derivative_zero,
    bessel_j,
    bessel_j_derivative,
    bessel_zero,
)

mpmath.mp.dps = 40


class TestBesselJ:
    def test_small_argument_values(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(2.5, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 5.0, 8.0, 10.0, 12.0])
    def test_accuracy_against_reference(self, nu):
        xs = np.concatenate(
            [
                np.linspace(1e-6, 2.0, 23),
                np.linspace(2.0, 20.0, 41),
                np.linspace(20.0, 100.0, 37),
            ]
        )
        for x in xs:
            ref = float(mpmath.besselj(nu, mpmath.mpf(float(x))))
            assert abs(bessel_j(nu, float(x)) - ref) < 1e-12

    def test_matches_mpmath_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            nu = float(rng.uniform(0.0, 5.0))
            x = float(rng.uniform(0.0, 100.0))
            assert bessel_j(nu, x) == pytest.approx(
                float(mpmath.besselj(nu, x)), abs=5e-12
            )

    def test_derivative_matches_mpmath(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            nu = float(rng.uniform(0.0, 5.0))
            x = float(rng.uniform(0.05, 60.0))
            assert bessel_j_derivative(nu, x) == pytest.approx(
                float(mpmath.besselj(nu, x, derivative=1)), abs=5e-12
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)


class TestBesselZero:
    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.5, 5.0, 8.0, 10.0, 12.0])
    def test_zeros_match_reference(self, nu):
        for k in range(1, 21):
            ref = float(mpmath.besseljzero(nu, k))
            assert abs(bessel_zero(nu, k) - ref) <= 1e-12 * ref

    def test_half_integer_zeros_are_multiples_of_pi(self):
        # J_{1/2} is proportional to sin, so its zeros sit exactly at k pi
        for k in range(1, 21):
            assert bessel_zero(0.5, k) == pytest.approx(k * math.pi, rel=1e-10)

    def test_first_zero_value(self):
        j01 = bessel_zero(0.0, 1)
        assert abs(bessel_j(0.0, j01)) < 1e-12

    def test_first_zero_is_the_bounds_constant(self):
        assert bessel_zero(0.0, 1) == J0_FIRST_ZERO

    def test_zeros_increase_and_gaps_approach_pi(self):
        zeros = [bessel_zero(2.0, k) for k in range(1, 30)]
        gaps = np.diff(zeros)
        assert (gaps > 0).all()
        assert abs(gaps[-1] - math.pi) < 1e-3

    def test_interlacing_with_order(self):
        # j_{nu,1} < j_{nu+1,1} < j_{nu,2}
        for nu in (0.0, 1.0, 2.5):
            assert bessel_zero(nu, 1) < bessel_zero(nu + 1.0, 1) < bessel_zero(nu, 2)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            bessel_zero(0.0, 0)
        with pytest.raises(ValueError):
            bessel_zero(1.0, -3)


class TestBesselDerivativeZero:
    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.5, 8.0, 10.0, 12.0])
    def test_derivative_zeros_match_reference(self, nu):
        for k in range(1, 13):
            ref = float(mpmath.besseljzero(nu, k, derivative=1))
            assert abs(bessel_derivative_zero(nu, k) - ref) <= 1e-10 * ref

    def test_order_zero_skips_origin(self):
        # the stationary point of J_0 at x = 0 is not counted (the
        # reference library does count it, hence the index shift); the
        # first counted critical point is the first zero of J_1
        for k in range(1, 13):
            ref = float(mpmath.besseljzero(0.0, k + 1, derivative=1))
            assert bessel_derivative_zero(0.0, k) == pytest.approx(ref, rel=1e-10)
        assert bessel_derivative_zero(0.0, 1) == pytest.approx(
            bessel_zero(1.0, 1), rel=1e-14
        )

    def test_first_derivative_zero_of_j1(self):
        x = bessel_derivative_zero(1.0, 1)
        assert abs(bessel_j_derivative(1.0, x)) < 1e-12
        assert x == pytest.approx(1.8411837813406593, rel=1e-10)

    def test_derivative_zero_below_function_zero(self):
        for nu in (1.0, 2.0, 3.0):
            assert bessel_derivative_zero(nu, 1) < bessel_zero(nu, 1)
