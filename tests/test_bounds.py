"""Closed-form bounds and reference spectra, pinned against independent
arithmetic and brute-force lattice oracles."""

import math

import numpy as np
import pytest
import scipy.special

from spectral_certify.bounds import (
    kroger_area_upper,
    kroger_diameter_upper,
    partition_lower,
    payne_weinberger_lower,
    rectangle_spectrum,
    torus_spectrum,
)

PI2 = math.pi**2
J01 = float(scipy.special.jn_zeros(0, 1)[0])


class TestPayneWeinberger:
    def test_pinned_values(self):
        assert payne_weinberger_lower(math.pi) == pytest.approx(1.0, rel=1e-14)
        assert payne_weinberger_lower(math.sqrt(2.0)) == pytest.approx(4.93480220, rel=1e-8)
        assert payne_weinberger_lower(1.0) == pytest.approx(9.86960440, rel=1e-8)

    def test_scaling(self):
        for d in (0.5, 1.0, 3.7):
            assert payne_weinberger_lower(d) * d**2 == pytest.approx(PI2, rel=1e-14)

    def test_rejects_bad_diameter(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                payne_weinberger_lower(bad)


class TestKrogerDiameter:
    def test_planar_first_eigenvalue(self):
        assert kroger_diameter_upper(1, 1.0) == pytest.approx((2.0 * J01) ** 2, rel=1e-12)
        assert kroger_diameter_upper(1, 1.0) == pytest.approx(23.1327, rel=1e-4)

    def test_planar_higher_index(self):
        expected = (2.0 * J01 + 2.0 * math.pi) ** 2 / 4.0
        assert kroger_diameter_upper(3, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_scaling_and_monotonicity(self):
        base = kroger_diameter_upper(4, 1.0)
        for d in (0.5, 2.0, 7.0):
            assert kroger_diameter_upper(4, d) * d**2 == pytest.approx(base, rel=1e-12)
        seq = [kroger_diameter_upper(k, 1.0) for k in range(1, 10)]
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kroger_diameter_upper(0, 1.0)
        with pytest.raises(ValueError):
            kroger_diameter_upper(1, -1.0)


class TestKrogerArea:
    def test_pinned_values(self):
        assert kroger_area_upper(1, 1.0) == pytest.approx(8.0 * math.pi, rel=1e-12)
        assert kroger_area_upper(4, 2.0) == pytest.approx(16.0 * math.pi, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kroger_area_upper(1, 0.0)
        with pytest.raises(ValueError):
            kroger_area_upper(0, 1.0)


class TestPartitionLower:
    def test_pinned_values(self):
        assert partition_lower([PI2, PI2]) == pytest.approx(PI2, rel=1e-15)
        assert partition_lower([4.0, 9.0, 1.0]) == 1.0

    def test_two_strip_equality_case(self):
        # halving the unit square leaves strips whose longest side is
        # still 1, so the bound meets mu_2 of the square exactly
        strip_mu1 = rectangle_spectrum(0.5, 0.25, 2).values[1]
        square_mu2 = rectangle_spectrum(0.5, 0.5, 3).values[2]
        assert partition_lower([strip_mu1, strip_mu1]) == pytest.approx(
            square_mu2, rel=1e-12
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_strip_bound_below_matching_eigenvalue(self, m):
        h = 0.5 / m
        strip_mu1 = rectangle_spectrum(0.5, h, 2).values[1]
        square = rectangle_spectrum(0.5, 0.5, m + 1).values
        assert partition_lower([strip_mu1] * m) <= square[m] * (1.0 + 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            partition_lower([])
        with pytest.raises(ValueError):
            partition_lower([1.0, -2.0])


class TestRectangleSpectrum:
    def test_unit_square_prefix(self):
        vals = rectangle_spectrum(0.5, 0.5, 7).values
        expected = PI2 * np.array([0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 5.0])
        assert vals == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_two_by_one(self):
        vals = rectangle_spectrum(1.0, 0.5, 2).values
        assert vals[1] == pytest.approx(PI2 / 4.0, rel=1e-12)
        assert vals[1] == pytest.approx(2.4674, rel=1e-4)

    def test_brute_force_lattice_oracle(self):
        lx, ly = 1.3, 0.7
        spec = rectangle_spectrum(lx / 2.0, ly / 2.0, 40).values
        grid = [
            PI2 * (p**2 / lx**2 + q**2 / ly**2)
            for p in range(0, 60)
            for q in range(0, 60)
        ]
        expected = np.sort(np.array(grid))[:40]
        assert spec == pytest.approx(expected, rel=1e-12)

    def test_ascending_with_zero_head(self):
        vals = rectangle_spectrum(0.37, 1.92, 25).values
        assert vals[0] == 0.0
        assert (np.diff(vals) >= -1e-12).all()

    def test_large_count_stays_small(self):
        # the lattice is sized by Weyl's law, not by count**2 points
        vals = rectangle_spectrum(0.5, 0.5, 100_000).values
        assert vals.shape == (100_000,)
        assert (np.diff(vals) >= 0).all()
        assert np.array_equal(vals[:25], rectangle_spectrum(0.5, 0.5, 25).values)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rectangle_spectrum(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            rectangle_spectrum(1.0, 1.0, 0)


class TestTorusSpectrum:
    def test_square_torus_multiplicities(self):
        vals = torus_spectrum(1.0, 1.0, 6).values
        four_pi2 = 4.0 * PI2
        assert vals[0] == 0.0
        assert vals[1:5] == pytest.approx(np.full(4, four_pi2), rel=1e-12)
        assert vals[5] == pytest.approx(2.0 * four_pi2, rel=1e-12)

    def test_two_by_one_torus(self):
        vals = torus_spectrum(2.0, 1.0, 4).values
        assert vals[1] == pytest.approx(PI2, rel=1e-12)
        assert vals[2] == pytest.approx(PI2, rel=1e-12)
        assert vals[3] == pytest.approx(4.0 * PI2, rel=1e-12)

    def test_brute_force_lattice_oracle(self):
        lx, ly = 2.31, 1.07
        spec = torus_spectrum(lx, ly, 40).values
        grid = [
            4.0 * PI2 * (p**2 / lx**2 + q**2 / ly**2)
            for p in range(-40, 41)
            for q in range(-40, 41)
        ]
        expected = np.sort(np.array(grid))[:40]
        assert spec == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            torus_spectrum(-1.0, 1.0, 3)


class TestBoundsBracketEigenvalues:
    @pytest.mark.parametrize("half_a,half_b", [(0.5, 0.5), (1.0, 0.5), (5.0, 0.5)])
    def test_rectangle_first_eigenvalue_bracketed(self, half_a, half_b):
        mu1 = rectangle_spectrum(half_a, half_b, 2).values[1]
        diam = 2.0 * math.hypot(half_a, half_b)
        area = 4.0 * half_a * half_b
        assert payne_weinberger_lower(diam) <= mu1 * (1.0 + 1e-12)
        assert mu1 <= kroger_diameter_upper(1, diam) * (1.0 + 1e-12)
        assert mu1 <= kroger_area_upper(1, area) * (1.0 + 1e-12)

    def test_weyl_scale_at_index_500(self):
        # the closed-form value sits near the leading Weyl term and below
        # the area bound
        k = 500
        mu = rectangle_spectrum(0.5, 0.5, k + 1).values[k]
        weyl = 4.0 * math.pi * k
        assert abs(mu - weyl) <= 0.2 * weyl
        assert mu <= kroger_area_upper(k, 1.0)

    def test_higher_indices_below_diameter_bound(self):
        vals = rectangle_spectrum(0.5, 0.5, 11).values
        diam = math.sqrt(2.0)
        for k in range(1, 11):
            assert vals[k] <= kroger_diameter_upper(k, diam) * (1.0 + 1e-12)
