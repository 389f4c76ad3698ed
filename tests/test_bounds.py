"""Closed-form bounds and reference spectra, pinned against independent
arithmetic and brute-force lattice oracles."""

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from spectral_certify.bounds import (
    J0_FIRST_ZERO,
    kroger_area_upper,
    kroger_diameter_upper,
    lattice_count,
    partition_lower,
    payne_weinberger_lower,
    rectangle_eigenvalue,
    rectangle_spectrum,
)
from spectral_certify.spectra import Spectrum
from oracles import box_lattice_count, lattice_spectrum

PI2 = math.pi**2
J01 = float(scipy.special.jn_zeros(0, 1)[0])


class TestSpectrum:
    def test_caller_array_stays_writeable(self):
        # the spectrum freezes its own copy, not the caller's array
        values = np.array([0.0, 1.0, 2.0])
        spec = Spectrum(values)
        assert values.flags.writeable
        assert not spec.values.flags.writeable
        values[1] = 5.0
        assert spec.values.tolist() == [0.0, 1.0, 2.0]


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
    def test_first_bessel_zero_is_nearest_double(self):
        with mpmath.workdps(40):
            assert J0_FIRST_ZERO == float(mpmath.besseljzero(0, 1))
        assert kroger_diameter_upper(1, 1.0) == (2 * J0_FIRST_ZERO) ** 2

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
        # one value is the constant mode alone: the search's k = 0 start
        for a, b, _ in lattice_cases():
            assert rectangle_spectrum(a, b, 1).values.tolist() == [0.0]

    def test_large_count_stays_small(self):
        # the lattice is sized by Weyl's law, not by count**2 points
        vals = rectangle_spectrum(0.5, 0.5, 100_000).values
        assert vals.shape == (100_000,)
        assert (np.diff(vals) >= 0).all()
        assert np.array_equal(vals[:25], rectangle_spectrum(0.5, 0.5, 25).values)
        # the call peaks at 32 traced bytes a value, plus a few kB: of the
        # listing, only a count-sized copy reaches the Spectrum checks
        tracemalloc.start()
        try:
            rectangle_spectrum(0.5, 0.5, 1_000_000)
            assert tracemalloc.get_traced_memory()[1] <= 32 * 1_000_000 + 16384
        finally:
            tracemalloc.stop()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rectangle_spectrum(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            rectangle_spectrum(1.0, 1.0, 0)


def lattice_cases():
    """(half_width_a, half_width_b, count): squares (many ties), 1:3 (exact
    coincidences across rows) and random aspect ratios up to 10^3."""
    rng = np.random.default_rng(7)
    cases = [(0.5, 0.5, 300), (0.5, 1.5, 300), (2.0, 2.0, 100)]
    return cases + [(a, a * 10.0 ** rng.uniform(-3, 3), 150) for a in 10.0 ** rng.uniform(-3, 3, 12)]


class TestLatticeOracle:
    """The listing against a sort of the whole lattice box, which shares no
    code with the counter the listing and rectangle_eigenvalue use."""

    def test_rectangle_bit_for_bit(self):
        for a, b, count in lattice_cases():
            expected = lattice_spectrum((math.pi / (2.0 * a)) ** 2, (math.pi / (2.0 * b)) ** 2, count)
            assert rectangle_spectrum(a, b, count).values.tobytes() == expected.tobytes()


class TestRectangleEigenvalue:
    def test_bit_for_bit_the_listed_spectrum(self):
        # every index of the listing
        for a, b, count in lattice_cases():
            listed = rectangle_spectrum(a, b, count).values
            counted = [rectangle_eigenvalue(a, b, k) for k in range(count)]
            assert np.array(counted).tobytes() == listed.tobytes()

    def test_large_index(self):
        k = 2_000_000
        assert rectangle_eigenvalue(0.5, 0.5, k) == rectangle_spectrum(0.5, 0.5, k + 1)[k]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rectangle_eigenvalue(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            rectangle_eigenvalue(1.0, 1.0, -1)


class TestLatticeCount:
    """The exact counter against a test of every pair of the lattice box."""

    def test_random_cases(self):
        rng = random.Random(17)
        for _ in range(400):
            x, y = rng.randint(1, 60), rng.randint(1, 60)
            t = rng.randint(-5, 4000)
            stop = rng.choice([10**9, rng.randint(0, 80)])
            assert lattice_count(x, y, t, stop) == min(stop, box_lattice_count(x, y, t))

    @pytest.mark.parametrize("x, y", [(3, 5), (5, 3), (7, 7), (1, 40), (40, 1)])
    def test_threshold_on_and_below_a_lattice_value(self, x, y):
        # (2, 3) lies on x p^2 + y q^2 = t and is counted there, not just below
        t = x * 4 + y * 9
        for threshold in (t, t - 1):
            expected = box_lattice_count(x, y, threshold)
            assert lattice_count(x, y, threshold, 10**9) == expected
            assert lattice_count(y, x, threshold, 10**9) == expected
        assert lattice_count(x, y, t, 10**9) > lattice_count(x, y, t - 1, 10**9)

    def test_zero_and_negative_thresholds(self):
        assert lattice_count(3, 5, 0, 10) == 1 == box_lattice_count(3, 5, 0)
        assert lattice_count(3, 5, -1, 10) == 0 == box_lattice_count(3, 5, -1)

    def test_stop_below_the_count(self):
        full = box_lattice_count(2, 3, 500)
        for stop in (0, 1, 7, full - 1, full, full + 1):
            assert lattice_count(2, 3, 500, stop) == min(stop, full)

    def test_huge_threshold_stops_after_one_row(self, monkeypatch):
        # 10^400 admits about 10^400 pairs; the first row alone passes stop
        rows = []
        isqrt = math.isqrt

        def spy(n):
            rows.append(n)
            return isqrt(n)

        monkeypatch.setattr(math, "isqrt", spy)
        assert lattice_count(3, 5, 10**400, 8388608) == 8388608
        assert lattice_count(5, 3, 10**400, 25) == 25
        assert len(rows) == 2


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
