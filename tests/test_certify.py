"""Partition certificates: construction, the verification chain, the
minimal-constant search, and the ratio sweeps.

The corruption battery is the heart of this file: every recorded
certificate field is tampered with through the JSON round trip, and each
tampering must flip at least one chain link.
"""

import json
import math

import numpy as np
import pytest

from spectral_certify import certify
from spectral_certify.bounds import rectangle_spectrum
from spectral_certify.certify import (
    CertificateFormatError,
    CertificationError,
    ChainLink,
    PartitionCertificate,
    certified_chain,
    construct_partition,
    minimal_constant,
    partition_radius,
    quadratic_ratio_sweep,
    reference_spectrum,
    verify_certificate,
    weak_chain_report,
)
from spectral_certify.geometry import Point2, Rectangle, rectangle_sandwich, regular_polygon

PI2 = math.pi**2

UNIT_SQUARE = Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0)


def square_chain(k, ratio_cap=100.0):
    """weak_chain_report on the unit square, from its closed-form spectrum."""
    sandwich = rectangle_sandwich(UNIT_SQUARE.polygon())
    return weak_chain_report(rectangle_spectrum(0.5, 0.5, k + 2), sandwich, k, ratio_cap)


def link_by_name(report, name):
    matches = [link for link in report.links if link.name == name]
    assert matches, f"no link named {name}"
    return matches[0]


class TestPartitionRadius:
    def test_formula(self):
        assert partition_radius(4, 2, 4.0, 4.0 * PI2) == pytest.approx(
            4.0 / math.pi, rel=1e-15
        )
        assert partition_radius(1, 1, 2.0, 4.0) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(CertificationError):
            partition_radius(1, 2, 1.0, 1.0)
        with pytest.raises(CertificationError):
            partition_radius(2, 1, 0.0, 1.0)
        with pytest.raises(CertificationError):
            partition_radius(2, 1, 1.0, 0.0)


class TestStripConstruction:
    def test_single_strip_when_radius_is_large(self):
        # k=4, l=2, C=4 on the unit square: R = 4/pi, one strip suffices
        cert = construct_partition(UNIT_SQUARE, 4, 2, 4.0, 4.0 * PI2)
        assert cert.case_tag == "Strip"
        assert cert.l_prime == 1
        assert len(cert.cells) == 1
        assert cert.chain_ok

    def test_identity_indices_single_cell(self):
        cert = construct_partition(UNIT_SQUARE, 1, 1, 8.0, PI2)
        assert cert.l_prime == 1
        report = verify_certificate(cert, PI2)
        assert report.holds_all

    def test_long_thin_rectangle_strip_postconditions(self):
        domain = Rectangle(Point2(0.0, 0.0), 0.1, 10.0, 0.0)
        mu6 = rectangle_spectrum(0.1, 10.0, 7).values[6]
        cert = construct_partition(domain, 6, 3, 4.0, mu6)
        assert cert.case_tag == "Strip"
        assert cert.l_prime <= 3
        height = 2.0 * domain.half_width_b / cert.l_prime
        assert height <= cert.R * (1.0 + 1e-12)
        assert sum(c.area for c in cert.cells) == pytest.approx(domain.area, rel=1e-12)

    def test_strips_are_congruent_and_tile(self):
        # mu_8 of the unit square is 8 pi^2; C = 2 gives R ~ 0.45, so the
        # strip case engages with three strips
        cert = construct_partition(UNIT_SQUARE, 8, 4, 2.0, 8.0 * PI2)
        assert cert.case_tag == "Strip"
        assert cert.l_prime > 1
        areas = [c.area for c in cert.cells]
        assert max(areas) == pytest.approx(min(areas), rel=1e-12)
        assert sum(areas) == pytest.approx(1.0, rel=1e-12)
        # recorded diameters match the strip geometry
        height = 1.0 / cert.l_prime
        expected = math.hypot(1.0, height)
        assert max(cert.cell_diameters) == pytest.approx(expected, rel=1e-12)


class TestNetConstruction:
    @staticmethod
    def build():
        # wide square with a small constant drives a > 2R
        domain = Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0)
        mu1 = rectangle_spectrum(5.0, 5.0, 2).values[1]
        return construct_partition(domain, 1, 1, 0.3, mu1), domain

    def test_case_and_tiling(self):
        cert, domain = self.build()
        assert cert.case_tag == "Net"
        assert cert.l_prime == len(cert.cells) > 1
        assert sum(c.area for c in cert.cells) == pytest.approx(domain.area, rel=1e-9)

    def test_packing_link_holds(self):
        cert, _ = self.build()
        report = verify_certificate(cert, rectangle_spectrum(5.0, 5.0, 2).values[1])
        packing = link_by_name(report, "ball_packing")
        assert packing.holds
        assert packing.lhs == pytest.approx(cert.l_prime * math.pi * cert.R**2, rel=1e-15)

    def test_diameter_failures_are_honest(self):
        # when the ball-radius bound is violated the recorded diameters
        # genuinely exceed it; nothing is clipped to make the check pass
        cert, _ = self.build()
        report = verify_certificate(cert, rectangle_spectrum(5.0, 5.0, 2).values[1])
        diam_link = link_by_name(report, "cell_diameter_bound")
        if not diam_link.holds:
            assert max(cert.cell_diameters) > cert.diameter_bound
        # structural links are unaffected either way
        assert link_by_name(report, "cells_tile_domain").holds
        assert link_by_name(report, "case_consistent").holds
        assert link_by_name(report, "diameter_bound_formula").holds


class TestVerificationChain:
    @staticmethod
    def verifying_certificate():
        c_star = minimal_constant(UNIT_SQUARE, 2, 1)
        cert = construct_partition(UNIT_SQUARE, 2, 1, c_star, PI2)
        return cert, PI2

    def test_round_trip_preserves_verification(self):
        cert, mu_l = self.verifying_certificate()
        report = verify_certificate(cert, mu_l)
        assert report.holds_all
        clone = PartitionCertificate.from_json(cert.to_json())
        report2 = verify_certificate(clone, mu_l)
        assert [l.holds for l in report2.links] == [l.holds for l in report.links]
        assert report2.holds_all

    def test_schema_guard(self):
        cert, _ = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        obj["schema"] = 99
        with pytest.raises(CertificateFormatError, match="unknown certificate schema"):
            PartitionCertificate.from_dict(obj)

    @pytest.mark.parametrize(
        "field,mutate",
        [
            ("'l_prime' is missing", lambda d: d.pop("l_prime")),
            ("'domain.rotation' is missing", lambda d: d["domain"].pop("rotation")),
            ("'cells' is malformed", lambda d: d.__setitem__("cells", {"0": d["cells"][0]})),
            ("'domain.center' is malformed", lambda d: d["domain"].__setitem__("center", [0.0])),
            ("'domain.center' is malformed", lambda d: d["domain"].__setitem__("center", 0.0)),
        ],
    )
    def test_malformed_field_named(self, field, mutate):
        cert, _ = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        mutate(obj)
        with pytest.raises(CertificateFormatError, match=field):
            PartitionCertificate.from_dict(obj)

    @pytest.mark.parametrize("text", ["{not json", "", "[1, 2", "{\"schema\": 1,}"])
    def test_text_not_json(self, text):
        # a file that cannot be read is a format error, never a failed proof
        with pytest.raises(CertificateFormatError, match="not JSON") as exc:
            PartitionCertificate.from_json(text)
        assert isinstance(exc.value, ValueError)
        assert not isinstance(exc.value, CertificationError)

    @pytest.mark.parametrize(
        "name,mutate",
        [
            ("R", lambda d: d.__setitem__("R", d["R"] * 1.01)),
            ("C", lambda d: d.__setitem__("C", d["C"] * 0.5)),
            ("k", lambda d: d.__setitem__("k", d["k"] + 1)),
            ("l", lambda d: d.__setitem__("l", d["l"] + 1)),
            (
                "mu_k_estimate",
                lambda d: d.__setitem__("mu_k_estimate", d["mu_k_estimate"] * 2.0),
            ),
            (
                "lower_bound",
                lambda d: d.__setitem__("lower_bound", d["lower_bound"] * 1.1),
            ),
            ("l_prime", lambda d: d.__setitem__("l_prime", d["l_prime"] + 1)),
            (
                "cell_vertex",
                lambda d: d["cells"][0].__setitem__(
                    0, [d["cells"][0][0][0] + 0.05, d["cells"][0][0][1]]
                ),
            ),
            (
                "cell_diameters",
                lambda d: d["cell_diameters"].__setitem__(
                    0, d["cell_diameters"][0] * 1.1
                ),
            ),
            ("case_tag", lambda d: d.__setitem__("case_tag", "Net")),
            (
                "diameter_bound",
                lambda d: d.__setitem__("diameter_bound", d["diameter_bound"] * 0.5),
            ),
            (
                "domain",
                lambda d: d["domain"].__setitem__(
                    "half_width_b", d["domain"]["half_width_b"] * 1.2
                ),
            ),
        ],
    )
    def test_any_corruption_flips_the_chain(self, name, mutate):
        cert, mu_l = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        mutate(obj)
        tampered = PartitionCertificate.from_dict(obj)
        report, updated = certified_chain(tampered, mu_l)
        assert not report.holds_all, f"corrupting {name} went undetected"
        assert updated.chain_ok is False

    def test_small_reference_fails_final_link(self):
        cert, mu_l = self.verifying_certificate()
        report = verify_certificate(cert, mu_l / 20.0)
        assert not link_by_name(report, "lower_bound_vs_reference").holds
        assert not report.holds_all

    def test_certified_chain_confirms_good_certificate(self):
        cert, mu_l = self.verifying_certificate()
        report, updated = certified_chain(cert, mu_l)
        assert report.holds_all
        assert updated.chain_ok is True

    def test_report_serializes(self):
        cert, mu_l = self.verifying_certificate()
        report = verify_certificate(cert, mu_l)
        d = report.to_dict()
        assert d["holds_all"] is True
        assert all(set(l) >= {"name", "lhs", "rhs", "ratio", "holds"} for l in d["links"])


class TestMinimalConstant:
    def test_square_pair(self):
        # one strip requires R >= 1, i.e. C >= pi/2; the search returns
        # the bracket top within its 1.05 factor
        c = minimal_constant(UNIT_SQUARE, 2, 1)
        assert math.pi / 2.0 <= c <= math.pi / 2.0 * 1.05 * (1.0 + 1e-12)
        assert verify_certificate(
            construct_partition(UNIT_SQUARE, 2, 1, c, PI2), PI2
        ).holds_all

    def test_halving_below_minimum_fails(self):
        c = minimal_constant(UNIT_SQUARE, 2, 1)
        weak = construct_partition(UNIT_SQUARE, 2, 1, c / 2.0, PI2)
        assert not verify_certificate(weak, PI2).holds_all

    def test_long_rectangle_needs_double_the_constant(self):
        long_rect = Rectangle(Point2(0.0, 0.0), 5.0, 0.5, 0.0)
        c = minimal_constant(long_rect, 2, 1)
        assert math.pi <= c <= math.pi * 1.05 * (1.0 + 1e-12)

    def test_rejects_bad_indices(self):
        with pytest.raises(CertificationError):
            minimal_constant(UNIT_SQUARE, 1, 2)


def uncapped_minimal_constant(domain, k, l):
    """Reference search: minimal_constant's doubling and bisection, with
    every probe's partition built and verified in full.  Returns the
    constant and the (C, verdict) of each probe in order."""
    spec = rectangle_spectrum(domain.half_width_a, domain.half_width_b, k + 1)
    mu_k, mu_l = spec[k], spec[l]
    probes = []

    def verifies(c):
        ok = verify_certificate(construct_partition(domain, k, l, c, mu_k), mu_l).holds_all
        probes.append((c, ok))
        return ok

    c = certify._C_FLOOR
    while not verifies(c):
        c *= 2.0
        assert c <= certify._C_CEIL
    if c == certify._C_FLOOR:
        return c, probes
    lo, hi = c / 2.0, c
    while hi / lo > certify._C_FACTOR:
        mid = math.sqrt(lo * hi)
        if verifies(mid):
            hi = mid
        else:
            lo = mid
    return hi, probes


def traced_search(monkeypatch, domain, k, l):
    """minimal_constant with the (C, verdict) of each probe recorded; a
    probe stopped at the piece cap is never verified, so it reads False."""
    construct, verify = certify.construct_partition, certify.verify_certificate
    probes = []

    def constructed(dom, k, l, c, *args, **kwargs):
        probes.append((c, False))
        return construct(dom, k, l, c, *args, **kwargs)

    def verified(cert, *args, **kwargs):
        report = verify(cert, *args, **kwargs)
        probes[-1] = (probes[-1][0], report.holds_all)
        return report

    monkeypatch.setattr(certify, "construct_partition", constructed)
    monkeypatch.setattr(certify, "verify_certificate", verified)
    return minimal_constant(domain, k, l), probes


# square k=l=24, rect:10:10 k=l=40, rect:3:1 k=30 l=12, a 10:1 rectangle,
# and two rotated, translated rectangles
SEARCH_CASES = [
    (UNIT_SQUARE, 24, 24),
    (Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0), 40, 40),
    (Rectangle(Point2(0.0, 0.0), 0.5, 1.5, 0.0), 30, 12),
    (Rectangle(Point2(0.0, 0.0), 0.5, 5.0, 0.0), 20, 10),
    (Rectangle(Point2(1.3, -0.7), 0.8, 2.1, 0.6), 24, 8),
    (Rectangle(Point2(-3.0, 2.0), 2.0, 2.5, 2.2), 30, 30),
]


class TestSearchOracle:
    """The capped search returns the constant and the probe verdicts of
    the search that builds every partition in full."""

    @pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
    def test_same_constant_and_verdicts(self, case, monkeypatch):
        domain, k, l = SEARCH_CASES[case]
        want_c, want = uncapped_minimal_constant(domain, k, l)
        got_c, got = traced_search(monkeypatch, domain, k, l)
        assert got_c == want_c
        assert got == want


class TestProbeCap:
    @pytest.mark.parametrize("C, case", [(0.5, "Net"), (6.0, "Strip")])
    def test_cap_at_piece_count(self, C, case):
        domain = SEARCH_CASES[1][0]
        mu_k = rectangle_spectrum(5.0, 5.0, 41)[40]
        full = construct_partition(domain, 40, 40, C, mu_k)
        assert full.case_tag == case
        assert construct_partition(domain, 40, 40, C, mu_k, max_pieces=full.l_prime - 1) is None
        capped = construct_partition(domain, 40, 40, C, mu_k, max_pieces=full.l_prime)
        assert capped.to_json() == full.to_json()

    def test_search_partitions_no_net_over_l(self, monkeypatch):
        net, partition = certify.maximal_separated_net, certify.voronoi_partition
        net_sizes, site_counts = [], []

        def recorded_net(*args, **kwargs):
            sites = net(*args, **kwargs)
            net_sizes.append(len(sites))
            return sites

        def counted_partition(P, sites):
            site_counts.append(len(sites))
            return partition(P, sites)

        monkeypatch.setattr(certify, "maximal_separated_net", recorded_net)
        monkeypatch.setattr(certify, "voronoi_partition", counted_partition)
        minimal_constant(SEARCH_CASES[1][0], 40, 40)
        # probes met nets over the cap, stopped at 41 sites, and only the
        # nets within it were partitioned
        assert max(net_sizes) == 41
        assert site_counts == [n for n in net_sizes if n <= 40]
        assert site_counts


class TestQuadraticRatioSweep:
    def test_square_closed_form_entries(self):
        table = quadratic_ratio_sweep(reference_spectrum(UNIT_SQUARE.polygon(), 11, 5), 10)
        assert table.spectrum_source == "closed_form"
        by_pair = {(e.k, e.l): e.ratio for e in table.entries}
        assert len(by_pair) == 10 * 11 // 2
        for k in range(1, 11):
            assert by_pair[(k, k)] == 1.0
        assert by_pair[(2, 1)] == pytest.approx(0.25, rel=1e-12)
        # independent enumeration over the hand-written lattice prefix
        squares = [0, 1, 1, 2, 4, 4, 5, 5, 8, 9, 9]
        expected_max = max(
            (squares[k] / squares[l]) * (l / k) ** 2
            for k in range(1, 11)
            for l in range(1, k + 1)
        )
        assert expected_max == pytest.approx(1.225, rel=1e-12)
        assert table.max_ratio == pytest.approx(expected_max, rel=1e-12)

    def test_fem_path_on_pentagon(self):
        table = quadratic_ratio_sweep(reference_spectrum(regular_polygon(5), 4, 3), 3)
        assert table.spectrum_source == "fem(3)"
        assert len(table.entries) == 6
        assert all(np.isfinite(e.ratio) for e in table.entries)
        assert table.max_ratio < 100.0

    def test_rejects_bad_k_max(self):
        with pytest.raises(CertificationError):
            quadratic_ratio_sweep(rectangle_spectrum(0.5, 0.5, 2), 0)


class TestWeakChain:
    def test_square_links(self):
        report = square_chain(1)
        assert link_by_name(report, "sandwich_dilation").holds
        # power-of-two dilation makes the scaling identity exact
        assert link_by_name(report, "inner_outer_scaling").lhs == 0.0
        assert link_by_name(report, "consecutive_ratio_capped").holds
        assert link_by_name(report, "domain_to_inner_box").holds
        assert link_by_name(report, "outer_box_to_domain").holds
        # mu_2 = mu_1 on the square
        assert link_by_name(report, "inner_box_consecutive").ratio == pytest.approx(
            1.0, rel=1e-12
        )

    def test_torus_multiplicity_reporting(self):
        report = square_chain(3)
        mism = link_by_name(report, "torus_multiplicity_mismatches")
        # doubled-box torus repeats values with sign multiplicity, so the
        # two lists diverge from index 3 on
        assert mism.lhs == 2.0
        assert mism.holds

    def test_gating_link_fails_under_tight_cap(self):
        report = square_chain(2, ratio_cap=1.5)
        gate = link_by_name(report, "consecutive_ratio_capped")
        assert not gate.holds
        assert not report.holds_all

    def test_fem_domain_and_precomputed_spectrum(self):
        pent = regular_polygon(5)
        sandwich = rectangle_sandwich(pent)
        report = weak_chain_report(reference_spectrum(pent, 3, 3), sandwich, 1, 100.0)
        assert link_by_name(report, "sandwich_dilation").lhs in (1.0, 2.0, 4.0, 8.0)
        from spectral_certify.fem import neumann_spectrum

        spec = neumann_spectrum(pent, 4, 3)
        report2 = weak_chain_report(spec, sandwich, 1, 100.0)
        gate1 = link_by_name(report, "consecutive_ratio_capped")
        gate2 = link_by_name(report2, "consecutive_ratio_capped")
        assert gate2.lhs == pytest.approx(gate1.lhs, rel=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(CertificationError):
            square_chain(0)

    def test_short_spectrum_rejected(self):
        spec = rectangle_spectrum(0.5, 0.5, 3)
        with pytest.raises(CertificationError):
            weak_chain_report(spec, rectangle_sandwich(UNIT_SQUARE.polygon()), 2, 100.0)


class TestChainLink:
    def test_inequality_semantics(self):
        assert ChainLink.check("x", 1.0, 1.0).holds
        assert not ChainLink.check("x", 1.0 + 1e-12, 1.0).holds
        assert ChainLink.check("x", 1.0 + 1e-12, 1.0, rtol=1e-9).holds
        link = ChainLink.check("x", 3.0, 4.0)
        assert link.ratio == pytest.approx(0.75, rel=1e-15)

    def test_nonpositive_rhs(self):
        assert ChainLink.check("x", 0.0, 0.0).holds
        assert not ChainLink.check("x", 0.5, 0.0).holds
        assert ChainLink.check("x", 0.5, 0.0).ratio == math.inf
