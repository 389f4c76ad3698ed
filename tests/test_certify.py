"""Partition certificates: construction, the verification chain, the
minimal-constant search, and the ratio sweeps.

The corruption battery is the heart of this file: every recorded
certificate field is tampered with through the JSON round trip, and each
tampered certificate must fail a chain link or state a constant that its
grid proves.
"""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spectral_certify import certify
from spectral_certify.bounds import payne_weinberger_lower, rectangle_spectrum
from spectral_certify.certify import (
    CertificateFormatError,
    CertificationError,
    ChainLink,
    PartitionCertificate,
    certified_chain,
    construct_partition,
    grid_corners,
    grid_shape,
    minimal_constant,
    quadratic_ratio_sweep,
    reference_spectrum,
    verify_certificate,
    weak_chain_report,
)
from spectral_certify.cli import parse_domain
from spectral_certify.geometry import (
    ConvexPolygon,
    Point2,
    Rectangle,
    inner_offset,
    maximal_separated_net,
    rectangle_from_polygon,
    regular_polygon,
    voronoi_partition,
)

from oracles import exact_constant, partition_radius, report_proved_constant

PI2 = math.pi**2

UNIT_SQUARE = Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0)

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


def square_chain(k, ratio_cap=100.0):
    """weak_chain_report on the unit square, from its closed-form spectrum."""
    return weak_chain_report(rectangle_spectrum(0.5, 0.5, k + 2), k, ratio_cap)[k]


def link_by_name(report, name):
    matches = [link for link in report.links if link.name == name]
    assert matches, f"no link named {name}"
    return matches[0]


def areas(corners):
    """Shoelace areas of an (N, 4, 2) corner array."""
    x, y = corners[:, :, 0], corners[:, :, 1]
    return 0.5 * (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)


def piece_bound(cert):
    """The Payne-Weinberger value of a box of the certificate's grid."""
    return payne_weinberger_lower(math.sqrt(grid_corners(cert.domain, cert.l)[3]))


class TestStripConstruction:
    """On a thin rectangle the best grid is one column of strips."""

    def test_identity_indices_single_cell(self):
        cert = construct_partition(UNIT_SQUARE, 1, 1, 8.0)
        assert cert.corners.shape == (1, 4, 2)
        report = verify_certificate(cert)
        assert report.holds_all

    def test_long_thin_rectangle_strip_postconditions(self):
        domain = Rectangle(Point2(0.0, 0.0), 0.1, 10.0, 0.0)
        cert = construct_partition(domain, 6, 3, 4.0)
        assert cert.corners.shape == (3, 4, 2)
        # every cell spans the short side
        for cell in cert.corners:
            assert np.ptp(cell[:, 0]) == 2.0 * domain.half_width_a
        assert areas(cert.corners).sum() == pytest.approx(domain.polygon().area, rel=1e-12)

    def test_strips_are_congruent_and_tile(self):
        # the 1 x 10 rectangle with k = 12, l = 6 takes six strips of height 10/6
        domain = Rectangle(Point2(0.0, 0.0), 0.5, 5.0, 0.0)
        cert = construct_partition(domain, 12, 6, 1.0)
        assert cert.corners.shape == (6, 4, 2)
        cell_areas = areas(cert.corners)
        assert max(cell_areas) == pytest.approx(min(cell_areas), rel=1e-12)
        assert sum(cell_areas) == pytest.approx(10.0, rel=1e-12)
        # the piece lower bound is that of the strip's diagonal
        expected = payne_weinberger_lower(math.hypot(1.0, 10.0 / 6.0))
        assert piece_bound(cert) == pytest.approx(expected, rel=1e-12)


class TestNetConstruction:
    """The net partition that certificates were once built on stays in
    geometry until the net code goes."""

    def test_case_and_tiling(self):
        # wide square with a small constant: a > 2R, so the net case
        domain = Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0)
        R = partition_radius(1, 1, 0.3, rectangle_spectrum(5.0, 5.0, 2).values[1])
        assert domain.half_width_a > 2.0 * R
        poly = domain.polygon()
        net = maximal_separated_net(inner_offset(poly, R), 2.0 * R)
        cells = voronoi_partition(poly, net).cells
        assert len(cells) == len(net) > 1
        assert sum(c.area for c in cells) == pytest.approx(poly.area, rel=1e-9)


class TestGridConstruction:
    def test_single_cell_at_l_one(self):
        cert = construct_partition(UNIT_SQUARE, 4, 1, 4.0)
        assert cert.corners.tolist() == [UNIT_SQUARE.polygon().vertices.tolist()]
        assert cert.chain_ok

    @pytest.mark.parametrize("C", [None, 1.0])
    def test_one_grid_search_per_build_and_check(self, monkeypatch, C):
        # the grid shape, its corners and its D^2 come from one search in
        # construct_partition and one in verify_certificate
        searches = []
        search = certify.grid_shape

        def counted(a, b, l):
            searches.append(l)
            return search(a, b, l)

        monkeypatch.setattr(certify, "grid_shape", counted)
        cert = construct_partition(UNIT_SQUARE, 24, 24, C)
        assert searches == [24]
        assert verify_certificate(cert).links
        assert searches == [24, 24]

    @pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
    def test_case_and_tiling(self, case):
        domain, k, l = SEARCH_CASES[case]
        cert = construct_partition(domain, k, l, 1.0)
        nx, ny = grid_shape(domain.half_width_a, domain.half_width_b, l)
        assert len(cert.corners) == nx * ny <= l
        assert areas(cert.corners).sum() == pytest.approx(domain.polygon().area, rel=1e-12)
        # each corner inside the domain is shared by four cells, bit for bit
        corners = {}
        for cell in cert.corners:
            for x, y in cell.tolist():
                corners[(x, y)] = corners.get((x, y), 0) + 1
        assert sorted(corners.values()).count(4) == (nx - 1) * (ny - 1)
        assert len(corners) == (nx + 1) * (ny + 1)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (5.0, 5.0), (0.5, 1.5), (0.05, 5.0), (1.0, 1.3)])
    @pytest.mark.parametrize("l", [1, 2, 3, 7, 10, 24, 40, 97])
    def test_shape_minimises_the_diameter(self, a, b, l):
        # against every n_x n_y <= l, ties to the smaller n_x
        best = min(
            ((2.0 * a / nx) ** 2 + (2.0 * b / ny) ** 2, nx, ny)
            for nx in range(1, l + 1)
            for ny in range(1, l // nx + 1)
        )
        assert grid_shape(a, b, l) == best[1:]

    @pytest.mark.parametrize("C", [0.01, 0.5, 6.0, 1e6])
    def test_same_grid_for_any_constant(self, C):
        domain, k, l = SEARCH_CASES[1]
        cert = construct_partition(domain, k, l, C)
        reference = construct_partition(domain, k, l, 1.0)
        assert cert.corners.tobytes() == reference.corners.tobytes()
        assert piece_bound(cert) == piece_bound(reference)
        assert piece_bound(cert) == pytest.approx(payne_weinberger_lower(math.hypot(10.0 / 6.0, 10.0 / 6.0)), rel=1e-15)

    @pytest.mark.parametrize("k, l", [(6, 3), (24, 24), (100, 50)])
    def test_constant_independent_of_position(self, k, l):
        # C_proved reads a, b, k and l alone: any centre and rotation of the
        # same rectangle states the same constant, bit for bit
        a, b = 0.23516875155613254, 0.28672868996454287
        at_origin = construct_partition(Rectangle(Point2(0.0, 0.0), a, b, 0.0), k, l).C
        for center in (Point2(-290490.07214372436, -119856.49968524654), Point2(3e5, 0.0), Point2(1.3, -0.7)):
            for rotation in (0.0, 0.3, 0.7857688320918057, 2.2):
                assert construct_partition(Rectangle(center, a, b, rotation), k, l).C == at_origin

    def test_turned_far_rectangle_verifies(self):
        # far from the origin the float corners of this grid understate D^2 by
        # 9e-11 relative, far past one double's rounding, and their areas miss
        # the domain's by 4e-6 relative; the proof reads neither
        domain = Rectangle(
            Point2(-290490.07214372436, -119856.49968524654), 0.23516875155613254, 0.28672868996454287, 0.7857688320918057
        )
        cert = construct_partition(domain, 6, 3)
        assert cert.C == 1.1651735732956867
        a, b = domain.half_width_a, domain.half_width_b
        exact = exact_constant(a, b, 6, 3, *grid_shape(a, b, 3))
        assert Fraction(cert.C) >= exact > Fraction(math.nextafter(cert.C, 0.0))
        assert verify_certificate(cert).holds_all
        clone = PartitionCertificate.from_json(cert.to_json())
        assert verify_certificate(clone).holds_all

    def test_far_cells_are_polygons(self):
        # the grid cells of a unit square 800,000 units off the origin pass
        # the polygon checks at their own extent
        cells = construct_partition(Rectangle(Point2(800000.0, 0.0), 0.5, 0.5, 0.0), 4, 2).cells
        assert [cell.area for cell in cells] == [0.5, 0.5]

    def test_cell_budget_both_sides(self):
        # at the cap the grid is the best of GRID_CELLS cells; past it, the
        # same grid, whatever l, and the search never spans l
        a, b = 0.5, 0.5
        at_cap = grid_shape(a, b, certify.GRID_CELLS)
        assert at_cap[0] * at_cap[1] <= certify.GRID_CELLS
        below = grid_shape(a, b, certify.GRID_CELLS - 1)
        assert below[0] * below[1] <= certify.GRID_CELLS - 1
        start = time.perf_counter()
        for l in (certify.GRID_CELLS + 1, certify.INDEX_LIMIT, 10**18):
            assert grid_shape(a, b, l) == at_cap
        assert time.perf_counter() - start < 1.0
        assert certify.GRID_CELLS * certify.GRID_CELL_BYTES <= certify.PARTITION_BYTES


class TestVerificationChain:
    @staticmethod
    def verifying_certificate():
        c_star = minimal_constant(UNIT_SQUARE, 2, 1)
        return construct_partition(UNIT_SQUARE, 2, 1, c_star)

    def test_round_trip_preserves_verification(self):
        cert = self.verifying_certificate()
        report = verify_certificate(cert)
        assert report.holds_all
        clone = PartitionCertificate.from_json(cert.to_json())
        report2 = verify_certificate(clone)
        assert [l.holds for l in report2.links] == [l.holds for l in report.links]
        assert report2.holds_all

    def test_schema_guard(self):
        cert = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        # schemas 1 and 2 (with l_prime and lower_bound) are not read either
        for schema in (1, 2, 99):
            obj["schema"] = schema
            with pytest.raises(CertificateFormatError, match="unknown certificate schema"):
                PartitionCertificate.from_dict(obj)

    @pytest.mark.parametrize(
        "field,mutate",
        [
            ("'domain.rotation' is missing", lambda d: d["domain"].pop("rotation")),
            ("'cells' is malformed", lambda d: d.__setitem__("cells", {"0": d["cells"][0]})),
            ("'domain.center' is malformed", lambda d: d["domain"].__setitem__("center", [0.0])),
            ("'domain.center' is malformed", lambda d: d["domain"].__setitem__("center", 0.0)),
            # indices are JSON ints: no float, string or bool is truncated or read
            ("'k' is malformed", lambda d: d.__setitem__("k", 2.7)),
            ("'k' is malformed", lambda d: d.__setitem__("k", "2")),
            ("'k' is malformed", lambda d: d.__setitem__("k", True)),
            ("'l' is malformed", lambda d: d.__setitem__("l", 1.9)),
            # C is a finite positive JSON number
            ("'C' is malformed", lambda d: d.__setitem__("C", math.inf)),
            ("'C' is malformed", lambda d: d.__setitem__("C", math.nan)),
            ("'C' is malformed", lambda d: d.__setitem__("C", 0.0)),
            ("'C' is malformed", lambda d: d.__setitem__("C", "0.5")),
            ("'C' is malformed", lambda d: d.__setitem__("C", 10**400)),
            # the domain is one a polygon may have
            ("'domain.half_width_b' is malformed", lambda d: d["domain"].__setitem__("half_width_b", math.inf)),
            ("'domain' is malformed", lambda d: d["domain"].__setitem__("half_width_b", 1e308)),
            ("'domain' is malformed", lambda d: d["domain"].__setitem__("half_width_b", 1e-300)),
            ("'domain.half_width_a' is malformed", lambda d: d["domain"].__setitem__("half_width_a", -0.5)),
            ("'domain' is malformed", lambda d: d["domain"].__setitem__("rotation", math.nan)),
            # and chain_ok is a JSON bool
            ("'chain_ok' is malformed", lambda d: d.__setitem__("chain_ok", "no")),
            ("'chain_ok' is malformed", lambda d: d.__setitem__("chain_ok", 1)),
        ],
    )
    def test_malformed_field_named(self, field, mutate):
        cert = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        mutate(obj)
        with pytest.raises(CertificateFormatError, match=field):
            PartitionCertificate.from_dict(obj)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["cells"][0].append([0.0, 0.0]),  # a 5-vertex cell
            lambda d: d["cells"][0][1].append(0.0),  # a ragged row
            lambda d: d["cells"][0][1].__setitem__(0, "0.5"),
            lambda d: d["cells"][0][1].__setitem__(0, math.nan),
            lambda d: d.__setitem__("cells", []),
        ],
        ids=["five_vertices", "ragged", "string", "nan", "empty"],
    )
    def test_malformed_cells_named(self, mutate):
        # the cells are JSON numbers of shape (N, 4, 2), N >= 1, read in one
        # array; no cell is validated as a polygon
        cert = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        mutate(obj)
        with pytest.raises(CertificateFormatError, match="'cells' is malformed"):
            PartitionCertificate.from_dict(obj)

    def test_domain_out_of_float_range_named(self):
        # a domain in the coordinate range whose first k + 1 closed-form
        # values are not: pi / 1e-155 squares past the largest double
        obj = json.loads(construct_partition(UNIT_SQUARE, 4, 2).to_json())
        obj["domain"]["half_width_a"], obj["domain"]["half_width_b"] = 5e-156, 5e-145
        with pytest.raises(CertificateFormatError, match="'domain' is malformed: lengths 1e-155 x 1e-144"):
            PartitionCertificate.from_dict(obj)

    @pytest.mark.parametrize(
        # nested past the interpreter's recursion limit, json raises RecursionError
        "text", ["{not json", "", "[1, 2", "{\"schema\": 1,}", pytest.param("[" * 200000, id="nested")]
    )
    def test_text_not_json(self, text):
        # a file that cannot be read is a format error, never a failed proof
        with pytest.raises(CertificateFormatError, match="not JSON") as exc:
            PartitionCertificate.from_json(text)
        assert isinstance(exc.value, ValueError)
        assert not isinstance(exc.value, CertificationError)

    @pytest.mark.parametrize(
        "name,mutate",
        [
            ("C", lambda d: d.__setitem__("C", d["C"] * 0.5)),
            # a larger k states a true inequality: C_proved(3) = 4/9 < C = 1/2
            ("k", lambda d: d.__setitem__("k", d["k"] + 1)),
            # a smaller one a false one: C_proved(1) = 2 > C
            ("k_down", lambda d: d.__setitem__("k", d["k"] - 1)),
            ("l", lambda d: d.__setitem__("l", d["l"] + 1)),
            ("l_down", lambda d: d.__setitem__("l", d["l"] - 1)),
            (
                "half_width_ulp",
                lambda d: d["domain"].__setitem__(
                    "half_width_b", float(np.nextafter(d["domain"]["half_width_b"], math.inf))
                ),
            ),
            (
                "cell_vertex",
                lambda d: d["cells"][0].__setitem__(
                    0, [d["cells"][0][0][0] + 0.05, d["cells"][0][0][1]]
                ),
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
        # a tampered certificate fails a link, or states a constant no
        # smaller than the one its own grid proves, by the report oracle
        cert = self.verifying_certificate()
        obj = json.loads(cert.to_json())
        mutate(obj)
        tampered = PartitionCertificate.from_dict(obj)
        report, updated = certified_chain(tampered)
        assert updated.chain_ok is report.holds_all
        assert not report.holds_all or Fraction(obj["C"]) >= report_proved_constant({"certificate": obj})
        if name == "k_down":
            assert not report.holds_all

    @pytest.mark.parametrize("C, found", [(0.5, 3), (0.49, 1), (1e308, 3)])
    def test_concluded_link_is_the_lattice_count(self, C, found):
        # k = 2, l = 1 on the unit square: one cell, D^2 = 2, so C proves the
        # inequality when k + 1 = 3 pairs have p^2 + q^2 <= 2 C; the count
        # stops at 3, and at C = 0.49 only (0, 0) is left
        report = verify_certificate(construct_partition(UNIT_SQUARE, 2, 1, C))
        link = link_by_name(report, "concluded_inequality")
        assert (link.lhs, link.rhs, link.holds) == (3.0, found, found == 3)

    @pytest.mark.parametrize("C", [None, 0.5])
    @pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
    def test_links_read_the_certificate_alone(self, case, C):
        # the verifier takes no reference eigenvalue: a second argument of
        # any value gives the links it gives with none, and so does the
        # certificate reloaded from its JSON
        domain, k, l = SEARCH_CASES[case]
        cert = construct_partition(domain, k, l, C)
        links = verify_certificate(cert).to_dict()
        assert links["holds_all"] is (C is None or C >= minimal_constant(domain, k, l))
        mu_l = rectangle_spectrum(domain.half_width_a, domain.half_width_b, l + 1)[l]
        for reference in (mu_l, 0.0, math.inf, math.nan):
            assert verify_certificate(cert, reference).to_dict() == links
        assert verify_certificate(PartitionCertificate.from_json(cert.to_json())).to_dict() == links

    def test_certified_chain_confirms_good_certificate(self):
        report, updated = certified_chain(self.verifying_certificate())
        assert report.holds_all
        assert updated.chain_ok is True

    def test_report_serializes(self):
        d = verify_certificate(self.verifying_certificate()).to_dict()
        assert d["holds_all"] is True
        assert all(set(l) >= {"name", "lhs", "rhs", "ratio", "holds"} for l in d["links"])


def _fuzzed(obj, corruption):
    """A copy of a certificate dict with one corruption applied."""
    obj = json.loads(json.dumps(obj))
    cells = obj["cells"]
    if corruption == "translate":
        obj["cells"] = [[[x + 0.3, y + 0.2] for x, y in cell] for cell in cells]
    elif corruption == "duplicate":
        obj["cells"] = cells + [cells[0]]
    elif corruption == "copies_of_cell_0":
        obj["cells"] = [cells[0]] * len(cells)
    elif corruption == "drop":
        del cells[-1]
    elif corruption == "vertex_outward":
        # the first corner of cell 0 moves 1% away from the cell's center
        cx = sum(x for x, _ in cells[0]) / 4.0
        cy = sum(y for _, y in cells[0]) / 4.0
        x, y = cells[0][0]
        cells[0][0] = [x + 0.01 * (x - cx), y + 0.01 * (y - cy)]
    elif corruption == "vertex_ulp":
        # the same corner moves outward by one ulp in each coordinate
        cx = sum(x for x, _ in cells[0]) / 4.0
        cy = sum(y for _, y in cells[0]) / 4.0
        x, y = cells[0][0]
        cells[0][0] = [float(np.nextafter(x, x + (x - cx))), float(np.nextafter(y, y + (y - cy)))]
    elif corruption == "lower_C":
        obj["C"] = float(np.nextafter(obj["C"], 0.0))
    elif corruption == "half_width_ulp":
        obj["domain"]["half_width_b"] = float(np.nextafter(obj["domain"]["half_width_b"], math.inf))
    elif corruption == "reversed":
        cells.reverse()
    elif corruption == "no_cells":
        obj["cells"] = []
    return obj


def transposed_cells(cert):
    """The cells of the grid of the certificate's domain and l with n_x and
    n_y swapped."""
    nx, ny = grid_shape(cert.domain.half_width_a, cert.domain.half_width_b, cert.l)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "grid_shape", lambda a, b, l: (ny, nx))
        return certify.grid_corners(cert.domain, cert.l)[0].tolist()


FUZZ = [
    "translate",
    "duplicate",
    "copies_of_cell_0",
    "drop",
    "vertex_outward",
    "vertex_ulp",
    "lower_C",
    "half_width_ulp",
    "reversed",
    "no_cells",
]


class TestCertificateFuzz:
    """Each corruption of a verifying certificate is rejected: it loads and
    its chain fails, or, with no cells at all, it does not load."""

    @pytest.mark.parametrize("corruption", FUZZ)
    @pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
    def test_rejected(self, case, corruption):
        domain, k, l = SEARCH_CASES[case]
        cert = construct_partition(domain, k, l, minimal_constant(domain, k, l))
        assert verify_certificate(cert).holds_all
        obj = _fuzzed(cert.to_dict(), corruption)
        if corruption == "no_cells":
            with pytest.raises(CertificateFormatError, match="'cells' is malformed"):
                PartitionCertificate.from_dict(obj)
            return
        report = verify_certificate(PartitionCertificate.from_dict(obj))
        assert not report.holds_all
        failing = {link.name for link in report.links if not link.holds}
        if corruption != "lower_C":
            # the areas of translated cells and of copies still sum to the domain's
            assert "grid_rebuilt" in failing
        else:
            assert failing == {"concluded_inequality"}

    @pytest.mark.parametrize(
        "case",
        [i for i, (d, _, l) in enumerate(SEARCH_CASES) if len(set(grid_shape(d.half_width_a, d.half_width_b, l))) == 2],
    )
    def test_transposed_grid_rejected(self, case):
        # n_y x n_x boxes tile the domain too, but they are not its grid
        domain, k, l = SEARCH_CASES[case]
        cert = construct_partition(domain, k, l)
        obj = cert.to_dict()
        obj["cells"] = transposed_cells(cert)
        report = verify_certificate(PartitionCertificate.from_dict(obj))
        assert [link.name for link in report.links if not link.holds] == ["grid_rebuilt"]

    def test_concluded_inequality_alone_fails_at_a_small_constant(self):
        domain, k, l = SEARCH_CASES[1]
        report = verify_certificate(construct_partition(domain, k, l, 0.5))
        assert [link.name for link in report.links if not link.holds] == ["concluded_inequality"]

    @pytest.mark.parametrize("k, l", [(0, 0), (3, 5), (certify.INDEX_LIMIT + 1, 1), (10**30, 10**29)])
    def test_indices_out_of_range_fail_without_work(self, k, l):
        cert = construct_partition(UNIT_SQUARE, 24, 24, 3.0)
        obj = cert.to_dict()
        obj["k"], obj["l"] = k, l
        report = verify_certificate(PartitionCertificate.from_dict(obj))
        failing = {link.name for link in report.links if not link.holds}
        assert {"grid_rebuilt", "concluded_inequality"} <= failing


class TestMinimalConstant:
    def test_square_pair(self):
        # one cell of diameter sqrt(2) and mu_2 = pi^2: C = 2 pi^2 / (4 pi^2)
        c = minimal_constant(UNIT_SQUARE, 2, 1)
        assert c == 0.5
        assert verify_certificate(construct_partition(UNIT_SQUARE, 2, 1, c)).holds_all

    def test_halving_below_minimum_fails(self):
        c = minimal_constant(UNIT_SQUARE, 2, 1)
        weak = construct_partition(UNIT_SQUARE, 2, 1, c / 2.0)
        assert not verify_certificate(weak).holds_all

    def test_long_rectangle_needs_double_the_constant(self):
        # one 1 x 10 cell: D^2 = 101 and mu_2 = 4 pi^2 / 100, so C = 1.01,
        # 2.02 times the square's
        long_rect = Rectangle(Point2(0.0, 0.0), 5.0, 0.5, 0.0)
        c = minimal_constant(long_rect, 2, 1)
        assert c / minimal_constant(UNIT_SQUARE, 2, 1) == pytest.approx(2.02, rel=1e-14)

    def test_rejects_bad_indices(self):
        with pytest.raises(CertificationError):
            minimal_constant(UNIT_SQUARE, 1, 2)


class TestSearchOracle:
    """minimal_constant against the exact oracle: the constant is the
    least double at or above the rational C* = mu_k D^2 l^2 / (pi^2 k^2) of
    the grid, and the certificate verifies at it and not one double below
    it.  Unturned cases read n_x and n_y off the report's cells."""

    @pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
    def test_same_constant_and_verdicts(self, case):
        domain, k, l = SEARCH_CASES[case]
        c = minimal_constant(domain, k, l)
        verdicts = [
            verify_certificate(construct_partition(domain, k, l, C)).holds_all
            for C in (c, np.nextafter(c, 0.0))
        ]
        assert verdicts == [True, False]
        a, b = domain.half_width_a, domain.half_width_b
        oracle = exact_constant(a, b, k, l, *grid_shape(a, b, l))
        assert Fraction(c) >= oracle > Fraction(math.nextafter(c, 0.0))
        if domain.rotation == 0.0:
            assert report_proved_constant({"certificate": construct_partition(domain, k, l, c).to_dict()}) == oracle


class TestProbeCap:
    def test_search_partitions_no_net_over_l(self, monkeypatch):
        # the search builds the grid alone: no net, no Voronoi partition
        def no_net(*args, **kwargs):
            raise AssertionError("a net was built")

        for name in ("inner_offset", "maximal_separated_net", "voronoi_partition", "ball_packing_count"):
            monkeypatch.setattr(certify, name, no_net)
        for domain, k, l in SEARCH_CASES:
            c = minimal_constant(domain, k, l)
            assert len(construct_partition(domain, k, l, c).corners) <= l


# C_proved of the box grid, as the ROADMAP tabulates it
ROADMAP_ROWS = [
    ("square", 24, 24, (4, 6), 2.2569),
    ("rect:10:10", 40, 40, (6, 6), 2.2778),
    ("rect:10:10", 40, 10, (3, 3), 0.5694),
    ("square", 100, 50, (7, 7), 1.1837),
    ("rect:1:10", 12, 6, (1, 6), 0.9539),
    ("square", 4, 2, (1, 2), 1.25),
]


class TestRoadmapPins:
    @pytest.mark.parametrize("domain, k, l, shape, C", ROADMAP_ROWS)
    def test_proved_constant(self, domain, k, l, shape, C):
        rect = rectangle_from_polygon(parse_domain(domain)[1])
        assert grid_shape(rect.half_width_a, rect.half_width_b, l) == shape
        assert round(minimal_constant(rect, k, l), 4) == C


class TestRoadmapLeastDouble:
    @pytest.mark.parametrize("domain, k, l, shape, C", ROADMAP_ROWS)
    def test_least_double_at_or_above_the_exact_constant(self, domain, k, l, shape, C):
        rect = rectangle_from_polygon(parse_domain(domain)[1])
        c = minimal_constant(rect, k, l)
        oracle = exact_constant(rect.half_width_a, rect.half_width_b, k, l, *shape)
        assert Fraction(c) >= oracle > Fraction(math.nextafter(c, 0.0))


class TestQuadraticRatioSweep:
    def test_square_closed_form_entries(self):
        entries = quadratic_ratio_sweep(reference_spectrum(UNIT_SQUARE.polygon(), 11, 5), 10)
        assert {e["provenance"] for e in entries} == {"closed_form"}
        by_pair = {(e["k"], e["l"]): e["ratio"] for e in entries}
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
        assert max(by_pair.values()) == pytest.approx(expected_max, rel=1e-12)

    def test_fem_path_on_pentagon(self):
        entries = quadratic_ratio_sweep(reference_spectrum(regular_polygon(5), 4, 3), 3)
        assert [(e["k"], e["l"]) for e in entries] == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
        assert {e["provenance"] for e in entries} == {"fem(3)"}
        assert all(np.isfinite(e["ratio"]) and e["ratio"] < 100.0 for e in entries)

    def test_rejects_bad_k_max(self):
        with pytest.raises(CertificationError):
            quadratic_ratio_sweep(rectangle_spectrum(0.5, 0.5, 2), 0)


class TestWeakChain:
    def test_square_links(self):
        # the one gated link, mu_2 <= 100 mu_1, and mu_2 = mu_1 on the square
        report = square_chain(1)
        assert [link.name for link in report.links] == ["consecutive_ratio_capped"]
        gate = report.links[0]
        assert gate.holds and report.holds_all
        assert gate.lhs == pytest.approx(PI2, rel=1e-12)
        assert gate.rhs == pytest.approx(100.0 * PI2, rel=1e-12)

    def test_gating_link_fails_under_tight_cap(self):
        # mu_3 = 2 pi^2 > 1.5 mu_2 = 1.5 pi^2
        report = square_chain(2, ratio_cap=1.5)
        gate = link_by_name(report, "consecutive_ratio_capped")
        assert not gate.holds
        assert not report.holds_all

    def test_fem_domain_and_precomputed_spectrum(self):
        pent = regular_polygon(5)
        report = weak_chain_report(reference_spectrum(pent, 3, 3), 1, 100.0)[1]
        from spectral_certify.fem import neumann_spectrum

        report2 = weak_chain_report(neumann_spectrum(pent, 4, 3), 1, 100.0)[1]
        gate1 = link_by_name(report, "consecutive_ratio_capped")
        gate2 = link_by_name(report2, "consecutive_ratio_capped")
        assert gate2.lhs == pytest.approx(gate1.lhs, rel=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(CertificationError):
            square_chain(0)

    def test_short_spectrum_rejected(self):
        spec = rectangle_spectrum(0.5, 0.5, 3)
        with pytest.raises(CertificationError):
            weak_chain_report(spec, 2, 100.0)

    @pytest.mark.parametrize(
        "P",
        [
            UNIT_SQUARE.polygon(),
            Rectangle(Point2(0.3, -0.2), 5.0, 0.5, 0.4).polygon(),
            regular_polygon(5),
            regular_polygon(256),
            ConvexPolygon([[0.0, 0.0], [3.0, 0.2], [2.0, 1.5], [0.1, 0.9]]),
        ],
        ids=["square", "rect_10x1", "regular_5", "regular_256", "quadrilateral"],
    )
    def test_chains_match_per_k_listings(self, P):
        # each chain is the same whatever k_max, and its dict is what
        # dataclasses.asdict gives of its links
        spec = reference_spectrum(P, 12, 2)
        chains = weak_chain_report(spec, 10, 100.0)
        assert list(chains) == list(range(1, 11))
        for k, chain in chains.items():
            alone = weak_chain_report(spec, k, 100.0)[k]
            assert json.dumps(chain.to_dict()) == json.dumps(alone.to_dict())
            links = [dataclasses.asdict(link) for link in alone.links]
            assert json.dumps(chain.to_dict()) == json.dumps({"links": links, "holds_all": alone.holds_all})


class TestChainLink:
    def test_inequality_semantics(self):
        assert ChainLink.check("x", 1.0, 1.0).holds
        assert not ChainLink.check("x", 1.0 + 1e-12, 1.0).holds
        link = ChainLink.check("x", 3.0, 4.0)
        assert link.ratio == pytest.approx(0.75, rel=1e-15)

    def test_nonpositive_rhs(self):
        assert ChainLink.check("x", 0.0, 0.0).holds
        assert not ChainLink.check("x", 0.5, 0.0).holds
        assert ChainLink.check("x", 0.5, 0.0).ratio == math.inf
