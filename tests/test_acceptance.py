"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test computes its verdict first, prints "[criterion N] PASS/FAIL"
with the pinned tolerance, then asserts.  Run with plain pytest; the
lines bypass capture so they always show.
"""

import json
import math
import time

import numpy as np
import pytest

from spectral_certify.bounds import (
    kroger_area_upper,
    kroger_diameter_upper,
    partition_lower,
    payne_weinberger_lower,
    rectangle_spectrum,
)
from spectral_certify.certify import (
    PartitionCertificate,
    construct_partition,
    minimal_constant,
    quadratic_ratio_sweep,
    reference_spectrum,
    verify_certificate,
    weak_chain_report,
)
from spectral_certify.fem import neumann_spectrum
from spectral_certify.geometry import (
    Point2,
    Rectangle,
    ball_packing_count,
    diameter,
    inner_offset,
    maximal_separated_net,
    rectangle_from_polygon,
    voronoi_partition,
)
from spectral_certify.mesh import check_conforming, mesh_polygon
from spectral_certify.special import bessel_j, bessel_derivative_zero, bessel_zero

from conftest import GALLERY_LEVELS
from oracles import partition_radius

PI2 = math.pi**2

UNIT_SQUARE = Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_square_eigenvalues_match_closed_form(capsys):
    # unit square, levels 6, m 8: every nonzero value within 0.5% of
    # closed form, solved in under 60 s
    t0 = time.perf_counter()
    computed = neumann_spectrum(UNIT_SQUARE.polygon(), 8, 6).values
    elapsed = time.perf_counter() - t0
    exact = PI2 * np.array([0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 5.0, 5.0])
    rel = np.abs(computed[1:] - exact[1:]) / exact[1:]
    worst = float(rel.max())
    ok = worst <= 5e-3 and elapsed < 60.0
    report(
        capsys,
        1,
        ok,
        f"max relative error {worst:.2e} (tol 5e-3), solve {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_convergence_is_second_order(capsys):
    # mu_1 error shrinks by ~4x per refinement (O(h^2))
    errors = {}
    for levels in (4, 5, 6):
        mu1 = neumann_spectrum(UNIT_SQUARE.polygon(), 2, levels).values[1]
        errors[levels] = abs(mu1 - PI2)
    r45 = errors[4] / errors[5]
    r56 = errors[5] / errors[6]
    ok = 3.5 <= r45 <= 4.5 and 3.5 <= r56 <= 4.5
    report(
        capsys,
        2,
        ok,
        f"error ratios 4->5: {r45:.2f}, 5->6: {r56:.2f} (required within [3.5, 4.5])",
    )


def test_criterion_3_polygonal_disk_matches_bessel_oracle(capsys, gallery_fem_spectra):
    # 256-gon at level 4 vs the squared first zero of J_1' from the
    # package's own root-finder
    mu1 = gallery_fem_spectra["regular_256"].values[1]
    target = bessel_derivative_zero(1.0, 1) ** 2
    rel = abs(mu1 - target) / target
    ok = rel <= 1e-2 and abs(target - 3.38996) < 1e-4
    report(
        capsys,
        3,
        ok,
        f"mu_1 = {mu1:.5f} vs (j'_11)^2 = {target:.5f}, rel {rel:.2e} (tol 1e-2)",
    )


def test_criterion_4_bessel_zero_suite(capsys):
    # half-integer zeros are k pi exactly; J_0 vanishes at its computed
    # first zero
    worst = max(abs(bessel_zero(0.5, k) - k * math.pi) for k in range(1, 21))
    residual = abs(bessel_j(0.0, bessel_zero(0.0, 1)))
    ok = worst <= 1e-10 and residual < 1e-12
    report(
        capsys,
        4,
        ok,
        f"max |j_half_k - k pi| = {worst:.1e} (tol 1e-10), |J0(j_01)| = {residual:.1e} (tol 1e-12)",
    )


def test_criterion_5_bounds_sandwich_gallery_spectra(capsys, gallery, gallery_fem_spectra):
    # PW below mu_1, Kroger bounds above mu_k for k <= 10, 1% slack on
    # the upper side only
    failures = []
    for name, poly in gallery.items():
        vals = gallery_fem_spectra[name].values
        diam = diameter(poly)
        area = poly.area
        if payne_weinberger_lower(diam) > vals[1]:
            failures.append(f"{name}: PW exceeds mu_1")
        for k in range(1, 11):
            cap = 1.01 * min(kroger_diameter_upper(k, diam), kroger_area_upper(k, area))
            if vals[k] > cap:
                failures.append(f"{name}: mu_{k} = {vals[k]:.4f} above bound {cap:.4f}")
    ok = not failures
    detail = (
        "PW <= mu_1 and mu_k <= 1.01 min(diameter, area) bounds on all 7 domains, k <= 10"
        if ok
        else "; ".join(failures[:4])
    )
    report(capsys, 5, ok, detail)


def test_criterion_6_sweep_constant_and_rectangle_certificates(capsys, gallery):
    # (a) measured quadratic constant finite and <= 100 over the gallery
    # at k_max = 12; (b) minimal-constant certificates verify for every
    # gallery rectangle and index pair
    overall = 0.0
    for name, poly in gallery.items():
        entries = quadratic_ratio_sweep(reference_spectrum(poly, 13, GALLERY_LEVELS[name]), 12)
        overall = max(overall, *(e["ratio"] for e in entries))
    sweep_ok = math.isfinite(overall) and overall <= 100.0

    pairs = [(2, 1), (4, 2), (6, 2), (8, 4)]
    cert_failures = []
    for name, poly in gallery.items():
        rect = rectangle_from_polygon(poly)
        if rect is None:
            continue
        for k, l in pairs:
            c_star = minimal_constant(rect, k, l)
            cert = construct_partition(rect, k, l, c_star)
            chain = verify_certificate(cert)
            if not chain.holds_all or len(cert.corners) > l:
                cert_failures.append(f"{name} (k={k}, l={l})")
    cert_ok = not cert_failures
    ok = sweep_ok and cert_ok
    detail = f"max measured constant {overall:.3f} (cap 100); "
    detail += (
        "all 12 rectangle certificates verified at minimal C"
        if cert_ok
        else "failed: " + ", ".join(cert_failures)
    )
    report(capsys, 6, ok, detail)


def test_criterion_7_net_packing_is_exact(capsys):
    # the Voronoi partition of every maximal 2R-separated net of the R-inner
    # parallel body packs l' disjoint R-balls into the domain: l' pi R^2 <=
    # area with no tolerance, R = C k / (l sqrt(mu_k)) with a > 2R
    cases = [
        (Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0), 1, 1, 0.3),
        (Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0), 1, 1, 0.15),
        (Rectangle(Point2(0.0, 0.0), 4.0, 3.0, 0.0), 2, 1, 0.2),
        (Rectangle(Point2(1.0, -2.0), 6.0, 2.5, 0.3), 3, 2, 0.25),
    ]
    checked = []
    failures = []
    for domain, k, l, c in cases:
        spec = rectangle_spectrum(domain.half_width_a, domain.half_width_b, k + 1)
        R = partition_radius(k, l, c, spec[k])
        if not domain.half_width_a > 2.0 * R:
            failures.append("expected net case")
            continue
        poly = domain.polygon()
        net = maximal_separated_net(inner_offset(poly, R), 2.0 * R)
        l_prime = len(voronoi_partition(poly, net).cells)
        packing = ball_packing_count(poly, net, R)
        packed = l_prime * math.pi * R**2
        checked.append(l_prime)
        if not (packed <= poly.area and packing.fits and packing.count == l_prime):
            failures.append(f"{packed} > {poly.area}")
    ok = not failures and len(checked) == len(cases)
    report(
        capsys,
        7,
        ok,
        f"l' pi R^2 <= area exact on {len(checked)} net partitions "
        f"(cell counts {checked})" if ok else "; ".join(failures),
    )


def test_criterion_8_strip_partition_interlacing(capsys):
    # m equal strips of the unit square: mu_m of the square dominates the
    # smallest strip mu_1, with equality at m = 2
    failures = []
    for m in (2, 3, 4, 5):
        strip_mu1 = rectangle_spectrum(0.5, 0.5 / m, 2).values[1]
        bound = partition_lower([strip_mu1] * m)
        mu_m = rectangle_spectrum(0.5, 0.5, m + 1).values[m]
        if mu_m < bound * (1.0 - 1e-12):
            failures.append(f"m={m}: mu_m {mu_m} below bound {bound}")
        if m == 2 and abs(mu_m - bound) > 1e-12 * PI2:
            failures.append(f"m=2 equality violated: {mu_m} vs {bound}")
    ok = not failures
    report(
        capsys,
        8,
        ok,
        "strip bound below mu_m for m in {2,3,4,5}, equality at m=2 (1e-12)"
        if ok
        else "; ".join(failures),
    )


def test_criterion_9_weak_chain_ratios_under_cap(capsys, gallery, gallery_fem_spectra):
    # the gated consecutive-eigenvalue link on every gallery domain for
    # k <= 10: measured mu_k+1 / mu_k <= 100
    worst_ratio = 0.0
    failures = []
    for name in gallery:
        chains = weak_chain_report(gallery_fem_spectra[name], 10, 100.0)
        for k, chain in chains.items():
            names = [link.name for link in chain.links]
            gate = chain.links[names.index("consecutive_ratio_capped")]
            worst_ratio = max(worst_ratio, gate.lhs / (gate.rhs / 100.0))
            if not gate.holds:
                failures.append(f"{name} k={k}")
    ok = not failures
    report(
        capsys,
        9,
        ok,
        f"max mu_k+1/mu_k = {worst_ratio:.2f} (cap 100) on all domains"
        if ok
        else "; ".join(failures[:4]),
    )


def test_criterion_10_negative_controls_and_random_domains(
    capsys, random_polygons
):
    # corrupted certificates must fail; meshes and clipped Voronoi
    # partitions stay consistent over 100 random convex polygons
    # the 1 x 2 grid of the unit square at k = 4, l = 2; mu_2 = pi^2
    c_star = minimal_constant(UNIT_SQUARE, 4, 2)
    cert = construct_partition(UNIT_SQUARE, 4, 2, c_star)
    assert verify_certificate(cert).holds_all

    def lower_c(obj):
        obj["C"] = float(np.nextafter(obj["C"], 0.0))

    def lower_l(obj):
        obj["l"] -= 1

    def translate_cell(obj):
        obj["cells"][0] = [[x + 0.3, y + 0.2] for x, y in obj["cells"][0]]

    def duplicate_cell(obj):
        obj["cells"].append(obj["cells"][0])

    def widen_by_an_ulp(obj):
        obj["domain"]["half_width_b"] = float(np.nextafter(obj["domain"]["half_width_b"], 1.0))

    def move_vertex(obj):
        obj["cells"][0][0] = [obj["cells"][0][0][0] + 0.05, obj["cells"][0][0][1]]

    def reverse_cells(obj):
        obj["cells"].reverse()

    def transpose_grid(obj):
        # the 2 x 1 grid of the same square, with cells of the same diameter
        obj["cells"] = [
            [[0.0, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.0, -0.5]],
            [[0.5, 0.5], [0.0, 0.5], [0.0, -0.5], [0.5, -0.5]],
        ]

    corruptions = [
        lower_c, lower_l, translate_cell, duplicate_cell, widen_by_an_ulp, move_vertex, reverse_cells, transpose_grid
    ]
    detected = 0
    for corrupt in corruptions:
        obj = json.loads(cert.to_json())
        corrupt(obj)
        detected += not verify_certificate(PartitionCertificate.from_dict(obj)).holds_all
    corruption_ok = detected == len(corruptions)

    rng = np.random.default_rng(99)
    geometry_ok = True
    detail_geo = ""
    for i, poly in enumerate(random_polygons):
        try:
            check_conforming(mesh_polygon(poly, 1), poly)
            c = poly.centroid
            sites = c + (poly.vertices[:5] - c) * rng.uniform(0.3, 0.7)
            part = voronoi_partition(poly, sites)
            total = sum(cell.area for cell in part.cells)
            if abs(total - poly.area) > 1e-9 * poly.area:
                raise AssertionError(f"area sum off by {abs(total - poly.area):.2e}")
        except Exception as exc:
            geometry_ok = False
            detail_geo = f"polygon {i}: {exc}"
            break
    ok = corruption_ok and geometry_ok
    report(
        capsys,
        10,
        ok,
        f"{detected} corruptions detected; Voronoi tiling (1e-9) and mesh conformity "
        "hold on 100 random polygons"
        if ok
        else f"corruptions detected: {detected} of {len(corruptions)}; {detail_geo}",
    )
