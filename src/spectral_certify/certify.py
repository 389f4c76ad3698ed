"""Checkable certificates for the quadratic eigenvalue upper bound.

A certificate witnesses mu_k <= C (k/l)^2 mu_l on a rectangle by
exhibiting a partition of the domain into at most l pieces of controlled
diameter.  With R = C k / (l sqrt(mu_k)), a rectangle of short half-width
a splits either into horizontal strips of height at most R (when
a <= 2 R) or into the Voronoi cells of a maximal 2R-separated net of the
inner parallel body at distance R (when a > 2 R).  Each piece has small
diameter, so its first nonzero Neumann eigenvalue is at least
pi^2 / diam^2; a domain that splits into l' <= l such pieces has its
l-th eigenvalue bounded below accordingly, and comparing that lower
bound with mu_l closes the chain.

Verification recomputes every recorded quantity from the certificate
fields alone, so corrupting any field breaks the chain report.

The measured side works on a spectrum the caller computes once with
reference_spectrum: quadratic_ratio_sweep tabulates the constant over
all index pairs, and weak_chain_report traces consecutive eigenvalues
through a box sandwich of the domain.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .bounds import payne_weinberger_lower, rectangle_spectrum, torus_spectrum
from .fem import neumann_spectrum
from .geometry import (
    ConvexPolygon,
    GeometryError,
    Rectangle,
    ball_packing_count,
    diameters,
    inner_offset,
    maximal_separated_net,
    rectangle_from_polygon,
    rectangle_sandwich,  # unused here; the traced benchmark wraps this name
    voronoi_partition,
)
from .spectra import Spectrum

GEOMETRY_RTOL = 1e-9

# every cell of a Voronoi partition of a 2R-separated, R-covering net lies
# in a ball of radius (2 + sqrt(2)) R about its site
NET_DIAMETER_FACTOR = 2.0 + math.sqrt(2.0)

CERTIFICATE_SCHEMA = 1

# A strip certificate peaks under 2700 traced bytes a strip (its cells and
# diameters, the report dict and its indented JSON; 2632 measured with
# tracemalloc at 3142 and 31416 strips), so the budget admits ~99k strips:
# rect:0.001:1000 with k = l = 1 reaches it at C ~ 3.2e-5.
PARTITION_BYTES = 2**28
STRIP_BYTES = 2700


class CertificationError(RuntimeError):
    pass


class CertificateFormatError(ValueError):
    """A certificate that cannot be read: not JSON, an unknown schema, or a
    missing or malformed field.  Unlike CertificationError it says nothing
    about whether the certificate proves anything."""


@dataclass
class ChainLink:
    """One verified inequality lhs <= rhs (1 + rtol); ratio = lhs / rhs."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    holds: bool

    @classmethod
    def check(cls, name, lhs, rhs, rtol=0.0):
        lhs = float(lhs)
        rhs = float(rhs)
        if rhs > 0:
            ratio = lhs / rhs
        else:
            ratio = 0.0 if lhs <= 0 else math.inf
        holds = lhs <= rhs * (1.0 + rtol)
        return cls(name=name, lhs=lhs, rhs=rhs, ratio=ratio, holds=bool(holds))


@dataclass
class ChainReport:
    """Ordered list of checked inequalities plus an optional constant."""

    links: list
    minimal_C: float | None = None

    @property
    def holds_all(self) -> bool:
        return all(link.holds for link in self.links)

    def to_dict(self) -> dict:
        out = {
            "links": [dataclasses.asdict(link) for link in self.links],
            "holds_all": self.holds_all,
        }
        if self.minimal_C is not None:
            out["minimal_C"] = self.minimal_C
        return out


@dataclass
class PartitionCertificate:
    """Self-contained witness for mu_k <= C (k/l)^2 mu_l on a rectangle.

    All geometric fields are recomputable from (domain, k, l, C,
    mu_k_estimate); verification does exactly that.
    """

    domain: Rectangle
    k: int
    l: int
    C: float
    mu_k_estimate: float
    mu_source: str
    R: float
    case_tag: str
    cells: list
    cell_diameters: list
    diameter_bound: float
    l_prime: int
    lower_bound: float
    chain_ok: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "domain": {
                "center": [self.domain.center.x, self.domain.center.y],
                "half_width_a": self.domain.half_width_a,
                "half_width_b": self.domain.half_width_b,
                "rotation": self.domain.rotation,
            },
            "k": self.k,
            "l": self.l,
            "C": self.C,
            "mu_k_estimate": self.mu_k_estimate,
            "mu_source": self.mu_source,
            "R": self.R,
            "case_tag": self.case_tag,
            "cells": [c.vertices.tolist() for c in self.cells],
            "cell_diameters": [float(d) for d in self.cell_diameters],
            "diameter_bound": self.diameter_bound,
            "l_prime": self.l_prime,
            "lower_bound": self.lower_bound,
            "chain_ok": self.chain_ok,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, obj) -> "PartitionCertificate":
        """Load a certificate; an unknown schema, or a missing or malformed
        field, raises CertificateFormatError naming it."""
        if not isinstance(obj, dict) or obj.get("schema") != CERTIFICATE_SCHEMA:
            raise CertificateFormatError("unknown certificate schema")

        def get(path, convert):
            value = obj
            try:
                for key in path.split("."):
                    value = value[key]
            except (KeyError, TypeError):
                raise CertificateFormatError(f"certificate field {path!r} is missing") from None
            try:
                return convert(value)
            except (TypeError, ValueError) as exc:
                raise CertificateFormatError(
                    f"certificate field {path!r} is malformed: {exc}"
                ) from None

        rect = Rectangle(
            get("domain.center", _point),
            get("domain.half_width_a", float),
            get("domain.half_width_b", float),
            get("domain.rotation", float),
        )
        return cls(
            domain=rect,
            k=get("k", int),
            l=get("l", int),
            C=get("C", float),
            mu_k_estimate=get("mu_k_estimate", float),
            mu_source=get("mu_source", str),
            R=get("R", float),
            case_tag=get("case_tag", str),
            cells=get("cells", lambda v: ConvexPolygon.many(_listed(v))),
            cell_diameters=get("cell_diameters", lambda v: [float(d) for d in _listed(v)]),
            diameter_bound=get("diameter_bound", float),
            l_prime=get("l_prime", int),
            lower_bound=get("lower_bound", float),
            chain_ok=get("chain_ok", bool),
            notes=str(obj.get("notes", "")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PartitionCertificate":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateFormatError(f"certificate is not JSON: {exc}") from None
        return cls.from_dict(obj)


def _listed(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _point(value) -> geometry.Point2:
    x, y = _listed(value)
    return geometry.Point2(float(x), float(y))


def partition_radius(k: int, l: int, C: float, mu_k: float) -> float:
    """Length scale R = C k / (l sqrt(mu_k)) controlling the partition."""
    if not (k >= l >= 1):
        raise CertificationError("need k >= l >= 1")
    if not (C > 0 and mu_k > 0):
        raise CertificationError("need C > 0 and mu_k > 0")
    return C * k / (l * math.sqrt(mu_k))


def _strip_cells(rect: Rectangle, count: int):
    """Split the rectangle into count congruent strips across its long axis."""
    u, v = rect.axes
    c = rect.center.array
    a, b = rect.half_width_a, rect.half_width_b
    height = 2.0 * b / count
    lo = -b + np.arange(count) * height
    hi = np.append(lo[1:], b)[:, None]
    lo = lo[:, None]
    corners = np.stack(
        [c + a * u + hi * v, c - a * u + hi * v, c - a * u + lo * v, c + a * u + lo * v],
        axis=1,
    )
    return ConvexPolygon.many(corners), height


def construct_partition(
    domain: Rectangle,
    k: int,
    l: int,
    C: float,
    mu_k: float,
    *,
    max_pieces: int | None = None,
) -> PartitionCertificate | None:
    """Build the partition certificate for the quadratic bound on a rectangle.

    Strip case (short half-width a <= 2R): cross-axis strips of height
    2b / ceil(2b / R) <= R, diameter sqrt(4 a^2 + height^2) <= sqrt(17) R.
    Net case (a > 2R): Voronoi cells of a maximal 2R-separated net of the
    R-inner parallel body; each cell then lies within (2 + sqrt(2)) R of
    its site.  The chain_ok flag records the structural checks only; run
    verify_certificate against a reference mu_l to validate the full chain.

    With max_pieces, a partition of more pieces is not built: the net scan
    stops at max_pieces + 1 sites and None is returned.  A strip partition
    over the PARTITION_BYTES budget raises GeometryError before any strip
    is built, as a net over its grid budget does.
    """
    R = partition_radius(k, l, C, mu_k)
    a, b = domain.half_width_a, domain.half_width_b
    notes = []
    if a <= 2.0 * R:
        case_tag = "Strip"
        strips = 2.0 * b / R  # a float, so a tiny R gives inf, not an OverflowError
        if max_pieces is not None and strips > max_pieces:
            return None
        if strips * STRIP_BYTES > PARTITION_BYTES:
            raise GeometryError(f"constant {C:.6g} gives {strips:.3g} strips, over budget")
        count = max(1, math.ceil(strips))
        cells, height = _strip_cells(domain, count)
        bound = math.hypot(2.0 * a, height)
        notes.append(
            f"strip case: {count} strips of height {height:.6g} across a domain "
            f"of half-widths ({a:.6g}, {b:.6g})"
        )
    else:
        case_tag = "Net"
        poly = domain.polygon()
        shrunk = inner_offset(poly, R)
        if shrunk is None:
            raise CertificationError(
                "inner parallel body vanished in the net case; cannot happen "
                "for a rectangle with a > 2R"
            )
        net = maximal_separated_net(shrunk, 2.0 * R, limit=max_pieces)
        if max_pieces is not None and len(net) > max_pieces:
            return None
        part = voronoi_partition(poly, net)
        cells = part.cells
        bound = NET_DIAMETER_FACTOR * R
        packing = ball_packing_count(poly, net, R)
        owner = np.repeat(part.sites, [cell.n for cell in cells], axis=0)
        rel = np.concatenate([cell.vertices for cell in cells]) - owner
        site_distance = float(np.hypot(rel[:, 0], rel[:, 1]).max())
        notes.append(
            f"net case: {len(net)} sites separated by >= 2R over the R-inner "
            f"parallel body; every cell lies within {site_distance:.6g} of its "
            f"site (ball radius bound {NET_DIAMETER_FACTOR * R:.6g})"
        )
        notes.append(
            f"packing: {packing.count} * pi R^2 = {packing.total_ball_area:.6g} "
            f"<= area {packing.domain_area:.6g}: {packing.fits}"
        )
    cell_diameters = diameters(cells).tolist()
    l_prime = len(cells)
    worst = max(cell_diameters)
    lower = payne_weinberger_lower(worst)
    notes.append(
        "the lower bound applies to the eigenvalue whose index equals the "
        "piece count: each piece contributes pi^2 / diam^2 via its first "
        "nonzero eigenvalue"
    )
    structural = l_prime <= l and worst <= bound * (1.0 + GEOMETRY_RTOL)
    return PartitionCertificate(
        domain=domain,
        k=int(k),
        l=int(l),
        C=float(C),
        mu_k_estimate=float(mu_k),
        mu_source="closed_form",
        R=R,
        case_tag=case_tag,
        cells=cells,
        cell_diameters=cell_diameters,
        diameter_bound=bound,
        l_prime=l_prime,
        lower_bound=lower,
        chain_ok=bool(structural),
        notes="; ".join(notes),
    )


def verify_certificate(cert: PartitionCertificate, mu_l_reference: float) -> ChainReport:
    """Recompute and check every link of a certificate, each at the
    geometric tolerance GEOMETRY_RTOL."""
    links = []
    geo = GEOMETRY_RTOL

    # (i) piece count
    links.append(ChainLink.check("piece_count", cert.l_prime, cert.l))
    # (ii) every diameter below the recorded bound
    worst = max(cert.cell_diameters) if cert.cell_diameters else math.inf
    links.append(ChainLink.check("cell_diameter_bound", worst, cert.diameter_bound, geo))
    # (iii) the lower bound is the Payne-Weinberger value of the worst cell
    links.append(
        ChainLink.check(
            "piece_lower_bound",
            abs(cert.lower_bound - payne_weinberger_lower(worst)),
            geo * cert.lower_bound,
        )
    )
    # (iv) the lower bound clears the reference eigenvalue
    links.append(
        ChainLink.check(
            "lower_bound_vs_reference", cert.lower_bound, mu_l_reference, geo
        )
    )

    # integrity of the recorded fields
    try:
        expected_r = partition_radius(cert.k, cert.l, cert.C, cert.mu_k_estimate)
    except CertificationError:
        expected_r = math.nan
    links.append(
        ChainLink.check(
            "radius_definition",
            abs(cert.R - expected_r) if math.isfinite(expected_r) else math.inf,
            geo * cert.R,
        )
    )
    links.append(
        ChainLink.check("piece_count_matches_cells", abs(cert.l_prime - len(cert.cells)), 0.0)
    )
    recomputed = diameters(cert.cells).tolist()
    mismatch = (
        max(abs(d - r) for d, r in zip(cert.cell_diameters, recomputed))
        if len(recomputed) == len(cert.cell_diameters) and recomputed
        else math.inf
    )
    links.append(
        ChainLink.check("cell_diameters_recomputed", mismatch, geo * max(recomputed, default=1.0))
    )
    area_sum = sum(cell.area for cell in cert.cells)
    links.append(
        ChainLink.check(
            "cells_tile_domain",
            abs(area_sum - cert.domain.area),
            geo * cert.domain.area,
        )
    )
    a = cert.domain.half_width_a
    if cert.case_tag == "Strip":
        case_ok = a <= 2.0 * cert.R * (1.0 + geo)
        height = 2.0 * cert.domain.half_width_b / max(cert.l_prime, 1)
        bound_ok = abs(cert.diameter_bound - math.hypot(2.0 * a, height)) <= geo * cert.diameter_bound
    elif cert.case_tag == "Net":
        case_ok = a > 2.0 * cert.R * (1.0 - geo)
        bound_ok = abs(cert.diameter_bound - NET_DIAMETER_FACTOR * cert.R) <= geo * cert.diameter_bound
    else:
        case_ok = bound_ok = False
    links.append(ChainLink.check("case_consistent", 0.0 if case_ok else 1.0, 0.0))
    links.append(ChainLink.check("diameter_bound_formula", 0.0 if bound_ok else 1.0, 0.0))
    if cert.case_tag == "Net":
        total = cert.l_prime * math.pi * cert.R**2
        links.append(
            ChainLink.check("ball_packing", total, cert.domain.area)
        )
    return ChainReport(links=links)


def certified_chain(cert, mu_l_reference):
    """verify_certificate plus a certificate copy with chain_ok updated."""
    report = verify_certificate(cert, mu_l_reference)
    return report, dataclasses.replace(cert, chain_ok=report.holds_all)


_C_FLOOR = 0.25
_C_CEIL = 2.0**14
_C_FACTOR = 1.05


def minimal_constant(domain: Rectangle, k: int, l: int) -> float:
    """Smallest constant (within factor 1.05) whose certificate verifies
    against the closed-form rectangle spectrum.

    Doubles C from 1/4 until the chain verifies, then bisects the last
    factor-2 bracket geometrically.  Raises when no C up to 2^14 works.
    """
    if not (k >= l >= 1):
        raise CertificationError("need k >= l >= 1")
    spec = rectangle_spectrum(domain.half_width_a, domain.half_width_b, k + 1)
    mu_k = spec[k]
    mu_l = spec[l]
    if mu_k <= 0:
        raise CertificationError("mu_k must be positive to define the scale R")

    def verifies(c: float) -> bool:
        # more than l pieces fails piece_count, so such a probe stops there
        cert = construct_partition(domain, k, l, c, mu_k, max_pieces=l)
        return cert is not None and verify_certificate(cert, mu_l).holds_all

    c = _C_FLOOR
    found = None
    while c <= _C_CEIL * (1.0 + 1e-12):
        if verifies(c):
            found = c
            break
        c *= 2.0
    if found is None:
        raise CertificationError(
            f"no verifying constant in [{_C_FLOOR}, {_C_CEIL}] for k={k}, l={l}"
        )
    if found == _C_FLOOR:
        return found
    lo, hi = found / 2.0, found
    while hi / lo > _C_FACTOR:
        mid = math.sqrt(lo * hi)
        if verifies(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class SweepEntry:
    k: int
    l: int
    mu_k: float
    mu_l: float
    ratio: float


@dataclass
class SweepTable:
    """Measured constants mu_k / mu_l * (l/k)^2 over all index pairs."""

    entries: list
    max_ratio: float
    spectrum_source: str


def reference_spectrum(P: ConvexPolygon, m: int, levels: int) -> Spectrum:
    """First m Neumann eigenvalues of P: closed form on rectangles, FEM at
    the given refinement level otherwise."""
    rect = rectangle_from_polygon(P)
    if rect is not None:
        return rectangle_spectrum(rect.half_width_a, rect.half_width_b, m)
    return neumann_spectrum(P, m, levels)


def quadratic_ratio_sweep(spec: Spectrum, k_max: int) -> SweepTable:
    """Tabulate the measured constant in mu_k <= C (k/l)^2 mu_l for all
    1 <= l <= k <= k_max from a domain spectrum of k_max + 1 or more
    values."""
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise CertificationError("k_max must be an integer >= 1")
    if len(spec) < k_max + 1:
        raise CertificationError("domain spectrum too short for the requested k_max")
    entries = []
    worst = 0.0
    for k in range(1, k_max + 1):
        for l in range(1, k + 1):
            mu_k, mu_l = spec[k], spec[l]
            ratio = (mu_k / mu_l) * (l / k) ** 2 if mu_l > 0 else math.inf
            worst = max(worst, ratio)
            entries.append(SweepEntry(k=k, l=l, mu_k=mu_k, mu_l=mu_l, ratio=ratio))
    return SweepTable(entries=entries, max_ratio=worst, spectrum_source=spec.source)


def weak_chain_report(
    domain_spectrum: Spectrum, sandwich: geometry.BoxSandwich, k: int, ratio_cap: float
) -> ChainReport:
    """Trace mu_{k+1} against mu_k of a domain, given by its spectrum of
    k + 2 or more values, through a box sandwich of the domain.

    The chain runs: domain to inner box by monotonicity (factor 4 = 2^2 in
    the plane), inner to outer box by exact scaling, consecutive
    eigenvalues compared on the inner box against the flat torus of the
    doubled box, then back.  Links record measured ratios against
    reference constant 1, so holds is informational for the inequalities
    that are only true up to constants; the comparison of mu_{k+1} with
    ratio_cap mu_k is the gating link.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise CertificationError("k must be an integer >= 1")
    if len(domain_spectrum) < k + 2:
        raise CertificationError("domain spectrum too short for the requested k")
    inner, outer = sandwich.inner, sandwich.outer
    delta = sandwich.dilation_factor
    inner_spec = rectangle_spectrum(inner.half_width_a, inner.half_width_b, k + 2)
    outer_spec = rectangle_spectrum(outer.half_width_a, outer.half_width_b, k + 2)
    torus = torus_spectrum(
        4.0 * inner.half_width_a, 4.0 * inner.half_width_b, k + 2
    )
    mu_dom_k = domain_spectrum[k]
    mu_dom_k1 = domain_spectrum[k + 1]
    links = [
        ChainLink.check("sandwich_dilation", delta, 8.0),
        # domain monotonicity: restriction shrinks to the inner box at cost 2^2
        ChainLink.check(
            "domain_to_inner_box", mu_dom_k1, 4.0 * inner_spec[k + 1]
        ),
        # boxes are exact dilates: spectra scale by delta^2
        ChainLink.check(
            "inner_outer_scaling",
            abs(inner_spec[k + 1] - delta**2 * outer_spec[k + 1]),
            GEOMETRY_RTOL * inner_spec[k + 1],
        ),
        # consecutive ratio on the inner box, reference constant 1
        ChainLink.check("inner_box_consecutive", inner_spec[k + 1], inner_spec[k]),
        # outer box back to the domain by monotonicity
        ChainLink.check("outer_box_to_domain", outer_spec[k], 4.0 * mu_dom_k),
        # gating link: end-to-end consecutive-eigenvalue ratio under the cap
        ChainLink.check(
            "consecutive_ratio_capped", mu_dom_k1, ratio_cap * max(mu_dom_k, 0.0)
        ),
    ]
    # doubled-box torus spectrum against the box spectrum, index by index;
    # the torus repeats values with extra sign multiplicity, so equality of
    # the two lists is not expected and the mismatch count is reported
    mismatches = 0
    for j in range(k + 2):
        t, r = torus[j], inner_spec[j]
        scale = max(r, 1.0)
        if abs(t - r) > 1e-9 * scale:
            mismatches += 1
        links.append(ChainLink.check(f"torus_vs_box[{j}]", t, max(r, 0.0)))
    links.append(
        ChainLink.check("torus_multiplicity_mismatches", float(mismatches), float(k + 2))
    )
    return ChainReport(links=links)
