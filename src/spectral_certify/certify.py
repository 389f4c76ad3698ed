"""Checkable certificates for the quadratic eigenvalue upper bound.

A certificate witnesses mu_k <= C (k/l)^2 mu_l on a rectangle of
half-widths a <= b by an n_x x n_y grid of l' = n_x n_y <= l congruent
boxes of diagonal D, D^2 = (A / n_x)^2 + (B / n_y)^2 with A = 2a, B = 2b.
Neumann bracketing (Courant-Hilbert) decouples the cells, so mu_l >=
mu_{l'} of the rectangle is at least the least first nonzero eigenvalue
of a cell, which Payne-Weinberger (1960) bounds below by pi^2 / D^2.  The
closed form mu_k = pi^2 (p^2 / A^2 + q^2 / B^2) carries the same pi, so C
proves the inequality exactly when

    #{p, q >= 0 : p^2 / A^2 + q^2 / B^2 <= C k^2 / (D^2 l^2)} >= k + 1,

a count in integers (bounds.lattice_count), as a, b and C are doubles.
The grid minimises D^2 over n_x n_y <= l, so minimal_constant, the least
double the count accepts, is a function of (a, b, k, l) alone.

The proof reads the domain, k, l and C alone.  A reference mu_l would
add nothing: by the bracketing above, at most l' lattice points lie
strictly inside p^2 / A^2 + q^2 / B^2 < 1 / D^2, so pi^2 / D^2 <= mu_l.
The stored cells are the grid's corners, an echo the verifier compares
bit for bit with the grid it rebuilds (grid_rebuilt).

The measured side works on a spectrum the caller computes once with
reference_spectrum: quadratic_ratio_sweep tabulates the constant over
all index pairs, and weak_chain_report checks each consecutive ratio
mu_{k+1} / mu_k against a cap.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .bounds import closed_form_bases, lattice_count, rectangle_eigenvalue, rectangle_spectrum
from .fem import neumann_spectrum
# the traced benchmark wraps the net names and rectangle_sandwich here
from .geometry import (
    ConvexPolygon,
    Rectangle,
    ball_packing_count,
    inner_offset,
    maximal_separated_net,
    rectangle_from_polygon,
    rectangle_sandwich,
    voronoi_partition,
)
from .spectra import Spectrum

CERTIFICATE_SCHEMA = 3

# The largest index certify takes and a certificate may state.  Nothing lists
# k + 1 values: mu_k and the proof's count take O(sqrt k) rows (3268 on the
# square), so at this k certify takes 0.09-0.15 s and 63-65 MiB of RSS on the
# square, rect:3:1 and rect:0.001:1000.  The count stays exact to k + 1 < 2^53
# (concluded_inequality), but its time grows as sqrt k.
INDEX_LIMIT = 2**28 // 32 - 1

# The grid is capped at GRID_CELLS cells, so a larger l gets the best grid
# of that many and a larger C.  At the cap (11184 cells) certify
# --k 8388607 --l 8388607 peaks at 11.8, 11.8 and 11.1 MB traced (the
# corner array, the rebuilt grid, the report and its JSON text; tracemalloc
# over the command) on the square, rect:3:1 and rect:0.001:1000, inside
# PARTITION_BYTES = 16.8 MB, which CI checks; smaller grids carry fixed
# costs (1288 bytes a cell at 4970 cells, 6.4 MB).
PARTITION_BYTES = 2**24
GRID_CELL_BYTES = 1500
GRID_CELLS = PARTITION_BYTES // GRID_CELL_BYTES


class CertificationError(RuntimeError):
    pass


class CertificateFormatError(ValueError):
    """A certificate that cannot be read: not JSON, an unknown schema, or a
    missing or malformed field.  Unlike CertificationError it says nothing
    about whether the certificate proves anything."""


@dataclass
class ChainLink:
    """One verified inequality lhs <= rhs; ratio = lhs / rhs."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    holds: bool

    @classmethod
    def check(cls, name, lhs, rhs):
        lhs, rhs = float(lhs), float(rhs)
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs <= 0 else math.inf)
        return cls(name=name, lhs=lhs, rhs=rhs, ratio=ratio, holds=lhs <= rhs)


@dataclass
class ChainReport:
    """Ordered list of checked inequalities."""

    links: list

    @property
    def holds_all(self) -> bool:
        return all(link.holds for link in self.links)

    def to_dict(self) -> dict:
        return {
            # each link's fields, shallow: dataclasses.asdict deep-copies them
            "links": [dict(vars(link)) for link in self.links],
            "holds_all": self.holds_all,
        }


@dataclass
class PartitionCertificate:
    """Self-contained witness for mu_k <= C (k/l)^2 mu_l on a rectangle.
    The proof reads the domain, k, l and C; corners, the (N, 4, 2)
    counterclockwise cell corners of the box grid of (domain, l), is an
    echo the verifier compares with the grid it rebuilds."""

    domain: Rectangle
    k: int
    l: int
    C: float
    corners: np.ndarray
    chain_ok: bool
    notes: str = ""

    @functools.cached_property
    def cells(self) -> list:
        """The cells as polygons, built on first read.  No command reads
        them; they stay because the benchmark's worker reads
        cert.cells[i].vertices."""
        return ConvexPolygon.many(self.corners)

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
            "cells": self.corners.tolist(),
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
            except (TypeError, ValueError, OverflowError) as exc:
                raise CertificateFormatError(
                    f"certificate field {path!r} is malformed: {exc}"
                ) from None

        center = get("domain.center", _point)
        a, b = get("domain.half_width_a", _positive), get("domain.half_width_b", _positive)
        rotation = get("domain.rotation", float)
        k = get("k", _exactly(int))
        try:
            rect = Rectangle(center, a, b, rotation)
            # a domain no polygon may have (out of the coordinate range, or
            # flat) has no grid to rebuild, and one whose first k + 1
            # closed-form values leave the float range has no mu_k
            rect.polygon()
            if 1 <= k <= INDEX_LIMIT:
                closed_form_bases(2.0 * rect.half_width_a, 2.0 * rect.half_width_b, k + 1)
        except ValueError as exc:  # GeometryError is one
            raise CertificateFormatError(f"certificate field 'domain' is malformed: {exc}") from None
        return cls(
            domain=rect,
            k=k,
            l=get("l", _exactly(int)),
            C=get("C", _positive),
            corners=get("cells", _corners),
            chain_ok=get("chain_ok", _exactly(bool)),
            notes=str(obj.get("notes", "")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PartitionCertificate":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CertificateFormatError(f"certificate is not JSON: {exc}") from None
        return cls.from_dict(obj)


def _exactly(kind):
    """A field reader that takes a JSON value of this type and no other:
    2.7 and "2" are not indices, and a bool is not an index."""

    def read(value):
        if type(value) is not kind:
            raise TypeError(f"expected a JSON {kind.__name__}, got {type(value).__name__}")
        return value

    return read


def _positive(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a JSON number, got {type(value).__name__}")
    if not 0 < value < math.inf:
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return float(value)


def _point(value) -> geometry.Point2:
    x, y = _exactly(list)(value)
    return geometry.Point2(float(x), float(y))


def _corners(value) -> np.ndarray:
    """Cell corners as one (N, 4, 2) float array, N >= 1, from JSON
    numbers: a ragged list, a string or an integer past int64 does not make
    a numeric array of that shape."""
    corners = np.array(_exactly(list)(value))
    if corners.dtype.kind not in "if" or corners.ndim != 3 or corners.shape[1:] != (4, 2) or not corners.size:
        raise ValueError("expected a nonempty list of cells of 4 [x, y] corners")
    corners = corners.astype(float)
    if not np.isfinite(corners).all():
        raise ValueError("corners must be finite")
    return corners


def grid_shape(a: float, b: float, l: int) -> tuple[int, int]:
    """(n_x, n_y) with n_x n_y <= m = min(l, GRID_CELLS) minimising
    (2a / n_x)^2 + (2b / n_y)^2; n_y = floor(m / n_x) is best for each n_x,
    and ties go to the smaller n_x."""
    nx = np.arange(1, min(l, GRID_CELLS) + 1)
    ny = nx[-1] // nx
    best = int(np.argmin((2.0 * a / nx) ** 2 + (2.0 * b / ny) ** 2))
    return best + 1, int(ny[best])


def grid_corners(domain: Rectangle, l: int):
    """Counterclockwise corners, shape (n_x n_y, 4, 2), of the box grid of
    the rectangle for index l, with n_x boxes along the half_width_a axis;
    neighbouring boxes share their corners bit for bit.  Returns the
    corners, n_x, n_y and the boxes' squared diagonal D^2 = (2a / n_x)^2 +
    (2b / n_y)^2, the same for every centre and rotation."""
    a, b = domain.half_width_a, domain.half_width_b
    nx, ny = grid_shape(a, b, l)
    x = np.linspace(-a, a, nx + 1)
    y = np.linspace(-b, b, ny + 1)
    u, v = domain.axes
    pts = domain.center.array + x[:, None, None] * u + y[None, :, None] * v
    corners = np.stack([pts[1:, 1:], pts[:-1, 1:], pts[:-1, :-1], pts[1:, :-1]], axis=2)
    return corners.reshape(-1, 4, 2), nx, ny, (2.0 * a / nx) ** 2 + (2.0 * b / ny) ** 2


def _lattice_evidence(domain: Rectangle, k: int, l: int, nx: int, ny: int, C: float) -> int:
    """min(k + 1, #{p, q >= 0 : p^2 / A^2 + q^2 / B^2 <= C k^2 / (D^2 l^2)})
    on the n_x x n_y grid, in integers: for A : B = alpha : beta the test is
    (p^2 beta^2 + q^2 alpha^2) E l^2 <= C (k alpha beta n_x n_y)^2 with E =
    alpha^2 n_y^2 + beta^2 n_x^2, times C's denominator."""
    (an, ad), (bn, bd) = (2.0 * domain.half_width_a).as_integer_ratio(), (2.0 * domain.half_width_b).as_integer_ratio()
    cn, cd = float(C).as_integer_ratio()
    alpha, beta = an * bd, bn * ad
    scale = (alpha**2 * ny**2 + beta**2 * nx**2) * l**2 * cd
    return lattice_count(beta**2 * scale, alpha**2 * scale, cn * (k * alpha * beta * nx * ny) ** 2, k + 1)


def _least_constant(domain: Rectangle, k: int, l: int, nx: int, ny: int, d2: float) -> float:
    """The least double C whose count reaches k + 1, from a float estimate."""
    C = rectangle_eigenvalue(domain.half_width_a, domain.half_width_b, k) * d2 * l**2 / (math.pi**2 * k**2)
    while _lattice_evidence(domain, k, l, nx, ny, C) <= k:
        C = math.nextafter(C, math.inf)
    while _lattice_evidence(domain, k, l, nx, ny, below := math.nextafter(C, 0.0)) > k:
        C = below
    return C


def construct_partition(domain: Rectangle, k: int, l: int, C: float | None = None) -> PartitionCertificate:
    """Build the box-grid certificate for the quadratic bound on a
    rectangle.  The grid depends on the domain and l alone.  C is recorded,
    or when omitted the least double the grid's lattice count accepts
    (minimal_constant).  The chain_ok flag records the piece count only;
    run verify_certificate (or certified_chain) for the full chain."""
    if not (k >= l >= 1):
        raise CertificationError("need k >= l >= 1")
    a, b = domain.half_width_a, domain.half_width_b
    corners, nx, ny, d2 = grid_corners(domain, l)
    notes = (
        f"grid case: {nx} x {ny} boxes of {2.0 * a / nx:.6g} x {2.0 * b / ny:.6g} "
        f"over a domain of half-widths ({a:.6g}, {b:.6g}); the lower bound applies "
        "to the eigenvalue whose index equals the piece count: each piece "
        "contributes pi^2 / diam^2 via its first nonzero eigenvalue"
    )
    return PartitionCertificate(
        domain=domain,
        k=int(k),
        l=int(l),
        C=float(_least_constant(domain, k, l, nx, ny, d2) if C is None else C),
        corners=corners,
        chain_ok=corners.shape[0] <= l,
        notes=notes,
    )


def verify_certificate(cert: PartitionCertificate, mu_l_reference=None) -> ChainReport:
    """Check the 3 links of a certificate from the certificate alone.  The
    lattice count comes from (domain, k, l, C), and the stored corners must
    be the grid of (domain, l) bit for bit (grid_rebuilt), so they tile the
    domain by construction.  mu_l_reference is ignored: it stays only
    because the benchmark's worker passes mu_l, and goes with the next
    benchmark change (ROADMAP item 19)."""
    # an index pair out of range proves nothing
    same_grid, need, found = False, 1, 0
    if 1 <= cert.l <= cert.k <= INDEX_LIMIT:
        rebuilt, nx, ny, _ = grid_corners(cert.domain, cert.l)
        same_grid = cert.corners.shape == rebuilt.shape and cert.corners.tobytes() == rebuilt.tobytes()
        need, found = cert.k + 1, _lattice_evidence(cert.domain, cert.k, cert.l, nx, ny, cert.C)
    links = [
        ChainLink.check("piece_count", cert.corners.shape[0], cert.l),
        ChainLink.check("grid_rebuilt", 0.0 if same_grid else 1.0, 0.0),
        # k + 1 lattice points at or below C k^2 / (D^2 l^2); both sides are
        # integers below 2^53, so their float comparison is exact
        ChainLink.check("concluded_inequality", need, found),
    ]
    return ChainReport(links=links)


def certified_chain(cert):
    """verify_certificate(cert) plus a certificate copy with chain_ok updated."""
    report = verify_certificate(cert)
    return report, dataclasses.replace(cert, chain_ok=report.holds_all)


def minimal_constant(domain: Rectangle, k: int, l: int) -> float:
    """The C construct_partition records when none is given: the least
    double the lattice count of the box grid of (domain, l) accepts, so the
    least its certificate verifies at, as the verifier makes the same count."""
    return construct_partition(domain, k, l).C


def reference_spectrum(P: ConvexPolygon, m: int, levels: int) -> Spectrum:
    """First m Neumann eigenvalues of P: closed form on rectangles, FEM at
    the given refinement level otherwise."""
    rect = rectangle_from_polygon(P)
    if rect is not None:
        return rectangle_spectrum(rect.half_width_a, rect.half_width_b, m)
    return neumann_spectrum(P, m, levels)


def quadratic_ratio_sweep(spec: Spectrum, k_max: int) -> list:
    """The measured constant in mu_k <= C (k/l)^2 mu_l for all
    1 <= l <= k <= k_max, from a domain spectrum of k_max + 1 or more
    values: one report dict of k, l, mu_k, mu_l, ratio and provenance
    per pair, in order of k, then l."""
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise CertificationError("k_max must be an integer >= 1")
    if len(spec) < k_max + 1:
        raise CertificationError("domain spectrum too short for the requested k_max")
    entries = []
    for k in range(1, k_max + 1):
        for l in range(1, k + 1):
            mu_k, mu_l = spec[k], spec[l]
            ratio = (mu_k / mu_l) * (l / k) ** 2 if mu_l > 0 else math.inf
            entries.append(
                {"k": k, "l": l, "mu_k": mu_k, "mu_l": mu_l, "ratio": ratio, "provenance": spec.source}
            )
    return entries


def weak_chain_report(domain_spectrum: Spectrum, k_max: int, ratio_cap: float) -> dict:
    """The gated link mu_{k+1} <= ratio_cap mu_k of a domain, for each
    1 <= k <= k_max: {k: ChainReport} holding the one link
    consecutive_ratio_capped, from a domain spectrum of k_max + 2 or more
    values."""
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise CertificationError("k_max must be an integer >= 1")
    if len(domain_spectrum) < k_max + 2:
        raise CertificationError("domain spectrum too short for the requested k_max")
    chains = {}
    for k in range(1, k_max + 1):
        mu_k, mu_next = domain_spectrum[k], domain_spectrum[k + 1]
        gate = ChainLink.check("consecutive_ratio_capped", mu_next, ratio_cap * max(mu_k, 0.0))
        chains[k] = ChainReport(links=[gate])
    return chains
