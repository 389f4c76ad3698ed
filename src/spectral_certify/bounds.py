"""Closed-form eigenvalue bounds and reference spectra for product domains.

Scalar bounds for the Neumann Laplacian on planar convex domains: the
Payne-Weinberger lower bound for the first nonzero eigenvalue, upper
bounds in terms of diameter (Bessel-zero type) and of area, and a
lower bound for partitioned domains.  Also exact spectra of rectangles
and flat rectangular tori, used as references throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .spectra import Spectrum

# j_{0,1} = 2.40482555769577276862..., the first zero of J_0, as its nearest
# double; a constant so that no command imports scipy.special
J0_FIRST_ZERO = 2.404825557695773


def payne_weinberger_lower(diam: float) -> float:
    """Lower bound pi^2 / diam^2 for the first nonzero Neumann eigenvalue
    of a convex set of the given diameter."""
    if not (diam > 0) or not math.isfinite(diam):
        raise ValueError("diameter must be positive and finite")
    return math.pi**2 / diam**2


def kroger_diameter_upper(k: int, diam: float) -> float:
    """Upper bound (2 j_{0,1} + (k-1) pi)^2 / diam^2 for the k-th nonzero
    Neumann eigenvalue of a planar convex set of the given diameter."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("eigenvalue index must be an integer >= 1")
    if not (diam > 0) or not math.isfinite(diam):
        raise ValueError("diameter must be positive and finite")
    return (2.0 * J0_FIRST_ZERO + (k - 1) * math.pi) ** 2 / diam**2


def kroger_area_upper(k: int, area: float) -> float:
    """Upper bound 8 pi k / area for the k-th nonzero Neumann eigenvalue
    of a planar convex set of the given area."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("eigenvalue index must be an integer >= 1")
    if not (area > 0) or not math.isfinite(area):
        raise ValueError("area must be positive and finite")
    return 8.0 * math.pi * k / area


def partition_lower(first_eigenvalues) -> float:
    """Lower bound for the eigenvalue indexed by the piece count: when a
    domain splits into m pieces, the m-th nonzero Neumann eigenvalue of
    the whole is at least the smallest first nonzero eigenvalue among the
    pieces (before universal constants)."""
    vals = np.asarray(first_eigenvalues, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("need a nonempty sequence of first eigenvalues")
    if (vals < 0).any() or not np.isfinite(vals).all():
        raise ValueError("first eigenvalues must be finite and >= 0")
    return float(vals.min())


def _product_spectrum(base_x: float, base_y: float, count: int, signed: bool) -> np.ndarray:
    """Smallest count values of base_x p^2 + base_y q^2 over integer
    lattice indices, p, q >= 0 (signed=False) or p, q in Z with each signed
    pair counted separately (signed=True)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    small = min(base_x, base_y)
    # Weyl's law: the count-th value grows linearly in count; doubling
    # below widens the cutoff when the lattice falls short
    cutoff = small * float(count)
    while True:
        pmax = int(math.floor(math.sqrt(cutoff / base_x)))
        qmax = int(math.floor(math.sqrt(cutoff / base_y)))
        if signed:
            p = np.arange(-pmax, pmax + 1)
            q = np.arange(-qmax, qmax + 1)
        else:
            p = np.arange(0, pmax + 1)
            q = np.arange(0, qmax + 1)
        vals = base_x * (p[:, None] ** 2) + base_y * (q[None, :] ** 2)
        vals = vals[vals <= cutoff]
        if vals.size >= count:
            return np.sort(vals.ravel())[:count]
        cutoff *= 2.0


def rectangle_spectrum(half_width_a: float, half_width_b: float, count: int) -> Spectrum:
    """First count Neumann eigenvalues of a rectangle with the given
    half-widths: pi^2 (p^2 / Lx^2 + q^2 / Ly^2) with side lengths
    Lx = 2 half_width_a, Ly = 2 half_width_b and p, q >= 0."""
    if not (half_width_a > 0 and half_width_b > 0):
        raise ValueError("half-widths must be positive")
    lx = 2.0 * half_width_a
    ly = 2.0 * half_width_b
    vals = _product_spectrum((math.pi / lx) ** 2, (math.pi / ly) ** 2, count, signed=False)
    return Spectrum(values=vals, source="closed_form")


def rectangle_eigenvalue(half_width_a: float, half_width_b: float, k: int) -> float:
    """The k-th Neumann eigenvalue of a rectangle, bit for bit
    rectangle_spectrum(half_width_a, half_width_b, k + 1)[k], in O(sqrt k)
    time and memory.

    A value is fl(base_x p^2 + base_y q^2), nondecreasing in p and in q, so
    the pairs with value <= t are, for each p, those up to one cut in q.
    Bisecting t narrows (lo, hi] around the answer until it holds O(sqrt k)
    values, which are listed and the right one selected.  Addition commutes
    in floating point, so p runs along the larger base, which has the
    fewer values.
    """
    if not (half_width_a > 0 and half_width_b > 0):
        raise ValueError("half-widths must be positive")
    if k < 0:
        raise ValueError("eigenvalue index must be >= 0")
    bases = ((math.pi / (2.0 * half_width_a)) ** 2, (math.pi / (2.0 * half_width_b)) ** 2)
    big, small = max(bases), min(bases)

    def cuts(t: float, p: np.ndarray) -> np.ndarray:
        """For each p, the largest q with value <= t, or -1."""
        row = big * p**2
        q = np.floor(np.sqrt(np.maximum(t - row, 0.0) / small)).astype(np.int64)
        # the root may be off by one either way
        while (grow := row + small * (q + 1) ** 2 <= t).any():
            q += grow
        while (shrink := (q >= 0) & (row + small * np.maximum(q, 0) ** 2 > t)).any():
            q -= shrink
        return q

    hi = small * (k + 1.0)
    while True:
        # p past sqrt(hi / big) + 1 has big p^2 > hi whatever the rounding
        p = np.arange(int(math.sqrt(hi / big)) + 2)
        q_hi = cuts(hi, p)
        if (q_hi + 1).sum() > k:
            break
        hi *= 2.0
    lo = -1.0
    q_lo = cuts(lo, p)
    while (q_hi - q_lo).sum() > 2 * p.size + 64:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        q_mid = cuts(mid, p)
        if (q_mid + 1).sum() > k:
            hi, q_hi = mid, q_mid
        else:
            lo, q_lo = mid, q_mid
    n = q_hi - q_lo
    rows = np.repeat(p, n)
    q = np.repeat(q_lo + 1 - (np.cumsum(n) - n), n) + np.arange(n.sum())
    values = big * rows**2 + small * q**2
    j = k - int((q_lo + 1).sum())
    return float(np.partition(values, j)[j])


def torus_spectrum(length_x: float, length_y: float, count: int) -> Spectrum:
    """First count eigenvalues of the flat torus with the given periods:
    4 pi^2 (p^2 / Lx^2 + q^2 / Ly^2) with p, q ranging over all integers,
    so each (+-p, +-q) combination contributes its own multiplicity."""
    if not (length_x > 0 and length_y > 0):
        raise ValueError("periods must be positive")
    vals = _product_spectrum(
        (2.0 * math.pi / length_x) ** 2,
        (2.0 * math.pi / length_y) ** 2,
        count,
        signed=True,
    )
    return Spectrum(values=vals, source="closed_form")
