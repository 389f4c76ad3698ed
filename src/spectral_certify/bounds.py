"""Closed-form eigenvalue bounds and reference spectra for product domains.

Scalar bounds for the Neumann Laplacian on planar convex domains: the
Payne-Weinberger lower bound for the first nonzero eigenvalue, upper
bounds in terms of diameter (Bessel-zero type) and of area, and a
lower bound for partitioned domains.  Also the exact spectra of
rectangles, used as references throughout, and the exact lattice count
that decides a rectangle certificate.
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


def closed_form_bases(length_x: float, length_y: float, count: int) -> tuple[float, float]:
    """(big, small), the larger and smaller of (pi / L)^2 over the two side
    lengths.  They must be normal doubles at most 2^1019, and so must the
    threshold _bracket reaches, below 4 sqrt(big small) count, so that no
    sum in _cuts passes 2^1022: otherwise a ValueError names the lengths.
    The roots are checked before squaring: a float square past the largest
    double raises OverflowError, and a numpy one only warns."""
    lx, ly = float(length_x), float(length_y)
    if not (lx > 0 and ly > 0 and count >= 1):
        raise ValueError(f"need positive lengths and a count >= 1, got {lx!r} x {ly!r} and {count}")
    big, small = sorted((math.pi / lx, math.pi / ly), reverse=True)  # the roots, until squared
    if not (2.0**-511 <= small and big <= 2.0**509.5 and 4.0 * big * small * count <= 2.0**1019):
        raise ValueError(
            f"lengths {lx!r} x {ly!r}: the first {count} closed-form eigenvalues "
            "leave the floating-point range"
        )
    return big**2, small**2


def _cuts(big: float, small: float, t: float, p: np.ndarray) -> np.ndarray:
    """For each row p, the largest q >= 0 with fl(big p^2 + small q^2) <= t,
    or -1: a value is nondecreasing in p and in q, so the pairs at or below
    t are, row by row, those up to one cut."""
    row = big * p**2
    q = np.floor(np.sqrt(np.maximum(t - row, 0.0) / small)).astype(np.int64)
    # the root may be off by one either way
    while (grow := row + small * (q + 1) ** 2 <= t).any():
        q += grow
    while (shrink := (q >= 0) & (row + small * np.maximum(q, 0) ** 2 > t)).any():
        q -= shrink
    return q


def _bracket(big: float, small: float, k: int):
    """Rows p and two cuts per row: at most k values lie at or below q_lo,
    more than k at or below q_hi, and O(sqrt k) pairs between them.  The
    upper threshold starts at the smaller of small k^2, which the row p = 0
    alone reaches, and 4 sqrt(big small) (k + 1) / pi, as the quarter ellipse
    below it holds at least its area of pairs; doubling covers the rounding
    of the second, so it stays below twice that.  Bisection from the lower
    threshold -1, which no value reaches, narrows the two thresholds."""
    hi = min(small * float(k) ** 2, 4.0 / math.pi * math.sqrt(big) * math.sqrt(small) * (k + 1))
    while True:
        # p past sqrt(hi / big) + 1 has big p^2 > hi whatever the rounding
        p = np.arange(int(math.sqrt(hi / big)) + 2)
        if ((q_hi := _cuts(big, small, hi, p)) + 1).sum() > k:
            break
        hi *= 2.0
    lo, q_lo = -1.0, np.full_like(q_hi, -1)
    while (q_hi - q_lo).sum() > 2 * p.size + 64:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ((q_mid := _cuts(big, small, mid, p)) + 1).sum() > k:
            hi, q_hi = mid, q_mid
        else:
            lo, q_lo = mid, q_mid
    return p, q_lo, q_hi


def _between(big: float, small: float, p: np.ndarray, q_lo: np.ndarray | int, q_hi: np.ndarray) -> np.ndarray:
    """fl(fl(big p^2) + fl(small q^2)) for q_lo < q <= q_hi, row by row.
    Addition commutes in floating point, so p runs along the larger base,
    which has the fewer rows."""
    n = q_hi - q_lo
    q = np.arange(n.sum()) + np.repeat(q_lo + 1 - (np.cumsum(n) - n), n)
    values = small * (q * q)
    values += np.repeat(big * p**2, n)
    return values


def rectangle_spectrum(half_width_a: float, half_width_b: float, count: int) -> Spectrum:
    """First count Neumann eigenvalues of a rectangle with the given
    half-widths: pi^2 (p^2 / Lx^2 + q^2 / Ly^2) with side lengths
    Lx = 2 half_width_a, Ly = 2 half_width_b and p, q >= 0."""
    big, small = closed_form_bases(2.0 * half_width_a, 2.0 * half_width_b, count)
    p, q_lo, q_hi = _bracket(big, small, count - 1)
    values = _between(big, small, p, -1, q_hi)
    values.sort()
    # only a count-sized copy outlives the listing into Spectrum's checks
    del p, q_lo, q_hi
    values = values[:count].copy()
    return Spectrum(values)


def rectangle_eigenvalue(half_width_a: float, half_width_b: float, k: int) -> float:
    """The k-th Neumann eigenvalue of a rectangle, bit for bit
    rectangle_spectrum(half_width_a, half_width_b, k + 1)[k], in O(sqrt k)
    time and memory: the values between the bracket's cuts, selected."""
    big, small = closed_form_bases(2.0 * half_width_a, 2.0 * half_width_b, k + 1)
    p, q_lo, q_hi = _bracket(big, small, k)
    j = k - int((q_lo + 1).sum())
    return float(np.partition(_between(big, small, p, q_lo, q_hi), j)[j])


def lattice_count(x: int, y: int, t: int, stop: int) -> int:
    """min(stop, #{p, q >= 0 : x p^2 + y q^2 <= t}) for positive integers x
    and y and an integer t, exactly: row p ends at q = isqrt((t - x p^2) // y),
    as isqrt(m // y) = floor(sqrt(m / y)).  Rows run along the larger
    coefficient, which has the fewer, and stop once the count reaches stop."""
    if x < y:
        x, y = y, x
    count = p = 0
    while count < stop and (rest := t - x * p * p) >= 0:
        count += math.isqrt(rest // y) + 1
        p += 1
    return min(count, stop)
