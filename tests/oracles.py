"""Reference implementations the tests check the package against.

None of these is reached by a command: each is a plain, dense or
closed-form restatement of something the package computes another way.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg


def toarray(A) -> np.ndarray:
    """Dense copy of a fem.SparseSymmetricMatrix (both triangles)."""
    return A.to_csr().toarray()


def dense_smallest(stiffness, mass, m: int):
    """Dense generalized eigensolve of the same pencil; reference for
    cross-checking the iterative path on small meshes."""
    n = stiffness.dimension
    if n > 2000:
        raise ValueError("dense fallback is for small problems only")
    vals, vecs = scipy.linalg.eigh(toarray(stiffness), toarray(mass))
    return vals[:m], vecs[:, :m]


def polygon_to_json(P) -> dict:
    """The object geometry.polygon_from_json reads back."""
    return {"vertices": P.vertices.tolist()}


def pairwise_diameters(P) -> float:
    """geometry.diameter of a polygon from its n x n x 2 difference array;
    24 n^2 bytes."""
    v = P.vertices
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def partition_radius(k: int, l: int, C: float, mu_k: float) -> float:
    """R = C k / (l sqrt(mu_k)), the length scale the Voronoi-net
    certificates were built at; the net tests pin their nets at it."""
    return C * k / (l * math.sqrt(mu_k))


def inertia(P):
    """Centroid g and covariance S of the uniform distribution on a convex
    polygon, from the fan of triangles (v_0, v_i, v_i+1): a triangle of area
    T and vertices p_j has second moment
    T / 12 (sum p_j p_j^T + (sum p_j)(sum p_j)^T)."""
    v = P.vertices
    a, b = v[1:-1] - v[0], v[2:] - v[0]
    T = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    g = (T[:, None] * (a + b)).sum(axis=0) / (3.0 * T.sum())
    second = sum(
        t / 12.0 * (np.outer(x, x) + np.outer(y, y) + np.outer(x + y, x + y)) for t, x, y in zip(T, a, b)
    )
    return v[0] + g, second / T.sum() - np.outer(g, g)


def lattice_spectrum(base_x: float, base_y: float, count: int) -> np.ndarray:
    """The count smallest fl(base_x p^2 + base_y q^2), ascending, sorted from
    the whole box p, q in [0, count - 1].  The box is enough: with small the
    smaller base, q = 0 .. count - 1 at p = 0 already gives count values at
    most T = fl(small (count - 1)^2).  Rounding is monotone, so a value at
    most T has fl(small q^2) and fl(big p^2) at most T, which puts p and q
    below count (a pair outside can only tie T, and ties do not change the
    sorted values)."""
    n = np.arange(count)
    values = base_x * n[:, None] ** 2 + base_y * n[None, :] ** 2
    return np.sort(values, axis=None)[:count]


def box_lattice_count(x: int, y: int, t: int) -> int:
    """#{p, q >= 0 : x p^2 + y q^2 <= t} for positive integers x and y, by
    testing every pair of the box p <= P, q <= Q, where P and Q are the
    last p and q on the axes, found by stepping."""
    P = Q = 0
    while x * (P + 1) ** 2 <= t:
        P += 1
    while y * (Q + 1) ** 2 <= t:
        Q += 1
    return sum(x * p * p + y * q * q <= t for p in range(P + 1) for q in range(Q + 1))


def exact_constant(a: float, b: float, k: int, l: int, nx: int, ny: int) -> Fraction:
    """C* = mu_k D^2 l^2 / (pi^2 k^2), exactly, for the n_x x n_y grid of
    the rectangle of half-widths a and b: mu_k / pi^2 is the rank-k key
    p^2 B^2 + q^2 A^2 over A^2 B^2 (A = 2a, B = 2b) from the whole box p, q
    <= k, and D^2 = (A / n_x)^2 + (B / n_y)^2 in rationals."""
    A2, B2 = (2 * Fraction(a)) ** 2, (2 * Fraction(b)) ** 2
    keys = sorted(p * p * B2 + q * q * A2 for p in range(k + 1) for q in range(k + 1))
    return keys[k] / (A2 * B2) * (A2 / nx**2 + B2 / ny**2) * Fraction(l, k) ** 2


def report_proved_constant(results: dict) -> Fraction:
    """The exact C* of a certify report, from the report alone: n_x and n_y
    are read off the largest cell extents in x and y (the certified
    rectangle must be turned by a multiple of pi / 2)."""
    cert = results["certificate"]
    a, b = cert["domain"]["half_width_a"], cert["domain"]["half_width_b"]
    extents = [max(max(c[i] for c in cell) - min(c[i] for c in cell) for cell in cert["cells"]) for i in (0, 1)]
    if round(cert["domain"]["rotation"] / (math.pi / 2.0)) % 2:
        extents.reverse()  # the half_width_a axis is y
    nx, ny = round(2.0 * a / extents[0]), round(2.0 * b / extents[1])
    return exact_constant(a, b, cert["k"], cert["l"], nx, ny)
