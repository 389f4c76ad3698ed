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


def rectangle_eigenvalue_exact(length_x: float, length_y: float, k: int) -> float:
    """mu_k = pi^2 (p^2 / Lx^2 + q^2 / Ly^2) of a rectangle, with the pairs
    (p, q) ranked by the exact rational p^2 Ly^2 + q^2 Lx^2."""
    lx2, ly2 = Fraction(length_x) ** 2, Fraction(length_y) ** 2
    keys = sorted(p * p * ly2 + q * q * lx2 for p in range(k + 1) for q in range(k + 1))
    return math.pi**2 * float(keys[k] / (lx2 * ly2))


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


def report_proved_constant(results: dict) -> float:
    """C_proved = mu_k D^2 l^2 / (pi^2 k^2) of a certify report, from the
    report alone: mu_k by integer enumeration over the certified
    rectangle's side lengths, and D^2 = (2a / n_x)^2 + (2b / n_y)^2 in
    rationals, with n_x and n_y read off the largest cell extents in x and
    y (the certified rectangle must be turned by a multiple of pi / 2)."""
    cert = results["certificate"]
    a, b = cert["domain"]["half_width_a"], cert["domain"]["half_width_b"]
    k, l = cert["k"], cert["l"]
    extents = [max(max(c[i] for c in cell) - min(c[i] for c in cell) for cell in cert["cells"]) for i in (0, 1)]
    if round(cert["domain"]["rotation"] / (math.pi / 2.0)) % 2:
        extents.reverse()  # the half_width_a axis is y
    nx, ny = round(2.0 * a / extents[0]), round(2.0 * b / extents[1])
    d2 = (2 * Fraction(a) / nx) ** 2 + (2 * Fraction(b) / ny) ** 2
    mu_k = rectangle_eigenvalue_exact(2.0 * a, 2.0 * b, k)
    return mu_k * float(d2) * l**2 / (math.pi**2 * k**2)
