"""Workloads of the end-to-end benchmark: seeded domains, the ops each
workload runs, closed-form references and the per-op output checks.

Only the standard library is imported at module level, so a worker can
import this file before it times the import of spectral_certify.

A seed picks one rigid motion (a quarter turn plus a translation) that is
applied to every domain of a workload; the program receives the moved
domain as a ``file:`` polygon.  Seed 0 is the identity.  References are
computed from the unmoved shape, so they are exact whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WORKLOADS = ("spectrum-fine", "sweep-gallery", "certify-search")

# name -> ("rect", length_x, length_y) or ("regular", sides); regular
# polygons have circumradius 1, as regular:N does
SHAPES = {
    "square": ("rect", 1.0, 1.0),
    "rect_2x1": ("rect", 2.0, 1.0),
    "rect_10x1": ("rect", 10.0, 1.0),
    "rect_10x10": ("rect", 10.0, 10.0),
    "regular_5": ("regular", 5),
    "regular_6": ("regular", 6),
    "regular_8": ("regular", 8),
    "regular_256": ("regular", 256),
}
GALLERY = ("square", "rect_2x1", "rect_10x1", "regular_5", "regular_6", "regular_8", "regular_256")

RESIDUAL_TOL = 1e-8  # the eigensolver's own acceptance tolerance
SQUARE_RTOL = 5e-3  # acceptance criterion 1
DISK_RTOL = 1e-2  # acceptance criterion 3
AREA_RTOL = 1e-9  # tiling tolerance of a certificate
REFERENCE_RTOL = 1e-12  # closed forms recomputed from a moved rectangle


class Op:
    """One timed step of a workload: a CLI command, or the reload and
    re-verification of the certificate an earlier command emitted."""

    def __init__(self, name, shape, argv=None, verifies=None):
        self.name = name
        self.shape = shape
        self.argv = argv
        self.verifies = verifies


def rigid_motion(seed: int):
    """(quarter_turns, translation) for a seed; seed 0 is the identity."""
    if seed == 0:
        return 0, (0.0, 0.0)
    rng = random.Random(seed)
    return rng.randrange(4), (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def base_vertices(shape: str):
    """Counterclockwise vertices of the unmoved shape, built as the CLI
    builds square, rect:LX:LY and regular:N."""
    spec = SHAPES[shape]
    if spec[0] == "rect":
        a, b = spec[1] / 2.0, spec[2] / 2.0
        return [(a, b), (-a, b), (-a, -b), (a, -b)]
    import numpy as np

    # same expression as geometry.regular_polygon, so seed 0 is bitwise regular:N
    ang = 2.0 * np.pi * np.arange(spec[1]) / spec[1]
    return [(float(x), float(y)) for x, y in zip(np.cos(ang), np.sin(ang))]


def moved_vertices(shape: str, seed: int):
    turns, (tx, ty) = rigid_motion(seed)
    out = []
    for x, y in base_vertices(shape):
        for _ in range(turns):
            x, y = -y, x
        out.append((x + tx, y + ty))
    return out


def write_domains(directory: str, seed: int, shapes) -> None:
    os.makedirs(directory, exist_ok=True)
    for shape in shapes:
        verts = [[x, y] for x, y in moved_vertices(shape, seed)]
        with open(os.path.join(directory, f"{shape}.json"), "w", encoding="utf-8") as fh:
            json.dump({"vertices": verts}, fh)


def workload_ops(workload: str, directory: str) -> list:
    def dom(shape):
        return ["--domain", "file:" + os.path.join(directory, f"{shape}.json")]

    if workload == "spectrum-fine":
        return [
            Op("spectrum:square:L7", "square", ["spectrum", *dom("square"), "--m", "13", "--levels", "7"]),
            Op("spectrum:rect_10x1:L6", "rect_10x1", ["spectrum", *dom("rect_10x1"), "--m", "13", "--levels", "6"]),
        ]
    if workload == "sweep-gallery":
        return [
            Op(f"sweep:{shape}", shape, ["sweep", *dom(shape), "--k-max", "12", "--levels", "4"])
            for shape in GALLERY
        ]
    if workload == "certify-search":
        search = Op("certify:square:search", "square", ["certify", *dom("square"), "--k", "24", "--l", "24"])
        net = Op(
            "certify:rect_10x10:net",
            "rect_10x10",
            ["certify", *dom("rect_10x10"), "--k", "40", "--l", "40", "--C", "0.5"],
        )
        return [
            search,
            Op("verify:square:search", "square", verifies=search),
            net,
            Op("verify:rect_10x10:net", "rect_10x10", verifies=net),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def shapes_of(workload: str) -> set:
    return {op.shape for op in workload_ops(workload, "")}


def report_digest(report: dict) -> str:
    """sha256 of a report without its timings block, the only field the
    CLI documents as non-reproducible."""
    body = {key: value for key, value in report.items() if key != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# closed-form references


def rectangle_reference(shape: str, count: int) -> list:
    """First count Neumann eigenvalues pi^2 (p^2/Lx^2 + q^2/Ly^2)."""
    _, lx, ly = SHAPES[shape]
    top = count + 1
    vals = sorted(
        math.pi**2 * ((p / lx) ** 2 + (q / ly) ** 2) for p in range(top) for q in range(top)
    )
    return vals[:count]


def disk_reference(count: int) -> list:
    """First count Neumann eigenvalues of the unit disk: 0 and the squared
    zeros j'_{n,s}, twice for n >= 1, from the package's own root finder."""
    from spectral_certify.special import bessel_derivative_zero

    vals = [0.0]
    for n in range(count):
        for s in range(1, count // 2 + 2):
            mu = bessel_derivative_zero(float(n), s) ** 2
            vals.extend([mu] if n == 0 else [mu, mu])
    return sorted(vals)[:count]


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _ascending(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# per-op checks: each returns (problems, facts); facts holds measured
# values such as the worst relative error, never a pass/fail verdict


def check_spectrum(op: Op, code: int, report: dict):
    problems, facts = [], {}
    if code != 0:
        return [f"exit code {code}"], facts
    res = report["results"]
    rows = res["eigenvalues"]
    values = [row["value"] for row in rows]
    ref = rectangle_reference(op.shape, len(values))
    if not _ascending(values):
        problems.append("eigenvalues not ascending")
    if not res["solver_residual"] <= RESIDUAL_TOL:
        problems.append(f"residual {res['solver_residual']:.3e} above {RESIDUAL_TOL:g}")
    # P1 values are Galerkin upper bounds; the slack is the solver tolerance
    below = [k for k, (v, r) in enumerate(zip(values, ref)) if v < r - RESIDUAL_TOL * max(r, 1.0)]
    if below:
        problems.append(f"values below the closed form at k={below}")
    if any("closed_form" not in row for row in rows):
        problems.append("moved rectangle not recognized: no closed_form column")
    elif any(_rel(row["closed_form"], r) > REFERENCE_RTOL for row, r in zip(rows[1:], ref[1:])):
        problems.append("reported closed_form differs from the reference")
    worst = max(_rel(v, r) for v, r in zip(values[1:], ref[1:]))
    facts["max_rel_err"] = worst
    facts["residual"] = res["solver_residual"]
    if op.shape == "square" and not worst <= SQUARE_RTOL:
        problems.append(f"square error {worst:.3e} above {SQUARE_RTOL:g}")
    return problems, facts


def check_sweep(op: Op, code: int, report: dict):
    problems, facts = [], {}
    if code != 0:
        return [f"exit code {code}"], facts
    res = report["results"]
    if not res["ratio_cap_ok"]:
        problems.append("ratio_cap_ok is false")
    (dom,) = res["domains"]
    if "error" in dom:
        return problems + [f"domain error: {dom['error']}"], facts
    mu = {e["k"]: e["mu_k"] for e in dom["entries"] if e["l"] == 1}
    values = [mu[k] for k in sorted(mu)]
    if not _ascending(values):
        problems.append("eigenvalues not ascending")
    is_rect = SHAPES[op.shape][0] == "rect"
    expected_source = "closed_form" if is_rect else "fem(4)"
    if dom["spectrum_source"] != expected_source:
        problems.append(f"spectrum source {dom['spectrum_source']!r}, expected {expected_source!r}")
    if is_rect:
        ref = rectangle_reference(op.shape, len(values) + 1)[1:]
        if max(_rel(v, r) for v, r in zip(values, ref)) > REFERENCE_RTOL:
            problems.append("closed-form spectrum differs from the reference")
    elif op.shape == "regular_256":
        ref = disk_reference(len(values) + 1)[1:]
        facts["max_rel_err"] = max(_rel(v, r) for v, r in zip(values, ref))
        if not _rel(values[0], ref[0]) <= DISK_RTOL:
            problems.append(f"mu_1 {values[0]:.6g} not within {DISK_RTOL:g} of (j'_11)^2")
    facts["max_ratio"] = dom["max_ratio"]
    return problems, facts


def check_certify(op: Op, code: int, report: dict):
    problems, facts = [], {}
    if code not in (0, 4):
        return [f"exit code {code}"], facts
    res = report["results"]
    chain = res["chain"]
    expected = 0 if chain["holds_all"] else 4
    if code != expected:
        problems.append(f"exit code {code} but chain verdict gives {expected}")
    k, l = int(report["config"]["k"]), int(report["config"]["l"])
    ref = rectangle_reference(op.shape, k + 1)
    if _rel(res["mu_k"], ref[k]) > REFERENCE_RTOL or _rel(res["mu_l"], ref[l]) > REFERENCE_RTOL:
        problems.append("mu_k or mu_l differs from the closed form")
    if "sandwich" in res:
        problems.append("moved rectangle not recognized: certified a sandwich box")
    facts["C"] = res["C"]
    facts["holds_all"] = chain["holds_all"]
    facts["cells"] = len(res["certificate"]["cells"])
    facts["failing_links"] = [link["name"] for link in chain["links"] if not link["holds"]]
    return problems, facts


def check_reverified(op: Op, report: dict, links: list, cells: list):
    """The reloaded certificate must re-verify to the emitted link list,
    and its cells must cover the domain's area."""
    problems = []
    if links != report["results"]["chain"]["links"]:
        problems.append("reloaded certificate verifies to a different link list")
    _, lx, ly = SHAPES[op.shape]
    total = math.fsum(_shoelace(cell) for cell in cells)
    if _rel(total, lx * ly) > AREA_RTOL:
        problems.append(f"cell areas sum to {total!r}, domain area is {lx * ly!r}")
    return problems, {"area_sum": total}


def _shoelace(verts) -> float:
    n = len(verts)
    return 0.5 * math.fsum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1] for i in range(n)
    )


CHECKS = {"spectrum": check_spectrum, "sweep": check_sweep, "certify": check_certify}
