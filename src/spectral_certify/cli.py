"""Command-line interface: spectra, bounds, certificates and index sweeps.

Subcommands:
  spectrum  FEM Neumann eigenvalues of a domain, with closed forms and
            upper/lower bounds alongside where available
  bounds    closed-form bound table for a domain
  certify   build and verify a partition certificate for mu_k vs mu_l
  sweep     measured quadratic-bound constants and eigenvalue chains over
            a gallery of domains

Exit codes: 0 success, 2 usage error, 3 eigensolver failure, 4
certification failure.  Reports go to stdout as JSON (default) or CSV;
timing blocks are the only non-reproducible report fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .bounds import (
    kroger_area_upper,
    kroger_diameter_upper,
    payne_weinberger_lower,
    rectangle_spectrum,
)
from .certify import (
    CertificationError,
    certified_chain,
    construct_partition,
    minimal_constant,
    quadratic_ratio_sweep,
    reference_spectrum,
    weak_chain_report,
)
from .fem import EigensolverError, neumann_spectrum
from .geometry import (
    ConvexPolygon,
    GeometryError,
    Point2,
    Rectangle,
    diameter,
    polygon_from_json,
    rectangle_from_polygon,
    rectangle_sandwich,
    regular_polygon,
    svg_scene,
)
from .mesh import MeshError, check_refinement

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_CERTIFY = 4


class UsageError(ValueError):
    pass


@dataclass
class DomainSpec:
    name: str
    kind: str
    parameters: dict

    def build(self) -> ConvexPolygon:
        if self.kind == "rectangle":
            lx, ly = self.parameters["length_x"], self.parameters["length_y"]
            rect = Rectangle(Point2(0.0, 0.0), lx / 2.0, ly / 2.0, 0.0)
            return rect.polygon()
        if self.kind == "regular":
            return regular_polygon(
                self.parameters["sides"], self.parameters["circumradius"]
            )
        if self.kind == "file":
            with open(self.parameters["path"], "r", encoding="utf-8") as fh:
                return polygon_from_json(fh.read())
        raise UsageError(f"unknown domain kind {self.kind!r}")


def parse_domain(text: str) -> DomainSpec:
    if text == "square":
        return DomainSpec("square", "rectangle", {"length_x": 1.0, "length_y": 1.0})
    if text.startswith("rect:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("rectangle domains are rect:<length_x>:<length_y>")
        try:
            lx, ly = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad rectangle lengths in {text!r}") from exc
        if not (lx > 0 and ly > 0):
            raise UsageError("rectangle lengths must be positive")
        name = f"rect_{parts[1]}x{parts[2]}".replace(".", "p")
        return DomainSpec(name, "rectangle", {"length_x": lx, "length_y": ly})
    if text.startswith("regular:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise UsageError("regular domains are regular:<sides>[:<circumradius>]")
        try:
            sides = int(parts[1])
            radius = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise UsageError(f"bad regular polygon specification {text!r}") from exc
        if sides < 3 or radius <= 0:
            raise UsageError("need at least 3 sides and a positive circumradius")
        return DomainSpec(
            f"regular_{sides}", "regular", {"sides": sides, "circumradius": radius}
        )
    if text.startswith("file:") or text.endswith(".json"):
        path = text[5:] if text.startswith("file:") else text
        stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return DomainSpec(f"file_{stem}", "file", {"path": path})
    raise UsageError(
        f"unknown domain {text!r}; expected square, rect:LX:LY, "
        "regular:N[:R], or file:PATH"
    )


def default_gallery() -> list[DomainSpec]:
    return [
        parse_domain("square"),
        parse_domain("rect:2:1"),
        parse_domain("rect:10:1"),
        parse_domain("regular:5"),
        parse_domain("regular:6"),
        parse_domain("regular:8"),
        parse_domain("regular:256"),
    ]


# ---------------------------------------------------------------------------
# report plumbing


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "tool": "spectral-certify",
        "version": __version__,
        "command": command,
        "config": config,
        "results": {},
        "timings": {},
    }


def _emit(report: dict, fmt: str, csv_rows, csv_header) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())


def _merge_config(args: argparse.Namespace, keys: dict) -> dict:
    """Effective settings: explicit flags beat the config file, which
    beats defaults.  keys maps option name to its default."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
    merged = {}
    for key, default in keys.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_cfg:
            merged[key] = file_cfg[key]
        else:
            merged[key] = default
    return merged


def _check_levels(polygons, levels: int) -> None:
    """--levels against the mesh budget of every domain, before any solve."""
    for P in polygons:
        try:
            check_refinement(P, levels)
        except MeshError as exc:
            raise UsageError(f"--levels: {exc}") from None


def _spectrum_rows(P: ConvexPolygon, spec, rect: Rectangle | None):
    """Per-index table entries: FEM value, closed form on rectangles,
    diameter and area upper bounds, first-eigenvalue lower bound."""
    diam = diameter(P)
    area = P.area
    closed = None
    if rect is not None:
        closed = rectangle_spectrum(
            rect.half_width_a, rect.half_width_b, len(spec)
        )
    rows = []
    for k in range(len(spec)):
        row = {
            "k": k,
            "value": spec[k],
            "provenance": spec.source,
        }
        if closed is not None:
            row["closed_form"] = closed[k]
        if k >= 1:
            row["upper_diameter"] = kroger_diameter_upper(k, diam)
            row["upper_area"] = kroger_area_upper(k, area)
        if k == 1:
            row["lower_diameter"] = payne_weinberger_lower(diam)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    cfg = _merge_config(
        args, {"domain": "square", "m": 8, "levels": 5, "format": "json"}
    )
    spec_dom = parse_domain(str(cfg["domain"]))
    m = int(cfg["m"])
    levels = int(cfg["levels"])
    if m < 1:
        raise UsageError("--m must be >= 1")
    P = spec_dom.build()
    _check_levels([P], levels)
    rect = rectangle_from_polygon(P)
    report = _report_skeleton("spectrum", {**cfg, "domain": spec_dom.name})
    t0 = time.perf_counter()
    spec = neumann_spectrum(P, m, levels)
    report["timings"]["solve_s"] = time.perf_counter() - t0
    rows = _spectrum_rows(P, spec, rect)
    report["results"] = {
        "domain": spec_dom.name,
        "mesh_h": spec.mesh_h,
        "refinement_level": spec.refinement_level,
        "solver_residual": spec.solver_residual,
        "eigenvalues": rows,
    }
    header = ["k", "value", "provenance", "closed_form", "upper_diameter", "upper_area", "lower_diameter"]
    csv_rows = [[row.get(h, "") for h in header] for row in rows]
    _emit(report, cfg["format"], csv_rows, header)
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _merge_config(
        args, {"domain": "square", "k_max": 10, "format": "json"}
    )
    spec_dom = parse_domain(str(cfg["domain"]))
    k_max = int(cfg["k_max"])
    if k_max < 1:
        raise UsageError("--k-max must be >= 1")
    P = spec_dom.build()
    diam = diameter(P)
    area = P.area
    rows = []
    for k in range(1, k_max + 1):
        row = {
            "k": k,
            "upper_diameter": kroger_diameter_upper(k, diam),
            "upper_area": kroger_area_upper(k, area),
            "provenance": "formula",
        }
        if k == 1:
            row["lower_diameter"] = payne_weinberger_lower(diam)
        rows.append(row)
    report = _report_skeleton("bounds", {**cfg, "domain": spec_dom.name})
    report["results"] = {
        "domain": spec_dom.name,
        "diameter": diam,
        "area": area,
        "bounds": rows,
    }
    header = ["k", "upper_diameter", "upper_area", "lower_diameter", "provenance"]
    csv_rows = [[row.get(h, "") for h in header] for row in rows]
    _emit(report, cfg["format"], csv_rows, header)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _merge_config(
        args,
        {
            "domain": "square",
            "k": 2,
            "l": 1,
            "C": None,
            "format": "json",
            "svg": None,
        },
    )
    spec_dom = parse_domain(str(cfg["domain"]))
    k, l = int(cfg["k"]), int(cfg["l"])
    if not (k >= l >= 1):
        raise UsageError("need --k >= --l >= 1")
    P = spec_dom.build()
    rect = rectangle_from_polygon(P)
    sandwich = None
    if rect is None:
        sandwich = rectangle_sandwich(P)
        rect = sandwich.inner
    report = _report_skeleton("certify", {**cfg, "domain": spec_dom.name})
    t0 = time.perf_counter()
    spec = rectangle_spectrum(rect.half_width_a, rect.half_width_b, k + 1)
    mu_k, mu_l = spec[k], spec[l]
    searched = False
    if cfg["C"] is None:
        c_value = minimal_constant(rect, k, l)
        searched = True
    else:
        c_value = float(cfg["C"])
        if not (math.isfinite(c_value) and c_value > 0):
            raise UsageError("--C must be positive and finite")
    cert = construct_partition(rect, k, l, c_value, mu_k)
    chain, cert = certified_chain(cert, mu_l)
    report["timings"]["certify_s"] = time.perf_counter() - t0
    if searched:
        chain.minimal_C = c_value
    results = {
        "domain": spec_dom.name,
        "certified_rectangle": {
            "center": [rect.center.x, rect.center.y],
            "half_width_a": rect.half_width_a,
            "half_width_b": rect.half_width_b,
            "rotation": rect.rotation,
        },
        "C": c_value,
        "C_searched": searched,
        "mu_k": mu_k,
        "mu_l": mu_l,
        "certificate": cert.to_dict(),
        "chain": chain.to_dict(),
    }
    if sandwich is not None:
        results["sandwich"] = {
            "dilation_factor": sandwich.dilation_factor,
            "note": "domain is not a rectangle; the certificate covers the "
            "inscribed box of its enclosing-ellipse sandwich",
        }
    report["results"] = results
    if cfg["svg"]:
        boxes = [sandwich.inner, sandwich.outer] if sandwich is not None else None
        drawing = svg_scene(P, cells=cert.cells, boxes=boxes)
        with open(cfg["svg"], "w", encoding="utf-8") as fh:
            fh.write(drawing)
    header = ["name", "lhs", "rhs", "ratio", "holds"]
    csv_rows = [
        [link.name, repr(link.lhs), repr(link.rhs), repr(link.ratio), link.holds]
        for link in chain.links
    ]
    _emit(report, cfg["format"], csv_rows, header)
    return EXIT_OK if cert.chain_ok else EXIT_CERTIFY


def _sweep_single(name: str, P: ConvexPolygon, k_max: int, levels: int, ratio_cap: float) -> dict:
    t0 = time.perf_counter()
    # one solve serves the sweep table and every chain (they need k_max + 2)
    domain_spectrum = reference_spectrum(P, k_max + 2, levels)
    table = quadratic_ratio_sweep(domain_spectrum, k_max)
    # and one box sandwich serves every chain
    sandwich = rectangle_sandwich(P)
    chains = {}
    for k in range(1, min(k_max, 10) + 1):
        chains[k] = weak_chain_report(domain_spectrum, sandwich, k, ratio_cap).to_dict()
    elapsed = time.perf_counter() - t0
    return {
        "domain": name,
        "spectrum_source": table.spectrum_source,
        "max_ratio": table.max_ratio,
        "entries": [
            {
                "k": e.k,
                "l": e.l,
                "mu_k": e.mu_k,
                "mu_l": e.mu_l,
                "ratio": e.ratio,
                "provenance": table.spectrum_source,
            }
            for e in table.entries
        ],
        "chains": chains,
        "elapsed_s": elapsed,
    }


def cmd_sweep(args) -> int:
    cfg = _merge_config(
        args,
        {
            "domain": None,
            "k_max": 12,
            "levels": 4,
            "format": "json",
            "plot_dir": None,
            "ratio_cap": 100.0,
        },
    )
    k_max = int(cfg["k_max"])
    levels = int(cfg["levels"])
    ratio_cap = float(cfg["ratio_cap"])
    if k_max < 1:
        raise UsageError("--k-max must be >= 1")
    if not (ratio_cap > 0):
        raise UsageError("--ratio-cap must be positive")
    if cfg["domain"]:
        gallery = [parse_domain(str(cfg["domain"]))]
    else:
        gallery = default_gallery()
    domains = [(dom.name, dom.build()) for dom in gallery]
    # rectangles take the closed form, but one limit holds for every domain
    _check_levels([P for _, P in domains], levels)
    report = _report_skeleton(
        "sweep", {**cfg, "domain": cfg["domain"] or "gallery"}
    )
    t0 = time.perf_counter()
    outcomes = []
    failure_code = EXIT_OK
    for name, P in domains:
        try:
            outcomes.append(_sweep_single(name, P, k_max, levels, ratio_cap))
        except EigensolverError as exc:
            outcomes.append({"domain": name, "error": str(exc)})
            failure_code = EXIT_SOLVER
    report["timings"]["total_s"] = time.perf_counter() - t0
    good = [o for o in outcomes if "error" not in o]
    overall = max((o["max_ratio"] for o in good), default=math.nan)
    cap_ok = bool(good) and overall <= ratio_cap
    if not cap_ok and failure_code == EXIT_OK:
        failure_code = EXIT_CERTIFY
    # per-domain times are kept out of results, which must stay byte-stable
    report["timings"]["domains"] = {o["domain"]: o.pop("elapsed_s") for o in good}
    report["results"] = {
        "k_max": k_max,
        "domains": outcomes,
        "overall_max_ratio": overall,
        "ratio_cap": ratio_cap,
        "ratio_cap_ok": cap_ok,
    }
    if cfg["plot_dir"]:
        os.makedirs(cfg["plot_dir"], exist_ok=True)
        for o in good:
            path = f"{cfg['plot_dir']}/sweep_{o['domain']}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["k", "l", "x_index_ratio", "y_measured_constant"])
                for e in o["entries"]:
                    writer.writerow(
                        [e["k"], e["l"], repr(e["k"] / e["l"]), repr(e["ratio"])]
                    )
    header = ["domain", "k", "l", "mu_k", "mu_l", "ratio", "provenance"]
    csv_rows = [
        [o["domain"], e["k"], e["l"], repr(e["mu_k"]), repr(e["mu_l"]), repr(e["ratio"]), e["provenance"]]
        for o in good
        for e in o["entries"]
    ]
    _emit(report, cfg["format"], csv_rows, header)
    return failure_code


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-certify",
        description="Neumann spectra, eigenvalue bounds and partition "
        "certificates for planar convex domains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", help="square | rect:LX:LY | regular:N[:R] | file:PATH")
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--format", choices=["json", "csv"], help="report format")

    p_spec = sub.add_parser("spectrum", help="FEM eigenvalues with bounds")
    common(p_spec)
    p_spec.add_argument("--m", type=int, help="number of eigenvalues (default 8)")
    p_spec.add_argument("--levels", type=int, help="uniform refinements (default 5)")
    p_spec.set_defaults(func=cmd_spectrum)

    p_bounds = sub.add_parser("bounds", help="closed-form bound table")
    common(p_bounds)
    p_bounds.add_argument("--k-max", dest="k_max", type=int, help="largest index (default 10)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_cert = sub.add_parser("certify", help="build and verify a partition certificate")
    common(p_cert)
    p_cert.add_argument("--k", type=int, help="upper index (default 2)")
    p_cert.add_argument("--l", type=int, help="lower index (default 1)")
    p_cert.add_argument("--C", type=float, help="constant; searched when omitted")
    p_cert.add_argument("--svg", help="write a drawing of the partition here")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="measured constants over a domain gallery")
    common(p_sweep)
    p_sweep.add_argument("--k-max", dest="k_max", type=int, help="largest index (default 12)")
    p_sweep.add_argument("--levels", type=int, help="uniform refinements (default 4)")
    p_sweep.add_argument("--plot-dir", dest="plot_dir", help="directory for ratio plot CSV files")
    p_sweep.add_argument(
        "--ratio-cap",
        dest="ratio_cap",
        type=float,
        help="largest acceptable measured constant (default 100)",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # GeometryError and CertificateFormatError are ValueErrors
    except (GeometryError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EigensolverError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFY


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
