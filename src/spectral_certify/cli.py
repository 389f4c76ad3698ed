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
import json
import math
import os
import sys
import time

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


def parse_domain(text: str) -> tuple[str, ConvexPolygon]:
    """Report name and polygon of a domain specifier."""
    if text == "square":
        return "square", Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0).polygon()
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
        return name, Rectangle(Point2(0.0, 0.0), lx / 2.0, ly / 2.0, 0.0).polygon()
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
        return f"regular_{sides}", regular_polygon(sides, radius)
    if text.startswith("file:") or text.endswith(".json"):
        path = text[5:] if text.startswith("file:") else text
        stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        with open(path, "r", encoding="utf-8") as fh:
            return f"file_{stem}", polygon_from_json(fh.read())
    raise UsageError(
        f"unknown domain {text!r}; expected square, rect:LX:LY, "
        "regular:N[:R], or file:PATH"
    )


def default_gallery() -> list[tuple[str, ConvexPolygon]]:
    return [
        parse_domain(text)
        for text in (
            "square", "rect:2:1", "rect:10:1", "regular:5", "regular:6", "regular:8", "regular:256"
        )
    ]


# ---------------------------------------------------------------------------
# report plumbing


# Reports are built whole before they are printed.  Peak traced memory is
# under 2100 bytes a sweep table entry (its SweepEntry, report dict and JSON
# text; 1474 and 945 measured with tracemalloc at 5050 and 45150 entries),
# 1400 bytes a bounds row (667 and 619 at 20k and 100k rows), and 32 bytes a
# value of the closed-form spectrum certify computes for --k.  So the budget
# admits sweep --k-max 505 on one domain and 190 on the gallery of 7, bounds
# --k-max 191739 and certify --k 8388607 (192, 183 and 307 MiB peak RSS at
# those limits on rect:2:1, interpreter included).
REPORT_BYTES = 2**28
SWEEP_ENTRY_BYTES = 2100
BOUNDS_ROW_BYTES = 1400
SPECTRUM_VALUE_BYTES = 32


def _options(args: argparse.Namespace) -> dict:
    """Every option of the subcommand with its parsed value."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config", "func")
    }


def _report_skeleton(args: argparse.Namespace, domain: str) -> dict:
    return {
        "tool": "spectral-certify",
        "version": __version__,
        "command": args.command,
        "config": {**_options(args), "domain": domain},
        "results": {},
        "timings": {},
    }


def _emit(report: dict, fmt: str, csv_rows, csv_header) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's values as flags of the subcommand.  Keys that
    are not options of the subcommand are ignored, and null means the
    default."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {args.config!r}: {exc}")
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    options = _options(args)
    # --option=value, so that a value starting with "-" stays a value
    return [
        f"--{key.replace('_', '-')}={value}"
        for key, value in values.items()
        if key in options and value is not None
    ]


def _check_levels(solves, levels: int, option: str) -> None:
    """--levels against the mesh budget of every domain, and the number of
    eigenvalues each domain's solve needs against its mesh's vertex count
    (the eigensolver finds at most half as many), before any solve; solves
    holds (polygon, count) pairs."""
    for P, count in solves:
        try:
            dofs = check_refinement(P, levels)
        except MeshError as exc:
            raise UsageError(f"--levels: {exc}") from None
        if count > dofs // 2:
            raise UsageError(
                f"{option}: the solve needs {count} eigenvalues, so a mesh of at least "
                f"{2 * count} DOFs; --levels {levels} gives {dofs}"
            )


def _check_size(option: str, value: int, count: int, what: str, unit_bytes: int) -> None:
    """An index option against the report budget, before any work."""
    if count * unit_bytes > REPORT_BYTES:
        raise UsageError(f"{option}: {value} gives {count:.3g} {what}, over budget")


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
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    name, P = parse_domain(args.domain)
    _check_levels([(P, args.m)], args.levels, "--m")
    rect = rectangle_from_polygon(P)
    report = _report_skeleton(args, name)
    t0 = time.perf_counter()
    spec = neumann_spectrum(P, args.m, args.levels)
    report["timings"]["solve_s"] = time.perf_counter() - t0
    rows = _spectrum_rows(P, spec, rect)
    report["results"] = {
        "domain": name,
        "mesh_h": spec.mesh_h,
        "refinement_level": spec.refinement_level,
        "solver_residual": spec.solver_residual,
        "eigenvalues": rows,
    }
    header = ["k", "value", "provenance", "closed_form", "upper_diameter", "upper_area", "lower_diameter"]
    csv_rows = [[row.get(h, "") for h in header] for row in rows]
    _emit(report, args.format, csv_rows, header)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.k_max < 1:
        raise UsageError("--k-max must be >= 1")
    _check_size("--k-max", args.k_max, args.k_max, "bound rows", BOUNDS_ROW_BYTES)
    name, P = parse_domain(args.domain)
    diam = diameter(P)
    area = P.area
    rows = []
    for k in range(1, args.k_max + 1):
        row = {
            "k": k,
            "upper_diameter": kroger_diameter_upper(k, diam),
            "upper_area": kroger_area_upper(k, area),
            "provenance": "formula",
        }
        if k == 1:
            row["lower_diameter"] = payne_weinberger_lower(diam)
        rows.append(row)
    report = _report_skeleton(args, name)
    report["results"] = {
        "domain": name,
        "diameter": diam,
        "area": area,
        "bounds": rows,
    }
    header = ["k", "upper_diameter", "upper_area", "lower_diameter", "provenance"]
    csv_rows = [[row.get(h, "") for h in header] for row in rows]
    _emit(report, args.format, csv_rows, header)
    return EXIT_OK


def cmd_certify(args) -> int:
    k, l = args.k, args.l
    if not (k >= l >= 1):
        raise UsageError("need --k >= --l >= 1")
    _check_size("--k", k, k + 1, "spectrum values", SPECTRUM_VALUE_BYTES)
    if args.C is not None and not (math.isfinite(args.C) and args.C > 0):
        raise UsageError("--C must be positive and finite")
    name, P = parse_domain(args.domain)
    rect = rectangle_from_polygon(P)
    sandwich = None
    if rect is None:
        sandwich = rectangle_sandwich(P)
        rect = sandwich.inner
    report = _report_skeleton(args, name)
    t0 = time.perf_counter()
    spec = rectangle_spectrum(rect.half_width_a, rect.half_width_b, k + 1)
    mu_k, mu_l = spec[k], spec[l]
    searched = args.C is None
    c_value = minimal_constant(rect, k, l) if searched else args.C
    try:
        cert = construct_partition(rect, k, l, c_value, mu_k)
    except GeometryError as exc:
        # a searched constant was built once already, so this is a given --C
        raise UsageError(f"--C: {exc}") from None
    chain, cert = certified_chain(cert, mu_l)
    report["timings"]["certify_s"] = time.perf_counter() - t0
    if searched:
        chain.minimal_C = c_value
    results = {
        "domain": name,
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
    if args.svg:
        boxes = [sandwich.inner, sandwich.outer] if sandwich is not None else None
        drawing = svg_scene(P, cells=cert.cells, boxes=boxes)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(drawing)
    header = ["name", "lhs", "rhs", "ratio", "holds"]
    csv_rows = [
        [link.name, repr(link.lhs), repr(link.rhs), repr(link.ratio), link.holds]
        for link in chain.links
    ]
    _emit(report, args.format, csv_rows, header)
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
    k_max, ratio_cap = args.k_max, args.ratio_cap
    if k_max < 1:
        raise UsageError("--k-max must be >= 1")
    if not (ratio_cap > 0):
        raise UsageError("--ratio-cap must be positive")
    domains = [parse_domain(args.domain)] if args.domain else default_gallery()
    entries = len(domains) * k_max * (k_max + 1) // 2
    _check_size("--k-max", k_max, entries, "sweep table entries", SWEEP_ENTRY_BYTES)
    # rectangles take the closed form, but one level limit holds for every domain
    solves = [(P, 0 if rectangle_from_polygon(P) else k_max + 2) for _, P in domains]
    _check_levels(solves, args.levels, "--k-max")
    report = _report_skeleton(args, domains[0][0] if args.domain else "gallery")
    t0 = time.perf_counter()
    outcomes = []
    failure_code = EXIT_OK
    for name, P in domains:
        try:
            outcomes.append(_sweep_single(name, P, k_max, args.levels, ratio_cap))
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
    if args.plot_dir:
        os.makedirs(args.plot_dir, exist_ok=True)
        for o in good:
            path = f"{args.plot_dir}/sweep_{o['domain']}.csv"
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
    _emit(report, args.format, csv_rows, header)
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

    def command(name, func, help, domain="square"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument(
            "--domain",
            default=domain,
            help="square | rect:LX:LY | regular:N[:R] | file:PATH "
            f"(default {domain or 'the gallery'})",
        )
        p.add_argument(
            "--config", help="JSON file of option values, parsed as flags; explicit flags win"
        )
        return p

    # each command adds its options in the order its report's config block lists them
    def report_format(p):
        p.add_argument("--format", choices=["json", "csv"], default="json", help="report format")

    p = command("spectrum", cmd_spectrum, "FEM eigenvalues with bounds")
    p.add_argument("--m", type=int, default=8, help="number of eigenvalues (default %(default)s)")
    p.add_argument("--levels", type=int, default=5, help="uniform refinements (default %(default)s)")
    report_format(p)

    p = command("bounds", cmd_bounds, "closed-form bound table")
    p.add_argument("--k-max", type=int, default=10, help="largest index (default %(default)s)")
    report_format(p)

    p = command("certify", cmd_certify, "build and verify a partition certificate")
    p.add_argument("--k", type=int, default=2, help="upper index (default %(default)s)")
    p.add_argument("--l", type=int, default=1, help="lower index (default %(default)s)")
    p.add_argument("--C", type=float, help="constant; searched when omitted")
    report_format(p)
    p.add_argument("--svg", help="write a drawing of the partition here")

    p = command("sweep", cmd_sweep, "measured constants over a domain gallery", domain=None)
    p.add_argument("--k-max", type=int, default=12, help="largest index (default %(default)s)")
    p.add_argument("--levels", type=int, default=4, help="uniform refinements (default %(default)s)")
    report_format(p)
    p.add_argument("--plot-dir", help="directory for ratio plot CSV files")
    p.add_argument(
        "--ratio-cap", type=float, default=100.0, help="largest acceptable measured constant (default %(default)s)"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's flags go right after the subcommand, so argparse checks
            # their types and choices and the user's own flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
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
