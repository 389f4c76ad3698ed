"""Command-line harness: exit codes, report shape, determinism, config
precedence, and the JSON/CSV number round trip."""

import argparse
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import spectral_certify
from spectral_certify import bounds, certify, cli, fem, geometry, mesh
from spectral_certify.cli import (
    EXIT_CERTIFY,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    default_gallery,
    main,
    parse_domain,
)
from spectral_certify.geometry import (
    Point2,
    Rectangle,
    polygon_from_json,
    rectangle_sandwich,
    regular_polygon,
)

from oracles import report_proved_constant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    # NaN and Infinity, which json.dumps writes by default, fail the report
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out, parse_constant=_refuse_constant)


def assert_csv_is_the_rows(out, header, rows):
    """The CSV report is the header, then one line per JSON row with each
    cell its row's value under that key, blank where the row has none; a
    float cell reads back to the JSON float bit for bit."""
    lines = list(csv.reader(io.StringIO(out)))
    assert lines[0] == header
    assert len(lines) - 1 == len(rows)
    for line, row in zip(lines[1:], rows):
        assert len(line) == len(header)
        for cell, key in zip(line, header):
            value = row.get(key)
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell).hex() == value.hex(), key
            else:
                assert cell == str(value), key


class TestDomainParsing:
    def test_known_forms(self, tmp_path):
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps({"vertices": regular_polygon(6, 3.0).vertices.tolist()}))
        expected = [
            ("square", "square", Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0).polygon()),
            ("rect:2:1", "rect_2x1", Rectangle(Point2(0.0, 0.0), 1.0, 0.5, 0.0).polygon()),
            ("rect:2.5:1", "rect_2p5x1", Rectangle(Point2(0.0, 0.0), 1.25, 0.5, 0.0).polygon()),
            ("regular:5", "regular_5", regular_polygon(5)),
            ("regular:8:2.5", "regular_8", regular_polygon(8, 2.5)),
            (f"file:{path}", "file_hexagon", regular_polygon(6, 3.0)),
        ]
        for text, name, polygon in expected:
            parsed_name, parsed = parse_domain(text)
            assert parsed_name == name
            np.testing.assert_array_equal(parsed.vertices, polygon.vertices)

    def test_gallery_contents(self):
        gallery = default_gallery()
        assert gallery[-1][1].n == 256
        names = [name for name, _ in gallery]
        assert names == [
            "square",
            "rect_2x1",
            "rect_10x1",
            "regular_5",
            "regular_6",
            "regular_8",
            "regular_256",
        ]

    def test_bad_forms_raise(self):
        for bad in ("blob", "rect:1", "rect:0:1", "regular:2", "regular:x"):
            with pytest.raises(Exception):
                parse_domain(bad)


class TestExitCodes:
    def test_unknown_domain(self, capsys):
        code, _, err = run(capsys, "spectrum", "--domain", "blob")
        assert code == EXIT_USAGE
        assert "unknown domain" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unreadable_certificate_is_usage_error(self, capsys, monkeypatch):
        def unreadable(*args, **kwargs):
            return certify.PartitionCertificate.from_json("{not json")

        monkeypatch.setattr(cli, "construct_partition", unreadable)
        code, _, err = run(capsys, "certify", "--domain", "square", "--C", "2")
        assert code == EXIT_USAGE
        assert "not JSON" in err

    def test_certify_index_order(self, capsys):
        code, _, err = run(capsys, "certify", "--k", "1", "--l", "2")
        assert code == EXIT_USAGE

    def test_certify_small_constant_fails_chain(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--domain", "square", "--k", "2", "--l", "1", "--C", "0.25"
        )
        assert code == EXIT_CERTIFY
        report = json.loads(out)
        assert report["results"]["certificate"]["chain_ok"] is False

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_certify_non_finite_constant(self, capsys, value):
        code, out, err = run(capsys, "certify", "--k", "2", "--l", "1", "--C", value)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--C" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_non_finite_ratio_cap(self, capsys, tmp_path, value):
        # an infinite cap would print "ratio_cap": Infinity, which is not JSON
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"ratio_cap": value}))
        for flags in (["--ratio-cap", value], ["--config", str(cfg)]):
            code, out, err = run(capsys, "sweep", "--domain", "square", "--k-max", "1", *flags)
            assert code == EXIT_USAGE
            assert out == ""
            assert "--ratio-cap" in err

    def test_bad_levels(self, capsys):
        code, _, err = run(capsys, "spectrum", "--levels", "99")
        assert code == EXIT_USAGE

    def test_sweep_bad_levels(self, capsys):
        code, _, err = run(capsys, "sweep", "--domain", "regular:5", "--levels", "13")
        assert code == EXIT_USAGE
        assert "--levels" in err

    @pytest.mark.parametrize(
        "domain, levels", [("rect:2:1", "-1"), ("rect:2:1", "13"), ("square", "9")]
    )
    def test_sweep_levels_checked_on_rectangles(self, capsys, domain, levels):
        # a rectangle takes the closed form, but --levels has one limit
        code, out, err = run(capsys, "sweep", "--domain", domain, "--levels", levels)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--levels" in err

    def test_gallery_levels_checked_before_any_solve(self, capsys, monkeypatch):
        # level 6 fits every gallery domain but the 256-gon (1.05M triangles)
        def no_solve(*args, **kwargs):
            raise AssertionError("a domain was solved")

        monkeypatch.setattr(fem, "solve_smallest", no_solve)
        code, out, err = run(capsys, "sweep", "--levels", "6")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--levels" in err and "1.05e+06 triangles" in err

    def test_certify_net_grids_over_budget(self, capsys, monkeypatch):
        # a net at this constant would need ~10M coarse and ~41M fine grid
        # points; the box grid takes no net grid at all, and the constant
        # fails only the concluded inequality
        def no_grid(*args, **kwargs):
            raise AssertionError("a net grid was built")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "certify", "--domain", "rect:10:10", "--k", "40", "--l", "40", "--C", "0.025"
        )
        assert code == EXIT_CERTIFY
        links = json.loads(out)["results"]["chain"]["links"]
        assert [link["name"] for link in links if not link["holds"]] == ["concluded_inequality"]
        assert time.perf_counter() - start < 10.0

    def test_certify_strips_over_budget(self, capsys):
        # the best grid of a 0.001 x 1000 rectangle is one column of l
        # strips; past the cell budget it has GRID_CELLS strips and a
        # larger constant, and the command stays fast
        constants = []
        for l in (certify.GRID_CELLS - 1, certify.GRID_CELLS, 8388607):
            start = time.perf_counter()
            report = run_json(capsys, "certify", "--domain", "rect:0.001:1000", "--k", "8388607", "--l", str(l))
            assert time.perf_counter() - start < 1.0
            cert = report["results"]["certificate"]
            assert len(cert["cells"]) == min(l, certify.GRID_CELLS)
            assert cert["notes"].startswith(f"grid case: 1 x {len(cert['cells'])} boxes")
            assert report["results"]["chain"]["holds_all"]
            constants.append(report["results"]["C"])
        # C_proved grows as l^2 at a fixed grid, and slower below the cap
        assert constants[0] < constants[1] < constants[2]

    def test_certify_cell_budget(self, capsys):
        # k = l at the index limit: a grid of at most GRID_CELLS cells, under
        # 1 s, and a constant far above the uncapped grid's ~2.5
        start = time.perf_counter()
        report = run_json(capsys, "certify", "--domain", "square", "--k", "8388607", "--l", "8388607")
        assert time.perf_counter() - start < 1.0
        res = report["results"]
        assert res["chain"]["holds_all"]
        assert len(res["certificate"]["cells"]) <= certify.GRID_CELLS
        assert res["C"] > 100.0

    @pytest.mark.parametrize(
        "option, argv, dofs",
        [
            # the gallery's pentagon has 16 mesh vertices at level 1, the square 13
            ("--k-max", ["sweep", "--k-max", "190", "--levels", "1"], 16),
            ("--m", ["spectrum", "--domain", "square", "--m", "40", "--levels", "1"], 13),
        ],
    )
    def test_eigenvalue_count_over_mesh_size(self, capsys, monkeypatch, option, argv, dofs):
        def no_solve(*args, **kwargs):
            raise AssertionError("a domain was solved")

        monkeypatch.setattr(fem, "solve_smallest", no_solve)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"usage error: {option}: ")
        assert "--levels 1" in err and err.rstrip().endswith(f"gives {dofs}")

    def test_eigenvalue_count_at_mesh_size(self, capsys):
        # half the DOFs is the most the eigensolver finds, so 6 of the
        # square's 13 level-1 vertices still solve; rectangles in a sweep
        # take the closed form and need no mesh
        assert run(capsys, "spectrum", "--domain", "square", "--m", "6", "--levels", "1")[0] == EXIT_OK
        code, _, err = run(capsys, "sweep", "--domain", "square", "--k-max", "190", "--levels", "1")
        assert code in (EXIT_OK, EXIT_CERTIFY), err

    @pytest.mark.parametrize(
        # nested past the interpreter's recursion limit, json raises RecursionError
        "text", ["3", "null", '{"vertices": {"x": 1}}', pytest.param("[" * 2000 + "]" * 2000, id="nested")]
    )
    def test_domain_file_not_a_polygon_object(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", "--domain", f"file:{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("invalid input:")

    def test_certify_given_constant_builds_every_cell(self, capsys, monkeypatch):
        # the failing certificate of a given constant is built, verified and
        # emitted whole: the 6 x 6 grid, rebuilt once by the verifier
        corners = certify.grid_corners
        cell_counts = []

        def counted(domain, l):
            built = corners(domain, l)
            cell_counts.append(built[0].shape[0])
            return built

        monkeypatch.setattr(certify, "grid_corners", counted)
        code, out, _ = run(
            capsys, "certify", "--domain", "rect:10:10", "--k", "40", "--l", "40", "--C", "0.5"
        )
        assert code == EXIT_CERTIFY
        res = json.loads(out)["results"]
        cert = res["certificate"]
        assert cell_counts == [len(cert["cells"])] * 2 == [36, 36]
        failing = [link["name"] for link in res["chain"]["links"] if not link["holds"]]
        assert failing == ["concluded_inequality"]
        # a searched C is the constructed grid's own C_proved, so the grid is
        # built twice there too: once to construct, once to verify
        cell_counts.clear()
        code, out, _ = run(capsys, "certify", "--domain", "rect:10:10", "--k", "40", "--l", "40")
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert cell_counts == [len(res["certificate"]["cells"])] * 2 == [36, 36]
        assert res["C"] == res["certificate"]["C"]

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_meshes_over_budget(self, capsys, monkeypatch, command):
        # level 12 of a 256-gon is 4.3e9 triangles: refused before refining
        def no_refine(*args, **kwargs):
            raise AssertionError("a mesh was refined")

        monkeypatch.setattr(mesh, "refine", no_refine)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--domain", "regular:256", "--levels", "12")
        assert code == EXIT_USAGE
        assert out == ""
        assert "4.29e+09 triangles" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", ["spectrum", "bounds", "certify", "sweep"])
    def test_regular_domain_over_vertex_limit(self, capsys, command):
        # regular_polygon would ask numpy for a 7.3 TiB array
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--domain", "regular:1000000000000")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"1000000000000 vertices, over the limit of {cli.DOMAIN_VERTICES}" in err
        assert time.perf_counter() - start < 1.0

    def test_file_domain_over_vertex_limit(self, capsys, tmp_path):
        n = cli.DOMAIN_VERTICES + 1
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps({"vertices": regular_polygon(n).vertices.tolist()}))
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--domain", f"file:{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{n} vertices, over the limit of {cli.DOMAIN_VERTICES}" in err
        assert time.perf_counter() - start < 1.0

    def test_file_domain_at_vertex_limit(self, capsys, tmp_path):
        path = tmp_path / "polygon.json"
        vertices = regular_polygon(cli.DOMAIN_VERTICES).vertices.tolist()
        path.write_text(json.dumps({"vertices": vertices}))
        results = run_json(capsys, "bounds", "--domain", f"file:{path}", "--k-max", "2")["results"]
        assert results["diameter"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "option, argv",
        [
            # one past each limit of the report budget
            ("--k-max", ["sweep", "--domain", "square", "--k-max", "506"]),
            ("--k-max", ["sweep", "--k-max", "191"]),
            ("--k-max", ["bounds", "--k-max", "191740"]),
            ("--k", ["certify", "--k", "8388608", "--l", "1"]),
        ],
    )
    def test_index_over_budget(self, capsys, monkeypatch, option, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("the report was started")

        for name in ("rectangle_spectrum", "reference_spectrum", "kroger_diameter_upper"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"usage error: {option}: ") and "over budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--domain", "rect:1e155:1e155"],
            ["bounds", "--domain", "rect:1e308:1e308"],
            ["bounds", "--domain", "regular:3:1e300"],
            ["bounds", "--domain", "rect:1e-170:1e-170"],
            ["sweep", "--domain", "regular:5:1e-160", "--k-max", "2", "--levels", "1"],
        ],
    )
    def test_coordinates_out_of_range(self, capsys, argv):
        # refused before any product of coordinates overflows or underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "is outside [1.49e-148, 1e+150]" in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "command, domain, options",
        [
            ("certify", "rect:1e-155:1e-144", ["--k", "4", "--l", "2"]),
            ("certify", "triangle", []),
            ("sweep", "rect:1e-155:1e-144", ["--k-max", "3", "--levels", "1"]),
        ],
    )
    def test_closed_form_out_of_range(self, tmp_path, command, domain, options):
        # domains in the coordinate range whose closed-form eigenvalues are
        # not: pi / L squares past the largest double below L ~ 2.3e-154 (the
        # triangle's certified box is its sandwich's inner one).  Each command
        # runs in a child with its address space capped, so an allocation
        # that runs away fails the test instead of the machine.
        lengths = "lengths 1e-155 x 1e-144"
        if domain == "triangle":
            triangle = {"vertices": [[0, 0], [1e-147, 0], [0, 1e-158]]}
            path = tmp_path / "thin.json"
            path.write_text(json.dumps(triangle))
            domain = f"file:{path}"
            box = rectangle_sandwich(polygon_from_json(triangle)).inner
            lengths = f"lengths {2.0 * box.half_width_a!r} x {2.0 * box.half_width_b!r}"
        argv = [command, "--domain", domain, *options]
        src = os.path.dirname(os.path.dirname(spectral_certify.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "spectral_certify.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap_address_space,
        )
        assert out.returncode == EXIT_USAGE, out.stderr
        assert out.stdout == ""
        assert out.stderr.startswith(f"invalid input: {lengths}: ")
        assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_singular_pencil_is_solver_failure(self, capsys, monkeypatch, command):
        # an index no element touches leaves an empty row in K + M, which
        # the pivot-free LU cannot factor
        assemble = fem.assemble

        def padded(tri_mesh):
            return [
                fem.SparseSymmetricMatrix(mat.dimension + 1, mat.rows, mat.cols, mat.data)
                for mat in assemble(tri_mesh)
            ]

        monkeypatch.setattr(fem, "assemble", padded)
        code, out, err = run(capsys, command, "--domain", "regular:6", "--levels", "2")
        assert code == EXIT_SOLVER
        assert "LU of K + M (dimension 62) failed" in out + err
        if command == "sweep":
            # the report stays JSON: no domain solved leaves no maximum
            def refuse(name):
                raise AssertionError(f"{name} is not JSON")

            results = json.loads(out, parse_constant=refuse)["results"]
            assert results["overall_max_ratio"] is None
            assert results["ratio_cap_ok"] is False


class TestSpectrumCommand:
    def test_csv_rows_and_zero_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--domain",
            "square",
            "--m",
            "8",
            "--levels",
            "6",
            "--format",
            "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["k", "value", "provenance"]
        assert len(rows) == 1 + 8
        assert float(rows[1][1]) < 1e-8
        assert rows[1][2] == "fem(6)"

    def test_large_polygon_first_eigenvalue(self, capsys):
        report = run_json(
            capsys, "spectrum", "--domain", "regular:256", "--m", "3", "--levels", "4"
        )
        rows = report["results"]["eigenvalues"]
        assert rows[1]["value"] == pytest.approx(3.39, rel=1e-2)
        assert rows[1]["provenance"] == "fem(4)"

    @pytest.mark.parametrize("size", [1e-140, 1e150])
    def test_values_scale_with_the_domain(self, capsys, size):
        argv = ["spectrum", "--m", "3", "--levels", "1"]
        unit = run_json(capsys, *argv)["results"]["eigenvalues"]
        rows = run_json(capsys, *argv, "--domain", f"rect:{size}:{size}")["results"]["eigenvalues"]
        for row, ref in zip(rows, unit):
            assert row["value"] * size**2 == pytest.approx(ref["value"], rel=1e-12)

    def test_closed_form_column_on_rectangles(self, capsys):
        report = run_json(
            capsys, "spectrum", "--domain", "rect:2:1", "--m", "4", "--levels", "4"
        )
        rows = report["results"]["eigenvalues"]
        assert rows[1]["closed_form"] == pytest.approx(math.pi**2 / 4.0, rel=1e-12)
        assert rows[1]["value"] == pytest.approx(rows[1]["closed_form"], rel=5e-3)
        assert "upper_diameter" in rows[1] and "lower_diameter" in rows[1]

    def test_json_csv_numbers_match(self, capsys):
        # every table but the sweep's (see TestSweepCommand): the CSV lists
        # the JSON rows cell by cell
        spectrum = ["k", "value", "provenance", "closed_form", "upper_diameter", "upper_area", "lower_diameter"]
        cases = [
            ("spectrum --domain rect:2:1 --m 5 --levels 3", spectrum, ("eigenvalues",)),
            ("spectrum --domain regular:6 --m 5 --levels 3", spectrum, ("eigenvalues",)),
            ("bounds --domain regular:6 --k-max 5", ["k", "upper_diameter", "upper_area", "lower_diameter", "provenance"], ("bounds",)),
            ("certify --domain square --k 4 --l 2", ["name", "lhs", "rhs", "ratio", "holds"], ("chain", "links")),
            ("certify --domain regular:7 --k 4 --l 2", ["name", "lhs", "rhs", "ratio", "holds"], ("chain", "links")),
        ]
        for argv, header, path in cases:
            rows = run_json(capsys, *argv.split())["results"]
            for key in path:
                rows = rows[key]
            code, out, _ = run(capsys, *argv.split(), "--format", "csv")
            assert code == EXIT_OK
            assert_csv_is_the_rows(out, header, rows)


class TestBoundsCommand:
    def test_table_shape(self, capsys):
        report = run_json(capsys, "bounds", "--domain", "regular:6", "--k-max", "5")
        rows = report["results"]["bounds"]
        assert len(rows) == 5
        assert all(row["provenance"] == "formula" for row in rows)
        assert "lower_diameter" in rows[0]
        assert all("lower_diameter" not in row for row in rows[1:])

    def test_small_square_far_from_origin(self, capsys, tmp_path):
        # a 0.25 x 0.25 square 800,000 units off the origin is a polygon
        path = tmp_path / "far.json"
        verts = [[800000.0 + x, y] for x, y in ((0.125, 0.125), (-0.125, 0.125), (-0.125, -0.125), (0.125, -0.125))]
        path.write_text(json.dumps({"vertices": verts}))
        results = run_json(capsys, "bounds", "--domain", f"file:{path}")["results"]
        assert results["area"] == 0.0625
        assert results["diameter"] == pytest.approx(math.sqrt(0.125), rel=1e-15)
        results = run_json(capsys, "certify", "--domain", f"file:{path}", "--k", "4", "--l", "2")["results"]
        assert results["chain"]["holds_all"]
        assert results["mu_l"] == pytest.approx(16.0 * math.pi**2, rel=1e-9)

    def test_small_square_far_out_on_both_axes(self, capsys, tmp_path):
        # the 0.25 x 0.25 square centred at (3e7, 3e7) is a polygon too
        path = tmp_path / "far.json"
        verts = [[3e7 + x, 3e7 + y] for x, y in ((0.125, 0.125), (-0.125, 0.125), (-0.125, -0.125), (0.125, -0.125))]
        path.write_text(json.dumps({"vertices": verts}))
        assert run_json(capsys, "bounds", "--domain", f"file:{path}")["results"]["area"] == 0.0625
        results = run_json(capsys, "certify", "--domain", f"file:{path}", "--k", "4", "--l", "2")["results"]
        assert results["chain"]["holds_all"]

    def test_fine_polygon_far_from_origin(self, capsys, tmp_path):
        # a 3344-gon of circumradius 0.25, 800,000 units off the origin
        path = tmp_path / "far_fine.json"
        verts = regular_polygon(3344).vertices * 0.25 + [800000.0, 0.0]
        path.write_text(json.dumps({"vertices": verts.tolist()}))
        assert run_json(capsys, "bounds", "--domain", f"file:{path}")["results"]["diameter"] < 0.5 + 1e-9
        results = run_json(capsys, "certify", "--domain", f"file:{path}", "--k", "4", "--l", "2")["results"]
        assert results["chain"]["holds_all"]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "bounds", "--format", "csv")
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "k,upper_diameter,upper_area,lower_diameter,provenance"


class TestCertifyCommand:
    def test_square_pair_verifies(self, capsys):
        report = run_json(capsys, "certify", "--domain", "square", "--k", "4", "--l", "2")
        res = report["results"]
        # the report restates nothing the certificate holds
        assert set(res) == {"domain", "C", "mu_k", "mu_l", "certificate", "chain"}
        assert set(res["chain"]) == {"links", "holds_all"}
        assert list(res["certificate"]) == ["schema", "domain", "k", "l", "C", "cells", "chain_ok", "notes"]
        assert [link["name"] for link in res["chain"]["links"]] == [
            "piece_count",
            "grid_rebuilt",
            "concluded_inequality",
        ]
        assert res["certificate"]["chain_ok"] is True
        assert res["chain"]["holds_all"] is True
        assert res["certificate"]["C"] == res["C"]

    def test_identity_pair_single_cell(self, capsys):
        report = run_json(capsys, "certify", "--k", "1", "--l", "1")
        cert = report["results"]["certificate"]
        assert len(cert["cells"]) == 1

    def test_non_rectangle_uses_sandwich(self, capsys, tmp_path):
        svg = tmp_path / "cells.svg"
        report = run_json(
            capsys, "certify", "--domain", "regular:5", "--k", "2", "--l", "1",
            "--svg", str(svg),
        )
        res = report["results"]
        assert "sandwich" in res
        assert res["sandwich"]["dilation_factor"] in (1.0, 2.0, 4.0, 8.0)
        text = svg.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")

    def test_isotropic_sandwich_is_not_turned(self, capsys):
        # a regular polygon's covariance is isotropic, so the box axis is
        # not read from rounding noise, at any scale
        rotations = {
            run_json(capsys, "certify", "--domain", domain, "--k", "4", "--l", "2")["results"]["certificate"][
                "domain"
            ]["rotation"]
            for domain in ("regular:6", "regular:6:1e-20", "regular:6:1e-140", "regular:256:3")
        }
        assert rotations == {0.0}

    def test_report_constant_against_oracle(self, capsys, tmp_path):
        # every exit-0 report states C >= C_proved, recomputed from the report
        # alone; 50 random axis-aligned, translated rectangles x (k, l)
        rng = np.random.default_rng(18)
        for i in range(50):
            lx, ly = 10.0 ** rng.uniform(-2, 2, 2)
            cx, cy = rng.uniform(-3, 3, 2)
            verts = [[cx + sx * lx / 2, cy + sy * ly / 2] for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
            path = tmp_path / f"rect{i}.json"
            path.write_text(json.dumps({"vertices": verts}))
            k = int(rng.integers(1, 60))
            l = int(rng.integers(1, k + 1))
            report = run_json(capsys, "certify", "--domain", f"file:{path}", "--k", str(k), "--l", str(l))
            assert Fraction(report["results"]["C"]) >= report_proved_constant(report["results"])

    @pytest.mark.parametrize(
        "vertices, k, l",
        [
            ([[800000.5, 0.5], [799999.5, 0.5], [799999.5, -0.5], [800000.5, -0.5]], 4, 2),
            (
                [
                    [3e5 + math.cos(0.3) * x - math.sin(0.3) * y, math.sin(0.3) * x + math.cos(0.3) * y]
                    for x, y in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5))
                ],
                24,
                24,
            ),
        ],
        ids=["off_centre", "turned_off_centre"],
    )
    def test_off_centre_square_certifies(self, capsys, tmp_path, vertices, k, l):
        # far from the origin the proof reads no cell polygon, and the
        # constant is the unit square's up to the rounding of the
        # half-widths read from the file
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"vertices": vertices}))
        res = run_json(capsys, "certify", "--domain", f"file:{path}", "--k", str(k), "--l", str(l))["results"]
        assert res["chain"]["holds_all"]
        unit = run_json(capsys, "certify", "--k", str(k), "--l", str(l))["results"]["C"]
        assert res["C"] == pytest.approx(unit, rel=1e-9)
        reloaded = certify.PartitionCertificate.from_dict(res["certificate"])
        assert certify.verify_certificate(reloaded).to_dict() == res["chain"]

    def test_off_centre_rhombus_uses_sandwich(self, capsys, tmp_path):
        # a small rhombus far from the origin is not taken for a square
        path = tmp_path / "rhombus.json"
        path.write_text(json.dumps({"vertices": [[800000.5, 0.0], [800000.0, 0.3], [799999.5, 0.0], [800000.0, -0.3]]}))
        res = run_json(capsys, "certify", "--domain", f"file:{path}", "--k", "4", "--l", "2")["results"]
        assert "sandwich" in res
        assert res["chain"]["holds_all"]

    def test_verifier_evaluates_no_closed_form(self, capsys, monkeypatch):
        # the reload and the verifier decide the concluded inequality by a
        # lattice count alone: with the lattice search behind every closed
        # form refused, the square certificate at k = l = 8388607 reloads and
        # verifies to the links the command reported
        report = run_json(capsys, "certify", "--domain", "square", "--k", "8388607", "--l", "8388607")
        assert report["results"]["chain"]["holds_all"]

        def refused(*args, **kwargs):
            raise AssertionError("a closed form was evaluated")

        monkeypatch.setattr(bounds, "_bracket", refused)
        reloaded = certify.PartitionCertificate.from_dict(report["results"]["certificate"])
        chain = certify.verify_certificate(reloaded).to_dict()
        assert chain == report["results"]["chain"]

    def test_no_cell_polygons_or_diameters(self, capsys, monkeypatch, tmp_path):
        # the certificate is built, verified, printed, drawn and reloaded from
        # its corner array: no cell becomes a polygon and nothing is measured
        def forbidden(*args, **kwargs):
            raise AssertionError("a cell polygon was built or measured")

        monkeypatch.setattr(geometry.ConvexPolygon, "many", forbidden)
        monkeypatch.setattr(geometry, "diameter", forbidden)
        monkeypatch.setattr(certify, "diameter", forbidden, raising=False)
        monkeypatch.setattr(cli, "diameter", forbidden)
        for argv in (["--k", "24", "--l", "24"], ["--k", "8388607", "--l", "8388607"], ["--k", "40", "--l", "40", "--C", "0.5"]):
            code, out, err = run(capsys, "certify", "--domain", "rect:10:10", *argv, "--svg", str(tmp_path / "grid.svg"))
            assert code in (EXIT_OK, EXIT_CERTIFY), err
            res = json.loads(out)["results"]
            reloaded = certify.PartitionCertificate.from_json(json.dumps(res["certificate"]))
            assert certify.verify_certificate(reloaded).to_dict() == res["chain"]

    def test_tiny_non_rectangles_run(self):
        # the sandwich is built on a copy of the domain scaled by a power of
        # two, so a domain far below unit size is swept and certified
        src = os.path.dirname(os.path.dirname(spectral_certify.__file__))
        code = (
            "import contextlib, io, spectral_certify.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert c.main(['sweep', '--domain', 'regular:5:1e-13', '--k-max', '4', '--levels', '2']) == 0\n"
            "    assert c.main(['certify', '--domain', 'regular:6:1e-20', '--k', '4', '--l', '2']) == 0\n"
            "    assert c.main(['certify', '--domain', 'regular:6:1e-140', '--k', '4', '--l', '2']) == 0"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_csv_chain_table(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--k", "2", "--l", "1", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "lhs", "rhs", "ratio", "holds"]
        names = [r[0] for r in rows[1:]]
        assert names == ["piece_count", "grid_rebuilt", "concluded_inequality"]


class TestSweepCommand:
    def test_single_domain_table(self, capsys):
        report = run_json(capsys, "sweep", "--domain", "square", "--k-max", "6")
        res = report["results"]
        assert res["ratio_cap_ok"] is True
        assert len(res["domains"]) == 1
        dom = res["domains"][0]
        assert dom["spectrum_source"] == "closed_form"
        assert len(dom["entries"]) == 6 * 7 // 2
        assert set(dom["chains"]) == {str(k) for k in range(1, 7)}

    def test_degenerate_k_max(self, capsys):
        report = run_json(capsys, "sweep", "--domain", "square", "--k-max", "1")
        res = report["results"]
        assert res["overall_max_ratio"] == 1.0
        entries = res["domains"][0]["entries"]
        assert len(entries) == 1 and entries[0]["ratio"] == 1.0

    def test_report_names_file_domain_not_path(self, capsys, tmp_path):
        # one polygon at two paths: the reports name the domain, not the file
        vertices = json.dumps({"vertices": regular_polygon(6).vertices.tolist()})
        reports = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "hexagon.json"
            path.write_text(vertices)
            report = run_json(capsys, "sweep", "--domain", f"file:{path}", "--k-max", "4", "--levels", "2")
            del report["timings"]
            reports.append(report)
        assert reports[0]["config"]["domain"] == "file_hexagon"
        assert reports[0] == reports[1]

    def test_ratio_cap_enforced(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--domain", "square", "--k-max", "10", "--ratio-cap", "1.0"
        )
        assert code == EXIT_CERTIFY
        report = json.loads(out)
        assert report["results"]["ratio_cap_ok"] is False
        assert report["results"]["overall_max_ratio"] > 1.0

    def test_csv_lists_the_json_entries(self, capsys):
        # the CSV is the sweep's one tabular output: one row per (k, l) entry
        # of each domain, its floats printed so that they read back bit for bit
        header = ["domain", "k", "l", "mu_k", "mu_l", "ratio", "provenance"]
        for domain, name, source in (("rect:2:1", "rect_2x1", "closed_form"), ("regular:5", "regular_5", "fem(2)")):
            argv = ["sweep", "--domain", domain, "--k-max", "4", "--levels", "2"]
            entries = run_json(capsys, *argv)["results"]["domains"][0]["entries"]
            assert len(entries) == 4 * 5 // 2
            assert {entry["provenance"] for entry in entries} == {source}
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == EXIT_OK
            assert_csv_is_the_rows(out, header, [{"domain": name, **entry} for entry in entries])

    def test_solves_each_domain_once(self, capsys, monkeypatch):
        # counted at the eigensolver, whichever module asks for the spectrum
        calls = []
        solve = fem.solve_smallest

        def counting(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(fem, "solve_smallest", counting)
        report = run_json(capsys, "sweep", "--domain", "regular:6", "--k-max", "4")
        assert calls == [6]
        assert report["results"]["domains"][0]["spectrum_source"] == "fem(4)"

    def test_computes_each_sandwich_once(self, capsys, monkeypatch):
        # counted where either module would look the sandwich up: the sweep
        # gates only the consecutive ratio, so no domain needs one
        calls = []
        sandwich = cli.rectangle_sandwich

        def counting(P):
            calls.append(P.n)
            return sandwich(P)

        monkeypatch.setattr(cli, "rectangle_sandwich", counting)
        monkeypatch.setattr(certify, "rectangle_sandwich", counting)
        for domain in ("regular:6", "square"):
            calls.clear()
            report = run_json(capsys, "sweep", "--domain", domain, "--k-max", "5", "--levels", "3")
            assert calls == []
            chains = report["results"]["domains"][0]["chains"]
            assert list(chains) == ["1", "2", "3", "4", "5"]
            for chain in chains.values():
                assert [link["name"] for link in chain["links"]] == ["consecutive_ratio_capped"]
                assert chain["links"][0]["holds"] is True and chain["holds_all"] is True

    def test_gallery_rectangles_take_no_sandwich(self, capsys, monkeypatch):
        # each chain is the one gated link, for k up to min(k_max, 10)
        def no_sandwich(P):
            raise AssertionError("a rectangle was given a sandwich")

        monkeypatch.setattr(cli, "rectangle_sandwich", no_sandwich)
        monkeypatch.setattr(certify, "rectangle_sandwich", no_sandwich)
        for domain, k_max in (("square", 12), ("rect:2:1", 4), ("rect:10:1", 4)):
            report = run_json(capsys, "sweep", "--domain", domain, "--k-max", str(k_max), "--levels", "3")
            chains = report["results"]["domains"][0]["chains"]
            assert list(chains) == [str(k) for k in range(1, min(k_max, 10) + 1)]
            for chain in chains.values():
                assert [link["name"] for link in chain["links"]] == ["consecutive_ratio_capped"]
                assert chain["links"][0]["holds"] is True and chain["holds_all"] is True

    def test_byte_stability_outside_timings(self, capsys):
        for domain, name in (("square", "square"), ("regular:6", "regular_6")):
            args = ["sweep", "--domain", domain, "--k-max", "6"]
            first = run_json(capsys, *args)
            second = run_json(capsys, *args)
            # per-domain times live in timings, never in results
            assert list(first.pop("timings")["domains"]) == [name]
            second.pop("timings")
            assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"m": 4, "levels": 2, "domain": "regular:6"}))
        report = run_json(capsys, "spectrum", "--config", str(cfg))
        assert report["config"]["m"] == 4
        assert report["config"]["domain"] == "regular_6"
        assert len(report["results"]["eigenvalues"]) == 4

        report = run_json(capsys, "spectrum", "--config", str(cfg), "--m", "3")
        assert report["config"]["m"] == 3
        assert len(report["results"]["eigenvalues"]) == 3

    def test_underscore_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k_max": 3}))
        report = run_json(capsys, "bounds", "--config", str(cfg))
        assert len(report["results"]["bounds"]) == 3

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "bounds", "--config", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_config_nested_past_the_recursion_limit(self, capsys, tmp_path):
        # json raises RecursionError here, not JSONDecodeError
        cfg = tmp_path / "run.json"
        cfg.write_text("[" * 2000 + "]" * 2000)
        code, out, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: cannot read config file")

    @pytest.mark.parametrize(
        "command, values, option",
        [("spectrum", {"levels": 2.7}, "--levels"), ("bounds", {"format": "xml"}, "--format")],
    )
    def test_values_parsed_like_flags(self, capsys, tmp_path, command, values, option):
        # file values pass the same type and choice checks as flags
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {option}: invalid" in capsys.readouterr().err

    def test_unknown_keys_ignored_and_null_is_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k_max": None, "format": None, "levels": 3, "colour": "red"}))
        report = run_json(capsys, "bounds", "--config", str(cfg))
        assert report["config"] == {"domain": "square", "k_max": 10, "format": "json"}
        assert len(report["results"]["bounds"]) == 10


class TestImport:
    @staticmethod
    def printed(code):
        """The lines code prints in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(spectral_certify.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.strip().splitlines()

    @classmethod
    def imported(cls, code, module="scipy.spatial"):
        """Whether module is in sys.modules after running code in a fresh interpreter."""
        return cls.printed(code + f"\nprint({module!r} in sys.modules)")[-1]

    def test_scipy_spatial_not_imported(self):
        # scipy.spatial (which pulls in scipy.special) would add ~0.1 s to
        # every start of the command
        assert self.imported("import sys, spectral_certify.cli") == "False"

    @pytest.mark.parametrize("module", ["spectral_certify", "spectral_certify.geometry"])
    def test_import_leaves_out_scipy_sparse(self, module):
        # the package namespace holds only __version__, so importing it or
        # the geometry does not load the FEM stack
        assert self.imported(f"import sys, {module}", "scipy.sparse") == "False"

    def test_certify_runs_without_scipy_spatial(self):
        # the net, Voronoi and pair checks all use the bucket grid in _kernels
        code = (
            "import sys, contextlib, io, spectral_certify.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert c.main(['certify', '--domain', 'square', '--k', '24', '--l', '24']) == 0\n"
            "    assert c.main(['certify', '--domain', 'rect:10:10', '--k', '40', '--l', '40',"
            " '--C', '0.5']) == 4"
        )
        assert self.imported(code) == "False"

    def test_certificates_run_without_the_solver_stack(self):
        # certify, bounds and verify use closed forms only; scipy.sparse.linalg
        # and the scipy.linalg it loads (LAPACK, ARPACK, SuperLU) load at the
        # first solve
        code = (
            "import sys, contextlib, io, json, spectral_certify.cli as c\n"
            "from spectral_certify.certify import PartitionCertificate, verify_certificate\n"
            "def run(*argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = c.main(list(argv))\n"
            "    return code, out.getvalue()\n"
            "def loaded():\n"
            "    print([m in sys.modules for m in ('scipy.sparse.linalg', 'scipy.linalg')])\n"
            "reports = [run('certify', '--domain', 'square', '--k', '24', '--l', '24'),\n"
            "           run('certify', '--domain', 'rect:10:10', '--k', '40', '--l', '40', '--C', '0.5')]\n"
            "assert [code for code, _ in reports] == [0, 4]\n"
            "assert run('bounds')[0] == 0\n"
            "for _, text in reports:\n"
            "    results = json.loads(text)['results']\n"
            "    cert = PartitionCertificate.from_json(json.dumps(results['certificate']))\n"
            "    assert verify_certificate(cert).to_dict() == results['chain']\n"
            "loaded()\n"
            "assert run('spectrum', '--levels', '2')[0] == 0\n"
            "loaded()"
        )
        assert self.printed(code) == ["[False, False]", "[True, True]"]

    def test_commands_run_without_scipy_special(self):
        # Bessel values are only needed by the disk oracle and the tests;
        # the diameter bound takes j_{0,1} as a constant
        code = (
            "import sys, contextlib, io, spectral_certify.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert c.main(['spectrum', '--domain', 'regular:6', '--m', '5', '--levels', '2']) == 0\n"
            "    assert c.main(['bounds', '--domain', 'regular:6']) == 0\n"
            "    assert c.main(['certify', '--domain', 'regular:6', '--k', '4', '--l', '2']) == 0\n"
            "    assert c.main(['sweep', '--domain', 'regular:6', '--k-max', '4', '--levels', '1']) == 0"
        )
        assert self.imported(code, "scipy.special") == "False"


class TestParser:
    def test_builds_only_the_commands_options(self, capsys, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def spy(parser, *args, **kwargs):
            added.extend(args)
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        run_json(capsys, "bounds", "--k-max", "2")
        assert "--k-max" in added
        others = {"--m", "--levels", "--k", "--l", "--C", "--svg", "--ratio-cap"}
        assert not others & set(added)

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{spectrum,bounds,certify,sweep}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["certify", "--m", "3"], ["--bogus", "bounds"], ["bounds", "--bogus"]])
    def test_unknown_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBenchmarkTracer:
    @staticmethod
    def run_traced(body):
        """Run body in a fresh interpreter after installing perfbench's Tracer
        as `tracer`; returns the completed process."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys\n"
            f"sys.path.insert(0, {os.path.join(root, 'perfbench')!r})\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n" + body
        )
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)

    def test_tracer_installs(self):
        # the traced benchmark wraps module attributes by name, so every
        # name it wraps must exist
        out = self.run_traced("")
        assert out.returncode == 0, out.stderr

    def test_count_hooks_read_live_fields(self):
        # the count hooks run when an op ends and read fields of the mesh, the
        # assembled matrices, the LU factor and the certificate, so tiny traced
        # ops must count something on each of them
        out = self.run_traced(
            "import contextlib, io, json\n"
            "from spectral_certify import cli\n"
            "ops = [\n"
            "    ['spectrum', '--domain', 'square', '--m', '4', '--levels', '2'],\n"
            "    ['sweep', '--domain', 'regular:5', '--k-max', '2', '--levels', '2'],\n"
            "    ['certify', '--domain', 'square', '--k', '4', '--l', '2'],\n"
            "]\n"
            "codes = []\n"
            "for argv in ops:\n"
            "    tracer.begin_op(argv[0])\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "    tracer.end_op()\n"
            "print(json.dumps({'codes': codes, 'summary': tracer.summary()}))"
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)
        assert result["codes"] == [0, 0, 0]
        summary = result["summary"]
        for key in ("mesh.triangles", "fem.dofs", "fem.nnz", "fem.lu_fill_nnz", "certify.construct_partition.calls"):
            assert summary.get(key, 0) > 0, key


class TestReadme:
    def test_python_api_example_runs(self, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        # the example certifies k = 4, l = 2 on the unit square at the grid's
        # constant, and verifies it from the certificate alone
        cert = namespace["cert"]
        assert (cert.k, cert.l, cert.C) == (4, 2, namespace["C"])
        links = namespace["report"].links
        assert [link.name for link in links] == ["piece_count", "grid_rebuilt", "concluded_inequality"]
        assert namespace["report"].holds_all


class TestReportSkeleton:
    def test_common_fields(self, capsys):
        report = run_json(capsys, "bounds", "--k-max", "2")
        assert report["tool"] == "spectral-certify"
        assert report["command"] == "bounds"
        assert "version" in report and "config" in report and "timings" in report
