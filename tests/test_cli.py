"""Command-line harness: exit codes, report shape, determinism, config
precedence, and the JSON/CSV number round trip."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spectral_certify
from spectral_certify import certify, cli, fem, mesh
from spectral_certify.cli import (
    EXIT_CERTIFY,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    default_gallery,
    main,
    parse_domain,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestDomainParsing:
    def test_known_forms(self):
        assert parse_domain("square").kind == "rectangle"
        spec = parse_domain("rect:2:1")
        assert spec.parameters == {"length_x": 2.0, "length_y": 1.0}
        spec = parse_domain("regular:8:2.5")
        assert spec.parameters == {"sides": 8, "circumradius": 2.5}

    def test_gallery_contents(self):
        names = [d.name for d in default_gallery()]
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
        # the coarse grid alone has ~10M points and the fine one ~41M: the
        # net must be refused before any grid is built
        def no_grid(*args, **kwargs):
            raise AssertionError("a net grid was built")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "certify", "--domain", "rect:10:10", "--k", "40", "--l", "40", "--C", "0.025"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "separation" in err
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("text", ["3", "null", '{"vertices": {"x": 1}}'])
    def test_domain_file_not_a_polygon_object(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", "--domain", f"file:{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("invalid input:")

    def test_certify_given_constant_builds_every_cell(self, capsys, monkeypatch):
        # only the search caps its probes: the failing net certificate of a
        # given constant is built and emitted whole
        partition = certify.voronoi_partition
        site_counts = []

        def counted(P, sites):
            site_counts.append(len(sites))
            return partition(P, sites)

        monkeypatch.setattr(certify, "voronoi_partition", counted)
        code, out, _ = run(
            capsys, "certify", "--domain", "rect:10:10", "--k", "40", "--l", "40", "--C", "0.5"
        )
        assert code == EXIT_CERTIFY
        cert = json.loads(out)["results"]["certificate"]
        assert site_counts == [cert["l_prime"]] == [len(cert["cells"])] == [394]

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

    def test_closed_form_column_on_rectangles(self, capsys):
        report = run_json(
            capsys, "spectrum", "--domain", "rect:2:1", "--m", "4", "--levels", "4"
        )
        rows = report["results"]["eigenvalues"]
        assert rows[1]["closed_form"] == pytest.approx(math.pi**2 / 4.0, rel=1e-12)
        assert rows[1]["value"] == pytest.approx(rows[1]["closed_form"], rel=5e-3)
        assert "upper_diameter" in rows[1] and "lower_diameter" in rows[1]

    def test_json_csv_numbers_match(self, capsys):
        args = ["spectrum", "--domain", "square", "--m", "5", "--levels", "3"]
        report = run_json(capsys, *args)
        code, out, _ = run(capsys, *args, "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row, entry in zip(rows, report["results"]["eigenvalues"]):
            # repr round trip: the parsed CSV float is bit-identical
            assert float(row[1]) == entry["value"]


class TestBoundsCommand:
    def test_table_shape(self, capsys):
        report = run_json(capsys, "bounds", "--domain", "regular:6", "--k-max", "5")
        rows = report["results"]["bounds"]
        assert len(rows) == 5
        assert all(row["provenance"] == "formula" for row in rows)
        assert "lower_diameter" in rows[0]
        assert all("lower_diameter" not in row for row in rows[1:])

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "bounds", "--format", "csv")
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "k,upper_diameter,upper_area,lower_diameter,provenance"


class TestCertifyCommand:
    def test_square_pair_verifies(self, capsys):
        report = run_json(capsys, "certify", "--domain", "square", "--k", "4", "--l", "2")
        res = report["results"]
        assert res["C_searched"] is True
        assert res["certificate"]["chain_ok"] is True
        assert res["chain"]["holds_all"] is True
        assert res["chain"]["minimal_C"] == res["C"]

    def test_identity_pair_single_cell(self, capsys):
        report = run_json(capsys, "certify", "--k", "1", "--l", "1")
        cert = report["results"]["certificate"]
        assert cert["l_prime"] == 1
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

    def test_csv_chain_table(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--k", "2", "--l", "1", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "lhs", "rhs", "ratio", "holds"]
        names = [r[0] for r in rows[1:]]
        assert "piece_count" in names and "lower_bound_vs_reference" in names


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

    def test_ratio_cap_enforced(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--domain", "square", "--k-max", "10", "--ratio-cap", "1.0"
        )
        assert code == EXIT_CERTIFY
        report = json.loads(out)
        assert report["results"]["ratio_cap_ok"] is False
        assert report["results"]["overall_max_ratio"] > 1.0

    def test_plot_dir_files(self, capsys, tmp_path):
        plot_dir = tmp_path / "plots"
        report = run_json(
            capsys,
            "sweep",
            "--domain",
            "rect:2:1",
            "--k-max",
            "4",
            "--plot-dir",
            str(plot_dir),
        )
        path = plot_dir / "sweep_rect_2x1.csv"
        assert path.exists()
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["k", "l", "x_index_ratio", "y_measured_constant"]
        assert len(rows) == 1 + 4 * 5 // 2
        entry = report["results"]["domains"][0]["entries"][0]
        assert float(rows[1][3]) == entry["ratio"]

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
        # counted where either module would look the sandwich up
        calls = []
        sandwich = cli.rectangle_sandwich

        def counting(P):
            calls.append(P.n)
            return sandwich(P)

        monkeypatch.setattr(cli, "rectangle_sandwich", counting)
        monkeypatch.setattr(certify, "rectangle_sandwich", counting)
        for domain, sides in (("regular:6", 6), ("square", 4)):
            calls.clear()
            report = run_json(capsys, "sweep", "--domain", domain, "--k-max", "5")
            assert calls == [sides]
            assert list(report["results"]["domains"][0]["chains"]) == ["1", "2", "3", "4", "5"]

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


class TestImport:
    @staticmethod
    def spatial_imported(code):
        src = os.path.dirname(os.path.dirname(spectral_certify.__file__))
        code += "\nprint('scipy.spatial' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.strip().splitlines()[-1]

    def test_scipy_spatial_not_imported(self):
        # scipy.spatial (which pulls in scipy.special) would add ~0.1 s to
        # every start of the command
        assert self.spatial_imported("import sys, spectral_certify.cli") == "False"

    def test_certify_runs_without_scipy_spatial(self):
        # the net, Voronoi and pair checks all use the bucket grid in _kernels
        code = (
            "import sys, contextlib, io, spectral_certify.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert c.main(['certify', '--domain', 'square', '--k', '24', '--l', '24']) == 0\n"
            "    assert c.main(['certify', '--domain', 'rect:10:10', '--k', '40', '--l', '40',"
            " '--C', '0.5']) == 4"
        )
        assert self.spatial_imported(code) == "False"


class TestBenchmarkTracer:
    def test_tracer_installs(self):
        # the traced benchmark wraps module attributes by name, so every
        # name it wraps must exist
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys\n"
            f"sys.path.insert(0, {os.path.join(root, 'perfbench')!r})\n"
            "from spans import Tracer\n"
            "Tracer().install()"
        )
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


class TestReportSkeleton:
    def test_common_fields(self, capsys):
        report = run_json(capsys, "bounds", "--k-max", "2")
        assert report["tool"] == "spectral-certify"
        assert report["command"] == "bounds"
        assert "version" in report and "config" in report and "timings" in report
