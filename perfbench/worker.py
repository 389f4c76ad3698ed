"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --inputs DIR --out FILE [--trace] [--setup-only]

Times the import of spectral_certify first (set-up), then runs every op
of the workload once, timing only the program's own calls, and checks
each output.  The result goes to FILE as JSON.  The caller sets
PYTHONPATH so that ``spectral_certify`` is the package under ``src``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _import_program():
    import spectral_certify
    from spectral_certify import certify, cli

    return spectral_certify, certify, cli


def run_cli(cli, argv):
    """Run one command as the console script would; returns (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_pass(workload, inputs, trace):
    import workloads

    spectral_certify, certify, cli = _import_program()
    setup_s = time.perf_counter() - _T0
    from_json = certify.PartitionCertificate.from_json
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        from_json = tracer.wrap("certify.from_json", from_json)

    records, reports = [], {}
    for op in workloads.workload_ops(workload, inputs):
        if tracer:
            tracer.begin_op(op.name)
        rec = {"op": op.name}
        if op.argv is not None:
            t0 = time.perf_counter()
            code, text = run_cli(cli, op.argv)
            rec["wall_s"] = time.perf_counter() - t0
            rec["exit_code"] = code
            if tracer:
                tracer.end_op()
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                rec["problems"] = [f"exit code {code}, no JSON report"]
                records.append(rec)
                continue
            reports[op.name] = report
            rec["digest"] = workloads.report_digest(report)
            try:
                rec["problems"], rec["facts"] = workloads.CHECKS[op.argv[0]](op, code, report)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                rec["problems"] = [f"malformed report: {exc!r}"]
        else:
            source = reports.get(op.verifies.name)
            if source is None:
                rec["problems"] = ["no certificate to reload"]
                records.append(rec)
                continue
            text = json.dumps(source["results"]["certificate"])
            mu_l = source["results"]["mu_l"]
            t0 = time.perf_counter()
            cert = from_json(text)
            chain = certify.verify_certificate(cert, mu_l)
            rec["wall_s"] = time.perf_counter() - t0
            if tracer:
                tracer.counts["certify.cert_json_bytes"] += len(text.encode())
                tracer.end_op()
            links = chain.to_dict()["links"]
            cells = [c.vertices.tolist() for c in cert.cells]
            rec["digest"] = workloads.report_digest({"links": links})
            rec["problems"], rec["facts"] = workloads.check_reverified(op, source, links, cells)
        records.append(rec)

    result = {
        "setup_s": setup_s,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(spectral_certify),
    }
    if tracer:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.spans
    return result


def _blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy bundle, read
    from the library itself; None where it cannot be queried."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    out[pkg.__name__] = fn()
                    break
    return out or None


def environment(spectral_certify):
    import platform

    import numpy
    import scipy

    from spectral_certify import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spectral_certify": spectral_certify.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        _import_program()
        result = {"setup_s": time.perf_counter() - _T0}
    else:
        result = run_pass(args.workload, args.inputs, args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
