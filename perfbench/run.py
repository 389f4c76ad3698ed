#!/usr/bin/env python3
"""End-to-end benchmark of spectral-certify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; the package is imported from ``src``.
Workloads (see workloads.py):

  spectrum-fine   spectrum --m 13 on square at --levels 7 and rect:10:1 at --levels 6
  sweep-gallery   sweep --k-max 12 --levels 4, one op per gallery domain
  certify-search  certify square k=l=24 with C searched, certify rect:10:10
                  k=l=40 at C=0.5 (net case), each certificate reloaded
                  with PartitionCertificate.from_json and re-verified

A pass runs every op of the workload once in a fresh worker process, a
closed loop of one client with one BLAS thread.  Passes repeat while the
next one is expected to end within S seconds, and at least twice, so that
report digests can be compared between passes.  Set-up is the import of
spectral_certify, timed in each pass and in extra import-only processes;
every metric is the median over its samples.  The seed picks the rigid
motion applied to every domain (workloads.py); seed 0 is the identity.

--trace 0 reports wall_s (the program's time for one pass), setup_s and
peak_rss_mb (peak resident set of a pass process).  --trace 1 alternates
untraced and traced passes and reports the per-layer self times and
counts of the traced ones, plus the tracing overhead.  The last line of
output is one JSON object; the lines above it are for people.  Details,
including the environment, per-op digests and the spans, go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2
RUN_BUDGET_S = 170.0
# one BLAS thread: on a shared 2-core machine two threads made the
# eigensolve about 3x slower and far noisier, as they wait on each other
BLAS_THREADS = 1

# metric names and units come from BENCHMARK.json; a traced run reports
# every per-layer metric, with 0 where the layer does not run on the workload
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Run:
    """Worker processes of one benchmark run, and the working directory
    they share; close() removes the directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.work = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
        self.inputs = os.path.join(self.work, "inputs")
        workloads.write_domains(self.inputs, seed, workloads.shapes_of(workload))
        src = os.path.join(ROOT, "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.started = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def worker(self, *flags) -> dict | None:
        """One worker process; None when it fails or runs out of time."""
        self.count += 1
        out = os.path.join(self.work, f"result-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out, *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or not os.path.exists(out):
            return None
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_sample(self) -> dict | None:
        return self.worker("--setup-only")

    def one_pass(self, traced: bool) -> dict | None:
        flags = ["--workload", self.workload, "--inputs", self.inputs]
        return self.worker(*flags, *(["--trace"] if traced else []))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def pass_wall(p: dict) -> float:
    return sum(op.get("wall_s", 0.0) for op in p["ops"])


def quality(p: dict) -> dict:
    """Workload outputs that are not times: worst FEM error against the
    closed form, and the constant the certificate search returned."""
    out = {}
    for op in p["ops"]:
        facts = op.get("facts", {})
        if "max_rel_err" in facts:
            out["max_rel_err"] = max(out.get("max_rel_err", 0.0), facts["max_rel_err"])
        if op["op"] == "certify:square:search" and "C" in facts:
            out["certified_C"] = facts["C"]
    return out


def layer_metrics(p: dict, wall_untraced: float) -> dict:
    layers = p["layers"]
    m = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}

    def ratio(num, den):
        return layers.get(num, 0) / layers[den] if layers.get(den) else 0.0

    m["fem.distinct_solve_ratio"] = ratio("fem.distinct_solves", "fem.neumann_spectrum.calls")
    m["kernels.greedy_net.kept_ratio"] = ratio("kernels.greedy_net.kept", "kernels.greedy_net.candidates")
    m["certify.search_verified_ratio"] = ratio("certify.search_verified", "certify.search_constructs")
    q = quality(p)
    m["fem.max_rel_err"] = q.get("max_rel_err", 0.0)
    m["certify.certified_C"] = q.get("certified_C", 0.0)
    m["trace.overhead_s"] = pass_wall(p) - wall_untraced
    return m


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run passes of one workload; return the aggregated result."""
    run = Run(workload, seed)
    try:
        setups = [s["setup_s"] for s in (run.setup_sample() for _ in range(SETUP_SAMPLES)) if s]
        passes, failed_passes = [], 0
        start = time.perf_counter()
        last = 0.0
        # start another pass while it is expected to end within the run
        while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
            if run.remaining() < 0:
                break
            # a traced run alternates untraced and traced passes
            traced_pass = traced and len(passes) % 2 == 1
            t0 = time.perf_counter()
            p = run.one_pass(traced_pass)
            last = time.perf_counter() - t0
            if p is None:
                failed_passes += 1
                break
            p["traced"] = traced_pass
            passes.append(p)
    finally:
        run.close()
    setups += [p["setup_s"] for p in passes]
    return summarize(workload, seed, traced, setups, passes, failed_passes)


def summarize(workload, seed, traced, setups, passes, failed_passes) -> dict:
    n_ops = len(workloads.workload_ops(workload, ""))
    attempted = n_ops * (len(passes) + failed_passes)
    failed = n_ops * failed_passes + sum(1 for p in passes for op in p["ops"] if op.get("problems"))
    # byte stability: every pass must give each op the same digest
    digests = {}
    unstable = set()
    for p in passes:
        for op in p["ops"]:
            if digests.setdefault(op["op"], op.get("digest")) != op.get("digest"):
                unstable.add(op["op"])
    failed += len(unstable)
    correct = failed == 0 and bool(passes) and all(len(p["ops"]) == n_ops for p in passes)
    plain = [p for p in passes if not p["traced"]]
    walls = [pass_wall(p) for p in plain]
    e2e = {}
    if plain and setups:
        e2e = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    layers = {}
    traced_passes = [p for p in passes if p["traced"]]
    if traced_passes and walls:
        per_pass = [layer_metrics(p, statistics.median(walls)) for p in traced_passes]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "unstable_digests": sorted(unstable),
        "end_to_end": e2e,
        "quality": quality(passes[0]) if passes else {},
        "layers": layers,
        "wall_samples": walls,
        "setup_samples": setups,
        "env": passes[0]["env"] if passes else None,
        "passes": [
            {key: p[key] for key in ("traced", "setup_s", "peak_rss_mb", "ops")} for p in passes
        ],
        "spans": traced_passes[0]["spans"] if traced_passes else [],
    }


def result_line(res: dict) -> dict:
    if res["trace"]:
        wanted = {name: (res["layers"].get(name), unit) for name, unit in PER_LAYER.items()}
    else:
        wanted = {name: (res["end_to_end"].get(name), unit) for name, unit in END_TO_END.items()}
    correct = res["correct"] and all(v is not None for v, _ in wanted.values())
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in wanted.items() if v is not None},
    }


def describe(res: dict) -> list:
    """Human-readable lines: environment, ops, and every metric with its unit."""
    lines = [f"# {res['workload']} seed={res['seed']} trace={res['trace']} env={json.dumps(res['env'])}"]
    for p in res["passes"]:
        for op in p["ops"]:
            status = "ok" if not op.get("problems") else "FAILED " + "; ".join(op["problems"])
            lines.append(
                f"  {'traced' if p['traced'] else 'plain '} {op['op']:<26} "
                f"{op.get('wall_s', float('nan')):9.3f} s  {status}  {json.dumps(op.get('facts', {}))}"
            )
    rows = [(name, res["end_to_end"].get(name), unit) for name, unit in END_TO_END.items()]
    rows.append(("failed_ops_ratio", res["failed"] / res["attempted"], "failed/attempted"))
    for name, value in res["quality"].items():
        rows.append((name, value, "1"))
    rows += [(name, res["layers"][name], PER_LAYER[name]) for name in res["layers"]]
    lines += [f"  {name:<40} {value!r:>24} {unit}" for name, value, unit in rows]
    return lines


def save(res: dict) -> None:
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spectral_certify", "__init__.py")):
        print(f"no spectral_certify package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        save(res)
        print("\n".join(describe(res)), flush=True)
        lines.append(result_line(res))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps(dict(zip(names, lines))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
