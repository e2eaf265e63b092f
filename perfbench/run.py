#!/usr/bin/env python3
"""fracsym benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``catalog`` (the paper's nine cases through
classify / translation reduce / scaling reduce), ``oracle`` (frac-deriv on
power sums, the Grünwald-Letnikov kernel) and ``verify`` (given
generators, half of them off the algebra).

Every call's outputs are checked against references that do not come from
the program (reference.py).  Before the result the run prints a failure
ledger (one line per failing call) and a ``stamp`` line with the
environment and the digest of the generated call list.  The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a run whose traced passes alternate with untraced
ones.  Per-layer counts and times are per pass (averaged over the traced
passes); ``split.*`` are per call of that catalog kind; ``*_p50_ms`` come
from the untraced passes of the same run.  Spans of the traced run go to
``.perfbench_work/<workload>/spans.jsonl``.

``compare.py`` compares two saved outputs of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
SETUP_REPEATS = 5

sys.path.insert(0, HERE)

from harness import Session, end_to_end, per_layer, run_for  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, calls_digest, calls_for  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing fracsym.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fracsym.cli"],
                       env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git(*args) -> str | None:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir) or shutil.which("git") is None:
        return None
    try:
        proc = subprocess.run(["git", f"--git-dir={git_dir}",
                               f"--work-tree={ROOT}", *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import fracsym

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gl_backend": fracsym.GL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracsym", "cli.py")):
        print(f"error: no fracsym sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)          # report paths in argv are relative to the root
    sys.path.insert(0, SRC)
    import fracsym.cli
    if not os.path.abspath(fracsym.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported {fracsym.cli.__file__}, not the copy under "
              f"{SRC}", file=sys.stderr)
        return 2

    outdir = os.path.join(WORK, args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    calls = calls_for(args.workload, args.seed, outdir)
    setup_s = measure_setup()
    env = environment()

    session = Session(calls, fracsym.cli)
    tracer = Tracer() if args.trace else None
    plain, traced = run_for(session, args.seconds, tracer)
    if tracer is not None:
        metrics = per_layer(session, plain, traced, tracer)
        tracer.write_spans(os.path.join(outdir, "spans.jsonl"))
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(session, plain, setup_s, peak)

    for fail in sorted(session.failures.values(), key=lambda f: f.index):
        tag = "WRONG" if fail.wrong else "FAILED"
        print(f"{tag} call {fail.index:03d} x{fail.times} exit={fail.rc} "
              f"{fail.label} :: {fail.cause}")
    lat = [x for p in plain for x in p.latencies]
    stamp = dict(env, workload=args.workload, seed=args.seed,
                 calls_digest=calls_digest(calls),
                 reports_digest=session.reports_digest(),
                 calls_per_pass=len(calls), passes=len(plain),
                 traced_passes=len(traced), samples=len(lat),
                 samples_beyond_p90=len(lat) - int(0.9 * len(lat)))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not any(f.wrong for f in session.failures.values()),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
