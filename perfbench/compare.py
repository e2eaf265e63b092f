#!/usr/bin/env python3
"""Compare saved outputs of run.py, one workload at a time.

    python3 perfbench/compare.py --base a1.log a2.log ... --head b1.log ...

Prints each metric's median and quartiles per side.  Refuses (exit 2) to
compare runs of different workloads or different Grünwald-Letnikov
backends: a compiled kernel against the NumPy fallback moves ``oracle``
about 3x.  Says whether both sides ran the same generated inputs (the
call-list digests of equal seeds agree).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str):
    stamp = result = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("stamp "):
                stamp = json.loads(line[len("stamp "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if stamp is None or result is None:
        raise SystemExit(f"error: {path} holds no stamp and result")
    return stamp, result


def _summary(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:12.5g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    sides = {name: [load(p) for p in paths]
             for name, paths in (("base", args.base), ("head", args.head))}
    runs = sides["base"] + sides["head"]
    for key in ("workload", "gl_backend"):
        values = {stamp[key] for stamp, _ in runs}
        if len(values) > 1:
            print(f"refusing to compare: {key} differs ({sorted(values)})",
                  file=sys.stderr)
            return 2

    inputs = {name: {(s["seed"], s["calls_digest"]) for s, _ in side}
              for name, side in sides.items()}
    same = inputs["base"] == inputs["head"]
    print(f"workload {runs[0][0]['workload']}, GL backend "
          f"{runs[0][0]['gl_backend']}, inputs "
          f"{'identical' if same else 'DIFFER'} on both sides")
    for name, side in sides.items():
        shas = sorted({s["git_sha"][:12] + ("+dirty" if s["git_dirty"] else "")
                       for s, _ in side})
        failed = sum(r["failed"] for _, r in side)
        attempted = sum(r["attempted"] for _, r in side)
        print(f"{name}: {len(side)} runs of {', '.join(shas)}; "
              f"failed {failed} of {attempted}")
    metrics = list(runs[0][1]["metrics"])
    print(f"{'metric':44s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s}")
    for m in metrics:
        cells = []
        for side in sides.values():
            values = [r["metrics"][m]["value"] for _, r in side
                      if m in r["metrics"]]
            cells.append(_summary(values) if values else "-")
        unit = runs[0][1]["metrics"][m]["unit"]
        print(f"{m + ' (' + unit + ')':44s} {cells[0]:>32s} {cells[1]:>32s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
