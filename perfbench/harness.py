"""Closed-loop client for ``fracsym.cli.main(argv)``, run in-process:
the next call starts only after the previous one returns.

Only the time inside ``main`` is a call's latency; file reads, hashing and
reference checks happen between calls, outside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
from dataclasses import dataclass, field

from reference import check_call
from tracing import SPAN_MODULES, SPANNED, COUNTED, EXTRA_COUNTS, STAGE_NAMES, \
    Tracer

CATALOG_KINDS = ("classify", "reduce_translation", "reduce_scaling")


@dataclass
class Failure:
    index: int
    label: str
    rc: int
    cause: str
    wrong: bool
    times: int = 0


@dataclass
class PassResult:
    latencies: list            # seconds per call, in pass order
    wall: float                # whole pass, harness work included
    digests: list              # sha256 of each call's report, or None


@dataclass
class Session:
    """Runs passes over one call list and checks every outcome."""

    calls: list
    cli: object                # the fracsym.cli module; main is looked up
                               # per call, so a patched main is the one run
    tracer: Tracer | None = None
    digests: dict = field(default_factory=dict)     # index -> first digest
    failures: dict = field(default_factory=dict)    # index -> Failure
    attempted: int = 0
    failed: int = 0
    _verdicts: dict = field(default_factory=dict)

    def run_call(self, index: int, call):
        try:
            os.remove(call.out)
        except FileNotFoundError:
            pass
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_call(index, call.kind)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(call.full_argv())
            except SystemExit as exc:       # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 1
        latency = time.perf_counter() - start
        try:
            with open(call.out, "rb") as fh:
                report = fh.read()
        except FileNotFoundError:
            report = None
        return latency, rc, err.getvalue(), report

    def run_pass(self) -> PassResult:
        latencies, digests = [], []
        start = time.perf_counter()
        for index, call in enumerate(self.calls):
            latency, rc, stderr, report = self.run_call(index, call)
            digest = None if report is None else \
                hashlib.sha256(report).hexdigest()
            latencies.append(latency)
            digests.append(digest)
            self._judge(index, call, rc, stderr, report, digest)
        return PassResult(latencies, time.perf_counter() - start, digests)

    def _judge(self, index, call, rc, stderr, report, digest):
        first = self.digests.setdefault(index, digest)
        key = (index, rc, stderr, digest)
        if key not in self._verdicts:
            self._verdicts[key] = check_call(call, rc, stderr, report)
        verdict = self._verdicts[key]
        if digest != first:
            verdict = (True, "report bytes differ from the first pass")
        self.attempted += 1
        if verdict is None:
            return
        wrong, cause = verdict
        fail = self.failures.setdefault(
            index, Failure(index, call.label(), rc, cause, wrong))
        self.failed += 1
        fail.times += 1

    def reports_digest(self) -> str:
        blob = "\n".join(f"{i} {self.digests[i]}" for i in sorted(self.digests))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_for(session: Session, seconds: float, tracer: Tracer | None = None):
    """One warm-up call (lazy imports, first file access), then whole
    passes while the next one fits in the budget, at least two so that
    every report is compared across passes.  With a tracer, untraced and
    traced passes alternate, so both see the same machine conditions."""
    session.run_call(0, session.calls[0])
    plain, traced = [], []
    budget_start = time.perf_counter()
    while True:
        plain.append(session.run_pass())
        if tracer is not None:
            session.tracer = tracer
            with tracer.patched():
                traced.append(session.run_pass())
            session.tracer = None
        elapsed = time.perf_counter() - budget_start
        per_round = elapsed / len(plain)
        if len(plain) >= 2 and elapsed + per_round > seconds:
            return plain, traced


def _p90(values: list) -> float:
    """By the inclusive method: no extrapolation past the largest sample."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(session: Session, passes: list, setup_s: float,
               peak_rss_mb: float) -> dict:
    lat = [x for p in passes for x in p.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (len(lat) / sum(lat), "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_p90_ms": (_p90(lat) * 1e3, "ms"),
        "ok_share": ((session.attempted - session.failed) / session.attempted,
                     "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(session: Session, plain: list, traced: list,
              tracer: Tracer) -> dict:
    n = len(traced)
    out = {}
    for name in SPANNED:
        out[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        out[f"{name}.s"] = (tracer.inclusive[name] / n, "s")
    for module in SPAN_MODULES:
        out[f"{module}.self_s"] = (tracer.self_time[module] / n, "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (tracer.calls[name] / n, "count")
    for name in EXTRA_COUNTS:
        out[name] = (tracer.counts[name] / n, "count")
    wall = sum(p.wall for p in traced)
    out["trace.wall_s"] = (wall / n, "s")
    out["trace.uncovered_s"] = ((wall - tracer.root_time) / n, "s")
    out["trace.overhead_s"] = (
        statistics.median(sum(p.latencies) for p in traced)
        - statistics.median(sum(p.latencies) for p in plain), "s")

    kind_of = [c.kind for c in session.calls]
    for kind in CATALOG_KINDS:
        k_calls = kind_of.count(kind) * n
        for stage in STAGE_NAMES:
            total = tracer.stage_time[(kind, stage)]
            out[f"split.{kind}.{stage}_ms"] = (
                total / k_calls * 1e3 if k_calls else 0.0, "ms")
        lat = [p.latencies[i] for p in plain
               for i, k in enumerate(kind_of) if k == kind]
        out[f"{kind}_p50_ms"] = (
            statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    return {k: (int(v) if unit == "count" and float(v).is_integer() else v,
                unit) for k, (v, unit) in out.items()}
