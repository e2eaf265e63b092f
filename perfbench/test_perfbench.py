"""The benchmark's own tests:  python3 -m pytest perfbench -q"""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import fracsym.cli  # noqa: E402

from harness import Session, end_to_end, per_layer  # noqa: E402
from reference import PAPER_TABLE, check_call, proportional  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import calls_for, calls_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _sample_calls(outdir):
    """A few cheap calls that still reach every traced layer."""
    catalog = [c for c in calls_for("catalog", 0, outdir + "/c")
               if c.argv[2] == "3.3"]
    oracle = [c for c in calls_for("oracle", 0, outdir + "/o")
              if c.expect["at"] == "0.5"][:1]
    verify = calls_for("verify", 0, outdir + "/v")[:3]
    return catalog + oracle + verify


@pytest.fixture
def calls(tmp_path):
    for sub in "cov":
        (tmp_path / sub).mkdir()
    return _sample_calls(str(tmp_path))


def _traced_pass(calls):
    session, tracer = Session(calls, fracsym.cli), Tracer()
    session.tracer = tracer
    with tracer.patched():
        result = session.run_pass()
    return session, tracer, result


def _fracsym_bindings():
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fracsym" or mod_name.startswith("fracsym."):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        out[(mod_name, key, attr)] = raw
    return out


def test_metric_names_follow_the_contract(calls):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    names = e2e + layer
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), \
        [n for n in names if not NAME.fullmatch(n)]

    session = Session(calls, fracsym.cli)
    plain = [session.run_pass()]
    assert list(end_to_end(session, plain, 0.1, 1.0)) == e2e
    _, tracer, traced = _traced_pass(calls)
    assert list(per_layer(session, plain, [traced], tracer)) == layer


def test_traced_run_restores_every_patched_attribute(calls):
    before = _fracsym_bindings()
    _, tracer, _ = _traced_pass(calls)
    after = _fracsym_bindings()
    assert tracer.restored, "nothing was patched"
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_traced_and_untraced_runs_write_identical_reports(calls):
    plain = Session(calls, fracsym.cli).run_pass()
    _, _, traced = _traced_pass(calls)
    assert all(plain.digests)
    assert plain.digests == traced.digests


def test_counts_repeat_across_traced_runs(calls):
    names = ("expr.mul.calls", "symmetry.determining_equations",
             "fracnum.gl_points", "report.bytes")
    seen = []
    for _ in range(2):
        session, tracer, traced = _traced_pass(calls)
        layer = per_layer(session, [traced], [traced], tracer)
        seen.append({n: layer[n][0] for n in names})
    assert seen[0] == seen[1]
    assert all(seen[0].values()), seen[0]


def test_module_self_times_and_gaps_add_up_to_wall(calls):
    session, tracer, traced = _traced_pass(calls)
    layer = per_layer(session, [traced], [traced], tracer)
    total = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
    total += layer["trace.uncovered_s"][0]
    assert total == pytest.approx(layer["trace.wall_s"][0], rel=1e-9)


def test_same_seed_same_calls_other_seed_other_calls():
    for workload in ("catalog", "oracle", "verify"):
        a = calls_digest(calls_for(workload, 7, "w"))
        assert a == calls_digest(calls_for(workload, 7, "w"))
        assert a != calls_digest(calls_for(workload, 8, "w"))


def test_references_can_fail():
    scaling = PAPER_TABLE["3.3"][1]
    assert proportional(("3*t", "-x", "-2*u"), scaling)
    assert not proportional(("-3*t", "x", "3*u"), scaling)
    assert not proportional(("0", "0", "0"), scaling)

    classify = types.SimpleNamespace(kind="classify", expect={"case": "3.3"})
    report = {"generators": [dict(zip(("xi_t", "xi_x", "eta"), g))
                             for g in PAPER_TABLE["3.3"]], "checks": []}
    assert check_call(classify, 0, "", json.dumps(report).encode()) is None
    report["generators"][1]["eta"] = "u"
    wrong, cause = check_call(classify, 0, "", json.dumps(report).encode())
    assert wrong and "not proportional" in cause

    oracle = types.SimpleNamespace(
        kind="frac_deriv",
        expect={"terms": [["1", "2"]], "alpha": "1/2", "at": "1"})
    detail = "power rule 1.5045055561, GL[python] np.float64({}) at t=1.0"
    for value, ok in (("1.5045", True), ("1.52", False)):
        report = {"checks": [{"name": "power_rule_vs_gl", "status": "pass",
                              "detail": detail.format(value)}]}
        verdict = check_call(oracle, 0, "", json.dumps(report).encode())
        assert (verdict is None) == ok

    shifted = types.SimpleNamespace(kind="verify",
                                    expect={"variant": "c_shift"})
    passed = {"checks": [{"name": "invariance_residual", "status": "pass"}]}
    wrong, cause = check_call(shifted, 0, "", json.dumps(passed).encode())
    assert wrong and "should fail invariance_residual" in cause


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_gl_backends(tmp_path):
    import compare

    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}
    paths = []
    for backend in ("python", "compiled"):
        stamp = {"workload": "oracle", "gl_backend": backend, "seed": 1,
                 "calls_digest": "d", "git_sha": "x", "git_dirty": False}
        path = tmp_path / f"{backend}.log"
        path.write_text(f"stamp {json.dumps(stamp)}\n{json.dumps(result)}\n")
        paths.append(str(path))
    assert compare.main(["--base", paths[0], "--head", paths[0]]) == 0
    assert compare.main(["--base", paths[0], "--head", paths[1]]) == 2
