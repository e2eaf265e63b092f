"""CLI and report tests: commands, config round-trip, determinism, exits."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import fracsym
from fracsym import cases, cli
from fracsym.cli import (
    SessionConfig, _parse_args, main, run_classify, run_fracderiv,
    run_reduce, run_verify,
)
from fracsym.expr import add, func, mul, pow_, sym
from fracsym.pde import Generator, U, X
from fracsym.report import (
    STATUS_ADJUDICATED, STATUS_FAIL, STATUS_PASS, STATUS_SKIPPED, ReportDoc,
    emit_report, read_report,
)

# (alpha, g) of every classification case with a scaling
SCALING_CONFIGS = {
    "1.2": ("generic", "k*t^b"), "1.3": ("generic", "k"),
    "2.2": ("1/2", "k*t^b"), "2.3": ("1/2", "k"),
    "3.2": ("1/3", "k*t^b"), "3.3": ("1/3", "k"),
}


# the six g-forms of the catalog, and per alpha the (case, classification
# detail) of each: a detail is the catalog's refusal, None its acceptance
CATALOG_GS = ("arbitrary", "k", "k*t^b", "k*exp(b*t)", "k*(t-b)^(2/3)",
              "k*(t^2-b)^(1/3)")
_ONLY_THIRD = "g-form {} is cataloged only at alpha = 1/3"
_OFF_THIRD = [("-", _ONLY_THIRD.format("shifted-power-2/3")),
              ("-", _ONLY_THIRD.format("quad-power-1/3"))]
_ALPHA_ONE = "alpha = 1 is outside the catalog"
COVERAGE = {
    "generic": [("1.1", None), ("1.3", None), ("1.2", None), ("1.1", None),
                *_OFF_THIRD],
    "1/4": [("1.1", None), ("1.3", None), ("1.2", None), ("1.1", None),
            *_OFF_THIRD],
    "1/2": [("1.1", None), ("2.3", None), ("2.2", None), ("2.1", None),
            *_OFF_THIRD],
    "1/3": [("1.1", None), ("3.3", None), ("3.2", None), ("3.1", None),
            ("3.1", None), ("3.1", None)],
    "1": [(case, _ALPHA_ONE)
          for case in ("1.1", "1.3", "1.2", "1.1", "-", "-")],
}


# zeros that canonical form does not see: each is zero only once its terms
# are over one denominator, the last two under a power
RATIONAL_ZEROS = ("(a^2-1)/(a-1) - a - 1", "1/(1+1/a) - a/(a+1)",
                  "1/(a-1) - 1/(a+1) - 2/(a^2-1)",
                  "((a^2-1)/(a-1) - a - 1)^(1/3)",
                  "((a^2-1)/(a-1) - a - 1)^17")


def statuses(doc):
    return {c.name: c.status for c in doc.checks}


def perturb_printed_forms(monkeypatch, old, new):
    """Replace ``old`` by ``new`` in every runtime form read from now on;
    returns, per form read, whether ``old`` occurred in it."""
    parse = cases.parse_printed_form
    hits = []

    def perturbed(text, *args):
        hits.append(old in text)
        return parse(text.replace(old, new), *args)

    monkeypatch.setattr(cases, "parse_printed_form", perturbed)
    return hits


class TestSessionConfig:
    def test_round_trip(self):
        cfg = SessionConfig(alpha="1/2", g="k*t^b", m=2, n=3, zeta=-1,
                            seed=99, tol_rel=1e-9, out="report.json")
        again = SessionConfig.from_file_text(cfg.to_file_text())
        assert again == cfg

    def test_comments_and_blanks(self):
        cfg = SessionConfig.from_file_text(
            "# comment\n\nalpha = 1/3\nseed = 5\n")
        assert cfg.alpha == "1/3" and cfg.seed == 5

    def test_bad_keys_rejected(self):
        from fracsym.cli import CliError
        with pytest.raises(CliError):
            SessionConfig.from_file_text("bogus = 3\n")
        with pytest.raises(CliError):
            SessionConfig.from_file_text("m = not-a-number\n")

    def test_alpha_parsing(self):
        assert SessionConfig(alpha="generic").alpha_expr().name == "alpha"
        assert SessionConfig(alpha="1/2").alpha_expr().c == Q(1, 2)
        from fracsym.cli import CliError
        with pytest.raises(CliError):
            SessionConfig(alpha="sometimes").alpha_expr()


class TestRunClassify:
    def test_power_generic_two_generators(self):
        doc = run_classify(SessionConfig(alpha="generic", g="k*t^b"))
        assert doc.case == "1.2"
        assert len(doc.generators) == 2
        assert all(s == STATUS_PASS for s in statuses(doc).values())

    def test_half_constant_matches_printed(self):
        doc = run_classify(SessionConfig(alpha="1/2", g="k"))
        assert doc.case == "2.3"
        assert doc.generators[1] == {"xi_t": "-t", "xi_x": "1/2*x",
                                     "eta": "u"}

    def test_exponential_half(self):
        doc = run_classify(SessionConfig(alpha="1/2", g="k*exp(b*t)"))
        assert doc.case == "2.1"
        assert len(doc.generators) == 1

    def test_one_third_shifted_form(self):
        doc = run_classify(SessionConfig(alpha="1/3", g="k*(t-b)^(2/3)"))
        assert doc.case == "3.1"
        assert len(doc.generators) == 1
        assert doc.worst_status == STATUS_PASS

    @pytest.mark.parametrize("m, n, triple", [
        (2, 4, {"xi_t": "0", "xi_x": "x", "eta": "u"}),
        (1, 1, {"xi_t": "0", "xi_x": "0", "eta": "u"}),
    ])
    def test_t_free_scaling_gets_a_weight_check(self, m, n, triple):
        doc = run_classify(SessionConfig(g="k", m=m, n=n))
        assert doc.generators[1] == triple
        assert statuses(doc) == {"scaling_weights[X2]": STATUS_PASS}
        assert doc.checks[0].detail == "term weights: 1, 1, 1"

    def test_t_free_weight_check_can_fail(self, monkeypatch):
        # x d/dx + 2u d/du is no symmetry at (2, 4): its term weights differ
        monkeypatch.setattr(cli, "classify", lambda spec: [
            Generator(0, 1, 0), Generator(0, X, mul(2, U))])
        doc = run_classify(SessionConfig(g="k", m=2, n=4))
        assert statuses(doc) == {"scaling_weights[X2]": STATUS_FAIL}
        assert doc.checks[0].detail == "term weights: 2, 3, 5"

    def test_outside_catalog_reported_not_crashed(self):
        doc = run_classify(SessionConfig(alpha="1/2", g="k*(t-b)^(2/3)"))
        assert doc.worst_status == STATUS_FAIL
        assert "1/3" in doc.checks[0].detail

    @pytest.mark.parametrize("g", CATALOG_GS)
    @pytest.mark.parametrize("alpha", sorted(COVERAGE))
    def test_coverage_of_every_alpha_kind_and_g_form(self, alpha, g):
        case, detail = COVERAGE[alpha][CATALOG_GS.index(g)]
        doc = run_classify(SessionConfig(alpha=alpha, g=g))
        assert doc.case == case
        got = [c.detail for c in doc.checks if c.name == "classification"]
        assert got == ([detail] if detail else [])
        assert bool(doc.generators) == (detail is None)


class TestRunReduce:
    def test_translation_reduction(self):
        doc = run_reduce(SessionConfig(alpha="generic", g="k"), 0)
        assert doc.invariants == {"r": "t", "z": "u"}
        assert doc.reduced_ode == "fdiff(h(r), r, alpha)"
        assert statuses(doc)["kernel_solution"] == STATUS_PASS

    @pytest.mark.parametrize("alpha, g", [("generic", "k"), ("1/3", "k"),
                                          ("1/2", "k*exp(t)")])
    def test_kernel_check_reads_the_derived_ode(self, alpha, g, monkeypatch):
        # an extra h(r)^2 in the derived translation ODE fails the check
        derive = cli.similarity_substitute

        def mutated(spec, red):
            red = derive(spec, red)
            return replace(red, reduced_ode=add(
                red.reduced_ode, pow_(func("h", (sym("r"),)), 2)))

        assert statuses(run_reduce(SessionConfig(alpha=alpha, g=g), 0))[
            "kernel_solution"] == STATUS_PASS
        monkeypatch.setattr(cli, "similarity_substitute", mutated)
        doc = run_reduce(SessionConfig(alpha=alpha, g=g), 0)
        assert statuses(doc)["kernel_solution"] == STATUS_FAIL
        assert doc.checks[-1].detail.startswith("h(t) = ")

    def test_kernel_at_oracle_alpha_one_is_the_constant(self):
        # t^(alpha-1)/Gamma(alpha) at alpha = 1 is 1, the classical kernel
        doc = run_reduce(SessionConfig(oracle_alpha="1"), 0)
        rec = [c for c in doc.checks if c.name == "kernel_solution"][0]
        assert rec.status == STATUS_PASS
        assert rec.detail == "h(t) = 1 (kappa = 1)"

    @pytest.mark.parametrize("g, named", [
        ("c*t^d", "c, d"), ("_c*t", "_c"), ("c", "c"),
    ])
    def test_oracle_names_the_parameters_it_cannot_bind(self, g, named,
                                                         tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["reduce", "--g", g, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        doc = read_report(str(out))
        assert doc.reduced_ode
        assert doc.checks[-1].name == "grid_identity"
        assert doc.checks[-1].status == STATUS_FAIL
        assert doc.checks[-1].detail == (
            f"no oracle value for {named}: the grid oracle binds only "
            "alpha, b and k")

    def test_scaling_reduction_case_12(self):
        doc = run_reduce(SessionConfig(alpha="generic", g="k*t^b"), 1)
        assert statuses(doc)["printed_form[2.1]"] == STATUS_PASS
        assert statuses(doc)["grid_identity"] == STATUS_PASS

    def test_case_42_reduction(self):
        # printed at the scaling form's FD coefficient (b - alpha)^3 = -1/27:
        # the paper's 120*k*h^3 at FD coefficient 1 becomes -40/9*k*h^3
        doc = run_reduce(SessionConfig(alpha="1/3", g="k"), 1)
        assert doc.invariants == {"r": "t*x^3", "z": "u*x^(-2)"}
        assert "- 40/9*k*h(r)^3" in doc.reduced_ode
        assert doc.reduced_ode.endswith(" - 1/27*fdiff(h(r), r, 1/3)")
        assert statuses(doc)["printed_form[2.1]"] == STATUS_PASS

    def test_scaling_print_skipped_outside_k23(self):
        doc = run_reduce(SessionConfig(alpha="generic", g="k", m=5, n=1), 1)
        rec = [c for c in doc.checks if c.name == "printed_form[2.1]"][0]
        assert rec.status == STATUS_SKIPPED
        assert "(m, n) = (5, 1)" in rec.detail
        assert statuses(doc)["grid_identity"] == STATUS_PASS
        assert doc.worst_status == STATUS_PASS

    def test_x_and_u_scaling_uses_the_scaling_print(self, tmp_path, capsys):
        # at (m, n) = (2, 4) generator 1 is x*d/dx + u*d/du: not the
        # translation, so neither its print nor the kernel solution applies
        out = tmp_path / "r.json"
        assert main(["reduce", "--m", "2", "--n", "4", "--g", "k*t^b",
                     "--out", str(out)]) == 0
        doc = read_report(str(out))
        assert doc.generators == [{"xi_t": "0", "xi_x": "x", "eta": "u"}]
        assert doc.invariants == {"r": "t", "z": "u*x^(-1)"}
        rec = [c for c in doc.checks if c.name == "printed_form[2.1]"][0]
        assert rec.status == STATUS_SKIPPED
        assert "(m, n) = (2, 4)" in rec.detail
        assert statuses(doc) == {"printed_form[2.1]": STATUS_SKIPPED,
                                 "grid_identity": STATUS_PASS}

    @pytest.mark.parametrize("m, n, zeta", [(5, 1, 1), (1, 6, -1)])
    def test_translation_print_never_skipped(self, m, n, zeta):
        doc = run_reduce(SessionConfig(alpha="1/2", g="k", m=m, n=n,
                                       zeta=zeta), 0)
        assert statuses(doc)["printed_form[1]"] == STATUS_PASS

    @pytest.mark.parametrize("argv", [
        ["--case", "1.1", "--generator-index", "0"],
        ["--alpha", "1/4", "--g", "k", "--generator-index", "0"],
        ["--alpha", "1/4", "--g", "k"],
        ["--case", "3.3", "--zeta", "-1"],
        ["--alpha", "generic", "--g", "2*t^3"],
        ["--m", "5", "--n", "1", "--g", "k"],
    ])
    def test_reduce_exits_0(self, argv, capsys):
        assert main(["reduce", *argv]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_index(self):
        doc = run_reduce(SessionConfig(alpha="generic", g="k"), 5)
        assert doc.worst_status == STATUS_FAIL


class TestPrintedFormMutation:
    """A perturbed runtime form turns its check into a mismatch."""

    @pytest.mark.parametrize("case", sorted(SCALING_CONFIGS))
    def test_scaling_coefficient(self, case, monkeypatch):
        hits = perturb_printed_forms(monkeypatch, "- 6*k*r^(3+b)",
                                     "- 7*k*r^(3+b)")
        alpha, g = SCALING_CONFIGS[case]
        doc = run_reduce(SessionConfig(alpha=alpha, g=g), 1)
        assert hits == [True]
        rec = [c for c in doc.checks if c.name == "printed_form[2.1]"][0]
        assert rec.status == STATUS_ADJUDICATED
        assert "'monomial': 'r^" in rec.detail
        assert "diff(h(r), r, 1)^3" in rec.detail

    def test_an_adjudicated_mismatch_exits_2(self, monkeypatch, capsys):
        hits = perturb_printed_forms(monkeypatch, "- 6*k*r^(3+b)",
                                     "- 7*k*r^(3+b)")
        assert main(["reduce", "--case", "1.2"]) == 2
        assert hits == [True]
        out, err = capsys.readouterr()
        assert "[mismatch-adjudicated] printed_form[2.1]" in out
        assert err == ""

    @pytest.mark.parametrize("alpha, g", [("generic", "arbitrary"),
                                          ("1/3", "k")])
    def test_translation_form(self, alpha, g, monkeypatch):
        hits = perturb_printed_forms(monkeypatch, "fdiff(h(r), r, alpha)",
                                     "fdiff(h(r), r, alpha) + h(r)")
        doc = run_reduce(SessionConfig(alpha=alpha, g=g), 0)
        assert hits == [True]
        assert statuses(doc)["printed_form[1]"] == STATUS_ADJUDICATED


class TestRunVerify:
    def test_case_12_passes(self):
        cfg = SessionConfig(alpha="generic", g="k*t^b")
        doc = run_verify(cfg, ("-t", "(alpha-b)*x", "(2*alpha-b)*u"))
        assert statuses(doc)["invariance_residual"] == STATUS_PASS
        assert statuses(doc)["scaling_weights"] == STATUS_PASS

    def test_translation_passes_everywhere(self):
        for g in ("arbitrary", "k", "k*t^b", "k*exp(b*t)"):
            doc = run_verify(SessionConfig(alpha="generic", g=g),
                             ("0", "1", "0"))
            assert statuses(doc)["invariance_residual"] == STATUS_PASS, g

    def test_non_symmetry_fails_with_excerpt(self):
        doc = run_verify(SessionConfig(alpha="generic", g="k"),
                         ("-t", "x", "u"))
        rec = [c for c in doc.checks if c.name == "invariance_residual"][0]
        assert rec.status == STATUS_FAIL
        assert "residual excerpt" in rec.detail

    def test_parse_errors_per_field(self):
        doc = run_verify(SessionConfig(), ("t^^2", "1", "0"))
        assert doc.checks[0].status == STATUS_FAIL
        assert "xi_t" in doc.checks[0].detail

    @pytest.mark.parametrize("m, n, status", [
        (1, 1, STATUS_PASS), (2, 3, STATUS_FAIL),
    ])
    def test_t_free_scaling_gets_a_weight_check(self, m, n, status):
        # u d/du is a symmetry at (1, 1) only, as classify finds
        doc = run_verify(SessionConfig(g="k", m=m, n=n), ("0", "0", "u"))
        assert statuses(doc)["scaling_weights"] == status
        assert statuses(doc)["invariance_residual"] == status

    @pytest.mark.parametrize("triple, component", [
        (("u", "0", "0"), "xi_t"), (("0", "u", "0"), "xi_x"),
        (("u_x", "0", "0"), "xi_t"), (("0", "1", "u^2"), "eta"),
        (("0", "1", "u_t"), "eta"),
    ], ids=["xi_t-u", "xi_x-u", "xi_t-u_x", "eta-u^2", "eta-u_t"])
    def test_generator_outside_the_exact_prolongation_is_refused(
            self, triple, component, tmp_path, capsys):
        # a xi naming u or a jet, or an eta naming a jet or nonlinear in u:
        # the Leibniz form of eta_alpha would not be exact
        xi_t, xi_x, eta = triple
        out = tmp_path / "r.json"
        assert main(["verify", "--xi-t", xi_t, "--xi-x", xi_x, "--eta", eta,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        rec = [c for c in read_report(str(out)).checks
               if c.name == "invariance_residual"][0]
        assert rec.status == STATUS_FAIL
        assert rec.detail.startswith(f"{component} = ")
        assert "fractional prolongation" in rec.detail

    @pytest.mark.parametrize("zero", RATIONAL_ZEROS)
    def test_translation_with_a_rational_zero_passes(self, zero, capsys):
        # x times a rational function of a that is zero only once its
        # terms are over one denominator: the generator is d/dx
        assert main(["verify", "--case", "1.2", "--xi-t", "0",
                     "--xi-x", f"1 + x*({zero})", "--eta", "0"]) == 0
        assert "pass] invariance_residual" in capsys.readouterr().out

    @pytest.mark.parametrize("zero", RATIONAL_ZEROS)
    @pytest.mark.parametrize("written, plain", [
        (("0", "{}", "0"), ("0", "0", "0")),
        (("0", "1 + x*({})", "0"), ("0", "1", "0")),
        (("0", "1", "u^2*({})"), ("0", "1", "0")),
        (("t^20*({})", "1", "0"), ("0", "1", "0")),
    ], ids=["vanishing", "normal-form", "linear-in-u", "series-stop"])
    def test_a_rational_zero_gets_the_checks_of_a_plain_zero(
            self, written, plain, zero):
        # the generator's vanishing test, the parts of its normal form, the
        # linearity of eta in u and the stop of the Leibniz series each
        # decide the zero exactly: the same checks as the plain component
        def checks(triple):
            doc = run_verify(SessionConfig(alpha="generic", g="k*t^b"),
                             triple)
            return [(c.name, c.status, c.detail) for c in doc.checks]

        assert checks([w.format(zero) for w in written]) == checks(plain)

    def test_moving_the_lower_terminal_is_flagged(self):
        # constant time translation formally passes the expanded criterion
        # for constant g but shifts the memory integral's terminal
        doc = run_verify(SessionConfig(alpha="generic", g="k"),
                         ("1", "0", "0"))
        assert statuses(doc)["invariance_residual"] == STATUS_PASS
        assert statuses(doc)["lower_terminal_fixed"] == STATUS_FAIL


class TestRunFracDeriv:
    def test_linear_profile(self):
        doc = run_fracderiv(SessionConfig(alpha="1/2"), "t", 1.0)
        rec = doc.checks[0]
        assert rec.status == STATUS_PASS
        assert rec.deviation < 1e-3
        assert "1.128379" in rec.detail

    def test_kernel_exact_zero(self):
        doc = run_fracderiv(SessionConfig(alpha="1/2"),
                            "t^(a-1)/Gamma(a)", 1.0)
        rec = doc.checks[0]
        assert rec.status == STATUS_PASS
        assert "GL skipped" in rec.detail
        assert "0.0" in rec.detail

    def test_zero_expression(self):
        doc = run_fracderiv(SessionConfig(alpha="1/2"), "0", 1.0)
        assert doc.checks[0].status == STATUS_PASS

    @pytest.mark.parametrize("expr", [
        "t", "3/2*t^(3/2) + 2*t^3", "t^(a-1)/Gamma(a)", "0"])
    def test_report_prints_plain_floats(self, expr, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["frac-deriv", "--expr", expr, "--alpha", "1/2",
                     "--at", "0.5", "--out", str(path)]) == 0
        assert "np.float64(" not in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("at, dt, failing", [
        (1.0, 0.0, {"dt"}),
        (1.0, -1e-4, {"dt"}),
        (1.0, float("nan"), {"dt"}),
        (1.0, float("inf"), {"dt"}),
        (1.0, 1e-320, {"dt"}),
        (float("inf"), 1.0, {"at"}),
        (float("nan"), 1e-4, {"at"}),
        (0.0, 1e-4, {"at"}),
        (-1.0, 1e-4, {"at"}),
        (float("nan"), -1.0, {"at", "dt"}),
        (1.0, 1e-13, {"dt"}),
    ])
    def test_grid_inputs_fail_by_name(self, at, dt, failing):
        doc = run_fracderiv(SessionConfig(alpha="1/2", dt=dt), "t", at)
        assert statuses(doc) == {name: STATUS_FAIL for name in failing}
        assert all(f"--{c.name} " in c.detail for c in doc.checks)

    @pytest.mark.parametrize("flags, name", [
        (["--dt", "0"], "dt"), (["--at", "inf", "--dt", "1"], "at"),
        (["--at", "nan"], "at"), (["--dt", "-0.0001"], "dt"),
        (["--dt", "1e-13"], "dt")])
    def test_grid_inputs_exit_1_with_a_report(self, flags, name, capsys):
        argv = ["frac-deriv", "--expr", "t", "--alpha", "1/2", "--at", "1"]
        assert main(argv + flags) == 1
        out, err = capsys.readouterr()
        assert f"fail] {name} -- --{name} " in out and err == ""


class TestEmitAndRead:
    def test_round_trip(self, tmp_path):
        doc = run_classify(SessionConfig(alpha="generic", g="k"))
        path = tmp_path / "report.json"
        emit_report(doc, path=str(path), stream=io.StringIO())
        again = read_report(str(path))
        assert again.as_dict() == doc.as_dict()

    def test_schema_field_names(self):
        doc = run_classify(SessionConfig(alpha="generic", g="k"))
        assert set(doc.as_dict()) == {
            "case", "generators", "invariants", "reduced_ode", "checks",
            "config", "version"}

    def test_byte_identical_for_same_config(self, tmp_path):
        cfg = SessionConfig(alpha="1/2", g="k", seed=7,
                            out=str(tmp_path / "r.json"))
        blobs = []
        for _ in range(2):
            doc = run_reduce(cfg, 1)
            blobs.append(emit_report(doc, path=cfg.out,
                                     stream=io.StringIO()))
        assert blobs[0] == blobs[1]
        assert (tmp_path / "r.json").read_bytes() == blobs[1].encode()

    def test_skipped_counts_as_pass(self):
        doc = ReportDoc(case="x")
        doc.add_check("a", STATUS_PASS)
        doc.add_check("b", STATUS_SKIPPED, detail="does not apply")
        assert doc.worst_status == STATUS_PASS
        out = io.StringIO()
        emit_report(doc, stream=out)
        assert "skipped] b -- does not apply" in out.getvalue()

    def test_unwritable_path(self):
        doc = ReportDoc(case="x")
        with pytest.raises(OSError):
            emit_report(doc, path="/nonexistent-dir/report.json",
                        stream=io.StringIO())


class TestHugeConstants:
    """Constants beyond the float range end in a report, not a traceback."""

    @pytest.mark.parametrize("argv, code, check", [
        (["frac-deriv", "--expr", "(10^400)^(1/2)*t", "--alpha", "1/2",
          "--at", "1"], 0, "power_rule_vs_gl"),
        (["frac-deriv", "--expr", "10^400*t", "--alpha", "1/2", "--at", "1"],
         1, "profile"),
        (["verify", "--xi-t", "t", "--xi-x", "(10^400)^(1/3)*x",
          "--eta", "u"], 1, "invariance_residual"),
    ], ids=["root-folds", "constant", "verify-root"])
    def test_ends_in_a_report(self, argv, code, check, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == code
        assert check in statuses(read_report(str(out)))


def _limit_memory():
    import resource
    limit = 3 << 29  # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _child_env():
    src = str(pathlib.Path(fracsym.__file__).resolve().parents[1])
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_bounded(argv, tmp_path):
    """Run the CLI in a child process with an address-space limit and a
    timeout, because a signal cannot interrupt long integer work in C."""
    pytest.importorskip("resource")
    return subprocess.run(
        [sys.executable, "-m", "fracsym.cli", *argv,
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=10, env=_child_env(),
        preexec_fn=_limit_memory)


def test_series_past_its_bound_ends_in_a_named_check(tmp_path):
    # without the bound, eta_alpha would sum 10^6 series orders
    from fracsym.symmetry import MAX_SERIES_ORDER
    proc = _run_bounded(["verify", "--xi-t", "t^(10^6)", "--xi-x", "0",
                         "--eta", "0"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    rec = [c for c in read_report(str(tmp_path / "r.json")).checks
           if c.name == "invariance_residual"][0]
    assert rec.status == STATUS_FAIL
    assert rec.detail == (
        "the Leibniz series of eta_alpha runs past its bound of "
        f"{MAX_SERIES_ORDER} orders: the t-degree of xi_t is too high")


class TestHugeExactPowers:
    """Exact powers too large to compute end at once: in one error line, or
    in a report when the power is kept unevaluated."""

    @pytest.mark.parametrize("argv, code", [
        (["classify", "--g", "3^(10^9)"], 1),
        (["frac-deriv", "--expr", "3^(10^9)", "--alpha", "1/2", "--at", "1"],
         1),
        (["classify", "--g", "k*2^(1/1000000000)"], 0),
        (["classify", "--g", "k*(2+t)^(10^9)"], 1),
    ], ids=["classify", "frac-deriv", "root", "sum-lead"])
    def test_ends_within_the_timeout(self, argv, code, tmp_path):
        proc = _run_bounded(argv, tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count("error:") <= 1
        assert "Traceback" not in proc.stderr
        if code:
            assert proc.stderr.startswith(
                "error: exact power too large to fold")


class TestHugeGammaShift:
    """A Gamma argument with a huge constant part stays unshifted instead of
    becoming a product of that many factors, so g ends in the catalog
    error like any other Gamma coefficient."""

    @pytest.mark.parametrize("g", ["k*Gamma(t+10^9)", "k*Gamma(t+10^9+1/2)"])
    def test_ends_in_the_catalog_error(self, g, tmp_path):
        proc = _run_bounded(["classify", "--g", g], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(
            f"error: coefficient '{g}' is not in the g(t) catalog")
        assert proc.stderr.count("\n") == 1


class TestNumpyStaysUnloaded:
    """Only the GL kernel and the sampler need NumPy, so a fresh interpreter
    running the symbolic commands never loads it; frac-deriv does."""

    CHILD = """
import contextlib, io, json, sys
from fracsym.cli import main
seen = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[" ".join(argv)] = [code, "numpy" in sys.modules]
import fracsym
seen["exports"] = [fracsym.Grid.__name__, fracsym.gl_rl_derivative.__name__]
print(json.dumps(seen))
"""
    SYMBOLIC = [
        ["classify", "--case", "1.2"],
        ["reduce", "--case", "3.3"],
        ["reduce", "--case", "2.1", "--generator-index", "0"],
        ["verify", "--alpha", "1/2", "--g", "k", "--xi-t", "0",
         "--xi-x", "1", "--eta", "0"],
    ]
    GL = ["frac-deriv", "--expr", "t^2", "--alpha", "1/2", "--at", "1"]

    def test_only_frac_deriv_loads_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD,
             json.dumps(self.SYMBOLIC + [self.GL])],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen.pop("import") is False
        assert seen.pop("exports") == ["Grid", "gl_rl_derivative"]
        runs = list(seen.values())
        assert runs[:-1] == [[0, False]] * len(self.SYMBOLIC), seen
        assert runs[-1] == [0, True], seen


BIG = 10 ** 400


class TestFloatRange:
    """Numbers beyond the float range end in a report whose failing check
    names the cause, or in one error line; nothing escapes main."""

    @pytest.mark.parametrize("flags, code, cause", [
        (["--expr", "t", "--alpha", f"{BIG}/3"], 1,
         "alpha -- alpha must be in (0, 1)"),
        (["--expr", "t^142", "--alpha", "1/2"], 1, "power_rule_vs_gl"),
        (["--expr", "Gamma(150)*t", "--alpha", "1/2"], 0, "power_rule_vs_gl"),
        (["--expr", "Gamma(172)*t", "--alpha", "1/2"], 1,
         "profile -- coefficient of t*Gamma(172) is not numeric: "
         "gamma overflows a float at 172.0"),
        (["--expr", "t^200", "--alpha", "1/2"], 1,
         "error: power rule value overflows a float"),
        (["--expr", "t^(10^400)", "--alpha", "1/2"], 1,
         "error: power rule value overflows a float"),
        (["--expr", "t^(-10^400)", "--alpha", "1/2"], 1,
         "error: power rule value overflows a float"),
        # the Gamma ratio and t^(169.5) fit in a float, their product not
        (["--expr", "t^(170)", "--alpha", "1/2", "--at", "65"], 1,
         "error: power rule value overflows a float at t = 65.0"),
        # the power rule at t^(119.5) fits in a float, the samples do not
        (["--expr", "t^(120)", "--alpha", "1/2", "--at", "372"], 1,
         "error: sampled value overflows a float at t = 370.5"),
        (["--expr", "t", "--alpha", "0.999", "--at", "5e-324",
          "--dt", "5e-324"], 1,
         "error: GL scale dt^-alpha overflows a float at dt = 5e-324"),
    ], ids=["huge-alpha", "t^142", "Gamma(150)", "Gamma(172)", "t^200",
            "t^(10^400)", "t^(-10^400)", "t^170-at-65", "t^120-at-372",
            "subnormal-dt"])
    def test_frac_deriv(self, flags, code, cause, capsys):
        # a row's own --at overrides the default point t = 1
        assert main(["frac-deriv", "--at", "1", *flags]) == code
        out, err = capsys.readouterr()
        assert cause in out + err
        assert err == "" or (err.startswith("error: ") and out == ""
                             and err.count("\n") == 1)

    @given(
        st.one_of(st.integers(-5, 400), st.integers(-BIG, BIG)),
        st.one_of(st.integers(1, 7), st.integers(1, BIG)),
        st.one_of(st.fractions(0, 1, max_denominator=10),
                  st.builds(Q, st.integers(-BIG, BIG), st.integers(1, BIG))),
        # up to 400: t^p overflows a sample before its power rule overflows
        # only for t > p, so 2.0 never reached the sampler's overflow
        st.one_of(st.floats(0.01, 2.0), st.floats(2.0, 400.0)))
    @example(120, 1, Q(1, 2), 372.0)
    @settings(max_examples=60, deadline=None)
    def test_frac_deriv_never_raises(self, num, den, alpha, at):
        argv = ["frac-deriv", "--expr", f"t^({num}/{den}) + t",
                f"--alpha={alpha}", "--at", repr(at), "--dt", "0.01"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1
        assert "Warning" not in err.getvalue()


DELETE = object()


def _set(path, value):
    """A report mutation: the field at ``path`` (keys and indices) set to
    ``value``, or deleted when value is DELETE."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value
    return mutate


class TestReadReportShape:
    """report --in checks the shape of the file it reads."""

    @pytest.mark.parametrize("mutate, field", [
        (_set(("checks", 0), 1), "checks[0] must be an object"),
        (_set(("generators", 0), "X1"), "generators[0] must be an object"),
        (_set(("generators", 0, "eta"), DELETE), "generators[0].eta"),
        (_set(("invariants",), [1]), "invariants"),
        (_set(("checks", 0, "status"), "weird"), "checks[0].status"),
        (_set(("checks", 0, "deviation"), "small"), "checks[0].deviation"),
        (_set(("checks", 0, "name"), 3), "checks[0].name"),
        (_set(("case",), DELETE), "case"),
        (_set(("config",), "alpha = 1/2"), "config"),
    ])
    def test_malformed_file_is_a_one_line_error(self, mutate, field,
                                                tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["reduce", "--case", "2.3", "--out", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        mutate(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--in", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: report field {field}")

    def test_a_list_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: report must be a JSON object\n"

    @pytest.mark.parametrize("argv", [
        ["reduce", "--case", "2.3"], ["classify", "--case", "1.2"],
        ["frac-deriv", "--expr", "t^(3/2)", "--alpha", "1/3", "--at", "1"]])
    def test_emitted_reports_round_trip(self, argv, tmp_path, capsys):
        path = tmp_path / "r.json"
        main(argv + ["--out", str(path)])
        assert read_report(str(path)).to_json() \
            == path.read_text(encoding="utf-8")


class TestMainEntry:
    @pytest.mark.parametrize("case", ["1.1", "1.2", "1.3", "2.1", "2.2",
                                      "2.3", "3.1", "3.2", "3.3"])
    def test_every_catalog_case_addressable(self, case, capsys):
        assert main(["classify", "--case", case]) == 0
        out = capsys.readouterr().out
        assert f"case {case}" in out

    def test_verify_failure_exit_code(self, capsys):
        code = main(["verify", "--xi-t", "-t", "--xi-x", "x", "--eta", "u",
                     "--g", "k"])
        assert code == 1

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "session.cfg"
        cfg_file.write_text("alpha = 1/2\ng = k\nseed = 3\n")
        assert main(["classify", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "case 2.3" in out
        assert main(["classify", "--config", str(cfg_file),
                     "--alpha", "1/3"]) == 0
        out = capsys.readouterr().out
        assert "case 3.3" in out

    def test_report_command_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "doc.json"
        assert main(["classify", "--case", "1.3", "--out",
                     str(out_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(out_path)]) == 0
        assert "case 1.3" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["frac-deriv", "--expr", "t^2", "--alpha", "1/0", "--at", "1"],
         "--alpha"),
        (["reduce", "--case", "1.2", "--oracle-alpha", "1/0"],
         "--oracle-alpha"),
        (["reduce", "--case", "1.2", "--oracle-b", "1/0"], "--oracle-b"),
        (["reduce", "--case", "1.2", "--oracle-k", "1/0"], "--oracle-k"),
        (["reduce", "--case", "1.2", "--oracle-b", "x"], "--oracle-b"),
    ], ids=["alpha", "oracle-alpha", "oracle-b", "oracle-k", "oracle-b-text"])
    def test_bad_rational_is_a_one_line_error(self, argv, flag, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_rational_is_a_value_not_a_flag(self, capsys):
        argv = ["frac-deriv", "--expr", "t", "--alpha", "-1/3", "--at", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "fail] alpha -- alpha must be in (0, 1)" in out and err == ""

    def test_negative_value_folds_like_an_equals_sign(self, tmp_path, capsys):
        path = tmp_path / "report.json"    # the report records its path
        reports = []
        for flags in (["--oracle-b", "-1/2"], ["--oracle-b=-1/2"]):
            main(["reduce", "--case", "1.2", *flags, "--out", str(path)])
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        assert b'"oracle_b": "-1/2"' in reports[0]
        assert capsys.readouterr().err == ""

    def test_unknown_function_is_a_failing_parse_check(self, capsys):
        argv = ["frac-deriv", "--expr", "f(t)", "--alpha", "1/2", "--at", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "fail] parse -- unknown function 'f'" in out and err == ""

    def test_oracle_k_is_not_bound_into_an_opaque_g(self, capsys):
        """The opaque g(t) holds no k, so an oracle k of 0 leaves it as it is;
        a g = k*t^b it would zero is refused."""
        argv = ["reduce", "--case", "1.1", "--generator-index", "0",
                "--oracle-k", "0"]
        assert main(argv) == 0
        assert main(["reduce", "--case", "1.2", "--oracle-k", "0"]) == 1
        assert capsys.readouterr().err == \
            "error: coefficient k must be nonvanishing\n"

    def test_error_exit_is_one(self, capsys):
        assert main(["report", "--in", "/no/such/file.json"]) == 1

    @pytest.mark.parametrize("argv", [
        ["classify", "--truncation", "5"], ["verify"],
        ["classify", "--zeta", "2"], ["bogus"],
    ], ids=["removed-flag", "missing-flags", "bad-choice", "unknown-command"])
    def test_usage_error_is_a_one_line_error(self, argv, capsys):
        # exit 2 is the code of an adjudicated mismatch, never of a usage
        # error
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: fracsym")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_reduce_cli(self, capsys):
        assert main(["reduce", "--case", "3.3", "--generator-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "t*x^3" in out


class TestAlphaInExpressions:
    """alpha inside --g and --xi-t/--xi-x/--eta is the --alpha value."""

    ARGV = ["--g", "k*t^(2*alpha)", "--alpha", "1/2"]

    def test_classify(self, capsys):
        assert main(["classify", *self.ARGV]) == 0
        out = capsys.readouterr().out
        assert "X2: xi_t = -t; xi_x = -1/2*x; eta = 0" in out

    def test_reduce(self, capsys):
        assert main(["reduce", *self.ARGV]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("alpha", ["alpha", "1/2"])
    def test_verify(self, alpha, capsys):
        argv = ["verify", "--alpha", "1/2", "--g", "k*t^b", "--xi-t", "-t",
                "--xi-x", f"({alpha}-b)*x", "--eta", f"(2*{alpha}-b)*u"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pass] invariance_residual" in out
        assert "pass] scaling_weights" in out


@pytest.mark.parametrize("command", [
    ["classify"], ["reduce"],
    ["verify", "--xi-t", "0", "--xi-x", "1", "--eta", "0"],
])
def test_exponent_in_t_is_outside_the_catalog(command, capsys):
    assert main([*command, "--g", "t^t"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coefficient 't^t' is not in the g(t) "
                          "catalog")
    assert err.count("\n") == 1


@pytest.mark.parametrize("g", ["0", *RATIONAL_ZEROS,
                               "k*((a^2-1)/(a-1) - a - 1)^(1/3)"])
def test_a_vanishing_g_is_outside_the_catalog(g, capsys):
    # a g that is zero only over a common denominator gets the error of 0
    assert main(["classify", "--g", g]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: coefficient '{g}' is not in the g(t) "
                          "catalog")
    assert err.count("\n") == 1


# a t-free coefficient may be a sum: mul expands (k+1)*t^b into two terms
# that share one t-part
@pytest.mark.parametrize("g, case, scaling", [
    ("(k+1)*t^b", "1.2", True),
    ("(k+1)*exp(b*t)", "1.1", False),
    ("k*t^b + t^b", "1.2", True),
])
def test_a_t_free_sum_coefficient_is_in_the_catalog(g, case, scaling,
                                                     capsys):
    assert main(["classify", "--g", g]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"case {case} ")
    assert ("pass] scaling_weights[X2]" in out) is scaling


class TestEarlyExits:
    """Exits that end a call before its main work: each at exit 1, in one
    error line or in one named failing check."""

    def test_reduce_outside_the_catalog_stops_at_classification(self,
                                                                capsys):
        assert main(["reduce", "--alpha", "1"]) == 1
        out, err = capsys.readouterr()
        assert "fail] classification -- alpha = 1 is outside the catalog" \
            in out
        assert "X1:" not in out and err == ""

    def test_reduce_without_x_monomial_invariants(self, capsys):
        assert main(["reduce", "--m", "3", "--n", "3", "--g", "k"]) == 1
        out, err = capsys.readouterr()
        assert ("fail] reduction -- scaling without an x-component admits "
                "no x-monomial invariants") in out
        assert err == ""

    def test_frac_deriv_needs_a_numeric_alpha(self, capsys):
        assert main(["frac-deriv", "--expr", "t", "--at", "1"]) == 1
        assert capsys.readouterr() == \
            ("", "error: a numeric --alpha is required here\n")

    def test_config_line_without_a_key_value_pair(self, tmp_path, capsys):
        path = tmp_path / "session.cfg"
        path.write_text("alpha = 1/2\nno equals sign\n")
        assert main(["classify", "--config", str(path)]) == 1
        assert capsys.readouterr() == \
            ("", "error: config line 2: expected key = value\n")

    def test_unreadable_config(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main(["classify", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot read config: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, stream", [
    (["reduce", "--case", "3.1", "--m", "2", "--n", "4",
      "--generator-index", "1", "--zeta", zeta], "err")
    for zeta in ("1", "-1")
] + [
    (["frac-deriv", "--expr", "(-8)^(1/3)*t", "--alpha", "1/2", "--at", "1"],
     "out"),
], ids=["reduce-zeta+1", "reduce-zeta-1", "frac-deriv"])
def test_a_power_that_is_not_real_fails_by_name(argv, stream, capsys):
    # a negative float to a fractional power is complex in Python: the
    # grid oracle's g = (t-2)^(2/3) at t < 2, and the constant (-8)^(1/3)
    assert main(argv) == 1
    captured = capsys.readouterr()
    text = getattr(captured, stream)
    assert "power evaluation failed: " in text and " is not real" in text
    if stream == "err":
        assert captured.out == ""
        assert text.startswith("error: ") and text.count("\n") == 1
    else:
        assert "fail] profile" in text and captured.err == ""


@pytest.mark.parametrize("g, named", [
    ("k*exp(x*t)", "x"), ("x", "x"), ("u", "u"), ("u_x", "u_x"), ("r", "r"),
])
@pytest.mark.parametrize("command", ["classify", "reduce"])
def test_g_naming_a_variable_is_a_one_line_error(command, g, named, capsys):
    assert main([command, "--g", g]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: g(t) may not name the equation's variables: {named}\n"


def test_g_cannot_name_an_ansatz_unknown(capsys):
    # the unknowns of the determining system are no parsable symbols, so a
    # parameter _c of g is one more constant
    assert main(["classify", "--g", "_c*t"]) == 0
    named = capsys.readouterr()
    assert main(["classify", "--g", "k*t"]) == 0
    assert named == capsys.readouterr()


def test_a_nullspace_vector_failing_reverification_is_named(
        monkeypatch, capsys):
    # u d/du is no symmetry of case 1.2: slipped into the nullspace, it
    # must end the classification instead of vanishing from the basis
    from fracsym import symmetry
    real = symmetry.DeterminingSystem.nullspace
    monkeypatch.setattr(symmetry.DeterminingSystem, "nullspace",
                        lambda self: [*real(self), (0, 0, 0, 1)])
    assert main(["classify", "--case", "1.2"]) == 1
    out = capsys.readouterr().out
    assert "fail] classification -- nullspace vector fails " \
        "re-verification: 0; 0; u\n" in out
    assert "X1:" not in out


def test_solving_subcommands_share_the_common_flags():
    common = ["--case", "1.2", "--zeta", "-1", "--m", "3", "--dt", "0.5"]
    own = {"classify": [], "reduce": [],
           "verify": ["--xi-t", "0", "--xi-x", "1", "--eta", "0"],
           "frac-deriv": ["--expr", "t", "--at", "1"]}
    for command, flags in own.items():
        args = _parse_args([command, *common, *flags])
        assert (args.case, args.zeta, args.m, args.dt) == ("1.2", -1, 3, 0.5)
        assert args.alpha is None and args.seed is None


def test_value_flags_are_the_options_that_take_a_value():
    taking = set()
    for command in cli._COMMANDS:
        parser = cli._add_flags(cli._Parser(prog="fracsym"), command)
        taking.update(flag for action in parser._actions
                      if action.nargs != 0 for flag in action.option_strings)
    assert cli._VALUE_FLAGS == taking


class TestPerCallWork:
    """Work each CLI call does once: guards against its silent return."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--case", "1.1"],
        ["reduce", "--case", "1.1", "--generator-index", "0"],
        ["verify", "--xi-t", "0", "--xi-x", "1", "--eta", "0"],
        ["frac-deriv", "--expr", "t", "--alpha", "1/2", "--at", "1",
         "--dt", "0.01"],
        ["report", "--in"],
    ], ids=lambda argv: argv[0])
    def test_main_builds_one_parser(self, argv, tmp_path, monkeypatch,
                                    capsys):
        if argv[0] == "report":
            path = str(tmp_path / "report.json")
            assert main(["classify", "--case", "1.1", "--out", path]) == 0
            argv = [*argv, path]
        real = cli._Parser.__init__
        built = []

        def spy(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", spy)
        main(argv)
        assert capsys.readouterr().err == ""
        assert len(built) == 1

    @pytest.mark.parametrize("case", sorted(cases.CLASSIFICATION_CASES))
    def test_classify_builds_one_residual(self, case, monkeypatch):
        import fracsym.symmetry as symmetry
        real = symmetry.invariance_residual
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(symmetry, "invariance_residual", spy)
        symmetry.classify(cases.spec_for_case(case))
        assert len(calls) == 1
