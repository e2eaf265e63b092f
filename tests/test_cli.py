"""CLI and report tests: commands, config round-trip, determinism, exits."""

import io
from fractions import Fraction as Q

import pytest

from fracsym import cases
from fracsym.cli import (
    SessionConfig, main, run_classify, run_fracderiv, run_reduce, run_verify,
)
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


def statuses(doc):
    return {c.name: c.status for c in doc.checks}


def perturb_printed_forms(monkeypatch, old, new):
    """Replace ``old`` by ``new`` in every runtime form read from now on;
    returns, per form read, whether ``old`` occurred in it."""
    parse = cases.parse_printed_form
    hits = []

    def perturbed(text):
        hits.append(old in text)
        return parse(text.replace(old, new))

    monkeypatch.setattr(cases, "parse_printed_form", perturbed)
    return hits


class TestSessionConfig:
    def test_round_trip(self):
        cfg = SessionConfig(alpha="1/2", g="k*t^b", m=2, n=3, zeta=-1,
                            truncation=7, seed=99, tol_rel=1e-9,
                            out="report.json")
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
        assert SessionConfig(alpha="1/2").alpha_expr().value == Q(1, 2)
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

    def test_outside_catalog_reported_not_crashed(self):
        doc = run_classify(SessionConfig(alpha="1/2", g="k*(t-b)^(2/3)"))
        assert doc.worst_status == STATUS_FAIL
        assert "1/3" in doc.checks[0].detail


class TestRunReduce:
    def test_translation_reduction(self):
        doc = run_reduce(SessionConfig(alpha="generic", g="k"), 0)
        assert doc.invariants == {"r": "t", "z": "u"}
        assert doc.reduced_ode == "fdiff(h(r), r, alpha)"
        assert statuses(doc)["kernel_solution"] == STATUS_PASS

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
    ])
    def test_grid_inputs_fail_by_name(self, at, dt, failing):
        doc = run_fracderiv(SessionConfig(alpha="1/2", dt=dt), "t", at)
        assert statuses(doc) == {name: STATUS_FAIL for name in failing}
        assert all(f"--{c.name} " in c.detail for c in doc.checks)

    @pytest.mark.parametrize("flags, name", [
        (["--dt", "0"], "dt"), (["--at", "inf", "--dt", "1"], "at"),
        (["--at", "nan"], "at"), (["--dt", "-0.0001"], "dt")])
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

    def test_error_exit_is_one(self, capsys):
        assert main(["report", "--in", "/no/such/file.json"]) == 1

    def test_reduce_cli(self, capsys):
        assert main(["reduce", "--case", "3.3", "--generator-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "t*x^3" in out
