"""Command-line interface: classify / reduce / verify / frac-deriv / report.

Exit codes: 0 when every check passes, 2 when an adjudicated mismatch was
found, 1 on errors (including failed verification).

A config file of ``key = value`` lines may preset any flag; flags override
the file.  Rational values are written as ``p/q`` strings and stay exact;
bare decimals are accepted only for numeric-only flags (``--at``, ``--dt``,
``--tol-rel``).
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction as Q

from . import __version__
from .cases import (
    CLASSIFICATION_CASES, classification_case, load_printed_form,
    reduction_key_for, resolve_case_key,
)
from .expr import (
    Expr, Num, ExprError, ZERO,
    mul, num, sym, substitute, to_text,
)
from .fracnum import (
    FracConfig, gl_rl_derivative, power_profile, rl_power_rule,
    relative_deviation, sample_power_sum, UnsupportedProfileError,
    GL_BACKEND,
)
from .parser import ParseError, parse_expression
from .pde import (
    CoeffForm, CoeffTag, Generator, PdeSpec, PdeModelError,
    ScalingWeights, coeff_form_from_text, scaling_invariance_check,
    term_weights,
)
from .reduction import (
    ReductionError, characteristic_invariants, compare_reduced_forms,
    kernel_solution, reduced_residual_identity_check, similarity_substitute,
)
from .report import (
    STATUS_ADJUDICATED, STATUS_FAIL, STATUS_PASS,
    ReportDoc, emit_report, read_report,
)
from .symmetry import (
    OutsideCatalogError, SymmetryError, UnsupportedAnsatzError,
    invariance_residual,
)

__all__ = ["SessionConfig", "run_classify", "run_reduce", "run_verify",
           "run_fracderiv", "main"]

GL_CHECK_TOLERANCE = 1e-3


class CliError(Exception):
    pass


@dataclass
class SessionConfig:
    """All run parameters; round-trips through the key = value format."""

    alpha: str = "generic"
    g: str = "arbitrary"
    m: int = 2
    n: int = 3
    zeta: int = 1
    truncation: int = 5
    seed: int = 1234
    tol_rel: float = 1e-8
    out: str = ""
    oracle_alpha: str = "1/4"
    oracle_b: str = "2"
    oracle_k: str = "1"
    dt: float = 1e-4

    def alpha_expr(self) -> Expr:
        if self.alpha == "generic":
            return sym("alpha")
        try:
            return num(Q(self.alpha))
        except (ValueError, ZeroDivisionError):
            raise CliError(
                f"--alpha must be 'generic' or a rational p/q, got "
                f"{self.alpha!r}") from None

    def alpha_float(self) -> float:
        if self.alpha == "generic":
            raise CliError("a numeric --alpha is required here")
        try:
            return float(Q(self.alpha))
        except ValueError:
            return float(self.alpha)

    def coeff_form(self) -> CoeffForm:
        return coeff_form_from_text(self.g)

    def spec(self) -> PdeSpec:
        return PdeSpec(alpha=self.alpha_expr(), m=self.m, n=self.n,
                       zeta=self.zeta, g=self.coeff_form())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_file_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.as_dict().items())

    @classmethod
    def from_file_text(cls, text: str) -> "SessionConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"config line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg = _apply_config_value(cfg, key, value, where=f"line {lineno}")
        return cfg


_INT_KEYS = {"m", "n", "zeta", "truncation", "seed"}
_FLOAT_KEYS = {"tol_rel", "dt"}


def _apply_config_value(cfg: SessionConfig, key: str, value: str,
                        where: str) -> SessionConfig:
    key = key.replace("-", "_")
    if key not in {f.name for f in fields(SessionConfig)}:
        raise CliError(f"config {where}: unknown key {key!r}")
    if key in _INT_KEYS:
        try:
            return replace(cfg, **{key: int(value)})
        except ValueError:
            raise CliError(f"config {where}: {key} needs an integer") from None
    if key in _FLOAT_KEYS:
        try:
            return replace(cfg, **{key: float(value)})
        except ValueError:
            raise CliError(f"config {where}: {key} needs a number") from None
    return replace(cfg, **{key: value})


def _seeded_points(cfg: SessionConfig, count: int = 20,
                   low: float = 0.5, high: float = 2.0):
    rng = random.Random(cfg.seed)
    return [(rng.uniform(low, high), rng.uniform(low, high))
            for _ in range(count)]


def _oracle_bindings(cfg: SessionConfig, spec: PdeSpec) -> dict:
    """Numeric values for whatever parameters are still symbolic."""
    binding: dict[str, Expr] = {}
    if not isinstance(spec.alpha, Num):
        binding["alpha"] = num(Q(cfg.oracle_alpha))
    for name, default in (("b", cfg.oracle_b), ("k", cfg.oracle_k)):
        binding[name] = num(Q(default))
    return binding


def _numeric_spec(cfg: SessionConfig, spec: PdeSpec) -> PdeSpec:
    binding = _oracle_bindings(cfg, spec)
    alpha = binding.get("alpha", spec.alpha)
    g = CoeffForm(spec.g.tag,
                  k=substitute(spec.g.k, binding),
                  b=substitute(spec.g.b, binding))
    return PdeSpec(alpha=alpha, m=spec.m, n=spec.n, zeta=spec.zeta, g=g)


# ---------------------------------------------------------------------------
# commands


def run_classify(cfg: SessionConfig) -> ReportDoc:
    """Classify, then verify every generator through the invariance residual."""
    from .symmetry import classify

    spec = cfg.spec()
    case_key = resolve_case_key(spec) or "-"
    doc = ReportDoc(case=case_key, config=cfg.as_dict())
    try:
        gens = classify(spec, M=cfg.truncation)
    except (OutsideCatalogError, SymmetryError, PdeModelError) as exc:
        doc.add_check("classification", STATUS_FAIL, detail=str(exc))
        return doc

    for i, gen in enumerate(gens):
        doc.generators.append(dict(zip(("xi_t", "xi_x", "eta"),
                                       gen.as_text_triple())))
        residual = invariance_residual(spec, gen, M=cfg.truncation)
        if residual == ZERO:
            doc.add_check(f"invariance_residual[X{i + 1}]", STATUS_PASS)
        else:
            doc.add_check(f"invariance_residual[X{i + 1}]", STATUS_FAIL,
                          detail=f"residual excerpt: {to_text(residual)[:160]}")
        nf = gen.normal_form()
        if nf is not None and spec.g.weight_homogeneous and nf[0] != ZERO:
            e, _, a1, c = nf
            ok = scaling_invariance_check(spec, ScalingWeights(e, a1, c))
            weights = term_weights(spec, ScalingWeights(e, a1, c))
            doc.add_check(
                f"scaling_weights[X{i + 1}]",
                STATUS_PASS if ok else STATUS_FAIL,
                detail="term weights: " + ", ".join(to_text(w) for w in weights))
    return doc


def run_reduce(cfg: SessionConfig, generator_index: int) -> ReportDoc:
    """Invariants, derived reduced ODE, stored-form comparison, grid oracle."""
    from .symmetry import classify

    spec = cfg.spec()
    case_key = resolve_case_key(spec) or "-"
    doc = ReportDoc(case=case_key, config=cfg.as_dict())
    try:
        gens = classify(spec, M=cfg.truncation)
    except (OutsideCatalogError, SymmetryError, PdeModelError) as exc:
        doc.add_check("classification", STATUS_FAIL, detail=str(exc))
        return doc
    if not 0 <= generator_index < len(gens):
        doc.add_check("generator-index", STATUS_FAIL,
                      detail=f"index {generator_index} outside 0..{len(gens) - 1}")
        return doc
    gen = gens[generator_index]
    doc.generators.append(dict(zip(("xi_t", "xi_x", "eta"),
                                   gen.as_text_triple())))
    try:
        red = characteristic_invariants(gen)
        red = similarity_substitute(spec, red)
    except (ReductionError, PdeModelError) as exc:
        doc.add_check("reduction", STATUS_FAIL, detail=str(exc))
        return doc

    doc.invariants = {"r": to_text(red.r_expr), "z": to_text(red.z_expr)}
    doc.reduced_ode = to_text(red.reduced_ode)
    reduction_key = reduction_key_for(case_key, red.translation_case) \
        if case_key in CLASSIFICATION_CASES else None

    if reduction_key is not None:
        printed = load_printed_form(reduction_key)
        comparison = compare_reduced_forms(red.reduced_ode, printed)
        # present the derivation at the stored form's normalization
        doc.reduced_ode = to_text(comparison.normalized_derived())
        if comparison.all_equal:
            doc.add_check(f"printed_form[{reduction_key}]", STATUS_PASS,
                          detail=f"{len(comparison.entries)} coefficients equal")
        else:
            lines = [f"{m.as_record()}" for m in comparison.mismatches()]
            doc.add_check(f"printed_form[{reduction_key}]", STATUS_ADJUDICATED,
                          detail="; ".join(lines))

    # grid oracle on a numeric specialization
    binding = _oracle_bindings(cfg, spec)
    nspec = _numeric_spec(cfg, spec)
    from dataclasses import replace as dreplace
    nred = dreplace(
        red,
        p=substitute(red.p, binding),
        q=substitute(red.q, binding),
        normalization_power=substitute(red.normalization_power, binding),
        reduced_ode=substitute(red.reduced_ode, binding),
    )
    points = _seeded_points(cfg)
    worst = 0.0
    r = sym("r")
    for h_test in (r, mul(r, r), mul(r, r, r)):
        worst = max(worst, reduced_residual_identity_check(
            nspec, nred, h_test, points))
    status = STATUS_PASS if worst <= cfg.tol_rel else STATUS_FAIL
    doc.add_check("grid_identity", status, deviation=worst,
                  detail=f"h in {{r, r^2, r^3}} at {len(points)} points")

    if red.translation_case:
        ks = kernel_solution(Q(cfg.oracle_alpha) if cfg.alpha == "generic"
                             else Q(cfg.alpha), 1)
        doc.add_check(
            "kernel_solution", STATUS_PASS if ks.annihilated else STATUS_FAIL,
            detail=f"h(t) = {to_text(ks.expr)} (kappa = 1)")
    return doc


def run_verify(cfg: SessionConfig, triple) -> ReportDoc:
    """Residual check for explicit infinitesimals, plus the weight table."""
    spec = cfg.spec()
    doc = ReportDoc(case=resolve_case_key(spec) or "-", config=cfg.as_dict())
    parsed = []
    errors = []
    for name, src in zip(("xi_t", "xi_x", "eta"), triple):
        try:
            parsed.append(parse_expression(src))
        except ParseError as exc:
            errors.append(f"{name}: {exc}")
    if errors:
        doc.add_check("parse", STATUS_FAIL, detail="; ".join(errors))
        return doc
    try:
        gen = Generator(*parsed)
    except PdeModelError as exc:
        doc.add_check("generator", STATUS_FAIL, detail=str(exc))
        return doc
    doc.generators.append(dict(zip(("xi_t", "xi_x", "eta"),
                                   gen.as_text_triple())))
    try:
        residual = invariance_residual(spec, gen, M=cfg.truncation)
    except (UnsupportedAnsatzError, SymmetryError) as exc:
        doc.add_check("invariance_residual", STATUS_FAIL, detail=str(exc))
        return doc
    if residual == ZERO:
        doc.add_check("invariance_residual", STATUS_PASS)
    else:
        doc.add_check("invariance_residual", STATUS_FAIL,
                      detail=f"residual excerpt: {to_text(residual)[:160]}")

    # the RL lower terminal sits at t = 0; a generator moving it does not
    # map the memory structure to itself even when the Leibniz-expanded
    # criterion is formally satisfied
    from fracsym.expr import is_zero_exact
    xi_t_at_0 = substitute(gen.xi_t, {"t": ZERO})
    if not is_zero_exact(xi_t_at_0):
        doc.add_check(
            "lower_terminal_fixed", STATUS_FAIL,
            detail=f"xi_t(t=0) = {to_text(xi_t_at_0)} shifts the lower "
                   "terminal of the memory integral")

    nf = gen.normal_form()
    if nf is not None and spec.g.weight_homogeneous and (
            nf[0] != ZERO or nf[2] != ZERO):
        e, _, a1, c = nf
        try:
            weights = term_weights(spec, ScalingWeights(e, a1, c))
            ok = scaling_invariance_check(spec, ScalingWeights(e, a1, c))
            doc.add_check(
                "scaling_weights", STATUS_PASS if ok else STATUS_FAIL,
                detail="term weights: " + ", ".join(to_text(w) for w in weights))
        except PdeModelError:
            pass
    return doc


def run_fracderiv(cfg: SessionConfig, expr_text: str, at: float) -> ReportDoc:
    """Power-rule and Grünwald-Letnikov values of D^alpha of an expression."""
    doc = ReportDoc(case="frac-deriv", config=cfg.as_dict())
    alpha = cfg.alpha_float()
    if not 0 < alpha < 1:
        doc.add_check("alpha", STATUS_FAIL, detail="alpha must be in (0, 1)")
    at_ok = 0 < at < math.inf
    if not at_ok:
        doc.add_check("at", STATUS_FAIL,
                      detail=f"--at must be finite and > 0 (the RL lower "
                             f"terminal is 0), got {at!r}")
    if not 0 < cfg.dt < math.inf:
        doc.add_check("dt", STATUS_FAIL,
                      detail=f"--dt must be finite and > 0, got {cfg.dt!r}")
    elif at_ok and not at / cfg.dt < math.inf:
        doc.add_check("dt", STATUS_FAIL,
                      detail=f"--dt {cfg.dt!r} is too small for --at {at!r}: "
                             "the grid would need infinitely many steps")
    if doc.checks:
        return doc
    try:
        e = parse_expression(expr_text)
    except ParseError as exc:
        doc.add_check("parse", STATUS_FAIL, detail=str(exc))
        return doc
    # convenience: bind a literal alpha symbol inside the expression
    e = substitute(e, {"alpha": num(Q(alpha).limit_denominator(10 ** 9)),
                       "a": num(Q(alpha).limit_denominator(10 ** 9))})
    try:
        profile = power_profile(e, ("t",))
    except UnsupportedProfileError as exc:
        doc.add_check("profile", STATUS_FAIL,
                      detail=f"{exc}; only power sums in t are supported here")
        return doc

    exact = sum(c * rl_power_rule(p.get("t", Q(0)), alpha, at)
                for c, p in profile) if profile else 0.0
    singular = any(p.get("t", Q(0)) < 0 for _, p in profile)
    if singular:
        doc.add_check(
            "power_rule", STATUS_PASS, deviation=None,
            detail=f"value {exact!r}; GL skipped (profile singular at the "
            "origin; the power rule is exact)")
        return doc
    steps = max(int(round(at / cfg.dt)) + 1, 2)
    grid = sample_power_sum(profile, at, steps)
    gl = gl_rl_derivative(grid, FracConfig(alpha=alpha))
    dev = relative_deviation(exact, gl)
    status = STATUS_PASS if dev < GL_CHECK_TOLERANCE else STATUS_FAIL
    doc.add_check("power_rule_vs_gl", status, deviation=dev,
                  detail=f"power rule {exact!r}, GL[{GL_BACKEND}] {gl!r} "
                         f"at t={at}")
    return doc


# ---------------------------------------------------------------------------
# argument handling


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--case", choices=sorted(CLASSIFICATION_CASES),
                   help="preset (alpha, g) from the classification table")
    p.add_argument("--alpha")
    p.add_argument("--g")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--zeta", type=int, choices=(1, -1))
    p.add_argument("--truncation", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol-rel", type=float, dest="tol_rel")
    p.add_argument("--out")
    p.add_argument("--oracle-alpha", dest="oracle_alpha")
    p.add_argument("--oracle-b", dest="oracle_b")
    p.add_argument("--oracle-k", dest="oracle_k")
    p.add_argument("--dt", type=float)


_CASE_G_TEXT = {
    CoeffTag.ARBITRARY: "arbitrary",
    CoeffTag.CONSTANT: "k",
    CoeffTag.POWER: "k*t^b",
    CoeffTag.EXPONENTIAL: "k*exp(b*t)",
    CoeffTag.SHIFTED_POWER_23: "k*(t-b)^(2/3)",
    CoeffTag.QUAD_POWER_13: "k*(t^2-b)^(1/3)",
}


def _config_from_args(args) -> SessionConfig:
    cfg = SessionConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = SessionConfig.from_file_text(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}") from exc
    if args.case:
        case = classification_case(args.case)
        cfg = replace(cfg,
                      alpha="generic" if case.alpha == "generic"
                      else str(case.alpha),
                      g=_CASE_G_TEXT[case.tag])
    for key in ("alpha", "g", "m", "n", "zeta", "truncation", "seed",
                "tol_rel", "out", "oracle_alpha", "oracle_b", "oracle_k",
                "dt"):
        value = getattr(args, key, None)
        if value is not None:
            cfg = replace(cfg, **{key: value})
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsym",
        description="Lie symmetry classification and similarity reduction "
                    "of the time-fractional K(m,n) equation, with numerical "
                    "fractional-calculus adjudication")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_classify = subs.add_parser("classify", help="symmetry classification")
    _add_common_flags(p_classify)

    p_reduce = subs.add_parser("reduce", help="similarity reduction")
    _add_common_flags(p_reduce)
    p_reduce.add_argument("--generator-index", type=int, default=1,
                          dest="generator_index",
                          help="index into the classified basis (0 = "
                               "translation; default 1, the scaling)")

    p_verify = subs.add_parser("verify", help="check explicit infinitesimals")
    _add_common_flags(p_verify)
    p_verify.add_argument("--xi-t", required=True, dest="xi_t")
    p_verify.add_argument("--xi-x", required=True, dest="xi_x")
    p_verify.add_argument("--eta", required=True)

    p_fd = subs.add_parser("frac-deriv",
                           help="numeric RL derivative of an expression")
    _add_common_flags(p_fd)
    p_fd.add_argument("--expr", required=True)
    p_fd.add_argument("--at", type=float, required=True)

    p_rep = subs.add_parser("report", help="re-read and summarize a report")
    p_rep.add_argument("--in", dest="path", required=True)
    return parser


_EXIT_BY_STATUS = {STATUS_PASS: 0, STATUS_ADJUDICATED: 2, STATUS_FAIL: 1}

_EXPRESSION_FLAGS = ("--xi-t", "--xi-x", "--eta", "--expr", "--g")


def _join_expression_flags(argv: list[str]) -> list[str]:
    """Fold ['--xi-t', '-t'] into ['--xi-t=-t'] so expression values that
    start with a minus sign survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _EXPRESSION_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_expression_flags(list(argv))
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            doc = read_report(args.path)
            emit_report(doc, path=None)
            return _EXIT_BY_STATUS[doc.worst_status]
        cfg = _config_from_args(args)
        if args.command == "classify":
            doc = run_classify(cfg)
        elif args.command == "reduce":
            doc = run_reduce(cfg, args.generator_index)
        elif args.command == "verify":
            doc = run_verify(cfg, (args.xi_t, args.xi_x, args.eta))
        elif args.command == "frac-deriv":
            doc = run_fracderiv(cfg, args.expr, args.at)
        else:  # pragma: no cover
            raise CliError(f"unknown command {args.command}")
        emit_report(doc, path=cfg.out or None)
        return _EXIT_BY_STATUS[doc.worst_status]
    except (CliError, ExprError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
