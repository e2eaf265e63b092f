"""Command-line interface: classify / reduce / verify / frac-deriv / report.

Exit codes: 0 when every check passes, 2 when an adjudicated mismatch was
found, 1 on errors (including failed verification and usage errors, which
end in one ``error:`` line).  A call builds only the argparse parser of the
command it names; its help and usage errors are those of the full tree.

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
    CLASSIFICATION_CASES, classification_case, coeff_form_from_text,
    load_printed_form, outside_catalog, resolve_case_key,
)
from .expr import (
    Expr, Num, ExprError, ZERO,
    free_symbols, is_zero_exact, mul, num, sym, substitute, to_text,
)
from .fracnum import (
    _power_rule_sum, fode_residual_on_grid, gl_rl_derivative, power_profile,
    relative_deviation, sample_power_sum, UnsupportedProfileError, GL_BACKEND,
)
from .parser import ParseError, parse_expression
from .pde import (
    Generator, PdeSpec, PdeModelError, power_law,
    scaling_invariance_check, term_weights,
)
from .reduction import (
    ReductionError, characteristic_invariants, compare_reduced_forms,
    kernel_solution, reduced_residual_identity_check, similarity_substitute,
)
from .report import (
    STATUS_ADJUDICATED, STATUS_FAIL, STATUS_PASS, STATUS_SKIPPED,
    ReportDoc, emit_report, read_report,
)
from .symmetry import (
    SymmetryError, classify, invariance_residual,
)

__all__ = ["SessionConfig", "run_classify", "run_reduce", "run_verify",
           "run_fracderiv", "main"]

GL_CHECK_TOLERANCE = 1e-3
# the most GL grid points frac-deriv samples, N = at/dt + 1: at the limit
# a three-term power sum takes about 1.8 s and peaks at 411 MB resident,
# most of it the long-double weights and history of the GL sum (2-core
# Xeon, NumPy 2.4)
MAX_GRID_STEPS = 10_000_001


class CliError(Exception):
    pass


def _rational(flag: str, text: str, wanted: str = "a rational p/q") -> Q:
    """The exact value of a rational setting, or a one-line error naming
    its flag when the text does not parse or has a zero denominator."""
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--{flag} must be {wanted}, got {text!r}") from None


@dataclass
class SessionConfig:
    """All run parameters; round-trips through the key = value format."""

    alpha: str = "generic"
    g: str = "arbitrary"
    m: int = 2
    n: int = 3
    zeta: int = 1
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
        return num(_rational("alpha", self.alpha,
                             "'generic' or a rational p/q"))

    def alpha_float(self) -> float:
        if self.alpha == "generic":
            raise CliError("a numeric --alpha is required here")
        try:
            return float(self.alpha)
        except ValueError:
            value = _rational("alpha", self.alpha)
        try:
            return float(value)
        except OverflowError:  # outside (0, 1) all the same
            return math.inf if value > 0 else -math.inf

    def spec(self) -> PdeSpec:
        alpha = self.alpha_expr()
        return PdeSpec(alpha=alpha, m=self.m, n=self.n, zeta=self.zeta,
                       g=coeff_form_from_text(self.g, alpha))

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


# a setting's type is that of its default, for config files and flags alike
_KINDS = {f.name: type(f.default) for f in fields(SessionConfig)}
_NEEDS = {int: "an integer", float: "a number"}


def _apply_config_value(cfg: SessionConfig, key: str, value: str,
                        where: str) -> SessionConfig:
    key = key.replace("-", "_")
    if key not in _KINDS:
        raise CliError(f"config {where}: unknown key {key!r}")
    kind = _KINDS[key]
    try:
        return replace(cfg, **{key: kind(value)})
    except ValueError:
        raise CliError(f"config {where}: {key} needs {_NEEDS[kind]}") from None


def _seeded_points(cfg: SessionConfig):
    """The grid oracle's 20 (x, t) points, drawn from [0.5, 2] squared."""
    rng = random.Random(cfg.seed)
    return [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            for _ in range(20)]


def _oracle_bindings(cfg: SessionConfig, spec: PdeSpec) -> dict:
    """Numeric values for whatever parameters are still symbolic."""
    binding: dict[str, Expr] = {}
    if not isinstance(spec.alpha, Num):
        binding["alpha"] = num(_rational("oracle-alpha", cfg.oracle_alpha))
    for name, text in (("b", cfg.oracle_b), ("k", cfg.oracle_k)):
        binding[name] = num(_rational(f"oracle-{name}", text))
    return binding


# ---------------------------------------------------------------------------
# commands


def _check_scaling_weights(doc: ReportDoc, spec: PdeSpec, gen: Generator,
                           name: str) -> None:
    """Add check ``name``: the three PDE terms weigh alike under the
    scaling part of gen.  Added only for an affine generator with a scaling
    part (e, a1 or c nonzero), a t-free one included, and a
    weight-homogeneous g."""
    nf = gen.normal_form()
    if nf is None or power_law(spec.g) is None:
        return
    e, _, a1, c = nf
    if e == ZERO and a1 == ZERO and c == ZERO:
        return
    ok = scaling_invariance_check(spec, e, a1, c)
    doc.add_check(name, STATUS_PASS if ok else STATUS_FAIL,
                  detail="term weights: " + ", ".join(
                      to_text(w) for w in term_weights(spec, e, a1, c)))


def _classified(cfg: SessionConfig):
    """(spec, report, basis) of a config.  The basis is None, and the
    report carries a failing ``classification`` check naming why, when the
    spec is outside the catalog or its derivation fails."""
    spec = cfg.spec()
    doc = ReportDoc(case=resolve_case_key(spec) or "-", config=cfg.as_dict())
    detail = outside_catalog(spec)
    if detail is None:
        try:
            return spec, doc, classify(spec)
        except (SymmetryError, PdeModelError) as exc:
            detail = str(exc)
    doc.add_check("classification", STATUS_FAIL, detail=detail)
    return spec, doc, None


def run_classify(cfg: SessionConfig) -> ReportDoc:
    """Classify, then check the scaling weights of every generator.

    ``classify`` keeps only generators whose invariance residual is zero,
    so the residual is not recomputed here."""
    spec, doc, gens = _classified(cfg)
    for i, gen in enumerate(gens or ()):
        doc.generators.append(dict(zip(("xi_t", "xi_x", "eta"),
                                       gen.as_text_triple())))
        _check_scaling_weights(doc, spec, gen, f"scaling_weights[X{i + 1}]")
    return doc


def run_reduce(cfg: SessionConfig, generator_index: int) -> ReportDoc:
    """Invariants, derived reduced ODE, stored-form comparison, grid oracle."""
    spec, doc, gens = _classified(cfg)
    if gens is None:
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

    # the translation print holds for every (m, n, zeta); the scaling print
    # was derived for K(2,3) only
    section = "1" if red.translation_case else "2.1"
    label = f"printed_form[{section}]"
    if section == "2.1" and (spec.m, spec.n) != (2, 3):
        doc.reduced_ode = to_text(red.reduced_ode)
        doc.add_check(label, STATUS_SKIPPED,
                      detail=f"the printed scaling form is K(2,3)'s; this "
                             f"spec has (m, n) = ({spec.m}, {spec.n})")
    else:
        printed = load_printed_form(section, spec)
        comparison = compare_reduced_forms(red.reduced_ode, printed)
        # present the derivation at the printed form's FD coefficient
        doc.reduced_ode = to_text(comparison.normalized_derived())
        if comparison.all_equal:
            doc.add_check(label, STATUS_PASS,
                          detail=f"{len(comparison.entries)} coefficients equal")
        else:
            lines = [f"{m.as_record()}" for m in comparison.mismatches()]
            doc.add_check(label, STATUS_ADJUDICATED, detail="; ".join(lines))

    # grid oracle on a numeric specialization
    binding = _oracle_bindings(cfg, spec)
    nspec = replace(spec, alpha=binding.get("alpha", spec.alpha),
                    g=substitute(spec.g, binding))
    nred = replace(
        red,
        p=substitute(red.p, binding),
        q=substitute(red.q, binding),
        normalization_power=substitute(red.normalization_power, binding),
        reduced_ode=substitute(red.reduced_ode, binding),
    )
    # a parameter the binding leaves symbolic fails the check by name, not
    # in an evaluation error
    unbound = sorted(frozenset().union(*(
        free_symbols(e) for e in (nred.p, nred.q, nred.normalization_power,
                                  nred.reduced_ode))) - {"r"})
    if unbound:
        doc.add_check("grid_identity", STATUS_FAIL,
                      detail=f"no oracle value for {', '.join(unbound)}: "
                             "the grid oracle binds only alpha, b and k")
        return doc
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
        # the derived ODE at h(r) = r^(alpha-1)/Gamma(alpha); r = t
        kernel = kernel_solution(nspec.alpha.c)
        residuals = fode_residual_on_grid(
            nred.reduced_ode, substitute(kernel, {"t": r}),
            [tv for _, tv in points])
        ok = max(map(abs, residuals)) <= cfg.tol_rel
        doc.add_check(
            "kernel_solution", STATUS_PASS if ok else STATUS_FAIL,
            detail=f"h(t) = {to_text(kernel)} (kappa = 1)")
    return doc


def run_verify(cfg: SessionConfig, triple) -> ReportDoc:
    """Residual check for explicit infinitesimals, plus the weight table."""
    spec = cfg.spec()
    doc = ReportDoc(case=resolve_case_key(spec) or "-", config=cfg.as_dict())
    parsed = []
    errors = []
    for name, src in zip(("xi_t", "xi_x", "eta"), triple):
        try:
            parsed.append(parse_expression(src, {"alpha": spec.alpha}))
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
        residual = invariance_residual(spec, gen)
    except SymmetryError as exc:
        doc.add_check("invariance_residual", STATUS_FAIL, detail=str(exc))
        return doc
    if is_zero_exact(residual):
        doc.add_check("invariance_residual", STATUS_PASS)
    else:
        doc.add_check("invariance_residual", STATUS_FAIL,
                      detail=f"residual excerpt: {to_text(residual)[:160]}")

    # the RL lower terminal sits at t = 0; a generator moving it does not
    # map the memory structure to itself even when the Leibniz-expanded
    # criterion is formally satisfied
    xi_t_at_0 = substitute(gen.xi_t, {"t": ZERO})
    if not is_zero_exact(xi_t_at_0):
        doc.add_check(
            "lower_terminal_fixed", STATUS_FAIL,
            detail=f"xi_t(t=0) = {to_text(xi_t_at_0)} shifts the lower "
                   "terminal of the memory integral")

    _check_scaling_weights(doc, spec, gen, "scaling_weights")
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
    elif at_ok and (steps := round(at / cfg.dt) + 1) > MAX_GRID_STEPS:
        doc.add_check("dt", STATUS_FAIL,
                      detail=f"--dt {cfg.dt!r} is too small for --at {at!r}: "
                             f"the grid would need {steps} steps, more than "
                             f"the limit of {MAX_GRID_STEPS}")
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

    exact = _power_rule_sum(profile, "t", alpha, {"t": at})
    singular = any(p.get("t", Q(0)) < 0 for _, p in profile)
    if singular:
        doc.add_check(
            "power_rule", STATUS_PASS, deviation=None,
            detail=f"value {exact!r}; GL skipped (profile singular at the "
            "origin; the power rule is exact)")
        return doc
    steps = max(int(round(at / cfg.dt)) + 1, 2)
    grid = sample_power_sum(profile, at, steps)
    gl = gl_rl_derivative(grid, alpha)
    dev = relative_deviation(exact, gl)
    status = STATUS_PASS if dev < GL_CHECK_TOLERANCE else STATUS_FAIL
    doc.add_check("power_rule_vs_gl", status, deviation=dev,
                  detail=f"power rule {exact!r}, GL[{GL_BACKEND}] {gl!r} "
                         f"at t={at}")
    return doc


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise CliError, so they end in
    one error line at exit 1; argparse's own exit 2 is the code of an
    adjudicated mismatch.  Its subparsers are of this class too."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


# each command: its line in the root parser's listing, and the flags it
# adds to the shared settings, as (option, add_argument keywords)
_COMMANDS = {
    "classify": ("symmetry classification", []),
    "reduce": ("similarity reduction", [
        ("--generator-index", dict(
            type=int, default=1, dest="generator_index",
            help="index into the classified basis (0 = translation; "
                 "default 1, the scaling)"))]),
    "verify": ("check explicit infinitesimals", [
        ("--xi-t", dict(required=True, dest="xi_t")),
        ("--xi-x", dict(required=True, dest="xi_x")),
        ("--eta", dict(required=True))]),
    "frac-deriv": ("numeric RL derivative of an expression", [
        ("--expr", dict(required=True)),
        ("--at", dict(type=float, required=True))]),
    "report": ("re-read and summarize a report", [
        ("--in", dict(dest="path", required=True))]),
}

# every option of any command that takes a value
_VALUE_FLAGS = frozenset(
    ["--config", "--case", *(f"--{k.replace('_', '-')}" for k in _KINDS)]
    + [flag for _, own in _COMMANDS.values() for flag, _ in own])


def _add_flags(parser: _Parser, command: str) -> _Parser:
    """Add to parser the flags of command: the settings that every command
    but report shares, then its own."""
    add = parser.add_argument
    if command != "report":
        add("--config", help="key = value config file")
        add("--case", choices=sorted(CLASSIFICATION_CASES),
            help="preset (alpha, g) from the classification table")
        for name, kind in _KINDS.items():
            add(f"--{name.replace('_', '-')}", dest=name, type=kind,
                choices=(1, -1) if name == "zeta" else None)
    for flag, kwargs in _COMMANDS[command][1]:
        add(flag, **kwargs)
    return parser


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
        cfg = replace(cfg, alpha=case.alpha, g=case.g)
    for name in _KINDS:
        value = getattr(args, name)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    return cfg


def _root_parser() -> _Parser:
    """The parser of a call whose first argument names no command."""
    parser = _Parser(
        prog="fracsym",
        description="Lie symmetry classification and similarity reduction "
                    "of the time-fractional K(m,n) equation, with numerical "
                    "fractional-calculus adjudication")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        # with its flags, so that after an unknown option the command
        # still shows its own help and usage errors
        _add_flags(subs.add_parser(command, help=text), command)
    return parser


_EXIT_BY_STATUS = {STATUS_PASS: 0, STATUS_ADJUDICATED: 2, STATUS_FAIL: 1}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the parser of the command argv[0] names, or with the
    root parser if it names none.  ['--alpha', '-1/3'] is first folded into
    ['--alpha=-1/3'] for every flag that takes a value, so a value that
    starts with one minus sign (an expression such as -t, a negative
    rational) is not read as an option.  A token that starts with '--'
    stays a flag."""
    out = []
    for tok in argv:
        if (out and out[-1] in _VALUE_FLAGS
                and tok[:1] == "-" and tok[:2] != "--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return _root_parser().parse_args(out)
    parser = _add_flags(_Parser(prog=f"fracsym {command}"), command)
    args, extras = parser.parse_known_args(out[1:])
    if extras:   # the root parser's message, as for any unknown argument
        raise CliError(f"fracsym: unrecognized arguments: {' '.join(extras)}")
    args.command = command
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
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
