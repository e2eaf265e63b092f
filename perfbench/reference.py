"""References that do not come from the program, and the check of one call.

- ``catalog``: the paper's classification table at (m, n, zeta) = (2, 3, +1),
  copied here from the acceptance suite, compared up to proportionality by
  exact rational evaluation at fixed random points (its own evaluator, not
  the program's parser).
- ``oracle``: the Riemann-Liouville power rule, computed with ``math.gamma``.
- ``verify``: the closed-form scaling weights; a translation or an ``a0``
  shift stays in the algebra, a shift of ``e``, ``a1`` or ``c`` leaves it,
  and a constant in ``xi_t`` moves the lower terminal.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
from fractions import Fraction as Q

GL_TOLERANCE = 1e-3

TRANSLATION = ("0", "1", "0")
PAPER_TABLE = {
    "1.1": [TRANSLATION],
    "1.2": [TRANSLATION, ("-t", "(alpha - b)*x", "(2*alpha - b)*u")],
    "1.3": [TRANSLATION, ("-t", "alpha*x", "2*alpha*u")],
    "2.1": [TRANSLATION],
    "2.2": [TRANSLATION, ("2*t", "(2*b - 1)*x", "2*(b - 1)*u")],
    "2.3": [TRANSLATION, ("-2*t", "x", "2*u")],
    "3.1": [TRANSLATION],
    "3.2": [TRANSLATION, ("3*t", "(3*b - 1)*x", "(3*b - 2)*u")],
    "3.3": [TRANSLATION, ("-3*t", "x", "2*u")],
}

_rng = random.Random(20060814)
POINTS = [{name: Q(_rng.randint(2, 97), _rng.randint(2, 89))
           for name in ("t", "x", "u", "alpha", "b", "k")}
          for _ in range(3)]

# values print as repr(), which NumPy 2 wraps as np.float64(...)
_NUMBER = r"(?:np\.float64\()?([-+0-9.eEinfa]+)\)?"
_GL_DETAIL = re.compile(rf"power rule {_NUMBER}, GL\[\w+\] {_NUMBER} at t=")


class Mismatch(Exception):
    """An output disagrees with its reference; the message names why."""


# ---------------------------------------------------------------------------
# exact evaluation of report expressions


def evaluate(text: str, point: dict) -> Q:
    """Exact value of an arithmetic expression in +, -, *, /, ^ and names."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        return _eval(tree.body, point)
    except (SyntaxError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise Mismatch(f"cannot evaluate {text!r}: {exc!r}") from None


_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b}


def _eval(node, point: dict) -> Q:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Q(node.value)
    if isinstance(node, ast.Name):
        return point[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        v = _eval(node.operand, point)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        left, right = _eval(node.left, point), _eval(node.right, point)
        if isinstance(node.op, ast.Pow):
            if right.denominator != 1:
                raise ValueError("non-integer power")
            return left ** int(right)
        return _BINOPS[type(node.op)](left, right)
    raise TypeError(f"unsupported syntax {ast.dump(node)[:60]}")


def proportional(got: tuple, want: tuple) -> bool:
    """Generators equal up to one nonzero scalar, at every point."""
    vg = [evaluate(s, p) for p in POINTS for s in got]
    vw = [evaluate(s, p) for p in POINTS for s in want]
    pivot = next((i for i, w in enumerate(vw) if w != 0), None)
    if pivot is None or vg[pivot] == 0:
        return False
    scale = vg[pivot] / vw[pivot]
    return all(g == scale * w for g, w in zip(vg, vw))


def rl_power_rule_sum(terms: list, alpha: Q, at: float) -> float:
    a = float(alpha)
    return sum(float(Q(c)) * math.gamma(float(Q(p)) + 1)
               / math.gamma(float(Q(p)) + 1 - a) * at ** (float(Q(p)) - a)
               for c, p in terms)


# ---------------------------------------------------------------------------
# checking one call


def first_failing_check(report: dict | None) -> str | None:
    if not report:
        return None
    for check in report.get("checks", []):
        if check.get("status") != "pass":
            return check["name"]
    return None


def check_call(call, rc: int, stderr: str, report_bytes: bytes | None):
    """None when the call's outputs match the reference; otherwise
    ``(wrong, cause)``.  ``wrong`` is True when the program gave an answer
    that contradicts the reference, False when it reported the failure
    itself (non-zero exit where success was expected)."""
    report = None
    if report_bytes is not None:
        try:
            report = json.loads(report_bytes)
        except ValueError as exc:
            return True, f"report is not JSON: {exc}"
    try:
        if call.kind == "verify":
            return _check_verify(call.expect, rc, stderr, report)
        if rc != 0:
            return False, _exit_cause(rc, stderr, report)
        if report is None:
            return True, "exit 0 but no report written"
        if call.kind == "frac_deriv":
            _check_oracle(call.expect, report)
        else:
            _check_catalog(call.kind, call.expect, report)
    except Mismatch as exc:
        return True, str(exc)
    return None


def _exit_cause(rc: int, stderr: str, report: dict | None) -> str:
    failing = first_failing_check(report)
    if failing:
        return f"exit {rc}, first failing check {failing}"
    line = stderr.strip().splitlines()[-1] if stderr.strip() else "no output"
    return f"exit {rc}, {line}"


def _check_catalog(kind: str, expect: dict, report: dict):
    want = PAPER_TABLE[expect["case"]]
    gens = report.get("generators", [])
    got = [(g["xi_t"], g["xi_x"], g["eta"]) for g in gens]
    if kind == "classify":
        if len(got) != len(want):
            raise Mismatch(f"{len(got)} generators, the table has "
                           f"{len(want)}")
        pairs = list(zip(got, want))
    else:
        if len(got) != 1:
            raise Mismatch(f"reduce report lists {len(got)} generators")
        pairs = [(got[0], want[expect["index"]])]
    for i, (g, w) in enumerate(pairs):
        if not proportional(g, w):
            raise Mismatch(f"generator X{i + 1} {g} is not proportional to "
                           f"the table's {w}")


def _check_oracle(expect: dict, report: dict):
    check = next((c for c in report.get("checks", [])
                  if c["name"] == "power_rule_vs_gl"), None)
    match = _GL_DETAIL.match(check["detail"]) if check else None
    if match is None:
        raise Mismatch("no power_rule_vs_gl value in the report")
    ref = rl_power_rule_sum(expect["terms"], Q(expect["alpha"]),
                            float(expect["at"]))
    for name, text in zip(("power rule", "GL"), match.groups()):
        try:
            dev = abs(float(text) - ref) / abs(ref)
        except ValueError:
            raise Mismatch(f"{name} value {text!r} is not a number") from None
        if not dev < GL_TOLERANCE:
            raise Mismatch(f"{name} value {text} deviates {dev:.3e} from "
                           f"the RL power rule {ref!r}")


def _check_verify(expect: dict, rc: int, stderr: str, report: dict | None):
    variant = expect["variant"]
    if variant in ("scaling", "translation", "a0_shift"):
        if rc != 0:
            return True, ("in-algebra generator rejected: "
                          + _exit_cause(rc, stderr, report))
        return None
    if report is None:
        return True, _exit_cause(rc, stderr, report)
    expected_check = ("lower_terminal_fixed" if variant == "xi_t_const"
                      else "invariance_residual")
    failing = [c["name"] for c in report.get("checks", [])
               if c.get("status") == "fail"]
    if rc != 1 or expected_check not in failing:
        return True, (f"{variant} should fail {expected_check}; got exit "
                      f"{rc}, failing checks {failing}")
    return None
