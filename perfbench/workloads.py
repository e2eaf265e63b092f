"""Seeded call lists for the three workloads.

A workload is one pass: a list of ``Call``s, each an argv for
``fracsym.cli.main`` plus what an independent reference expects of it.
The seed only chooses values inside a fixed design, so every seed gives a
pass of the same size and the same mix of call kinds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q

WORKLOADS = ("catalog", "oracle", "verify")

# the paper's table at (m, n, zeta) = (2, 3, +1)
CATALOG_CASES = ("1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3")
SCALING_CASES = frozenset({"1.2", "1.3", "2.2", "2.3", "3.2", "3.3"})

# N = at/dt + 1 from 5,001 to 20,001; the two smaller sizes (N = 10^4 is
# the acceptance size) are drawn twice, so a run holds >= 10 calls beyond p90
ORACLE_AT = ("0.5", "0.5", "1", "1", "1.5", "2")
ORACLE_ALPHAS = (Q(1, 4), Q(1, 2), Q(3, 4))
ORACLE_EXPONENTS = (Q(1), Q(3, 2), Q(2), Q(5, 2), Q(3))

VERIFY_ALPHAS = ("generic", "1/4", "1/3", "1/2", "3/4")
VERIFY_G = ("k", "k*t^b")
VERIFY_VARIANTS = ("scaling", "translation", "a0_shift",
                   "e_shift", "a1_shift", "c_shift", "xi_t_const")
VERIFY_PAIRS = tuple((m, n) for m in range(1, 7) for n in range(1, 7)
                     if 3 * m - n - 2 != 0)


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``kind`` groups latencies, ``expect`` feeds the
    reference check, ``out`` is the report path (relative to the root)."""

    kind: str
    argv: tuple
    out: str
    expect: dict

    def full_argv(self) -> list:
        return [*self.argv, "--out", self.out]

    def label(self) -> str:
        return "fracsym " + " ".join(self.full_argv())


def calls_for(workload: str, seed: int, outdir: str) -> list[Call]:
    try:
        build = _BUILDERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}") from None
    specs = build(random.Random(f"{workload}:{seed}"))
    return [Call(kind, tuple(argv), f"{outdir}/{i:03d}.json", expect)
            for i, (kind, argv, expect) in enumerate(specs)]


def calls_digest(calls: list[Call]) -> str:
    """sha256 over every argv and expectation, in pass order."""
    blob = json.dumps([[c.kind, c.full_argv(), c.expect] for c in calls],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# catalog: the published table, 24 calls, seeded order


def _catalog(rng: random.Random) -> list:
    specs = []
    for case in CATALOG_CASES:
        specs.append(("classify", ["classify", "--case", case],
                      {"case": case}))
        specs.append(("reduce_translation",
                      ["reduce", "--case", case, "--generator-index", "0"],
                      {"case": case, "index": 0}))
        if case in SCALING_CASES:
            specs.append(("reduce_scaling", ["reduce", "--case", case],
                          {"case": case, "index": 1}))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# oracle: frac-deriv of positive power sums, N = at/dt + 1 grid points


def _oracle(rng: random.Random) -> list:
    specs = []
    for at in ORACLE_AT:
        counts = [1, 2, 3]
        rng.shuffle(counts)
        for alpha, nterms in zip(ORACLE_ALPHAS, counts):
            exps = sorted(rng.sample(ORACLE_EXPONENTS, nterms))
            # positive coefficients: no cancellation, so a relative
            # tolerance on the sum is a tolerance on every term
            coeffs = [Q(rng.randint(1, 9), rng.randint(1, 7)) for _ in exps]
            text = " + ".join(f"{c}*t^({p})"
                              for c, p in zip(coeffs, exps))
            specs.append(("frac_deriv",
                          ["frac-deriv", "--expr", text,
                           "--alpha", str(alpha), "--at", at],
                          {"terms": [[str(c), str(p)]
                                     for c, p in zip(coeffs, exps)],
                           "alpha": str(alpha), "at": at}))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# verify: given generators, half of them off the algebra


def _verify(rng: random.Random) -> list:
    slots = [(a, g, v) for a in VERIFY_ALPHAS for g in VERIFY_G
             for v in VERIFY_VARIANTS]
    pairs = []
    while len(pairs) < len(slots):
        block = list(VERIFY_PAIRS)
        rng.shuffle(block)
        pairs.extend(block)
    specs = []
    for (alpha, g, variant), (m, n) in zip(slots, pairs):
        delta = _nonzero_rational(rng)
        xi_t, xi_x, eta = _verify_triple(m, n, alpha, g, variant, delta)
        specs.append(("verify",
                      ["verify", "--m", str(m), "--n", str(n),
                       "--alpha", alpha, "--g", g,
                       "--xi-t", xi_t, "--xi-x", xi_x, "--eta", eta],
                      {"variant": variant, "m": m, "n": n, "alpha": alpha,
                       "g": g, "delta": str(delta)}))
    rng.shuffle(specs)
    return specs


def _verify_triple(m: int, n: int, alpha: str, g: str, variant: str,
                   delta: Q):
    """Closed-form scaling e = -1, c = (2*alpha - b)/(3m - n - 2),
    a1 = (m - 1)*c - alpha, then the seeded variant of it."""
    a = "alpha" if alpha == "generic" else f"({alpha})"
    two_a_minus_b = f"2*{a} - b" if g == "k*t^b" else f"2*{a}"
    c = f"({two_a_minus_b})/({3 * m - n - 2})"
    a1 = f"({m - 1})*{c} - {a}"
    d = f"({delta})"
    xi_t, xi_x, eta = "-t", f"({a1})*x", f"({c})*u"
    if variant == "translation":
        return "0", "1", "0"
    if variant == "a0_shift":
        xi_x = f"{d} + ({a1})*x"
    elif variant == "e_shift":
        xi_t = f"(-1 + {d})*t"
    elif variant == "a1_shift":
        xi_x = f"({a1} + {d})*x"
    elif variant == "c_shift":
        eta = f"({c} + {d})*u"
    elif variant == "xi_t_const":
        xi_t = f"-t + {d}"
    return xi_t, xi_x, eta


def _nonzero_rational(rng: random.Random) -> Q:
    return Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


_BUILDERS = {"catalog": _catalog, "oracle": _oracle, "verify": _verify}
