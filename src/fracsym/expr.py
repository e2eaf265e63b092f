"""Immutable symbolic expressions with exact rational coefficients.

Canonical form
--------------
Every public constructor returns a canonicalized tree:

* sums and products are flattened and sorted under a fixed total ordering
  (numbers < symbols < powers < products < sums < function-like nodes);
* numeric constants fold exactly and sit first in a product;
* like terms in a sum and like bases in a product are merged;
* integer powers of sums and products expand, so polynomial expressions are
  held in expanded normal form;
* ``Gamma`` arguments are shifted into ``[0, 1)`` + polynomial prefactors via
  the recurrence, so ratios of Gammas at integer offsets cancel exactly.

A product of sums expands through one term table (sparse polynomial
multiplication, S. C. Johnson, ACM SIGSAM Bull. 8(3), 1974).  Each term is
a coefficient plus a map from base to exponent; two terms multiply by
merging their maps, adding the exponents of a shared atom base (``Sym``,
``Func``, ``GammaF``, ``FDeriv``) when both are numbers.  Like terms meet
under their maps, and nodes are built only for the terms that survive.  A
pair that shares any other base goes through :func:`mul`.

Structural equality of canonical trees therefore decides equality for
polynomial expressions over the atoms.  Rational-function identities are
decided by :func:`is_zero_exact`, which clears negative integer powers and
re-tests; there is deliberately no multivariate gcd machinery.

Powers with fractional or symbolic exponents assume positive-valued bases
(the application domain has t, x, r > 0), so ``(b^p)^q -> b^(p*q)`` is
applied unconditionally.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

Q = Fraction

__all__ = [
    "Expr", "Num", "Sym", "Sum", "Prod", "Pow", "Func", "GammaF", "FDeriv",
    "ExprError", "SimplifyError", "EvalError", "SubstitutionError",
    "num", "sym", "add", "mul", "pow_", "func", "gammaf", "fderiv",
    "as_expr", "children", "rebuild", "simplify", "substitute",
    "free_symbols", "contains_symbol", "power_of",
    "compile_numeric", "eval_numeric", "is_zero_exact", "clear_denominators",
    "to_text",
    "ZERO", "ONE", "MINUS_ONE",
]


class ExprError(Exception):
    """Base for symbolic-engine errors."""


class SimplifyError(ExprError):
    """Raised when constant folding hits an undefined value (e.g. 0^-1)."""


class EvalError(ExprError):
    """Raised by numeric evaluation (unbound symbol, pole, opaque node)."""


class SubstitutionError(ExprError):
    """Raised when a substitution would rename a fractional-derivative
    variable to anything but a symbol."""


_MAX_SUM_POWER_EXPANSION = 16
_GAMMA_FOLD_LIMIT = 64
# the largest exact power folded, in bits of its numerator or denominator
_MAX_FOLD_BITS = 65536


class Expr:
    """Base class; all nodes are immutable and hash-cached.

    ``_key`` is the structural sort key (nested tuples).  ``_hash`` is built
    once from the tag and the children's cached hashes, so hashing a node
    never walks its subtree.  ``_free`` caches :func:`free_symbols`.
    """

    __slots__ = ("_key", "_hash", "_free")

    def _set_key(self, key, h):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", h)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<expr {to_text(self)}>"

    def __str__(self):
        return to_text(self)


class Num(Expr):
    """``c`` is the number: an ``int`` when its denominator is 1, else a
    ``Fraction``.  Integer arithmetic stays in ``int``, and every division
    and negative power goes through ``Fraction``, so no coefficient is ever
    a float."""

    __slots__ = ("c",)

    def __init__(self, c):
        if c.denominator == 1:
            c = c.numerator
        object.__setattr__(self, "c", c)
        self._set_key((0, c), hash((0, c.numerator, c.denominator)))


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        self._set_key((1, name), hash((1, name)))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        self._set_key((2, base._key, exp._key),
                      hash((2, base._hash, exp._hash)))


class Prod(Expr):
    """``_split`` caches the (coefficient, monomial) split of
    :func:`_coeff_mono` when the first factor is a ``Num``."""

    __slots__ = ("factors", "_split")

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)
        self._set_key((3, tuple([f._key for f in factors])),
                      hash((3, *[f._hash for f in factors])))


class Sum(Expr):
    """``_monic`` caches the monic form of :func:`_monic_sum`."""

    __slots__ = ("terms", "_monic")

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)
        self._set_key((4, tuple([t._key for t in terms])),
                      hash((4, *[t._hash for t in terms])))


class Func(Expr):
    """Named function application; ``order`` counts derivatives (h'' etc.)."""

    __slots__ = ("name", "args", "order")

    def __init__(self, name: str, args: tuple, order: int = 0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "order", order)
        self._set_key((5, name, order, tuple([a._key for a in args])),
                      hash((5, name, order, *[a._hash for a in args])))


class GammaF(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)
        self._set_key((6, arg._key), hash((6, arg._hash)))


class FDeriv(Expr):
    """Riemann-Liouville derivative node: FD(expr, var, alpha)."""

    __slots__ = ("expr", "var", "alpha")

    def __init__(self, expr: Expr, var: Sym, alpha: Expr):
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "alpha", alpha)
        self._set_key((7, expr._key, var._key, alpha._key),
                      hash((7, expr._hash, var._hash, alpha._hash)))


# ---------------------------------------------------------------------------
# constructors


# Num nodes are keyed by their int, or by (numerator, denominator): hashing
# ints is cheaper than hashing the Fraction, whose hash takes a modular
# inverse
_NUM_CACHE: dict[object, Num] = {}
_SYM_CACHE: dict[str, Sym] = {}

_KEY = operator.attrgetter("_key")
_FIRST = operator.itemgetter(0)
_ATOMS = (Sym, Func, GammaF, FDeriv)
_NO_FACTORS: frozenset = frozenset()


def num(value) -> Num:
    if type(value) is int:
        key = value
    else:
        value = value if isinstance(value, Q) else Q(value)
        key = (value.numerator if value.denominator == 1
               else (value.numerator, value.denominator))
    node = _NUM_CACHE.get(key)
    if node is None:
        node = _NUM_CACHE.setdefault(key, Num(value))
    return node


def sym(name: str) -> Sym:
    node = _SYM_CACHE.get(name)
    if node is None:
        node = _SYM_CACHE.setdefault(name, Sym(name))
    return node


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Q)):
        return num(x)
    if isinstance(x, str):
        return sym(x)
    raise TypeError(f"cannot interpret {x!r} as an expression")


def _ipow(c, k: int):
    """c ** k for a coefficient c and an int k; a negative k goes through
    Fraction, so an int base never yields a float.

    The size is estimated before computing: a result past
    ``_MAX_FOLD_BITS`` bits raises :class:`SimplifyError`, where computing
    it could take minutes or exhaust memory.  0 and +-1 fold at any k, and
    c^+-1 is never larger than c.
    """
    if abs(k) > 1 and abs(k) * (max(abs(c.numerator), c.denominator)
                                .bit_length() - 1) > _MAX_FOLD_BITS:
        raise SimplifyError(f"exact power too large to fold: ({c})^{k}")
    return c ** k if k >= 0 else Q(c) ** k


def _coeff_mono(term: Expr):
    """Split a canonical term into (coefficient ``c``, monomial-or-None)."""
    if isinstance(term, Num):
        return term.c, None
    if isinstance(term, Prod) and isinstance(term.factors[0], Num):
        try:
            return term._split
        except AttributeError:
            pass
        rest = term.factors[1:]
        split = (term.factors[0].c, rest[0] if len(rest) == 1 else Prod(rest))
        object.__setattr__(term, "_split", split)
        return split
    return 1, term


def _term_from(coeff, mono: Expr) -> Expr:
    if coeff == 1:
        return mono
    c = num(coeff)
    if isinstance(mono, Prod):
        return Prod((c,) + mono.factors)
    return Prod((c, mono))


def _sum_of(const, keyed: list) -> Expr:
    """The canonical sum of a constant and (monomial sort key, term) pairs
    whose monomials are distinct."""
    keyed.sort(key=_FIRST)
    out = [term for _, term in keyed]
    if const != 0:
        out.insert(0, num(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def add(*terms) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    const = 0
    # monomial -> [coefficient, monomial, the term itself while unmerged]
    table: dict[Expr, list] = {}
    for t in flat:
        if isinstance(t, Num):
            const += t.c
            continue
        coeff, mono = _coeff_mono(t)
        entry = table.get(mono)
        if entry is None:
            table[mono] = [coeff, mono, t]
        else:
            entry[0] += coeff
            entry[2] = None
    return _sum_of(const, [
        (m._key, _term_from(c, m) if t is None else t)
        for c, m, t in table.values() if c != 0])


def _base_exp(f: Expr):
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, ONE


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)

    coeff = 1
    powers: dict[Expr, list] = {}
    for f in flat:
        if isinstance(f, Num):
            coeff *= f.c
            continue
        base, exp = _base_exp(f)
        # f, the factor node itself, is reused when its base occurs once
        # (f = None: resolve through pow_).  The raw atoms of
        # clear_denominators are not canonical: Pow(s, k) must expand
        # and Pow(b, 1) collapse, so they go through pow_.
        if (isinstance(base, Sum)
                and isinstance(exp, Num) and type(exp.c) is int):
            # key sum bases by their monic form (integer exponents only)
            # so e.g. (b-a) and (a-b)^-1 cancel structurally
            lead, monic = _monic_sum(base)
            if lead != 1:
                coeff *= _ipow(lead, exp.c)
                base = monic
                f = None
            elif f is not base and exp.c > 0:
                f = None
        elif f is not base and exp == ONE:
            f = None
        entry = powers.get(base)
        if entry is None:
            powers[base] = [base, [exp], f]
        else:
            entry[1].append(exp)
    if coeff == 0:
        return ZERO
    pieces: list[Expr] = []
    reflatten = False
    for base, exps, f in powers.values():
        if len(exps) > 1:
            resolved = pow_(base, add(*exps))
        elif f is not None:
            resolved = f
        else:
            resolved = pow_(base, exps[0])
        if isinstance(resolved, Num):
            coeff *= resolved.c
            if coeff == 0:
                return ZERO
        elif isinstance(resolved, Prod):
            pieces.extend(resolved.factors)
            reflatten = True
        else:
            pieces.append(resolved)
    if reflatten:
        # a merged power resolved to a product, as (-2*x)^(1/2) twice
        # gives -2*x: merge its factors with the rest once more
        return mul(num(coeff), *pieces)

    sums = [p for p in pieces if isinstance(p, Sum)]
    if sums:
        # expand the sum factors into one term table, then apply the
        # coefficient and the other factors to each term once
        nodes: dict = {}
        acc = _entries(sums[0], nodes)
        for s in sums[1:]:
            acc = _table_product(acc, _entries(s, nodes), nodes)
        rest = [p for p in pieces if not isinstance(p, Sum)]
        tail = [_entry(coeff, rest, nodes)]
        return _sum_from_table(_table_product(acc, tail, nodes), nodes)

    pieces.sort(key=_KEY)
    if coeff != 1:
        pieces.insert(0, num(coeff))
    if not pieces:
        return ONE
    if len(pieces) == 1:
        return pieces[0]
    return Prod(tuple(pieces))


# ---------------------------------------------------------------------------
# the term table: products of sums
#
# An entry is [c, emap, key] for the term c * prod(base^e for base, e in
# emap): emap maps each base of the term to its exponent (the exponent's
# ``c`` when it is a Num, else the exponent node) and key is the frozenset
# of emap's items, under which like terms meet.  ``nodes`` maps each
# (base, exponent) met in the inputs to its factor node, so a factor is
# built only for a merged exponent of a term that survives.


def _entry(c, factors, nodes: dict) -> list:
    """The entry of c times canonical factors."""
    emap = {}
    for f in factors:
        if isinstance(f, Pow):
            base = f.base
            e = f.exp.c if isinstance(f.exp, Num) else f.exp
        else:
            base, e = f, 1
        emap[base] = e
        nodes[base, e] = f
    return [c, emap, frozenset(emap.items())]


def _entries(e: Expr, nodes: dict) -> list:
    """The entries of the terms of a canonical expression."""
    out = []
    for t in (e.terms if isinstance(e, Sum) else (e,)):
        if isinstance(t, Num):
            if t.c != 0:
                out.append([t.c, {}, _NO_FACTORS])
            continue
        factors = t.factors if isinstance(t, Prod) else (t,)
        if isinstance(factors[0], Num):
            out.append(_entry(factors[0].c, factors[1:], nodes))
        else:
            out.append(_entry(1, factors, nodes))
    return out


def _merge_exponents(ea: dict, eb: dict) -> dict | None:
    """The exponent map of the product of two terms, or None when they
    share a base that is not an atom or has a symbolic exponent."""
    out = dict(ea)
    for base, e in eb.items():
        d = out.get(base)
        if d is None:
            out[base] = e
            continue
        if (isinstance(d, Expr) or isinstance(e, Expr)
                or not isinstance(base, _ATOMS)):
            return None
        e += d
        if e == 0:
            del out[base]
        else:
            out[base] = e
    return out


def _keyed_term(c, emap: dict, nodes: dict):
    """(monomial sort key, term node) of a nonzero entry with factors."""
    factors = []
    for base, e in emap.items():
        f = nodes.get((base, e))
        if f is None:   # a merged numeric exponent on an atom
            f = base if e == 1 else Pow(base, num(e))
        factors.append(f)
    factors.sort(key=_KEY)
    if len(factors) == 1:
        mono = factors[0]
        return mono._key, mono if c == 1 else Prod((num(c), mono))
    factors = tuple(factors)
    key = (3, tuple([f._key for f in factors]))
    return key, Prod(factors) if c == 1 else Prod((num(c),) + factors)


def _table_product(xs: list, ys: list, nodes: dict) -> list:
    """The entries of (sum of xs) * (sum of ys), like terms merged and zero
    terms dropped."""
    table: dict[frozenset, list] = {}
    for ca, ea, ka in xs:
        for cb, eb, kb in ys:
            if not ea:
                found = [[ca * cb, eb, kb]]
            elif not eb:
                found = [[ca * cb, ea, ka]]
            elif ea.keys().isdisjoint(eb):
                found = [[ca * cb, ea | eb, ka | kb]]
            else:
                emap = _merge_exponents(ea, eb)
                if emap is None:
                    found = _entries(mul(_keyed_term(ca, ea, nodes)[1],
                                         _keyed_term(cb, eb, nodes)[1]),
                                     nodes)
                else:
                    found = [[ca * cb, emap, frozenset(emap.items())]]
            for c, emap, key in found:
                entry = table.get(key)
                if entry is None:
                    table[key] = [c, emap, key]
                else:
                    entry[0] += c
    return [entry for entry in table.values() if entry[0] != 0]


def _sum_from_table(entries: list, nodes: dict) -> Expr:
    const = 0
    keyed = []
    for c, emap, _ in entries:
        if emap:
            keyed.append(_keyed_term(c, emap, nodes))
        else:
            const = c
    return _sum_of(const, keyed)


def _nth_root_exact(n: int, d: int):
    """Integer d-th root of n >= 0, or None if inexact."""
    if n in (0, 1):
        return n
    if d >= n.bit_length():  # 2^d > n: no integer root above 1
        return None
    if d == 2:
        r = math.isqrt(n)
    else:
        # integer Newton from 2^ceil(bits/d), which is above the root
        r = 1 << -(-n.bit_length() // d)
        while True:
            s = ((d - 1) * r + n // r ** (d - 1)) // d
            if s >= r:
                break
            r = s
    return r if r ** d == n else None


def _fold_num_power(b, e):
    """Exact value of b**e for coefficients b, e, or None if it is not
    rational."""
    if b == 0:
        if e < 0:
            raise SimplifyError("division by zero in constant folding")
        return 1 if e == 0 else 0
    if type(e) is int:
        return _ipow(b, e)
    if b == 1:
        return 1
    if b < 0:
        return None
    root_n = _nth_root_exact(b.numerator, e.denominator)
    root_d = _nth_root_exact(b.denominator, e.denominator)
    if root_n is None or root_d is None:
        return None
    return _ipow(Q(root_n, root_d), e.numerator)


def _monic_sum(s: Sum):
    """(lead, s / lead) where lead is the first term's coefficient ``c``.

    Dividing out the leading coefficient gives sums a canonical scale, so
    e.g. (1/2 - b)^-1 and 2*(1 - 2b)^-1 meet in one representation.  Only
    valid to apply under integer exponents.
    """
    lead, _ = _coeff_mono(s.terms[0])
    if lead == 1:
        return lead, s
    try:
        return lead, s._monic
    except AttributeError:
        pass
    out = []
    for term in s.terms:
        coeff, mono = _coeff_mono(term)
        scaled = Q(coeff, lead)
        out.append(num(scaled) if mono is None else _term_from(scaled, mono))
    monic = add(*out)
    object.__setattr__(s, "_monic", monic)
    return lead, monic


def _expand_sum_power(s: Sum, k: int) -> Expr:
    """(t1 + ... + tn)^k through the term table."""
    nodes: dict = {}
    terms = _entries(s, nodes)
    acc = terms
    for _ in range(k - 1):
        acc = _table_product(acc, terms, nodes)
    return _sum_from_table(acc, nodes)


def pow_(base, exp) -> Expr:
    base = as_expr(base)
    exp = as_expr(exp)
    if exp == ZERO:
        return ONE
    if exp == ONE:
        return base
    if isinstance(base, Num):
        if isinstance(exp, Num):
            folded = _fold_num_power(base.c, exp.c)
            if folded is not None:
                return num(folded)
        if base.c == 1:
            return ONE
        return Pow(base, exp)
    if isinstance(base, Pow):
        return pow_(base.base, mul(base.exp, exp))
    if isinstance(base, Prod):
        if isinstance(exp, Num) and type(exp.c) is int:
            return mul(*(pow_(f, exp) for f in base.factors))
        # fractional/symbolic exponent: distribute only when the numeric
        # coefficient is positive (bases are positive in-domain)
        coeff, _ = _coeff_mono(base)
        if coeff > 0:
            return mul(*(pow_(f, exp) for f in base.factors))
    if isinstance(base, Sum) and isinstance(exp, Num) and type(exp.c) is int:
        k = exp.c
        if 2 <= k <= _MAX_SUM_POWER_EXPANSION:
            return _expand_sum_power(base, k)
        # an unexpanded integer power is kept at the monic scale, as ``mul``
        # keys it, so that one value has one form
        lead, monic = _monic_sum(base)
        if lead != 1:
            return mul(num(_ipow(lead, k)), Pow(monic, exp))
    return Pow(base, exp)


def func(name: str, args: Iterable, order: int = 0) -> Expr:
    return Func(name, tuple(as_expr(a) for a in args), order)


def gammaf(arg) -> Expr:
    """Gamma node with argument normalized by the recurrence.

    Positive integer arguments fold to factorials; arguments whose constant
    part is >= 1 are shifted down so that e.g. Gamma(2-a) and Gamma(1-a)
    share the atom Gamma(-a) and cancel exactly in ratios.  Both stop at
    ``_GAMMA_FOLD_LIMIT``: a larger argument or shift stays unfolded.
    """
    arg = as_expr(arg)
    const = 0
    if isinstance(arg, Num):
        const = arg.c
        if type(const) is int:
            if const <= 0:
                raise SimplifyError(f"gamma pole at {const}")
            if const <= _GAMMA_FOLD_LIMIT:
                return num(math.factorial(const - 1))
            return GammaF(arg)
    elif isinstance(arg, Sum):
        first, rest = _coeff_mono(arg.terms[0])
        if rest is None:
            const = first
    shift = math.floor(const)
    if 1 <= shift <= _GAMMA_FOLD_LIMIT:
        small = add(arg, num(-shift))
        prefactor = mul(*(add(small, num(j)) for j in range(shift)))
        return mul(prefactor, GammaF(small))
    return GammaF(arg)


def fderiv(expr, var, alpha) -> Expr:
    """RL-derivative node; linear over sums and rational coefficients."""
    expr = as_expr(expr)
    var = as_expr(var)
    alpha = as_expr(alpha)
    if not isinstance(var, Sym):
        raise ExprError("fractional-derivative variable must be a symbol")
    if expr == ZERO:
        return ZERO
    if isinstance(expr, Sum):
        return add(*(fderiv(t, var, alpha) for t in expr.terms))
    coeff, mono = _coeff_mono(expr)
    if mono is None:
        # constant payload stays symbolic: RL of a constant is *not* zero
        return _term_from(coeff, FDeriv(ONE, var, alpha)) if coeff != 0 else ZERO
    if coeff != 1:
        return _term_from(coeff, FDeriv(mono, var, alpha))
    return FDeriv(expr, var, alpha)


# ---------------------------------------------------------------------------
# structure queries


def children(e: Expr) -> tuple:
    """Direct subexpressions of a node.

    With :func:`_assemble` this is the one place that knows how each node
    kind holds its children.  An FDeriv lists its variable, which
    :func:`rebuild` never changes.
    """
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        return (e.base, e.exp)
    if isinstance(e, Func):
        return e.args
    if isinstance(e, GammaF):
        return (e.arg,)
    if isinstance(e, FDeriv):
        return (e.expr, e.var, e.alpha)
    if isinstance(e, (Num, Sym)):
        return ()
    raise TypeError(type(e))


def _assemble(e: Expr, kids: list) -> Expr:
    """A node of e's kind from new children, through the canonical
    constructors; an FDeriv's are its expr and alpha."""
    if isinstance(e, Sum):
        return add(*kids)
    if isinstance(e, Prod):
        return mul(*kids)
    if isinstance(e, Pow):
        return pow_(*kids)
    if isinstance(e, Func):
        return Func(e.name, tuple(kids), e.order)
    if isinstance(e, GammaF):
        return gammaf(*kids)
    if isinstance(e, FDeriv):
        return fderiv(kids[0], e.var, kids[1])
    return e    # Num, Sym


def rebuild(e: Expr, fn) -> Expr:
    """A node of e's kind built, through the canonical constructors, from
    ``fn`` applied to each child; an FDeriv keeps its variable as it is."""
    kids = (e.expr, e.alpha) if isinstance(e, FDeriv) else children(e)
    return _assemble(e, [fn(c) for c in kids])


def free_symbols(e: Expr) -> frozenset:
    try:
        return e._free
    except AttributeError:
        pass
    if isinstance(e, Sym):
        out = frozenset((e.name,))
    else:
        out = frozenset().union(*map(free_symbols, children(e)))
    object.__setattr__(e, "_free", out)
    return out


def contains_symbol(e: Expr, names) -> bool:
    if isinstance(names, str):
        names = (names,)
    return not free_symbols(e).isdisjoint(names)


def power_of(mono: Expr, name: str) -> Expr | None:
    """p when ``mono`` is the symbol ``name`` to the power p, reading 1 as
    name^0 and the bare symbol as name^1; None for anything else.  p may
    be any expression, ``name`` itself included."""
    if mono == ONE:
        return ZERO
    if isinstance(mono, Sym):
        return ONE if mono.name == name else None
    if (isinstance(mono, Pow) and isinstance(mono.base, Sym)
            and mono.base.name == name):
        return mono.exp
    return None


# ---------------------------------------------------------------------------
# rewriting


def simplify(e: Expr) -> Expr:
    """Re-canonicalize an expression (idempotent by construction).

    Rebuilds every node, so a tree built by hand from the raw node classes
    comes back canonical."""
    return rebuild(as_expr(e), simplify)


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution of symbols, then canonicalization.

    Every symbol is replaced at once and the result is not substituted
    again, so a binding may mention its own or another bound name:
    ``{x: t, t: x}`` swaps x and t, and ``{x: x + 1}`` shifts x once."""
    table: dict[str, Expr] = {}
    for key, value in bindings.items():
        name = key.name if isinstance(key, Sym) else str(key)
        table[name] = as_expr(value)

    def walk(node: Expr) -> Expr:
        if isinstance(node, Sym):
            return table.get(node.name, node)
        if free_symbols(node).isdisjoint(table):
            return node
        if isinstance(node, FDeriv) and node.var.name in table:
            new_var = table[node.var.name]
            if not isinstance(new_var, Sym):
                raise SubstitutionError(
                    "fractional-derivative variable can only be renamed "
                    "to another symbol")
            return fderiv(walk(node.expr), new_var, walk(node.alpha))
        return rebuild(node, walk)

    return walk(e)


# ---------------------------------------------------------------------------
# zero testing


def _is_zero_power(f: Expr) -> bool:
    """f is b^p with p a positive Num and b a sum that is zero exactly."""
    return (isinstance(f, Pow) and isinstance(f.base, Sum)
            and isinstance(f.exp, Num) and f.exp.c > 0
            and is_zero_exact(f.base))


def clear_denominators(e: Expr) -> Expr:
    """Multiply through by enough positive powers to remove Num-exponent
    negative powers.  Preserves zero-ness (bases are assumed nonzero).

    Each round first drops every term with a factor that
    :func:`_is_zero_power` finds zero, such as ``Z^(1/3)`` for a rational
    identity ``Z``: clearing alone never exposes a zero under a power.  The
    clearing factors are injected as raw ``Pow`` atoms so the product
    merger cancels them against the negative powers *before* any expansion.
    The loop ends by itself: a round clears every negative power that is a
    factor of a term, and expanding a clearer can expose only negative
    powers nested inside its base, so each round strips one level of
    nesting.
    """
    while True:
        terms = e.terms if isinstance(e, Sum) else (e,)
        kept = []
        found = {}      # base -> its most negative Num exponent
        for t in terms:
            factors = t.factors if isinstance(t, Prod) else (t,)
            if any(map(_is_zero_power, factors)):
                continue
            kept.append(t)
            for f in factors:
                if (isinstance(f, Pow) and isinstance(f.exp, Num)
                        and f.exp.c < 0):
                    found[f.base] = min(found.get(f.base, 0), f.exp.c)
        if not found:
            return e if len(kept) == len(terms) else add(*kept)
        clearers = [Pow(base, num(-exp)) for base, exp in found.items()]
        e = add(*(mul(t, *clearers) for t in kept))


def is_zero_exact(e: Expr) -> bool:
    """Exact zero test: canonical zero, or zero once every denominator is
    cleared; it decides every rational identity, at any nesting depth, and
    a rational identity under a positive power."""
    e = as_expr(e)
    if e == ZERO:
        return True
    if isinstance(e, Num):
        return False
    return clear_denominators(e) == ZERO


# ---------------------------------------------------------------------------
# numeric evaluation


_KNOWN_FUNCS = {"exp", "sin", "cos", "log"}


def _eval_known_func(name: str, order: int, x: float) -> float:
    if name == "exp":
        return math.exp(x)
    if name == "sin":
        return (math.sin, math.cos, lambda v: -math.sin(v),
                lambda v: -math.cos(v))[order % 4](x)
    if name == "cos":
        return (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v),
                math.sin)[order % 4](x)
    if name == "log":
        if order == 0:
            return math.log(x)
        raise EvalError("derivatives of log are not evaluated")
    raise EvalError(f"unknown function {name!r}")  # pragma: no cover


def _raising(message: str):
    """A compiled node that fails, when evaluated, with ``message``."""
    def fail(point):
        raise EvalError(message)
    return fail


def compile_numeric(e: Expr, *, funcs: Mapping | None = None,
                    fd_handler=None):
    """Compile e once into ``f(point) -> float``, IEEE-double evaluation at a
    point binding every free symbol.

    Each node becomes one closure and each ``Num`` one float, converted
    here; a failure is raised when the failing node is evaluated, so a
    compiled tree that is never called never fails.  Sums go through
    ``math.fsum``, products multiply left to right from 1.0 and ``Gamma`` is
    ``math.gamma``: a pole or an overflow is an :class:`EvalError`.

    ``funcs`` may supply callables ``f(x, order) -> float`` for opaque named
    functions; ``fd_handler(node, point) -> float`` resolves
    fractional-derivative nodes (otherwise they are an error: grid numerics
    own that).
    """
    def build(node: Expr):
        if isinstance(node, Num):
            try:
                value = float(node.c)
            except OverflowError:
                return _raising("constant out of float range")
            return lambda point: value
        if isinstance(node, Sym):
            name = node.name

            def symbol(point):
                try:
                    return float(point[name])
                except KeyError:
                    raise EvalError(f"unbound symbol {name!r}") from None
            return symbol
        if isinstance(node, Sum):
            terms = [build(t) for t in node.terms]
            return lambda point: math.fsum([t(point) for t in terms])
        if isinstance(node, Prod):
            factors = [build(f) for f in node.factors]

            def product(point):
                out = 1.0
                for f in factors:
                    out *= f(point)
                return out
            return product
        if isinstance(node, Pow):
            base, exp = build(node.base), build(node.exp)

            def power(point):
                b = base(point)
                x = exp(point)
                try:
                    out = b ** x
                except (ValueError, ZeroDivisionError, OverflowError) as exc:
                    raise EvalError(
                        f"power evaluation failed: {b}**{x}") from exc
                if isinstance(out, complex):
                    raise EvalError(
                        f"power evaluation failed: {b}**{x} is not real")
                return out
            return power
        if isinstance(node, GammaF):
            arg = build(node.arg)

            def gamma(point):
                x = arg(point)
                try:
                    return math.gamma(x)
                except ValueError as exc:
                    raise EvalError(f"gamma pole at {x}") from exc
                except OverflowError as exc:
                    raise EvalError(f"gamma overflows a float at {x}") from exc
            return gamma
        if isinstance(node, Func):
            name, order = node.name, node.order
            if funcs and name in funcs:
                if len(node.args) != 1:
                    return _raising(
                        "only unary opaque functions are supported")
                fn, arg = funcs[name], build(node.args[0])
                return lambda point: fn(arg(point), order)
            if name in _KNOWN_FUNCS and len(node.args) == 1:
                arg = build(node.args[0])
                return lambda point: _eval_known_func(name, order, arg(point))
            return _raising(f"cannot evaluate function {name!r}")
        if isinstance(node, FDeriv):
            if fd_handler is not None:
                return lambda point: fd_handler(node, point)
            return _raising(
                "unresolved fractional-derivative node; use the grid numerics")
        raise TypeError(type(node))  # pragma: no cover

    return build(as_expr(e))


def eval_numeric(e: Expr, point: Mapping | None = None) -> float:
    """:func:`compile_numeric` of e, evaluated once at ``point``."""
    return compile_numeric(e)(point or {})


# ---------------------------------------------------------------------------
# printing (grammar shared with fracsym.parser)


def _is_bare(e: Expr) -> bool:
    """A symbol or a nonnegative integer: printed unparenthesized as the
    base or the exponent of a power."""
    return isinstance(e, Sym) or (
        isinstance(e, Num) and type(e.c) is int and e.c >= 0)


def _print_pow(e: Pow) -> str:
    bt, et = to_text(e.base), to_text(e.exp)
    if not (_is_bare(e.base) or isinstance(e.base, (Func, GammaF, FDeriv))):
        bt = f"({bt})"
    if not _is_bare(e.exp):
        et = f"({et})"
    return f"{bt}^{et}"


def _print_factor(f: Expr) -> str:
    if isinstance(f, (Sum,)):
        return f"({to_text(f)})"
    if isinstance(f, Num) and f.c < 0:
        return f"({to_text(f)})"
    return to_text(f)


def _print_product(coeff: Q, factors: tuple) -> str:
    parts = [_print_factor(f) for f in factors]
    if coeff == 1:
        lead = ""
    elif coeff == -1:
        lead = "-"
    else:
        lead = _print_num(coeff)
        if parts:
            lead += "*"
    return lead + "*".join(parts)


def _print_num(v: Q) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def to_text(e: Expr) -> str:
    """Render in the CLI expression grammar; parse(to_text(e)) == e."""
    e = as_expr(e)
    if isinstance(e, Num):
        return _print_num(e.c)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Pow):
        return _print_pow(e)
    if isinstance(e, Prod):
        coeff, mono = _coeff_mono(e)
        factors = (mono.factors if isinstance(mono, Prod)
                   else (mono,) if mono is not None else ())
        return _print_product(coeff, factors)
    if isinstance(e, Sum):
        out = [to_text(e.terms[0])]
        for t in e.terms[1:]:
            coeff, mono = _coeff_mono(t)
            if coeff < 0:
                out.append(" - ")
                out.append(to_text(_term_from(-coeff, mono) if mono is not None
                                   else num(-coeff)))
            else:
                out.append(" + ")
                out.append(to_text(t))
        return "".join(out)
    if isinstance(e, Func):
        inner = f"{e.name}({', '.join(to_text(a) for a in e.args)})"
        if e.order == 0:
            return inner
        if len(e.args) == 1 and isinstance(e.args[0], Sym):
            base = f"{e.name}({to_text(e.args[0])})"
            return f"diff({base}, {e.args[0].name}, {e.order})"
        # diagnostic-only form: derivatives at composite arguments occur in
        # intermediate chain-rule states, never in emitted reports
        return f"{e.name}{'~' * e.order}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, GammaF):
        return f"Gamma({to_text(e.arg)})"
    if isinstance(e, FDeriv):
        return f"fdiff({to_text(e.expr)}, {e.var.name}, {to_text(e.alpha)})"
    raise TypeError(type(e))  # pragma: no cover
