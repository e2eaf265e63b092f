"""Gamma function for floats via the Lanczos approximation.

Kept dependency-free so the expression evaluator can use it without
importing the numeric grid machinery.
"""

import math


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""

    def __init__(self, x):
        super().__init__(f"gamma pole at {x}")
        self.x = x


# Lanczos coefficients for g=7, n=9 (double precision, ~15 significant digits).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, accurate to at least 12 significant digits.

    Uses reflection for x < 0.5 so the whole real line (minus the poles at
    0, -1, -2, ...) is covered.  Raises OverflowError where Gamma(x)
    exceeds the float range.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise GammaPoleError(x)
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    try:
        value = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
    except OverflowError:
        value = math.inf
    if value == math.inf:
        # t^(z+0.5) overflows above x ~ 142.2, Gamma only above x ~ 171.6:
        # take the power in two halves on either side of e^-t
        half = t ** ((z + 0.5) / 2)
        value = math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * acc
        if value == math.inf:
            raise OverflowError(f"gamma overflows a float at {x}")
    return value
