"""fracsym: symbolic-numeric Lie symmetry analysis for time-fractional
K(m,n) equations with a variable coefficient g(t).

The package classifies point symmetries of

    D^a_t u + zeta*(u^m)_x + g(t)*(u^n)_xxx = 0,    0 < a <= 1,

derives the similarity reductions to fractional ODEs in h(r), and checks
every symbolic claim against an independent numerical fractional-calculus
oracle (Riemann-Liouville power rule plus a Grünwald-Letnikov scheme).
"""

__version__ = "0.1.0"

from .calculus import diff
from .cases import CoeffTag
from .expr import (
    Expr, add, eval_numeric, fderiv, func, gammaf, mul, num, pow_, simplify,
    substitute, sym, to_text,
)
from .fracnum import (
    GL_BACKEND, Grid, fode_residual_on_grid, gl_rl_derivative,
    pde_residual_on_grid, rl_power_rule,
)
from .parser import parse_expression
from .pde import (
    Generator, PdeSpec, scaling_invariance_check, term_weights,
)
from .reduction import (
    SimilarityReduction, characteristic_invariants, compare_reduced_forms,
    kernel_solution, reduced_residual_identity_check, similarity_substitute,
)
from .symmetry import (
    classify, determining_system, eta_alpha, integer_prolongations,
    invariance_residual,
)

__all__ = [
    "__version__",
    # expressions
    "Expr", "add", "mul", "pow_", "num", "sym", "func",
    "gammaf", "fderiv", "simplify", "substitute", "eval_numeric", "to_text",
    "parse_expression",
    # calculus
    "diff",
    # model
    "PdeSpec", "CoeffTag", "Generator",
    "term_weights", "scaling_invariance_check",
    # symmetry
    "classify", "determining_system", "eta_alpha", "integer_prolongations",
    "invariance_residual",
    # reduction
    "SimilarityReduction", "characteristic_invariants",
    "similarity_substitute", "compare_reduced_forms",
    "reduced_residual_identity_check", "kernel_solution",
    # numerics
    "Grid", "GL_BACKEND", "rl_power_rule",
    "gl_rl_derivative", "pde_residual_on_grid", "fode_residual_on_grid",
]
