"""Exact arithmetic kernel: Q(sqrt(5)) surds, polynomials and rational
functions over Q, and dense linear algebra over Q and Q(sqrt(5))."""

from .surd import Surd
from .poly import Poly, poly_integrate
from .ratfun import (
    RationalFunction,
    orthant_exponential_integral,
    double_factorial,
)
from .linalg import (
    SingularMatrixError,
    identity,
    mat_mul,
    mat_vec,
    transpose,
    mat_rank,
    mat_det,
    mat_inverse,
    rref,
    bareiss,
    bareiss_kernel,
    kernel_basis,
    right_inverse,
    pfaffian,
)

__all__ = [
    "Surd",
    "Poly",
    "poly_integrate",
    "RationalFunction",
    "orthant_exponential_integral",
    "double_factorial",
    "SingularMatrixError",
    "identity",
    "mat_mul",
    "mat_vec",
    "transpose",
    "mat_rank",
    "mat_det",
    "mat_inverse",
    "rref",
    "bareiss",
    "bareiss_kernel",
    "kernel_basis",
    "right_inverse",
    "pfaffian",
]
