"""Integer and lattice mathematics substrate.

This package provides the exact-integer linear algebra needed by the
dependence-analysis and space-time-mapping layers:

* :mod:`repro.util.intmath` -- gcd of vectors and floor/ceiling division.
* :mod:`repro.util.linalg` -- exact operations on integer matrices: rank over
  the rationals, Hermite and Smith normal forms, unimodular factor tracking,
  integer nullspaces and particular solutions of ``A x = b`` over ``Z``.

All routines operate on plain Python ints (arbitrary precision) wrapped in
NumPy object/int64 arrays or nested lists; none of them ever rounds through
floating point, so results are exact for arbitrarily large entries.
"""

from repro.util.intmath import gcd_list
from repro.util.linalg import (
    hermite_normal_form,
    identity_matrix,
    integer_nullspace,
    integer_rank,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer_system,
)

__all__ = [
    "gcd_list",
    "hermite_normal_form",
    "identity_matrix",
    "integer_nullspace",
    "integer_rank",
    "mat_mul",
    "mat_vec",
    "smith_normal_form",
    "solve_integer_system",
]
