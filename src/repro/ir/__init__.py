"""Loop-nest intermediate representation.

Programs in the paper are Fortran-like nested DO loops (model (2.1)) whose
statements write and read array elements through affine subscript functions of
the index vector.  This package provides:

* :mod:`repro.ir.expr` -- affine expressions over loop indices with symbolic
  constants;
* :mod:`repro.ir.program` -- statements, guarded regions and
  :class:`~repro.ir.program.LoopNest` programs;
* :mod:`repro.ir.builders` -- the paper's concrete programs: matrix
  multiplication (2.2)/(2.3), the add-shift multiplier (3.1)/(3.3), the 1-D
  model (3.7), convolution and LU decomposition;
* :mod:`repro.ir.transform` -- Fortes-Moldovan broadcast elimination;
* :mod:`repro.ir.expand` -- the bit-level program expander generating the
  explicit ``(n+2)``-dimensional programs of Expansion I / II.
"""

from repro.ir.expr import AffineExpr, var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.ir import builders, expand, transform

__all__ = [
    "AffineExpr",
    "var",
    "ArrayAccess",
    "Statement",
    "LoopNest",
    "builders",
    "transform",
    "expand",
]
