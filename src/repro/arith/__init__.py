"""Arithmetic algorithms and their bit-level dependence structures.

The paper's method composes a word-level dependence structure with the
dependence structure of the *arithmetic algorithm* implementing the
word-wise multiply-accumulate.  This package provides those algorithms:

* :mod:`repro.arith.bitops` -- the Boolean full-adder functions ``g``/``f``
  of eq. (3.2) and bit (de)composition helpers;
* :mod:`repro.arith.structure` -- :class:`ArithmeticStructure`, the role-
  annotated ``(J_as, D_as)`` record consumed by Theorem 3.1;
* :mod:`repro.arith.addshift` -- the add-shift multiplier: structure (3.4)
  plus a bit-exact lattice evaluator for programs (3.1)/(3.3);
* :mod:`repro.arith.carrysave` -- the carry-save array multiplier (the
  faster alternative named in Section 4.2);
* :mod:`repro.arith.ripple` -- the ripple-carry adder (the word-wise
  addition substrate);
* :mod:`repro.arith.sequential` -- *sequential* word multipliers with cycle
  counts (``t_b = O(p²)`` add-shift, ``t_b = O(p)`` carry-save), used by the
  word-level baseline architecture of the speedup comparison;
* :mod:`repro.arith.registry` -- name-keyed registry of arithmetic
  structures.
"""

from repro.arith.bitops import (
    carry_bit,
    from_bits,
    full_adder,
    sum_bit,
    to_bits,
)
from repro.arith.structure import ArithmeticStructure
from repro.arith.addshift import AddShiftMultiplier, addshift_structure
from repro.arith.baughwooley import BaughWooleyMultiplier, baughwooley_structure
from repro.arith.carrysave import CarrySaveMultiplier, carrysave_structure
from repro.arith.ripple import RippleCarryAdder
from repro.arith.sequential import (
    SequentialAddShift,
    SequentialCarrySave,
)
from repro.arith.registry import get_structure, list_structures, register_structure

__all__ = [
    "carry_bit",
    "from_bits",
    "full_adder",
    "sum_bit",
    "to_bits",
    "ArithmeticStructure",
    "AddShiftMultiplier",
    "addshift_structure",
    "BaughWooleyMultiplier",
    "baughwooley_structure",
    "CarrySaveMultiplier",
    "carrysave_structure",
    "RippleCarryAdder",
    "SequentialAddShift",
    "SequentialCarrySave",
    "get_structure",
    "list_structures",
    "register_structure",
]
