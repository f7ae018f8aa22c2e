"""The add-shift multiplier: program (3.3), structure (3.4), and a bit-exact
lattice evaluator.

The multiplier is a ``p x p`` lattice of full adders (Fig. 1b/1c): point
``(i1, i2)`` handles the partial product ``a_{i2} ∧ b_{i1}`` of binary weight
``2^{i1+i2-2}``, receives the carry from ``(i1, i2-1)`` (``δ̄₂``) and the
partial sum from ``(i1-1, i2+1)`` (``δ̄₃``), and emits a carry east-to-west
and a partial sum to the south.  The final bits are

.. math:: s_i = s(i, 1) \\ (1 \\le i \\le p), \\qquad
          s_i = s(p, i-p+1) \\ (p < i \\le 2p-1).

**Boundary carry completion.**  The paper's dependence structure (3.4) and
output map are stated for the lattice interior; at the western column
``i2 = p`` the row carry ``c(i1, p)`` (weight ``2^{i1+p-1}``) leaves the
lattice.  Value conservation requires it to re-enter one row south at
``(i1+1, p)`` -- a hop along the *existing* ``δ̄₁ = [1,0]ᵀ`` link direction,
as in a classical Braun array multiplier, where the always-zero partial-sum
input ``s(i1, p+1) = 0`` frees the third full-adder port.  Without this
completion the stated output equations do not reproduce ``a x b`` (e.g.
``7 x 7`` at ``p = 3`` loses the weight-16 carry); with it the evaluator is
bit-exact, the top bit ``s_{2p}`` being the final carry ``c(p, p)``.  The
dependence matrix is unchanged because ``[1, 0]ᵀ`` is already a column of
``D_as``.
"""

from __future__ import annotations

from repro.arith.bitops import from_bits, full_adder, to_bits
from repro.arith.structure import ArithmeticStructure
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = ["AddShiftMultiplier", "addshift_structure"]


class AddShiftMultiplier:
    """Bit-exact evaluator of the add-shift lattice for a word length ``p``."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("word length p must be positive")
        self.p = int(p)

    def trace(self, a: int, b: int) -> dict:
        """Evaluate the lattice, returning the full execution trace.

        Returns a dict with keys ``s`` and ``c`` (dicts mapping lattice
        points ``(i1, i2)`` to bits), ``rerouted`` (the boundary carries
        re-injected along ``δ̄₁``), and ``carry_out`` (the final carry
        ``c(p, p)``, i.e. bit ``s_{2p}``).
        """
        p = self.p
        a_bits = to_bits(a, p)
        b_bits = to_bits(b, p)
        s: dict[tuple[int, int], int] = {}
        c: dict[tuple[int, int], int] = {}
        rerouted: dict[tuple[int, int], int] = {}
        for i1 in range(1, p + 1):
            for i2 in range(1, p + 1):
                pp = a_bits[i2 - 1] & b_bits[i1 - 1]
                carry_in = c.get((i1, i2 - 1), 0)
                if i2 == p:
                    # The third port is the re-routed boundary carry; the
                    # paper's initial value s(i1-1, p+1) = 0 frees it.
                    third = rerouted.get((i1, i2), 0)
                else:
                    third = s.get((i1 - 1, i2 + 1), 0)
                sb, cb = full_adder(pp, carry_in, third)
                s[(i1, i2)] = sb
                if i2 == p and i1 < p:
                    rerouted[(i1 + 1, p)] = cb
                else:
                    c[(i1, i2)] = cb
        return {
            "s": s,
            "c": c,
            "rerouted": rerouted,
            "carry_out": c.get((p, p), 0),
        }

    def result_bits(self, a: int, b: int) -> list[int]:
        """The ``2p`` product bits (little-endian), per the paper's output map
        plus the final carry as bit ``s_{2p}``."""
        p = self.p
        t = self.trace(a, b)
        bits = [t["s"][(i, 1)] for i in range(1, p + 1)]
        bits += [t["s"][(p, k)] for k in range(2, p + 1)]
        bits.append(t["carry_out"])
        return bits

    def multiply(self, a: int, b: int) -> int:
        """The exact product ``a * b`` computed by the lattice."""
        return from_bits(self.result_bits(a, b))


def _multiply(a: int, b: int, p: int) -> int:
    return AddShiftMultiplier(p).multiply(a, b)


def addshift_structure(p: LinExpr | int | None = None) -> ArithmeticStructure:
    """The add-shift structure (3.4): ``J_as = [1,p]²``,
    ``δ̄₁=[1,0]ᵀ (a)``, ``δ̄₂=[0,1]ᵀ (b, c)``, ``δ̄₃=[1,-1]ᵀ (s)``,
    second carry direction ``δ̄₄=[0,2]ᵀ``."""
    p = S("p") if p is None else as_linexpr(p)
    return ArithmeticStructure(
        name="add-shift",
        index_set=IndexSet([1, 1], [p, p], ("i1", "i2")),
        delta_a=(1, 0),
        delta_b=(0, 1),
        delta_s=(1, -1),
        delta_carry=(0, 1),
        delta_carry2=(0, 2),
        multiply=_multiply,
    )
