"""Verbatim fidelity checks: every numeric artifact of the paper, in one place.

Each test quotes one equation/figure and asserts the library reproduces it
exactly (up to the documented corrections in EXPERIMENTS.md).
"""

import pytest

from repro.arith.addshift import AddShiftMultiplier, addshift_structure
from repro.experiments.e4_fig4 import paper_order_D
from repro.expansion.theorem31 import matmul_bit_level
from repro.mapping import designs
from repro.util.linalg import mat_mul


class TestEq24:
    """D of eq. (2.4): columns y=[1,0,0], x=[0,1,0], z=[0,0,1]."""

    def test_matrix(self):
        from repro.ir.builders import matmul_word_structure

        alg = matmul_word_structure()
        cols = {tuple(v.causes): v.vector for v in alg.dependences}
        assert cols[("y",)] == (1, 0, 0)
        assert cols[("x",)] == (0, 1, 0)
        assert cols[("z",)] == (0, 0, 1)


class TestEq34:
    """D_as of eq. (3.4): δ̄₁=[1,0] (a), δ̄₂=[0,1] (b,c), δ̄₃=[1,-1] (s)."""

    def test_columns(self):
        mat = addshift_structure().dependence_matrix()
        by_vec = {v.vector: frozenset(v.causes) for v in mat}
        assert by_vec == {
            (1, 0): frozenset({"a"}),
            (0, 1): frozenset({"b", "c"}),
            (1, -1): frozenset({"s"}),
        }

    def test_output_positions(self):
        # "s_i = s(i, 1) for 1 <= i <= p, and s_i = s(p, i-p+1) for
        #  p < i <= 2p-1"
        p = 3
        mult = AddShiftMultiplier(p)
        t = mult.trace(5, 6)  # 30 = 011110b
        bits = [(30 >> k) & 1 for k in range(2 * p)]
        for i in range(1, p + 1):
            assert t["s"][(i, 1)] == bits[i - 1]
        for i in range(p + 1, 2 * p):
            assert t["s"][(p, i - p + 1)] == bits[i - 1]


class TestEq312_313:
    """The bit-level matmul structure (symbolic check is in E3 tests)."""

    def test_seven_columns_five_rows(self):
        alg = matmul_bit_level()
        assert len(alg.dependences) == 7
        assert alg.dependences.dim == 5

    def test_index_set_counts(self):
        alg = matmul_bit_level(3, 2)
        assert alg.index_set.size({"u": 3, "p": 2}) == 3**3 * 2**2


class TestEq42_43_44:
    """T of (4.2), P/K of (4.3), and the full TD of (4.4)."""

    def test_T(self):
        t = designs.fig4_mapping(3)
        assert [list(r) for r in t.rows] == [
            [3, 0, 0, 1, 0],
            [0, 3, 0, 0, 1],
            [1, 1, 1, 2, 1],
        ]

    def test_P(self):
        assert designs.fig4_primitives(3) == [
            [3, 0, 0, 1, 0, 1],
            [0, 3, 0, 0, 1, -1],
        ]

    def test_TD_eq_44(self):
        # TD (paper column order y,x,z,x,(y,c),z,c'):
        #   [[p 0 0 1 0 1 0], [0 p 0 0 1 -1 2], [1 1 1 2 1 1 2]]
        p = 3
        alg = matmul_bit_level(3, p, "II")
        d = paper_order_D(alg)
        t = designs.fig4_mapping(p)
        td = mat_mul([list(r) for r in t.rows], d)
        assert td == [
            [p, 0, 0, 1, 0, 1, 0],
            [0, p, 0, 0, 1, -1, 2],
            [1, 1, 1, 2, 1, 1, 2],
        ]

    def test_K_shape(self):
        k = designs.fig4_k_paper()
        assert len(k) == 6 and all(len(row) == 7 for row in k)
        assert all(x >= 0 for row in k for x in row)


class TestEq45_46_48:
    """Timing formulas and processor counts of Section 4.2."""

    @pytest.mark.parametrize("u,p", [(2, 2), (3, 3), (7, 5)])
    def test_t_45(self, u, p):
        assert designs.t_fig4(u, p) == 3 * (u - 1) + 3 * (p - 1) + 1

    def test_Tprime_46(self):
        t = designs.fig5_mapping(4)
        assert [list(r) for r in t.rows] == [
            [4, 0, 0, 1, 0],
            [0, 4, 0, 0, 1],
            [4, 4, 1, 2, 1],
        ]

    def test_Pprime_47(self):
        assert designs.fig5_primitives() == [
            [1, 0, 1, 0],
            [0, 1, -1, 0],
        ]

    @pytest.mark.parametrize("u,p", [(3, 3), (5, 2)])
    def test_t_48_corrected(self, u, p):
        # The printed (4.8) is (2p-1)(u-1)+3(p-1)+1; the actual value of
        # the paper's own Π'-product is (2p+1)(u-1)+3(p-1)+1.
        assert designs.t_fig5(u, p) == (2 * p + 1) * (u - 1) + 3 * (p - 1) + 1
        assert designs.t_fig5_printed(u, p) == (2 * p - 1) * (u - 1) + 3 * (p - 1) + 1

    @pytest.mark.parametrize("u,p", [(2, 3), (4, 2)])
    def test_processor_counts(self, u, p):
        assert designs.fig4_processor_count(u, p) == u * u * p * p
        assert designs.fig5_processor_count(u, p) == (u * p) ** 2


class TestSection42Speedup:
    """t_word = (3(u-1)+1)·t_b; O(p²) add-shift, O(p) carry-save."""

    def test_word_formula(self):
        from repro.arith.sequential import word_multiplier_cycles

        u, p = 6, 5
        for arith in ("add-shift", "carry-save"):
            assert designs.word_level_time(u, p, arith) == (
                3 * (u - 1) + 1
            ) * word_multiplier_cycles(arith, p)

    def test_tb_orders(self):
        from repro.arith.sequential import word_multiplier_cycles

        # add-shift quadratic, carry-save linear: doubling p roughly
        # quadruples vs doubles.
        a8, a16 = (word_multiplier_cycles("add-shift", k) for k in (8, 16))
        c8, c16 = (word_multiplier_cycles("carry-save", k) for k in (8, 16))
        assert 3.5 < a16 / a8 < 4.5
        assert c16 / c8 == 2

    def test_speedup_exceeds_p(self):
        # "O(p) times faster ... in practice" with carry-save, u > p.
        for p in (4, 8):
            t_bit = designs.t_fig4(32, p)
            assert designs.word_level_time(32, p, "carry-save") / t_bit > p / 2
            assert designs.word_level_time(32, p, "add-shift") / t_bit > p
