"""Tests for the Theorem 3.1 cross-validation harness."""

import pytest

from repro.expansion.theorem31 import bit_level_from_vectors
from repro.expansion.verify import effective_edges, verify_theorem31
from repro.ir.builders import word_model_structure


class TestEffectiveEdges:
    def test_simple_model(self):
        word = word_model_structure([1], [1], [1], [1], [3])
        edges = effective_edges(word, {})
        # Three uniform vectors over u=3: each connects 2 sink points, but
        # the vectors coincide (all [1]), so the edge set keys dedupe.
        assert edges == {((2,), (1,)), ((3,), (1,))}

    def test_respects_validity(self):
        alg = bit_level_from_vectors([1], [1], [1], [1], [3], 2, "II")
        edges = effective_edges(alg, {"u": 3, "p": 2})
        # c' edges (vector (0,0,2)) require i2 >= 3 > p = 2: none exist.
        assert not any(vec == (0, 0, 2) for _, vec in edges)

    def test_source_inside_filter(self):
        word = word_model_structure([2], [2], [2], [1], [3])
        edges = effective_edges(word, {})
        # d = 2: only sink 3 has source 1 inside.
        assert edges == {((3,), (2,))}


class TestNumpyHelpers:
    def test_box_lattice_matches_product_order(self):
        import itertools

        from repro.structures.indexset import box_lattice

        bounds = [(1, 3), (-1, 1), (2, 2)]
        pts = box_lattice(bounds)
        expected = list(itertools.product(*[range(lo, hi + 1)
                                            for lo, hi in bounds]))
        assert [tuple(int(x) for x in row) for row in pts] == expected
        # An empty axis empties the box; the shape keeps its n columns.
        assert box_lattice([(1, 3), (2, 1)]).shape == (0, 2)

    def test_condition_mask_matches_holds(self):
        from repro.expansion.verify import condition_mask
        from repro.structures.conditions import And, Eq, Ne, Not, Or
        from repro.structures.indexset import box_lattice

        cond = Or(And(Eq(0, 1), Ne(1, 2)), Not(Eq(2, 3)))
        bounds = [(1, 3)] * 3
        pts = box_lattice(bounds)
        mask = condition_mask(cond, pts, {})
        for row, ok in zip(pts, mask):
            point = tuple(int(x) for x in row)
            assert bool(ok) == cond.holds(point, {})


class TestVerifyTheorem31:
    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_1d_matches(self, expansion):
        rep = verify_theorem31([1], [1], [1], [1], [3], 2, expansion)
        assert rep.matches
        assert rep.summary().startswith("MATCH")

    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_matmul_matches(self, expansion):
        rep = verify_theorem31(
            [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [2, 2, 2], 2,
            expansion,
        )
        assert rep.matches

    def test_convolution_matches(self):
        rep = verify_theorem31(
            [1, 0], [1, -1], [0, 1], [1, 1], [3, 3], 2, "II"
        )
        assert rep.matches

    def test_larger_h_matches(self):
        rep = verify_theorem31([3], [2], [1], [1], [6], 2, "I")
        assert rep.matches

    def test_exact_backend(self):
        rep = verify_theorem31([1], [1], [1], [1], [3], 2, "II", method="exact")
        assert rep.matches
        assert rep.analysis_stats["systems_solved"] > 0

    def test_vector_lists_populated(self):
        rep = verify_theorem31([1], [1], [1], [1], [3], 2, "II")
        assert rep.compositional_vectors
        # Every analyzed vector is predicted; the composition may also list
        # vectors with no effective edge at this size (c' needs i2 >= 3,
        # impossible at p = 2).
        assert set(rep.analysis_vectors) <= set(rep.compositional_vectors)

    def test_vector_sets_coincide_when_p_large_enough(self):
        rep = verify_theorem31([1], [1], [1], [1], [3], 3, "II")
        assert set(rep.analysis_vectors) == set(rep.compositional_vectors)

    def test_mismatch_reported(self):
        # Sanity: a deliberately wrong comparison reports a mismatch.
        from repro.depanalysis.analyzer import analyze
        from repro.expansion.verify import VerificationReport

        rep = VerificationReport(
            matches=False,
            missing_from_analysis=[((1,), (1,))],
            extra_in_analysis=[],
        )
        assert rep.summary().startswith("MISMATCH")
