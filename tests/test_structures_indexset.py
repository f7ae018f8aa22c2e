"""Tests for repro.structures.indexset."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mapping import designs
from repro.structures import indexset
from repro.structures.indexset import IndexSet, box_lattice, image_census
from repro.structures.params import S


class TestConstruction:
    def test_cube(self):
        j = IndexSet.cube(3, 4)
        assert j.dim == 3
        assert j.bounds({}) == [(1, 4)] * 3

    def test_symbolic_cube(self):
        j = IndexSet.cube(2, S("p"))
        assert j.bounds({"p": 5}) == [(1, 5), (1, 5)]

    def test_mismatched_bounds(self):
        with pytest.raises(ValueError):
            IndexSet([1], [2, 3])

    def test_names_default(self):
        j = IndexSet.cube(2, 3)
        assert j.names == ("j1", "j2")

    def test_rename(self):
        j = IndexSet.cube(2, 3).rename(("i1", "i2"))
        assert j.names == ("i1", "i2")

    def test_rename_wrong_length(self):
        with pytest.raises(ValueError):
            IndexSet.cube(2, 3).rename(("a",))


class TestProduct:
    def test_dims_add(self):
        a = IndexSet.cube(3, S("u"))
        b = IndexSet.cube(2, S("p")).rename(("i1", "i2"))
        prod = a.product(b)
        assert prod.dim == 5
        assert prod.names == ("j1", "j2", "j3", "i1", "i2")

    def test_size_multiplies(self):
        a = IndexSet.cube(2, 3)
        b = IndexSet.cube(2, 2)
        assert a.product(b).size({}) == a.size({}) * b.size({})

    def test_matmul_bit_level_set(self):
        # Eq. (3.13): 1 <= j1,j2,j3 <= u, 1 <= i1,i2 <= p.
        j = IndexSet.cube(3, S("u")).product(IndexSet.cube(2, S("p")))
        assert j.size({"u": 3, "p": 2}) == 27 * 4


class TestQueries:
    def test_contains(self):
        j = IndexSet.cube(2, 3)
        assert j.contains((1, 3), {})
        assert not j.contains((0, 1), {})
        assert not j.contains((1, 4), {})
        assert not j.contains((1,), {})

    def test_size_empty(self):
        j = IndexSet([2], [1])
        assert j.size({}) == 0

    def test_points_lexicographic(self):
        pts = list(IndexSet.cube(2, 2).points({}))
        assert pts == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_points_count(self):
        j = IndexSet([0, 1], [2, 3])
        assert len(list(j.points({}))) == j.size({}) == 9

    def test_symbolic_bounds_expression(self):
        j = IndexSet([1], [2 * S("p") - 1])
        assert j.bounds({"p": 4}) == [(1, 7)]

    @given(st.integers(1, 5), st.integers(1, 4))
    def test_cube_size(self, dim, upper):
        assert IndexSet.cube(dim, upper).size({}) == upper**dim


class TestEquality:
    def test_equal(self):
        assert IndexSet.cube(2, S("p")) == IndexSet.cube(2, S("p"))

    def test_not_equal(self):
        assert IndexSet.cube(2, S("p")) != IndexSet.cube(2, S("u"))

    def test_names_ignored_in_equality(self):
        assert IndexSet.cube(2, 3) == IndexSet.cube(2, 3).rename(("a", "b"))

    def test_hashable(self):
        assert len({IndexSet.cube(2, 3), IndexSet.cube(2, 3)}) == 1

    def test_repr_mentions_bounds(self):
        r = repr(IndexSet.cube(1, S("u")))
        assert "u" in r


def _enumerated_census(rows, bounds):
    """The census by listing the box: the reference."""
    matrix = np.array(rows, np.int64).reshape(len(rows), len(bounds))
    image = box_lattice(bounds) @ matrix.T
    if not len(image):
        return np.zeros((0, len(rows)), np.int64), np.zeros(0, np.int64)
    return np.unique(image, axis=0, return_counts=True)


def _check_random_boxes():
    """Seeded random matrices (negative, zero and no rows) over boxes with
    negative, single-point and empty axes, against the enumerated box."""
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(0, 3))]
        bounds = []
        for _ in range(n):
            lo = rng.randint(-3, 2)
            bounds.append((lo, lo + rng.randint(-1, 5)))
        values, counts = image_census(rows, bounds)
        ref_values, ref_counts = _enumerated_census(rows, bounds)
        assert values.shape == ref_values.shape, (rows, bounds)
        assert (values == ref_values).all(), (rows, bounds)
        assert (counts == ref_counts).all(), (rows, bounds)


class TestImageCensus:
    def test_matches_enumeration(self):
        """Nearly every random box here (198 of the 201 non-empty ones)
        is small enough, in points and in key range, to be counted from
        its listed keys."""
        _check_random_boxes()

    def test_doubling_matches_enumeration(self, monkeypatch):
        """The same boxes through the doubling merge, which counts every
        box of more than ``_LISTED_POINTS`` points or keys."""
        monkeypatch.setattr(indexset, "_LISTED_POINTS", 0)
        _check_random_boxes()

    def test_wide_keys_count_the_enumerated_box(self):
        rows = [[1 << 40, 1, 0], [0, 1 << 40, 1]]
        bounds = [(1, 3)] * 3
        values, counts = image_census(rows, bounds)
        ref_values, ref_counts = _enumerated_census(rows, bounds)
        assert (values == ref_values).all() and (counts == ref_counts).all()

    def test_paper_closed_forms(self):
        """Π's census spans eqs. (4.5)/(4.8)'s beats and S's census holds
        u²p² / (up)² PEs, far past the sizes the machines run."""
        for u, p in itertools.product((1, 2, 3, 5, 8, 16, 64, 256), repeat=2):
            bounds = [(1, u)] * 3 + [(1, p)] * 2
            for mapping, beats in ((designs.fig4_mapping(p), designs.t_fig4),
                                   (designs.fig5_mapping(p), designs.t_fig5)):
                times, counts = image_census(mapping.rows[-1:], bounds)
                assert times[-1, 0] - times[0, 0] + 1 == beats(u, p)
                assert counts.sum() == u ** 3 * p ** 2
        for u, p in itertools.product((1, 2, 3, 5, 8, 16), repeat=2):
            bounds = [(1, u)] * 3 + [(1, p)] * 2
            for mapping, pes in (
                (designs.fig4_mapping(p), designs.fig4_processor_count),
                (designs.fig5_mapping(p), designs.fig5_processor_count),
            ):
                values, _ = image_census(mapping.rows[:-1], bounds)
                assert len(values) == pes(u, p)
