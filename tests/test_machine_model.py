"""Tests for the generic model-(3.5) bit-level machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.model import BitLevelModelMachine
from repro.mapping import designs
from repro.mapping.transform import MappingMatrix


def matmul_machine(u, p, expansion="II"):
    return BitLevelModelMachine(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [u, u, u], p,
        designs.fig4_mapping(p), expansion,
    )


def matmul_words(X, Y, u):
    xw, yw = {}, {}
    for j1 in range(1, u + 1):
        for j2 in range(1, u + 1):
            for j3 in range(1, u + 1):
                xw[(j1, j2, j3)] = X[j1 - 1][j3 - 1]
                yw[(j1, j2, j3)] = Y[j3 - 1][j2 - 1]
    return xw, yw


CONV_T = MappingMatrix([[3, 0, 1, 0], [0, 0, 0, 1], [2, 1, 2, 1]], "T-conv")


def conv_machine(n_pts, taps, p=3, expansion="II"):
    return BitLevelModelMachine(
        [1, 0], [1, -1], [0, 1], [1, 1], [n_pts, taps], p, CONV_T, expansion,
    )


def conv_words(w, sig, n_pts, taps):
    xw, yw = {}, {}
    for j1 in range(1, n_pts + 1):
        for j2 in range(1, taps + 1):
            xw[(j1, j2)] = w[j2 - 1]
            yw[(j1, j2)] = sig[j1 + j2 - 2]
    return xw, yw


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BitLevelModelMachine([1], [1, 0], [1], [1], [3], 2,
                                 designs.fig4_mapping(2))

    def test_zero_h3_rejected(self):
        with pytest.raises(ValueError):
            BitLevelModelMachine([0, 1, 0], [1, 0, 0], [0, 0, 0],
                                 [1, 1, 1], [2, 2, 2], 2,
                                 designs.fig4_mapping(2))

    def test_missing_word_rejected(self):
        m = matmul_machine(2, 2)
        with pytest.raises(ValueError, match="missing"):
            m.run({}, {})

    def test_pipelining_violation_rejected(self):
        m = matmul_machine(2, 2)
        X = [[1, 2], [3, 1]]
        xw, yw = matmul_words(X, X, 2)
        xw[(1, 2, 1)] = (xw[(1, 2, 1)] + 1) % 4  # break x(j̄)=x(j̄-h̄₁)
        with pytest.raises(ValueError, match="pipelining"):
            m.run(xw, yw)

    def test_word_too_wide_rejected(self):
        m = matmul_machine(2, 2)
        xw, yw = matmul_words([[5, 0], [0, 0]], [[1, 1], [1, 1]], 2)
        with pytest.raises(ValueError, match="word length"):
            m.run(xw, yw)


class TestMatmulEquivalence:
    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_matches_matmul_machine(self, expansion, rng):
        from repro.machine.bitlevel import BitLevelMatmulMachine

        u, p = 2, 3
        X = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        Y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        specialized = BitLevelMatmulMachine(
            u, p, designs.fig4_mapping(p), expansion
        ).run(X, Y)
        xw, yw = matmul_words(X, Y, u)
        generic = matmul_machine(u, p, expansion).run(xw, yw)
        for j1 in range(1, u + 1):
            for j2 in range(1, u + 1):
                assert generic.outputs[(j1, j2, u)] == specialized.product[j1 - 1][j2 - 1]

    def test_outputs_at_chain_ends_only(self, rng):
        u, p = 2, 2
        xw, yw = matmul_words([[1, 2], [3, 0]], [[2, 1], [0, 3]], u)
        run = matmul_machine(u, p).run(xw, yw)
        assert set(run.outputs) == {
            (j1, j2, u) for j1 in range(1, u + 1) for j2 in range(1, u + 1)
        }

    def test_reference_agrees(self, rng):
        u, p = 3, 2
        X = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        xw, yw = matmul_words(X, X, u)
        m = matmul_machine(u, p)
        assert m.run(xw, yw).outputs == m.reference(xw, yw)


class TestConvolution:
    @pytest.mark.parametrize("expansion", ["II"])
    def test_correct_convolution(self, expansion, rng):
        p, n_pts, taps = 3, 4, 3
        w = [rng.randrange(1 << p) for _ in range(taps)]
        sig = [rng.randrange(1 << p) for _ in range(n_pts + taps)]
        xw, yw = conv_words(w, sig, n_pts, taps)
        m = conv_machine(n_pts, taps, p, expansion)
        run = m.run(xw, yw)
        mask = (1 << (2 * p - 1)) - 1
        for j1 in range(1, n_pts + 1):
            want = sum(w[j2 - 1] * sig[j1 + j2 - 2] for j2 in range(1, taps + 1))
            assert run.outputs[(j1, taps)] == want & mask

    def test_z_init_supported(self, rng):
        p, n_pts, taps = 3, 3, 2
        w = [1, 2]
        sig = [3, 1, 2, 1, 0]
        xw, yw = conv_words(w, sig, n_pts, taps)
        z0 = {(j1, 1): 5 for j1 in range(1, n_pts + 1)}
        m = conv_machine(n_pts, taps, p)
        run = m.run(xw, yw, z_init=z0)
        assert run.outputs == m.reference(xw, yw, z_init=z0)

    def test_simulation_stats(self, rng):
        m = conv_machine(3, 2, 3)
        w = [1, 3]
        sig = [2, 5, 1, 4]
        xw, yw = conv_words(w, sig, 3, 2)
        run = m.run(xw, yw)
        assert run.sim.computations == 3 * 2 * 9
        assert run.max_summands <= 5

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_property_random_signals(self, data):
        p, n_pts, taps = 3, 3, 3
        w = [data.draw(st.integers(0, 7)) for _ in range(taps)]
        sig = [data.draw(st.integers(0, 7)) for _ in range(n_pts + taps)]
        xw, yw = conv_words(w, sig, n_pts, taps)
        m = conv_machine(n_pts, taps, p)
        assert m.run(xw, yw).outputs == m.reference(xw, yw)


class TestExpansion1ZInit:
    """Regression: Expansion I must decompose initial z words at the
    boundary owner points only (one bit per weight position), not at every
    same-weight lattice point."""

    def test_z_init_expansion1(self, rng):
        p, u = 3, 2
        m = BitLevelModelMachine(
            [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [u, u, u], p,
            designs.fig4_mapping(p), "I",
        )
        xw, yw = {}, {}
        X = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        Y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        for j1 in range(1, u + 1):
            for j2 in range(1, u + 1):
                for j3 in range(1, u + 1):
                    xw[(j1, j2, j3)] = X[j1 - 1][j3 - 1]
                    yw[(j1, j2, j3)] = Y[j3 - 1][j2 - 1]
        z0 = {
            (j1, j2, 1): rng.randrange(1 << (2 * p - 1))
            for j1 in range(1, u + 1) for j2 in range(1, u + 1)
        }
        assert m.run(xw, yw, z_init=z0).outputs == m.reference(xw, yw, z0)


class TestReferenceChainOrder:
    """Regression: ``reference`` walks each ``h̄₃`` chain from its start,
    so a lexicographically negative ``h̄₃`` works."""

    def test_negative_h3(self, rng):
        p = 3
        h1, h2, h3 = (1, 0), (1, -1), (0, -1)
        mapping = MappingMatrix(
            [[0, 1, 0, 0], [1, 0, -1, 0], [1, -1, 2, 1]], "T-neg"
        )
        m = BitLevelModelMachine(h1, h2, h3, [1, 1], [4, 3], p, mapping)
        points = [(j1, j2) for j1 in range(1, 5) for j2 in range(1, 4)]
        xw, yw = {}, {}
        for j in points:  # constant along h̄₁ / h̄₂ (predecessors first)
            xs = (j[0] - 1, j[1])
            ys = (j[0] - 1, j[1] + 1)
            xw[j] = xw[xs] if xs in xw else rng.randrange(1 << p)
            yw[j] = yw[ys] if ys in yw else rng.randrange(1 << p)
        z0 = {(j1, 3): rng.randrange(1 << (2 * p - 1)) for j1 in (1, 4)}
        mask = (1 << (2 * p - 1)) - 1
        want = {
            (j1, 1): (z0.get((j1, 3), 0)
                      + sum(xw[j1, j2] * yw[j1, j2] for j2 in (1, 2, 3))) & mask
            for j1 in range(1, 5)
        }
        assert m.reference(xw, yw, z0) == want
        assert m.run(xw, yw, z0).outputs == want
