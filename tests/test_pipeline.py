"""Tests for the end-to-end design pipeline."""

import pytest

from repro.pipeline import BitLevelDesigner


def matmul_designer(u=2, p=2, **kw):
    return BitLevelDesigner(
        h1=[0, 1, 0], h2=[1, 0, 0], h3=[0, 0, 1],
        lowers=[1, 1, 1], uppers=[u, u, u], p=p, **kw,
    )


class TestConfiguration:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BitLevelDesigner([1], [1, 0], [1], [1], [3], 2)

    def test_structure_cached(self):
        d = matmul_designer()
        assert d.structure() is d.structure()

    def test_structure_shape(self):
        d = matmul_designer(3, 2)
        alg = d.structure()
        assert alg.dim == 5
        assert len(alg.dependences) == 7

    def test_expansion_selection(self):
        d = matmul_designer(expansion="I")
        assert d.expansion.key == "I"


class TestValidate:
    def test_matmul_validates(self):
        rep = matmul_designer(2, 2).validate()
        assert rep.matches

    def test_convolution_validates(self):
        d = BitLevelDesigner([1, 0], [1, -1], [0, 1], [1, 1], [3, 2], 2)
        assert d.validate().matches


class TestDesignAndBuild:
    def test_full_pipeline_matmul(self, rng):
        u, p = 2, 2
        d = matmul_designer(u, p)
        best = d.design(schedule_bound=2, max_candidates=3)
        assert best.report.feasible

        machine = d.build_machine(best.mapping)
        X = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        Y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
        xw, yw = {}, {}
        for j1 in range(1, u + 1):
            for j2 in range(1, u + 1):
                for j3 in range(1, u + 1):
                    xw[(j1, j2, j3)] = X[j1 - 1][j3 - 1]
                    yw[(j1, j2, j3)] = Y[j3 - 1][j2 - 1]
        run = machine.run(xw, yw)
        assert run.outputs == machine.reference(xw, yw)
        assert run.sim.makespan == best.time

    def test_check_user_mapping(self):
        from repro.mapping import designs

        d = matmul_designer(2, 2)
        rep = d.check(designs.fig4_mapping(2), designs.fig4_primitives(2))
        assert rep.feasible

    def test_infeasible_search_raises(self):
        from repro.mapping.interconnect import mesh_primitives

        d = matmul_designer(2, 2)
        with pytest.raises(RuntimeError):
            # A 1-D array with tiny schedule coefficients is impossible.
            d.design(primitives=mesh_primitives(1), target_space_dim=1,
                     schedule_bound=1, max_candidates=1)

    def test_default_primitives_include_long_wires(self):
        d = matmul_designer(2, 3)
        prims = d.default_primitives()
        cols = {tuple(prims[r][j] for r in range(2)) for j in range(len(prims[0]))}
        assert (3, 0) in cols and (0, 3) in cols and (1, -1) in cols

    def test_default_primitives_for_a_3d_array(self):
        # Without primitives, design() and check() build the interconnect
        # for the mapping's space dimension (mesh + length-p wires).
        d = matmul_designer(2, 2)
        best = d.design(target_space_dim=3)
        assert len(best.mapping.space) == 3
        assert (best.time, best.processors) == (7, 8)
        assert d.check(best.mapping).feasible

    def test_default_primitives_for_a_1d_array(self):
        # The search runs (no P-row ValueError) and finds nothing.
        with pytest.raises(RuntimeError, match="no feasible design"):
            matmul_designer(2, 2).design(target_space_dim=1)
