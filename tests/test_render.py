"""Tests for repro.render (text rendering)."""

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import matmul_word_structure
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.simulator import SpaceTimeSimulator
from repro.mapping import designs
from repro.render import (
    render_algorithm,
    render_dependence_matrix,
    render_gantt,
)
from repro.structures.dependence import DependenceMatrix


class TestDependenceMatrix:
    def test_matmul_word(self):
        out = render_dependence_matrix(matmul_word_structure().dependences)
        assert "x" in out and "y" in out and "z" in out
        assert "[" in out and "]" in out

    def test_bit_level_conditions_shown(self):
        out = render_dependence_matrix(matmul_bit_level().dependences)
        assert "c'" in out
        assert "q[3] == p" in out
        assert "q̄" in out  # the uniform column

    def test_row_count(self):
        out = render_dependence_matrix(matmul_bit_level().dependences)
        body_rows = [l for l in out.splitlines() if l.startswith(("[", "|"))]
        assert len(body_rows) == 5

    def test_empty(self):
        assert "empty" in render_dependence_matrix(DependenceMatrix([]))

    def test_long_conditions_stacked(self):
        alg = matmul_bit_level(expansion="I")
        out = render_dependence_matrix(alg.dependences)
        # Expansion I's q̄₁ condition is long; the validity block may stack.
        assert "valid at" in out or "q[2] ==" in out


class TestAlgorithm:
    def test_header(self):
        out = render_algorithm(matmul_bit_level())
        assert "5-dimensional" in out
        assert "J =" in out and "D =" in out

    def test_uniform_label(self):
        out = render_algorithm(matmul_word_structure())
        assert "uniform" in out


class TestGanttWavefronts:
    def test_gantt(self):
        m = BitLevelMatmulMachine(2, 2, designs.fig4_mapping(2), "II")
        sim = SpaceTimeSimulator(m.mapping, m.algorithm, m.binding)
        sim.run(lambda q, s: None)
        out = render_gantt(sim.pes)
        assert "#" in out and "t=" in out

    def test_gantt_truncation(self):
        m = BitLevelMatmulMachine(2, 2, designs.fig4_mapping(2), "II")
        sim = SpaceTimeSimulator(m.mapping, m.algorithm, m.binding)
        sim.run(lambda q, s: None)
        out = render_gantt(sim.pes, max_pes=2)
        assert "more PEs" in out

    def test_gantt_empty(self):
        assert "no PEs" in render_gantt({})
