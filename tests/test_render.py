"""Tests for repro.render (text rendering)."""

import json

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import matmul_word_structure
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.simulator import BACKENDS, SpaceTimeSimulator
from repro.render import (
    render_algorithm,
    render_dependence_matrix,
    render_gantt,
)
from repro.serve.dispatch import run_job
from repro.serve.jobs import JobSpec
from repro.structures.dependence import DependenceMatrix
from tests.equivalence import design_mapping


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


def _chart_cells(text):
    """The chart's PE labels, its beat count and its ``#`` cells as
    ``(PE, column)`` pairs."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if " t=" in line)
    labels, cells = [], set()
    for line in lines[head + 1:]:
        if not line.lstrip().startswith("["):
            break
        label, row = line.rsplit("   ", 1)
        pos = tuple(json.loads(label))
        labels.append(pos)
        cells |= {(pos, col) for col, c in enumerate(row) if c == "#"}
    return labels, len(lines[head].split(" t=")[1]), cells


def _pointwise_cells(machine, max_pes=24, max_time=80):
    """What the pointwise interpreter's firing records show over the
    chart's window: its first PEs and beats."""
    sim = SpaceTimeSimulator(
        machine.mapping, machine.algorithm, machine.binding,
        backend="pointwise",
    )
    sim.run(lambda q, s: None)
    times = [t for pe in sim.pes.values() for t in pe.firings]
    t0 = min(times)
    span = min(max(times), t0 + max_time - 1)
    labels = sorted(sim.pes)[:max_pes]
    cells = {
        (pos, t - t0)
        for pos in labels for t in sim.pes[pos].firings if t <= span
    }
    return labels, span - t0 + 1, cells


class TestGanttWavefronts:
    """The chart is read off ``T`` and the box (Definition 4.1: point j̄
    fires on PE ``S j̄`` at beat ``Π j̄``), not off a run."""

    def _design(self, u=2, p=2, design="fig4", expansion="II"):
        m = BitLevelMatmulMachine(u, p, design_mapping(design, p), expansion)
        return m, m.algorithm.index_set.bounds(m.binding)

    def test_gantt(self):
        m, bounds = self._design()
        out = render_gantt(m.mapping, bounds)
        assert "#" in out and "t=" in out
        assert _chart_cells(out) == _pointwise_cells(m)

    def test_gantt_truncation(self):
        m, bounds = self._design()
        out = render_gantt(m.mapping, bounds, max_pes=2)
        assert "more PEs" in out
        assert _chart_cells(out) == _pointwise_cells(m, max_pes=2)

    def test_gantt_empty(self):
        m, _ = self._design()
        assert "no PEs" in render_gantt(m.mapping, [(1, 0)] * 5)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("expansion", ["I", "II"])
    @pytest.mark.parametrize("design", ["fig4", "fig5"])
    def test_chart_is_the_pointwise_firing_record(
        self, design, expansion, backend
    ):
        """A ``--gantt`` job's ``#`` cells are the pointwise interpreter's
        firings over its first 24 PEs and 80 beats, on either backend."""
        spec = JobSpec(kind="simulate", u=3, p=3, design=design,
                       expansion=expansion, sim_backend=backend, gantt=True)
        result = run_job(spec)
        assert result.exit_code == 0
        m, _ = self._design(3, 3, design, expansion)
        assert _chart_cells(result.output) == _pointwise_cells(m)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gantt_job_runs_one_simulation(self, backend, monkeypatch):
        runs = []
        real = SpaceTimeSimulator.run

        def counting(sim, compute, kernel=None):
            runs.append(sim.backend)
            return real(sim, compute, kernel)

        monkeypatch.setattr(SpaceTimeSimulator, "run", counting)
        spec = JobSpec(kind="simulate", u=2, p=2, sim_backend=backend,
                       gantt=True)
        assert run_job(spec).exit_code == 0
        assert runs == [backend]
