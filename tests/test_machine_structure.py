"""Tests for PEs, links, arrays, and the space-time value store."""

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.machine.array import SystolicArray
from repro.machine.links import Link, wire_length
from repro.machine.pe import ProcessorElement
from repro.machine.simulator import SpaceTimeSimulator, ValueStore
from repro.mapping import designs
from repro.mapping.feasibility import check_feasibility


class TestProcessorElement:
    def test_fire_records(self):
        pe = ProcessorElement((0, 0))
        pe.fire(3, (1, 1))
        assert pe.busy_cycles == 1
        assert pe.firings[3] == (1, 1)

    def test_conflict_raises(self):
        pe = ProcessorElement((0, 0))
        pe.fire(3, (1, 1))
        with pytest.raises(ValueError):
            pe.fire(3, (2, 2))

    def test_refire_same_point_ok(self):
        pe = ProcessorElement((0, 0))
        pe.fire(3, (1, 1))
        pe.fire(3, (1, 1))
        assert pe.busy_cycles == 1


class TestLink:
    def test_wire_length(self):
        assert wire_length((3, 0)) == 3
        assert wire_length((1, -1)) == 1
        assert wire_length(()) == 0

    def test_valid_link(self):
        link = Link((0, 0), (1, -1), (1, -1))
        assert link.length == 1

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            Link((0, 0), (2, 0), (1, 0))


class TestValueStore:
    def make(self):
        return ValueStore(designs.word_level_mapping())

    def test_put_get(self):
        s = self.make()
        s.put("x", (1, 1, 1), 7)
        assert s.get("x", (1, 1, 1)) == 7

    def test_default_for_boundary(self):
        s = self.make()
        assert s.get("x", (0, 0, 0), default=0) == 0

    def test_missing_without_default(self):
        s = self.make()
        with pytest.raises(KeyError):
            s.get("x", (0, 0, 0))

    def test_double_write_rejected(self):
        s = self.make()
        s.put("x", (1, 1, 1), 1)
        with pytest.raises(AssertionError):
            s.put("x", (1, 1, 1), 2)

    def test_causality_violation(self):
        s = self.make()
        s.put("x", (2, 2, 2), 1)  # produced at time 6
        s._set_context(5, None)
        with pytest.raises(AssertionError):
            s.get("x", (2, 2, 2))

    def test_causality_ok_when_earlier(self):
        s = self.make()
        s.put("x", (1, 1, 1), 1)  # t = 3
        s._set_context(4, None)
        assert s.get("x", (1, 1, 1)) == 1

    def test_pending_accumulates(self):
        s = self.make()
        s.add_pending("nr", (1, 1, 1), 1)
        s.add_pending("nr", (1, 1, 1), 1)
        assert s.pop_pending("nr", (1, 1, 1)) == 2
        assert s.pop_pending("nr", (1, 1, 1)) == 0


class TestSystolicArray:
    def build(self, u=2, p=2, design="fig4"):
        alg = matmul_bit_level(u, p, "II")
        binding = {"u": u, "p": p}
        if design == "fig4":
            t = designs.fig4_mapping(p)
            prims = designs.fig4_primitives(p)
        else:
            t = designs.fig5_mapping(p)
            prims = designs.fig5_primitives()
        rep = check_feasibility(t, alg, binding, primitives=prims)
        return SystolicArray(t, alg, binding, rep.interconnect)

    def test_fig4_pe_count(self):
        assert self.build(2, 2, "fig4").processor_count == 16

    def test_fig4_has_long_wires(self):
        arr = self.build(2, 3, "fig4")
        assert arr.longest_wire == 3

    def test_fig5_nearest_neighbour_only(self):
        arr = self.build(2, 3, "fig5")
        assert arr.longest_wire == 1

    def test_fig4_buffers_present(self):
        arr = self.build(2, 2, "fig4")
        assert arr.buffer_count > 0

    def test_fig5_buffer_only_on_d4_link(self):
        arr = self.build(2, 2, "fig5")
        # Fig. 5 keeps Π'd̄₄ = 2 with a single hop, so the [1,0]ᵀ link is
        # buffered exactly as in Fig. 4; every other link is unbuffered.
        buffered = {
            link.primitive for link in arr.links.values() if link.buffers
        }
        assert buffered == {(1, 0)}

    def test_no_interconnect_no_links(self):
        alg = matmul_bit_level(2, 2, "II")
        arr = SystolicArray(designs.fig4_mapping(2), alg, {"u": 2, "p": 2})
        assert arr.link_count == 0
        assert "PEs" in repr(arr)
