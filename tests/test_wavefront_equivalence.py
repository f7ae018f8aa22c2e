"""Second-seed equivalence cases: compiled vs pointwise.

The paper's machine fires every index point of a hyperplane
``Pi j = t`` -- one wavefront -- in a single beat; the ``pointwise``
reference fires one point at a time.  The ``compiled`` backend must be
indistinguishable from it.  ``tests/test_compiled_equivalence.py`` is
the suite; this module repeats two of its sweeps from other seeds, so
together they cover more operands and more mappings:

* every registered arithmetic structure on its machine path, operand
  seed ``0xA1`` (the suite's is ``0xC0``);
* the word-level model machine on the ``kind="word"`` draws among >= 20
  seeded random feasible mappings from :mod:`repro.verify.generator`,
  draw seed ``42`` (the suite's is ``43``).
"""

from __future__ import annotations

import pytest

from repro.arith.registry import list_structures
from repro.compile.runner import clear_program_memo
from repro.machine.simulator import BACKENDS
from tests.equivalence import (
    assert_arithmetic_equivalent,
    assert_word_mappings_equivalent,
    install_capture,
)


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Every case starts cache-off with an empty program memo."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_program_memo()


@pytest.fixture
def capture(monkeypatch):
    return install_capture(monkeypatch)


@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_equivalence(arith):
    assert_arithmetic_equivalent(arith, BACKENDS, seed=0xA1)


def test_random_feasible_mappings_equivalent(capture):
    assert_word_mappings_equivalent(42, capture)
