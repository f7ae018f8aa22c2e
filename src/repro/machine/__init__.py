"""Systolic-machine models: the simulation substrate.

The paper's architectures (Figs. 4 and 5) are VLSI arrays; we substitute a
functional, timing-faithful simulator implementing the paper's own machine
model -- the computation indexed by ``q̄`` fires at time ``Π q̄`` on
processor ``S q̄``, data moves one interconnection primitive per time unit,
early arrivals sit in link buffers:

* :mod:`repro.machine.pe` / :mod:`repro.machine.links` /
  :mod:`repro.machine.array` -- the structural model: processor elements,
  typed links with buffer stages, wire-length accounting, built from a
  mapping plus its interconnect solution;
* :mod:`repro.machine.simulator` -- the space-time executor: runs an
  algorithm's computations in schedule order with exact arrival checking
  and conflict detection;
* :mod:`repro.machine.model` -- the bit-level machine: executes any
  model-(3.5) algorithm (Expansion I/II) on a mapped array, bit-exactly,
  per point or through the design's compiled program;
* :mod:`repro.machine.bitlevel` -- the bit-level matrix-multiplication
  machine: the model machine at matmul's ``h̄`` (``MATMUL_H``) plus the
  product extraction;
* :mod:`repro.machine.wordmodel` / :mod:`repro.machine.wordlevel` -- the
  word-level counterparts: any model-(3.5) algorithm with pluggable
  sequential arithmetic (``t_b``), and the word-level matmul baseline
  array [4] on top of it;
* :mod:`repro.machine.partition` -- pass-partitioned runs of the model
  machine on a fixed-depth array.
"""

from repro.machine.array import SystolicArray
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import BitLevelModelMachine
from repro.machine.partition import PartitionedModelMachine
from repro.machine.simulator import (
    BACKENDS,
    SimulationResult,
    SpaceTimeSimulator,
    default_backend,
    resolve_backend,
)
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.machine.wordmodel import WordLevelModelMachine

__all__ = [
    "BACKENDS",
    "default_backend",
    "resolve_backend",
    "SystolicArray",
    "BitLevelMatmulMachine",
    "BitLevelModelMachine",
    "PartitionedModelMachine",
    "SimulationResult",
    "SpaceTimeSimulator",
    "WordLevelMatmulMachine",
    "WordLevelModelMachine",
]
