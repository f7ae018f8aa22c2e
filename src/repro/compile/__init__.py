"""Per-design compilation: from a space-time mapping to a specialized kernel.

Once a design ``T`` is fixed, the structure the simulator re-derives per
run -- schedule tables, slot grouping, gather/scatter index plans, the
structural read/write census -- is a constant of the design.  This
package resolves it once:

* :mod:`repro.compile.plan` -- memoized schedule plans (the run-invariant
  lattice/times/slots structure), the batched machine-model checks, and
  the dense lattice-indexed value store the programs write into;
* :mod:`repro.compile.matmul` / :mod:`repro.compile.word` -- design
  compilers that emit loop-free, ``exec``-compiled NumPy kernels for the
  bit-level and word-level matmul lattices;
* :mod:`repro.compile.runner` -- the ``compiled`` simulation backend:
  the in-process program memo, the generic per-point path for everything
  else, and the execution harness producing bit-identical results and
  metrics versus the pointwise backend.

See ``docs/COMPILE.md``.
"""

from repro.compile.plan import (
    GenericPlan,
    SchedulePlan,
    clear_plan_memo,
    generic_plan_for,
    plan_for,
)
from repro.compile.runner import clear_program_memo, run_compiled

__all__ = [
    "GenericPlan",
    "SchedulePlan",
    "clear_plan_memo",
    "generic_plan_for",
    "plan_for",
    "run_compiled",
    "clear_program_memo",
]
