"""Per-design compilation: from a space-time mapping to a specialized program.

Once a design ``T`` is fixed, the structure the simulator re-derives per
run -- schedule tables, the conflict check, the structural read/write
census -- is a constant of the design, and once the design has passed
that census the values it computes do not depend on ``T`` at all.  This
package resolves both once:

* :mod:`repro.compile.plan` -- memoized schedule plans (the run-invariant
  lattice/times/processors structure), the batched machine-model checks,
  and the dense lattice-indexed value store the programs write into;
* :mod:`repro.compile.model` / :mod:`repro.compile.word` -- design
  compilers for the model-(3.5) lattices, one compiled form per level:
  a design census over a value program shared by every design with one
  chain shape, whose one slot loop runs all ``h̄₃`` chains at once (bit
  level), and a slot-free batched-multiply-and-chain-sum program (word
  level);
* :mod:`repro.compile.runner` -- the ``compiled`` simulation backend:
  the in-process program memo and the execution harness producing
  bit-identical results and metrics versus the pointwise backend.

See ``docs/COMPILE.md``.
"""

from repro.compile.plan import SchedulePlan, clear_plan_memo, plan_for
from repro.compile.runner import clear_program_memo, run_compiled

__all__ = [
    "SchedulePlan",
    "clear_plan_memo",
    "plan_for",
    "run_compiled",
    "clear_program_memo",
]
