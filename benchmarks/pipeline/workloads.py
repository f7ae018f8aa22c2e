"""The four pipeline workloads: seeded job lists, set-up, one job, checks.

A workload runs in *passes*.  Pass ``k`` of a run with seed ``s`` is the
job list ``jobs(s, k, scale)``: a seeded permutation of a fixed multiset
of problem instances with seeded operands, so every pass does the same
work and only the order and the operand bits depend on the seed.
``start_pass`` puts the workload's caches back into the state the pass
is defined from (cold for ``design_flow``, ``analysis_cache`` and
``serve_mix``; ``sim_stream`` stays warm by design).

Each job is split into ``prepare`` (input generation, untimed), ``run``
(the timed calls into the layers' public functions, wrapped in
benchmark-owned spans) and ``check`` (run after the measured loop; it
returns the problems found, none when the output is correct).

Job lists are plain JSON data that depend only on the workload, seed,
pass index and scale.
"""

from __future__ import annotations

import os
import random

from repro.compile.plan import clear_plan_memo
from repro.compile.runner import clear_program_memo
from repro.depanalysis import AnalysisConfig, analyze
from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.expand import expand_bit_level
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.transform import MappingMatrix
from repro.serve import JobSpec, ServeClient, ServerThread
from repro.structures.params import S
from repro.symbolic import analyze_symbolic, clear_memo as clear_symbolic_memo

SCALES = ("full", "smoke")

#: Matrix multiplication as model (3.5): h̄ of x, y and z.
MATMUL_H = ([0, 1, 0], [1, 0, 0], [0, 0, 1])

_SEED_SPACE = 1 << 31


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """The generator behind one pass (string seeds hash deterministically)."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


def operands(u: int, p: int, seed: int):
    """``X``, ``Y`` exactly as the serve ``simulate`` handler draws them."""
    rng = random.Random(seed)
    x = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    return x, y


def reference_product(x, y, p: int):
    """``X·Y mod 2^(2p-1)`` in plain Python integers."""
    u = len(x)
    mask = (1 << (2 * p - 1)) - 1
    return [
        [sum(x[i][k] * y[k][j] for k in range(u)) & mask for j in range(u)]
        for i in range(u)
    ]


def fig_mapping(design: str, p: int) -> MappingMatrix:
    return designs.fig4_mapping(p) if design == "fig4" else designs.fig5_mapping(p)


def fig_closed_forms(design: str, u: int, p: int) -> tuple[int, int]:
    """(makespan, PEs) of a paper design: eqs. (4.2)/(4.5) and (4.6)."""
    if design == "fig4":
        return designs.t_fig4(u, p), designs.fig4_processor_count(u, p)
    return designs.t_fig5(u, p), designs.fig5_processor_count(u, p)


def matmul_program(u, p, expansion: str):
    """The explicit bit-level matmul program (Expansion I or II)."""
    return expand_bit_level(*MATMUL_H, [1, 1, 1], [u, u, u], p, expansion)


def sim_record(run) -> dict:
    return {
        "product": run.product,
        "makespan": run.sim.makespan,
        "pes": run.sim.processor_count,
        "points": run.sim.computations,
    }


def check_run(x, y, p: int, out: dict, makespan: int, pes: int) -> list[str]:
    """A simulated product, makespan and PE count against their references."""
    problems = []
    if out["product"] != reference_product(x, y, p):
        problems.append("product differs from the Python reference")
    if out["makespan"] != makespan:
        problems.append(f"makespan {out['makespan']} != expected {makespan}")
    if out["pes"] != pes:
        problems.append(f"PE count {out['pes']} != expected {pes}")
    return problems


class Context:
    """Per-process workload state: the tracer, a scratch directory, and
    whatever the workload's set-up builds."""

    def __init__(self, tracer, work_dir: str, scale: str):
        self.tracer = tracer
        self.work_dir = work_dir
        self.scale = scale
        self.first_runs: set = set()

    def sim_span(self, key):
        """Label a simulation by whether this process has run the design
        since the last memo reset: a first run compiles its kernel."""
        if key in self.first_runs:
            return self.tracer.span("machine.run")
        self.first_runs.add(key)
        return self.tracer.span("compile.first_run")

    def reset_memos(self) -> None:
        clear_program_memo()
        clear_plan_memo()
        self.first_runs.clear()

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        os.makedirs(path)
        return path


class Workload:
    name = ""
    clients = 1

    def jobs(self, seed: int, pass_index: int, scale: str) -> list[dict]:
        raise NotImplementedError

    def setup(self, ctx: Context) -> None:
        """Per-process set-up, timed as part of ``setup_s``."""

    def teardown(self, ctx: Context) -> None:
        """Stop what ``setup`` started."""

    def start_pass(self, ctx: Context, pass_index: int) -> None:
        """Reset the caches the pass is defined from (not timed as a job)."""

    def prepare(self, job: dict):
        """Untimed input generation for one job."""
        return operands(job["u"], job["p"], job["seed"])

    def run(self, ctx: Context, job: dict, inputs) -> dict:
        raise NotImplementedError

    def check(self, ctx: Context, job: dict, inputs, out: dict) -> list[str]:
        raise NotImplementedError


class DesignFlow(Workload):
    """The paper's whole flow as a designer runs it: expand -> Theorem 3.1
    -> Definition 4.1 search -> compiled run of the best design."""

    name = "design_flow"

    def jobs(self, seed, pass_index, scale):
        sizes = (2, 3, 4) if scale == "full" else (2,)
        rng = pass_rng(self.name, seed, pass_index)
        # Each instance twice, with its own operands: 36 jobs keep the p90
        # off the single slowest job, and a repeated design runs warm.
        inst = [(u, p, e) for u in sizes for p in sizes for e in ("I", "II")] * 2
        rng.shuffle(inst)
        return [
            {"u": u, "p": p, "expansion": e, "seed": rng.randrange(_SEED_SPACE)}
            for u, p, e in inst
        ]

    def start_pass(self, ctx, pass_index):
        ctx.reset_memos()  # a designer's fresh process compiles every design

    def run(self, ctx, job, inputs):
        u, p, e = job["u"], job["p"], job["expansion"]
        span = ctx.tracer.span
        with span("ir.expand"):
            program = matmul_program(u, p, e)
        with span("expansion.structure"):
            alg = matmul_bit_level(u, p, e)
        config = SearchConfig(target_space_dim=2, block_values=[p],
                              schedule_bound=2, max_candidates=5)
        with span("mapping.search"):
            found = run_search(alg, {"u": u, "p": p},
                               designs.fig4_primitives(p), config)
        best = found[0]
        machine = BitLevelMatmulMachine(u, p, best.mapping, e,
                                        backend="compiled")
        with ctx.sim_span((best.mapping.rows, u, p, e)) as attrs:
            run = machine.run(*inputs)
            attrs["points"] = run.sim.computations
        out = sim_record(run)
        out.update(time=best.time, processors=best.processors,
                   dims=len(program.index_names))
        return out

    def check(self, ctx, job, inputs, out):
        problems = check_run(*inputs, job["p"], out,
                             out["time"], out["processors"])
        if out["dims"] != 5:
            problems.append(f"expanded program has {out['dims']} indices")
        return problems


class SimStream(Workload):
    """Round-robin runs of four fig4/fig5 designs compiled during set-up."""

    name = "sim_stream"
    RUNS_PER_DESIGN = 6

    @staticmethod
    def designs(scale):
        n = 16 if scale == "full" else 4
        return [(d, e, n) for d in ("fig4", "fig5") for e in ("I", "II")]

    def jobs(self, seed, pass_index, scale):
        rng = pass_rng(self.name, seed, pass_index)
        reps = self.RUNS_PER_DESIGN if scale == "full" else 1
        inst = self.designs(scale) * reps
        rng.shuffle(inst)
        return [
            {"design": d, "expansion": e, "u": n, "p": n,
             "seed": rng.randrange(_SEED_SPACE)}
            for d, e, n in inst
        ]

    def setup(self, ctx):
        ctx.machines = {}
        for d, e, n in self.designs(ctx.scale):
            machine = BitLevelMatmulMachine(n, n, fig_mapping(d, n), e,
                                            backend="compiled")
            with ctx.tracer.span("compile.first_run", job="setup"):
                machine.run(*operands(n, n, 0))
            ctx.machines[d, e] = machine

    def run(self, ctx, job, inputs):
        machine = ctx.machines[job["design"], job["expansion"]]
        with ctx.tracer.span("machine.run") as attrs:
            run = machine.run(*inputs)
            attrs["points"] = run.sim.computations
        return sim_record(run)

    def check(self, ctx, job, inputs, out):
        makespan, pes = fig_closed_forms(job["design"], job["u"], job["p"])
        return check_run(*inputs, job["p"], out, makespan, pes)


class AnalysisCache(Workload):
    """Exact analysis through the artifact cache: one cold miss and write
    per instance, interleaved with cached re-reads, each cross-checked
    against the symbolic closed form."""

    name = "analysis_cache"
    REPEATS = 7

    def jobs(self, seed, pass_index, scale):
        if scale == "full":
            us, ps, reps = range(2, 7), range(2, 6), self.REPEATS
        else:
            us, ps, reps = (2, 3), (2,), 1
        rng = pass_rng(self.name, seed, pass_index)
        order = [(u, p, e) for u in us for p in ps for e in ("I", "II")]
        order *= 1 + reps
        rng.shuffle(order)
        seen: set = set()
        out = []
        for inst in order:
            u, p, e = inst
            out.append({"u": u, "p": p, "expansion": e,
                        "cold": inst not in seen})
            seen.add(inst)
        return out

    def setup(self, ctx):
        cache_dir = ctx.fresh_dir("symbolic")
        ctx.symbolic = {}
        for e in ("I", "II"):
            with ctx.tracer.span("symbolic.solve", job="setup"):
                ctx.symbolic[e] = analyze_symbolic(
                    matmul_program(S("u"), S("p"), e),
                    cache=True, cache_dir=cache_dir,
                )

    def start_pass(self, ctx, pass_index):
        ctx.cache_dir = ctx.fresh_dir(f"analysis-{pass_index}")

    def prepare(self, job):
        return None

    def run(self, ctx, job, inputs):
        u, p, e = job["u"], job["p"], job["expansion"]
        span = ctx.tracer.span
        with span("ir.expand"):
            program = matmul_program(u, p, e)
        config = AnalysisConfig(cache=True, cache_dir=ctx.cache_dir)
        with span("depanalysis.analyze") as attrs:
            result = analyze(program, {"p": p}, config=config)
            attrs["instances"] = len(result.instances)
            attrs["cold"] = job["cold"]
        with span("symbolic.summary"):
            summary = ctx.symbolic[e].summary({"u": u, "p": p})
        return {"instances": len(result.instances),
                "symbolic": summary["instances"]}

    def check(self, ctx, job, inputs, out):
        if out["instances"] != out["symbolic"]:
            return [f"exact count {out['instances']} != symbolic "
                    f"{out['symbolic']}"]
        return []


class ServeMix(Workload):
    """Two closed-loop clients against an in-process job server: mostly
    small simulations over more kernels than the compiled-program memo
    holds, plus analyses, symbolic analyses, searches and exact repeats."""

    name = "serve_mix"
    clients = 2

    def jobs(self, seed, pass_index, scale):
        rng = pass_rng(self.name, seed, pass_index)
        full = scale == "full"

        def seeded(spec):
            return {**spec, "seed": rng.randrange(_SEED_SPACE)}

        # 24 kernels, three times the compiled-program memo: later runs of
        # a kernel come from the memo or from the kernel disk cache.
        kernels = [
            {"kind": "simulate", "design": d, "expansion": e, "u": u, "p": p,
             "sim_backend": "compiled"}
            for d in ("fig4", "fig5") for e in ("I", "II")
            for u in ((6, 8, 10) if full else (2, 3))
            for p in ((6, 8) if full else (2,))
        ]
        small = [{"u": u, "p": p, "expansion": e} for u in (2, 3, 4)
                 for p in (2, 3) for e in ("I", "II")]
        if not full:
            small = small[:2]
        # The seed is part of the job key, so a repeated analysis with a
        # fresh seed runs again and reads the analysis cache.
        specs = [seeded(k) for k in kernels * 2]
        specs += [seeded(k) for k in rng.sample(kernels, 6 if full else 0)]
        specs += [seeded({"kind": "analyze", **s})
                  for s in small + rng.sample(small, 6 if full else 0)]
        specs += [seeded({"kind": "analyze_symbolic", **s}) for s in small]
        specs += [seeded({"kind": "search", "u": 2, "p": 2, "expansion": e})
                  for e in (("I", "II") * 3 if full else ("II",))]
        rng.shuffle(specs)
        # About 10% exact repeats, each after its original: the server
        # answers them from its result cache (coalescing on the job key).
        for _ in range(max(1, len(specs) // 10)):
            i = rng.randrange(len(specs))
            specs.insert(rng.randrange(i + 1, len(specs) + 1), dict(specs[i]))
        return specs

    def setup(self, ctx):
        self._use_cache_dir(ctx.fresh_dir("serve-setup"))
        ctx.server = ServerThread().start()
        ctx.client = ServeClient(port=ctx.server.port, timeout=120.0)
        ctx.client.health()
        ctx.references = {}

    def teardown(self, ctx):
        server = getattr(ctx, "server", None)
        if server is not None:
            server.stop()

    @staticmethod
    def _use_cache_dir(path):
        # The server resolves the kernel and analysis caches from the
        # environment, as a deployed server does.
        os.environ["REPRO_CACHE_DIR"] = path

    def start_pass(self, ctx, pass_index):
        self._use_cache_dir(ctx.fresh_dir(f"serve-{pass_index}"))
        ctx.reset_memos()
        clear_symbolic_memo()

    def prepare(self, job):
        return JobSpec(**job)

    def run(self, ctx, job, spec):
        with ctx.tracer.span("serve.run"):
            submitted = ctx.client.submit(spec)
            result = ctx.client.wait(submitted["job_id"], timeout=120.0)
        return {"status": result.status, "data": result.data,
                "error": result.error, "elapsed_s": result.elapsed_s,
                "metrics": result.metrics,
                "coalesced": submitted["coalesced"]}

    # -- each answer is checked against a route the server did not take ----
    def check(self, ctx, job, spec, out):
        if out["status"] != "ok":
            return [f"{spec.kind} returned {out['status']}: {out['error']}"]
        data, u, p, e = out["data"], spec.u, spec.p, spec.expansion
        if spec.kind == "simulate":
            makespan, pes = fig_closed_forms(spec.design, u, p)
            run = {"product": data["product"], "makespan": data["makespan"],
                   "pes": data["processors"]}
            return check_run(*operands(u, p, spec.seed), p, run, makespan, pes)
        if spec.kind == "search":
            return self._check_search(u, p, e, spec.seed, data)
        if spec.kind == "analyze":
            want = self._closed_form_count(ctx, u, p, e)
        else:
            want = self._exact_count(ctx, u, p, e)
        if data["instances"] != want:
            return [f"{spec.kind} count {data['instances']} != {want}"]
        return []

    @staticmethod
    def _exact_count(ctx, u, p, e) -> int:
        key = ("exact", u, p, e)
        if key not in ctx.references:
            result = analyze(matmul_program(u, p, e), {"p": p},
                             config=AnalysisConfig(cache=False))
            ctx.references[key] = len(result.instances)
        return ctx.references[key]

    @staticmethod
    def _closed_form_count(ctx, u, p, e) -> int:
        key = ("symbolic", e)
        if key not in ctx.references:
            ctx.references[key] = analyze_symbolic(
                matmul_program(S("u"), S("p"), e), cache=False
            )
        return ctx.references[key].count({"u": u, "p": p})

    @staticmethod
    def _check_search(u, p, e, seed, data) -> list[str]:
        """Run the best design found on the pointwise reference simulator."""
        if not data["candidates"]:
            return ["search returned no design"]
        best = data["candidates"][0]
        machine = BitLevelMatmulMachine(u, p, MappingMatrix(best["rows"]), e,
                                        backend="pointwise")
        x, y = operands(u, p, seed)
        return check_run(x, y, p, sim_record(machine.run(x, y)),
                         best["time"], best["processors"])


REGISTRY = {w.name: w for w in (DesignFlow(), SimStream(), AnalysisCache(),
                                ServeMix())}
