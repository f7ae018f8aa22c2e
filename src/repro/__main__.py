"""Command-line interface.

Usage::

    python -m repro experiments [e1 e2 ...]   # reproduce the paper's figures
    python -m repro structure [options]       # print a bit-level structure
    python -m repro design [options]          # check/search a matmul design
    python -m repro search [options]          # search the design space
    python -m repro simulate [options]        # run the bit-level matmul machine
    python -m repro analyze [options]         # general dependence analysis
    python -m repro cache stats|clear         # inspect the artifact cache
    python -m repro verify [options]          # differential oracle verification
    python -m repro serve [options]           # run the async job server

The ``analyze``, ``search``, ``simulate`` and ``verify`` subcommands are
thin clients of the unified job dispatch (:mod:`repro.serve`): each one
builds a frozen :class:`~repro.serve.jobs.JobSpec`, runs it through
:func:`~repro.serve.dispatch.run_job` (or, with ``--server HOST:PORT``,
ships it to a running ``repro serve`` instance), and prints the
``JobResult``'s output -- which is byte-identical to what the subcommand
printed before the dispatch existed.

Every subcommand honors the global observability flags (before or after the
subcommand name): ``--metrics-out FILE`` writes the flat metrics dict as
JSON, ``--trace FILE`` writes a span trace (``--trace-format jsonl`` for
JSON-lines, ``chrome`` for a Chrome trace-event / Perfetto file with
per-process tracks and counter tracks), and either one also prints a
human-readable trace tree -- plus live progress lines while the run goes
-- to stderr unless ``--quiet-metrics`` is given.  Without these flags no
registry is installed and output is exactly the uninstrumented program's.
"""

from __future__ import annotations

import argparse
import sys


def _dispatch(args: argparse.Namespace, spec) -> "object":
    """Run ``spec`` locally or on ``--server``; returns the JobResult."""
    server = getattr(args, "server", None)
    if server:
        from repro.serve import ServeClient

        host, _, port = server.rpartition(":")
        client = ServeClient(host=host or "127.0.0.1", port=int(port))
        return client.run(spec)
    from repro.serve.dispatch import run_job

    return run_job(spec)


def _finish(result) -> int:
    """Print a JobResult the way the pre-dispatch CLI did."""
    sys.stdout.write(result.output)
    if result.error:
        print(result.error.rstrip("\n"), file=sys.stderr)
    return result.exit_code


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as run_experiments

    return run_experiments(args.ids)


def _cmd_structure(args: argparse.Namespace) -> int:
    from repro.expansion.theorem31 import matmul_bit_level
    from repro.render import render_algorithm

    alg = matmul_bit_level(
        args.u, args.p, expansion=args.expansion, arith=args.arithmetic
    )
    print(render_algorithm(alg))
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.expansion.theorem31 import matmul_bit_level
    from repro.mapping import check_feasibility, designs, execution_time, processor_count

    alg = matmul_bit_level(args.u, args.p, expansion=args.expansion)
    binding = {"u": args.u, "p": args.p}
    for name, t, prims in [
        ("Fig. 4 (time-optimal)", designs.fig4_mapping(args.p),
         designs.fig4_primitives(args.p)),
        ("Fig. 5 (nearest-neighbour)", designs.fig5_mapping(args.p),
         designs.fig5_primitives()),
    ]:
        rep = check_feasibility(t, alg, binding, primitives=prims,
                                full_report=True)
        time = execution_time(t.schedule, alg, binding)
        pes = processor_count(t, alg.index_set, binding)
        print(f"{name}: {rep.summary()}")
        print(f"  t = {time}, PEs = {pes}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.serve.jobs import JobSpec

    spec = JobSpec(
        kind="search", u=args.u, p=args.p, expansion=args.expansion,
        target_space_dim=args.target_dim,
        block=None if args.block is None else tuple(args.block),
        schedule_bound=args.schedule_bound,
        max_candidates=args.max_candidates,
        workers=args.workers,
        overcollect=args.overcollect,
        exhaustive=args.exhaustive,
        primitives=args.primitives,
        strategy=args.strategy,
        frontier=(
            ("time", "processors", "wire_length") if args.pareto else None
        ),
        shard_workers=args.shard_workers,
        shard_dir=args.shard_dir,
    )
    return _finish(_dispatch(args, spec))


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.serve.jobs import JobSpec

    spec = JobSpec(
        kind="simulate", u=args.u, p=args.p, expansion=args.expansion,
        design=args.design, seed=args.seed, sim_backend=args.backend,
        gantt=args.gantt,
    )
    return _finish(_dispatch(args, spec))


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.serve.jobs import JobSpec

    if args.symbolic:
        spec = JobSpec(
            kind="analyze_symbolic", u=args.u, p=args.p,
            expansion=args.expansion,
            cache=not args.no_cache,  # this command defaults the cache to ON
            cache_dir=args.cache_dir,
        )
    else:
        spec = JobSpec(
            kind="analyze", u=args.u, p=args.p, expansion=args.expansion,
            method=args.method,
            use_screens=not args.no_screens,
            analysis_backend=args.backend,
            cache=not args.no_cache,  # this command defaults the cache to ON
            cache_dir=args.cache_dir,
        )
    return _finish(_dispatch(args, spec))


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ArtifactCache

    cache = ArtifactCache(args.dir)
    if args.action == "stats":
        st = cache.stats()
        print(f"cache root: {st['root']} (schema v{st['schema_version']})")
        print(f"entries: {st['entries']}  bytes: {st['bytes']:,} "
              f"(cap {st['max_bytes']:,})")
        for kind, count in st["kinds"].items():
            print(f"  {kind}: {count} entries")
        sess = st["session"]
        print(f"this process: {sess['hits']} hits, {sess['misses']} misses, "
              f"{sess['evictions']} evictions")
        store = st.get("store")
        if store is not None:
            # Cross-process totals from the locked on-disk stats ledger.
            print(f"store totals: {store['hits']} hits, "
                  f"{store['misses']} misses, "
                  f"{store['evictions']} evictions, "
                  f"{store['writes']} writes")
        from repro import obs

        obs.gauge("cache.bytes_on_disk", st["bytes"])
        obs.gauge("cache.entries", st["entries"])
        return 0
    kind = getattr(args, "kind", None)
    try:
        removed = cache.clear(kind=kind)
    except ValueError as exc:
        print(f"repro cache: {exc}", file=sys.stderr)
        return 2
    what = f"{kind} entries" if kind else "entries"
    print(f"cleared {removed} {what} under {cache.base}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cases = 10 if args.smoke and args.cases is None else (args.cases or 50)
    budget = 5.0 if args.smoke and args.budget_s is None else args.budget_s

    if args.mutation_check:
        from repro.verify import run_mutation_check

        counterexample = run_mutation_check(seed=args.seed, cases=cases)
        if counterexample is None:
            print(
                "mutation check FAILED: oracle_theorem31 did not catch the "
                "seeded validity bug"
            )
            return 1
        print(
            f"mutation check ok: seeded c' validity bug caught, "
            f"counterexample shrunk in {counterexample.shrink_steps} steps"
        )
        print(f"  case: {dict(counterexample.case)}")
        print(f"  {counterexample.detail}")
        return 0

    if args.search_mutation:
        from repro.verify import run_search_mutation_check

        counterexample = run_search_mutation_check(
            args.search_mutation, seed=args.seed, cases=cases
        )
        if counterexample is None:
            print(
                f"mutation check FAILED: oracle_search did not catch the "
                f"seeded {args.search_mutation} bug"
            )
            return 1
        print(
            f"mutation check ok: seeded {args.search_mutation} bug "
            f"caught, counterexample shrunk in "
            f"{counterexample.shrink_steps} steps"
        )
        print(f"  case: {dict(counterexample.case)}")
        print(f"  {counterexample.detail}")
        return 0

    if args.symbolic_mutation:
        from repro.verify import run_symbolic_mutation_check

        counterexample = run_symbolic_mutation_check(
            args.symbolic_mutation, seed=args.seed, cases=cases
        )
        if counterexample is None:
            print(
                f"mutation check FAILED: oracle_symbolic did not catch the "
                f"seeded {args.symbolic_mutation} bug"
            )
            return 1
        print(
            f"mutation check ok: seeded {args.symbolic_mutation} bug "
            f"caught, counterexample shrunk in "
            f"{counterexample.shrink_steps} steps"
        )
        print(f"  case: {dict(counterexample.case)}")
        print(f"  {counterexample.detail}")
        return 0

    from repro.serve.jobs import JobSpec

    spec = JobSpec(
        kind="verify",
        seed=args.seed,
        cases=cases,
        oracle_budget_s=budget,
        oracles=tuple(args.oracle) if args.oracle else None,
    )
    result = _dispatch(args, spec)
    rc = _finish(result)
    if args.report and result.data is not None:
        import json

        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(result.data, indent=2, sort_keys=True) + "\n"
                )
            print(f"report written to {args.report}")
        except OSError as exc:
            print(f"repro verify: cannot write report: {exc}", file=sys.stderr)
            return 1
    return rc


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import JobLimits, JobServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        limits=JobLimits(
            max_points=args.max_points,
            max_cases=args.max_cases,
            max_budget_s=args.max_budget_s,
        ),
        max_batch=args.max_batch,
    )
    server = JobServer(config)

    async def _run() -> None:
        await server.start()
        print(f"repro serve: listening on http://{server.host}:{server.port}",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _server_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", metavar="HOST:PORT", default=None,
        help="run this job on a 'repro serve' instance instead of in-process",
    )


def _obs_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """The global observability flags.

    Added both to the top-level parser (real defaults) and to every
    subparser with ``SUPPRESS`` defaults, so the flags are accepted on
    either side of the subcommand name without the subparser's defaults
    clobbering values parsed at the top level.
    """
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--trace", metavar="FILE", default=None if top_level else suppress,
        help="write a span trace to FILE (see --trace-format)",
    )
    parser.add_argument(
        "--trace-format", choices=["jsonl", "chrome"],
        default="jsonl" if top_level else suppress,
        help="trace file format: JSON-lines (default) or Chrome "
        "trace-event/Perfetto JSON",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None if top_level else suppress,
        help="write the run's metrics as JSON to FILE",
    )
    parser.add_argument(
        "--quiet-metrics", action="store_true",
        default=False if top_level else suppress,
        help="suppress the stderr trace-tree summary",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bit-level dependence analysis and architecture design "
        "(Shang & Wah, ICPP 1993 reproduction)",
    )
    _obs_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="reproduce the paper's figures")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (e1..e8)")
    _obs_options(p_exp, top_level=False)
    p_exp.set_defaults(fn=_cmd_experiments)

    def common(p):
        p.add_argument("--u", type=int, default=3, help="matrix dimension")
        p.add_argument("--p", type=int, default=3, help="word length")
        p.add_argument("--expansion", choices=["I", "II"], default="II")
        _obs_options(p, top_level=False)

    p_struct = sub.add_parser("structure", help="print a bit-level structure")
    common(p_struct)
    p_struct.add_argument(
        "--arithmetic", default="add-shift",
        help="registered arithmetic structure name",
    )
    p_struct.set_defaults(fn=_cmd_structure)

    p_design = sub.add_parser("design", help="check the paper's designs")
    common(p_design)
    p_design.set_defaults(fn=_cmd_design)

    p_search = sub.add_parser("search", help="search the design space")
    common(p_search)
    p_search.add_argument(
        "--target-dim", type=int, default=2,
        help="space dimensions of the target array",
    )
    p_search.add_argument(
        "--block", type=int, nargs="*", default=None, metavar="B",
        help="blocking factors for catalog rows b*e_i + e_j (default: p)",
    )
    p_search.add_argument("--schedule-bound", type=int, default=2,
                          help="max |entry| of candidate schedules")
    p_search.add_argument("--max-candidates", type=int, default=5,
                          help="ranked designs to return")
    p_search.add_argument("--workers", type=int, default=1,
                          help="worker processes for candidate evaluation")
    p_search.add_argument(
        "--overcollect", type=int, default=4,
        help="collect max_candidates*K feasible designs before ranking",
    )
    p_search.add_argument(
        "--exhaustive", action="store_true",
        help="evaluate the full catalog (ignore candidate caps)",
    )
    p_search.add_argument(
        "--primitives", choices=["fig4", "fig5", "mesh", "none"],
        default="fig4", help="interconnection-primitive set P",
    )
    p_search.add_argument(
        "--strategy", choices=["auto", "catalog", "solver"], default="auto",
        help="candidate generation: 'solver' prunes with the Definition 4.1 "
        "constraint system, 'catalog' enumerates everything (auto = solver)",
    )
    p_search.add_argument(
        "--pareto", action="store_true",
        help="return the Pareto frontier over (time, PEs, wire length) "
        "instead of the (time, PEs)-ranked list",
    )
    p_search.add_argument(
        "--shard-workers", type=int, default=None, metavar="N",
        help="shard the search: N processes claim candidate blocks from a "
        "shared work queue (see --shard-dir)",
    )
    p_search.add_argument(
        "--shard-dir", metavar="DIR", default=None,
        help="shared shard directory for cooperating --shard-workers runs "
        "(default: a fresh temporary directory)",
    )
    _server_option(p_search)
    p_search.set_defaults(fn=_cmd_search)

    p_sim = sub.add_parser("simulate", help="run the bit-level matmul machine")
    common(p_sim)
    p_sim.add_argument("--design", choices=["fig4", "fig5"], default="fig4")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--backend", choices=["pointwise", "compiled"],
        default=None,
        help="simulator engine (default: REPRO_SIM_BACKEND or pointwise); "
        "'compiled' runs per-design codegen kernels (see docs/COMPILE.md)",
    )
    p_sim.add_argument("--gantt", action="store_true", help="print PE chart")
    _server_option(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_analyze = sub.add_parser(
        "analyze", help="run general dependence analysis on bit-level matmul"
    )
    common(p_analyze)
    p_analyze.add_argument(
        "--symbolic", action="store_true",
        help="parametric analysis: solve once with u/p free, instantiate "
        "at the given sizes in O(1)",
    )
    p_analyze.add_argument(
        "--method", choices=["exact", "enumerate"], default="exact",
        help="exact (Diophantine) or enumerate (hash-join oracle)",
    )
    p_analyze.add_argument(
        "--backend", choices=["auto", "scalar", "batched"], default=None,
        help="engine backend (default: REPRO_ANALYSIS_BACKEND or auto)",
    )
    p_analyze.add_argument(
        "--no-screens", action="store_true",
        help="skip GCD/Banerjee screening (method=exact only)",
    )
    p_analyze.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent artifact cache",
    )
    p_analyze.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    _server_option(p_analyze)
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument(
        "--dir", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p_cache.add_argument(
        "--kind", default=None, metavar="KIND",
        help="with 'clear': remove only entries of this kind "
        "(e.g. analysis, symbolic)",
    )
    _obs_options(p_cache, top_level=False)
    p_cache.set_defaults(fn=_cmd_cache)

    p_verify = sub.add_parser(
        "verify", help="differential verification: run the randomized oracles"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--cases", type=int, default=None,
        help="random cases per oracle (default 50; 10 with --smoke)",
    )
    p_verify.add_argument(
        "--budget-s", type=float, default=None, metavar="S",
        help="wall-clock budget per oracle in seconds (default unbounded; "
        "5 with --smoke)",
    )
    p_verify.add_argument(
        "--oracle", action="append", default=None,
        choices=["theorem31", "analysis", "symbolic", "mapping", "simulator",
                 "search"],
        help="run only this oracle (repeatable; default: all)",
    )
    p_verify.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the JSON report (counterexamples included) to FILE",
    )
    p_verify.add_argument(
        "--smoke", action="store_true",
        help="small fast preset for PR CI (10 cases, 5s budget per oracle)",
    )
    p_verify.add_argument(
        "--mutation-check", action="store_true",
        help="self-test: seed a wrong validity condition into the Theorem "
        "3.1 assembly and require oracle_theorem31 to catch it",
    )
    p_verify.add_argument(
        "--symbolic-mutation", metavar="NAME", default=None,
        choices=["dropped-congruence", "shifted-bound"],
        help="self-test: seed NAME into the symbolic solver and require "
        "the symbolic cross-validation oracle to catch it",
    )
    p_verify.add_argument(
        "--search-mutation", metavar="NAME", default=None,
        choices=["tight-deadline", "dropped-conflict-gate"],
        help="self-test: seed NAME into the search solver's cuts and "
        "require the search differential oracle to catch it",
    )
    _server_option(p_verify)
    _obs_options(p_verify, top_level=False)
    p_verify.set_defaults(fn=_cmd_verify)

    p_serve = sub.add_parser(
        "serve", help="run the async analysis job server (HTTP/JSON)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8741,
                         help="listen port (0 picks a free port)")
    p_serve.add_argument(
        "--max-points", type=int, default=4_000_000,
        help="admission limit on estimated iteration-space points",
    )
    p_serve.add_argument(
        "--max-cases", type=int, default=1_000,
        help="admission limit on verify cases per job",
    )
    p_serve.add_argument(
        "--max-budget-s", type=float, default=None, metavar="S",
        help="cap (and default) for per-job wall-clock budgets",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16,
        help="max analyze jobs fused into one vectorized-engine call",
    )
    _obs_options(p_serve, top_level=False)
    p_serve.set_defaults(fn=_cmd_serve)
    return parser


def _progress_line(event: dict) -> None:
    """Render one bus ``progress`` event as a stderr status line."""
    done, total = event["done"], event["total"]
    parts = [
        f"[{event['name']}] {done}" + (f"/{total}" if total is not None else "")
    ]
    rate = event.get("rate")
    if rate:
        parts.append(f"{rate:.1f}/s")
    eta = event.get("eta_s")
    if eta is not None:
        parts.append(f"eta {eta:.1f}s")
    if event.get("final"):
        parts.append("done")
    print("  ".join(parts), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (args.trace or args.metrics_out):
        return args.fn(args)

    from repro import obs

    with obs.collecting() as reg:
        ring = None
        if args.trace and args.trace_format == "chrome":
            # Buffer bus events so the exporter can rebuild counter tracks.
            ring = obs.RingBufferSink()
            reg.add_sink(ring)
        if args.trace and not args.quiet_metrics:
            reg.add_sink(obs.CallbackSink(_progress_line, kinds={"progress"}))
        with reg.span(f"cli.{args.command}"):
            rc = args.fn(args)
        try:
            if args.trace:
                if args.trace_format == "chrome":
                    obs.write_chrome_trace(reg, args.trace, ring.events)
                else:
                    obs.write_trace(reg, args.trace)
            if args.metrics_out:
                obs.write_metrics(reg, args.metrics_out)
        except OSError as exc:
            print(f"repro: cannot write metrics: {exc}", file=sys.stderr)
            rc = rc or 1
        if not args.quiet_metrics:
            print(obs.render_tree(reg), file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
