#!/usr/bin/env python
"""CI smoke test for the analysis-as-a-service tier.

Starts an in-process job server, pushes a mix of jobs through the thin
HTTP client, and checks the two serving guarantees end to end:

1. **CLI parity** -- every served result's ``output`` equals the direct
   CLI subcommand's stdout byte-for-byte (wall-clock timings masked);
2. **Coalescing** -- N concurrent identical analyze submissions produce
   exactly one analysis-engine call and N identical results.

Exits non-zero on the first violation.  Run from a checkout:

    python scripts/serve_smoke.py
"""

import contextlib
import io
import pathlib
import re
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))


def _norm(text: str) -> str:
    return re.sub(r"\d+\.\d+s", "Ts", text)


def _cli(argv) -> str:
    from repro.__main__ import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"CLI {argv} exited {rc}"
    return buf.getvalue()


def main() -> int:
    from repro.serve import JobSpec, ServeClient, ServerThread

    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" +
              (f" -- {detail}" if detail and not ok else ""))

    with ServerThread() as handle:
        client = ServeClient(port=handle.port)
        print(f"serve-smoke: server on port {handle.port}")

        # 1. CLI parity across all four job kinds.
        print("mixed jobs vs direct CLI runs:")
        cases = [
            (JobSpec(kind="analyze", u=2, p=2, cache=False),
             ["analyze", "--u", "2", "--p", "2", "--no-cache"]),
            (JobSpec(kind="search", u=2, p=2, max_candidates=2),
             ["search", "--u", "2", "--p", "2", "--max-candidates", "2"]),
            (JobSpec(kind="simulate", u=2, p=2),
             ["simulate", "--u", "2", "--p", "2"]),
            (JobSpec(kind="verify", cases=3, oracle_budget_s=30.0),
             ["verify", "--cases", "3", "--budget-s", "30"]),
        ]
        served = client.run_many([spec for spec, _ in cases], timeout=300)
        for (spec, argv), result in zip(cases, served):
            expected = _cli(argv)
            check(
                f"{spec.kind}: served output == CLI output",
                result.ok and _norm(result.output) == _norm(expected),
                f"status={result.status} error={result.error!r}",
            )

        # CLI client mode produces the same bytes again.
        remote = _cli(["analyze", "--u", "2", "--p", "2", "--no-cache",
                       "--server", f"127.0.0.1:{handle.port}"])
        check("analyze: --server CLI == local CLI",
              _norm(remote) == _norm(_cli(
                  ["analyze", "--u", "2", "--p", "2", "--no-cache"])))

    # 2. Coalescing (fresh server: clean counters).
    with ServerThread() as handle:
        spec = JobSpec(kind="analyze", u=3, p=3, cache=False)
        results = [None] * 8

        def worker(i):
            results[i] = ServeClient(port=handle.port).run(spec, timeout=300)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = ServeClient(port=handle.port).stats()["server"]
        payloads = [r.to_payload() for r in results]
        check("coalescing: 8 identical jobs -> 1 engine call",
              stats.get("analysis.engine_calls") == 1
              and stats.get("serve.executions") == 1,
              f"stats={stats}")
        check("coalescing: 8 byte-identical results",
              all(p == payloads[0] for p in payloads) and results[0].ok)

    failed = checks.count(False)
    print(f"serve-smoke: {len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
