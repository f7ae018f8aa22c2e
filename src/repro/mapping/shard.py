"""Work-queue sharding of the design-space search over the artifact cache.

Scaling the search past one process (and, later, one machine) needs three
things the in-process engine does not provide: a *durable* unit of work
that any worker can pick up, a *claim* protocol so two workers do not
fight over a unit, and a *merge* that is independent of who computed
what.  This module supplies all three on top of the existing shared-mode
:class:`~repro.cache.store.ArtifactCache` and
:class:`~repro.cache.lock.FileLock` -- no new infrastructure, just files
in a directory any number of processes (or NFS-mounted machines) share:

* **Blocks.**  The space-candidate list -- enumerated deterministically
  by the solver (or catalog) exactly as :func:`run_search` would -- is
  split into contiguous index blocks whose size depends only on the
  candidate count, never on the worker count.
* **Claims.**  A JSON ledger under ``<shard_dir>/claims.lock`` maps block
  ids to claimants; a worker takes the lock, claims the first unclaimed
  block, and releases.  Claims are advisory: losing the lock (timeout)
  only risks duplicated work, never wrong output, because block results
  are deterministic and idempotent.
* **Results.**  Each finished block is published as one artifact-cache
  entry keyed by :func:`~repro.cache.keys.shard_run_key` + block id:
  the feasible designs in scan order, the block's partial Pareto
  frontier, its obs counter delta, and its :class:`EvalCache` delta.
  Every block is evaluated from a *fresh* cache, so its payload is a
  pure function of the block -- the property that makes merged metrics
  byte-identical for any worker count and claim interleaving.
* **Merge.**  The coordinator folds block payloads *in block-index
  order*: designs concatenate back into scan order (then rank or
  frontier-merge exactly as :func:`run_search` does), counters sum,
  partial frontiers fold through the associative
  :func:`~repro.mapping.pareto.merge_frontiers`, and the union of memo
  deltas is published as the shared ``mapping-memo`` entry for future
  engine runs against the same cache directory.  Blocks missing after
  the pool drains (a crashed worker) are evaluated inline by the
  coordinator, so the merge always completes.

The result payload (:meth:`ShardedSearchResult.payload_json`) is
byte-identical across worker counts 1/2/4 -- pinned by tests and a CI
diff -- and its design list matches :func:`run_search` for the same
:class:`SearchConfig`.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.mapping.engine import (
    SearchConfig,
    _EvalContext,
    _evaluate_space,
    _save_memo,
    _space_candidates,
    _structural_copy,
    ranked_schedules,
)
from repro.mapping.memo import EvalCache
from repro.mapping.pareto import (
    FrontierPoint,
    design_wire_length,
    merge_frontiers,
)
from repro.mapping.spacetime import processor_count
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = ["ShardedSearchResult", "run_sharded_search"]

#: Artifact-cache kind under which ledgers and block results live.
_KIND = "search-shard"


@dataclass
class ShardedSearchResult:
    """The deterministic merge of one sharded search.

    ``designs`` lists every feasible design kept after ranking (or the
    whole frontier in frontier mode) as JSON-native records with keys
    ``rows``, ``pi``, ``time``, ``processors``, ``wire_length``;
    ``frontier`` is the merged Pareto frontier (``None`` outside frontier
    mode); ``metrics`` sums the per-block obs counters in block order.
    ``workers`` is informational and deliberately excluded from
    :meth:`payload` -- everything in the payload is identical for any
    worker count.
    """

    designs: list[dict]
    frontier: list[dict] | None
    metrics: dict[str, int]
    blocks: int
    run_key: str
    workers: int

    def payload(self) -> dict:
        return {
            "run_key": self.run_key,
            "blocks": self.blocks,
            "designs": self.designs,
            "frontier": self.frontier,
            "metrics": self.metrics,
        }

    def payload_json(self) -> str:
        """Canonical bytes for the cross-worker-count identity contract."""
        return json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )


# ---------------------------------------------------------------------------
# Deterministic plan (shared verbatim by coordinator and workers)
# ---------------------------------------------------------------------------

def _plan(
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig,
    block_size: int | None,
):
    """(schedules, time_of, spaces, blocks): the run's immutable geometry.

    Pure function of the search inputs -- workers rebuild it bit-for-bit
    from the shipped payload, so block ``i`` means the same candidate
    slice in every process.  The block size never depends on the worker
    count (that would break cross-count byte-identity of block payloads).
    """
    schedules = ranked_schedules(algorithm, binding, config.schedule_bound)
    time_of = {pi: t for t, pi in schedules}
    if config.resolved_strategy == "solver":
        from repro.mapping.solver import SolverContext, enumerate_spaces

        sctx = SolverContext(
            algorithm, binding, primitives, schedules,
            config.require_busy, EvalCache(),
        )
        spaces = enumerate_spaces(
            sctx, config.target_space_dim, config.block_values
        )
    else:
        spaces = list(
            _space_candidates(
                algorithm.dim, config.target_space_dim, config.block_values
            )
        )
    if block_size is None:
        block_size = max(1, -(-len(spaces) // 16))
    blocks = [
        (start, min(start + block_size, len(spaces)))
        for start in range(0, max(len(spaces), 1), block_size)
    ]
    return schedules, time_of, spaces, blocks


def _run_key(algorithm, binding, primitives, config, blocks) -> str:
    from repro.cache.keys import shard_run_key

    from dataclasses import asdict

    cfg = asdict(config)
    cfg["block_values"] = list(cfg["block_values"])
    cfg["frontier"] = (
        None if cfg["frontier"] is None else list(cfg["frontier"])
    )
    cfg.pop("workers", None)  # any worker count cooperates on one run
    cfg.pop("persist_cache", None)
    return shard_run_key(
        algorithm.name,
        [list(c) for c in algorithm.dependences.columns()],
        algorithm.index_set.bounds(binding),
        primitives,
        cfg,
        len(blocks),
    )


# ---------------------------------------------------------------------------
# Claim protocol
# ---------------------------------------------------------------------------

def _ledger_key(run_key: str) -> str:
    return f"{run_key}-ledger"


def _block_key(run_key: str, block_id: int) -> str:
    return f"{run_key}-block-{block_id}"


def _claim_block(store, lock, run_key: str, n_blocks: int,
                 worker: str) -> int | None:
    """Claim the first unclaimed block id, or ``None`` when all are taken.

    Runs under the shared claims lock; on lock timeout the claim proceeds
    unlocked (best-effort, same policy as the cache store) -- the worst
    case is two workers computing the same deterministic block payload.
    """
    with lock:
        ledger = store.get(_KIND, _ledger_key(run_key))
        if not isinstance(ledger, dict) or "claimed" not in ledger:
            ledger = {"claimed": {}}
        for block_id in range(n_blocks):
            if str(block_id) in ledger["claimed"]:
                continue
            if store.get(_KIND, _block_key(run_key, block_id)) is not None:
                continue  # published by an earlier run of the same search
            ledger["claimed"][str(block_id)] = worker
            store.put(_KIND, _ledger_key(run_key), ledger)
            obs.count("mapping.shard.claims")
            return block_id
    return None


# ---------------------------------------------------------------------------
# Block evaluation (pure function of the block)
# ---------------------------------------------------------------------------

def _eval_block(
    spaces: list[list[list[int]]],
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig,
    schedules,
    time_of,
    d_cols,
) -> dict:
    """Evaluate one block from a fresh cache; JSON-native payload.

    The fresh :class:`EvalCache` (rather than one shared per worker) is
    what makes the payload independent of which worker evaluated the
    block and what it evaluated before -- the determinism anchor for the
    whole protocol.
    """
    ctx = _EvalContext(
        algorithm=algorithm,
        binding=binding,
        primitives=primitives,
        schedules=schedules,
        require_busy=config.require_busy,
        cache=EvalCache(),
        strategy=config.resolved_strategy,
    )
    designs: list[dict] = []
    with obs.collecting() as reg:
        for space in spaces:
            result = _evaluate_space(space, ctx)
            if result is None:
                continue
            pi, report = result
            mapping = MappingMatrix(space + [pi])
            designs.append(
                {
                    "rows": [list(r) for r in mapping.rows],
                    "pi": list(pi),
                    "time": time_of[tuple(pi)],
                    "processors": processor_count(
                        mapping, algorithm.index_set, binding
                    ),
                    "wire_length": design_wire_length(
                        report.interconnect, space, d_cols
                    ),
                }
            )
    frontier = None
    if config.frontier is not None:
        frontier = [
            pt.to_dict()
            for pt in merge_frontiers(
                _frontier_points(designs, config.frontier)
            )
        ]
    memo = _encode_memo(ctx.cache)
    return {
        "designs": designs,
        "frontier": frontier,
        "metrics": {
            name: int(value)
            for name, value in sorted(reg.delta()["counters"].items())
        },
        "memo": memo,
    }


def _frontier_points(designs: list[dict], metrics: tuple[str, ...]):
    return [
        FrontierPoint(
            metrics=tuple(int(d[m]) for m in metrics),
            rows=tuple(tuple(int(x) for x in row) for row in d["rows"]),
        )
        for d in designs
    ]


def _encode_memo(cache: EvalCache) -> list:
    from repro.cache import Unserializable, encode_obj

    out = []
    for key, value in cache.data.items():
        try:
            out.append([encode_obj(key), encode_obj(value)])
        except Unserializable:
            continue
    return out


# ---------------------------------------------------------------------------
# Worker loop (module-level for pickling)
# ---------------------------------------------------------------------------

def _worker_main(args: tuple) -> int:
    (shard_dir, worker_id, algorithm, binding, primitives, config,
     block_size) = args
    from repro.cache import ArtifactCache, FileLock

    schedules, time_of, spaces, blocks = _plan(
        algorithm, binding, primitives, config, block_size
    )
    run_key = _run_key(algorithm, binding, primitives, config, blocks)
    d_cols = [tuple(c) for c in algorithm.dependences.columns()]
    store = ArtifactCache(shard_dir, shared=True)
    lock = FileLock(Path(shard_dir) / "claims.lock")
    done = 0
    while True:
        block_id = _claim_block(
            store, lock, run_key, len(blocks), f"worker-{worker_id}"
        )
        if block_id is None:
            break
        start, end = blocks[block_id]
        payload = _eval_block(
            spaces[start:end], algorithm, binding, primitives, config,
            schedules, time_of, d_cols,
        )
        store.put(_KIND, _block_key(run_key, block_id), payload)
        done += 1
    return done


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

def run_sharded_search(
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig | None = None,
    *,
    workers: int = 1,
    shard_dir: str | None = None,
    block_size: int | None = None,
) -> ShardedSearchResult:
    """Shard a design-space search over a shared cache directory.

    ``workers`` processes claim and evaluate candidate blocks out of
    ``shard_dir`` (a fresh temporary directory when ``None``; pass the
    same existing directory to several invocations -- or machines sharing
    a filesystem -- to cooperate on one run).  The merged result is
    byte-identical (:meth:`ShardedSearchResult.payload_json`) for every
    ``workers`` value, and its design list equals
    :func:`~repro.mapping.engine.run_search` under the same config.

    ``workers=1`` runs the same claim/publish/merge protocol in-process;
    the worker count only changes wall-clock, never output.
    """
    from repro.cache import ArtifactCache

    config = config if config is not None else SearchConfig()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ephemeral = shard_dir is None
    if ephemeral:
        shard_dir = tempfile.mkdtemp(prefix="repro-shard-")
    try:
        with obs.span(
            "mapping.shard.search", workers=workers,
            strategy=config.resolved_strategy,
        ):
            schedules, time_of, spaces, blocks = _plan(
                algorithm, binding, primitives, config, block_size
            )
            run_key = _run_key(
                algorithm, binding, primitives, config, blocks
            )
            d_cols = [tuple(c) for c in algorithm.dependences.columns()]
            obs.gauge("mapping.shard.workers", workers)
            obs.count("mapping.shard.blocks", len(blocks))
            payload = (
                _structural_copy(algorithm), binding, primitives, config,
                block_size,
            )
            if workers <= 1 or len(blocks) <= 1:
                _worker_main((shard_dir, 0) + payload)
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    list(
                        pool.map(
                            _worker_main,
                            [
                                (shard_dir, i) + payload
                                for i in range(workers)
                            ],
                        )
                    )
            store = ArtifactCache(shard_dir, shared=True)
            merged = _merge(
                store, run_key, blocks, spaces, config, time_of, algorithm,
                binding, primitives, schedules, d_cols, workers,
            )
        return merged
    finally:
        if ephemeral:
            shutil.rmtree(shard_dir, ignore_errors=True)


def _merge(
    store, run_key, blocks, spaces, config, time_of, algorithm, binding,
    primitives, schedules, d_cols, workers,
) -> ShardedSearchResult:
    """Fold block payloads in block-index order (see module docstring)."""
    designs: list[dict] = []
    metrics: dict[str, int] = {}
    partial_frontiers: list[list[FrontierPoint]] = []
    memo = EvalCache()
    from repro.cache import Unserializable, decode_obj

    for block_id, (start, end) in enumerate(blocks):
        payload = store.get(_KIND, _block_key(run_key, block_id))
        if payload is None:
            # A worker died mid-block; finish its work inline.
            obs.count("mapping.shard.recovered_blocks")
            payload = _eval_block(
                spaces[start:end], algorithm, binding, primitives, config,
                schedules, time_of, d_cols,
            )
            store.put(_KIND, _block_key(run_key, block_id), payload)
        designs.extend(payload["designs"])
        for name, value in payload["metrics"].items():
            metrics[name] = metrics.get(name, 0) + int(value)
        if payload.get("frontier") is not None:
            partial_frontiers.append(
                [
                    FrontierPoint(
                        metrics=tuple(int(x) for x in pt["metrics"]),
                        rows=tuple(
                            tuple(int(x) for x in row)
                            for row in pt["rows"]
                        ),
                    )
                    for pt in payload["frontier"]
                ]
            )
        for entry in payload.get("memo", ()):
            try:
                key, value = entry
                memo.data.setdefault(decode_obj(key), decode_obj(value))
            except (Unserializable, TypeError, ValueError):
                continue
    if config.stop_after is not None:
        designs = designs[:config.stop_after]
    frontier = None
    if config.frontier is not None:
        merged_frontier = merge_frontiers(*partial_frontiers)
        frontier = [pt.to_dict() for pt in merged_frontier]
        by_rows = {tuple(map(tuple, d["rows"])): d for d in designs}
        designs = [by_rows[pt.rows] for pt in merged_frontier]
    else:
        designs.sort(key=lambda d: (d["time"], d["processors"]))
    if config.max_candidates is not None:
        designs = designs[:config.max_candidates]
        if frontier is not None:
            frontier = frontier[:config.max_candidates]
    if memo.data:
        memo.misses = len(memo.data)  # mark dirty for _save_memo parity
        _save_memo(store, memo)
    obs.count("mapping.shard.designs", len(designs))
    return ShardedSearchResult(
        designs=designs,
        frontier=frontier,
        metrics={name: metrics[name] for name in sorted(metrics)},
        blocks=len(blocks),
        run_key=run_key,
        workers=workers,
    )
