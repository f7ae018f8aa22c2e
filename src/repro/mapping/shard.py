"""Sharded design-space search: publish and reuse the blocks of one scan.

A search is a fold over its space candidates whose merge is associative
-- designs concatenate in scan order, counters add, partial Pareto
frontiers merge through :func:`~repro.mapping.pareto.merge_frontiers` --
so the scan can be cut into blocks, each block's partial result published
as a file, and any later run (in another process, or on a machine sharing
the directory) can reuse what is already there.  This module is that
publish-and-reuse layer over the engine, built on the shared-mode
:class:`~repro.cache.store.ArtifactCache`:

* **Blocks.**  The space-candidate list -- planned by the engine's own
  set-up, exactly as :func:`~repro.mapping.engine.run_search` scans it --
  is split into contiguous index blocks whose size depends only on the
  candidate count.
* **Results.**  Each block is published as one artifact-cache entry keyed
  by :func:`~repro.cache.keys.shard_run_key` + block id: the feasible
  designs in scan order, the block's partial Pareto frontier and its obs
  counters.  Every block is evaluated from a *fresh* :class:`EvalCache`,
  so its payload is a pure function of the block -- whichever run
  published it, and whatever that run evaluated before it.
* **Evaluation.**  A run evaluates only the blocks missing from
  ``shard_dir`` when it starts, in-process and in block order, publishes
  each as it finishes, and folds its counters into the ambient registry
  (reused blocks add nothing).  There are no claims: invocations sharing
  a directory each evaluate what was unpublished when they started, and
  a block published twice is published identically.
* **Merge.**  Block payloads fold *in block-index order*: designs
  concatenate back into scan order (then rank or frontier-merge exactly
  as :func:`run_search` does), counters sum, partial frontiers merge.

The result payload (:meth:`ShardedSearchResult.payload_json`) is the
same bytes whichever blocks were reused, and its design list (and
frontier) matches :func:`run_search` for the same :class:`SearchConfig`
-- pinned by tests and a CI diff.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import Sequence

from repro import obs
from repro.mapping.engine import (
    SearchConfig,
    _EvalContext,
    _evaluate_space,
    _setup,
)
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

#: Artifact-cache kind under which block results live.
_KIND = "search-shard"

#: Target block count of a run (the last block may be short).
_BLOCKS = 16


@dataclass
class ShardedSearchResult:
    """The deterministic merge of one sharded search.

    ``designs`` lists every feasible design kept after ranking (or the
    whole frontier in frontier mode) as JSON-native records with keys
    ``rows``, ``pi``, ``time``, ``processors``, ``wire_length``;
    ``frontier`` is the merged Pareto frontier (``None`` outside frontier
    mode); ``metrics`` sums the per-block obs counters in block order.
    """

    designs: list[dict]
    frontier: list[dict] | None
    metrics: dict[str, int]
    blocks: int
    run_key: str

    def payload(self) -> dict:
        return {
            "run_key": self.run_key,
            "blocks": self.blocks,
            "designs": self.designs,
            "frontier": self.frontier,
            "metrics": self.metrics,
        }

    def payload_json(self) -> str:
        """Canonical bytes of :meth:`payload` (sorted keys, compact)."""
        return json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )


# ---------------------------------------------------------------------------
# Block geometry and keys
# ---------------------------------------------------------------------------

def _blocks(n_spaces: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, end)`` candidate slices of one run.

    The block size depends only on the candidate count, so every run of
    one search cuts the same blocks and can reuse another run's.
    """
    size = max(1, -(-n_spaces // _BLOCKS))
    return [
        (start, min(start + size, n_spaces))
        for start in range(0, max(n_spaces, 1), size)
    ]


def _run_key(algorithm, binding, primitives, config, n_blocks) -> str:
    from repro.cache.keys import shard_run_key

    cfg = asdict(config)
    cfg["block_values"] = list(cfg["block_values"])
    cfg["frontier"] = (
        None if cfg["frontier"] is None else list(cfg["frontier"])
    )
    return shard_run_key(
        algorithm.name,
        [list(c) for c in algorithm.dependences.columns()],
        algorithm.index_set.bounds(binding),
        primitives,
        cfg,
        n_blocks,
    )


def _block_key(run_key: str, block_id: int) -> str:
    return f"{run_key}-block-{block_id}"


# ---------------------------------------------------------------------------
# Block evaluation (pure function of the block)
# ---------------------------------------------------------------------------

def _eval_block(
    ctx: _EvalContext,
    spaces: list[list[list[int]]],
    frontier_metrics: tuple[str, ...] | None,
) -> dict:
    """Evaluate one block on a fresh copy of ``ctx``; JSON-native payload.

    The copy starts from an empty :class:`EvalCache`
    (:meth:`~repro.mapping.engine._EvalContext.fresh`), which is what
    makes the payload independent of what ran before it.
    """
    ctx = ctx.fresh()
    time_of = {pi: t for t, pi in ctx.schedules}
    d_cols = [tuple(c) for c in ctx.algorithm.dependences.columns()]
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
                        mapping, ctx.algorithm.index_set, ctx.binding
                    ),
                    "wire_length": design_wire_length(
                        report.interconnect, space, d_cols
                    ),
                }
            )
    frontier = None
    if frontier_metrics is not None:
        frontier = [
            pt.to_dict()
            for pt in merge_frontiers(
                _frontier_points(designs, frontier_metrics)
            )
        ]
    return {
        "designs": designs,
        "frontier": frontier,
        "metrics": {
            name: int(value) for name, value in sorted(reg.counters.items())
        },
    }


def _frontier_points(designs: list[dict], metrics: tuple[str, ...]):
    return [
        FrontierPoint(
            metrics=tuple(int(d[m]) for m in metrics),
            rows=tuple(tuple(int(x) for x in row) for row in d["rows"]),
        )
        for d in designs
    ]


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

def run_sharded_search(
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig | None = None,
    *,
    shard_dir: str | None = None,
) -> ShardedSearchResult:
    """Run a design-space search as published, reusable blocks.

    Blocks already published in ``shard_dir`` -- by an earlier run of the
    same search, from any process or machine sharing the directory -- are
    reused; the missing ones are evaluated in-process, each on a fresh
    memo, and published (``shard_dir=None``: a fresh temporary
    directory).  The merged design list equals
    :func:`~repro.mapping.engine.run_search` under the same config.
    """
    from repro.cache import ArtifactCache

    config = config if config is not None else SearchConfig()
    ephemeral = shard_dir is None
    if ephemeral:
        shard_dir = tempfile.mkdtemp(prefix="repro-shard-")
    try:
        with obs.span(
            "mapping.shard.search", strategy=config.resolved_strategy,
        ):
            ctx, spaces = _setup(algorithm, binding, primitives, config)
            blocks = _blocks(len(spaces))
            run_key = _run_key(
                algorithm, binding, primitives, config, len(blocks)
            )
            obs.count("mapping.shard.blocks", len(blocks))
            store = ArtifactCache(shard_dir, shared=True)
            payloads = [
                store.get(_KIND, _block_key(run_key, block_id))
                for block_id in range(len(blocks))
            ]
            missing = [i for i, p in enumerate(payloads) if p is None]
            for block_id in missing:
                payload = _eval_block(
                    ctx, spaces[slice(*blocks[block_id])], config.frontier
                )
                store.put(_KIND, _block_key(run_key, block_id), payload)
                obs.count_many(payload["metrics"])
                payloads[block_id] = payload
            obs.count("mapping.shard.evaluated_blocks", len(missing))
            return _merge(payloads, config, run_key)
    finally:
        if ephemeral:
            shutil.rmtree(shard_dir, ignore_errors=True)


def _merge(
    payloads: list[dict], config: SearchConfig, run_key: str
) -> ShardedSearchResult:
    """Fold block payloads in block-index order (see module docstring)."""
    designs: list[dict] = []
    metrics: dict[str, int] = {}
    partial_frontiers: list[list[FrontierPoint]] = []
    for payload in payloads:
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
    obs.count("mapping.designs_found", len(designs))
    return ShardedSearchResult(
        designs=designs,
        frontier=frontier,
        metrics={name: metrics[name] for name in sorted(metrics)},
        blocks=len(payloads),
        run_key=run_key,
    )
