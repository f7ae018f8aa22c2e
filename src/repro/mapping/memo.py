"""Memoization support for the design-space search engine.

The per-candidate work of the search -- conflict enumeration and
interconnect factorization -- is pure in its inputs, and the inputs repeat
heavily across candidates: many mappings ``T = [S; Π]`` share a nullspace
lattice, and the interconnect subproblems ``P k̄ = S d̄_i`` recur for every
schedule sharing a space row, under the deadlines ``Π d̄_i`` of those
schedules.  :class:`EvalCache` is a plain dictionary over *canonicalized*
keys with hit/miss accounting surfaced through :mod:`repro.obs`
(``mapping.cache_hits`` / ``mapping.cache_misses``).

A cache is scoped to one search run -- or, for the binding-free
``plattice`` solves and the interconnect column answers, to one search
plan (:class:`~repro.mapping.solver.SearchPlan`), whose walks share its
column table -- and lives only in memory: nothing is persisted across
runs.  Entries are never invalidated; a witness list
(:meth:`EvalCache.get_witnesses`) is only replaced by the longer list of a
larger limit, and a column answer (:meth:`EvalCache.get_column`) with no
solution only by the answer of a larger budget.  Cached callables must be
deterministic and their results treated as immutable.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

from repro import obs

__all__ = ["EvalCache"]

V = TypeVar("V")


class EvalCache:
    """A run-scoped memo table with obs-visible hit/miss counters."""

    __slots__ = ("data", "columns", "hits", "misses", "box")

    def __init__(self, columns: dict | None = None) -> None:
        self.data: dict[Hashable, object] = {}
        #: Interconnect column answers (:meth:`get_column`); a search walk
        #: shares its plan's table, so certification reads the plan's solves.
        self.columns: dict[Hashable, tuple] = (
            {} if columns is None else columns
        )
        self.hits = 0
        self.misses = 0
        #: The last index set and binding a condition-3 query instantiated,
        #: with their bounds and the widths of the difference box
        #: (:func:`~repro.mapping.conflicts.find_conflicts`); a search walk
        #: asks about one of each, so it evaluates them once.
        self.box: tuple | None = None

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """Return the cached value for ``key``, computing it on first use."""
        data = self.data
        if key in data:
            self.hits += 1
            obs.count("mapping.cache_hits")
            return data[key]  # type: ignore[return-value]
        self.misses += 1
        obs.count("mapping.cache_misses")
        value = compute()
        data[key] = value
        return value

    def get_witnesses(
        self, key: Hashable, limit: int | None,
        compute: Callable[[int | None], list],
    ) -> list:
        """``compute(limit)``, a list of at most ``limit`` witnesses
        (``None``: all of them), memoized on ``key`` for every limit.

        A stored list shorter than the limit it was computed under is
        complete and serves any limit; a full one serves every limit up to
        its length, truncated (``compute`` must list witnesses in one fixed
        order, so truncating equals computing under the smaller limit).  A
        larger limit misses and replaces the stored list.
        """
        entry = self.data.get(key)
        if entry is not None:
            stored_limit, witnesses = entry  # type: ignore[misc]
            if (
                stored_limit is None
                or len(witnesses) < stored_limit
                or (limit is not None and limit <= len(witnesses))
            ):
                self.hits += 1
                obs.count("mapping.cache_hits")
                return witnesses[:limit]
        self.misses += 1
        obs.count("mapping.cache_misses")
        witnesses = compute(limit)
        self.data[key] = (limit, witnesses)
        return witnesses

    def get_column(
        self, key: Hashable, budget: int,
        compute: Callable[[int], list[int] | None],
    ) -> list[int] | None:
        """``compute(budget)``, the minimum-hop ``k̄`` of one interconnect
        column within ``budget`` hops or ``None``, memoized on ``key`` (the
        column's ``(P, S d̄_i)``) for every budget.

        The depth-first solve returns the same minimum-hop ``k̄`` under
        every budget at least its hop count, and nothing below it; so a
        stored ``k̄`` serves every budget (``None`` below its hop count),
        and a stored ``None`` serves every budget up to the one it was
        computed under.  A larger budget misses and replaces a ``None``.
        """
        entry = self.columns.get(key)
        if entry is not None:
            stored_budget, k_col = entry
            if k_col is not None or budget <= stored_budget:
                self.hits += 1
                obs.count("mapping.cache_hits")
                return k_col if k_col is None or sum(k_col) <= budget else None
        self.misses += 1
        obs.count("mapping.cache_misses")
        k_col = compute(budget)
        self.columns[key] = (budget, k_col)
        return k_col

    def __len__(self) -> int:
        return len(self.data) + len(self.columns)

    def __repr__(self) -> str:
        return (
            f"EvalCache({len(self)} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
