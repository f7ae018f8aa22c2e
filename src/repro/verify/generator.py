"""Randomized case generation for the differential verification subsystem.

Every oracle in :mod:`repro.verify` consumes *cases*: small, frozen,
JSON-serializable descriptions of one concrete instance to cross-check.
This module owns

* :class:`SizeEnvelope` -- the configurable size limits within which cases
  are drawn (word dimensions, index-set extents, word lengths, mapping
  entry bounds);
* the case dataclasses (:class:`Theorem31Case`, :class:`MappingCase`,
  :class:`SimulatorCase`), each carrying its own ``shrink_candidates``
  generator so :mod:`repro.verify.shrink` can minimize counterexamples
  without knowing their shape;
* seeded pure-``random`` generators (``gen_*``) used by the CLI runner --
  fully deterministic for a given ``random.Random``.

The Hypothesis strategies over the same envelopes live with the
property-based suites, in ``tests/strategies.py``: the package never
imports Hypothesis.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Iterator, Sequence

__all__ = [
    "EDGE_SIZES",
    "SizeEnvelope",
    "Theorem31Case",
    "AnalysisCase",
    "MappingCase",
    "SearchCase",
    "SimulatorCase",
    "SymbolicCase",
    "lex_positive",
    "random_word_vector",
    "gen_theorem31_case",
    "gen_analysis_case",
    "gen_mapping_case",
    "gen_search_case",
    "gen_simulator_case",
    "gen_symbolic_case",
]


@dataclass(frozen=True)
class SizeEnvelope:
    """Size limits for generated cases.

    The defaults keep every oracle check well under a tenth of a second so
    that ``verify --cases 50`` finishes in seconds; fuzz jobs may enlarge
    them (`max_extent`, `max_p`) for deeper sweeps.
    """

    #: word-level dimensions to draw from (Theorem 3.1 cases)
    word_dims: tuple[int, ...] = (1, 2)
    #: largest per-axis upper bound of a word-level index set
    max_extent: int = 4
    #: largest |entry| of a word-level dependence vector
    max_step: int = 2
    #: word-length range (inclusive)
    min_p: int = 2
    max_p: int = 3
    #: largest matrix dimension for simulator cases
    max_u: int = 3
    #: largest |entry| of a randomly drawn mapping-matrix row
    mapping_entry_bound: int = 2


# ---------------------------------------------------------------------------
# Shared primitives
# ---------------------------------------------------------------------------

def lex_positive(vec: Sequence[int]) -> bool:
    """True when the first nonzero entry of ``vec`` is positive."""
    for x in vec:
        if x > 0:
            return True
        if x < 0:
            return False
    return False


def random_word_vector(
    rng: random.Random, dim: int, max_step: int
) -> tuple[int, ...]:
    """A lexicographically positive integer vector, by construction.

    The leading prefix is zero, the pivot entry is drawn from
    ``1..max_step``, and trailing entries range over ``-max_step..max_step``
    -- exactly the shape of a model-(3.5) pipelining vector.
    """
    pivot = rng.randrange(dim)
    vec = [0] * dim
    vec[pivot] = rng.randint(1, max_step)
    for k in range(pivot + 1, dim):
        vec[k] = rng.randint(-max_step, max_step)
    return tuple(vec)


def _shrink_int(value: int, floor: int) -> Iterator[int]:
    """Candidate reductions of ``value`` toward ``floor`` (halving, then -1)."""
    if value <= floor:
        return
    half = floor + (value - floor) // 2
    if half != value:
        yield half
    if value - 1 != half:
        yield value - 1


def _shrink_vector(
    vec: tuple[int, ...], keep: "callable[[tuple[int, ...]], bool]"
) -> Iterator[tuple[int, ...]]:
    """Move entries toward zero, one at a time, preserving ``keep``."""
    for i, x in enumerate(vec):
        if x == 0:
            continue
        candidate = list(vec)
        candidate[i] = x - 1 if x > 0 else x + 1
        out = tuple(candidate)
        if keep(out):
            yield out


# ---------------------------------------------------------------------------
# Theorem 3.1 cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem31Case:
    """One concrete model-(3.5) instance for the Theorem 3.1 oracle."""

    h1: tuple[int, ...]
    h2: tuple[int, ...]
    h3: tuple[int, ...]
    lowers: tuple[int, ...]
    uppers: tuple[int, ...]
    p: int
    expansion: str
    #: analyzer backend run on the expanded program
    method: str = "enumerate"

    def to_dict(self) -> dict:
        return asdict(self)

    def shrink_candidates(self) -> Iterator["Theorem31Case"]:
        for axis, hi in enumerate(self.uppers):
            for smaller in _shrink_int(hi, self.lowers[axis]):
                uppers = list(self.uppers)
                uppers[axis] = smaller
                yield replace(self, uppers=tuple(uppers))
        for smaller in _shrink_int(self.p, 2):
            yield replace(self, p=smaller)
        for name in ("h1", "h2", "h3"):
            for vec in _shrink_vector(getattr(self, name), lex_positive):
                yield replace(self, **{name: vec})
        if self.method == "exact":
            yield replace(self, method="enumerate")


def gen_theorem31_case(
    rng: random.Random, env: SizeEnvelope = SizeEnvelope()
) -> Theorem31Case:
    """Draw a random Theorem 3.1 case inside the envelope."""
    dim = rng.choice(env.word_dims)
    uppers = tuple(rng.randint(2, env.max_extent) for _ in range(dim))
    # The exact (Diophantine) analyzer is exponential; run it on a sample of
    # the smallest cases so both backends stay cross-checked.
    method = "exact" if dim == 1 and rng.random() < 0.25 else "enumerate"
    return Theorem31Case(
        h1=random_word_vector(rng, dim, env.max_step),
        h2=random_word_vector(rng, dim, env.max_step),
        h3=random_word_vector(rng, dim, env.max_step),
        lowers=(1,) * dim,
        uppers=uppers,
        p=rng.randint(env.min_p, env.max_p),
        expansion=rng.choice(("I", "II")),
        method=method,
    )


# ---------------------------------------------------------------------------
# Analysis-engine cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisCase:
    """One expanded bit-level program for the analysis-route oracle.

    The same model-(3.5) shape as :class:`Theorem31Case`, but here the two
    sides of the differential check are two *routes* of
    :mod:`repro.depanalysis.engine` on one program: the default exact
    route (the symbolic closed form, instantiated) must reproduce the
    scalar reference for the case's method -- the same ordered instance
    list, and the same ``pairs_tested``/``instances`` counters.
    """

    h1: tuple[int, ...]
    h2: tuple[int, ...]
    h3: tuple[int, ...]
    lowers: tuple[int, ...]
    uppers: tuple[int, ...]
    p: int
    expansion: str
    #: scalar reference method the default exact route is compared with
    method: str = "enumerate"
    #: exercise the GCD/Banerjee screens (method="exact" only)
    use_screens: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    def build_program(self):
        """The explicit bit-level loop nest this case analyzes."""
        from repro.ir.expand import expand_bit_level

        return expand_bit_level(
            self.h1, self.h2, self.h3, self.lowers, self.uppers,
            self.p, self.expansion,
        )

    def shrink_candidates(self) -> Iterator["AnalysisCase"]:
        for axis, hi in enumerate(self.uppers):
            for smaller in _shrink_int(hi, self.lowers[axis]):
                uppers = list(self.uppers)
                uppers[axis] = smaller
                yield replace(self, uppers=tuple(uppers))
        for smaller in _shrink_int(self.p, 2):
            yield replace(self, p=smaller)
        for name in ("h1", "h2", "h3"):
            for vec in _shrink_vector(getattr(self, name), lex_positive):
                yield replace(self, **{name: vec})
        if not self.use_screens:
            yield replace(self, use_screens=True)


def gen_analysis_case(
    rng: random.Random, env: SizeEnvelope = SizeEnvelope()
) -> AnalysisCase:
    """Draw a random engine-equivalence case inside the envelope."""
    dim = rng.choice(env.word_dims)
    uppers = tuple(rng.randint(2, env.max_extent) for _ in range(dim))
    # The exact analyzer is the expensive leg; sample it mostly on the
    # smallest programs, the hash-join everywhere.
    r = rng.random()
    if (dim == 1 and r < 0.5) or (dim == 2 and r < 0.15):
        method = "exact"
    else:
        method = "enumerate"
    return AnalysisCase(
        h1=random_word_vector(rng, dim, env.max_step),
        h2=random_word_vector(rng, dim, env.max_step),
        h3=random_word_vector(rng, dim, env.max_step),
        lowers=(1,) * dim,
        uppers=uppers,
        p=rng.randint(env.min_p, env.max_p),
        expansion=rng.choice(("I", "II")),
        method=method,
        use_screens=rng.random() < 0.8,
    )


# ---------------------------------------------------------------------------
# Symbolic-analysis cases
# ---------------------------------------------------------------------------

#: adversarial concrete sizes: 1, 2, primes, powers of two
EDGE_SIZES = (1, 2, 3, 4, 5, 7, 8)


@dataclass(frozen=True)
class SymbolicCase:
    """One symbolic-vs-exact cross-validation instance.

    ``kind`` selects the program family:

    * ``"matmul"`` -- :func:`repro.ir.expand.expand_bit_level` with the
      extents kept symbolic (every word axis bound to ``u``, the word
      length to ``p``), the shape every closed-form path must handle;
    * ``"stride"`` -- a 1-D nest writing ``x(s*j)`` and reading
      ``x(s*j - o)``: its Diophantine system has invariant factor ``s``,
      so the congruence reasoning of the symbolic solver (``s | o`` vs.
      no dependence at all) is genuinely load-bearing -- matmul programs
      have identity subscripts and never exercise it.

    The differential check instantiates the symbolic analysis at the
    stored concrete ``(u, p)`` and compares against the concrete analyzer
    run on the same program with the same binding.
    """

    kind: str
    u: int
    p: int = 2
    h1: tuple[int, ...] = ()
    h2: tuple[int, ...] = ()
    h3: tuple[int, ...] = ()
    lowers: tuple[int, ...] = ()
    expansion: str = "II"
    stride: int = 2
    offset: int = 1
    #: concrete analyzer leg of the differential check
    method: str = "enumerate"

    def to_dict(self) -> dict:
        return asdict(self)

    def binding(self) -> dict:
        """The concrete parameter binding the case instantiates at."""
        if self.kind == "matmul":
            return {"u": self.u, "p": self.p}
        return {"u": self.u}

    def build_program(self):
        """The loop nest with its parameters kept free."""
        from repro.structures.params import S

        if self.kind == "matmul":
            from repro.ir.expand import expand_bit_level

            dim = len(self.h1)
            return expand_bit_level(
                self.h1, self.h2, self.h3, self.lowers,
                tuple(S("u") for _ in range(dim)), S("p"), self.expansion,
            )
        if self.kind == "stride":
            from repro.ir.expr import AffineExpr
            from repro.ir.program import ArrayAccess, LoopNest, Statement
            from repro.structures.indexset import IndexSet

            j = AffineExpr.index("j1")
            stmt = Statement(
                "S1",
                ArrayAccess("x", (j * self.stride,)),
                (ArrayAccess("x", (j * self.stride - self.offset,)),),
            )
            return LoopNest(
                ("j1",),
                IndexSet((0,), (S("u"),)),
                (stmt,),
                name=f"stride-{self.stride}-{self.offset}",
            )
        raise ValueError(f"unknown symbolic-case kind {self.kind!r}")

    def shrink_candidates(self) -> Iterator["SymbolicCase"]:
        for smaller in _shrink_int(self.u, 1):
            yield replace(self, u=smaller)
        if self.kind == "matmul":
            for smaller in _shrink_int(self.p, 1):
                yield replace(self, p=smaller)
            for name in ("h1", "h2", "h3"):
                for vec in _shrink_vector(getattr(self, name), lex_positive):
                    yield replace(self, **{name: vec})
        else:
            for smaller in _shrink_int(self.offset, 1):
                yield replace(self, offset=smaller)
        if self.method == "exact":
            yield replace(self, method="enumerate")


def gen_symbolic_case(
    rng: random.Random, env: SizeEnvelope = SizeEnvelope()
) -> SymbolicCase:
    """Draw a random symbolic cross-validation case inside the envelope.

    Concrete sizes come from :data:`EDGE_SIZES` (clipped to the envelope)
    rather than a uniform range: off-by-one and divisibility bugs live at
    1, 2, primes and powers of two.  Word lengths include ``p = 1``, the
    degenerate single-bit word.
    """
    if rng.random() < 0.25:
        stride = rng.choice((2, 3))
        u_pool = [s for s in EDGE_SIZES if s <= 2 * env.max_extent]
        return SymbolicCase(
            kind="stride",
            u=rng.choice(u_pool),
            stride=stride,
            # about half the draws are indivisible by the stride: the
            # "no dependence at any size" verdict must be exercised too
            offset=rng.randint(1, 3 * stride),
            method=rng.choice(("exact", "enumerate")),
        )
    dim = rng.choice(env.word_dims)
    u_pool = [s for s in EDGE_SIZES if s <= env.max_extent] or [1, 2]
    method = "exact" if dim == 1 and rng.random() < 0.25 else "enumerate"
    return SymbolicCase(
        kind="matmul",
        h1=random_word_vector(rng, dim, env.max_step),
        h2=random_word_vector(rng, dim, env.max_step),
        h3=random_word_vector(rng, dim, env.max_step),
        lowers=(1,) * dim,
        u=rng.choice(u_pool),
        p=rng.randint(1, env.max_p),
        expansion=rng.choice(("I", "II")),
        method=method,
    )


# ---------------------------------------------------------------------------
# Mapping cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MappingCase:
    """One (algorithm instance, mapping, primitives) triple for the
    feasibility oracle.

    ``kind`` selects how the algorithm is rebuilt:

    * ``"word"`` -- :func:`repro.ir.builders.word_model_structure` from the
      stored ``h``-vectors and concrete bounds (box index set);
    * ``"lu"`` -- :func:`repro.ir.builders.lu_word_structure` with ``n``
      (an affine-constrained triangular index set);
    * ``"bitlevel"`` -- :func:`repro.expansion.theorem31.matmul_bit_level`
      with ``(u, p)`` (the paper's 5-D structure).
    """

    kind: str
    rows: tuple[tuple[int, ...], ...]
    #: "none" | "mesh" | "fig4" | "fig5"
    primitives: str
    h1: tuple[int, ...] = ()
    h2: tuple[int, ...] = ()
    h3: tuple[int, ...] = ()
    lowers: tuple[int, ...] = ()
    uppers: tuple[int, ...] = ()
    n: int = 0
    u: int = 0
    p: int = 0
    expansion: str = "II"

    def to_dict(self) -> dict:
        return asdict(self)

    def build(self):
        """Rebuild ``(algorithm, binding, mapping, primitives)`` objects."""
        from repro.expansion.theorem31 import matmul_bit_level
        from repro.ir.builders import lu_word_structure, word_model_structure
        from repro.mapping import designs
        from repro.mapping.interconnect import mesh_primitives
        from repro.mapping.transform import MappingMatrix

        if self.kind == "word":
            alg = word_model_structure(
                self.h1, self.h2, self.h3, self.lowers, self.uppers
            )
            binding: dict[str, int] = {}
        elif self.kind == "lu":
            alg = lu_word_structure(self.n)
            binding = {"n": self.n}
        elif self.kind == "bitlevel":
            alg = matmul_bit_level(self.u, self.p, self.expansion)
            binding = {"u": self.u, "p": self.p}
        else:
            raise ValueError(f"unknown mapping-case kind {self.kind!r}")
        t = MappingMatrix([list(r) for r in self.rows], name="T-verify")
        prims = {
            "none": lambda: None,
            "mesh": lambda: mesh_primitives(max(1, len(self.rows) - 1)),
            "fig4": lambda: designs.fig4_primitives(self.p or 2),
            "fig5": lambda: designs.fig5_primitives(),
        }[self.primitives]()
        return alg, binding, t, prims

    def shrink_candidates(self) -> Iterator["MappingCase"]:
        # Shrink the instance first (cheapest wins for reproduction)...
        if self.kind == "word":
            for axis, hi in enumerate(self.uppers):
                for smaller in _shrink_int(hi, self.lowers[axis]):
                    uppers = list(self.uppers)
                    uppers[axis] = smaller
                    yield replace(self, uppers=tuple(uppers))
            for name in ("h1", "h2", "h3"):
                for vec in _shrink_vector(getattr(self, name), lex_positive):
                    yield replace(self, **{name: vec})
        elif self.kind == "lu":
            for smaller in _shrink_int(self.n, 2):
                yield replace(self, n=smaller)
        elif self.kind == "bitlevel":
            for smaller in _shrink_int(self.u, 2):
                yield replace(self, u=smaller)
            for smaller in _shrink_int(self.p, 2):
                yield replace(self, p=smaller)
        # ... then the mapping entries toward zero.
        for i, row in enumerate(self.rows):
            for vec in _shrink_vector(row, lambda _: True):
                rows = list(self.rows)
                rows[i] = vec
                yield replace(self, rows=tuple(rows))
        if self.primitives != "none":
            yield replace(self, primitives="none")


def _random_rows(
    rng: random.Random, k: int, n: int, bound: int
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(k)
    )


def _biased_rows(
    rng: random.Random, k: int, n: int
) -> tuple[tuple[int, ...], ...]:
    """Catalog space rows plus a lexicographically positive schedule: close
    to the shapes the search engine accepts, so the oracle regularly sees
    *feasible* designs (not only rejections)."""
    from repro.mapping.engine import space_map_catalog

    catalog = space_map_catalog(n)
    space = [catalog[rng.randrange(len(catalog))] for _ in range(k - 1)]
    schedule = tuple(rng.randint(0, 2) for _ in range(n))
    if not any(schedule):
        schedule = (1,) * n
    return tuple(space) + (schedule,)


def gen_mapping_case(
    rng: random.Random, env: SizeEnvelope = SizeEnvelope()
) -> MappingCase:
    """Draw a random mapping case: algorithm instance, mapping, primitives."""
    kind = rng.choice(("word", "word", "lu", "bitlevel"))
    if kind == "word":
        dim = rng.choice((2, 3))
        case = MappingCase(
            kind="word",
            h1=random_word_vector(rng, dim, 1),
            h2=random_word_vector(rng, dim, 1),
            h3=random_word_vector(rng, dim, 1),
            lowers=(1,) * dim,
            uppers=tuple(rng.randint(2, 3) for _ in range(dim)),
            rows=(),
            primitives="none",
        )
        n = dim
    elif kind == "lu":
        case = MappingCase(kind="lu", n=rng.randint(2, 3), rows=(), primitives="none")
        n = 3
    else:
        case = MappingCase(kind="bitlevel", u=2, p=2, rows=(), primitives="none")
        n = 5
        if rng.random() < 0.4:
            # The paper's own designs (and their primitive sets) must always
            # re-validate: feed them through the oracle verbatim.
            from repro.mapping import designs

            design, prims = rng.choice(
                ((designs.fig4_mapping(2), "fig4"), (designs.fig5_mapping(2), "fig5"))
            )
            return replace(case, rows=design.rows, primitives=prims)
    k = rng.randint(2, min(3, n))
    if rng.random() < 0.5:
        rows = _biased_rows(rng, k, n)
    else:
        rows = _random_rows(rng, k, n, env.mapping_entry_bound)
    primitives = rng.choice(("none", "mesh", "mesh"))
    return replace(case, rows=rows, primitives=primitives)


# ---------------------------------------------------------------------------
# Search cases (solver-vs-catalog differential)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchCase:
    """One design-space search instance for the solver/catalog oracle.

    ``kind`` selects the algorithm exactly as :class:`MappingCase` does
    (``"word"`` rebuilds via ``word_model_structure``, ``"bitlevel"`` via
    ``matmul_bit_level``); the remaining fields are the
    :class:`~repro.mapping.engine.SearchConfig` knobs under test.  Word
    cases run exhaustively (``max_candidates=None``), so the oracle
    compares true feasible *sets*; bit-level cases are capped
    (``max_candidates``/``overcollect``) and compare the identical
    ranked prefix both strategies must produce.
    """

    kind: str
    #: "none" | "mesh" | "fig4"
    primitives: str
    target_space_dim: int
    block: tuple[int, ...]
    schedule_bound: int
    max_candidates: int | None = None
    overcollect: int | None = None
    h1: tuple[int, ...] = ()
    h2: tuple[int, ...] = ()
    h3: tuple[int, ...] = ()
    lowers: tuple[int, ...] = ()
    uppers: tuple[int, ...] = ()
    u: int = 0
    p: int = 0
    expansion: str = "II"

    def to_dict(self) -> dict:
        return asdict(self)

    def build(self):
        """Rebuild ``(algorithm, binding, primitives)`` objects."""
        from repro.expansion.theorem31 import matmul_bit_level
        from repro.ir.builders import word_model_structure
        from repro.mapping import designs
        from repro.mapping.interconnect import mesh_primitives

        if self.kind == "word":
            alg = word_model_structure(
                self.h1, self.h2, self.h3, self.lowers, self.uppers
            )
            binding: dict[str, int] = {}
        elif self.kind == "bitlevel":
            alg = matmul_bit_level(self.u, self.p, self.expansion)
            binding = {"u": self.u, "p": self.p}
        else:
            raise ValueError(f"unknown search-case kind {self.kind!r}")
        prims = {
            "none": lambda: None,
            "mesh": lambda: mesh_primitives(self.target_space_dim),
            "fig4": lambda: designs.fig4_primitives(self.p or 2),
        }[self.primitives]()
        return alg, binding, prims

    def config(self, strategy: str):
        """The :class:`SearchConfig` for one strategy under test."""
        from repro.mapping.engine import SearchConfig

        return SearchConfig(
            target_space_dim=self.target_space_dim,
            block_values=self.block,
            schedule_bound=self.schedule_bound,
            max_candidates=self.max_candidates,
            overcollect=self.overcollect,
            strategy=strategy,
        )

    def shrink_candidates(self) -> Iterator["SearchCase"]:
        if self.kind == "word":
            for axis, hi in enumerate(self.uppers):
                for smaller in _shrink_int(hi, self.lowers[axis]):
                    uppers = list(self.uppers)
                    uppers[axis] = smaller
                    yield replace(self, uppers=tuple(uppers))
        elif self.kind == "bitlevel":
            for smaller in _shrink_int(self.u, 2):
                yield replace(self, u=smaller)
            for smaller in _shrink_int(self.p, 2):
                yield replace(self, p=smaller)
        for smaller in _shrink_int(self.schedule_bound, 1):
            yield replace(self, schedule_bound=smaller)
        if self.primitives != "none":
            yield replace(self, primitives="none")


def gen_search_case(
    rng: random.Random, env: SizeEnvelope = SizeEnvelope()
) -> SearchCase:
    """Draw a random search case: word exhaustive, or bit-level capped."""
    if rng.random() < 0.6:
        dim = rng.choice((2, 3))
        return SearchCase(
            kind="word",
            h1=random_word_vector(rng, dim, 1),
            h2=random_word_vector(rng, dim, 1),
            h3=random_word_vector(rng, dim, 1),
            lowers=(1,) * dim,
            uppers=tuple(rng.randint(2, 3) for _ in range(dim)),
            primitives=rng.choice(("none", "mesh")),
            target_space_dim=dim - 1,
            block=(2,),
            schedule_bound=rng.choice((1, 2)),
            max_candidates=None,
            overcollect=None,
        )
    return SearchCase(
        kind="bitlevel",
        u=2,
        p=2,
        primitives=rng.choice(("none", "mesh", "fig4")),
        target_space_dim=2,
        block=(2,),
        schedule_bound=2,
        max_candidates=3,
        overcollect=2,
    )


# ---------------------------------------------------------------------------
# Simulator cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulatorCase:
    """One end-to-end machine execution to check against the word-level
    reference.

    ``mode`` selects the path:

    * ``"unsigned"`` -- :class:`~repro.machine.bitlevel.BitLevelMatmulMachine`
      on a paper design, product compared mod ``2^{2p-1}``;
    * ``"signed"`` -- the coefficient-split driver
      :func:`repro.machine.signed.signed_matmul` over the same machine;
    * ``"word"`` -- :class:`~repro.machine.wordlevel.WordLevelMatmulMachine`
      (sequential arithmetic inside each PE), exact product;
    * ``"baughwooley"`` -- the signed
      :class:`~repro.arith.baughwooley.BaughWooleyMultiplier` on the scalar
      operand pair ``(a, b)``;
    * ``"model"`` -- :class:`~repro.machine.model.BitLevelModelMachine` on
      a model-(3.5) instance over the box ``[1..uppers]``, outputs compared
      with its word-level ``reference``.  ``design`` ``"search"`` is the
      convolution ``h̄ = (1,0), (1,-1), (0,1)`` (``x = (w,)`` the taps,
      ``y = (signal,)``) on the best design ``BitLevelDesigner.design()``
      finds; ``"fig4"``/``"fig5"`` is matmul's ``h̄`` on that paper
      mapping (``x`` is ``uppers[0] x uppers[2]``, ``y`` is
      ``uppers[2] x uppers[1]``).  ``z_init`` holds ``(point, word)``
      initial accumulator pairs.
    """

    mode: str
    u: int
    p: int
    design: str = "fig4"
    expansion: str = "II"
    arithmetic: str = "add-shift"
    x: tuple[tuple[int, ...], ...] = ()
    y: tuple[tuple[int, ...], ...] = ()
    a: int = 0
    b: int = 0
    uppers: tuple[int, ...] = ()
    z_init: tuple[tuple[tuple[int, ...], int], ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def shrink_candidates(self) -> Iterator["SimulatorCase"]:
        def shrink_matrix(name: str) -> Iterator["SimulatorCase"]:
            matrix = getattr(self, name)
            for i, row in enumerate(matrix):
                for j, v in enumerate(row):
                    if v == 0:
                        continue
                    rows = [list(r) for r in matrix]
                    rows[i][j] = v - 1 if v > 0 else v + 1
                    yield replace(
                        self, **{name: tuple(tuple(r) for r in rows)}
                    )

        yield from shrink_matrix("x")
        yield from shrink_matrix("y")
        for smaller in _shrink_int(abs(self.a), 0):
            yield replace(self, a=smaller if self.a >= 0 else -smaller)
        for smaller in _shrink_int(abs(self.b), 0):
            yield replace(self, b=smaller if self.b >= 0 else -smaller)
        for k, (point, word) in enumerate(self.z_init):
            rest = self.z_init[:k] + self.z_init[k + 1:]
            yield replace(self, z_init=rest)
            for smaller in _shrink_int(word, 0):
                yield replace(
                    self, z_init=rest[:k] + ((point, smaller),) + rest[k:]
                )


def _random_matrix(
    rng: random.Random, u: int, lo: int, hi: int, cols: int | None = None
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(u if cols is None else cols))
        for _ in range(u)
    )


def _gen_model_case(rng: random.Random, p: int) -> SimulatorCase:
    """A model-(3.5) instance: a small convolution on a searched design,
    or matmul's h̄ over a rectangular box on a paper mapping; half the
    draws seed some chains with initial accumulator words."""
    expansion = rng.choice(("I", "II"))
    top = (1 << p) - 1
    if rng.random() < 0.5:
        points, taps = rng.randint(2, 4), rng.randint(2, 3)
        case = SimulatorCase(
            mode="model", u=0, p=p, design="search", expansion=expansion,
            uppers=(points, taps),
            x=_random_matrix(rng, 1, 0, top, taps),
            y=_random_matrix(rng, 1, 0, top, points + taps - 1),
        )
        starts = [(j1, 1) for j1 in range(1, points + 1)]
    else:
        e1, e2, e3 = (rng.randint(1, 3) for _ in range(3))
        case = SimulatorCase(
            mode="model", u=0, p=p, design=rng.choice(("fig4", "fig5")),
            expansion=expansion, uppers=(e1, e2, e3),
            x=_random_matrix(rng, e1, 0, top, e3),
            y=_random_matrix(rng, e3, 0, top, e2),
        )
        starts = [(j1, j2, 1) for j1 in range(1, e1 + 1)
                  for j2 in range(1, e2 + 1)]
    if rng.random() < 0.5:
        zmax = (1 << (2 * p - 1)) - 1
        case = replace(case, z_init=tuple(
            (j, rng.randint(0, zmax)) for j in starts if rng.random() < 0.7
        ))
    return case


def gen_simulator_case(
    rng: random.Random, env: SizeEnvelope = SizeEnvelope()
) -> SimulatorCase:
    """Draw a random simulator case inside the envelope."""
    mode = rng.choice(
        ("unsigned", "unsigned", "signed", "word", "baughwooley", "model")
    )
    u = rng.randint(2, env.max_u)
    p = rng.randint(env.min_p, env.max_p)
    if mode == "model":
        return _gen_model_case(rng, p)
    if mode == "baughwooley":
        half = 1 << (p - 1)
        return SimulatorCase(
            mode=mode, u=u, p=p,
            a=rng.randint(-half, half - 1), b=rng.randint(-half, half - 1),
        )
    design = rng.choice(("fig4", "fig5"))
    expansion = rng.choice(("I", "II"))
    if mode == "signed":
        # Keep the true values inside the recentring range [-2^{2p-2},
        # 2^{2p-2}) of the mod-2^{2p-1} machine: u * xmax * ymax must stay
        # below 2^{2p-2}.
        budget = (1 << (2 * p - 2)) - 1
        ymax = max(1, int((budget // u) ** 0.5))
        xmax = max(1, budget // (u * ymax))
        x = _random_matrix(rng, u, -xmax, xmax)
        y = _random_matrix(rng, u, 0, ymax)
    else:
        top = (1 << p) - 1
        x = _random_matrix(rng, u, 0, top)
        y = _random_matrix(rng, u, 0, top)
    return SimulatorCase(
        mode=mode, u=u, p=p, design=design, expansion=expansion,
        arithmetic=rng.choice(("add-shift", "carry-save")),
        x=x, y=y,
    )
