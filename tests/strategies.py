"""Hypothesis strategies for the property-based suites.

They draw from the same envelopes as the pure-random generators of
:mod:`repro.verify.generator` (``tests/test_theorem31_random.py`` and
``tests/test_util_properties.py`` use them).  They live with the tests
so that the package never imports Hypothesis.
"""

from hypothesis import strategies as st

from repro.verify.generator import SizeEnvelope, Theorem31Case

__all__ = [
    "int_matrix_strategy",
    "int_vector_strategy",
    "theorem31_case_strategy",
    "word_vector_strategy",
]


def word_vector_strategy(dim: int, max_step: int = 2):
    """Lexicographically positive ``dim``-vectors, by construction (no
    filtering): a zero prefix, a positive pivot, free trailing entries."""

    def build(pivot: int):
        return st.tuples(
            *(
                [st.just(0)] * pivot
                + [st.integers(1, max_step)]
                + [st.integers(-max_step, max_step)] * (dim - pivot - 1)
            )
        )

    return st.integers(0, dim - 1).flatmap(build)


def theorem31_case_strategy(env: SizeEnvelope = SizeEnvelope()):
    """Whole :class:`~repro.verify.generator.Theorem31Case` draws."""

    def build(dim: int):
        vec = word_vector_strategy(dim, env.max_step)
        return st.builds(
            Theorem31Case,
            h1=vec,
            h2=vec,
            h3=vec,
            lowers=st.just((1,) * dim),
            uppers=st.tuples(*([st.integers(2, env.max_extent)] * dim)),
            p=st.integers(env.min_p, env.max_p),
            expansion=st.sampled_from(("I", "II")),
            method=st.just("enumerate"),
        )

    return st.sampled_from(env.word_dims).flatmap(build)


def int_vector_strategy(max_len: int = 4, bound: int = 6):
    """Short integer vectors for :mod:`repro.util` property tests."""
    return st.lists(
        st.integers(-bound, bound), min_size=1, max_size=max_len
    )


def int_matrix_strategy(max_dim: int = 4, bound: int = 6):
    """Small non-ragged integer matrices for :mod:`repro.util.linalg`
    property tests."""

    def build(shape: tuple[int, int]):
        rows, cols = shape
        return st.lists(
            st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )

    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(build)
