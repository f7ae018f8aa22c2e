"""Randomized Theorem 3.1 verification via hypothesis.

Random lexicographically-positive word-level models at tiny sizes; the
compositional structure must match general dependence analysis of the
expanded program for every draw.  The sampling strategies are the shared
ones from ``tests/strategies.py`` (lex-positive by construction, no
filtering), drawn from the :mod:`repro.verify.generator` envelopes, so
this suite and the ``repro verify`` oracle runner exercise the same case
distribution.
"""

from hypothesis import given, settings, strategies as st

from repro.expansion.verify import verify_theorem31
from repro.verify.generator import SizeEnvelope
from tests.strategies import theorem31_case_strategy, word_vector_strategy

vec_1d = word_vector_strategy(1, max_step=2)
vec_2d = word_vector_strategy(2, max_step=2)


@given(
    vec_1d, vec_1d, vec_1d,
    st.integers(3, 4),
    st.sampled_from(["I", "II"]),
)
@settings(max_examples=25, deadline=None)
def test_random_1d_models(h1, h2, h3, u, expansion):
    rep = verify_theorem31(
        list(h1), list(h2), list(h3), [1], [u], 2, expansion
    )
    assert rep.matches, rep.summary()


@given(
    vec_2d, vec_2d, vec_2d,
    st.sampled_from(["I", "II"]),
)
@settings(max_examples=20, deadline=None)
def test_random_2d_models(h1, h2, h3, expansion):
    rep = verify_theorem31(
        list(h1), list(h2), list(h3), [1, 1], [3, 3], 2, expansion
    )
    assert rep.matches, rep.summary()


@given(theorem31_case_strategy(SizeEnvelope(max_extent=3)))
@settings(max_examples=15, deadline=None)
def test_random_whole_cases(case):
    rep = verify_theorem31(
        case.h1, case.h2, case.h3, case.lowers, case.uppers,
        case.p, case.expansion, method=case.method,
    )
    assert rep.matches, rep.summary()
